"""JSON codecs for states, channels and reports.

Matrix entries are always [re, im] pairs (even for real values); numbers go
through Python's shortest-round-trip float encoding, so parse(emit(x)) is
bit-exact at double precision.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

import numpy as np

from . import linalg
from .channels import KrausChannel
from .errors import ChoilabError, ParseError
from .states import MultipartiteState, PartySystem

if TYPE_CHECKING:  # the report layer sits above the codec
    from .nonadditivity import ReproductionReport


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return np.stack((m.real, m.imag), -1).tolist()


def decode_matrix(obj: Any, what: str = "matrix") -> np.ndarray:
    """A nonempty rows x cols array of [re, im] number pairs, decoded bit-exactly.

    JSON numbers arrive as Python ints, floats and bools; numpy reads them
    in one pass, and any array that is not numeric with shape
    (rows, cols, 2) (ragged rows, strings, null, a cell that is not a
    pair) is rejected.
    """
    try:
        arr = np.array(obj)
    except ValueError:  # ragged or mixed-depth nesting
        arr = None
    if arr is None or arr.dtype.kind not in "biuf" or arr.ndim != 3 or arr.shape[2] != 2:
        raise ParseError(f"{what}: expected a nonempty array of rows of [re, im] number pairs")
    m = np.empty(arr.shape[:2], dtype=np.complex128)
    m.real = arr[..., 0]
    m.imag = arr[..., 1]
    return m


def _decode_system(obj: Any, what: str) -> PartySystem:
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected an object with labels and dims")
    labels = obj.get("labels")
    dims = obj.get("dims")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise ParseError(f"{what}: labels must be an array of strings")
    if not isinstance(dims, list) or not all(isinstance(d, int) for d in dims):
        raise ParseError(f"{what}: dims must be an array of integers")
    try:
        return PartySystem(tuple(labels), tuple(dims))
    except ChoilabError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def state_to_dict(state: MultipartiteState) -> dict:
    return {
        "labels": list(state.system.labels),
        "dims": list(state.system.dims),
        "matrix": encode_matrix(state.matrix),
    }


def state_from_dict(obj: Any, psd_threshold: float = linalg.PSD_THRESHOLD) -> MultipartiteState:
    if not isinstance(obj, dict):
        raise ParseError("state: expected a JSON object")
    system = _decode_system({"labels": obj.get("labels"), "dims": obj.get("dims")}, "state")
    matrix = decode_matrix(obj.get("matrix"), "state.matrix")
    try:
        return MultipartiteState(system, matrix, psd_threshold=psd_threshold)
    except ChoilabError as exc:
        raise ParseError(f"state: {exc}") from exc


def channel_to_dict(ch: KrausChannel) -> dict:
    return {
        "name": ch.name,
        "input": {"labels": list(ch.input_system.labels), "dims": list(ch.input_system.dims)},
        "output": {"labels": list(ch.output_system.labels), "dims": list(ch.output_system.dims)},
        "kraus": [encode_matrix(a) for a in ch.kraus],
    }


def channel_from_dict(obj: Any) -> KrausChannel:
    if not isinstance(obj, dict):
        raise ParseError("channel: expected a JSON object")
    name = obj.get("name")
    if not isinstance(name, str):
        raise ParseError("channel: name must be a string")
    input_system = _decode_system(obj.get("input"), "channel.input")
    output_system = _decode_system(obj.get("output"), "channel.output")
    kraus_obj = obj.get("kraus")
    if not isinstance(kraus_obj, list) or not kraus_obj:
        raise ParseError("channel: kraus must be a nonempty array of matrices")
    kraus = tuple(decode_matrix(k, f"channel.kraus[{i}]") for i, k in enumerate(kraus_obj))
    try:
        return KrausChannel(name, input_system, output_system, kraus)
    except ChoilabError as exc:
        raise ParseError(f"channel: {exc}") from exc


def report_to_dict(report: ReproductionReport) -> dict:
    """The report's entries, each claim's status decided here; the CLI adds the run envelope."""
    return {
        "entries": [
            {
                "id": e.claim_id,
                "description": e.description,
                "expected": e.expected,
                "computed": e.computed,
                "tolerance": e.tolerance,
                "status": "pass" if e.passed else "fail",
                "control": e.control,
            }
            for e in report.entries
        ],
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_path(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc

"""JSON codecs for states, channels and reports.

Matrix entries are always [re, im] pairs (even for real values); numbers go
through Python's shortest-round-trip float encoding, so parse(emit(x)) is
bit-exact at double precision.

``dumps`` writes the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline, without the pure-Python encoder that ``indent`` selects in
CPython.  A nonempty list of plain ints and finite floats nested to one
depth (a matrix, a list of matrices) is formatted from a single ``repr``:
that text is checked to hold only numbers, ", " and brackets at that depth,
and is then re-indented with one ``str.replace`` per depth.  Any other list
falls back to the per-item path, as do dicts (sorted str keys) and scalars
(json's own encoding, so NaN, Infinity, true and null are unchanged); a
dict with non-str keys, or a value json cannot encode, goes to
``json.dumps`` itself.  Cyclic values raise RecursionError, not json's
ValueError.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring_ascii
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


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    out: list[str] = []
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _float(o: float) -> str:
    return repr(o) if math.isfinite(o) else json.dumps(o)  # NaN, Infinity, -Infinity


# json's text for the scalar types, exact types only: subclasses take the fallback.
_SCALARS = {
    str: encode_basestring_ascii,
    int: repr,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda o: "null",
}


def _encode(o: Any, level: int, out: list[str]) -> None:
    """Append json's text for ``o``, a value starting at indent ``level``."""
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        out.append(scalar(o))
    elif isinstance(o, (list, tuple)):
        text = _numeric_array(o, level) if type(o) is list else None
        if text is not None:
            out.append(text)
        else:
            _encode_items("[]", [("", item) for item in o], level, out)
    elif isinstance(o, dict) and all(isinstance(key, str) for key in o):
        items = [(encode_basestring_ascii(key) + ": ", value) for key, value in sorted(o.items())]
        _encode_items("{}", items, level, out)
    else:  # keys json converts, subclasses, or types it rejects; its strings hold no raw newline
        out.append(json.dumps(o, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level))


def _encode_items(brackets: str, items: list[tuple[str, Any]], level: int, out: list[str]) -> None:
    """A list or dict: each item's prefix ("" or its encoded key) and value, one per line."""
    if not items:
        out.append(brackets)
        return
    newline = "\n" + "  " * (level + 1)
    sep = brackets[0] + newline
    for prefix, value in items:
        scalar = _SCALARS.get(type(value))
        if scalar is not None:
            out.append(sep + prefix + scalar(value))
        else:
            out.append(sep + prefix)
            _encode(value, level + 1, out)
        sep = "," + newline
    out.append("\n" + "  " * level + brackets[1])


# After each "]"*j + ", " + "["*j (0 < j < depth) becomes chr(j), an array
# of uniform depth is numbers and separators only.  The control characters
# appear in no number's repr and bound the depth at 32.
_NUMBERS = re.compile(r"[-+0-9.eE]+(?:(?:, |[\x01-\x1f])[-+0-9.eE]+)*")


def _numeric_array(o: list, level: int) -> str | None:
    """json's text for a uniform-depth array of plain ints and finite floats, else None.

    repr and json print a plain int or finite float alike; bools, None,
    strings, NaN, infinities, numpy scalars and ragged nesting leave other
    characters or brackets in the text and are refused.  (Past the first
    leaf, an int or float subclass that overrides repr to print another
    number would be written as it prints.)
    """
    depth, leaf = 0, o
    while type(leaf) is list and leaf and depth < 32:
        leaf = leaf[0]
        depth += 1
    if type(leaf) not in (int, float):
        return None
    text = repr(o)
    inner = text[depth:-depth]
    for j in range(depth - 1, 0, -1):
        inner = inner.replace("]" * j + ", " + "[" * j, chr(j))
    if not _NUMBERS.fullmatch(inner):
        return None
    pad = ["\n" + "  " * (level + i) for i in range(depth + 1)]

    def closes(j: int) -> str:
        return "".join(pad[depth - i] + "]" for i in range(1, j + 1))

    def opens(j: int) -> str:
        return "".join(pad[depth - j + i] + "[" for i in range(j)) + pad[depth]

    inner = inner.replace(", ", "," + opens(0))
    for j in range(1, depth):
        inner = inner.replace(chr(j), closes(j) + "," + opens(j))
    return "[" + opens(depth - 1) + inner + closes(depth)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def load_path(path) -> Any:
    """The JSON document in a UTF-8 file; an unreadable file is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads(text)

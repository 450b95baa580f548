"""JSON codecs for states, channels and reports.

Matrix entries are always [re, im] pairs (even for real values); numbers go
through Python's shortest-round-trip float encoding, so parse(emit(x)) is
bit-exact at double precision.

``dumps`` writes the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline, without the pure-Python encoder that ``indent`` selects in
CPython.  A nonempty list of plain ints and finite floats nested to one
depth (a matrix, a list of matrices) is formatted from a single ``repr``:
that text is checked to hold only numbers, ", " and brackets at that depth,
and is then re-indented with one ``str.replace`` per depth.  A nonempty
list of nonempty flat dicts (report rows: plain str keys, scalar values)
is written by one call of json's C encoder, whose item separator carries
the newline and indent.  Any other list falls back to the per-item path,
as do dicts (sorted str keys) and scalars (json's own encoding, so NaN,
Infinity, true and null are unchanged); a dict with non-str keys, or a
value json cannot encode, goes to ``json.dumps`` itself.  Cyclic values
raise RecursionError, not json's ValueError.
"""

from __future__ import annotations

import functools
import json
import math
import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any

import numpy as np

from . import linalg
from .channels import KrausChannel
from .errors import ChoilabError, ParseError
from .states import MultipartiteState, PartySystem

if TYPE_CHECKING:  # the report layer sits above the codec
    from .nonadditivity import ReproductionReport


def encode_matrix(m: np.ndarray) -> list:
    """[re, im] pairs in nested lists; a stack of matrices gives a list of matrices."""
    return np.stack((m.real, m.imag), -1).tolist()


def decode_matrix(obj: Any, what: str = "matrix") -> np.ndarray:
    """A nonempty rows x cols array of [re, im] number pairs, decoded bit-exactly.

    JSON numbers arrive as Python ints, floats and bools; numpy reads them
    in one pass, and any array that is not numeric with shape
    (rows, cols, 2) (ragged rows, strings, null, a cell that is not a
    pair) is rejected.
    """
    arr = _number_pairs(obj)
    if arr is None or arr.ndim != 3:
        raise ParseError(f"{what}: expected a nonempty array of rows of [re, im] number pairs")
    return _complex(arr)


def _number_pairs(obj: Any) -> np.ndarray | None:
    """``obj`` read by numpy in one pass, if it is numeric with a last axis of 2."""
    try:
        arr = np.array(obj)
    except ValueError:  # ragged or mixed-depth nesting
        return None
    if arr.dtype.kind not in "biuf" or arr.shape[-1:] != (2,):
        return None
    return arr


def _complex(pairs: np.ndarray) -> np.ndarray:
    m = np.empty(pairs.shape[:-1], dtype=np.complex128)
    m.real = pairs[..., 0]
    m.imag = pairs[..., 1]
    return m


def _decode_kraus(obj: list) -> np.ndarray | list[np.ndarray]:
    """The Kraus list as one (K, rows, cols) array, each operator as decode_matrix reads it.

    numpy types a list by all of its numbers, and whether an int of 2**63
    or more reads as uint64, float64 or object depends on the numbers
    beside it (and on the numpy version).  Lists holding such magnitudes
    (NaN and infinities among them), and any that do not stack, are read
    one operator at a time, so the first bad operator names the error.
    """
    arr = _number_pairs(obj)
    if arr is None or arr.ndim != 4 or not (np.abs(arr) < 2.0**63).all():
        return [decode_matrix(k, f"channel.kraus[{i}]") for i, k in enumerate(obj)]
    return _complex(arr)


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
        "kraus": encode_matrix(ch.kraus),
    }


def channel_from_dict(obj: Any) -> KrausChannel:
    """The channel a JSON object describes; any defect in it is a ParseError.

    The ``kraus`` list is decoded with one numpy call into the channel's
    (K, rows, cols) array when it stacks; otherwise, and when its numbers
    could type differently read together than one operator at a time, each
    operator is decoded alone, so errors and values are those of
    ``decode_matrix``.
    """
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
    kraus = _decode_kraus(kraus_obj)
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
        text = (_numeric_array(o, level) or _dict_rows(o, level)) if type(o) is list else None
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


def _dict_rows(o: list, level: int) -> str | None:
    """json's text for a nonempty list of nonempty flat dicts (report rows), else None.

    Every row must be a plain dict with plain str keys and values whose
    exact type is in _SCALARS.  One C encoder call writes the rows with
    "," + newline + the row items' indent between items; a raw newline
    never occurs inside an encoded string, and an item never starts with
    "{", so "}" + that separator + "{" occurs only between two rows.
    """
    if not o or set(map(type, o)) != {dict} or not all(o):
        return None
    keys = set(map(type, chain.from_iterable(o)))
    values = set(map(type, chain.from_iterable(map(dict.values, o))))
    if keys != {str} or not _SCALARS.keys() >= values:
        return None
    outer, inner = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    text = _row_encoder(level).encode(o)
    body = text[2:-2].replace("}," + inner + "{", outer + "}," + outer + "{" + inner)
    return "[" + outer + "{" + inner + body + outer + "}" + "\n" + "  " * level + "]"


@functools.cache
def _row_encoder(level: int) -> json.JSONEncoder:
    """An encoder for the rows of a list at ``level``: json's separators without indent, so C speed."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (level + 2), ": "))


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

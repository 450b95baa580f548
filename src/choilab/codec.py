"""JSON codecs for states, channels and reports.

Matrix entries are always [re, im] pairs (even for real values); numbers go
through Python's shortest-round-trip float encoding, so parse(emit(x)) is
bit-exact at double precision.  ``report_to_dict`` reads claims by their
attributes (``claim_id``, ``passed``, ...) and names no report type, so
the codec imports nothing from the report layer above it.

``dumps`` writes the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline, without the pure-Python encoder that ``indent`` selects in
CPython, and writes a float64 ``np.ndarray`` as json would write its
``tolist()``.  A nonempty, finite float64 array of one or more dimensions
(the pair arrays ``state_to_dict`` and ``channel_to_dict`` return) is laid
out by ``_array_text``, the template the reader checks files against, with
one ``repr`` per distinct number.  A nonempty list of nonempty flat dicts
(report rows: plain str keys, scalar values) is written by one call of
json's C encoder, whose item separator carries the newline and indent.
Any other list, and any other float64 array's ``tolist()``, takes the
per-item path, as do dicts (sorted str keys) and scalars (json's own
encoding, so NaN, Infinity, true and null are unchanged); a dict with
non-str keys, or a value json cannot encode (any other ndarray among
them), goes to ``json.dumps`` itself.  Cyclic values raise RecursionError,
not json's ValueError.

``load_path`` reads the one large array of a state or channel file, the
top-level ``matrix`` or ``kraus`` list of [re, im] pairs, straight from
the text as a float64 array of shape (..., 2), with a few C string passes
and numpy calls, and leaves the rest to json; the decoders take the array
or nested lists alike.  It does so only for a large, mostly-0.0 array it
can prove json would read to the same numbers (see ``_read_pairs``);
every other file goes to ``loads``, plain ``json.loads``, unchanged.
"""

from __future__ import annotations

import functools
import json
import math
import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from . import linalg
from .channels import KrausChannel
from .errors import ChoilabError
from .states import MultipartiteState, PartySystem


def encode_matrix(m: np.ndarray) -> np.ndarray:
    """[re, im] pairs as a float64 array of shape m.shape + (2,), which dumps writes as nested lists."""
    return np.stack((m.real, m.imag), -1)


def decode_matrix(obj: Any, what: str = "matrix") -> np.ndarray:
    """A nonempty rows x cols array of [re, im] number pairs, decoded bit-exactly.

    JSON numbers arrive as Python ints, floats and bools, or already as the
    float64 array ``load_path`` reads; numpy reads them in one pass, and
    any array that is not numeric with shape
    (rows, cols, 2) (ragged rows, strings, null, a cell that is not a
    pair) is rejected.
    """
    arr = _number_pairs(obj)
    if arr is None or arr.ndim != 3:
        raise ChoilabError(f"{what}: expected a nonempty array of rows of [re, im] number pairs")
    return _complex(arr)


def _number_pairs(obj: Any) -> np.ndarray | None:
    """``obj`` read by numpy in one pass, if it is numeric with a last axis of 2."""
    try:
        arr = np.asarray(obj)
    except ValueError:  # ragged or mixed-depth nesting
        return None
    if arr.dtype.kind not in "biuf" or arr.shape[-1:] != (2,):
        return None
    return arr


def _complex(pairs: np.ndarray) -> np.ndarray:
    """The pairs as complex numbers: a view of a C-contiguous float64 array, else of one copy."""
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def _decode_kraus(obj: list | np.ndarray) -> np.ndarray | list[np.ndarray]:
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
        raise ChoilabError(f"{what}: expected an object with labels and dims")
    labels = obj.get("labels")
    dims = obj.get("dims")
    if not isinstance(labels, list):
        raise ChoilabError(f"{what}: labels must be an array of strings")
    if not isinstance(dims, list):
        raise ChoilabError(f"{what}: dims must be an array of integers")
    try:
        return PartySystem(labels, dims)
    except ChoilabError as exc:
        raise ChoilabError(f"{what}: {exc}") from exc


def state_to_dict(state: MultipartiteState) -> dict:
    return {
        "labels": list(state.system.labels),
        "dims": list(state.system.dims),
        "matrix": encode_matrix(state.matrix),
    }


def state_from_dict(obj: Any, psd_threshold: float = linalg.PSD_THRESHOLD) -> MultipartiteState:
    if not isinstance(obj, dict):
        raise ChoilabError("state: expected a JSON object")
    if "kraus" in obj and "matrix" not in obj:
        raise ChoilabError("state: the file holds a channel (kraus), not a state")
    system = _decode_system({"labels": obj.get("labels"), "dims": obj.get("dims")}, "state")
    matrix = decode_matrix(obj.get("matrix"), "state.matrix")
    try:
        return MultipartiteState(system, matrix, psd_threshold=psd_threshold)
    except ChoilabError as exc:
        raise ChoilabError(f"state: {exc}") from exc


def channel_to_dict(ch: KrausChannel) -> dict:
    return {
        "name": ch.name,
        "input": {"labels": list(ch.input_system.labels), "dims": list(ch.input_system.dims)},
        "output": {"labels": list(ch.output_system.labels), "dims": list(ch.output_system.dims)},
        "kraus": encode_matrix(ch.kraus),
    }


def channel_from_dict(obj: Any) -> KrausChannel:
    """The channel a JSON object describes; any defect in it is a ChoilabError.

    The ``kraus`` list (or the array ``load_path`` reads) is decoded with
    one numpy call into the channel's (K, rows, cols) array when it stacks;
    otherwise, and when its numbers could type differently read together
    than one operator at a time, each operator is decoded alone, so errors
    and values are those of ``decode_matrix``.
    """
    if not isinstance(obj, dict):
        raise ChoilabError("channel: expected a JSON object")
    if "matrix" in obj and "kraus" not in obj:
        raise ChoilabError("channel: the file holds a state (matrix), not a channel")
    name = obj.get("name")
    if not isinstance(name, str):
        raise ChoilabError("channel: name must be a string")
    input_system = _decode_system(obj.get("input"), "channel.input")
    output_system = _decode_system(obj.get("output"), "channel.output")
    kraus_obj = obj.get("kraus")
    if not isinstance(kraus_obj, np.ndarray) and not (isinstance(kraus_obj, list) and kraus_obj):
        raise ChoilabError("channel: kraus must be a nonempty array of matrices")
    kraus = _decode_kraus(kraus_obj)
    try:
        return KrausChannel(name, input_system, output_system, kraus)
    except ChoilabError as exc:
        raise ChoilabError(f"channel: {exc}") from exc


def report_to_dict(claims) -> list[dict]:
    """One row per claim, its status decided here; the CLI adds the run envelope."""
    return [
        {
            "id": e.claim_id,
            "description": e.description,
            "expected": e.expected,
            "computed": e.computed,
            "tolerance": e.tolerance,
            "status": "pass" if e.passed else "fail",
            "control": e.control,
        }
        for e in claims
    ]


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
        text = _dict_rows(o, level) if type(o) is list else None
        if text is not None:
            out.append(text)
        else:
            _encode_items("[]", [("", item) for item in o], level, out)
    elif type(o) is np.ndarray and o.dtype.type is np.float64:
        text = _float_array(o, level)
        if text is not None:
            out.append(text)
        else:
            _encode(o.tolist(), level, out)
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


def _float_array(a: np.ndarray, level: int) -> str | None:
    """json's text for ``a.tolist()``, if ``a`` is nonempty, finite and at least 1-D, else None.

    A float64 becomes a Python float, which json writes as its repr; each
    distinct bit pattern is repr'd once.  0.0 is the template's number,
    so only the other numbers (-0.0 among them) are placed as tokens.
    """
    if not a.ndim or not a.size or not np.isfinite(a).all():
        return None
    bits = np.ascontiguousarray(a, dtype=np.float64).reshape(-1).view(np.uint64)
    rest = np.flatnonzero(bits)
    distinct, which = np.unique(bits[rest], return_inverse=True)
    reprs = [repr(x).encode() for x in distinct.view(np.float64).tolist()]
    pads = [b"\n" + b"  " * (level + k) for k in range(a.ndim + 1)]
    tokens = list(map(reprs.__getitem__, which.tolist()))
    return _array_text(list(a.shape), pads, rest, tokens).decode()


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
        raise ChoilabError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ChoilabError("invalid JSON: nested too deeply") from None


def load_path(path) -> Any:
    """The JSON document in a UTF-8 file; an unreadable file is a ChoilabError.

    A state's ``matrix`` or a channel's ``kraus`` that ``_read_pairs``
    proves equal to json's reading comes back as one float64 array of
    [re, im] pairs; everything else is ``loads(text)``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChoilabError(f"cannot read {path}: {exc}") from exc
    return _read_pairs(text) or loads(text)


# A key that opens a nonempty array on its own line, as dumps writes it.
_PAIRS_KEY = re.compile(r'"(matrix|kraus)": \[\n')
_PAIRS_DEPTH = {"matrix": 3, "kraus": 4}
# Which files _read_pairs reads, from what it sees in the text: at least
# _MIN_PAIRS_TEXT characters, with at most _MAX_NONZERO_SHARE of the
# array's numbers other than 0.0.  Below that size a scan saves a sparse
# file less than it costs the dense files it turns back.
_MIN_PAIRS_TEXT = 1 << 15
_MAX_NONZERO_SHARE = 1 / 8


def _read_pairs(text: str) -> dict | None:
    """The document with its pair array read from the text, or None to leave it to json.

    The array is taken only when the result provably equals ``loads(text)``
    read by numpy: the text is ASCII without a backslash; the array's text
    is byte for byte what ``dumps`` writes for its numbers in a uniform
    shape with a last axis of 2; every number is ``0.0`` or the repr of
    the float it reads as (so a JSON float that json reads to the same
    double); and json reads the rest of the text, with the array replaced
    by the string "\\u0000", as a dict holding that string under the same
    top-level key.
    """
    if len(text) < _MIN_PAIRS_TEXT or not text.isascii() or "\\" in text:
        return None
    m = _PAIRS_KEY.search(text)
    if m is None:
        return None
    key, start = m.group(1), m.end() - 2
    indent = text[text.rfind("\n", 0, m.start()) + 1 : m.start()]
    if not indent or indent.strip(" ") or len(indent) % 2:
        return None
    # The array closes on the last line of its indent, or the text test fails.
    end = text.rfind("\n" + indent + "]", start) + len(indent) + 2
    if end <= start:
        return None
    array = text[start:end].encode()
    # Without layout, one "," is left between each two numbers.
    found = _nonzero(array.translate(None, b" \n[]"))
    if found is None:
        return None
    count, rest, tokens = found
    level, depth = len(indent) // 2, _PAIRS_DEPTH[key]
    pads = [b"\n" + b"  " * (level + k) for k in range(depth + 1)]
    # Below the first axis, the blocks that close in the first block of
    # each depth, then the [re, im] pair.
    shape = [
        array.count(pads[k + 1] + b"]", 0, array.find(pads[k] + b"]"))
        for k in range(1, depth - 1)
    ] + [2]
    size = math.prod(shape)
    if not size or count % size:
        return None
    shape.insert(0, count // size)
    if array != _array_text(shape, pads, rest, tokens):
        return None
    del array
    values = _floats(count, rest, tokens)
    if values is None:
        return None
    try:
        doc = json.loads(text[:start] + '"\\u0000"' + text[end:])
    except (ValueError, RecursionError):
        return None
    if type(doc) is not dict or doc.get(key) != "\0":
        return None
    doc[key] = values.reshape(shape)
    return doc


def _nonzero(numbers: bytes) -> tuple[int, np.ndarray, list[bytes]] | None:
    """The count of comma-separated numbers, and the index and text of those not 0.0.

    None when those are more than _MAX_NONZERO_SHARE of the count.
    """
    chars = np.frombuffer(numbers + b",,,,", dtype=np.uint8)
    ends = np.flatnonzero(chars[:-3] == ord(","))
    starts = np.concatenate(([0], ends[:-1] + 1))
    zero = chars[starts] == ord("0")
    for i, c in enumerate(b".0,", 1):
        zero &= chars[starts + i] == c
    rest = np.flatnonzero(~zero)
    if rest.size > _MAX_NONZERO_SHARE * ends.size:
        return None
    tokens = list(map(numbers.__getitem__, map(slice, starts[rest].tolist(), ends[rest].tolist())))
    return ends.size, rest, tokens


def _array_text(shape: list[int], pads: list[bytes], rest: np.ndarray, tokens: list[bytes]) -> bytes:
    """dumps' text for an array of this shape: ``tokens`` at the flat indices ``rest``, else 0.0."""
    text, heads, steps = b"0.0", 0, []
    for k in range(len(shape) - 1, -1, -1):
        head, sep = b"[" + pads[k + 1], b"," + pads[k + 1]
        heads += len(head)
        steps.insert(0, len(text) + len(sep))
        text = b"".join((head, sep.join([text] * shape[k]), pads[k] + b"]"))
    # A number's offset: past the head of each block around it and the items before it.
    at = (heads + np.dot(steps, np.unravel_index(rest, shape))).tolist()
    view = memoryview(text)
    pieces = [view[:0]] * (2 * len(at) + 1)
    pieces[::2] = map(view.__getitem__, map(slice, [0] + [a + 3 for a in at], at + [len(text)]))
    pieces[1::2] = tokens
    return b"".join(pieces)


def _floats(count: int, rest: np.ndarray, tokens: list[bytes]) -> np.ndarray | None:
    """``count`` numbers as a float64 vector: ``tokens`` at the indices ``rest``, else 0.0.

    None when a token is not exactly the repr of its float; Python reads
    each distinct token once, with one ``float`` and one ``repr``.
    """
    distinct = list(dict.fromkeys(tokens))
    try:
        floats = list(map(float, distinct))
    except ValueError:
        return None
    if [repr(x).encode() for x in floats] != distinct:
        return None
    values = np.zeros(count)
    values[rest] = list(map(dict(zip(distinct, floats)).__getitem__, tokens))
    return values

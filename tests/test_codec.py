import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from choilab import codec
from choilab.channels import KrausChannel
from choilab.codec import (
    channel_from_dict,
    channel_to_dict,
    decode_matrix,
    dumps,
    encode_matrix,
    load_path,
    loads,
    report_row,
    report_to_dict,
    state_from_dict,
    state_to_dict,
)
from choilab.errors import ChoilabError
from choilab.nonadditivity import binding_channel, choi_state, full_report, mixed_binding_channel
from choilab.states import PartySystem

from conftest import REJECTED_MATRICES, loop_decode_kraus, random_state, same_bits


def test_state_roundtrip_bit_exact(four_qubits):
    rng = np.random.default_rng(31)
    state = random_state(rng, four_qubits)
    text = dumps(state_to_dict(state))
    back = state_from_dict(loads(text))
    assert back.system == state.system
    assert np.array_equal(back.matrix, state.matrix)
    # a second pass through text is byte-identical
    assert dumps(state_to_dict(back)) == text


def test_channel_roundtrip_bit_exact():
    ch = binding_channel(2)  # includes genuinely complex Kraus entries
    text = dumps(channel_to_dict(ch))
    back = channel_from_dict(loads(text))
    assert back.name == ch.name
    assert back.input_system == ch.input_system
    assert back.output_system == ch.output_system
    assert len(back.kraus) == len(ch.kraus)
    for a, b in zip(back.kraus, ch.kraus):
        assert np.array_equal(a, b)
    assert dumps(channel_to_dict(back)) == text


def test_matrix_entries_are_re_im_pairs():
    state = choi_state(binding_channel(1))
    doc = json.loads(dumps(state_to_dict(state)))
    entry = doc["matrix"][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    assert all(isinstance(x, float) for x in entry)


def _encode_per_cell(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def test_encode_matrix_bytes_match_per_cell_encoding():
    tiny = np.finfo(float).smallest_subnormal
    m = np.array(
        [
            [complex(0.0, -0.0), complex(-0.0, 0.0), complex(tiny, -tiny)],
            [complex(-tiny, 5e-324), complex(1 / 3, -2 / 7), complex(1e308, -1e-308)],
        ]
    )
    rng = np.random.default_rng(7)
    for matrix in (m, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))):
        got = encode_matrix(matrix).tolist()
        assert json.dumps(got) == json.dumps(_encode_per_cell(matrix))
        assert all(type(x) is float for row in got for cell in row for x in cell)
    # the sign of every zero survives the round trip through text
    back = decode_matrix(json.loads(json.dumps(encode_matrix(m).tolist())))
    assert back.tobytes() == m.tobytes()


def test_report_row_status_and_fields():
    # a check's truth value becomes pass or fail; a fact's status is kept
    assert report_row("a", True, "shown") == {"id": "a", "status": "pass", "computed": "shown"}
    assert report_row("b", False, "shown", value=0.5, cut="A | B") == {
        "id": "b",
        "status": "fail",
        "computed": "shown",
        "value": 0.5,
        "cut": "A | B",
    }
    for status in ("info", "warn", "fail"):
        assert report_row("c", status, "shown")["status"] == status
    assert [report_row("d", v, "")["status"] for v in (np.True_, np.False_)] == ["pass", "fail"]


_NAMES = (
    st.text()
    | st.integers()
    | st.floats()
    | st.none()
    | st.booleans()
    | st.binary()
    | st.lists(st.text(max_size=2), max_size=2)
)


@given(_NAMES)
def test_every_accepted_channel_name_round_trips(name):
    # a name KrausChannel takes is one a channel file can hold and give back
    system = PartySystem(("A",), (2,))
    try:
        ch = KrausChannel(name, system, system, [np.eye(2)])
    except ChoilabError as exc:
        assert not isinstance(name, str) and repr(name) in str(exc)
        return
    back = channel_from_dict(loads(dumps(channel_to_dict(ch))))
    assert type(back.name) is str and back.name == name


def test_report_schema():
    claims = full_report()
    doc = report_to_dict(claims)
    assert isinstance(doc, list)
    assert [e["id"] for e in doc] == [c.claim_id for c in claims]
    assert {e["status"] for e in doc} == {"pass"}
    assert loads(dumps(doc)) == doc
    for entry in doc:
        assert set(entry) == {
            "id",
            "description",
            "expected",
            "computed",
            "tolerance",
            "status",
            "control",
        }
    assert any(e["control"] for e in doc)


_NOT_PAIRS = "expected a nonempty array of rows of [re, im] number pairs"


# Edits to a valid state document, each with the refusal it draws.
STATE_DEFECTS = {
    lambda d: d.pop("labels"): "state: labels must be an array of strings",
    lambda d: d.update(labels="A"): "state: labels must be an array of strings",
    lambda d: d.update(dims=[2, 2, 2]): "state: labels and dims must have equal length",
    lambda d: d.update(matrix=[[1.0]]): f"state.matrix: {_NOT_PAIRS}",
    lambda d: d.update(matrix=[[[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]): (
        f"state.matrix: {_NOT_PAIRS}"
    ),
}


@pytest.mark.parametrize("mutate", list(STATE_DEFECTS))
def test_state_parse_errors(four_qubits, mutate):
    rng = np.random.default_rng(32)
    doc = state_to_dict(random_state(rng, four_qubits))
    mutate(doc)
    with pytest.raises(ChoilabError, match=f"^{re.escape(STATE_DEFECTS[mutate])}$"):
        state_from_dict(doc)


def test_invalid_density_matrix_is_parse_error():
    doc = {
        "labels": ["A"],
        "dims": [2],
        "matrix": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    }
    with pytest.raises(ChoilabError, match=r"^state: trace \(0\.9\+0j\) is not 1 within 1e-10$"):
        state_from_dict(doc)


def test_channel_parse_errors():
    doc = channel_to_dict(binding_channel(1))
    del doc["kraus"]
    with pytest.raises(ChoilabError, match="^channel: kraus must be a nonempty array of matrices$"):
        channel_from_dict(doc)
    with pytest.raises(ChoilabError, match="^invalid JSON: Expecting value: "):
        loads('{"truncated": ')


# Party systems, as JSON text, that the codec refuses, with the reason it gives.
REJECTED_SYSTEMS = {
    "labels-not-array": ('{"labels": "AB", "dims": [2, 2]}', "labels must be an array of strings"),
    "label-not-string": ('{"labels": ["A", 1], "dims": [2, 2]}', "party label 1 must be a string"),
    "dims-not-array": ('{"labels": ["A", "B"], "dims": 2}', "dims must be an array of integers"),
    "float-dim": ('{"labels": ["A", "B"], "dims": [2.0, 2]}', "local dimension 2.0 must be an int"),
    "bool-dim": ('{"labels": ["A", "B"], "dims": [true, 2]}', "local dimension True must be an int"),
}


@pytest.mark.parametrize("name", sorted(REJECTED_SYSTEMS))
def test_system_refusals_name_the_field(name):
    text, reason = REJECTED_SYSTEMS[name]
    state = dict(loads(text), matrix=encode_matrix(np.eye(4) / 4))
    with pytest.raises(ChoilabError, match=f"^{re.escape(f'state: {reason}')}$"):
        state_from_dict(state)
    for field in ("input", "output"):
        channel = dict(channel_to_dict(binding_channel(1)), **{field: loads(text)})
        with pytest.raises(ChoilabError, match=f"^{re.escape(f'channel.{field}: {reason}')}$"):
            channel_from_dict(channel)


def test_loads_rejects_bad_json():
    with pytest.raises(ChoilabError, match="^invalid JSON: Expecting value: "):
        loads("not json at all {{{")


# Accepted: numbers (ints, bools, floats, mixed) in [re, im] pairs, decoded
# bit-exactly.  The rejected fields (conftest.REJECTED_MATRICES) are shared
# with the CLI tests.
ACCEPTED_MATRICES = {
    "ints": [[[1, 0], [0, 2]], [[0, -2], [3, 0]]],
    "bools": [[[True, False]], [[False, True]]],
    "ints-and-floats": [[[1, 0.5], [-2, 0.0]], [[0.25, -1], [7, 3]]],
    "bools-and-ints": [[[True, 2]]],
    "signed-zeros": [[[-0.0, 0.0], [0.0, -0.0]], [[-0.0, -0.0], [0, 0]]],
    "subnormals": [[[5e-324, -5e-324], [2.225e-308, 1e-310]]],
    "wide-int": [[[2**53 + 1, 0.5]]],
}


def _bits(m: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(m).view(np.uint64)


@pytest.mark.parametrize("name", sorted(ACCEPTED_MATRICES))
def test_decode_matrix_accepts_numbers_bit_exactly(name):
    obj = ACCEPTED_MATRICES[name]
    got = decode_matrix(obj)
    want = np.array([[complex(re, im) for re, im in row] for row in obj], dtype=np.complex128)
    assert got.dtype == np.complex128
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def test_decode_matrix_keeps_signed_zeros():
    got = decode_matrix(ACCEPTED_MATRICES["signed-zeros"])
    assert np.signbit(got.real).tolist() == [[True, False], [True, False]]
    assert np.signbit(got.imag).tolist() == [[False, True], [True, False]]


@pytest.mark.parametrize("name", sorted(REJECTED_MATRICES))
def test_bad_matrix_is_parse_error(name):
    obj = REJECTED_MATRICES[name]
    if name != "empty-row":  # the per-cell loop let [[]] through to the state check
        with pytest.raises(ChoilabError, match=f"^{re.escape(f'matrix: {_NOT_PAIRS}')}$"):
            decode_matrix(obj)
    with pytest.raises(ChoilabError, match=f"^{re.escape(f'state.matrix: {_NOT_PAIRS}')}$"):
        state_from_dict({"labels": ["A"], "dims": [2], "matrix": obj})
    doc = channel_to_dict(binding_channel(1))
    doc["kraus"] = doc["kraus"].tolist()
    doc["kraus"][0] = obj
    with pytest.raises(ChoilabError, match=f"^{re.escape(f'channel.kraus[0]: {_NOT_PAIRS}')}$"):
        channel_from_dict(doc)


_F = [[[0.5, 0.0], [0.0, -0.0]], [[0.0, 0.0], [0.5, 0.0]]]
_ONES = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_KRAUS_1 = f"channel.kraus[1]: {_NOT_PAIRS}"
# Kraus lists numpy may read differently as one array than one operator at a
# time, with what per-operator decoding gives: an error, or None to accept.
KRAUS_LISTS = {
    "string-cell": ([_F, [[["1", 0], [0, 0]], [[0, 0], [1, 0]]]], _KRAUS_1),
    "null-cell": ([_F, [[[None, 0], [0, 0]], [[0, 0], [1, 0]]]], _KRAUS_1),
    "triple-cell": ([_F, [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]], _KRAUS_1),
    "shapes-differ": ([_F, [[[1, 0]]]], "channel: Kraus operator shape (1, 1), expected (2, 2)"),
    "inf": ([_F, [[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]], "channel: matrix contains non-finite entries"),
    "nan": ([_F, [[[0, math.nan], [0, 0]], [[0, 0], [1, 0]]]], "channel: matrix contains non-finite entries"),
    "bools-beside-floats": ([[[[True, False], [False, False]], [[False, False], [True, False]]], _F], None),
    "2**63-beside--1": ([_F, [[[2**63, 0], [-1, 0]], [[0, 0], [1, 0]]]], None),
    "2**63-and--1-apart": ([[[[2**63, 0], [0, 0]], [[0, 0], [1, 0]]], [[[-1, 0], [0, 0]], _ONES[1]]], None),
    # alone the int-only operator is not numeric to numpy (2**64 fits no int type)
    "2**64-beside-floats": ([_F, [[[2**64, 0], [0, 0]], [[0, 0], [1, 0]]]], _KRAUS_1),
}


@pytest.mark.parametrize("name", sorted(KRAUS_LISTS))
def test_kraus_list_decoded_like_each_operator_alone(name):
    kraus, error = KRAUS_LISTS[name]
    qubit = {"labels": ["Q"], "dims": [2]}
    doc = {"name": "t", "input": qubit, "output": qubit, "kraus": kraus}
    if error is not None:
        with pytest.raises(ChoilabError, match=f"^{re.escape(error)}$"):
            channel_from_dict(doc)
    else:
        assert same_bits(channel_from_dict(doc).kraus, np.stack(loop_decode_kraus(kraus)))


def test_numeric_files_accepted():
    # a qubit |0><0| written with ints and with bools
    for zero, one in ((0, 1), (False, True)):
        doc = {
            "labels": ["A"],
            "dims": [2],
            "matrix": [[[one, zero], [zero, zero]], [[zero, zero], [zero, zero]]],
        }
        state = state_from_dict(doc)
        assert np.array_equal(state.matrix, np.diag([1, 0]).astype(np.complex128))


def json_dumps(obj) -> str:
    """The reference encoding that codec.dumps reproduces byte for byte; arrays as their tolist()."""
    return json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


EDGE_NUMBERS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e308, 2**64, 2**64 + 1, -(2**70)]
NUMBERS = st.integers(-(2**70), 2**70) | st.floats(allow_nan=False, allow_infinity=False)
ODD_LEAVES = st.sampled_from([True, False, None, math.nan, math.inf, -math.inf, "1", "é"])
KEYS = st.text(max_size=5) | st.sampled_from(['"', "\\", "é", "\u2028", "\x00", "ключ", "a b"])
SCALARS = (
    st.none() | st.booleans() | NUMBERS | st.sampled_from(EDGE_NUMBERS) | ODD_LEAVES | st.text(max_size=5)
)


def nested(shape: list[int], leaves) -> st.SearchStrategy:
    """Lists nested to len(shape), each level exactly shape[i] long."""
    inner = leaves if len(shape) == 1 else nested(shape[1:], leaves)
    return st.lists(inner, min_size=shape[0], max_size=shape[0])


def uniform_arrays(leaves) -> st.SearchStrategy:
    depths = st.integers(1, 4)
    shapes = depths.flatmap(lambda d: st.lists(st.integers(1, 3), min_size=d, max_size=d))
    return shapes.flatmap(lambda shape: nested(shape, leaves))


# Report rows: a list of flat dicts, which dumps writes with json's C
# encoder.  Their strings may hold the text between two rows, with the
# newline that json escapes; empty rows take the per-item path.
ROW_TEXT = st.text(max_size=5) | st.sampled_from(["},\n      {", "}", "{", ",\n  ", "\n"])
ROWS = st.lists(
    st.dictionaries(
        KEYS | ROW_TEXT,
        st.none() | st.booleans() | NUMBERS | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]) | ROW_TEXT,
        max_size=4,
    ),
    min_size=1,
    max_size=4,
)

# Float64 arrays, which dumps writes as json writes their tolist().
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(list(map(float, EDGE_NUMBERS)))
FLOAT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=3), elements=FLOATS
)

JSON_VALUES = st.recursive(
    SCALARS
    | ROWS
    | FLOAT_ARRAYS
    | uniform_arrays(NUMBERS | st.sampled_from(EDGE_NUMBERS))
    | uniform_arrays(NUMBERS | NUMBERS | NUMBERS | ODD_LEAVES),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=30,
)


@given(JSON_VALUES)
def test_dumps_matches_json_dumps(value):
    assert dumps(value) == json_dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[]],
        [[], []],
        [{}, [[]], {"a": {}}],
        [[1], []],
        [[1], 2],
        [[1, [2]], [3, 4]],
        [[1, 2], [3]],
        [[[1.5, -0.0]], [[5e-324, 1e16], [1e-7, 2**64]]],
        [1, True],
        [1.0, None],
        [0.5, math.nan],
        [[1.0, math.inf], [-math.inf, 2.0]],
        [(1, 2), (3, 4)],
        (1.5, [2.5]),
        {"b": [1, 2], "a": {"é\"\\": [[1e-7, 2**70]]}},
        [{1: "int key", 2: [1.5]}, {1.5: None, True: 0}],
        [np.float64(0.1), 0.2],
        [0.1, np.float64(0.2)],
        # float64 arrays: NaN and infinities as json's tokens, empty and 0-d ones as json's text
        np.array([[0.5, math.nan], [-0.0, 1.0]]),
        np.array([[[math.inf, 0.0]], [[-math.inf, 2.5]]]),
        np.zeros(0),
        np.zeros((2, 0)),
        np.zeros((0, 3, 2)),
        np.array(0.25),
        np.array(-0.0),
        np.array(math.nan),
        {"a": [np.zeros((1, 2)), np.array(1e308)], "b": {"c": np.array([math.nan, 1.5])}},
        np.arange(6.0).reshape(2, 3).T,  # not C-contiguous
        np.array([1.5, -2.5], dtype=">f8"),  # not native byte order
    ],
)
def test_dumps_matches_json_dumps_on_edge_values(value):
    assert dumps(value) == json_dumps(value)


def test_dumps_rejects_what_json_rejects():
    for value in ([1, object()], {"a": {1: 1, "b": 2}}):
        with pytest.raises(TypeError):
            json_dumps(value)
        with pytest.raises(TypeError):
            dumps(value)


def test_dumps_writes_matrices_without_the_python_encoder(monkeypatch):
    rng = np.random.default_rng(61)
    payloads = [
        state_to_dict(random_state(rng, PartySystem(tuple("ABCDEF"), (2,) * 6))),
        channel_to_dict(mixed_binding_channel([binding_channel(a) for a in (1, 2, 3)])),
        report_to_dict(full_report()),
    ]
    want = [json_dumps(p) for p in payloads]

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert [dumps(p) for p in payloads] == want




@pytest.mark.parametrize(
    "value",
    [np.array([1, 2]), np.array([[1j, 0]]), np.array([True]), {"m": np.zeros((1, 2), dtype=np.float32)}],
)
def test_dumps_rejects_arrays_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize("poke", ["every", "first"])
def test_reader_refuses_a_repeated_non_canonical_number(tmp_path, poke):
    # 1.5 a hundred times in a large, sparse 6-qubit matrix; written as
    # "1.50" each time, or once beside 99 "1.5"
    matrix = np.zeros((64, 64, 2))
    matrix.reshape(-1)[::80][:100] = 1.5
    text = dumps({"dims": [2] * 6, "labels": list("ABCDEF"), "matrix": matrix})
    assert codec._read_pairs(text) is not None
    edited = text.replace(" 1.5,", " 1.50,", -1 if poke == "every" else 1)
    assert edited.count("1.50") == (100 if poke == "every" else 1)
    assert codec._read_pairs(edited) is None
    path = tmp_path / "state.json"
    path.write_text(edited)
    doc = load_path(path)  # json's reading: nested lists, 1.50 read as 1.5
    assert doc == loads(edited) and doc["matrix"] == matrix.tolist()

"""codec.load_path reads a state's matrix or a channel's Kraus list from the
file text as one array of [re, im] pairs, when it can prove that json would
read the same numbers.  The oracle is the same file through ``loads`` (plain
json.loads) with the reader switched off: every file must decode to the same
bits, or fail with the same ChoilabError text and exit code."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choilab import codec
from choilab.channels import KrausChannel
from choilab.cli import main
from choilab.codec import (
    channel_from_dict,
    channel_to_dict,
    dumps,
    load_path,
    loads,
    state_from_dict,
    state_to_dict,
)
from choilab.errors import ChoilabError
from choilab.states import PartySystem

from conftest import random_state, random_x_state

# Numbers json and the reader must read alike, written by repr.
SPECIALS = (-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300, 0.1, 1 / 3)


def qubits(n: int) -> PartySystem:
    return PartySystem(tuple(f"Q{i}" for i in range(n)), (2,) * n)


def sparse_state_text(n: int = 6, seed: int = 0) -> str:
    """A file large and sparse enough for the reader (about 170 KB at n = 6)."""
    return dumps(state_to_dict(random_x_state(np.random.default_rng(seed), qubits(n))))


def decoded(decode, read):
    """What a reader and a decoder make of a file: the matrix bits, or the error text."""
    try:
        # 1e300 entries overflow the validation's norms alike on both routes
        with np.errstate(over="ignore", invalid="ignore"):
            obj = decode(read())
    except ChoilabError as exc:
        return "error", str(exc)
    m = obj.kraus if hasattr(obj, "kraus") else obj.matrix
    return m.shape, m.tobytes(), getattr(obj, "system", None)


def assert_reads_like_json(path, decode):
    text = path.read_text(encoding="utf-8")
    assert decoded(decode, lambda: load_path(path)) == decoded(decode, lambda: loads(text))


def test_pairs_decode_to_the_bits_of_per_part_assignment():
    # the reader's float64 array is viewed, not copied; ints and bools convert
    specials = np.array(SPECIALS + (0.0, 2.0**63)).reshape(-1, 1, 1) * np.ones((1, 3, 2))
    specials[:, :, 1] = specials[::-1, :, 0]
    ints = [[[2**63, -1], [0, 7]], [[True, False], [-(2**62), 2**53 + 1]]]
    for pairs in (specials, np.asarray(ints), np.asarray([[[True, False]]])):
        want = np.empty(pairs.shape[:-1], dtype=np.complex128)
        want.real = pairs[..., 0]
        want.imag = pairs[..., 1]
        got = codec._complex(pairs)
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert np.shares_memory(got, pairs) == (pairs.dtype == np.float64)


def test_decoded_objects_own_their_matrix():
    # the float64 pair arrays load_path and the *_to_dict encoders give alike
    rng = np.random.default_rng(5)
    state_doc = state_to_dict(random_x_state(rng, qubits(2)))
    ops = rng.standard_normal((2, 2, 2)) / 2
    channel_doc = channel_to_dict(KrausChannel("k", qubits(1), qubits(1), ops))
    cases = ((state_doc, state_from_dict, "matrix"), (channel_doc, channel_from_dict, "kraus"))
    for doc, decode, key in cases:
        obj = decode(doc)
        assert np.shares_memory(codec._complex(doc[key]), doc[key])
        assert not np.shares_memory(getattr(obj, key), doc[key])


@contextlib.contextmanager
def reader_on_every_file():
    """The reader on files of any size and density, so small examples reach it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codec, "_MIN_PAIRS_TEXT", 0)
        mp.setattr(codec, "_MAX_NONZERO_SHARE", 1.0)
        yield


def poked(rng: np.random.Generator, pairs: list, values) -> list:
    """The nested [re, im] lists with some numbers replaced."""
    flat = np.array(pairs, dtype=object).reshape(-1)
    for v in values:
        flat[rng.integers(flat.size)] = v
    return np.array(flat.tolist(), dtype=object).reshape(np.shape(pairs)).tolist()


@settings(max_examples=60)
@given(
    kind=st.sampled_from(("x-shaped", "dense")),
    n=st.integers(1, 4),
    specials=st.lists(st.sampled_from(SPECIALS), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_states_read_like_json(tmp_path_factory, kind, n, specials, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        state = random_state(rng, qubits(n))
    else:
        state = random_x_state(rng, qubits(n))
    doc = state_to_dict(state)
    doc["matrix"] = poked(rng, doc["matrix"], specials)
    text = dumps(doc)
    path = tmp_path_factory.mktemp("state") / "state.json"
    path.write_text(text)
    with reader_on_every_file():
        assert codec._read_pairs(text) is not None  # dumps' layout is always taken
        assert_reads_like_json(path, state_from_dict)


@settings(max_examples=60)
@given(
    k=st.integers(1, 4),
    d_in=st.sampled_from((2, 4)),
    d_out=st.sampled_from((2, 4)),
    zeros=st.floats(0, 1),
    specials=st.lists(st.sampled_from(SPECIALS), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_channels_read_like_json(tmp_path_factory, k, d_in, d_out, zeros, specials, seed):
    # 1e300 sends a Kraus list to the per-operator decode, array or not
    rng = np.random.default_rng(seed)
    ops = rng.standard_normal((k, d_out, d_in)) + 1j * rng.standard_normal((k, d_out, d_in))
    ops[rng.random(ops.shape) < zeros] = 0
    sys_in = PartySystem(("I",), (d_in,))
    sys_out = PartySystem(("O",), (d_out,))
    doc = channel_to_dict(KrausChannel("r", sys_in, sys_out, ops))
    doc["kraus"] = poked(rng, doc["kraus"], specials)
    text = dumps(doc)
    path = tmp_path_factory.mktemp("channel") / "channel.json"
    path.write_text(text)
    with reader_on_every_file():
        assert isinstance(load_path(path)["kraus"], np.ndarray)
        assert_reads_like_json(path, channel_from_dict)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    char=st.sampled_from("0123456789.eE+- \n[],"),
    where=st.floats(0, 1),
    delete=st.booleans(),
)
def test_one_character_edits_read_like_json(tmp_path_factory, seed, char, where, delete):
    # one character put into the array, or taken out of it, anywhere
    text = dumps(state_to_dict(random_x_state(np.random.default_rng(seed), qubits(2))))
    start = text.index('"matrix": [')
    at = start + round(where * (text.index("\n  ]", start) + 4 - start))
    text = text[:at] + text[at + 1 :] if delete else text[:at] + char + text[at:]
    path = tmp_path_factory.mktemp("state") / "state.json"
    path.write_text(text)
    with reader_on_every_file():
        assert_reads_like_json(path, state_from_dict)


def test_files_are_chosen_by_size_and_zeros(tmp_path):
    rng = np.random.default_rng(4)
    sparse = tmp_path / "sparse.json"
    sparse.write_text(sparse_state_text())
    small = tmp_path / "small.json"
    small.write_text(sparse_state_text(n=4))
    dense = tmp_path / "dense.json"
    dense.write_text(dumps(state_to_dict(random_state(rng, qubits(6)))))
    assert len(small.read_text()) < codec._MIN_PAIRS_TEXT < len(sparse.read_text())
    assert isinstance(load_path(sparse)["matrix"], np.ndarray)
    for path in (small, dense):
        assert isinstance(load_path(path)["matrix"], list)
    for path in (sparse, small, dense):
        assert_reads_like_json(path, state_from_dict)


def test_channel_accepts_the_array(fixture_dir):
    path = fixture_dir / "e1.json"
    with reader_on_every_file():
        doc = load_path(path)
        assert isinstance(doc["kraus"], np.ndarray) and doc["kraus"].ndim == 4
        assert_reads_like_json(path, channel_from_dict)


def edit_first(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def first_nonzero(text: str) -> str:
    """The first number of the matrix other than 0.0, with its line's indent."""
    body = text[text.index('"matrix"') :]
    skeleton = ("0.0", "[", "]", '"matrix": [')
    return next(line for line in body.splitlines() if line.strip(" ,") not in skeleton)


NESTED = dumps({"a": {"matrix": [[[1.0, 0.0]]]}})[2:-3] + ",\n"
# Edits of a large sparse state file.  The reader must refuse all of them
# but a duplicate key before its array, which json overrides with it.
TAKEN = {"matrix-before"}
ZERO = "        0.0,\n"
EDITS = {
    "space-before-comma": lambda t: edit_first(t, ZERO, "        0.0 ,\n"),
    "tab-indent": lambda t: edit_first(t, ZERO, "\t0.0,\n"),
    "pair-on-one-line": lambda t: edit_first(t, "[\n        0.0,\n        0.0\n      ]", "[0.0, 0.0]"),
    "trailing-zero": lambda t: edit_first(t, first_nonzero(t), first_nonzero(t).rstrip(",") + "0,"),
    "capital-exponent": lambda t: edit_first(t, ZERO, "        0E5,\n"),
    "exponent": lambda t: edit_first(t, ZERO, "        0.0e0,\n"),
    "int": lambda t: edit_first(t, ZERO, "        0,\n"),
    "minus-zero-int": lambda t: edit_first(t, ZERO, "        -0,\n"),
    "overflow": lambda t: edit_first(t, ZERO, "        1e400,\n"),
    "nan": lambda t: edit_first(t, ZERO, "        NaN,\n"),
    "infinity": lambda t: edit_first(t, ZERO, "        -Infinity,\n"),
    "escaped-label": lambda t: edit_first(t, '"Q0"', '"Q\\u0030"'),
    "non-ascii-label": lambda t: edit_first(t, '"Q0"', '"Qé"'),
    "matrix-before": lambda t: edit_first(t, '  "matrix": [', '  "matrix": 5,\n  "matrix": ['),
    "matrix-after": lambda t: t[: t.rindex("}")] + '  ,"matrix": 5\n}\n',
    "nested-matrix": lambda t: edit_first(t, "{\n", "{\n" + NESTED),
    "minus-in-indent": lambda t: edit_first(t, ZERO, "    -    0.0,\n"),
    "digit-in-indent": lambda t: edit_first(t, ZERO, "    5    0.0,\n"),
    "digit-after-open-bracket": lambda t: edit_first(t, "      [\n" + ZERO, "      [5\n" + ZERO),
    "digit-before-close": lambda t: edit_first(t, "        0.0\n      ]", "        0.0\n   5   ]"),
    "missing-number": lambda t: edit_first(t, ZERO, "        ,\n"),
    "extra-number": lambda t: edit_first(t, ZERO, "        0.0 0.0,\n"),
    "short-row": lambda t: edit_first(t, "      [\n        0.0,\n        0.0\n      ],\n", ""),
    "truncated": lambda t: t[: len(t) // 2],
    "trailing-garbage": lambda t: t + "x",
    "trailing-array": lambda t: t.rstrip()[:-1] + ',\n  "z": [\n    1\n  ]\n}\n',
    "not-an-object": lambda t: "[\n" + t + "]\n",
}


def through_the_cli(monkeypatch, capsys, *argvs):
    """Exit code, stdout and stderr of each command, with the reader and without it."""
    results = []
    for reader in (codec._read_pairs, lambda text: None):
        monkeypatch.setattr(codec, "_read_pairs", reader)
        results.append([(main(argv), *capsys.readouterr()) for argv in argvs])
    return results


@pytest.mark.parametrize("name", sorted(EDITS))
def test_edited_files_read_like_json(tmp_path, capsys, monkeypatch, name):
    text = EDITS[name](sparse_state_text())
    assert len(text) >= codec._MIN_PAIRS_TEXT
    path = tmp_path / "state.json"
    path.write_bytes(text.encode("utf-8"))
    assert (codec._read_pairs(path.read_text(encoding="utf-8")) is None) is (name not in TAKEN)
    assert_reads_like_json(path, state_from_dict)
    argvs = (["classify", str(path)], ["--format", "json", "classify", str(path)])
    with_reader, without = through_the_cli(monkeypatch, capsys, *argvs)
    assert with_reader == without


def test_sparse_file_reads_like_json_through_the_cli(tmp_path, capsys, monkeypatch):
    path = tmp_path / "state.json"
    path.write_text(sparse_state_text(seed=3))
    argvs = (
        ["classify", str(path)],
        ["--format", "json", "--tolerance", "0.01", "classify", str(path), "--pair", "Q0:Q5"],
    )
    with_reader, without = through_the_cli(monkeypatch, capsys, *argvs)
    assert with_reader == without
    assert [code for code, _, _ in with_reader] == [0, 0]

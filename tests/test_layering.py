"""Import direction: the bottom layer (linalg) needs only errors, and the codec
loads states and channels without the report layer (nonadditivity), whose
types it does not name, not even for type checking.  The
smallest eigenvalue has one path, linalg.min_eigenvalue, the X-block
solve one copy, linalg.x_min_eigenvalue, which only min_eigenvalue and
entanglement.cut_min_eigenvalues call, and JSON one module, codec.
The GHZ fingerprint has one stored form, the weight vectors plus and
minus, and only the CLI names its entries by cut-index strings.  Every
name the benchmark's tracer wraps still exists, and the CLI reads every
input file through codec.load_path.  No index is parsed from a bit string.
Every refusal is one class, errors.ChoilabError, told apart by its message,
and every entry point that takes parties, dims, an index, weights, a list
of channels or a positivity threshold refuses a value of the wrong kind
with it, quoting the value."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import choilab
from choilab import channels, codec, entanglement, nonadditivity, states
from choilab.entanglement import GhzDiagonalCoefficients
from choilab.errors import ChoilabError

SRC = str(Path(choilab.__file__).resolve().parents[1])
LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def loaded_after_import(module: str) -> set[str]:
    """choilab modules a fresh interpreter holds after importing ``module``."""
    code = (
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'choilab')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(out.stdout))


def test_codec_does_not_import_the_report_layer():
    loaded = loaded_after_import("choilab.codec")
    assert "choilab.codec" in loaded
    assert "choilab.nonadditivity" not in loaded


def test_codec_names_no_report_type():
    # report_to_dict reads claims by attribute; an import from the report
    # layer, even one under TYPE_CHECKING, would point the layers the wrong way.
    path = Path(choilab.__file__).resolve().parent / "codec.py"
    text = path.read_text(encoding="utf-8")
    imported = []  # every dotted name an import statement reads, at any depth
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert [n for n in imported if "nonadditivity" in n.split(".")] == []
    assert "ReproductionReport" not in text


def test_reproduce_builds_no_random_generator():
    # localize_entanglement builds its seeded generator at the first random
    # candidate; reproduce never reaches one, so numpy.random stays unloaded.
    code = "\n".join(
        [
            "import contextlib, io, sys",
            "import choilab.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    code = choilab.cli.main(['reproduce'])",
            "print(code, 'numpy.random' in sys.modules)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "False"]


def test_linalg_needs_only_errors():
    assert loaded_after_import("choilab.linalg") == {
        "choilab",
        "choilab.errors",
        "choilab.linalg",
    }


def test_public_names_load_on_first_use():
    for name in choilab.__all__:
        value = getattr(choilab, name)
        assert name == "__version__" or value.__module__.startswith("choilab.")
    assert not hasattr(choilab, "no_such_name")


def test_only_linalg_calls_eigvalsh():
    package = Path(choilab.__file__).resolve().parent
    callers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if re.search(r"\beigvalsh\s*\(", path.read_text(encoding="utf-8"))
    ]
    assert callers == ["linalg.py"]


def test_only_linalg_solves_x_blocks():
    # np.hypot is the closed-form 2x2 block solve; one copy keeps every
    # route to a cut's spectrum on the same bits.
    package = Path(choilab.__file__).resolve().parent
    callers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if re.search(r"\bhypot\s*\(", path.read_text(encoding="utf-8"))
    ]
    assert callers == ["linalg.py"]


def test_x_blocks_solved_from_two_callers():
    # ppt_check reads every cut of an X-shaped state from
    # cut_min_eigenvalues, whichever form names the cut; a block solve of
    # its own would be a second route to the same spectrum.  Every name,
    # attribute or import of x_min_eigenvalue counts, by enclosing function.
    package = Path(choilab.__file__).resolve().parent
    readers = set()

    def scan(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                scan(child, module, child.name)
                continue
            names = (getattr(child, key, None) for key in ("attr", "id", "name"))
            if "x_min_eigenvalue" in names:
                readers.add((module, function))
            scan(child, module, function)

    for path in sorted(package.glob("*.py")):
        scan(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert readers == {("linalg", "min_eigenvalue"), ("entanglement", "cut_min_eigenvalues")}


def _binary_spec(spec) -> bool:
    """Whether a format spec, a string or an f-string, ends in the binary type b."""
    if isinstance(spec, ast.JoinedStr):
        spec = spec.values[-1]
    return isinstance(spec, ast.Constant) and str(spec.value).endswith("b")


def _writes_binary(node: ast.AST) -> bool:
    """Whether the node writes a number in binary: bin(x), format(x, "...b") or f"{x:...b}"."""
    if isinstance(node, ast.FormattedValue):
        return node.format_spec is not None and _binary_spec(node.format_spec)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "bin" or (
            node.func.id == "format" and len(node.args) == 2 and _binary_spec(node.args[1])
        )
    return False


def test_fingerprint_has_one_stored_form():
    # delta, the lambda_j and the NPT vector are read from plus and minus,
    # so no stored copy can fall out of step with them; the cut-index
    # strings that name the lambda_j are made at the CLI edge only, where
    # classify prints them, and no module keeps a table of them.
    fields = [f.name for f in dataclasses.fields(GhzDiagonalCoefficients)]
    assert fields == ["system", "plus", "minus", "offdiagonal_residual"]
    package = Path(choilab.__file__).resolve().parent
    tables, writers = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "all_cut_indices":
                tables.append(path.name)
            elif _writes_binary(node):
                writers.add(path.name)
    assert tables == []
    assert writers == {"cli.py"}


def test_only_codec_imports_json():
    package = Path(choilab.__file__).resolve().parent
    importers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if re.search(r"^\s*(import|from)\s+json\b", path.read_text(encoding="utf-8"), re.M)
    ]
    assert importers == ["codec.py"]


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    wrapped = [
        (module, name)
        for table in (layertrace.LAYERS, layertrace.COUNTED)
        for module, names in table.items()
        for name in names
    ]
    assert len(wrapped) > 20
    missing = [
        f"choilab.{module}.{name}"
        for module, name in wrapped
        if not hasattr(importlib.import_module(f"choilab.{module}"), name)
    ]
    assert missing == []


def test_cli_opens_no_file_for_reading():
    # The benchmark counts codec.bytes_read on codec.load_path; a file
    # cli.py read itself would go uncounted.  Its one open writes --out: a
    # write-only descriptor (os.open's flags, read here as a number) with a
    # binary writer on it.
    tree = ast.parse((Path(choilab.__file__).resolve().parent / "cli.py").read_text(encoding="utf-8"))
    readers = ("open", "read_text", "read_bytes", "load", "loads", "fromfile", "loadtxt", "genfromtxt")
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in readers:
                mode = node.args[1] if len(node.args) > 1 else None
                mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
                if isinstance(func, ast.Attribute) and ast.unparse(func) == "os.open":
                    flags = eval(compile(ast.Expression(mode), "cli.py", "eval"), {"os": os})
                    calls.append(("os.open", flags))
                else:
                    calls.append((name, "r" if mode is None else ast.literal_eval(mode)))
    assert calls == [("open", "wb"), ("os.open", os.O_WRONLY | os.O_CREAT)]


def test_no_index_is_parsed_from_a_bit_string():
    # every index is its number k (a cut, a GHZ weight, a GHZ basis state,
    # a removed projector), so no module reads one with int(text, base)
    # and the per-character parser basis_index is gone.
    package = Path(choilab.__file__).resolve().parent
    parses, named = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "int"
                and (len(node.args) > 1 or any(k.arg == "base" for k in node.keywords))
            ):
                parses.append(f"{path.name}:{node.lineno}")
            if "basis_index" in (getattr(node, key, None) for key in ("attr", "id", "name")):
                named.append(f"{path.name}:{node.lineno}")
    assert parses == [] and named == []
    assert not hasattr(importlib.import_module("choilab.states"), "basis_index")


def test_every_refusal_is_a_choilab_error():
    # The CLI prints a refusal's message and exits 2, and no code reads its
    # class, so errors.py defines one.  The other raises are not refusals:
    # argparse's bad flag value and a missing module attribute.  With one
    # class, a test tells refusals apart by message.
    package = Path(choilab.__file__).resolve().parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    assert [n.name for n in ast.walk(errors) if isinstance(n, ast.ClassDef)] == ["ChoilabError"]
    raised = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc))
    assert raised == {"ChoilabError", "argparse.ArgumentTypeError", "AttributeError"}
    unpinned = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "pytest.raises"
                and ast.unparse(node.args[0]) == "ChoilabError"
                and not any(k.arg == "match" for k in node.keywords)
            ):
                unpinned.append(f"{path.name}:{node.lineno}")
    assert unpinned == []


# Bad values of each kind, each drawn with the value a refusal must quote:
# the value itself, or for a list of labels (of channels) the element that
# is no str (no channel).
def _whole(values):
    return values.map(lambda v: (v, v))


@st.composite
def _labels_holding_one_bad(draw):
    labels = draw(st.lists(st.text(max_size=3), max_size=3))
    bad = draw(st.integers() | st.none() | st.lists(st.text(max_size=2), max_size=2))
    labels.insert(draw(st.integers(0, len(labels))), bad)
    return labels, bad


@st.composite
def _channels_holding_one_bad(draw):
    chans = draw(st.lists(st.sampled_from(_PAIR), max_size=2))
    bad = draw(st.integers() | st.none() | st.text() | st.lists(st.integers(), max_size=2))
    chans.insert(draw(st.integers(0, len(chans))), bad)
    return chans, bad


BAD_VALUES = {
    "labels": _whole(st.integers() | st.floats() | st.none() | st.booleans() | st.text())
    | _labels_holding_one_bad(),
    "dims": _whole(st.integers() | st.floats() | st.none() | st.booleans()),
    "number": _whole(st.floats() | st.none() | st.booleans() | st.text()),
    "weights": _whole(st.integers() | st.floats() | st.booleans()),
    "channels": _whole(st.integers() | st.floats() | st.none() | st.booleans())
    | _channels_holding_one_bad(),
    # NaN compares False with every eigenvalue, so it would pass any matrix as positive
    "threshold": _whole(st.sampled_from([math.nan, math.inf, -math.inf, True, "x", 1j, None])),
}

_SYSTEM = states.PartySystem(("A", "B", "C"), (2, 2, 2))
_RHO = states.MultipartiteState(_SYSTEM, np.eye(8) / 8)
_PHI = states.ghz_basis_state(_SYSTEM, 0, 1)
_CHANNEL = nonadditivity.binding_channel(1)
_CHOI = channels.choi(_CHANNEL)
_REF, _OUT = _CHOI.system.labels[:1], _CHOI.system.labels[1:]
_PAIR = [_CHANNEL, nonadditivity.binding_channel(2)]
_E1_COEFFS = entanglement.ghz_diagonal_coefficients(nonadditivity.choi_state(_CHANNEL))
_SENDERS = nonadditivity.SENDER_GROUP

# (kind, call) for every entry point that reads parties, dims, a number, weights,
# channels or a threshold.
ENTRY_POINTS = {
    "label_tuple": ("labels", states.label_tuple),
    "PartySystem-labels": ("labels", lambda v: states.PartySystem(v, (2, 2))),
    "PartySystem-dims": ("dims", lambda v: states.PartySystem(("A",), v)),
    "require": ("labels", _SYSTEM.require),
    "subsystem": ("labels", _SYSTEM.subsystem),
    "partial_trace": ("labels", lambda v: states.partial_trace(_RHO, v)),
    "partial_transpose": ("labels", lambda v: states.partial_transpose(_RHO, v)),
    "permute_parties": ("labels", lambda v: states.permute_parties(_RHO, v)),
    "schmidt_decomposition": ("labels", lambda v: states.schmidt_decomposition(_PHI, v)),
    "cut_number": ("labels", lambda v: states.cut_number(_SYSTEM, v)),
    "max_entangled-labels": ("labels", lambda v: states.max_entangled(2, v)),
    "max_entangled-d": ("number", states.max_entangled),
    "cut_name": ("number", lambda v: states.cut_name(_SYSTEM, v)),
    "ghz_basis_state-k": ("number", lambda v: states.ghz_basis_state(_SYSTEM, v, 1)),
    "ghz_basis_state-sign": ("number", lambda v: states.ghz_basis_state(_SYSTEM, 0, v)),
    "disjoint_groups-one": ("labels", lambda v: entanglement.disjoint_groups(_SYSTEM, v, ["C"])),
    "disjoint_groups-two": ("labels", lambda v: entanglement.disjoint_groups(_SYSTEM, ["A"], v)),
    "ppt_check": ("number", lambda v: entanglement.ppt_check(_RHO, v)),
    "localize_entanglement-senders": (
        "labels", lambda v: entanglement.localize_entanglement(_PHI, v, ["C"])
    ),
    "localize_entanglement-receivers": (
        "labels", lambda v: entanglement.localize_entanglement(_PHI, ["A", "B"], v)
    ),
    "choi-order": ("labels", lambda v: channels.choi(_CHANNEL, order=v)),
    "kraus_from_choi-reference": ("labels", lambda v: channels.kraus_from_choi(_CHOI, v, _OUT)),
    "kraus_from_choi-outputs": ("labels", lambda v: channels.kraus_from_choi(_CHOI, _REF, v)),
    "mix_weights-n": ("number", channels.mix_weights),
    "mix_weights-weights": ("weights", lambda v: channels.mix_weights(2, v)),
    "mix-weights": ("weights", lambda v: channels.mix(_PAIR, weights=v)),
    "mix-channels": ("channels", channels.mix),
    "binding_channel": ("number", nonadditivity.binding_channel),
    "capacity_proxy": ("labels", lambda v: nonadditivity.capacity_proxy(_E1_COEFFS, v)),
    "MultipartiteState-threshold": (
        "threshold", lambda v: states.MultipartiteState(_SYSTEM, _RHO.matrix, psd_threshold=v)
    ),
    "state_from_dict-threshold": (
        "threshold", lambda v: codec.state_from_dict(codec.state_to_dict(_RHO), psd_threshold=v)
    ),
    "ppt_check-threshold": ("threshold", lambda v: entanglement.ppt_check(_RHO, 1, v)),
    "npt_vector": ("threshold", lambda v: entanglement.npt_vector(_E1_COEFFS, v)),
    "npt_criterion": ("threshold", lambda v: entanglement.npt_criterion(_E1_COEFFS, 1, v)),
    "pair_verdicts": (
        "threshold", lambda v: entanglement.pair_verdicts(_E1_COEFFS, [(_SENDERS, ("B",))], v)
    ),
    "pairwise_distillability": (
        "threshold",
        lambda v: entanglement.pairwise_distillability(_E1_COEFFS, _SENDERS, ["B"], v),
    ),
    "verify_cptp": ("threshold", lambda v: channels.verify_cptp(_CHANNEL, psd_threshold=v)),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=40)
@given(data=st.data())
def test_every_bad_kind_is_refused_by_value(name, data):
    # A TypeError, AttributeError or numpy error escaping here is a hole in a gate.
    kind, call = ENTRY_POINTS[name]
    value, quoted = data.draw(BAD_VALUES[kind])
    assume(not (name == "choi-order" and value is None))  # order=None is the default order
    with pytest.raises(ChoilabError, match=re.escape(repr(quoted))) as refused:
        call(value)
    assert refused.type is ChoilabError

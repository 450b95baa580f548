"""Import direction: the bottom layer (linalg) needs only errors, and the codec
loads states and channels without the report layer (nonadditivity).  The
smallest eigenvalue has one path, linalg.min_eigenvalue, the X-block
solve one copy, linalg.x_min_eigenvalue, which only min_eigenvalue and
entanglement.cut_min_eigenvalues call, and JSON one module, codec.
The GHZ fingerprint has one stored form, the weight vectors plus and
minus, and only the CLI names its entries by cut-index strings.  Every
name the benchmark's tracer wraps still exists, and the CLI reads every
input file through codec.load_path."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import choilab
from choilab.entanglement import GhzDiagonalCoefficients

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


def test_fingerprint_has_one_stored_form():
    # delta, the lambda_j and the NPT vector are read from plus and minus,
    # so no stored copy can fall out of step with them; the cut-index
    # strings that name the lambda_j are made at the CLI edge only.
    fields = [f.name for f in dataclasses.fields(GhzDiagonalCoefficients)]
    assert fields == ["system", "plus", "minus", "offdiagonal_residual"]
    package = Path(choilab.__file__).resolve().parent
    defined, readers = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "all_cut_indices":
                defined.append(path.name)
            elif "all_cut_indices" in (getattr(node, key, None) for key in ("attr", "id", "name")):
                readers.add(path.name)
    assert defined == ["entanglement.py"]
    assert readers == {"cli.py"}


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

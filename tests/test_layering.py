"""Import direction: the bottom layer (linalg) needs only errors, and the codec
loads states and channels without the report layer (nonadditivity).  The
smallest eigenvalue has one path, linalg.min_eigenvalue, the X-block
solve one copy, linalg.x_min_eigenvalue, and JSON one module, codec.
Every name the benchmark's tracer wraps still exists, and the CLI reads
every input file through codec.load_path."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import choilab

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
    # cli.py read itself would go uncounted.  Its one open writes --out.
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
                calls.append((name, "r" if mode is None else ast.literal_eval(mode)))
    assert calls == [("open", "w")]

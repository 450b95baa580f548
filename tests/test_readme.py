"""The README's code runs as written and prints what its comments say."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import choilab

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(choilab.__file__).resolve().parents[1])


def block_after(marker: str, language: str) -> str:
    """The first ```language fenced block after the line that starts with ``marker``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = re.search(rf"^{re.escape(marker)}", text, re.M).end()
    block = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(text, start)
    return block.group(1)


def test_library_example():
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(block_after("## Library example", "python"), namespace)
    assert namespace["k"] == 0b010 == 2
    lines = out.getvalue().splitlines()
    assert len(lines) == 7
    # the two ppt_check lines read one cut: PPT, min eigenvalue ~ 0
    assert lines[0] == lines[1] and "is_ppt=True" in lines[0]
    assert abs(float(re.search(r"min_eigenvalue=([^,]+),", lines[0]).group(1))) < 1e-12
    coeffs = namespace["coeffs"]
    assert abs(coeffs.delta - 1 / 8) < 1e-15 and abs(coeffs.lambdas[0b010 - 1] - 1 / 16) < 1e-15
    assert lines[3] == f"{coeffs.delta} {coeffs.lambdas[0b010 - 1]}"
    assert lines[4:] == ["False", "False (2,)", "['A1,A2,C | B']"]


def test_working_with_files(tmp_path):
    # choilab is `python -m choilab` and python3 the interpreter running
    # the tests; -e stops at the first command that does not exit 0
    python = shlex.quote(sys.executable)
    script = "\n".join(
        [
            f'choilab() {{ {python} -m choilab "$@"; }}',
            f'python3() {{ {python} "$@"; }}',
            block_after("Working with files", "sh"),
        ]
    )
    # every warning is an error, so a file the snippet leaves open shows in stderr
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env["PYTHONWARNINGS"] = "error"
    done = subprocess.run(
        ["bash", "-e", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    made = {"e1.json", "e2.json", "e3.json", "ghz3.json", "e1_choi.json", "emix.json", "emix_choi.json"}
    assert {p.name for p in tmp_path.iterdir()} == made
    assert done.stdout.count("overall: pass") == 6

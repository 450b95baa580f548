"""BENCHMARK.json agrees with what run.py prints, and the runner refuses a checkout without src/."""

import json
import re
import shutil
import subprocess
import sys

import bootstrap
import layertrace
import run

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units(layertrace)
    assert {w["name"] for w in SPEC["workloads"]} == {"reproduce", "classify", "channel-files"}


def test_spec_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer") for m in SPEC[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert 1 <= SPEC["run_seconds"] <= 60


def test_runner_refuses_a_checkout_without_source(tmp_path):
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no choilab package" in proc.stderr

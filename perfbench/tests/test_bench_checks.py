"""Negative controls: every output check must count a corrupted op as failed.

Each control first runs the real op through the benchmark's loop and
expects it to pass, then plants one corruption in the op's output and
expects the same loop to count every op as failed.
"""

import json

import numpy as np
import pytest

import run
import workloads


def loop(workload, corrupt, ops):
    """Run the benchmark's closed loop for some ops, optionally corrupting each output."""
    if corrupt is not None:
        real_op = workload.op
        workload.op = lambda i: corrupt(real_op(i))
    tally = run.Tally()
    run.run_ops(workload, tally, 0, 0.0, ops, period=1)
    return tally


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def flip_first(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def test_reproduce_control_flipped_status(workdir):
    w = workloads.Reproduce(workdir, 0)
    w.prepare()
    assert loop(w, None, 2).failed == 0
    flipped = flip_first(w.reference, '"status": "pass"', '"status": "fail"')
    # the status rule alone must catch it, even when the bytes match the reference
    assert workloads.check_reproduce(0, flipped, flipped)
    w.reference = None
    tally = loop(w, lambda out: (out[0], flip_first(out[1], '"status": "pass"', '"status": "fail"')), ops=2)
    assert tally.failed == tally.attempted == 2


def test_reproduce_control_changed_bytes(workdir):
    w = workloads.Reproduce(workdir, 0)
    w.prepare()
    assert loop(w, None, 1).failed == 0
    assert workloads.check_reproduce(0, w.reference + " ", w.reference)


def test_classify_control_wrong_cut_verdict(workdir):
    w = workloads.Classify(workdir, 4)
    w.cycle = ("N4",)
    w.prepare()
    assert loop(w, None, 3).failed == 0

    def wrong_verdict(out):
        code, text = out
        doc = json.loads(text)
        row = next(e for e in doc["entries"] if e["id"].startswith("cut-"))
        row["eigensolver"] = "PPT" if row["eigensolver"] == "NPT" else "NPT"
        return code, json.dumps(doc)

    tally = loop(w, wrong_verdict, ops=3)
    assert tally.failed == tally.attempted == 3


def test_classify_control_wrong_pair_verdict(workdir):
    w = workloads.Classify(workdir, 4)
    w.prepare()
    path, spec = w.pool["N4"][0]
    code, text = workloads.run_cli(["--format", "json", "classify", str(path)])
    assert not workloads.check_classify(code, text, spec)
    key = next(iter(spec.default_pairs()))
    doc = json.loads(text)
    row = next(e for e in doc["entries"] if e["id"] == key)
    row["distillable"] = not row["distillable"]
    assert workloads.check_classify(code, json.dumps(doc), spec)


def test_channel_files_control_kraus_one_ulp_off(workdir):
    w = workloads.ChannelFiles(workdir, 2)
    w.prepare()
    assert loop(w, None, 3).failed == 0

    def nudge(out):
        reports, decoded, choi = out
        a = decoded[0].kraus[0]
        k = np.flatnonzero(a.real)[0]
        a.real.flat[k] = np.nextafter(a.real.flat[k], np.inf)
        return reports, decoded, choi

    tally = loop(w, nudge, ops=3)
    assert tally.failed == tally.attempted == 3


def test_channel_files_control_failed_command(workdir):
    w = workloads.ChannelFiles(workdir, 2)
    w.prepare()

    def exit_one(out):
        reports, decoded, choi = out
        reports["mix"] = (1, reports["mix"][1])
        return reports, decoded, choi

    tally = loop(w, exit_one, ops=3)
    assert tally.failed == tally.attempted == 3


def test_op_that_raises_is_a_failed_op(workdir):
    w = workloads.Reproduce(workdir, 0)

    def boom(i):
        raise RuntimeError("planted")

    w.op = boom
    tally = run.Tally()
    run.run_ops(w, tally, 0, 0.0, 2)
    assert tally.failed == tally.attempted == 2

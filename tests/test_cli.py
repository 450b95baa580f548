import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choilab
from choilab import channels, cli, codec, linalg, states
from choilab.cli import main
from choilab.entanglement import ghz_diagonal_coefficients, ppt_check
from choilab.codec import (
    channel_from_dict,
    channel_to_dict,
    dumps,
    loads,
    state_from_dict,
    state_to_dict,
)
from choilab.nonadditivity import (
    binding_channel,
    choi_closed_form,
    choi_state,
    mixed_binding_channel,
    swap_image,
)
from choilab.states import MultipartiteState, PartySystem, ghz_basis_state

from conftest import (
    REJECTED_MATRICES,
    cut_bits,
    describe,
    ghz_diagonal_state,
    index_side,
    loop_classify_entries,
    random_ghz_diagonal_state,
    random_state,
    walk_blocking_cuts,
)


SRC = str(Path(choilab.__file__).resolve().parents[1])


def bench_gen(monkeypatch):
    """perfbench/gen.py, the benchmark's seeded input generator (it imports only numpy)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def qubits(labels) -> PartySystem:
    return PartySystem(tuple(labels), (2,) * len(labels))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def without_last_kraus(fixture_dir, tmp_path):
    """e1.json minus its last Kraus operator: a channel that is not trace preserving."""
    doc = loads((fixture_dir / "e1.json").read_text())
    del doc["kraus"][-1]
    path = tmp_path / "not_tp.json"
    path.write_text(dumps(doc))
    return path


def statuses(out):
    return {e["id"]: e["status"] for e in json.loads(out)["entries"]}


class TestVerify:
    def test_bundled_channel_passes(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "verify", str(fixture_dir / "e1.json"))
        assert code == 0
        assert "overall: pass" in out

    def test_missing_operator_fails(self, fixture_dir, tmp_path, capsys):
        doc = loads((fixture_dir / "e1.json").read_text())
        del doc["kraus"][0]
        broken = tmp_path / "broken.json"
        broken.write_text(dumps(doc))
        code, out, _ = run(capsys, "verify", str(broken))
        assert code == 1
        assert "overall: fail" in out

    def test_each_rule_read_from_its_own_verdict(self, fixture_dir, tmp_path, capsys):
        path = without_last_kraus(fixture_dir, tmp_path)
        code, out, _ = run(capsys, "--format", "json", "verify", str(path))
        assert code == 1
        assert statuses(out) == {"cptp-completeness": "fail", "cptp-choi-positive": "pass"}
        # --tolerance -1 asks for eigenvalues >= 1: only the PSD rule fails
        code, out, _ = run(
            capsys, "--format", "json", "--tolerance", "-1", "verify", str(fixture_dir / "e1.json")
        )
        assert code == 1
        assert statuses(out) == {"cptp-completeness": "pass", "cptp-choi-positive": "fail"}

    def test_truncated_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", ')
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/nowhere.json")
        assert code == 2


class TestChoi:
    def test_canonical_order_matches_closed_form(self, fixture_dir, tmp_path, capsys):
        out_path = tmp_path / "choi.json"
        code, _, _ = run(
            capsys,
            "choi",
            str(fixture_dir / "e1.json"),
            "--order",
            "A1,B,A2,C",
            "--out",
            str(out_path),
        )
        assert code == 0
        state = state_from_dict(loads(out_path.read_text()))
        assert state.system.labels == ("A1", "B", "A2", "C")
        assert np.linalg.norm(state.matrix - choi_closed_form(1).matrix) <= 1e-12

    def test_identity_channel(self, tmp_path, capsys):
        doc = {
            "name": "id",
            "input": {"labels": ["Q"], "dims": [2]},
            "output": {"labels": ["Q"], "dims": [2]},
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        }
        path = tmp_path / "id.json"
        path.write_text(dumps(doc))
        out_path = tmp_path / "choi.json"
        code, _, _ = run(capsys, "choi", str(path), "--out", str(out_path))
        assert code == 0
        state = state_from_dict(loads(out_path.read_text()))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.linalg.norm(state.matrix - expected) < 1e-14

    def test_swap_relation_between_files(self, fixture_dir, tmp_path, capsys):
        outs = {}
        for a in (2, 3):
            out_path = tmp_path / f"choi{a}.json"
            code, _, _ = run(
                capsys,
                "choi",
                str(fixture_dir / f"e{a}.json"),
                "--order",
                "A1,B,A2,C",
                "--out",
                str(out_path),
            )
            assert code == 0
            outs[a] = state_from_dict(loads(out_path.read_text()))
        swapped = swap_image(outs[2])
        assert np.linalg.norm(outs[3].matrix - swapped.matrix) <= 1e-12

    def test_reports_positivity_only(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "--format", "json", "choi", str(fixture_dir / "e1.json"))
        assert code == 0
        assert statuses(out) == {"choi-positive": "pass"}

    def test_not_trace_preserving_is_bad_input(self, fixture_dir, tmp_path, capsys):
        # the Choi state of such a channel has no unit trace, so it is not a state
        path = without_last_kraus(fixture_dir, tmp_path)
        code, out, err = run(capsys, "choi", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "trace" in err and "Traceback" not in err
        assert run(capsys, "verify", str(path))[0] == 1

    def test_bad_order(self, fixture_dir, capsys):
        code, _, err = run(
            capsys, "choi", str(fixture_dir / "e1.json"), "--order", "A1,B,A2"
        )
        assert code == 2

    @pytest.mark.parametrize("order", ["A1,,B,C", "A1,B,C,", "A1, B,C,A:2", ""])
    def test_order_label_the_cli_cannot_name(self, fixture_dir, tmp_path, capsys, order):
        out_path = tmp_path / "choi.json"
        code, out, err = run(
            capsys, "choi", str(fixture_dir / "e1.json"), "--order", order, "--out", str(out_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: party label") and "Traceback" not in err
        assert not out_path.exists()

    def test_order_validates_once_and_solves_once(self, fixture_dir, capsys, monkeypatch):
        # choi() permutes the raw Choi matrix, then validates one state, and
        # the report reads the smallest eigenvalue that validation solved
        validations, solves = [], []
        post_init = MultipartiteState.__post_init__
        solve = linalg.min_eigenvalue

        def validating(self, *args):
            validations.append(self.system.labels)
            return post_init(self, *args)

        def solving(*args, **kwargs):
            solves.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(MultipartiteState, "__post_init__", validating)
        for module in (linalg, states, channels, cli):
            if getattr(module, "min_eigenvalue", None) is solve:
                monkeypatch.setattr(module, "min_eigenvalue", solving)
        code, out, _ = run(
            capsys, "--format", "json", "choi", str(fixture_dir / "e1.json"), "--order", "A1,B,A2,C"
        )
        assert code == 0
        assert validations == [("A1", "B", "A2", "C")]
        assert solves == [(16, 16)]
        assert statuses(out) == {"choi-positive": "pass"}


class TestClassify:
    def test_mixture_choi(self, fixture_dir, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "classify",
            str(fixture_dir / "emix_choi.json"),
            "--pair",
            "A1,A2:B",
            "--pair",
            "A1,A2:C",
        )
        assert code == 0
        doc = json.loads(out)
        rows = {e["id"]: e for e in doc["entries"]}
        for j in ("101", "010", "111"):
            assert rows[f"cut-{j}"]["eigensolver"] == "NPT"
            assert rows[f"cut-{j}"]["criterion"] == "NPT"
        assert rows["distill-A1,A2-vs-B"]["distillable"] is True
        assert rows["distill-A1,A2-vs-C"]["distillable"] is True

    def test_channel_one_choi(self, fixture_dir, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "classify",
            str(fixture_dir / "e1_choi.json"),
            "--pair",
            "A1,A2:B",
            "--pair",
            "A1,A2:C",
        )
        assert code == 0
        doc = json.loads(out)
        rows = {e["id"]: e for e in doc["entries"]}
        assert rows["cut-010"]["eigensolver"] == "PPT"  # cut {B}
        assert rows["cut-111"]["eigensolver"] == "PPT"  # cut {C}
        assert rows["distill-A1,A2-vs-B"]["distillable"] is False
        assert rows["distill-A1,A2-vs-C"]["distillable"] is False

    @pytest.mark.parametrize(
        "key, delta, lambda0, weights",
        [
            ("E1", 1 / 8, (3 / 16, 1 / 16), {"101": 0.0}),
            ("mix", 1 / 8, None, {"010": 1 / 24, "101": 1 / 24, "111": 1 / 24}),
        ],
    )
    def test_fingerprint_rows(self, tmp_path, capsys, key, delta, lambda0, weights):
        # The bit-string names of the fingerprint are made only here, at
        # the CLI edge: the lambda-j rows come in cut number order, and
        # every weight not listed is 1/16.
        parts = [binding_channel(a) for a in (1, 2, 3)]
        channel = parts[0] if key == "E1" else mixed_binding_channel(parts)
        path = tmp_path / f"{key}.json"
        path.write_text(dumps(state_to_dict(choi_state(channel))))
        code, out, _ = run(capsys, "--format", "json", "classify", str(path))
        assert code == 0
        entries = json.loads(out)["entries"]
        rows = {e["id"]: e for e in entries}
        numbers = [rows["delta"][name] for name in ("delta", "lambda0_plus", "lambda0_minus")]
        assert all(type(x) in (int, float) for x in numbers)
        assert abs(numbers[0] - delta) < 1e-14
        if lambda0 is not None:
            assert abs(numbers[1] - lambda0[0]) < 1e-14
            assert abs(numbers[2] - lambda0[1]) < 1e-14
        ids = [e["id"] for e in entries if e["id"].startswith("lambda-")]
        assert ids == [f"lambda-{j}" for j in cut_bits(4)]
        for j in cut_bits(4):
            value = rows[f"lambda-{j}"]["value"]
            assert type(value) in (int, float)
            assert abs(value - weights.get(j, 1 / 16)) < 1e-14, j

    def test_non_ghz_diagonal_falls_back(self, tmp_path, capsys):
        rng = np.random.default_rng(33)
        sys = PartySystem(("A", "B", "C"), (2, 2, 2))
        path = tmp_path / "random.json"
        path.write_text(dumps(state_to_dict(random_state(rng, sys))))
        code, out, _ = run(capsys, "--format", "json", "classify", str(path))
        assert code == 0
        doc = json.loads(out)
        rows = {e["id"]: e for e in doc["entries"]}
        assert rows["residual"]["status"] == "warn"
        assert "delta" not in rows
        assert all("criterion" not in rows[k] for k in rows if k.startswith("cut-"))

    def test_ghz3_fixture(self, fixture_dir, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "classify", str(fixture_dir / "ghz3.json")
        )
        assert code == 0
        doc = json.loads(out)
        rows = {e["id"]: e for e in doc["entries"]}
        for j in ("01", "10", "11"):
            assert rows[f"cut-{j}"]["eigensolver"] == "NPT"

    def test_n8_reads_x_shape_once_and_transposes_nothing(self, tmp_path, capsys, monkeypatch):
        # An X-shaped state's support is tested once, when it is validated;
        # every cut's spectrum then comes from its diagonal and anti-diagonal.
        system = PartySystem(tuple(f"Q{i}" for i in range(8)), (2,) * 8)
        state = random_ghz_diagonal_state(np.random.default_rng(8), system)
        path = tmp_path / "ghz8.json"
        path.write_text(dumps(state_to_dict(state)))
        scans = []
        original = linalg.is_x_shaped

        def counting(m):
            scans.append(m.shape)
            return original(m)

        def refuse(*args):
            raise AssertionError("dense partial transpose or eigensolve")

        monkeypatch.setattr(linalg, "is_x_shaped", counting)
        monkeypatch.setattr(states, "transpose_parties", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        code, out, _ = run(capsys, "--format", "json", "classify", str(path))
        assert code == 0
        assert scans == [(256, 256)]
        rows = [e for e in json.loads(out)["entries"] if e["id"].startswith("cut-")]
        assert len(rows) == 127
        assert all(r["eigensolver"] == r["criterion"] for r in rows)

    def test_n6_work_counts(self, tmp_path, capsys, monkeypatch):
        # Six qubits, delta = 0.1: every cut is NPT except {Q1} (lambda 0.06,
        # margin 0.01), and {Q3} (lambda 0.045, margin -0.005) turns PPT at
        # --tolerance 0.01.  Only the pairs holding Q1 (and then Q3) block.
        system = PartySystem(tuple(f"Q{i}" for i in range(6)), (2,) * 6)
        lambdas = dict.fromkeys(cut_bits(6), 0.005)
        lambdas.update({"01000": 0.06, "00010": 0.045})
        weights = {(0, 1): 0.3, (0, -1): 0.2}
        weights.update({(int(j, 2), s): lam for j, lam in lambdas.items() for s in (1, -1)})
        path = tmp_path / "ghz6.json"
        path.write_text(dumps(state_to_dict(ghz_diagonal_state(system, weights))))

        solves, checks = [], []
        solve, check = linalg.x_min_eigenvalue, cli.ppt_check

        def counting_solve(diag, anti):
            solves.append(anti.shape)
            return solve(diag, anti)

        def counting_check(state, k, threshold):
            checks.append(k)
            return check(state, k, threshold)

        monkeypatch.setattr(linalg, "x_min_eigenvalue", counting_solve)
        monkeypatch.setattr(cli, "ppt_check", counting_check)
        blocked = {"": {"Q1"}, "0.01": {"Q1", "Q3"}}
        for tolerance, members in blocked.items():
            for log in (solves, checks):
                log.clear()
            flags = ["--tolerance", tolerance] if tolerance else []
            code, out, _ = run(capsys, "--format", "json", *flags, "classify", str(path))
            assert code == 0
            # one solve validates the state, one stacked solve covers all 31 cuts
            assert solves == [(64,), (31, 64)]
            assert checks == list(range(1, 32))
            rows = {e["id"]: e for e in json.loads(out)["entries"]}
            pairs = {k: e for k, e in rows.items() if k.startswith("distill-")}
            assert len(pairs) == 15
            for key, entry in pairs.items():
                assert entry["distillable"] is not (set(key[8:].split("-vs-")) & members), key
            # blocking cuts are numbers named by states.cut_name
            blocking = sum(e["computed"].count(" | ") for e in pairs.values())
            assert blocking == (5 if len(members) == 1 else 10)

        # One state read, both thresholds: the kept values do not depend on either.
        state = state_from_dict(loads(path.read_text()))
        solves.clear()
        for threshold, ppt in ((linalg.PSD_THRESHOLD, {0b01000}), (-0.01, {0b01000, 0b00010})):
            verdicts = {k: ppt_check(state, k, threshold) for k in range(1, 32)}
            assert {k for k, v in verdicts.items() if v.is_ppt} == ppt
        assert solves == [(31, 64)]

    def test_cut_rows_named_like_describe(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        for dims in ((2, 2), (2, 2, 2), (2,) * 5):
            system = PartySystem(tuple(f"P{i}" for i in range(len(dims))), dims)
            path = tmp_path / f"ghz{len(dims)}.json"
            path.write_text(dumps(state_to_dict(random_ghz_diagonal_state(rng, system))))
            code, out, _ = run(capsys, "--format", "json", "classify", str(path))
            assert code == 0
            names = {e["id"]: e["cut"] for e in json.loads(out)["entries"] if "cut" in e}
            assert names == {
                f"cut-{j}": describe(index_side(k, system), system)
                for k, j in enumerate(cut_bits(len(dims)), start=1)
            }

    def test_pair_rows_name_the_brute_force_blocking_cuts(self, tmp_path, capsys):
        # Eight qubits with about half of the 127 cuts PPT: lambda_j uniform
        # in [0, 0.005) against delta/2 = 0.0025.  Each pair row lists the
        # names of the cuts the brute-force walk finds, in index order.
        n = 8
        system = PartySystem(tuple(f"Q{i}" for i in range(n)), (2,) * n)
        lambdas = np.random.default_rng(18).random(127) / 200
        delta = 0.005
        assert np.abs(lambdas - delta / 2).min() > 1e-7  # no verdict sits on the threshold
        rest = 1 - 2 * lambdas.sum()
        weights = {(0, 1): (rest + delta) / 2, (0, -1): (rest - delta) / 2}
        for k, lam in enumerate(lambdas, start=1):
            weights[(k, 1)] = weights[(k, -1)] = lam
        state = ghz_diagonal_state(system, weights)
        path = tmp_path / "ghz8_many_ppt.json"
        path.write_text(dumps(state_to_dict(state)))
        pairs = [((a,), (b,)) for i, a in enumerate(system.labels) for b in system.labels[i + 1 :]]
        pairs += [(("Q0", "Q1"), ("Q7",)), (("Q2",), ("Q3", "Q5", "Q6"))]
        flags = [f for one, two in pairs[-2:] for f in ("--pair", f"{','.join(one)}:{','.join(two)}")]
        coeffs = ghz_diagonal_coefficients(state)
        ppt = int(np.count_nonzero(coeffs.lambdas - coeffs.delta / 2 >= linalg.PSD_THRESHOLD))
        assert 40 < ppt < 90
        for argv in ([], flags):
            code, out, _ = run(capsys, "--format", "json", "classify", str(path), *argv)
            assert code == 0
            rows = {e["id"]: e for e in json.loads(out)["entries"] if e["id"].startswith("distill-")}
            expected_pairs = pairs[:28] if not argv else pairs[-2:]
            assert len(rows) == len(expected_pairs)
            for one, two in expected_pairs:
                a, b = ",".join(one), ",".join(two)
                ks = walk_blocking_cuts(coeffs, one, two, linalg.PSD_THRESHOLD)
                names = [describe(index_side(k, system), system) for k in ks]
                result = f"not distillable (blocking: {'; '.join(names)})" if ks else "distillable"
                assert rows[f"distill-{a}-vs-{b}"]["computed"] == f"{a} vs {b}: {result}"
                assert rows[f"distill-{a}-vs-{b}"]["distillable"] is (not ks)

    def test_qudit_state_rejected(self, tmp_path, capsys):
        sys = PartySystem(("A", "B"), (3, 3))
        state = MultipartiteState(sys, np.eye(9) / 9)
        path = tmp_path / "qutrits.json"
        path.write_text(dumps(state_to_dict(state)))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_cuts_named_once_per_system(self, tmp_path, capsys, monkeypatch):
        # The cut rows and the blocking lists of every pair read one name
        # table; a second file on an equal system makes no name at all.
        system = PartySystem(("A1", "B", "A2", "C", "D"), (2,) * 5)
        rng = np.random.default_rng(12)
        paths = []
        for i in range(2):
            paths.append(tmp_path / f"ghz5-{i}.json")
            paths[-1].write_text(dumps(state_to_dict(random_ghz_diagonal_state(rng, system))))
        named = []
        name = states.cut_name

        def counting(system, k):
            named.append(k)
            return name(system, k)

        monkeypatch.setattr(states, "cut_name", counting)
        states.cut_names.cache_clear()
        for path in paths:
            code, out, _ = run(capsys, "--format", "json", "classify", str(path))
            assert code == 0
            assert " | " in out
        assert named == list(range(1, 16))


# A few labels of more than one character, from which an oracle case draws its system.
ORACLE_LABELS = ("A1", "B", "A2", "C", "Bob", "D7", "E")


@st.composite
def classify_cases(draw):
    """A qubit state of 1-7 parties, its kind, --pair specs (or none), --tolerance and --format."""
    n = draw(st.integers(1, 7))
    labels = tuple(draw(st.permutations(ORACLE_LABELS))[:n])
    kind = draw(st.sampled_from(["symmetric", "asymmetric", "not-ghz-diagonal"]))
    seed = draw(st.integers(0, 2**32 - 1))
    specs = []
    if n >= 2 and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            order = draw(st.permutations(labels))
            a = draw(st.integers(1, n - 1))
            b = draw(st.integers(1, n - a))
            specs.append(f"{','.join(order[:a])}:{','.join(order[a:a + b])}")
    tolerance = draw(st.sampled_from([None, 0.01]))
    fmt = draw(st.sampled_from(["json", "human"]))
    return labels, kind, seed, specs, tolerance, fmt


class TestClassifyOracle:
    """classify prints, byte for byte, what the per-row loop of conftest makes."""

    @pytest.fixture(scope="class")
    def oracle_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("classify-oracle")

    @settings(max_examples=80)
    @given(classify_cases())
    def test_output_matches_the_loop(self, oracle_dir, case):
        labels, kind, seed, specs, tolerance, fmt = case
        system = PartySystem(labels, (2,) * len(labels))
        rng = np.random.default_rng(seed)
        if kind == "not-ghz-diagonal":
            state = random_state(rng, system)
        else:
            state = random_ghz_diagonal_state(rng, system, symmetric=kind == "symmetric")
        path = oracle_dir / "state.json"
        path.write_text(dumps(state_to_dict(state)))
        flags = ["--format", fmt] + ([] if tolerance is None else ["--tolerance", str(tolerance)])
        argv = [*flags, "classify", str(path), *(f for spec in specs for f in ("--pair", spec))]
        with contextlib.redirect_stdout(io.StringIO()) as got:
            code = main(argv)

        args = cli.build_parser().parse_args(argv)
        read = state_from_dict(loads(path.read_text()), psd_threshold=-args.tolerance)
        entries = loop_classify_entries(
            read, cli._parse_pairs(args.pair, read.system), -args.tolerance
        )
        with contextlib.redirect_stdout(io.StringIO()) as want:
            want_code = cli._finish(args, entries)
        assert got.getvalue() == want.getvalue()
        assert code == want_code


def near_boundary_state() -> MultipartiteState:
    """3-qubit GHZ-diagonal state with delta = 0.3 and 2*lambda_01 = delta - 1e-10.

    The partial transpose across A,C | B (cut 01) has the smallest
    eigenvalue lambda_01 - delta/2 = -5e-11, just inside the default
    threshold -1e-9; the other two cuts are clearly NPT.
    """
    system = PartySystem(("A", "B", "C"), (2, 2, 2))
    delta = 0.3
    lam = {"01": (delta - 1e-10) / 2, "10": 0.05, "11": 0.05}
    rest = 1 - 2 * sum(lam.values())
    weights = {("00", 1): (rest + delta) / 2, ("00", -1): (rest - delta) / 2}
    for j, value in lam.items():
        weights[(j, 1)] = weights[(j, -1)] = value
    m = np.zeros((8, 8), dtype=complex)
    for (j, sign), w in weights.items():
        v = ghz_basis_state(system, int(j, 2), sign).vector
        m += w * np.outer(v, v.conj())
    return MultipartiteState(system, m)


class TestClassifyNearBoundary:
    """The eigensolver and the coefficient criterion read one threshold."""

    def _rows(self, tmp_path, capsys, *flags):
        path = tmp_path / "boundary.json"
        path.write_text(dumps(state_to_dict(near_boundary_state())))
        code, out, _ = run(capsys, "--format", "json", *flags, "classify", str(path))
        return code, {e["id"]: e for e in json.loads(out)["entries"]}

    def test_default_threshold_both_routes_ppt(self, tmp_path, capsys):
        code, rows = self._rows(tmp_path, capsys)
        assert code == 0
        assert all(r["status"] != "fail" for r in rows.values())
        cut = rows["cut-01"]
        assert cut["cut"] == "A,C | B"
        assert (cut["eigensolver"], cut["criterion"]) == ("PPT", "PPT")
        assert abs(cut["min_eigenvalue"] + 5e-11) < 1e-15
        # the cut row and both pair verdicts name the blocking cut one way,
        # the side holding the first party (A) first
        assert rows["distill-A-vs-B"]["computed"] == "A vs B: not distillable (blocking: A,C | B)"
        assert rows["distill-B-vs-C"]["computed"] == "B vs C: not distillable (blocking: A,C | B)"
        assert rows["distill-A-vs-C"]["distillable"] is True

    def test_tolerance_flag_moves_both_routes(self, tmp_path, capsys):
        code, rows = self._rows(tmp_path, capsys, "--tolerance", "1e-11")
        assert code == 0
        assert (rows["cut-01"]["eigensolver"], rows["cut-01"]["criterion"]) == ("NPT", "NPT")
        assert all(rows[f"distill-{p}"]["distillable"] for p in ("A-vs-B", "A-vs-C", "B-vs-C"))


class TestClassifyBytes:
    """classify's exact bytes on a state whose every printed number is exact in binary."""

    DATA = Path(__file__).resolve().parent / "data"

    @staticmethod
    def exact_state() -> MultipartiteState:
        # GHZ pair k: mean (4, 1, 2, 1)/16 on its kets 2k and 7-2k, cross (2, 0, 0, 0)/16
        # between them.  Cut 10 is PPT at exactly 0, cuts 01 and 11 NPT at -1/16.
        m = np.zeros((8, 8), dtype=complex)
        for k, (mean, cross) in enumerate(zip((4, 1, 2, 1), (2, 0, 0, 0))):
            a, b = 2 * k, 7 - 2 * k
            m[a, a] = m[b, b] = mean / 16
            m[a, b] = m[b, a] = cross / 16
        return MultipartiteState(qubits("ABC"), m)

    @pytest.mark.parametrize(
        "fmt, expected", [("human", "classify_exact.txt"), ("json", "classify_exact.json")]
    )
    def test_output_bytes(self, tmp_path, capsys, fmt, expected):
        path = tmp_path / "exact.json"
        path.write_text(dumps(state_to_dict(self.exact_state())))
        code, out, err = run(capsys, "--format", fmt, "classify", str(path))
        assert (code, err) == (0, "")
        assert out == (self.DATA / expected).read_text()


class TestClassifyPairs:
    """--pair is checked on every state, GHZ-diagonal or not, and listed once."""

    def _state_file(self, tmp_path, kind):
        if kind == "ghz-diagonal":
            state = near_boundary_state()
        else:
            system = PartySystem(("A", "B", "C"), (2, 2, 2))
            state = random_state(np.random.default_rng(33), system)
        path = tmp_path / f"{kind}.json"
        path.write_text(dumps(state_to_dict(state)))
        return path

    @pytest.mark.parametrize("kind", ["ghz-diagonal", "not-ghz-diagonal"])
    @pytest.mark.parametrize("spec", ["X:B", "A:A", "A-B"])
    def test_bad_pair_is_usage_error(self, tmp_path, capsys, kind, spec):
        path = self._state_file(tmp_path, kind)
        code, out, err = run(capsys, "classify", str(path), "--pair", "A:B", "--pair", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["ghz-diagonal", "not-ghz-diagonal"])
    @pytest.mark.parametrize("spec", ["A,A:B", "A:B,B", "A, A:C", "A,B,A:C"])
    def test_label_twice_in_a_group_is_usage_error(self, tmp_path, capsys, kind, spec):
        # A,A:B is the pair A:B again under another row id
        groups = {
            "A,A:B": "('A', 'A'), ('B',)",
            "A:B,B": "('A',), ('B', 'B')",
            "A, A:C": "('A', 'A'), ('C',)",
            "A,B,A:C": "('A', 'B', 'A'), ('C',)",
        }[spec]
        path = self._state_file(tmp_path, kind)
        code, out, err = run(capsys, "classify", str(path), "--pair", "A:B", "--pair", spec)
        assert code == 2
        assert out == ""
        assert err == f"error: a group lists a party twice: {groups}\n"

    @pytest.mark.parametrize("kind", ["ghz-diagonal", "not-ghz-diagonal"])
    @pytest.mark.parametrize("spec", ["A:", ":", "A,,B:C"])
    def test_empty_group_or_label_is_usage_error(self, tmp_path, capsys, kind, spec):
        path = self._state_file(tmp_path, kind)
        code, out, err = run(capsys, "classify", str(path), "--pair", spec)
        assert code == 2
        assert out == ""
        assert err == f"error: --pair has an empty group or label (got {spec!r})\n"

    def test_repeated_pair_reported_once(self, tmp_path, capsys):
        path = self._state_file(tmp_path, "ghz-diagonal")
        pairs = ["--pair", "A:C", "--pair", "A:B", "--pair", "A:C"]
        code, out, _ = run(capsys, "--format", "json", "classify", str(path), *pairs)
        assert code == 0
        ids = [e["id"] for e in json.loads(out)["entries"] if e["id"].startswith("distill-")]
        assert ids == ["distill-A-vs-C", "distill-A-vs-B"]


class TestBadMatrixFiles:
    @pytest.mark.parametrize("name", sorted(REJECTED_MATRICES))
    def test_usage_error_without_traceback(self, tmp_path, capsys, name):
        bad = REJECTED_MATRICES[name]
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"labels": ["A"], "dims": [2], "matrix": bad}))
        doc = channel_to_dict(binding_channel(1))
        doc["kraus"] = doc["kraus"].tolist()
        doc["kraus"][0] = bad
        channel = tmp_path / "channel.json"
        channel.write_text(json.dumps(doc))
        for argv in (["classify", str(state)], ["verify", str(channel)]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "Traceback" not in err


class TestBadLabelFiles:
    @pytest.mark.parametrize("label", ["", "A,B", "A:B", " A", "A\t"])
    def test_usage_error_without_traceback(self, tmp_path, capsys, label):
        state = tmp_path / "state.json"
        doc = state_to_dict(ghz_basis_state(PartySystem(("A", "B"), (2, 2)), 1, 1).density())
        state.write_text(dumps(doc | {"labels": [label, "B"]}))
        code, out, err = run(capsys, "classify", str(state))
        assert (code, out) == (2, "")
        assert err.startswith("error: state: party label") and "Traceback" not in err


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "content", [b"\xff\xfe\x00\x00{}", b"[" * 200000], ids=["not-utf8", "nested-too-deeply"]
    )
    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_usage_error_without_traceback(self, tmp_path, capsys, content, command):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


_E1 = channel_to_dict(binding_channel(1))
_HALF = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
# One exception class carries every refusal, so its one stderr line is what
# tells them apart: each file here, with the command that reads it and the
# line it must print.
REFUSED_FILES = {
    "channel-not-object": ("verify", [1, 2], "channel: expected a JSON object"),
    "input-not-object": (
        "verify", _E1 | {"input": 5}, "channel.input: expected an object with labels and dims"
    ),
    "name-not-string": ("verify", _E1 | {"name": 7}, "channel: name must be a string"),
    "no-parties": (
        "classify", {"labels": [], "dims": [], "matrix": [[[1, 0]]]}, "state: a system needs at least one party"
    ),
    "matrix-not-dims": (
        "classify",
        {"labels": ["A", "B"], "dims": [2, 2], "matrix": _HALF},
        "state: matrix shape (2, 2) != system dimension 4",
    ),
}


class TestRefusedFiles:
    @pytest.mark.parametrize("name", sorted(REFUSED_FILES))
    def test_exact_error_line(self, tmp_path, capsys, name):
        command, doc, message = REFUSED_FILES[name]
        path = tmp_path / "refused.json"
        path.write_text(dumps(doc))
        assert run(capsys, command, str(path)) == (2, "", f"error: {message}\n")


_STATE_NOT_CHANNEL = "channel: the file holds a state (matrix), not a channel"


class TestWrongKindFiles:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("classify e1.json", "state: the file holds a channel (kraus), not a state"),
            ("verify e1_choi.json", _STATE_NOT_CHANNEL),
            ("choi e1_choi.json", _STATE_NOT_CHANNEL),
            ("mix e1_choi.json e1_choi.json", _STATE_NOT_CHANNEL),
        ],
        ids=["classify", "verify", "choi", "mix"],
    )
    def test_exact_error_line(self, fixture_dir, capsys, argv, message):
        command, *names = argv.split()
        paths = [str(fixture_dir / n) for n in names]
        assert run(capsys, command, *paths) == (2, "", f"error: {message}\n")


class TestHelp:
    @pytest.mark.parametrize("command", [[], ["verify"], ["choi"], ["classify"], ["mix"], ["reproduce"]])
    def test_usage_on_stdout(self, capsys, command):
        code, out, err = run(capsys, *command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: choilab")


class TestMix:
    def test_uniform_mixture_matches_closed_form(self, fixture_dir, tmp_path, capsys):
        mixed_path = tmp_path / "mixed.json"
        code, _, _ = run(
            capsys,
            "mix",
            *(str(fixture_dir / f"e{a}.json") for a in (1, 2, 3)),
            "--out",
            str(mixed_path),
        )
        assert code == 0
        choi_path = tmp_path / "mixed_choi.json"
        code, _, _ = run(
            capsys,
            "choi",
            str(mixed_path),
            "--order",
            "A1,B,A2,C",
            "--out",
            str(choi_path),
        )
        assert code == 0
        state = state_from_dict(loads(choi_path.read_text()))
        assert np.linalg.norm(state.matrix - choi_closed_form("mix").matrix) <= 1e-12

    def test_single_channel_identity_action(self, fixture_dir, tmp_path, capsys):
        out_path = tmp_path / "copy.json"
        code, _, _ = run(
            capsys,
            "mix",
            str(fixture_dir / "e1.json"),
            "--weights",
            "1.0",
            "--out",
            str(out_path),
        )
        assert code == 0
        from choilab.channels import apply_matrix
        from choilab.codec import channel_from_dict

        original = channel_from_dict(loads((fixture_dir / "e1.json").read_text()))
        copy = channel_from_dict(loads(out_path.read_text()))
        rho = np.eye(4, dtype=complex) / 4
        assert np.linalg.norm(apply_matrix(original, rho) - apply_matrix(copy, rho)) < 1e-14

    def test_mixture_choi_matrix_built_once(self, fixture_dir, capsys, monkeypatch):
        # one build per part, one for the mixture (its linearity and CPTP checks share it)
        built = []
        original = channels.choi_matrix

        def counting(ch):
            built.append(ch.name)
            return original(ch)

        for module in (channels, cli):  # the CLI sums the parts' matrices itself
            monkeypatch.setattr(module, "choi_matrix", counting)
        code, _, _ = run(capsys, "mix", *(str(fixture_dir / f"e{a}.json") for a in (1, 2, 3)))
        assert code == 0
        assert len(built) == 4

    def test_part_not_trace_preserving_is_reported(self, fixture_dir, tmp_path, capsys):
        # mix-cptp reports the defect; the part's Choi matrix is not a state,
        # but mixing it is not an input error
        files = [str(without_last_kraus(fixture_dir, tmp_path))]
        files += [str(fixture_dir / f"e{a}.json") for a in (2, 3)]
        code, out, err = run(capsys, "--format", "json", "mix", *files)
        assert (code, err) == (1, "")
        assert statuses(out) == {"mix-choi-linearity": "pass", "mix-cptp": "fail"}
        cptp = {e["id"]: e for e in json.loads(out)["entries"]}["mix-cptp"]["computed"]
        assert not cptp.startswith("defect = 0")

    def test_validates_no_part_state(self, fixture_dir, capsys, monkeypatch):
        validated = []
        post_init = MultipartiteState.__post_init__

        def validating(self, *args):
            validated.append(self.system.labels)
            return post_init(self, *args)

        monkeypatch.setattr(MultipartiteState, "__post_init__", validating)
        code, _, _ = run(capsys, "mix", *(str(fixture_dir / f"e{a}.json") for a in (1, 2, 3)))
        assert code == 0
        assert validated == []

    def test_cptp_entry_shows_both_rules(self, fixture_dir, capsys):
        files = [str(fixture_dir / f"e{a}.json") for a in (1, 2, 3)]
        for tolerance, status in (("1e-9", "pass"), ("-1", "fail")):
            code, out, _ = run(capsys, "--format", "json", "--tolerance", tolerance, "mix", *files)
            entry = {e["id"]: e for e in json.loads(out)["entries"]}["mix-cptp"]
            assert entry["status"] == status
            assert entry["computed"].startswith("defect = ")
            assert ", choi min eigenvalue = " in entry["computed"]

    def test_default_weights_are_the_uniform_weights(self, fixture_dir, tmp_path, capsys):
        files = [str(fixture_dir / f"e{a}.json") for a in (1, 2, 3)]
        results = []
        for name, weights in (("default", []), ("explicit", ["--weights", *[repr(1 / 3)] * 3])):
            out_path = tmp_path / f"{name}.json"
            code, out, _ = run(
                capsys, "--format", "json", "mix", *files, *weights, "--out", str(out_path)
            )
            results.append((code, out, out_path.read_bytes()))
        assert results[0][0] == 0
        assert results[0] == results[1]

    def test_bad_weights(self, fixture_dir, capsys):
        code, _, err = run(
            capsys,
            "mix",
            str(fixture_dir / "e1.json"),
            str(fixture_dir / "e2.json"),
            "--weights",
            "0.5",
            "0.6",
        )
        assert code == 2
        assert "error:" in err

    def test_nan_weight_is_bad_weights(self, fixture_dir, capsys):
        code, out, err = run(
            capsys,
            "mix",
            str(fixture_dir / "e1.json"),
            str(fixture_dir / "e2.json"),
            "--weights",
            "nan",
            "1.0",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: non-finite weight")


class TestReproduce:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        assert code == 0
        assert "overall: pass" in out
        assert "non-additivity witnessed" in out

    def test_claim_filter(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "reproduce", "--claims", "pt-E1-B")
        assert code == 0
        doc = json.loads(out)
        assert [e["id"] for e in doc["entries"]] == ["pt-E1-B"]

    def test_unknown_claim(self, capsys):
        code, _, err = run(capsys, "reproduce", "--claims", "no-such-claim")
        assert code == 2

    def test_json_output_byte_identical(self, capsys):
        _, first, _ = run(capsys, "--format", "json", "reproduce")
        _, second, _ = run(capsys, "--format", "json", "reproduce")
        assert first == second

    def test_json_report_is_pinned(self, capsys):
        # tests/data/reproduce.json is `choilab --format json reproduce` as
        # committed.  Every field of every row must match it, except the
        # computed text of the non-control Choi distances and the teleport
        # fidelities, whose last digits come from BLAS sums: those are
        # pinned by their form.
        expected = json.loads((TestClassifyBytes.DATA / "reproduce.json").read_text())
        code, out, err = run(capsys, "--format", "json", "reproduce")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert sorted(doc) == ["command", "entries", "overall", "tolerance", "version"]
        for key in ("version", "command", "tolerance", "overall"):
            assert doc[key] == expected[key], key
        assert [e["id"] for e in doc["entries"]] == [e["id"] for e in expected["entries"]]
        free = 0
        for got, want in zip(doc["entries"], expected["entries"]):
            if want["id"].startswith("choi-") and not want["control"]:
                form = r"distance = \d\.\d{3}e-\d\d"
            elif want["id"].startswith("teleport-"):
                form = r"fidelity = \d\.\d{15}"
            else:
                form = None
            if form is not None:
                free += 1
                assert re.fullmatch(form, got["computed"]), got
                got, want = dict(got, computed=None), dict(want, computed=None)
            assert got == want
        assert free == 9

    @pytest.mark.parametrize("place", ["global", "subcommand"])
    def test_other_tolerance_rejected(self, capsys, place):
        flag = ["--tolerance", "0.5"]
        argv = [*flag, "reproduce"] if place == "global" else ["reproduce", *flag]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--tolerance 0.5" in err

    def test_default_tolerance_output_unchanged(self, capsys):
        code, implicit, _ = run(capsys, "--format", "json", "reproduce")
        assert code == 0
        assert json.loads(implicit)["tolerance"] == 1e-9
        code, explicit, _ = run(capsys, "--format", "json", "--tolerance", "1e-9", "reproduce")
        assert code == 0
        assert explicit == implicit


class TestOutputContract:
    """--out holds the JSON report, or the state (choi) or channel (mix) it made."""

    def _report_cases(self, fixture_dir, tmp_path):
        doc = loads((fixture_dir / "e1.json").read_text())
        del doc["kraus"][0]
        broken = tmp_path / "broken.json"
        broken.write_text(dumps(doc))
        return {
            "verify": (["verify", str(fixture_dir / "e1.json")], 0),
            "verify-fails": (["verify", str(broken)], 1),
            "classify": (["classify", str(fixture_dir / "emix_choi.json"), "--pair", "A1,A2:B"], 0),
            "reproduce": (["reproduce", "--claims", "pt-E1-B,nonadditivity-headline"], 0),
        }

    @pytest.mark.parametrize("case", ["verify", "verify-fails", "classify", "reproduce"])
    def test_out_is_the_json_report(self, fixture_dir, tmp_path, capsys, case):
        argv, want = self._report_cases(fixture_dir, tmp_path)[case]
        code, report, _ = run(capsys, "--format", "json", *argv)
        assert code == want
        assert json.loads(report)["overall"] == ("pass" if want == 0 else "fail")
        for fmt in ("json", "human"):
            out_path = tmp_path / f"{case}-{fmt}.json"
            code, out, _ = run(capsys, "--format", fmt, *argv, "--out", str(out_path))
            assert code == want
            assert out_path.read_text() == report
            if fmt == "json":
                assert out == report
            else:
                assert f"overall: {'pass' if want == 0 else 'fail'}" in out.splitlines()

    @pytest.mark.parametrize("fmt", ["json", "human"])
    def test_out_is_the_artifact(self, fixture_dir, tmp_path, capsys, fmt):
        mixed_path = tmp_path / "mixed.json"
        files = [str(fixture_dir / f"e{a}.json") for a in (1, 2, 3)]
        code, out, _ = run(capsys, "--format", fmt, "mix", *files, "--out", str(mixed_path))
        assert code == 0
        assert len(channel_from_dict(loads(mixed_path.read_text())).kraus)
        self._assert_report(out, fmt, "mix")
        choi_path = tmp_path / "choi.json"
        code, out, _ = run(capsys, "--format", fmt, "choi", str(mixed_path), "--out", str(choi_path))
        assert code == 0
        assert state_from_dict(loads(choi_path.read_text())).system.labels == ("A_ref", "B", "C")
        self._assert_report(out, fmt, "choi")

    def test_human_report_with_artifact_is_not_encoded(
        self, fixture_dir, tmp_path, capsys, monkeypatch
    ):
        encoded = []

        def counting(obj):
            encoded.append(obj)
            return dumps(obj)

        monkeypatch.setattr(cli, "dumps", counting)
        choi_path = tmp_path / "choi.json"
        code, out, _ = run(
            capsys, "--format", "human", "choi", str(fixture_dir / "e1.json"), "--out", str(choi_path)
        )
        assert code == 0
        # only the Choi state is encoded: the report is printed for people
        assert len(encoded) == 1
        assert choi_path.read_text() == dumps(encoded[0])
        self._assert_report(out, "human", "choi")

    @pytest.mark.parametrize("channel_set", ["binding", "seed-1", "seed-2", "seed-3"])
    def test_written_files_have_json_layout(self, fixture_dir, tmp_path, capsys, monkeypatch, channel_set):
        # the README channels, or a seeded set of random CPTP maps from the benchmark's generator
        if channel_set == "binding":
            files = [str(fixture_dir / f"e{a}.json") for a in (1, 2, 3)]
        else:
            files = []
            rng = np.random.default_rng(int(channel_set[-1]))
            for spec in bench_gen(monkeypatch).random_channel_set(rng, channel_set):
                systems = qubits(spec.in_labels), qubits(spec.out_labels)
                ch = channels.KrausChannel(spec.name, *systems, spec.kraus)
                files.append(str(tmp_path / f"{spec.name}.json"))
                Path(files[-1]).write_text(dumps(channel_to_dict(ch)))
        mixed_path = tmp_path / "mixed.json"
        assert run(capsys, "mix", *files, "--out", str(mixed_path))[0] == 0
        mixed = loads(mixed_path.read_text())
        refs = [f"R{i}" for i in range(len(mixed["input"]["labels"]))]
        written = [mixed_path]
        for order in ([], ["--order", ",".join([*mixed["output"]["labels"][::-1], *refs])]):
            written.append(tmp_path / f"choi{len(order)}.json")
            assert run(capsys, "choi", str(mixed_path), *order, "--out", str(written[-1]))[0] == 0
        for path in written:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        if channel_set == "binding":  # large and sparse enough for the array reader
            assert codec._read_pairs(mixed_path.read_text()) is not None

    @pytest.mark.parametrize("old", ["longer", "shorter", "missing"])
    def test_out_rewritten_in_place(self, fixture_dir, tmp_path, capsys, monkeypatch, old):
        # the file is opened without truncation and ends up holding exactly the new bytes
        argv = ["--format", "json", "classify", str(fixture_dir / "ghz3.json")]
        _, report, _ = run(capsys, *argv)
        path = tmp_path / "report.json"
        if old != "missing":
            path.write_text("x" * (3 * len(report)) if old == "longer" else "{}")
        flags = []
        real_open = os.open

        def recording(file, flag, *rest, **kw):
            flags.append(flag)
            return real_open(file, flag, *rest, **kw)

        monkeypatch.setattr(os, "open", recording)
        assert run(capsys, *argv, "--out", str(path))[0] == 0
        assert path.read_bytes() == report.encode()
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC

    def test_out_to_a_device(self, fixture_dir, capsys):
        # a device has no old bytes to cut: the text is written as it is
        code, out, _ = run(capsys, "classify", str(fixture_dir / "ghz3.json"), "--out", os.devnull)
        assert code == 0
        assert out.splitlines()[-1] == "overall: pass"

    @pytest.mark.parametrize("failing", [1, 2])
    def test_interrupted_out_write_is_not_json(self, fixture_dir, tmp_path, capsys, monkeypatch, failing):
        # the write of the body (1) or of the real first byte (2) raises after half of its bytes
        path = tmp_path / "report.json"
        assert run(capsys, "verify", str(fixture_dir / "e1.json"), "--out", str(path))[0] == 0
        json.loads(path.read_text())  # an old, valid report
        real_open = open

        class Failing:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, data):
                self.writes += 1
                if self.writes - 1 == failing:
                    self.fh.write(bytes(data[: len(data) // 2]))
                    self.fh.flush()
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(cli, "open", lambda *a, **kw: Failing(real_open(*a, **kw)), raising=False)
        argv = ["classify", str(fixture_dir / "emix_choi.json"), "--out", str(path)]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:")
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text())

    @pytest.mark.parametrize(
        "tolerance, line",
        [
            (None, "-1e-09"),
            ("0.01", "-0.01"),
            ("0", "-0"),
            ("-0.5", "0.5"),
            ("-1e-12", "1e-12"),
        ],
    )
    def test_human_header_prints_the_threshold(self, fixture_dir, capsys, tolerance, line):
        # the threshold is -tolerance, printed as one number whatever its sign
        flags = [] if tolerance is None else [f"--tolerance={tolerance}"]
        _, out, _ = run(capsys, *flags, "verify", str(fixture_dir / "e1.json"))
        assert out.splitlines()[1] == f"positivity threshold: {line}"
        _, report, _ = run(capsys, "--format", "json", *flags, "verify", str(fixture_dir / "e1.json"))
        assert json.loads(report)["tolerance"] == (1e-9 if tolerance is None else float(tolerance))

    @staticmethod
    def _assert_report(out, fmt, command):
        if fmt == "json":
            doc = json.loads(out)
            assert (doc["command"], doc["overall"]) == (command, "pass")
        else:
            lines = out.splitlines()
            assert lines[0].endswith(f":: {command}")
            assert lines[-1] == "overall: pass"


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "json", "reproduce"],
        ["--format", "human", "reproduce"],
        ["--format", "json", "classify", "e1_choi.json", "--pair", "A1,A2:B", "--pair", "A1,A2:C"],
    ],
    ids=["reproduce-json", "reproduce-human", "classify-pairs"],
)
def test_output_bytes_do_not_depend_on_the_hash_seed(fixture_dir, argv):
    # groups pass through frozensets in disjoint_groups, and set order
    # follows the string hash, which each interpreter seeds afresh
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    outs = []
    for seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
        )
        out = subprocess.run(
            [sys.executable, "-m", "choilab", *argv], env=env, capture_output=True, check=True
        )
        outs.append(out.stdout)
    assert outs[0] == outs[1]
    assert outs[0]


class TestHugeEntries:
    """A 1e300 entry overflows the checks' sums: the verdicts stand, with no numpy warning."""

    def _choilab(self, *argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-m", "choilab", *map(str, argv)], env=env, capture_output=True, text=True
        )
        return out.returncode, out.stdout, out.stderr

    def test_state(self, tmp_path):
        path = tmp_path / "state.json"
        matrix = [[[0.5, 0], [1e300, 0]], [[0, 0], [0.5, 0]]]
        path.write_text(json.dumps({"labels": ["A"], "dims": [2], "matrix": matrix}))
        code, out, err = self._choilab("classify", path)
        assert (code, out, err) == (2, "", "error: state: hermiticity defect inf\n")

    @pytest.mark.parametrize("choi_shape", ["x-shaped", "dense"])
    def test_channel(self, fixture_dir, tmp_path, choi_shape):
        if choi_shape == "x-shaped":
            doc = json.loads((fixture_dir / "e1.json").read_text())
        else:  # a random isometry: the Choi spectrum takes the dense solver
            rng = np.random.default_rng(3)
            v, _ = np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
            ch = channels.KrausChannel("r", qubits("I"), qubits(["O0", "O1"]), v.reshape(2, 4, 2))
            doc = json.loads(dumps(channel_to_dict(ch)))
        doc["kraus"][0][1][0] = [1e300, 0.0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = self._choilab("--format", "json", "verify", path)
        assert (code, err) == (1, "")
        rows = {e["id"]: (e["computed"], e["status"]) for e in json.loads(out)["entries"]}
        assert rows == {
            "cptp-completeness": ("defect = nan", "fail"),
            "cptp-choi-positive": ("choi min eigenvalue = nan", "fail"),
        }
        code, out, err = self._choilab("choi", path, "--out", tmp_path / "choi.json")
        assert (code, out, err) == (2, "", "error: matrix contains non-finite entries\n")
        code, out, err = self._choilab("--format", "json", "mix", path, path)
        assert (code, err) == (1, "")
        rows = {e["id"]: (e["computed"], e["status"]) for e in json.loads(out)["entries"]}
        assert rows == {
            "mix-choi-linearity": ("|choi(mix) - sum w*choi| = nan", "fail"),
            "mix-cptp": ("defect = nan, choi min eigenvalue = nan", "fail"),
        }


class TestNonFiniteTolerance:
    """A NaN or infinite --tolerance is bad input, never a positivity threshold."""

    INPUTS = {
        "verify": ["e1.json"],
        "choi": ["e1.json"],
        "mix": ["e1.json", "e2.json", "e3.json"],
        "classify": ["ghz3.json"],
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", list(INPUTS))
    def test_usage_error(self, fixture_dir, tmp_path, capsys, command, value):
        out_path = tmp_path / "out.json"
        files = [str(fixture_dir / name) for name in self.INPUTS[command]]
        code, out, err = run(capsys, f"--tolerance={value}", "--out", str(out_path), command, *files)
        assert (code, out) == (2, "")
        assert "usage:" in err and "--tolerance: expected a finite number" in err
        assert "Traceback" not in err
        assert not out_path.exists()


class TestUsage:
    def test_parser_built_once_and_reused(self, fixture_dir, tmp_path, capsys):
        # The same calls with a fresh parser each and with one shared parser
        # give the same bytes and exit codes: no parse leaves state behind.
        calls = [
            ["--format", "json", "classify", str(fixture_dir / "emix_choi.json"),
             "--pair", "A1,A2:B", "--pair", "A1,A2:C"],
            ["verify", str(fixture_dir / "e1.json")],
            ["classify", "--tolerance", "1e-11", str(fixture_dir / "ghz3.json")],
            ["classify", str(fixture_dir / "ghz3.json"), "--pair", "nonsense"],
            ["frobnicate"],
            ["--tolerance", "-1", "verify", str(fixture_dir / "e1.json")],
            ["--format", "json", "classify", str(fixture_dir / "emix_choi.json")],
            ["choi", str(fixture_dir / "e2.json"), "--order", "A1,B,A2,C"],
            ["classify", str(fixture_dir / "ghz3.json")],
        ]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli.build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [r[0] for r in shared] == [0, 0, 0, 2, 2, 1, 0, 0, 0]

    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

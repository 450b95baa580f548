"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the suite exercises the public API end to
end (channel builders, Choi identities, partial-transpose facts by two
independent methods, capacity proxies, localization, teleportation,
roundtrips, codecs, CLI exit codes).
"""

import json
import math

import numpy as np

from choilab.channels import (
    apply_matrix,
    choi,
    completeness_defect,
    kraus_from_choi,
)
from choilab.cli import main
from choilab.codec import (
    channel_from_dict,
    channel_to_dict,
    dumps,
    loads,
    state_from_dict,
    state_to_dict,
)
from choilab.entanglement import (
    ghz_diagonal_coefficients,
    localize_entanglement,
    npt_criterion,
    ppt_check,
    two_qubit_separability,
)
from choilab.nonadditivity import (
    CANONICAL_ORDER,
    CHOI_SYSTEM,
    binding_channel,
    build_scenario,
    capacity_proxy_report,
    choi_closed_form,
    choi_state,
    ghz3_state,
    ghz_oneway_example,
    mixed_binding_channel,
    reproduce_choi_claims,
    reproduce_pt_table,
    swap_image,
    teleport_fidelity,
    teleport_report,
)
from choilab.states import (
    MultipartiteState,
    PartySystem,
    PureState,
    cut_number,
    max_entangled,
    partial_trace,
    schmidt_decomposition,
)

from conftest import random_ghz_diagonal_state, report_entry, report_passed


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def _channels():
    chans = {f"E{a}": binding_channel(a) for a in (1, 2, 3)}
    chans["mix"] = mixed_binding_channel(list(chans.values()))
    return chans


def test_criterion_01_cptp_completeness():
    defects = {name: completeness_defect(ch) for name, ch in _channels().items()}
    ok = all(d <= 1e-12 for d in defects.values())
    worst = max(defects.values())
    _report(1, "Kraus completeness <= 1e-12 for E1,E2,E3,mix", ok, f"worst defect {worst:.2e}")


def test_criterion_02_choi_identities():
    chans = _channels()
    distances = {}
    for key in ("E1", "E2", "E3", "mix"):
        want = choi_closed_form(key if key == "mix" else int(key[1]))
        distances[key] = float(
            np.linalg.norm(choi_state(chans[key]).matrix - want.matrix)
        )
    distances["E3-swap"] = float(
        np.linalg.norm(
            choi_state(chans["E3"]).matrix - swap_image(choi_closed_form(2)).matrix
        )
    )
    ok = all(d <= 1e-12 for d in distances.values())
    _report(2, "Choi states match closed forms <= 1e-12", ok,
            f"worst distance {max(distances.values()):.2e}")


def test_criterion_03_pt_sign_table():
    states = {k: choi_state(ch) for k, ch in _channels().items()}
    ppt_facts = [("E1", ["B"]), ("E1", ["C"]), ("E2", ["A1", "A2"]), ("E2", ["C"])]
    npt_facts = [("mix", ["A1", "A2"]), ("mix", ["B"]), ("mix", ["C"])]
    ok = True
    details = []
    for key, side in ppt_facts:
        low = ppt_check(states[key], cut_number(CHOI_SYSTEM, side)).min_eigenvalue
        ok = ok and low >= -1e-9
        details.append(f"{key}^T{''.join(side)}={low:.1e}")
    coeffs = ghz_diagonal_coefficients(states["mix"])
    for key, side in npt_facts:
        k = cut_number(CHOI_SYSTEM, side)
        low = ppt_check(states[key], k).min_eigenvalue
        ok = ok and low <= -1 / 48 + 1e-9
        # independent confirmation of the -1/48 value from the coefficients
        formula = coeffs.lambdas[k - 1] - coeffs.delta / 2
        ok = ok and abs(low - formula) <= 1e-9 and abs(formula + 1 / 48) <= 1e-12
        details.append(f"mix^T{''.join(side)}={low:.4e}")
    _report(3, "PT sign table with min eigenvalue -1/48 on NPT cuts", ok, "; ".join(details[-3:]))


def test_criterion_04_classifier_oracle_equivalence():
    rng = np.random.default_rng(404)
    states = [choi_state(ch) for ch in _channels().values()]
    states += [random_ghz_diagonal_state(rng, CHOI_SYSTEM) for _ in range(20)]
    comparisons = 0
    disagreements = 0
    for rho in states:
        coeffs = ghz_diagonal_coefficients(rho)
        for k in range(1, 8):  # every cut of the four parties
            eig_npt = not ppt_check(rho, k).is_ppt
            crit_npt = npt_criterion(coeffs, k)
            comparisons += 1
            if eig_npt != crit_npt:
                disagreements += 1
    ok = comparisons >= 140 and disagreements == 0
    _report(4, "criterion vs eigensolver on all bipartitions", ok,
            f"{comparisons} comparisons, {disagreements} disagreements")


def test_criterion_05_nonadditivity_headline():
    rep = capacity_proxy_report(build_scenario())
    proxies = {
        e.claim_id: e for e in rep if e.claim_id.startswith("proxy-E") or
        e.claim_id.startswith("proxy-mix")
    }
    zeros = [e for k, e in proxies.items() if k.startswith("proxy-E")]
    positives = [e for k, e in proxies.items() if k.startswith("proxy-mix")]
    ok = (
        len(zeros) == 9
        and all(e.passed and e.computed.startswith("zero") for e in zeros)
        and len(positives) == 3
        and all(e.passed and e.computed == "positive" for e in positives)
        and report_entry(rep, "nonadditivity-headline").passed
    )
    _report(5, "zero proxies for each channel, positive for the mixture", ok,
            report_entry(rep, "nonadditivity-headline").computed)


def test_criterion_06_ghz_oneway_example():
    ghz = ghz3_state()
    rho = ghz.density()
    sep1 = two_qubit_separability(partial_trace(rho, ["B2"]))
    sep2 = two_qubit_separability(partial_trace(rho, ["B1"]))
    ppt1 = ppt_check(partial_trace(rho, ["B2"]),
                     cut_number(PartySystem(("A", "B1"), (2, 2)), ["A"])).is_ppt
    full_npt = not ppt_check(rho, cut_number(rho.system, ["A"])).is_ppt
    result = localize_entanglement(ghz, ["A"], ["B1", "B2"])
    sd = schmidt_decomposition(result.final_state, [result.sender_kept])
    balanced = np.allclose(sd.coefficients[:2], 1 / math.sqrt(2), atol=1e-9)
    ok = sep1 and sep2 and ppt1 and full_npt and balanced and report_passed(ghz_oneway_example())
    _report(6, "separable marginals, NPT triple, localizable pair", ok,
            f"final pair (A,{result.receiver_kept})")


def test_criterion_07_localization_suite():
    rng = np.random.default_rng(2024)
    sys = PartySystem(("A1", "A2", "A3", "B1", "B2", "B3"), (2,) * 6)
    senders = ["A1", "A2", "A3"]
    receivers = ["B1", "B2", "B3"]
    failures = 0
    for _ in range(100):
        g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        chi, _ = np.linalg.qr(g)
        g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        psi, _ = np.linalg.qr(g)
        theta = 0.1 + 0.8 * rng.random() * math.pi / 4
        v = math.cos(theta) * np.kron(chi[:, 0], psi[:, 0]) + math.sin(theta) * np.kron(
            chi[:, 1], psi[:, 1]
        )
        state = PureState(sys, v / np.linalg.norm(v))
        result = localize_entanglement(state, senders, receivers)
        sd = schmidt_decomposition(result.final_state, [result.sender_kept])
        balanced = np.allclose(sd.coefficients[:2], 1 / math.sqrt(2), atol=1e-9)
        pure = all(abs(np.linalg.norm(p.vector) - 1) <= 1e-12 for p in result.projections)
        if not (balanced and pure):
            failures += 1
    _report(7, "100 random rank-2 states localize to balanced pairs", failures == 0,
            f"{failures} failures")


def test_criterion_08_teleportation():
    plus = max_entangled(2, ("A", "B"))
    mixed = MultipartiteState(plus.system, np.eye(4) / 4)
    inp = PureState(
        PartySystem(("M",), (2,)),
        np.array([math.sqrt(0.35), math.sqrt(0.65) * np.exp(0.4j)], dtype=complex),
    )
    f1 = teleport_fidelity(plus.density(), inp)
    f2 = teleport_fidelity(mixed, inp)
    ok = abs(f1 - 1.0) <= 1e-12 and abs(f2 - 0.5) <= 1e-12
    _report(8, "teleportation fidelity 1 (ideal) and 1/2 (mixed resource)", ok,
            f"f_ideal={f1:.15f}, f_mixed={f2:.15f}")


def test_criterion_09_roundtrips():
    ok = True
    details = []
    for name, ch in _channels().items():
        state = choi(ch, CANONICAL_ORDER)
        rebuilt = kraus_from_choi(state, ["A1", "A2"], ["B", "C"])
        worst = 0.0
        for i in range(4):
            for j in range(4):
                e = np.zeros((4, 4), dtype=complex)
                e[i, j] = 1.0
                worst = max(
                    worst,
                    float(np.linalg.norm(apply_matrix(ch, e) - apply_matrix(rebuilt, e))),
                )
        ok = ok and worst <= 1e-9
        details.append(f"{name}:{worst:.1e}")
    # codec roundtrips are bit-exact
    ch = binding_channel(2)
    text = dumps(channel_to_dict(ch))
    back = channel_from_dict(loads(text))
    ok = ok and dumps(channel_to_dict(back)) == text
    state = choi_state(ch)
    stext = dumps(state_to_dict(state))
    ok = ok and dumps(state_to_dict(state_from_dict(loads(stext)))) == stext
    _report(9, "choi->kraus->action roundtrip and codec bit-exactness", ok, "; ".join(details))


def test_criterion_10_negative_controls_and_exit_codes(tmp_path, capsys):
    scenario = build_scenario()
    reports = [
        reproduce_choi_claims(scenario),
        reproduce_pt_table(scenario),
        capacity_proxy_report(scenario),
        ghz_oneway_example(),
        teleport_report(),
    ]
    ok = all(
        any(e.control and e.passed for e in rep) and report_passed(rep)
        for rep in reports
    )
    # CLI exit-code contract: 0 pass, 1 claim failure, 2 input error
    e1 = channel_to_dict(binding_channel(1))
    good = tmp_path / "good.json"
    good.write_text(dumps(e1))
    broken_doc = json.loads(dumps(e1))
    del broken_doc["kraus"][0]
    broken = tmp_path / "broken.json"
    broken.write_text(dumps(broken_doc))
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"name": ')
    codes = (
        main(["verify", str(good)]),
        main(["verify", str(broken)]),
        main(["verify", str(truncated)]),
    )
    capsys.readouterr()
    ok = ok and codes == (0, 1, 2)
    _report(10, "negative controls present and exit codes honored", ok,
            f"exit codes {codes}")

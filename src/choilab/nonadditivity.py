"""The capacity non-additivity witness scenario.

Three channels from one four-level sender A to two qubit receivers B and C
are constants, read-only Kraus stacks of Pauli products built once (E3's is
E2's under the swap of the two input and the two output qubits).  Each
channel alone can create no distillable entanglement between the sender
group and either receiver (all its capacity proxies are zero), yet the
uniform mixture of the three has every capacity proxy positive.  The report
operations check the closed-form Choi states, the partial-transpose sign
table (by eigensolver and by the GHZ-diagonal coefficient criterion), the
capacity proxies, the GHZ one-way example, and teleportation fidelities,
each with a deliberately corrupted negative control.  A report is its
claims: each section returns a tuple of ``ClaimEntry`` in build order,
``full_report`` returns every claim ordered by claim id, and
``capacity_proxy`` returns a bool.  Every section is a table of rows read
by one claim rule, ``_claims``: a row's check is computed by its section,
a claim passes when its check holds, and a control, whose check runs on a
planted corruption, passes when it fails.  The Choi-distance and
teleportation rows check a value against a target within a tolerance.  The
proxy rule's witnesses, the sender group's verdict toward each receiver,
come from one ``pair_verdicts`` call per coefficient set, which
``capacity_proxy`` and the proxy section both read.

Party conventions: the Choi states live on qubits (A1, B, A2, C), where
(A1, A2) is the reference pair for the four-level input read big-endian as
the (B, C) output pair; the capacity-proxy sender group is {A1, A2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import linalg
from .channels import KrausChannel, choi, mix
from .entanglement import (
    DistillabilityVerdict,
    GhzDiagonalCoefficients,
    ghz_diagonal_coefficients,
    localize_entanglement,
    npt_criterion,
    pair_verdicts,
    ppt_check,
    two_qubit_separability,
)
from .errors import ChoilabError
from .states import (
    MultipartiteState,
    PartySystem,
    PureState,
    cut_names,
    cut_number,
    ghz_basis_state,
    max_entangled,
    partial_trace,
    permute_matrix_parties,
    schmidt_decomposition,
    trace_out_axes,
)

INPUT_SYSTEM = PartySystem(("A",), (4,))
OUTPUT_SYSTEM = PartySystem(("B", "C"), (2, 2))
CANONICAL_ORDER = ("A1", "B", "A2", "C")
CHOI_SYSTEM = PartySystem(CANONICAL_ORDER, (2, 2, 2, 2))
SENDER_GROUP = ("A1", "A2")

CHOI_IDENTITY_TOL = 1e-12
# Size of the error planted in the E1 closed form by the Choi negative control.
CHOI_CONTROL_ERROR = 1e-6
TELEPORT_FIDELITY_TOL = 1e-12
# A localized pair is balanced and teleports exactly within this: its
# Schmidt coefficients sit this close to 1/sqrt(2), its fidelity to 1.
LOCALIZED_PAIR_TOL = 1e-9
# teleport_fidelity skips Bell outcomes at most this likely.
BELL_OUTCOME_FLOOR = 1e-15

# Each channel is GHZ-diagonal with exactly one vanished pair weight: the
# GHZ pair k named here (party order A1, B, A2, C), whose two kets 2k and
# 15 - 2k its closed form removes.
_REMOVED_PAIRS = {1: 0b101, 2: 0b010, 3: 0b111}

def _kraus_stacks() -> dict[int, np.ndarray]:
    """Each channel's read-only (15, 4, 4) Kraus stack, keyed by channel index.

    E1 and E2 are fixed lists of two-qubit Pauli products sigma_a (x) sigma_b
    (E2 with two ladder products); E3 is E2 with the two input and the two
    output qubits exchanged, one swap-conjugation matmul pair over the stack.
    """
    pp = {(a, b): np.kron(linalg.PAULIS[a], linalg.PAULIS[b]) for a in range(4) for b in range(4)}
    swap = linalg.identity(4)[[0, 2, 1, 3]]
    one = [
        (pp[0, 0] + pp[3, 3]) / 4,
        (pp[1, 1] + pp[2, 2]) / math.sqrt(32),
        (pp[2, 1] - pp[1, 2]) / math.sqrt(32),
    ] + [pp[a, b] / 4 for a, b in (
        (0, 0), (3, 3), (1, 0), (2, 0), (3, 0), (0, 1),
        (0, 2), (0, 3), (3, 1), (1, 3), (3, 2), (2, 3),
    )]
    two = [
        (pp[0, 0] + pp[3, 3]) / 4,
        np.kron(linalg.sigma_minus, linalg.sigma0 + linalg.sigma3) / 4,
        np.kron(linalg.sigma_plus, linalg.sigma0 - linalg.sigma3) / 4,
    ] + [pp[a, b] / 4 for a, b in (
        (0, 0), (3, 3), (3, 0), (0, 1), (1, 1), (2, 1),
        (3, 1), (0, 2), (1, 2), (2, 2), (3, 2), (0, 3),
    )]
    stacks = {1: np.stack(one), 2: np.stack(two)}
    stacks[3] = swap @ stacks[2] @ swap
    for ops in stacks.values():
        ops.setflags(write=False)
    return stacks


_KRAUS = _kraus_stacks()


def _channel_index(a) -> int:
    """a as an int if it is a Python or numpy int 1, 2 or 3, not a bool; else ChoilabError."""
    if not linalg.is_int(a) or a not in (1, 2, 3):
        raise ChoilabError(f"channel index must be 1, 2 or 3, got {a!r}")
    return int(a)


def binding_channel(a: int) -> KrausChannel:
    """Binding channel E{a}, a in {1, 2, 3}, holding a fresh, writable copy of ``_KRAUS[a]``."""
    a = _channel_index(a)
    return KrausChannel(f"E{a}", INPUT_SYSTEM, OUTPUT_SYSTEM, _KRAUS[a])


def mixed_binding_channel(parts: Iterable[KrausChannel]) -> KrausChannel:
    """Uniform classical mixture of the three binding channels ``parts`` (E1, E2, E3)."""
    return mix(parts, name="Emix")


def choi_state(ch: KrausChannel) -> MultipartiteState:
    """Choi state of a scenario channel on the canonical (A1, B, A2, C) qubits."""
    return choi(ch, CANONICAL_ORDER)


def _formula_matrix(removed: dict[int, float]) -> np.ndarray:
    """(2|GHZ><GHZ| + 1 - sum_k w_k P_k)/16, written entry by entry.

    P_k projects on kets 2k and 15 - 2k, the two ``ghz_basis_state`` writes for GHZ pair k.

    |GHZ> = (|0000> + |1111>)/sqrt(2) has h = 1/sqrt(2) at its two ends,
    so 2|GHZ><GHZ| is 2*(h*h) at the four corners and zero elsewhere; each
    entry carries the bits the outer-product sum gives it.
    """
    h = 1 / math.sqrt(2)
    corner = 2 * (h * h)
    m = linalg.identity(16)
    m[0, 0] = m[15, 15] = corner + 1
    m[0, 15] = m[15, 0] = corner
    for k, w in removed.items():
        m[2 * k, 2 * k] = m[15 - 2 * k, 15 - 2 * k] = 1 - w
    return m / 16


def choi_closed_form(which: int | str) -> MultipartiteState:
    """Closed-form Choi matrix of binding_channel(which), or of their mixture for "mix"."""
    if isinstance(which, str) and which == "mix":
        removed = {k: 1 / 3 for k in _REMOVED_PAIRS.values()}
    else:
        removed = {_REMOVED_PAIRS[_channel_index(which)]: 1.0}
    return MultipartiteState(CHOI_SYSTEM, _formula_matrix(removed))


def swap_image(state: MultipartiteState) -> MultipartiteState:
    """Image of a canonical-order Choi state under exchanging (A1,B) with (A2,C)."""
    if state.system != CHOI_SYSTEM:
        raise ChoilabError("swap_image expects the canonical 4-qubit Choi system")
    m = permute_matrix_parties(state.matrix, state.system.dims, (2, 3, 0, 1))
    return MultipartiteState(CHOI_SYSTEM, m)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimEntry:
    """One checked claim; control entries pass when the planted corruption is caught."""

    claim_id: str
    description: str
    expected: str
    computed: str
    tolerance: float | None
    passed: bool
    control: bool = False


def _proxy_witnesses(coeffs: GhzDiagonalCoefficients) -> dict[str, DistillabilityVerdict]:
    """The proxy rule's witnesses: the sender group's verdict toward each receiver.

    One ``pair_verdicts`` call per coefficient set serves every target, the
    single receivers and the joint one alike.
    """
    receivers = OUTPUT_SYSTEM.labels
    verdicts = pair_verdicts(coeffs, [(SENDER_GROUP, (r,)) for r in receivers])
    return dict(zip(receivers, verdicts))


def capacity_proxy(coeffs: GhzDiagonalCoefficients, receivers: Iterable[str]) -> bool:
    """Boolean stand-in for the channel capacity toward the given receivers.

    The proxy is positive iff the Choi state is distillable between the
    sender group and at least one individual receiver, which also settles
    the joint-receiver case.  ``receivers`` is a list of labels of
    OUTPUT_SYSTEM.
    """
    receivers = OUTPUT_SYSTEM.require(receivers)
    witness = _proxy_witnesses(coeffs)
    return any(witness[r].distillable for r in receivers)


@dataclass(frozen=True)
class Scenario:
    """The witness chain, computed once: Choi states and GHZ fingerprints.

    Both maps are keyed "E1", "E2", "E3" and "mix"; the Choi states come
    from the Kraus lists, never from the closed forms they are checked
    against.
    """

    states: dict[str, MultipartiteState]
    coeffs: dict[str, GhzDiagonalCoefficients]


def build_scenario() -> Scenario:
    """Build the three channels once, mix them, and read every Choi state once."""
    channels = {f"E{a}": binding_channel(a) for a in (1, 2, 3)}
    channels["mix"] = mixed_binding_channel(channels.values())
    states = {key: choi_state(ch) for key, ch in channels.items()}
    coeffs = {key: ghz_diagonal_coefficients(s) for key, s in states.items()}
    return Scenario(states=states, coeffs=coeffs)


def _claims(rows) -> tuple[ClaimEntry, ...]:
    """The claim rule over rows (id, description, expected, computed, tolerance, holds, control).

    One claim per row, in row order: a claim passes when its check holds, a control when it fails.
    """
    return tuple(
        ClaimEntry(
            claim_id=claim_id,
            description=description,
            expected=expected,
            computed=computed,
            tolerance=tolerance,
            passed=holds != control,
            control=control,
        )
        for claim_id, description, expected, computed, tolerance, holds, control in rows
    )


def _tolerance_claims(rows, computed: str) -> tuple[ClaimEntry, ...]:
    """Rows (id, description, expected, value, target, tol, control) under the claim rule.

    A check holds when |value - target| <= tol; the format string ``computed`` shows the value.
    """
    return _claims(
        (claim_id, description, expected, computed.format(value), tol,
         abs(value - target) <= tol, control)
        for claim_id, description, expected, value, target, tol, control in rows
    )


def reproduce_choi_claims(scenario: Scenario) -> tuple[ClaimEntry, ...]:
    """Choi states from the Kraus lists against their closed forms, one table row each."""
    closed = {f"E{a}": choi_closed_form(a) for a in (1, 2, 3)}
    closed["mix"] = choi_closed_form("mix")
    corrupted = closed["E1"].matrix.copy()
    corrupted[0, 0] += CHOI_CONTROL_ERROR
    # (id, description, Choi state checked, reference matrix, control)
    table = [
        (f"choi-{key}", f"Choi({key}) matches its closed form", key, form.matrix, False)
        for key, form in closed.items()
    ] + [
        ("choi-E3-swap", "Choi(E3) equals the pair-swapped closed form of E2",
         "E3", swap_image(closed["E2"]).matrix, False),
        ("choi-control-perturbed-E1",
         "a perturbed closed form must be caught by the distance check", "E1", corrupted, True),
    ]
    tol = CHOI_IDENTITY_TOL
    return _tolerance_claims(
        [
            (claim_id, description, f"distance {'>' if control else '<='} {tol:.0e}",
             linalg.norm(scenario.states[key].matrix - reference), 0.0, tol, control)
            for claim_id, description, key, reference, control in table
        ],
        "distance = {:.3e}",
    )


_PT_FACTS = (
    ("E1", ("B",), True),
    ("E1", ("C",), True),
    ("E2", ("A1", "A2"), True),
    ("E2", ("C",), True),
    ("mix", ("A1", "A2"), False),
    ("mix", ("B",), False),
    ("mix", ("C",), False),
)

# For a GHZ-diagonal state the smallest partial-transpose eigenvalue across
# an NPT cut is lambda_j - delta/2; for the mixture that is 1/24 - 1/16.
MIX_NPT_EIGENVALUE = -1 / 48


def reproduce_pt_table(scenario: Scenario) -> tuple[ClaimEntry, ...]:
    """The seven partial-transpose sign facts, by eigensolver and by criterion."""
    states, coeffs = scenario.states, scenario.coeffs
    # both routes decide at linalg.PSD_THRESHOLD; each claim reports that
    # bound and holds the mixture's NPT eigenvalue to it
    tol = -linalg.PSD_THRESHOLD
    rows, verdicts = [], {}
    for key, side, expect_ppt in _PT_FACTS:
        k = cut_number(CHOI_SYSTEM, side)
        verdict = verdicts[key, side] = ppt_check(states[key], k)
        criterion_npt = npt_criterion(coeffs[key], k)
        # both routes agree, on the expected sign, and an NPT cut on -1/48
        ok = verdict.is_ppt == (not criterion_npt) == expect_ppt and (
            expect_ppt or abs(verdict.min_eigenvalue - MIX_NPT_EIGENVALUE) <= tol
        )
        rows.append((
            f"pt-{key}-{''.join(side)}",
            f"{key} is {'PPT' if expect_ppt else 'NPT'} across {','.join(side)}",
            "PPT (both methods)" if expect_ppt else "NPT = -1/48 (both methods)",
            f"min eig = {verdict.min_eigenvalue: .6e}; "
            f"criterion {'NPT' if criterion_npt else 'PPT'}",
            tol, ok, False,
        ))
    # control: the E1 PPT claim evaluated on the wrong (mixed) state must fail;
    # that is the pt-mix-B eigensolve above
    wrong = verdicts["mix", ("B",)]
    rows.append((
        "pt-control-wrong-state", "the E1 PPT fact must fail when checked on the mixture",
        "NPT detected", f"min eig = {wrong.min_eigenvalue: .6e}", tol, wrong.is_ppt, True,
    ))
    return _claims(rows)


def capacity_proxy_report(scenario: Scenario) -> tuple[ClaimEntry, ...]:
    """Capacity proxies for the three channels (all zero) and the mixture (positive)."""
    targets = [("AB", ("B",)), ("AC", ("C",)), ("ABC", ("B", "C"))]
    rows = []
    names = cut_names(CHOI_SYSTEM)
    for key, coeffs in scenario.coeffs.items():
        expect = key == "mix"
        witness = _proxy_witnesses(coeffs)
        for tag, receivers in targets:
            witnesses = [witness[r] for r in receivers]
            proxy = any(w.distillable for w in witnesses)
            # a cut separating the senders from both receivers blocks
            # each witness; list it once, in first-seen order
            blocking = dict.fromkeys(names[k - 1] for w in witnesses for k in w.blocking_cuts)
            rows.append((
                f"proxy-{key}-{tag}", f"capacity proxy of {key} toward {tag[1:]}",
                "positive" if expect else "zero",
                "positive" if proxy else f"zero (blocking cuts: {'; '.join(blocking)})",
                None, proxy == expect, False,
            ))
    headline = all(holds for *_, holds, _ in rows)
    rows.append((
        "nonadditivity-headline", "three zero-proxy channels, positive-proxy mixture",
        "non-additivity witnessed",
        "non-additivity witnessed" if headline else "witness failed", None, headline, False,
    ))
    # control: zeroing E1's pair weight 0b010, fixed here and not read from
    # any verdict, must flip its A-B proxy, so the zero-proxy check fails
    coeffs_e1 = scenario.coeffs["E1"]
    plus, minus = coeffs_e1.plus.copy(), coeffs_e1.minus.copy()
    plus[0b010] = minus[0b010] = 0.0
    corrupted = replace(coeffs_e1, plus=plus, minus=minus)
    flipped = capacity_proxy(corrupted, ("B",))
    rows.append((
        "proxy-control-corrupted-E1", "corrupting the blocking coefficient must flip the E1 proxy",
        "positive after corruption", "positive" if flipped else "still zero",
        None, not flipped, True,
    ))
    return _claims(rows)


GHZ3_SYSTEM = PartySystem(("A", "B1", "B2"), (2, 2, 2))


def ghz3_state() -> PureState:
    return ghz_basis_state(GHZ3_SYSTEM, 0, 1)


def _w_state() -> MultipartiteState:
    v = np.zeros(8, dtype=np.complex128)
    v[1] = v[2] = v[4] = 1 / math.sqrt(3)
    return PureState(GHZ3_SYSTEM, v).density()


def ghz_oneway_example() -> tuple[ClaimEntry, ...]:
    """The three-qubit contrast: separable two-party marginals, localizable triple."""
    ghz = ghz3_state()
    rho = ghz.density()
    seps = {kept: two_qubit_separability(partial_trace(rho, [other]))
            for other, kept in [("B2", "B1"), ("B1", "B2")]}
    verdict = ppt_check(rho, cut_number(GHZ3_SYSTEM, ["A"]))
    result = localize_entanglement(ghz, ["A"], ["B1", "B2"])
    sd = schmidt_decomposition(result.final_state, [result.sender_kept])
    balanced = sd.rank == 2 and all(
        abs(float(c) - 1 / math.sqrt(2)) <= LOCALIZED_PAIR_TOL for c in sd.coefficients[:2]
    )
    w_sep = two_qubit_separability(partial_trace(_w_state(), ["B2"]))
    return _claims([
        *[(f"ghz-oneway-marginal-A{kept}", f"reduced state on (A,{kept}) is separable",
           "separable", "separable" if sep else "entangled", None, sep, False)
          for kept, sep in seps.items()],
        ("ghz-oneway-full-npt", "the full state is NPT across A | (B1,B2)", "NPT",
         f"min eig = {verdict.min_eigenvalue: .6e}", -linalg.PSD_THRESHOLD,
         not verdict.is_ppt, False),
        ("ghz-oneway-localization", "localization yields a balanced pair on (A, one receiver)",
         "coefficients (1/sqrt2, 1/sqrt2)",
         f"pair (A,{result.receiver_kept}), "
         f"coefficients {sd.coefficients[:2].round(12).tolist()}",
         LOCALIZED_PAIR_TOL, balanced, False),
        # control: the separability check run on the W state's marginal must fail
        ("ghz-oneway-control-wrong-state",
         "the separability claim must fail on a different triple state",
         "entangled marginal detected", "separable" if w_sep else "entangled", None, w_sep, True),
    ])


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------

# One slice |b><b| (x) 1 on (input, first resource qubit, second resource
# qubit) per Bell outcome b, in the order (Phi+, Psi+, Phi-, Psi-).
_BELL_PROJECTORS = np.stack(
    [
        np.kron(np.outer(v, v.conj()), linalg.identity(2))
        for v in np.array(
            [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=np.complex128
        )
        / math.sqrt(2)
    ]
)
_BELL_PROJECTORS.setflags(write=False)
_CORRECTIONS = np.stack(
    (linalg.sigma0, linalg.sigma1, linalg.sigma3, linalg.sigma3 @ linalg.sigma1)
)
_CORRECTIONS.setflags(write=False)
_CORRECTIONS_H = np.ascontiguousarray(_CORRECTIONS.conj().transpose(0, 2, 1))
_CORRECTIONS_H.setflags(write=False)


def teleport_fidelity(resource: MultipartiteState, input_state: PureState) -> float:
    """Average output fidelity of standard teleportation with the given resource.

    Exhaustive Bell-outcome simulation: measure the input qubit together with
    the first resource qubit in the Bell basis, apply the matching Pauli
    correction on the second resource qubit, and average the output fidelity
    over the four outcomes weighted by their probabilities.  The four
    outcomes are one stack: each step is one numpy call over it, with the
    per-outcome arithmetic of a loop, and the weighted fidelities are
    added in outcome order.
    """
    if resource.system.dims != (2, 2):
        raise ChoilabError(f"resource must be two qubits, got {resource.system.dims}")
    if input_state.system.total_dim != 2:
        raise ChoilabError("teleportation input must be a single qubit")
    psi = input_state.vector
    rho_in = np.outer(psi, psi.conj())
    # input (x) resource, each entry the one product np.kron forms
    total = (rho_in[:, None, :, None] * resource.matrix[None, :, None, :]).reshape(8, 8)
    sub = _BELL_PROJECTORS @ total @ _BELL_PROJECTORS
    probs = sub.trace(axis1=1, axis2=2).real
    kept = probs > BELL_OUTCOME_FLOOR
    probs = probs[kept]
    # trace out the input and the first resource qubit
    out = trace_out_axes(sub[kept], (2, 2, 2), (0, 1)) / probs[:, None, None]
    out = _CORRECTIONS[kept] @ out @ _CORRECTIONS_H[kept]
    # one (1, 2) @ (2,) dot per outcome, as the loop's: a (k, 2) @ (2,)
    # product runs a matrix-vector kernel whose last bits differ
    overlap = ((psi.conj() @ out)[:, None, :] @ psi)[:, 0].real
    fid = 0.0
    for term in (probs * overlap).tolist():
        fid += term
    return fid


def teleport_report() -> tuple[ClaimEntry, ...]:
    """Teleportation fidelities for ideal, useless and localized resources, one row each."""
    plus = max_entangled(2, ("A", "B"))
    ident = MultipartiteState(plus.system, linalg.identity(4) / 4)
    qubit = PartySystem(("M",), (2,))
    zero = PureState(qubit, [1, 0])
    tilted = PureState(qubit, [math.sqrt(0.3), math.sqrt(0.7) * 1j])
    ideal = plus.density()
    f_ideal = min(teleport_fidelity(ideal, zero), teleport_fidelity(ideal, tilted))
    f_mixed = teleport_fidelity(ident, tilted)
    # resource produced by the localization pipeline on a skewed rank-2 state
    skew = PureState(GHZ3_SYSTEM, [math.sqrt(0.75), 0, 0, 0, 0, 0, 0, math.sqrt(0.25)])
    localized = localize_entanglement(skew, ["A"], ["B1", "B2"])
    f_localized = teleport_fidelity(localized.final_state.density(), tilted)
    tol = TELEPORT_FIDELITY_TOL
    return _tolerance_claims(
        [
            ("teleport-ideal", "maximally entangled resource teleports exactly",
             "fidelity 1", f_ideal, 1.0, tol, False),
            ("teleport-useless", "maximally mixed resource gives fidelity 1/2",
             "fidelity 1/2", f_mixed, 0.5, tol, False),
            ("teleport-localized", "a localized and filtered pair teleports exactly",
             "fidelity 1", f_localized, 1.0, LOCALIZED_PAIR_TOL, False),
            ("teleport-control-useless-resource",
             "the exact-teleportation claim must fail on the mixed resource",
             "fidelity far from 1", f_mixed, 1.0, tol, True),
        ],
        "fidelity = {:.15f}",
    )


def full_report() -> tuple[ClaimEntry, ...]:
    """Every claim of the scenario, ordered by claim id."""
    scenario = build_scenario()
    entries = [
        *reproduce_choi_claims(scenario),
        *reproduce_pt_table(scenario),
        *capacity_proxy_report(scenario),
        *ghz_oneway_example(),
        *teleport_report(),
    ]
    return tuple(sorted(entries, key=lambda e: e.claim_id))

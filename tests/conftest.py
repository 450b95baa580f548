import math

import numpy as np
import pytest
from hypothesis import settings

from choilab import entanglement, linalg
from choilab.entanglement import (
    all_cut_indices,
    ghz_diagonal_coefficients,
    npt_vector,
    pair_verdicts,
    ppt_check,
)
from choilab.errors import DimensionMismatch, LocalizationFailed, NotSchmidtRank2
from choilab.nonadditivity import BELL_OUTCOME_FLOOR
from choilab.states import (
    MultipartiteState,
    PartySystem,
    PureState,
    cut_name,
    ghz_basis_state,
    permute_vector_parties,
    schmidt_decomposition,
    trace_out_axes,
)


# Every property test draws the same examples on every run, so a verdict on
# a commit repeats; no example database is read or written, and no deadline
# turns a slow example into a failure.
settings.register_profile("repeatable", deadline=None, database=None, derandomize=True)
settings.load_profile("repeatable")


# Matrix fields that the codec rejects with ParseError.
REJECTED_MATRICES = {
    "string": [[["1", 0]]],
    "null-cell": [[[None, 0]]],
    "null-matrix": None,
    "row-not-array": [[[1, 0]], 5],
    "ragged-rows": [[[1, 0], [0, 0]], [[0, 0]]],
    "re-only-cells": [[[1.0]]],
    "triple-cells": [[[1.0, 0.0, 0.0]]],
    "depth-4": [[[[1, 0], [0, 0]]]],
    "empty-row": [[]],
    "empty": [],
    "object": {"re": 1, "im": 0},
    "number": 1.0,
    "cell-not-pair": [[1, 0]],
    "mixed-cell-depth": [[[1, 0], [[1], 0]]],
}


# The per-operator loops that a channel's Kraus array replaced with one
# numpy call each, kept as the oracle those calls must match bit for bit.


def loop_completeness_defect(kraus, d_in: int) -> float:
    acc = sum(a.conj().T @ a for a in kraus)
    return float(np.linalg.norm(acc - np.eye(d_in, dtype=np.complex128)))


def loop_choi_matrix(kraus, d_in: int, d_out: int) -> np.ndarray:
    e = np.zeros((d_in * d_out,) * 2, dtype=np.complex128)
    for a in kraus:
        v = a.T.reshape(-1)
        e += np.outer(v, v.conj())
    return e / d_in


def loop_apply_matrix(kraus, mat: np.ndarray) -> np.ndarray:
    out = np.zeros((kraus[0].shape[0],) * 2, dtype=np.complex128)
    for a in kraus:
        out += a @ mat @ a.conj().T
    return out


def loop_kraus_from_choi(matrix: np.ndarray, d_ref: int, d_out: int, cutoff: float) -> list[np.ndarray]:
    vals, vecs = np.linalg.eigh(matrix)
    return [
        math.sqrt(val * d_ref) * vec.reshape(d_ref, d_out).T
        for val, vec in zip(vals, vecs.T)
        if val > cutoff
    ]


def loop_mix_kraus(kraus_lists, weights) -> list[np.ndarray]:
    return [math.sqrt(x) * a for ops, x in zip(kraus_lists, weights) for a in ops]


def loop_decode_kraus(obj) -> list[np.ndarray]:
    from choilab.codec import decode_matrix

    return [decode_matrix(k, f"channel.kraus[{i}]") for i, k in enumerate(obj)]


# The per-outcome loop that nonadditivity.teleport_fidelity replaced with
# one stacked numpy call per step, kept as the oracle it must match.

_BELL_VECTORS = ([1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0])
_PAULI_CORRECTIONS = (linalg.sigma0, linalg.sigma1, linalg.sigma3, linalg.sigma3 @ linalg.sigma1)


def loop_teleport_fidelity(resource: MultipartiteState, input_state) -> float:
    psi = input_state.vector
    total = np.kron(np.outer(psi, psi.conj()), resource.matrix)
    fid = 0.0
    for bell, corr in zip(_BELL_VECTORS, _PAULI_CORRECTIONS):
        v = np.array(bell, dtype=np.complex128) / math.sqrt(2)
        proj = np.kron(np.outer(v, v.conj()), linalg.identity(2))
        sub = proj @ total @ proj
        prob = float(np.real(np.trace(sub)))
        if prob <= BELL_OUTCOME_FLOOR:
            continue
        out = trace_out_axes(sub, (2, 2, 2), [0, 1]) / prob
        out = corr @ out @ corr.conj().T
        fid += prob * float(np.real(psi.conj() @ out @ psi))
    return fid


# The per-row loop of cli._cmd_classify before its rows were made in one
# pass from a cut-name table, kept as the oracle whose entries its output
# must match byte for byte: lambda rows, then cut rows, then pair rows,
# each cut named by a fresh cut_name call.


def loop_classify_entries(state: MultipartiteState, pairs, threshold: float) -> list[dict]:
    """The classify report's entries for a state, its parsed group pairs and a threshold."""
    sys_ = state.system
    coeffs = ghz_diagonal_coefficients(state)
    entries = []
    ghz_diagonal = coeffs.ghz_diagonal
    entries.append(
        {
            "id": "residual",
            "status": "info" if ghz_diagonal else "warn",
            "computed": f"off-diagonal residual = {coeffs.offdiagonal_residual:.3e}"
            + ("" if ghz_diagonal else " (not GHZ-diagonal: reporting PT facts only)"),
        }
    )
    if ghz_diagonal:
        entries.append(
            {
                "id": "delta",
                "status": "info",
                "computed": f"delta = {coeffs.delta:.12g}"
                + (" (asymmetric pair weights symmetrized)" if coeffs.asymmetry_flag else ""),
                "delta": coeffs.delta,
                "lambda0_plus": float(coeffs.plus[0]),
                "lambda0_minus": float(coeffs.minus[0]),
            }
        )
        for j, lam in zip(all_cut_indices(sys_.num_parties), coeffs.lambdas.tolist()):
            entries.append(
                {
                    "id": f"lambda-{j}",
                    "status": "info",
                    "computed": f"lambda_{j} = {lam:.12g}",
                    "value": lam,
                }
            )
        npt = npt_vector(coeffs, threshold).tolist()
    for k, j in enumerate(all_cut_indices(sys_.num_parties), start=1):
        verdict = ppt_check(state, k, threshold=threshold)
        row = {
            "id": f"cut-{j}",
            "status": "info",
            "cut": cut_name(sys_, k),
            "min_eigenvalue": verdict.min_eigenvalue,
            "eigensolver": "PPT" if verdict.is_ppt else "NPT",
        }
        text = f"{row['cut']:<18} eigensolver {row['eigensolver']}"
        if ghz_diagonal:
            crit = "NPT" if npt[k - 1] else "PPT"
            row["criterion"] = crit
            text += f", criterion {crit}"
            if crit != row["eigensolver"]:
                row["status"] = "fail"
        row["computed"] = text + f", min eig = {verdict.min_eigenvalue: .6e}"
        entries.append(row)
    if ghz_diagonal:
        for (one, two), verdict in zip(pairs, pair_verdicts(coeffs, pairs, threshold)):
            a, b = ",".join(one), ",".join(two)
            blocking = "; ".join(cut_name(sys_, k) for k in verdict.blocking_cuts)
            result = (
                "distillable" if verdict.distillable else f"not distillable (blocking: {blocking})"
            )
            entries.append(
                {
                    "id": f"distill-{a}-vs-{b}",
                    "status": "info",
                    "computed": f"{a} vs {b}: {result}",
                    "distillable": verdict.distillable,
                }
            )
    return entries


# The step-by-step localization that entanglement.localize_entanglement
# replaced with its Schmidt form, kept as the oracle it must match: an SVD
# of the whole vector at every step, marginals read from the density
# matrix, and the kept pair read by eigh and reordered by hand.  It shares
# the candidates and the two branch tests with the package.


def _svd_side_branches(vector: np.ndarray, system: PartySystem, side):
    sd = schmidt_decomposition(PureState(system, vector), side)
    if sd.rank != 2:
        raise LocalizationFailed(f"intermediate state has Schmidt rank {sd.rank}")
    return sd.left_vectors[:, :2].T, sd.left_labels


def _svd_project(vector: np.ndarray, dims, axis: int, onto: np.ndarray):
    t = vector.reshape(math.prod(dims[:axis]), dims[axis], -1)
    amp = np.einsum("k,ikj->ij", onto.conj(), t)
    norm = np.linalg.norm(amp)
    if norm == 0:
        return vector, 0.0
    return np.einsum("k,ij->ikj", onto, amp / norm).reshape(-1), norm**2


def _svd_marginal(vector: np.ndarray, system: PartySystem, keep) -> np.ndarray:
    axes = [i for i, l in enumerate(system.labels) if l not in keep]
    return trace_out_axes(np.outer(vector, vector.conj()), system.dims, axes)


def _svd_factor_side(vector, system: PartySystem, side, rng, log):
    remaining = list(side)
    while len(remaining) > 1:
        party = remaining[0]
        rows, side_labels = _svd_side_branches(vector, system, tuple(side))
        side_system = system.subsystem(side_labels)
        axis = side_system.axis(party)
        dims = side_system.dims
        branches = rows.reshape(2, math.prod(dims[:axis]), dims[axis], -1)
        if entanglement._condition_i_holds(branches):
            for other in remaining[1:]:
                onto = np.linalg.eigh(_svd_marginal(vector, system, (other,)))[1][:, -1]
                vector, prob = _svd_project(vector, system.dims, system.axis(other), onto)
                log.append(entanglement.Projection(other, onto, prob))
            return vector, party
        for onto in entanglement._candidate_projectors(dims[axis], rng):
            c1, c2 = np.einsum("k,bikj->bij", onto.conj(), branches)
            if entanglement._branches_distinct(c1, c2):
                vector, prob = _svd_project(vector, system.dims, system.axis(party), onto)
                log.append(entanglement.Projection(party, onto, prob))
                remaining.remove(party)
                break
        else:
            raise LocalizationFailed(f"no projector kept the branches of {party!r} distinct")
    return vector, remaining[0]


def svd_localize(phi: PureState, senders, receivers) -> entanglement.LocalizationResult:
    """localize_entanglement on valid groups, one SVD of the whole vector per step."""
    sys = phi.system
    if schmidt_decomposition(phi, senders).rank != 2:
        raise NotSchmidtRank2("need Schmidt rank 2")
    rng, log = [], []
    vector, sender_kept = _svd_factor_side(phi.vector.copy(), sys, senders, rng, log)
    vector, receiver_kept = _svd_factor_side(vector, sys, receivers, rng, log)
    kept = (sender_kept, receiver_kept)
    purities = {}
    for l in sys.labels:
        if l not in kept:
            m = _svd_marginal(vector, sys, (l,))
            purities[l] = float(np.real(np.trace(m @ m)))
    vals, vecs = np.linalg.eigh(_svd_marginal(vector, sys, kept))
    if vals[-1] < 1 - entanglement.FACTORED_PURITY_TOL:
        raise LocalizationFailed("bystander parties did not factor out")
    order = [l for l in sys.labels if l in kept]
    pair = vecs[:, -1]
    if order[0] != sender_kept:
        pair = permute_vector_parties(pair, [sys.dim_of(l) for l in order], [1, 0])
    dims = (sys.dim_of(sender_kept), sys.dim_of(receiver_kept))
    final, filter_prob = entanglement.filter_to_maximally_entangled(
        PureState(PartySystem(kept, dims), pair)
    )
    return entanglement.LocalizationResult(
        projections=tuple(log),
        final_state=final,
        sender_kept=sender_kept,
        receiver_kept=receiver_kept,
        filter_probability=filter_prob,
        success_probability=math.prod([filter_prob, *(p.probability for p in log)]),
        bystander_purities=purities,
    )


def choi_apply(choi_state: MultipartiteState, reference, mat: np.ndarray) -> np.ndarray:
    """Channel action reconstructed from a Choi state: d * Tr_ref[(mat^T (x) 1) E].

    The Choi state must have its reference parties listed first, in the given
    order; the independent contraction oracle for ``apply_matrix``.
    """
    sys = choi_state.system
    ref = list(reference)
    if list(sys.labels[: len(ref)]) != ref:
        raise DimensionMismatch("choi_apply expects reference parties first")
    d_ref = math.prod(sys.dim_of(l) for l in ref)
    d_out = sys.total_dim // d_ref
    big = np.kron(mat.T, linalg.identity(d_out)) @ choi_state.matrix
    reduced = trace_out_axes(big, (d_ref, d_out), [0])
    return d_ref * reduced


def flip_route_min_eigenvalue(state: MultipartiteState, side) -> float:
    """One cut of an X-shaped state the per-cut way, with the one-row block solve.

    The anti-diagonal is flipped along the axes of the parties in ``side``,
    and q is read reversed from one row.  entanglement.cut_min_eigenvalues,
    which solves every cut from one gather and one stacked solve, must
    match it bit for bit on the side without the last party.
    """
    axes = tuple(state.system.axis(l) for l in side)
    m = state.matrix
    anti = np.flip(np.fliplr(m).diagonal().reshape(state.system.dims), axes).ravel()
    h = m.shape[0] // 2
    hp = 0.5 * m.diagonal()[:h].real
    hr = 0.5 * m.diagonal()[::-1][:h].real
    return float((hp + hr - np.hypot(hp - hr, np.abs(anti[::-1][:h]))).min())


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_state(rng: np.random.Generator, system: PartySystem) -> MultipartiteState:
    return MultipartiteState(system, random_density_matrix(rng, system.total_dim))


def random_x_state(rng: np.random.Generator, system: PartySystem) -> MultipartiteState:
    """Random X-shaped state: a positive 2x2 block with a complex coupling on each (x, d-1-x).

    Every entry off the X is exactly 0.0.
    """
    d = system.total_dim
    m = np.zeros((d, d), dtype=complex)
    for x in range(d // 2):
        y = d - 1 - x
        p, r = rng.random(2)
        q = math.sqrt(p * r) * rng.random() * np.exp(2j * np.pi * rng.random())
        m[x, x], m[y, y], m[y, x], m[x, y] = p, r, q, np.conj(q)
    return MultipartiteState(system, m / np.trace(m).real)


def random_pure_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_ghz_diagonal_state(
    rng: np.random.Generator, system: PartySystem, symmetric: bool = True
) -> MultipartiteState:
    """Random state diagonal in the GHZ basis.

    With ``symmetric`` the two weights of each pair j != 0 are equal;
    otherwise every GHZ-basis weight is drawn independently.
    """
    n = system.num_parties
    indices = all_cut_indices(n)
    if symmetric:
        raw = rng.random(2 + len(indices))
        raw = np.concatenate([raw[:2], np.repeat(raw[2:], 2)])
    else:
        raw = rng.random(2 + 2 * len(indices))
    weights = raw / raw.sum()
    keys = [(j, s) for j in ("0" * (n - 1), *indices) for s in (1, -1)]
    return ghz_diagonal_state(system, dict(zip(keys, weights)))


def ghz_diagonal_state(system: PartySystem, weights: dict) -> MultipartiteState:
    """sum of w |Psi_j^s><Psi_j^s| over the {(j, s): w} weights, from the GHZ vectors."""
    m = sum(w * _proj(ghz_basis_state(system, j, s).vector) for (j, s), w in weights.items())
    return MultipartiteState(system, m)


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def index_side(k: int, system: PartySystem) -> list[str]:
    """The side of cut k read from its index string, the oracle of states.cut_side.

    The side holds party i iff digit i of the (N-1)-digit binary string of
    k is "1", so it never holds the last party.
    """
    n = system.num_parties
    return [l for l, b in zip(system.labels, format(k, f"0{n - 1}b")) if b == "1"]


def complement(side, system: PartySystem) -> list[str]:
    """The other side of the cut, in system order."""
    return [l for l in system.labels if l not in side]


def describe(side, system: PartySystem) -> str:
    """The name of the cut with ``side`` on one side, the oracle of states.cut_name.

    Both sides in system order, the side holding the first party first.
    """
    first = system.labels[0] in side
    one = [l for l in system.labels if (l in side) is first]
    two = [l for l in system.labels if (l in side) is not first]
    return f"{','.join(one)} | {','.join(two)}"


def walk_blocking_cuts(c, one, two, threshold: float) -> list[int]:
    """Brute-force blocking cuts of a pair: every cut number, its two sides and the coefficient rule.

    The number of each separating cut whose lambda_j - delta/2 is at least
    ``threshold``, in index order: the oracle of entanglement.pair_verdicts.
    """
    system = c.system
    found = []
    for k in range(1, 1 << (system.num_parties - 1)):
        side = set(index_side(k, system))
        other = set(complement(side, system))
        separates = any(
            set(one) <= a and set(two) <= b for a, b in ((side, other), (other, side))
        )
        if separates and float(c.lambdas[k - 1]) - c.delta / 2 >= threshold:
            found.append(k)
    return found


def report_entry(report, claim_id: str):
    """The ClaimEntry of a ReproductionReport with this claim id."""
    for e in report.entries:
        if e.claim_id == claim_id:
            return e
    raise KeyError(claim_id)


def report_passed(report) -> bool:
    """Whether every claim of a ReproductionReport passed."""
    return all(e.passed for e in report.entries)


@pytest.fixture(scope="session")
def four_qubits() -> PartySystem:
    return PartySystem(("A1", "B", "A2", "C"), (2, 2, 2, 2))


@pytest.fixture(scope="session")
def scenario_states():
    from choilab.nonadditivity import build_scenario

    return build_scenario().states


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    """Bundled channel/state files, generated by the builders (never hand-edited)."""
    from choilab.codec import channel_to_dict, dumps, state_to_dict
    from choilab.nonadditivity import (
        binding_channel,
        choi_state,
        ghz3_state,
        mixed_binding_channel,
    )

    root = tmp_path_factory.mktemp("fixtures")
    parts = [binding_channel(a) for a in (1, 2, 3)]
    for a, ch in enumerate(parts, start=1):
        (root / f"e{a}.json").write_text(dumps(channel_to_dict(ch)))
        (root / f"e{a}_choi.json").write_text(dumps(state_to_dict(choi_state(ch))))
    (root / "ghz3.json").write_text(dumps(state_to_dict(ghz3_state().density())))
    (root / "emix_choi.json").write_text(
        dumps(state_to_dict(choi_state(mixed_binding_channel(parts))))
    )
    return root

"""PPT tests, GHZ-diagonal classification, and entanglement localization.

The classifier reads an N-qubit density operator in the GHZ basis
|Psi_j^pm> = (|j,0> pm |jbar,1>)/sqrt(2) and condenses it to the
fingerprint (delta, {lambda_j}): delta = |lambda_0^+ - lambda_0^-| and
lambda_j the symmetrized pair weight for j != 0.  Each pair lives on the
two computational kets |j,0> and |jbar,1>, so the read takes the 2x2
blocks of the density matrix on those kets: O(2^N) entries for the
coefficients and one O(4^N) pass for the off-diagonal residual, with no
GHZ vector built.  Within this class the partial transpose across the cut
with index j is non-positive iff 2*lambda_j < delta, PPT across a cut
implies separability across it, and non-positive partial transposition
across every cut separating two groups is sufficient for distilling
entanglement between them.  Outside the class only partial-transpose
facts are reported, never verdicts.

The partial-transpose route (ppt_check) never builds a partial transpose
of an X-shaped state, GHZ-diagonal ones included: each cut's spectrum is
read in O(2^N) from the state's diagonal and its permuted anti-diagonal.
A pair verdict walks its separating cuts by bit masks, in cut-index
order, reads each one by the same lambda_j - delta/2 rule as
npt_criterion, and reports the cuts that block.

The localization procedure turns a Schmidt-rank-2 pure state shared by a
sender group and a receiver group into a maximally entangled pair between
one sender and one receiver, using one rank-1 local projector per
factored-out party plus a final local filter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    LocalizationFailed,
    NotGhzDiagonal,
    NotSchmidtRank2,
    OverlappingGroups,
    UnknownParty,
)
from .states import (
    BipartiteCut,
    MultipartiteState,
    PartySystem,
    PureState,
    partial_transpose,
    permute_vector_parties,
    schmidt_decomposition,
    trace_out_axes,
)

GHZ_RESIDUAL_TOL = 1e-8
ASYMMETRY_TOL = 1e-10
BRANCH_DISTINCT_TOL = 1e-9
BRANCH_NORM_TOL = 1e-6
FACTORED_PURITY_TOL = 1e-10
MAX_RANDOM_PROJECTORS = 64
_PROJECTOR_SEED = 0x10CA1


@dataclass(frozen=True)
class PtVerdict:
    min_eigenvalue: float
    is_ppt: bool


def ppt_check(
    state: MultipartiteState,
    cut: BipartiteCut,
    threshold: float = linalg.PSD_THRESHOLD,
) -> PtVerdict:
    """Eigensolver route: minimum eigenvalue of the partial transpose on side_one.

    Transposing the parties T of side_one moves entry (a, b) to
    ((b_T, a_R), (a_T, b_R)).  That keeps the X shape: the diagonal stays
    put, and the anti-diagonal entry of row i moves to row sigma(i), sigma
    the digit-wise complement on T (i xor s for qubits, s the bit mask of
    T).  So an X-shaped state's partial transpose is read in O(d) from the
    state's diagonal and its anti-diagonal flipped along the T axes, with
    no matrix built; the block solve reads the same entries as on the dense
    partial transpose, so the value is the same bit for bit.  Any other
    state is transposed and solved densely.  Either way the route reads
    matrix entries, never the GHZ coefficients, so it stays an independent
    check on npt_criterion.
    """
    if state.x_shaped:
        cut.validate(state.system)
        axes = tuple(state.system.axis(l) for l in cut.side_one)
        m = state.matrix
        anti = np.flip(np.fliplr(m).diagonal().reshape(state.system.dims), axes)
        low = linalg.x_min_eigenvalue(m.diagonal(), anti.ravel())
    else:
        low = linalg.min_eigenvalue(partial_transpose(state, cut), x_shaped=False)
    return PtVerdict(min_eigenvalue=low, is_ppt=low >= threshold)


def two_qubit_separability(state: MultipartiteState) -> bool:
    """Separability of a two-qubit state (PPT is necessary and sufficient in 2x2)."""
    if state.system.dims != (2, 2):
        raise DimensionMismatch(f"need a 2x2-qubit state, got dims {state.system.dims}")
    cut = BipartiteCut.from_side(state.system, [state.system.labels[0]])
    return ppt_check(state, cut).is_ppt


@dataclass(frozen=True)
class GhzDiagonalCoefficients:
    """The (delta, {lambda_j}) fingerprint of a GHZ-diagonal state."""

    system: PartySystem
    lambda0_plus: float
    lambda0_minus: float
    lambdas: dict[str, float]  # j (nonzero bit string) -> symmetrized pair weight
    delta: float
    asymmetry_flag: bool
    offdiagonal_residual: float

    @property
    def ghz_diagonal(self) -> bool:
        """Whether the state counts as GHZ-diagonal: residual within GHZ_RESIDUAL_TOL."""
        return self.offdiagonal_residual <= GHZ_RESIDUAL_TOL


def all_cut_indices(num_parties: int) -> tuple[str, ...]:
    """All nonzero (N-1)-bit strings, one per bipartition of N parties."""
    n = num_parties - 1
    return tuple(
        "".join(bits) for bits in itertools.product("01", repeat=n) if "1" in bits
    )


def cut_to_index(cut: BipartiteCut, system: PartySystem) -> str:
    """Bit string with j_i = 1 iff party i sits on the side without the last party."""
    cut.validate(system)
    last = system.labels[-1]
    with_last = cut.side_one if last in cut.side_one else cut.side_two
    return "".join("0" if l in with_last else "1" for l in system.labels[:-1])


def index_to_cut(j: str, system: PartySystem) -> BipartiteCut:
    """Inverse of cut_to_index."""
    if len(j) != system.num_parties - 1 or "1" not in j:
        raise UnknownParty(f"invalid cut index {j!r} for {system.labels}")
    side = [l for l, bit in zip(system.labels[:-1], j) if bit == "1"]
    return BipartiteCut.from_side(system, side)


def ghz_diagonal_coefficients(state: MultipartiteState) -> GhzDiagonalCoefficients:
    """Read the GHZ-basis diagonal of an N-qubit state.

    Each pair |Psi_j^pm> spans the two computational kets a = |j,0> and
    b = |jbar,1>, so lambda_j^pm = (rho_aa + rho_bb)/2 pm Re rho_ab: the
    read touches 2^N entries.  Pair weights for j != 0 are symmetrized,
    lambda_j = (lambda_j^+ + lambda_j^-)/2 (achievable by local
    operations), with a flag raised when the raw pair was asymmetric;
    offdiagonal_residual is the Frobenius norm of the part of the state
    outside its GHZ diagonal, i.e. of rho minus its projection onto the
    2^(N-1) (a, b) blocks, an O(4^N) pass over the matrix.
    """
    sys = state.system
    if not sys.is_qubits():
        raise DimensionMismatch(f"classifier needs qubits, got dims {sys.dims}")
    n = sys.num_parties
    rho = state.matrix
    # with j read as the integer k, |j,0> sits at index 2k and |jbar,1>,
    # its bitwise complement, at 2^N - 1 - 2k
    k = np.arange(2 ** (n - 1))
    a = 2 * k
    b = rho.shape[0] - 1 - a
    mean = (rho[a, a].real + rho[b, b].real) / 2
    cross = rho[a, b].real
    off = rho.copy()
    off[a, a] -= mean
    off[b, b] -= mean
    off[a, b] -= cross
    off[b, a] -= cross
    residual = float(np.linalg.norm(off))
    # itertools.product enumerates j in the order of k, including j = "" at N = 1
    js = ("".join(bits) for bits in itertools.product("01", repeat=n - 1))
    raw = {j: (m + c, m - c) for j, m, c in zip(js, mean.tolist(), cross.tolist())}
    lam_plus, lam_minus = raw["0" * (n - 1)]
    lambdas = {}
    asymmetric = False
    for j in all_cut_indices(n):
        plus, minus = raw[j]
        if abs(plus - minus) > ASYMMETRY_TOL:
            asymmetric = True
        lambdas[j] = (plus + minus) / 2
    return GhzDiagonalCoefficients(
        system=sys,
        lambda0_plus=lam_plus,
        lambda0_minus=lam_minus,
        lambdas=lambdas,
        delta=abs(lam_plus - lam_minus),
        asymmetry_flag=asymmetric,
        offdiagonal_residual=residual,
    )


def _npt(coeffs: GhzDiagonalCoefficients, j: str, threshold: float) -> bool:
    """The coefficient rule for the cut with index j: lambda_j - delta/2 < threshold."""
    if not coeffs.ghz_diagonal:
        raise NotGhzDiagonal(
            f"off-diagonal residual {coeffs.offdiagonal_residual:.3e} exceeds "
            f"{GHZ_RESIDUAL_TOL:.1e}"
        )
    return coeffs.lambdas[j] - coeffs.delta / 2 < threshold


def npt_criterion(
    coeffs: GhzDiagonalCoefficients,
    cut: BipartiteCut,
    threshold: float = linalg.PSD_THRESHOLD,
) -> bool:
    """Coefficient route: the cut is NPT iff lambda_j - delta/2 < threshold.

    lambda_j - delta/2 is the smallest eigenvalue of the partial transpose
    across the cut, so with the eigensolver's threshold the two routes
    read the same number against the same bound; equality, and the exact
    boundary cases of the class, sit on the PPT side.  Requires the state
    to actually be GHZ-diagonal.
    """
    return _npt(coeffs, cut_to_index(cut, coeffs.system), threshold)


@dataclass(frozen=True)
class DistillabilityVerdict:
    distillable: bool
    blocking_cuts: tuple[BipartiteCut, ...]  # the separating cuts that are PPT


def disjoint_groups(
    system: PartySystem, group_one, group_two
) -> tuple[frozenset[str], frozenset[str]]:
    """The two groups as label sets; each must be nonempty, known and apart from the other."""
    g1 = system.require(group_one)
    g2 = system.require(group_two)
    if g1 & g2:
        raise OverlappingGroups(f"groups overlap: {sorted(g1 & g2)}")
    if not g1 or not g2:
        raise OverlappingGroups("both groups must be nonempty")
    return g1, g2


def pairwise_distillability(
    coeffs: GhzDiagonalCoefficients,
    group_one,
    group_two,
    threshold: float = linalg.PSD_THRESHOLD,
) -> DistillabilityVerdict:
    """Class rule: distillable between the groups iff every separating cut is NPT.

    Cut k (the index of cut_to_index read as a number, with the last
    party's bit 0 appended) separates the groups iff its bits agree within
    each group's mask and differ between the two; the remaining parties
    are free.  Any PPT separating cut, by the coefficient rule at
    ``threshold``, blocks distillation; the blocking cuts come in index
    order, each with side_one holding group_one, and only they are built.
    """
    sys = coeffs.system
    g1, g2 = disjoint_groups(sys, group_one, group_two)
    n = sys.num_parties
    bit = {l: 1 << (n - 1 - i) for i, l in enumerate(sys.labels)}
    mask1 = sum(bit[l] for l in g1)
    mask2 = sum(bit[l] for l in g2)
    everyone = frozenset(sys.labels)
    blocking = []
    for k in range(1, 1 << (n - 1)):
        bits = k << 1  # the last party's bit is 0
        on1, on2 = bits & mask1, bits & mask2
        if on1 not in (0, mask1) or on2 not in (0, mask2) or bool(on1) == bool(on2):
            continue
        if not _npt(coeffs, format(k, f"0{n - 1}b"), threshold):
            side = frozenset(l for l in sys.labels if bool(bits & bit[l]) == bool(on1))
            blocking.append(BipartiteCut(side, everyone - side))
    return DistillabilityVerdict(distillable=not blocking, blocking_cuts=tuple(blocking))


# ---------------------------------------------------------------------------
# localization of Schmidt-rank-2 entanglement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    party: str
    vector: np.ndarray
    probability: float


@dataclass(frozen=True)
class LocalizationResult:
    projections: tuple[Projection, ...]
    final_state: PureState  # balanced pair on (kept sender, kept receiver)
    sender_kept: str
    receiver_kept: str
    filter_probability: float
    success_probability: float  # projections and filter combined
    bystander_purities: dict[str, float]


def filter_to_maximally_entangled(phi: PureState) -> tuple[PureState, float]:
    """Local filter balancing a rank-2 two-party pure state.

    With Schmidt coefficients c1 >= c2 > 0 the filter diag(c2/c1, 1) in the
    Schmidt basis of the first party yields coefficients (1/sqrt(2),
    1/sqrt(2)) with success probability 2*c2**2.
    """
    if phi.system.num_parties != 2:
        raise DimensionMismatch("filtering needs a two-party state")
    cut = BipartiteCut.from_side(phi.system, [phi.system.labels[0]])
    sd = schmidt_decomposition(phi, cut)
    if sd.rank != 2:
        raise NotSchmidtRank2(f"Schmidt rank {sd.rank}, need exactly 2")
    c1, c2 = float(sd.coefficients[0]), float(sd.coefficients[1])
    u1, u2 = sd.left_vectors[:, 0], sd.left_vectors[:, 1]
    filt = (c2 / c1) * np.outer(u1, u1.conj()) + np.outer(u2, u2.conj())
    d_right = phi.system.dims[1]
    vec = np.kron(filt, linalg.identity(d_right)) @ phi.vector
    prob = float(np.linalg.norm(vec) ** 2)
    return PureState(phi.system, vec / np.linalg.norm(vec)), prob


def _branch_collapse(branch: np.ndarray, dims: tuple[int, ...], axis: int, onto: np.ndarray) -> np.ndarray:
    """<onto| applied to one party: the vector on the other parties, in system order."""
    pre = math.prod(dims[:axis])
    d = dims[axis]
    post = math.prod(dims[axis + 1 :])
    t = branch.reshape(pre, d, post)
    return np.einsum("k,ikj->ij", onto.conj(), t).reshape(-1)


def _project_vector(
    vector: np.ndarray, dims: tuple[int, ...], axis: int, onto: np.ndarray
) -> tuple[np.ndarray, float]:
    """Project one party onto |onto><onto|; returns (renormalized vector, probability)."""
    amp = _branch_collapse(vector, dims, axis, onto).reshape(math.prod(dims[:axis]), -1)
    prob = float(np.linalg.norm(amp) ** 2)
    if prob <= 0:
        return vector, 0.0
    collapsed = np.einsum("k,ij->ikj", onto, amp / np.linalg.norm(amp)).reshape(-1)
    return collapsed, prob


def _single_party_marginal(vector: np.ndarray, system: PartySystem, label: str) -> np.ndarray:
    rho = np.outer(vector, vector.conj())
    axes = [i for i, l in enumerate(system.labels) if l != label]
    return trace_out_axes(rho, system.dims, axes)


def _candidate_projectors(dim: int, rng: np.random.Generator):
    if dim == 2:
        yield np.array([1, 0], dtype=np.complex128)
        yield np.array([0, 1], dtype=np.complex128)
        yield np.array([1, 1], dtype=np.complex128) / math.sqrt(2)
        yield np.array([1, 1j], dtype=np.complex128) / math.sqrt(2)
    for _ in range(MAX_RANDOM_PROJECTORS):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        yield v / np.linalg.norm(v)


def _branches_distinct(b1: np.ndarray, b2: np.ndarray) -> bool:
    n1, n2 = np.linalg.norm(b1), np.linalg.norm(b2)
    if n1 < BRANCH_NORM_TOL or n2 < BRANCH_NORM_TOL:
        return False
    overlap = abs(np.vdot(b1, b2)) / (n1 * n2)
    if overlap >= 1 - BRANCH_DISTINCT_TOL:
        return False
    gram_det = (n1 * n2) ** 2 - abs(np.vdot(b1, b2)) ** 2
    return gram_det > BRANCH_DISTINCT_TOL * (n1 * n2) ** 2


def _side_branches(vector: np.ndarray, system: PartySystem, side: tuple[str, ...]):
    """Schmidt branches of the current state living on `side` (system order)."""
    phi = PureState(system, vector)
    sd = schmidt_decomposition(phi, BipartiteCut.from_side(system, side))
    if sd.rank != 2:
        raise LocalizationFailed(f"intermediate state has Schmidt rank {sd.rank}")
    return sd.left_vectors[:, 0], sd.left_vectors[:, 1], sd.left_labels


def _purity(m: np.ndarray) -> float:
    """tr(m m) of a density matrix."""
    return float(np.real(np.trace(m @ m)))


def _condition_i_holds(
    b1: np.ndarray, b2: np.ndarray, side_system: PartySystem, party: str
) -> bool:
    """Both branches factor as (state of `party`) x (one common state of the rest)."""
    axis = side_system.axis(party)
    m1 = trace_out_axes(np.outer(b1, b1.conj()), side_system.dims, [axis])
    m2 = trace_out_axes(np.outer(b2, b2.conj()), side_system.dims, [axis])
    if min(_purity(m1), _purity(m2)) < 1 - FACTORED_PURITY_TOL:
        return False
    return float(np.linalg.norm(m1 - m2)) <= BRANCH_DISTINCT_TOL


def _factor_side(
    vector: np.ndarray,
    system: PartySystem,
    side: tuple[str, ...],
    rng: np.random.Generator,
    log: list[Projection],
) -> tuple[np.ndarray, str]:
    """Project out parties of one side until a single one carries the branch pair."""
    remaining = list(side)
    while len(remaining) > 1:
        party = remaining[0]
        b1, b2, side_labels = _side_branches(vector, system, tuple(side))
        side_system = system.subsystem(side_labels)
        if _condition_i_holds(b1, b2, side_system, party):
            # `party` carries the whole branch distinction; every other
            # remaining party of this side is already factored as a group
            # and can be projected onto its own (pure) marginal.
            for other in remaining[1:]:
                marginal = _single_party_marginal(vector, system, other)
                vals, vecs = np.linalg.eigh(marginal)
                onto = vecs[:, -1]
                vector, prob = _project_vector(
                    vector, system.dims, system.axis(other), onto
                )
                log.append(Projection(party=other, vector=onto, probability=prob))
            return vector, party
        axis_in_side = side_system.axis(party)
        axis_in_full = system.axis(party)
        for onto in _candidate_projectors(system.dim_of(party), rng):
            c1 = _branch_collapse(b1, side_system.dims, axis_in_side, onto)
            c2 = _branch_collapse(b2, side_system.dims, axis_in_side, onto)
            if not _branches_distinct(c1, c2):
                continue
            vector, prob = _project_vector(vector, system.dims, axis_in_full, onto)
            log.append(Projection(party=party, vector=onto, probability=prob))
            remaining.remove(party)
            break
        else:
            raise LocalizationFailed(
                f"no projector kept the branches of {party!r} distinct"
            )
    return vector, remaining[0]


def localize_entanglement(
    phi: PureState,
    sender_group,
    receiver_group,
) -> LocalizationResult:
    """Concentrate a Schmidt-rank-2 state onto one sender/receiver pair.

    Senders are processed first in declared order, then receivers; each
    processed party is factored out by a rank-1 projector chosen so that the
    two Schmidt branches stay distinct (deterministic qubit candidates first,
    then seeded random ones).  When the branch distinction is carried
    entirely by the party under consideration, the procedure stops early on
    that side and the remaining parties are projected onto their already
    factored marginals.  A final local filter balances the surviving pair.
    """
    senders = tuple(sender_group)
    receivers = tuple(receiver_group)
    sys = phi.system
    s_set = sys.require(senders)
    r_set = sys.require(receivers)
    if s_set & r_set:
        raise OverlappingGroups(f"groups overlap: {sorted(s_set & r_set)}")
    if s_set | r_set != set(sys.labels):
        raise UnknownParty("sender and receiver groups must cover all parties")
    sd = schmidt_decomposition(phi, BipartiteCut(s_set, r_set))
    if sd.rank != 2:
        raise NotSchmidtRank2(f"Schmidt rank {sd.rank}, need exactly 2")

    rng = np.random.default_rng(_PROJECTOR_SEED)
    log: list[Projection] = []
    vector = phi.vector.copy()
    vector, sender_kept = _factor_side(vector, sys, senders, rng, log)
    vector, receiver_kept = _factor_side(vector, sys, receivers, rng, log)

    bystanders = [l for l in sys.labels if l not in (sender_kept, receiver_kept)]
    purities = {l: _purity(_single_party_marginal(vector, sys, l)) for l in bystanders}
    rho_full = np.outer(vector, vector.conj())
    traced_axes = [sys.axis(l) for l in bystanders]
    pair_rho = trace_out_axes(rho_full, sys.dims, traced_axes)
    vals, vecs = np.linalg.eigh(pair_rho)
    if vals[-1] < 1 - FACTORED_PURITY_TOL or min(purities.values(), default=1.0) < 1 - FACTORED_PURITY_TOL:
        raise LocalizationFailed("bystander parties did not factor out")
    kept_in_order = [l for l in sys.labels if l in (sender_kept, receiver_kept)]
    pair_system = sys.subsystem(kept_in_order)
    pair = PureState(pair_system, vecs[:, -1])
    if kept_in_order[0] != sender_kept:
        # cosmetic: list the sender first in the final pair
        perm = [1, 0]
        pair = PureState(
            PartySystem(
                (sender_kept, receiver_kept),
                (pair_system.dims[1], pair_system.dims[0]),
            ),
            permute_vector_parties(pair.vector, pair_system.dims, perm),
        )
    final, filter_prob = filter_to_maximally_entangled(pair)
    total = filter_prob
    for p in log:
        total *= p.probability
    return LocalizationResult(
        projections=tuple(log),
        final_state=final,
        sender_kept=sender_kept,
        receiver_kept=receiver_kept,
        filter_probability=filter_prob,
        success_probability=total,
        bystander_purities=purities,
    )

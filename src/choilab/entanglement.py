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

Inside the module a cut is its number k (the cut index j read in
binary), decoded from either form in one place (_cut_number); cut_side
gives the parties on its side without the last one.  No partial
transpose of an X-shaped state (GHZ-diagonal ones included) is built:
cut_min_eigenvalues solves every cut from one gather of the anti-diagonal
and keeps the values with the state, and ppt_check reads cut k there
whichever form names it.  The coefficient rule is one vector over the
cuts (npt_vector), which npt_criterion and pair_verdicts read.

The localization procedure turns a Schmidt-rank-2 pure state shared by a
sender group and a receiver group into a maximally entangled pair between
one sender and one receiver, using one rank-1 local projector per
factored-out party plus a final local filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


# Entries cut_min_eigenvalues gathers at once, as channels._OUTER_BATCH.
_GATHER_BATCH = 1 << 22


def _flip_map(dims: tuple[int, ...], axes) -> np.ndarray:
    """Where each flat index goes when the given axes of a dims-shaped array are reversed."""
    return np.flip(np.arange(math.prod(dims)).reshape(dims), tuple(axes)).ravel()


def cut_min_eigenvalues(state: MultipartiteState) -> np.ndarray:
    """Smallest partial-transpose eigenvalue of every cut of an X-shaped state.

    Entry k-1 is cut k (cut_to_index read as a number) with the side
    without the last party transposed.  Transposing the parties T moves
    entry (a, b) to ((b_T, a_R), (a_T, b_R)): the diagonal stays put and
    the anti-diagonal flips along the T axes, x -> x xor (k << 1) for
    qubits.  So all cuts are one gather and one stacked block solve (in
    batches of _GATHER_BATCH entries) that reads the entries of each dense
    partial transpose, bit for bit.  The read-only result is kept with the
    state.
    """
    if not state.x_shaped:
        raise DimensionMismatch("the cut spectra are read only from an X-shaped state")
    lows = state._cut_lows
    if lows is None:
        m, dims = state.matrix, state.system.dims
        n, d = len(dims), m.shape[0]
        anti = np.fliplr(m).diagonal()
        lows = np.empty((1 << (n - 1)) - 1)
        step = max(1, _GATHER_BATCH // d)
        for lo in range(0, len(lows), step):
            ks = np.arange(lo + 1, min(lo + step, len(lows)) + 1)
            if state.system.is_qubits():
                maps = np.arange(d) ^ (ks[:, None] << 1)
            else:
                sides = (map(state.system.axis, cut_side(state.system, k)) for k in ks.tolist())
                maps = np.stack([_flip_map(dims, side) for side in sides])
            lows[lo : lo + len(ks)] = linalg.x_min_eigenvalue(m.diagonal(), anti[maps])
        lows.setflags(write=False)
        object.__setattr__(state, "_cut_lows", lows)
    return lows


def ppt_check(
    state: MultipartiteState,
    cut: BipartiteCut | str,
    threshold: float = linalg.PSD_THRESHOLD,
) -> PtVerdict:
    """Eigensolver route: minimum eigenvalue of the partial transpose across a cut.

    The cut is a BipartiteCut or a cut index (see cut_to_index); either
    way cut_side of its number, the side without the last party, is the
    one transposed.  The other side has the same spectrum, but on a state
    Hermitian only within HERMITICITY_TOL not the same last bits, so one
    side per cut keeps both forms on the same bits.  An X-shaped state
    reads cut_min_eigenvalues, which solves all of its cuts on first use;
    any other state is transposed and solved densely.  The route reads
    matrix entries, never the GHZ coefficients, so it checks
    npt_criterion.
    """
    system = state.system
    k = _cut_number(cut, system)
    if state.x_shaped:
        low = float(cut_min_eigenvalues(state)[k - 1])
    else:
        cut = BipartiteCut.from_side(system, cut_side(system, k))
        low = linalg.min_eigenvalue(partial_transpose(state, cut), x_shaped=False)
    return PtVerdict(min_eigenvalue=low, is_ppt=low >= threshold)


def two_qubit_separability(state: MultipartiteState) -> bool:
    """Separability of a two-qubit state (PPT is necessary and sufficient in 2x2)."""
    if state.system.dims != (2, 2):
        raise DimensionMismatch(f"need a 2x2-qubit state, got dims {state.system.dims}")
    return ppt_check(state, "1").is_ppt


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
    # lambda_j - delta/2 in cut-index order, which npt_vector compares
    criterion_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lambdas = [self.lambdas[j] for j in all_cut_indices(self.system.num_parties)]
        object.__setattr__(self, "criterion_values", np.array(lambdas) - self.delta / 2)

    @property
    def ghz_diagonal(self) -> bool:
        """Whether the state counts as GHZ-diagonal: residual within GHZ_RESIDUAL_TOL."""
        return self.offdiagonal_residual <= GHZ_RESIDUAL_TOL


# num_parties -> all_cut_indices(num_parties), built once.
_CUT_INDICES: dict[int, tuple[str, ...]] = {}


def all_cut_indices(num_parties: int) -> tuple[str, ...]:
    """All nonzero (N-1)-bit strings in index order, one per bipartition of N parties."""
    js = _CUT_INDICES.get(num_parties)
    if js is None:
        n = num_parties - 1
        js = _CUT_INDICES[num_parties] = tuple(format(k, f"0{n}b") for k in range(1, 1 << n))
    return js


def cut_to_index(cut: BipartiteCut, system: PartySystem) -> str:
    """Bit string with j_i = 1 iff party i sits on the side without the last party."""
    return format(_cut_number(cut, system), f"0{system.num_parties - 1}b")


def _cut_number(cut: BipartiteCut | str, system: PartySystem) -> int:
    """The number k, 1 <= k < 2^(N-1), of a BipartiteCut or of a cut index (k in binary)."""
    if isinstance(cut, str):
        if len(cut) != system.num_parties - 1 or "1" not in cut or cut.strip("01"):
            raise UnknownParty(f"invalid cut index {cut!r} for {system.labels}")
        return int(cut, 2)
    cut.validate(system)
    with_last = cut.side_one if system.labels[-1] in cut.side_one else cut.side_two
    k = 0
    for l in system.labels[:-1]:
        k = 2 * k + (l not in with_last)
    return k


def cut_side(system: PartySystem, k: int) -> list[str]:
    """The side of cut k without the last party: party i < N-1 iff bit N-2-i of k is set."""
    n = system.num_parties
    return [l for i, l in enumerate(system.labels[:-1]) if k >> (n - 2 - i) & 1]


def index_to_cut(j: str, system: PartySystem) -> BipartiteCut:
    """Inverse of cut_to_index."""
    return BipartiteCut.from_side(system, cut_side(system, _cut_number(j, system)))


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
    plus, minus = mean + cross, mean - cross  # lambda_j^+ and lambda_j^- in the order of k
    lam_plus, lam_minus = float(plus[0]), float(minus[0])
    return GhzDiagonalCoefficients(
        system=sys,
        lambda0_plus=lam_plus,
        lambda0_minus=lam_minus,
        lambdas=dict(zip(all_cut_indices(n), ((plus[1:] + minus[1:]) / 2).tolist())),
        delta=abs(lam_plus - lam_minus),
        asymmetry_flag=bool((np.abs(plus[1:] - minus[1:]) > ASYMMETRY_TOL).any()),
        offdiagonal_residual=residual,
    )


def npt_vector(
    coeffs: GhzDiagonalCoefficients, threshold: float = linalg.PSD_THRESHOLD
) -> np.ndarray:
    """The coefficient rule lambda_j - delta/2 < threshold on every cut, in index order."""
    if not coeffs.ghz_diagonal:
        raise NotGhzDiagonal(
            f"off-diagonal residual {coeffs.offdiagonal_residual:.3e} exceeds "
            f"{GHZ_RESIDUAL_TOL:.1e}"
        )
    return coeffs.criterion_values < threshold


def npt_criterion(
    coeffs: GhzDiagonalCoefficients,
    cut: BipartiteCut | str,
    threshold: float = linalg.PSD_THRESHOLD,
) -> bool:
    """Coefficient route: the cut is NPT iff lambda_j - delta/2 < threshold.

    lambda_j - delta/2 is the smallest eigenvalue of the partial transpose
    across the cut, so with the eigensolver's threshold the two routes
    read the same number against the same bound; equality, and the exact
    boundary cases of the class, sit on the PPT side.  Requires the state
    to actually be GHZ-diagonal.
    """
    k = _cut_number(cut, coeffs.system)
    return bool(npt_vector(coeffs, threshold)[k - 1])


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


def pair_verdicts(
    coeffs: GhzDiagonalCoefficients,
    pairs,
    threshold: float = linalg.PSD_THRESHOLD,
) -> list[DistillabilityVerdict]:
    """pairwise_distillability of each (group_one, group_two) in ``pairs``.

    Cut k (cut_to_index read as a number, with the last party's bit 0
    appended) separates two groups iff its bits agree within each group's
    mask and differ between the two.  One (pairs, cuts) mask ANDed with
    the negated NPT vector gives the blocking cuts; only they are built,
    in index order, each with side_one holding group_one.
    """
    sys = coeffs.system
    n = sys.num_parties
    bit = {l: 1 << (n - 1 - i) for i, l in enumerate(sys.labels)}
    groups = [disjoint_groups(sys, *pair) for pair in pairs]
    masks = [[sum(bit[l] for l in g) for g in pair] for pair in groups]
    m1, m2 = np.array(masks, dtype=np.int64).reshape(-1, 2).T[..., None]
    on = np.arange(2, 1 << n, 2) & (m1 | m2)  # cut k's bits are k << 1 (last party 0)
    blocking = ((on == m1) | (on == m2)) & ~npt_vector(coeffs, threshold)
    everyone = frozenset(sys.labels)
    found = [[] for _ in masks]
    for p, col in zip(*(a.tolist() for a in np.nonzero(blocking))):
        side = frozenset(cut_side(sys, col + 1))
        if not groups[p][0] <= side:
            side = everyone - side
        found[p].append(BipartiteCut(side, everyone - side))
    return [DistillabilityVerdict(distillable=not f, blocking_cuts=tuple(f)) for f in found]


def pairwise_distillability(
    coeffs: GhzDiagonalCoefficients,
    group_one,
    group_two,
    threshold: float = linalg.PSD_THRESHOLD,
) -> DistillabilityVerdict:
    """Class rule: distillable between the groups iff every separating cut is NPT.

    A separating cut that is PPT by the coefficient rule at ``threshold``
    blocks; see pair_verdicts.
    """
    return pair_verdicts(coeffs, [(group_one, group_two)], threshold)[0]


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

"""PPT tests, GHZ-diagonal classification, and entanglement localization.

The classifier reads an N-qubit density operator in the GHZ basis
|Psi_j^pm> = (|j,0> pm |jbar,1>)/sqrt(2) and keeps its weights as two
vectors, plus[k] = lambda_j^+ and minus[k] = lambda_j^- with j read as
the number k.  The fingerprint (delta, {lambda_j}) is read from them on
demand: delta = |lambda_0^+ - lambda_0^-| and lambda_j the symmetrized
pair weight for j != 0, an array whose entry k-1 is cut k.  Bit-string
names are made only where a report prints them.  Each pair lives on the
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
binary), decoded from either form in one place (_cut_number);
states.cut_side gives the parties on its side without the last one, and
the pair verdicts report their blocking cuts as numbers.  No partial
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
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    LocalizationFailed,
    NotSchmidtRank2,
    OverlappingGroups,
    UnknownParty,
)
from .states import (
    BipartiteCut,
    MultipartiteState,
    PartySystem,
    PureState,
    cut_side,
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
        anti = m[:, ::-1].diagonal()
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


@dataclass(frozen=True, eq=False)
class GhzDiagonalCoefficients:
    """The GHZ-basis weights of an N-qubit state, from which (delta, {lambda_j}) is read.

    plus[k] and minus[k] are lambda_j^+ and lambda_j^- with the (N-1)-bit
    string j read as the number k, 0 <= k < 2^(N-1); everything else is
    derived from them, so the fingerprint has one stored form.
    """

    system: PartySystem
    plus: np.ndarray
    minus: np.ndarray
    offdiagonal_residual: float

    @property
    def delta(self) -> float:
        """|lambda_0^+ - lambda_0^-|."""
        return float(abs(self.plus[0] - self.minus[0]))

    @property
    def lambdas(self) -> np.ndarray:
        """The symmetrized pair weights (lambda_j^+ + lambda_j^-)/2; entry k-1 is cut k."""
        return (self.plus[1:] + self.minus[1:]) / 2

    @property
    def asymmetry_flag(self) -> bool:
        """Whether some pair j != 0 has |lambda_j^+ - lambda_j^-| > ASYMMETRY_TOL."""
        return bool((np.abs(self.plus[1:] - self.minus[1:]) > ASYMMETRY_TOL).any())

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


def ghz_diagonal_coefficients(state: MultipartiteState) -> GhzDiagonalCoefficients:
    """Read the GHZ-basis diagonal of an N-qubit state.

    Each pair |Psi_j^pm> spans the two computational kets a = |j,0> and
    b = |jbar,1>, so lambda_j^pm = (rho_aa + rho_bb)/2 pm Re rho_ab: the
    read touches 2^N entries and keeps the two read-only vectors plus and
    minus, indexed by j read as a number.  The fingerprint reads them:
    delta, the pair weights for j != 0 symmetrized as lambda_j =
    (lambda_j^+ + lambda_j^-)/2 (achievable by local operations), and a
    flag raised when a raw pair was asymmetric.  offdiagonal_residual is
    the Frobenius norm of the part of the state outside its GHZ diagonal,
    i.e. of rho minus its projection onto the 2^(N-1) (a, b) blocks, an
    O(4^N) pass over the matrix.
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
    residual = linalg.norm(off)
    plus, minus = mean + cross, mean - cross
    plus.setflags(write=False)
    minus.setflags(write=False)
    return GhzDiagonalCoefficients(sys, plus, minus, residual)


def npt_vector(
    coeffs: GhzDiagonalCoefficients, threshold: float = linalg.PSD_THRESHOLD
) -> np.ndarray:
    """The coefficient rule lambda_j - delta/2 < threshold on every cut, in index order."""
    if not coeffs.ghz_diagonal:
        raise DimensionMismatch(
            f"off-diagonal residual {coeffs.offdiagonal_residual:.3e} exceeds "
            f"{GHZ_RESIDUAL_TOL:.1e}"
        )
    return coeffs.lambdas - coeffs.delta / 2 < threshold


def npt_criterion(
    coeffs: GhzDiagonalCoefficients,
    cut: BipartiteCut | str,
    threshold: float = linalg.PSD_THRESHOLD,
) -> bool:
    """Coefficient route: the cut is NPT iff lambda_j - delta/2 < threshold.

    lambda_j - delta/2 is the smallest eigenvalue of the partial transpose
    across the cut, so with the eigensolver's threshold the two routes
    read the same number against the same bound; equality, and the exact
    boundary cases of the class, sit on the PPT side.  The vector is read
    from coeffs.plus and coeffs.minus on every call (npt_vector).  Requires
    the state to actually be GHZ-diagonal.
    """
    k = _cut_number(cut, coeffs.system)
    return bool(npt_vector(coeffs, threshold)[k - 1])


@dataclass(frozen=True)
class DistillabilityVerdict:
    """Distillable iff no separating cut is PPT.

    blocking_cuts are the numbers k of the PPT separating cuts, in index
    order; states.cut_name(system, k) names one.
    """

    distillable: bool
    blocking_cuts: tuple[int, ...]


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
    mask and differ between the two.  One (pairs, cuts) mask over the PPT
    cuts gives each pair's blocking cut numbers in index order, with the
    same dozen numpy calls for any number of pairs and parties and no cut
    object built.
    """
    sys = coeffs.system
    n = sys.num_parties
    bit = {l: 1 << (n - 1 - i) for i, l in enumerate(sys.labels)}
    rows = []
    for pair in pairs:
        g1, g2 = disjoint_groups(sys, *pair)
        a, b = sum(map(bit.get, g1)), sum(map(bit.get, g2))
        rows.append((a, b, a | b))
    # (pairs, 1) columns: the two group masks and their union
    m1, m2, both = np.array(rows, dtype=np.int64).reshape(-1, 3).T[:, :, None]
    # cut k's bits are k << 1 (last party 0); an NPT cut reads as every
    # bit set, whose restriction to a pair is both groups, so it blocks none
    codes = np.where(npt_vector(coeffs, threshold), -1, np.arange(2, 1 << n, 2))
    on = codes & both
    where_pair, where_cut = np.nonzero((on == m1) | (on == m2))
    found = [[] for _ in rows]
    for p, col in zip(where_pair.tolist(), where_cut.tolist()):
        found[p].append(col + 1)
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
    # filt (x) 1 acts on the vector as filt on its (left, right) reshape
    vec = (filt @ phi.vector.reshape(phi.system.dims)).reshape(-1)
    norm = linalg.norm(vec)
    return PureState(phi.system, vec / norm), norm**2


def _project_vector(
    vector: np.ndarray, dims: tuple[int, ...], axis: int, onto: np.ndarray
) -> tuple[np.ndarray, float]:
    """Project one party onto |onto><onto|; returns (renormalized vector, probability)."""
    t = vector.reshape(math.prod(dims[:axis]), dims[axis], -1)
    amp = np.einsum("k,ikj->ij", onto.conj(), t)  # <onto| on the party
    norm = linalg.norm(amp)
    prob = norm**2
    if prob <= 0:
        return vector, 0.0
    collapsed = np.einsum("k,ij->ikj", onto, amp / norm).reshape(-1)
    return collapsed, prob


def _marginal(rho: np.ndarray, system: PartySystem, keep) -> np.ndarray:
    """The reduced density matrix of the parties in ``keep``, in system order."""
    axes = [i for i, l in enumerate(system.labels) if l not in keep]
    return trace_out_axes(rho, system.dims, axes)


def _candidate_projectors(dim: int, rng: list[np.random.Generator]):
    """Rank-1 projector candidates: the fixed qubit ones, then seeded random ones.

    ``rng`` holds the call's seeded generator once the first random
    candidate has built it, so a search that never gets there builds none.
    """
    if dim == 2:
        yield np.array([1, 0], dtype=np.complex128)
        yield np.array([0, 1], dtype=np.complex128)
        yield np.array([1, 1], dtype=np.complex128) / math.sqrt(2)
        yield np.array([1, 1j], dtype=np.complex128) / math.sqrt(2)
    if not rng:
        rng.append(np.random.default_rng(_PROJECTOR_SEED))
    draw = rng[0].standard_normal
    for _ in range(MAX_RANDOM_PROJECTORS):
        v = draw(dim) + 1j * draw(dim)
        yield v / linalg.norm(v)


def _branches_distinct(b1: np.ndarray, b2: np.ndarray) -> bool:
    n1, n2 = linalg.norm(b1), linalg.norm(b2)
    if n1 < BRANCH_NORM_TOL or n2 < BRANCH_NORM_TOL:
        return False
    overlap = abs(np.vdot(b1, b2))
    if overlap / (n1 * n2) >= 1 - BRANCH_DISTINCT_TOL:
        return False
    gram_det = (n1 * n2) ** 2 - overlap**2
    return gram_det > BRANCH_DISTINCT_TOL * (n1 * n2) ** 2


def _side_branches(vector: np.ndarray, system: PartySystem, side: tuple[str, ...]):
    """The two Schmidt branches of the current state on `side` (system order), as rows."""
    phi = PureState(system, vector)
    sd = schmidt_decomposition(phi, BipartiteCut.from_side(system, side))
    if sd.rank != 2:
        raise LocalizationFailed(f"intermediate state has Schmidt rank {sd.rank}")
    return sd.left_vectors[:, :2].T, sd.left_labels


def _purity(m: np.ndarray) -> float:
    """tr(m m) of a density matrix."""
    return float(np.real(np.trace(m @ m)))


def _condition_i_holds(branches: np.ndarray) -> bool:
    """Both branches factor as (state of the party) x (one common state of the rest).

    ``branches`` is the (2, before, party, after) stack of the two.  Each,
    read as a (rest, party) matrix R, has R R^dagger as its marginal on the
    rest, so both marginals and their purities are one stack.
    """
    r = branches.transpose(0, 1, 3, 2).reshape(2, -1, branches.shape[2])
    m = r @ r.conj().transpose(0, 2, 1)
    if (m @ m).trace(axis1=1, axis2=2).real.min() < 1 - FACTORED_PURITY_TOL:
        return False
    return linalg.norm(m[0] - m[1]) <= BRANCH_DISTINCT_TOL


def _factor_side(
    vector: np.ndarray,
    system: PartySystem,
    side: tuple[str, ...],
    rng: list[np.random.Generator],
    log: list[Projection],
) -> tuple[np.ndarray, str]:
    """Project out parties of one side until a single one carries the branch pair."""
    remaining = list(side)
    while len(remaining) > 1:
        party = remaining[0]
        rows, side_labels = _side_branches(vector, system, tuple(side))
        side_system = system.subsystem(side_labels)
        axis = side_system.axis(party)
        dims = side_system.dims
        branches = rows.reshape(2, math.prod(dims[:axis]), dims[axis], -1)
        if _condition_i_holds(branches):
            # `party` carries the whole branch distinction; every other
            # remaining party of this side is already factored as a group
            # and can be projected onto its own (pure) marginal.
            for other in remaining[1:]:
                marginal = _marginal(np.outer(vector, vector.conj()), system, (other,))
                vals, vecs = np.linalg.eigh(marginal)
                onto = vecs[:, -1]
                vector, prob = _project_vector(
                    vector, system.dims, system.axis(other), onto
                )
                log.append(Projection(party=other, vector=onto, probability=prob))
            return vector, party
        for onto in _candidate_projectors(dims[axis], rng):
            # <onto| on `party` of both branches in one call
            c1, c2 = np.einsum("k,bikj->bij", onto.conj(), branches)
            if not _branches_distinct(c1, c2):
                continue
            vector, prob = _project_vector(vector, system.dims, system.axis(party), onto)
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

    # one seeded generator per call, built at its first random candidate
    # and shared by both sides, so the receivers continue the senders' draws
    rng: list[np.random.Generator] = []
    log: list[Projection] = []
    vector = phi.vector.copy()
    vector, sender_kept = _factor_side(vector, sys, senders, rng, log)
    vector, receiver_kept = _factor_side(vector, sys, receivers, rng, log)

    kept = (sender_kept, receiver_kept)
    rho = np.outer(vector, vector.conj())
    purities = {l: _purity(_marginal(rho, sys, (l,))) for l in sys.labels if l not in kept}
    vals, vecs = np.linalg.eigh(_marginal(rho, sys, kept))
    if vals[-1] < 1 - FACTORED_PURITY_TOL or min(purities.values(), default=1.0) < 1 - FACTORED_PURITY_TOL:
        raise LocalizationFailed("bystander parties did not factor out")
    kept_in_order = [l for l in sys.labels if l in kept]
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

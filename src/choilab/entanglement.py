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

ppt_check and npt_criterion take a cut as its number k (the cut index j
read in binary, 1 <= k < 2^(N-1)); states.cut_number gives the k of a
side, states.cut_side the parties on its side without the last one, and
the pair verdicts report their blocking cuts as numbers.
cut_min_eigenvalues keeps one table per state, any shape: it solves
every cut on first use and keeps the values with the state, and
ppt_check reads cut k there.  On a qubit X-shaped state (GHZ-diagonal
ones included) all cuts are one gather of the anti-diagonal, with no
partial transpose built; on any other state each cut's partial transpose
is built, X-shaped exactly when the state is, and linalg.min_eigenvalue
solves it by blocks or densely.
The coefficient rule is one vector over the cuts (npt_vector), which
npt_criterion and pair_verdicts read.  The localization code names a cut
by a side, as states.schmidt_decomposition takes it.

The localization procedure turns a Schmidt-rank-2 pure state shared by a
sender group and a receiver group into a maximally entangled pair between
one sender and one receiver, using one rank-1 local projector per
factored-out party plus a final local filter.  The state stays in the
Schmidt form that the rank check's one SVD gives, sum_i x_i (x) y_i with
two rows per side: a projector contracts a party out of its side's rows,
probabilities and marginals are read from 2x2 Gram matrices, and no
density matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ChoilabError
from .states import (
    MultipartiteState,
    PartySystem,
    PureState,
    cut_side,
    label_tuple,
    partial_transpose,
    require_cut,
    schmidt_decomposition,
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


def cut_min_eigenvalues(state: MultipartiteState) -> np.ndarray:
    """Smallest partial-transpose eigenvalue of every cut: one table per state, any shape.

    Entry k-1 is cut k with its side without the last party (cut_side)
    transposed.  Transposing the parties T moves entry (a, b) to
    ((b_T, a_R), (a_T, b_R)) and nothing else: the diagonal stays put and
    the anti-diagonal (b the digit-wise complement of a) maps to itself,
    x -> x xor (k << 1) for qubits.  So each cut's transpose is X-shaped
    exactly when the state is, and the state's flag stands for it.  On a
    qubit X-shaped state all cuts are one gather and one stacked block
    solve that reads the entries of each dense partial transpose, bit for
    bit.  Any other state is transposed cut by cut and linalg.min_eigenvalue
    solves each transpose, by its 2x2 blocks or densely.  The read-only
    result is kept with the state.
    """
    lows = state._cut_lows
    if lows is None:
        system, m = state.system, state.matrix
        ks = np.arange(1, 1 << (system.num_parties - 1))
        if state.x_shaped and system.is_qubits():
            anti = m[:, ::-1].diagonal()[np.arange(m.shape[0]) ^ (ks[:, None] << 1)]
            lows = linalg.x_min_eigenvalue(m.diagonal(), anti)
        else:
            pts = (partial_transpose(state, cut_side(system, k)) for k in ks.tolist())
            lows = np.array([linalg.min_eigenvalue(pt, state.x_shaped) for pt in pts])
        lows.setflags(write=False)
        object.__setattr__(state, "_cut_lows", lows)
    return lows


def ppt_check(
    state: MultipartiteState,
    k: int,
    threshold: float = linalg.PSD_THRESHOLD,
) -> PtVerdict:
    """Eigensolver route: minimum eigenvalue of the partial transpose across cut k.

    cut_side(system, k), the side without the last party, is the one
    transposed.  The other side has the same spectrum, but on a state
    Hermitian only within HERMITICITY_TOL not the same last bits, so one
    side per cut keeps both routes on the same bits.  The value is read
    from cut_min_eigenvalues, one table per state of any shape, solved for
    all cuts on first use.  The route reads matrix entries, never the GHZ
    coefficients, so it checks npt_criterion.
    """
    k = require_cut(state.system, k)
    low = float(cut_min_eigenvalues(state)[k - 1])
    return PtVerdict(min_eigenvalue=low, is_ppt=low >= threshold)


def two_qubit_separability(state: MultipartiteState) -> bool:
    """Separability of a two-qubit state (PPT is necessary and sufficient in 2x2)."""
    if state.system.dims != (2, 2):
        raise ChoilabError(f"need a 2x2-qubit state, got dims {state.system.dims}")
    return ppt_check(state, 1).is_ppt


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
        raise ChoilabError(f"classifier needs qubits, got dims {sys.dims}")
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
        raise ChoilabError(
            f"off-diagonal residual {coeffs.offdiagonal_residual:.3e} exceeds "
            f"{GHZ_RESIDUAL_TOL:.1e}"
        )
    return coeffs.lambdas - coeffs.delta / 2 < threshold


def npt_criterion(
    coeffs: GhzDiagonalCoefficients,
    k: int,
    threshold: float = linalg.PSD_THRESHOLD,
) -> bool:
    """Coefficient route: cut k is NPT iff lambda_j - delta/2 < threshold.

    lambda_j - delta/2 is the smallest eigenvalue of the partial transpose
    across the cut, so with the eigensolver's threshold the two routes
    read the same number against the same bound; equality, and the exact
    boundary cases of the class, sit on the PPT side.  The vector is read
    from coeffs.plus and coeffs.minus on every call (npt_vector).  Requires
    the state to actually be GHZ-diagonal.
    """
    k = require_cut(coeffs.system, k)
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
    """The two groups as label sets; each nonempty, known, without repeats and apart from the other."""
    groups = label_tuple(group_one), label_tuple(group_two)
    g1, g2 = map(system.require, groups)
    if len(g1) < len(groups[0]) or len(g2) < len(groups[1]):
        raise ChoilabError(f"a group lists a party twice: {groups[0]}, {groups[1]}")
    if g1 & g2:
        raise ChoilabError(f"groups overlap: {sorted(g1 & g2)}")
    if not g1 or not g2:
        raise ChoilabError("both groups must be nonempty")
    return g1, g2


def pair_verdicts(
    coeffs: GhzDiagonalCoefficients,
    pairs,
    threshold: float = linalg.PSD_THRESHOLD,
) -> list[DistillabilityVerdict]:
    """pairwise_distillability of each (group_one, group_two) in ``pairs``.

    Every pair is checked (disjoint_groups) before the NPT vector is read.
    A group is a mask with one bit per party, the first party most
    significant; cut k's bits are k << 1, the last party's bit 0 appended,
    as cut_side reads them.  The cut separates the groups (a, b) iff its
    bits restricted to a | b are exactly a or exactly b.  Each pair's
    blocking cuts are the PPT cuts that separate it, as numbers in index
    order, with no cut object built.
    """
    sys = coeffs.system
    n = sys.num_parties
    bit = {l: 1 << (n - 1 - i) for i, l in enumerate(sys.labels)}
    masks = []
    for pair in pairs:
        g1, g2 = disjoint_groups(sys, *pair)
        masks.append((sum(map(bit.get, g1)), sum(map(bit.get, g2))))
    ppt = [k for k, npt in enumerate(npt_vector(coeffs, threshold).tolist(), start=1) if not npt]
    verdicts = []
    for a, b in masks:
        blocking = tuple(k for k in ppt if (k << 1) & (a | b) in (a, b))
        verdicts.append(DistillabilityVerdict(distillable=not blocking, blocking_cuts=blocking))
    return verdicts


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


def filter_to_maximally_entangled(phi: PureState) -> tuple[PureState, float]:
    """Local filter balancing a rank-2 two-party pure state.

    With Schmidt coefficients c1 >= c2 > 0 the filter diag(c2/c1, 1) in the
    Schmidt basis of the first party yields coefficients (1/sqrt(2),
    1/sqrt(2)) with success probability 2*c2**2.
    """
    if phi.system.num_parties != 2:
        raise ChoilabError("filtering needs a two-party state")
    sd = schmidt_decomposition(phi, phi.system.labels[:1])
    if sd.rank != 2:
        raise ChoilabError(f"Schmidt rank {sd.rank}, need exactly 2")
    c1, c2 = float(sd.coefficients[0]), float(sd.coefficients[1])
    u1, u2 = sd.left_vectors[:, 0], sd.left_vectors[:, 1]
    filt = (c2 / c1) * np.outer(u1, u1.conj()) + np.outer(u2, u2.conj())
    # filt (x) 1 acts on the vector as filt on its (left, right) reshape
    vec = (filt @ phi.vector.reshape(phi.system.dims)).reshape(-1)
    norm = linalg.norm(vec)
    return PureState(phi.system, vec / norm), norm**2


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
    return abs(np.vdot(b1, b2)) / (n1 * n2) < 1 - BRANCH_DISTINCT_TOL


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


def _rows_at(rows: np.ndarray, dims: list[int], axis: int) -> np.ndarray:
    """Both rows of a side as a (2, before, party, after) stack at one of its parties."""
    return rows.reshape(2, math.prod(dims[:axis]), dims[axis], -1)


def _weight(rows: np.ndarray, other_gram: np.ndarray) -> float:
    """||sum_i x_i (x) y_i||^2 from one side's rows x and the 2x2 Gram matrix of the other's."""
    return float((rows @ rows.conj().T * other_gram).sum().real)


def _project(rows, labels, dims, party, onto, other_gram, log) -> np.ndarray:
    """<onto| on ``party`` in both rows, whose axis it contracts away, logged with its probability.

    The probability is ||sum_i x'_i (x) y_i||^2 / ||sum_i x_i (x) y_i||^2;
    ``labels`` and ``dims`` lose the party in place.
    """
    axis = labels.index(party)
    new = np.einsum("k,bikj->bij", onto.conj(), _rows_at(rows, dims, axis)).reshape(2, -1)
    prob = _weight(new, other_gram) / _weight(rows, other_gram)
    log.append(Projection(party=party, vector=onto, probability=prob))
    del labels[axis], dims[axis]
    return new


def _factor_side(rows, system, labels, order, other, rng, log) -> tuple[np.ndarray, str]:
    """Project out parties of one side, taken in ``order``, until one carries the branch pair.

    ``rows`` are the side's two branch rows over ``labels`` (system order),
    ``other`` the other side's; returns the rows on the kept party and its label.
    """
    labels = list(labels)
    dims = [system.dim_of(l) for l in labels]
    other_gram = other @ other.conj().T
    remaining = list(order)
    while len(remaining) > 1:
        party = remaining[0]
        axis = labels.index(party)
        # the tests read the rows at unit length, so each tolerance keeps its meaning
        unit = _rows_at(rows / np.linalg.norm(rows, axis=1, keepdims=True), dims, axis)
        if _condition_i_holds(unit):
            # `party` carries the whole branch distinction; every other
            # remaining party of this side is already factored as a group
            # and can be projected onto its own (pure) marginal, read from
            # the side's rows weighted by the other side's Gram matrix.
            for other_party in remaining[1:]:
                t = _rows_at(rows, dims, labels.index(other_party))
                marginal = np.einsum("iapb,jaqb,ij->pq", t, t.conj(), other_gram)
                onto = np.linalg.eigh(marginal)[1][:, -1]
                rows = _project(rows, labels, dims, other_party, onto, other_gram, log)
            return rows, party
        for onto in _candidate_projectors(dims[axis], rng):
            # <onto| on `party` of both unit rows in one call
            if _branches_distinct(*np.einsum("k,bikj->bij", onto.conj(), unit)):
                rows = _project(rows, labels, dims, party, onto, other_gram, log)
                remaining.remove(party)
                break
        else:
            raise ChoilabError(f"no projector kept the branches of {party!r} distinct")
    return rows, remaining[0]


def localize_entanglement(phi: PureState, sender_group, receiver_group) -> LocalizationResult:
    """Concentrate a Schmidt-rank-2 state onto one sender/receiver pair.

    The rank check's Schmidt decomposition across senders | receivers is
    the state for the whole call: phi = sum_i x_i (x) y_i with sender rows
    x_i = c_i u_i and receiver rows y_i = v_i.  Senders are processed first
    in declared order, then receivers; each processed party is factored out
    by a rank-1 projector chosen so that the two branches stay distinct
    (deterministic qubit candidates first, then seeded random ones), which
    contracts the party out of its side's rows.  When the branch
    distinction is carried entirely by the party under consideration, the
    procedure stops early on that side and the remaining parties are
    projected onto their already factored marginals.  The surviving pair is
    sum_i x_i (x) y_i on (sender, receiver), and a final local filter
    balances it.  The groups list distinct parties, apart from each other,
    and cover the system.
    """
    sys = phi.system
    senders, receivers = label_tuple(sender_group), label_tuple(receiver_group)
    s_set, r_set = disjoint_groups(sys, senders, receivers)
    if s_set | r_set != set(sys.labels):
        raise ChoilabError("sender and receiver groups must cover all parties")
    sd = schmidt_decomposition(phi, senders)
    if sd.rank != 2:
        raise ChoilabError(f"Schmidt rank {sd.rank}, need exactly 2")

    # one seeded generator per call, built at its first random candidate
    # and shared by both sides, so the receivers continue the senders' draws
    rng: list[np.random.Generator] = []
    log: list[Projection] = []
    x = sd.left_vectors[:, :2].T * sd.coefficients[:2, None]
    y = sd.right_vectors[:2]
    x, sender_kept = _factor_side(x, sys, sd.left_labels, senders, y, rng, log)
    y, receiver_kept = _factor_side(y, sys, sd.right_labels, receivers, x, rng, log)

    pair = (x.T @ y).reshape(-1)  # sum_i x_i (x) y_i
    kept = PartySystem((sender_kept, receiver_kept), (x.shape[1], y.shape[1]))
    final, filter_prob = filter_to_maximally_entangled(PureState(kept, pair / linalg.norm(pair)))
    return LocalizationResult(
        projections=tuple(log),
        final_state=final,
        sender_kept=sender_kept,
        receiver_kept=receiver_kept,
        filter_probability=filter_prob,
        success_probability=math.prod([filter_prob, *(p.probability for p in log)]),
    )

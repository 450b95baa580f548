"""Multipartite states with party bookkeeping.

A ``PartySystem`` is an ordered list of party labels with local dimensions;
computational-basis indices map big-endian (first party most significant).
``MultipartiteState`` wraps a validated, read-only density operator and
records whether it is X-shaped (see ``linalg``); ``PureState`` wraps a
unit vector.  A cut is named two ways.  Where only the cut matters it is
its number k, 1 <= k < 2^(N-1) (``require_cut``): the side without the
last party is read from the bits of k (``cut_side``), ``cut_name`` names
it, and ``cut_names`` is the table of every cut's name, entry k-1 for cut k.
Where an orientation matters it is a side, a collection of labels holding
some but not all parties: ``partial_transpose`` transposes those parties and
``schmidt_decomposition`` puts them on the left.  ``cut_number`` gives the
k of either side of a cut.  A GHZ basis element (``ghz_basis_state``) is
indexed the same way, by its (N-1)-bit string j read as the number k,
0 <= k < 2^(N-1), so no index is ever parsed from a string.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import ChoilabError

TRACE_TOL = 1e-10
PURE_NORM_TOL = 1e-12
SCHMIDT_RANK_TOL = 1e-9


@dataclass(frozen=True)
class PartySystem:
    """Ordered party labels with matching local dimensions.

    A label is a nonempty string with no ',' or ':' and no surrounding
    whitespace, so the CLI can name every party of a system.  A dimension is
    a Python or numpy int >= 2, never a bool, a float or a string.
    """

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", label_tuple(self.labels))
        for label in self.labels:
            # The CLI splits party lists on "," and group pairs on ":", and strips blanks.
            if not label or label != label.strip() or "," in label or ":" in label:
                raise ChoilabError(
                    f"party label {label!r} must be nonempty, without ',' or ':' "
                    "and without surrounding whitespace"
                )
        try:
            dims = tuple(self.dims)
        except TypeError:
            raise ChoilabError(f"dims {self.dims!r} must be a list of ints") from None
        for d in dims:
            if not linalg.is_int(d):
                raise ChoilabError(f"local dimension {d!r} must be an int")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if len(self.labels) != len(set(self.labels)):
            raise ChoilabError(f"duplicate party labels in {self.labels}")
        if len(self.labels) != len(self.dims):
            raise ChoilabError("labels and dims must have equal length")
        if not self.labels:
            raise ChoilabError("a system needs at least one party")
        if any(d < 2 for d in self.dims):
            raise ChoilabError(f"local dimensions must be >= 2, got {self.dims}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def num_parties(self) -> int:
        return len(self.labels)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ChoilabError(f"no party {label!r} in {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def require(self, labels: Iterable[str]) -> frozenset[str]:
        """The labels as a set, each a party of the system (a bare string is refused)."""
        got = frozenset(label_tuple(labels))
        unknown = got - set(self.labels)
        if unknown:
            raise ChoilabError(f"unknown parties {sorted(unknown)}; have {self.labels}")
        return got

    def subsystem(self, keep: Iterable[str]) -> "PartySystem":
        keep = self.require(keep)
        pairs = [(l, d) for l, d in zip(self.labels, self.dims) if l in keep]
        return PartySystem(tuple(l for l, _ in pairs), tuple(d for _, d in pairs))

    def is_qubits(self) -> bool:
        return all(d == 2 for d in self.dims)

    def reordered(self, order: Iterable[str]) -> tuple["PartySystem", list[int]]:
        """The system with its parties listed in ``order``, and the old axis of each new slot.

        ``order`` is any iterable of labels, read once.
        """
        order = label_tuple(order)
        self.require(order)
        if sorted(order) != sorted(self.labels):
            raise ChoilabError(f"{order} is not a permutation of {self.labels}")
        perm = [self.axis(l) for l in order]
        return PartySystem(order, tuple(self.dims[p] for p in perm)), perm


def label_tuple(labels: Iterable[str]) -> tuple[str, ...]:
    """A list of labels as a tuple, each a str; a bare string is refused, not read per character."""
    if isinstance(labels, str):
        raise ChoilabError(f"a list of labels is needed, not the string {labels!r}: "
                           f"write {[labels]!r}")
    try:
        got = tuple(labels)
    except TypeError:
        raise ChoilabError(f"a list of labels is needed, not {labels!r}") from None
    for label in got:
        if not isinstance(label, str):
            raise ChoilabError(f"party label {label!r} must be a string")
    return got


def require_cut(system: PartySystem, k: int) -> int:
    """k itself if it numbers a cut, 1 <= k < 2^(N-1), and is no bool; else ChoilabError."""
    n = system.num_parties
    if not linalg.is_int(k) or not 0 < k < 1 << (n - 1):
        raise ChoilabError(f"no cut number {k!r} for {system.labels}")
    return k


def cut_side(system: PartySystem, k: int) -> list[str]:
    """The side of cut k without the last party: party i < N-1 iff bit N-2-i of k is set."""
    k = require_cut(system, k)
    n = system.num_parties
    return [l for i, l in enumerate(system.labels[:-1]) if k >> (n - 2 - i) & 1]


def _side(system: PartySystem, side: Iterable[str]) -> frozenset[str]:
    """The labels of one side of a cut: known parties, some but not all of them."""
    got = system.require(side)
    if not got or len(got) == system.num_parties:
        raise ChoilabError(f"a cut side holds some but not all of {system.labels}, "
                           f"got {sorted(got)}")
    return got


def cut_number(system: PartySystem, side: Iterable[str]) -> int:
    """The number k of the cut with ``side`` on one side; either side gives it (inverse of cut_side)."""
    side = _side(system, side)
    flip = system.labels[-1] in side
    k = 0
    for l in system.labels[:-1]:
        k = 2 * k + ((l in side) != flip)
    return k


def cut_name(system: PartySystem, k: int) -> str:
    """Cut k named by its two sides.

    Both sides in system order, the side holding the first party first
    (``A,C | B``, never ``B | A,C``), so one cut reads the same wherever
    it is reported.
    """
    side = cut_side(system, k)
    first = system.labels[0] in side
    one = [l for l in system.labels if (l in side) is first]
    two = [l for l in system.labels if (l in side) is not first]
    return f"{','.join(one)} | {','.join(two)}"


@functools.lru_cache(maxsize=32)
def cut_names(system: PartySystem) -> tuple[str, ...]:
    """The name of every cut: entry k-1 is cut_name(system, k), as lambdas are indexed.

    Made once per system and kept for the 32 most recent systems, so a
    report that names a cut in its row and in blocking lists names it once.
    """
    return tuple(cut_name(system, k) for k in range(1, 1 << (system.num_parties - 1)))


@dataclass(frozen=True, eq=False)
class MultipartiteState:
    """Density operator with its party system; validated at construction.

    The state holds a read-only copy of the matrix it was given, so
    ``x_shaped``, the support test taken once during validation,
    ``min_eigenvalue``, the smallest eigenvalue that validation solved,
    and the cut spectra solved on first use stay true of it.
    """

    system: PartySystem
    matrix: np.ndarray
    psd_threshold: InitVar[float] = linalg.PSD_THRESHOLD
    x_shaped: bool = field(init=False)
    min_eigenvalue: float = field(init=False)
    # entanglement.cut_min_eigenvalues keeps its result here
    _cut_lows: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self, psd_threshold):
        psd_threshold = linalg.as_threshold(psd_threshold)
        m = linalg.as_matrix(self.matrix)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        d = self.system.total_dim
        if m.shape != (d, d):
            raise ChoilabError(f"matrix shape {m.shape} != system dimension {d}")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge entry reads as an inf defect
            defect = linalg.norm(m - m.conj().T)
        if defect > linalg.HERMITICITY_TOL:
            raise ChoilabError(f"hermiticity defect {defect:.3e}")
        tr = complex(m.trace())
        if abs(tr - 1.0) > TRACE_TOL:
            raise ChoilabError(f"trace {tr} is not 1 within {TRACE_TOL}")
        object.__setattr__(self, "x_shaped", linalg.is_x_shaped(m))
        low = linalg.min_eigenvalue(m, self.x_shaped)
        object.__setattr__(self, "min_eigenvalue", low)
        if low < psd_threshold:
            raise ChoilabError(f"min eigenvalue {low:.3e} below threshold {psd_threshold:.1e}")


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector with its party system; holds a read-only copy of the vector it was given."""

    system: PartySystem
    vector: np.ndarray

    def __post_init__(self):
        v = linalg.as_array(self.vector, 1, "vector")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        if v.shape != (self.system.total_dim,):
            raise ChoilabError(
                f"vector length {v.shape[0]} != system dimension {self.system.total_dim}"
            )
        norm = linalg.norm(v)
        if abs(norm - 1.0) > PURE_NORM_TOL:
            raise ChoilabError(f"vector norm {norm} is not 1 within {PURE_NORM_TOL}")

    def density(self) -> MultipartiteState:
        return MultipartiteState(self.system, np.outer(self.vector, self.vector.conj()))


# ---------------------------------------------------------------------------
# raw index gymnastics (shared with the channels module)
# ---------------------------------------------------------------------------


def _reorder(a: np.ndarray, shape: tuple[int, ...], axes: Sequence[int]) -> np.ndarray:
    """a read as a tensor of ``shape`` with its axes put in ``axes`` order: a fresh array of a's shape."""
    return np.ascontiguousarray(a.reshape(shape).transpose(axes)).reshape(a.shape)


def permute_matrix_parties(
    matrix: np.ndarray, dims: Sequence[int], perm: Sequence[int]
) -> np.ndarray:
    """Reorder the tensor factors of a (D x D) matrix; perm[i] = old axis of new slot i."""
    n = len(dims)
    return _reorder(matrix, tuple(dims) * 2, tuple(perm) + tuple(p + n for p in perm))


def permute_vector_parties(
    vector: np.ndarray, dims: Sequence[int], perm: Sequence[int]
) -> np.ndarray:
    return _reorder(vector, tuple(dims), tuple(perm))


def transpose_parties(matrix: np.ndarray, dims: Sequence[int], axes: Iterable[int]) -> np.ndarray:
    """Transpose the row/column indices of the given tensor factors only."""
    n = len(dims)
    order = list(range(2 * n))
    for ax in axes:
        order[ax], order[ax + n] = order[ax + n], order[ax]
    return _reorder(matrix, tuple(dims) * 2, order)


def trace_out_axes(matrix: np.ndarray, dims: Sequence[int], axes: Iterable[int]) -> np.ndarray:
    """Partial trace over the given tensor factors of a (D x D) matrix, or of each in a stack."""
    dims = list(dims)
    lead = matrix.shape[:-2]
    out = matrix
    for ax in sorted(axes, reverse=True):
        pre = math.prod(dims[:ax])
        d = dims[ax]
        post = math.prod(dims[ax + 1 :])
        out = out.reshape(*lead, pre, d, post, pre, d, post).trace(axis1=-5, axis2=-2)
        out = out.reshape(*lead, pre * post, pre * post)
        del dims[ax]
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def ghz_basis_state(system: PartySystem, k: int, sign: int) -> PureState:
    """GHZ-basis element (|j,0> + sign |jbar,1>)/sqrt(2) on an all-qubit system.

    The last party carries the reference bit; j indexes the first N-1
    parties and is given as the number k, 0 <= k < 2^(N-1), as
    GhzDiagonalCoefficients.plus and minus are indexed, and jbar is its
    bitwise complement.  So |j,0> sits at index 2k and |jbar,1> at
    2^N - 1 - 2k.  sign is 1 or -1, an int as k is (a bool or a float is
    refused).  Over all (k, sign) the family is an orthonormal basis of
    the N-qubit space.
    """
    if not system.is_qubits():
        raise ChoilabError("GHZ basis is defined for qubit systems only")
    n = system.num_parties
    if isinstance(k, str):
        literal = f"0b{k}" if k and set(k) <= {"0", "1"} else "a number such as 0b010"
        raise ChoilabError(f"the GHZ index is the number k, not the string {k!r}: "
                           f"write {literal}")
    if not linalg.is_int(k) or not 0 <= k < 1 << (n - 1):
        raise ChoilabError(f"no GHZ index {k!r} for {n} qubits: need 0 <= k < {1 << (n - 1)}")
    if not linalg.is_int(sign) or sign not in (1, -1):
        raise ChoilabError(f"sign must be 1 or -1, got {sign!r}")
    v = np.zeros(system.total_dim, dtype=np.complex128)
    v[2 * k] = 1 / math.sqrt(2)
    v[system.total_dim - 1 - 2 * k] = sign / math.sqrt(2)
    return PureState(system, v)


def max_entangled(d: int, labels: tuple[str, str] = ("A", "B")) -> PureState:
    """Maximally entangled pair (1/sqrt(d)) sum_k |k>|k> on two d-level parties."""
    system = PartySystem(labels, (d, d))
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1 / math.sqrt(d)
    return PureState(system, v)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def partial_transpose(state: MultipartiteState, side: Iterable[str]) -> np.ndarray:
    """Transpose the indices of the parties in ``side``; returns a raw matrix.

    The result is Hermitian with unit trace but need not be positive; its
    spectrum is independent of which side of the cut is transposed.
    """
    axes = [state.system.axis(l) for l in _side(state.system, side)]
    return transpose_parties(state.matrix, state.system.dims, axes)


def partial_trace(state: MultipartiteState, traced: Iterable[str]) -> MultipartiteState:
    """Trace out the given parties, keeping the remaining ones in order."""
    traced = state.system.require(traced)
    if traced == set(state.system.labels):
        raise ChoilabError("cannot trace out every party")
    axes = [state.system.axis(l) for l in traced]
    reduced = trace_out_axes(state.matrix, state.system.dims, axes)
    keep = [l for l in state.system.labels if l not in traced]
    return MultipartiteState(state.system.subsystem(keep), reduced)


def permute_parties(state: MultipartiteState, order: Iterable[str]) -> MultipartiteState:
    """Return the same state with parties listed in the requested order."""
    system, perm = state.system.reordered(order)
    return MultipartiteState(system, permute_matrix_parties(state.matrix, state.system.dims, perm))


def fidelity(phi: PureState, rho: MultipartiteState) -> float:
    """Quadratic form <phi|rho|phi>."""
    if phi.system.total_dim != rho.system.total_dim:
        raise ChoilabError(
            f"pure state dimension {phi.system.total_dim} != state dimension "
            f"{rho.system.total_dim}"
        )
    return float(np.real(phi.vector.conj() @ rho.matrix @ phi.vector))


class SchmidtDecomposition(NamedTuple):
    coefficients: np.ndarray  # descending, nonnegative
    left_vectors: np.ndarray  # columns, on the given side (in system order)
    right_vectors: np.ndarray  # rows, on the other side (in system order)
    left_labels: tuple[str, ...]
    right_labels: tuple[str, ...]

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.coefficients > SCHMIDT_RANK_TOL))


def schmidt_decomposition(phi: PureState, side: Iterable[str]) -> SchmidtDecomposition:
    """Bi-orthogonal expansion of phi across the cut with ``side`` on the left.

    phi = sum_i c_i  left[:, i] (x) right[i, :]  after grouping the parties of
    each side in system order; coefficients come back descending.
    """
    system = phi.system
    side = _side(system, side)
    left = [i for i, l in enumerate(system.labels) if l in side]
    right = [i for i, l in enumerate(system.labels) if l not in side]
    v = permute_vector_parties(phi.vector, system.dims, left + right)
    dl = math.prod(system.dims[i] for i in left)
    u, s, vh = np.linalg.svd(v.reshape(dl, -1), full_matrices=False)
    return SchmidtDecomposition(
        coefficients=s,
        left_vectors=u,
        right_vectors=vh,
        left_labels=tuple(system.labels[i] for i in left),
        right_labels=tuple(system.labels[i] for i in right),
    )

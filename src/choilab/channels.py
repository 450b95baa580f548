"""Kraus-form CPTP maps and the channel/state isomorphism.

A channel E(rho) = sum_k A_k rho A_k^dagger is stored as one
(K, d_out, d_in) array of its Kraus operators with declared input/output
party systems, so each step over the operators is a single numpy call.
Sums over the operators add the terms in the order k = 0, 1, ..., as a
loop over the operators would, so every result is bit-identical to it.
Its Choi state is obtained by sending the second half of a maximally
entangled pair through the channel,

    E_state = (1 (x) E) |Phi><Phi|,   |Phi> = (1/sqrt(d)) sum_k |k>|k>,

normalized to unit trace; a party order for the result names the
reference parties, split like the input or into qubits.  The inverse
direction (Choi -> Kraus) comes from the spectral decomposition of the
Choi matrix.  Channel equality is always action equality on a spanning
operator basis, never Kraus-list equality (gauge freedom).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import ChoilabError
from .states import (
    MultipartiteState,
    PartySystem,
    label_tuple,
    permute_matrix_parties,
    trace_out_axes,
)

COMPLETENESS_TOL = 1e-10
# |choi(mix(E_k, w_k)) - sum_k w_k choi(E_k)|, checked by the `mix` command.
MIX_LINEARITY_TOL = 1e-12
# |sum of mix weights - 1| allowed by `mix`.
WEIGHT_SUM_TOL = 1e-12
CHOI_RANK_CUTOFF = 1e-11
REF_MARGINAL_TOL = 1e-8


@dataclass(eq=False)
class KrausChannel:
    """A linear map in Kraus form; completeness is checked by verify_cptp.

    ``kraus`` may be given as any sequence of matrices; it is stored as a
    fresh, writable, C-contiguous complex128 array of shape
    (K, dim_out, dim_in), K >= 1, with finite entries.
    """

    name: str
    input_system: PartySystem
    output_system: PartySystem
    kraus: np.ndarray

    def __post_init__(self):
        shape = (self.output_system.total_dim, self.input_system.total_dim)
        try:
            ops = linalg.as_array(self.kraus, 3, "Kraus stack")
        except ChoilabError:  # ragged, not numbers, not finite or not a stack
            ops = None
        if ops is None or ops.shape[1:] != shape or not len(ops):
            ops = np.array(_checked_one_by_one(self.kraus, shape))
        self.kraus = ops

    @property
    def dim_in(self) -> int:
        return self.input_system.total_dim

    @property
    def dim_out(self) -> int:
        return self.output_system.total_dim


def _checked_one_by_one(kraus, shape: tuple[int, int]) -> list[np.ndarray]:
    """Each operator coerced and checked alone, so the first bad one names the error."""
    ops = [linalg.as_matrix(a) for a in kraus]
    if not ops:
        raise ChoilabError("a channel needs at least one Kraus operator")
    for a in ops:
        if a.shape != shape:
            raise ChoilabError(f"Kraus operator shape {a.shape}, expected {shape}")
    return ops


@dataclass(frozen=True)
class CptpReport:
    """Outcome of verify_cptp: each rule's number and its verdict."""

    trace_preserving_defect: float
    trace_preserving: bool  # defect <= COMPLETENESS_TOL
    choi_min_eigenvalue: float
    choi_positive: bool  # min eigenvalue >= the psd_threshold checked against
    # the unit-trace Choi matrix that was checked, (reference, output) order
    choi_matrix: np.ndarray = field(compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return self.trace_preserving and self.choi_positive


def completeness_defect(ch: KrausChannel) -> float:
    """Frobenius norm of sum_k A_k^dagger A_k - identity."""
    # A reduction over the leading axis adds 0 + P_0 + P_1 + ... in that
    # order, as a loop would; a BLAS product (V^dagger V) or einsum would
    # regroup the sum and change the last bits.
    # Huge entries overflow to an inf or nan defect, which fails the check.
    with np.errstate(over="ignore", invalid="ignore"):
        acc = np.add.reduce(ch.kraus.conj().transpose(0, 2, 1) @ ch.kraus, axis=0, initial=0)
        return linalg.norm(acc - linalg.identity(ch.dim_in))


# Complex entries of the outer products that choi_matrix forms at once (64 MiB).
_OUTER_BATCH = 1 << 22


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """Unit-trace Choi matrix with (reference, output) index order, not validated.

    It is sum_k v_k v_k^dagger / d_in with v_k[(i, o)] = A_k[o, i], added
    in the order k = 0, 1, ... (see completeness_defect).  The outer
    products are formed a batch at a time, each batch summed onto the
    running total in slot 0, so memory stays bounded for long Kraus lists.
    """
    k, d_out, d = ch.kraus.shape
    v = ch.kraus.transpose(0, 2, 1).reshape(k, d * d_out)
    step = max(1, _OUTER_BATCH // v.shape[1] ** 2)
    terms = np.zeros((min(k, step) + 1,) + (v.shape[1],) * 2, dtype=np.complex128)
    # Huge entries overflow to inf or nan entries, which validation refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, k, step):
            part = v[lo : lo + step]
            np.multiply(part[:, :, None], part.conj()[:, None, :], out=terms[1 : len(part) + 1])
            terms[0] = np.add.reduce(terms[: len(part) + 1], axis=0)
        return terms[0] / d


def verify_cptp(ch: KrausChannel, psd_threshold: float = linalg.PSD_THRESHOLD) -> CptpReport:
    """Report trace preservation (within COMPLETENESS_TOL) and Choi positivity.

    Complete positivity is automatic for genuine Kraus lists; the Choi check
    guards data loaded through the codec.
    """
    psd_threshold = linalg.as_threshold(psd_threshold)
    defect = completeness_defect(ch)
    e = choi_matrix(ch)
    # Huge Kraus entries overflow the Choi matrix, which then has no spectrum to check.
    choi_min = linalg.min_eigenvalue(e) if np.isfinite(e).all() else math.nan
    return CptpReport(
        trace_preserving_defect=defect,
        trace_preserving=defect <= COMPLETENESS_TOL,
        choi_min_eigenvalue=choi_min,
        choi_positive=choi_min >= psd_threshold,
        choi_matrix=e,
    )


def apply_matrix(ch: KrausChannel, mat: np.ndarray) -> np.ndarray:
    """Action of the channel on a raw input-space matrix (no state validation)."""
    mat = linalg.as_matrix(mat)
    if mat.shape != (ch.dim_in, ch.dim_in):
        raise ChoilabError(f"matrix shape {mat.shape}, channel input dim {ch.dim_in}")
    terms = ch.kraus @ mat @ ch.kraus.conj().transpose(0, 2, 1)
    return np.add.reduce(terms, axis=0, initial=0)  # in order, as in completeness_defect


def _reference_system(ch: KrausChannel, order: Sequence[str] | None) -> PartySystem:
    """The Choi state's reference parties, by the rule that ``choi`` states."""
    inputs = ch.input_system
    if order is None:
        return PartySystem(tuple(f"{l}_ref" for l in inputs.labels), inputs.dims)
    outputs = set(ch.output_system.labels)
    labels = tuple(l for l in order if l not in outputs)
    if len(labels) == inputs.num_parties:
        return PartySystem(labels, inputs.dims)
    if ch.dim_in == 2 ** len(labels):
        return PartySystem(labels, (2,) * len(labels))
    raise ChoilabError(
        f"cannot split input dimension {ch.dim_in} over reference labels {labels}"
    )


def choi(ch: KrausChannel, order: Sequence[str] | None = None) -> MultipartiteState:
    """Choi state of the channel, built and validated once.

    Without ``order`` the parties are (reference..., output...), with one
    reference party ``<label>_ref`` per input party.  ``order`` lists the
    parties of the result, e.g. to interleave reference and output parties;
    its labels that are not outputs name the reference parties.  They split
    the input dimension like the input parties when there are as many of
    them, and into qubits when the input dimension is 2^k for k of them;
    any other count raises ChoilabError.
    """
    if order is not None:
        order = label_tuple(order)
    reference = _reference_system(ch, order)
    system = PartySystem(
        reference.labels + ch.output_system.labels, reference.dims + ch.output_system.dims
    )
    matrix = choi_matrix(ch)
    if order is not None:
        ordered, perm = system.reordered(order)
        matrix = permute_matrix_parties(matrix, system.dims, perm)
        system = ordered
    return MultipartiteState(system, matrix)


def mix_weights(n: int, weights: Sequence[float] | None = None) -> list[float]:
    """The weights ``mix`` uses for n >= 1 channels: uniform by default.

    Given weights must number n, be finite and nonnegative, and sum to 1.
    """
    if not linalg.is_int(n) or n < 1:
        raise ChoilabError(f"mix weights need n >= 1 channels, got {n!r}")
    if weights is None:
        weights = [1.0 / n] * n
    try:
        count = len(weights)
    except TypeError:
        raise ChoilabError(f"weights {weights!r} must be a list of {n} numbers") from None
    if count != n:
        raise ChoilabError(f"{count} weights for {n} channels")
    w = []
    for x in weights:
        try:
            w.append(float(x))
        except (TypeError, ValueError, OverflowError):
            raise ChoilabError(f"weight {x!r} does not convert to a float") from None
    if not all(math.isfinite(x) for x in w):
        raise ChoilabError(f"non-finite weight in {w}")
    if any(x < 0 for x in w):
        raise ChoilabError(f"negative weight in {w}")
    if abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
        raise ChoilabError(f"weights sum to {sum(w)!r}, expected 1")
    return w


def mix(
    channels: Iterable[KrausChannel],
    weights: Sequence[float] | None = None,
    name: str | None = None,
) -> KrausChannel:
    """Classical mixture: concatenated Kraus lists scaled by sqrt(weight).

    ``channels`` is any iterable of ``KrausChannel``, read once.  The Choi
    state of the mixture is the weighted sum of the input Choi states, with
    the weights of ``mix_weights``; all channels must share input and
    output systems.
    """
    try:
        channels = tuple(channels)
    except TypeError:
        raise ChoilabError(f"a list of channels is needed, not {channels!r}") from None
    for ch in channels:
        if not isinstance(ch, KrausChannel):
            raise ChoilabError(f"{ch!r} is not a KrausChannel")
    w = mix_weights(len(channels), weights)
    first = channels[0]
    for ch in channels[1:]:
        if (
            ch.input_system != first.input_system
            or ch.output_system != first.output_system
        ):
            raise ChoilabError(f"channel {ch.name!r} has a different input/output system")
    ops = np.concatenate([math.sqrt(x) * ch.kraus for ch, x in zip(channels, w)])
    if name is None:
        name = "mix(" + "+".join(ch.name for ch in channels) + ")"
    return KrausChannel(name, first.input_system, first.output_system, ops)


def kraus_from_choi(
    choi_state: MultipartiteState,
    reference: Sequence[str],
    outputs: Sequence[str],
) -> KrausChannel:
    """Recover a Kraus representation from a Choi state.

    ``reference`` / ``outputs`` split the Choi parties; the reference
    parties become the input system of the channel "from_choi", and their
    marginal must be maximally mixed (trace-preserving case).  Kraus
    operators come from the scaled eigenvectors of the Choi matrix;
    eigenvalues at most CHOI_RANK_CUTOFF are dropped.
    """
    sys = choi_state.system
    ref = label_tuple(reference)
    out = label_tuple(outputs)
    ordered, perm = sys.reordered(ref + out)
    matrix = permute_matrix_parties(choi_state.matrix, sys.dims, perm)
    input_system = ordered.subsystem(ref)
    output_system = ordered.subsystem(out)
    d_ref, d_out = input_system.total_dim, output_system.total_dim
    vals, vecs = np.linalg.eigh(matrix)
    if vals[0] < linalg.PSD_THRESHOLD:
        raise ChoilabError(f"Choi min eigenvalue {vals[0]:.3e}")
    marginal = trace_out_axes(matrix, (d_ref, d_out), [1])
    if linalg.norm(marginal - linalg.identity(d_ref) / d_ref) > REF_MARGINAL_TOL:
        raise ChoilabError("reference marginal of the Choi state is not maximally mixed")
    keep = vals > CHOI_RANK_CUTOFF
    # Eigenvector v of the (reference, output) matrix is the operator A[o, i] = v[(i, o)].
    ops = vecs.T[keep].reshape(-1, d_ref, d_out).transpose(0, 2, 1)
    ops = np.sqrt(vals[keep] * d_ref)[:, None, None] * ops
    return KrausChannel("from_choi", input_system, output_system, ops)

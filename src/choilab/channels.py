"""Kraus-form CPTP maps and the channel/state isomorphism.

A channel E(rho) = sum_k A_k rho A_k^dagger is stored as its Kraus list
with declared input/output party systems.  Its Choi state is obtained by
sending the second half of a maximally entangled pair through the channel,

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
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    BadWeights,
    DimensionMismatch,
    NothingLeft,
    NotPSD,
    NotTracePreserving,
    SystemMismatch,
)
from .states import (
    MultipartiteState,
    PartySystem,
    permute_matrix_parties,
    permute_parties,
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
    """A linear map in Kraus form; completeness is checked by verify_cptp."""

    name: str
    input_system: PartySystem
    output_system: PartySystem
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(linalg.as_matrix(a) for a in self.kraus)
        if not ops:
            raise DimensionMismatch("a channel needs at least one Kraus operator")
        shape = (self.output_system.total_dim, self.input_system.total_dim)
        for a in ops:
            if a.shape != shape:
                raise DimensionMismatch(f"Kraus operator shape {a.shape}, expected {shape}")
        self.kraus = ops

    @property
    def dim_in(self) -> int:
        return self.input_system.total_dim

    @property
    def dim_out(self) -> int:
        return self.output_system.total_dim


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
    acc = sum(a.conj().T @ a for a in ch.kraus)
    return float(np.linalg.norm(acc - linalg.identity(ch.dim_in)))


def _choi_matrix(ch: KrausChannel) -> np.ndarray:
    """Unit-trace Choi matrix with (reference, output) index order."""
    d = ch.dim_in
    e = np.zeros((d * ch.dim_out,) * 2, dtype=np.complex128)
    for a in ch.kraus:
        v = a.T.reshape(-1)  # v[(i, o)] = A[o, i]
        e += np.outer(v, v.conj())
    return e / d


def verify_cptp(ch: KrausChannel, psd_threshold: float = linalg.PSD_THRESHOLD) -> CptpReport:
    """Report trace preservation (within COMPLETENESS_TOL) and Choi positivity.

    Complete positivity is automatic for genuine Kraus lists; the Choi check
    guards data loaded through the codec.
    """
    defect = completeness_defect(ch)
    e = _choi_matrix(ch)
    choi_min = linalg.min_eigenvalue(e)
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
        raise DimensionMismatch(f"matrix shape {mat.shape}, channel input dim {ch.dim_in}")
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=np.complex128)
    for a in ch.kraus:
        out += a @ mat @ a.conj().T
    return out


def apply(ch: KrausChannel, rho: MultipartiteState) -> MultipartiteState:
    """Send a density operator through the channel."""
    if rho.system.total_dim != ch.dim_in:
        raise DimensionMismatch(
            f"state dimension {rho.system.total_dim} != channel input dim {ch.dim_in}"
        )
    return MultipartiteState(ch.output_system, apply_matrix(ch, rho.matrix))


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
    raise DimensionMismatch(
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
    any other count raises DimensionMismatch.
    """
    reference = _reference_system(ch, order)
    clash = set(reference.labels) & set(ch.output_system.labels)
    if clash:
        raise DimensionMismatch(f"reference labels collide with output labels: {sorted(clash)}")
    system = PartySystem(
        reference.labels + ch.output_system.labels, reference.dims + ch.output_system.dims
    )
    matrix = _choi_matrix(ch)
    if order is not None:
        ordered, perm = system.reordered(order)
        matrix = permute_matrix_parties(matrix, system.dims, perm)
        system = ordered
    return MultipartiteState(system, matrix)


def choi_apply(choi_state: MultipartiteState, reference: Sequence[str], mat: np.ndarray) -> np.ndarray:
    """Channel action reconstructed from a Choi state: d * Tr_ref[(mat^T (x) 1) E].

    The Choi state must have its reference parties listed first, in the given
    order; used as the independent contraction oracle for `apply`.
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


def mix_weights(n: int, weights: Sequence[float] | None = None) -> list[float]:
    """The weights ``mix`` uses for n >= 1 channels: uniform by default.

    Given weights must number n, be finite and nonnegative, and sum to 1.
    """
    if weights is None:
        weights = [1.0 / n] * n
    if len(weights) != n:
        raise BadWeights(f"{len(weights)} weights for {n} channels")
    w = [float(x) for x in weights]
    if not all(math.isfinite(x) for x in w):
        raise BadWeights(f"non-finite weight in {w}")
    if any(x < 0 for x in w):
        raise BadWeights(f"negative weight in {w}")
    if abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
        raise BadWeights(f"weights sum to {sum(w)!r}, expected 1")
    return w


def mix(
    channels: Sequence[KrausChannel],
    weights: Sequence[float] | None = None,
    name: str | None = None,
) -> KrausChannel:
    """Classical mixture: concatenated Kraus lists scaled by sqrt(weight).

    The Choi state of the mixture is the weighted sum of the input Choi
    states, with the weights of ``mix_weights``; all channels must share
    input and output systems.
    """
    if not channels:
        raise BadWeights("mix needs at least one channel")
    first = channels[0]
    for ch in channels[1:]:
        if (
            ch.input_system != first.input_system
            or ch.output_system != first.output_system
        ):
            raise SystemMismatch(f"channel {ch.name!r} has a different input/output system")
    ops = []
    for ch, x in zip(channels, mix_weights(len(channels), weights)):
        scale = math.sqrt(x)
        ops.extend(scale * a for a in ch.kraus)
    if name is None:
        name = "mix(" + "+".join(ch.name for ch in channels) + ")"
    return KrausChannel(name, first.input_system, first.output_system, tuple(ops))


def reduced_channel(ch: KrausChannel, traced_outputs: Sequence[str] | frozenset[str]) -> KrausChannel:
    """Compose the channel with a trace over some of its output parties."""
    traced = ch.output_system.require(traced_outputs)
    if traced == set(ch.output_system.labels):
        raise NothingLeft("cannot trace out the whole output")
    keep = [l for l in ch.output_system.labels if l not in traced]
    axes = [ch.output_system.axis(l) for l in traced]
    out_dims = ch.output_system.dims
    d_keep = math.prod(ch.output_system.dim_of(l) for l in keep)
    d_traced = ch.dim_out // d_keep
    ops = []
    for a in ch.kraus:
        t = a.reshape(out_dims + (ch.dim_in,))
        t = np.moveaxis(t, axes, range(len(axes)))
        t = t.reshape(d_traced, d_keep, ch.dim_in)
        ops.extend(np.ascontiguousarray(t[i]) for i in range(d_traced))
    return KrausChannel(
        f"{ch.name}/traced({','.join(sorted(traced))})",
        ch.input_system,
        ch.output_system.subsystem(keep),
        tuple(ops),
    )


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
    ref = tuple(reference)
    out = tuple(outputs)
    if sorted(ref + out) != sorted(sys.labels):
        raise DimensionMismatch(
            f"reference {ref} + outputs {out} must partition {sys.labels}"
        )
    ordered = permute_parties(choi_state, ref + out)
    d_ref = math.prod(sys.dim_of(l) for l in ref)
    d_out = math.prod(sys.dim_of(l) for l in out)
    vals, vecs = np.linalg.eigh(ordered.matrix)
    if vals[0] < linalg.PSD_THRESHOLD:
        raise NotPSD(f"Choi min eigenvalue {vals[0]:.3e}")
    marginal = trace_out_axes(ordered.matrix, (d_ref, d_out), [1])
    if np.linalg.norm(marginal - linalg.identity(d_ref) / d_ref) > REF_MARGINAL_TOL:
        raise NotTracePreserving("reference marginal of the Choi state is not maximally mixed")
    ops = []
    for val, vec in zip(vals, vecs.T):
        if val <= CHOI_RANK_CUTOFF:
            continue
        ops.append(math.sqrt(val * d_ref) * vec.reshape(d_ref, d_out).T)
    input_system = PartySystem(ref, tuple(sys.dim_of(l) for l in ref))
    output_system = PartySystem(out, tuple(sys.dim_of(l) for l in out))
    return KrausChannel("from_choi", input_system, output_system, tuple(ops))

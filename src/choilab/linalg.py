"""Dense complex matrix helpers for small operator algebra.

All matrices in this package are plain ``numpy.ndarray`` objects of dtype
``complex128``.  The helpers here add the conventions everything downstream
relies on: finiteness validation, the Hermiticity and positivity
tolerances, the smallest eigenvalue, and the standard Pauli constructors
(sigma1 = X, sigma2 = Y, sigma3 = Z, sigma_pm = (sigma1 -/+ i*sigma2)/2).

The smallest eigenvalue takes one of two exact routes.  An X-shaped matrix
(even dimension d, every nonzero entry on the diagonal or the
anti-diagonal) is a permutation of d/2 Hermitian 2x2 blocks on the index
pairs (x, d-1-x); GHZ-diagonal states and all their partial transposes
have this shape.  ``is_x_shaped`` is the exact O(d^2) support test, and
``x_min_eigenvalue`` solves the blocks in closed form in O(d) from the
diagonal and the anti-diagonal alone (or a stack of anti-diagonals, one
value each), so a caller that already holds those vectors (the partial
transposes of an X-shaped state, say) needs no matrix.
``min_eigenvalue`` composes the two; every other matrix goes to LAPACK's
dense ``eigvalsh``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Absolute Frobenius tolerance for "is Hermitian".
HERMITICITY_TOL = 1e-10
# A Hermitian matrix counts as positive semidefinite iff min eigenvalue >= this.
PSD_THRESHOLD = -1e-9


def as_matrix(entries) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array (no NaN/Inf admitted)."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch("matrix contains non-finite entries")
    return m


def as_vector(entries) -> np.ndarray:
    """Coerce to a finite 1-D complex128 array."""
    v = np.asarray(entries, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch("vector contains non-finite entries")
    return v


def is_x_shaped(m: np.ndarray) -> bool:
    """Whether every nonzero entry of the square matrix lies on its diagonal or anti-diagonal.

    The test is exact and needs an even dimension, so a single off-X entry
    of any size, or an odd dimension, answers False.
    """
    if m.shape[0] % 2:
        return False
    on_x = np.count_nonzero(m.diagonal()) + np.count_nonzero(np.fliplr(m).diagonal())
    return bool(np.count_nonzero(m) == on_x)


def x_min_eigenvalue(diag: np.ndarray, anti: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of the X-shaped Hermitian matrix with this diagonal and anti-diagonal.

    diag[i] = m[i, i] and anti[i] = m[i, d-1-i].  With y = d-1-x the block
    [[p, conj(q)], [q, r]], p = m[x,x], r = m[y,y], q = m[y,x] (the lower
    triangle), has the smaller eigenvalue (p+r)/2 - hypot((p-r)/2, |q|).
    A (rows, d) stack of anti-diagonals gives one value per row.
    """
    h = diag.shape[0] // 2
    hp = 0.5 * diag[:h].real  # p/2 = m[x, x]/2 for x = 0 .. h-1
    hr = 0.5 * diag[::-1][:h].real  # r/2 = m[y, y]/2
    # q = m[y, x] = anti[..., y], read reversed: numpy's complex abs runs a
    # SIMD kernel on forward strides and a scalar one on reversed strides,
    # and the two can differ in the last bit.  Both reads below are
    # reversed 1-D views, so every caller stays on the scalar kernel; a
    # stack is read as one flat view, rows last to first, because the
    # iterator would run a reversed 2-D view forward.
    if anti.ndim == 1:
        absq = np.abs(anti[::-1][:h])
    else:
        absq = np.abs(np.ravel(anti[:, h:])[::-1]).reshape(-1, h)[::-1]
    low = (hp + hr - np.hypot(hp - hr, absq)).min(axis=-1)
    return float(low) if anti.ndim == 1 else low


def min_eigenvalue(m: np.ndarray, x_shaped: bool | None = None) -> float:
    """Smallest eigenvalue of a Hermitian matrix (only its lower triangle is read).

    X-shaped matrices are solved block by block, every other one densely.
    ``x_shaped`` is ``is_x_shaped(m)`` when the caller already holds it;
    the support test runs only when it is None.
    """
    if x_shaped is None:
        x_shaped = is_x_shaped(m)
    if x_shaped:
        return x_min_eigenvalue(m.diagonal(), np.fliplr(m).diagonal())
    return float(np.linalg.eigvalsh(m)[0])


def _const(rows) -> np.ndarray:
    m = np.array(rows, dtype=np.complex128)
    m.setflags(write=False)
    return m


sigma0 = _const([[1, 0], [0, 1]])
sigma1 = _const([[0, 1], [1, 0]])
sigma2 = _const([[0, -1j], [1j, 0]])
sigma3 = _const([[1, 0], [0, -1]])
# sigma_pm = (sigma1 -/+ i*sigma2)/2, so sigma_plus = |1><0| and sigma_minus = |0><1|.
sigma_plus = _const([[0, 0], [1, 0]])
sigma_minus = _const([[0, 1], [0, 0]])

PAULIS = (sigma0, sigma1, sigma2, sigma3)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)

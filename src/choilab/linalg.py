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
have this shape, and their spectra come from the blocks in closed form in
O(d) after an O(d^2) support test.  Every other matrix goes to LAPACK's
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


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (only its lower triangle is read).

    X-shaped matrices are solved block by block: with y = d-1-x the block
    [[p, conj(q)], [q, r]], p = m[x,x], r = m[y,y], q = m[y,x], has the
    smaller eigenvalue (p+r)/2 - hypot((p-r)/2, |q|).  The support test is
    exact, so a single off-X entry of any size sends the matrix to the
    dense solver.
    """
    d = m.shape[0]
    diag = m.diagonal()
    anti = np.fliplr(m).diagonal()  # anti[i] = m[i, d-1-i]
    if d % 2 == 0 and np.count_nonzero(m) == np.count_nonzero(diag) + np.count_nonzero(anti):
        h = d // 2
        p = diag[:h].real  # m[x, x] for x = 0 .. h-1
        r = diag[::-1][:h].real  # m[y, y]
        q = anti[::-1][:h]  # m[y, x], the lower-triangle half of the pair
        return float(np.min(0.5 * p + 0.5 * r - np.hypot(0.5 * p - 0.5 * r, np.abs(q))))
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

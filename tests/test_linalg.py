import numpy as np
import pytest

from choilab import linalg
from choilab.errors import DimensionMismatch
from choilab.linalg import min_eigenvalue, sigma1, sigma2, sigma_minus, sigma_plus


def test_kron_sigma1_sigma2_hand_expansion():
    # hand expansion of the 2x2 definitions: antidiagonal (-i, i, -i, i) top to bottom
    expected = np.array(
        [
            [0, 0, 0, -1j],
            [0, 0, 1j, 0],
            [0, -1j, 0, 0],
            [1j, 0, 0, 0],
        ]
    )
    assert np.allclose(np.kron(sigma1, sigma2), expected, atol=0)


def test_sigma_plus_minus():
    assert np.array_equal(sigma_plus.conj().T, sigma_minus)
    assert np.array_equal(sigma_plus, (sigma1 - 1j * sigma2) / 2)
    assert np.array_equal(sigma_minus, (sigma1 + 1j * sigma2) / 2)


def test_min_eigenvalue_diagonal_and_pauli():
    assert min_eigenvalue(np.diag([3.0, 1.0, 2.0])) == 1
    assert abs(min_eigenvalue(sigma1) + 1) < 1e-15


@pytest.mark.parametrize("dim", [2, 5, 8, 16])
def test_min_eigenvalue_random(dim):
    # a Hermitian matrix with a known spectrum: U diag(vals) U^dagger
    rng = np.random.default_rng(dim)
    for _ in range(5):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = np.linalg.qr(g)
        vals = rng.standard_normal(dim)
        m = u @ np.diag(vals) @ u.conj().T
        assert abs(min_eigenvalue(m) - vals.min()) < 1e-12


def test_nonfinite_entries_rejected():
    with pytest.raises(DimensionMismatch):
        linalg.as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(DimensionMismatch):
        linalg.as_matrix([[np.inf * 1j, 0], [0, 1]])

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choilab import linalg
from choilab.channels import KrausChannel
from choilab.errors import ChoilabError
from choilab.linalg import min_eigenvalue, sigma1, sigma2, sigma_minus, sigma_plus
from choilab.states import MultipartiteState, PartySystem, PureState


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
    with pytest.raises(ChoilabError, match="^matrix contains non-finite entries$"):
        linalg.as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ChoilabError, match="^matrix contains non-finite entries$"):
        linalg.as_matrix([[np.inf * 1j, 0], [0, 1]])
    with pytest.raises(ChoilabError, match="^vector contains non-finite entries$"):
        linalg.as_array([1, np.nan], 1, "vector")
    with pytest.raises(ChoilabError, match="^expected a 1-D vector, got ndim=2$"):
        linalg.as_array([[1, 0]], 1, "vector")


_QUBIT = PartySystem(("A",), (2,))
# Each builder takes one bad matrix (its first row where it wants a vector).
_BUILDERS = {
    "as_matrix": (linalg.as_matrix, "matrix"),
    "MultipartiteState": (lambda rows: MultipartiteState(_QUBIT, rows), "matrix"),
    "PureState": (lambda rows: PureState(_QUBIT, rows[0]), "vector"),
    "KrausChannel": (lambda rows: KrausChannel("t", _QUBIT, _QUBIT, [rows]), "matrix"),
}


@pytest.mark.parametrize("builder", sorted(_BUILDERS))
@pytest.mark.parametrize(
    "rows, reason",
    [
        ([[10**400, 0], [0, 1]], "int too large to convert to float"),
        ([["a", 0], [0, 1]], "complex() arg is a malformed string"),
        ([[1, [0]], [0]], "setting an array element with a sequence"),
        # numpy would read these three as numbers
        ([["1", "0"], ["0", "1"]], "it holds a str or bytes entry"),
        ([[b"1", 0], [0, 1]], "it holds a str or bytes entry"),
        ([[2**70, "1"], [0, 1]], "it holds a str or bytes entry"),
    ],
    ids=["huge-int", "string", "ragged", "numeric-string", "bytes", "string-beside-huge-int"],
)
def test_numbers_numpy_cannot_read_are_refused(builder, rows, reason):
    build, what = _BUILDERS[builder]
    with pytest.raises(ChoilabError, match=f"^{what} is not an array of numbers: {re.escape(reason)}"):
        build(rows)


def test_as_array_copies_into_c_order():
    given = np.asfortranarray(np.arange(6, dtype=np.complex128).reshape(2, 3))
    m = linalg.as_matrix(given)
    assert m.flags.c_contiguous and m.flags.writeable and np.array_equal(m, given)
    given[0, 0] = 9
    assert m[0, 0] == 0


def x_shaped(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random Hermitian matrix supported on the diagonal and the anti-diagonal.

    Each 2x2 block on (x, d-1-x) is drawn as a generic block, a zero block,
    a multiple of the identity (a repeated eigenvalue) or an integer rank-1
    block (an exact zero eigenvalue).
    """
    m = np.zeros((d, d), dtype=np.complex128)
    for x in range(d // 2):
        y = d - 1 - x
        kind = rng.integers(4)
        if kind == 0:
            p, r = rng.standard_normal(2)
            q = complex(*rng.standard_normal(2))
        elif kind == 1:
            p = r = q = 0
        elif kind == 2:
            p = r = rng.standard_normal()
            q = 0
        else:
            a, b = rng.integers(-3, 4, size=2)
            p, r, q = a * a, b * b, complex(b * a)
        m[x, x], m[y, y], m[y, x], m[x, y] = p, r, q, np.conj(q)
    return m


@settings(max_examples=150)
@given(half=st.integers(1, 128), seed=st.integers(0, 2**32 - 1))
def test_min_eigenvalue_x_shaped_matches_dense(half, seed):
    m = x_shaped(np.random.default_rng(seed), 2 * half)
    dense = float(np.linalg.eigvalsh(m)[0])
    assert abs(min_eigenvalue(m) - dense) <= 1e-12 * np.linalg.norm(m)


@settings(max_examples=60)
@given(
    half=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
    value=st.sampled_from((1e-300, 1e-12, 0.5, 1e300)),
    mirrored=st.booleans(),
)
def test_min_eigenvalue_one_off_x_entry_is_dense(half, seed, value, mirrored):
    # negative control: one entry off the X sends the matrix to eigvalsh, bit for bit
    rng = np.random.default_rng(seed)
    d = 2 * half
    m = x_shaped(rng, d)
    while True:
        i, j = (int(v) for v in rng.integers(d, size=2))
        if i > j and i + j != d - 1:
            break
    m[i, j] = value
    if mirrored:
        m[j, i] = value
    assert min_eigenvalue(m) == float(np.linalg.eigvalsh(m)[0])


@pytest.mark.parametrize("d", [1, 3, 5, 9])
def test_min_eigenvalue_odd_dimension_is_dense(d):
    # X-shaped with positive 2x2 blocks around a zero centre: the centre is
    # the 1x1 block that pairs with itself, and the smallest eigenvalue is 0
    rng = np.random.default_rng(d)
    m = np.diag(1 + rng.random(d)).astype(np.complex128)
    m[d // 2, d // 2] = 0
    for x in range(d // 2):
        m[d - 1 - x, x] = m[x, d - 1 - x] = 0.25
    assert min_eigenvalue(m) == float(np.linalg.eigvalsh(m)[0])


def test_x_shaped_takes_no_dense_solve(monkeypatch):
    def refuse(m):
        raise AssertionError("dense eigvalsh called on an X-shaped matrix")

    m = x_shaped(np.random.default_rng(5), 256)
    want = float(np.linalg.eigvalsh(m)[0])
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert abs(min_eigenvalue(m) - want) <= 1e-12 * np.linalg.norm(m)


@given(
    shape=st.sampled_from([(1,), (7,), (16,), (4, 4), (16, 16), (3, 5)]),
    transposed=st.booleans(),
    scale=st.sampled_from([1e-200, 1.0, 1e150, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_norm_has_the_bits_of_numpy_norm(shape, transposed, scale, seed):
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if transposed:
        x = x.T  # a view in Fortran order
    with np.errstate(over="ignore"):
        got, want = linalg.norm(x), float(np.linalg.norm(x))
    assert isinstance(got, float)
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_threshold_past_the_float_range_is_refused():
    # float() of an int past the float range raises OverflowError, not a value
    big = 10**400
    with pytest.raises(ChoilabError, match=f"^threshold {big} must be a finite real number$"):
        linalg.as_threshold(big)

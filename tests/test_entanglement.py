import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from choilab import entanglement, linalg
from choilab.entanglement import (
    ASYMMETRY_TOL,
    GhzDiagonalCoefficients,
    all_cut_indices,
    cut_min_eigenvalues,
    filter_to_maximally_entangled,
    ghz_diagonal_coefficients,
    npt_criterion,
    npt_vector,
    pair_verdicts,
    pairwise_distillability,
    ppt_check,
    two_qubit_separability,
)
from choilab.errors import (
    DimensionMismatch,
    NotSchmidtRank2,
    OverlappingGroups,
    UnknownParty,
)
from choilab.linalg import PSD_THRESHOLD
from choilab.states import (
    MultipartiteState,
    PartySystem,
    PureState,
    cut_name,
    cut_number,
    cut_side,
    ghz_basis_state,
    max_entangled,
    partial_transpose,
)

from conftest import (
    complement,
    flip_route_min_eigenvalue,
    ghz_diagonal_state,
    index_side,
    random_density_matrix,
    random_ghz_diagonal_state,
    random_state,
    random_x_state,
    same_bits,
    walk_blocking_cuts,
)


def qubits(*labels):
    return PartySystem(tuple(labels), (2,) * len(labels))


def weight(c: GhzDiagonalCoefficients, j: str) -> float:
    """lambda_j of the cut index j: entry k-1 of c.lambdas, k being j read as a number."""
    return float(c.lambdas[int(j, 2) - 1])


def separable_product_mixture(rng, system, terms=6):
    m = np.zeros((system.total_dim, system.total_dim), dtype=complex)
    weights = rng.random(terms)
    weights /= weights.sum()
    for w in weights:
        factors = [random_density_matrix(rng, d) for d in system.dims]
        prod = factors[0]
        for f in factors[1:]:
            prod = np.kron(prod, f)
        m += w * prod
    return MultipartiteState(system, m)


class TestPptCheck:
    def test_scenario_facts(self, scenario_states, four_qubits):
        assert ppt_check(scenario_states["E1"], cut_number(four_qubits, ["B"])).is_ppt
        assert ppt_check(scenario_states["E1"], 0b010).is_ppt
        assert not ppt_check(scenario_states["mix"], cut_number(four_qubits, ["A1", "A2"])).is_ppt

    def test_separable_mixture_always_ppt(self, four_qubits):
        rng = np.random.default_rng(21)
        rho = separable_product_mixture(rng, four_qubits)
        for k in range(1, 8):
            assert ppt_check(rho, k).is_ppt

    def test_complement_cut_same_spectrum(self, four_qubits):
        rng = np.random.default_rng(22)
        for _ in range(10):
            rho = random_state(rng, four_qubits)
            for k in range(1, 8):
                other = complement(index_side(k, four_qubits), four_qubits)
                a = ppt_check(rho, k).min_eigenvalue
                b = float(np.linalg.eigvalsh(partial_transpose(rho, other))[0])
                assert abs(a - b) < 1e-10


    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_ghz_diagonal_matches_dense_eigvalsh(self, n, symmetric):
        # GHZ-diagonal partial transposes are X-shaped, so ppt_check solves
        # them block by block; the dense solver is the oracle
        rng = np.random.default_rng(100 * n + symmetric)
        system = qubits(*(f"Q{i}" for i in range(n)))
        rho = random_ghz_diagonal_state(rng, system, symmetric=symmetric)
        d = system.total_dim
        for k in range(1, 1 << (n - 1)):
            pt = partial_transpose(rho, index_side(k, system))
            on_x = np.count_nonzero(pt.diagonal()) + np.count_nonzero(np.fliplr(pt).diagonal())
            assert np.count_nonzero(pt) == on_x and d % 2 == 0
            dense = float(np.linalg.eigvalsh(pt)[0])
            assert abs(ppt_check(rho, k).min_eigenvalue - dense) <= 1e-12


def with_one_off_x_entry(rng, rho: MultipartiteState) -> MultipartiteState:
    """rho plus one Hermitian pair off the X, kept positive by a matching diagonal."""
    d = rho.system.total_dim
    while True:
        i, j = (int(v) for v in rng.integers(d, size=2))
        if i != j and i + j != d - 1:
            break
    eps = 0.05 * np.exp(2j * np.pi * rng.random())
    m = rho.matrix.copy()
    m[i, j] += eps
    m[j, i] += np.conj(eps)
    m[i, i] += abs(eps)
    m[j, j] += abs(eps)
    return MultipartiteState(rho.system, m / np.trace(m).real)


X_STATE_DIMS = ((2, 3), (3, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (4, 3), (2, 2, 2))


@settings(max_examples=40)
@given(
    kind=st.sampled_from(("symmetric", "asymmetric", "x-shaped")),
    off_x=st.booleans(),
    n=st.integers(2, 7),
    dims=st.sampled_from(X_STATE_DIMS),
    seed=st.integers(0, 2**32 - 1),
)
def test_ppt_check_matches_dense_partial_transpose(kind, off_x, n, dims, seed):
    # Oracle: the dense partial transpose and LAPACK's eigvalsh, on every
    # side of every cut.  On an X-shaped state the value must also equal,
    # bit for bit, the block solve of the dense partial transpose of the
    # side without the last party (the same entries are read); off the X
    # it must equal eigvalsh of that transpose bit for bit.
    rng = np.random.default_rng(seed)
    if kind in ("symmetric", "asymmetric"):
        system = qubits(*(f"Q{i}" for i in range(n)))
        rho = random_ghz_diagonal_state(rng, system, symmetric=kind == "symmetric")
    else:
        system = PartySystem(tuple(f"P{i}" for i in range(len(dims))), dims)
        rho = random_x_state(rng, system)
    if off_x:
        rho = with_one_off_x_entry(rng, rho)
    assert rho.x_shaped is not off_x
    for size in range(1, system.num_parties):
        for side in itertools.combinations(system.labels, size):
            k = cut_number(system, side)
            pt = partial_transpose(rho, index_side(k, system))
            dense = float(np.linalg.eigvalsh(pt)[0])
            got = ppt_check(rho, k).min_eigenvalue
            assert abs(got - dense) <= 1e-12, (side, got, dense)
            named = float(np.linalg.eigvalsh(partial_transpose(rho, side))[0])
            assert abs(got - named) <= 1e-12, (side, got, named)
            if rho.x_shaped:
                assert got == linalg.min_eigenvalue(pt), side
            else:
                assert got == dense, side


def with_inexact_anti_diagonal(rng, rho: MultipartiteState) -> MultipartiteState:
    """rho with m[x, d-1-x], x < d/2, off the conjugate of its partner by ~1e-13 relative.

    Such a state still validates (HERMITICITY_TOL is 1e-10), but transposing
    one side of a cut or the other reads different last bits.
    """
    m = rho.matrix.copy()
    d = m.shape[0]
    x = np.arange(d // 2)
    m[x, d - 1 - x] *= 1 + 1e-13 * rng.standard_normal(d // 2)
    return MultipartiteState(rho.system, m)


def test_both_sides_of_a_cut_read_the_same_bits():
    # On states Hermitian only within HERMITICITY_TOL the two sides of a
    # cut transpose to different last bits.  Either side gives the one cut
    # number k, and ppt_check of k transposes the side without the last
    # party, on the X route and (with one entry off the X) on the dense
    # route.
    rng = np.random.default_rng(13)
    system = qubits(*(f"Q{i}" for i in range(5)))
    other_side_differs = 0
    for _ in range(5):
        rho = with_inexact_anti_diagonal(rng, random_ghz_diagonal_state(rng, system))
        dense = with_one_off_x_entry(rng, rho)
        for k in range(1, 16):
            side = index_side(k, system)
            other = complement(side, system)
            assert cut_number(system, side) == cut_number(system, other) == k
            want = cut_min_eigenvalues(rho)[k - 1]
            assert same_bits(ppt_check(rho, k).min_eigenvalue, want), k
            assert same_bits(flip_route_min_eigenvalue(rho, side), want), k
            pt = partial_transpose(dense, side)
            assert same_bits(ppt_check(dense, k).min_eigenvalue, linalg.min_eigenvalue(pt)), k
            other_side_differs += not same_bits(flip_route_min_eigenvalue(rho, other), want)
    assert other_side_differs  # the other side's own transpose does read other bits


# States on fixed dims: one party (no cut at all), qudits among qubits,
# odd local dims.  Each is drawn X-shaped, and all but (2,) also dense (a
# 2x2 matrix is always X-shaped).
GATHER_DIMS = {
    "dims-2": (2,),
    "dims-4": (4,),
    "dims-2-4-2": (2, 4, 2),
    "dims-2-3-2-2": (2, 3, 2, 2),
    "dims-2-3-2": (2, 3, 2),
    "dims-3-2": (3, 2),
}
DENSE_DIMS = {f"dense-{kind}": dims for kind, dims in GATHER_DIMS.items() if dims != (2,)}


@settings(max_examples=60)
@given(
    kind=st.sampled_from(("symmetric", "asymmetric", "x-shaped", "dense", *GATHER_DIMS, *DENSE_DIMS)),
    n=st.integers(2, 7),
    inexact=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="dims-2", n=2, inexact=True, seed=1)
@example(kind="dims-4", n=2, inexact=True, seed=2)
@example(kind="dims-2-3-2-2", n=2, inexact=False, seed=3)
@example(kind="dims-2-3-2-2", n=2, inexact=True, seed=4)
@example(kind="dense", n=5, inexact=True, seed=5)
@example(kind="dense-dims-2-3-2", n=2, inexact=False, seed=6)
@example(kind="dense-dims-3-2", n=2, inexact=True, seed=7)
def test_every_cut_from_one_gather(kind, n, inexact, seed):
    # Oracles, bit for bit on the side without the last party: the per-cut
    # flip route on an X-shaped state, and on any other state the dense
    # solve of its own partial transpose (ppt_check's former dense branch).
    # Then the dense partial transpose of either side with eigvalsh within
    # 1e-12.  One party has no cut: its spectra are empty.  Dense qubit
    # states have N = 2-5 parties.
    rng = np.random.default_rng(seed)
    dense = kind.startswith("dense")
    dims = GATHER_DIMS.get(kind) or DENSE_DIMS.get(kind) or (2,) * (min(n, 5) if dense else n)
    system = PartySystem(tuple(f"P{i}" for i in range(len(dims))), dims)
    if dense:
        rho = random_state(rng, system)
    elif kind in ("symmetric", "asymmetric"):
        rho = random_ghz_diagonal_state(rng, system, symmetric=kind == "symmetric")
    else:
        rho = random_x_state(rng, system)
    if inexact:
        rho = with_inexact_anti_diagonal(rng, rho)
    assert rho.x_shaped is not dense
    lows = cut_min_eigenvalues(rho)
    assert lows.shape == (2 ** (system.num_parties - 1) - 1,) and not lows.flags.writeable
    assert lows.dtype == np.float64
    if system.num_parties == 1:
        with pytest.raises(UnknownParty):
            ppt_check(rho, 1)
    sides = [index_side(k, system) for k in range(1, len(lows) + 1)]
    for k, side in enumerate(sides, start=1):
        if dense:
            want = linalg.min_eigenvalue(partial_transpose(rho, side), x_shaped=False)
        else:
            want = flip_route_min_eigenvalue(rho, side)
        assert same_bits(lows[k - 1], want), k
    # Solved once: every later read, by either function, is of the kept table.
    unused = AssertionError("a cut was solved again")
    with (
        mock.patch.object(entanglement, "partial_transpose", side_effect=unused),
        mock.patch.object(linalg, "min_eigenvalue", side_effect=unused),
        mock.patch.object(linalg, "x_min_eigenvalue", side_effect=unused),
    ):
        assert cut_min_eigenvalues(rho) is lows
        got = [ppt_check(rho, k).min_eigenvalue for k in range(1, len(lows) + 1)]
    for k, side in enumerate(sides, start=1):
        assert same_bits(got[k - 1], lows[k - 1]), k
        for s in (side, complement(side, system)):
            eig = float(np.linalg.eigvalsh(partial_transpose(rho, s))[0])
            assert abs(got[k - 1] - eig) <= 1e-12, (k, s)


@settings(max_examples=60)
@given(
    dims=st.lists(st.integers(2, 4), min_size=2, max_size=4).filter(lambda d: math.prod(d) <= 64),
    kind=st.sampled_from(("x-shaped", "one-off-x", "dense")),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_partial_transpose_keeps_the_x_shape(dims, kind, data, seed):
    # cut_min_eigenvalues hands every cut's transpose the state's own flag:
    # a partial transpose moves the diagonal and the anti-diagonal onto
    # themselves, so it is X-shaped exactly when the state is (an odd
    # dimension is never X-shaped).
    rng = np.random.default_rng(seed)
    system = PartySystem(tuple(f"P{i}" for i in range(len(dims))), dims)
    if kind == "dense":
        rho = random_state(rng, system)
    else:
        rho = random_x_state(rng, system)
        if kind == "one-off-x":
            rho = with_one_off_x_entry(rng, rho)
    side = data.draw(
        st.lists(st.sampled_from(system.labels), min_size=1, max_size=len(dims) - 1, unique=True)
    )
    assert linalg.is_x_shaped(partial_transpose(rho, side)) == rho.x_shaped
    assert rho.x_shaped is (kind == "x-shaped" and system.total_dim % 2 == 0)


class TestTwoQubitSeparability:
    def test_classical_mixture_is_separable(self):
        sys = qubits("A", "B")
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.5
        assert two_qubit_separability(MultipartiteState(sys, m))

    def test_bell_state_is_entangled(self):
        assert not two_qubit_separability(max_entangled(2).density())

    def test_werner_half_is_entangled(self):
        phi = max_entangled(2)
        m = 0.5 * phi.density().matrix + 0.5 * np.eye(4) / 4
        rho = MultipartiteState(phi.system, m)
        assert not two_qubit_separability(rho)
        # brute-force oracle: the PT spectrum bottoms out at 1/8 - 1/4
        k = cut_number(phi.system, ["A"])
        assert abs(ppt_check(rho, k).min_eigenvalue - (0.125 - 0.25)) < 1e-12

    def test_dimension_gate(self):
        rho = MultipartiteState(PartySystem(("A", "B"), (2, 3)), np.eye(6) / 6)
        with pytest.raises(DimensionMismatch):
            two_qubit_separability(rho)


class TestClassifier:
    def test_channel_one_coefficients(self, scenario_states):
        c = ghz_diagonal_coefficients(scenario_states["E1"])
        assert abs(c.delta - 2 / 16) < 1e-14
        assert abs(c.plus[0] - 3 / 16) < 1e-14
        assert abs(c.minus[0] - 1 / 16) < 1e-14
        assert abs(weight(c, "101")) < 1e-14
        for j in ("001", "010", "011", "100", "110", "111"):
            assert abs(weight(c, j) - 1 / 16) < 1e-14
        assert c.offdiagonal_residual < 1e-12
        assert not c.asymmetry_flag

    def test_mixture_coefficients(self, scenario_states):
        c = ghz_diagonal_coefficients(scenario_states["mix"])
        assert abs(c.delta - 1 / 8) < 1e-14
        for j in ("101", "010", "111"):
            assert abs(weight(c, j) - 1 / 24) < 1e-14
        for j in ("001", "011", "100", "110"):
            assert abs(weight(c, j) - 1 / 16) < 1e-14

    def test_pure_reference_state(self, four_qubits):
        from choilab.states import ghz_basis_state

        rho = ghz_basis_state(four_qubits, 0, 1).density()
        c = ghz_diagonal_coefficients(rho)
        assert abs(c.plus[0] - 1) < 1e-14
        assert abs(c.delta - 1) < 1e-14
        assert c.lambdas.shape == (7,)
        assert all(abs(v) < 1e-14 for v in c.lambdas)

    def test_normalization_invariant(self, four_qubits):
        rng = np.random.default_rng(23)
        for _ in range(10):
            rho = random_ghz_diagonal_state(rng, four_qubits)
            c = ghz_diagonal_coefficients(rho)
            total = c.plus[0] + c.minus[0] + 2 * sum(c.lambdas)
            assert abs(total - 1) < 1e-10
            assert c.offdiagonal_residual < 1e-12

    def test_asymmetry_flag(self, four_qubits):
        from choilab.states import ghz_basis_state

        plus = ghz_basis_state(four_qubits, 0b011, 1).vector
        minus = ghz_basis_state(four_qubits, 0b011, -1).vector
        m = 0.75 * np.outer(plus, plus.conj()) + 0.25 * np.outer(minus, minus.conj())
        c = ghz_diagonal_coefficients(MultipartiteState(four_qubits, m))
        assert c.asymmetry_flag
        assert abs(weight(c, "011") - 0.5) < 1e-14

    def test_requires_qubits(self):
        rho = MultipartiteState(PartySystem(("A", "B"), (3, 3)), np.eye(9) / 9)
        with pytest.raises(DimensionMismatch):
            ghz_diagonal_coefficients(rho)


def dense_ghz_diagonal_coefficients(state: MultipartiteState) -> GhzDiagonalCoefficients:
    """Reference read: project onto all 2^N dense GHZ vectors, O(8^N)."""
    sys = state.system
    n = sys.num_parties
    diag = np.zeros_like(state.matrix)
    raw = {}
    for k in range(1 << (n - 1)):
        for sign in (1, -1):
            v = ghz_basis_state(sys, k, sign).vector
            val = float(np.real(v.conj() @ state.matrix @ v))
            raw[(k, sign)] = val
            diag += val * np.outer(v, v.conj())
    return GhzDiagonalCoefficients(
        system=sys,
        plus=np.array([raw[key] for key in raw if key[1] == 1]),
        minus=np.array([raw[key] for key in raw if key[1] == -1]),
        offdiagonal_residual=float(np.linalg.norm(state.matrix - diag)),
    )


class TestBlockReadAgainstDenseOracle:
    @settings(max_examples=90)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(("general", "ghz", "asymmetric")),
    )
    def test_every_field_matches(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        system = qubits(*(f"Q{i}" for i in range(n)))
        if kind == "general":
            rho = random_state(rng, system)
        else:
            rho = random_ghz_diagonal_state(rng, system, symmetric=kind == "ghz")
        got = ghz_diagonal_coefficients(rho)
        want = dense_ghz_diagonal_coefficients(rho)
        assert got.system == want.system
        # lambda_j^+ and lambda_j^- one by one: a swap within a pair j != 0
        # leaves the symmetrized weights alone but fails here
        for name in ("plus", "minus", "lambdas"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.shape == w.shape, name
            for k in range(len(w)):
                assert abs(g[k] - w[k]) <= 1e-12, (name, k)
        for field in ("delta", "offdiagonal_residual"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field
        assert got.asymmetry_flag == any(
            abs(want.plus[k] - want.minus[k]) > ASYMMETRY_TOL for k in range(1, len(want.plus))
        )
        if kind != "general":
            assert got.offdiagonal_residual <= 1e-12
            assert got.asymmetry_flag == (kind == "asymmetric" and n > 1)

    def test_single_qubit(self):
        # N = 1: the only pair is j = "" on the kets |0> and |1>
        m = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        c = ghz_diagonal_coefficients(MultipartiteState(qubits("Q"), m))
        assert c.plus.shape == c.minus.shape == (1,)
        assert c.lambdas.shape == (0,)
        assert abs(c.plus[0] - 0.7) < 1e-15
        assert abs(c.minus[0] - 0.3) < 1e-15
        assert abs(c.offdiagonal_residual - math.sqrt(0.08 + 2 * 0.01)) < 1e-15


class TestFingerprintStaysInStep:
    def test_replace_moves_every_derived_value(self, scenario_states):
        c = ghz_diagonal_coefficients(scenario_states["E1"])
        plus, minus = c.plus.copy(), c.minus.copy()
        plus[0], minus[0] = 0.25, 0.0
        plus[0b010], minus[0b010] = 0.2, 0.0
        d = replace(c, plus=plus, minus=minus)
        # c keeps E1's fingerprint: delta 1/8, symmetric pairs, only cut 101 NPT
        assert abs(c.delta - 1 / 8) < 1e-14 and abs(weight(c, "010") - 1 / 16) < 1e-14
        assert not c.asymmetry_flag
        assert npt_vector(c).tolist() == [j == "101" for j in all_cut_indices(4)]
        # d reads every value from its own vectors
        assert d.delta == 0.25
        assert d.lambdas[0b010 - 1] == 0.1
        assert np.array_equal(np.delete(d.lambdas, 0b010 - 1), np.delete(c.lambdas, 0b010 - 1))
        assert d.asymmetry_flag
        assert npt_vector(d).tolist() == [True] * 7

    def test_weights_are_read_only(self, scenario_states):
        c = ghz_diagonal_coefficients(scenario_states["mix"])
        for weights in (c.plus, c.minus):
            with pytest.raises(ValueError, match="read-only"):
                weights[0] = 1.0


class TestCutIndex:
    def test_scenario_conventions(self, four_qubits):
        assert cut_number(four_qubits, ["A1", "A2"]) == 0b101
        assert cut_number(four_qubits, ["B"]) == 0b010
        assert cut_number(four_qubits, ["C"]) == 0b111

    def test_bijection(self, four_qubits):
        seen = set()
        for k, j in enumerate(all_cut_indices(4), start=1):
            back = cut_number(four_qubits, index_side(k, four_qubits))
            assert back == k == int(j, 2)
            seen.add(back)
        assert len(seen) == 7

    @pytest.mark.parametrize("j", ["", "000", "0000", "012", "1_0", "0b1", " 01", "1 0", "010", "1"])
    def test_rejects_strings_that_name_no_cut(self, scenario_states, four_qubits, j):
        # a cut is its number k, never a string, not even its index
        with pytest.raises(UnknownParty):
            ppt_check(scenario_states["mix"], j)
        with pytest.raises(UnknownParty):
            npt_criterion(ghz_diagonal_coefficients(scenario_states["mix"]), j)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("k", ["zero", "minus-one", "one-past-last", "true", "false"])
    def test_rejects_numbers_that_name_no_cut(self, n, k):
        # only 1 <= k < 2^(N-1) numbers a cut; 0 would read entry -1, and a
        # bool is an int to Python, so True would read cut 1
        k = {"zero": 0, "minus-one": -1, "one-past-last": 1 << (n - 1), "true": True, "false": False}[k]
        system = qubits(*(f"Q{i}" for i in range(n)))
        rho = random_ghz_diagonal_state(np.random.default_rng(n), system)
        c = ghz_diagonal_coefficients(rho)
        with pytest.raises(UnknownParty, match=f"no cut number {k}"):
            ppt_check(rho, k)
        with pytest.raises(UnknownParty, match=f"no cut number {k}"):
            npt_criterion(c, k)
        dense = with_one_off_x_entry(np.random.default_rng(n), rho)
        with pytest.raises(UnknownParty, match=f"no cut number {k}"):
            ppt_check(dense, k)
        # the rule lives where cuts are defined: a side or a name is not read from k either
        for named in (cut_side, cut_name):
            with pytest.raises(UnknownParty, match=f"no cut number {k}"):
                named(system, k)
        last = (1 << (n - 1)) - 1
        assert ppt_check(rho, np.int64(last)) == ppt_check(rho, last)
        assert cut_side(system, np.int64(last)) == cut_side(system, last)
        assert cut_name(system, np.int64(last)) == cut_name(system, last)

    def test_side_agnostic(self, four_qubits):
        assert cut_number(four_qubits, ["A1", "A2"]) == cut_number(four_qubits, ["B", "C"])


class TestNptCriterion:
    def test_channel_one(self, scenario_states, four_qubits):
        c = ghz_diagonal_coefficients(scenario_states["E1"])
        assert not npt_criterion(c, cut_number(four_qubits, ["B"]))
        assert npt_criterion(c, cut_number(four_qubits, ["A1", "A2"]))

    def test_mixture_all_npt(self, scenario_states, four_qubits):
        c = ghz_diagonal_coefficients(scenario_states["mix"])
        for side in (["A1", "A2"], ["B"], ["C"]):
            assert npt_criterion(c, cut_number(four_qubits, side))

    def test_rejects_non_ghz_diagonal(self, four_qubits):
        rng = np.random.default_rng(24)
        rho = random_state(rng, four_qubits)
        c = ghz_diagonal_coefficients(rho)
        assert c.offdiagonal_residual > 1e-8
        message = r"^off-diagonal residual \S+ exceeds 1\.0e-08$"
        with pytest.raises(DimensionMismatch, match=message):
            npt_criterion(c, cut_number(four_qubits, ["B"]))

    def test_agrees_with_eigensolver(self, scenario_states, four_qubits):
        rng = np.random.default_rng(25)
        states = list(scenario_states.values())
        states += [random_ghz_diagonal_state(rng, four_qubits) for _ in range(5)]
        for rho in states:
            c = ghz_diagonal_coefficients(rho)
            for k in range(1, 8):
                assert npt_criterion(c, k) == (not ppt_check(rho, k).is_ppt)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_agrees_with_eigensolver_near_thresholds(self, data):
        # Symmetric GHZ-diagonal states whose margins lambda_j - delta/2 sit
        # near 0, near the default threshold and near a second one, each at
        # least 1e-12 away from both.  Both routes must read the known sign.
        n = data.draw(st.integers(3, 6), label="n")
        other = -(10 ** data.draw(st.floats(-8, -4), label="log10(-other)"))
        thresholds = (PSD_THRESHOLD, other)
        indices = all_cut_indices(n)
        delta = data.draw(st.floats(0.2, 0.5), label="delta * cuts") / len(indices)
        margins = {}
        for j in indices:
            anchor = data.draw(st.sampled_from((0.0, *thresholds)), label=f"anchor {j}")
            sign = data.draw(st.sampled_from((1, -1)), label=f"sign {j}")
            offset = 10 ** data.draw(st.floats(-11.9, -4), label=f"log10|offset {j}|")
            margins[j] = anchor + sign * offset
        assume(all(abs(m - t) >= 1e-12 for m in margins.values() for t in thresholds))
        lambdas = {j: delta / 2 + m for j, m in margins.items()}
        rest = 1 - 2 * sum(lambdas.values())
        weights = {(0, 1): (rest + delta) / 2, (0, -1): (rest - delta) / 2}
        for j, lam in lambdas.items():
            weights[int(j, 2), 1] = weights[int(j, 2), -1] = lam
        system = qubits(*(f"Q{i}" for i in range(n)))
        rho = ghz_diagonal_state(system, weights)
        c = ghz_diagonal_coefficients(rho)
        for k, j in enumerate(indices, start=1):
            for t in thresholds:
                ppt = margins[j] >= t
                assert ppt_check(rho, k, t).is_ppt is ppt, (j, t)
                assert npt_criterion(c, k, t) is (not ppt), (j, t)


class TestPairwiseDistillability:
    def test_channel_one_blocked(self, scenario_states):
        c = ghz_diagonal_coefficients(scenario_states["E1"])
        verdict = pairwise_distillability(c, ("A1", "A2"), ("B",))
        assert not verdict.distillable
        assert verdict.blocking_cuts == (0b010,)
        assert list(verdict.blocking_cuts) == walk_blocking_cuts(c, ("A1", "A2"), ("B",), PSD_THRESHOLD)
        # at threshold -1 every separating cut blocks
        walk = pairwise_distillability(c, ("A1", "A2"), ("B",), -1)
        assert walk.blocking_cuts == (0b010, 0b101)
        assert list(walk.blocking_cuts) == walk_blocking_cuts(c, ("A1", "A2"), ("B",), -1)

    def test_mixture_distillable(self, scenario_states):
        c = ghz_diagonal_coefficients(scenario_states["mix"])
        for receiver, expected in (("B", (0b010, 0b101)), ("C", (0b101, 0b111))):
            verdict = pairwise_distillability(c, ("A1", "A2"), (receiver,))
            assert verdict.distillable
            assert verdict.blocking_cuts == ()
            walk = pairwise_distillability(c, ("A1", "A2"), (receiver,), -1)
            assert walk.blocking_cuts == expected
            assert list(walk.blocking_cuts) == walk_blocking_cuts(c, ("A1", "A2"), (receiver,), -1)

    @settings(max_examples=80)
    @given(
        n=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
        threshold=st.one_of(st.just(PSD_THRESHOLD), st.just(-1.0), st.floats(-0.05, 0.05)),
    )
    def test_matches_brute_force_walk_of_cuts(self, n, seed, data, threshold):
        # roles: 1 puts a party in group one, 2 in group two, 0 leaves it
        # free; parties p and q keep both groups nonempty
        roles = data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n))
        p = data.draw(st.integers(0, n - 1), label="p")
        q = (p + data.draw(st.integers(1, n - 1), label="q - p")) % n
        roles[p], roles[q] = 1, 2
        system = qubits(*(f"Q{i}" for i in range(n)))
        c = ghz_diagonal_coefficients(
            random_ghz_diagonal_state(np.random.default_rng(seed), system)
        )
        one = tuple(l for l, r in zip(system.labels, roles) if r == 1)
        two = tuple(l for l, r in zip(system.labels, roles) if r == 2)
        blocking = walk_blocking_cuts(c, one, two, threshold)
        if threshold == -1:
            # every separating cut blocks: one side holds group one, the other group two
            free = roles.count(0)
            assert len(blocking) == 2**free
        verdict = pairwise_distillability(c, one, two, threshold)
        assert all(type(k) is int for k in verdict.blocking_cuts)
        assert verdict.blocking_cuts == tuple(blocking)
        assert verdict.distillable is (not blocking)

    def test_reads_cuts_by_bit_mask(self, scenario_states, monkeypatch):
        # separating cuts come from bit masks in index order, not from
        # the labels of each cut's side; at threshold -1 each of them blocks
        def refuse(*args):
            raise AssertionError("cut_side called")

        c = ghz_diagonal_coefficients(scenario_states["mix"])
        expected = {
            (("A1", "A2"), ("C",)): (0b101, 0b111),  # sides {A1,A2}, {A1,B,A2}
            (("C",), ("B",)): (0b010, 0b011, 0b110, 0b111),  # C with A1,A2 / A1 / A2 / none
        }
        walks = {pair: walk_blocking_cuts(c, *pair, -1) for pair in expected}
        monkeypatch.setattr(entanglement, "cut_side", refuse)
        assert pairwise_distillability(c, ("A1", "A2"), ("C",)).distillable
        for pair, ks in expected.items():
            verdict = pairwise_distillability(c, *pair, -1)
            assert verdict.blocking_cuts == ks
            assert list(verdict.blocking_cuts) == walks[pair]

    def test_overlapping_groups(self, scenario_states):
        c = ghz_diagonal_coefficients(scenario_states["E1"])
        with pytest.raises(OverlappingGroups):
            pairwise_distillability(c, ("A1",), ("A1", "B"))

    def test_party_listed_twice_in_a_group(self, scenario_states, monkeypatch):
        # ["A1", "A1", "A2"] is refused, as --pair A1,A1:B is, not read as
        # ["A1", "A2"]; every pair is checked before the NPT vector is read
        def refuse(*args):
            raise AssertionError("npt_vector read before the pairs were checked")

        c = ghz_diagonal_coefficients(scenario_states["E1"])
        with pytest.raises(OverlappingGroups, match="twice"):
            pairwise_distillability(c, ["A1", "A1", "A2"], ["B"])
        monkeypatch.setattr(entanglement, "npt_vector", refuse)
        for pairs in (
            [(("A1", "A2"), ("B",)), (("A1",), ("C", "C"))],
            [(("A1", "A1"), ("A1", "B"))],
        ):
            with pytest.raises(OverlappingGroups, match="twice"):
                pair_verdicts(c, pairs)


class TestFilter:
    def test_balanced_input_unchanged(self):
        phi = max_entangled(2)
        out, prob = filter_to_maximally_entangled(phi)
        assert abs(prob - 1) < 1e-12
        overlap = abs(np.vdot(out.vector, phi.vector))
        assert abs(overlap - 1) < 1e-12

    def test_skewed_input(self):
        # direct vector arithmetic oracle for coefficients (sqrt(.9), sqrt(.1))
        sys = qubits("A", "B")
        c1, c2 = math.sqrt(0.9), math.sqrt(0.1)
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = c1, c2
        out, prob = filter_to_maximally_entangled(PureState(sys, v))
        assert abs(prob - 2 * c2**2) < 1e-12
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        phase = np.vdot(expected, out.vector)
        assert abs(abs(phase) - 1) < 1e-12
        assert np.linalg.norm(out.vector - phase * expected) < 1e-9

    def test_product_input_rejected(self):
        sys = qubits("A", "B")
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        with pytest.raises(NotSchmidtRank2):
            filter_to_maximally_entangled(PureState(sys, v))

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choilab import entanglement
from choilab.entanglement import localize_entanglement
from choilab.errors import ChoilabError
from choilab.nonadditivity import full_report
from choilab.states import (
    PartySystem,
    PureState,
    ghz_basis_state,
    max_entangled,
    permute_vector_parties,
    schmidt_decomposition,
)

from conftest import svd_localize, two_test_branches_distinct

BALANCE = 1 / math.sqrt(2)


def qubits(*labels):
    return PartySystem(tuple(labels), (2,) * len(labels))


def rank2_state(system, senders, receivers, c1, c2, chi, psi):
    """c1 |chi1>|psi1> + c2 |chi2>|psi2> with parties ordered senders+receivers."""
    v = c1 * np.kron(chi[:, 0], psi[:, 0]) + c2 * np.kron(chi[:, 1], psi[:, 1])
    return PureState(system, v / np.linalg.norm(v))


def random_orthonormal_pair(rng, dim):
    g = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, _ = np.linalg.qr(g)
    return q


def assert_balanced(result, tol=1e-9):
    sd = schmidt_decomposition(result.final_state, [result.sender_kept])
    assert sd.rank == 2
    assert abs(float(sd.coefficients[0]) - BALANCE) <= tol
    assert abs(float(sd.coefficients[1]) - BALANCE) <= tol


def assert_unit_projections(result, tol=1e-12):
    """Each bystander is left in the ket it was projected onto, a unit vector."""
    for p in result.projections:
        assert abs(np.linalg.norm(p.vector) - 1) <= tol, p.party


class TestGhzLocalization:
    def test_plus_projection(self):
        sys = qubits("A", "B1", "B2")
        ghz = ghz_basis_state(sys, 0, 1)
        result = localize_entanglement(ghz, ["A"], ["B1", "B2"])
        assert result.sender_kept == "A"
        assert len(result.projections) == 1
        proj = result.projections[0]
        # the first receiver is factored out with a |+> projection
        assert proj.party == "B1"
        assert np.allclose(np.abs(proj.vector), [BALANCE, BALANCE], atol=1e-12)
        assert abs(proj.probability - 0.5) < 1e-12
        assert abs(result.filter_probability - 1.0) < 1e-12
        assert abs(result.success_probability - 0.5) < 1e-12
        assert result.receiver_kept == "B2"
        assert_balanced(result)
        assert_unit_projections(result)

    def test_final_state_is_bell_pair(self):
        sys = qubits("A", "B1", "B2")
        ghz = ghz_basis_state(sys, 0, 1)
        result = localize_entanglement(ghz, ["A"], ["B1", "B2"])
        target = max_entangled(2, ("A", "B2")).vector
        overlap = abs(np.vdot(result.final_state.vector, target))
        assert abs(overlap - 1) < 1e-9


class TestInputValidation:
    def test_product_state_rejected(self):
        sys = qubits("A", "B")
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        with pytest.raises(ChoilabError, match="^Schmidt rank 1, need exactly 2$"):
            localize_entanglement(PureState(sys, v), ["A"], ["B"])

    def test_rank_four_rejected(self):
        sys = qubits("A1", "A2", "B1", "B2")
        phi = max_entangled(4, ("S", "R"))
        state = PureState(sys, phi.vector)
        with pytest.raises(ChoilabError, match="^Schmidt rank 4, need exactly 2$"):
            localize_entanglement(state, ["A1", "A2"], ["B1", "B2"])

    def test_group_errors(self):
        sys = qubits("A", "B1", "B2")
        ghz = ghz_basis_state(sys, 0, 1)
        with pytest.raises(ChoilabError, match=r"^groups overlap: \['B1'\]$"):
            localize_entanglement(ghz, ["A", "B1"], ["B1", "B2"])
        with pytest.raises(ChoilabError, match="^sender and receiver groups must cover all parties$"):
            localize_entanglement(ghz, ["A"], ["B1"])

    def test_party_listed_twice_rejected(self):
        # B1 would be projected twice, A would be projected out of its own group
        ghz = ghz_basis_state(qubits("A", "B1", "B2"), 0, 1)
        with pytest.raises(ChoilabError, match="twice"):
            localize_entanglement(ghz, ["A"], ["B1", "B2", "B1"])
        ghz = ghz_basis_state(qubits("A", "B"), 0, 1)
        with pytest.raises(ChoilabError, match="twice"):
            localize_entanglement(ghz, ["A", "A"], ["B"])

    def test_empty_group_rejected(self):
        ghz = ghz_basis_state(qubits("A", "B1", "B2"), 0, 1)
        with pytest.raises(ChoilabError, match="nonempty"):
            localize_entanglement(ghz, [], ["A", "B1", "B2"])

    def test_bare_string_group_rejected(self):
        # a string is one label, never a group read letter by letter
        ghz = ghz_basis_state(qubits("A", "B1", "B2"), 0, 1)
        with pytest.raises(ChoilabError, match=re.escape("write ['A']")):
            localize_entanglement(ghz, "A", ["B1", "B2"])
        ghz = ghz_basis_state(qubits("BC", "B", "C"), 0, 1)
        with pytest.raises(ChoilabError, match=re.escape("write ['BC']")):
            localize_entanglement(ghz, "BC", ("B", "C"))
        assert localize_entanglement(ghz, ["BC"], ("B", "C")).sender_kept == "BC"


class TestEarlyTermination:
    def test_branch_carrier_is_kept(self):
        # A1 carries the branch distinction, A2 sits in a common |+> factor:
        # the procedure must keep A1 and project A2 out with probability ~1.
        sys = qubits("A1", "A2", "B")
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        chi = np.zeros((4, 2), dtype=complex)
        chi[:, 0] = np.kron(np.array([1, 0], dtype=complex), plus)
        chi[:, 1] = np.kron(np.array([0, 1], dtype=complex), plus)
        psi = np.eye(2, dtype=complex)
        state = rank2_state(sys, ["A1", "A2"], ["B"], BALANCE, BALANCE, chi, psi)
        result = localize_entanglement(state, ["A1", "A2"], ["B"])
        assert result.sender_kept == "A1"
        assert len(result.projections) == 1
        assert result.projections[0].party == "A2"
        assert abs(result.projections[0].probability - 1.0) < 1e-12
        assert_balanced(result)

    def test_entangled_factored_group(self):
        # the factored group (A2, A3) shares an entangled pair independent of
        # the branches; both still get projected out, at probability 1/2 each step
        sys = qubits("A1", "A2", "A3", "B")
        pair = max_entangled(2, ("x", "y")).vector
        chi = np.zeros((8, 2), dtype=complex)
        chi[:, 0] = np.kron(np.array([1, 0], dtype=complex), pair)
        chi[:, 1] = np.kron(np.array([0, 1], dtype=complex), pair)
        psi = np.eye(2, dtype=complex)
        state = rank2_state(sys, ["A1", "A2", "A3"], ["B"], BALANCE, BALANCE, chi, psi)
        result = localize_entanglement(state, ["A1", "A2", "A3"], ["B"])
        assert result.sender_kept == "A1"
        assert {p.party for p in result.projections} == {"A2", "A3"}
        assert_balanced(result)
        assert_unit_projections(result)


class TestRandomRank2Suite:
    def test_hundred_random_states(self):
        rng = np.random.default_rng(2024)
        sys = qubits("A1", "A2", "A3", "B1", "B2", "B3")
        senders = ["A1", "A2", "A3"]
        receivers = ["B1", "B2", "B3"]
        for trial in range(100):
            chi = random_orthonormal_pair(rng, 8)
            psi = random_orthonormal_pair(rng, 8)
            theta = 0.1 + 0.8 * rng.random() * math.pi / 4
            state = rank2_state(
                sys, senders, receivers, math.cos(theta), math.sin(theta), chi, psi
            )
            result = localize_entanglement(state, senders, receivers)
            assert_balanced(result, tol=1e-9)
            assert result.sender_kept in senders
            assert result.receiver_kept in receivers
            assert len(result.projections) == 4
            assert_unit_projections(result)
            assert 0 < result.success_probability <= 1 + 1e-12
            combined = result.filter_probability
            for p in result.projections:
                combined *= p.probability
            assert abs(combined - result.success_probability) < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(77)
        sys = qubits("A1", "A2", "B1", "B2")
        chi = random_orthonormal_pair(rng, 4)
        psi = random_orthonormal_pair(rng, 4)
        state = rank2_state(sys, ["A1", "A2"], ["B1", "B2"], 0.8, 0.6, chi, psi)
        r1 = localize_entanglement(state, ["A1", "A2"], ["B1", "B2"])
        r2 = localize_entanglement(state, ["A1", "A2"], ["B1", "B2"])
        assert r1.sender_kept == r2.sender_kept
        assert r1.success_probability == r2.success_probability
        for p1, p2 in zip(r1.projections, r2.projections):
            assert p1.party == p2.party
            assert np.array_equal(p1.vector, p2.vector)


class TestRandomProjectorFallback:
    def test_qutrits_draw_from_one_seeded_generator(self):
        # A qutrit has no fixed candidates, so each factored-out qutrit takes
        # the next seeded random projector; the sender side draws first and
        # the receiver side continues the same stream.
        rng = np.random.default_rng(5)
        sys = PartySystem(("A1", "A2", "B1", "B2"), (3, 2, 3, 2))
        chi = random_orthonormal_pair(rng, 6)
        psi = random_orthonormal_pair(rng, 6)
        state = rank2_state(sys, ["A1", "A2"], ["B1", "B2"], 0.8, 0.6, chi, psi)
        result = localize_entanglement(state, ["A1", "A2"], ["B1", "B2"])
        draws = np.random.default_rng(entanglement._PROJECTOR_SEED)
        expected = []
        for _ in range(2):
            v = draws.standard_normal(3) + 1j * draws.standard_normal(3)
            expected.append(v / np.linalg.norm(v))
        assert [p.party for p in result.projections] == ["A1", "B1"]
        for projection, vector in zip(result.projections, expected):
            assert np.array_equal(projection.vector, vector)
        assert (result.sender_kept, result.receiver_kept) == ("A2", "B2")
        assert_balanced(result)


@st.composite
def rank2_cases(draw):
    """A random Schmidt-rank-2 state and its groups, interleaved and listed in any order."""
    dims = draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=6))
    n = len(dims)
    labels = tuple(f"P{i}" for i in range(n))
    sends = draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda b: 0 < sum(b) < n)
    )
    senders = [l for l, s in zip(labels, sends) if s]
    receivers = [l for l, s in zip(labels, sends) if not s]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = draw(st.floats(0.1, 0.7))
    d = dict(zip(labels, dims))
    chi = random_orthonormal_pair(rng, math.prod(d[l] for l in senders))
    psi = random_orthonormal_pair(rng, math.prod(d[l] for l in receivers))
    v = math.cos(theta) * np.kron(chi[:, 0], psi[:, 0])
    v = v + math.sin(theta) * np.kron(chi[:, 1], psi[:, 1])
    grouped = senders + receivers
    v = permute_vector_parties(v, [d[l] for l in grouped], [grouped.index(l) for l in labels])
    phi = PureState(PartySystem(labels, dims), v / np.linalg.norm(v))
    return phi, draw(st.permutations(senders)), draw(st.permutations(receivers))


class TestSchmidtFormMatchesStepwiseSvd:
    @given(rank2_cases())
    def test_same_projections_pair_and_state(self, case):
        phi, senders, receivers = case
        got = localize_entanglement(phi, senders, receivers)
        want = svd_localize(phi, senders, receivers)
        assert [p.party for p in got.projections] == [p.party for p in want.projections]
        for p, q in zip(got.projections, want.projections):
            assert np.array_equal(p.vector, q.vector)
            assert abs(p.probability - q.probability) <= 1e-12
        assert (got.sender_kept, got.receiver_kept) == (want.sender_kept, want.receiver_kept)
        assert abs(got.filter_probability - want.filter_probability) <= 1e-12
        assert abs(got.success_probability - want.success_probability) <= 1e-12
        assert_unit_projections(got)
        assert got.final_state.system == want.final_state.system
        a, b = got.final_state.vector, want.final_state.vector
        phase = np.vdot(b, a)
        assert np.linalg.norm(a - phase / abs(phase) * b) <= 1e-12


class TestWorkCount:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"svd": 0, "eigh": 0}
        for name in counts:
            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    def test_one_decomposition_plus_the_filter(self, calls):
        ghz = ghz_basis_state(qubits("A", "B1", "B2"), 0, 1)
        localize_entanglement(ghz, ["A"], ["B1", "B2"])
        # the rank check's SVD and the filter's; no density matrix is diagonalized
        assert calls == {"svd": 2, "eigh": 0}

    def test_full_report(self, calls):
        full_report()
        assert calls == {"svd": 5, "eigh": 0}


def unit(v):
    return v / np.linalg.norm(v)


@settings(max_examples=50)
@given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_branch_test_is_the_overlap_rule(dim, seed):
    # Oracle: the overlap rule followed by the Gram-determinant test, on
    # random pairs and on pairs whose overlap or norms sit at their thresholds.
    rng = np.random.default_rng(seed)
    t = entanglement.BRANCH_DISTINCT_TOL
    answers = set()
    for _ in range(400):
        b1, b2 = (unit(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) for _ in "12")
        kind = rng.integers(3)
        if kind == 1 and dim > 1:
            # the overlap cos(theta) within a few per cent of t below 1
            w = unit(b2 - np.vdot(b1, b2) * b1)
            theta = math.sqrt(2 * t * rng.uniform(0.95, 1.05))
            b2 = math.cos(theta) * b1 + math.sin(theta) * w * np.exp(2j * np.pi * rng.random())
        if kind == 2:
            scales = entanglement.BRANCH_NORM_TOL * rng.uniform(0.9, 1.1, 2)
        else:
            scales = 10.0 ** rng.uniform(-3, 3, 2)
        c1, c2 = b1 * scales[0], b2 * scales[1]
        got = entanglement._branches_distinct(c1, c2)
        assert got == two_test_branches_distinct(c1, c2), (c1, c2)
        answers.add(bool(got))
    assert answers == ({True, False} if dim > 1 else {False})

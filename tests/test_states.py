import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choilab import linalg
from choilab.entanglement import ghz_diagonal_coefficients
from choilab.errors import ChoilabError
from choilab.states import (
    MultipartiteState,
    PartySystem,
    PureState,
    cut_name,
    cut_names,
    cut_number,
    cut_side,
    fidelity,
    ghz_basis_state,
    label_tuple,
    max_entangled,
    partial_trace,
    partial_transpose,
    permute_parties,
    schmidt_decomposition,
    trace_out_axes,
)

from conftest import (
    complement,
    describe,
    index_side,
    random_density_matrix,
    random_ghz_diagonal_state,
    random_pure_vector,
    random_state,
    same_bits,
)


def qubits(*labels):
    return PartySystem(tuple(labels), (2,) * len(labels))


class TestPartySystem:
    def test_basic(self):
        sys = PartySystem(("A1", "B", "A2", "C"), (2, 2, 2, 2))
        assert sys.total_dim == 16
        assert sys.axis("A2") == 2
        assert sys.dim_of("C") == 2

    def test_validation(self):
        with pytest.raises(ChoilabError, match=r"^duplicate party labels in \('A', 'A'\)$"):
            PartySystem(("A", "A"), (2, 2))
        with pytest.raises(ChoilabError, match="^labels and dims must have equal length$"):
            PartySystem(("A", "B"), (2,))
        with pytest.raises(ChoilabError, match=r"^local dimensions must be >= 2, got \(1,\)$"):
            PartySystem(("A",), (1,))
        with pytest.raises(ChoilabError, match=r"^unknown parties \['X'\]; have \('A', 'B'\)$"):
            qubits("A", "B").require(["A", "X"])
        with pytest.raises(ChoilabError, match=r"^no party 'X' in \('A', 'B'\)$"):
            qubits("A", "B").axis("X")

    def test_bare_string_is_not_a_label_list(self):
        # "AB" is one party here, so reading the string letter by letter
        # would name two others; the message shows the list to write
        sys = qubits("AB", "A", "B")
        with pytest.raises(ChoilabError, match=re.escape("write ['AB']")):
            sys.require("AB")
        rho = MultipartiteState(sys, np.eye(8) / 8)
        with pytest.raises(ChoilabError, match=re.escape("['AB']")):
            partial_trace(rho, "AB")
        with pytest.raises(ChoilabError, match=re.escape("['AB']")):
            partial_transpose(rho, "AB")
        with pytest.raises(ChoilabError, match=re.escape("['AB']")):
            cut_number(sys, "AB")
        assert partial_trace(rho, ["AB"]).system.labels == ("A", "B")
        assert cut_number(sys, ["AB"]) == 0b10

    def test_permute_parties_refuses_a_bare_string(self):
        # read letter by letter, "BA" would be the swap of parties A and B
        rho = random_state(np.random.default_rng(8), qubits("A", "B"))
        with pytest.raises(ChoilabError, match=re.escape("write ['BA']")):
            permute_parties(rho, "BA")

    @pytest.mark.parametrize("d", [2.5, np.float64(3.7), 2.0, "2", None, True, np.True_])
    def test_dimension_that_is_no_int(self, d):
        # no float is truncated and no bool read as 1, the rule of require_cut
        message = f"^local dimension {re.escape(repr(d))} must be an int$"
        with pytest.raises(ChoilabError, match=message):
            PartySystem(("A",), (d,))
        with pytest.raises(ChoilabError, match=message):
            PartySystem(("A", "B"), (d, 2))

    def test_numpy_int_dimension(self):
        sys = PartySystem(("A", "B"), (np.int64(3), np.int32(2)))
        assert sys.dims == (3, 2) and all(type(d) is int for d in sys.dims)

    @pytest.mark.parametrize("label", [1, b"A", None, ("A",)])
    def test_label_that_is_no_string(self, label):
        message = f"^party label {re.escape(repr(label))} must be a string$"
        with pytest.raises(ChoilabError, match=message):
            PartySystem(("B", label), (2, 2))

    @pytest.mark.parametrize("label", ["", "A,B", "A:B", " A", "A ", "\nA"])
    def test_label_the_cli_cannot_name(self, label):
        with pytest.raises(ChoilabError, match="party label"):
            PartySystem(("B", label), (2, 2))

    @pytest.mark.parametrize("labels", [5, None, 2.5, True])
    def test_label_list_that_is_no_list(self, labels):
        message = f"^a list of labels is needed, not {re.escape(repr(labels))}$"
        with pytest.raises(ChoilabError, match=message):
            label_tuple(labels)
        with pytest.raises(ChoilabError, match=message):
            PartySystem(labels, (2,))
        with pytest.raises(ChoilabError, match=message):
            qubits("A", "B").require(labels)

    @pytest.mark.parametrize(
        "labels, bad",
        [([1, "X"], 1), ([["A"]], ["A"]), (("A", None), None)],
        ids=["int", "nested-list", "None"],
    )
    def test_label_list_holding_no_string(self, labels, bad):
        # the element is named before any rule that would sort or hash it
        message = f"^party label {re.escape(repr(bad))} must be a string$"
        with pytest.raises(ChoilabError, match=message):
            label_tuple(labels)
        with pytest.raises(ChoilabError, match=message):
            qubits("A", "B").require(labels)

    @pytest.mark.parametrize("dims", [2, None, 2.5])
    def test_dims_that_are_no_list(self, dims):
        with pytest.raises(ChoilabError, match=f"^dims {re.escape(repr(dims))} must be a list of ints$"):
            PartySystem(("A",), dims)

    def test_bare_string_is_no_label_list_of_a_system(self):
        # read letter by letter, "AB" would be the parties A and B
        with pytest.raises(ChoilabError, match=re.escape("not the string 'AB': write ['AB']")):
            PartySystem("AB", (2, 2))
        with pytest.raises(ChoilabError, match=re.escape("not the string 'AB': write ['AB']")):
            max_entangled(3, "AB")


class TestCut:
    def test_validation(self):
        sys = qubits("A", "B", "C")
        assert cut_number(sys, ["A"]) == cut_number(sys, ("C", "B")) == 0b10
        assert cut_number(sys, frozenset({"A", "C"})) == cut_number(sys, iter(["B"])) == 0b01
        some = "a cut side holds some but not all"
        unknown = re.escape("unknown parties ['X']")
        for side, message in (([], some), (["A", "B", "C"], some), (["A", "X"], unknown), (["X"], unknown)):
            with pytest.raises(ChoilabError, match=f"^{message}"):
                cut_number(sys, side)

    def test_cut_name_ignores_side_order(self):
        sys = qubits("A1", "B", "A2", "C")
        for side in (["B"], ["A1", "A2"], ["A1", "C"], ["B", "A2", "C"]):
            swapped = complement(side, sys)
            name = cut_name(sys, cut_number(sys, side))
            assert name == cut_name(sys, cut_number(sys, swapped))
            assert name == describe(side, sys) == describe(swapped, sys)
            assert name.startswith("A1")
        assert cut_name(sys, 0b010) == "A1,A2,C | B"

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cut_name_of_every_number(self, n):
        # the name of cut k is the one read from either side of the cut
        dims = (2, 3, 2, 4, 2, 2, 3)[:n]
        sys = PartySystem(tuple(f"P{i}" for i in range(n)), dims)
        for k in range(1, 1 << (n - 1)):
            side = index_side(k, sys)
            assert cut_side(sys, k) == side
            assert cut_name(sys, k) == describe(side, sys) == describe(complement(side, sys), sys), k

    @pytest.mark.parametrize("n", range(1, 10))
    def test_cut_names_is_the_table_of_cut_name(self, n):
        labels = ("Alice", "B1", "Bob2", "C", "Dee", "E7", "Fox", "G", "Hal")[:n]
        sys = PartySystem(labels, (2, 3, 2, 4, 2, 2, 3, 2, 2)[:n])
        names = cut_names(sys)
        assert type(names) is tuple
        assert len(names) == (1 << (n - 1)) - 1
        for k in range(1, 1 << (n - 1)):
            assert names[k - 1] == cut_name(sys, k), k
        if n == 1:
            assert names == ()

    def test_cut_names_kept_once_per_system(self):
        # an equal system, built anew, gets the table already made
        sys = PartySystem(("A1", "B", "A2"), (2, 2, 2))
        assert cut_names(PartySystem(("A1", "B", "A2"), (2, 2, 2))) is cut_names(sys)
        assert cut_names(PartySystem(("A1", "B", "A2"), (2, 3, 2))) is not cut_names(sys)

    def test_cut_names_cache_is_bounded(self):
        bound = cut_names.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 5):
            cut_names(PartySystem((f"P{i}", "Q", "R"), (2, 2, 2)))
            assert cut_names.cache_info().currsize <= bound
        assert cut_names.cache_info().currsize == bound

    @pytest.mark.parametrize("n", range(2, 8))
    def test_either_side_numbers_the_cut(self, n):
        sys = PartySystem(tuple(f"P{i}" for i in range(n)), (2, 3, 2, 4, 2, 2, 3)[:n])
        seen = set()
        for k in range(1, 1 << (n - 1)):
            side = cut_side(sys, k)
            assert cut_number(sys, side) == k
            assert cut_number(sys, complement(side, sys)) == k
            assert cut_number(sys, side[::-1]) == k
            seen.add(frozenset(side))
        # every side without the last party, once
        assert len(seen) == 2 ** (n - 1) - 1

    @pytest.mark.parametrize("side", [[], ["A1", "B", "A2", "C"], ["X"], ["A1", "X"]])
    def test_sides_that_name_no_cut(self, four_qubits, side):
        # empty, every party, or an unknown label: no cut has that side
        labels = "('A1', 'B', 'A2', 'C')"
        if "X" in side:
            message = re.escape(f"unknown parties ['X']; have {labels}")
        else:
            message = re.escape(f"a cut side holds some but not all of {labels}, got {sorted(side)}")
        rho = random_state(np.random.default_rng(0), four_qubits)
        phi = PureState(four_qubits, random_pure_vector(np.random.default_rng(1), 16))
        with pytest.raises(ChoilabError, match=f"^{message}$"):
            cut_number(four_qubits, side)
        with pytest.raises(ChoilabError, match=f"^{message}$"):
            partial_transpose(rho, side)
        with pytest.raises(ChoilabError, match=f"^{message}$"):
            schmidt_decomposition(phi, side)


class TestGhzBasis:
    def test_reference_element(self):
        sys = qubits("A1", "B", "A2", "C")
        v = ghz_basis_state(sys, 0, 1).vector
        expected = np.zeros(16)
        expected[0] = expected[15] = 1 / math.sqrt(2)
        assert np.allclose(v, expected, atol=0)

    def test_general_element(self):
        # j=101 is k = 0b101, sign=-: (|1010> - |0101>)/sqrt(2), complement
        # jbar=010; big-endian on (A1, B, A2, C), |1010> is 1*8 + 0*4 + 1*2 + 0 = 10
        sys = qubits("A1", "B", "A2", "C")
        v = ghz_basis_state(sys, 0b101, -1).vector
        assert abs(v[10] - 1 / math.sqrt(2)) < 1e-15
        assert abs(v[5] + 1 / math.sqrt(2)) < 1e-15
        assert np.count_nonzero(v) == 2

    def test_orthonormal_complete(self):
        sys = qubits("A", "B", "C")
        family = [ghz_basis_state(sys, k, s).vector for k in range(4) for s in (1, -1)]
        gram = np.array([[np.vdot(a, b) for b in family] for a in family])
        assert np.linalg.norm(gram - np.eye(8)) < 1e-14
        total = sum(np.outer(v, v.conj()) for v in family)
        assert np.linalg.norm(total - np.eye(8)) < 1e-12

    def test_projector_pair_identity(self):
        # P_1010 + P_0101 equals the (j=101, +/-) GHZ projector pair
        sys = qubits("A1", "B", "A2", "C")
        lhs = np.zeros((16, 16))
        lhs[10, 10] = lhs[5, 5] = 1
        plus = ghz_basis_state(sys, 0b101, 1).vector
        minus = ghz_basis_state(sys, 0b101, -1).vector
        rhs = np.outer(plus, plus.conj()) + np.outer(minus, minus.conj())
        assert np.linalg.norm(lhs - rhs) < 1e-15

    def test_numpy_integer_index(self):
        sys = qubits("A", "B", "C")
        assert np.array_equal(ghz_basis_state(sys, np.int64(3), np.int64(-1)).vector,
                              ghz_basis_state(sys, 3, -1).vector)

    def test_errors(self):
        with pytest.raises(ChoilabError, match="^GHZ basis is defined for qubit systems only$"):
            ghz_basis_state(PartySystem(("A", "B"), (3, 3)), 0, 1)
        sys = qubits("A", "B", "C")
        for k in (-1, 4, 1.0, None, True, False):
            with pytest.raises(ChoilabError, match="no GHZ index"):
                ghz_basis_state(sys, k, 1)
        for sign in ("+", "-", 0, 2, -2, True, None, 1.0, np.float64(-1.0), np.True_):
            with pytest.raises(ChoilabError, match="sign must be 1 or -1"):
                ghz_basis_state(sys, 0, sign)

    @pytest.mark.parametrize(
        ("j", "hint"), [("10", "write 0b10"), ("00", "write 0b00"), ("", "0b010"), ("012", "0b010")]
    )
    def test_string_index_refused(self, j, hint):
        # the GHZ index is the number k, as plus[k] and minus[k] are indexed
        with pytest.raises(ChoilabError, match=hint):
            ghz_basis_state(qubits("A", "B", "C"), j, 1)

    @settings(max_examples=40)
    @given(n=st.integers(1, 7), sign=st.sampled_from((1, -1)))
    def test_unit_vector_in_the_coefficients(self, n, sign):
        # the state built at (k, sign) reads back as the unit vector at k in
        # plus (sign 1) or minus (sign -1), with no residual: both index j as k
        system = qubits(*(f"Q{i}" for i in range(n)))
        for k in range(1 << (n - 1)):
            psi = ghz_basis_state(system, k, sign)
            v = np.zeros(1 << n, dtype=complex)
            v[2 * k] = 1 / math.sqrt(2)
            v[(1 << n) - 1 - 2 * k] = sign / math.sqrt(2)
            assert np.array_equal(psi.vector, v)
            c = ghz_diagonal_coefficients(psi.density())
            unit = np.zeros(1 << (n - 1))
            unit[k] = 1.0
            hit, miss = (c.plus, c.minus) if sign == 1 else (c.minus, c.plus)
            assert np.abs(hit - unit).max() < 1e-15, k
            assert np.abs(miss).max() < 1e-15, k
            assert c.offdiagonal_residual == 0.0, k


class TestMaxEntangled:
    def test_qubit_pair(self):
        v = max_entangled(2).vector
        assert np.allclose(v, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=0)

    def test_schmidt_rank_and_marginal(self):
        phi = max_entangled(4)
        sd = schmidt_decomposition(phi, ["A"])
        assert sd.rank == 4
        assert np.allclose(sd.coefficients, [0.5] * 4, atol=1e-15)
        reduced = partial_trace(phi.density(), ["A"])
        assert np.linalg.norm(reduced.matrix - np.eye(4) / 4) < 1e-14

    def test_dimension_below_two_refused(self):
        with pytest.raises(ChoilabError, match=r"^local dimensions must be >= 2, got \(1, 1\)$"):
            max_entangled(1)

    @pytest.mark.parametrize("d", [2.5, "3", None, True])
    def test_dimension_that_is_no_int(self, d):
        with pytest.raises(ChoilabError, match=f"^local dimension {re.escape(repr(d))} must be an int$"):
            max_entangled(d)

    @pytest.mark.parametrize("d", [2, 3, 5, np.int64(4)])
    def test_diagonal_entries(self, d):
        v = max_entangled(d).vector
        expected = np.zeros(d * d, dtype=np.complex128)
        for k in range(d):
            expected[k * d + k] = 1 / math.sqrt(d)
        assert same_bits(v, expected)


class TestPartialTranspose:
    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(5)
        sys = qubits("A", "B")
        rho = MultipartiteState(
            sys, np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        )
        pt = partial_transpose(rho, ["B"])
        assert np.allclose(
            np.linalg.eigvalsh(pt), np.linalg.eigvalsh(rho.matrix), atol=1e-12
        )

    def test_properties_on_random_states(self, four_qubits):
        rng = np.random.default_rng(42)
        sides = (["A1"], ["B"], ["A1", "A2"], ["A1", "B"], ["C"])
        for _ in range(50):
            rho = random_state(rng, four_qubits)
            for side in sides:
                pt = partial_transpose(rho, side)
                assert np.linalg.norm(pt - pt.conj().T) < 1e-12
                assert abs(np.trace(pt) - 1) < 1e-12
                again = partial_transpose(MultipartiteState(four_qubits, rho.matrix), side)
                # involution via raw transpose of the same axes
                from choilab.states import transpose_parties

                axes = [four_qubits.axis(l) for l in side]
                assert np.allclose(
                    transpose_parties(pt, four_qubits.dims, axes), rho.matrix, atol=0
                )
                pt2 = partial_transpose(rho, complement(side, four_qubits))
                assert np.allclose(
                    np.linalg.eigvalsh(pt), np.linalg.eigvalsh(pt2), atol=1e-10
                )
                assert np.allclose(again, pt, atol=0)

    def test_unknown_party(self, four_qubits):
        with pytest.raises(ChoilabError, match=r"^unknown parties \['X'\]; "):
            partial_transpose(random_state(np.random.default_rng(0), four_qubits), ["X"])


class TestPartialTrace:
    def test_ghz_marginal(self):
        sys = qubits("A", "B1", "B2")
        ghz = ghz_basis_state(sys, 0, 1)
        reduced = partial_trace(ghz.density(), ["B2"])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.linalg.norm(reduced.matrix - expected) < 1e-15
        assert reduced.system.labels == ("A", "B1")

    def test_product(self):
        rng = np.random.default_rng(8)
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 3)
        sys = PartySystem(("A", "B"), (2, 3))
        rho = MultipartiteState(sys, np.kron(a, b))
        assert np.linalg.norm(partial_trace(rho, ["B"]).matrix - a) < 1e-14

    def test_order_independence_and_trace_preserved(self, four_qubits):
        rng = np.random.default_rng(9)
        rho = random_state(rng, four_qubits)
        one = partial_trace(partial_trace(rho, ["C"]), ["A1"])
        two = partial_trace(partial_trace(rho, ["A1"]), ["C"])
        both = partial_trace(rho, ["A1", "C"])
        assert np.allclose(one.matrix, both.matrix, atol=1e-14)
        assert np.allclose(two.matrix, both.matrix, atol=1e-14)
        assert abs(np.trace(both.matrix) - 1) < 1e-12

    def test_errors(self, four_qubits):
        rho = random_state(np.random.default_rng(1), four_qubits)
        with pytest.raises(ChoilabError, match="^cannot trace out every party$"):
            partial_trace(rho, ["A1", "B", "A2", "C"])
        with pytest.raises(ChoilabError, match=r"^unknown parties \['Z'\]; "):
            partial_trace(rho, ["Z"])


    @given(
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        lead=st.lists(st.integers(1, 3), max_size=2),
        data=st.data(),
    )
    def test_stack_traces_each_slice(self, dims, lead, data):
        axes = data.draw(st.sets(st.integers(0, len(dims) - 1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        d = math.prod(dims)
        stack = rng.standard_normal((*lead, d, d)) + 1j * rng.standard_normal((*lead, d, d))
        got = trace_out_axes(stack, dims, axes)
        assert got.shape[:-2] == tuple(lead)
        for idx in np.ndindex(*lead):
            assert same_bits(got[idx], trace_out_axes(stack[idx], dims, axes))


class TestFidelity:
    def test_pure_matches(self):
        phi = max_entangled(2)
        assert abs(fidelity(phi, phi.density()) - 1) < 1e-14

    def test_maximally_mixed(self):
        phi = max_entangled(2)
        mixed = MultipartiteState(phi.system, np.eye(4) / 4)
        assert abs(fidelity(phi, mixed) - 0.25) < 1e-14

    def test_dimension_mismatch(self):
        phi = max_entangled(2)
        rho = MultipartiteState(qubits("A"), np.eye(2) / 2)
        with pytest.raises(ChoilabError, match="^pure state dimension 4 != state dimension 2$"):
            fidelity(phi, rho)


class TestSchmidt:
    def test_bell_pair(self):
        phi = max_entangled(2)
        sd = schmidt_decomposition(phi, ["A"])
        assert sd.rank == 2
        assert np.allclose(sd.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_product(self):
        sys = qubits("A", "B")
        v = np.kron(random_pure_vector(np.random.default_rng(2), 2),
                    random_pure_vector(np.random.default_rng(3), 2))
        sd = schmidt_decomposition(PureState(sys, v), ["A"])
        assert sd.rank == 1

    def test_ghz_cut(self):
        sys = qubits("A", "B1", "B2")
        ghz = ghz_basis_state(sys, 0, 1)
        sd = schmidt_decomposition(ghz, ["A"])
        assert np.allclose(sd.coefficients[:2], [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_reconstruction_and_reduced_spectrum(self, four_qubits):
        rng = np.random.default_rng(12)
        for _ in range(5):
            phi = PureState(four_qubits, random_pure_vector(rng, 16))
            for side in (["A1"], ["A1", "A2"], ["B", "C"], ["A1", "B", "C"]):
                sd = schmidt_decomposition(phi, side)
                assert sd.left_labels == tuple(l for l in four_qubits.labels if l in side)
                rebuilt = sum(
                    c * np.kron(sd.left_vectors[:, i], sd.right_vectors[i, :])
                    for i, c in enumerate(sd.coefficients)
                )
                from choilab.states import permute_vector_parties

                perm = [four_qubits.axis(l) for l in sd.left_labels + sd.right_labels]
                direct = permute_vector_parties(phi.vector, four_qubits.dims, perm)
                assert np.linalg.norm(rebuilt - direct) < 1e-10
                reduced = partial_trace(phi.density(), sd.right_labels)
                eigvals = np.sort(np.linalg.eigvalsh(reduced.matrix))[::-1]
                squared = np.zeros_like(eigvals)
                squared[: len(sd.coefficients)] = sd.coefficients**2
                assert np.allclose(eigvals, squared, atol=1e-10)


class TestValidation:
    def test_permute_roundtrip(self, four_qubits):
        rho = random_state(np.random.default_rng(4), four_qubits)
        silly = permute_parties(rho, ("C", "A1", "B", "A2"))
        back = permute_parties(silly, ("A1", "B", "A2", "C"))
        assert np.allclose(back.matrix, rho.matrix, atol=0)
        message = "('A1', 'B', 'A2') is not a permutation of ('A1', 'B', 'A2', 'C')"
        with pytest.raises(ChoilabError, match=f"^{re.escape(message)}$"):
            permute_parties(rho, ("A1", "B", "A2"))

    def test_permute_parties_reads_an_iterator_once(self, four_qubits):
        rho = random_state(np.random.default_rng(4), four_qubits)
        order = ("C", "A1", "B", "A2")
        moved = permute_parties(rho, iter(order))
        assert moved.system.labels == order
        assert np.array_equal(moved.matrix, permute_parties(rho, order).matrix)
        message = "('A1', 'A1', 'B', 'A2') is not a permutation of ('A1', 'B', 'A2', 'C')"
        with pytest.raises(ChoilabError, match=f"^{re.escape(message)}$"):
            permute_parties(rho, iter(("A1", "A1", "B", "A2")))

    def test_density_gates(self):
        sys = qubits("A")
        with pytest.raises(ChoilabError, match=r"^hermiticity defect 1\.414e\+00$"):
            MultipartiteState(sys, np.array([[0.5, 1], [0, 0.5]]))
        with pytest.raises(ChoilabError, match=r"^trace \(2\+0j\) is not 1 within 1e-10$"):
            MultipartiteState(sys, np.eye(2))
        with pytest.raises(ChoilabError, match="^min eigenvalue -5.000e-01 below threshold -1.0e-09$"):
            MultipartiteState(sys, np.diag([1.5, -0.5]))

    def test_matrix_is_a_read_only_copy(self):
        given = np.diag([0.75, 0.25]).astype(complex)
        rho = MultipartiteState(qubits("A"), given)
        with pytest.raises(ValueError):
            rho.matrix[0, 1] = 0.1
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.matrix = np.eye(2) / 2
        # the caller's array stays writable and the state does not follow it
        given[0, 0] = 0.5
        assert rho.matrix[0, 0] == 0.75 and rho.x_shaped

    def test_x_shape_recorded_once(self):
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 3] = m[3, 0] = 0.1
        assert MultipartiteState(qubits("A", "B"), m).x_shaped
        m[0, 1] = m[1, 0] = 0.01
        assert not MultipartiteState(qubits("A", "B"), m).x_shaped
        # odd dimension: the centre pairs with itself, never X-shaped
        assert not MultipartiteState(PartySystem(("Q",), (3,)), np.eye(3) / 3).x_shaped

    def test_min_eigenvalue_kept_from_validation(self, four_qubits):
        x = random_ghz_diagonal_state(np.random.default_rng(9), four_qubits)
        dense = random_state(np.random.default_rng(9), four_qubits)
        assert x.x_shaped and not dense.x_shaped
        for rho in (x, dense):
            assert rho.min_eigenvalue == linalg.min_eigenvalue(rho.matrix)

    def test_vector_is_a_read_only_copy(self):
        given = np.array([1, 0], dtype=complex)
        psi = PureState(qubits("A"), given)
        with pytest.raises(ValueError):
            psi.vector[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            psi.vector = np.array([3, 4])
        # the caller's array stays writable and the state does not follow it
        given[0] = 5
        assert psi.vector[0] == 1 and linalg.norm(psi.vector) == 1

    def test_pure_norm_gate(self):
        with pytest.raises(ChoilabError, match="^vector norm 1.4142135623730951 is not 1 within 1e-12$"):
            PureState(qubits("A"), np.array([1.0, 1.0]))
        with pytest.raises(ChoilabError, match="^vector length 3 != system dimension 2$"):
            PureState(qubits("A"), np.array([1.0, 0.0, 0.0]))

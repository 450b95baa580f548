import itertools
import math

import numpy as np
import pytest

from choilab.channels import (
    KrausChannel,
    apply,
    apply_matrix,
    choi,
    choi_apply,
    kraus_from_choi,
    mix,
    reduced_channel,
    verify_cptp,
)
from choilab.errors import (
    BadPermutation,
    BadWeights,
    DimensionMismatch,
    NothingLeft,
    NotPSD,
    NotTracePreserving,
    SystemMismatch,
    UnknownParty,
)
from choilab.linalg import PAULIS, identity, sigma1
from choilab.nonadditivity import (
    CANONICAL_ORDER,
    binding_channel,
    choi_state,
    mixed_binding_channel,
)
from choilab.states import (
    BipartiteCut,
    MultipartiteState,
    PartySystem,
    max_entangled,
    permute_parties,
)

from conftest import random_density_matrix, random_state


def qubit_system(*labels):
    return PartySystem(tuple(labels), (2,) * len(labels))


def identity_channel(label="Q"):
    sys = qubit_system(label)
    return KrausChannel("id", sys, sys, (identity(2),))


def depolarizing_channel(label="Q"):
    sys = qubit_system(label)
    return KrausChannel("dep", sys, sys, tuple(p / 2 for p in PAULIS))


def two_qubit_depolarizing():
    sys = qubit_system("B", "C")
    ops = tuple(np.kron(a, b) / 4 for a in PAULIS for b in PAULIS)
    return KrausChannel("dep2", PartySystem(("A",), (4,)), sys, ops)


def operator_basis(dim):
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            yield e


def channels_act_alike(ch1, ch2, tol=1e-9):
    assert ch1.dim_in == ch2.dim_in
    return all(
        np.linalg.norm(apply_matrix(ch1, e) - apply_matrix(ch2, e)) <= tol
        for e in operator_basis(ch1.dim_in)
    )


class TestVerifyCptp:
    def test_identity_passes(self):
        rep = verify_cptp(identity_channel())
        assert rep.passed
        assert rep.trace_preserving_defect == 0

    def test_scenario_channels_pass(self):
        for a in (1, 2, 3):
            rep = verify_cptp(binding_channel(a))
            assert rep.passed
            assert rep.trace_preserving_defect <= 1e-12
        assert verify_cptp(mixed_binding_channel([binding_channel(a) for a in (1, 2, 3)])).passed

    def test_broken_channel_fails(self):
        sys = qubit_system("Q")
        broken = KrausChannel("bad", sys, sys, (0.9 * sigma1,))
        rep = verify_cptp(broken)
        assert not rep.passed
        # one verdict per rule: the Choi matrix of 0.9*X is still positive
        assert (rep.trace_preserving, rep.choi_positive) == (False, True)
        assert not verify_cptp(identity_channel(), psd_threshold=1.0).choi_positive
        expected = np.linalg.norm(0.81 * np.eye(2) - np.eye(2))
        assert abs(rep.trace_preserving_defect - expected) < 1e-14

    def test_dimension_mismatch(self):
        sys = qubit_system("Q")
        with pytest.raises(DimensionMismatch):
            KrausChannel("bad", sys, sys, (np.eye(3),))


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        ch = identity_channel()
        rho = random_state(rng, ch.input_system)
        assert np.allclose(apply(ch, rho).matrix, rho.matrix, atol=0)

    def test_two_qubit_twirl(self):
        rng = np.random.default_rng(1)
        ch = two_qubit_depolarizing()
        rho = random_state(rng, ch.input_system)
        out = apply(ch, rho)
        assert np.linalg.norm(out.matrix - np.eye(4) / 4) < 1e-12

    def test_scenario_channel_output_is_state(self):
        ch = binding_channel(1)
        phi = max_entangled(2, ("X", "Y"))
        rho = MultipartiteState(ch.input_system, phi.density().matrix)
        out = apply(ch, rho)
        assert abs(np.trace(out.matrix) - 1) < 1e-12
        assert out.system.labels == ("B", "C")

    def test_linearity(self):
        rng = np.random.default_rng(2)
        ch = binding_channel(2)
        a = random_density_matrix(rng, 4)
        b = random_density_matrix(rng, 4)
        lhs = apply_matrix(ch, 0.3 * a + 0.7 * b)
        rhs = 0.3 * apply_matrix(ch, a) + 0.7 * apply_matrix(ch, b)
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        ch = binding_channel(1)
        with pytest.raises(DimensionMismatch):
            apply(ch, random_state(np.random.default_rng(3), qubit_system("Q")))


class TestChoi:
    def test_identity_channel(self):
        state = choi(identity_channel())
        phi = max_entangled(2)
        assert np.linalg.norm(state.matrix - phi.density().matrix) < 1e-15

    def test_contraction_consistency(self):
        rng = np.random.default_rng(4)
        for ch in (binding_channel(1), binding_channel(2), two_qubit_depolarizing()):
            state = choi(ch)
            ref = state.system.labels[: len(ch.input_system.labels)]
            for _ in range(5):
                rho = random_density_matrix(rng, ch.dim_in)
                direct = apply_matrix(ch, rho)
                contracted = choi_apply(state, ref, rho)
                assert np.linalg.norm(direct - contracted) < 1e-10

    def test_reference_validation(self):
        # the labels of the order that are not outputs name the reference
        ch = binding_channel(1)
        default = choi(ch)
        assert default.system == PartySystem(("A_ref", "B", "C"), (4, 2, 2))
        # as many reference labels as input parties: split like the input
        like_input = choi(ch, ("B", "R", "C"))
        assert like_input.system == PartySystem(("B", "R", "C"), (2, 4, 2))
        want = permute_parties(default, ("B", "A_ref", "C")).matrix
        assert np.array_equal(like_input.matrix, want)
        # k labels for an input dimension of 2^k: split into qubits
        qubits = choi(ch, ("A1", "B", "A2", "C"))
        assert qubits.system == qubit_system("A1", "B", "A2", "C")
        assert np.array_equal(qubits.matrix, choi_state(ch).matrix)
        with pytest.raises(DimensionMismatch, match="cannot split input dimension 4"):
            choi(ch, ("R1", "R2", "R3", "B", "C"))

    def test_order_must_list_every_party(self):
        with pytest.raises(BadPermutation) as exc:
            choi(binding_channel(1), ("A1", "B", "A2"))
        assert str(exc.value) == (
            "('A1', 'B', 'A2') is not a permutation of ('A1', 'A2', 'B', 'C')"
        )

    def test_default_reference_must_not_collide(self):
        ch = identity_channel()
        clashing = KrausChannel("id", ch.input_system, PartySystem(("Q_ref",), (2,)), ch.kraus)
        with pytest.raises(DimensionMismatch, match="collide"):
            choi(clashing)

    def test_swap_relation_between_e2_and_e3(self):
        from choilab.nonadditivity import swap_image

        assert (
            np.linalg.norm(
                choi_state(binding_channel(3)).matrix
                - swap_image(choi_state(binding_channel(2))).matrix
            )
            < 1e-12
        )


class TestMix:
    def test_choi_linearity(self):
        chans = [binding_channel(a) for a in (1, 2, 3)]
        mixed = mix(chans)
        combo = sum(choi(c).matrix for c in chans) / 3
        assert np.linalg.norm(choi(mixed).matrix - combo) < 1e-12

    def test_single_channel(self):
        ch = binding_channel(1)
        assert channels_act_alike(mix([ch], [1.0]), ch, tol=1e-14)

    def test_identity_plus_depolarizing(self):
        rng = np.random.default_rng(5)
        mixed = mix([identity_channel(), depolarizing_channel()], [0.5, 0.5])
        rho = random_density_matrix(rng, 2)
        out = apply_matrix(mixed, rho)
        assert np.linalg.norm(out - (rho + np.eye(2) / 2) / 2) < 1e-12

    def test_bad_weights(self):
        chans = [identity_channel(), depolarizing_channel()]
        with pytest.raises(BadWeights):
            mix(chans, [0.5, 0.6])
        with pytest.raises(BadWeights):
            mix(chans, [1.5, -0.5])
        with pytest.raises(BadWeights):
            mix(chans, [1.0])

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [0.5, math.nan]])
    def test_nan_weight_is_bad_weights(self, weights):
        # every comparison with NaN is False, so neither the sign nor the
        # sum check alone catches it
        with pytest.raises(BadWeights, match="non-finite"):
            mix([identity_channel(), depolarizing_channel()], weights)

    def test_system_mismatch(self):
        with pytest.raises(SystemMismatch):
            mix([identity_channel("Q"), identity_channel("R")])

    def test_mixture_is_cptp(self):
        assert verify_cptp(mix([binding_channel(1), binding_channel(3)], [0.25, 0.75])).passed


class TestReducedChannel:
    def test_identity_trace_out(self):
        sys = qubit_system("B", "C")
        ch = KrausChannel("id2", sys, sys, (identity(4),))
        red = reduced_channel(ch, ["C"])
        phi = max_entangled(2, ("B", "C"))
        rho = MultipartiteState(sys, phi.density().matrix)
        out = apply(red, rho)
        assert np.linalg.norm(out.matrix - np.eye(2) / 2) < 1e-14
        assert out.system.labels == ("B",)

    def test_action_equals_trace_after_apply(self):
        from choilab.states import trace_out_axes

        ch = binding_channel(1)
        red = reduced_channel(ch, ["C"])
        for e in operator_basis(4):
            direct = trace_out_axes(apply_matrix(ch, e), (2, 2), [1])
            assert np.linalg.norm(direct - apply_matrix(red, e)) < 1e-10

    def test_sequential_equals_joint(self):
        sys = qubit_system("X", "Y", "Z")
        ops = tuple(np.kron(np.kron(a, b), c) / (2 * math.sqrt(2)) for a, b, c in
                    itertools.product((PAULIS[0], PAULIS[3]), repeat=3))
        ch = KrausChannel("diag3", sys, sys, ops)
        assert verify_cptp(ch).passed
        step = reduced_channel(reduced_channel(ch, ["Z"]), ["Y"])
        joint = reduced_channel(ch, ["Y", "Z"])
        assert channels_act_alike(step, joint, tol=1e-12)
        assert verify_cptp(joint).passed

    def test_errors(self):
        ch = binding_channel(1)
        with pytest.raises(UnknownParty):
            reduced_channel(ch, ["Q"])
        with pytest.raises(NothingLeft):
            reduced_channel(ch, ["B", "C"])


class TestKrausFromChoi:
    def test_identity_choi(self):
        state = max_entangled(2, ("R", "Q")).density()
        ch = kraus_from_choi(state, ["R"], ["Q"])
        assert np.linalg.norm(apply_matrix(ch, np.array(sigma1)) - sigma1) < 1e-12
        assert verify_cptp(ch).passed

    def test_maximally_mixed_choi_is_depolarizing(self):
        sys = qubit_system("R", "Q")
        state = MultipartiteState(sys, np.eye(4) / 4)
        ch = kraus_from_choi(state, ["R"], ["Q"])
        rho = random_density_matrix(np.random.default_rng(6), 2)
        assert np.linalg.norm(apply_matrix(ch, rho) - np.eye(2) / 2) < 1e-12

    def test_roundtrip_action_for_scenario_channels(self):
        parts = [binding_channel(a) for a in (1, 2, 3)]
        for build in (*parts, mixed_binding_channel(parts)):
            state = choi(build, CANONICAL_ORDER)
            rebuilt = kraus_from_choi(state, ["A1", "A2"], ["B", "C"])
            assert channels_act_alike(rebuilt, build, tol=1e-9)
            assert verify_cptp(rebuilt).passed

    def test_choi_of_rebuilt_matches(self):
        ch = binding_channel(2)
        state = choi(ch)
        rebuilt = kraus_from_choi(state, state.system.labels[:1], state.system.labels[1:])
        assert np.linalg.norm(choi(rebuilt).matrix - state.matrix) < 1e-9

    def test_not_psd(self):
        from choilab.states import partial_transpose

        phi = max_entangled(2, ("R", "Q"))
        pt = partial_transpose(phi.density(), BipartiteCut.from_side(phi.system, ["Q"]))
        bad = MultipartiteState(phi.system, pt, psd_threshold=-1.0)
        with pytest.raises(NotPSD):
            kraus_from_choi(bad, ["R"], ["Q"])

    def test_not_trace_preserving(self):
        sys = qubit_system("R", "Q")
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        with pytest.raises(NotTracePreserving):
            kraus_from_choi(MultipartiteState(sys, m), ["R"], ["Q"])

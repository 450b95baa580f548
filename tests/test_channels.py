import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from choilab import channels, linalg
from choilab.channels import (
    CHOI_RANK_CUTOFF,
    KrausChannel,
    apply,
    apply_matrix,
    choi,
    choi_matrix,
    completeness_defect,
    kraus_from_choi,
    mix,
    reduced_channel,
    verify_cptp,
)
from choilab.codec import channel_from_dict, channel_to_dict, dumps, encode_matrix, loads
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

from conftest import (
    choi_apply,
    loop_apply_matrix,
    loop_choi_matrix,
    loop_completeness_defect,
    loop_decode_kraus,
    loop_kraus_from_choi,
    loop_mix_kraus,
    loop_reduced_kraus,
    random_density_matrix,
    random_state,
    same_bits,
)


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


def _random_kraus(rng, k: int, d_out: int, d_in: int) -> list[np.ndarray]:
    """k separate operators with about a fifth of their parts planted as -0.0 or +0.0."""
    shape = (k, d_out, d_in)
    ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for part in (ops.real, ops.imag):
        part[rng.random(shape) < 0.1] = -0.0
        part[rng.random(shape) < 0.1] = 0.0
    return [np.array(a) for a in ops / math.sqrt(k * d_out)]


class TestKrausArray:
    def test_one_writable_array_of_its_own(self):
        ops = [identity(2), np.array(sigma1)]
        ch = KrausChannel("t", qubit_system("Q"), qubit_system("Q"), ops)
        assert isinstance(ch.kraus, np.ndarray) and ch.kraus.dtype == np.complex128
        assert ch.kraus.shape == (2, 2, 2)
        assert ch.kraus.flags.c_contiguous and ch.kraus.flags.writeable
        ops[1][0, 1] = 5  # the channel holds a copy
        assert ch.kraus[1, 0, 1] == 1
        read_only = np.stack(ops)
        read_only.setflags(write=False)
        assert KrausChannel("t", ch.input_system, ch.output_system, read_only).kraus.flags.writeable

    @pytest.mark.parametrize(
        "ops, error, message",
        [
            ((), DimensionMismatch, "a channel needs at least one Kraus operator"),
            ((np.eye(2), np.ones(2)), DimensionMismatch, "expected a 2-D matrix, got ndim=1"),
            ((np.eye(2), np.ones((1, 2, 2))), DimensionMismatch, "expected a 2-D matrix, got ndim=3"),
            ((np.eye(2), [[0, math.nan], [0, 0]]), DimensionMismatch, "matrix contains non-finite entries"),
            # every operator is coerced before any shape is compared
            ((np.eye(3), [[math.inf, 0], [0, 0]]), DimensionMismatch, "matrix contains non-finite entries"),
            ((np.eye(2), np.eye(3)), DimensionMismatch, "Kraus operator shape (3, 3), expected (2, 2)"),
            ((np.eye(2), [[1, 0]]), DimensionMismatch, "Kraus operator shape (1, 2), expected (2, 2)"),
            (np.eye(2), DimensionMismatch, "expected a 2-D matrix, got ndim=1"),
            ((np.eye(2), [["a", "b"], ["c", "d"]]), ValueError, "complex() arg is a malformed string"),
            ((np.eye(2), [[2**2000, 0], [0, 0]]), OverflowError, "int too large to convert to float"),
        ],
        ids=[
            "empty", "vector", "stack", "nan", "inf-before-shape", "shape", "ragged",
            "one-matrix", "strings", "huge-int",
        ],
    )
    def test_first_bad_operator_names_the_error(self, ops, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            KrausChannel("t", qubit_system("Q"), qubit_system("Q"), ops)

    @given(
        k=st.integers(1, 64),
        d_in=st.sampled_from([2, 4, 8]),
        d_out=st.sampled_from([2, 4, 8]),
        n_parts=st.integers(1, 3),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_operator_loops(self, k, d_in, d_out, n_parts, batch, seed):
        rng = np.random.default_rng(seed)
        sys_in, sys_out = PartySystem(("I",), (d_in,)), PartySystem(("O",), (d_out,))
        part_ops = [_random_kraus(rng, k, d_out, d_in) for _ in range(n_parts)]
        parts = [KrausChannel(f"R{i}", sys_in, sys_out, ops) for i, ops in enumerate(part_ops)]
        ops, ch = part_ops[0], parts[0]
        assert same_bits(ch.kraus, np.stack(ops))
        assert completeness_defect(ch).hex() == loop_completeness_defect(ops, d_in).hex()
        want = loop_choi_matrix(ops, d_in, d_out)
        assert same_bits(choi_matrix(ch), want)
        with pytest.MonkeyPatch.context() as mp:  # outer products a few at a time
            mp.setattr(channels, "_OUTER_BATCH", batch * (d_in * d_out) ** 2)
            assert same_bits(choi_matrix(ch), want)
        mat = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
        assert same_bits(apply_matrix(ch, mat), loop_apply_matrix(ops, mat))
        weights = rng.random(n_parts) + 0.1
        weights = list(weights / weights.sum())
        mixed = mix(parts, weights)
        assert same_bits(mixed.kraus, np.stack(loop_mix_kraus(part_ops, weights)))
        text = dumps(channel_to_dict(mixed))
        per_operator = channel_to_dict(mixed) | {"kraus": [encode_matrix(a) for a in mixed.kraus]}
        assert text == dumps(per_operator)
        back = channel_from_dict(loads(text))
        assert same_bits(back.kraus, mixed.kraus)
        assert same_bits(back.kraus, np.stack(loop_decode_kraus(loads(text)["kraus"])))

    @pytest.mark.parametrize("traced", [("B",), ("C",), ("B", "D"), ("D", "B")])
    def test_reduced_channel_matches_per_operator_loop(self, traced):
        rng = np.random.default_rng(17)
        out = PartySystem(("B", "C", "D"), (2, 3, 2))
        ch = KrausChannel("r", qubit_system("A"), out, _random_kraus(rng, 5, 12, 2))
        axes = [out.axis(l) for l in out.labels if l in traced]
        d_traced = math.prod(out.dim_of(l) for l in traced)
        want = loop_reduced_kraus(ch.kraus, out.dims, axes, d_traced, 12 // d_traced)
        assert same_bits(reduced_channel(ch, traced).kraus, np.stack(want))

    def test_kraus_from_choi_matches_per_operator_loop(self):
        for ch in (binding_channel(2), two_qubit_depolarizing(), identity_channel()):
            state = choi(ch)
            got = kraus_from_choi(state, state.system.labels[:1], state.system.labels[1:])
            want = loop_kraus_from_choi(state.matrix, ch.dim_in, ch.dim_out, CHOI_RANK_CUTOFF)
            assert same_bits(got.kraus, np.stack(want))

    def test_mixture_coerces_no_operator_alone(self, monkeypatch):
        coerced = []
        as_matrix = linalg.as_matrix

        def counting(*args):
            coerced.append(1)
            return as_matrix(*args)

        monkeypatch.setattr(linalg, "as_matrix", counting)
        mixed = mixed_binding_channel([binding_channel(a) for a in (1, 2, 3)])
        assert len(mixed.kraus) == 45
        assert coerced == []

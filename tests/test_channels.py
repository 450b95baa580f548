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
    apply_matrix,
    choi,
    choi_matrix,
    completeness_defect,
    kraus_from_choi,
    mix,
    verify_cptp,
)
from choilab.codec import channel_from_dict, channel_to_dict, dumps, encode_matrix, loads
from choilab.errors import ChoilabError
from choilab.linalg import PAULIS, identity, sigma1
from choilab.nonadditivity import (
    CANONICAL_ORDER,
    binding_channel,
    choi_state,
    mixed_binding_channel,
)
from choilab.states import (
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
        with pytest.raises(ChoilabError, match=r"^Kraus operator shape \(3, 3\), expected \(2, 2\)$"):
            KrausChannel("bad", sys, sys, (np.eye(3),))


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        ch = identity_channel()
        rho = random_state(rng, ch.input_system)
        assert np.allclose(apply_matrix(ch, rho.matrix), rho.matrix, atol=0)

    def test_two_qubit_twirl(self):
        rng = np.random.default_rng(1)
        ch = two_qubit_depolarizing()
        rho = random_state(rng, ch.input_system)
        out = apply_matrix(ch, rho.matrix)
        assert np.linalg.norm(out - np.eye(4) / 4) < 1e-12

    def test_scenario_channel_output_is_state(self):
        ch = binding_channel(1)
        phi = max_entangled(2, ("X", "Y"))
        rho = MultipartiteState(ch.input_system, phi.density().matrix)
        out = MultipartiteState(ch.output_system, apply_matrix(ch, rho.matrix))
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
        with pytest.raises(ChoilabError, match=r"^matrix shape \(2, 2\), channel input dim 4$"):
            apply_matrix(ch, random_state(np.random.default_rng(3), qubit_system("Q")).matrix)


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
        with pytest.raises(ChoilabError, match="cannot split input dimension 4"):
            choi(ch, ("R1", "R2", "R3", "B", "C"))

    def test_order_must_list_every_party(self):
        message = "('A1', 'B', 'A2') is not a permutation of ('A1', 'A2', 'B', 'C')"
        with pytest.raises(ChoilabError, match=f"^{re.escape(message)}$"):
            choi(binding_channel(1), ("A1", "B", "A2"))

    def test_bare_string_order_refused(self):
        # read letter by letter, the order would name the references A, 1, A, 2
        with pytest.raises(ChoilabError, match=re.escape("write ['A1BA2C']")):
            choi(binding_channel(1), "A1BA2C")

    def test_default_reference_must_not_collide(self):
        ch = identity_channel()
        clashing = KrausChannel("id", ch.input_system, PartySystem(("Q_ref",), (2,)), ch.kraus)
        message = "duplicate party labels in ('Q_ref', 'Q_ref')"
        with pytest.raises(ChoilabError, match=f"^{re.escape(message)}$"):
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
        with pytest.raises(ChoilabError, match="^weights sum to 1.1, expected 1$"):
            mix(chans, [0.5, 0.6])
        with pytest.raises(ChoilabError, match=r"^negative weight in \[1.5, -0.5\]$"):
            mix(chans, [1.5, -0.5])
        with pytest.raises(ChoilabError, match="^1 weights for 2 channels$"):
            mix(chans, [1.0])
        with pytest.raises(ChoilabError, match="^mix weights need n >= 1 channels, got 0$"):
            mix([])

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [0.5, math.nan]])
    def test_nan_weight_is_bad_weights(self, weights):
        # every comparison with NaN is False, so neither the sign nor the
        # sum check alone catches it
        with pytest.raises(ChoilabError, match="non-finite"):
            mix([identity_channel(), depolarizing_channel()], weights)

    @pytest.mark.parametrize(
        "weights, message",
        [
            (["x"], "weight 'x' does not convert to a float"),
            ([[1.0]], "weight [1.0] does not convert to a float"),
            ([None], "weight None does not convert to a float"),
            ([1j], "weight 1j does not convert to a float"),
        ],
    )
    def test_weight_that_is_no_float(self, weights, message):
        with pytest.raises(ChoilabError, match=f"^{re.escape(message)}$"):
            mix([identity_channel()], weights=weights)

    @pytest.mark.parametrize("n", [0, -1])
    def test_weights_for_no_channel(self, n):
        with pytest.raises(ChoilabError, match=f"^mix weights need n >= 1 channels, got {n}$"):
            channels.mix_weights(n)

    @pytest.mark.parametrize("n", [2.0, "2", None, True])
    def test_count_that_is_no_int(self, n):
        # a bool counts no channels, as it is no dimension of a PartySystem
        message = f"^mix weights need n >= 1 channels, got {re.escape(repr(n))}$"
        with pytest.raises(ChoilabError, match=message):
            channels.mix_weights(n)

    @pytest.mark.parametrize("weights", [1.0, 1, True])
    def test_weights_with_no_length(self, weights):
        message = f"^weights {re.escape(repr(weights))} must be a list of 2 numbers$"
        with pytest.raises(ChoilabError, match=message):
            channels.mix_weights(2, weights)
        with pytest.raises(ChoilabError, match=message):
            mix([identity_channel(), depolarizing_channel()], weights=weights)
        assert channels.mix_weights(2, np.array([0.25, 0.75])) == [0.25, 0.75]
        assert channels.mix_weights(np.int64(2)) == [0.5, 0.5]

    def test_system_mismatch(self):
        message = "channel 'id' has a different input/output system"
        with pytest.raises(ChoilabError, match=f"^{re.escape(message)}$"):
            mix([identity_channel("Q"), identity_channel("R")])

    def test_mixture_is_cptp(self):
        assert verify_cptp(mix([binding_channel(1), binding_channel(3)], [0.25, 0.75])).passed


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

    def test_bare_string_reference_refused(self):
        state = choi(binding_channel(1), CANONICAL_ORDER)
        with pytest.raises(ChoilabError, match=re.escape("write ['A1']")):
            kraus_from_choi(state, "A1", ["B", "A2", "C"])

    def test_split_must_partition_the_parties(self):
        state = choi(binding_channel(1), CANONICAL_ORDER)
        message = "('A1', 'B', 'C') is not a permutation of ('A1', 'B', 'A2', 'C')"
        with pytest.raises(ChoilabError, match=f"^{re.escape(message)}$"):
            kraus_from_choi(state, ["A1"], ["B", "C"])

    def test_choi_of_rebuilt_matches(self):
        ch = binding_channel(2)
        state = choi(ch)
        rebuilt = kraus_from_choi(state, state.system.labels[:1], state.system.labels[1:])
        assert np.linalg.norm(choi(rebuilt).matrix - state.matrix) < 1e-9

    def test_not_psd(self):
        from choilab.states import partial_transpose

        phi = max_entangled(2, ("R", "Q"))
        pt = partial_transpose(phi.density(), ["Q"])
        bad = MultipartiteState(phi.system, pt, psd_threshold=-1.0)
        with pytest.raises(ChoilabError, match="^Choi min eigenvalue -5.000e-01$"):
            kraus_from_choi(bad, ["R"], ["Q"])

    def test_not_psd_by_the_dense_solve(self):
        # Just below the threshold: the block solve that validates this
        # diagonal state reads its smallest eigenvalue just above it, and
        # the dense solve that the Kraus operators come from reads it exactly.
        low = -1.000000001e-09
        rest = (0.01 - low) / 2
        m = np.diag([low, rest, rest, 0.99]).astype(complex)
        assert linalg.min_eigenvalue(m) >= linalg.PSD_THRESHOLD > np.linalg.eigvalsh(m)[0]
        with pytest.raises(ChoilabError, match="^Choi min eigenvalue -1.000e-09$"):
            kraus_from_choi(MultipartiteState(qubit_system("R", "Q"), m), ["R"], ["Q"])

    def test_builds_no_state(self, monkeypatch):
        state = choi(binding_channel(1), CANONICAL_ORDER)  # parties A1, B, A2, C
        built = []
        post_init = MultipartiteState.__post_init__

        def counting(self, psd_threshold):
            built.append(1)
            post_init(self, psd_threshold)

        monkeypatch.setattr(MultipartiteState, "__post_init__", counting)
        kraus_from_choi(state, ["A1", "A2"], ["B", "C"])
        assert built == []

    def test_not_trace_preserving(self):
        sys = qubit_system("R", "Q")
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        with pytest.raises(
            ChoilabError, match="^reference marginal of the Choi state is not maximally mixed$"
        ):
            kraus_from_choi(MultipartiteState(sys, m), ["R"], ["Q"])


def _random_kraus(rng, k: int, d_out: int, d_in: int) -> list[np.ndarray]:
    """k separate operators with about a fifth of their parts planted as -0.0 or +0.0."""
    shape = (k, d_out, d_in)
    ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for part in (ops.real, ops.imag):
        part[rng.random(shape) < 0.1] = -0.0
        part[rng.random(shape) < 0.1] = 0.0
    return [np.array(a) for a in ops / math.sqrt(k * d_out)]


@st.composite
def cptp_channels(draw):
    """A CPTP map on one party: K Kraus operators cut from a random isometry made by QR."""
    d_in, d_out = draw(st.sampled_from([2, 4])), draw(st.sampled_from([2, 4]))
    k = draw(st.integers(max(1, d_in // d_out), 6))  # the isometry needs K * d_out >= d_in
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((k * d_out, d_in)) + 1j * rng.standard_normal((k * d_out, d_in))
    isometry = np.linalg.qr(g)[0]
    sys_in, sys_out = PartySystem(("I",), (d_in,)), PartySystem(("O",), (d_out,))
    return KrausChannel(f"V{k}", sys_in, sys_out, isometry.reshape(k, d_out, d_in))


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
            ((), ChoilabError, "a channel needs at least one Kraus operator"),
            ((np.eye(2), np.ones(2)), ChoilabError, "expected a 2-D matrix, got ndim=1"),
            ((np.eye(2), np.ones((1, 2, 2))), ChoilabError, "expected a 2-D matrix, got ndim=3"),
            ((np.eye(2), [[0, math.nan], [0, 0]]), ChoilabError, "matrix contains non-finite entries"),
            # every operator is coerced before any shape is compared
            ((np.eye(3), [[math.inf, 0], [0, 0]]), ChoilabError, "matrix contains non-finite entries"),
            ((np.eye(2), np.eye(3)), ChoilabError, "Kraus operator shape (3, 3), expected (2, 2)"),
            ((np.eye(2), [[1, 0]]), ChoilabError, "Kraus operator shape (1, 2), expected (2, 2)"),
            (np.eye(2), ChoilabError, "expected a 2-D matrix, got ndim=1"),
            ((np.eye(2), [["a", "b"], ["c", "d"]]), ChoilabError,
             "matrix is not an array of numbers: complex() arg is a malformed string"),
            ((np.eye(2), [[2**2000, 0], [0, 0]]), ChoilabError,
             "matrix is not an array of numbers: int too large to convert to float"),
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

    @given(
        ch=st.one_of(
            st.sampled_from([lambda: binding_channel(2), two_qubit_depolarizing, identity_channel])
            .map(lambda build: build()),
            cptp_channels(),
        )
    )
    def test_kraus_from_choi_matches_per_operator_loop(self, ch):
        state = choi(ch)
        ref, out = state.system.labels[:1], state.system.labels[1:]
        want = np.stack(loop_kraus_from_choi(state.matrix, ch.dim_in, ch.dim_out, CHOI_RANK_CUTOFF))
        rebuilt = kraus_from_choi(state, ref, out)
        assert same_bits(rebuilt.kraus, want)
        # the same state with its parties listed the other way round
        moved = permute_parties(state, out + ref)
        assert same_bits(kraus_from_choi(moved, ref, out).kraus, want)
        assert channels_act_alike(rebuilt, ch, tol=1e-9)
        assert verify_cptp(rebuilt).passed

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

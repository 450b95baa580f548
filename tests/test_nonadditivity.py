import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from choilab import entanglement, linalg, nonadditivity
from choilab.channels import completeness_defect, verify_cptp
from choilab.errors import DimensionMismatch
from choilab.linalg import identity
from choilab.nonadditivity import (
    CANONICAL_ORDER,
    CHOI_SYSTEM,
    MIX_NPT_EIGENVALUE,
    SENDER_GROUP,
    binding_channel,
    capacity_proxy,
    capacity_proxy_report,
    choi_closed_form,
    choi_state,
    full_report,
    ghz3_state,
    ghz_oneway_example,
    mixed_binding_channel,
    reproduce_choi_claims,
    reproduce_pt_table,
    swap_image,
    teleport_fidelity,
    teleport_report,
)
from choilab.entanglement import ghz_diagonal_coefficients, pairwise_distillability
from choilab.states import (
    MultipartiteState,
    PartySystem,
    PureState,
    fidelity,
    ghz_basis_state,
    max_entangled,
)

from conftest import (
    loop_teleport_fidelity,
    random_ghz_diagonal_state,
    random_pure_vector,
    random_state,
    report_entry,
    report_passed,
    same_bits,
)


class TestBuilders:
    def test_kraus_counts_and_completeness(self):
        for a in (1, 2, 3):
            ch = binding_channel(a)
            assert len(ch.kraus) == 15
            assert completeness_defect(ch) <= 1e-12
            assert verify_cptp(ch).passed
        mixed = mixed_binding_channel([binding_channel(a) for a in (1, 2, 3)])
        assert len(mixed.kraus) == 45
        assert completeness_defect(mixed) <= 1e-12

    def test_bad_index(self):
        # one rule for both builders: a Python or numpy int 1, 2 or 3, never a
        # bool, a float or a string; choi_closed_form also takes "mix" alone
        for a in (0, 4, -1, np.int64(4), True, np.True_, 1.0, np.float64(2.0), "1", None):
            message = f"channel index must be 1, 2 or 3, got {a}"
            with pytest.raises(DimensionMismatch, match=message):
                binding_channel(a)
            with pytest.raises(DimensionMismatch, match=message):
                choi_closed_form(a)
        for which in ("MIX", "Mix", " mix", "E1"):
            with pytest.raises(DimensionMismatch, match=f"channel index must be 1, 2 or 3, got {which}"):
                choi_closed_form(which)

    def test_numpy_index(self):
        for a in (1, 2, 3):
            ch = binding_channel(np.int64(a))
            assert ch.name == f"E{a}"
            assert np.array_equal(ch.kraus, binding_channel(a).kraus)
            assert np.array_equal(choi_closed_form(np.int32(a)).matrix, choi_closed_form(a).matrix)

    def test_choi_matches_closed_forms(self):
        for a in (1, 2, 3):
            got = choi_state(binding_channel(a))
            assert got.system.labels == CANONICAL_ORDER
            want = choi_closed_form(a)
            assert np.linalg.norm(got.matrix - want.matrix) <= 1e-12
        got = choi_state(mixed_binding_channel([binding_channel(a) for a in (1, 2, 3)]))
        assert np.linalg.norm(got.matrix - choi_closed_form("mix").matrix) <= 1e-12

    def test_third_channel_is_swapped_second(self):
        e3 = choi_state(binding_channel(3))
        assert np.linalg.norm(e3.matrix - swap_image(choi_closed_form(2)).matrix) <= 1e-12

    def test_closed_form_trace_one(self):
        # (2 + 16 - 1 - 1)/16 normalization
        m = choi_closed_form(1).matrix
        assert abs(np.trace(m) - 1) < 1e-14

    def test_output_marginal_trace(self):
        from choilab.states import partial_trace

        state = choi_state(binding_channel(1))
        marginal = partial_trace(state, ["A1", "A2"])
        assert marginal.system.labels == ("B", "C")
        assert abs(np.trace(marginal.matrix) - 1) < 1e-12

    def test_reference_overlap_is_three_sixteenths(self):
        # brute-force quadratic form on the closed form
        psi = ghz_basis_state(CHOI_SYSTEM, 0, 1)
        state = choi_closed_form(1)
        direct = float(np.real(psi.vector.conj() @ state.matrix @ psi.vector))
        assert abs(direct - 3 / 16) < 1e-14
        assert abs(fidelity(psi, state) - direct) < 1e-15
        # consistency with the classifier's leading coefficient
        c = ghz_diagonal_coefficients(state)
        assert abs(c.plus[0] - direct) < 1e-14


class TestReports:
    def test_choi_claims(self):
        rep = reproduce_choi_claims(nonadditivity.build_scenario())
        assert report_passed(rep)
        ids = {e.claim_id for e in rep}
        assert {"choi-E1", "choi-E2", "choi-E3", "choi-E3-swap", "choi-mix"} <= ids
        control = report_entry(rep, "choi-control-perturbed-E1")
        assert control.control and control.passed

    def test_pt_table(self, scenario_states):
        rep = reproduce_pt_table(nonadditivity.build_scenario())
        assert report_passed(rep)
        assert len([e for e in rep if not e.control]) == 7
        for key in ("pt-mix-A1A2", "pt-mix-B", "pt-mix-C"):
            assert report_entry(rep, key).passed
        assert report_entry(rep, "pt-control-wrong-state").passed
        # cross-check the NPT eigenvalue against the coefficient formula
        c = ghz_diagonal_coefficients(scenario_states["mix"])
        assert abs((c.lambdas[0b010 - 1] - c.delta / 2) - MIX_NPT_EIGENVALUE) < 1e-14
        assert abs(MIX_NPT_EIGENVALUE + 1 / 48) < 1e-16

    def test_pt_table_work_counts(self, monkeypatch):
        # The seven facts name their cuts by a side (cut_number gives k);
        # each of E1, E2 and mix solves all seven of its cuts in one stacked
        # solve.
        scenario = nonadditivity.build_scenario()
        solves, solve = [], linalg.x_min_eigenvalue

        def counting_solve(diag, anti):
            solves.append(anti.shape)
            return solve(diag, anti)

        monkeypatch.setattr(linalg, "x_min_eigenvalue", counting_solve)
        assert report_passed(reproduce_pt_table(scenario))
        assert solves == [(7, 16)] * 3

    def test_capacity_proxies(self, scenario_states):
        rep = capacity_proxy_report(nonadditivity.build_scenario())
        assert report_passed(rep)
        for a in (1, 2, 3):
            for tag in ("AB", "AC", "ABC"):
                entry = report_entry(rep, f"proxy-E{a}-{tag}")
                assert entry.passed and entry.computed.startswith("zero")
        for tag in ("AB", "AC", "ABC"):
            assert report_entry(rep, f"proxy-mix-{tag}").computed == "positive"
        assert report_entry(rep, "nonadditivity-headline").computed == "non-additivity witnessed"
        assert report_entry(rep, "proxy-control-corrupted-E1").passed

    def test_corrupted_control_leaves_the_scenario_alone(self):
        # The control zeroes pair 010 in copies of E1's weight vectors.
        scenario = nonadditivity.build_scenario()
        e1 = scenario.coeffs["E1"]
        plus, minus = e1.plus.copy(), e1.minus.copy()
        assert report_entry(capacity_proxy_report(scenario), "proxy-control-corrupted-E1").passed
        full_report()
        for c in (e1, nonadditivity.build_scenario().coeffs["E1"]):
            assert same_bits(c.plus, plus) and same_bits(c.minus, minus)
            assert abs(c.lambdas[0b010 - 1] - 1 / 16) < 1e-14

    def test_joint_proxy_reduces_to_pairs(self, scenario_states):
        c = ghz_diagonal_coefficients(scenario_states["mix"])
        joint = capacity_proxy(c, ("B", "C"))
        single_b = capacity_proxy(c, ("B",))
        single_c = capacity_proxy(c, ("C",))
        assert all(isinstance(p, bool) for p in (joint, single_b, single_c))
        assert joint == (single_b or single_c)

    @given(st.integers(0, 2**32 - 1))
    def test_proxy_is_any_receiver_pair_on_random_states(self, seed):
        # random GHZ-diagonal Choi states with symmetric pair weights, not
        # only the four of the scenario
        state = random_ghz_diagonal_state(np.random.default_rng(seed), CHOI_SYSTEM)
        c = ghz_diagonal_coefficients(state)
        for rs in (("B",), ("C",), ("B", "C")):
            want = any(pairwise_distillability(c, SENDER_GROUP, (r,)).distillable for r in rs)
            assert capacity_proxy(c, rs) == want

    def test_ghz_oneway(self):
        rep = ghz_oneway_example()
        assert report_passed(rep)
        assert report_entry(rep, "ghz-oneway-marginal-AB1").passed
        assert report_entry(rep, "ghz-oneway-marginal-AB2").passed
        assert report_entry(rep, "ghz-oneway-full-npt").passed
        # the contrast in PT facts: the marginal is PPT while the full
        # state is NPT across the same single receiver
        from choilab.entanglement import ppt_check
        from choilab.states import cut_number

        rho = ghz3_state().density()
        assert not ppt_check(rho, cut_number(rho.system, ["B1"])).is_ppt
        loc = report_entry(rep, "ghz-oneway-localization")
        assert loc.passed
        assert "(A,B1)" in loc.computed or "(A,B2)" in loc.computed
        assert report_entry(rep, "ghz-oneway-control-wrong-state").passed

    def test_full_report_sorted_and_green(self):
        rep = full_report()
        assert report_passed(rep)
        ids = [e.claim_id for e in rep]
        assert ids == sorted(ids)
        assert sum(1 for e in rep if e.control) >= 5

    def test_determinism(self):
        a = full_report()
        b = full_report()
        assert [(e.claim_id, e.computed, e.passed) for e in a] == [
            (e.claim_id, e.computed, e.passed) for e in b
        ]

    def test_blocking_cuts_listed_once(self):
        rep = capacity_proxy_report(nonadditivity.build_scenario())
        assert report_entry(rep, "proxy-E2-ABC").computed == (
            "zero (blocking cuts: A1,A2 | B,C; A1,B,A2 | C)"
        )
        assert report_entry(rep, "proxy-E3-ABC").computed == (
            "zero (blocking cuts: A1,A2,C | B; A1,A2 | B,C)"
        )
        for e in rep:
            if e.computed.startswith("zero (blocking cuts: "):
                cuts = e.computed[len("zero (blocking cuts: ") : -1].split("; ")
                assert len(cuts) == len(set(cuts)), e.claim_id

    def test_scenario_built_once_per_report(self, monkeypatch):
        calls = []
        build = nonadditivity.binding_channel

        def counting(a):
            calls.append(a)
            return build(a)

        monkeypatch.setattr(nonadditivity, "binding_channel", counting)
        full_report()
        assert sorted(calls) == [1, 2, 3]
        # a second report builds its own channels: nothing is cached
        full_report()
        assert len(calls) == 6

    def test_each_choi_state_validated_once(self, monkeypatch):
        # four Choi states from Kraus lists, one validation each; the rest
        # are the closed forms, their swap image and the GHZ, W and
        # teleportation states (the ideal resource is built once)
        validations = []
        post_init = MultipartiteState.__post_init__

        def validating(self, *args):
            validations.append(self.system.labels)
            return post_init(self, *args)

        monkeypatch.setattr(MultipartiteState, "__post_init__", validating)
        full_report()
        assert len(validations) == 17
        assert validations.count(CANONICAL_ORDER) == 9

    def test_each_pt_fact_solved_once_per_report(self, monkeypatch):
        calls = []
        check = nonadditivity.ppt_check

        def counting(state, cut, *rest, **kw):
            calls.append(cut)
            return check(state, cut, *rest, **kw)

        for module in (entanglement, nonadditivity):
            monkeypatch.setattr(module, "ppt_check", counting)
        rep = full_report()
        # the wrong-state control reuses the pt-mix-B eigensolve
        assert len(calls) == 11
        control = report_entry(rep, "pt-control-wrong-state")
        assert control.computed == report_entry(rep, "pt-mix-B").computed.split(";")[0]

    def test_reports_accept_a_shared_scenario(self):
        scenario = nonadditivity.build_scenario()
        full = {e.claim_id: e.computed for e in full_report()}
        for report in (reproduce_choi_claims, reproduce_pt_table, capacity_proxy_report):
            shared = report(scenario)
            assert report_passed(shared)
            assert all(full[e.claim_id] == e.computed for e in shared)


class TestTeleportation:
    def test_ideal_resource(self):
        resource = max_entangled(2, ("A", "B")).density()
        for vec in ([1, 0], [0, 1], [1 / math.sqrt(2), 1j / math.sqrt(2)]):
            inp = PureState(PartySystem(("M",), (2,)), np.array(vec, dtype=complex))
            assert abs(teleport_fidelity(resource, inp) - 1) <= 1e-12

    def test_useless_resource(self):
        sys = PartySystem(("A", "B"), (2, 2))
        resource = MultipartiteState(sys, identity(4) / 4)
        inp = PureState(
            PartySystem(("M",), (2,)),
            np.array([math.sqrt(0.2), math.sqrt(0.8)], dtype=complex),
        )
        assert abs(teleport_fidelity(resource, inp) - 0.5) <= 1e-12

    def test_report(self):
        rep = teleport_report()
        assert report_passed(rep)
        assert report_entry(rep, "teleport-ideal").passed
        assert report_entry(rep, "teleport-useless").passed
        assert report_entry(rep, "teleport-localized").passed
        assert report_entry(rep, "teleport-control-useless-resource").passed

    @given(seed=st.integers(0, 2**32 - 1), pure=st.booleans())
    def test_stacked_outcomes_match_the_loop(self, seed, pure):
        rng = np.random.default_rng(seed)
        system = PartySystem(("A", "B"), (2, 2))
        if pure:
            resource = PureState(system, random_pure_vector(rng, 4)).density()
        else:
            resource = random_state(rng, system)
        inp = PureState(PartySystem(("M",), (2,)), random_pure_vector(rng, 2))
        got = teleport_fidelity(resource, inp)
        assert abs(got - loop_teleport_fidelity(resource, inp)) <= 1e-15

    def test_report_pairs_match_the_loop_bit_for_bit(self, monkeypatch):
        calls = []

        def recorded(resource, inp):
            calls.append((resource, inp))
            return teleport_fidelity(resource, inp)

        monkeypatch.setattr(nonadditivity, "teleport_fidelity", recorded)
        teleport_report()
        assert len(calls) == 4
        for resource, inp in calls:
            assert same_bits(
                teleport_fidelity(resource, inp), loop_teleport_fidelity(resource, inp)
            )

    def test_outcomes_below_the_floor_are_skipped_as_in_the_loop(self):
        # |00> with input |0> never gives Psi+ or Psi-: both have probability 0
        system = PartySystem(("A", "B"), (2, 2))
        resource = PureState(system, np.array([1, 0, 0, 0], dtype=complex)).density()
        inp = PureState(PartySystem(("M",), (2,)), np.array([1, 0], dtype=complex))
        got = teleport_fidelity(resource, inp)
        assert same_bits(got, loop_teleport_fidelity(resource, inp))
        assert abs(got - 1) <= 1e-12  # the output is |0> on both outcomes

    def test_dimension_gates(self):
        resource = max_entangled(2, ("A", "B")).density()
        with pytest.raises(DimensionMismatch):
            teleport_fidelity(
                MultipartiteState(PartySystem(("A", "B"), (2, 3)), identity(6) / 6),
                PureState(PartySystem(("M",), (2,)), np.array([1, 0], dtype=complex)),
            )
        with pytest.raises(DimensionMismatch):
            teleport_fidelity(resource, ghz3_state())

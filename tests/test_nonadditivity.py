import math

import numpy as np
import pytest

from choilab import entanglement, linalg, nonadditivity
from choilab.channels import completeness_defect, verify_cptp
from choilab.errors import DimensionMismatch
from choilab.linalg import identity
from choilab.nonadditivity import (
    CANONICAL_ORDER,
    CHOI_SYSTEM,
    MIX_NPT_EIGENVALUE,
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
from choilab.entanglement import ghz_diagonal_coefficients
from choilab.states import (
    MultipartiteState,
    PartySystem,
    PureState,
    fidelity,
    ghz_basis_state,
    max_entangled,
)

from conftest import report_entry, report_passed


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
        with pytest.raises(DimensionMismatch):
            binding_channel(4)

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
        psi = ghz_basis_state(CHOI_SYSTEM, "000", 1)
        state = choi_closed_form(1)
        direct = float(np.real(psi.vector.conj() @ state.matrix @ psi.vector))
        assert abs(direct - 3 / 16) < 1e-14
        assert abs(fidelity(psi, state) - direct) < 1e-15
        # consistency with the classifier's leading coefficient
        c = ghz_diagonal_coefficients(state)
        assert abs(c.lambda0_plus - direct) < 1e-14


class TestReports:
    def test_choi_claims(self):
        rep = reproduce_choi_claims(nonadditivity.build_scenario())
        assert report_passed(rep)
        ids = {e.claim_id for e in rep.entries}
        assert {"choi-E1", "choi-E2", "choi-E3", "choi-E3-swap", "choi-mix"} <= ids
        control = report_entry(rep, "choi-control-perturbed-E1")
        assert control.control and control.passed

    def test_pt_table(self, scenario_states):
        rep = reproduce_pt_table(nonadditivity.build_scenario())
        assert report_passed(rep)
        assert len([e for e in rep.entries if not e.control]) == 7
        for key in ("pt-mix-A1A2", "pt-mix-B", "pt-mix-C"):
            assert report_entry(rep, key).passed
        assert report_entry(rep, "pt-control-wrong-state").passed
        # cross-check the NPT eigenvalue against the coefficient formula
        c = ghz_diagonal_coefficients(scenario_states["mix"])
        assert abs((c.lambdas["010"] - c.delta / 2) - MIX_NPT_EIGENVALUE) < 1e-14
        assert abs(MIX_NPT_EIGENVALUE + 1 / 48) < 1e-16

    def test_pt_table_work_counts(self, monkeypatch):
        # The seven facts name their cuts as BipartiteCut objects; each of
        # E1, E2 and mix solves all seven of its cuts in one stacked solve.
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

    def test_joint_proxy_reduces_to_pairs(self, scenario_states):
        c = ghz_diagonal_coefficients(scenario_states["mix"])
        joint = capacity_proxy(c, ("B", "C"))
        single_b = capacity_proxy(c, ("B",))
        single_c = capacity_proxy(c, ("C",))
        assert joint.positive == (single_b.positive or single_c.positive)

    def test_ghz_oneway(self):
        rep = ghz_oneway_example()
        assert report_passed(rep)
        assert report_entry(rep, "ghz-oneway-marginal-AB1").passed
        assert report_entry(rep, "ghz-oneway-marginal-AB2").passed
        assert report_entry(rep, "ghz-oneway-full-npt").passed
        # the contrast in PT facts: the marginal is PPT while the full
        # state is NPT across the same single receiver
        from choilab.entanglement import ppt_check
        from choilab.states import BipartiteCut

        rho = ghz3_state().density()
        assert not ppt_check(rho, BipartiteCut.from_side(rho.system, ["B1"])).is_ppt
        loc = report_entry(rep, "ghz-oneway-localization")
        assert loc.passed
        assert "(A,B1)" in loc.computed or "(A,B2)" in loc.computed
        assert report_entry(rep, "ghz-oneway-control-wrong-state").passed

    def test_full_report_sorted_and_green(self):
        rep = full_report()
        assert report_passed(rep)
        ids = [e.claim_id for e in rep.entries]
        assert ids == sorted(ids)
        assert sum(1 for e in rep.entries if e.control) >= 5

    def test_determinism(self):
        a = full_report()
        b = full_report()
        assert [(e.claim_id, e.computed, e.passed) for e in a.entries] == [
            (e.claim_id, e.computed, e.passed) for e in b.entries
        ]

    def test_blocking_cuts_listed_once(self):
        rep = capacity_proxy_report(nonadditivity.build_scenario())
        assert report_entry(rep, "proxy-E2-ABC").computed == (
            "zero (blocking cuts: A1,A2 | B,C; A1,B,A2 | C)"
        )
        assert report_entry(rep, "proxy-E3-ABC").computed == (
            "zero (blocking cuts: A1,A2,C | B; A1,A2 | B,C)"
        )
        for e in rep.entries:
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
        full = {e.claim_id: e.computed for e in full_report().entries}
        for report in (reproduce_choi_claims, reproduce_pt_table, capacity_proxy_report):
            shared = report(scenario)
            assert report_passed(shared)
            assert all(full[e.claim_id] == e.computed for e in shared.entries)


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

    def test_dimension_gates(self):
        resource = max_entangled(2, ("A", "B")).density()
        with pytest.raises(DimensionMismatch):
            teleport_fidelity(
                MultipartiteState(PartySystem(("A", "B"), (2, 3)), identity(6) / 6),
                PureState(PartySystem(("M",), (2,)), np.array([1, 0], dtype=complex)),
            )
        with pytest.raises(DimensionMismatch):
            teleport_fidelity(resource, ghz3_state())

"""Admission controller (Sec. 3.5's closing paragraph)."""

import pytest

from oracle import ColdAdmissionController
from repro.core.admission import AdmissionController
from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.util.units import mbps, ms
from repro.workloads.topologies import star_network


def call_flow(name, route, payload=1_600_000 // 50, deadline=ms(20)):
    # ~1.6 Mbit/s per flow on the default 10 Mbit/s star below.
    return Flow(
        name=name,
        spec=GmfSpec(
            min_separations=(ms(20),),
            deadlines=(deadline,),
            jitters=(0.0,),
            payload_bits=(payload,),
        ),
        route=route,
        priority=5,
    )


@pytest.fixture
def controller():
    net = star_network(4, speed_bps=mbps(10))
    return AdmissionController(net)


class TestAdmission:
    def test_first_flow_accepted(self, controller):
        d = controller.request(call_flow("c0", ("h0", "sw", "h1")))
        assert d.accepted
        assert controller.admitted_flows[0].name == "c0"

    def test_saturation_eventually_rejects(self, controller):
        accepted = 0
        for i in range(40):
            d = controller.request(call_flow(f"c{i}", ("h0", "sw", "h1")))
            if not d.accepted:
                break
            accepted += 1
        assert 0 < accepted < 40
        # Rejection does not change admitted state.
        assert len(controller.admitted_flows) == accepted

    def test_rejection_reason_names_flow_and_frame(self, controller):
        last = None
        for i in range(40):
            last = controller.request(call_flow(f"c{i}", ("h0", "sw", "h1")))
            if not last.accepted:
                break
        assert last is not None and not last.accepted
        assert "deadline" in last.reason or "diverged" in last.reason

    def test_duplicate_name_rejected(self, controller):
        controller.request(call_flow("c0", ("h0", "sw", "h1")))
        with pytest.raises(ValueError, match="already admitted"):
            controller.request(call_flow("c0", ("h2", "sw", "h3")))

    def test_invalid_route_rejected(self, controller):
        with pytest.raises(Exception):
            controller.request(call_flow("bad", ("h0", "h1")))

    def test_release_frees_capacity(self, controller):
        admitted = []
        for i in range(40):
            d = controller.request(call_flow(f"c{i}", ("h0", "sw", "h1")))
            if not d.accepted:
                break
            admitted.append(f"c{i}")
        controller.release(admitted[0])
        retry = controller.request(call_flow("retry", ("h0", "sw", "h1")))
        assert retry.accepted

    def test_release_unknown_raises(self, controller):
        with pytest.raises(KeyError):
            controller.release("ghost")

    def test_last_analysis_tracks_admitted_set(self, controller):
        assert controller.last_analysis is None
        controller.request(call_flow("c0", ("h0", "sw", "h1")))
        assert controller.last_analysis is not None
        assert set(controller.last_analysis.flow_results) == {"c0"}

    def test_initial_flows_admitted_on_construction(self):
        net = star_network(4, speed_bps=mbps(10))
        ctrl = AdmissionController(
            net, initial_flows=[call_flow("c0", ("h0", "sw", "h1"))]
        )
        assert len(ctrl.admitted_flows) == 1

    def test_initial_overload_raises(self):
        net = star_network(4, speed_bps=mbps(10))
        flows = [
            call_flow(f"c{i}", ("h0", "sw", "h1"), payload=900_000)
            for i in range(3)
        ]
        with pytest.raises(ValueError, match="not admissible"):
            AdmissionController(net, initial_flows=flows)

    def test_decision_carries_analysis(self, controller):
        d = controller.request(call_flow("c0", ("h0", "sw", "h1")))
        assert d.analysis.result("c0").schedulable


class TestFastReject:
    def test_overload_rejected_without_analysis(self):
        from repro.util.units import mbps

        net = star_network(4, speed_bps=mbps(10))
        ctrl = AdmissionController(net)
        hog = call_flow("hog", ("h0", "sw", "h1"), payload=2_500_000)
        decision = ctrl.request(hog)
        assert not decision.accepted
        assert decision.analysis is None
        assert "utilisation" in decision.reason

    def test_fast_reject_agrees_with_full_analysis(self):
        """The pre-check and a full analysis without it (the oracle's
        cold controller) reject the same overload and accept the same
        feasible flow (the pre-check is necessary, not sufficient)."""
        from repro.util.units import mbps

        net = star_network(4, speed_bps=mbps(10))
        rejections = []
        for ctrl in (AdmissionController(net), ColdAdmissionController(net)):
            ok = ctrl.request(call_flow("ok", ("h0", "sw", "h1")))
            assert ok.accepted
            bad = ctrl.request(
                call_flow("bad", ("h0", "sw", "h1"), payload=2_500_000)
            )
            assert not bad.accepted
            rejections.append(bad)
        pre_checked, analysed = rejections
        assert pre_checked.analysis is None
        # Without the pre-check the analysis itself diverges.
        assert not analysed.analysis.converged

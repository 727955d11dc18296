"""Workload generators: MPEG, VoIP, topologies, random flow sets."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core.context import AnalysisContext
from repro.model.gmf import GmfSpec
from repro.model.network import NodeKind
from repro.model.routing import validate_route
from repro.util.units import mbps, ms
from repro.workloads import generator
from repro.workloads.generator import RandomFlowConfig, random_flow_set, uunifast
from repro.workloads.mpeg import (
    MpegGopPattern,
    mpeg_gop_spec,
    paper_fig3_flow,
    paper_fig3_pattern,
    paper_fig3_spec,
)
from repro.workloads.topologies import (
    line_network,
    paper_fig1_network,
    star_network,
    tree_network,
)
from repro.workloads.voip import CODECS, voip_flow, voip_spec

import numpy as np


class TestMpeg:
    def test_paper_pattern_nine_frames(self):
        """Fig. 3: ni = 9 ('there are 9 frames and then it repeats')."""
        assert len(paper_fig3_pattern().pattern) == 9

    def test_paper_tsum_270ms(self):
        """The recoverable Fig. 4 value: TSUM = 270 ms."""
        assert paper_fig3_spec().tsum == pytest.approx(0.270)

    def test_first_frame_is_i_plus_p(self):
        spec = paper_fig3_spec()
        gop = paper_fig3_pattern()
        assert spec.payload_bits[0] == gop.i_bits + gop.p_bits

    def test_frame_size_ordering(self):
        """I+P > P > B (the heterogeneity GMF captures)."""
        spec = paper_fig3_spec()
        sizes = set(spec.payload_bits)
        assert len(sizes) == 3
        assert spec.payload_bits[0] > spec.payload_bits[3] > spec.payload_bits[1]

    def test_custom_pattern(self):
        gop = MpegGopPattern(pattern="IPB", frame_time=ms(40))
        spec = mpeg_gop_spec(gop, deadline=ms(200))
        assert spec.n_frames == 3
        assert spec.tsum == pytest.approx(0.120)

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            MpegGopPattern(pattern="IQZ", frame_time=ms(30))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            MpegGopPattern(pattern="", frame_time=ms(30))

    def test_flow_constructor(self):
        flow = paper_fig3_flow(("n0", "n4", "n6", "n3"))
        assert flow.route == ("n0", "n4", "n6", "n3")
        assert flow.spec.n_frames == 9


class TestVoip:
    def test_g711_bitrate(self):
        """G.711: 160 bytes / 20 ms = 64 kbit/s of voice payload."""
        spec = voip_spec(codec="g711")
        assert spec.payload_bits[0] / spec.tsum == pytest.approx(64_000)

    def test_single_frame(self):
        assert voip_spec().n_frames == 1

    def test_unknown_codec(self):
        with pytest.raises(ValueError, match="unknown codec"):
            voip_spec(codec="opus")

    def test_all_codecs_valid(self):
        for codec in CODECS:
            spec = voip_spec(codec=codec)
            assert spec.tsum > 0

    def test_flow_uses_rtp_by_default(self):
        from repro.model.flow import Transport

        flow = voip_flow(("h0", "sw", "h1"), name="c")
        assert flow.transport is Transport.RTP


class TestTopologies:
    def test_fig1_structure(self):
        net = paper_fig1_network()
        kinds = {n.name: n.kind for n in net.nodes()}
        assert kinds["n0"] is NodeKind.ENDHOST
        assert kinds["n4"] is NodeKind.SWITCH
        assert kinds["n7"] is NodeKind.ROUTER
        # The Fig. 2 route exists.
        validate_route(net, ("n0", "n4", "n6", "n3"))

    def test_fig1_default_speed_matches_worked_example(self):
        net = paper_fig1_network()
        assert net.linkspeed("n0", "n4") == 1e7

    def test_line_network(self):
        net = line_network(3, hosts_per_switch=2)
        validate_route(net, ("h0_0", "sw0", "sw1", "sw2", "h2_1"))

    def test_line_needs_one_switch(self):
        with pytest.raises(ValueError):
            line_network(0)

    def test_star_network(self):
        net = star_network(4)
        validate_route(net, ("h0", "sw", "h3"))
        assert net.n_interfaces("sw") == 4

    def test_star_needs_two_hosts(self):
        with pytest.raises(ValueError):
            star_network(1)

    def test_tree_network(self):
        net = tree_network(depth=2, fanout=2, hosts_per_leaf=2)
        switches = [n.name for n in net.nodes() if n.is_switch]
        assert "sw" in switches and "sw0" in switches and "sw1" in switches
        validate_route(net, ("hsw0_0", "sw0", "sw", "sw1", "hsw1_1"))

    def test_tree_has_router_uplink(self):
        net = tree_network(depth=1)
        assert net.node("gw").kind is NodeKind.ROUTER


class TestUUniFast:
    def test_sums_to_total(self):
        rng = np.random.default_rng(0)
        utils = uunifast(rng, 8, 0.7)
        assert sum(utils) == pytest.approx(0.7)

    def test_all_nonnegative(self):
        rng = np.random.default_rng(1)
        assert all(u >= 0 for u in uunifast(rng, 20, 0.9))

    def test_single_task(self):
        rng = np.random.default_rng(2)
        assert uunifast(rng, 1, 0.5) == [0.5]

    def test_invalid_args(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            uunifast(rng, 0, 0.5)
        with pytest.raises(ValueError):
            uunifast(rng, 3, -0.1)


class TestRandomFlowSet:
    def test_reproducible(self, two_switch_net):
        a = random_flow_set(two_switch_net, n_flows=4, total_utilization=0.4, seed=7)
        b = random_flow_set(two_switch_net, n_flows=4, total_utilization=0.4, seed=7)
        assert [f.name for f in a] == [f.name for f in b]
        assert [f.spec for f in a] == [f.spec for f in b]

    def test_routes_valid(self, two_switch_net):
        flows = random_flow_set(
            two_switch_net, n_flows=6, total_utilization=0.5, seed=3
        )
        for f in flows:
            validate_route(two_switch_net, f.route)

    def test_utilization_close_to_target(self, two_switch_net):
        """Summed per-flow utilisation on each flow's slowest link is
        close to (and not above) the requested total."""
        target = 0.5
        flows = random_flow_set(
            two_switch_net, n_flows=5, total_utilization=target, seed=11
        )
        ctx = AnalysisContext(two_switch_net, flows)
        total = 0.0
        for f in flows:
            slowest = min(
                two_switch_net.linkspeed(a, b) for a, b in f.links()
            )
            link = next(
                (a, b)
                for a, b in f.links()
                if two_switch_net.linkspeed(a, b) == slowest
            )
            total += ctx.demand(f, *link).utilization
        assert total <= target + 0.01
        assert total >= 0.5 * target  # quantisation can only lose so much

    def test_burstiness_respected(self, two_switch_net):
        cfg = RandomFlowConfig(n_frames_range=(4, 4), burstiness=8.0)
        flows = random_flow_set(
            two_switch_net, n_flows=3, total_utilization=0.3, seed=5, config=cfg
        )
        for f in flows:
            if max(f.spec.payload_bits) > 1000:  # skip floor-clamped flows
                ratio = max(f.spec.payload_bits) / min(f.spec.payload_bits)
                assert ratio > 2.0

    def test_priorities_in_range(self, two_switch_net):
        cfg = RandomFlowConfig(priority_levels=4)
        flows = random_flow_set(
            two_switch_net, n_flows=10, total_utilization=0.3, seed=9, config=cfg
        )
        assert all(0 <= f.priority < 4 for f in flows)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def _random_flow_configs(draw):
    f_lo = draw(st.integers(1, 8))
    sep_lo = draw(_log_uniform(1e-4, 0.1))
    dl_lo = draw(st.floats(0.1, 2.0))
    return RandomFlowConfig(
        n_frames_range=(f_lo, draw(st.integers(f_lo, 10))),
        separation_range=(sep_lo, sep_lo * draw(st.floats(1.0, 100.0))),
        burstiness=draw(st.floats(1.0, 20.0)),
        deadline_factor_range=(dl_lo, dl_lo + draw(st.floats(0.0, 2.0))),
        jitter_fraction=draw(st.floats(0.0, 0.5)),
        priority_levels=draw(st.integers(1, 8)),
    )


class TestRandomSpecReference:
    """The payload bisection against the seed's (``oracle.random_spec``):
    same draws, same payloads, flow for flow."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_flows=st.integers(1, 6),
        # Shares down to the generator's 1e-6 floor, where the scale's
        # lower end never leaves 1.0.
        total=_log_uniform(1e-7, 2.0),
        speed=_log_uniform(1e7, 1e10),
        cfg=_random_flow_configs(),
    )
    @settings(max_examples=150, deadline=None)
    def test_flow_set_matches_reference(self, seed, n_flows, total, speed, cfg):
        net = line_network(3, hosts_per_switch=2, speed_bps=speed)
        kwargs = dict(
            n_flows=n_flows, total_utilization=total, seed=seed, config=cfg
        )
        flows = random_flow_set(net, **kwargs)
        with mock.patch.object(generator, "_random_spec", oracle.random_spec):
            reference = random_flow_set(net, **kwargs)
        assert flows == reference

"""Demand-bound functions (Eqs. 4-13): windowed sums, MXS/MX/NXS/NX.

Includes a brute-force reference implementation cross-checked against
the vectorised one under hypothesis.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.demand import (
    _VECTORIZE_THRESHOLD,
    InterferenceSet,
    LinkDemand,
    LinkDemandMatrix,
    build_link_demand,
)
from repro.core.packetization import packetize
from repro.model.flow import Flow
from repro.model.gmf import GmfSpec


def make_flow(seps, payloads, name="f"):
    n = len(seps)
    return Flow(
        name=name,
        spec=GmfSpec(
            min_separations=tuple(seps),
            deadlines=(10.0,) * n,
            jitters=(0.0,) * n,
            payload_bits=tuple(payloads),
        ),
        route=("a", "s", "b"),
    )


@pytest.fixture
def video_demand() -> LinkDemand:
    flow = make_flow([0.03] * 3, [120_000, 40_000, 40_000])
    return build_link_demand(flow, 1e8)


# ----------------------------------------------------------------------
# Brute-force reference (directly transcribing Eqs. 7-13)
# ----------------------------------------------------------------------
def brute_mxs(dem: LinkDemand, t: float) -> float:
    n = dem.n_frames
    best = 0.0
    for k1 in range(n):
        for k2 in range(1, n + 1):
            if dem.tsum_window(k1, k2) <= t:
                best = max(best, min(t, dem.csum_window(k1, k2)))
    return best


def brute_nxs(dem: LinkDemand, t: float) -> int:
    n = dem.n_frames
    best = 0
    for k1 in range(n):
        for k2 in range(1, n + 1):
            if dem.tsum_window(k1, k2) <= t:
                best = max(best, dem.nsum_window(k1, k2))
    return best


def brute_mx(dem: LinkDemand, t: float) -> float:
    if t <= 0:
        return 0.0
    cycles = math.floor(t / dem.tsum)
    rem = t - cycles * dem.tsum
    return cycles * dem.csum + (brute_mxs(dem, rem) if rem > 0 else 0.0)


def brute_nx(dem: LinkDemand, t: float) -> int:
    if t < 0:
        return 0
    cycles = math.floor(t / dem.tsum)
    rem = t - cycles * dem.tsum
    return cycles * dem.nsum + brute_nxs(dem, max(rem, 0.0))


class TestCycleSums:
    def test_csum_is_sum_of_c(self, video_demand):
        assert video_demand.csum == pytest.approx(sum(video_demand.c))

    def test_nsum_counts_fragments(self, video_demand):
        expected = sum(
            packetize(s).n_eth_frames for s in (120_000, 40_000, 40_000)
        )
        assert video_demand.nsum == expected

    def test_tsum(self, video_demand):
        assert video_demand.tsum == pytest.approx(0.09)

    def test_utilization(self, video_demand):
        assert video_demand.utilization == pytest.approx(
            video_demand.csum / 0.09
        )

    def test_max_c_is_i_frame(self, video_demand):
        assert video_demand.max_c == pytest.approx(video_demand.c[0])


class TestWindowedSums:
    def test_full_cycle_window_equals_csum(self, video_demand):
        for k1 in range(3):
            assert video_demand.csum_window(k1, 3) == pytest.approx(
                video_demand.csum
            )

    def test_tsum_window_one_fewer_term(self, video_demand):
        """Eq. 9 sums k2-1 separations (first-to-last arrival)."""
        assert video_demand.tsum_window(0, 1) == 0.0
        assert video_demand.tsum_window(0, 2) == pytest.approx(0.03)
        assert video_demand.tsum_window(0, 3) == pytest.approx(0.06)

    def test_window_wraps(self):
        dem = build_link_demand(
            make_flow([0.01, 0.02], [1000, 2000]), 1e8
        )
        # Window of 2 starting at frame 1 wraps to frame 0.
        assert dem.csum_window(1, 2) == pytest.approx(dem.c[1] + dem.c[0])
        assert dem.tsum_window(1, 2) == pytest.approx(0.02)

    def test_invalid_window(self, video_demand):
        with pytest.raises(IndexError):
            video_demand.csum_window(5, 1)
        with pytest.raises(ValueError):
            video_demand.csum_window(0, 0)


class TestMxs:
    def test_zero_at_zero(self, video_demand):
        assert video_demand.mxs(0.0) == 0.0

    def test_capped_by_t(self, video_demand):
        t = 1e-4
        assert video_demand.mxs(t) <= t

    def test_rejects_t_at_tsum(self, video_demand):
        with pytest.raises(ValueError):
            video_demand.mxs(video_demand.tsum)

    def test_single_frame_window_dominates_small_t(self, video_demand):
        # For t between C_max and TSUM-window thresholds the best window
        # is the I-frame alone.
        t = 0.02  # < 30 ms separation: only single-frame windows fit
        assert video_demand.mxs(t) == pytest.approx(
            min(t, video_demand.max_c)
        )

    def test_matches_bruteforce_on_grid(self, video_demand):
        for t in [1e-6, 1e-4, 0.005, 0.0299, 0.03, 0.031, 0.06, 0.0899]:
            assert video_demand.mxs(t) == pytest.approx(
                brute_mxs(video_demand, t)
            )


class TestMx:
    def test_zero_for_nonpositive(self, video_demand):
        assert video_demand.mx(0.0) == 0.0
        assert video_demand.mx(-1.0) == 0.0

    def test_cycle_additivity(self, video_demand):
        """MX(t + TSUM) = MX(t) + CSUM (Eq. 11 structure)."""
        for t in [0.001, 0.0123, 0.05, 0.089]:
            assert video_demand.mx(t + video_demand.tsum) == pytest.approx(
                video_demand.mx(t) + video_demand.csum
            )

    def test_at_exact_multiples(self, video_demand):
        assert video_demand.mx(video_demand.tsum) == pytest.approx(
            video_demand.csum
        )
        assert video_demand.mx(3 * video_demand.tsum) == pytest.approx(
            3 * video_demand.csum
        )

    def test_monotone_on_grid(self, video_demand):
        ts = [0.001 * i for i in range(1, 200)]
        vals = [video_demand.mx(t) for t in ts]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_bruteforce(self, video_demand):
        for t in [1e-5, 0.01, 0.03, 0.0455, 0.09, 0.1, 0.27, 0.3001]:
            assert video_demand.mx(t) == pytest.approx(
                brute_mx(video_demand, t)
            )


class TestNxs:
    def test_burst_visible_at_zero_window(self):
        """Zero separations allow multiple frames in an instant (no
        min(t,.) cap in Eq. 12)."""
        dem = build_link_demand(
            make_flow([0.0, 0.0, 0.03], [1000, 1000, 1000]), 1e8
        )
        assert dem.nxs(1e-9) == 3

    def test_single_frame_at_small_t(self, video_demand):
        # I-frame fragments into the most Ethernet frames.
        assert video_demand.nxs(1e-6) == max(video_demand.n_eth)

    def test_rejects_t_at_tsum(self, video_demand):
        with pytest.raises(ValueError):
            video_demand.nxs(0.09)

    def test_matches_bruteforce_on_grid(self, video_demand):
        for t in [0.0, 1e-6, 0.01, 0.03, 0.0601, 0.0899]:
            assert video_demand.nxs(t) == brute_nxs(video_demand, t)


class TestNx:
    def test_cycle_additivity(self, video_demand):
        for t in [0.0, 0.001, 0.05]:
            assert video_demand.nx(t + video_demand.tsum) == (
                video_demand.nx(t) + video_demand.nsum
            )

    def test_matches_bruteforce(self, video_demand):
        for t in [0.0, 1e-5, 0.0301, 0.09, 0.12, 0.27, 0.5]:
            assert video_demand.nx(t) == brute_nx(video_demand, t)

    def test_negative_t(self, video_demand):
        assert video_demand.nx(-0.5) == 0


class TestHypothesisCrossCheck:
    @given(
        seps=st.lists(
            st.floats(1e-3, 0.1, allow_nan=False), min_size=1, max_size=6
        ),
        payload_seed=st.integers(1, 10**5),
        t=st.floats(0, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_mx_nx_match_bruteforce(self, seps, payload_seed, t):
        if sum(seps) <= 0:
            return
        n = len(seps)
        payloads = [((payload_seed * (i + 1)) % 90_000) + 64 for i in range(n)]
        dem = build_link_demand(make_flow(seps, payloads), 1e8)
        # Float drift at exact window boundaries means the two
        # implementations may disagree exactly there; bracket instead:
        # the vectorised value must lie between brute(t) and brute(t+eps)
        # (the library deliberately rounds boundaries conservatively up).
        eps = t * 1e-9 + 1e-12
        assert brute_mx(dem, t) - 1e-12 <= dem.mx(t) <= brute_mx(dem, t + eps) + 1e-12
        assert brute_nx(dem, t) <= dem.nx(t) <= brute_nx(dem, t + eps)

    @given(
        t1=st.floats(0, 0.3),
        t2=st.floats(0, 0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, t1, t2, ):
        dem = build_link_demand(
            make_flow([0.03, 0.01, 0.05], [90_000, 5_000, 20_000]), 1e8
        )
        lo, hi = min(t1, t2), max(t1, t2)
        assert dem.mx(lo) <= dem.mx(hi) + 1e-12
        assert dem.nx(lo) <= dem.nx(hi)


class TestMxWork:
    """The uncapped arrival-work bound (corrected Eq. 11; the
    :meth:`~repro.core.demand.LinkDemand.mx_work` docstring says why)."""

    def test_positive_at_zero(self, video_demand):
        """A right-closed zero-length window contains one arrival."""
        assert video_demand.mx_work(0.0) == pytest.approx(
            video_demand.max_c
        )

    def test_negative_is_zero(self, video_demand):
        assert video_demand.mx_work(-1.0) == 0.0

    def test_dominates_capped_mx(self, video_demand):
        for t in [0.0, 1e-5, 0.01, 0.03, 0.0455, 0.09, 0.27, 0.31]:
            assert video_demand.mx_work(t) >= video_demand.mx(t) - 1e-12

    def test_cycle_additivity(self, video_demand):
        for t in [0.0, 0.001, 0.0123, 0.05, 0.089]:
            assert video_demand.mx_work(
                t + video_demand.tsum
            ) == pytest.approx(video_demand.mx_work(t) + video_demand.csum)

    def test_monotone(self, video_demand):
        ts = [0.0005 * i for i in range(400)]
        vals = [video_demand.mx_work(t) for t in ts]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_burst_counted_fully(self):
        """Zero-separation frames all arrive at the window boundary."""
        dem = build_link_demand(
            make_flow([0.0, 0.0, 0.03], [1000, 2000, 3000]), 1e8
        )
        assert dem.mx_work(0.0) == pytest.approx(sum(dem.c))

    def test_matches_nx_granularity(self, video_demand):
        """mx_work and nx step at the same window boundaries."""
        eps = 1e-9
        t = 0.03  # a separation boundary
        assert video_demand.nx(t) > video_demand.nx(t - 2 * eps)
        assert video_demand.mx_work(t) > video_demand.mx_work(t - 2 * eps)


class TestLinkDemandMatrix:
    """The padded matrices exist only once a subset reaches the
    vectorisation threshold; below it a matrix holds no numpy array."""

    @staticmethod
    def _matrix(n):
        demands = [
            build_link_demand(
                make_flow(
                    [0.01 * (1 + i % 3)] * (1 + i % 2),
                    [12_000 * (1 + i % 4)] * (1 + i % 2),
                    name=f"f{i}",
                ),
                1e8,
            )
            for i in range(n)
        ]
        return LinkDemandMatrix(demands), [d.flow_name for d in demands]

    def test_small_subsets_build_no_arrays(self):
        matrix, names = self._matrix(2 * _VECTORIZE_THRESHOLD)
        small = names[: _VECTORIZE_THRESHOLD - 1]
        for start in range(0, len(names) - len(small), 7):
            part = names[start:start + len(small)]
            matrix.subset(part, [0.001] * len(part))
        matrix.subset(small, [0.0] * len(small), strict=True)
        assert matrix._tsums is None

    def test_large_subset_builds_the_arrays_once(self):
        matrix, names = self._matrix(2 * _VECTORIZE_THRESHOLD)
        large = names[1:_VECTORIZE_THRESHOLD + 1]
        shifts = [0.0005 * i for i in range(len(large))]
        gathered = matrix.subset(large, shifts)
        assert matrix._tsums is not None
        win_t = matrix._win_t
        assert win_t.shape[0] == len(names)
        matrix.subset(names, [0.0] * len(names))
        assert matrix._win_t is win_t
        scalar = InterferenceSet(
            matrix.demands[1:_VECTORIZE_THRESHOLD + 1], shifts
        )
        for t in (0.0, 0.003, 0.017, 0.05, 0.31):
            assert gathered.mx_sum(t) == scalar.mx_sum(t)
            assert gathered.nx_sum(t) == scalar.nx_sum(t)

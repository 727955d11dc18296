"""GMF demand-bound functions on a link (Eqs. 4-13).

For a flow ``tau_j`` crossing ``link(N1, N2)`` the paper defines:

* ``CSUM_j`` (Eq. 4)  — total transmission time of one cycle;
* ``NSUM_j`` (Eq. 5)  — total Ethernet-frame count of one cycle;
* ``TSUM_j`` (Eq. 6)  — total minimum separation of one cycle;
* windowed variants over ``k2`` consecutive frames starting at ``k1``
  (Eqs. 7-9; note Eq. 9 sums one fewer term: the time between the first
  and the last arrival of the window);
* ``MXS/MX`` (Eqs. 10-11) — the maximum link time the flow can demand in
  any interval of length ``t`` (``MXS`` for ``0 < t < TSUM``, ``MX`` for
  all ``t`` by peeling off whole cycles);
* ``NXS/NX`` (Eqs. 12-13) — the same for Ethernet-frame counts.

:class:`LinkDemand` precomputes all ``O(n^2)`` windows once with numpy
prefix sums and answers ``mx/nx`` queries in ``O(log n)`` via
sorted-window prefix maxima, because the busy-period iterations evaluate
these functions thousands of times.

Batched interference queries
----------------------------
The busy-period recurrences evaluate ``sum_j MX/NX(tau_j, t + extra_j)``
over a whole interferer set at every iterate.  The analysis context
keeps one :class:`LinkDemandMatrix` per link — every flow's
sorted-window tables, stacked into padded matrices on the link's first
large stage — and :meth:`LinkDemandMatrix.subset` gathers each stage's
:class:`InterferenceSet` from it.  Sets of :data:`_VECTORIZE_THRESHOLD`
or more interferers answer the summed query with a handful of
vectorised numpy operations; smaller ones run the fused scalar kernels
(:func:`fused_mx_sum`, :func:`fused_nx_sum`, :func:`fused_mixed_sum`)
over the flows' :data:`DemandRow` entries, which the stage memo's
fixed-point check (``core/pipeline.py``) reuses.  The vectorised and
fused values come from exactly the same precomputed arrays and are
accumulated in the same left-to-right order as the per-flow sums, so
the results are bit-identical — the test oracle sums per flow, and the
engine-equivalence suite compares the two with ``==``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from math import floor
from typing import Sequence

import numpy as np

from repro.core.packetization import (
    DEFAULT_CONFIG,
    PacketizationConfig,
    max_frame_transmission_time,
    packetize,
)
from repro.model.flow import Flow


@dataclass(frozen=True)
class LinkDemand:
    """Per-(flow, link) demand profile: Eqs. 4-13 pre-evaluated.

    Construct via :func:`build_link_demand`.  All times are seconds.

    Attributes
    ----------
    flow_name:
        The flow this profile belongs to (for error messages).
    c:
        ``C_j^{k,link}`` per frame ``k`` (transmission times).
    n_eth:
        Ethernet-frame counts per frame ``k`` (the ``ceil(C/MFT)`` of
        Eq. 5, computed exactly from the fragmentation).
    t:
        ``T_j^k`` per frame.
    mft:
        ``MFT(link)`` (Eq. 1).
    """

    flow_name: str
    c: tuple[float, ...]
    n_eth: tuple[int, ...]
    t: tuple[float, ...]
    mft: float
    # Sorted windows for O(log n) queries; built in build_link_demand.
    _win_t: np.ndarray | None = field(repr=False, compare=False, default=None)
    _cmax_prefix: np.ndarray | None = field(
        repr=False, compare=False, default=None
    )
    _nmax_prefix: np.ndarray | None = field(
        repr=False, compare=False, default=None
    )
    #: The profile's :data:`DemandRow`, shared by every named view of
    #: one spec class (see :func:`build_link_demand`).
    _row: "DemandRow | None" = field(repr=False, compare=False, default=None)

    # ------------------------------------------------------------------
    # Full-cycle sums (Eqs. 4-6)
    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        return len(self.c)

    @cached_property
    def csum(self) -> float:
        """``CSUM_j^{link}`` (Eq. 4)."""
        return float(sum(self.c))

    @cached_property
    def nsum(self) -> int:
        """``NSUM_j^{link}`` (Eq. 5)."""
        return int(sum(self.n_eth))

    @cached_property
    def tsum(self) -> float:
        """``TSUM_j`` (Eq. 6)."""
        return float(sum(self.t))

    @cached_property
    def utilization(self) -> float:
        """``CSUM / TSUM``: the long-run link utilisation of the flow."""
        return self.csum / self.tsum

    @cached_property
    def nx_rate(self) -> float:
        """Long-run Ethernet-frame rate ``NSUM / TSUM`` (frames/second)."""
        return self.nsum / self.tsum

    @property
    def max_c(self) -> float:
        """Largest single-frame transmission time on this link."""
        return max(self.c)

    @cached_property
    def mx_support_gamma(self) -> float:
        """Certified intercept: ``mx_work(s) >= utilization*s + gamma``.

        The windowed demand staircase lies on or above its long-run-rate
        support line; the intercept is the smallest vertical gap over
        one cycle, evaluated at each plateau's right edge (the staircase
        only touches the line at whole-cycle boundaries).  Used by the
        safeguarded fixed-point acceleration to certify a region that
        provably contains no fixed point.  Clamped at 0 from below only
        in exact arithmetic; float residue may leave it a hair negative,
        which remains a sound (slightly weaker) certificate.
        """
        u = self.utilization
        gaps = [self.csum - u * self.tsum]
        if self._win_t is not None and len(self._win_t) > 1:
            gaps.append(
                float(np.min(self._cmax_prefix[:-1] - u * self._win_t[1:]))
            )
        return min(gaps)

    # ------------------------------------------------------------------
    # Windowed sums (Eqs. 7-9)
    # ------------------------------------------------------------------
    def csum_window(self, k1: int, k2: int) -> float:
        """``CSUM_j(k1, k2)`` (Eq. 7): transmission time of ``k2``
        consecutive frames starting at frame ``k1`` (indices mod n)."""
        self._check_window(k1, k2)
        n = self.n_frames
        return float(sum(self.c[k % n] for k in range(k1, k1 + k2)))

    def nsum_window(self, k1: int, k2: int) -> int:
        """``NSUM_j(k1, k2)`` (Eq. 8): Ethernet frames in the window."""
        self._check_window(k1, k2)
        n = self.n_frames
        return int(sum(self.n_eth[k % n] for k in range(k1, k1 + k2)))

    def tsum_window(self, k1: int, k2: int) -> float:
        """``TSUM_j(k1, k2)`` (Eq. 9): minimum time between the first and
        last arrival of the window (``k2 - 1`` separations)."""
        self._check_window(k1, k2)
        n = self.n_frames
        return float(sum(self.t[k % n] for k in range(k1, k1 + k2 - 1)))

    def _check_window(self, k1: int, k2: int) -> None:
        if not (0 <= k1 < self.n_frames):
            raise IndexError(f"window start {k1} outside 0..{self.n_frames - 1}")
        if k2 < 1:
            raise ValueError("window must contain at least one frame")

    # ------------------------------------------------------------------
    # Demand-bound functions (Eqs. 10-13)
    # ------------------------------------------------------------------
    def mxs(self, t: float) -> float:
        """``MXS(tau_j, N1, N2, t)`` (Eq. 10) for ``0 <= t < TSUM``.

        The most link time any window of frames that *can* arrive within
        an interval of length ``t`` can demand, capped at ``t`` itself
        (the flow cannot occupy the link for longer than the interval).
        """
        if t <= 0.0:
            return 0.0
        if t >= self.tsum:
            raise ValueError(
                f"MXS only defined for t < TSUM ({self.tsum}); got {t}"
            )
        return min(t, self._best_c_within(t))

    def mx(self, t: float) -> float:
        """``MX(tau_j, N1, N2, t)`` (Eq. 11) for any ``t >= 0``.

        ``floor(t / TSUM)`` whole cycles of demand plus the best window
        in the remainder.
        """
        if t <= 0.0:
            return 0.0
        cycles, rem = self._split_cycles(t)
        small = min(rem, self._best_c_within(rem)) if rem > 0.0 else 0.0
        return cycles * self.csum + small

    def mx_work(self, t: float) -> float:
        """Uncapped arrival-work bound: the corrected form of Eq. 11.

        Maximum total transmission time of frames that can *arrive*
        within a right-closed window of length ``t`` — i.e. Eq. 11
        without Eq. 10's ``min(t, .)`` cap, and with arrivals at the
        window boundary included (like ``NX``).

        The cap is correct for *completed service* but makes the
        queuing-time recurrences (Eqs. 17/31) degenerate: at the seed
        ``w = 0`` a capped ``MX`` charges zero interference from
        packets arriving together with the analysed one, yielding the
        spurious fixed point "no queuing at all".  The analyses use
        this uncapped bound unless ``strict_paper`` is set.
        """
        if t < 0.0:
            return 0.0
        cycles, rem = self._split_cycles(t)
        return cycles * self.csum + self._best_c_within(rem)

    def nxs(self, t: float) -> int:
        """``NXS(tau_j, N1, N2, t)`` (Eq. 12) for ``0 <= t < TSUM``.

        The most Ethernet frames receivable from the flow within ``t``.
        Unlike ``MXS`` there is no ``min(t, .)`` cap: a burst of frames
        (zero separations / jitter) can all land in an arbitrarily small
        interval.
        """
        if t < 0.0:
            return 0
        if t >= self.tsum:
            raise ValueError(
                f"NXS only defined for t < TSUM ({self.tsum}); got {t}"
            )
        return self._best_n_within(t)

    def nx(self, t: float) -> int:
        """``NX(tau_j, N1, N2, t)`` (Eq. 13) for any ``t >= 0``."""
        if t < 0.0:
            return 0
        cycles, rem = self._split_cycles(t)
        return cycles * self.nsum + self._best_n_within(rem)

    def _split_cycles(self, t: float) -> tuple[int, float]:
        """Peel off whole GMF cycles; returns ``(floor(t/TSUM), rem)``.

        Guards against floating-point drift: a remainder within one ulp
        of ``TSUM`` is promoted to a full cycle.
        """
        cycles = int(math.floor(t / self.tsum))
        rem = t - cycles * self.tsum
        if rem >= self.tsum:  # t/tsum rounded down but subtraction says not
            cycles += 1
            rem = 0.0
        return cycles, max(0.0, rem)

    @staticmethod
    def _boundary(t: float) -> float:
        """Nudge ``t`` up a few ulps before the window search.

        Window lengths come from prefix-sum differences, which can land
        one ulp above the mathematically equal direct sum; without the
        nudge a window with ``TSUM(k1,k2) == t`` could be excluded.
        Including a boundary window is conservative (the demand bound
        can only grow), so the nudge is sound.
        """
        return t * _NUDGE + 1e-18

    def _best_c_within(self, t: float) -> float:
        """Max ``CSUM(k1,k2)`` over windows with ``TSUM(k1,k2) <= t``."""
        _, _, _, win_t, cmax, _ = self._row
        idx = bisect_right(win_t, self._boundary(t))
        if idx == 0:
            return 0.0
        return cmax[idx - 1]

    def _best_n_within(self, t: float) -> int:
        """Max ``NSUM(k1,k2)`` over windows with ``TSUM(k1,k2) <= t``."""
        _, _, _, win_t, _, nmax = self._row
        idx = bisect_right(win_t, self._boundary(t))
        if idx == 0:
            return 0
        return nmax[idx - 1]


#: ``(TSUM, CSUM, NSUM, window lengths, CSUM prefix maxima, NSUM prefix
#: maxima)`` of one profile, the window tables as sorted Python lists.
#: The scalar kernels below run on it: a single-instant query costs one
#: :func:`bisect.bisect_right` instead of a numpy ``searchsorted``
#: dispatch (~10x per-call overhead for the short arrays involved).
#: ``tolist`` preserves every float bit, and ``bisect_right`` performs
#: the same comparisons as ``searchsorted(..., side="right")``, so the
#: scalar and vectorised answers stay bit-identical.
DemandRow = tuple[float, float, int, list[float], list[float], list[int]]

#: Relative part of :meth:`LinkDemand._boundary`'s nudge.
_NUDGE = 1.0 + 1e-12


def build_link_demand(
    flow: Flow,
    linkspeed_bps: float,
    config: PacketizationConfig = DEFAULT_CONFIG,
) -> LinkDemand:
    """Build the :class:`LinkDemand` of ``flow`` on a link of given speed.

    Precomputes all windows ``(k1, k2)`` with ``k1 in 0..n-1`` and
    ``k2 in 1..n`` — windows longer than ``n`` frames always span at
    least ``TSUM`` and are handled by the cycle-peeling of Eqs. 11/13.

    Profiles are memoized on exactly the inputs they are derived from —
    the flow's *spec class* (transport, payloads, separations) and the
    link speed, **not** the flow name — so fresh analysis contexts over
    recurring flows skip the ``O(n^2)`` window precomputation entirely,
    and the 10^5 identically-shaped flows of a datacenter scenario share
    one set of window arrays instead of thrashing the cache with 10^5
    name-distinct copies.  The returned per-flow profile is a cheap
    named view over the shared arrays.
    """
    profile = _cached_link_demand(
        flow.transport,
        flow.spec.payload_bits,
        flow.spec.min_separations,
        float(linkspeed_bps),
        config,
    )
    return replace(profile, flow_name=flow.name)


@lru_cache(maxsize=65536)
def _cached_link_demand(
    transport,
    payload_bits: tuple,
    min_separations: tuple,
    linkspeed_bps: float,
    config: PacketizationConfig,
) -> LinkDemand:
    packets = [packetize(s, transport, config) for s in payload_bits]
    c = tuple(p.transmission_time(linkspeed_bps) for p in packets)
    n_eth = tuple(p.n_eth_frames for p in packets)
    t = tuple(float(x) for x in min_separations)
    n = len(c)

    # Vectorised window sums via doubled prefix arrays.
    c2 = np.concatenate([np.asarray(c), np.asarray(c)])
    n2 = np.concatenate([np.asarray(n_eth, dtype=np.int64)] * 2)
    t2 = np.concatenate([np.asarray(t), np.asarray(t)])
    pc = np.concatenate([[0.0], np.cumsum(c2)])
    pn = np.concatenate([[0], np.cumsum(n2)])
    pt = np.concatenate([[0.0], np.cumsum(t2)])

    starts = np.arange(n)[:, None]          # k1
    counts = np.arange(1, n + 1)[None, :]   # k2
    ends = starts + counts
    win_c = (pc[ends] - pc[starts]).ravel()
    win_n = (pn[ends] - pn[starts]).ravel()
    win_t = (pt[ends - 1] - pt[starts]).ravel()  # k2 - 1 separations

    order = np.argsort(win_t, kind="stable")
    win_t_sorted = win_t[order]
    cmax_prefix = np.maximum.accumulate(win_c[order])
    nmax_prefix = np.maximum.accumulate(win_n[order])

    profile = LinkDemand(
        flow_name="",
        c=c,
        n_eth=n_eth,
        t=t,
        mft=max_frame_transmission_time(linkspeed_bps),
        _win_t=win_t_sorted,
        _cmax_prefix=cmax_prefix,
        _nmax_prefix=nmax_prefix,
    )
    return replace(
        profile,
        _row=(
            profile.tsum,
            profile.csum,
            profile.nsum,
            win_t_sorted.tolist(),
            cmax_prefix.tolist(),
            nmax_prefix.tolist(),
        ),
    )


# ----------------------------------------------------------------------
# Fused scalar kernels
# ----------------------------------------------------------------------
# Each evaluates one summed demand query over a sequence of
# :data:`DemandRow` with per-term jitter shifts, splitting each term's
# query time into whole cycles and a remainder once and bisecting its
# window list once, so ``mx`` and ``nx`` of a term share the work.
# Every per-term value is the same float expression as the per-flow
# methods (:meth:`LinkDemand.mx_work` / :meth:`LinkDemand.nx`, through
# ``_split_cycles``, ``_boundary`` and ``_best_*_within``), and float
# totals are reduced by builtin :func:`sum` over the per-term values in
# row order, like the per-flow sums they replace: CPython 3.12's
# ``sum`` compensates float rounding, so matching the order alone would
# not keep the totals bit-identical on every interpreter.
def fused_mx_sum(
    rows: Sequence[DemandRow], shifts: Sequence[float], t: float
) -> float:
    """``sum_j mx_work_j(t + shift_j)`` (corrected Eq. 11)."""
    nudge = _NUDGE
    bisect = bisect_right
    vals = []
    append = vals.append
    for (tsum, csum, _, win_t, cmax, _), e in zip(rows, shifts):
        s = t + e
        if s < 0.0:
            append(0.0)
            continue
        cycles = floor(s / tsum)
        rem = s - cycles * tsum
        if rem >= tsum:
            cycles += 1
            rem = 0.0
        elif rem < 0.0:
            rem = 0.0
        idx = bisect(win_t, rem * nudge + 1e-18)
        append(cycles * csum + (cmax[idx - 1] if idx else 0.0))
    return sum(vals)


def fused_nx_sum(
    rows: Sequence[DemandRow], shifts: Sequence[float], t: float
) -> int:
    """``sum_j nx_j(t + shift_j)`` (Eq. 13), an exact integer."""
    nudge = _NUDGE
    bisect = bisect_right
    total = 0
    for (tsum, _, nsum, win_t, _, nmax), e in zip(rows, shifts):
        s = t + e
        if s < 0.0:
            continue
        cycles = floor(s / tsum)
        rem = s - cycles * tsum
        if rem >= tsum:
            cycles += 1
            rem = 0.0
        elif rem < 0.0:
            rem = 0.0
        idx = bisect(win_t, rem * nudge + 1e-18)
        total += cycles * nsum + (nmax[idx - 1] if idx else 0)
    return total


def fused_mixed_sum(
    rows: Sequence[DemandRow],
    shifts: Sequence[float],
    t: float,
    circ: float,
) -> float:
    """``sum_j mx_work_j(t + shift_j) + circ * nx_j(t + shift_j)``."""
    nudge = _NUDGE
    bisect = bisect_right
    vals = []
    append = vals.append
    for (tsum, csum, nsum, win_t, cmax, nmax), e in zip(rows, shifts):
        s = t + e
        if s < 0.0:
            append(0.0)
            continue
        cycles = floor(s / tsum)
        rem = s - cycles * tsum
        if rem >= tsum:
            cycles += 1
            rem = 0.0
        elif rem < 0.0:
            rem = 0.0
        idx = bisect(win_t, rem * nudge + 1e-18)
        mx = cycles * csum + (cmax[idx - 1] if idx else 0.0)
        nx = cycles * nsum + (nmax[idx - 1] if idx else 0)
        append(mx + nx * circ)
    return sum(vals)


#: Below this many interferers the vectorised path costs more in numpy
#: dispatch than it saves; fall back to the fused scalar kernels (both
#: paths are bit-identical, so the switch is purely a perf knob).  The
#: per-flow bisect put the crossover at ~20 interferers, up from ~6 for
#: a ``np.searchsorted`` per flow.  The fused kernels moved it again.
#: One ``mixed_sum`` query on the busiest link of the 80-flow input of
#: ``test_dense_stages_match_seed_engine``, mean over 20 random subsets
#: per size, three runs on a noisy 2-vCPU container, fused vs
#: vectorised: 8 interferers 5-7 vs 27-34 us, 16: 9-12 vs 28-35 us,
#: 20: 9-14 vs 24-35 us, 24: 10-16 vs 21-33 us, 32: 12-19 vs 22-36 us;
#: on a 200-flow input, 48: 18 vs 24 us and 64: 24 vs 26 us.  The whole
#: dense analysis takes 171 ms at 20 and 118 ms at 48.  The constant
#: still stays at 20: no benchmark workload has a stage that large
#: (``datacenter-hier`` peaks at 18 interferers), so no A/B can confirm
#: a move, and the dense test's stages (at most 34 interferers) must
#: keep reaching the vectorised path.
_VECTORIZE_THRESHOLD = 20


class InterferenceSet:
    """Batched ``sum_j MX/NX(tau_j, t + shift_j)`` over an interferer set.

    Built once per analysis stage (the interferers and their jitter
    shifts are fixed for the whole stage) and queried at every iterate
    of every busy-period / queuing-time fixed point of the stage.

    Constructed directly, a set runs the fused scalar kernels
    (:func:`fused_mx_sum` and friends) over its interferers'
    :data:`DemandRow` entries: one cycle split and one pure-Python
    bisect per term and query.  The printed-model (``strict``) ``mx``
    keeps the per-flow :meth:`LinkDemand.mx` loop.  Sets built by
    :meth:`from_arrays` (large stages, gathered by
    :meth:`LinkDemandMatrix.subset`) hold the interferers'
    sorted-window tables as +inf-padded matrices; a query then costs
    one vectorised row-wise rank count and two gathers instead of ``N``
    Python-level calls.  Per-flow values are reduced strictly
    left-to-right in construction order either way, so both forms
    return bit-identical sums.

    Parameters
    ----------
    demands:
        One :class:`LinkDemand` per interferer (order preserved).
    shifts:
        The jitter shift ``extra_j`` added to the query time per flow.
    strict:
        When True ``mx`` uses the printed Eq. 10/11 cap; otherwise the
        uncapped arrival-work bound (see :meth:`LinkDemand.mx_work`).
    """

    def __init__(
        self,
        demands: Sequence[LinkDemand],
        shifts: Sequence[float],
        *,
        strict: bool = False,
    ):
        if len(demands) != len(shifts):
            raise ValueError("one shift per interferer required")
        self.demands = tuple(demands)
        self.shifts = tuple(float(s) for s in shifts)
        self.strict = strict
        self._vectorized = False
        self.rows = tuple([d._row for d in self.demands])

    @classmethod
    def from_arrays(
        cls,
        demands: tuple[LinkDemand, ...],
        shifts: tuple[float, ...],
        *,
        strict: bool,
        tsums: np.ndarray,
        csums: np.ndarray,
        nsums: np.ndarray,
        win_t: np.ndarray,
        cmax: np.ndarray,
        nmax: np.ndarray,
    ) -> "InterferenceSet":
        """A vectorised set over pre-gathered window matrices.

        :class:`LinkDemandMatrix.subset` slices a link-wide matrix by
        flow position; the matrices may carry extra ``+inf``/0 padding
        columns (link-level width vs per-set width), which is inert:
        the rank count ``win_t <= boundary`` never admits an ``inf``
        column and the gathers never index past the last admitted
        window.  All values come from the same shared per-class arrays
        the scalar path bisects, so queries stay bit-identical.
        """
        self = cls.__new__(cls)
        self.demands = demands
        self.shifts = shifts
        self.strict = strict
        self._vectorized = True
        self._shift_arr = np.array(shifts)
        self._tsums = tsums
        self._csums = csums
        self._nsums = nsums
        self._win_t = win_t
        self._cmax = cmax
        self._nmax = nmax
        self._rows = np.arange(len(demands))
        return self

    def __len__(self) -> int:
        return len(self.demands)

    # ------------------------------------------------------------------
    # Certified affine lower supports (for the accelerated solver)
    # ------------------------------------------------------------------
    def mx_support(self) -> tuple[float, float]:
        """``(rate, intercept)`` with ``mx_sum(t) >= rate*t + intercept``.

        Summed long-run utilisations plus the jitter-shift offsets and
        (in uncapped mode) the per-flow staircase intercepts.
        """
        rate = 0.0
        intercept = 0.0
        for d, e in zip(self.demands, self.shifts):
            u = d.utilization
            rate += u
            intercept += u * e
            if not self.strict:
                intercept += d.mx_support_gamma
        return rate, intercept

    def nx_support(self, circ: float) -> tuple[float, float]:
        """``(rate, intercept)`` with ``circ*nx_sum(t) >= rate*t + ...``."""
        rate = 0.0
        intercept = 0.0
        for d, e in zip(self.demands, self.shifts):
            r = circ * d.nx_rate
            rate += r
            intercept += r * e
        return rate, intercept

    def mixed_support(self, circ: float) -> tuple[float, float]:
        """Support of ``sum_j (mx_j + circ*nx_j)(t + shift_j)``."""
        mr, mi = self.mx_support()
        nr, ni = self.nx_support(circ)
        return mr + nr, mi + ni

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def _gather(
        self, s: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split cycles and gather best windows for query times ``s``.

        Mirrors :meth:`LinkDemand._split_cycles` / ``_boundary`` /
        ``_best_*_within`` operation for operation (same float ops, same
        promote-on-drift guard) so gathered values match the scalar path
        bit for bit.
        """
        cycles = np.floor(s / self._tsums)
        rem = s - cycles * self._tsums
        over = rem >= self._tsums
        if over.any():
            cycles = np.where(over, cycles + 1.0, cycles)
            rem = np.where(over, 0.0, rem)
        rem = np.maximum(rem, 0.0)
        boundary = rem * (1.0 + 1e-12) + 1e-18
        idx = (self._win_t <= boundary[:, None]).sum(axis=1)
        has = idx > 0
        gi = np.where(has, idx - 1, 0)
        cbest = np.where(has, self._cmax[self._rows, gi], 0.0)
        nbest = np.where(has, self._nmax[self._rows, gi], 0)
        return cycles, rem, cbest, nbest

    def mx_sum(self, t: float) -> float:
        """Ordered sum of ``mx``/``mx_work`` over the set at ``t+shift``."""
        if not self._vectorized:
            if self.strict:
                return sum(
                    d.mx(t + e) for d, e in zip(self.demands, self.shifts)
                )
            return fused_mx_sum(self.rows, self.shifts, t)
        s = t + self._shift_arr
        cycles, rem, cbest, _ = self._gather(s)
        if self.strict:
            small = np.where(rem > 0.0, np.minimum(rem, cbest), 0.0)
            vals = np.where(s > 0.0, cycles * self._csums + small, 0.0)
        else:
            vals = cycles * self._csums + cbest
        return sum(vals.tolist())

    def nx_sum(self, t: float) -> int:
        """Exact integer sum of ``nx`` over the set at ``t+shift``."""
        if not self._vectorized:
            return fused_nx_sum(self.rows, self.shifts, t)
        s = t + self._shift_arr
        cycles, _, _, nbest = self._gather(s)
        vals = (cycles * self._nsums + nbest).astype(np.int64)
        # Integer summation is exact and order-independent, so the
        # vectorised reduction matches the scalar path bit for bit.
        return int(vals.sum())

    def mixed_sum(self, t: float, circ: float) -> float:
        """Ordered sum of ``mx_j + circ*nx_j`` over the set (egress)."""
        if not self._vectorized:
            if self.strict:
                return sum(
                    d.mx(t + e) + d.nx(t + e) * circ
                    for d, e in zip(self.demands, self.shifts)
                )
            return fused_mixed_sum(self.rows, self.shifts, t, circ)
        s = t + self._shift_arr
        cycles, rem, cbest, nbest = self._gather(s)
        if self.strict:
            small = np.where(rem > 0.0, np.minimum(rem, cbest), 0.0)
            mx = np.where(s > 0.0, cycles * self._csums + small, 0.0)
        else:
            mx = cycles * self._csums + cbest
        nx = (cycles * self._nsums + nbest).astype(np.int64)
        return sum((mx + nx * circ).tolist())


class LinkDemandMatrix:
    """Memory-flat demand representation of every flow on one link.

    Holds, in flow (admission) order, the full-cycle sums and the
    sorted window tables stacked into one padded matrix per quantity.
    Rows of flows with the same spec class reference the *same* shared
    window arrays (the name-free :func:`build_link_demand` cache), so a
    datacenter-scale link with 10^5 identically-shaped flows stores one
    window table, not 10^5.

    :meth:`subset` assembles a stage's :class:`InterferenceSet` with a
    single row-gather per matrix — one C-level fancy index instead of a
    per-flow Python packing loop.  Below the vectorisation threshold it
    returns a plain scalar-path set over the shared per-flow profiles;
    both are bit-identical to summing the profiles one by one.  The
    padded matrices are built on the first subset that reaches the
    threshold, so a link whose stages all stay below it never builds
    them.

    :attr:`rows` holds every flow's :data:`DemandRow` in the same
    order: references to the per-class rows, so the stage memo's
    fixed-point check (``core/pipeline.py``) reads them without copying.
    """

    __slots__ = (
        "demands",
        "rows",
        "_index",
        "_tsums",
        "_csums",
        "_nsums",
        "_win_t",
        "_cmax",
        "_nmax",
    )

    def __init__(self, demands: Sequence[LinkDemand]):
        self.demands = tuple(demands)
        self.rows = tuple([d._row for d in self.demands])
        self._index = {d.flow_name: i for i, d in enumerate(self.demands)}
        if len(self._index) != len(self.demands):
            raise ValueError("duplicate flow names on one link")
        # The padded matrices: None until the first large subset, which
        # builds all six (_build_arrays).
        self._tsums = None

    def _build_arrays(self) -> None:
        """Stack the padded per-quantity matrices (first large subset)."""
        n = len(self.demands)
        self._tsums = np.array([d.tsum for d in self.demands])
        self._csums = np.array([d.csum for d in self.demands])
        self._nsums = np.array(
            [d.nsum for d in self.demands], dtype=np.int64
        )
        width = max((len(d._win_t) for d in self.demands), default=0)
        self._win_t = np.full((n, width), np.inf)
        self._cmax = np.zeros((n, width))
        self._nmax = np.zeros((n, width), dtype=np.int64)
        # Fill per spec *class*, not per flow: rows sharing window
        # arrays (identity implies value here — the name-free profile
        # cache interns them) are written with one broadcast each.
        by_class: dict[int, list[int]] = {}
        for i, d in enumerate(self.demands):
            by_class.setdefault(id(d._win_t), []).append(i)
        for rows in by_class.values():
            d = self.demands[rows[0]]
            w = len(d._win_t)
            self._win_t[rows, :w] = d._win_t
            self._cmax[rows, :w] = d._cmax_prefix
            self._nmax[rows, :w] = d._nmax_prefix

    def __len__(self) -> int:
        return len(self.demands)

    def rows_of(self, names: Sequence[str]) -> tuple[DemandRow, ...]:
        """The :data:`DemandRow` entries of the named flows, in order."""
        rows = self.rows
        index = self._index
        return tuple([rows[index[name]] for name in names])

    def subset(
        self,
        names: Sequence[str],
        shifts: Sequence[float],
        *,
        strict: bool = False,
    ) -> InterferenceSet:
        """The :class:`InterferenceSet` of the named flows, in order."""
        positions = [self._index[name] for name in names]
        demands = tuple(self.demands[p] for p in positions)
        shift_t = tuple(float(s) for s in shifts)
        if len(positions) < _VECTORIZE_THRESHOLD:
            return InterferenceSet(demands, shift_t, strict=strict)
        if self._tsums is None:
            self._build_arrays()
        rows = np.asarray(positions)
        return InterferenceSet.from_arrays(
            demands,
            shift_t,
            strict=strict,
            tsums=self._tsums[rows],
            csums=self._csums[rows],
            nsums=self._nsums[rows],
            win_t=self._win_t[rows],
            cmax=self._cmax[rows],
            nmax=self._nmax[rows],
        )


# ----------------------------------------------------------------------
# Module-cache scoping (campaign-row boundaries) and telemetry
# ----------------------------------------------------------------------
def demand_cache_stats() -> dict[str, dict[str, int]]:
    """Sizes and hit counters of the module-level demand caches."""
    info = _cached_link_demand.cache_info()
    return {
        "window_cache": {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
            "maxsize": info.maxsize,
        }
    }


def clear_demand_caches() -> None:
    """Drop the module-level window-table cache.

    The cache is shared across every context in the process; a
    campaign sweeping many scenarios (different link speeds / spec
    grids) would otherwise accumulate entries across rows with no
    eviction pressure relief between unrelated grid points.  The
    campaign runner calls this at row boundaries; correctness never
    depends on the cache (it is pure memoization).
    """
    _cached_link_demand.cache_clear()


def record_demand_cache_telemetry() -> None:
    """Publish the module-cache stats as telemetry gauges.

    Recorded at scope boundaries (campaign rows, admission-controller
    snapshots) rather than per lookup, keeping the hot path free of
    telemetry branches; hit *rates* are derived downstream by
    :func:`repro.telemetry.report.derived_metrics`.
    """
    from repro import telemetry as _telemetry

    reg = _telemetry.REGISTRY
    if reg is None:
        return
    for label, stats in demand_cache_stats().items():
        for key in ("hits", "misses", "size"):
            reg.set_gauge(f"engine.{label}.{key}", stats[key])

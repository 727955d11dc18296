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

:class:`LinkDemand` precomputes all ``O(n^2)`` windows once from
prefix sums, in pure Python, and answers ``mx/nx`` queries in
``O(log n)`` via sorted-window prefix maxima, because the busy-period
iterations evaluate these functions thousands of times.

Batched interference queries
----------------------------
The busy-period recurrences evaluate ``sum_j MX/NX(tau_j, t + extra_j)``
over a whole interferer set at every iterate.  The analysis context
keeps one :class:`LinkDemandMatrix` per link, holding every flow's
:data:`DemandRow` in flow order, and :meth:`LinkDemandMatrix.subset`
gathers each stage's :class:`InterferenceSet` from it.  A set answers
the summed query with the fused scalar kernels (:func:`fused_mx_sum`,
:func:`fused_nx_sum`, :func:`fused_mixed_sum`), which the stage memo's
fixed-point check (``core/pipeline.py``) reuses.  The kernels read the
same precomputed tables as the per-flow methods and add the terms in
the same left-to-right order, so the sums are bit-identical: the test
oracle sums per flow, ``tests/test_demand.py`` compares the two on
random sets and the engine-equivalence suite compares whole analyses
with ``==``.  The module is pure Python and never loads numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import accumulate
from math import floor
from typing import Sequence

from repro.core.packetization import (
    DEFAULT_CONFIG,
    PacketizationConfig,
    eth_frame_count,
    max_frame_transmission_time,
    packet_wire_bits,
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
    #: The profile's :data:`DemandRow` (sorted windows for ``O(log n)``
    #: queries), shared by every named view of one spec class (see
    #: :func:`build_link_demand`).
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
        _, _, _, win_t, cmax, _ = self._row
        gaps = [self.csum - u * self.tsum]
        gaps += [c - u * w for c, w in zip(cmax, win_t[1:])]
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
#: maxima)`` of one profile, the window tables as sorted Python lists
#: of ``float`` (``int`` for the NSUM maxima).  The fused kernels below
#: run on it: a single-instant query costs one
#: :func:`bisect.bisect_right`, with the same comparisons as
#: :meth:`LinkDemand._best_c_within`.  Profiles of one spec class share
#: one row (see :func:`build_link_demand`).
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
    mft = max_frame_transmission_time(linkspeed_bps)
    c = tuple(
        packet_wire_bits(s, transport, config) / linkspeed_bps
        for s in payload_bits
    )
    n_eth = tuple(eth_frame_count(s, transport) for s in payload_bits)
    t = tuple(float(x) for x in min_separations)
    profile = LinkDemand(flow_name="", c=c, n_eth=n_eth, t=t, mft=mft)
    return replace(
        profile,
        _row=(profile.tsum, profile.csum, profile.nsum)
        + _window_tables(c, n_eth, t),
    )


def _window_tables(
    c: tuple[float, ...], n_eth: tuple[int, ...], t: tuple[float, ...]
) -> tuple[list[float], list[float], list[int]]:
    """Sorted window lengths and the running CSUM / NSUM maxima.

    Windows run row-major over ``(k1, k2)``.  Each window's sums are
    differences of left-to-right prefix sums over the doubled cycle
    (its length sums ``k2 - 1`` separations), and a stable sort orders
    the windows by length, ties in window order.  These are numpy's
    ``cumsum``, ``argsort(kind="stable")`` and ``maximum.accumulate``
    in numpy's order, so every entry has the bits the numpy
    construction gives it (``tests/test_demand.py`` keeps that
    construction as the reference).
    """
    n = len(c)
    pc = [0.0, *accumulate(c + c)]
    pn = [0, *accumulate(n_eth + n_eth)]
    pt = [0.0, *accumulate(t + t)]
    win_c: list[float] = []
    win_n: list[int] = []
    win_t: list[float] = []
    for k1 in range(n):
        c0, n0, t0 = pc[k1], pn[k1], pt[k1]
        for end in range(k1 + 1, k1 + n + 1):
            win_c.append(pc[end] - c0)
            win_n.append(pn[end] - n0)
            win_t.append(pt[end - 1] - t0)
    order = sorted(range(len(win_t)), key=win_t.__getitem__)
    return (
        [win_t[i] for i in order],
        list(accumulate([win_c[i] for i in order], max)),
        list(accumulate([win_n[i] for i in order], max)),
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


class InterferenceSet:
    """Batched ``sum_j MX/NX(tau_j, t + shift_j)`` over an interferer set.

    Built once per analysis stage (the interferers and their jitter
    shifts are fixed for the whole stage) and queried at every iterate
    of every busy-period / queuing-time fixed point of the stage.

    Queries run the fused scalar kernels (:func:`fused_mx_sum` and
    friends) over the interferers' :data:`DemandRow` entries: one cycle
    split and one bisect per term and query, the terms summed left to
    right in construction order.  The printed-model (``strict``) ``mx``
    keeps the per-flow :meth:`LinkDemand.mx` loop.

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
        self.rows = tuple([d._row for d in self.demands])

    @classmethod
    def from_rows(
        cls,
        demands: tuple[LinkDemand, ...],
        shifts: tuple[float, ...],
        rows: tuple[DemandRow, ...],
        strict: bool,
    ) -> "InterferenceSet":
        """A set over ready tuples: ``rows`` are the demands'
        :data:`DemandRow` entries, ``shifts`` one per demand (neither is
        copied or converted)."""
        self = cls.__new__(cls)
        self.demands = demands
        self.shifts = shifts
        self.strict = strict
        self.rows = rows
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
    def mx_sum(self, t: float) -> float:
        """Ordered sum of ``mx``/``mx_work`` over the set at ``t+shift``."""
        if self.strict:
            return sum(
                d.mx(t + e) for d, e in zip(self.demands, self.shifts)
            )
        return fused_mx_sum(self.rows, self.shifts, t)

    def nx_sum(self, t: float) -> int:
        """Exact integer sum of ``nx`` over the set at ``t+shift``."""
        return fused_nx_sum(self.rows, self.shifts, t)

    def mixed_sum(self, t: float, circ: float) -> float:
        """Ordered sum of ``mx_j + circ*nx_j`` over the set (egress)."""
        if self.strict:
            return sum(
                d.mx(t + e) + d.nx(t + e) * circ
                for d, e in zip(self.demands, self.shifts)
            )
        return fused_mixed_sum(self.rows, self.shifts, t, circ)


class LinkDemandMatrix:
    """The demand rows of every flow on one link, in flow order.

    Rows of flows with the same spec class reference the *same* shared
    window tables (the name-free :func:`build_link_demand` cache), so a
    datacenter-scale link with 10^5 identically-shaped flows stores one
    window table, not 10^5.

    :meth:`subset` assembles a stage's :class:`InterferenceSet` from
    the named flows' profiles and rows, and :meth:`rows_of` returns the
    rows alone for the stage memo's fixed-point check
    (``core/pipeline.py``).  Both hand out references to the per-class
    rows, never copies.

    The matrix also carries the stages' utilisation sums over its flows,
    which the stage modules compute once with their ``*_utilization``
    functions and store here: :attr:`first_hop_sum` (Eq. 20),
    :attr:`ingress_sums` keyed by the ingress task's ``circ`` and
    :attr:`egress_sums` mapping a flow name to ``(hep tuple, sum)``
    (Eqs. 34/35 plus own demand), valid only for that very ``hep``
    tuple.  They are functions of the link's flows alone, and the
    context replaces the matrix whenever those change, so the sums
    retire with it.
    """

    __slots__ = (
        "demands",
        "rows",
        "first_hop_sum",
        "ingress_sums",
        "egress_sums",
        "_index",
    )

    def __init__(self, demands: Sequence[LinkDemand]):
        self.demands = tuple(demands)
        self.rows = tuple([d._row for d in self.demands])
        self._index = {d.flow_name: i for i, d in enumerate(self.demands)}
        if len(self._index) != len(self.demands):
            raise ValueError("duplicate flow names on one link")
        self.first_hop_sum: float | None = None
        self.ingress_sums: dict[float, float] = {}
        self.egress_sums: dict[str, tuple[tuple, float]] = {}

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
        """The :class:`InterferenceSet` of the named flows, in order.

        A tuple of ``shifts`` is taken as given (the stages pass the
        participants' ``extra_j`` tuple); other sequences are converted
        to a tuple of floats.
        """
        positions = [self._index[name] for name in names]
        own = self.demands
        rows = self.rows
        if type(shifts) is not tuple:
            shifts = tuple([float(s) for s in shifts])
        return InterferenceSet.from_rows(
            tuple([own[p] for p in positions]),
            shifts,
            tuple([rows[p] for p in positions]),
            strict,
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

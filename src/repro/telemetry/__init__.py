"""Lightweight process-local telemetry: counters, histograms, spans.

Every subsystem of the reproduction — the analysis engine's fixed
points, the holistic stage solve, the admission hot path, the sharded
service, the simulator and the campaign runner — answers the same
operational question: *why was this decision fast or slow?*  This
module provides the shared instrumentation core they report into:

* **Counters** — monotone floats keyed by dotted names
  (``engine.fixed_point.solves``).
* **Histograms** — count / sum / min / max plus power-of-two log
  buckets; enough to estimate p50/p99 of admit latencies without
  storing samples.
* **Spans** — nestable named timers; a span's elapsed time lands in a
  histogram keyed by the ``/``-joined span stack
  (``span.campaign/analyze``).

Zero overhead when disabled
---------------------------
Telemetry is **off by default**.  The process-local registry lives in
the module global :data:`REGISTRY`, which is ``None`` when disabled;
instrumented hot paths read it once per operation and skip all
accounting on ``None`` — no object allocation, no string formatting,
no dict writes (``tests/test_telemetry.py`` asserts the no-allocation
property).  All instrumentation is *observational*: enabling it changes
no analysis, admission, or simulation result — the equivalence suites
run green with telemetry on.

Cross-process merging
---------------------
:meth:`Registry.snapshot` produces a plain, JSON-able, deterministically
ordered dict; :meth:`Registry.merge` folds such a snapshot back in
(counters add, histograms combine bucket-wise).  Campaign workers and
service shard workers capture locally and ship snapshots to the parent,
so one registry ends up holding the whole fleet's totals.

Set ``REPRO_TELEMETRY=1`` in the environment to enable collection at
import time (how benchmark and server subprocesses opt in).
"""

from __future__ import annotations

import math
import os
import time
from typing import Any, Iterable, Mapping

#: Snapshot schema version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 1


class Histogram:
    """Count/sum/min/max plus power-of-two buckets.

    Bucket ``e`` counts observations ``v`` with ``2**(e-1) < |v| <=
    2**e`` (zero and negatives land in a dedicated underflow bucket).
    Good to a factor-of-two on quantiles, which is plenty for "did p99
    admit latency double" questions, and merges exactly across
    processes.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    #: Bucket index for zero / negative observations.
    UNDERFLOW = -1075  # below the exponent of the smallest positive float

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            e = math.frexp(value)[1]  # 2**(e-1) <= value < 2**e
            if value == math.ldexp(1.0, e - 1):
                e -= 1  # exact powers of two belong to the lower bucket
        else:
            e = self.UNDERFLOW
        self.buckets[e] = self.buckets.get(e, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (geometric midpoint).

        Exact for the min/max endpoints; within a factor of two
        elsewhere.  ``nan`` on an empty histogram.
        """
        if not self.count:
            return math.nan
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * self.count
        seen = 0
        for e in sorted(self.buckets):
            seen += self.buckets[e]
            if seen >= rank:
                if e == self.UNDERFLOW:
                    return 0.0
                lo, hi = math.ldexp(1.0, e - 1), math.ldexp(1.0, e)
                return math.sqrt(lo * hi)
        return self.max  # pragma: no cover - rank <= count always hits

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(e): self.buckets[e] for e in sorted(self.buckets)},
        }

    def merge_dict(self, doc: Mapping[str, Any]) -> None:
        count = int(doc.get("count", 0))
        if not count:
            return
        self.count += count
        self.total += float(doc.get("sum", 0.0))
        lo, hi = doc.get("min"), doc.get("max")
        if lo is not None and lo < self.min:
            self.min = lo
        if hi is not None and hi > self.max:
            self.max = hi
        for e, n in (doc.get("buckets") or {}).items():
            e = int(e)
            self.buckets[e] = self.buckets.get(e, 0) + int(n)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Histogram":
        h = cls()
        h.merge_dict(doc)
        return h


class _Span:
    """Context manager recording elapsed wall time under the span path."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "Registry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        self._registry._span_stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        stack = self._registry._span_stack
        # The span must record its duration even when the body raised,
        # and must not raise itself if the body unbalanced the stack
        # (e.g. via Registry.clear()) — fall back to the bare name.
        if stack and stack[-1] == self._name:
            path = "/".join(stack)
            stack.pop()
        else:
            path = self._name
        self._registry.observe(f"span.{path}", elapsed)
        self._registry.add(f"span.{path}.calls")
        if exc_type is not None:
            self._registry.add(f"span.{path}.errors")


class _NullSpan:
    """Shared no-op span used when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Registry:
    """One process-local bag of counters, histograms and span timers."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.gauges: dict[str, float] = {}
        self._span_stack: list[str] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, name: str, n: float = 1.0) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0.0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Record the current value of gauge ``name`` (last write wins).

        Gauges report *levels* (cache sizes, hit counts at a scope
        boundary) rather than monotone totals; merging across processes
        keeps the maximum, the conservative answer to "how big did this
        get anywhere".
        """
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def span(self, name: str) -> _Span:
        """A nestable timer; elapsed time lands in ``span.<stack path>``."""
        return _Span(self, name)

    def timer(self, name: str) -> "_Timer":
        """Time a block into histogram ``name`` (no nesting semantics)."""
        return _Timer(self, name)

    # ------------------------------------------------------------------
    # Snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain JSON-able dict with deterministic key order."""
        doc: dict[str, Any] = {
            "v": SNAPSHOT_VERSION,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "histograms": {
                k: self.histograms[k].to_dict()
                for k in sorted(self.histograms)
            },
        }
        if self.gauges:  # additive, so absent when unused (v1 layout)
            doc["gauges"] = {k: self.gauges[k] for k in sorted(self.gauges)}
        return doc

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` document into this registry."""
        version = snapshot.get("v", SNAPSHOT_VERSION)
        if version > SNAPSHOT_VERSION:
            raise ValueError(
                f"telemetry snapshot v{version} is newer than the "
                f"supported v{SNAPSHOT_VERSION}"
            )
        for name, value in (snapshot.get("counters") or {}).items():
            self.add(name, float(value))
        for name, doc in (snapshot.get("histograms") or {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge_dict(doc)
        for name, value in (snapshot.get("gauges") or {}).items():
            value = float(value)
            if name not in self.gauges or value > self.gauges[name]:
                self.gauges[name] = value

    def clear(self) -> None:
        self.counters.clear()
        self.histograms.clear()
        self.gauges.clear()
        self._span_stack.clear()


class _Timer:
    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: Registry, name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._registry.observe(
            self._name, time.perf_counter() - self._start
        )


# ----------------------------------------------------------------------
# Process-local activation
# ----------------------------------------------------------------------
#: The active registry, or ``None`` when telemetry is disabled.  Hot
#: paths read this module attribute directly and skip all accounting on
#: ``None`` — keep it a plain rebindable global.
REGISTRY: Registry | None = None


def enabled() -> bool:
    return REGISTRY is not None


def enable(registry: Registry | None = None) -> Registry:
    """Install (and return) the process-local registry.

    Idempotent: enabling while enabled keeps the current registry
    unless an explicit one is passed.
    """
    global REGISTRY
    if registry is not None:
        REGISTRY = registry
    elif REGISTRY is None:
        REGISTRY = Registry()
    return REGISTRY


def disable() -> Registry | None:
    """Turn collection off; returns the registry that was active."""
    global REGISTRY
    active, REGISTRY = REGISTRY, None
    return active


class capture:
    """Context manager: collect into a fresh registry, then restore.

    >>> with capture() as reg:          # doctest: +SKIP
    ...     run_workload()
    >>> reg.snapshot()                  # doctest: +SKIP

    The previous registry (or disabled state) is restored on exit, so
    captures nest and never leak across tests or campaign jobs.  Merge
    the captured snapshot into an outer registry explicitly when totals
    should aggregate.
    """

    def __init__(self, registry: Registry | None = None):
        self._registry = registry or Registry()
        self._previous: Registry | None = None

    def __enter__(self) -> Registry:
        global REGISTRY
        self._previous = REGISTRY
        REGISTRY = self._registry
        return self._registry

    def __exit__(self, *exc) -> None:
        global REGISTRY
        REGISTRY = self._previous


# ----------------------------------------------------------------------
# Module-level conveniences (no-ops when disabled)
# ----------------------------------------------------------------------
def add(name: str, n: float = 1.0) -> None:
    reg = REGISTRY
    if reg is not None:
        reg.add(name, n)


def observe(name: str, value: float) -> None:
    reg = REGISTRY
    if reg is not None:
        reg.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    reg = REGISTRY
    if reg is not None:
        reg.set_gauge(name, value)


def span(name: str):
    reg = REGISTRY
    if reg is None:
        return _NULL_SPAN
    return reg.span(name)


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Combine snapshot documents into one (order-independent)."""
    merged = Registry()
    for snap in snapshots:
        if snap:
            merged.merge(snap)
    return merged.snapshot()


if os.environ.get("REPRO_TELEMETRY"):  # pragma: no cover - env-driven
    enable()

"""Span recording for traced benchmark runs.

A traced run wraps the program's layer entry points where their callers
look them up (a module attribute such as ``repro.core.admission.
holistic_analysis``, or a class attribute such as ``AdmissionController.
request``).  Every call through a wrapper records one span: name id,
start, end (``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux
and therefore comparable across processes) and the enclosing span of the
same thread.  Spans stay in memory, in flat per-thread arrays, and are
written to one ``.npz`` file per process when the run ends.  Request ids,
where a wrapper can see them, go to a side table of (span, id) pairs.

Nothing here changes what the wrapped functions compute: a wrapper calls
the original with the same arguments and returns its result.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np


class _ThreadBuffer:
    __slots__ = ("start", "end", "name", "parent", "stack", "rid_span", "rid")

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self.rid_span = array("i")
        self.rid = array("q")


class SpanRecorder:
    """Per-process span store; one buffer per thread (the server runs
    ``process_batch`` in an executor thread next to its event loop)."""

    def __init__(self, proc: str):
        self.proc = proc
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def reset(self, proc: str) -> None:
        """Drop every span (a forked child starts from an empty store)."""
        self.proc = proc
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def wrap(
        self,
        fn: Callable,
        name: str,
        rid: Callable[[tuple, Any], Any] | None = None,
    ) -> Callable:
        """``fn`` under a span; ``rid(args, result)`` names the request
        id(s) the call served (an int, a list of ints, or None)."""
        nid = self.name_id(name)
        perf = time.perf_counter
        buffer = self._buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b = buffer()
            idx = len(b.start)
            stack = b.stack
            b.name.append(nid)
            b.parent.append(stack[-1] if stack else -1)
            b.end.append(0.0)
            stack.append(idx)
            b.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                b.end[idx] = perf()
                stack.pop()
            if rid is not None:
                ids = rid(args, result)
                if isinstance(ids, int):
                    b.rid_span.append(idx)
                    b.rid.append(ids)
                elif ids:
                    for one in ids:
                        if isinstance(one, int):
                            b.rid_span.append(idx)
                            b.rid.append(one)
            return result

        wrapper.__wrapped_original__ = fn  # type: ignore[attr-defined]
        return wrapper

    def dump(self, path: str | Path) -> None:
        """Write every thread's spans into one file (parents re-based)."""
        starts, ends, names, parents, rid_spans, rids = [], [], [], [], [], []
        offset = 0
        for b in list(self._buffers):
            n = min(len(b.start), len(b.end), len(b.name), len(b.parent))
            parent = np.frombuffer(b.parent, dtype=np.int32)[:n].astype(np.int64)
            parent[parent >= 0] += offset
            starts.append(np.frombuffer(b.start, dtype=np.float64)[:n])
            ends.append(np.frombuffer(b.end, dtype=np.float64)[:n])
            names.append(np.frombuffer(b.name, dtype=np.int32)[:n])
            parents.append(parent)
            k = min(len(b.rid_span), len(b.rid))
            rid_spans.append(
                np.frombuffer(b.rid_span, dtype=np.int32)[:k].astype(np.int64)
                + offset
            )
            rids.append(np.frombuffer(b.rid, dtype=np.int64)[:k])
            offset += n

        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        tmp = Path(f"{path}.tmp.npz")
        np.savez(
            tmp,
            start=cat(starts, np.float64),
            end=cat(ends, np.float64),
            name=cat(names, np.int32),
            parent=cat(parents, np.int64),
            rid_span=cat(rid_spans, np.int64),
            rid=cat(rids, np.int64),
            names=np.array("\n".join(self.names)),
            proc=np.array(self.proc),
        )
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Wrapper targets: (module, attribute path, span name, request-id getter)
# ----------------------------------------------------------------------
def _doc_id(args, result):
    return result.get("id") if isinstance(result, dict) else None


def _arg0_id(args, result):
    return args[0] if args else None


def _arg0_doc_id(args, result):
    return args[0].get("id") if args and isinstance(args[0], dict) else None


def _batch_ids(args, result):
    return [r.id for r in args[1]] if len(args) > 1 else None


#: Analysis engine layers (every workload runs them).
ENGINE = (
    ("repro.core.holistic", "analyze_flow", "pipeline.analyze_flow", None),
    ("repro.core.hierarchy", "analyze_flow", "pipeline.analyze_flow", None),
    ("repro.core.pipeline", "first_hop_stage", "first_hop.stage", None),
    ("repro.core.pipeline", "ingress_stage", "switch_ingress.stage", None),
    ("repro.core.pipeline", "egress_stage", "switch_egress.stage", None),
    ("repro.core.first_hop", "solve_cached", "fixed_point.solve", None),
    ("repro.core.switch_ingress", "solve_cached", "fixed_point.solve", None),
    (
        "repro.core.switch_egress",
        "iterate_fixed_point",
        "fixed_point.solve",
        None,
    ),
    ("repro.core.context", "AnalysisContext.demand", "context.demand", None),
    (
        "repro.core.context",
        "AnalysisContext.interference",
        "context.interference",
        None,
    ),
    (
        "repro.core.context",
        "AnalysisContext.link_matrix",
        "context.link_matrix",
        None,
    ),
)

#: Serial admission front end (called by the service's shards).
ADMISSION = (
    (
        "repro.core.admission",
        "AdmissionController.request",
        "admission.request",
        None,
    ),
    (
        "repro.core.admission",
        "AdmissionController.release",
        "admission.release",
        None,
    ),
    (
        "repro.core.context",
        "AnalysisContext.with_flows",
        "context.build",
        None,
    ),
    (
        "repro.core.utilization",
        "network_convergence_report",
        "utilization.check",
        None,
    ),
    ("repro.core.admission", "holistic_analysis", "holistic.analysis", None),
)

#: TCP server process: protocol and service layers.
SERVER = (
    ("repro.service.server", "decode_line", "protocol.decode_line", _doc_id),
    (
        "repro.service.server",
        "request_from_dict",
        "protocol.request_from_dict",
        _arg0_doc_id,
    ),
    (
        "repro.service.server",
        "response_to_dict",
        "protocol.response_to_dict",
        _arg0_id,
    ),
    ("repro.service.server", "encode_line", "protocol.encode_line", _arg0_doc_id),
    (
        "repro.service.sharding",
        "ShardedAdmissionService.process_batch",
        "sharding.process_batch",
        _batch_ids,
    ),
)

HIERARCHY = (
    (
        "repro.core.hierarchy",
        "HierarchicalAdmissionController.request",
        "hierarchy.request",
        None,
    ),
    (
        "repro.core.hierarchy",
        "HierarchicalAdmissionController.release",
        "hierarchy.release",
        None,
    ),
    (
        "repro.core.hierarchy",
        "HierarchicalAdmissionController.preload",
        "hierarchy.preload",
        None,
    ),
)

CAMPAIGN = (
    ("repro.scenario.campaign", "holistic_analysis", "holistic.analysis", None),
    ("repro.sim.simulator", "Simulator.__init__", "sim.build", None),
    ("repro.sim.simulator", "Simulator.rebind", "sim.rebind", None),
    ("repro.sim.simulator", "Simulator.run", "sim.run", None),
    ("repro.sim.engine", "EventEngine.run", "sim.dispatch", None),
)


class Installed:
    """Wrappers installed from a target list; :meth:`remove` restores."""

    def __init__(self, recorder: SpanRecorder, targets: Iterable[tuple]):
        self._undo: list[tuple[Any, str, Any]] = []
        for module, attr, name, rid in targets:
            owner: Any = importlib.import_module(module)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = (
                owner.__dict__[last] if isinstance(owner, type) else
                getattr(owner, last)
            )
            setattr(owner, last, recorder.wrap(original, name, rid))
            self._undo.append((owner, last, original))

    def remove(self) -> None:
        for owner, last, original in reversed(self._undo):
            setattr(owner, last, original)
        self._undo.clear()


# ----------------------------------------------------------------------
# Analysis of span files
# ----------------------------------------------------------------------
@dataclass
class SpanSet:
    """The spans of one process, with derived duration and self time."""

    proc: str
    names: list[str]
    start: np.ndarray
    end: np.ndarray
    name: np.ndarray
    parent: np.ndarray
    rid_span: np.ndarray
    rid: np.ndarray

    def __post_init__(self) -> None:
        self.dur = self.end - self.start
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self._index = {n: i for i, n in enumerate(self.names)}

    @classmethod
    def load(cls, path: str | Path) -> "SpanSet":
        with np.load(path) as doc:
            names = str(doc["names"]).split("\n") if str(doc["names"]) else []
            return cls(
                proc=str(doc["proc"]),
                names=names,
                start=doc["start"],
                end=doc["end"],
                name=doc["name"].astype(np.int64),
                parent=doc["parent"],
                rid_span=doc["rid_span"],
                rid=doc["rid"],
            )

    def mask(self, names: Sequence[str]) -> np.ndarray:
        ids = [self._index[n] for n in names if n in self._index]
        return np.isin(self.name, ids)

    def count(self, names: Sequence[str]) -> int:
        return int(self.mask(names).sum())

    def self_total(self, names: Sequence[str]) -> float:
        return float(self.self_time[self.mask(names)].sum())

    def inclusive_total(self, names: Sequence[str]) -> float:
        """Time inside any span of ``names``, nested ones counted once."""
        inside = self.mask(names)
        if not inside.any():
            return 0.0
        nested = np.zeros(len(inside), dtype=bool)
        has_parent = self.parent >= 0
        nested[has_parent] = inside[self.parent[has_parent]]
        return float(self.dur[inside & ~nested].sum())

    def intervals(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        m = self.mask(names)
        return self.start[m], self.end[m]


def load_dir(directory: str | Path) -> list[SpanSet]:
    return [SpanSet.load(p) for p in sorted(Path(directory).glob("*.npz"))]


def self_total(sets: Iterable[SpanSet], names: Sequence[str]) -> float:
    return sum(s.self_total(names) for s in sets)


def inclusive_total(sets: Iterable[SpanSet], names: Sequence[str]) -> float:
    return sum(s.inclusive_total(names) for s in sets)


def count(sets: Iterable[SpanSet], names: Sequence[str]) -> int:
    return sum(s.count(names) for s in sets)


def covered(
    windows: tuple[np.ndarray, np.ndarray],
    busy: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Per window, the length of its overlap with the union of ``busy``
    intervals (which may overlap each other, e.g. two shard workers)."""
    ws, we = windows
    bs, be = busy
    if len(bs) == 0:
        return np.zeros(len(ws))
    order = np.argsort(bs)
    bs, be = bs[order], be[order]
    # Merge into disjoint intervals.
    us, ue = [bs[0]], [be[0]]
    for s, e in zip(bs[1:], be[1:]):
        if s <= ue[-1]:
            ue[-1] = max(ue[-1], e)
        else:
            us.append(s)
            ue.append(e)
    us_a, ue_a = np.array(us), np.array(ue)
    before = np.concatenate(([0.0], np.cumsum(ue_a - us_a)))

    def cover_until(t: np.ndarray) -> np.ndarray:
        k = np.searchsorted(us_a, t, side="right") - 1
        inside = np.where(
            k >= 0,
            np.clip(t - us_a[np.maximum(k, 0)], 0.0, (ue_a - us_a)[np.maximum(k, 0)]),
            0.0,
        )
        return np.where(k >= 0, before[np.maximum(k, 0)] + inside, 0.0)

    return cover_until(we) - cover_until(ws)

"""Shared measurement helpers: percentiles, metric records, process
memory, provenance and telemetry-snapshot arithmetic."""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
#: Scratch space inside the checkout (listed in .gitignore).
WORK = ROOT / ".perfbench"


@dataclass
class Metric:
    """One named number with its unit and the samples behind it."""

    name: str
    value: float
    unit: str
    n: int = 1


@dataclass
class Pass:
    """Outcome of one run of a workload (untraced or traced)."""

    e2e: dict[str, Metric]
    #: Every end-to-end metric of this workload under its own name
    #: (``admit_p50_ms``, ``scenarios_per_s``, ...), for the report.
    report: list[Metric]
    attempted: int
    failed: int
    #: Names of the correctness checks that ran.
    checks: list[str]
    #: Reference-speed time of the fixed-work part (see :mod:`speed`;
    #: trace overhead is its ratio).
    work_s: float
    invalid: str | None = None
    #: Per-layer metrics (traced passes only).
    layers: list[Metric] = field(default_factory=list)
    #: Exact work counts (traced passes; compared across traced runs).
    counts: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; failures enter as +inf."""
    if len(values) == 0:
        return math.inf
    value = float(np.percentile(np.asarray(values, dtype=float), q))
    return math.inf if math.isnan(value) else value


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with >= 10 samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def timing(prefix: str, seconds: Sequence[float], unit: str = "ms") -> list[Metric]:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    scale = {"ms": 1e3, "s": 1.0, "us": 1e6}[unit]
    n = len(seconds)
    out = [Metric(f"{prefix}_p50_{unit}", percentile(seconds, 50) * scale, unit, n)]
    q = tail_percentile(n)
    if q > 50:
        out.append(
            Metric(f"{prefix}_p{q:g}_{unit}", percentile(seconds, q) * scale, unit, n)
        )
    return out


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Largest VmHWM among ``pids`` in MiB (0 for vanished processes)."""
    best = 0.0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                best = max(best, int(line.split()[1]) / 1024.0)
    return best


def children_of(pid: int) -> list[int]:
    """Direct child processes of ``pid`` (scans ``/proc``)."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            out.append(int(entry.name))
    return out


def provenance() -> dict[str, Any]:
    """Revision and environment every result is recorded with."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git": rev,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
    }


# ----------------------------------------------------------------------
# Telemetry snapshots (repro.telemetry Registry.snapshot documents)
# ----------------------------------------------------------------------
def counter(snap: Mapping[str, Any] | None, name: str) -> float:
    return float(((snap or {}).get("counters") or {}).get(name, 0.0))


def hist(snap: Mapping[str, Any] | None, name: str) -> tuple[float, float]:
    """(count, total) of a histogram."""
    doc = ((snap or {}).get("histograms") or {}).get(name) or {}
    return float(doc.get("count", 0)), float(doc.get("sum", 0.0))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

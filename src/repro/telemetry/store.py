"""Versioned JSON-lines store for telemetry run records.

Every measured run — a campaign, a replay, a benchmark pass — appends
one :class:`RunRecord` line to a store file (``TELEMETRY_runs.jsonl``
by default, same spirit as ``BENCH_scaling.json``: committed history
you can diff against).  A record carries:

* ``label`` — the user-chosen name runs are grouped and diffed by
  (``pr6-baseline``, ``nightly``, ...),
* ``kind`` — what produced it (``campaign``, ``replay``, ``bench``),
* ``scenario`` — scenario/workload identifier, when there is one,
* ``git`` — short revision the run was taken at,
* ``metrics`` — flat name→number KPIs (admission rate, req/s, ...),
* ``telemetry`` — a full registry snapshot
  (:meth:`repro.telemetry.Registry.snapshot`), optional,
* ``meta`` — anything else worth keeping (argv, shard count, ...).

Each line is a self-contained JSON object with a ``v`` field; like the
rest of the repo's on-disk formats, newer versions are refused loudly
rather than half-read.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

#: Run-record schema version.
STORE_VERSION = 1

#: Default store file, repo-root relative (next to BENCH_scaling.json).
DEFAULT_STORE = "TELEMETRY_runs.jsonl"


class StoreError(ValueError):
    """A telemetry store file is malformed or too new."""


@dataclass(frozen=True)
class RunRecord:
    """One measured run, as appended to the JSON-lines store."""

    label: str
    kind: str = "campaign"
    scenario: str | None = None
    git: str | None = None
    created: str | None = None
    metrics: Mapping[str, float] = field(default_factory=dict)
    telemetry: Mapping[str, Any] | None = None
    meta: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "v": STORE_VERSION,
            "label": self.label,
            "kind": self.kind,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }
        if self.scenario is not None:
            doc["scenario"] = self.scenario
        if self.git is not None:
            doc["git"] = self.git
        if self.created is not None:
            doc["created"] = self.created
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry
        if self.meta:
            doc["meta"] = dict(self.meta)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunRecord":
        version = doc.get("v", STORE_VERSION)
        if not isinstance(version, int) or version < 1:
            raise StoreError(f"invalid run record version {version!r}")
        if version > STORE_VERSION:
            raise StoreError(
                f"run record v{version} is newer than the supported "
                f"v{STORE_VERSION}"
            )
        label = doc.get("label")
        if not isinstance(label, str) or not label:
            raise StoreError(f"run record missing label: {doc!r}")
        return cls(
            label=label,
            kind=str(doc.get("kind", "campaign")),
            scenario=doc.get("scenario"),
            git=doc.get("git"),
            created=doc.get("created"),
            metrics={
                str(k): float(v)
                for k, v in (doc.get("metrics") or {}).items()
            },
            telemetry=doc.get("telemetry"),
            meta=doc.get("meta") or {},
        )


def append_run(path: str | Path, record: RunRecord) -> None:
    """Append one record line, creating the store file if needed."""
    line = json.dumps(record.to_dict(), sort_keys=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def load_runs(
    path: str | Path, *, label: str | None = None
) -> list[RunRecord]:
    """Read every record (optionally only one label) from a store file."""
    p = Path(path)
    if not p.exists():
        raise StoreError(f"telemetry store not found: {p}")
    records: list[RunRecord] = []
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StoreError(f"{p}:{lineno}: invalid JSON: {exc}") from exc
        record = RunRecord.from_dict(doc)
        if label is None or record.label == label:
            records.append(record)
    return records


def labels(path: str | Path) -> list[str]:
    """Distinct labels in first-appearance order."""
    seen: dict[str, None] = {}
    for record in load_runs(path):
        seen.setdefault(record.label, None)
    return list(seen)


def merge_run_telemetry(records: Iterable[RunRecord]) -> dict[str, Any]:
    """One combined registry snapshot across the records' telemetry."""
    from repro import telemetry as _t

    return _t.merge_snapshots(
        r.telemetry for r in records if r.telemetry
    )


def git_revision() -> str | None:
    """Short git revision of the working tree, or ``None`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None

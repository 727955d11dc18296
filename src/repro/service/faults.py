"""Deterministic fault injection for the admission service.

Chaos testing is only useful when a failure can be *replayed*: a crash
that happens at a wall-clock instant reproduces on no other machine,
but a crash that happens "when the worker applies its 40th op" reproduces
everywhere, every run.  This module defines that vocabulary: a
:class:`FaultPlan` is a seeded, serialisable bundle of
:class:`FaultSpec` entries, each pinned to a deterministic progress
point (the worker's op counter, or the server's response counter) rather
than to time.

Fault kinds
-----------
Worker-side (require ``workers=True``; applied inside the shard worker
process, see :func:`repro.service.sharding._shard_worker`):

* ``kill``        — the worker ``os._exit``\\ s immediately *before*
  applying op ``at`` (exercises supervised recovery);
* ``hang``        — the worker sleeps effectively forever before op
  ``at`` (exercises op timeouts and ``close()`` escalation);
* ``slow_batch``  — the worker sleeps ``delay_s`` before op ``at``
  (exercises latency-sensitive paths without killing anything).

Server-side (applied by :class:`repro.service.server.AdmissionServer`):

* ``drop_conn``   — the server closes the client connection instead of
  writing response number ``at`` (exercises client retry + server-side
  idempotency dedup: the dropped request *was* executed).

Replication-side (require ``workers=True`` and ``replicas >= 1``;
applied against the warm-standby machinery of
:mod:`repro.service.replication`):

* ``kill_standby`` — the standby worker of shard ``shard`` dies just
  before applying its op ``at`` (the primary notices on the next ship
  or at promotion time and spawns a replacement; ``incarnation``
  selects the standby *generation*: 0 = the initial standby, 1 = the
  first replacement, ...).  A worker spawned for a cold restore is not
  a standby: it takes no generation and no ``kill_standby`` fault;
* ``drop_journal`` — the journal-shipping link of shard ``shard`` is
  silently severed before shipping committed op number ``at``, so the
  standby's high-water mark falls behind and a promotion must replay
  the gap from the primary's journal.  It severs the standby live when
  a ship first crosses ``at``; later standbys ship normally;
* ``kill`` with ``during=promotion`` — the standby dies at the start
  of promotion attempt number ``at`` (0 = the first), forcing the
  supervisor down the cold baseline+journal recovery path.

Worker faults carry an ``incarnation`` (default 0): a fault only fires
in that incarnation of the shard worker, so a supervisor-respawned
worker does not re-trip the same kill while replaying its journal.
Incarnations number every worker the supervisor spawns, respawned
primaries and standbys alike, in spawn order; a standby counts the ops
it applied before promotion, so a kill aimed at its incarnation with a
later ``at`` kills it as the promoted primary.  Two kills of one shard
in successive incarnations therefore read, without a standby::

    kill:shard=0,at=30;kill:shard=0,at=60,incarnation=1

Every fault fires at most once.

The plan serialises to/from a compact spec string (CLI ``serve
--faults`` / env ``REPRO_FAULTS``)::

    kill:shard=0,at=40;slow_batch:shard=0,at=10,delay=0.02;drop_conn:at=120

and to a JSON-able dict, so chaos runs are reproducible from a single
recorded line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

#: Fault kinds applied inside a shard worker process.
WORKER_KINDS = ("kill", "hang", "slow_batch")

#: Fault kinds applied by the TCP server.
SERVER_KINDS = ("drop_conn",)

#: Fault kinds applied against the replication path (warm standbys).
REPLICA_KINDS = ("kill_standby", "drop_journal")

KINDS = WORKER_KINDS + SERVER_KINDS + REPLICA_KINDS

#: The only ``during=`` phase understood today.
DURING_PROMOTION = "promotion"


class FaultError(ValueError):
    """A fault spec is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault (see module docstring).

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    at:
        Progress point the fault fires at: the shard worker's 0-based
        op counter for worker kinds, the server's 0-based response
        counter for ``drop_conn``.
    shard:
        Target shard id (required for worker kinds, meaningless for
        server kinds).
    delay_s:
        Sleep length for ``slow_batch``.
    incarnation:
        Worker incarnation the fault fires in (0 = the initial worker;
        a supervisor respawn increments it).  For ``kill_standby`` it
        selects the standby *generation* instead (0 = the initial
        standby, 1 = the first replacement, ...).
    during:
        Optional phase qualifier.  ``kill`` with ``during=promotion``
        fires at the start of promotion attempt ``at`` instead of at a
        worker op index.
    """

    kind: str
    at: int = 0
    shard: int | None = None
    delay_s: float = 0.0
    incarnation: int = 0
    during: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of {list(KINDS)}"
            )
        if self.at < 0:
            raise FaultError(f"fault 'at' must be >= 0, got {self.at}")
        if (
            self.kind in WORKER_KINDS or self.kind in REPLICA_KINDS
        ) and self.shard is None:
            raise FaultError(f"{self.kind} fault needs shard=<id>")
        if self.kind == "slow_batch" and self.delay_s <= 0:
            raise FaultError("slow_batch fault needs delay=<seconds> > 0")
        if self.during is not None:
            if self.kind != "kill":
                raise FaultError(
                    f"'during' only qualifies kill faults, not {self.kind!r}"
                )
            if self.during != DURING_PROMOTION:
                raise FaultError(
                    f"unknown 'during' phase {self.during!r}; expected "
                    f"{DURING_PROMOTION!r}"
                )

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind, "at": self.at}
        if self.shard is not None:
            doc["shard"] = self.shard
        if self.delay_s:
            doc["delay_s"] = self.delay_s
        if self.incarnation:
            doc["incarnation"] = self.incarnation
        if self.during is not None:
            doc["during"] = self.during
        return doc


@dataclass(frozen=True)
class FaultPlan:
    """A seeded bundle of deterministic faults."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.faults)

    # ------------------------------------------------------------------
    def worker_faults(
        self, shard: int | None = None, incarnation: int | None = None
    ) -> tuple[FaultSpec, ...]:
        """Worker-side faults, optionally filtered to one shard/incarnation.

        ``kill:during=promotion`` faults are *not* worker faults — they
        are applied by the supervisor at promotion time, never inside a
        worker's op loop.
        """
        return tuple(
            f
            for f in self.faults
            if f.kind in WORKER_KINDS
            and f.during is None
            and (shard is None or f.shard == shard)
            and (incarnation is None or f.incarnation == incarnation)
        )

    def server_faults(self) -> tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if f.kind in SERVER_KINDS)

    def standby_faults(
        self, shard: int | None = None, generation: int | None = None
    ) -> tuple[FaultSpec, ...]:
        """``kill_standby`` faults for one shard's standby generation."""
        return tuple(
            f
            for f in self.faults
            if f.kind == "kill_standby"
            and (shard is None or f.shard == shard)
            and (generation is None or f.incarnation == generation)
        )

    def drop_journal_at(self, shard: int) -> int | None:
        """Earliest committed-op seq at which shard's ship link drops."""
        ats = [
            f.at
            for f in self.faults
            if f.kind == "drop_journal" and f.shard == shard
        ]
        return min(ats) if ats else None

    def promotion_faults(self, shard: int) -> tuple[FaultSpec, ...]:
        """``kill:during=promotion`` faults targeting ``shard``."""
        return tuple(
            f
            for f in self.faults
            if f.kind == "kill"
            and f.during == DURING_PROMOTION
            and f.shard == shard
        )

    def replication_faults(self) -> tuple[FaultSpec, ...]:
        """Every fault that targets the replication path."""
        return tuple(
            f
            for f in self.faults
            if f.kind in REPLICA_KINDS or f.during == DURING_PROMOTION
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FaultPlan":
        faults = tuple(
            FaultSpec(
                kind=str(f["kind"]),
                at=int(f.get("at", 0)),
                shard=None if f.get("shard") is None else int(f["shard"]),
                delay_s=float(f.get("delay_s", 0.0)),
                incarnation=int(f.get("incarnation", 0)),
                during=None if f.get("during") is None else str(f["during"]),
            )
            for f in doc.get("faults", [])
        )
        return cls(faults=faults, seed=int(doc.get("seed", 0)))

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str | None) -> "FaultPlan | None":
        """Parse a compact spec string; ``None``/blank parses to None.

        Grammar: ``;``-separated entries, each ``kind:key=value,...``
        (keys: ``shard``, ``at``, ``delay``, ``incarnation``,
        ``during``) or the plan-level ``seed=N``.
        """
        if not text or not text.strip():
            return None
        faults: list[FaultSpec] = []
        seed = 0
        for entry in text.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                seed = _parse_int(entry[5:], "seed")
                continue
            kind, _, rest = entry.partition(":")
            kind = kind.strip()
            kwargs: dict[str, Any] = {}
            if rest.strip():
                for pair in rest.split(","):
                    key, eq, value = pair.partition("=")
                    key, value = key.strip(), value.strip()
                    if not eq or not value:
                        raise FaultError(
                            f"fault entry {entry!r}: expected key=value, "
                            f"got {pair!r}"
                        )
                    if key == "shard":
                        kwargs["shard"] = _parse_int(value, "shard")
                    elif key == "at":
                        kwargs["at"] = _parse_int(value, "at")
                    elif key == "delay":
                        try:
                            kwargs["delay_s"] = float(value)
                        except ValueError:
                            raise FaultError(
                                f"fault entry {entry!r}: bad delay {value!r}"
                            ) from None
                    elif key == "incarnation":
                        kwargs["incarnation"] = _parse_int(value, "incarnation")
                    elif key == "during":
                        kwargs["during"] = value
                    else:
                        raise FaultError(
                            f"fault entry {entry!r}: unknown key {key!r}"
                        )
            faults.append(FaultSpec(kind=kind, **kwargs))
        if not faults:
            return None
        return cls(faults=tuple(faults), seed=seed)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FaultError(f"bad {what} value {text!r}") from None


class WorkerFaults:
    """Per-worker fault application state (lives in the worker process).

    Indexes one incarnation's faults by op counter and applies them via
    :meth:`before_op`, called with the worker's monotone op index just
    before each op executes.  ``kill`` uses ``os._exit`` so the parent
    sees an abrupt pipe EOF, exactly like a real crash.
    """

    #: Exit code of an injected kill (visible in worker exitcodes).
    KILL_EXIT = 17

    #: "Forever" for hang faults — far beyond any test timeout.
    HANG_S = 3600.0

    def __init__(self, faults: Iterable[FaultSpec]):
        self._kill_at: set[int] = set()
        self._hang_at: set[int] = set()
        self._slow_at: dict[int, float] = {}
        for f in faults:
            if f.kind == "kill":
                self._kill_at.add(f.at)
            elif f.kind == "hang":
                self._hang_at.add(f.at)
            elif f.kind == "slow_batch":
                self._slow_at[f.at] = f.delay_s

    def __bool__(self) -> bool:
        return bool(self._kill_at or self._hang_at or self._slow_at)

    def before_op(self, op_index: int) -> None:
        import os
        import time

        if op_index in self._kill_at:
            os._exit(self.KILL_EXIT)
        if op_index in self._hang_at:
            time.sleep(self.HANG_S)
        delay = self._slow_at.get(op_index)
        if delay:
            time.sleep(delay)

"""Online admission-control service: serving, replay, state.

The paper's closing claim — the holistic analysis "forms an admission
controller" (Sec. 3.5) — made concrete as a production-shaped serving
layer on top of the incremental
:class:`~repro.core.admission.AdmissionController`:

* :mod:`repro.service.protocol` — versioned JSON-lines request protocol
  (admit / release / query / stats / snapshot / metrics / health) with
  an error-code taxonomy, idempotency keys and per-request deadlines;
* :mod:`repro.service.client` — one ``metrics`` / ``stats`` /
  ``health`` request to a live server, for clients that poll it;
* :mod:`repro.service.sharding` — :class:`ShardedAdmissionService`:
  one engine per server, inline or in a worker process, with in-order
  micro-batches and a supervisor that respawns a dead worker and
  restores its exact state from a baseline snapshot plus a bounded op
  journal — every decision equals a fresh in-process engine's;
* :mod:`repro.service.server` — the asyncio TCP front end
  (``repro.cli serve``) with load shedding, deadline enforcement and
  server-side idempotency dedup;
* :mod:`repro.service.replay` — scenario families x arrival processes
  -> reproducible request streams, with in-process / serial / over-the-
  wire drivers (``repro.cli replay``), the latter resilient via
  :mod:`repro.service.retry`;
* :mod:`repro.service.retry` — shared :class:`RetryPolicy` (timeouts,
  exponential backoff, deterministic jitter);
* :mod:`repro.service.faults` — seeded deterministic
  :class:`FaultPlan` (kill/hang/slow workers, drop connections, kill
  standbys / sever journal links / kill during promotion) so chaos
  runs replay identically everywhere;
* :mod:`repro.service.replication` — the handle every engine worker
  runs behind, and the warm standby fed by the primary's op journal
  (ship-on-commit): zero-loss promotion on primary death;
* :mod:`repro.service.state` — versioned snapshot/restore of a running
  service (byte-identical decisions on a replayed request log).

The names below resolve on first access: ``serve`` reads the server,
the service and the snapshot loader, and never loads the replay
drivers, the scenario families or numpy; a client that fetches
``metrics``, ``stats`` or ``health`` loads only the client and the
protocol.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "client": ("fetch_health_tcp", "fetch_metrics_tcp", "fetch_stats_tcp"),
        "faults": ("FaultError", "FaultPlan", "FaultSpec"),
        "protocol": (
            "ERR_BAD_REQUEST",
            "ERR_DEADLINE",
            "ERR_INTERNAL",
            "ERR_OVERLOADED",
            "ERR_UNAVAILABLE",
            "ERROR_CODES",
            "OPS",
            "PROTOCOL_VERSION",
            "RETRYABLE_CODES",
            "ProtocolError",
            "Request",
            "decode_line",
            "encode_line",
            "is_retryable",
            "request_from_dict",
            "request_to_dict",
            "response_to_dict",
        ),
        "replay": (
            "ARRIVALS",
            "ReplaySummary",
            "ReplayTrace",
            "load_trace",
            "replay_over_tcp",
            "replay_serial",
            "replay_service",
            "replay_tcp",
            "save_trace",
            "trace_from_family",
            "trace_from_scenario",
        ),
        "replication": ("StandbyReplica",),
        "retry": ("ConnectError", "RetryPolicy", "connect_with_backoff"),
        "server": ("AdmissionServer", "run_server"),
        "sharding": ("ServiceDecision", "ShardedAdmissionService"),
        "state": (
            "STATE_VERSION",
            "load_service_state",
            "save_service_state",
            "service_state_from_dict",
            "service_state_to_dict",
        ),
    },
)

"""Online admission-control service: serving, replay, state.

The paper's closing claim — the holistic analysis "forms an admission
controller" (Sec. 3.5) — made concrete as a production-shaped serving
layer on top of the incremental
:class:`~repro.core.admission.AdmissionController`:

* :mod:`repro.service.protocol` — versioned JSON-lines request protocol
  (admit / release / query / stats / snapshot / metrics / health) with
  an error-code taxonomy, idempotency keys and per-request deadlines;
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
"""

from repro.service.faults import (
    FaultError,
    FaultPlan,
    FaultSpec,
)
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_UNAVAILABLE,
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    ProtocolError,
    Request,
    decode_line,
    encode_line,
    is_retryable,
    request_from_dict,
    request_to_dict,
    response_to_dict,
)
from repro.service.replay import (
    ARRIVALS,
    ReplaySummary,
    ReplayTrace,
    fetch_health_tcp,
    fetch_metrics_tcp,
    fetch_stats_tcp,
    load_trace,
    replay_over_tcp,
    replay_serial,
    replay_service,
    replay_tcp,
    save_trace,
    trace_from_family,
    trace_from_scenario,
)
from repro.service.replication import StandbyReplica
from repro.service.retry import ConnectError, RetryPolicy, connect_with_backoff
from repro.service.server import AdmissionServer, run_server
from repro.service.sharding import ServiceDecision, ShardedAdmissionService
from repro.service.state import (
    STATE_VERSION,
    load_service_state,
    save_service_state,
    service_state_from_dict,
    service_state_to_dict,
)

__all__ = [
    "ARRIVALS",
    "ERR_BAD_REQUEST",
    "ERR_DEADLINE",
    "ERR_INTERNAL",
    "ERR_OVERLOADED",
    "ERR_UNAVAILABLE",
    "ERROR_CODES",
    "OPS",
    "PROTOCOL_VERSION",
    "RETRYABLE_CODES",
    "STATE_VERSION",
    "AdmissionServer",
    "ConnectError",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "ProtocolError",
    "ReplaySummary",
    "ReplayTrace",
    "Request",
    "RetryPolicy",
    "ServiceDecision",
    "ShardedAdmissionService",
    "StandbyReplica",
    "connect_with_backoff",
    "decode_line",
    "encode_line",
    "fetch_health_tcp",
    "fetch_metrics_tcp",
    "fetch_stats_tcp",
    "is_retryable",
    "load_service_state",
    "load_trace",
    "replay_over_tcp",
    "replay_serial",
    "replay_service",
    "replay_tcp",
    "request_from_dict",
    "request_to_dict",
    "response_to_dict",
    "run_server",
    "save_service_state",
    "save_trace",
    "service_state_from_dict",
    "service_state_to_dict",
    "trace_from_family",
    "trace_from_scenario",
]

"""Versioned snapshot / restore of a running admission service.

A *service state document* persists everything needed to rebuild a
:class:`~repro.service.sharding.ShardedAdmissionService` that issues
**byte-identical decisions** on a replayed request log: the topology,
the analysis options, and the engine's admitted flows plus their
converged jitter table.  The document follows the schema-version
conventions of :mod:`repro.scenario.serialization` (integer
``schema_version``, newer-than-supported refused loudly, JSON with
sorted keys) and reuses its network/flow/options codecs, so the
embedded blocks are exactly the blocks scenario files carry::

    {
      "schema_version": 3,
      "kind": "admission-service-state",
      "workers": false,
      "replicas": 0,                        # warm standbys (v2)
      "network": {...},                     # repro.io network document
      "analysis": {...},                    # AnalysisOptions fields
      "flows": [<repro.io flow doc>...],    # admission order
      "jitters": [[flow, [resource...], [values...]], ...]
    }

Jitter resources are the analysis' :data:`ResourceKey` tuples
(``("link", N1, N2)`` / ``("in", N)``) flattened to JSON arrays.

Schema v2 added the ``replicas`` knob (absent = 0).  Schema v3 holds
one ``flows`` + ``jitters`` block.  v1 and v2 documents carry
``n_shards``, ``shard_map``, ``flow_shards`` and one such block per
shard under ``shards``; they still load when ``n_shards`` is 1, and
multi-shard ones are refused because multi-shard serving was removed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.io import (
    ScenarioError,
    flow_from_dict,
    flow_to_dict,
    network_from_dict,
    network_to_dict,
)
from repro.scenario.serialization import (
    analysis_options_from_dict,
    analysis_options_to_dict,
)
from repro.service.sharding import ShardedAdmissionService

#: Current service-state schema version (2 added ``replicas``, 3 went
#: to one engine block; one-shard v1/v2 documents remain loadable).
STATE_VERSION = 3

#: Document discriminator (state files are not scenario files).
STATE_KIND = "admission-service-state"


def _jitters_to_doc(jitters: Mapping) -> list[list[Any]]:
    rows = [
        [name, list(resource), list(values)]
        for (name, resource), values in jitters.items()
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def _jitters_from_doc(rows) -> dict:
    out = {}
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ScenarioError(
                f"service state: bad jitter row {row!r} "
                "(expected [flow, [resource...], [values...]])"
            )
        name, resource, values = row
        out[(str(name), tuple(resource))] = tuple(float(v) for v in values)
    return out


def service_state_to_dict(service: ShardedAdmissionService) -> dict[str, Any]:
    flows, jitters = service.export_state()
    return {
        "schema_version": STATE_VERSION,
        "kind": STATE_KIND,
        "workers": service.workers,
        "replicas": service.replicas,
        "network": network_to_dict(service.network),
        "analysis": analysis_options_to_dict(service.options),
        "flows": [flow_to_dict(f) for f in flows],
        "jitters": _jitters_to_doc(jitters),
    }


def service_state_from_dict(
    doc: Mapping[str, Any],
    *,
    workers: bool | None = None,
    **service_kwargs: Any,
) -> ShardedAdmissionService:
    """Rebuild a service from a state document.

    ``workers`` overrides the snapshotted backend choice (a snapshot
    taken from a worker-backed service restores inline by passing
    ``workers=False``, and vice versa — the state is backend-agnostic).
    Extra keyword arguments — ``supervise``, ``max_restarts``,
    ``journal_limit``, ``replicas``, ``fault_plan``, ``op_timeout``,
    ... — pass straight to the :class:`ShardedAdmissionService`
    constructor, so a restored service can run with full fault
    tolerance (or a fault plan) without those runtime knobs living in
    the state document.
    """
    version = doc.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ScenarioError(f"invalid service-state schema_version {version!r}")
    if version > STATE_VERSION:
        raise ScenarioError(
            f"service-state schema_version {version} is newer than the "
            f"supported version {STATE_VERSION}"
        )
    if doc.get("kind") != STATE_KIND:
        raise ScenarioError(
            f"not a service-state document (kind={doc.get('kind')!r})"
        )
    if "network" not in doc:
        raise ScenarioError("service state: missing 'network' section")
    block = doc
    if version < 3:
        n_shards = doc.get("n_shards")
        if n_shards != 1:
            raise ScenarioError(
                f"service state: schema v{version} document with "
                f"n_shards={n_shards!r} refused: multi-shard serving was "
                "removed (only n_shards=1 documents load)"
            )
        shards = doc.get("shards")
        if not isinstance(shards, list) or len(shards) != 1:
            raise ScenarioError(
                "service state: n_shards=1 needs exactly one 'shards' block"
            )
        block = shards[0]
    network = network_from_dict(doc["network"])
    options = (
        analysis_options_from_dict(doc["analysis"])
        if "analysis" in doc
        else None
    )
    effective_workers = (
        doc.get("workers", False) if workers is None else workers
    )
    if "replicas" not in service_kwargs:
        # The snapshotted replication knob is honoured where it can be
        # (replicas need worker backends); an explicit kwarg wins.
        doc_replicas = int(doc.get("replicas", 0))
        if effective_workers and doc_replicas:
            service_kwargs["replicas"] = doc_replicas
    service = ShardedAdmissionService(
        network,
        options=options,
        workers=effective_workers,
        **service_kwargs,
    )
    try:
        flows = tuple(flow_from_dict(f) for f in block.get("flows", []))
        service.import_state(flows, _jitters_from_doc(block.get("jitters", [])))
    except Exception:
        service.close()
        raise
    return service


def save_service_state(
    path: str | Path, service: ShardedAdmissionService
) -> None:
    """Write a service-state JSON file (pretty-printed, stable order)."""
    Path(path).write_text(
        json.dumps(service_state_to_dict(service), indent=2, sort_keys=True)
        + "\n"
    )


def load_service_state(
    path: str | Path,
    *,
    workers: bool | None = None,
    **service_kwargs: Any,
) -> ShardedAdmissionService:
    """Read a service-state file and rebuild the service.

    Extra keyword arguments pass through to the service constructor
    (see :func:`service_state_from_dict`).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    return service_state_from_dict(doc, workers=workers, **service_kwargs)

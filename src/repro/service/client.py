"""Wire client for the admission service's no-argument verbs.

:func:`fetch_metrics_tcp`, :func:`fetch_stats_tcp` and
:func:`fetch_health_tcp` send one ``metrics`` / ``stats`` / ``health``
request to a live server (``trace-export``, ``watch --connect`` and
``replay --connect --metrics-out`` use them).  They need only asyncio
and :mod:`repro.service.protocol`, so a client that polls a server
loads neither numpy nor the engine, and the server never imports this
module.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.service.protocol import (
    Request,
    decode_line,
    encode_line,
    request_to_dict,
)


async def _request_over_tcp(host: str, port: int, op: str) -> dict[str, Any]:
    """One no-argument request (``metrics``/``stats``/``health``) to a
    live server; returns the payload without the protocol envelope.

    The read limit is raised well past asyncio's 64 KiB default: a
    tracing server's ``metrics`` response carries the fleet's span ring
    (``trace_spans``) on a single line.
    """
    reader, writer = await asyncio.open_connection(
        host, port, limit=16 * 1024 * 1024
    )
    try:
        writer.write(encode_line(request_to_dict(Request(op=op, id=0))))
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        doc = decode_line(line)
        if not doc.get("ok"):
            raise RuntimeError(
                f"{op} request failed: {doc.get('error', 'unknown error')}"
            )
        return {
            k: v for k, v in doc.items() if k not in ("v", "id", "ok", "trace")
        }
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass


def fetch_metrics_tcp(host: str, port: int) -> dict[str, Any]:
    """Ask a live server for its telemetry via the ``metrics`` verb."""
    return asyncio.run(_request_over_tcp(host, port, "metrics"))


def fetch_stats_tcp(host: str, port: int) -> dict[str, Any]:
    """Ask a live server for its counters via the ``stats`` verb."""
    return asyncio.run(_request_over_tcp(host, port, "stats"))


def fetch_health_tcp(host: str, port: int) -> dict[str, Any]:
    """Ask a live server for its liveness via the ``health`` verb."""
    return asyncio.run(_request_over_tcp(host, port, "health"))

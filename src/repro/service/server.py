"""Asyncio TCP front end of the admission service.

JSON-lines over TCP (see :mod:`repro.service.protocol`): every
connection writes one request per line and reads one response per
request, in order.  All connections feed a single dispatch queue; the
dispatcher drains it in **micro-batches** — whatever accumulated since
the last service call, up to ``batch_max``, after an optional
``batch_window_s`` coalescing pause — and hands each batch to
:meth:`ShardedAdmissionService.process_batch`, which sends its runs of
engine ops to the one engine in order.  A burst therefore costs one
engine round trip per run, while a lone request still sees
one-request latency.

The dispatcher calls the service directly, on the event-loop thread,
so serving starts no thread: a ``serve`` process bound to a numeric
address (the default ``127.0.0.1``) runs exactly one.  A second thread
would buy nothing: the engine is pure Python and holds the GIL for a
whole batch, and responses leave in FIFO order, so nothing read during
a batch could be answered before it ends.  One thread also keeps every
worker respawn a fork of a single-threaded process, the only fork
POSIX makes safe.  The price is that a batch blocks the loop: a request
that arrives meanwhile waits in the kernel and is read the next time
the dispatcher yields (at the latest when it waits on an empty queue),
so its ``deadline_s`` clock and the ``max_queue`` check start at that
read.  A hung worker blocks the loop until the service's
``op_timeout``.

Overload and failure behaviour (protocol v2):

* **Load shedding** — with ``max_queue > 0``, a request read while
  the dispatch queue is at or over the limit is answered with
  ``overloaded`` + ``retry_after`` instead of being queued (the
  error still travels through the queue so per-connection response
  order is preserved).
* **Deadlines** — a request carrying ``deadline_s`` that is still
  queued when its deadline passes is answered ``deadline_exceeded``
  without touching the service; the deadline counts from when the
  server reads the request.
* **Idempotency** — successful responses to requests carrying an
  ``idem`` key are cached (bounded LRU) and replayed for duplicates,
  so a client retrying an ``admit``/``release`` whose response was
  lost never double-applies it.  Duplicates *within* one batch are
  resolved to the first occurrence's response, which executes once.
* **Fault injection** — a :class:`~repro.service.faults.FaultPlan`'s
  ``drop_conn`` faults close the client connection in place of writing
  response number ``at`` (the request *was* executed), deterministically
  exercising the retry + idempotency path end-to-end.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro import telemetry as _telemetry
from repro.telemetry import tracing as _tracing
from repro.service.faults import FaultPlan
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ProtocolError,
    Request,
    decode_line,
    encode_line,
    request_from_dict,
    response_to_dict,
)
from repro.service.sharding import ShardedAdmissionService


@dataclass
class _Pending:
    """One queued unit: a request, a parse error, a connection EOF, or
    a shutdown drain marker."""

    kind: str  # "req" | "eof" | "drain"
    writer: asyncio.StreamWriter | None
    request: Request | None = None
    request_id: Any = None
    error: str | None = None
    code: str | None = None
    retry_after: float | None = None
    #: Event-loop time the item entered the queue (deadline anchor).
    arrived: float = 0.0
    #: Resolved idempotency-cache hit (a complete response doc).
    cached: dict[str, Any] | None = field(default=None, repr=False)
    #: Batch index of an earlier in-batch item with the same idem key.
    dup_of: int | None = None
    #: Server-side tracing context (``{"id", "span", "parent"?}``);
    #: None when tracing is off.
    trace: dict[str, Any] | None = None
    #: Wall-clock arrival time (span start) when traced.
    t0: float = 0.0
    #: Set by the dispatcher once every item queued before this drain
    #: marker has been answered (graceful-shutdown barrier).
    done: "asyncio.Event | None" = None


class AdmissionServer:
    """One TCP listener in front of one service instance."""

    def __init__(
        self,
        service: ShardedAdmissionService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_max: int = 64,
        batch_window_s: float = 0.0,
        snapshot_dir: str | None = None,
        line_limit: int = 1 << 20,
        max_queue: int = 0,
        retry_after_s: float = 0.05,
        idem_cache: int = 4096,
        fault_plan: FaultPlan | None = None,
    ):
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        #: Maximum request-line length (StreamReader buffer limit).
        self.line_limit = line_limit
        self.service = service
        self.host = host
        self.port = port
        self.batch_max = batch_max
        self.batch_window_s = batch_window_s
        #: Clients may only snapshot to files inside this directory
        #: (basename of the requested path); None disables file
        #: snapshots over the wire — inline snapshots always work.
        self.snapshot_dir = snapshot_dir
        #: Queue depth that triggers load shedding (0 = unbounded).
        self.max_queue = max_queue
        #: ``retry_after`` hint attached to shed responses.
        self.retry_after_s = retry_after_s
        self.requests_served = 0
        self.batches_dispatched = 0
        self.requests_shed = 0
        self.idem_hits = 0
        self.conns_dropped = 0
        self._idem_cache_max = idem_cache
        #: idem key -> successful response doc (without the "id").
        self._idem: OrderedDict[str, dict[str, Any]] = OrderedDict()
        #: Response counters the drop_conn faults key on.
        self._responses_sent = 0
        self._drop_at = (
            {f.at for f in fault_plan.server_faults()} if fault_plan else set()
        )
        self._queue: asyncio.Queue = asyncio.Queue()
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        #: Writers of currently-connected clients (shutdown hangs up on
        #: whoever is left once the queue has drained).
        self._writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (resolving port 0) and start dispatching."""
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port, limit=self.line_limit
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def shutdown(self) -> None:
        """Graceful stop: refuse new connections, answer every request
        already queued (the in-flight batches drain through the service
        normally), then stop the dispatcher.  The FIFO queue makes the
        barrier exact: a drain marker enqueued after close trails every
        request the server ever accepted.  Clients that stay connected
        are hung up on *after* the drain — ``wait_closed`` would block
        on their live transports forever, so shutdown closes them
        itself once they have been answered."""
        if self._server is not None:
            # close() alone: stop accepting, but do not wait for the
            # still-connected clients wait_closed() would wait for.
            self._server.close()
        if self._dispatcher is not None and not self._dispatcher.done():
            drained = asyncio.Event()
            await self._queue.put(_Pending("drain", None, done=drained))
            await drained.wait()
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        await self.stop()

    # ------------------------------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line longer than the stream limit: framing is lost,
                    # so answer with an ordered error and close.
                    await self._queue.put(
                        _Pending(
                            "req",
                            writer,
                            error=(
                                "request line exceeds "
                                f"{self.line_limit} bytes"
                            ),
                            code=ERR_BAD_REQUEST,
                        )
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                item = _Pending("req", writer, arrived=loop.time())
                try:
                    doc = decode_line(line)
                    item.request_id = doc.get("id")
                    item.request = request_from_dict(doc)
                except ProtocolError as exc:
                    item.error = str(exc)
                    item.code = ERR_BAD_REQUEST
                except Exception as exc:  # defensive: never drop the line
                    item.error = f"malformed request: {exc}"
                    item.code = ERR_BAD_REQUEST
                tr = _tracing.TRACER
                if tr is not None and item.error is None:
                    # Adopt the client's trace id (mint one when absent)
                    # and rewrite the request so the sharded service sees
                    # this server span as the parent of its shard spans.
                    base = item.request.trace if item.request else None
                    tid = (base or {}).get("id") or tr.mint_trace()
                    item.trace = {
                        "id": tid,
                        "span": tr.mint_span(),
                        "parent": (base or {}).get("span"),
                    }
                    item.t0 = time.time()
                    item.request = dataclasses.replace(
                        item.request,
                        trace={"id": tid, "span": item.trace["span"]},
                    )
                if (
                    item.error is None
                    and self.max_queue > 0
                    and self._queue.qsize() >= self.max_queue
                ):
                    # Shed — but *through* the queue, so this connection's
                    # responses still come back in request order.
                    item.error = (
                        f"service overloaded (queue >= {self.max_queue})"
                    )
                    item.code = ERR_OVERLOADED
                    item.retry_after = self.retry_after_s
                    self.requests_shed += 1
                    _telemetry.add("service.server.sheds")
                await self._queue.put(item)
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass
        finally:
            # A half-closing client (write side shut, still reading) must
            # get every response it is owed.  The queue is FIFO and this
            # marker trails all of the connection's requests, so the
            # dispatcher closes the writer only after answering them.
            self._writers.discard(writer)
            await self._queue.put(_Pending("eof", writer))

    def _gate_snapshot_path(self, item: _Pending) -> None:
        """Confine client-requested snapshot files to ``snapshot_dir``.

        A network client must not gain an arbitrary-file-write
        primitive: without a configured directory, file snapshots are
        refused (inline snapshots still work); with one, only the
        basename of the requested path is honoured, inside the
        directory.
        """
        if (
            item.kind != "req"
            or item.error is not None
            or item.request is None
            or item.request.op != "snapshot"
            or item.request.path is None
        ):
            return
        if self.snapshot_dir is None:
            item.error = (
                "file snapshots are disabled on this server (no snapshot "
                "directory configured); omit 'path' for an inline snapshot"
            )
            item.code = ERR_BAD_REQUEST
            return
        import dataclasses
        from pathlib import Path

        basename = Path(item.request.path).name
        if not basename:
            item.error = (
                f"snapshot path {item.request.path!r} has no file name"
            )
            item.code = ERR_BAD_REQUEST
            return
        item.request = dataclasses.replace(
            item.request, path=str(Path(self.snapshot_dir) / basename)
        )

    def _resolve_idem(self, batch: list[_Pending]) -> None:
        """Resolve idempotency-key duplicates before the service runs.

        A key already in the cache short-circuits to the cached doc; a
        key repeated within this batch executes once — later copies
        mirror the first occurrence's response.
        """
        first_seen: dict[str, int] = {}
        for idx, item in enumerate(batch):
            if (
                item.kind != "req"
                or item.error is not None
                or item.request is None
                or not item.request.idem
            ):
                continue
            key = item.request.idem
            hit = self._idem.get(key)
            if hit is not None:
                self._idem.move_to_end(key)
                item.cached = dict(hit)
                self.idem_hits += 1
                _telemetry.add("service.server.idem_hits")
            elif key in first_seen:
                item.dup_of = first_seen[key]
                self.idem_hits += 1
                _telemetry.add("service.server.idem_hits")
            else:
                first_seen[key] = idx

    def _idem_store(self, key: str, doc: dict[str, Any]) -> None:
        if not doc.get("ok"):
            # Only *successful* responses are replayable: a shed or
            # shard-down error must not mask a later real retry.
            return
        stored = dict(doc)
        stored.pop("id", None)
        self._idem[key] = stored
        self._idem.move_to_end(key)
        while len(self._idem) > self._idem_cache_max:
            self._idem.popitem(last=False)

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            if self.batch_window_s > 0:
                await asyncio.sleep(self.batch_window_s)
            while len(batch) < self.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            now = loop.time()
            for item in batch:
                self._gate_snapshot_path(item)
                if (
                    item.kind == "req"
                    and item.error is None
                    and item.request is not None
                    and item.request.deadline_s is not None
                    and now - item.arrived > item.request.deadline_s
                ):
                    item.error = (
                        f"deadline of {item.request.deadline_s}s passed "
                        "while queued"
                    )
                    item.code = ERR_DEADLINE
                    _telemetry.add("service.server.deadline_sheds")
            self._resolve_idem(batch)
            requests = [
                item.request
                for item in batch
                if item.kind == "req"
                and item.error is None
                and item.cached is None
                and item.dup_of is None
            ]
            batch_error: str | None = None
            payloads: list = []
            if requests:
                try:
                    payloads = self.service.process_batch(requests)
                except Exception as exc:
                    # A failing batch must never kill the dispatcher —
                    # answer its requests with an error and keep serving
                    # every other connection.
                    batch_error = f"internal error: {exc}"
            self.batches_dispatched += 1
            self.requests_served += sum(
                1 for item in batch if item.kind == "req"
            )
            payload_iter = iter(payloads)
            #: batch index -> emitted response doc (dup_of resolution).
            docs: dict[int, dict[str, Any]] = {}
            writers = []
            closing = []
            drains: list[asyncio.Event] = []
            dropped: set[int] = set()  # id()s of writers killed this batch
            for idx, item in enumerate(batch):
                if item.kind == "drain":
                    if item.done is not None:
                        drains.append(item.done)
                    continue
                if item.kind == "eof":
                    closing.append(item.writer)
                    continue
                doc = self._build_response(item, idx, docs, payload_iter,
                                           batch_error)
                docs[idx] = doc
                if (
                    item.request is not None
                    and item.request.idem
                    and item.cached is None
                    and item.dup_of is None
                ):
                    self._idem_store(item.request.idem, doc)
                response_no = self._responses_sent
                self._responses_sent += 1
                if id(item.writer) in dropped:
                    # The connection died earlier in this batch; every
                    # later response to it is lost too, like a real drop.
                    continue
                if response_no in self._drop_at:
                    # Injected drop: the op executed, the reply is lost
                    # — exactly the failure idempotent retries exist for.
                    self._drop_at.discard(response_no)
                    self.conns_dropped += 1
                    _telemetry.add("service.server.dropped_conns")
                    dropped.add(id(item.writer))
                    closing.append(item.writer)
                    continue
                try:
                    item.writer.write(encode_line(doc))
                    writers.append(item.writer)
                except (ConnectionError, OSError):  # pragma: no cover
                    continue
            for writer in dict.fromkeys(writers):
                try:
                    await writer.drain()
                except (ConnectionError, OSError):  # pragma: no cover
                    continue
            for writer in dict.fromkeys(closing):
                try:
                    writer.close()
                    await writer.wait_closed()
                except (ConnectionError, OSError):  # pragma: no cover
                    continue
            # Only now — every response in (and before) this batch is
            # written — release graceful-shutdown waiters.
            for event in drains:
                event.set()

    def _build_response(
        self,
        item: _Pending,
        idx: int,
        docs: dict[int, dict[str, Any]],
        payload_iter,
        batch_error: str | None,
    ) -> dict[str, Any]:
        doc = self._response_doc(item, idx, docs, payload_iter, batch_error)
        tr = _tracing.TRACER
        if tr is not None and item.trace is not None:
            op = item.request.op if item.request is not None else "error"
            tags: dict[str, float] | None = None
            if not doc.get("ok", False):
                tags = {"error": 1.0}
            tr.record(
                name=f"server.{op}",
                trace=item.trace["id"],
                span=item.trace["span"],
                parent=item.trace.get("parent"),
                ts=item.t0,
                dur=time.time() - item.t0,
                tags=tags,
            )
            # Echo the server-side context (overwriting a stale one on
            # idem-cached docs) so clients correlate responses to traces.
            doc["trace"] = {"id": item.trace["id"], "span": item.trace["span"]}
        return doc

    def _response_doc(
        self,
        item: _Pending,
        idx: int,
        docs: dict[int, dict[str, Any]],
        payload_iter,
        batch_error: str | None,
    ) -> dict[str, Any]:
        if item.cached is not None:
            doc = dict(item.cached)
            doc["id"] = item.request_id
            return doc
        if item.dup_of is not None:
            doc = dict(docs[item.dup_of])
            doc["id"] = item.request_id
            return doc
        error, code, retry_after = item.error, item.code, item.retry_after
        if error is None and batch_error is not None:
            error, code = batch_error, ERR_INTERNAL
        if error is not None:
            return response_to_dict(
                item.request_id, ok=False, error=error, code=code,
                retry_after=retry_after,
            )
        payload = dict(next(payload_iter))
        error = payload.pop("error", None)
        code = payload.pop("code", None) if error is not None else None
        if item.request is not None and item.request.op == "stats":
            payload["server_requests"] = self.requests_served
            payload["server_batches"] = self.batches_dispatched
            payload["server_sheds"] = self.requests_shed
            payload["server_idem_hits"] = self.idem_hits
        elif item.request is not None and item.request.op == "health":
            payload["server"] = {
                "queue_depth": self._queue.qsize(),
                "max_queue": self.max_queue,
                "sheds": self.requests_shed,
                "idem_hits": self.idem_hits,
                "conns_dropped": self.conns_dropped,
            }
        return response_to_dict(
            item.request_id, payload, ok=error is None, error=error,
            code=code,
        )


def run_server(
    service: ShardedAdmissionService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    batch_max: int = 64,
    batch_window_s: float = 0.0,
    snapshot_dir: str | None = None,
    max_queue: int = 0,
    fault_plan: FaultPlan | None = None,
) -> None:
    """Blocking entry point (the ``repro.cli serve`` body).

    Prints one ``listening on HOST:PORT`` line once bound — scripts
    (and the CI smoke jobs) key on it — and serves until interrupted.
    SIGTERM / SIGINT (Ctrl-C) trigger a **graceful** shutdown: the
    listener closes, every already-queued request is answered, the
    worker drains its journal-ship link and writes clean-shutdown
    flight records for every live incarnation, and only then do the
    worker processes come down.
    """

    async def _amain() -> None:
        import signal

        server = AdmissionServer(
            service,
            host=host,
            port=port,
            batch_max=batch_max,
            batch_window_s=batch_window_s,
            snapshot_dir=snapshot_dir,
            max_queue=max_queue,
            fault_plan=fault_plan,
        )
        await server.start()
        print(f"listening on {server.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        interrupted = asyncio.Event()
        hooked: list[int] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, interrupted.set)
                hooked.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platform without loop signal support: KI path below
        serving = asyncio.ensure_future(server.serve_forever())
        stopper = asyncio.ensure_future(interrupted.wait())
        try:
            await asyncio.wait(
                {serving, stopper}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (serving, stopper):
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            await server.shutdown()
            for sig in hooked:
                loop.remove_signal_handler(sig)

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:  # pragma: no cover - no signal handler
        pass
    finally:
        # Graceful service teardown: the worker finishes queued ops, its
        # standby drains, every live incarnation leaves a final flight
        # record.
        service.shutdown()

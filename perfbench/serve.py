"""Launch ``repro.cli`` unchanged, optionally with span wrappers.

    python3 perfbench/serve.py [--spans DIR] serve SCENARIO --port 0 ...

Without ``--spans`` this is exactly ``python -m repro.cli``.  With it, the
server, service, admission and engine entry points are wrapped before
the CLI runs (see :mod:`spans`).  Shard workers are forked from this
process and so inherit the wrappers; each worker drops the spans it
inherited, records its own, and writes ``DIR/worker-<pid>.npz`` when its
loop ends.  The server process writes ``DIR/server-<pid>.npz`` at exit.
"""

from __future__ import annotations

import atexit
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _install_tracing(directory: Path) -> None:
    import spans
    from repro.service import sharding

    recorder = spans.SpanRecorder("server")
    spans.Installed(
        recorder, spans.SERVER + spans.ADMISSION + spans.ENGINE
    )
    worker = sharding._shard_worker

    def traced_worker(conn, *args, **kwargs):
        recorder.reset("worker")
        try:
            return worker(conn, *args, **kwargs)
        finally:
            recorder.dump(directory / f"worker-{os.getpid()}.npz")

    # _ProcessShard._spawn looks the worker body up here at fork time.
    sharding._shard_worker = traced_worker
    main_pid = os.getpid()

    def dump_server() -> None:
        if os.getpid() == main_pid:
            recorder.dump(directory / f"server-{main_pid}.npz")

    atexit.register(dump_server)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--spans"]:
        directory = Path(argv[1])
        directory.mkdir(parents=True, exist_ok=True)
        _install_tracing(directory)
        argv = argv[2:]
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

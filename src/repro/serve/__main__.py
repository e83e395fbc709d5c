"""CLI entry point: run the annotation server as a process.

Usage::

    PYTHONPATH=src python -m repro.serve --path notes.db \
        [--host 127.0.0.1] [--port 8765] [--readers 4] [--writers 1] \
        [--shards N] [--request-timeout 30] [--quiet]

Listens for JSON-lines requests (see :mod:`repro.serve.protocol`) until
SIGINT/SIGTERM, then drains in-flight requests, flushes the summary
writer, and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.serve.server import AnnotationServer, ServerConfig
from repro.serve.tcp import TcpAnnotationServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--path", default=":memory:",
                        help="SQLite database path (default in-memory)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765,
                        help="listening port (0 picks an ephemeral one)")
    parser.add_argument("--readers", type=int, default=4,
                        help="reader-lane worker threads")
    parser.add_argument("--writers", type=int, default=1,
                        help="writer-lane worker threads")
    parser.add_argument("--read-queue", type=int, default=32,
                        help="reader admission queue depth")
    parser.add_argument("--write-queue", type=int, default=16,
                        help="writer admission queue depth")
    parser.add_argument("--shards", type=int, default=1,
                        help="storage shard count (file-backed paths only)")
    parser.add_argument("--request-timeout", type=float, default=30.0,
                        help="per-request deadline in seconds")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        help="graceful-shutdown drain budget in seconds")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the startup/shutdown lines")
    return parser


async def run(args: argparse.Namespace) -> int:
    config = ServerConfig(
        readers=args.readers,
        writers=args.writers,
        read_queue_depth=args.read_queue,
        write_queue_depth=args.write_queue,
        request_timeout_s=args.request_timeout,
        drain_timeout_s=args.drain_timeout,
    )
    server = TcpAnnotationServer(
        AnnotationServer(config=config, path=args.path, shards=args.shards)
    )
    host, port = await server.start(args.host, args.port)
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    # Handlers first: a supervisor may signal as soon as it reads the banner.
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stopping.set)
    if not args.quiet:
        print(f"annotation server listening on {host}:{port} "
              f"(db={args.path!r}, readers={args.readers}, "
              f"writers={args.writers}, shards={args.shards})", flush=True)
    serve_task = asyncio.create_task(server.serve_forever())
    stop_task = asyncio.create_task(stopping.wait())
    try:
        await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
    finally:
        serve_task.cancel()
        stop_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve_task
        with contextlib.suppress(asyncio.CancelledError):
            await stop_task
        await server.stop()
        if not args.quiet:
            print("annotation server drained and stopped", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(run(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())

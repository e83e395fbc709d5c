"""The asyncio TCP front end: JSON lines over a socket.

:class:`TcpAnnotationServer` binds an :class:`AnnotationServer` to a
listening socket.  Each connection is one client session: the
connection task reads request lines and spawns one asyncio task per
request, so a client may pipeline — a slow analytical query does not
block the quick ping behind it; responses carry the request ``id`` for
correlation and are written atomically under a per-connection lock.

Backpressure composes across layers: the admission queues bound how
much *work* is in flight (excess requests get a 429-style error
payload, cheaply, without touching a worker thread), while the
transport bounds how many *request tasks* one connection may have
parked waiting for admission-level verdicts
(``MAX_PIPELINED_REQUESTS``; beyond it the reader loop stops consuming
and TCP flow control pushes back on the client).
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    encode_response,
    error_response,
    handle_request,
)
from repro.serve.server import AnnotationServer

#: How many in-flight request tasks one connection may hold before the
#: server stops reading further lines from it.
MAX_PIPELINED_REQUESTS = 64


class TcpAnnotationServer:
    """Serve an :class:`AnnotationServer` over a TCP socket.

    >>> server = TcpAnnotationServer(AnnotationServer(path="notes.db"))
    >>> # inside a coroutine:
    >>> #   await server.start("127.0.0.1", 8765)
    >>> #   await server.serve_forever()   # until stop() or cancellation
    """

    def __init__(self, server: AnnotationServer) -> None:
        self.server = server
        self._tcp: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task[None]] = set()

    @property
    def address(self) -> tuple[str, int] | None:
        """The bound ``(host, port)``, once started."""
        if self._tcp is None or not self._tcp.sockets:
            return None
        host, port = self._tcp.sockets[0].getsockname()[:2]
        return host, port

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and listen; returns the bound address (port 0 = ephemeral)."""
        await self.server.start()
        self._tcp = await asyncio.start_server(
            self._serve_connection, host, port, limit=MAX_LINE_BYTES
        )
        address = self.address
        assert address is not None
        return address

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI wires signals to cancel this)."""
        if self._tcp is None:
            raise RuntimeError("start() the server before serve_forever()")
        async with self._tcp:
            await self._tcp.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, close connections, drain the annotation server.

        The sessions end before the listener is awaited: since Python
        3.12.1 ``Server.wait_closed()`` also waits for every open
        connection, so an idle client would otherwise hold it forever.
        """
        if self._tcp is not None:
            self._tcp.close()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._tcp is not None:
            await self._tcp.wait_closed()
        await self.server.stop()

    # -- connection handling --------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task[None]] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                while len(pending) >= MAX_PIPELINED_REQUESTS:
                    _, pending = await asyncio.wait(
                        pending, return_when=asyncio.FIRST_COMPLETED
                    )
                request_task = asyncio.create_task(
                    self._serve_request(line, writer, write_lock)
                )
                pending.add(request_task)
                request_task.add_done_callback(pending.discard)
        except asyncio.CancelledError:
            # stop() cancelling this connection is a normal way for the
            # session to end; finishing cleanly (instead of staying
            # "cancelled") keeps asyncio's stream bookkeeping from logging
            # the cancellation as an unhandled error.
            pass
        finally:
            # The same holds for a cancel that lands while the session is
            # already closing: it cuts the wait short but does not escape.
            with contextlib.suppress(asyncio.CancelledError):
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()
            self._connections.discard(task)

    async def _serve_request(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Decode, dispatch, and answer one pipelined request."""
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            response: dict[str, Any] = error_response(
                _best_effort_id(line), exc
            )
        else:
            response = await handle_request(self.server, request)
        async with write_lock:
            writer.write(encode_response(response))
            with contextlib.suppress(ConnectionResetError):
                await writer.drain()


def _best_effort_id(line: bytes) -> Any:
    """Recover a request id from an undecodable line when possible."""
    import json

    try:
        decoded = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if isinstance(decoded, dict):
        return decoded.get("id")
    return None

"""TCP front end: JSON lines over a real socket, pipelining, teardown."""

from __future__ import annotations

import asyncio
import json

from repro.serve import AnnotationServer, ServerConfig, TcpAnnotationServer


def run(coroutine):
    return asyncio.run(coroutine)


async def started_tcp(**kwargs) -> TcpAnnotationServer:
    tcp = TcpAnnotationServer(AnnotationServer(**kwargs))
    await tcp.start("127.0.0.1", 0)
    return tcp


async def request(writer, reader, payload: dict) -> dict:
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


def test_roundtrip_over_socket():
    async def scenario():
        tcp = await started_tcp()
        try:
            host, port = tcp.address
            reader, writer = await asyncio.open_connection(host, port)
            assert (await request(writer, reader, {"op": "ping", "id": 0}))[
                "result"
            ]["pong"]
            created = await request(
                writer,
                reader,
                {"op": "execute", "statement": "CREATE TABLE t (a)", "id": 1},
            )
            assert created["ok"] is True
            inserted = await request(
                writer,
                reader,
                {"op": "insert", "table": "t", "rows": [[1], [2]], "id": 2},
            )
            assert inserted["result"]["row_ids"] == [1, 2]
            queried = await request(
                writer,
                reader,
                {"op": "query", "sql": "SELECT a FROM t", "id": 3},
            )
            assert [t["values"] for t in queried["result"]["tuples"]] == [
                [1],
                [2],
            ]
            writer.close()
        finally:
            await tcp.stop()

    run(scenario())


def test_pipelined_requests_correlate_by_id():
    async def scenario():
        tcp = await started_tcp()
        try:
            host, port = tcp.address
            reader, writer = await asyncio.open_connection(host, port)
            # Burst without awaiting responses: ids come back to match.
            writer.write(
                b'{"id": "a", "op": "execute", "statement": '
                b'"CREATE TABLE t (x)"}\n'
                b'{"id": "b", "op": "ping"}\n'
                b'{"id": "c", "op": "ping"}\n'
            )
            await writer.drain()
            responses = {}
            for _ in range(3):
                response = json.loads(await reader.readline())
                responses[response["id"]] = response
            assert set(responses) == {"a", "b", "c"}
            assert all(r["ok"] for r in responses.values())
            writer.close()
        finally:
            await tcp.stop()

    run(scenario())


def test_malformed_line_answers_400_and_connection_survives():
    async def scenario():
        tcp = await started_tcp()
        try:
            host, port = tcp.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            bad = json.loads(await reader.readline())
            assert bad["ok"] is False
            assert bad["error"]["code"] == 400
            # The connection is still usable afterwards.
            pong = await request(writer, reader, {"op": "ping", "id": 9})
            assert pong["result"]["pong"]
            writer.close()
        finally:
            await tcp.stop()

    run(scenario())


def test_overload_comes_back_as_429_payload():
    async def scenario():
        config = ServerConfig(
            readers=1, read_queue_depth=0, request_timeout_s=None
        )
        tcp = await started_tcp(config=config)
        try:
            host, port = tcp.address
            reader, writer = await asyncio.open_connection(host, port)
            await request(
                writer,
                reader,
                {"op": "execute", "statement": "CREATE TABLE t (a)", "id": 0},
            )
            # Pipeline more reads than the lane admits; with capacity 1
            # at least one must be refused with 429 and none may hang.
            burst = 6
            for i in range(burst):
                writer.write(
                    json.dumps(
                        {"op": "query", "sql": "SELECT a FROM t", "id": i}
                    ).encode()
                    + b"\n"
                )
            await writer.drain()
            responses = [
                json.loads(await reader.readline()) for _ in range(burst)
            ]
            codes = [
                r["error"]["code"] for r in responses if not r["ok"]
            ]
            assert all(code == 429 for code in codes)
            assert any(r["ok"] for r in responses)
            writer.close()
        finally:
            await tcp.stop()

    run(scenario())


def test_stop_closes_listener_and_drains_annotation_server(tmp_path):
    async def scenario():
        path = str(tmp_path / "served.db")
        tcp = await started_tcp(path=path)
        host, port = tcp.address
        reader, writer = await asyncio.open_connection(host, port)
        await request(
            writer,
            reader,
            {"op": "execute", "statement": "CREATE TABLE b (n)", "id": 0},
        )
        await request(
            writer, reader, {"op": "insert", "table": "b", "rows": [["x"]]}
        )
        await request(
            writer,
            reader,
            {
                "op": "add_annotations",
                "specs": [{"text": "note", "table": "b", "row_id": 1}],
            },
        )
        await tcp.stop()
        assert tcp.server.state == "stopped"
        # The listener is gone.
        try:
            await asyncio.open_connection(host, port)
        except OSError:
            pass
        else:  # pragma: no cover - would mean the socket leaked
            raise AssertionError("listener still accepting after stop()")
        # The ingested annotation was flushed and is durable.
        from repro import InsightNotes

        with InsightNotes(path) as reopened:
            assert reopened.annotations.count() == 1

    run(scenario())


def test_stop_returns_with_an_idle_client_connected():
    # Since Python 3.12.1 Server.wait_closed() also waits for the open
    # connections, so stop() must end the sessions before it waits.
    async def scenario():
        tcp = await started_tcp()
        host, port = tcp.address
        reader, writer = await asyncio.open_connection(host, port)
        assert (await request(writer, reader, {"op": "ping", "id": 0}))[
            "result"
        ]["pong"]
        sessions = set(tcp._connections)
        assert sessions
        await asyncio.wait_for(tcp.stop(), 5)
        # The sessions ended cleanly, not as cancelled tasks, and the
        # client sees the server close its side.
        assert all(task.done() and not task.cancelled() for task in sessions)
        assert await asyncio.wait_for(reader.read(), 5) == b""
        writer.close()

    run(scenario())


def test_cli_parser_defaults():
    from repro.serve.__main__ import build_parser

    args = build_parser().parse_args([])
    assert args.path == ":memory:"
    assert args.port == 8765
    assert args.readers == 4
    args = build_parser().parse_args(
        ["--path", "x.db", "--port", "0", "--shards", "4", "--quiet"]
    )
    assert args.shards == 4
    assert args.quiet is True

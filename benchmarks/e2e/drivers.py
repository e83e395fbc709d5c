"""Set-up and the two ways a script reaches the program.

:func:`build_database` creates one annotated database file through the
public session API.  :class:`InProcessDriver` calls an open session;
:class:`WireDriver` speaks JSON lines to ``python -m repro.serve``
(:class:`ServerProcess`) or to a server hosted in this process
(:class:`InProcessServer`, traced runs only, so the wrappers see it).
Both drivers are closed-loop: a caller sends its next op only after the
previous reply was read and decoded.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from repro import CellRef, InsightNotes
from repro.serve import AnnotationServer, ServerConfig, TcpAnnotationServer
from repro.workloads import AnnotationFactory
from repro.workloads.generator import CLASSBIRD1_MAPPING, CLASSBIRD2_MAPPING

from benchmarks.e2e.script import BIRD_COLUMNS, SIGHTING_COLUMNS, Script
from benchmarks.e2e.spec import (
    BULK_BATCH,
    CLASSBIRD1_LABELS,
    CLUSTER,
    READ_CLASSES,
    SERVE_READERS,
    SERVE_WRITERS,
    SNIPPET,
)

_CLASSBIRD2_LABELS = ("Provenance", "Comment", "Question", "Other")


def native_specs(specs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Script specs with ``cells`` triples turned into ``CellRef`` objects."""
    return [
        {**spec, "cells": [CellRef(*cell) for cell in spec["cells"]]}
        if "cells" in spec else spec
        for spec in specs
    ]


def build_database(path: str, script: Script, shards: int = 1) -> float:
    """One full set-up into a fresh file; returns the bulk load's annotations/s.

    Default ``InsightNotes`` knobs (only ``shards`` for the shard probe):
    file-backed WAL, ``synchronous=NORMAL``, write-through summaries.
    """
    bulk = native_specs(script.bulk)
    training = AnnotationFactory(seed=script.seed).training_set(12)
    with InsightNotes(path, shards=shards) as session:
        session.create_table("birds", BIRD_COLUMNS)
        session.insert_many("birds", script.birds)
        session.create_table("sightings", SIGHTING_COLUMNS)
        session.insert_many("sightings", script.sightings)
        session.define_classifier(
            "ClassBird1", CLASSBIRD1_LABELS,
            [(text, CLASSBIRD1_MAPPING[category]) for text, category in training],
        )
        session.define_classifier(
            "ClassBird2", _CLASSBIRD2_LABELS,
            [(text, CLASSBIRD2_MAPPING[category]) for text, category in training],
        )
        session.define_cluster(CLUSTER, threshold=0.35)
        session.define_snippet(SNIPPET, max_sentences=2)
        for instance in ("ClassBird1", "ClassBird2", CLUSTER, SNIPPET):
            session.link(instance, "birds")
            session.link(instance, "sightings")
        load_seconds = 0.0
        for offset in range(0, len(bulk), BULK_BATCH):
            started = time.perf_counter()
            session.add_annotations(bulk[offset : offset + BULK_BATCH])
            load_seconds += time.perf_counter() - started
        session.analyze()
    return len(bulk) / load_seconds


class InProcessDriver:
    """Runs ops on an open session from the calling thread."""

    def __init__(self, session: InsightNotes, script: Script) -> None:
        self.session = session
        self._qids: dict[int, int] = {}
        self._specs = {
            op["i"]: native_specs(op["specs"])
            for op in script.ops if op["op"] == "ingest_batch"
        }

    def run(self, op: dict[str, Any]) -> Any:
        """Execute one op; raises if the program refuses it."""
        cls = op["op"]
        if cls in READ_CLASSES:
            result = self.session.query(op["sql"])
            self._qids[op["i"]] = result.qid
            return result
        if cls == "zoomin":
            return self.session.zoomin(op["command"].format(qid=self._qids[op["ref"]]))
        return self.session.add_annotations(self._specs[op["i"]])

    @staticmethod
    def acknowledged(output: Any) -> list[int]:
        """Annotation ids an ``ingest_batch`` output acknowledged."""
        return [annotation.annotation_id for annotation in output]


class OpRefused(RuntimeError):
    """The server answered ``ok: false`` (400/408/429/500/503)."""


class WireDriver:
    """One JSON-lines connection; a request id doubles as the op id."""

    def __init__(self, address: tuple[str, int]) -> None:
        self._sock = socket.create_connection(address, timeout=60)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._qids: dict[int, int] = {}
        #: Set by the player before each op; server-side spans name their op by it.
        self.request_id = 0

    def call(self, request: dict[str, Any]) -> dict[str, Any]:
        request["id"] = self.request_id
        self._sock.sendall(json.dumps(request, separators=(",", ":")).encode() + b"\n")
        response = json.loads(self._reader.readline())
        if not response.get("ok"):
            raise OpRefused(json.dumps(response.get("error")))
        return response["result"]

    def run(self, op: dict[str, Any]) -> Any:
        cls = op["op"]
        if cls in READ_CLASSES:
            result = self.call({"op": "query", "sql": op["sql"]})
            self._qids[op["i"]] = result["qid"]
            return result
        if cls == "zoomin":
            command = op["command"].format(qid=self._qids[op["ref"]])
            return self.call({"op": "zoomin", "command": command})
        return self.call({"op": "add_annotations", "specs": op["specs"]})

    @staticmethod
    def acknowledged(output: Any) -> list[int]:
        return list(output["annotation_ids"])

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


class ServerProcess:
    """``python -m repro.serve`` on an ephemeral port, as a child process."""

    def __init__(self, db_path: str) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--path", db_path, "--port", "0",
             "--readers", str(SERVE_READERS), "--writers", str(SERVE_WRITERS)],
            stdout=subprocess.PIPE, text=True,  # inherits PYTHONPATH and PYTHONHASHSEED
        )
        assert self._proc.stdout is not None
        banner = self._proc.stdout.readline()
        try:  # "annotation server listening on 127.0.0.1:PORT (db=...)"
            host, port = banner.split(" on ", 1)[1].split(" ", 1)[0].rsplit(":", 1)
            self.address = (host, int(port))
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}") from None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self._proc.pid)

    def stop(self) -> None:
        """SIGTERM drains, flushes and closes the session; wait for exit."""
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
            try:
                self._proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()


class InProcessServer:
    """The same server on a background event loop of this process."""

    def __init__(self, db_path: str) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self.server = AnnotationServer(
            config=ServerConfig(readers=SERVE_READERS, writers=SERVE_WRITERS),
            path=db_path,
        )
        self._tcp = TcpAnnotationServer(self.server)
        self.address = self._submit(self._tcp.start("127.0.0.1", 0))

    def _submit(self, coroutine: Any) -> Any:
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout=120)

    def statistics(self) -> dict[str, Any]:
        return self._submit(self.server.statistics())

    def stop(self) -> None:
        self._submit(self._tcp.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def directory_bytes(directory: Path) -> int:
    """Total size of every file (database, WAL, shm, shard) under ``directory``."""
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())

"""``python -m repro.serve`` as a process: the banner reaches a pipe at once.

A supervisor that starts the server learns its port from the first stdout
line.  With stdout on a pipe and ``PYTHONUNBUFFERED`` unset, Python
block-buffers stdout, so a banner printed without a flush stays in the
buffer until exit and the supervisor waits forever.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _readline(stream, timeout: float) -> str | None:
    """One line from ``stream``, or None when none arrives in ``timeout`` s."""
    lines: list[str] = []
    reader = threading.Thread(
        target=lambda: lines.append(stream.readline()), daemon=True
    )
    reader.start()
    reader.join(timeout)
    return lines[0] if lines else None


def test_banner_reaches_a_pipe_without_unbuffered_env():
    env = {
        key: value
        for key, value in os.environ.items()
        if key != "PYTHONUNBUFFERED"
    }
    env["PYTHONPATH"] = str(SRC)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        banner = _readline(server.stdout, timeout=20)
        assert banner is not None, "no banner within 20 s"
        assert re.match(r"annotation server listening on 127\.0\.0\.1:\d+ ", banner)
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=20) == 0
        assert "drained and stopped" in server.stdout.read()
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()

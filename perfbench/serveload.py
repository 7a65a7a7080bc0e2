"""``repro-serve`` under an open-loop generator.

:class:`ServerProcess` starts ``repro-serve`` in its own process group with
pinned flags, waits for the first ``pong`` and shuts it down through the
``drain`` op (exit code 0, no surviving process in its group).

:func:`open_loop` is the load generator: one asyncio connection with
pipelined request ids, sending each request at its scheduled time whether
or not earlier ones were answered.  A request's latency runs from its
scheduled send time to its ``result`` frame, so a stall counts against
every request queued behind it; the generator's own lateness is reported
as ``gen.lag_ms``.  The ``runtime_s`` field of a result frame is the
deciding engine's own runtime and is never used as a latency.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from common import ROOT, BenchmarkFailure, Unit, child_env

#: pinned server flags, recorded in every result
SERVER_FLAGS = (
    "--workers", "4:4",
    "--max-queue", "512",
    "--certify",
    "--default-deadline", "120",
)

#: per-request deadline sent with every verify request
REQUEST_DEADLINE_S = 120.0


class ServerProcess:
    """One ``repro-serve`` child listening on a unix socket."""

    def __init__(self, socket_path: str, cache_dir: str, log_path: str) -> None:
        # relative to the checkout root, the working directory of the
        # server and of the benchmark: keeps it under the unix-socket limit
        self.socket_path = os.path.relpath(socket_path, ROOT)
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.spawned_at = 0.0

    def start(self) -> None:
        command = [
            sys.executable, "-m", "repro.tools.serve_cli",
            "--socket", self.socket_path,
            "--cache-dir", self.cache_dir,
            *SERVER_FLAGS,
        ]
        self.spawned_at = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command,
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    def _exchange(self, request: dict, timeout: float = 5.0) -> dict:
        from repro.serve.protocol import read_frame_blocking, write_frame_blocking

        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(timeout)
            conn.connect(self.socket_path)
            stream = conn.makefile("rwb")
            try:
                read_frame_blocking(stream)  # hello
                write_frame_blocking(stream, request)
                reply = read_frame_blocking(stream)
            finally:
                stream.close()
        return reply or {}

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until the first ``pong``; returns seconds since spawn."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise BenchmarkFailure(
                    f"repro-serve exited with {self.process.returncode} before "
                    f"answering a ping (log: {self.log_path})"
                )
            try:
                if self._exchange({"op": "ping"}, timeout=1.0).get("op") == "pong":
                    return time.perf_counter() - self.spawned_at
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchmarkFailure("repro-serve did not answer a ping in time")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (Linux ``VmHWM``)."""
        try:
            with open(f"/proc/{self.process.pid}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def drain(self, timeout: float = 60.0) -> None:
        """Shut down through the ``drain`` op; fail on a bad exit or a leak."""
        try:
            reply = self._exchange({"op": "drain"})
            if reply.get("op") != "draining":
                raise BenchmarkFailure(f"drain refused: {reply}")
            code = self.process.wait(timeout=timeout)
            if code != 0:
                raise BenchmarkFailure(f"repro-serve exited with {code} after drain")
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                return
            raise BenchmarkFailure("repro-serve left processes in its group")
        finally:
            self.kill()

    def kill(self) -> None:
        """Last resort: kill the whole process group and reap the leader."""
        if self.process is None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass


@dataclass
class Request:
    """One generated request and its client-side timestamps."""

    rid: str
    unit: Unit
    miss: bool
    offset: float
    due: float = 0.0
    sent: float = 0.0
    accepted: Optional[float] = None
    answered: Optional[float] = None
    reply: Optional[dict] = None
    rejected: Optional[dict] = None


@dataclass
class PhaseResult:
    rate: float
    requests: List[Request]
    started: float = 0.0
    lag_s: List[float] = field(default_factory=list)
    backlog_max: int = 0
    backlog_at_end: int = 0
    status_before: Dict[str, int] = field(default_factory=dict)
    status_after: Dict[str, int] = field(default_factory=dict)


class _Connection:
    """The generator's single connection: frames dispatched by request id."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.requests: Dict[str, Request] = {}
        self.outstanding = 0
        self.backlog_max = 0
        self.changed = asyncio.Event()
        self.status_replies: "asyncio.Queue[dict]" = asyncio.Queue()

    async def pump(self) -> None:
        from repro.serve.protocol import read_frame

        while True:
            frame = await read_frame(self.reader)
            if frame is None:
                return
            now = time.perf_counter()
            op = frame.get("op")
            request = self.requests.get(str(frame.get("id")))
            if op == "status":
                await self.status_replies.put(frame.get("status") or {})
            elif request is None:
                continue
            elif op == "accepted":
                request.accepted = now
            elif op == "rejected":
                request.rejected = frame
                self.outstanding -= 1
                self.changed.set()
            elif op == "result":
                request.answered = now
                request.reply = frame
                self.outstanding -= 1
                self.changed.set()

    async def send(self, document: dict) -> None:
        from repro.serve.protocol import encode_frame

        self.writer.write(encode_frame(document))
        await self.writer.drain()

    async def status(self) -> Dict[str, int]:
        await self.send({"op": "status"})
        doc = await asyncio.wait_for(self.status_replies.get(), timeout=30)
        return dict(doc.get("counters") or {})


async def _run_phase(conn: _Connection, rate: float, requests: List[Request],
                     settle_s: float) -> PhaseResult:
    phase = PhaseResult(rate, requests)
    phase.status_before = await conn.status()
    conn.backlog_max = conn.outstanding
    start = phase.started = time.perf_counter()
    for request in requests:
        request.due = start + request.offset
        delay = request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        request.sent = time.perf_counter()
        phase.lag_s.append(request.sent - request.due)
        conn.requests[request.rid] = request
        conn.outstanding += 1
        conn.backlog_max = max(conn.backlog_max, conn.outstanding)
        document = {
            "op": "verify",
            "id": request.rid,
            "deadline_s": REQUEST_DEADLINE_S,
            **request.unit.request(),
        }
        await conn.send(document)
    phase.backlog_at_end = conn.outstanding
    deadline = time.perf_counter() + settle_s
    while conn.outstanding > 0:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        conn.changed.clear()
        try:
            await asyncio.wait_for(conn.changed.wait(), timeout=remaining)
        except asyncio.TimeoutError:
            break
    phase.backlog_max = conn.backlog_max
    phase.status_after = await conn.status()
    return phase


async def _open_loop(socket_path: str, phases, settle_s: float) -> List[PhaseResult]:
    from repro.serve.protocol import read_frame

    reader, writer = await asyncio.open_unix_connection(socket_path)
    conn = _Connection(reader, writer)
    hello = await read_frame(reader)
    if not isinstance(hello, dict) or hello.get("op") != "hello":
        raise BenchmarkFailure(f"unexpected greeting from repro-serve: {hello}")
    pump = asyncio.create_task(conn.pump())
    try:
        results = []
        for rate, requests in phases:
            results.append(await _run_phase(conn, rate, requests, settle_s))
        return results
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        pump.cancel()
        try:
            await pump
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass


def open_loop(server: ServerProcess, phases, settle_s: float) -> List[PhaseResult]:
    """Run each ``(rate, requests)`` phase in turn on one connection."""
    return asyncio.run(_open_loop(server.socket_path, phases, settle_s))

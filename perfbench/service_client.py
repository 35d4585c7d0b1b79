"""Client side of the service workload: one sequential photo uploader.

The client is a stock photo-upload client as the paper's §4.1 describes
it (``repro.web.upload``): each photo goes in its own HTTP POST, one
file at a time, the next sent only once the previous one is answered —
a closed loop of one. Bodies and deadlines are drawn the way the
program's own load generator draws them
(``repro.service.loadgen.build_load_plan``): photo-sized bodies,
lognormal around 16 KiB with sigma 0.75, each with a propagated
deadline drawn uniformly from 5-20 s. They are drawn here, from the
benchmark's seed, rather than by calling the program, so a change to
the program cannot change the inputs.

Each upload is paired with the host-speed spin (``hostspeed.py``),
timed just before it in the same thread.

The client speaks HTTP/1.1 with its own few lines of socket code rather
than the program's wire module, so a change to the program's parsing
moves only the server side of the measurement.
"""

from __future__ import annotations

import json
import math
import random
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import spin

#: Upload bodies: lognormal with this mean (bytes) and sigma.
UPLOAD_MEAN_BYTES = 16 * 1024
UPLOAD_SIGMA = 0.75
#: Per-flow deadlines the client propagates (seconds).
DEADLINE_S = (5.0, 20.0)
DEADLINE_HEADER = "x-3gol-deadline-s"
#: The upload that proves a freshly started host serves.
SETUP_PATH = "/bench/setup.jpg"
SETUP_BYTES = 1024

_HOST = Path(__file__).resolve().parent / "service_host.py"


def plan_upload(seed: int, index: int) -> Tuple[int, float]:
    """Upload ``index`` of run ``seed``: (body bytes, deadline seconds)."""
    rng = random.Random(seed * 1_000_003 + index)
    mu = math.log(UPLOAD_MEAN_BYTES) - UPLOAD_SIGMA**2 / 2.0
    size = max(1, int(rng.lognormvariate(mu, UPLOAD_SIGMA)))
    return size, rng.uniform(*DEADLINE_S)


def http_upload(
    address: Tuple[str, int], path: str, body_bytes: int, deadline_s: float
) -> Tuple[int, bytes]:
    """One upload on a fresh connection; returns (status, body)."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: origin\r\n"
        f"{DEADLINE_HEADER}: {deadline_s:.3f}\r\n"
        f"Content-Length: {body_bytes}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection(address, timeout=deadline_s) as sock:
        sock.sendall(head + b"u" * body_bytes)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                raise OSError("connection closed inside the response head")
            data += chunk
        raw_head, _, rest = data.partition(b"\r\n\r\n")
        lines = raw_head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        chunks = [rest]
        received = len(rest)
        while received < length:
            chunk = sock.recv(max(65536, length - received))
            if not chunk:
                raise OSError("connection closed inside the response body")
            chunks.append(chunk)
            received += len(chunk)
        return status, b"".join(chunks)


class Host:
    """The service host process and its line protocol."""

    def __init__(self, src: Path, seed: int, traced: bool) -> None:
        args = [str(_HOST), str(src), str(seed), "1" if traced else "0"]
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.service = tuple(self._reply()["service"])

    def _reply(self) -> Dict[str, Any]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(
                f"service host exited with code {self.proc.returncode}"
            )
        reply: Dict[str, Any] = json.loads(line)
        return reply

    def command(self, name: str) -> Dict[str, Any]:
        """Send one command line; returns the host's JSON reply."""
        assert self.proc.stdin is not None
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> Dict[str, Any]:
        """Drain and stop the host; returns its final report."""
        try:
            report = self.command("stop")
        finally:
            self.close()
        return report

    def close(self) -> None:
        """Make sure the host process has ended."""
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def start_host(src: Path, seed: int, traced: bool) -> Host:
    """Start a host and prove it serves: one upload through the service."""
    host = Host(src, seed, traced)
    try:
        status, body = http_upload(
            host.service, SETUP_PATH, SETUP_BYTES, DEADLINE_S[0]
        )
        if status != 200 or body != b"stored":
            raise RuntimeError(f"first request through the service: {status}")
    except BaseException:
        host.proc.kill()
        host.close()
        raise
    return host


class Uploader:
    """Uploads one photo after another until the window closes."""

    def __init__(self, host: Host, seed: int) -> None:
        self.host = host
        self.seed = seed
        #: (end, latency) of every correct upload and (end, seconds) of
        #: the spin paired with it; ``end`` in seconds since the window
        #: opened.
        self.completed: List[Tuple[float, float]] = []
        self.spins: List[Tuple[float, float]] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.upload_bytes = 0

    def run(self, seconds: float) -> float:
        """Upload for ``seconds``; returns the window's length."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            index = self.attempted
            size, deadline = plan_upload(self.seed, index)
            self.attempted += 1
            self.upload_bytes += size
            paired = spin()
            started = time.perf_counter()
            problem: Optional[str] = None
            try:
                status, body = http_upload(
                    self.host.service,
                    f"/load/{self.seed}/{index}.jpg",
                    size,
                    deadline,
                )
            except OSError as exc:
                problem = f"upload {index} failed: {exc!r}"
            else:
                if status != 200 or body != b"stored":
                    problem = f"upload {index}: status {status}, {body[:40]!r}"
            finished = time.perf_counter()
            if problem is None:
                self.completed.append((finished - start, finished - started))
                self.spins.append((finished - start, paired))
            else:
                self.failed += 1
                self.problems.append(problem)
        return time.perf_counter() - start

    def check_report(self, report: Dict[str, Any]) -> List[str]:
        """Problems in the host's final report, given what was sent."""
        problems: List[str] = []
        flows = self.attempted + 1  # plus the set-up request
        if report["flows"] != flows:
            problems.append(f"service saw {report['flows']} of {flows} flows")
        if report["outcomes"] != {"completed": flows}:
            problems.append(f"flow outcomes {report['outcomes']}")
        if report["stranded"] != 0:
            problems.append(f"{report['stranded']} stranded flows")
        if not report["drain_met_deadline"]:
            problems.append("drain missed its deadline")
        if report["uploads"] != flows:
            problems.append(
                f"origin stored {report['uploads']} of {flows} uploads"
            )
        if report["upload_bytes"] != self.upload_bytes + SETUP_BYTES:
            problems.append("origin stored the wrong number of upload bytes")
        return problems

"""Open-loop HTTP load from one process, timed from each request's due time.

A schedule is a list of ``(due, path)`` pairs (seconds from the start of
the run).  Up to ``connections`` worker threads take requests in due
order; each waits until its request is due, opens a TCP connection,
sends it and reads the response to the end.  A request whose worker was
still busy when it fell due is sent late, and that wait counts in its
latency, so a stall in the server shows in every request queued behind
it.  The generator's own lateness -- how long after a request was due
*and* a worker was free it actually went out -- is recorded apart.

``repro.loadgen`` is not used for timing: its ``_run_plan`` starts each
request's clock after the scheduled sleep, so time a request spent
waiting for its turn is left out of its latency.
"""

from __future__ import annotations

import gc
import socket
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple

from common import now

#: Per-request socket timeout; a request that takes longer fails.
REQUEST_TIMEOUT_S = 30.0
#: Interpreter switch interval while the generator's threads run.
GENERATOR_SWITCH_INTERVAL_S = 0.0005


class Outcome:
    __slots__ = (
        "index", "path", "due", "picked", "sent", "connected", "done",
        "status", "headers", "body", "error",
    )

    def __init__(self, index: int, path: str, due: float) -> None:
        self.index = index
        self.path = path
        self.due = due
        self.picked = self.sent = self.connected = self.done = 0.0
        self.status = 0
        self.headers: dict = {}
        self.body = b""
        self.error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its last byte."""
        return self.done - self.due

    @property
    def service_time(self) -> float:
        """Seconds from sending the request to its last byte."""
        return self.done - self.sent

    @property
    def late(self) -> float:
        """How late the generator itself sent the request."""
        return self.sent - max(self.due, self.picked)

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200


def _parse(raw: bytes, outcome: Outcome) -> None:
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ValueError("response has no header terminator")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ValueError(f"bad status line {lines[0]!r}")
    outcome.status = int(parts[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    if length is not None and int(length) != len(body):
        raise ValueError(f"body is {len(body)} bytes, header says {length}")
    outcome.headers = headers
    outcome.body = body


def fetch(port: int, path: str, outcome: Outcome) -> None:
    """One ``Connection: close`` GET, filling in ``outcome``."""
    request = (
        f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii")
    outcome.sent = now()
    try:
        with socket.create_connection(
            ("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S
        ) as sock:
            outcome.connected = now()
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        outcome.done = now()
        _parse(b"".join(chunks), outcome)
    except (OSError, ValueError) as exc:
        outcome.done = outcome.done or now()
        outcome.error = f"{type(exc).__name__}: {exc}"


def get(port: int, path: str) -> Outcome:
    """A single request sent now (set-up, warm-up and scrapes)."""
    outcome = Outcome(-1, path, now())
    outcome.picked = outcome.due
    fetch(port, path, outcome)
    return outcome


def run_schedule(
    port: int, schedule: Sequence[Tuple[float, str]], connections: int
) -> List[Outcome]:
    """Send ``schedule`` open-loop; returns the outcomes in due order."""
    count = len(schedule)
    outcomes = [None] * count
    lock = threading.Lock()
    cursor = [0]
    bodies = {}
    start = now() + 0.05

    def worker() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= count:
                    return
                cursor[0] += 1
            due_offset, path = schedule[index]
            outcome = Outcome(index, path, start + due_offset)
            outcome.picked = now()
            wait = outcome.due - outcome.picked
            if wait > 0:
                _sleep_until(outcome.due)
            fetch(port, path, outcome)
            # Repeated bodies share one bytes object, so memory stays
            # flat however many hot-head answers a run collects.
            seen = bodies.setdefault(path, outcome.body)
            if seen == outcome.body:
                outcome.body = seen
            outcomes[index] = outcome

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{n}", daemon=True)
        for n in range(max(1, connections))
    ]
    # A thread waking to send must not wait a whole default switch
    # interval (5 ms) for another one parsing a response, nor for a
    # garbage collection pass over the outcomes gathered so far.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(GENERATOR_SWITCH_INTERVAL_S)
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
        sys.setswitchinterval(interval)
    return outcomes


def _sleep_until(deadline: float) -> None:
    remaining = deadline - now()
    while remaining > 0:
        time.sleep(remaining)
        remaining = deadline - now()

"""Shared plumbing: checkout paths, child processes, statistics, results.

Everything the benchmark writes goes under ``WORK`` inside the checkout.
Child processes run with ``src`` on ``PYTHONPATH``; nothing is installed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Longest any single child process may run before it is killed.
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here (missing source, failed child)."""


def require_source() -> None:
    """Refuse to run outside a checkout that holds the program's source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}/repro; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def baseline_spec(scale: float):
    """The calibrated baseline scenario at ``scale``, without PKI.

    Archives, servers and every output check use this world; it has the
    same population as the PKI world a bundle builds.
    """
    from repro.scenario import ScenarioSpec

    return ScenarioSpec.resolve("baseline").with_config(scale=scale, with_pki=False)


def now() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fresh_dir(*parts: str) -> Path:
    """An empty directory under ``WORK``."""
    path = WORK.joinpath(*parts)
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Child:
    """One child process whose exit is reaped with ``wait4``.

    ``wait4`` hands back the child's own resource usage, so the peak RSS
    is measured from outside the program (its own reports read 0).
    """

    def __init__(self, argv: Sequence[str], stdout=None, log: Optional[Path] = None):
        self.argv = list(argv)
        self.log = log
        self.started = now()
        self._log_handle = open(log, "wb") if log is not None else None
        self.proc = subprocess.Popen(
            self.argv,
            cwd=str(ROOT),
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=stdout if stdout is not None else (
                self._log_handle or subprocess.DEVNULL
            ),
            stderr=self._log_handle or subprocess.DEVNULL,
        )
        self.returncode: Optional[int] = None
        self.peak_rss_mb: Optional[float] = None

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> int:
        """Reap the child (killing it after ``timeout``); returns its code."""
        deadline = now() + timeout
        delay = 0.002
        try:
            while self.returncode is None:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid == self.proc.pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
                    self.proc.returncode = self.returncode
                    # ru_maxrss is KiB on Linux.
                    self.peak_rss_mb = usage.ru_maxrss / 1024.0
                    break
                if now() > deadline:
                    self.proc.kill()
                    deadline = now() + 10.0
                time.sleep(delay)
                delay = min(delay * 2, 0.05)
        except BaseException:
            # Interrupted ourselves: leave no child behind.
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._log_handle is not None:
            self._log_handle.close()
        return self.returncode

    def terminate(self) -> int:
        if self.returncode is None:
            try:
                self.proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
        return self.wait(timeout=30.0)

    def check(self, what: str) -> None:
        if self.returncode != 0:
            tail = ""
            if self.log is not None and self.log.exists():
                tail = self.log.read_text(errors="replace")[-2000:]
            raise BenchError(f"{what} exited {self.returncode}\n{tail}")


def run_child(
    script_args: Sequence[str], log: Path, what: str
) -> Child:
    """Run ``perfbench/child.py`` with arguments to completion."""
    child = Child([sys.executable, str(HERE / "child.py"), *script_args], log=log)
    child.wait()
    child.check(what)
    return child


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)


def seeded(seed: int, *labels: object) -> random.Random:
    """A private RNG per (seed, purpose); str seeds hash deterministically."""
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no values")
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def log(message: str) -> None:
    """Human-readable progress on stderr; stdout's last line is the result."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


def host_info() -> Dict[str, object]:
    return {"cores": os.cpu_count(), "python": sys.version.split()[0]}


def repeat_for(seconds: float):
    """Yield round numbers, at least one, until ``seconds`` have passed."""
    started = now()
    index = 0
    while index == 0 or now() - started < seconds:
        yield index
        index += 1


def tidy(paths: List[Path]) -> None:
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)

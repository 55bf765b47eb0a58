"""Process management and bookkeeping shared by the workloads."""

from __future__ import annotations

import contextlib
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"

#: Seconds a server gets to print its banner (recovery included).
START_TIMEOUT = 120.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A fixed string-hash seed keeps dict layouts, and so the speed of
    # dict-heavy code, the same from one server process to the next.
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_FAULT_PLAN", None)
    env["REPRO_COMMIT"] = "perfbench"
    return env


def dir_mb(path: Path) -> float:
    total = 0
    for p in path.rglob("*"):
        if p.is_file():
            total += p.stat().st_size
    return total / 1e6


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Tally:
    """Operations attempted and failed; the first failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


class OneCpuAtATime:
    """Keeps this process's main thread and its latest server, if any,
    on one CPU, and moves both to the next allowed CPU every
    :data:`PERIOD` seconds, from a thread of its own.

    With one closed-loop client only one side works at a time, so one
    CPU suffices; on it each request/response hand-off is a local context
    switch rather than a wake-up of another virtual CPU, whose cost moves
    with the host's load and made whole runs 20-30% faster or slower.
    Each virtual CPU also has slow spells of its own that last seconds
    (a fixed loop's time per 2.6 s window correlated only 0.15 between
    the two CPUs), so staying on one CPU for a whole run ties the run to
    that CPU's spells; moving between them every fraction of a second
    nearly halved the spread of 2.6 s window means (IQR ÷ median 0.053
    against 0.089 and 0.101 on each CPU alone).
    """

    PERIOD = 0.2

    def __init__(self) -> None:
        #: The server process to move along; ``Server.start`` sets it
        #: right after the spawn, so recovery is moved too.
        self.pid: Optional[int] = None

    def _tids(self) -> List[int]:
        pid = self.pid
        if pid is None:
            return []
        try:
            return [int(t) for t in os.listdir(f"/proc/{pid}/task")]
        except OSError:
            return []

    @contextlib.contextmanager
    def held(self):
        if not hasattr(os, "sched_setaffinity"):
            yield
            return
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        main = threading.get_native_id()
        stop = threading.Event()

        def mover() -> None:
            turn = 0
            while True:
                cpu = {cpus[turn % len(cpus)]}
                turn += 1
                for tid in [main] + self._tids():
                    with contextlib.suppress(OSError):
                        os.sched_setaffinity(tid, cpu)
                if stop.wait(self.PERIOD):
                    return

        thread = threading.Thread(target=mover, name="perfbench-cpu", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            self.pid = None
            os.sched_setaffinity(0, allowed)


CPU = OneCpuAtATime()


@dataclass
class Server:
    """One ``repro serve`` process on a state dir (traced or not)."""

    proc: subprocess.Popen
    url: str
    log: Path

    @classmethod
    def start(cls, state_dir: Path, flags: Sequence[str], log: Path,
              spans: Optional[Path] = None) -> "Server":
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--state-dir", str(state_dir), *flags]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(TRACED), str(spans), *args]
        err = open(log, "ab")
        try:
            proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
        finally:
            err.close()
        CPU.pid = proc.pid
        server = cls(proc, "", log)
        try:
            server.url = server._banner()
        except BaseException:
            server.kill()
            raise
        return server

    def _banner(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                if line.startswith("serving on "):
                    return line.split("serving on ", 1)[1].strip()
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(
            f"server did not start (exit {self.proc.poll()}); see {self.log}")

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self, client) -> None:
        """Graceful shutdown over HTTP; killed if it lingers."""
        try:
            client.shutdown()
            self.proc.communicate(timeout=60)
        except Exception:
            self.kill()
            raise

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate(timeout=30)


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class RunResult:
    """What one run of one workload measured."""

    workload: str
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    rounds: int = 0
    metrics: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


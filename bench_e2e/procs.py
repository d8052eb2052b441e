"""Process plumbing: CPU pinning, peak memory, the ``repro-serve`` child."""

from __future__ import annotations

import os
import resource
import select
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = [
    "REPO_ROOT",
    "ServerProcess",
    "cpu_seconds_of",
    "pin_generator",
    "self_peak_rss_mb",
]

REPO_ROOT = Path(__file__).resolve().parent.parent

_STARTUP_TIMEOUT_S = 30.0
_STOP_TIMEOUT_S = 10.0


def _cpus() -> List[int]:
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def pin_generator() -> bool:
    """Pin this process to its first CPU when a second one is free.

    The load generator and the server must not share a core; with a
    single CPU nothing is pinned and the result records that.
    """
    cpus = _cpus()
    if len(cpus) < 2:
        return False
    os.sched_setaffinity(0, {cpus[0]})
    return True


def cpu_seconds_of(pid: int) -> float:
    """CPU seconds process ``pid`` has run so far, over all its threads.

    From the scheduler's per-task run time (nanoseconds) where the
    kernel keeps it, else from the 10 ms ticks of ``/proc/<pid>/stat``.
    """
    try:
        run_ns = [
            int(task.read_text().split()[0])
            for task in Path(f"/proc/{pid}/task").glob("*/schedstat")
        ]
    except (OSError, ValueError, IndexError):
        run_ns = []
    if run_ns:
        return sum(run_ns) / 1e9
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def self_peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ServerProcess:
    """One ``python -m repro.service.cli`` child on an ephemeral port.

    ``start`` returns once the server has printed its start-up line;
    ``stop`` always reaps the child.  The child's stderr is kept for
    the failure report.
    """

    def __init__(self, pois: int, seed: int, server_cpu: Optional[int]) -> None:
        self._args = [
            sys.executable,
            "-u",  # the start-up line must not sit in a pipe buffer
            "-m",
            "repro.service.cli",
            "--pois",
            str(pois),
            "--seed",
            str(seed),
            "--port",
            "0",
        ]
        self._server_cpu = server_cpu
        self._proc: Optional[subprocess.Popen[str]] = None
        self.stderr = ""

    @staticmethod
    def second_cpu() -> Optional[int]:
        """The CPU the server is pinned to (``None``: not pinned)."""
        cpus = _cpus()
        return cpus[1] if len(cpus) >= 2 else None

    def start(self) -> Tuple[str, int]:
        """Spawn the server; returns its ``(host, port)``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self._proc = subprocess.Popen(
            self._args,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=str(REPO_ROOT),
            text=True,
        )
        if self._server_cpu is not None:
            os.sched_setaffinity(self._proc.pid, {self._server_cpu})
        assert self._proc.stdout is not None
        ready, _, _ = select.select([self._proc.stdout], [], [], _STARTUP_TIMEOUT_S)
        line = self._proc.stdout.readline() if ready else ""
        if " on " not in line:
            self.stop()
            raise RuntimeError(
                f"repro-serve did not start (said {line!r}); stderr:\n{self.stderr}"
            )
        host, _, port = line.strip().rsplit(" ", 1)[1].rpartition(":")
        return host, int(port)

    def cpu_seconds(self) -> float:
        """CPU seconds the server has used since it was spawned."""
        assert self._proc is not None
        return cpu_seconds_of(self._proc.pid)

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        assert self._proc is not None
        status = Path(f"/proc/{self._proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Terminate and reap the child (kills it if it will not go)."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.terminate()
        try:
            _, self.stderr = proc.communicate(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, self.stderr = proc.communicate()

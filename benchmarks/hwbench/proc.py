"""Run one child process with a timeout and collect its resource usage."""

from __future__ import annotations

import os
import select
import signal
import subprocess
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    timed_out: bool
    wall_s: float
    cpu_s: float        # user + system time of the child and its threads
    peak_rss_mb: float  # ru_maxrss of the child
    stderr_tail: str


def _wait(pid: int, timeout: float):
    """wait4 the child; kill it first if it outlives ``timeout`` seconds."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
    finally:
        os.close(fd)
    timed_out = not ready
    if timed_out:
        # the child is not reaped yet, so its pid cannot have been reused
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    return status, usage, timed_out


def run_child(argv: list[str], *, env: dict, cwd: str, timeout: float, log_path: str) -> ChildResult:
    """Run argv to completion; its stdout is discarded and stderr kept in log_path."""
    with open(log_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=cwd)
        status, usage, timed_out = _wait(proc.pid, timeout)
        wall = perf_counter() - start
    # wait4 reaped the child; recording its status stops Popen from waiting again
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "rb") as fh:
        tail = fh.read()[-2000:].decode("utf-8", "replace")
    return ChildResult(proc.returncode, timed_out, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, tail)

"""Child processes and scratch space of one run, cleaned up on every exit.

The system under test only ever runs as ``python -m repro …``
subprocesses.  A :class:`Session` owns them and the run's temp dir:
leaving its ``with`` block — success, failure, timeout or Ctrl-C —
kills and reaps every child and removes the directory, and a harness
that is killed outright takes its children with it
(``PR_SET_PDEATHSIG``), so a run never leaves a ``repro serve`` behind.
"""

from __future__ import annotations

import ctypes
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from bench.config import SRC, WORK_ROOT

#: How long a server may take from spawn to answering ``ping``.
READY_TIMEOUT_S = 30.0
#: How often a running CLI child's memory high-water mark is sampled.
RSS_POLL_S = 0.02


def peak_rss_mb(pid: int) -> float:
    """A live process's resident-set high-water mark (``VmHWM``), 0 once
    it is a zombie.

    Not ``ru_maxrss``: Linux carries that across ``exec``, so a child
    reports at least the RSS its parent — this harness — had when it
    spawned it.
    """
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def pin_cpus() -> tuple[int, int] | None:
    """(harness cpu, child cpu) when two CPUs can be told apart.

    The generator and the program each get a CPU of their own: letting
    the scheduler migrate a 1 ms request path between two busy vCPUs
    costs a third of the throughput and most of the steadiness.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[-1]) if len(cpus) >= 2 else None


_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


def _load_prctl():
    """libc's ``prctl``, typed for the one call made with it."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl


@dataclass(frozen=True)
class ChildRun:
    """One finished CLI invocation."""

    wall_s: float
    peak_rss_mb: float
    output: str


class Server:
    """A running ``repro serve`` child bound to a kernel-chosen port."""

    def __init__(self, proc: subprocess.Popen, address: tuple[str, int]) -> None:
        self.proc = proc
        self.address = address

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark so far."""
        return peak_rss_mb(self.proc.pid)

    def kill(self) -> None:
        """``SIGKILL`` and reap — a crash, not a drain."""
        self.proc.kill()
        self.proc.wait()


class Session:
    """Scratch dir + children of one run (a context manager)."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self._children: list[subprocess.Popen] = []
        self._logs = 0
        self.env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "PYTHONUNBUFFERED": "1",
        }
        self._prctl = _load_prctl()
        self._pid = os.getpid()
        self._cpus = pin_cpus()
        self._affinity = None
        if self._cpus is not None:
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self._cpus[0]})

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Kill and reap every child, drop the scratch dir."""
        for proc in self._children:
            if proc.returncode is None:
                proc.kill()
        for proc in self._children:
            if proc.returncode is None:
                proc.wait()
        self._children.clear()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no concurrent run is using it
        except OSError:
            pass
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None

    def _in_child(self) -> None:
        """Between fork and exec: the kernel kills this child the moment
        the harness dies, however it dies (``kill -9`` runs no cleanup),
        and the child takes the CPU the harness is not on."""
        self._prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        if os.getppid() != self._pid:  # the harness died before the prctl
            os._exit(1)
        if self._cpus is not None:
            os.sched_setaffinity(0, {self._cpus[1]})

    def _spawn(self, args: tuple[str, ...]) -> tuple[subprocess.Popen, Path]:
        self._logs += 1
        log_path = self.dir / f"child-{self._logs}.log"
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
                cwd=self.dir,
                preexec_fn=self._in_child,
            )
        self._children.append(proc)
        return proc, log_path

    def run_cli(self, *args: str) -> ChildRun:
        """Run ``python -m repro <args>`` to completion; wall + peak RSS."""
        started = time.perf_counter()
        proc, log_path = self._spawn(args)
        peak = 0.0
        # A pidfd turns readable the instant the child exits, so the wall
        # time is exact while memory is only sampled now and then.
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], RSS_POLL_S)[0]:
                peak = max(peak, peak_rss_mb(proc.pid))
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - started
        proc.wait()
        output = log_path.read_text(errors="replace")
        if proc.returncode != 0:
            raise RuntimeError(
                f"repro {' '.join(args)} exited {proc.returncode}:\n{output}"
            )
        return ChildRun(wall, peak, output)

    def start_server(self, *args: str) -> Server:
        """Start ``repro serve <args> --port 0``; ready once it pings."""
        from repro.server.client import InventoryClient

        proc, log_path = self._spawn(("serve", *args, "--port", "0"))
        deadline = time.monotonic() + READY_TIMEOUT_S
        address = None
        while address is None:
            for line in log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving on "):
                    host, _, port = line.split()[2].rpartition(":")
                    address = (host, int(port))
            if address is None:
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"repro serve {' '.join(args)} never came up:\n"
                        f"{log_path.read_text(errors='replace')}"
                    )
                time.sleep(0.01)
        with InventoryClient(*address, timeout=READY_TIMEOUT_S) as client:
            if not client.ping():
                raise RuntimeError("server answered ping without pong")
        return Server(proc, address)

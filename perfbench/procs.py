"""Serving processes of one run: start through ``launch.py``, read /proc, stop."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICKS = os.sysconf("SC_CLK_TCK")


def rss_bytes(pid: int) -> int:
    """Resident set size of ``pid`` right now."""
    with open(f"/proc/{pid}/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time ``pid`` has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def cpu_ticks() -> List[int]:
    """Aggregate CPU ticks from /proc/stat: user, nice, system, idle, ..."""
    with open("/proc/stat") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the machine's CPU time the hypervisor gave to others."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta[:8]))


class Server:
    """One serving process started through ``launch.py``."""

    def __init__(self, workdir: str, name: str, cli: List[str],
                 trace: bool, probe_first_add: bool = False):
        self.name = name
        workdir = os.path.abspath(workdir)
        self.ready_file = os.path.join(workdir, f"{name}.ready")
        self.dump = os.path.join(workdir, f"{name}.dump.json")
        self.trim_file = self.dump + ".trim"
        for stale in (self.ready_file, self.dump, self.dump + ".mem",
                      self.trim_file):
            if os.path.exists(stale):
                os.remove(stale)
        command = [sys.executable, os.path.join(HERE, "launch.py"),
                   "--dump", self.dump] + (["--trace"] if trace else []) \
            + (["--probe-first-add"] if probe_first_add else []) \
            + ["--"] + cli + ["--port", "0", "--ready-file", self.ready_file]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(os.path.join(workdir, f"{name}.log"), "w")
        self.process = subprocess.Popen(command, env=env, stdout=self.log,
                                        stderr=subprocess.STDOUT, cwd=ROOT)

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self, timeout: float = 120.0) -> str:
        """Block until the ready file names the bound ``host:port``."""
        deadline = time.perf_counter() + timeout
        while True:
            if os.path.exists(self.ready_file):
                with open(self.ready_file) as handle:
                    address = handle.read().strip()
                if address:
                    return address
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited with {self.process.returncode} "
                    f"before it was ready (see {self.log.name})")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{self.name} not ready in {timeout}s")
            time.sleep(0.002)

    def memory_probe(self) -> Optional[dict]:
        try:
            with open(self.dump + ".mem") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def _trims(self) -> dict:
        try:
            with open(self.trim_file) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return {"count": 0}

    def request_trim(self) -> int:
        """Ask the process to trim (SIGUSR1, see ``launch.py``); returns
        the count to pass to :meth:`trimmed_rss`."""
        count = self._trims()["count"]
        self.process.send_signal(signal.SIGUSR1)
        return count

    def trimmed_rss(self, count: int, timeout: float = 30.0) -> int:
        """RSS after the trim asked for when the count was ``count``."""
        deadline = time.perf_counter() + timeout
        while True:
            trims = self._trims()
            if trims["count"] > count:
                return trims["rss"]
            if self.process.poll() is not None:
                raise RuntimeError(f"{self.name} exited during a trim")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{self.name} did not trim in {timeout}s")
            time.sleep(0.002)

    def stop(self, timeout: float = 20.0) -> int:
        """SIGTERM (the CLI's graceful path), then SIGKILL; always reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        return self.wait(timeout)

    def wait(self, timeout: float = 20.0) -> int:
        try:
            code = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.log.close()
        return code

"""Provenance and resource accounting for every benchmark result."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import threading
from pathlib import Path

from spans import blas_config, blas_threads


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when it is a git checkout, else ``None``."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root: Path) -> dict:
    """Versions, cores, BLAS threads in effect and the run context."""
    import numpy

    from repro import runtime

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas_config(),
                 "threads_in_effect": blas_threads()},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REPRO_NUM_THREADS",
            "REPRO_BENCH_JOBS")},
        "runtime": runtime.snapshot(),
        "git_commit": git_commit(root),
    }


def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list:
    pids = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as f:
                pids.extend(int(c) for c in f.read().split())
    except OSError:
        pass
    return pids


class RssSampler:
    """Peak resident memory of this process plus its child processes.

    A daemon thread sums VmRSS over the process tree every
    ``interval`` seconds; :meth:`peak_mb` also folds in the kernel's
    high-water mark for this process, so its own peak between samples
    is not lost.
    """

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self._peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-rss")

    def _sample(self) -> None:
        pid = os.getpid()
        total, frontier = _rss_kib(pid), _children(pid)
        while frontier:
            child = frontier.pop()
            total += _rss_kib(child)
            frontier.extend(_children(child))
        self._peak_kib = max(self._peak_kib, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def start(self) -> "RssSampler":
        self._sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def peak_mb(self) -> float:
        self._sample()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self._peak_kib, own) / 1024.0


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime)

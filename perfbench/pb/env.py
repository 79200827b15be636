"""Run metadata, memory and garbage-collector accounting."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha(root: str):
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_files(root: str) -> List[str]:
    paths = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths.extend(os.path.join(dirpath, f) for f in sorted(filenames)
                     if f.endswith(".py"))
    return paths


def src_summary(root: str) -> Dict[str, object]:
    """Line count of ``src/`` and a digest of its contents (identifies
    the program version where no git sha is available)."""
    lines = 0
    digest = hashlib.sha1()
    for path in src_files(root):
        with open(path, "rb") as f:
            data = f.read()
        lines += data.count(b"\n")
        digest.update(os.path.relpath(path, root).encode("utf-8"))
        digest.update(data)
    return {"src_lines": lines, "src_digest": digest.hexdigest()[:16]}


def metadata(root: str, workload: str, seed: int, trace: bool) -> dict:
    meta = {"workload": workload, "seed": seed, "trace": trace,
            "git_sha": git_sha(root), "nproc": nproc(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}
    meta.update(src_summary(root))
    return meta


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


#: Int objects visited in a fixed shuffled order: about 3.6 MB, more than
#: a core's L2 cache, so visiting them feels the shared cache and memory
#: contention from other tenants that slows the parser but not ``_spin``,
#: which stays in L1.  Ints are not tracked by the collector.
CHASE_OBJECTS = 100000
CHASE_STEPS = 12000
_chase_state = None


def _chase() -> int:
    global _chase_state
    if _chase_state is None:
        rng = random.Random(0)
        values = [10 ** 6 + i for i in range(CHASE_OBJECTS)]
        rng.shuffle(values)
        _chase_state = (values, rng.sample(range(CHASE_OBJECTS), CHASE_STEPS))
    values, order = _chase_state
    s = 0
    for i in order:
        s += values[i]
    return s


class Calibrator:
    """How fast this machine runs Python right now, from a fixed loop.

    A shared host's speed drifts by a quarter or more over tens of
    seconds, which swamps the differences the benchmark exists to find.
    Each ``tick`` times a fixed pure-Python arithmetic loop followed by a
    walk over int objects scattered beyond the L2 cache (no allocation,
    so no collector work): under load from other tenants the parser
    slowed by up to a third while the arithmetic loop alone barely did,
    and the walk tracks that.  ``scale`` is the reference tick time over
    the local median, so ``raw_seconds * scale`` reads the same whichever
    speed the machine had at that moment.  On this benchmark's reference
    machine (Intel Xeon, 2 vCPUs, Python 3.11) a tick takes REFERENCE_S.
    """

    LOOP = 20000
    REFERENCE_S = 5.0e-3
    #: Ticks within this many seconds of a moment describe its speed.
    WINDOW_S = 2.0

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.ticks: List[tuple] = []

    def tick(self, count: int = 1) -> None:
        for _ in range(count):
            started = self.clock()
            _spin(self.LOOP)
            _chase()
            self.ticks.append((started, self.clock() - started))

    def maybe_tick(self, every_s: float = 0.2) -> None:
        """Tick unless the last tick is more recent than ``every_s``."""
        if not self.ticks or self.clock() - self.ticks[-1][0] >= every_s:
            self.tick()

    def scale(self, at: float = None) -> float:
        """Reference loop time over the median of the ticks near ``at``
        (of all ticks when ``at`` is None or none is near)."""
        near = [d for t, d in self.ticks
                if at is None or abs(t - at) <= self.WINDOW_S]
        return self.REFERENCE_S / statistics.median(
            near or [d for _t, d in self.ticks])


class GCMonitor:
    """Collector pauses observed through ``gc.callbacks``.

    The collector keeps its default settings: the monitor only watches.
    With a tracer, each collection is also a ``gc.collect`` span, a child
    of whatever span was open, so layer self times exclude it.
    """

    def __init__(self, tracer=None, clock=time.perf_counter):
        self.tracer = tracer
        self.clock = tracer.clock if tracer is not None else clock
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self.pauses: List[tuple] = []
        self._started = None
        self._span = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = self.clock()
            if self.tracer is not None:
                self._span = self.tracer.begin("gc.collect")
        elif self._started is not None:
            if self._span is not None:
                self.tracer.finish(self._span)
                self._span = None
            end = self.clock()
            self.pause_s += end - self._started
            self.collections[info["generation"]] += 1
            self.pauses.append((self._started, end))
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False

    def pause_between(self, start: float, end: float) -> float:
        """Collector time that fell inside ``[start, end]``."""
        return sum(min(b, end) - max(a, start) for a, b in self.pauses
                   if b > start and a < end)

    def busy(self, start: float) -> float:
        """Time since ``start`` less the collector pauses inside it."""
        end = self.clock()
        return end - start - self.pause_between(start, end)

    def metrics(self) -> Dict[str, float]:
        return {"gc.pause_s": self.pause_s,
                "gc.full_collections": self.collections[2],
                "gc.tracked_objects": len(gc.get_objects())}

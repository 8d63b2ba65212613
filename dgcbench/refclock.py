"""Wall time corrected for the speed the CPU gives this process right now.

On a shared VM the same single-threaded decomposition can take 1.6x longer
in one process than in the next, in episodes lasting seconds that hit one
process and not another running beside it. A calibration run before and
after a cell misses episodes inside it. So a timer signal runs a fixed probe
every ``PERIOD_S`` seconds *inside* the measured code, and a region's time is
reported in reference seconds::

    ref = (wall - probe time) * mean(REF_PROBE_S / probe duration)

The mean of the inverse probe time is the process's average speed over the
region relative to the reference, sampled uniformly in wall time. The probe
is frozen code that never changes when the program does: a two-level bitmap
BFS on a fixed 400-vertex graph (the small NumPy calls of the kernel) and
bucket moves between Python sets indexed through an int64 array (the
interpreter work of the peel loop). In slow spells interpreter work slows
most (up to 1.9x), small NumPy calls slightly less and memory streaming
least (1.3x), so the probe carries both of the first two. ``REF_PROBE_S`` is
the probe's duration at full speed on a 4-core Xeon VM (NumPy 1.26); it
only fixes the unit.

Spark modes run in other processes; their times are plain wall time, taken
with the probe paused (:meth:`RefClock.paused`).
"""
from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.02
REF_PROBE_S = 0.00063
MIN_SAMPLES = 8


def _probe_graph() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(12345)
    a = rng.random((400, 400)) < 0.02
    a |= a.T
    np.fill_diagonal(a, False)
    return a, np.ones(400, dtype=bool)


def _probe_buckets() -> tuple[list[set[int]], np.ndarray]:
    cells: list[set[int]] = [set() for _ in range(64)]
    cells[0].update(range(256))
    return cells, np.zeros(256, dtype=np.int64)


@dataclass
class Reading:
    """One measured region: ``wall`` and probe-free ``raw`` seconds, and
    ``ref``, the raw time at the reference speed."""

    wall: float
    raw: float
    ref: float


class RefClock:
    """Samples process speed on SIGALRM while running; see module docstring."""

    def __init__(self) -> None:
        self._adj, self._alive = _probe_graph()
        self._cells, self._where = _probe_buckets()
        self._inv: list[float] = []  # REF_PROBE_S / probe duration
        self.probe_total = 0.0  # seconds spent probing, for subtraction
        self._busy = False
        self._running = False
        self._old_handler = None

    def _probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            adj, alive = self._adj, self._alive
            cells, where = self._cells, self._where
            t0 = time.perf_counter()
            for v in range(0, 40, 4):
                frontier = adj[v] & alive
                reached = frontier.copy()
                for _ in range(2):
                    scan = adj[np.flatnonzero(frontier)] & alive
                    nxt = scan.any(axis=0) & ~reached
                    reached |= nxt
                    frontier = nxt
            for i in range(600):
                v = (i * 37) & 255
                cur = int(where[v])
                cells[cur].discard(v)
                cells[(cur + 1) & 63].add(v)
                where[v] = (cur + 1) & 63
            t1 = time.perf_counter()
            self._inv.append(REF_PROBE_S / (t1 - t0))
            self.probe_total += t1 - t0
        finally:
            self._busy = False

    def _on_tick(self, signum, frame) -> None:
        self._probe()

    def start(self) -> None:
        """Begin sampling (main thread only)."""
        if self._running:
            return
        for _ in range(3):  # warm the probe's code paths
            self._probe()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self) -> None:
        """Stop sampling and restore the previous SIGALRM handler."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)
        self._running = False

    def __enter__(self) -> "RefClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @contextmanager
    def paused(self):
        """Suspend sampling, e.g. while another process does the work."""
        was = self._running
        self.stop()
        try:
            yield
        finally:
            if was:
                self.start()

    def mark(self) -> tuple[float, float, int]:
        """Opaque start point for :meth:`since`."""
        return time.perf_counter(), self.probe_total, len(self._inv)

    def since(self, mark: tuple[float, float, int]) -> Reading:
        """Reading for the region from ``mark`` to now."""
        t_end = time.perf_counter()
        t0, probe0, i0 = mark
        wall = t_end - t0
        raw = max(wall - (self.probe_total - probe0), 0.0)
        i1 = len(self._inv)
        while i1 < MIN_SAMPLES:  # too few samples overall: take some now
            self._probe()
            i1 = len(self._inv)
        lo = min(i0, i1 - MIN_SAMPLES)
        speed = float(np.mean(self._inv[lo:i1]))
        return Reading(wall=wall, raw=raw, ref=raw * speed)

    @contextmanager
    def region(self, out: list):
        """Append the :class:`Reading` of the ``with`` body to ``out``."""
        m = self.mark()
        try:
            yield
        finally:
            out.append(self.since(m))

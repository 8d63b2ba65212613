"""Outside-in layer tracing: wrap layer functions at their import sites.

``repro`` has no tracing of its own. The :class:`Tracer` replaces each
function in :data:`SITES` by a wrapper on the module attribute the caller
looks it up through, records spans and counts in memory, and puts every
original back on exit, also when the traced code raises. Nothing under
``src/`` changes; an untraced run never sees a wrapper
(:func:`assert_untraced`).

Phase spans nest: a phase's ``self_s`` is its duration minus that of the
phases inside it, and likewise for ``visits`` and ``bfs_calls``, which are
read from the Counter of the decomposition being traced. Every duration
excludes the time :class:`~refclock.RefClock` spent probing inside it.
"""
from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PHASES = ("hdeg0", "lb", "ub", "improve_lb", "peel")

# (module, attribute, kind). Each entry is an import site: the name the
# calling module resolves at call time.
SITES: tuple[tuple[str, str, str], ...] = (
    ("repro.core.kernels", "bounded_reach", "reach"),
    ("repro.core.bounds", "bounded_reach", "reach"),
    ("repro.core.decomp", "bounded_reach", "reach"),
    ("repro.core.hlbub", "bounded_reach", "reach"),
    ("repro.clubs.clubs", "bounded_reach", "reach"),
    ("repro.core.hlbub", "batch_h_degrees", "hdeg0"),
    ("repro.core.hlb", "lower_bounds", "lb"),
    ("repro.core.hlbub", "lower_bounds", "lb"),
    ("repro.core.hlbub", "upper_bound", "ub"),
    ("repro.core.hlbub", "improve_lb", "improve_lb"),
    ("repro.core.hlb", "core_decomp", "peel"),
    ("repro.core.hlbub", "core_decomp", "peel"),
    ("repro.pregel.hdegree", "h_degrees_spark", "spark"),
    ("repro.pregel", "h_degrees_spark", "spark"),
    ("repro.core.hlbub", "_run_intervals_spark", "spark"),
    ("pyspark.core.context", "SparkContext.broadcast", "broadcast"),
    ("pyspark.core.broadcast", "Broadcast.destroy", "destroy"),
)

_MARK = "__dgcbench_wrapped__"


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for p in path:
        owner = getattr(owner, p)
    return owner, name


def _imported(sites):
    """The sites whose module is already imported. The others cannot hold a
    wrapper, and importing them would load pyspark into driver-only runs."""
    return [s for s in sites if s[0] in sys.modules]


def assert_untraced() -> None:
    """Raise if any traced site still holds a wrapper."""
    for module, attr, _ in _imported(SITES):
        owner, name = _resolve(module, attr)
        if getattr(getattr(owner, name), _MARK, False):
            raise RuntimeError(f"{module}.{attr} is still wrapped")


class _Frame:
    __slots__ = ("name", "t0", "probe0", "v0", "b0", "child_t", "child_v", "child_b")

    def __init__(self, name, t0, probe0, v0, b0):
        self.name, self.t0, self.probe0, self.v0, self.b0 = name, t0, probe0, v0, b0
        self.child_t = self.child_v = self.child_b = 0


class Tracer:
    """Installs wrappers on enter, restores them on exit; see module docstring.

    Attributes:
        counter: the Counter of the decomposition now running (set by the
            caller); phase visits and BFS calls are read from it.
        stats: accumulated numbers, keyed by metric name.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.counter = None
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self._decomp_depth = 0
        self._club_depth = 0
        self._live: dict[int, object] = {}

    # -- time and counts -------------------------------------------------
    def _now(self) -> tuple[float, float]:
        probe = self.clock.probe_total if self.clock is not None else 0.0
        return time.perf_counter(), probe

    def _counts(self) -> tuple[int, int]:
        c = self.counter
        return (c.visits, c.bfs_calls) if c is not None else (0, 0)

    def _push(self, name: str) -> _Frame:
        t0, p0 = self._now()
        v0, b0 = self._counts()
        f = _Frame(name, t0, p0, v0, b0)
        self._stack.append(f)
        return f

    def _pop(self, f: _Frame) -> tuple[float, int, int]:
        t1, p1 = self._now()
        v1, b1 = self._counts()
        popped = self._stack.pop()
        assert popped is f, "span stack out of order"
        dur = (t1 - f.t0) - (p1 - f.probe0)
        dv, db = v1 - f.v0, b1 - f.b0
        if self._stack:
            parent = self._stack[-1]
            parent.child_t += dur
            parent.child_v += dv
            parent.child_b += db
        return dur, dv, db

    # -- spans opened by the benchmark around calls into a layer ---------
    @contextmanager
    def decomposition(self, counter):
        """Span around one driver decomposition; phases nest inside it."""
        self.counter = counter
        self._decomp_depth += 1
        f = self._push("decomp")
        try:
            yield
        finally:
            dur, _, _ = self._pop(f)
            self._decomp_depth -= 1
            self.stats["decomp.s"] += dur
            self.stats["decomp.phase_s"] += f.child_t
            self.counter = None

    @contextmanager
    def clubs(self):
        """Span around one maximum h-club solve."""
        self._club_depth += 1
        try:
            yield
        finally:
            self._club_depth -= 1

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, kind: str):
        tracer = self
        st = self.stats

        if kind == "reach":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0, p0 = tracer._now()
                out = fn(*args, **kwargs)
                t1, p1 = tracer._now()
                if tracer._decomp_depth:
                    st["kernels.bfs_calls"] += 1
                    st["kernels.s"] += (t1 - t0) - (p1 - p0)
                elif tracer._club_depth:
                    st["clubs.bfs_calls"] += 1
                return out
        elif kind in PHASES:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # Phases belong to driver decompositions only. batch_h_degrees
                # is its own phase only at the top of one (h-LB+UB's initial
                # batch); inside ImproveLB it is part of that phase.
                if not tracer._decomp_depth or (
                    kind == "hdeg0" and tracer._stack[-1].name != "decomp"
                ):
                    return fn(*args, **kwargs)
                alive0 = None
                if kind == "peel":
                    alive0 = int(np.count_nonzero(kwargs["alive"]))
                elif kind == "improve_lb":
                    st["hlbub.vk_before"] += int(np.count_nonzero(args[2]))
                f = tracer._push(kind)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur, dv, db = tracer._pop(f)
                    st[f"phase.{kind}.self_s"] += dur - f.child_t
                    st[f"phase.{kind}.visits"] += dv - f.child_v
                    st[f"phase.{kind}.bfs_calls"] += db - f.child_b
                if kind == "peel":
                    st["peel.peels"] += alive0 - int(np.count_nonzero(kwargs["alive"]))
                elif kind == "improve_lb":
                    st["hlbub.vk_after"] += int(np.count_nonzero(out[0]))
                return out
        elif kind == "spark":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0, p0 = tracer._now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1, p1 = tracer._now()
                    st["pregel.spark_calls"] += 1
                    st["pregel.spark_s"] += (t1 - t0) - (p1 - p0)
        elif kind == "broadcast":
            @functools.wraps(fn)
            def wrapper(sc, value, *args, **kwargs):
                b = fn(sc, value, *args, **kwargs)
                size = len(value) if isinstance(value, (bytes, bytearray)) else len(
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
                st["pregel.broadcasts"] += 1
                st["pregel.broadcast_bytes"] += size
                tracer._live[id(b)] = b
                return b
        elif kind == "destroy":
            @functools.wraps(fn)
            def wrapper(b, *args, **kwargs):
                tracer._live.pop(id(b), None)
                return fn(b, *args, **kwargs)
        else:  # pragma: no cover - SITES is fixed above
            raise ValueError(kind)
        setattr(wrapper, _MARK, True)
        return wrapper

    @property
    def broadcasts_live(self) -> int:
        """Broadcasts created under this tracer and never destroyed."""
        return len(self._live)

    def install(self) -> None:
        try:
            for module, attr, kind in _imported(SITES):
                owner, name = _resolve(module, attr)
                orig = vars(owner)[name]
                self._patches.append((owner, name, orig))
                setattr(owner, name, self._wrap(getattr(owner, name), kind))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)
        self._stack.clear()
        self._decomp_depth = self._club_depth = 0

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

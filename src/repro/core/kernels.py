"""BFS kernels: the one module that walks the dense adjacency.

The paper's efficiency metric (Table 3) is "the total number of computed
point-to-point distances (i.e., the total number of possibly repeated
vertices visited in all h-bfs)". :func:`bounded_reach`, the h-BFS of every
algorithm, charges that count to a :class:`Counter`, which can also enforce
a visit budget and a wall-clock deadline so that the paper's "NT"
(did-not-terminate) cells can be reproduced deterministically instead of
waiting 20 hours. :func:`bfs_levels` is the uncounted, unbounded BFS behind
:func:`components` and :func:`distance_matrix`.

:func:`batch_reach_counts` gives the h-degrees of a batch of sources that
share one alive mask: the neighbours a peel recomputes after one deletion
(Algorithm 3 lines 14-18, Algorithm 1). It does the work of one
:func:`bounded_reach` per source and charges the same: per source, the
level-1 frontier plus, at each later level, the alive degree of every
frontier vertex,

    visits(s) = |F_1(s)| + sum_{l=1..h-1} sum_{w in F_l(s)} |N(w) & alive|,

and one BFS call. Its multi-source form runs each level for all sources as
one float32 product (multi-source BFS, Then et al., PVLDB 8(4), 2014).
:func:`batch_pays` picks that form for batches of 3 or more sources, and
for pairs on 1000 or more vertices. Multi-source time over per-source
time, on h-LB recompute batches cut to their first b sources (4-vCPU Xeon
VM, 150-400 batches per cell)::

    cell        n      b=1   b=2   b=3   (b>=9: 0.06-0.39)
    FBco h=3    600    1.52  1.11  0.84
    caHe h=3    900    1.21  0.82  0.61
    rnPA h=4    1444   1.66  0.98  0.69
    amzn h=3    2000   1.20  0.92  0.80
    rnBig h=2   10000  1.11  0.67  0.52

The multi-source form checks a budget once per batch, so a run can overshoot
its visit budget by at most one batch's visits before it stops.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class BudgetExceeded(RuntimeError):
    """Raised by :class:`Counter` when a visit budget or deadline is hit."""


@dataclass
class Counter:
    """Accumulates BFS work; optionally enforces budgets.

    Attributes:
        visits: total (possibly repeated) alive vertices scanned across all
            h-BFS traversals — the paper's "point-to-point distances".
        bfs_calls: number of h-BFS traversals executed.
        visit_budget: raise :class:`BudgetExceeded` once ``visits`` passes this.
        deadline: absolute ``time.monotonic()`` deadline, checked per charge
            (per BFS, or per batch of a multi-source BFS).
    """

    visits: int = 0
    bfs_calls: int = 0
    visit_budget: int | None = None
    deadline: float | None = None

    def charge(self, visits: int) -> None:
        """Record one BFS traversal that scanned ``visits`` vertices."""
        self.merge_batch(visits, 1)

    def merge_batch(self, visits: int, bfs_calls: int) -> None:
        """Fold in ``bfs_calls`` traversals, e.g. done remotely by Spark tasks."""
        self.visits += int(visits)
        self.bfs_calls += int(bfs_calls)
        if self.visit_budget is not None and self.visits > self.visit_budget:
            raise BudgetExceeded(f"visit budget exceeded: {self.visits}")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("wall-clock budget exceeded")


def bounded_reach(
    A: np.ndarray,
    v: int,
    alive: np.ndarray,
    h: int,
    counter: Counter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """h-bounded BFS from ``v`` over the subgraph induced by ``alive``.

    Args:
        A: dense boolean adjacency matrix.
        v: source vertex (its own ``alive`` flag is irrelevant: it is the
           source, never an intermediate of its own shortest paths).
        alive: boolean mask of vertices that may be reached / traversed.
        h: distance threshold (h >= 0).
        counter: optional instrumentation.

    Returns:
        ``(reached, at_h)``: boolean masks of the vertices ``u != v`` with
        ``d(v, u) <= h``, and of those with ``d(v, u) == h`` exactly. The
        ``at_h`` mask backs Algorithm 3's line-17 optimization (a neighbor at
        distance exactly ``h`` loses exactly 1 from its h-degree when ``v``
        is deleted, because ``v`` cannot be interior to any of its <=h paths).
    """
    n = A.shape[0]
    if h <= 0:
        empty = np.zeros(n, dtype=bool)
        if counter is not None:
            counter.charge(0)
        return empty, empty.copy()
    frontier = A[v] & alive
    frontier[v] = False
    visits = int(frontier.sum())
    reached = frontier.copy()
    level = 1
    while level < h and frontier.any():
        rows = A[np.flatnonzero(frontier)]
        scan = rows & alive
        visits += int(scan.sum())
        nxt = scan.any(axis=0)
        nxt &= ~reached
        nxt[v] = False
        reached |= nxt
        frontier = nxt
        level += 1
    if counter is not None:
        counter.charge(visits)
    at_h = frontier if level == h else np.zeros(n, dtype=bool)
    return reached, at_h


def batch_reach_counts(
    A: np.ndarray,
    sources: np.ndarray,
    alive: np.ndarray,
    h: int,
    counter: Counter | None = None,
) -> np.ndarray:
    """h-degrees of ``sources`` over the subgraph induced by ``alive``.

    Entry ``i`` is ``bounded_reach(A, sources[i], alive, h)[0].sum()``, and
    ``counter`` is charged the same visits and one BFS call per source. The
    module docstring gives the rule that picks one multi-source BFS or one
    :func:`bounded_reach` per source; a multi-source BFS checks the budget
    once, after the whole batch.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if batch_pays(len(sources), A.shape[0]):
        return _multi_source_counts(A, sources, alive, h, counter)
    degs = np.zeros(len(sources), dtype=np.int64)
    for i, s in enumerate(sources.tolist()):
        reached, _ = bounded_reach(A, s, alive, h, counter)
        degs[i] = np.count_nonzero(reached)
    return degs


def batch_pays(b: int, n: int) -> bool:
    """Whether one multi-source BFS beats ``b`` single-source ones on ``n`` vertices."""
    return b >= 3 or (b == 2 and n >= 1000)


def _multi_source_counts(
    A: np.ndarray,
    sources: np.ndarray,
    alive: np.ndarray,
    h: int,
    counter: Counter | None = None,
) -> np.ndarray:
    """:func:`batch_reach_counts` as one multi-source BFS, level by level.

    Row ``s`` of ``hits`` is source ``s``'s frontier restricted to ``hub``,
    the union of all frontiers. One float32 product of ``hits`` with the
    alive part of ``A[hub]`` counts, per source and column, the frontier
    vertices adjacent to that column; its positive entries not yet seen are
    the next frontier, and its sum is the level's visits, because
    ``bounded_reach`` charges each frontier vertex its alive degree.
    """
    b = len(sources)
    degs = np.zeros(b, dtype=np.int64)
    if b == 0 or h <= 0:
        if counter is not None:
            counter.merge_batch(0, b)
        return degs
    rows = np.arange(b)
    frontier = A[sources] & alive
    frontier[rows, sources] = False
    seen = frontier.copy()
    seen[rows, sources] = True  # a source is never its own h-neighbour
    hub = np.flatnonzero(np.logical_or.reduce(frontier, axis=0))
    hits = frontier[:, hub]
    degs += _row_counts(hits)
    visits = int(degs.sum())
    for level in range(2, h + 1):
        if len(hub) == 0:
            break
        step = A[hub] & alive
        cols = np.flatnonzero(np.logical_or.reduce(step, axis=0))
        paths = hits.astype(np.float32) @ step[:, cols].astype(np.float32)
        visits += int(paths.sum(dtype=np.float64))
        fresh = paths > 0
        fresh &= ~seen[:, cols]
        degs += _row_counts(fresh)
        if level < h:
            seen[:, cols] |= fresh
            keep = np.logical_or.reduce(fresh, axis=0)
            hub, hits = cols[keep], fresh[:, keep]
    if counter is not None:
        counter.merge_batch(visits, b)
    return degs


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """True entries per row of a 2-D boolean array."""
    return mask.view(np.uint8).sum(axis=1, dtype=np.int64)


def all_h_degrees(
    A: np.ndarray, alive: np.ndarray, h: int, counter: Counter | None = None
) -> np.ndarray:
    """h-degrees of every alive vertex in the alive-induced subgraph.

    Returns a full-length int64 array, 0 outside ``alive``. This is the
    batch the paper parallelizes in §4.6 — the Spark fan-out lives in
    :mod:`repro.pregel.hdegree` and produces identical values (tested).
    """
    out = np.zeros(A.shape[0], dtype=np.int64)
    for v in np.flatnonzero(alive):
        reached, _ = bounded_reach(A, int(v), alive, h, counter)
        out[v] = int(reached.sum())
    return out


def bfs_levels(A: np.ndarray, source: int, alive: np.ndarray) -> Iterator[np.ndarray]:
    """Unbounded, uncounted BFS from ``source`` over the alive-induced subgraph.

    Yields the vertex ids of one level at a time: level 0 is ``[source]``,
    level d the alive vertices at distance exactly d. For the small graphs of
    tests, metrics and applications; decomposition work goes through
    :func:`bounded_reach`, which counts it.
    """
    todo = alive.copy()  # alive and not yet reached
    ids = np.array([source])
    todo[source] = False
    while len(ids):
        yield ids
        ids = np.flatnonzero(A[ids].any(axis=0) & todo)
        todo[ids] = False


def components(A: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Connected components of the alive-induced subgraph.

    Labels each alive vertex with the smallest vertex id in its component,
    and every other vertex with -1.
    """
    label = np.full(A.shape[0], -1, dtype=np.int64)
    for v in np.flatnonzero(alive):
        if label[v] < 0:
            for ids in bfs_levels(A, int(v), alive):
                label[ids] = v
    return label


def distance_matrix(A: np.ndarray, alive: np.ndarray | None = None) -> np.ndarray:
    """All-pairs shortest-path distances over the alive-induced subgraph.

    Returns an ``(n, n)`` int32 matrix with -1 for unreachable pairs and for
    any pair involving a dead vertex; diagonal is 0 for alive vertices.
    Intended for the small graphs used in tests, metrics, clubs and landmarks.
    """
    n = A.shape[0]
    if alive is None:
        alive = np.ones(n, dtype=bool)
    dist = np.full((n, n), -1, dtype=np.int32)
    for v in np.flatnonzero(alive):
        for d, ids in enumerate(bfs_levels(A, int(v), alive)):
            dist[v, ids] = d
    return dist


def timed_deadline(seconds: float | None) -> float | None:
    """Absolute monotonic deadline ``seconds`` from now (None passes through)."""
    return None if seconds is None else time.monotonic() + seconds

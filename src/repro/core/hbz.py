"""Algorithm 1 — h-BZ: the distance-generalized Batagelj–Zaveršnik baseline.

Processes vertices in increasing h-degree order via bucketing; every deletion
re-computes the h-degree of *all* vertices in the deleted vertex's
h-neighborhood (the cost the lower/upper bounds of h-LB and h-LB+UB avoid).
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.bounds import batch_h_degrees
from repro.core.buckets import Buckets
from repro.core.kernels import Counter, batch_reach_counts, bounded_reach
from repro.core.types import CoreResult
from repro.graphs.graph import Graph


def h_bz(
    g: Graph,
    h: int,
    counter: Counter | None = None,
    spark=None,
) -> CoreResult:
    """Exact (k,h)-core decomposition by plain peeling (paper Algorithm 1)."""
    t0 = time.monotonic()
    counter = counter if counter is not None else Counter()
    A = g.adjacency
    n = g.n
    alive = np.ones(n, dtype=bool)
    deg = batch_h_degrees(A, alive, h, counter, spark)
    bk = Buckets(n)
    for v in range(n):
        bk.add(v, int(deg[v]))
    core = np.zeros(n, dtype=np.int64)
    order: list[int] = []
    for k in range(n + 1):
        while bk.nonempty(k):
            v = bk.pop(k)
            core[v] = k
            order.append(v)
            reached, _ = bounded_reach(A, v, alive, h, counter)
            alive[v] = False
            nbrs = np.flatnonzero(reached)
            degs = batch_reach_counts(A, nbrs, alive, h, counter)
            for u, d in zip(nbrs.tolist(), degs.tolist()):
                bk.move(u, max(d, k))
    return CoreResult(
        core=core,
        h=h,
        algo="h-BZ",
        visits=counter.visits,
        bfs_calls=counter.bfs_calls,
        runtime_s=time.monotonic() - t0,
        order=order,
    )

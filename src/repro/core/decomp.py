"""Algorithm 3 — CoreDecomp: bucket peeling with lazily-verified lower bounds.

Shared by h-LB (one call covering [1, |V|]) and h-LB+UB (one call per
upper-bound partition). Semantics follow the paper:

- a vertex sitting in bucket i with ``setlb[v] == True`` is there because of
  a *lower bound*; its real h-degree has not been computed yet;
- popping such a vertex computes its current h-degree and re-buckets it;
- popping a vertex with ``setlb[v] == False`` peels it: its core index is
  assigned iff k >= kmin (otherwise a later partition will assign it), and
  the h-degrees of its still-bounded-free h-neighbors are updated — by a
  full h-BFS when d(u,v) < h, by a O(1) decrement when d(u,v) == h exactly
  (Alg. 3 line 17). The full h-BFS runs of one deletion share one alive mask,
  so they go to :func:`~repro.core.kernels.batch_reach_counts` as one batch;
  the bucket moves then follow in ascending vertex order, as one h-BFS per
  neighbour would make them.
"""
from __future__ import annotations

import numpy as np

from repro.core.buckets import Buckets
from repro.core.kernels import Counter, batch_reach_counts, bounded_reach


def core_decomp(
    A: np.ndarray,
    h: int,
    kmin: int,
    kmax: int,
    bk: Buckets,
    setlb: np.ndarray,
    alive: np.ndarray,
    core: np.ndarray,
    assigned: np.ndarray,
    deg: np.ndarray,
    counter: Counter | None = None,
    order: list[int] | None = None,
) -> dict[str, int]:
    """Peel ``alive`` in bucket order, assigning cores in [kmin, kmax].

    Args:
        bk: buckets pre-loaded with every alive vertex (at a lower bound, or
            at its already-known core index when processed by a previous
            partition — such vertices sit above ``kmax`` and are never popped).
        setlb: per-vertex flag; True = bucket position is only a lower bound.
        alive: mutated in place as vertices are peeled.
        core/assigned: mutated in place for vertices peeled at k >= kmin.
        deg: scratch h-degree array, valid only where ``setlb`` is False.
        order: if given, append vertices in peel order (global peels only).

    Returns:
        The peel's event mix: ``lazy_pops`` (bound-only vertices whose
        h-degree was computed on reaching the front), ``peels``,
        ``recomputes`` (neighbour h-degrees recomputed by h-BFS),
        ``decrements`` (line-17 updates) and ``batches`` (non-empty
        recompute batches). Each lazy pop, peel and recompute is one h-BFS.
    """
    events = dict.fromkeys(PEEL_EVENTS, 0)
    for k in range(max(0, kmin - 1), kmax + 1):
        while bk.nonempty(k):
            v = bk.pop(k)
            if setlb[v]:
                reached, _ = bounded_reach(A, v, alive, h, counter)
                d = int(reached.sum())
                deg[v] = d
                # The paper re-buckets at B[deg]; deg >= k is guaranteed when
                # the bound is valid, max() keeps the sweep forward-only even
                # for partition stragglers whose true core is below kmin.
                bk.add(v, max(d, k))
                setlb[v] = False
                events["lazy_pops"] += 1
                continue
            if k >= kmin:
                core[v] = k
                assigned[v] = True
            if order is not None:
                order.append(v)
            setlb[v] = True
            reached, at_h = bounded_reach(A, v, alive, h, counter)
            alive[v] = False
            events["peels"] += 1
            nbrs = np.flatnonzero(reached)
            nbrs = nbrs[~setlb[nbrs]]
            far = at_h[nbrs]
            near = nbrs[~far]
            deg[nbrs[far]] -= 1
            if len(near):
                deg[near] = batch_reach_counts(A, near, alive, h, counter)
                events["batches"] += 1
            events["recomputes"] += len(near)
            events["decrements"] += len(nbrs) - len(near)
            for u in nbrs.tolist():
                bk.move(u, max(int(deg[u]), k))
    return events


PEEL_EVENTS = ("lazy_pops", "peels", "recomputes", "decrements", "batches")

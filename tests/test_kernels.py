"""BFS kernels: reach masks, exact-distance masks, counters, budgets, the
multi-source batch, level BFS, components, and the rule that no other module
walks the adjacency."""
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernels import (
    BudgetExceeded,
    Counter,
    _multi_source_counts,
    all_h_degrees,
    batch_pays,
    batch_reach_counts,
    bfs_levels,
    bounded_reach,
    components,
    distance_matrix,
)
from tests.conftest import small_graph


@pytest.mark.parametrize("model", ["er", "ba", "ws", "grid"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_bounded_reach_matches_distance_matrix(model, seed, h):
    g = small_graph(model, seed)
    A = g.adjacency
    alive = np.ones(g.n, dtype=bool)
    dist = distance_matrix(A)
    for v in range(0, g.n, 3):
        reached, at_h = bounded_reach(A, v, alive, h)
        expect = (dist[v] >= 1) & (dist[v] <= h)
        assert (reached == expect).all(), (v,)
        assert (at_h == (dist[v] == h)).all(), (v,)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bounded_reach_respects_alive_mask(seed):
    g = small_graph("er", seed)
    A = g.adjacency
    alive = np.ones(g.n, dtype=bool)
    alive[::4] = False  # kill every 4th vertex
    sub, ids = g.induced(alive)
    dist_sub = distance_matrix(sub.adjacency)
    pos = {int(orig): i for i, orig in enumerate(ids)}
    for v in np.flatnonzero(alive)[:8]:
        reached, _ = bounded_reach(A, int(v), alive, 2)
        expect = np.zeros(g.n, dtype=bool)
        dv = dist_sub[pos[int(v)]]
        for orig, i in pos.items():
            if 1 <= dv[i] <= 2:
                expect[orig] = True
        assert (reached == expect).all()


def test_bounded_reach_h_zero_and_h_one(path_graph):
    A = path_graph.adjacency
    alive = np.ones(5, dtype=bool)
    r0, e0 = bounded_reach(A, 2, alive, 0)
    assert not r0.any() and not e0.any()
    r1, e1 = bounded_reach(A, 2, alive, 1)
    assert np.flatnonzero(r1).tolist() == [1, 3]
    assert (e1 == r1).all()  # h=1: everything reached is at distance exactly 1


def test_h_degree_path(path_graph):
    A = path_graph.adjacency
    alive = np.ones(5, dtype=bool)
    assert all_h_degrees(A, alive, 2).tolist() == [2, 3, 4, 3, 2]
    assert all_h_degrees(A, alive, 4).tolist() == [4, 4, 4, 4, 4]


def test_all_h_degrees_subset(path_graph):
    A = path_graph.adjacency
    alive = np.array([True, True, False, True, True])
    out = all_h_degrees(A, alive, 2)
    assert out.tolist() == [1, 1, 0, 1, 1]  # 2 is dead: not computed, not a path


def test_counter_counts_visits(star_graph):
    A = star_graph.adjacency
    alive = np.ones(6, dtype=bool)
    c = Counter()
    bounded_reach(A, 0, alive, 1, c)
    assert c.bfs_calls == 1
    assert c.visits == 5  # scanned the 5 leaves
    bounded_reach(A, 1, alive, 2, c)
    # level 1 scans the center (1 visit), level 2 scans its 5 alive nbrs.
    assert c.visits == 5 + 1 + 5


def test_visit_budget_raises(clique_graph):
    A = clique_graph.adjacency
    alive = np.ones(6, dtype=bool)
    c = Counter(visit_budget=3)
    with pytest.raises(BudgetExceeded):
        for v in range(6):
            bounded_reach(A, v, alive, 1, c)


def test_deadline_raises(clique_graph):
    A = clique_graph.adjacency
    alive = np.ones(6, dtype=bool)
    c = Counter(deadline=0.0)  # already in the past
    with pytest.raises(BudgetExceeded):
        bounded_reach(A, 0, alive, 2, c)


def _reach_loop(A, sources, alive, h):
    """Per-source h-degrees and the Counter of a bounded_reach loop."""
    c = Counter()
    degs = [int(bounded_reach(A, int(s), alive, h, c)[0].sum()) for s in sources]
    return degs, c


BATCH_KERNELS = {"multi-source": _multi_source_counts, "dispatched": batch_reach_counts}


@pytest.mark.parametrize("kernel", sorted(BATCH_KERNELS))
@pytest.mark.parametrize("model", ["er", "er-dense", "ba", "ws", "grid"])
@pytest.mark.parametrize("seed", [0, 1])
def test_batch_reach_counts_match_bounded_reach(kernel, model, seed):
    """Same h-degree per source, same summed visits, one BFS call per source,
    over random alive masks and source sets (dead sources included)."""
    g = small_graph(model, seed)
    A = g.adjacency
    rng = np.random.default_rng(seed)
    for h in range(5):
        for _ in range(4):
            alive = rng.random(g.n) < rng.uniform(0.3, 1.0)
            sources = np.flatnonzero(rng.random(g.n) < rng.uniform(0.05, 0.6))
            degs, ref = _reach_loop(A, sources, alive, h)
            c = Counter(visits=7, bfs_calls=3)
            got = BATCH_KERNELS[kernel](A, sources, alive, h, c)
            assert got.tolist() == degs, (h, sources)
            assert (c.visits - 7, c.bfs_calls - 3) == (ref.visits, len(sources))


@pytest.mark.parametrize("kernel", sorted(BATCH_KERNELS))
def test_batch_reach_counts_edge_cases(kernel, path_graph):
    A = path_graph.adjacency
    fn = BATCH_KERNELS[kernel]
    alive = np.array([True, True, False, True, True])
    c = Counter()
    assert fn(A, np.array([], dtype=np.int64), alive, 2, c).tolist() == []
    assert (c.visits, c.bfs_calls) == (0, 0)
    # A dead source (2), adjacent sources (0 and 1, 3 and 4), a repeated one (4).
    for sources in ([2, 1, 3], [0, 1], [1, 0, 4, 3], [4, 4, 2]):
        for h in range(5):
            degs, ref = _reach_loop(A, sources, alive, h)
            c = Counter()
            assert fn(A, np.array(sources), alive, h, c).tolist() == degs, (sources, h)
            assert (c.visits, c.bfs_calls) == (ref.visits, len(sources))


def test_batch_pays_rule():
    assert not batch_pays(0, 10_000) and not batch_pays(1, 10_000)
    assert not batch_pays(2, 600) and batch_pays(2, 1_000)
    assert batch_pays(3, 10) and batch_pays(64, 10_000)


def test_multi_source_budget_checked_after_batch(clique_graph):
    """One multi-source BFS charges its whole batch, then checks the budget."""
    A = clique_graph.adjacency
    alive = np.ones(6, dtype=bool)
    c = Counter(visit_budget=6)
    with pytest.raises(BudgetExceeded):
        _multi_source_counts(A, np.arange(6), alive, 1, c)
    assert (c.visits, c.bfs_calls) == (30, 6)
    c = Counter(visit_budget=30)
    assert _multi_source_counts(A, np.arange(6), alive, 1, c).tolist() == [5] * 6


def test_distance_matrix_path(path_graph):
    dist = distance_matrix(path_graph.adjacency)
    assert dist[0, 4] == 4
    assert dist[1, 3] == 2
    assert (np.diag(dist) == 0).all()


def test_distance_matrix_disconnected():
    from repro.graphs.graph import Graph

    g = Graph.from_edges(4, np.array([[0, 1], [2, 3]]))
    dist = distance_matrix(g.adjacency)
    assert dist[0, 2] == -1
    assert dist[0, 1] == 1


def test_bfs_levels_path(path_graph):
    alive = np.array([True, True, True, True, False])
    levels = [ids.tolist() for ids in bfs_levels(path_graph.adjacency, 1, alive)]
    assert levels == [[1], [0, 2], [3]]  # 4 is dead


def test_components_labels_and_mask():
    from repro.graphs.graph import Graph

    g = Graph.from_edges(7, np.array([[0, 1], [1, 2], [3, 4], [5, 6]]))
    alive = np.ones(7, dtype=bool)
    assert components(g.adjacency, alive).tolist() == [0, 0, 0, 3, 3, 5, 5]
    alive[[1, 5]] = False  # splits {0,1,2}; leaves 6 alone
    assert components(g.adjacency, alive).tolist() == [0, -1, 2, 3, 3, -1, 6]


@pytest.mark.parametrize("model", ["er", "ba", "ws", "grid"])
def test_components_match_distance_matrix(model):
    g = small_graph(model, 1)
    alive = np.ones(g.n, dtype=bool)
    alive[::5] = False
    dist = distance_matrix(g.adjacency, alive)
    label = components(g.adjacency, alive)
    for v in range(g.n):
        if alive[v]:
            assert label[v] == np.flatnonzero(dist[v] >= 0).min()
        else:
            assert label[v] == -1


def test_distance_matrix_alive_mask(path_graph):
    alive = np.array([True, True, False, True, True])
    dist = distance_matrix(path_graph.adjacency, alive)
    assert dist[0, 1] == 1
    assert dist[0, 3] == -1  # severed by removing vertex 2
    assert (dist[2] == -1).all()


def test_only_kernels_expand_frontiers():
    """Every BFS over the adjacency lives in repro.core.kernels, so a kernel
    change (batched BFS, sparse adjacency) touches one module."""
    import repro

    root = Path(repro.__file__).parent
    offenders = [
        str(p.relative_to(root))
        for p in sorted(root.rglob("*.py"))
        if ".any(axis=0)" in p.read_text() and p != root / "core" / "kernels.py"
    ]
    assert offenders == []

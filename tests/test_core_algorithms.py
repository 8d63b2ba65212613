"""Cross-validation battery: h-BZ, h-LB, h-LB+UB vs the definitional
brute-force reference, classic-core reduction at h=1, and hand-built cases."""
import numpy as np
import pytest

from repro.core import BudgetExceeded, Counter, h_bz, h_lb, h_lb_ub
from repro.core.reference import (
    brute_force_cores,
    classic_core_decomposition,
    kh_core_members,
    power_graph,
)
from repro.graphs.datasets import load
from repro.graphs.graph import Graph
from tests.conftest import small_graph

ALGOS = {
    "h-BZ": h_bz,
    "h-LB": h_lb,
    "h-LB+UB": lambda g, h: h_lb_ub(g, h),
}


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("model", ["er", "er-dense", "ba", "ws", "grid"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("h", [2, 3])
def test_algorithms_match_brute_force(algo, model, seed, h):
    g = small_graph(model, seed)
    ref = brute_force_cores(g, h)
    got = ALGOS[algo](g, h).core
    assert np.array_equal(got, ref), (algo, model, seed, h)


# (visits, bfs_calls) on rnPA. The visits are the paper's metric as
# results/table3_efficiency.txt reports it; a kernel or engine change that
# moves either number has changed the algorithm, not sped it up.
RNPA_WORK = {
    2: {"h-BZ": (81_999, 8_530), "h-LB": (50_736, 7_873), "h-LB+UB": (160_898, 17_405)},
    3: {"h-BZ": (322_377, 13_643), "h-LB": (201_776, 11_388), "h-LB+UB": (466_224, 21_098)},
}


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("h", [2, 3])
def test_rnpa_work_matches_table3(algo, h):
    res = ALGOS[algo](load("rnPA"), h)
    assert (res.visits, res.bfs_calls) == RNPA_WORK[h][algo]


# (visits, bfs_calls) on FBco at h=2, a dense graph whose peels recompute
# dozens of neighbours per deletion in one multi-source batch. Visits as
# results/table3_efficiency.txt reports them; BFS calls as one h-BFS per
# source makes them.
FBCO_H2_WORK = {
    "h-BZ": (84_649_229, 35_829),
    "h-LB": (24_183_841, 12_424),
    "h-LB+UB": (38_420_650, 16_944),
}


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_fbco_work_matches_table3(algo):
    res = ALGOS[algo](load("FBco"), 2)
    assert (res.visits, res.bfs_calls) == FBCO_H2_WORK[algo]


def _multi_source_spy(monkeypatch):
    """Count the recompute batches that run as one multi-source BFS."""
    import repro.core.kernels as kernels

    runs = []
    real = kernels._multi_source_counts

    def spy(A, sources, alive, h, counter=None):
        runs.append(len(sources))
        return real(A, sources, alive, h, counter)

    monkeypatch.setattr(kernels, "_multi_source_counts", spy)
    return runs


@pytest.mark.parametrize("algo", ["h-BZ", "h-LB"])
def test_visit_budget_in_batched_peel(algo, monkeypatch):
    """A budget one visit short of the run's work stops it; an exact one does
    not, although a batched peel checks the budget once per batch."""
    fn = h_bz if algo == "h-BZ" else h_lb
    g = small_graph("er-dense", 1)
    runs = _multi_source_spy(monkeypatch)
    total = fn(g, 3).visits
    assert runs, "no recompute batch ran as one multi-source BFS"
    with pytest.raises(BudgetExceeded):
        fn(g, 3, counter=Counter(visit_budget=total - 1))
    assert fn(g, 3, counter=Counter(visit_budget=total)).visits == total


@pytest.mark.parametrize("algo", ["h-LB", "h-LB+UB"])
@pytest.mark.parametrize("model", ["er-dense", "ba", "grid"])
def test_peel_event_mix_accounts_for_peel_bfs(algo, model, monkeypatch):
    """Each lazy pop, peel and recompute is one h-BFS of the peel, and
    extra["peel"] sums the event mix over every CoreDecomp call."""
    import repro.core.hlb as hlb
    import repro.core.hlbub as hlbub
    from repro.core.decomp import PEEL_EVENTS, core_decomp

    module = hlb if algo == "h-LB" else hlbub
    mixes = []

    def spy(*args, **kwargs):
        before = kwargs["counter"].bfs_calls
        events = core_decomp(*args, **kwargs)
        lazy, peels, recomputes = (events[k] for k in ("lazy_pops", "peels", "recomputes"))
        assert lazy + peels + recomputes == kwargs["counter"].bfs_calls - before
        mixes.append(events)
        return events

    monkeypatch.setattr(module, "core_decomp", spy)
    g = small_graph(model, 2)
    res = ALGOS[algo](g, 3)
    assert mixes
    assert res.extra["peel"] == {k: sum(m[k] for m in mixes) for k in PEEL_EVENTS}
    assert res.extra["peel"]["batches"] <= res.extra["peel"]["peels"]
    if algo == "h-LB":
        assert res.extra["peel"]["peels"] == g.n


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_h1_reduces_to_classic_core(algo, seed):
    g = small_graph("er", seed)
    got = ALGOS[algo](g, 1).core
    assert np.array_equal(got, classic_core_decomposition(g)), (algo, seed)


@pytest.mark.parametrize("s", [1, 2, 3, 8, None])
@pytest.mark.parametrize("seed", [0, 1])
def test_hlbub_partition_size_invariant(s, seed):
    g = small_graph("ba", seed)
    ref = brute_force_cores(g, 2)
    assert np.array_equal(h_lb_ub(g, 2, s=s).core, ref)


@pytest.mark.parametrize("lb", ["none", "lb1", "lb2"])
@pytest.mark.parametrize("seed", [0, 1])
def test_hlb_lower_bound_variants(lb, seed):
    g = small_graph("ws", seed)
    ref = brute_force_cores(g, 3)
    assert np.array_equal(h_lb(g, 3, lb=lb).core, ref)


@pytest.mark.parametrize("ub_kind", ["ub", "hdegree"])
def test_hlbub_upper_bound_variants(ub_kind):
    g = small_graph("er", 5)
    ref = brute_force_cores(g, 2)
    assert np.array_equal(h_lb_ub(g, 2, ub_kind=ub_kind).core, ref)


def test_path_graph_cores(path_graph):
    # P5, h=2: ends see 2 vertices, middle sees 4. The (2,2)-core is all of
    # P5; the (3,2)-core would need every vertex to see 3 others — peeling
    # the ends leaves P3 where ends see only 2 — so max core is 2.
    res = h_bz(path_graph, 2)
    assert res.core.tolist() == [2, 2, 2, 2, 2]


def test_star_graph_cores(star_graph):
    # Star K1,5 at h=2: everyone sees all 5 others -> (5,2)-core is the
    # whole graph.
    res = h_bz(star_graph, 2)
    assert res.core.tolist() == [5] * 6


def test_clique_all_h(clique_graph):
    for h in (1, 2, 3):
        res = h_lb(clique_graph, h)
        assert (res.core == 5).all()


def test_example1_finer_granularity(fig1_like_graph):
    """The paper's Example 1 claim: (k,2) distinguishes vertices that the
    classic decomposition lumps together (here v5 and v7 both have classic
    core 1 but (k,2)-core indexes 5 and 4)."""
    g = fig1_like_graph
    classic = classic_core_decomposition(g)
    kh = h_bz(g, 2).core
    assert classic[5] == classic[7]
    assert kh[5] == 5 and kh[7] == 4


def test_power_graph_decomposition_is_not_kh(fig1_like_graph):
    """Example 2: classic core of G^h upper-bounds but can differ from the
    (k,h)-core index."""
    g = fig1_like_graph
    h = 2
    gh = power_graph(g, h)
    power_core = classic_core_decomposition(gh)
    kh = brute_force_cores(g, h)
    assert (power_core >= kh).all()
    # v5/v6 (ids 5 and 6): power-core 6 vs true (k,2)-core 5.
    assert kh[5] == 5 and kh[7] == 4
    assert power_core[5] == 6
    assert (power_core != kh).any(), "expected a strict gap on this graph"


def test_kh_core_members_nested():
    g = small_graph("er", 7)
    prev = kh_core_members(g, 2, 1)
    for k in range(2, 6):
        cur = kh_core_members(g, 2, k)
        assert (prev | cur == prev).all(), "containment violated"
        prev = cur


def test_core_result_helpers():
    g = small_graph("ba", 0)
    res = h_bz(g, 2)
    assert res.degeneracy == int(res.core.max())
    assert res.members(0).all()
    assert res.distinct_cores() == len(np.unique(res.core))
    assert res.order is not None and len(res.order) == g.n
    assert sorted(res.order) == list(range(g.n))


def test_visits_ordering_lb_below_bz():
    """The whole point of the bounds: h-LB must do far fewer h-BFS visits."""
    g = small_graph("er-dense", 1)
    bz = h_bz(g, 3)
    lb = h_lb(g, 3)
    assert lb.visits < bz.visits


def test_empty_and_singleton_graphs():
    g0 = Graph.from_edges(1, np.zeros((0, 2), dtype=np.int64))
    for fn in ALGOS.values():
        assert fn(g0, 2).core.tolist() == [0]
    g3 = Graph.from_edges(3, np.zeros((0, 2), dtype=np.int64))
    assert h_lb(g3, 2).core.tolist() == [0, 0, 0]

"""Distributed dataflow layer: DataFrame h-degrees (vs kernel and vs DuckDB
oracle), mapInPandas fan-out, BSP decomposition, Spark-parallel h-LB+UB."""
import numpy as np
import pytest

from repro.core import h_bz, h_lb_ub
from repro.core.kernels import all_h_degrees
from repro.core.reference import brute_force_cores
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.graphs.spark_graph import edges_to_df, edges_to_pandas
from repro.oracle import assert_equivalent
from repro.pregel import h_degrees_dataframe, h_degrees_spark, kh_core_bsp


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_h_degrees_dataframe_matches_kernel(spark, h, seed):
    g = erdos_renyi(30, 0.12, seed=seed)
    expect = all_h_degrees(g.adjacency, np.ones(g.n, dtype=bool), h)
    got = {r.v: r.hdeg for r in h_degrees_dataframe(edges_to_df(spark, g), h).collect()}
    for v in range(g.n):
        assert got.get(v, 0) == expect[v], (v, h, seed)


def test_h_degrees_dataframe_oracle_h2(spark):
    """The two-hop expansion as Catalyst sees it vs plain SQL in DuckDB."""
    g = erdos_renyi(40, 0.1, seed=4)
    got = h_degrees_dataframe(edges_to_df(spark, g), 2)
    assert_equivalent(
        got,
        """
        SELECT src AS v, count(*) AS hdeg FROM (
            SELECT src, dst FROM edges
            UNION
            SELECT e1.src, e2.dst
            FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
            WHERE e1.src <> e2.dst
        ) GROUP BY src
        """,
        edges=edges_to_pandas(g),
    )


def test_h_degrees_dataframe_rejects_h0(spark):
    g = erdos_renyi(5, 0.5, seed=0)
    with pytest.raises(ValueError):
        h_degrees_dataframe(edges_to_df(spark, g), 0)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_h_degrees_spark_matches_kernel(spark, h):
    g = barabasi_albert(80, 2, seed=2)
    alive = np.ones(g.n, dtype=bool)
    alive[::7] = False
    expect = all_h_degrees(g.adjacency, alive, h)
    got, visits, calls = h_degrees_spark(spark, g.adjacency, alive, h)
    assert np.array_equal(got, expect)
    assert calls == int(alive.sum())
    assert visits > 0


def test_h_degrees_spark_visits_match_local():
    """Remote visit accounting must equal the driver kernel's accounting."""
    from repro.core.kernels import Counter

    g = erdos_renyi(25, 0.15, seed=3)
    alive = np.ones(g.n, dtype=bool)
    c = Counter()
    all_h_degrees(g.adjacency, alive, 2, c)
    # Recompute per-vertex and sum — same arithmetic the executor does.
    total = 0
    for v in range(g.n):
        c2 = Counter()
        from repro.core.kernels import bounded_reach

        bounded_reach(g.adjacency, v, alive, 2, c2)
        total += c2.visits
    assert total == c.visits


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_bsp_matches_sequential(seed, h):
    g = erdos_renyi(26, 0.14, seed=seed)
    assert np.array_equal(kh_core_bsp(g, h).core, h_bz(g, h).core)


def test_bsp_with_spark_matches(spark):
    g = erdos_renyi(20, 0.18, seed=5)
    local = kh_core_bsp(g, 2)
    dist = kh_core_bsp(g, 2, spark=spark)
    assert np.array_equal(local.core, dist.core)
    assert dist.extra["supersteps"] == local.extra["supersteps"]


def test_hlbub_spark_intervals_matches(spark):
    g = barabasi_albert(40, 2, seed=6)
    for h in (2, 3):
        ref = brute_force_cores(g, h)
        res = h_lb_ub(g, h, s=2, spark=spark, parallel="intervals")
        assert np.array_equal(res.core, ref), h
        assert res.extra["tasks"] >= 1


def test_hlbub_spark_intervals_raises_on_unassigned_vertices(spark):
    from repro.core.hlbub import _run_intervals_spark

    g = barabasi_albert(40, 2, seed=6)
    res = h_lb_ub(g, 2, s=2)
    intervals, ub, lb2 = res.extra["intervals"], res.extra["ub"], res.extra["lb2"]
    assert len(intervals) > 1
    with pytest.raises(RuntimeError, match="unassigned"):
        _run_intervals_spark(spark, g, 2, intervals[:-1], ub, lb2)


@pytest.mark.parametrize("h", [2, 3])
def test_hlbub_spark_intervals_counts_task_work(spark, h):
    """Interval-mode work = the driver's bound phases + each interval's
    ImproveLB and CoreDecomp replayed locally from fresh state."""
    from repro.core.bounds import batch_h_degrees, lower_bounds, upper_bound
    from repro.core.hlbub import _run_interval
    from repro.core.kernels import Counter

    g = barabasi_albert(40, 2, seed=6)
    res = h_lb_ub(g, h, s=2, spark=spark, parallel="intervals")
    A, c = g.adjacency, Counter()
    deg0 = batch_h_degrees(A, np.ones(g.n, dtype=bool), h, c)
    _, lb2 = lower_bounds(A, h, c)
    ub = upper_bound(A, h, c, init_h_degrees=deg0)
    for kmin, kmax in res.extra["intervals"]:
        _run_interval(
            A, h, kmin, kmax, ub, lb2, np.zeros(g.n, dtype=np.int64),
            np.zeros(g.n, dtype=bool), np.zeros(g.n, dtype=np.int64), c,
        )
    assert (res.visits, res.bfs_calls) == (c.visits, c.bfs_calls)


def test_hlbub_spark_intervals_obey_visit_budget(spark):
    """Interval tasks get what is left of the caller's visit budget, stop when
    it runs out, and the driver raises BudgetExceeded (not a task error)."""
    from repro.core.bounds import batch_h_degrees, lower_bounds, upper_bound
    from repro.core.kernels import BudgetExceeded, Counter

    g = barabasi_albert(40, 2, seed=6)
    A, c = g.adjacency, Counter()
    deg0 = batch_h_degrees(A, np.ones(g.n, dtype=bool), 2, c)
    lower_bounds(A, 2, c)
    upper_bound(A, 2, c, init_h_degrees=deg0)
    counter = Counter(visit_budget=c.visits + 10)
    with pytest.raises(BudgetExceeded, match="interval tasks ran out of budget"):
        h_lb_ub(g, 2, s=2, spark=spark, parallel="intervals", counter=counter)


def test_hlbub_spark_intervals_obey_deadline(spark):
    import time

    from repro.core.hlbub import _run_intervals_spark
    from repro.core.kernels import BudgetExceeded, Counter

    g = barabasi_albert(40, 2, seed=6)
    res = h_lb_ub(g, 2, s=2)
    intervals, ub, lb2 = res.extra["intervals"], res.extra["ub"], res.extra["lb2"]
    counter = Counter(deadline=time.monotonic() + 3600)
    _run_intervals_spark(spark, g, 2, intervals, ub, lb2, counter)
    assert counter.bfs_calls > 0
    with pytest.raises(BudgetExceeded, match="interval tasks ran out of budget"):
        _run_intervals_spark(spark, g, 2, intervals, ub, lb2, Counter(deadline=0.0))


def test_hlbub_spark_intervals_report_peel_events(spark):
    g = barabasi_albert(40, 2, seed=6)
    local = h_lb_ub(g, 3, s=2)
    dist = h_lb_ub(g, 3, s=2, spark=spark, parallel="intervals")
    assert dist.extra["peel"]["peels"] >= local.extra["peel"]["peels"] > 0


def test_bsp_with_spark_broadcasts_adjacency_once(spark, monkeypatch):
    from pyspark.core.broadcast import Broadcast
    from pyspark.core.context import SparkContext

    from repro.graphs.graph import pack_adjacency

    sizes, live = [], set()
    real_broadcast, real_destroy = SparkContext.broadcast, Broadcast.destroy

    def broadcast(sc, value):
        b = real_broadcast(sc, value)
        sizes.append(len(value))
        live.add(id(b))
        return b

    def destroy(b, *args, **kwargs):
        live.discard(id(b))
        return real_destroy(b, *args, **kwargs)

    monkeypatch.setattr(SparkContext, "broadcast", broadcast)
    monkeypatch.setattr(Broadcast, "destroy", destroy)
    g = erdos_renyi(20, 0.18, seed=5)
    res = kh_core_bsp(g, 2, spark=spark)
    assert sizes.count(len(pack_adjacency(g.adjacency))) == 1
    assert len(sizes) == 1 + res.extra["supersteps"]  # then one alive mask each
    assert not live


def test_hlbub_spark_hdegree_matches(spark):
    g = erdos_renyi(30, 0.15, seed=7)
    ref = brute_force_cores(g, 2)
    res = h_lb_ub(g, 2, spark=spark, parallel="hdegree")
    assert np.array_equal(res.core, ref)


def test_hlbub_parallel_intervals_requires_spark():
    g = erdos_renyi(10, 0.3, seed=0)
    with pytest.raises(ValueError):
        h_lb_ub(g, 2, parallel="intervals")

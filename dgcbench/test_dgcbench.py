"""Checks of the benchmark itself: tracer hygiene, trace metrics, seeds and
the correctness gate. Run from the repository root:

    python3 -m pytest dgcbench -q
"""
from __future__ import annotations

import json
import signal
import time

import numpy as np
import pytest

from dgcbench import run  # first: puts src/ on sys.path
from dgcbench.refclock import RefClock
from dgcbench.tracer import SITES, Tracer, _resolve, assert_untraced
from dgcbench.workloads import PINNED, WORKLOADS, Workload, core_digest, recipe, relabel
from repro.core import Counter, h_lb, h_lb_ub

TINY = ("coli", 2)


def _originals():
    return {(m, a): getattr(*_resolve(m, a)) for m, a, _ in SITES}


def test_tracer_restores_every_site_even_on_error():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            for key, fn in _originals().items():
                assert fn is not before[key], f"{key} not wrapped"
            1 / 0
    after = _originals()
    for key, fn in before.items():
        assert after[key] is fn, f"{key} not restored"
    assert_untraced()


def test_tracing_keeps_results_and_phases_cover_the_decomposition():
    g = recipe(TINY[0])()
    h = 3
    plain = h_lb_ub(g, h)
    tracer = Tracer()
    counter = Counter()
    with tracer, tracer.decomposition(counter):
        traced = h_lb_ub(g, h, counter=counter)
    st = tracer.stats
    assert np.array_equal(plain.core, traced.core)
    assert plain.visits == traced.visits
    phases = ("hdeg0", "lb", "ub", "improve_lb", "peel")
    assert sum(st[f"phase.{p}.visits"] for p in phases) == traced.visits
    assert sum(st[f"phase.{p}.bfs_calls"] for p in phases) == traced.bfs_calls
    assert st["kernels.bfs_calls"] == traced.bfs_calls
    coverage = st["decomp.phase_s"] / st["decomp.s"]
    assert 0.9 < coverage <= 1.0
    assert 0 < st["hlbub.vk_after"] <= st["hlbub.vk_before"]


def test_default_seed_is_load_and_other_seeds_are_isomorphic():
    from repro.graphs.datasets import load

    names = {n for wl in WORKLOADS.values() for n, _ in wl.cells} - {"rnBig"}
    for name in names:
        g, perm = relabel(recipe(name)(), 0)
        assert np.array_equal(g.edges, load(name).edges), name
        assert np.array_equal(perm, np.arange(g.n))
    g0 = recipe(TINY[0])()
    g5, perm = relabel(g0, 5)
    assert g5.m == g0.m
    assert np.array_equal(np.sort(g5.degrees), np.sort(g0.degrees))
    assert np.array_equal(g5.degrees[perm], g0.degrees)
    h = TINY[1]
    assert core_digest(h_lb(g5, h).core, perm) == core_digest(
        h_lb(g0, h).core, np.arange(g0.n))


def test_refclock_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = RefClock()
    with clock:
        m = clock.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        r = clock.since(m)
    assert len(clock._inv) >= 10
    assert 0 < r.raw < r.wall
    assert r.ref > 0
    assert signal.getsignal(signal.SIGALRM) is before


@pytest.fixture
def tiny(monkeypatch):
    """A small workload with driver decompositions and h-club solves."""
    name, h = TINY
    g = recipe(name)()
    from repro.clubs import max_h_club_itdbc

    pin = {
        "visits": (h_lb(g, h).visits, h_lb_ub(g, h).visits),
        "core": core_digest(h_lb(g, h).core, np.arange(g.n)),
        "club": int(max_h_club_itdbc(g, h).sum()),
    }
    monkeypatch.setitem(WORKLOADS, "tiny", Workload(cells=(TINY,), clubs=True))
    monkeypatch.setitem(PINNED, TINY, pin)
    return pin


def _run(capsys, *argv):
    assert run.main(["--workload", "tiny", "--seconds", "0.5", *argv]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return [json.loads(line) for line in lines]


def test_untraced_run_reports_every_end_to_end_metric(tiny, capsys):
    for seed in ("0", "3"):
        (out,) = _run(capsys, "--seed", seed, "--trace", "0")
        assert out["correct"] and out["failed"] == 0
        assert out["attempted"] == 4
        assert set(out["metrics"]) == set(run.END_TO_END_UNITS)
        assert all(m["value"] > 0 for m in out["metrics"].values())
        assert out["metrics"]["passed_frac"]["value"] == 1.0


def test_traced_run_reports_layers_overhead_and_coverage(tiny, capsys):
    missing, out = _run(capsys, "--seed", "0", "--trace", "1")
    assert out["correct"] and out["failed"] == 0
    m = out["metrics"]
    assert set(m) == set(run.PER_LAYER_UNITS)
    assert set(missing["missing"]) == {k for k in m if k.startswith("pregel.")}
    assert 0.9 < m["trace.phase_coverage"]["value"] <= 1.0
    assert -0.5 < m["trace.overhead"]["value"] < 0.5
    assert m["clubs.size"]["value"] == tiny["club"]
    assert m["clubs.bfs_calls"]["value"] > 0
    assert m["kernels.bfs_calls"]["value"] > 0
    assert m["kernels.reach_us"]["value"] > 0
    assert_untraced()


def test_wrong_answers_count_as_failures(tiny, capsys, monkeypatch):
    monkeypatch.setitem(PINNED, TINY, {**tiny, "club": tiny["club"] + 1,
                                       "visits": (1, 1)})
    (out,) = _run(capsys, "--seed", "0", "--trace", "0")
    assert not out["correct"]
    assert out["failed"] == 4  # both decompositions and both club solves
    assert out["metrics"]["passed_frac"]["value"] == 0.0


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    bench = Path(run.__file__).parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""


def test_benchmark_json_matches_the_code():
    from pathlib import Path

    spec = json.loads((Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, wl.why) for name, wl in WORKLOADS.items()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25

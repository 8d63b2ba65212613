"""Benchmark of the (k,h)-core decomposition reproduction under ``src/``.

Run from the root of a checkout:

    python3 dgcbench/run.py --workload dense --seed 0 --seconds 20 --trace 0

One run builds the workload's graphs (relabelled by ``--seed``), then runs
closed-loop passes over the workload's cells until another pass would
overrun ``--seconds`` (always at least one). Every operation's output is
checked (see :func:`_Pass.check`). The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, medians over passes;
with ``--trace 1`` a traced pass runs and the metrics are the per-layer
ones (see README.md for which layer moves which metric).

Driver-side times are reference seconds from :mod:`dgcbench.refclock`.
Spark modes are run and checked, but their wall times, and Spark start-up,
are per-layer metrics only: across ten runs they spread by 31% with the
machine's load, more than any end-to-end bound may allow.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"dgcbench: no repro package under {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(ROOT)]

import numpy as np  # noqa: E402

from dgcbench import spark_session  # noqa: E402
from dgcbench.refclock import RefClock  # noqa: E402
from dgcbench.tracer import Tracer, assert_untraced  # noqa: E402
from dgcbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    PINNED,
    WORKLOADS,
    core_digest,
    recipe,
    relabel,
)
from repro.clubs import (  # noqa: E402
    NodeBudgetExceeded,
    is_h_club,
    max_h_club_itdbc,
    max_h_club_with_cores,
)
from repro.core import Counter, h_lb, h_lb_ub  # noqa: E402
from repro.core.kernels import bounded_reach  # noqa: E402

SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 7, 50, 0.5
MICRO_SOURCES = 200
MICRO_REPS = 5
CLUB_NODE_BUDGET = 2_000_000
MIB = float(1 << 20)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- set-up
def setup(workload, seed: int, clock: RefClock) -> dict:
    """Build, relabel and materialise every graph, repeatedly.

    Repeats at least ``SETUP_MIN_REPS`` times and until ``SETUP_MIN_S``
    seconds have passed, at most ``SETUP_MAX_REPS`` times. Returns the
    graphs of the last repetition and the median times.
    """
    names = sorted({name for name, _ in workload.cells})
    totals, builds = [], []
    graphs: dict = {}
    t0 = time.perf_counter()
    while len(totals) < SETUP_MIN_REPS or (
        time.perf_counter() - t0 < SETUP_MIN_S and len(totals) < SETUP_MAX_REPS
    ):
        graphs = {}  # free the previous repetition's graphs first
        build: list = []
        m = clock.mark()
        graphs = _build(names, seed, clock, build)
        totals.append(clock.since(m).ref)
        builds.append(sum(r.ref for r in build))
    return {
        "graphs": graphs,
        "setup_s": statistics.median(totals),
        "graphs.build_s": statistics.median(builds),
        "graphs.adjacency_mib": sum(g.adjacency.nbytes for g, _ in graphs.values()) / MIB,
    }


def _build(names, seed: int, clock: RefClock, build: list) -> dict:
    graphs = {}
    for name in names:
        with clock.region(build):
            g0 = recipe(name)()
        g, perm = relabel(g0, seed)
        g.adjacency  # materialise the cached adjacency
        graphs[name] = (g, perm)
    return graphs


# ---------------------------------------------------------------- one pass
class _Pass:
    """One closed-loop pass over a workload's cells, with its checks."""

    def __init__(self, ctx: dict, tracer: Tracer | None = None) -> None:
        self.ctx = ctx
        self.clock: RefClock = ctx["clock"]
        self.tracer = tracer
        self.t: dict[str, float] = defaultdict(float)  # metric -> seconds
        self.layer: dict[str, float] = defaultdict(float)
        self.readings: list = []
        self.op_visits: list[int] = []
        self.visits = 0
        self.attempted = 0
        self.failures: list[str] = []

    def _op(self, label: str, fn, spark: bool = False):
        """Run one operation; return (result or None, seconds)."""
        self.attempted += 1
        try:
            if spark:
                with self.clock.paused():
                    t0 = time.perf_counter()
                    out = fn()
                    wall = time.perf_counter() - t0
                _log(f"  {label}: wall {wall:.3f} s")
                return out, wall
            m = self.clock.mark()
            out = fn()
            r = self.clock.since(m)
            self.readings.append(r)
            _log(f"  {label}: wall {r.wall:.3f} s, ref {r.ref:.3f} s, "
                 f"visits {getattr(out, 'visits', '-')}")
            return out, r.ref
        except NodeBudgetExceeded:
            self.failures.append(f"{label}: node budget exceeded")
        except Exception:
            self.failures.append(f"{label}: raised\n{traceback.format_exc()}")
        return None, 0.0

    def check(self, label: str, ok: bool, why: str) -> None:
        """Count a failed check against the operation it belongs to."""
        if not ok:
            self.failures.append(f"{label}: {why}")

    def _decompose(self, label: str, fn):
        counter = Counter()
        if self.tracer is None:
            return self._op(label, lambda: fn(counter))
        with self.tracer.decomposition(counter):
            return self._op(label, lambda: fn(counter))

    def run(self) -> "_Pass":
        ctx = self.ctx
        t0 = time.perf_counter()
        for name, h in ctx["workload"].cells:
            g, perm = ctx["graphs"][name]
            pin = PINNED[(name, h)]
            cell = f"{name} h={h}"

            for i in range(ctx["workload"].repeat):
                rep = f" #{i + 1}" if i else ""
                lb, ub, t_ub = self._driver(cell, g, h, perm, pin, rep)
            ref_core = lb.core if lb is not None else None

            if ctx["workload"].spark:
                self._spark_modes(cell, g, h, perm, pin, ref_core)
            if ctx["workload"].clubs:
                self._clubs(cell, g, h, pin, ub, t_ub)
        self.wall = time.perf_counter() - t0
        return self

    def _driver(self, cell, g, h, perm, pin, rep):
        """Driver h-LB and h-LB+UB on one cell, with their checks."""
        seed = self.ctx["seed"]
        lb, t = self._decompose(f"{cell} h-LB{rep}", lambda c: h_lb(g, h, counter=c))
        self.t["hlb_s"] += t
        ub, t_ub = self._decompose(
            f"{cell} h-LB+UB{rep}", lambda c: h_lb_ub(g, h, counter=c))
        self.t["hlbub_s"] += t_ub
        self.t["decomp_s"] += t + t_ub
        self.t["solve_s"] += t + t_ub
        for label, res, pinned_visits in (
            (f"{cell} h-LB{rep}", lb, pin["visits"][0]),
            (f"{cell} h-LB+UB{rep}", ub, pin["visits"][1]),
        ):
            if res is None:
                continue
            self.visits += res.visits
            self.op_visits.append(res.visits)
            self.check(label, core_digest(res.core, perm) == pin["core"],
                       "core vector differs from the pinned one")
            if seed == DEFAULT_SEED:
                self.check(label, res.visits == pinned_visits,
                           f"visits {res.visits} != pinned {pinned_visits}")
        if ub is not None:
            label = f"{cell} h-LB+UB{rep}"
            if lb is not None:
                self.check(label, np.array_equal(lb.core, ub.core),
                           "core differs from h-LB's")
            self.check(label, bool(np.all(ub.extra["lb2"] <= ub.core)),
                       "LB2 > core for some vertex")
            self.check(label, bool(np.all(ub.core <= ub.extra["ub"])),
                       "core > UB for some vertex")
            self.layer["hlbub.intervals"] += len(ub.extra["intervals"])
        return lb, ub, t_ub

    def _spark_modes(self, cell, g, h, perm, pin, ref_core) -> None:
        """The Spark modes of one cell. BSP (25 jobs on jazz) runs in traced
        passes only: its wall time is a per-layer metric, and leaving it out
        of untraced runs keeps the benchmark inside its time budget."""
        from repro.pregel import kh_core_bsp

        spark = self.ctx.get("spark") or _start_spark(self.ctx)
        modes = [
            ("hdeg", lambda: h_lb_ub(g, h, spark=spark, parallel="hdegree")),
            ("intervals", lambda: h_lb_ub(g, h, spark=spark, parallel="intervals")),
        ]
        if self.tracer is not None:
            modes.append(("bsp", lambda: kh_core_bsp(g, h, spark=spark)))
        for mode, fn in modes:
            label = f"{cell} spark-{mode}"
            res, t = self._op(label, fn, spark=True)
            self.layer[f"pregel.{mode}_mode_s"] += t
            if res is None:
                continue
            if ref_core is not None:
                self.check(label, np.array_equal(res.core, ref_core),
                           "core differs from the driver's")
            self.check(label, core_digest(res.core, perm) == pin["core"],
                       "core vector differs from the pinned one")
            if mode == "bsp":
                self.layer["pregel.bsp_supersteps"] += res.extra["supersteps"]
            elif mode == "intervals":
                self.layer["pregel.intervals_visits"] += res.visits

    def _clubs(self, cell, g, h, pin, dec, t_dec) -> None:
        tr = self.tracer
        span = tr.clubs if tr is not None else nullcontext
        label = f"{cell} ITDBC"
        with span():
            direct, t = self._op(label, lambda: max_h_club_itdbc(
                g, h, node_budget=CLUB_NODE_BUDGET))
        self.t["solve_s"] += t
        self.layer["clubs.direct_s"] += t
        wrapped = None
        label_w = f"{cell} A7+ITDBC"
        if dec is None:
            self.attempted += 1
            self.failures.append(f"{label_w}: no decomposition to wrap")
        else:
            with span():
                wrapped, t = self._op(label_w, lambda: max_h_club_with_cores(
                    g, h, max_h_club_itdbc, decomposition=dec,
                    node_budget=CLUB_NODE_BUDGET))
            self.t["solve_s"] += t
            self.layer["clubs.wrapped_s"] += t + t_dec
            self.layer["clubs.decomp_s"] += t_dec
        A = g.adjacency
        for label, club in ((label, direct), (label_w, wrapped)):
            if club is None:
                continue
            size = int(club.sum())
            self.check(label, size == pin["club"], f"club size {size} != {pin['club']}")
            self.check(label, is_h_club(A, club, h), "result is not an h-club")
        if direct is not None and wrapped is not None:
            self.check(label_w, int(direct.sum()) == int(wrapped.sum()),
                       "direct and wrapped club sizes differ")
        if direct is not None:
            self.layer["clubs.size"] += int(direct.sum())

    @property
    def failed(self) -> int:
        """Operations with at least one failure."""
        return len({f.split(":", 1)[0] for f in self.failures})


# ---------------------------------------------------------------- kernel microbench
def kernel_microbench(ctx: dict) -> dict:
    """``bounded_reach`` from evenly spaced sources, every vertex alive.

    Sources are chosen in the original labels and mapped through the seed's
    permutation, so every seed times the same vertices up to isomorphism.
    """
    clock = ctx["clock"]
    calls = visits = 0
    seconds = 0.0
    for name, h in sorted(set(ctx["workload"].cells)):
        g, perm = ctx["graphs"][name]
        A = g.adjacency
        alive = np.ones(g.n, dtype=bool)
        orig = np.unique(np.linspace(0, g.n - 1, MICRO_SOURCES).astype(np.int64))
        sources = [int(v) for v in perm[orig]]
        reps = []
        for _ in range(MICRO_REPS):
            c = Counter()
            m = clock.mark()
            for v in sources:
                bounded_reach(A, v, alive, h, c)
            reps.append(clock.since(m).ref)
        seconds += statistics.median(reps)
        calls += c.bfs_calls
        visits += c.visits
    return {
        "kernels.reach_us": seconds / calls * 1e6,
        "kernels.visits_per_call": visits / calls,
        "kernels.ns_per_visit": seconds / max(visits, 1) * 1e9,
    }


# ---------------------------------------------------------------- metrics
END_TO_END_UNITS = {
    "decomp_s": "s", "hlb_s": "s", "hlbub_s": "s", "solve_s": "s",
    "visits": "count", "setup_s": "s", "peak_rss_mib": "MiB", "passed_frac": "frac",
}

PER_LAYER_UNITS = {
    "graphs.build_s": "s", "graphs.adjacency_mib": "MiB",
    "kernels.bfs_calls": "count", "kernels.share": "frac",
    "kernels.decomp_visits_per_call": "visits/call",
    "kernels.reach_us": "us", "kernels.visits_per_call": "visits/call",
    "kernels.ns_per_visit": "ns",
    **{f"phase.{p}.{k}": u for p in ("hdeg0", "lb", "ub", "improve_lb", "peel")
       for k, u in (("self_s", "s"), ("visits", "count"), ("bfs_calls", "count"))},
    "peel.bfs_per_peel": "calls/peel",
    "hlbub.intervals": "count", "hlbub.vk_before": "count", "hlbub.vk_after": "count",
    "pregel.hdeg_mode_s": "s", "pregel.intervals_mode_s": "s", "pregel.bsp_mode_s": "s",
    "pregel.spark_calls": "count", "pregel.spark_s": "s", "pregel.driver_s": "s",
    "pregel.broadcasts": "count", "pregel.broadcast_mib": "MiB",
    "pregel.broadcasts_live": "count", "pregel.bsp_supersteps": "count",
    "pregel.intervals_visits": "count", "pregel.session_start_s": "s",
    "pregel.warmup_s": "s",
    "clubs.direct_s": "s", "clubs.wrapped_s": "s", "clubs.bfs_calls": "count",
    "clubs.decomp_share": "frac", "clubs.size": "count",
    "trace.overhead": "frac", "trace.phase_coverage": "frac",
    "clock.speed": "frac",
}


def end_to_end(ctx: dict, passes: list[_Pass], attempted: int, failed: int) -> dict:
    def med(key):
        return statistics.median(p.t[key] for p in passes)

    return {
        "decomp_s": med("decomp_s"),
        "hlb_s": med("hlb_s"),
        "hlbub_s": med("hlbub_s"),
        "solve_s": med("solve_s"),
        "visits": statistics.median(p.visits for p in passes),
        "setup_s": ctx["setup"]["setup_s"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": 1.0 - failed / attempted,
    }


def per_layer(ctx: dict, base: _Pass, traced: _Pass, tracer: Tracer,
              micro: dict) -> tuple[dict, dict]:
    """Per-layer values and, for those the workload cannot give, why."""
    st = tracer.stats
    raw = sum(r.raw for r in traced.readings)
    speed = sum(r.ref for r in traced.readings) / raw if raw else 1.0
    out = {
        "graphs.build_s": ctx["setup"]["graphs.build_s"],
        "graphs.adjacency_mib": ctx["setup"]["graphs.adjacency_mib"],
        "kernels.bfs_calls": st["kernels.bfs_calls"],
        "kernels.share": st["kernels.s"] / st["decomp.s"] if st["decomp.s"] else 0.0,
        "kernels.decomp_visits_per_call": traced.visits / max(st["kernels.bfs_calls"], 1),
        **micro,
        "peel.bfs_per_peel": st["phase.peel.bfs_calls"] / max(st["peel.peels"], 1),
        "hlbub.intervals": traced.layer["hlbub.intervals"],
        "hlbub.vk_before": st["hlbub.vk_before"],
        "hlbub.vk_after": st["hlbub.vk_after"],
        "trace.overhead": sum(r.ref for r in traced.readings[:len(base.readings)])
        / sum(r.ref for r in base.readings) - 1.0,
        "trace.phase_coverage": st["decomp.phase_s"] / st["decomp.s"],
        "clock.speed": speed,
    }
    for p in ("hdeg0", "lb", "ub", "improve_lb", "peel"):
        out[f"phase.{p}.self_s"] = st[f"phase.{p}.self_s"] * speed
        out[f"phase.{p}.visits"] = st[f"phase.{p}.visits"]
        out[f"phase.{p}.bfs_calls"] = st[f"phase.{p}.bfs_calls"]
    missing = {}
    wl = ctx["workload"]
    pregel = [k for k in PER_LAYER_UNITS if k.startswith("pregel.")]
    clubs = [k for k in PER_LAYER_UNITS if k.startswith("clubs.")]
    if wl.spark:
        modes = sum(traced.layer[f"pregel.{m}_mode_s"] for m in ("hdeg", "intervals", "bsp"))
        out.update({
            "pregel.hdeg_mode_s": traced.layer["pregel.hdeg_mode_s"],
            "pregel.intervals_mode_s": traced.layer["pregel.intervals_mode_s"],
            "pregel.bsp_mode_s": traced.layer["pregel.bsp_mode_s"],
            "pregel.spark_calls": st["pregel.spark_calls"],
            "pregel.spark_s": st["pregel.spark_s"],
            "pregel.driver_s": modes - st["pregel.spark_s"],
            "pregel.broadcasts": st["pregel.broadcasts"],
            "pregel.broadcast_mib": st["pregel.broadcast_bytes"] / MIB,
            "pregel.broadcasts_live": tracer.broadcasts_live,
            "pregel.bsp_supersteps": traced.layer["pregel.bsp_supersteps"],
            "pregel.intervals_visits": traced.layer["pregel.intervals_visits"],
            "pregel.session_start_s": ctx["session_start_s"],
            "pregel.warmup_s": ctx["warmup_s"],
        })
    else:
        missing.update({k: "workload runs no Spark mode" for k in pregel})
    if wl.clubs:
        wrapped = traced.layer["clubs.wrapped_s"]
        out.update({
            "clubs.direct_s": traced.layer["clubs.direct_s"],
            "clubs.wrapped_s": wrapped,
            "clubs.bfs_calls": st["clubs.bfs_calls"],
            "clubs.decomp_share": traced.layer["clubs.decomp_s"] / wrapped if wrapped else 0.0,
            "clubs.size": traced.layer["clubs.size"],
        })
    else:
        missing.update({k: "workload solves no h-club" for k in clubs})
    for k in missing:
        out[k] = 0
    return out, missing


# ---------------------------------------------------------------- main
def _passes(ctx: dict, seconds: float) -> list[_Pass]:
    """Closed loop: start another pass only while it fits in ``seconds``."""
    passes: list[_Pass] = []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        assert_untraced()
        p = _Pass(ctx).run()
        passes.append(p)
        longest = max(longest, p.wall)
        if time.perf_counter() - t0 + longest > seconds:
            return passes


def _start_spark(ctx: dict):
    """Start the session and warm it up, outside every timed region.

    The first pass starts it just before its first Spark mode, so no JVM
    runs beside the driver decompositions before it. The warm-up runs the
    mapInPandas and applyInPandas paths once, which starts the Python
    workers.
    """
    from repro.pregel import h_degrees_spark

    with ctx["clock"].paused():
        t0 = time.perf_counter()
        spark = spark_session.start(
            WORKDIR, min(4, os.cpu_count() or 1), [str(SRC), str(ROOT)])
        ctx["spark"] = spark
        ctx["session_start_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        for name, h in ctx["workload"].cells:
            g, _ = ctx["graphs"][name]
            h_degrees_spark(spark, g.adjacency, np.ones(g.n, dtype=bool), h)
            h_lb_ub(g, h, spark=spark, parallel="intervals")
        ctx["warmup_s"] = time.perf_counter() - t0
    return spark


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    clock = RefClock()
    ctx: dict = {"workload": wl, "seed": args.seed, "clock": clock}
    with clock:
        ctx["setup"] = setup(wl, args.seed, clock)
        ctx["graphs"] = ctx["setup"]["graphs"]
        try:
            if args.trace:
                # The untraced baseline for trace.overhead is the first
                # cell's driver decompositions, which open the traced pass.
                assert_untraced()
                first = replace(wl, cells=wl.cells[:1], spark=False, clubs=False)
                base = _Pass({**ctx, "workload": first}).run()
                if wl.spark:  # before tracing, so the warm-up is not traced
                    _start_spark(ctx)
                tracer = Tracer(clock)
                with tracer:
                    traced = _Pass(ctx, tracer).run()
                assert_untraced()
                passes = [base, traced]
                metrics, missing = per_layer(ctx, base, traced, tracer,
                                             kernel_microbench(ctx))
                units = PER_LAYER_UNITS
            else:
                passes = _passes(ctx, args.seconds)
                missing = {}
        finally:
            if ctx.get("spark") is not None:
                with clock.paused():
                    spark_session.stop(ctx["spark"])
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = sum(p.failed for p in passes)
    if len(passes) > 1:  # one more operation: visits repeat across passes
        attempted += 1
        k = len(passes[0].op_visits)
        if any(p.op_visits[:k] != passes[0].op_visits for p in passes):
            failures.append("visits differ between passes of one seed")
            failed += 1
    if not args.trace:
        metrics = end_to_end(ctx, passes, attempted, failed)
        units = END_TO_END_UNITS
    for f in failures:
        _log(f"FAILED {f}")
    _log(f"{args.workload} seed={args.seed} passes={len(passes)} "
         f"pass_wall_s={[round(p.wall, 2) for p in passes]}")
    if missing:
        print(json.dumps({"missing": missing}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Run the simulator's performance gates and archive what they measure.

Every gate is one row of :data:`GATES`: a name, a ``measure(args)``
function returning a flat metrics dict, and checks on that dict, each
``(metric, "<=" | ">=", bound)``.  ``main`` runs every row
(``--only``/``--skip NAME`` select among them), prints its metrics and
one ``FAIL <gate>: <metric> = <value>, needs <op> <bound>`` line per
missed check, and exits 1 when any check missed.  The overhead rows
keep the paper's promise for MAGNET, that a disabled probe has a
negligible effect, for this repository's own hooks.

``engine-microbench`` archives the pytest-benchmark run of
``benchmarks/test_bench_simulator.py`` as
``benchmarks/results/BENCH_<rev>.json``; every other row merges its
metrics into that archive, when it exists, under
``repro_metrics.<gate>``, and ``lint`` also sets ``lint_clean``.
Per-layer simulator throughput (events, ns/event, transmit-train size)
comes from ``perfbench/run.py --trace 1``; output bit-identity from the
golden digests in ``tests/golden``.

Usage::

    python scripts/bench_compare.py                   # every gate
    python scripts/bench_compare.py --only fabric     # one gate
    python scripts/bench_compare.py --skip engine-microbench --skip cache
    python scripts/bench_compare.py --baseline benchmarks/results/BENCH_abc1234.json
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import pathlib
import subprocess
import sys
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS_DIR = ROOT / "benchmarks" / "results"
#: A ``test_engine_*`` best round may be this much slower than baseline.
ENGINE_BOUND = 0.20

# The measure functions import the in-tree package lazily.
sys.path.insert(0, str(SRC))

Metrics = Dict[str, Any]


class Gate(NamedTuple):
    """One benchmark gate: what it measures and the bounds it must meet."""

    name: str
    measure: Callable[[argparse.Namespace], Metrics]
    checks: Tuple[Tuple[str, str, float], ...]


_OPS = {"<=": operator.le, ">=": operator.ge}


def _subprocess_env(**knobs: str) -> Dict[str, str]:
    """This process's environment plus ``knobs``, with ``src`` importable."""
    env = dict(os.environ, **knobs)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def git_rev() -> str:
    """Short revision of the working tree (``-dirty`` when modified)."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("-dirty" if dirty else "")


def best_of(variants: Dict[str, Callable[[], float]],
            repeats: int) -> Dict[str, float]:
    """Best wall time per variant over ``repeats`` interleaved rounds.

    Each round runs every variant once, so machine drift hits all
    variants alike; the minimum estimates each variant's cost with the
    least scheduling noise.
    """
    best = {name: float("inf") for name in variants}
    for _ in range(repeats):
        for name, run in variants.items():
            best[name] = min(best[name], run())
    return best


def nttcp_transfer(count: int) -> float:
    """Wall time to build a jumbo-frame back-to-back pair and send
    ``count`` nttcp segments over it: the reference transfer."""
    from repro.config import TuningConfig
    from repro.net.topology import BackToBack
    from repro.sim.engine import Environment
    from repro.tcp.connection import TcpConnection
    from repro.tools.nttcp import nttcp_run

    start = perf_counter()
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
    conn = TcpConnection(env, bb.a, bb.b)
    nttcp_run(env, conn, payload=8948, count=count)
    return perf_counter() - start


def overheads(times: Dict[str, float]) -> Metrics:
    """Variant times plus ``<variant>_overhead`` relative to ``baseline``."""
    metrics: Metrics = dict(times)
    for variant, t in times.items():
        if variant != "baseline":
            metrics[f"{variant}_overhead"] = t / times["baseline"] - 1.0
    return metrics


def run_benchmarks(out_path: pathlib.Path) -> None:
    """Run the simulator pytest-benchmarks, writing their JSON report to
    ``out_path``."""
    cmd = [sys.executable, "-m", "pytest",
           "benchmarks/test_bench_simulator.py", "--benchmark-only",
           f"--benchmark-json={out_path}", "-q"]
    print(f"$ {' '.join(cmd)}")
    result = subprocess.run(cmd, cwd=ROOT, env=_subprocess_env())
    if result.returncode != 0:
        raise SystemExit(f"benchmark run failed (exit {result.returncode})")


def load_mins(path: pathlib.Path) -> Dict[str, float]:
    """``{test name: best seconds per round}`` from a benchmark JSON.

    The *minimum* round is the robust statistic for CPU-bound
    microbenches: it estimates the true cost with the least scheduling
    noise, where the mean is inflated arbitrarily by machine-load
    outliers and makes the regression gate flaky.
    """
    data = json.loads(path.read_text())
    return {bench["name"]: bench["stats"]["min"]
            for bench in data.get("benchmarks", [])}


def previous_report(current: pathlib.Path) -> Optional[pathlib.Path]:
    """The most recently *recorded* other ``BENCH_*.json`` beside ``current``.

    Ranked by the archive's own pytest-benchmark ``datetime`` field, not
    by file mtime: a git checkout stamps every file with checkout time.
    """
    candidates = [p for p in current.parent.glob("BENCH_*.json")
                  if p != current]
    return max(candidates, default=None,
               key=lambda p: json.loads(p.read_text()).get("datetime", ""))


def engine_deltas(old: Dict[str, float], new: Dict[str, float]) -> float:
    """Print the per-bench diff; return the worst ``test_engine_*`` delta."""
    worst = float("-inf")
    width = max((len(n) for n in new), default=4)
    print(f"\n{'benchmark':<{width}}  {'old (s)':>12}  {'new (s)':>12}  delta")
    for name in sorted(new):
        old_min = old.get(name)
        if old_min is None or old_min <= 0:
            print(f"{name:<{width}}  {'-':>12}  {new[name]:>12.6f}  (new)")
            continue
        delta = new[name] / old_min - 1.0
        if name.startswith("test_engine_"):
            worst = max(worst, delta)
        print(f"{name:<{width}}  {old_min:>12.6f}  {new[name]:>12.6f}  "
              f"{delta:+7.1%}")
    return worst


def measure_engine_microbench(args: argparse.Namespace) -> Metrics:
    """Archive the pytest-benchmark run; diff it against the baseline."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / f"BENCH_{args.rev}.json"
    run_benchmarks(out_path)
    new = load_mins(out_path)
    print(f"\nwrote {out_path} ({len(new)} benchmarks)")
    baseline = args.baseline or previous_report(out_path)
    if baseline is None:
        print("no previous BENCH_*.json; baseline recorded.")
        return {}
    old = load_mins(baseline)
    worst = engine_deltas(old, new)
    confirmed = worst > ENGINE_BOUND
    if confirmed:
        # One confirmation pass before failing: on a shared/virtual box
        # the best round of a single run still jitters by tens of
        # percent, so a real regression must survive the min of two
        # independent suite runs.
        print(f"\npossible regression ({worst:+.1%}); rerunning once "
              f"to confirm...")
        confirm_path = out_path.with_suffix(".confirm.json")
        run_benchmarks(confirm_path)
        for name, best in load_mins(confirm_path).items():
            new[name] = min(new.get(name, best), best)
        confirm_path.unlink()
        worst = engine_deltas(old, new)
    return {"baseline": baseline.name, "confirmation_rerun": confirmed,
            "engine_worst_delta": worst}


def measure_trace_overhead(args: argparse.Namespace,
                           repeats: int) -> Metrics:
    """The engine hot path untraced vs guarded-disabled vs enabled.

    A generator process does four pooled-timeout yields per guarded
    trace post (roughly the post density of the TCP pump).  Variants:
    ``baseline`` has no trace code at all; ``disabled`` guards each post
    with ``if trace.enabled`` on a disabled buffer (what every default
    run pays; gated); ``enabled`` records the posts.
    """
    from repro.sim.engine import Environment
    from repro.sim.trace import TraceBuffer

    events = 50_000

    def untraced(env: Environment):
        timeout = env._fast_timeout
        for _ in range(events):
            yield timeout(1e-6)
            yield timeout(1e-6)
            yield timeout(1e-6)
            yield timeout(1e-6)

    def traced(env: Environment, trace: TraceBuffer):
        timeout = env._fast_timeout
        for i in range(events):
            yield timeout(1e-6)
            yield timeout(1e-6)
            yield timeout(1e-6)
            yield timeout(1e-6)
            if trace.enabled:
                trace.post(env.now, "bench.tick", i, qlen=i)

    def timed(variant: str) -> float:
        env = Environment()
        if variant == "baseline":
            env.process(untraced(env), name="bench.untraced")
        else:
            trace = TraceBuffer(max_events=events,
                                enabled=(variant == "enabled"))
            env.process(traced(env, trace), name="bench.traced")
        start = perf_counter()
        env.run()
        return perf_counter() - start

    return overheads(best_of({v: partial(timed, v) for v in
                              ("baseline", "disabled", "enabled")}, repeats))


def measure_chaos_overhead(args: argparse.Namespace,
                           repeats: int) -> Metrics:
    """The reference transfer with the chaos hooks bypassed vs idle.

    Each variant times topology construction + a 256-segment transfer:
    ``baseline`` with every hook short-circuited (``hooks._BYPASS``, as
    close to compiled-out as a live process gets); ``disabled`` on the
    no-plan path every default run pays (gated); ``empty_plan`` under an
    activated but empty ``FaultPlan``.
    """
    from repro.chaos import FaultPlan, chaos_session, hooks

    def bypassed() -> float:
        hooks._BYPASS = True
        try:
            return nttcp_transfer(256)
        finally:
            hooks._BYPASS = False

    def empty_plan() -> float:
        with chaos_session(FaultPlan()):
            return nttcp_transfer(256)

    return overheads(best_of({"baseline": bypassed,
                              "disabled": partial(nttcp_transfer, 256),
                              "empty_plan": empty_plan}, repeats))


def measure_stream_overhead(args: argparse.Namespace,
                            repeats: int) -> Metrics:
    """The reference transfer with and without an idle telemetry bus.

    Each variant times topology construction + a 256-segment transfer
    under ``telemetry_session(trace=True)``: ``baseline`` with no bus;
    ``idle_bus`` with a bus nobody subscribes to (what every
    ``--serve``-capable build pays when nobody watches; gated); ``ring``
    with one ring subscriber (the price of live streaming).
    """
    from repro.telemetry import TelemetryBus, telemetry_session

    def timed(variant: str) -> float:
        bus = None if variant == "baseline" else TelemetryBus()
        sub = bus.subscribe("bench") if variant == "ring" else None
        try:
            with telemetry_session(trace=True, bus=bus):
                return nttcp_transfer(256)
        finally:
            if sub is not None:
                sub.close()

    return overheads(best_of({v: partial(timed, v) for v in
                              ("baseline", "idle_bus", "ring")}, repeats))


def measure_fabric(args: argparse.Namespace) -> Metrics:
    """Hybrid fluid+DES fabric: accuracy on a small fabric, speed on a big one.

    Validation runs a k=4 fat-tree incast (8 foreground + 32 background
    flows) hybrid and all-DES; tractability runs a 1024-flow incast on a
    k=8 fat-tree hybrid (its all-DES equivalent is out of reach) and
    reports the host seconds of it spent inside the fluid kernel,
    ``FluidFabric.step``, timed by a wrapper installed for that run.
    """
    from repro.net.fabric import build_fat_tree
    from repro.net.hybrid import FabricSimulation, incast_pairs
    from repro.tcp.fluid import FluidFabric

    small = build_fat_tree(4)
    pairs = incast_pairs(small, 40)
    des = FabricSimulation(small, pairs, n_foreground=8,
                           mode="des").run(duration_s=0.1)
    hyb = FabricSimulation(small, pairs, n_foreground=8,
                           mode="hybrid").run(duration_s=0.1)
    rel_err = (abs(hyb.aggregate_goodput_bps - des.aggregate_goodput_bps)
               / des.aggregate_goodput_bps)
    big = build_fat_tree(8)
    step = FluidFabric.step
    step_s = 0.0

    def timed_step(fluid: FluidFabric, dt: float) -> None:
        nonlocal step_s
        start = perf_counter()
        try:
            step(fluid, dt)
        finally:
            step_s += perf_counter() - start

    FluidFabric.step = timed_step
    try:
        scale = FabricSimulation(big, incast_pairs(big, 1024),
                                 n_foreground=8,
                                 mode="hybrid").run(duration_s=0.2)
    finally:
        FluidFabric.step = step
    return {
        "validation_des_gbps": des.aggregate_goodput_gbps,
        "validation_hybrid_gbps": hyb.aggregate_goodput_gbps,
        "validation_rel_err": rel_err,
        "validation_des_wall_s": des.wall_s,
        "validation_hybrid_wall_s": hyb.wall_s,
        "incast1024_gbps": scale.aggregate_goodput_gbps,
        "incast1024_wall_s": scale.wall_s,
        "incast1024_fluid_step_s": step_s,
        "incast1024_events": float(scale.events_scheduled),
        "incast1024_coupler_ticks": float(scale.coupler_ticks),
    }


_SWEEP_DRIVER = r"""
import hashlib, json, sys, time
from repro.analysis.experiments import run_experiment
t0 = time.perf_counter()
data = run_experiment(sys.argv[1], quick=True).data
wall = time.perf_counter() - t0
# default=str renders dataclass reprs, which print floats at full repr
# precision, so hashing the dump is a bit-identity check.
blob = json.dumps(data, sort_keys=True, default=str)
json.dump({"wall": wall,
           "sha": hashlib.sha256(blob.encode()).hexdigest()}, sys.stdout)
"""


def measure_cache(args: argparse.Namespace) -> Metrics:
    """Warm vs cold result cache on the Fig. 3 quick sweep.

    Runs ``fig3`` (quick) in fresh subprocesses against a throwaway
    cache directory: once cold, then warm (best of 2).  Warm and cold
    must hash to the same data.  Also records the per-entry disk-tier
    ``get()`` median over every stored key, through a fresh handle so
    the in-process hot tier cannot flatter it.
    """
    import statistics
    import tempfile

    from repro.cache import ResultCache

    with tempfile.TemporaryDirectory(prefix="repro-cache-bench-") as tmp:
        cache_dir = os.path.join(tmp, "cache")

        def run_once() -> Dict[str, Any]:
            proc = subprocess.run(
                [sys.executable, "-c", _SWEEP_DRIVER, "fig3"], cwd=ROOT,
                env=_subprocess_env(REPRO_CACHE="1",
                                    REPRO_CACHE_DIR=cache_dir),
                capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"cache run failed:\n{proc.stderr[-2000:]}")
            return json.loads(proc.stdout)

        cold = run_once()
        warm = [run_once() for _ in range(2)]
        warm_wall = min(w["wall"] for w in warm)

        store = ResultCache(cache_dir)
        keys = store.keys()
        latencies = []
        for key in keys:
            start = perf_counter()
            hit, _ = store.get(key)
            latencies.append(perf_counter() - start)
            if not hit:
                raise SystemExit(f"cache: stored key {key} did not read back")
        p50_ms = statistics.median(latencies) * 1e3 if latencies else 0.0

    return {"cold_wall_s": cold["wall"], "warm_wall_s": warm_wall,
            "warm_speedup": (cold["wall"] / warm_wall if warm_wall > 0
                             else float("inf")),
            "bit_identical": all(w["sha"] == cold["sha"] for w in warm),
            "entries": float(len(keys)), "warm_get_p50_ms": p50_ms}


def measure_lint(args: argparse.Namespace) -> Metrics:
    """reprolint over ``src/repro`` against the committed baseline."""
    from repro.lint import lint_paths, load_baseline

    baseline_path = ROOT / "reprolint-baseline.json"
    baseline = (load_baseline(baseline_path)
                if baseline_path.is_file() else None)
    result = lint_paths([SRC / "repro"], baseline=baseline)
    for finding in result.findings:
        print(finding.render())
    return {"files": result.files,
            "new_findings": len(result.findings),
            "baselined": len(result.baselined),
            "suppressed_inline": result.suppressed}


#: Every gate, in run order.  docs/PERFORMANCE.md records the same-tree
#: spread each overhead row's best-of round count gives.
GATES: Tuple[Gate, ...] = (
    Gate("engine-microbench", measure_engine_microbench,
         (("engine_worst_delta", "<=", ENGINE_BOUND),)),
    Gate("trace-overhead", partial(measure_trace_overhead, repeats=30),
         (("disabled_overhead", "<=", 0.03),)),
    Gate("chaos-overhead", partial(measure_chaos_overhead, repeats=350),
         (("disabled_overhead", "<=", 0.02),)),
    Gate("stream-overhead", partial(measure_stream_overhead, repeats=150),
         (("idle_bus_overhead", "<=", 0.03),)),
    Gate("fabric", measure_fabric,
         (("validation_rel_err", "<=", 0.05),
          ("incast1024_wall_s", "<=", 60.0))),
    Gate("cache", measure_cache,
         (("warm_speedup", ">=", 10.0), ("bit_identical", ">=", 1))),
    Gate("lint", measure_lint, (("new_findings", "<=", 0),)),
)


def _fmt(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def failed_checks(gate: Gate, metrics: Metrics) -> List[str]:
    """Print each check's verdict; return a ``FAIL`` line per miss."""
    failures = []
    for metric, op, bound in gate.checks:
        if metric not in metrics:
            print(f"skip {gate.name}: {metric} not measured")
            continue
        verdict = (f"{gate.name}: {metric} = {_fmt(metrics[metric])}, "
                   f"needs {op} {bound}")
        if _OPS[op](metrics[metric], bound):
            print(f"ok   {verdict}")
        else:
            failures.append(f"FAIL {verdict}")
            print(failures[-1])
    return failures


def record(out_path: pathlib.Path, gate: str, metrics: Metrics) -> None:
    """Merge ``metrics`` into the archive under ``repro_metrics.<gate>``."""
    if not out_path.is_file():
        return
    data = json.loads(out_path.read_text())
    data.setdefault("repro_metrics", {})[gate] = metrics
    if gate == "lint":
        data["lint_clean"] = metrics["new_findings"] == 0
    out_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    names = [gate.name for gate in GATES]
    parser = argparse.ArgumentParser(
        description="Run the benchmark gates, archive BENCH_<rev>.json, "
                    "exit 1 when a gate misses a bound.")
    parser.add_argument("--only", action="append", choices=names,
                        default=[], help="run only this gate (repeatable)")
    parser.add_argument("--skip", action="append", choices=names,
                        default=[], help="skip this gate (repeatable)")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="BENCH_*.json to diff against (default: the "
                             "most recently recorded other one)")
    parser.add_argument("--rev", default=None,
                        help="revision label for BENCH_<rev>.json "
                             "(default: git short rev)")
    args = parser.parse_args(argv)
    args.rev = args.rev or git_rev()

    failures: List[str] = []
    for gate in GATES:
        if gate.name in args.skip or (args.only
                                      and gate.name not in args.only):
            continue
        print(f"\n== {gate.name}")
        metrics = gate.measure(args)
        for metric, value in metrics.items():
            print(f"  {metric:<28} {_fmt(value)}")
        record(RESULTS_DIR / f"BENCH_{args.rev}.json", gate.name, metrics)
        failures += failed_checks(gate, metrics)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

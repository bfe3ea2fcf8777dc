#!/usr/bin/env python
"""Run the simulator microbenchmarks and gate on regressions.

Runs the pytest-benchmark suite (the engine microbenches by default),
archives the machine-readable results as
``benchmarks/results/BENCH_<rev>.json`` and diffs them against the most
recent previous ``BENCH_*.json``.  Exits non-zero when any engine
microbench (``test_engine_*``) regresses by more than the threshold
(default 20% on best time per round), so CI — or a pre-merge habit —
catches simulator slowdowns the same way the tests catch wrong numbers.

Also measures the *tracing overhead*: the cost the disabled-by-default
instrumentation (guarded ``TraceBuffer.post`` calls) adds to the engine
hot path.  The run fails when the disabled-tracing path is more than
``--trace-threshold`` (default 3%) slower than an untraced baseline —
the "negligible effect" property the paper claims for MAGNET, kept
honest by CI.

The same discipline covers the chaos engine: a run with no fault plan
loaded must cost within ``--chaos-threshold`` (default 2%) of a run
with every chaos hook bypassed, measured on the reference nttcp
transfer and recorded into the archived JSON (under
``repro_metrics.chaos_overhead``).

And the streaming layer: a telemetry session carrying an idle
(no-subscriber) :class:`TelemetryBus` must cost within
``--stream-threshold`` (default 3%) of the same session with no bus at
all, measured on the reference transfer and recorded under
``repro_metrics.stream_overhead`` (``--stream-overhead-only`` runs
just this gate).

The result cache has a warm/cold gate too (``--cache-only`` runs just
this): the Fig. 3 quick sweep against a throwaway cache directory must
run at least ``--cache-speedup`` (default 10x) faster warm than cold,
produce bit-identical data, and the per-entry disk-tier ``get()`` p50
is recorded (under ``repro_metrics.cache``).

Beyond the pytest-benchmark suite the script also records simulator
metrics into the archived JSON (under ``repro_metrics``):

- events-simulated/sec and the mean transmit-train size on the
  reference nttcp workload,
- with ``--figure-sweep``, the Fig. 3 MTU sweep + WAN benchmark wall
  times for the legacy vs the batched data path, their speedup, and a
  bit-identical cross-check of the experiment data.

Finally, ``--lint-clean`` runs reprolint (``python -m repro.lint``, see
docs/LINTING.md) over ``src/repro`` against the committed baseline and
stamps the verdict into the archived record (top-level ``lint_clean``
plus details under ``repro_metrics.lint``) — performance baselines are
only trusted from lint-clean trees.

Usage::

    python scripts/bench_compare.py                 # engine microbenches
    python scripts/bench_compare.py --all           # every benchmark
    python scripts/bench_compare.py --baseline benchmarks/results/BENCH_abc1234.json
    python scripts/bench_compare.py --threshold 0.10
    python scripts/bench_compare.py --trace-overhead-only
    python scripts/bench_compare.py --figure-sweep  # + data-path bench
    python scripts/bench_compare.py --lint-clean    # reprolint gate + stamp
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_DIR = ROOT / "benchmarks" / "results"
ENGINE_PREFIX = "test_engine_"


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


def run_benchmarks(out_path: pathlib.Path, everything: bool) -> None:
    """Run pytest-benchmark, writing its JSON report to ``out_path``."""
    target = "benchmarks/" if everything else "benchmarks/test_bench_simulator.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "pytest", target, "--benchmark-only",
           f"--benchmark-json={out_path}", "-q"]
    print(f"$ {' '.join(cmd)}")
    result = subprocess.run(cmd, cwd=ROOT, env=env)
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
    """The newest BENCH_*.json that is not the current one."""
    candidates = [p for p in RESULTS_DIR.glob("BENCH_*.json") if p != current]
    return max(candidates, key=lambda p: p.stat().st_mtime, default=None)


def compare(old: Dict[str, float], new: Dict[str, float],
            threshold: float) -> List[str]:
    """Print the per-bench diff; return the names that regressed."""
    regressed: List[str] = []
    width = max((len(n) for n in new), default=4)
    print(f"\n{'benchmark':<{width}}  {'old (s)':>12}  {'new (s)':>12}  delta")
    for name in sorted(new):
        new_mean = new[name]
        old_mean = old.get(name)
        if old_mean is None or old_mean <= 0:
            print(f"{name:<{width}}  {'-':>12}  {new_mean:>12.6f}  (new)")
            continue
        delta = new_mean / old_mean - 1.0
        flag = ""
        if name.startswith(ENGINE_PREFIX) and delta > threshold:
            regressed.append(name)
            flag = "  REGRESSION"
        print(f"{name:<{width}}  {old_mean:>12.6f}  {new_mean:>12.6f}  "
              f"{delta:+7.1%}{flag}")
    return regressed


def measure_engine_metrics() -> Dict[str, float]:
    """Events-simulated/sec and mean train size on the reference workload.

    Runs the same end-to-end TCP workload as the
    ``test_tcp_segment_rate`` microbench (jumbo-frame nttcp over a
    back-to-back pair) and reports throughput of the *simulator itself*:
    total events scheduled, wall time, events/sec, and the mean number
    of frames per transmit train (1.0 when ``REPRO_TRAIN`` batching is
    off, larger when the sender is emitting back-to-back bursts as one
    scheduled unit).
    """
    sys.path.insert(0, str(ROOT / "src"))
    from time import perf_counter

    from repro.config import TuningConfig
    from repro.net.topology import BackToBack
    from repro.sim.engine import Environment
    from repro.tcp.connection import TcpConnection
    from repro.tools.nttcp import nttcp_run

    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
    conn = TcpConnection(env, bb.a, bb.b)
    start = perf_counter()
    result = nttcp_run(env, conn, payload=8948, count=512)
    wall = perf_counter() - start
    nic = bb.a.adapters[0]
    return {
        "wall_s": wall,
        "events_scheduled": float(env.events_scheduled),
        "events_per_sec": env.events_scheduled / wall,
        "mean_train_size": nic.mean_train_size(),
        "segments": 512.0,
        "bytes_delivered": float(result.bytes_delivered),
    }


_SWEEP_DRIVER = r"""
import hashlib, json, sys, time
from repro.analysis.experiments import run_experiment
t0 = time.perf_counter()
data = run_experiment(sys.argv[1], quick=True).data
wall = time.perf_counter() - t0
# default=str renders dataclass reprs, which print floats at full repr
# precision — hashing the dump is a bit-identity check.
blob = json.dumps(data, sort_keys=True, default=str)
json.dump({"wall": wall,
           "sha": hashlib.sha256(blob.encode()).hexdigest()}, sys.stdout)
"""


def measure_figure_sweep(repeats: int = 2) -> Dict[str, object]:
    """Figure-sweep speedup: batched vs legacy data path.

    Runs the Fig. 3 MTU sweep and the WAN benchmark (quick mode) with
    train batching off (the per-segment path) and on, and reports wall
    times, the speedup, and whether the two variants produced
    bit-identical experiment data (the determinism contract: batching
    is a pure performance knob).

    Each run happens in a fresh subprocess (the knob is captured at
    component construction, and a cold interpreter is how experiments
    actually run); variants are interleaved best-of-``repeats`` so
    machine drift hits both alike.
    """
    variants = {
        "legacy": {"REPRO_TRAIN": "0"},
        "batched": {"REPRO_TRAIN": "1"},
    }
    experiments = ("fig3", "wan")

    def run_one(exp: str, knobs: Dict[str, str]) -> Dict[str, object]:
        env = dict(os.environ, **knobs)
        env["PYTHONPATH"] = (str(ROOT / "src") + os.pathsep
                             + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP_DRIVER, exp],
            cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"figure-sweep run failed ({exp}, {knobs}):\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout)

    walls: Dict[str, Dict[str, float]] = {n: {} for n in variants}
    shas: Dict[str, Dict[str, str]] = {n: {} for n in variants}
    for _ in range(repeats):
        for exp in experiments:
            for name, knobs in variants.items():
                result = run_one(exp, knobs)
                prev = walls[name].get(exp, float("inf"))
                walls[name][exp] = min(prev, result["wall"])
                shas[name][exp] = result["sha"]
    report: Dict[str, object] = {"experiments": "fig3+wan (quick)"}
    total = {n: sum(walls[n].values()) for n in variants}
    for exp in experiments:
        report[exp] = {
            "wall_legacy_s": walls["legacy"][exp],
            "wall_batched_s": walls["batched"][exp],
            "speedup": walls["legacy"][exp] / walls["batched"][exp],
            "bit_identical": shas["legacy"][exp] == shas["batched"][exp],
        }
    report["wall_legacy_s"] = total["legacy"]
    report["wall_batched_s"] = total["batched"]
    report["speedup"] = total["legacy"] / total["batched"]
    report["bit_identical"] = all(report[e]["bit_identical"]
                                  for e in experiments)
    return report


def measure_lint_clean() -> Dict[str, object]:
    """Run reprolint over ``src/repro`` against the committed baseline.

    Returns the verdict metrics; any new findings are printed so the
    log shows *why* a tree is not lint-clean.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.lint import lint_paths, load_baseline
    baseline_path = ROOT / "reprolint-baseline.json"
    baseline = (load_baseline(baseline_path)
                if baseline_path.is_file() else None)
    result = lint_paths([ROOT / "src" / "repro"], baseline=baseline)
    for finding in result.findings:
        print(finding.render())
    print(f"reprolint: {'clean' if result.ok else 'FAIL'} — "
          f"{len(result.findings)} new finding(s) in "
          f"{result.files} file(s)")
    return {"clean": result.ok, "files": result.files,
            "new_findings": len(result.findings),
            "baselined": len(result.baselined),
            "suppressed_inline": result.suppressed}


def stamp_lint_clean(out_path: pathlib.Path,
                     metrics: Dict[str, object]) -> None:
    """Stamp the reprolint verdict into the archived BENCH JSON."""
    data = json.loads(out_path.read_text())
    data["lint_clean"] = bool(metrics["clean"])
    data.setdefault("repro_metrics", {})["lint"] = metrics
    out_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def record_extra_metrics(out_path: pathlib.Path,
                         metrics: Dict[str, Dict]) -> None:
    """Merge the simulator metrics into the archived BENCH JSON."""
    data = json.loads(out_path.read_text())
    data.setdefault("repro_metrics", {}).update(metrics)
    out_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def measure_trace_overhead(repeats: int = 5,
                           events: int = 50_000) -> Dict[str, float]:
    """Time the engine hot path untraced vs guarded-disabled vs enabled.

    The workload mirrors the instrumented simulation loops: a generator
    process doing four pooled-timeout yields per guarded trace post
    (roughly the post density of the TCP pump).  Returns the best-of-
    ``repeats`` wall time per variant:

    - ``baseline``  — no trace code at all,
    - ``disabled``  — ``if trace.enabled: trace.post(...)`` with a
      disabled buffer (what every default run pays),
    - ``enabled``   — the same posts actually recording.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from time import perf_counter

    from repro.sim.engine import Environment
    from repro.sim.trace import TraceBuffer

    def untraced(env: "Environment"):
        timeout = env._fast_timeout
        for _ in range(events):
            yield timeout(1e-6)
            yield timeout(1e-6)
            yield timeout(1e-6)
            yield timeout(1e-6)

    def traced(env: "Environment", trace: "TraceBuffer"):
        timeout = env._fast_timeout
        for i in range(events):
            yield timeout(1e-6)
            yield timeout(1e-6)
            yield timeout(1e-6)
            yield timeout(1e-6)
            if trace.enabled:
                trace.post(env.now, "bench.tick", i, qlen=i)

    def run_variant(variant: str) -> float:
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

    variants = ("baseline", "disabled", "enabled")
    best = {v: float("inf") for v in variants}
    for _ in range(repeats):
        for v in variants:  # interleave so drift hits all variants alike
            best[v] = min(best[v], run_variant(v))
    return best


def measure_chaos_overhead(repeats: int = 5,
                           count: int = 256) -> Dict[str, float]:
    """Time a reference transfer with the chaos hooks bypassed vs idle.

    The chaos engine's contract is that a run with **no plan loaded**
    pays only ambient hook checks (one per component construction plus
    one per cache key).  Three variants, best-of-``repeats``,
    interleaved, each timing topology construction + a full nttcp
    transfer:

    - ``baseline``   — every chaos hook short-circuited (the bypass
      switch: as close to compiled-out as a live process gets),
    - ``disabled``   — the normal no-plan path every default run pays,
    - ``empty_plan`` — an activated but empty ``FaultPlan`` (must be
      byte-identical in behaviour, and near-identical in cost).
    """
    sys.path.insert(0, str(ROOT / "src"))
    from time import perf_counter

    from repro.chaos import FaultPlan, chaos_session, hooks
    from repro.config import TuningConfig
    from repro.net.topology import BackToBack
    from repro.sim.engine import Environment
    from repro.tcp.connection import TcpConnection
    from repro.tools.nttcp import nttcp_run

    def timed_transfer() -> float:
        start = perf_counter()
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
        conn = TcpConnection(env, bb.a, bb.b)
        nttcp_run(env, conn, payload=8948, count=count)
        return perf_counter() - start

    def run_variant(variant: str) -> float:
        if variant == "baseline":
            hooks._BYPASS = True
            try:
                return timed_transfer()
            finally:
                hooks._BYPASS = False
        if variant == "empty_plan":
            with chaos_session(FaultPlan()):
                return timed_transfer()
        return timed_transfer()

    variants = ("baseline", "disabled", "empty_plan")
    best = {v: float("inf") for v in variants}
    for _ in range(repeats):
        for v in variants:  # interleave so drift hits all variants alike
            best[v] = min(best[v], run_variant(v))
    return best


def check_chaos_overhead(threshold: float, repeats: int) -> tuple:
    """Gate the idle chaos hooks; returns ``(ok, times)``."""
    print(f"\nchaos-overhead bench (best of {repeats}):")
    times = measure_chaos_overhead(repeats=repeats)
    base = times["baseline"]
    for variant in ("baseline", "disabled", "empty_plan"):
        t = times[variant]
        rel = "" if variant == "baseline" else f"  {t / base - 1.0:+7.1%}"
        print(f"  {variant:<10}  {t:>10.6f} s{rel}")
    overhead = times["disabled"] / base - 1.0
    times["disabled_overhead"] = overhead
    if overhead > threshold:
        print(f"\nFAIL: idle chaos-hook overhead {overhead:+.1%} exceeds "
              f"{threshold:.0%} — no-plan runs are no longer near-free.")
        return False, times
    print(f"OK: idle chaos-hook overhead {overhead:+.1%} is within "
          f"{threshold:.0%}.")
    return True, times


def measure_stream_overhead(repeats: int = 5,
                            count: int = 256) -> Dict[str, float]:
    """Time the reference transfer with/without an idle telemetry bus.

    The streaming layer's contract is that carrying a
    :class:`TelemetryBus` with **no consumers** costs nothing beyond
    one truthiness test per would-be publish: no heartbeat tap is
    scheduled, no trace events are re-published, and the run stays
    bit-identical to a bus-less one.  Three variants,
    best-of-``repeats``, interleaved, each timing topology construction
    + a full traced nttcp transfer under a telemetry session:

    - ``baseline`` — ``telemetry_session(trace=True)``, no bus at all,
    - ``idle_bus`` — same session carrying a bus with zero consumers
      (the gated comparison: what every ``--serve``-capable build pays
      when nobody is watching),
    - ``ring``     — bus with one ring subscriber attached
      (informational: the live-streaming price when someone *is*
      watching).
    """
    sys.path.insert(0, str(ROOT / "src"))
    from time import perf_counter

    from repro.config import TuningConfig
    from repro.net.topology import BackToBack
    from repro.sim.engine import Environment
    from repro.tcp.connection import TcpConnection
    from repro.telemetry import TelemetryBus, telemetry_session
    from repro.tools.nttcp import nttcp_run

    def timed_transfer() -> float:
        start = perf_counter()
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
        conn = TcpConnection(env, bb.a, bb.b)
        nttcp_run(env, conn, payload=8948, count=count)
        return perf_counter() - start

    def run_variant(variant: str) -> float:
        bus = None
        sub = None
        if variant != "baseline":
            bus = TelemetryBus()
            if variant == "ring":
                sub = bus.subscribe("bench")
        try:
            with telemetry_session(trace=True, bus=bus):
                return timed_transfer()
        finally:
            if sub is not None:
                sub.close()

    variants = ("baseline", "idle_bus", "ring")
    best = {v: float("inf") for v in variants}
    for _ in range(repeats):
        for v in variants:  # interleave so drift hits all variants alike
            best[v] = min(best[v], run_variant(v))
    return best


def check_stream_overhead(threshold: float, repeats: int) -> tuple:
    """Gate the idle (no-consumer) streaming hooks; ``(ok, times)``."""
    print(f"\nstream-overhead bench (best of {repeats}):")
    times = measure_stream_overhead(repeats=repeats)
    base = times["baseline"]
    for variant in ("baseline", "idle_bus", "ring"):
        t = times[variant]
        rel = "" if variant == "baseline" else f"  {t / base - 1.0:+7.1%}"
        print(f"  {variant:<9}  {t:>10.6f} s{rel}")
    overhead = times["idle_bus"] / base - 1.0
    times["idle_overhead"] = overhead
    if overhead > threshold:
        print(f"\nFAIL: idle streaming-hook overhead {overhead:+.1%} "
              f"exceeds {threshold:.0%} — an unobserved bus is no "
              f"longer near-free.")
        return False, times
    print(f"OK: idle streaming-hook overhead {overhead:+.1%} is within "
          f"{threshold:.0%}.")
    return True, times


def measure_fabric_benchmark(threshold: float,
                             budget_s: float) -> tuple:
    """The hybrid fluid+DES fabric gate (see docs/FABRICS.md).

    Two checks, returned as ``(ok, metrics)``:

    - **validation** — on the small fabric the envelope covers (k=4
      fat-tree incast, 8 foreground + 32 background flows) the hybrid
      aggregate goodput must stay within ``threshold`` (default 5%) of
      the same workload run entirely in the packet DES;
    - **tractability** — a 1024-flow incast on a k=8 fat-tree must
      complete in hybrid mode within ``budget_s`` wall seconds (the
      all-DES equivalent is out of reach entirely) — the point of the
      hybrid fast path.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.net.fabric import build_fat_tree
    from repro.net.hybrid import FabricSimulation, incast_pairs

    print("\nfabric benchmark (hybrid fluid+DES):")
    small = build_fat_tree(4)
    pairs = incast_pairs(small, 40)
    des = FabricSimulation(small, pairs, n_foreground=8,
                           mode="des").run(duration_s=0.1)
    hyb = FabricSimulation(small, pairs, n_foreground=8,
                           mode="hybrid").run(duration_s=0.1)
    rel_err = (abs(hyb.aggregate_goodput_bps - des.aggregate_goodput_bps)
               / des.aggregate_goodput_bps)
    print(f"  validation (k=4 fat-tree, 8 fg + 32 bg incast):")
    print(f"    all-DES   {des.aggregate_goodput_gbps:>7.3f} Gb/s  "
          f"({des.wall_s:.2f} s wall)")
    print(f"    hybrid    {hyb.aggregate_goodput_gbps:>7.3f} Gb/s  "
          f"({hyb.wall_s:.2f} s wall)")
    print(f"    rel diff  {rel_err:>7.2%}")

    big = build_fat_tree(8)
    scale = FabricSimulation(big, incast_pairs(big, 1024),
                             n_foreground=8,
                             mode="hybrid").run(duration_s=0.2)
    print(f"  1024-flow incast (k=8 fat-tree, hybrid): "
          f"{scale.aggregate_goodput_gbps:.3f} Gb/s in "
          f"{scale.wall_s:.2f} s wall "
          f"({scale.events_scheduled:,} DES events, "
          f"{scale.coupler_ticks} coupling ticks)")

    metrics = {
        "validation_des_gbps": des.aggregate_goodput_gbps,
        "validation_hybrid_gbps": hyb.aggregate_goodput_gbps,
        "validation_rel_err": rel_err,
        "validation_des_wall_s": des.wall_s,
        "validation_hybrid_wall_s": hyb.wall_s,
        "incast1024_gbps": scale.aggregate_goodput_gbps,
        "incast1024_wall_s": scale.wall_s,
        "incast1024_events": float(scale.events_scheduled),
        "incast1024_coupler_ticks": float(scale.coupler_ticks),
    }
    ok = True
    if rel_err > threshold:
        print(f"\nFAIL: hybrid aggregate goodput is {rel_err:.2%} away "
              f"from all-DES (gate {threshold:.0%}).")
        ok = False
    if scale.wall_s > budget_s:
        print(f"\nFAIL: 1024-flow hybrid incast took {scale.wall_s:.1f} s "
              f"(budget {budget_s:.0f} s).")
        ok = False
    if ok:
        print(f"OK: hybrid within {threshold:.0%} of all-DES "
              f"({rel_err:.2%}) and 1024 flows in {scale.wall_s:.1f} s "
              f"(budget {budget_s:.0f} s).")
    return ok, metrics


def measure_cache_bench(speedup_gate: float,
                        repeats: int = 2) -> tuple:
    """Warm/cold result-cache gate on the Fig. 3 quick sweep.

    Runs ``fig3`` (quick) in fresh subprocesses against a throwaway
    cache directory: once cold (every point computed and stored), then
    warm (every point — and the whole experiment output — answered from
    the sharded store).  Three checks, returned as ``(ok, metrics)``:

    - **speedup** — the warm run must be at least ``speedup_gate``
      times faster than the cold one (best-of-``repeats`` warm rounds);
    - **bit-identity** — warm and cold runs must hash to the same
      experiment data (a cache hit is indistinguishable from a
      recompute);
    - **warm p50 latency** — the per-entry disk-tier ``get()`` median,
      measured over every key the sweep stored, using a fresh handle so
      the in-process hot tier cannot flatter the number.
    """
    import statistics
    import tempfile
    from time import perf_counter

    print("\nresult-cache bench (fig3 quick, cold vs warm):")
    with tempfile.TemporaryDirectory(prefix="repro-cache-bench-") as tmp:
        cache_dir = os.path.join(tmp, "cache")

        def run_once() -> Dict[str, object]:
            env = dict(os.environ, REPRO_CACHE="1",
                       REPRO_CACHE_DIR=cache_dir)
            env["PYTHONPATH"] = (str(ROOT / "src") + os.pathsep
                                 + os.environ.get("PYTHONPATH", ""))
            proc = subprocess.run(
                [sys.executable, "-c", _SWEEP_DRIVER, "fig3"],
                cwd=ROOT, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"cache-bench run failed:\n"
                                 f"{proc.stderr[-2000:]}")
            return json.loads(proc.stdout)

        cold = run_once()
        warm_wall = float("inf")
        warm_sha = None
        for _ in range(repeats):
            warm = run_once()
            warm_wall = min(warm_wall, warm["wall"])
            warm_sha = warm["sha"]

        # honest per-entry latency: fresh handle, disk tier, every key
        sys.path.insert(0, str(ROOT / "src"))
        from repro.cache import ResultCache
        store = ResultCache(cache_dir)
        keys = store.keys()
        latencies = []
        for key in keys:
            start = perf_counter()
            hit, _ = store.get(key)
            latencies.append(perf_counter() - start)
            if not hit:
                raise SystemExit(f"cache-bench: indexed key {key} did not "
                                 f"read back")
        p50_ms = statistics.median(latencies) * 1e3 if latencies else 0.0

    speedup = cold["wall"] / warm_wall if warm_wall > 0 else float("inf")
    identical = cold["sha"] == warm_sha
    metrics = {
        "experiment": "fig3 (quick)",
        "cold_wall_s": cold["wall"],
        "warm_wall_s": warm_wall,
        "warm_speedup": speedup,
        "bit_identical": identical,
        "entries": float(len(keys)),
        "warm_get_p50_ms": p50_ms,
    }
    print(f"  cold          {cold['wall']:>9.3f} s")
    print(f"  warm          {warm_wall:>9.3f} s  (best of {repeats})")
    print(f"  speedup       {speedup:>9.1f}x  (gate {speedup_gate:.0f}x)")
    print(f"  entries       {len(keys):>9}")
    print(f"  get() p50     {p50_ms:>9.3f} ms  (disk tier, fresh handle)")
    ok = True
    if not identical:
        print("\nFAIL: warm fig3 data differs from the cold run — the "
              "cache returned something the simulator would not have "
              "computed.")
        ok = False
    if speedup < speedup_gate:
        print(f"\nFAIL: warm sweep is only {speedup:.1f}x the cold one "
              f"(gate {speedup_gate:.0f}x).")
        ok = False
    if ok:
        print(f"OK: warm sweep {speedup:.1f}x cold, bit-identical, "
              f"p50 get {p50_ms:.3f} ms.")
    return ok, metrics


def check_trace_overhead(threshold: float, repeats: int) -> bool:
    """Run the overhead bench and report; True when within threshold."""
    print(f"\ntracing-overhead bench (best of {repeats}):")
    times = measure_trace_overhead(repeats=repeats)
    base = times["baseline"]
    for variant in ("baseline", "disabled", "enabled"):
        t = times[variant]
        rel = "" if variant == "baseline" else f"  {t / base - 1.0:+7.1%}"
        print(f"  {variant:<9}  {t:>10.6f} s{rel}")
    overhead = times["disabled"] / base - 1.0
    if overhead > threshold:
        print(f"\nFAIL: disabled-tracing overhead {overhead:+.1%} exceeds "
              f"{threshold:.0%} — the guarded posts are no longer "
              f"near-free.")
        return False
    print(f"OK: disabled-tracing overhead {overhead:+.1%} is within "
          f"{threshold:.0%}.")
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run benchmarks, archive BENCH_<rev>.json, fail on "
                    "engine regressions.")
    parser.add_argument("--all", action="store_true",
                        help="run every benchmark, not just the engine "
                             "microbenches")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="explicit BENCH_*.json to diff against "
                             "(default: newest previous one)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="maximum tolerated best-round-time increase "
                             "for test_engine_* benches (default 0.20 = "
                             "20%%)")
    parser.add_argument("--rev", default=None,
                        help="revision label for the output file "
                             "(default: git short rev)")
    parser.add_argument("--trace-threshold", type=float, default=0.03,
                        help="maximum tolerated slowdown of the engine hot "
                             "path from disabled tracing (default 0.03 = "
                             "3%%)")
    parser.add_argument("--trace-repeats", type=int, default=5,
                        help="repeats for the tracing-overhead bench "
                             "(best-of; default 5)")
    parser.add_argument("--trace-overhead-only", action="store_true",
                        help="run only the tracing-overhead bench")
    parser.add_argument("--skip-trace-overhead", action="store_true",
                        help="skip the tracing-overhead bench")
    parser.add_argument("--chaos-threshold", type=float, default=0.02,
                        help="maximum tolerated slowdown of the reference "
                             "transfer from idle (no-plan) chaos hooks "
                             "(default 0.02 = 2%%)")
    parser.add_argument("--chaos-repeats", type=int, default=5,
                        help="repeats for the chaos-overhead bench "
                             "(best-of; default 5)")
    parser.add_argument("--chaos-overhead-only", action="store_true",
                        help="run only the chaos-overhead bench")
    parser.add_argument("--skip-chaos-overhead", action="store_true",
                        help="skip the chaos-overhead bench")
    parser.add_argument("--stream-threshold", type=float, default=0.03,
                        help="maximum tolerated slowdown of the reference "
                             "transfer from an idle (no-consumer) "
                             "telemetry bus (default 0.03 = 3%%)")
    parser.add_argument("--stream-repeats", type=int, default=5,
                        help="repeats for the stream-overhead bench "
                             "(best-of; default 5)")
    parser.add_argument("--stream-overhead-only", action="store_true",
                        help="run only the stream-overhead bench")
    parser.add_argument("--skip-stream-overhead", action="store_true",
                        help="skip the stream-overhead bench")
    parser.add_argument("--figure-sweep", action="store_true",
                        help="also run the fig3+wan figure-sweep speedup "
                             "bench (batched vs legacy data path; "
                             "adds minutes)")
    parser.add_argument("--fabric-threshold", type=float, default=0.05,
                        help="maximum tolerated hybrid-vs-DES aggregate "
                             "goodput deviation on the validation fabric "
                             "(default 0.05 = 5%%)")
    parser.add_argument("--fabric-budget-s", type=float, default=60.0,
                        help="wall-clock budget for the 1024-flow hybrid "
                             "incast (default 60 s)")
    parser.add_argument("--fabric-only", action="store_true",
                        help="run only the fabric benchmark gate")
    parser.add_argument("--skip-fabric-bench", action="store_true",
                        help="skip the fabric benchmark")
    parser.add_argument("--cache-speedup", type=float, default=10.0,
                        help="minimum warm-over-cold speedup for the fig3 "
                             "quick sweep on the result cache (default 10)")
    parser.add_argument("--cache-only", action="store_true",
                        help="run only the result-cache warm/cold gate")
    parser.add_argument("--skip-cache-bench", action="store_true",
                        help="skip the result-cache warm/cold gate")
    parser.add_argument("--lint-clean", action="store_true",
                        help="run reprolint over src/repro and stamp the "
                             "verdict into BENCH_<rev>.json (standalone "
                             "gate; exits 1 on new findings)")
    args = parser.parse_args(argv)

    if args.lint_clean:
        metrics = measure_lint_clean()
        rev = args.rev or git_rev()
        out_path = RESULTS_DIR / f"BENCH_{rev}.json"
        if out_path.is_file():  # fold into an existing archive if present
            stamp_lint_clean(out_path, metrics)
            print(f"stamped lint verdict into {out_path}")
        return 0 if metrics["clean"] else 1

    if args.trace_overhead_only:
        ok = check_trace_overhead(args.trace_threshold, args.trace_repeats)
        return 0 if ok else 1
    if args.chaos_overhead_only:
        ok, _ = check_chaos_overhead(args.chaos_threshold, args.chaos_repeats)
        return 0 if ok else 1
    if args.stream_overhead_only:
        ok, _ = check_stream_overhead(args.stream_threshold,
                                      args.stream_repeats)
        return 0 if ok else 1
    if args.fabric_only:
        ok, _ = measure_fabric_benchmark(args.fabric_threshold,
                                         args.fabric_budget_s)
        return 0 if ok else 1
    if args.cache_only:
        ok, metrics = measure_cache_bench(args.cache_speedup)
        rev = args.rev or git_rev()
        out_path = RESULTS_DIR / f"BENCH_{rev}.json"
        if out_path.is_file():  # fold into an existing archive if present
            record_extra_metrics(out_path, {"cache": metrics})
            print(f"recorded cache metrics into {out_path}")
        return 0 if ok else 1

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rev = args.rev or git_rev()
    out_path = RESULTS_DIR / f"BENCH_{rev}.json"
    run_benchmarks(out_path, everything=args.all)
    new = load_mins(out_path)
    print(f"\nwrote {out_path} ({len(new)} benchmarks)")

    baseline = args.baseline or previous_report(out_path)
    if baseline is None:
        print("no previous BENCH_*.json to compare against; baseline recorded.")
    else:
        print(f"comparing against {baseline}")
        regressed = compare(load_mins(baseline), new, args.threshold)
        if regressed:
            # One confirmation pass before failing: on a shared/virtual
            # box the best round of a single run still jitters by tens
            # of percent, so a real regression must survive the min of
            # two independent suite runs.
            print(f"\npossible regression(s): {', '.join(regressed)}; "
                  f"rerunning once to confirm...")
            confirm_path = out_path.with_suffix(".confirm.json")
            run_benchmarks(confirm_path, everything=args.all)
            confirm = load_mins(confirm_path)
            confirm_path.unlink()
            for name, best in confirm.items():
                new[name] = min(new.get(name, best), best)
            regressed = compare(load_mins(baseline), new, args.threshold)
        if regressed:
            print(f"\nFAIL: engine microbench regression(s) over "
                  f"{args.threshold:.0%}: {', '.join(regressed)}")
            return 1
        print(f"\nOK: no engine microbench regressed more than "
              f"{args.threshold:.0%}.")

    extra: Dict[str, Dict] = {}
    metrics = measure_engine_metrics()
    extra["engine"] = metrics
    print(f"\nengine metrics (nttcp back-to-back, jumbo, 512 segments):")
    print(f"  events scheduled   {int(metrics['events_scheduled']):>12,}")
    print(f"  events/sec         {metrics['events_per_sec']:>12,.0f}")
    print(f"  mean train size    {metrics['mean_train_size']:>12.2f}")

    chaos_ok = True
    if not args.skip_chaos_overhead:
        chaos_ok, chaos_times = check_chaos_overhead(
            args.chaos_threshold, args.chaos_repeats)
        extra["chaos_overhead"] = chaos_times
    stream_ok = True
    if not args.skip_stream_overhead:
        stream_ok, stream_times = check_stream_overhead(
            args.stream_threshold, args.stream_repeats)
        extra["stream_overhead"] = stream_times
    fabric_ok = True
    if not args.skip_fabric_bench:
        fabric_ok, fabric_metrics = measure_fabric_benchmark(
            args.fabric_threshold, args.fabric_budget_s)
        extra["fabric"] = fabric_metrics
    cache_ok = True
    if not args.skip_cache_bench:
        cache_ok, cache_metrics = measure_cache_bench(args.cache_speedup)
        extra["cache"] = cache_metrics
    if args.figure_sweep:
        sweep = measure_figure_sweep()
        extra["figure_sweep"] = sweep
        print("\nfigure-sweep bench (quick): batched vs legacy data path")
        for exp in ("fig3", "wan"):
            s = sweep[exp]
            ident = "bit-identical" if s["bit_identical"] else \
                "RESULTS DIFFER"
            print(f"  {exp:<5} legacy {s['wall_legacy_s']:6.2f} s  batched "
                  f"{s['wall_batched_s']:6.2f} s  {s['speedup']:.2f}x  "
                  f"[{ident}]")
        print(f"  total speedup {sweep['speedup']:.2f}x")
        if not sweep["bit_identical"]:
            print("\nFAIL: figure-sweep results are not bit-identical "
                  "between the legacy and batched data paths.")
            record_extra_metrics(out_path, extra)
            return 1
    record_extra_metrics(out_path, extra)
    if not chaos_ok or not stream_ok or not fabric_ok or not cache_ok:
        return 1
    if not args.skip_trace_overhead:
        if not check_trace_overhead(args.trace_threshold, args.trace_repeats):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

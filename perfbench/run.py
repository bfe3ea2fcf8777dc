#!/usr/bin/env python3
"""The simulator benchmark: host cost end to end, then split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload lan_sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload lan_sweep --seed 0 --seconds 10 --trace 1
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the untraced passes, then runs one pass under the
per-layer ledger (perfbench/ledger.py) and reports the layer metrics.
``--workload all`` runs each workload in its own process and prints one
table.  The last line of standard output is always one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for every metric, unit and workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("lan_sweep", "latency_pingpong", "wan_des", "fabric_incast")

END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "paper_rel_err": "frac", "success_rate": "frac"}

#: Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
PROBE_MARKER = "perfbench: first simulated event"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _knob_snapshot() -> Tuple[Dict[str, Any], List[str]]:
    """Every registered REPRO_* knob's raw value, and the names of those
    not at their default (any of which would change what is measured)."""
    from repro.core.knobs import ENV_KNOBS

    snapshot: Dict[str, Any] = {}
    off_default: List[str] = []
    for name in sorted(ENV_KNOBS):
        knob = ENV_KNOBS[name]
        raw = os.environ.get(name)
        snapshot[name] = raw
        if raw is None:
            continue
        try:
            at_default = knob.parse(raw) == knob.default
        except (ValueError, TypeError):
            at_default = False
        if not at_default:
            off_default.append(f"{name}={raw}"
                               + (" (affects results)"
                                  if knob.affects_results else ""))
    return snapshot, off_default


def _git_rev() -> Any:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    """Identity of the simulator source, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _stamp(args: argparse.Namespace, knobs: Dict[str, Any],
           inputs: Dict[str, Any]) -> Dict[str, Any]:
    blob = json.dumps(inputs, sort_keys=True).encode()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke,
            "inputs_sha256": hashlib.sha256(blob).hexdigest(),
            "knobs": knobs, "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_rev": _git_rev(),
            "src_sha256": _source_sha256()}


def _emit(correct: bool, attempted: int, failed: int,
          metrics: Dict[str, Tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


# ---------------------------------------------------------------------------
# setup_s: fresh processes, timed to their first simulated event
# ---------------------------------------------------------------------------

def _probe(workload: Any) -> int:
    """Child side: run the first operation only as far as its first
    simulated event, report, and leave without any teardown."""
    from repro.sim.engine import Environment

    def first_event(env: Any, until: Any = None) -> None:
        env.step()
        sys.stdout.write(PROBE_MARKER + "\n")
        sys.stdout.flush()
        os._exit(0)

    Environment.run = first_event
    workload.operations()[0]()
    return _fail("the first operation finished without running the engine")


def _setup_times(args: argparse.Namespace, probes: int) -> List[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True,
                             cwd=str(ROOT), timeout=PROBE_TIMEOUT_S)
        elapsed = perf_counter() - t0
        if out.returncode != 0 or out.stdout.strip() != PROBE_MARKER:
            raise RuntimeError(f"setup probe failed ({out.returncode}): "
                               f"{out.stderr.strip()[-500:]}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# measured passes
# ---------------------------------------------------------------------------

def _passes(workload: Any, seconds: float) -> List[Any]:
    """Whole passes of the fixed batch until ``seconds`` have elapsed
    (at least one)."""
    from workloads import run_pass

    passes: List[Any] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        gc.collect()
        result = run_pass(workload)
        passes.append(result)
        print(f"perfbench: pass {len(passes)}: {result.wall_s:.3f} s, "
              f"{result.norm_s:.3f} s normalised, "
              f"{result.attempted} ops, {result.failed} failed, "
              f"digest {result.digest}")
        for err in result.errors:
            print(f"perfbench:   failed operation: {err}", file=sys.stderr)
    return passes


def _tally(workload: Any, passes: List[Any]) -> Tuple[int, int, float, bool]:
    """(attempted, failed, paper_rel_err, deterministic) over passes."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    try:
        err, outside = workload.paper_rel_err(passes[0].records)
    except (KeyError, ValueError, IndexError) as exc:
        print(f"perfbench: no headline numbers: {exc!r}", file=sys.stderr)
        err, outside = 1.0, 1
    if outside:
        print(f"perfbench: {outside} headline number(s) outside the "
              f"paper tolerance", file=sys.stderr)
    # A headline outside tolerance fails the operation that produced it,
    # once per pass.
    failed = min(attempted, failed + outside * len(passes))
    deterministic = len({p.digest for p in passes}) == 1
    if not deterministic:
        print("perfbench: passes over the same input disagree",
              file=sys.stderr)
    return attempted, failed, err, deterministic


def _end_to_end(args: argparse.Namespace, workload: Any) -> int:
    setup = _setup_times(args, 1 if args.smoke else SETUP_PROBES)
    print("perfbench: setup probes: "
          + ", ".join(f"{t:.3f} s" for t in setup))
    workload.warmup()
    passes = _passes(workload, args.seconds)
    attempted, failed, err, deterministic = _tally(workload, passes)
    print(f"perfbench: digest {passes[0].digest}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"norm_wall_s": statistics.median(p.norm_s for p in passes),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": rss_mb,
              "paper_rel_err": err,
              "success_rate": 1.0 - failed / attempted}
    _emit(deterministic and failed == 0, attempted, failed,
          {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()})
    return 0


def _traced(args: argparse.Namespace, workload: Any) -> int:
    from ledger import PER_LAYER_UNITS, Ledger
    from workloads import run_pass

    workload.warmup()
    passes = _passes(workload, args.seconds)
    attempted, failed, _, deterministic = _tally(workload, passes)
    ledger = Ledger()
    ledger.install()
    gc.collect()
    traced = run_pass(workload, after_op=ledger.harvest, normalise=False)
    print(f"perfbench: traced pass: {traced.wall_s:.3f} s, "
          f"{traced.attempted} ops, {traced.failed} failed")
    for err in traced.errors:
        print(f"perfbench:   failed operation: {err}", file=sys.stderr)
    untraced_digest = passes[0].digest
    print(f"perfbench: digest untraced {untraced_digest}")
    print(f"perfbench: digest traced   {traced.digest}")
    same = traced.digest == untraced_digest
    if not same:
        print("perfbench: the traced run changed the simulated output",
              file=sys.stderr)
    values = ledger.metrics()
    values["bench.trace_overhead_frac"] = (
        traced.wall_s / statistics.median(p.wall_s for p in passes) - 1.0)
    attempted += traced.attempted
    failed = min(attempted, failed + traced.failed)
    _emit(deterministic and same and failed == 0, attempted, failed,
          {k: (values[k], unit) for k, unit in PER_LAYER_UNITS.items()})
    return 0


def _all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one table, one JSON line."""
    metrics: Dict[str, Tuple[float, str]] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, capture_output=True, text=True,
                             cwd=str(ROOT), timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return _fail(f"workload {name} exited {out.returncode}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (m["value"], m["unit"])
            print(f"{name:<18} {metric:<28} {m['value']:>16.6g} {m['unit']}")
    _emit(correct, attempted, failed, metrics)
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one setup probe (for tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"simulator source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    knobs, off_default = _knob_snapshot()
    if off_default:
        return _fail("refusing to run with REPRO_* knobs off their "
                     "defaults: " + ", ".join(off_default))
    if args.workload == "all":
        return _all(args)

    from workloads import make

    workload = make(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        return _probe(workload)
    print("perfbench: stamp "
          + json.dumps(_stamp(args, knobs, workload.inputs()),
                       sort_keys=True))
    if args.trace:
        return _traced(args, workload)
    return _end_to_end(args, workload)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

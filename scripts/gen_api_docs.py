#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Walks every ``repro`` module, and for each emits the module summary and
a one-line entry per public class/function (first docstring line).
Regenerate after API changes:

    python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import repro  # noqa: E402


def first_line(doc: str) -> str:
    return (doc or "").strip().splitlines()[0] if doc else ""


def module_entries(module) -> list:
    entries = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            entries.append((f"class {name}", first_line(obj.__doc__)))
        elif inspect.isfunction(obj):
            try:
                sig = str(inspect.signature(obj))
            except (TypeError, ValueError):
                sig = "(...)"
            if len(sig) > 48:
                sig = "(...)"
            entries.append((f"{name}{sig}", first_line(obj.__doc__)))
    return entries


#: Hand-written prose emitted ahead of the generated reference.
PREAMBLE = """\
## Parallel execution & caching

Every experiment decomposes into independent simulation points, and two
orthogonal mechanisms exploit that:

* **Parallel sweeps** — `repro.sim.runner.SweepRunner` fans points
  through the persistent warm worker pool (`repro.sim.pool`) and
  collects them in submission order, so results are **bit-identical at
  any job count**.  One long-lived pool is shared across sweeps and
  experiments; points travel in order-preserving batches
  (`REPRO_POOL_CHUNK` overrides the size).  Select the worker count with
  `run_experiment(name, jobs=4)`, the `--jobs/-j` CLI flag (`auto` =
  one per core) or the `REPRO_JOBS` environment variable; the default
  is serial.
* **Result cache** — completed points (and whole experiment outputs)
  are memoized under `.repro-cache/` (override with `REPRO_CACHE_DIR`):
  a 256-way sharded store with per-shard append-only indexes, an
  in-process hot tier for repeat reads, and LRU eviction under
  `REPRO_CACHE_MAX_BYTES` (see `docs/CACHING.md`).  Keys are a stable
  hash of the tuning configuration, topology, workload and a
  fingerprint of the `repro` sources — editing the simulator
  invalidates everything it could have influenced, while doc/test
  edits keep the cache warm; a fully-warm sweep never touches the
  worker pool at all.  Enable it with `run_experiment(name,
  cache=True)`, `repro.cache_context(...)` or `REPRO_CACHE=1` (the CLI
  caches by default; `--no-cache` opts out).  Inspect with
  `repro.cache_stats()` / `python -m repro --cache-stats`; drop
  entries with `repro.clear_cache()` / `--clear-cache`.  Corrupt or
  truncated entries are detected, discarded and recomputed.

## Telemetry

`repro.telemetry` instruments every layer: a labelled metrics registry
(counters/gauges/histograms), 47 catalogued trace points riding the
per-component `TraceBuffer` rings, Chrome-trace/JSONL/timeline
exporters, and engine self-profiling.  Activate with
`telemetry_session(...)` (before building the topology) or the CLI
flags `--metrics` / `--trace` / `--trace-jsonl` / `--timeline` /
`--profile`; sweep workers aggregate deterministically, so the metrics
table is identical at any job count.  See `docs/OBSERVABILITY.md`.

## Chaos engineering

`repro.chaos` injects declarative, seeded faults — link flaps, loss
bursts, reordering, corruption, duplicates, switch-buffer degradation,
NIC stalls/resets, CPU contention — described by a JSON `FaultPlan`
and armed with `chaos_session(plan)`, the `--chaos PLAN.json` CLI flag
or `REPRO_CHAOS=plan.json`.  Outcomes are deterministic per plan seed,
run to run; the empty plan is byte-identical to chaos off,
and the active plan's fingerprint is folded into every result-cache
key so chaotic and clean results never alias.  `repro.chaos.analyze_goodput` + `render_scorecard` score each
fault's goodput trough, time-to-recover, lost bits and retransmission
storm (the paper's §5 "one loss costs ~1.5 hours" arithmetic:
`repro.analysis.resilience.wan_loss_report`, demo in
`examples/chaos_storm.py`).  With no plan loaded the hooks cost one
`None` check each — `scripts/bench_compare.py` gates that overhead at
≤2%.  See `docs/RESILIENCE.md`.

## Engine performance

Segment trains, the one data path, trade event count for speed
without approximating any simulated number (see `docs/PERFORMANCE.md`):
contiguous frame bursts move through the NIC/bus/network layers as one
callback chain, and the golden digests in `tests/golden` pin the
output.  The event queue is a binary heap; entries due at the current
instant bypass it on a FIFO same-instant lane, and `schedule_call` entries carry no event object.
`python3 perfbench/run.py --trace 1` reports events, ns/event and mean
train size per workload; `scripts/bench_compare.py` gates the engine
microbenchmarks and the hook overheads (see `docs/PERFORMANCE.md`).
"""


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated by `python scripts/gen_api_docs.py` — one line per",
        "public object; full documentation lives in the docstrings.",
        "",
        PREAMBLE,
    ]
    names = sorted(
        name for _, name, _ in pkgutil.walk_packages(repro.__path__,
                                                     prefix="repro.")
        if not name.startswith("repro.__"))
    for module_name in ["repro"] + names:
        module = importlib.import_module(module_name)
        entries = module_entries(module)
        summary = first_line(module.__doc__)
        lines.append(f"## `{module_name}`")
        lines.append("")
        if summary:
            lines.append(summary)
            lines.append("")
        for signature, doc in entries:
            lines.append(f"* **`{signature}`** — {doc}")
        if entries:
            lines.append("")
    out = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API.md"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(lines)} lines)")


if __name__ == "__main__":
    main()

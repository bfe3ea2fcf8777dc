#!/usr/bin/env python
"""Reachability census: which ``repro`` functions does real traffic call?

Drives every path a user or the benchmark takes into the package, in
this process under a ``sys.settrace`` call-event tracer:

* every experiment id (quick mode, ``jobs=1``, no result cache);
* the CLI, ``python -m repro``, once per flag path: ``--list``,
  ``--metrics``, ``--profile``, ``--trace``, ``--trace-jsonl``,
  ``--timeline``, ``--out``, ``--chaos PLAN.json``, ``--record`` then
  ``--replay``, ``--cache-stats`` and ``--clear-cache``, and the
  linter's, ``python -m repro.lint``;
* one sweeping id with ``jobs=2`` and the result cache on, cold and
  then warm;
* the smoke pass of each ``perfbench`` workload;
* the scripts in ``examples/``.

Every file these write (cache, traces, bundles, reports) goes to one
temporary directory, ``REPRO_CACHE_DIR`` included.  Calls made while
the package imports count too.  The census then
prints

* every function or method defined under ``src/repro`` that nothing
  called and that :data:`KEEP` does not list, grouped by file, and
* every ``TuningConfig`` field value seen off its default, with the
  number of configs that carried it.

A deletion should cite this output.  ``--check`` exits 1 when an
unreached function is not on :data:`KEEP`, when a keep-listed function
was reached, or when a keep-list entry names no function::

    python scripts/census.py --check            # the full census
    python scripts/census.py pktgen --no-examples
    python scripts/census.py --no-ids           # examples only

Naming ids, or ``--no-ids``, runs a partial census of those ids (and
the examples unless ``--no-examples``); the CLI, pool/cache and
benchmark passes belong to the full run.  Tracing slows the run
several-fold: the full census takes about 7 minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import runpy
import sys
import tempfile
import threading
import types
from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"
PERFBENCH = ROOT / "perfbench"
CONFIG = PACKAGE / "config.py"
sys.path.insert(0, str(ROOT / "src"))

#: (file, first line, name): how a code object is recognised in a trace
CodeKey = Tuple[str, int, str]

#: The CLI paths the full census drives: (program, argv, exit status).
#: They run from the repository root on cheap ids, so the argument-less
#: ``repro.lint`` run lints ``src/repro`` against the committed
#: baseline; ``{tmp}`` is the census's temporary directory, which holds
#: the chaos plan and the lint fixture below.
CLI_RUNS: List[Tuple[str, List[str], int]] = [
    ("repro", ["--list"], 0),
    ("repro", ["fig6", "--metrics"], 0),
    ("repro", ["fig6", "--profile"], 0),
    ("repro", ["fig6", "--trace", "{tmp}/trace.json",
               "--trace-jsonl", "{tmp}/trace.jsonl",
               "--timeline", "{tmp}/timeline.json"], 0),
    ("repro", ["tab1", "--out", "{tmp}/reports"], 0),
    ("repro", ["fig6", "--no-cache", "--chaos", "{tmp}/plan.json"], 0),
    ("repro", ["fig6", "--record", "{tmp}/run.reprorun"], 0),
    ("repro", ["--replay", "{tmp}/run.reprorun"], 0),
    ("repro", ["--cache-stats"], 0),
    ("repro", ["--clear-cache"], 0),
    ("repro.lint", ["--list-rules"], 0),
    ("repro.lint", [], 0),
    ("repro.lint", ["{tmp}/lint/repro", "--no-baseline"], 1),
    ("repro.lint", ["{tmp}/lint/repro", "--format", "json",
                    "--no-baseline"], 1),
    ("repro.lint", ["{tmp}/lint/repro", "--baseline", "{tmp}/lint/base.json",
                    "--write-baseline"], 0),
    ("repro.lint", ["{tmp}/lint/repro", "--baseline",
                    "{tmp}/lint/base.json"], 0),
]

#: The lint fixture: a wall-clock read, one suppressed inline, and a
#: poll loop.
LINT_FIXTURE = """import time


def now():
    return time.time()


def stamp():
    return time.time()  # reprolint: disable=RPR002 -- fixture


def wait(env, flag):
    while not flag:
        yield env.timeout(1e-6)
"""

#: The fault plan ``--chaos`` arms: a loss burst on the back-to-back
#: link, a stall of every adapter and CPU contention on both hosts.
CHAOS_PLAN = {
    "name": "census",
    "seed": 7,
    "faults": [
        {"kind": "loss_burst", "target": "link:xover.fwd",
         "start_s": 0.0, "duration_s": 1e-3, "probability": 0.5},
        {"kind": "nic_stall", "target": "nic:*",
         "start_s": 0.0, "duration_s": 1e-4},
        {"kind": "cpu_contention", "target": "cpu:*",
         "start_s": 0.0, "duration_s": 1e-3, "factor": 2.0},
    ],
}

#: The id the pool/cache pass runs: it sweeps enough points to fan out.
SWEEP_ID = "fig3"

_LEDGER = "perfbench/ledger.py ENTRY_POINTS wraps it"
_BUDDY = ("part of BuddyAllocator, kept whole while perfbench/ledger.py "
          "wraps its alloc/free")
_COPY = ("perfbench/ledger.py ENTRY_POINTS wraps it; CostModel prices "
         "checksums with it only when checksum_offload=False")
_TAP = ("index tap: the loss-recovery property tests and data-path "
        "goldens drop, duplicate or reorder chosen frames with it")
_REPR = "debugging aid"
_WORKER = "runs inside pool workers, which the tracer does not follow"

#: Functions kept although the full census does not reach them:
#: ``module.qualname`` -> why.  ``--check`` fails when one is reached.
KEEP: Dict[str, str] = {
    # what the benchmark wraps, reads or calls outside a smoke pass
    "repro.oskernel.allocator.BuddyAllocator.alloc": _LEDGER,
    "repro.oskernel.allocator.BuddyAllocator.free": _LEDGER,
    "repro.oskernel.allocator.BuddyAllocator.__init__": _BUDDY,
    "repro.oskernel.allocator.BuddyAllocator._now": _BUDDY,
    "repro.oskernel.allocator.BuddyAllocator.alloc_cost": _BUDDY,
    "repro.oskernel.allocator.BuddyAllocator.outstanding_bytes": _BUDDY,
    "repro.oskernel.allocator.AllocatorStats.live": _BUDDY,
    "repro.oskernel.allocator.AllocatorStats.waste_fraction": _BUDDY,
    "repro.oskernel.allocator.Allocation.waste": _BUDDY,
    "repro.oskernel.copyengine.CopyEngine.__post_init__": _COPY,
    "repro.oskernel.copyengine.CopyEngine.copy_time": _COPY,
    "repro.oskernel.copyengine.CopyEngine.checksum_time": _COPY,
    "repro.oskernel.copyengine.CopyEngine.rx_byte_time": _COPY,
    "repro.oskernel.copyengine.CopyEngine.tx_byte_time": _COPY,
    "repro.hw.memory.MemorySubsystem.copy_engine": _COPY,
    "repro.net.wanpath.PosCircuit.transmit": _LEDGER,
    "repro.net.wanpath.Router.occupancy":
        "perfbench/ledger.py reads it after Router.receive_frame",
    "repro.net.hybrid.DesLink.level":
        "perfbench/ledger.py reads it after DesLink.send",
    "repro.hw.nic.TenGigAdapter.mean_train_size":
        "perfbench/ledger.py reads it for hw.train_size_mean",
    "repro.hw.pcix.PciXBus.utilization":
        "perfbench/ledger.py reads it for hw.pcix_busy_frac",
    "repro.sim.timeline.FifoTimeline.utilization":
        "PciXBus.utilization, which perfbench/ledger.py reads, returns it",
    "repro.sim.engine.Environment.step":
        "perfbench/run.py's setup probe steps to the first event with it",
    # the worker pool
    "repro.sim.pool._worker_init": _WORKER,
    "repro.sim.pool._apply_ambient": _WORKER,
    "repro.sim.pool._run_chunk": _WORKER,
    # --serve, which binds a port and, on a terminal, holds it open
    "repro.__main__._parse_serve": "parses --serve HOST:PORT",
    "repro.__main__._hold_serving": "keeps --serve's observer up",
    "repro.core.knobs.env_raw": "reads REPRO_SERVE_HOLD for --serve",
    "repro.serve.observer.ObserverServer._sse_replay":
        "streams a --replay bundle over --serve's SSE endpoint",
    # failure paths and checks on outside input
    "repro.errors.SweepError.__init__": "raised when a sweep point fails",
    "repro.errors.SweepError.__str__": "raised when a sweep point fails",
    "repro.sim.engine.Environment._record_crash":
        "records a process that died with nobody waiting on it",
    "repro.sim.engine.Environment._raise_crash":
        "raises a process that died with nobody waiting on it",
    "repro.sim.pool._drop_broken": "drops a pool that a dead worker broke",
    "repro.telemetry.session.TelemetrySession._count_dropped":
        "counts the records a full trace ring dropped",
    "repro.tcp.congestion.RenoCongestion.exit_recovery":
        "ends NewReno recovery on a full ACK; the loss-recovery property "
        "tests drive it.  The census enters recovery once, in "
        "examples/chaos_storm.py act three, whose 50%-drop burst also "
        "drops the fast retransmission, so that recovery gets no partial "
        "or full ACK and ends by RTO",
    "repro.core.knobs.parse_on_flag":
        "parses a REPRO_* knob when it is set; the census sets none",
    "repro.core.knobs.parse_truthy_flag":
        "parses a REPRO_* knob when it is set; the census sets none",
    "repro.core.knobs._parse_optional_int":
        "parses a REPRO_* knob when it is set; the census sets none",
    "repro.oskernel.sysctl._parse_bool":
        "checks a write to a boolean sysctl; the paper's recipe writes none",
    "repro.hw.csa.MchLink._post":
        "posts mch.dma for a traced CSA run; the examples run CSA untraced",
    # independent oracles the tests read
    "repro.net.fabric.FabricTopology.path_hops":
        "the fabric tests' hop-count oracle for routes",
    "repro.tcp.receiver.TcpReceiver.goodput_bps":
        "tests cross-check NTTCP's goodput against the receiver's own rate",
    "repro.tcp.fluid.FluidFabric.queue_packets":
        "the fluid-fabric tests read per-link queues through it",
    "repro.tcp.fluid.FluidFabric.windows_segments":
        "the fluid-fabric tests read per-flow windows through it",
    "repro.net.switch.Switch.port":
        "tests read a port's queue and drop counters through it",
    "repro.sim.engine.Event.triggered": "the engine tests read event state",
    "repro.sim.engine.Event.processed": "the engine tests read event state",
    "repro.sim.engine.Event.ok": "the engine tests read event state",
    "repro.sim.engine.Event.value": "the engine tests read event values",
    "repro.sim.engine.Event.fail":
        "the engine tests check that a failed event raises through run()",
    "repro.sim.pool.pool_stats":
        "the pool tests count pool creations and reuses with it",
    "repro.cache.store.ResultCache.keys":
        "the cache tests list what a store holds with it",
    "repro.cache.store.ResultCache.invalidate":
        "the cache tests drop single entries with it",
    "repro.telemetry.exporters.read_jsonl":
        "tests read back what --trace-jsonl wrote",
    "repro.telemetry.registry.merge_snapshots":
        "the registry tests check that merging snapshots is order-exact",
    "repro.telemetry.registry.MetricsRegistry.__len__":
        "the registry tests count series with len()",
    "repro.sim.trace.TraceBuffer.__len__":
        "the trace tests count records with len()",
    "repro.telemetry.stream.Subscription.pending":
        "the stream tests count queued events with it",
    "repro.telemetry.stream.TelemetryBus.has_consumers":
        "the observer tests wait on it for an SSE client to attach or go",
    "repro.telemetry.points.catalog_by_layer":
        "scripts/gen_catalog.py renders the OBSERVABILITY.md catalog",
    "repro.telemetry.points.render_catalog_markdown":
        "scripts/gen_catalog.py renders the OBSERVABILITY.md catalog",
    # chaos index taps
    "repro.chaos.taps._Tap.__init__": _TAP,
    "repro.chaos.taps._Tap._matches": _TAP,
    "repro.chaos.taps._Tap.receive_frame": _TAP,
    "repro.chaos.taps.LossTap.__init__": _TAP,
    "repro.chaos.taps.LossTap.receive_frame": _TAP,
    "repro.chaos.taps.DuplicateTap.__init__": _TAP,
    "repro.chaos.taps.DuplicateTap.receive_frame": _TAP,
    "repro.chaos.taps.ReorderTap.__init__": _TAP,
    "repro.chaos.taps.ReorderTap.receive_frame": _TAP,
    # interface stubs and debugging aids
    "repro.net.ethernet.FrameSink.receive_frame":
        "typing.Protocol stub declaring the frame-sink interface",
    "repro.hw.host.Host.__repr__": _REPR,
    "repro.net.coupling.QueueCoupling.__repr__": _REPR,
    "repro.net.fabric.FabricTopology.__repr__": _REPR,
    "repro.net.hybrid.FabricFlow.__repr__": _REPR,
    "repro.net.train.SegmentTrain.__repr__": _REPR,
    "repro.oskernel.skbuff.SkBuff.__repr__": _REPR,
    "repro.sim.engine.PeriodicCall.__repr__": _REPR,
    "repro.sim.engine.Event.__repr__": _REPR,
    "repro.sim.engine.Process.__repr__": _REPR,
    "repro.sim.engine.Environment.__repr__": _REPR,
    "repro.sim.timeline.FifoTimeline.__repr__": _REPR,
    "repro.tcp.congestion.RenoCongestion.__repr__": _REPR,
    "repro.tcp.connection.TcpConnection.__repr__": _REPR,
    "repro.tcp.fluid.FluidFabric.__repr__": _REPR,
}


def _key(code: types.CodeType) -> CodeKey:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _qualnames(body: List[ast.stmt], prefix: str
               ) -> Iterator[Tuple[int, str, str]]:
    """(first line, name, qualified name) of every function in ``body``,
    nested ones included.  The first line is a decorator's when there is
    one, as in the compiled code object."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _qualnames(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield first, node.name, prefix + node.name
            yield from _qualnames(node.body,
                                  f"{prefix}{node.name}.<locals>.")
        elif hasattr(node, "body"):  # if/try/with blocks
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _qualnames(getattr(node, field, []), prefix)


def defined_functions() -> Dict[CodeKey, str]:
    """Every function under ``src/repro``: key -> ``module.qualname``."""
    out: Dict[CodeKey, str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = os.path.realpath(path)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename)
        module = _module_name(path)
        for first, name, qualname in _qualnames(tree.body, ""):
            out[(filename, first, name)] = f"{module}.{qualname}"
    return out


class Census:
    """Call-event tracer over the ``repro`` package."""

    def __init__(self) -> None:
        self.called: Set[CodeKey] = set()
        self.configs = 0
        self.off_default: Counter = Counter()
        self._prefix = os.path.realpath(PACKAGE) + os.sep
        self._config = os.path.realpath(CONFIG)

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(self._prefix):
            self.called.add(_key(code))
            if (code.co_name == "__post_init__"
                    and code.co_filename == self._config):
                self._note_config(frame.f_locals["self"])
        return None  # no line events

    def _note_config(self, config) -> None:
        """Count one ``TuningConfig`` and its off-default values."""
        self.configs += 1
        for field in dataclasses.fields(config):
            value = getattr(config, field.name)
            if value != field.default:
                self.off_default[(field.name, repr(value))] += 1

    @contextlib.contextmanager
    def tracing(self) -> Iterator[None]:
        sys.settrace(self._trace)
        threading.settrace(self._trace)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def _guarded(census: Census, label: str, failures: List[str],
             fn, *args, expect: int = 0) -> None:
    """Run ``fn(*args)`` traced, with its output swallowed.  A raise, or
    a ``SystemExit`` code or int return other than ``expect``, is
    recorded as a failure of ``label``."""
    status = None
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                census.tracing():
            result = fn(*args)
        if isinstance(result, int):
            status = result
    except SystemExit as stop:
        status = stop.code
    except Exception as exc:  # report, and census the rest
        status = repr(exc)
    print(f"ran {label}", file=sys.stderr)
    if (status or 0) != expect:
        failures.append(f"{label}: {status} (expected {expect})")


def run_ids(census: Census, ids: List[str]) -> List[str]:
    from repro.analysis.experiments import run_experiment
    failures: List[str] = []
    for name in ids:
        _guarded(census, f"id {name}", failures, run_experiment, name,
                 True, 1, False)
    return failures


def run_cli(census: Census, tmp: pathlib.Path) -> List[str]:
    with census.tracing():
        from repro.__main__ import main as repro_main
        from repro.lint.cli import main as lint_main
    mains = {"repro": repro_main, "repro.lint": lint_main}
    (tmp / "plan.json").write_text(json.dumps(CHAOS_PLAN))
    fixture = tmp / "lint" / "repro" / "sim" / "clock.py"
    fixture.parent.mkdir(parents=True)
    fixture.write_text(LINT_FIXTURE)
    failures: List[str] = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for program, argv, expect in CLI_RUNS:
            argv = [arg.format(tmp=tmp) for arg in argv]
            _guarded(census, f"python -m {program} {' '.join(argv)}",
                     failures, mains[program], argv, expect=expect)
    finally:
        os.chdir(cwd)
    return failures


def run_pool_and_cache(census: Census) -> List[str]:
    from repro.analysis.experiments import run_experiment
    from repro.sim.pool import shutdown_pool
    failures: List[str] = []
    for label in ("cold", "warm"):
        _guarded(census, f"id {SWEEP_ID} jobs=2 cache {label}", failures,
                 run_experiment, SWEEP_ID, True, 2, True)
    shutdown_pool()
    return failures


def run_benchmark(census: Census) -> List[str]:
    sys.path.insert(0, str(PERFBENCH))
    try:
        with census.tracing():
            from workloads import WORKLOADS, make, run_pass
    finally:
        sys.path.remove(str(PERFBENCH))

    def smoke(name: str) -> int:
        result = run_pass(make(name, 0, smoke=True), normalise=False)
        for error in result.errors:
            print(error, file=sys.stderr)
        return 1 if result.failed else 0

    failures: List[str] = []
    for name in WORKLOADS:
        _guarded(census, f"perfbench {name} smoke", failures, smoke, name)
    return failures


def run_examples(census: Census) -> List[str]:
    failures: List[str] = []
    for path in sorted(EXAMPLES.glob("*.py")):
        argv = sys.argv
        sys.argv = [str(path)]
        try:
            _guarded(census, f"example {path.name}", failures,
                     runpy.run_path, str(path), None, "__main__")
        finally:
            sys.argv = argv
    return failures


def check(census: Census, defined: Dict[CodeKey, str],
          keep: Dict[str, str]) -> List[str]:
    """What ``--check`` refuses: unreached functions missing from
    ``keep``, keep-listed functions that were reached, and keep-list
    entries that name no function."""
    problems = []
    for key, name in sorted(defined.items(), key=lambda kv: kv[1]):
        if key in census.called and name in keep:
            problems.append(f"keep-listed but reached: {name}")
        elif key not in census.called and name not in keep:
            problems.append(f"unreached and not keep-listed: {name} "
                            f"({os.path.relpath(key[0], ROOT)}:{key[1]})")
    names = set(defined.values())
    problems += [f"keep-list entry names no function: {name}"
                 for name in sorted(keep) if name not in names]
    return problems


def report(census: Census, defined: Dict[CodeKey, str],
           keep: Dict[str, str]) -> str:
    unreached: Dict[str, List[Tuple[int, str]]] = defaultdict(list)
    kept = 0
    for key, name in defined.items():
        if key in census.called:
            continue
        if name in keep:
            kept += 1
            continue
        rel = os.path.relpath(key[0], PACKAGE.parent)
        unreached[rel].append((key[1], name))
    called = sum(key in census.called for key in defined)
    lines = [f"functions defined under src/repro: {len(defined)}",
             f"called: {called}",
             f"unreached, keep-listed: {kept}",
             ""]
    lines.append("unreached functions, by file:")
    for rel in sorted(unreached):
        lines.append(f"  {rel}")
        for lineno, name in sorted(unreached[rel]):
            lines.append(f"    {lineno:5d}  {name}")
    lines.append("")
    lines.append(f"TuningConfig values off their default "
                 f"({census.configs} configs built):")
    for (name, value), count in sorted(census.off_default.items()):
        lines.append(f"  {name} = {value}  ({count})")
    return "\n".join(lines)


@contextlib.contextmanager
def scratch_dir() -> Iterator[pathlib.Path]:
    """A temporary directory that also holds the result cache."""
    saved = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-census-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
        try:
            yield pathlib.Path(tmp)
        finally:
            if saved is None:
                del os.environ["REPRO_CACHE_DIR"]
            else:
                os.environ["REPRO_CACHE_DIR"] = saved


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*",
                        help="experiment ids (default: the full census)")
    parser.add_argument("--no-ids", action="store_true",
                        help="run no experiment ids")
    parser.add_argument("--no-examples", action="store_true",
                        help="run no examples")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the unreached functions are "
                             "exactly the keep-list")
    args = parser.parse_args(argv)
    full = not (args.ids or args.no_ids)
    census = Census()
    with census.tracing():  # calls made at import time count too
        from repro.analysis.experiments import experiment_ids
    failures: List[str] = []
    with scratch_dir() as tmp:
        if not args.no_ids:
            failures += run_ids(census, args.ids or experiment_ids())
        if full:
            failures += run_cli(census, tmp)
            failures += run_pool_and_cache(census)
            failures += run_benchmark(census)
        if not args.no_examples:
            failures += run_examples(census)
    defined = defined_functions()
    print(report(census, defined, KEEP))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    problems = check(census, defined, KEEP) if args.check else []
    for problem in problems:
        print(f"CHECK {problem}")
    return 1 if failures or problems else 0


if __name__ == "__main__":
    sys.exit(main())

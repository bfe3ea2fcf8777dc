"""Persistent warm worker pool + the one submit/collect dispatch path.

Every sweep in this repository used to pay a fresh
``ProcessPoolExecutor`` spin-up (fork, import, source-fingerprint walk)
per call.  This module keeps **one long-lived pool** warm across
sweeps and experiments and funnels every parallel point through a
single :func:`submit` / :meth:`SweepHandle.collect` seam — the same
seam a future job server will drive.

What makes the warm pool safe to share:

* **Ambient-state capsules.**  A forked worker snapshots the parent at
  fork time; a *persistent* worker forked during sweep #1 would run
  sweep #50 under stale knobs.  Every batch therefore carries a capsule
  of the ambient state that can influence results — the ``REPRO_*``
  environment knobs (hybrid mode, chaos plan path...) and the
  explicitly-activated chaos fault plan — which the worker applies
  before running the batch, so a reused worker gives the results a
  fresh one would.
* **Fingerprint shipped, not recomputed.**  The pool initializer
  exports the parent's :func:`~repro.cache.code_fingerprint` into each
  worker via ``REPRO_CODE_FINGERPRINT``, so no worker ever repeats the
  package source walk.
* **Batched dispatch.**  Points travel in chunks (one future per
  chunk, not per point), amortizing pickling and future bookkeeping on
  wide sweeps; chunking preserves task order, so results are identical
  at any chunk size.
* **A dead worker costs one sweep.**  On ``BrokenProcessPool``, at
  submit or at collect, the warm pool is dropped before re-raising, so
  the next sweep forks a fresh one.
* **A failed point costs only itself.**  Collect drains every chunk and
  memoizes the ones that finished before it re-raises the first error,
  so a rerun dispatches only the points that did not complete.
* **Cache probe before submit.**  When a result cache is active every
  key is probed first and only misses are dispatched — a fully-warm
  sweep never touches the pool (or creates it) at all.

Telemetry counters ``pool.tasks_dispatched`` and ``pool.reuse`` record
dispatch traffic (see docs/CACHING.md).
"""

from __future__ import annotations

import atexit
import contextlib
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import active_cache, code_fingerprint, stable_key
from repro.chaos import hooks as chaos_hooks

__all__ = ["SweepHandle", "submit", "dispatch", "shutdown_pool",
           "pool_stats", "resolve_chunk"]

#: The shared executor (created lazily), its size, and the owning pid.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_PID: Optional[int] = None

#: Lifetime dispatch accounting (mirrored into telemetry when active).
_STATS = {"pools_created": 0, "pool_reuses": 0, "tasks_dispatched": 0,
          "batches_dispatched": 0, "points_inline": 0}


def pool_stats() -> Dict[str, int]:
    """Lifetime pool/dispatch counters for this process (a copy)."""
    return dict(_STATS)


def shutdown_pool(wait: bool = True) -> None:
    """Tear down the persistent pool (no-op when none is alive)."""
    global _POOL, _POOL_WORKERS, _POOL_PID
    pool, _POOL = _POOL, None
    _POOL_WORKERS = 0
    _POOL_PID = None
    if pool is not None:
        pool.shutdown(wait=wait)


atexit.register(shutdown_pool)


def _worker_init(fingerprint: str) -> None:
    """Pool-worker initializer: pin the parent's code fingerprint so
    workers never repeat the package source walk."""
    os.environ["REPRO_CODE_FINGERPRINT"] = fingerprint


def _get_executor(workers: int) -> Tuple[ProcessPoolExecutor, bool]:
    """``(executor, reused)`` for a dispatch of ``workers``.

    The module-level pool is reused while its size matches; a size
    change (or a fork — pools never cross a pid) tears the old pool
    down first.
    """
    global _POOL, _POOL_WORKERS, _POOL_PID
    if _POOL is not None and (_POOL_PID != os.getpid()
                              or _POOL_WORKERS != workers):
        if _POOL_PID == os.getpid():
            shutdown_pool()
        else:  # forked child: the inherited pool belongs to the parent
            _POOL = None
            _POOL_WORKERS = 0
            _POOL_PID = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=workers,
                                    initializer=_worker_init,
                                    initargs=(code_fingerprint(),))
        _POOL_WORKERS = workers
        _POOL_PID = os.getpid()
        _STATS["pools_created"] += 1
        return _POOL, False
    _STATS["pool_reuses"] += 1
    _count("pool.reuse")
    return _POOL, True


# ---------------------------------------------------------------------------
# Ambient-state capsules
# ---------------------------------------------------------------------------

#: Worker-side chaos sessions, memoized by plan fingerprint so every
#: batch under one plan shares injector state exactly like the old
#: fork-inherited session did.
_WORKER_CHAOS: Dict[str, Any] = {}


def _capture_ambient() -> Dict[str, Any]:
    """Snapshot the parent state a worker needs to reproduce results."""
    env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    # ship the computed fingerprint even when the parent env lacks it
    env["REPRO_CODE_FINGERPRINT"] = code_fingerprint()
    plan = None
    session = chaos_hooks._ACTIVE
    if session is not None:
        plan = session.plan
    return {"env": env, "plan": plan}


def _apply_ambient(ambient: Dict[str, Any]) -> None:
    """Worker side: make the ambient state match the parent's capsule."""
    env = ambient["env"]
    for key in [k for k in os.environ
                if k.startswith("REPRO_") and k not in env]:
        del os.environ[key]
    os.environ.update(env)
    plan = ambient["plan"]
    if plan is None:
        chaos_hooks._ACTIVE = None
        return
    fp = "empty" if plan.is_empty else plan.fingerprint()
    session = _WORKER_CHAOS.get(fp)
    if session is None:
        from repro.chaos.injector import ChaosSession
        session = ChaosSession(plan)
        _WORKER_CHAOS[fp] = session
    chaos_hooks._ACTIVE = session


def _run_batch(payload: Tuple) -> List[Any]:
    """Worker entry point: apply the capsule, run the chunk in order."""
    fn, tasks, ambient = payload
    _apply_ambient(ambient)
    return [fn(task) for task in tasks]


def _run_batch_telemetry(payload: Tuple) -> List[Tuple[Any, Any]]:
    """Worker entry point for telemetry runs: each point executes in a
    fresh nested session and ships its payload home (see
    :mod:`repro.telemetry.session`)."""
    fn, tasks, ambient, spec = payload
    _apply_ambient(ambient)
    from repro.telemetry.session import nested_session
    metrics, trace, profile = spec
    out = []
    for task in tasks:
        with nested_session(metrics=metrics, trace=trace,
                            profile=profile) as session:
            result = fn(task)
        out.append((result, session.export_payload()))
    return out


def _telemetry_point(fn: Callable, task: Any,
                     spec: Tuple[bool, bool, bool]) -> Tuple[Any, Any]:
    """Serial in-process variant of one telemetry point."""
    from repro.telemetry.session import nested_session
    metrics, trace, profile = spec
    with nested_session(metrics=metrics, trace=trace,
                        profile=profile) as session:
        result = fn(task)
    return result, session.export_payload()


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def resolve_chunk(pending: int, workers: int) -> int:
    """Points per dispatched task.

    Aims for ~4 chunks per worker — enough slack for dynamic
    load balancing, few enough futures to amortize dispatch overhead on
    wide sweeps — capped so one straggler chunk never dominates.
    """
    return max(1, min(-(-pending // (workers * 4)), 64))


def _count(point: str, amount: int = 1) -> None:
    from repro.telemetry.session import active_metrics
    metrics = active_metrics()
    if metrics is not None:
        metrics.counter(point).inc(amount)


def _drop_broken(executor: ProcessPoolExecutor) -> None:
    """Discard an executor a dead worker broke: it never recovers, so
    the warm pool is dropped and the next sweep builds a fresh one."""
    if executor is _POOL:
        shutdown_pool(wait=False)
    else:
        executor.shutdown(wait=False)


class SweepHandle:
    """An in-flight sweep: probe results now, computed points later.

    :func:`submit` probes the cache and dispatches the misses; the
    handle owns the outstanding futures.  :meth:`collect` blocks for
    the remainder, memoizes fresh results and returns the full result
    list in task order.  This split is the seam a job server schedules
    through: submit many sweeps, collect as they drain.
    """

    def __init__(self, results: List[Any], pending: List[int],
                 keys: List[Optional[str]], cache: Optional[Any],
                 chunks: List[Tuple[List[int], Any]],
                 inline: Optional[Tuple[Callable, List[Any]]],
                 executor: Optional[ProcessPoolExecutor],
                 session: Optional[Any] = None, prefix_ns: str = ""):
        self._results = results
        self._pending = pending
        self._keys = keys
        self._cache = cache
        self._chunks = chunks          # [(indices, future)]
        self._inline = inline          # serial fallback: (runner, tasks)
        self._executor = executor
        self._session = session
        self._prefix_ns = prefix_ns
        self._collected = False

    @property
    def warm(self) -> bool:
        """True when every point was answered from the cache."""
        return not self._pending

    def collect(self) -> List[Any]:
        """Wait for the computed points; return results in task order.

        Every chunk is drained and the finished ones are memoized before
        the first chunk error is re-raised, so one failing point does
        not discard the work of the others.
        """
        if self._collected:
            return self._results
        self._collected = True
        if self._inline is not None:
            runner, tasks = self._inline
            for i in self._pending:
                self._finish(i, runner(tasks[i]))
            return self._results
        error: Optional[BaseException] = None
        for indices, future in self._chunks:
            failure = future.exception()  # waits; None when it succeeded
            if failure is not None:
                error = error or failure
                continue
            for i, value in zip(indices, future.result()):
                self._finish(i, value)
        if error is not None:
            if isinstance(error, BrokenProcessPool):
                _drop_broken(self._executor)
            raise error
        return self._results

    def _finish(self, index: int, value: Any) -> None:
        if self._session is not None:
            result, payload = value
            self._results[index] = result
            self._session.absorb(
                payload, prefix=f"{self._prefix_ns}[{index}]/")
            return
        self._results[index] = value
        if self._cache is not None:
            self._cache.put(self._keys[index], value)


def submit(fn: Callable[[Any], Any], tasks: Sequence[Any], *,
           jobs: int = 1, cache_ns: Optional[str] = None,
           session: Optional[Any] = None) -> SweepHandle:
    """Probe the cache and dispatch the misses; returns the handle.

    ``fn`` must be a module-level callable and each task picklable
    (they cross a process boundary when ``jobs > 1``).  When
    ``cache_ns`` names a namespace and a cache is active, completed
    points are memoized and only misses are dispatched.  A telemetry
    ``session`` switches to per-point nested sessions (and bypasses
    the cache — a hit would produce no telemetry).
    """
    tasks = list(tasks)
    results: List[Any] = [None] * len(tasks)
    pending = list(range(len(tasks)))
    keys: List[Optional[str]] = [None] * len(tasks)
    cache = None
    if session is None and cache_ns is not None:
        cache = active_cache()
    if cache is not None:
        fingerprint = code_fingerprint()
        fn_id = f"{fn.__module__}.{fn.__qualname__}"
        still_pending = []
        for i in pending:
            keys[i] = stable_key(cache_ns, fn_id, tasks[i], fingerprint)
            hit, value = cache.get(keys[i])
            if hit:
                results[i] = value
            else:
                still_pending.append(i)
        pending = still_pending
    prefix_ns = cache_ns or f"{fn.__module__}.{fn.__qualname__}"
    spec = None
    if session is not None:
        spec = (session.metrics_enabled, session.trace_enabled,
                session.profile_enabled)
    # Serial (or trivially small) work runs inline — a warm sweep, a
    # single miss, or jobs=1 never pays pool machinery at all.
    if not pending or jobs <= 1 or len(pending) <= 1:
        _STATS["points_inline"] += len(pending)
        if session is not None:
            runner: Callable = lambda task: _telemetry_point(fn, task, spec)
        else:
            runner = fn
        return SweepHandle(results, pending, keys, cache, [],
                           (runner, tasks), None, session=session,
                           prefix_ns=prefix_ns)
    workers = min(jobs, len(pending))
    executor, _reused = _get_executor(workers)
    ambient = _capture_ambient()
    chunk = resolve_chunk(len(pending), workers)
    chunks: List[Tuple[List[int], Any]] = []
    try:
        for start in range(0, len(pending), chunk):
            indices = pending[start:start + chunk]
            batch = [tasks[i] for i in indices]
            if session is not None:
                payload: Tuple = (fn, batch, ambient, spec)
                future = executor.submit(_run_batch_telemetry, payload)
            else:
                future = executor.submit(_run_batch, (fn, batch, ambient))
            chunks.append((indices, future))
    except BrokenProcessPool:
        # a worker died while later chunks were still being submitted
        _drop_broken(executor)
        raise
    _STATS["tasks_dispatched"] += len(pending)
    _STATS["batches_dispatched"] += len(chunks)
    _count("pool.tasks_dispatched", len(pending))
    return SweepHandle(results, pending, keys, cache, chunks, None,
                       executor, session=session, prefix_ns=prefix_ns)


def dispatch(fn: Callable[[Any], Any], tasks: Sequence[Any], *,
             jobs: int = 1, cache_ns: Optional[str] = None,
             session: Optional[Any] = None) -> List[Any]:
    """:func:`submit` + :meth:`SweepHandle.collect` in one call."""
    return submit(fn, tasks, jobs=jobs, cache_ns=cache_ns,
                  session=session).collect()

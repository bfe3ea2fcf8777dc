"""Parallel sweeps: one call fans independent points over a warm pool.

Every experiment in this repository decomposes into *independent*
end-to-end simulations — one fresh :class:`~repro.sim.engine.Environment`
per payload size, MTU, buffer factor or probe.  :func:`sweep` runs such
points and returns their results in task order, so a parallel sweep is
*bit-identical* to the serial one (each point is a deterministic pure
function of its task tuple; only wall-clock changes).

Job-count resolution (first match wins):

1. an explicit ``jobs=`` argument to :func:`resolve_jobs`,
2. the innermost :func:`job_context` scope (how
   ``run_experiment(..., jobs=N)`` reaches the sweeps inside),
3. the ``REPRO_JOBS`` environment variable (``auto`` = one per core),
4. serial (1).

What a sweep does, in order:

* **Cache probe first.**  When a result cache is active every key is
  probed and only misses run — a fully-warm sweep never touches the
  pool (or creates it) at all.
* **Serial work runs inline.**  ``jobs=1``, a single miss or a warm
  sweep runs in the parent process with no pool machinery.
* **One persistent warm pool.**  Parallel misses travel in
  order-preserving chunks (one future per chunk, not per point) to one
  long-lived ``ProcessPoolExecutor`` shared across sweeps and
  experiments; results are identical at any chunk size.
* **Ambient-state capsules.**  A forked worker snapshots the parent at
  fork time; a *persistent* worker forked during sweep #1 would run
  sweep #50 under stale knobs.  Every chunk therefore carries a capsule
  of the ambient state that can influence results — the ``REPRO_*``
  environment knobs (hybrid mode, chaos plan path...) and the
  explicitly-activated chaos fault plan — which the worker applies
  before running the chunk, so a reused worker gives the results a
  fresh one would.
* **Fingerprint shipped, not recomputed.**  The pool initializer
  exports the parent's :func:`~repro.cache.code_fingerprint` into each
  worker via ``REPRO_CODE_FINGERPRINT``, so no worker ever repeats the
  package source walk.
* **A failed point costs only itself, and is named.**  Every chunk is
  drained and the finished points are memoized before the first
  failure is re-raised as a :class:`~repro.errors.SweepError` naming
  the sweep, the task index and the point's key — so a rerun runs only
  the points that did not complete.
* **A dead worker costs one sweep.**  On ``BrokenProcessPool`` the warm
  pool is dropped before re-raising, so the next sweep forks a fresh
  one.

Under an active telemetry session the cache is bypassed (a hit would
return the result but produce no telemetry) and every point runs in its
own nested session whose payload is absorbed in task order.  Telemetry
counters ``pool.tasks_dispatched`` and ``pool.reuse`` record dispatch
traffic (see docs/CACHING.md).
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.cache import active_cache, code_fingerprint, stable_key
from repro.chaos import hooks as chaos_hooks
from repro.core.knobs import env_value
from repro.errors import ConfigError, SweepError
from repro.telemetry.session import (active_metrics, active_session,
                                     nested_session)

__all__ = ["sweep", "resolve_jobs", "job_context", "shutdown_pool",
           "pool_stats", "resolve_chunk"]

_active_jobs: contextvars.ContextVar = contextvars.ContextVar(
    "repro_jobs", default=None)

#: The shared executor (created lazily), its size, and the owning pid.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_PID: Optional[int] = None

#: Lifetime dispatch accounting (mirrored into telemetry when active).
_STATS = {"pools_created": 0, "pool_reuses": 0, "tasks_dispatched": 0,
          "batches_dispatched": 0, "points_inline": 0}


def resolve_jobs(jobs: Any = None) -> int:
    """Resolve a job count following the precedence above (always >= 1)."""
    if jobs is None:
        jobs = _active_jobs.get()
    if jobs is None:
        jobs = env_value("REPRO_JOBS") or 1
    if isinstance(jobs, str):
        if jobs.lower() in ("auto", "all"):
            jobs = os.cpu_count() or 1
        else:
            try:
                jobs = int(jobs)
            except ValueError:
                raise ConfigError(
                    f"job count must be an integer or 'auto', got {jobs!r}"
                ) from None
    jobs = int(jobs)
    if jobs <= 0:  # 0 and negatives mean "one per core", like make -j
        jobs = os.cpu_count() or 1
    return jobs


@contextlib.contextmanager
def job_context(jobs: Any) -> Iterator[int]:
    """Scope a job count so nested sweeps pick it up.

    ``jobs=None`` is a no-op scope (inherit the surrounding setting).
    """
    if jobs is None:
        yield resolve_jobs()
        return
    token = _active_jobs.set(resolve_jobs(jobs))
    try:
        yield resolve_jobs()
    finally:
        _active_jobs.reset(token)


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


def _get_executor(jobs: int) -> ProcessPoolExecutor:
    """The executor for a dispatch at ``jobs`` jobs.

    The module-level pool is sized by the job count, not by a sweep's
    point count, so sweeps narrower than the pool reuse it.  A job-count
    change (or a fork — pools never cross a pid) tears the old pool
    down first.
    """
    global _POOL, _POOL_WORKERS, _POOL_PID
    if _POOL is not None and (_POOL_PID != os.getpid()
                              or _POOL_WORKERS != jobs):
        if _POOL_PID == os.getpid():
            shutdown_pool()
        else:  # forked child: the inherited pool belongs to the parent
            _POOL = None
            _POOL_WORKERS = 0
            _POOL_PID = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=jobs,
                                    initializer=_worker_init,
                                    initargs=(code_fingerprint(),))
        _POOL_WORKERS = jobs
        _POOL_PID = os.getpid()
        _STATS["pools_created"] += 1
        return _POOL
    _STATS["pool_reuses"] += 1
    _count("pool.reuse")
    return _POOL


# ---------------------------------------------------------------------------
# Ambient-state capsules
# ---------------------------------------------------------------------------

#: Worker-side chaos sessions, memoized by plan fingerprint so every
#: chunk under one plan shares injector state exactly like the old
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


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

def _point_key(fn: Callable, namespace: str, task: Any) -> str:
    """The stable key of one point: its cache key, and its name in a
    :class:`~repro.errors.SweepError`."""
    return stable_key(namespace, f"{fn.__module__}.{fn.__qualname__}",
                      task, code_fingerprint())


def _run_points(fn: Callable, label: str, points: Sequence[Tuple[int, Any]],
                spec: Optional[Tuple[bool, bool, bool]]) -> List[Any]:
    """Run ``(index, task)`` points in order, in this process.

    With a telemetry ``spec`` (metrics, trace, profile) each point runs
    in a fresh nested session and yields ``(result, payload)``.  A
    raising point becomes a :class:`~repro.errors.SweepError` naming
    ``label``, its index and its key.
    """
    out = []
    for index, task in points:
        try:
            if spec is None:
                out.append(fn(task))
                continue
            with nested_session(*spec) as session:
                result = fn(task)
            out.append((result, session.export_payload()))
        except Exception as exc:  # reprolint: disable=RPR007 -- a point can raise anything; it is re-raised, never swallowed, with the task named and the original chained
            key = _point_key(fn, label, task)
            raise SweepError(f"{label}[{index}] (key {key}) failed: "
                             f"{type(exc).__name__}: {exc}",
                             index, key) from exc
    return out


def _run_chunk(payload: Tuple) -> List[Any]:
    """Worker entry point: apply the capsule, run the chunk in order."""
    fn, label, points, spec, ambient = payload
    _apply_ambient(ambient)
    return _run_points(fn, label, points, spec)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def resolve_chunk(pending: int, workers: int) -> int:
    """Points per dispatched chunk.

    Aims for ~4 chunks per worker — enough slack for dynamic
    load balancing, few enough futures to amortize dispatch overhead on
    wide sweeps — capped so one straggler chunk never dominates.
    """
    return max(1, min(-(-pending // (workers * 4)), 64))


def _count(point: str, amount: int = 1) -> None:
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


def sweep(fn: Callable[[Any], Any], tasks: Sequence[Any],
          cache_ns: Optional[str] = None) -> List[Any]:
    """Apply ``fn`` to every task; results come back in task order.

    The job count is the ambient one (see :func:`resolve_jobs`).
    ``fn`` must be a module-level callable and each task picklable
    (they cross a process boundary when the job count exceeds 1).  When
    ``cache_ns`` names a namespace and a cache is active, completed
    points are memoized and only misses run.  A point that raises
    surfaces as a :class:`~repro.errors.SweepError` once every other
    point has finished.
    """
    tasks = list(tasks)
    label = cache_ns or f"{fn.__module__}.{fn.__qualname__}"
    session = active_session()
    spec = None
    if session is not None:
        spec = (session.metrics_enabled, session.trace_enabled,
                session.profile_enabled)
    cache = None
    if session is None and cache_ns is not None:
        cache = active_cache()
    results: List[Any] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    pending = []
    for i, task in enumerate(tasks):
        if cache is not None:
            keys[i] = _point_key(fn, cache_ns, task)
            hit, value = cache.get(keys[i])
            if hit:
                results[i] = value
                continue
        pending.append(i)

    def finish(indices: Sequence[int], values: Sequence[Any]) -> None:
        for i, value in zip(indices, values):
            if session is not None:
                results[i], payload = value
                session.absorb(payload, prefix=f"{label}[{i}]/")
                continue
            results[i] = value
            if cache is not None:
                cache.put(keys[i], value)

    jobs = resolve_jobs()
    if jobs <= 1 or len(pending) <= 1:
        _STATS["points_inline"] += len(pending)
        for i in pending:
            finish([i], _run_points(fn, label, [(i, tasks[i])], spec))
        return results
    executor = _get_executor(jobs)
    ambient = _capture_ambient()
    size = resolve_chunk(len(pending), jobs)
    chunks = []
    try:
        for start in range(0, len(pending), size):
            indices = pending[start:start + size]
            points = [(i, tasks[i]) for i in indices]
            chunks.append((indices, executor.submit(
                _run_chunk, (fn, label, points, spec, ambient))))
    except BrokenProcessPool:
        # a worker died while later chunks were still being submitted
        _drop_broken(executor)
        raise
    _STATS["tasks_dispatched"] += len(pending)
    _STATS["batches_dispatched"] += len(chunks)
    _count("pool.tasks_dispatched", len(pending))
    error: Optional[BaseException] = None
    for indices, future in chunks:
        failure = future.exception()  # waits; None when it succeeded
        if failure is not None:
            error = error or failure
            continue
        finish(indices, future.result())
    if error is not None:
        if isinstance(error, BrokenProcessPool):
            _drop_broken(executor)
        raise error
    return results

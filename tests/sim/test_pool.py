"""Unit tests for the persistent warm worker pool (repro.sim.pool)."""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cache import ResultCache, cache_context
from repro.sim import pool
from repro.sim.runner import SweepRunner


def _square(task):
    return task * task


def _pid_point(task):
    return os.getpid()


def _die(task):
    os._exit(1)


def _fail_on_zero(task):
    if task == 0:
        raise ValueError("task 0 fails")
    return task * task


def _read_knob(task):
    return os.environ.get("REPRO_TEST_KNOB")


def _chaos_fingerprint(task):
    from repro.chaos.hooks import active_chaos
    session = active_chaos()
    return None if session is None else session.plan.fingerprint()


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without a warm pool."""
    pool.shutdown_pool()
    yield
    pool.shutdown_pool()


class TestPersistence:
    def test_pool_survives_across_sweeps(self):
        runner = SweepRunner(2)
        before = pool.pool_stats()["pools_created"]
        runner.map(_square, list(range(8)))
        runner.map(_square, list(range(8, 16)))
        stats = pool.pool_stats()
        assert stats["pools_created"] == before + 1
        assert stats["pool_reuses"] >= 1

    def test_workers_reused_not_respawned(self):
        runner = SweepRunner(2)
        first = set(runner.map(_pid_point, list(range(8))))
        workers = set(pool._POOL._processes)
        created = pool.pool_stats()["pools_created"]
        second = set(runner.map(_pid_point, list(range(8))))
        # The executor need not hand every worker a chunk in each sweep,
        # so a worker idle in the first sweep may serve the second; only
        # "no new process" is guaranteed: a respawn brings a PID outside
        # the pool the first sweep left behind.
        assert first | second <= workers
        assert pool.pool_stats()["pools_created"] == created
        assert os.getpid() not in first   # and not the parent

    def test_resize_recycles_pool(self):
        SweepRunner(2).map(_square, list(range(4)))
        before = pool.pool_stats()["pools_created"]
        SweepRunner(3).map(_square, list(range(6)))
        assert pool.pool_stats()["pools_created"] == before + 1

    def test_dead_worker_does_not_break_later_sweeps(self):
        SweepRunner(2).map(_square, list(range(4)))   # warm the pool
        with pytest.raises(BrokenProcessPool):
            pool.dispatch(_die, [0, 1], jobs=2)
        before = pool.pool_stats()["pools_created"]
        assert pool.dispatch(_square, list(range(6)), jobs=2) == \
            [t * t for t in range(6)]
        assert pool.dispatch(_square, [7, 8], jobs=2) == [49, 64]
        assert pool.pool_stats()["pools_created"] == before + 1

    def test_shutdown_is_idempotent(self):
        SweepRunner(2).map(_square, list(range(4)))
        pool.shutdown_pool()
        pool.shutdown_pool()
        assert SweepRunner(2).map(_square, [3, 4]) == [9, 16]


class TestBatching:
    def test_auto_chunk_shape(self):
        assert pool.resolve_chunk(8, 2) == 1
        assert pool.resolve_chunk(100, 2) == 13
        assert pool.resolve_chunk(10_000, 4) == 64  # capped

    def test_batched_vs_unbatched_identical(self, monkeypatch):
        tasks = list(range(23))
        monkeypatch.setattr(pool, "resolve_chunk", lambda n, w: 1)
        unbatched = SweepRunner(2).map(_square, tasks)
        monkeypatch.setattr(pool, "resolve_chunk", lambda n, w: 7)
        batched = SweepRunner(2).map(_square, tasks)
        assert unbatched == batched == [t * t for t in tasks]


class TestAmbientCapsule:
    def test_env_knob_changes_reach_warm_workers(self, monkeypatch):
        runner = SweepRunner(2)
        monkeypatch.setenv("REPRO_TEST_KNOB", "first")
        assert set(runner.map(_read_knob, [0, 1, 2, 3])) == {"first"}
        # the pool is warm now; a knob flip must still reach workers
        monkeypatch.setenv("REPRO_TEST_KNOB", "second")
        assert set(runner.map(_read_knob, [0, 1, 2, 3])) == {"second"}
        monkeypatch.delenv("REPRO_TEST_KNOB")
        assert set(runner.map(_read_knob, [0, 1, 2, 3])) == {None}

    def test_chaos_plan_reaches_warm_workers(self):
        from repro.chaos import FaultPlan, FaultSpec, chaos_session
        runner = SweepRunner(2)
        tasks = [0, 1, 2, 3]
        assert set(runner.map(_chaos_fingerprint, tasks)) == {None}
        plan = FaultPlan(name="pool-test", seed=3, faults=(
            FaultSpec(kind="loss_burst", target="link:*", start_s=1e-4,
                      duration_s=2e-4, probability=0.3),
        ))
        with chaos_session(plan):
            fps = set(runner.map(_chaos_fingerprint, tasks))
            assert fps == {plan.fingerprint()}
        # and deactivation propagates too
        assert set(runner.map(_chaos_fingerprint, tasks)) == {None}

    def test_fingerprint_shipped_to_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "pinned-rev")
        runner = SweepRunner(2)
        values = runner.map(
            _read_fingerprint_env, [0, 1, 2, 3])
        assert set(values) == {"pinned-rev"}


def _read_fingerprint_env(task):
    return os.environ.get("REPRO_CODE_FINGERPRINT")


class TestSubmitCollect:
    def test_fully_warm_sweep_never_touches_pool(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = list(range(6))
        with cache_context(cache):
            cold = pool.dispatch(_square, tasks, jobs=2, cache_ns="sq")
            before = pool.pool_stats()["tasks_dispatched"]
            handle = pool.submit(_square, tasks, jobs=2, cache_ns="sq")
            assert handle.warm
            warm = handle.collect()
        assert cold == warm
        assert pool.pool_stats()["tasks_dispatched"] == before

    def test_single_miss_runs_inline(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = list(range(4))
        with cache_context(cache):
            pool.dispatch(_pid_point, tasks[:3], jobs=2, cache_ns="pid")
            before = pool.pool_stats()["points_inline"]
            results = pool.dispatch(_pid_point, tasks, jobs=2,
                                    cache_ns="pid")
        # the one uncached point ran in-process, not in a worker
        assert results[3] == os.getpid()
        assert pool.pool_stats()["points_inline"] == before + 1

    def test_misses_memoized_through_handle(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = list(range(5))
        with cache_context(cache):
            first = pool.dispatch(_square, tasks, jobs=2, cache_ns="sq")
        assert cache.stores == len(tasks)
        fresh = ResultCache(tmp_path / "c")
        with cache_context(fresh):
            second = pool.dispatch(_square, tasks, jobs=2, cache_ns="sq")
        assert fresh.hits == len(tasks)
        assert first == second

    def test_failed_chunk_keeps_finished_chunks_cached(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(pool, "resolve_chunk", lambda n, w: 1)
        cache = ResultCache(tmp_path / "c")
        tasks = list(range(6))
        with cache_context(cache):
            with pytest.raises(ValueError, match="task 0 fails"):
                pool.dispatch(_fail_on_zero, tasks, jobs=2, cache_ns="f")
            assert cache.stores == 5
            before = pool.pool_stats()
            with pytest.raises(ValueError, match="task 0 fails"):
                pool.dispatch(_fail_on_zero, tasks, jobs=2, cache_ns="f")
            after = pool.pool_stats()
        # only the failing task ran again
        assert (after["tasks_dispatched"] + after["points_inline"]
                - before["tasks_dispatched"] - before["points_inline"]) == 1

    def test_collect_is_idempotent(self):
        handle = pool.submit(_square, [1, 2, 3], jobs=2)
        assert handle.collect() == [1, 4, 9]
        assert handle.collect() == [1, 4, 9]

"""Unit tests for the one sweep call and its warm worker pool
(repro.sim.pool)."""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cache import ResultCache, cache_context
from repro.errors import ConfigError, SweepError
from repro.sim import pool
from repro.sim.pool import job_context, resolve_jobs, sweep


def _square(task):
    return task * task


def _pid_point(task):
    return os.getpid()


def _pid_and_value(task):
    return os.getpid(), task


def _die(task):
    os._exit(1)


def _fail_on_zero(task):
    if task == 0:
        raise ValueError("task 0 fails")
    return task * task


def _fail_on_three(task):
    if task == 3:
        raise ValueError("task 3 fails")
    return task * task


def _read_knob(task):
    return os.environ.get("REPRO_TEST_KNOB")


def _read_fingerprint_env(task):
    return os.environ.get("REPRO_CODE_FINGERPRINT")


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


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_auto_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs("auto") == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs("many")

    def test_context_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        with job_context(2):
            assert resolve_jobs() == 2
        assert resolve_jobs() == 5

    def test_none_context_inherits(self):
        with job_context(3):
            with job_context(None):
                assert resolve_jobs() == 3


class TestSweep:
    def test_serial_map_preserves_order(self):
        with job_context(1):
            assert sweep(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_preserves_order(self):
        tasks = list(range(20))
        with job_context(4):
            assert sweep(_square, tasks) == [x * x for x in tasks]

    def test_parallel_actually_uses_workers(self):
        with job_context(3):
            results = sweep(_pid_and_value, list(range(6)))
        assert [v for _, v in results] == list(range(6))
        assert all(pid != os.getpid() for pid, _ in results)

    def test_serial_stays_in_process(self):
        with job_context(1):
            results = sweep(_pid_and_value, [1, 2])
        assert all(pid == os.getpid() for pid, _ in results)

    def test_empty_tasks(self):
        with job_context(4):
            assert sweep(_square, []) == []

    def test_single_pending_task_runs_inline(self):
        # one task never pays pool startup, even at jobs>1
        with job_context(4):
            (pid, _), = sweep(_pid_and_value, [9])
        assert pid == os.getpid()

    def test_map_memoizes_through_active_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        with cache_context(cache), job_context(1):
            first = sweep(_square, [2, 3], cache_ns="t")
            second = sweep(_square, [2, 3], cache_ns="t")
        assert first == second == [4, 9]
        assert cache.stores == 2
        assert cache.hits == 2

    def test_map_without_ns_skips_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        with cache_context(cache), job_context(1):
            sweep(_square, [2, 3])
        assert cache.stores == 0


class TestPersistence:
    def test_pool_survives_across_sweeps(self):
        before = pool.pool_stats()["pools_created"]
        with job_context(2):
            sweep(_square, list(range(8)))
            sweep(_square, list(range(8, 16)))
        stats = pool.pool_stats()
        assert stats["pools_created"] == before + 1
        assert stats["pool_reuses"] >= 1

    def test_workers_reused_not_respawned(self):
        with job_context(2):
            first = set(sweep(_pid_point, list(range(8))))
            workers = set(pool._POOL._processes)
            created = pool.pool_stats()["pools_created"]
            second = set(sweep(_pid_point, list(range(8))))
        # The executor need not hand every worker a chunk in each sweep,
        # so a worker idle in the first sweep may serve the second; only
        # "no new process" is guaranteed: a respawn brings a PID outside
        # the pool the first sweep left behind.
        assert first | second <= workers
        assert pool.pool_stats()["pools_created"] == created
        assert os.getpid() not in first   # and not the parent

    def test_resize_recycles_pool(self):
        with job_context(2):
            sweep(_square, list(range(4)))
        before = pool.pool_stats()["pools_created"]
        with job_context(3):
            sweep(_square, list(range(6)))
        assert pool.pool_stats()["pools_created"] == before + 1

    def test_narrow_sweeps_reuse_the_pool(self):
        # the pool is sized by the job count: sweeps with fewer points
        # than jobs reuse it instead of re-forking at a smaller size
        before = pool.pool_stats()["pools_created"]
        with job_context(4):
            for n in (3, 9, 3):
                assert sweep(_square, list(range(n))) == \
                    [t * t for t in range(n)]
        assert pool.pool_stats()["pools_created"] == before + 1

    def test_dead_worker_does_not_break_later_sweeps(self):
        with job_context(2):
            sweep(_square, list(range(4)))   # warm the pool
            with pytest.raises(BrokenProcessPool):
                sweep(_die, [0, 1])
            before = pool.pool_stats()["pools_created"]
            assert sweep(_square, list(range(6))) == \
                [t * t for t in range(6)]
            assert sweep(_square, [7, 8]) == [49, 64]
        assert pool.pool_stats()["pools_created"] == before + 1

    def test_shutdown_is_idempotent(self):
        with job_context(2):
            sweep(_square, list(range(4)))
            pool.shutdown_pool()
            pool.shutdown_pool()
            assert sweep(_square, [3, 4]) == [9, 16]


class TestBatching:
    def test_auto_chunk_shape(self):
        assert pool.resolve_chunk(8, 2) == 1
        assert pool.resolve_chunk(100, 2) == 13
        assert pool.resolve_chunk(10_000, 4) == 64  # capped

    def test_batched_vs_unbatched_identical(self, monkeypatch):
        tasks = list(range(23))
        with job_context(2):
            monkeypatch.setattr(pool, "resolve_chunk", lambda n, w: 1)
            unbatched = sweep(_square, tasks)
            monkeypatch.setattr(pool, "resolve_chunk", lambda n, w: 7)
            batched = sweep(_square, tasks)
        assert unbatched == batched == [t * t for t in tasks]


class TestAmbientCapsule:
    def test_env_knob_changes_reach_warm_workers(self, monkeypatch):
        tasks = [0, 1, 2, 3]
        with job_context(2):
            monkeypatch.setenv("REPRO_TEST_KNOB", "first")
            assert set(sweep(_read_knob, tasks)) == {"first"}
            # the pool is warm now; a knob flip must still reach workers
            monkeypatch.setenv("REPRO_TEST_KNOB", "second")
            assert set(sweep(_read_knob, tasks)) == {"second"}
            monkeypatch.delenv("REPRO_TEST_KNOB")
            assert set(sweep(_read_knob, tasks)) == {None}

    def test_chaos_plan_reaches_warm_workers(self):
        from repro.chaos import FaultPlan, FaultSpec, chaos_session
        tasks = [0, 1, 2, 3]
        plan = FaultPlan(name="pool-test", seed=3, faults=(
            FaultSpec(kind="loss_burst", target="link:*", start_s=1e-4,
                      duration_s=2e-4, probability=0.3),
        ))
        with job_context(2):
            assert set(sweep(_chaos_fingerprint, tasks)) == {None}
            with chaos_session(plan):
                fps = set(sweep(_chaos_fingerprint, tasks))
                assert fps == {plan.fingerprint()}
            # and deactivation propagates too
            assert set(sweep(_chaos_fingerprint, tasks)) == {None}

    def test_fingerprint_shipped_to_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "pinned-rev")
        with job_context(2):
            values = sweep(_read_fingerprint_env, [0, 1, 2, 3])
        assert set(values) == {"pinned-rev"}


class TestSubmitCollect:
    def test_fully_warm_sweep_never_touches_pool(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = list(range(6))
        with cache_context(cache), job_context(2):
            cold = sweep(_square, tasks, cache_ns="sq")
            pool.shutdown_pool()
            before = pool.pool_stats()
            warm = sweep(_square, tasks, cache_ns="sq")
        assert cold == warm
        # no pool created or reused, nothing dispatched or run inline
        assert pool.pool_stats() == before
        assert pool._POOL is None

    def test_single_miss_runs_inline(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = list(range(4))
        with cache_context(cache), job_context(2):
            sweep(_pid_point, tasks[:3], cache_ns="pid")
            before = pool.pool_stats()["points_inline"]
            results = sweep(_pid_point, tasks, cache_ns="pid")
        # the one uncached point ran in-process, not in a worker
        assert results[3] == os.getpid()
        assert pool.pool_stats()["points_inline"] == before + 1

    def test_misses_memoized_through_handle(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = list(range(5))
        with cache_context(cache), job_context(2):
            first = sweep(_square, tasks, cache_ns="sq")
        assert cache.stores == len(tasks)
        fresh = ResultCache(tmp_path / "c")
        with cache_context(fresh), job_context(2):
            second = sweep(_square, tasks, cache_ns="sq")
        assert fresh.hits == len(tasks)
        assert first == second

    def test_failed_chunk_keeps_finished_chunks_cached(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(pool, "resolve_chunk", lambda n, w: 1)
        cache = ResultCache(tmp_path / "c")
        tasks = list(range(6))
        with cache_context(cache), job_context(2):
            with pytest.raises(SweepError, match="task 0 fails") as failed:
                sweep(_fail_on_zero, tasks, cache_ns="f")
            assert failed.value.index == 0
            assert cache.stores == 5
            before = pool.pool_stats()
            with pytest.raises(SweepError, match="task 0 fails"):
                sweep(_fail_on_zero, tasks, cache_ns="f")
            after = pool.pool_stats()
        # only the failing task ran again
        assert (after["tasks_dispatched"] + after["points_inline"]
                - before["tasks_dispatched"] - before["points_inline"]) == 1

    def test_failing_point_is_named_at_any_job_count(self):
        label = f"{_fail_on_three.__module__}._fail_on_three"
        errors = []
        for jobs in (1, 2):
            with job_context(jobs), pytest.raises(SweepError) as failed:
                sweep(_fail_on_three, list(range(6)))
            errors.append(failed.value)
        key = pool._point_key(_fail_on_three, label, 3)
        for error in errors:
            assert error.index == 3
            assert error.key == key
            assert str(error) == (f"{label}[3] (key {key}) failed: "
                                  "ValueError: task 3 fails")
            assert error.__cause__ is not None

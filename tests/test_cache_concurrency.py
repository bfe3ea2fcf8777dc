"""Multi-process stress test: concurrent writers on one sharded cache.

Several worker processes hammer the same cache directory through
independent :class:`ResultCache` handles.  The contract under test:

* no corruption — every entry written by anyone reads back valid;
* no lost entries — a fresh handle sees the union of all writes;
* exact accounting — each worker's hit/miss/store/error counters match
  what its access pattern predicts (misses only where a miss was
  scripted, zero errors anywhere).

The shared-key phase has every worker racing ``put()`` on the *same*
keys with the *same* value — any winner's ``os.replace`` publishes
identical bytes, so readers must never observe a torn or invalid file.
"""

import multiprocessing

from repro.cache import ResultCache

WORKERS = 4
PRIVATE_KEYS = 12
SHARED_KEYS = 8


def _stress_worker(cache_dir, worker_id, shared_keys, queue):
    """One writer process: scripted private phase, racy shared phase."""
    try:
        cache = ResultCache(cache_dir)
        # -- private phase: every outcome is predictable -----------------
        for j in range(PRIVATE_KEYS):
            key = cache.key("private", worker_id, j)
            hit, _ = cache.get(key)            # scripted miss
            assert not hit
            assert cache.put(key, ("value", worker_id, j))
            hit, value = cache.get(key)        # scripted hit
            assert hit and value == ("value", worker_id, j)
        # -- shared phase: all workers race identical writes -------------
        for key in shared_keys:
            cache.put(key, ("shared", key))
            hit, value = cache.get(key)
            assert hit and value == ("shared", key)
        queue.put((worker_id, cache.hits, cache.misses, cache.stores,
                   cache.errors))
    except BaseException as exc:  # surface assertion text to the parent
        queue.put((worker_id, "error", repr(exc)))


def test_concurrent_writers_exact_accounting(tmp_path):
    cache_dir = tmp_path / "c"
    probe = ResultCache(cache_dir)
    shared_keys = [probe.key("shared", j) for j in range(SHARED_KEYS)]
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    procs = [ctx.Process(target=_stress_worker,
                         args=(cache_dir, i, shared_keys, queue))
             for i in range(WORKERS)]
    for p in procs:
        p.start()
    reports = [queue.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    assert len(reports) == WORKERS

    # exact per-worker accounting
    for report in sorted(reports):
        assert report[1] != "error", report
        worker_id, hits, misses, stores, errors = report
        assert errors == 0
        assert misses == PRIVATE_KEYS            # only the scripted misses
        assert stores == PRIVATE_KEYS + SHARED_KEYS
        # private hits are exact; every shared read back must also hit
        assert hits == PRIVATE_KEYS + SHARED_KEYS

    # no lost entries: a fresh handle sees the union of all writes
    fresh = ResultCache(cache_dir)
    stats = fresh.stats()
    expected = WORKERS * PRIVATE_KEYS + SHARED_KEYS
    assert stats.entries == expected
    assert len(fresh.keys()) == expected

    # no corruption: every single entry reads back valid
    for i in range(WORKERS):
        for j in range(PRIVATE_KEYS):
            key = fresh.key("private", i, j)
            assert fresh.get(key) == (True, ("value", i, j))
    for key in shared_keys:
        assert fresh.get(key) == (True, ("shared", key))
    assert fresh.errors == 0

    # no temp-file litter from the atomic-publish dance
    assert not list(cache_dir.rglob("*.tmp"))


def _churn_worker(cache_dir, worker_id, keys, queue):
    """Interleave puts and invalidates on overlapping keys."""
    try:
        cache = ResultCache(cache_dir)
        for r in range(3):
            for key in keys:
                cache.put(key, (worker_id, r))
                if (worker_id + r) % 2:
                    cache.invalidate(key)
        queue.put((worker_id, cache.errors))
    except BaseException as exc:
        queue.put((worker_id, repr(exc)))


def test_interleaved_put_invalidate_keeps_files_consistent(tmp_path):
    """Churning writers + removers leave valid entry files that stats
    and keys report exactly."""
    cache_dir = tmp_path / "c"
    probe = ResultCache(cache_dir)
    keys = [probe.key("churn", j) for j in range(6)]
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    procs = [ctx.Process(target=_churn_worker,
                         args=(cache_dir, i, keys, queue))
             for i in range(3)]
    for p in procs:
        p.start()
    reports = [queue.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    for _, errors in reports:
        assert errors == 0
    # the entry files are the truth: every surviving file reads back
    # valid, and a fresh handle's keys are exactly the files on disk
    fresh = ResultCache(cache_dir)
    for key in keys:
        hit, value = fresh.get(key)
        if hit:  # value shape: (worker_id, round)
            assert isinstance(value, tuple) and len(value) == 2
    assert set(fresh.keys()) == {k for k in keys
                                 if (cache_dir / k[:2] / f"{k}.pkl").exists()}
    assert fresh.errors == 0

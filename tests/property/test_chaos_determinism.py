"""Property-based determinism contracts for the chaos engine.

Two guarantees, the load-bearing ones from docs/RESILIENCE.md:

1. A seeded ``(plan, seed)`` pair produces bit-identical outcomes across
   the data paths (``REPRO_TRAIN=0|1``) — fault injection composes with
   the batched data path without perturbing determinism.
2. The empty plan is a true no-op: a run under it is byte-identical to
   a run with chaos off entirely, down to the engine's event sequence
   counter.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import stable_key
from repro.chaos import FaultPlan, FaultSpec, chaos_session
from repro.config import TuningConfig
from repro.net.topology import BackToBack
from repro.net.train import TRAIN_ENV
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.nttcp import nttcp_run

MTU = 9000
COUNT = 16


def _run_transfer(batched, plan):
    """One nttcp transfer under ``plan``; returns a full-state tuple."""
    saved = os.environ.get(TRAIN_ENV)
    os.environ[TRAIN_ENV] = "1" if batched else "0"
    try:
        with chaos_session(plan) as session:
            env = Environment()
            bb = BackToBack.create(env, TuningConfig.oversized_windows(MTU))
            conn = TcpConnection(env, bb.a, bb.b)
            result = nttcp_run(env, conn, payload=conn.mss, count=COUNT)
            injector = session.injector_for(env)
            rows = tuple(
                (row["kind"], tuple(row["matched"]), row["fired"],
                 row["recovered"], row["frames"], row["drops"],
                 row["holds"], row["dups"], row["corrupts"])
                for row in injector.summary()) if injector else ()
    finally:
        if saved is None:
            del os.environ[TRAIN_ENV]
        else:
            os.environ[TRAIN_ENV] = saved
    return result, env.now, rows


def _run_clean(batched):
    """The same transfer with no chaos machinery active at all."""
    saved = os.environ.get(TRAIN_ENV)
    os.environ[TRAIN_ENV] = "1" if batched else "0"
    try:
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.oversized_windows(MTU))
        conn = TcpConnection(env, bb.a, bb.b)
        result = nttcp_run(env, conn, payload=conn.mss, count=COUNT)
    finally:
        if saved is None:
            del os.environ[TRAIN_ENV]
        else:
            os.environ[TRAIN_ENV] = saved
    return result, env.now, env.events_scheduled


# Windows quantized so some land mid-transfer (drops + retransmissions)
# and some after it (pure no-ops) — both must stay deterministic.
start_grid = st.integers(min_value=0, max_value=8).map(lambda n: n * 2.5e-5)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       probability=st.sampled_from([0.25, 0.5, 1.0]),
       start_s=start_grid)
@settings(max_examples=6, deadline=None)
def test_plan_outcome_identical_across_data_paths(seed, probability, start_s):
    plan = FaultPlan(name="prop", seed=seed, faults=(
        FaultSpec(kind="loss_burst", target="link:xover.fwd",
                  start_s=start_s, duration_s=1e-4,
                  probability=probability),
        FaultSpec(kind="reorder_window", target="link:xover.rev",
                  start_s=start_s, duration_s=5e-5, delay_s=4e-5,
                  probability=0.5, kinds=("ack",)),
    ))
    hashes = {stable_key(_run_transfer(batched, plan))
              for batched in (False, True)}
    assert len(hashes) == 1  # one outcome on both data paths


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=4, deadline=None)
def test_seed_changes_draws_but_not_determinism(seed):
    plan = FaultPlan(name="prop", seed=seed, faults=(
        FaultSpec(kind="loss_burst", target="link:xover.fwd",
                  start_s=0.0, duration_s=1e-3, probability=0.5),))
    first = _run_transfer(True, plan)
    second = _run_transfer(True, plan)
    assert stable_key(first) == stable_key(second)


def test_empty_plan_byte_identical_to_chaos_off():
    for batched in (False, True):
        clean = _run_clean(batched)
        saved = os.environ.get(TRAIN_ENV)
        os.environ[TRAIN_ENV] = "1" if batched else "0"
        try:
            with chaos_session(FaultPlan()):
                env = Environment()
                bb = BackToBack.create(
                    env, TuningConfig.oversized_windows(MTU))
                conn = TcpConnection(env, bb.a, bb.b)
                result = nttcp_run(env, conn, payload=conn.mss,
                                   count=COUNT)
        finally:
            if saved is None:
                del os.environ[TRAIN_ENV]
            else:
                os.environ[TRAIN_ENV] = saved
        # Identical down to the engine's event sequence counter: the
        # empty plan scheduled nothing and wrapped nothing.
        assert (result, env.now, env.events_scheduled) == clean

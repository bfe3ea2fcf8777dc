"""Property-based determinism contracts for the chaos engine.

Two guarantees, the load-bearing ones from docs/RESILIENCE.md:

1. A seeded ``(plan, seed)`` pair produces bit-identical outcomes on
   every run (``tests/golden/test_data_path.py`` pins six such plans).
2. The empty plan is a true no-op: a run under it is byte-identical to
   a run with chaos off entirely, down to the engine's event sequence
   counter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import stable_key
from repro.chaos import FaultPlan, FaultSpec, chaos_session
from repro.config import TuningConfig
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.nttcp import nttcp_run

MTU = 9000
COUNT = 16


def _transfer():
    """One nttcp transfer; returns ``(result, env)``."""
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(MTU))
    conn = TcpConnection(env, bb.a, bb.b)
    return nttcp_run(env, conn, payload=conn.sender.mss, count=COUNT), env


def _run_transfer(plan):
    """One nttcp transfer under ``plan``; returns a full-state tuple."""
    with chaos_session(plan) as session:
        result, env = _transfer()
        injector = session.injector_for(env)
        rows = tuple(
            (row["kind"], tuple(row["matched"]), row["fired"],
             row["recovered"], row["frames"], row["drops"],
             row["holds"], row["dups"], row["corrupts"])
            for row in injector.summary()) if injector else ()
    return result, env.now, rows


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=4, deadline=None)
def test_seed_changes_draws_but_not_determinism(seed):
    plan = FaultPlan(name="prop", seed=seed, faults=(
        FaultSpec(kind="loss_burst", target="link:xover.fwd",
                  start_s=0.0, duration_s=1e-3, probability=0.5),))
    first = _run_transfer(plan)
    second = _run_transfer(plan)
    assert stable_key(first) == stable_key(second)


def test_empty_plan_byte_identical_to_chaos_off():
    result, env = _transfer()
    clean = (result, env.now, env.events_scheduled)
    with chaos_session(FaultPlan()):
        result, env = _transfer()
    # Identical down to the engine's event sequence counter: the
    # empty plan scheduled nothing and wrapped nothing.
    assert (result, env.now, env.events_scheduled) == clean

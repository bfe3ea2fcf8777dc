"""Golden digests of short end-to-end runs: the dispatch loop's output,
pinned to the float bit.

Each scenario runs a small simulation through the public API and hashes
the exact ``repr`` of every float it reports.  Any change to the order
in which the engine dispatches same-instant entries or to the fire
instants it computes changes a digest.  The engine's entry counters
(entries scheduled, entries left pending) are not results: they sit in
the separate :data:`COUNTERS` table, so a change that schedules fewer
entries for the same output moves a table row and no digest.  Every
scenario also runs under the engine self-profiler, whose dispatch loop
must give the same digest and counters.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.chaos import FaultPlan, FaultSpec, chaos_session
from repro.config import TuningConfig
from repro.core.wanrecord import WanRecordRun
from repro.net.fabric import build_fat_tree
from repro.net.hybrid import FabricSimulation, incast_pairs
from repro.net.topology import BackToBack, ThroughSwitch
from repro.sim import Environment
from repro.telemetry import telemetry_session
from repro.tcp.connection import TcpConnection
from repro.tools.netpipe import netpipe_latency
from repro.tools.nttcp import nttcp_run


def _canon(value):
    """JSON-ready copy with every float replaced by its exact repr."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def digest(record):
    """sha256 over every field of ``record`` except its counters."""
    fields = {k: v for k, v in record.items() if k != "counters"}
    blob = json.dumps(_canon(fields), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _counters(env):
    return {"events": env.events_scheduled, "pending": env.pending_count()}


def nttcp_point(mtu, payload=8192, count=96):
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock(mtu))
    conn = TcpConnection(env, bb.a, bb.b)
    r = nttcp_run(env, conn, payload, count)
    return {"result": dataclasses.asdict(r), "now": env.now,
            "counters": _counters(env)}


def pingpong(switch, coalesce_us, payload=512, iterations=6):
    config = TuningConfig(mtu=1500, mmrbc=4096, smp_kernel=False,
                          interrupt_coalescing_us=coalesce_us)
    env = Environment()
    topo = (ThroughSwitch if switch else BackToBack).create(env, config)
    forward = TcpConnection(env, topo.a, topo.b)
    backward = TcpConnection(env, topo.b, topo.a)
    r = netpipe_latency(env, forward, backward, payload, iterations)
    return {"result": dataclasses.asdict(r), "now": env.now,
            "counters": _counters(env)}


def wan_des():
    out = WanRecordRun().run_des_scaled(scale=0.02, duration_s=0.02)
    return {"result": dataclasses.asdict(out)}


def hybrid_incast():
    topo = build_fat_tree(8)
    r = FabricSimulation(topo, incast_pairs(topo, 128), n_foreground=8,
                         mode="hybrid").run(duration_s=0.02)
    fields = dataclasses.asdict(r)
    del fields["wall_s"]  # host time, not simulated output
    return {"result": fields}


def chaos_transfer():
    """A non-empty fault plan.  The injector arms its faults with a
    ``schedule_call_at(now, ...)`` made before the first dispatch, and
    CPU contention starts its first steal slice with a zero delay."""
    plan = FaultPlan(name="golden", seed=7, faults=(
        FaultSpec(kind="loss_burst", target="link:*", start_s=0.0,
                  duration_s=0.002, probability=0.05),
        FaultSpec(kind="cpu_contention", target="cpu:hostA.cpu",
                  start_s=0.0005, duration_s=0.002, factor=0.5),
    ))
    with chaos_session(plan) as session:
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
        conn = TcpConnection(env, bb.a, bb.b)
        r = nttcp_run(env, conn, payload=conn.mss, count=64)
        rows = session.injector_for(env).summary()
    return {"result": dataclasses.asdict(r), "faults": rows, "now": env.now,
            "counters": _counters(env)}


SCENARIOS = {
    "nttcp_1500": lambda: nttcp_point(1500),
    "nttcp_9000": lambda: nttcp_point(9000),
    "pingpong_b2b_0us": lambda: pingpong(False, 0.0),
    "pingpong_b2b_5us": lambda: pingpong(False, 5.0),
    "pingpong_switch_0us": lambda: pingpong(True, 0.0),
    "pingpong_switch_5us": lambda: pingpong(True, 5.0),
    "wan_des": wan_des,
    "hybrid_incast": hybrid_incast,
    "chaos_transfer": chaos_transfer,
}

#: Digests of every reported field but the counters (the end instant
#: included).  The floats are the ones first recorded on the
#: heap-dispatch engine that preceded the same-instant lane and
#: event-free callback entries.
GOLDEN = {
    "nttcp_1500":
        "71ccd721536d83ec25641f4c4fedbb4a1ce87ffc97ab3aafac0893972450a5b2",
    "nttcp_9000":
        "b41648e7a3009bdc72cf7d8ffdb9d798aa6c1455f1ccc25d6c8c3c3ec1096ada",
    "pingpong_b2b_0us":
        "94858bbe082d95bb0fe2254d9ccf9632d3a9052fbc5043ebfe3b32883bca7bab",
    "pingpong_b2b_5us":
        "15504e06f17abb475a8ad04b691e101648fd335132dbc17512d6e2c08ec39b7c",
    "pingpong_switch_0us":
        "9853ab4aca969b03045e171105ad2a62a4d1b9943542550d7ae07b71e0a59316",
    "pingpong_switch_5us":
        "fb129b33f79770e011f09df9f23080aa39265400ecd9e3af46c3b198181198ad",
    "wan_des":
        "a8d7289ca29bab8c7c3583cb2a65b684cecb4a477a67ab91bdcde9a461505f38",
    "hybrid_incast":
        "b28cb0201b3a58b7d5688aff8c40bb0f96009c4368f4aba994183a3de952d02b",
    "chaos_transfer":
        "306009bf25a6ef2aaa18963a65ec23ad3314ae9064766a6d71fdfdbd1846ae34",
}

#: Entries scheduled over the run and entries still pending at its end,
#: for the scenarios that report them.  A change that schedules a
#: different number of entries for the same results moves a row here
#: and no digest.
COUNTERS = {
    "nttcp_1500": {"events": 8028, "pending": 4},
    "nttcp_9000": {"events": 1911, "pending": 3},
    "pingpong_b2b_0us": {"events": 194, "pending": 7},
    "pingpong_b2b_5us": {"events": 211, "pending": 7},
    "pingpong_switch_0us": {"events": 245, "pending": 7},
    "pingpong_switch_5us": {"events": 262, "pending": 7},
    "chaos_transfer": {"events": 1219, "pending": 7},
}


@pytest.mark.parametrize("name,profiled", [
    pytest.param(name, profiled, id=name + ("-profiled" if profiled else ""))
    for profiled in (False, True) for name in sorted(SCENARIOS)])
def test_golden_digest(name, profiled):
    if profiled:
        with telemetry_session(metrics=False, profile=True) as session:
            record = SCENARIOS[name]()
        assert session.profile.events_total > 0
    else:
        record = SCENARIOS[name]()
    assert digest(record) == GOLDEN[name]
    assert record.get("counters") == COUNTERS.get(name)


def test_chaos_scenario_fires_its_faults():
    rows = chaos_transfer()["faults"]
    assert all(row["fired"] for row in rows)
    assert rows[0]["drops"] > 0

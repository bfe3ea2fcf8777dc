"""Golden digests of short end-to-end runs: the dispatch loop's output,
pinned to the float bit.

Each scenario runs a small simulation through the public API and hashes
the exact ``repr`` of every float it reports, plus the event counters.
Any change to the order in which the engine dispatches same-instant
entries, to the fire instants it computes, or to the number of entries
it schedules changes a digest.  Every scenario also runs under the
engine self-profiler, whose dispatch loop must give the same digest.
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
    blob = json.dumps(_canon(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _env_counters(env):
    return {"now": env.now, "events": env.events_scheduled,
            "pending": env.pending_count()}


def nttcp_point(mtu, payload=8192, count=96):
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock(mtu))
    conn = TcpConnection(env, bb.a, bb.b)
    r = nttcp_run(env, conn, payload, count)
    return {"result": dataclasses.asdict(r), "env": _env_counters(env)}


def pingpong(switch, coalesce_us, payload=512, iterations=6):
    config = TuningConfig(mtu=1500, mmrbc=4096, smp_kernel=False,
                          interrupt_coalescing_us=coalesce_us)
    env = Environment()
    topo = (ThroughSwitch if switch else BackToBack).create(env, config)
    forward = TcpConnection(env, topo.a, topo.b)
    backward = TcpConnection(env, topo.b, topo.a)
    r = netpipe_latency(env, forward, backward, payload, iterations)
    return {"result": dataclasses.asdict(r), "env": _env_counters(env)}


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
    return {"result": dataclasses.asdict(r), "faults": rows,
            "env": _env_counters(env)}


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

#: Recorded on the heap-dispatch engine that preceded the same-instant
#: lane and event-free callback entries.
GOLDEN = {
    "nttcp_1500":
        "681a0252b681237742b9f7adebd73cf649a712950de0f8440f85b58ddaca01ca",
    "nttcp_9000":
        "0f09b537f83627295cc29fb3a3c8f54870c6364af1f16fefd8665e44dd209a92",
    "pingpong_b2b_0us":
        "f6c3acb2fe6990ef671aa902e4acc263529d013d7d2468c5a96f109a2cdb4567",
    "pingpong_b2b_5us":
        "d987be800cf2018879d78f3745ca05565d5fb8092531e0278fcd22bf100df443",
    "pingpong_switch_0us":
        "3f2dcafb1ec4f05302599c6f903e222f81008d38f6273055e294a2649ac7a792",
    "pingpong_switch_5us":
        "0b8c967813760f7fd3a1b9c4a95f7e5942e5fe4586d7db00a478b0ecc95d4cb3",
    "wan_des":
        "a8d7289ca29bab8c7c3583cb2a65b684cecb4a477a67ab91bdcde9a461505f38",
    "hybrid_incast":
        "b28cb0201b3a58b7d5688aff8c40bb0f96009c4368f4aba994183a3de952d02b",
    "chaos_transfer":
        "6b8eb3a0f579592a7e86907fc7141bdf446852174f936ae11761c7e8e544d759",
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


def test_chaos_scenario_fires_its_faults():
    rows = chaos_transfer()["faults"]
    assert all(row["fired"] for row in rows)
    assert rows[0]["drops"] > 0

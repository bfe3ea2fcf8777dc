"""Unit tests for the chaos injector: windows, targets, activation."""

import json
import os

import pytest

from repro.chaos import (ChaosSession, FaultPlan, FaultSpec, chaos_session)
from repro.chaos import hooks
from repro.config import TuningConfig
from repro.errors import ChaosError
from repro.net.ethernet import EthernetLink
from repro.net.topology import BackToBack
from repro.net.wanpath import PosCircuit, Router
from repro.oskernel.skbuff import SkBuff
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.telemetry import telemetry_session
from repro.telemetry.points import CATALOG
from repro.tools.nttcp import nttcp_run
from repro.units import Gbps


class Collector:
    def __init__(self, env):
        self.env = env
        self.frames = []

    def receive_frame(self, skb):
        self.frames.append((skb.seq, skb.kind, self.env.now))


def make_skb(seq, kind="data"):
    return SkBuff(payload=1000, headers=52, kind=kind, seq=seq,
                  end_seq=seq + 1000)


def single_fault_plan(seed=0, **spec_overrides):
    spec = dict(kind="link_flap", target="link:lab.*", start_s=1.0,
                duration_s=1.0)
    spec.update(spec_overrides)
    return FaultPlan(name="unit", seed=seed, faults=(FaultSpec(**spec),))


def build_link(env, name="lab.link"):
    link = EthernetLink(env, Gbps(10), 0.0, 9000, name=name)
    sink = Collector(env)
    link.connect(sink)
    return link, sink


def transmit_at(env, link, times, kind="data"):
    for i, t in enumerate(times):
        env.schedule_call_at(t, link.transmit, make_skb(i * 1000, kind))


# -- window semantics ------------------------------------------------------------

def test_link_flap_drops_only_inside_window():
    plan = single_fault_plan()  # window [1.0, 2.0)
    with chaos_session(plan) as session:
        env = Environment()
        link, sink = build_link(env)
        transmit_at(env, link, [0.5, 1.5, 2.5])
        env.run()
        row = session.injector_for(env).summary()[0]
    assert [seq for seq, _, _ in sink.frames] == [0, 2000]
    assert row["matched"] == ["lab.link"]
    assert row["fired"] and row["recovered"]
    assert row["frames"] == 1 and row["drops"] == 1


def test_window_open_inclusive_close_exclusive():
    """A frame at the exact opening instant is faulted; at the closing
    instant it is not — the injector's events are scheduled up-front so
    they win (time, seq) ties against later-scheduled deliveries."""
    plan = single_fault_plan()
    with chaos_session(plan) as session:
        env = Environment()
        link, sink = build_link(env)
        injector = session.injector_for(env)

        def deliver(seq):
            injector._taps[id(link)].receive_frame(make_skb(seq))

        env.schedule_call_at(1.0, deliver, 0)     # exactly at open: faulted
        env.schedule_call_at(2.0, deliver, 1000)  # exactly at close: clean
        env.run()
    assert [seq for seq, _, _ in sink.frames] == [1000]


def test_frame_kind_filter_skips_mismatches():
    plan = single_fault_plan(kinds=("data",))
    with chaos_session(plan) as session:
        env = Environment()
        link, sink = build_link(env)
        transmit_at(env, link, [1.2, 1.4], kind="ack")
        env.run()
        row = session.injector_for(env).summary()[0]
    assert len(sink.frames) == 2
    assert row["frames"] == 0 and row["drops"] == 0


def test_loss_burst_probability_is_seed_deterministic():
    times = [1.0 + i * 1e-4 for i in range(40)]

    def run(seed):
        plan = single_fault_plan(seed=seed, kind="loss_burst",
                                 probability=0.5, duration_s=1.0)
        with chaos_session(plan) as session:
            env = Environment()
            link, sink = build_link(env)
            transmit_at(env, link, times)
            env.run()
            row = session.injector_for(env).summary()[0]
        return [seq for seq, _, _ in sink.frames], row["drops"]

    delivered_a, drops_a = run(seed=7)
    delivered_b, drops_b = run(seed=7)
    assert delivered_a == delivered_b and drops_a == drops_b
    assert 0 < drops_a < len(times)  # p=0.5 over 40 frames: partial loss


def test_corruption_accounted_separately_from_drops():
    plan = single_fault_plan(kind="corruption", duration_s=1.0)
    with chaos_session(plan) as session:
        env = Environment()
        link, sink = build_link(env)
        transmit_at(env, link, [1.2, 1.4])
        env.run()
        row = session.injector_for(env).summary()[0]
    assert not sink.frames
    assert row["corrupts"] == 2 and row["drops"] == 0


def test_duplicate_delivers_stale_copy():
    plan = single_fault_plan(kind="duplicate")
    with chaos_session(plan) as session:
        env = Environment()
        link, sink = build_link(env)
        transmit_at(env, link, [1.2, 1.4])
        env.run()
        row = session.injector_for(env).summary()[0]
    seqs = [seq for seq, _, _ in sink.frames]
    assert seqs == [0, 0, 1000, 1000]
    assert row["dups"] == 2


def test_reorder_window_lets_later_frames_overtake():
    plan = single_fault_plan(kind="reorder_window", start_s=1.0,
                             duration_s=0.15, delay_s=0.5)
    with chaos_session(plan) as session:
        env = Environment()
        link, sink = build_link(env)
        transmit_at(env, link, [1.1, 1.2, 1.3])  # only 1.1 is in-window
        env.run()
        row = session.injector_for(env).summary()[0]
    assert [seq for seq, _, _ in sink.frames] == [1000, 2000, 0]
    assert row["holds"] == 1


def test_unmatched_fault_is_a_noop():
    plan = single_fault_plan(target="link:no.such.component")
    with chaos_session(plan) as session:
        env = Environment()
        link, sink = build_link(env)
        transmit_at(env, link, [1.2])
        env.run()
        injector = session.injector_for(env)
    assert len(sink.frames) == 1
    assert injector.unmatched == [0]
    row = injector.summary()[0]
    assert row["matched"] == [] and not row["fired"]


def test_buffer_degrade_shrinks_then_restores_capacity():
    plan = FaultPlan(name="unit", faults=(
        FaultSpec(kind="buffer_degrade", target="router:lab.rtr",
                  start_s=1.0, duration_s=1.0, factor=0.01),))
    with chaos_session(plan) as session:
        env = Environment()
        circuit = PosCircuit(env, 2.5e9, 0.0, name="lab.pos")
        circuit.connect(Collector(env))
        router = Router(env, circuit, name="lab.rtr", queue_frames=8)
        for i in range(6):  # burst inside the window at capacity 1
            env.schedule_call_at(1.5, router.receive_frame, make_skb(i * 1000))
        env.run()
        row = session.injector_for(env).summary()[0]
    assert row["fired"] and row["recovered"]
    assert router.queue.capacity == 8  # restored at window close
    assert router.drops.total > 0     # degraded queue shed the burst


# -- full-stack faults (NIC / CPU) -----------------------------------------------

def _transfer(plan, count=16):
    cm = chaos_session(plan) if plan is not None else None
    session = cm.__enter__() if cm is not None else None
    try:
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
        conn = TcpConnection(env, bb.a, bb.b)
        result = nttcp_run(env, conn, payload=conn.sender.mss, count=count)
        row = (session.injector_for(env).summary()[0]
               if session is not None else None)
    finally:
        if cm is not None:
            cm.__exit__(None, None, None)
    return result, env.now, row


def test_nic_stall_parks_frames_until_recovery():
    plan = FaultPlan(name="unit", faults=(
        FaultSpec(kind="nic_stall", target="nic:hostB.eth0",
                  start_s=0.0, duration_s=0.01, kinds=("*",)),))
    result, now, row = _transfer(plan)
    assert row["fired"] and row["recovered"]
    assert row["holds"] > 0
    assert result.bytes_delivered > 0
    assert now > 0.01  # nothing could complete before the stall lifted


def test_nic_reset_drops_ingress_and_tcp_recovers():
    plan = FaultPlan(name="unit", faults=(
        FaultSpec(kind="nic_reset", target="nic:hostB.eth0",
                  start_s=0.0, duration_s=0.005),))
    result, _, row = _transfer(plan)
    assert row["fired"] and row["recovered"]
    assert row["drops"] > 0
    assert result.bytes_delivered > 0  # retransmissions made it whole


def test_cpu_contention_slows_the_transfer():
    clean, now_clean, _ = _transfer(None)
    plan = FaultPlan(name="unit", faults=(
        FaultSpec(kind="cpu_contention", target="cpu:hostA.cpu",
                  start_s=0.0, duration_s=0.01, factor=0.9),))
    contended, now_chaos, row = _transfer(plan)
    # The window outlives the transfer (the run stops when the last byte
    # lands), so only the firing is observable here.
    assert row["fired"]
    assert contended.bytes_delivered == clean.bytes_delivered
    assert now_chaos > now_clean


# -- activation surfaces ---------------------------------------------------------

def test_nested_chaos_session_rejected():
    with chaos_session(FaultPlan()):
        with pytest.raises(ChaosError):
            with chaos_session(FaultPlan()):
                pass  # pragma: no cover


def test_chaos_session_accepts_dict_and_path(tmp_path):
    plan = single_fault_plan()
    with chaos_session(plan.to_dict()) as session:
        assert session.plan == plan
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    with chaos_session(path) as session:
        assert session.plan == plan


def test_session_requires_a_plan():
    with pytest.raises(ChaosError):
        ChaosSession("not a plan")


def test_empty_plan_attaches_no_injector():
    with chaos_session(FaultPlan()) as session:
        env = Environment()
        assert session.injector_for(env) is None


def test_env_var_arms_a_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(single_fault_plan().to_dict()))
    os.environ[hooks.CHAOS_ENV] = str(path)
    try:
        env = Environment()
        link, sink = build_link(env)
        transmit_at(env, link, [1.5])
        env.run()
    finally:
        del os.environ[hooks.CHAOS_ENV]
        hooks._ENV_SESSIONS.pop(str(path), None)
    assert sink.frames == []  # flap window swallowed the frame


# -- telemetry -------------------------------------------------------------------

def test_chaos_points_posted_and_cataloged():
    plan = single_fault_plan(kind="loss_burst", probability=1.0)
    with telemetry_session(trace=True) as ts:
        with chaos_session(plan) as session:
            env = Environment()
            link, _ = build_link(env)
            transmit_at(env, link, [1.5])
            env.run()
            assert session.injector_for(env).summary()[0]["drops"] == 1
    posted = {point for _, _, point, _, _ in ts.events
              if point.startswith("chaos.")}
    assert {"chaos.fault_armed", "chaos.fault_fired",
            "chaos.fault_recovered", "chaos.frame_drop"} <= posted
    assert posted <= set(CATALOG)

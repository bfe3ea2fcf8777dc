"""The receiver's lazy delayed-ACK timer: one outstanding engine entry
per receiver, relayed to the live deadline, firing exactly
``DELACK_TIMEOUT_S`` after the arming that is still live."""

import pytest

from repro.config import TuningConfig
from repro.hw.host import Host
from repro.hw.presets import PE2650
from repro.net.topology import BackToBack
from repro.oskernel.skbuff import SkBuff
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tcp.mss import MtuProfile
from repro.tcp.receiver import DELACK_TIMEOUT_S, TcpReceiver
from repro.telemetry import telemetry_session
from repro.tools.netpipe import netpipe_latency
from repro.tools.nttcp import nttcp_run

PAYLOAD = 100


class RecordingNic:
    """Captures the ACKs the receiver emits."""

    address = "rec.eth0"

    def __init__(self):
        self.sent = []

    def send(self, skb):
        self.sent.append(skb)
        return True


def make_receiver():
    env = Environment()
    cfg = TuningConfig.oversized_windows(9000)
    host = Host(env, PE2650, cfg, name="R")
    host.trace.enabled = True
    nic = RecordingNic()
    rx = TcpReceiver(env, host, nic, conn=1, src_address="peer",
                     profile=MtuProfile(mtu=cfg.mtu,
                                        timestamps=cfg.tcp_timestamps),
                     peer_advertised_mss=8960)
    return env, rx, nic, host


def segment(index):
    return SkBuff(payload=PAYLOAD, headers=64, kind="data",
                  seq=index * PAYLOAD, end_seq=(index + 1) * PAYLOAD, conn=1)


def fire_times(host):
    return [ev.time for ev in host.trace.select("tcp.delack.fire")]


def delack_entries(env, rx):
    """Queued engine entries that would run this receiver's timer."""
    return [entry for entry in env._queue if entry[2] == rx._on_delack]


def test_fires_at_arm_instant_plus_timeout():
    env, rx, nic, host = make_receiver()
    env.schedule_call(1e-3, rx.on_data_frame, segment(0))
    env.run(until=1.0)
    # first_data_time is the instant the segment was processed, which
    # is the instant it armed the timer
    assert fire_times(host) == [rx.first_data_time + DELACK_TIMEOUT_S]
    assert len(nic.sent) == 1 and nic.sent[0].ack == PAYLOAD


def test_ack_cancels_the_fire():
    env, rx, nic, host = make_receiver()
    env.schedule_call(1e-3, rx.on_data_frame, segment(0))
    env.schedule_call(2e-3, rx.on_data_frame, segment(1))
    env.run(until=1.0)
    assert fire_times(host) == []
    assert [ack.ack for ack in nic.sent] == [2 * PAYLOAD]
    assert delack_entries(env, rx) == []


def test_early_entry_relays_to_a_later_arming():
    env, rx, nic, host = make_receiver()
    env.schedule_call(1e-3, rx.on_data_frame, segment(0))
    env.schedule_call(2e-3, rx.on_data_frame, segment(1))   # ACK: disarm
    env.run(until=10e-3)
    first_entry = delack_entries(env, rx)
    assert len(first_entry) == 1    # the cancelled arming's entry remains
    rx.first_data_time = None       # restamped by the next segment
    env.schedule_call(0.0, rx.on_data_frame, segment(2))
    env.run(until=20e-3)
    rearmed_at = rx.first_data_time
    # the re-arming pushed nothing: the earlier entry is still the one
    assert delack_entries(env, rx) == first_entry
    env.run(until=first_entry[0][0] + 1e-6)
    relayed = delack_entries(env, rx)
    assert len(relayed) == 1
    assert relayed[0][0] == rearmed_at + DELACK_TIMEOUT_S
    env.run(until=1.0)
    assert fire_times(host) == [rearmed_at + DELACK_TIMEOUT_S]
    assert [ack.ack for ack in nic.sent] == [2 * PAYLOAD, 3 * PAYLOAD]


def test_nttcp_run_keeps_one_delack_entry():
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock(1500))
    conn = TcpConnection(env, bb.a, bb.b)
    rx = conn.receiver
    schedule_call_at = env.schedule_call_at
    most = [0]
    pushed = [0]

    def counting_schedule_call_at(at_time, fn, *args):
        schedule_call_at(at_time, fn, *args)
        if fn == rx._on_delack:
            pushed[0] += 1
            most[0] = max(most[0], len(delack_entries(env, rx)))

    env.schedule_call_at = counting_schedule_call_at
    armings = [0]
    arm = rx._arm_delack

    def counting_arm():
        armings[0] += int(not rx._delack_armed)
        arm()

    rx._arm_delack = counting_arm
    nttcp_run(env, conn, 8192, 768)
    env.run(until=env.now + 0.1)
    assert armings[0] > 100
    assert 0 < pushed[0] < armings[0]
    assert most[0] == 1


def _fires(session):
    return sum(row["data"]["value"] for row in session.registry.snapshot()
               if row["name"] == "tcp.delack.fires")


def _nttcp_then_idle():
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock(1500))
    conn = TcpConnection(env, bb.a, bb.b)
    nttcp_run(env, conn, 8192, 768)
    env.run(until=env.now + 0.1)


def _sparse_writes():
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock(9000))
    conn = TcpConnection(env, bb.a, bb.b)

    def app():
        for _ in range(64):
            yield from conn.sender.write(PAYLOAD)
            yield env.timeout(0.05)

    env.process(app())
    env.run()


def _pingpong():
    config = TuningConfig(mtu=1500, mmrbc=4096, smp_kernel=False,
                          interrupt_coalescing_us=0.0)
    env = Environment()
    topo = BackToBack.create(env, config)
    netpipe_latency(env, TcpConnection(env, topo.a, topo.b),
                    TcpConnection(env, topo.b, topo.a), 512, 7)
    env.run(until=env.now + 0.1)


#: ``tcp.delack.fires`` as the one-entry-per-arming timer counted them.
@pytest.mark.parametrize("scenario,fires", [
    (_nttcp_then_idle, 0), (_sparse_writes, 64), (_pingpong, 2)],
    ids=["nttcp_768", "sparse_writes", "pingpong"])
def test_delack_fire_counts_unchanged(scenario, fires):
    with telemetry_session() as session:
        scenario()
    assert _fires(session) == fires

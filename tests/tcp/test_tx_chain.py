"""The TCP transmit path as a callback chain.

The sender pump and the retransmit path charge the CPU arithmetically
and hand segments to the NIC through ``TenGigAdapter.enqueue``'s
``done`` callback; no process, event or timeout is involved.  The loss
cases below pin results first recorded with the process-based pump
(one generator per sender, one per retransmission), to the float bit.
"""

from repro.chaos import LossTap
from repro.config import TuningConfig
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.telemetry import telemetry_session
from repro.tools.nttcp import nttcp_run

SEGMENTS = 48
PAYLOAD = 8948


def loss_run(drops):
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
    conn = TcpConnection(env, bb.a, bb.b)
    LossTap(env, bb.links[0], drops)
    total = PAYLOAD * SEGMENTS

    def app():
        yield from conn.send_stream(PAYLOAD, SEGMENTS)
        yield from conn.wait_delivered(total, poll_s=1e-3)

    env.run(until=env.process(app()))
    snd, rcv = conn.sender, conn.receiver
    return {"now": repr(env.now), "retransmitted": snd.retransmitted,
            "fast_retransmits": snd.cwnd.fast_retransmits,
            "timeouts": snd.cwnd.timeouts,
            "segments_sent": snd.segments_sent,
            "acks_received": snd.acks_received, "acks_sent": rcv.acks_sent,
            "delivered": rcv.bytes_delivered,
            "last_delivery": repr(rcv.last_delivery_time),
            "goodput": repr(conn.goodput_bps())}


def test_fast_retransmit_matches_the_process_pump():
    # segment 5 lost mid-window: dupacks trigger fast retransmit
    assert loss_run({5}) == {
        "now": "0.002214310106795397", "retransmitted": 3,
        "fast_retransmits": 2, "timeouts": 0, "segments_sent": 48,
        "acks_received": 32, "acks_sent": 32, "delivered": 429504,
        "last_delivery": "0.0014884915175586658",
        "goodput": "2422151784.0850935"}


def test_rto_retransmit_matches_the_process_pump():
    # the last segment lost: no dupacks follow, so only the RTO recovers
    assert loss_run({SEGMENTS - 1}) == {
        "now": "0.2417728607569984", "retransmitted": 1,
        "fast_retransmits": 0, "timeouts": 1, "segments_sent": 48,
        "acks_received": 24, "acks_sent": 24, "delivered": 429504,
        "last_delivery": "0.2410987568337913",
        "goodput": "14255687.537238253"}


def test_building_a_connection_schedules_nothing():
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock(1500))
    before = env.events_scheduled
    TcpConnection(env, bb.a, bb.b)
    assert env.events_scheduled == before
    assert env.pending_count() == 0


def test_nttcp_sender_path_dispatches_no_event_or_timeout():
    """In a 768-write Fig. 3 transfer every Event and Timeout entry
    resumes the application process (its write syscalls, wmem waits
    and the final delivery wait); the stack below it runs on callback
    entries only."""
    with telemetry_session(metrics=False, profile=True) as session:
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.stock(1500))
        conn = TcpConnection(env, bb.a, bb.b)
        result = nttcp_run(env, conn, 8192, 768)
    prof = session.profile
    assert result.bytes_delivered == 8192 * 768
    waits = prof.event_counts["Event"] + prof.event_counts["Timeout"]
    assert waits == prof.callback_counts["nttcp"]
    # one Timeout per write syscall: the sender adds none per segment
    assert prof.event_counts["Timeout"] == 768
    assert prof.callback_counts["TcpSender._pump_sent"] \
        == conn.sender.segments_sent == 4608

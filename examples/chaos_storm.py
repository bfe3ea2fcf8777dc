#!/usr/bin/env python
"""Chaos storm: the "one loss event ruins the record run" experiment.

The §5 record run pushed 2×10^7 packets Sunnyvale -> Geneva without a
single loss.  This demo shows why it *had* to be lossless, in three
acts:

1. **back-of-envelope** — Table 1's arithmetic: halve a BDP-sized Reno
   window at 2.38 Gb/s / 180 ms RTT and the 1-MSS-per-RTT regrowth
   takes ~55 min with per-segment ACKs, ~1.8 h with delayed ACKs —
   the paper's "~1.5 hours".
2. **fluid model** — force exactly one loss mid-run and score the
   goodput series with the chaos analyzer; the measured time-to-recover
   lands on the analytic value.
3. **packet-level DES** — arm a declarative :class:`FaultPlan` (a loss
   burst on the bottleneck OC-48) against the scaled WAN testbed and
   read the injector's per-fault scorecard.  Per seed, the outcome is
   bit-identical run to run.

Run:  python examples/chaos_storm.py
"""

from repro.analysis.resilience import wan_loss_report
from repro.chaos import FaultPlan, FaultSpec, chaos_session
from repro.config import TuningConfig
from repro.core.wanrecord import WanRecordRun
from repro.net.topology import build_wan_path
from repro.sim.engine import Environment
from repro.tcp.analytic import recovery_time_s
from repro.tcp.connection import TcpConnection

#: Scaled-down DES cross-check (full-distance packet-level runs of the
#: recovery tail would take simulated hours for no extra fidelity).
DES_SCALE = 0.05
DES_DURATION_S = 3.0


def act_one() -> None:
    print("=" * 72)
    print("Act 1: the back-of-envelope (Table 1)")
    print("=" * 72)
    rate, rtt = 2.38e9, 0.180
    for mss, label in ((1460, "standard 1500B MTU"),
                       (8948, "jumbo 9000B MTU")):
        t = recovery_time_s(rate, rtt, mss)
        print(f"  {label:<20}: {t / 60:6.1f} min per-segment ACKs, "
              f"{2 * t / 3600:5.2f} h delayed ACKs")
    print("  paper: a single loss would have taken TCP Reno ~1.5 hours "
          "to recover from -> the record needed a loss-free path.\n")


def act_two() -> None:
    print("=" * 72)
    print("Act 2: fluid model, one forced loss, analyzer scorecard")
    print("=" * 72)
    report = wan_loss_report()
    print(report.text)
    measured = report.data["time_to_recover_s"]
    analytic = report.data["analytic_recovery_s"]
    print(f"\n  measured/analytic ratio: {measured / analytic:.2f} "
          f"(piecewise fluid vs closed form)\n")
    assert report.data["recovered"], "fluid run never recovered"
    assert 0.5 <= measured / analytic <= 1.5, (
        "measured recovery strayed from the Table 1 arithmetic")


def act_three() -> None:
    print("=" * 72)
    print("Act 3: packet-level DES under a declarative FaultPlan")
    print("=" * 72)
    run = WanRecordRun()
    buf = max(65536, int(run.bdp_buffer_bytes(truesize_aware=True)
                         * DES_SCALE))
    plan = FaultPlan(name="oc48-loss-burst", seed=42, faults=(
        FaultSpec(kind="loss_burst", target="link:wan.fwd.oc48*",
                  start_s=DES_DURATION_S / 2, duration_s=0.05,
                  probability=0.5, label="bottleneck burst"),))
    print(f"  plan: {plan.name}, seed {plan.seed}, fingerprint "
          f"{plan.fingerprint()[:12]}")
    with chaos_session(plan) as session:
        env = Environment()
        config = TuningConfig.wan_tuned(buf=buf)
        testbed = build_wan_path(env, config,
                                 bottleneck_queue_frames=run.queue_frames)
        for path in (testbed.forward, testbed.reverse):
            path.oc192.propagation_s *= DES_SCALE
            path.oc48.propagation_s *= DES_SCALE
        conn = TcpConnection(env, testbed.sunnyvale, testbed.geneva)
        stop = {"flag": False}

        def source():
            while not stop["flag"]:
                yield from conn.write(262144)

        env.process(source(), name="storm.src")
        env.run(until=DES_DURATION_S)
        stop["flag"] = True
        injector = session.injector_for(env)
        assert injector is not None, "plan did not attach to the DES run"
        for row in injector.summary():
            print(f"  fault #{row['index']} {row['kind']} on "
                  f"{row['matched']}: {row['drops']} drops over "
                  f"{row['frames']} frames, fired={row['fired']}, "
                  f"recovered={row['recovered']}")
            assert row["fired"] and row["recovered"], "window never ran"
            assert row["matched"], "plan matched no component"
        delivered = conn.receiver.bytes_delivered
        rtx = conn.sender.retransmitted
        print(f"  delivered {delivered / 1e6:.1f} MB, "
              f"{rtx} retransmissions, env.now={env.now:.3f}s")
        assert delivered > 0
    print()


def main() -> None:
    act_one()
    act_two()
    act_three()
    print("chaos storm complete: clean paths break records, "
          "chaotic ones measure resilience.")


if __name__ == "__main__":
    main()

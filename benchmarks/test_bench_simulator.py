"""Simulator microbenchmarks: the engine's own performance.

Not a paper artifact — these track the DES kernel's cost (events/s,
simulated-segments/s) so regressions in the simulator itself are caught
by the same harness that regenerates the paper.  Multiple rounds, real
statistics (unlike the one-shot experiment benches).
"""

from repro.config import TuningConfig
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.nttcp import nttcp_run


def test_engine_event_throughput(benchmark):
    """Raw timeout scheduling/dispatch rate."""

    def run():
        env = Environment()
        for i in range(5000):
            env.timeout(i * 1e-6)
        env.run()
        return env.now

    result = benchmark(run)
    assert result > 0


def test_engine_process_switching(benchmark):
    """Generator-process resume cost."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(500):
                yield env.timeout(1e-6)

        for _ in range(10):
            env.process(ticker())
        env.run()
        return env.now

    benchmark(run)


def test_tcp_segment_rate(benchmark):
    """End-to-end simulated TCP cost: wall time per simulated segment
    through the full host/NIC/link/stack path."""

    def run():
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
        conn = TcpConnection(env, bb.a, bb.b)
        return nttcp_run(env, conn, payload=8948, count=256)

    result = benchmark(run)
    assert result.bytes_delivered == 8948 * 256

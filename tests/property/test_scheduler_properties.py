"""Property-based determinism contracts for the event queue and the
train-batched data path.

Two guarantees, each exercised over randomized inputs:

1. Same-time FIFO: events scheduled for the same instant fire in
   insertion order.
2. Data-path equivalence: a full TCP transfer produces bit-identical
   results with segment-train batching on and off (``REPRO_TRAIN``) —
   batching is a pure performance knob.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TuningConfig
from repro.net.topology import BackToBack
from repro.net.train import TRAIN_ENV
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.nttcp import nttcp_run

# Delays quantized to a coarse grid so same-time collisions are common
# (the interesting case for FIFO ordering).
delay_grid = st.integers(min_value=0, max_value=40).map(lambda n: n * 2.5e-6)
delay_lists = st.lists(delay_grid, min_size=1, max_size=80)


class TestSameTimeFifo:
    @given(ds=delay_lists)
    @settings(max_examples=50, deadline=None)
    def test_equal_times_fire_in_insertion_order(self, ds):
        env = Environment()
        fired = []
        for i, d in enumerate(ds):
            env.schedule_call(d, fired.append, (d, i))
        env.run()
        assert [d for d, _ in fired] == sorted(ds)
        for t in {d for d, _ in fired}:
            indices = [i for d, i in fired if d == t]
            assert indices == sorted(indices)


def _run_transfer(batched, mtu, count):
    """One nttcp transfer with train batching forced on or off."""
    saved = os.environ.get(TRAIN_ENV)
    os.environ[TRAIN_ENV] = "1" if batched else "0"
    try:
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.oversized_windows(mtu))
        conn = TcpConnection(env, bb.a, bb.b)
        result = nttcp_run(env, conn, payload=conn.mss, count=count)
    finally:
        if saved is None:
            del os.environ[TRAIN_ENV]
        else:
            os.environ[TRAIN_ENV] = saved
    return result, env.now


class TestTrainBatchingEquivalence:
    @given(mtu=st.sampled_from([1500, 8160, 9000, 16000]),
           count=st.integers(min_value=4, max_value=48))
    @settings(max_examples=15, deadline=None)
    def test_transfer_bit_identical_on_vs_off(self, mtu, count):
        res_on, now_on = _run_transfer(True, mtu, count)
        res_off, now_off = _run_transfer(False, mtu, count)
        # Every field bit-identical: byte counts, elapsed time, goodput,
        # CPU loads, retransmissions — and the final simulation clock.
        assert res_on == res_off
        assert now_on == now_off

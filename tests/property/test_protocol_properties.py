"""Property-based tests (hypothesis) for the protocol arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oskernel.allocator import (
    MAX_BLOCK,
    BuddyAllocator,
    block_order,
    block_size_for,
)
from repro.tcp.analytic import recovery_time_s
from repro.tcp.congestion import RenoCongestion
from repro.tcp.window import (
    ReceiveWindow,
    sws_aligned,
    window_from_space,
    window_scale_for,
    wire_window,
)

sizes = st.integers(min_value=1, max_value=MAX_BLOCK)
mss_values = st.integers(min_value=88, max_value=15960)
windows = st.integers(min_value=0, max_value=1 << 27)


class TestAllocatorProperties:
    @given(sizes)
    def test_block_holds_request_and_is_power_of_two(self, n):
        block = block_size_for(n)
        assert block >= n
        assert block & (block - 1) == 0

    @given(sizes)
    def test_block_is_minimal(self, n):
        block = block_size_for(n)
        assert block // 2 < max(n, 256)

    @given(sizes)
    def test_order_consistent_with_pages(self, n):
        block = block_size_for(n)
        order = block_order(block)
        assert (1 << order) * 4096 >= block

    @given(st.lists(sizes, min_size=1, max_size=50))
    def test_alloc_free_conservation(self, requests):
        alloc = BuddyAllocator()
        handles = [alloc.alloc(n) for n in requests]
        assert alloc.outstanding_bytes == sum(h.block for h in handles)
        for h in handles:
            alloc.free(h)
        assert alloc.outstanding_bytes == 0
        assert alloc.stats.live == 0


class TestWindowProperties:
    @given(windows, mss_values)
    def test_sws_aligned_is_mss_multiple_and_bounded(self, avail, mss):
        aligned = sws_aligned(avail, mss)
        assert aligned % mss == 0
        assert 0 <= aligned <= max(avail, 0)
        assert avail - aligned < mss or avail < 0

    @given(windows)
    def test_window_from_space_bounds(self, space):
        w = window_from_space(space)
        assert 0 <= w <= max(space, 0)
        if space >= 4:
            assert w >= space // 2  # reservation is at most a quarter

    @given(windows, st.integers(min_value=0, max_value=14))
    def test_wire_window_roundtrip_loss_bounded(self, w, scale):
        wired = wire_window(w, scale)
        assert wired <= w or wired <= (65535 << scale)
        assert w - wired < (1 << scale) or wired == (65535 << scale) >> scale << scale

    @given(st.integers(min_value=4096, max_value=1 << 28))
    def test_scale_makes_usable_window_representable(self, rmem):
        scale = window_scale_for(rmem)
        usable = window_from_space(rmem)
        if scale < 14:
            assert (usable >> scale) <= 65535

    @given(st.integers(min_value=16384, max_value=1 << 22),
           mss_values,
           st.lists(st.integers(min_value=256, max_value=16384),
                    min_size=0, max_size=30))
    @settings(max_examples=50)
    def test_receive_window_never_negative_never_retreats(
            self, rmem, mss, charges):
        win = ReceiveWindow(rmem=rmem, align_mss=mss)
        previous_right = win.rcv_nxt + win.current
        for truesize in charges:
            win.charge(truesize)
            adv = win.advertise()
            assert adv >= 0
            right = win.rcv_nxt + adv
            assert right >= previous_right
            previous_right = right


class TestCongestionProperties:
    @given(st.lists(st.sampled_from(["ack", "dup", "timeout"]),
                    min_size=0, max_size=200))
    def test_cwnd_always_at_least_one_segment(self, events):
        cc = RenoCongestion(mss=1448)
        for ev in events:
            if ev == "ack":
                cc.on_ack(1)
            elif ev == "dup":
                cc.on_dupack()
            else:
                cc.on_timeout()
            assert cc.cwnd_segments >= 1

    @given(st.integers(min_value=1, max_value=1000))
    def test_slow_start_growth_is_monotone(self, acks):
        cc = RenoCongestion(mss=1448)
        last = cc.cwnd
        for _ in range(min(acks, 50)):
            cc.on_ack(1)
            assert cc.cwnd >= last
            last = cc.cwnd


class TestRecoveryTimeProperties:
    @given(st.floats(min_value=1e8, max_value=1e11),
           st.floats(min_value=1e-4, max_value=1.0),
           mss_values)
    def test_recovery_monotone_in_rtt_and_antitone_in_mss(
            self, bw, rtt, mss):
        t = recovery_time_s(bw, rtt, mss)
        assert t >= 0
        assert recovery_time_s(bw, rtt * 2, mss) > t
        assert recovery_time_s(bw, rtt, mss * 2) < t or t == 0

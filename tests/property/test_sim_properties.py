"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.timeline import FifoTimeline

delays = st.lists(st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=60)


class TestEventOrdering:
    @given(delays)
    def test_events_fire_in_time_order(self, ds):
        env = Environment()
        fired = []
        for d in ds:
            env.schedule_call(d, fired.append, d)
        env.run()
        assert fired == sorted(ds)
        assert env.now == max(ds)

    @given(delays)
    def test_equal_times_fifo(self, ds):
        env = Environment()
        fired = []
        for i, d in enumerate(ds):
            env.schedule_call(round(d, 0), fired.append, (round(d, 0), i))
        env.run()
        # among equal times, insertion order preserved
        for t in {x for x, _ in fired}:
            indices = [i for x, i in fired if x == t]
            assert indices == sorted(indices)


class TestFifoTimelineProperties:
    @given(st.integers(min_value=1, max_value=5),
           st.lists(st.floats(min_value=0.01, max_value=5.0),
                    min_size=1, max_size=25))
    @settings(max_examples=40)
    def test_timeline_conserves_work(self, capacity, holds):
        """Committed time equals the sum of hold times, and the
        makespan is bounded by the list-scheduling bound."""
        env = Environment()
        line = FifoTimeline(env, capacity=capacity)
        done = []
        for h in holds:
            _, end = line.charge(h)
            env.schedule_call_at(end, done.append, end)
        env.run()
        assert len(done) == len(holds)
        assert env.now == max(done)
        assert abs(line.committed_time - sum(holds)) < 1e-9
        assert abs(line.busy_elapsed() - sum(holds)) < 1e-9
        lower = max(max(holds), sum(holds) / capacity)
        assert env.now >= lower - 1e-9
        assert env.now <= sum(holds) + 1e-9

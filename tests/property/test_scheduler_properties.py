"""Property-based determinism contract for the event queue: events
scheduled for the same instant fire in insertion order, over randomized
delay lists.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment

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


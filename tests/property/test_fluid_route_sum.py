"""Property test: FluidFabric's suffix-shared route sums are bit-exact.

The step kernel sums a per-link value along every route once per
distinct hop-1.. suffix and adds each flow's first hop last.  Whatever
the fabric, the floats must equal the dense reference
``np.add.reduceat(per_link[link_of], offsets)`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.fluid import FluidFabric

#: non-negative values spanning many magnitudes, so a change in the
#: order of additions changes the rounding; zeros are uncongested links
values = st.one_of(st.just(0.0),
                   st.floats(min_value=0.0, max_value=1e9,
                             allow_nan=False, allow_infinity=False))


@st.composite
def fabrics(draw, longest):
    """Routes over ``n_links`` links whose suffixes come from a small
    pool (so flows share them), one of them ``longest`` hops long."""
    n_links = draw(st.integers(min_value=longest, max_value=longest + 12))
    link = st.integers(min_value=0, max_value=n_links - 1)
    suffix = st.lists(link, unique=True, max_size=longest - 1)
    pool = draw(st.lists(suffix, min_size=1, max_size=4))
    # the longest route: a suffix of longest - 1 distinct links
    pool.append(draw(st.permutations(range(n_links)))[:longest - 1])
    routes = []
    for rest in draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=12)) + [pool[-1]]:
        first = draw(link.filter(lambda i, rest=rest: i not in rest))
        routes.append([first] + list(rest))
    per_link = draw(st.lists(values, min_size=n_links, max_size=n_links))
    return n_links, routes, per_link


def reference(per_link, routes):
    link_of = np.concatenate([np.asarray(r, dtype=np.intp) for r in routes])
    offsets = np.cumsum([0] + [len(r) for r in routes[:-1]])
    return np.add.reduceat(per_link[link_of], offsets)


@pytest.mark.parametrize("longest", [1, 2, 6, 8, 11],
                         ids=lambda h: f"{h}_hops")
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_route_sum_matches_reduceat_bit_for_bit(longest, data):
    """1-hop routes, routes up to the 8-hop table, and longer routes
    (which keep np.add.reduceat) all give the reference floats."""
    n_links, routes, link_values = data.draw(fabrics(longest))
    fabric = FluidFabric([1.0] * n_links, [1.0] * n_links, routes,
                         base_rtt_s=1e-4, mss=1000, max_window_segments=10)
    # the padding link the hop table points at holds 0
    per_link = np.append(np.asarray(link_values, dtype=float), 0.0)
    out = np.full(len(routes), np.nan)
    fabric._route_sum(per_link, out)
    want = reference(per_link, routes)
    assert out.tobytes() == want.tobytes()

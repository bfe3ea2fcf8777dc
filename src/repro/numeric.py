"""Float arithmetic that rounds as NumPy does, without importing NumPy.

Modules on the discrete-event path reproduce a NumPy reduction's result
to the last bit in plain Python, so that importing them never loads
NumPy (see ``docs/PERFORMANCE.md``, "Cold start").
"""

from __future__ import annotations

from typing import List

__all__ = ["pairwise_sum"]


def pairwise_sum(values: List[float]) -> float:
    """Sum ``values`` in NumPy's float64 ``sum`` order, to the last bit.

    The order: left to right below eight terms, eight interleaved lanes
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` up to 128,
    halves above.  ``pairwise_sum(values) / len(values)`` is
    ``np.mean(values)``."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    r = values[:8]
    whole = n - n % 8
    for i in range(8, whole, 8):
        for j in range(8):
            r[j] += values[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[whole:]:
        total += v
    return total

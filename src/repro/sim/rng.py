"""Deterministic, named random-number streams.

Every stochastic element of the simulation (loss processes, jitter,
sampling intervals) draws from its own named stream so that adding a new
consumer of randomness never perturbs existing experiments — the classic
variance-reduction discipline for simulation studies.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    """A factory of independent ``numpy.random.Generator`` streams.

    Streams are derived from a root seed via ``SeedSequence.spawn``-style
    keying on the stream name, so ``streams.get("loss")`` is identical
    across runs with the same root seed regardless of creation order.
    """

    def __init__(self, seed: int = 0x10BE):
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """The stream for ``name`` (created on first use)."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(
                entropy=self._seed,
                spawn_key=tuple(name.encode("utf-8")),
            )
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

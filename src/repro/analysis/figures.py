"""Figure data containers: named x/y series with text rendering.

The reproduction regenerates figure *data* (the series the paper
plots); :meth:`Figure.render` draws a coarse ASCII chart so benchmark
output is inspectable without a plotting stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import MeasurementError

__all__ = ["Series", "Figure"]


@dataclass
class Series:
    """One plotted line."""

    label: str
    x: Sequence[float]
    y: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise MeasurementError(
                f"series {self.label!r}: x and y lengths differ")
        if not len(self.x):
            raise MeasurementError(f"series {self.label!r} is empty")


@dataclass
class Figure:
    """A named collection of series (one paper figure)."""

    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list)

    def add(self, series: Series) -> None:
        """Append a line."""
        self.series.append(series)

    def render(self, width: int = 72, height: int = 16) -> str:
        """ASCII plot: one glyph per series, shared axes."""
        if not self.series:
            raise MeasurementError(f"figure {self.title!r} has no series")
        glyphs = "*o+x#@%&"
        xs = np.concatenate([np.asarray(s.x, float) for s in self.series])
        ys = np.concatenate([np.asarray(s.y, float) for s in self.series])
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = 0.0, float(ys.max()) * 1.05
        if x1 <= x0 or y1 <= y0:
            raise MeasurementError("degenerate axes")
        grid = [[" "] * width for _ in range(height)]
        for si, s in enumerate(self.series):
            glyph = glyphs[si % len(glyphs)]
            for xv, yv in zip(s.x, s.y):
                col = int((xv - x0) / (x1 - x0) * (width - 1))
                row = int((yv - y0) / (y1 - y0) * (height - 1))
                grid[height - 1 - row][col] = glyph
        lines = [self.title]
        for i, row in enumerate(grid):
            yv = y1 - i * (y1 - y0) / (height - 1)
            lines.append(f"{yv:10.2f} |" + "".join(row))
        lines.append(" " * 11 + "+" + "-" * width)
        lines.append(f"{'':11}{x0:<12.0f}{self.xlabel:^{width - 24}}{x1:>12.0f}")
        for si, s in enumerate(self.series):
            lines.append(f"  {glyphs[si % len(glyphs)]} = {s.label}")
        return "\n".join(lines)

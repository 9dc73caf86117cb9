"""Rectangular analysis regions and deterministic sample lattices."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

__all__ = ["AnalysisRegion", "lattice_points"]

#: lattice points sit up to this many cell widths off their cell centres
_JITTER = 0.4


@dataclass(frozen=True)
class AnalysisRegion:
    """Axis-aligned box of per-dimension [lo, hi] bounds."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
                raise ValueError(f"invalid bounds [{lo}, {hi}]")
        # cached per-dimension tuples keep the hot membership test cheap
        object.__setattr__(self, "_lo", tuple(b[0] for b in self.bounds))
        object.__setattr__(self, "_hi", tuple(b[1] for b in self.bounds))
        object.__setattr__(self, "_spans", tuple(b[1] - b[0] for b in self.bounds))

    @classmethod
    def of(cls, *bounds) -> "AnalysisRegion":
        return cls(tuple((float(lo), float(hi)) for lo, hi in bounds))

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    @property
    def lower(self) -> np.ndarray:
        return np.array(self._lo)

    @property
    def upper(self) -> np.ndarray:
        return np.array(self._hi)

    @property
    def span(self) -> np.ndarray:
        return np.array(self._spans)

    def cushioned_bounds(self, cushion: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Lower and upper corners of the box inflated by ``cushion`` (a
        fraction of each dimension's span) on both sides."""
        lo = tuple(lo - cushion * span for lo, span in zip(self._lo, self._spans))
        hi = tuple(hi + cushion * span for hi, span in zip(self._hi, self._spans))
        return lo, hi

    def contains(self, point) -> bool:
        return all(l <= v <= h for v, l, h in zip(point, self._lo, self._hi))

    def intersect(self, other: "AnalysisRegion") -> "AnalysisRegion":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        bounds = []
        for (alo, ahi), (blo, bhi) in zip(self.bounds, other.bounds):
            lo, hi = max(alo, blo), min(ahi, bhi)
            if not lo < hi:
                raise ValueError("regions do not overlap")
            bounds.append((lo, hi))
        return AnalysisRegion(tuple(bounds))


def lattice_points(region: AnalysisRegion, count: int, rng_seed: int = 0) -> np.ndarray:
    """Stratified sample lattice inside ``region``.

    Each dimension is split into ceil(count**(1/n)) cells; one point is
    placed per cell at its center plus a jitter of up to ``_JITTER`` cell
    widths, drawn from a private RNG seeded with ``rng_seed``. The result
    is fully determined by (region, count, rng_seed).
    """
    n = region.dimension
    cells = max(1, math.ceil(count ** (1.0 / n)))
    rng = random.Random(rng_seed)
    lower = region._lo
    cell = [span / cells for span in region._spans]
    rows = []
    # last dimension fastest over the cell grid
    for idx in itertools.product(range(cells), repeat=n):
        row = []
        for d in range(n):
            center = lower[d] + (idx[d] + 0.5) * cell[d]
            row.append(center + rng.uniform(-_JITTER, _JITTER) * cell[d])
        rows.append(row)
    return np.array(rows)

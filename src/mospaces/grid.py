"""Finite discrete measure spaces and step functions on them.

A ``MeasureGrid`` is an ordered list of cells with strictly positive finite
weights.  It is the discrete stand-in for a sigma-finite measure space: every
"almost everywhere" statement downstream becomes "on every cell".  Grids and
step functions are immutable; norm engines evaluate modulars against them
many times and share them freely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import GridMismatchError, UnknownCellError

CellSet = frozenset  # of cell ids


@dataclass(frozen=True)
class MeasureGrid:
    weights: tuple[float, ...]
    ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        weights = tuple(map(float, self.weights))
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise ValueError("grid needs at least one cell")
        if not (all(map(math.isfinite, weights)) and min(weights) > 0.0):
            w = next(w for w in weights if not (w > 0.0 and math.isfinite(w)))
            raise ValueError(f"cell weights must be positive and finite, got {w}")
        ids = self.ids or tuple(f"c{i}" for i in range(len(weights)))
        object.__setattr__(self, "ids", tuple(ids))
        if len(self.ids) != len(weights):
            raise ValueError("id count must match cell count")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("cell ids must be unique")

    @cached_property
    def index(self) -> dict:
        return {cid: i for i, cid in enumerate(self.ids)}

    def __len__(self):
        return len(self.weights)

    def cell_set(self, ids: Iterable[str] | None = None) -> CellSet:
        """Validated CellSet; all cells when ids is None."""
        if ids is None:
            return frozenset(self.ids)
        s = frozenset(ids)
        for cid in s:
            if cid not in self.index:
                raise UnknownCellError(f"unknown cell id {cid!r}")
        return s

    def measure(self, cells: Iterable[str]) -> float:
        s = self.cell_set(cells)
        return math.fsum(self.weights[self.index[cid]] for cid in s)

    def indices(self, cells: Iterable[str]) -> list[int]:
        s = self.cell_set(cells)
        return sorted(self.index[cid] for cid in s)

    def subgrid(self, cells: Iterable[str]) -> "MeasureGrid":
        """New grid keeping only the given cells (original ids, original order)."""
        keep = self.indices(cells)
        if not keep:
            raise ValueError("subgrid needs at least one cell")
        return MeasureGrid(
            tuple(self.weights[i] for i in keep),
            tuple(self.ids[i] for i in keep),
        )


@dataclass(frozen=True)
class StepFunction:
    """One finite real value per grid cell."""

    grid: MeasureGrid
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if len(values) != len(self.grid):
            raise GridMismatchError("value count must equal cell count")
        if not all(map(math.isfinite, values)):
            v = next(itertools.filterfalse(math.isfinite, values))
            raise ValueError(f"step function values must be finite, got {v}")

    @staticmethod
    def zero(grid: MeasureGrid) -> "StepFunction":
        return StepFunction(grid, (0.0,) * len(grid))

    @staticmethod
    def atom(grid: MeasureGrid, cell_id: str, value: float = 1.0) -> "StepFunction":
        i = grid.index.get(cell_id)
        if i is None:
            raise UnknownCellError(f"unknown cell id {cell_id!r}")
        vals = [0.0] * len(grid)
        vals[i] = value
        return StepFunction(grid, tuple(vals))

    def restrict(self, cells: Iterable[str]) -> "StepFunction":
        """Unchanged on ``cells``, zero elsewhere."""
        s = self.grid.cell_set(cells)
        vals = tuple(
            v if cid in s else 0.0 for cid, v in zip(self.grid.ids, self.values)
        )
        return StepFunction(self.grid, vals)

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)

    def support(self) -> CellSet:
        return frozenset(
            cid for cid, v in zip(self.grid.ids, self.values) if v != 0.0
        )

    def __abs__(self):
        return StepFunction(self.grid, tuple(abs(v) for v in self.values))

    def __neg__(self):
        return StepFunction(self.grid, tuple(-v for v in self.values))

    def __add__(self, other):
        self._check(other)
        return StepFunction(
            self.grid, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other):
        self._check(other)
        return StepFunction(
            self.grid, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __mul__(self, c):
        return StepFunction(self.grid, tuple(float(c) * v for v in self.values))

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, StepFunction) or other.grid != self.grid:
            raise GridMismatchError("step functions live on different grids")


def integrate(grid: MeasureGrid, x: StepFunction) -> float:
    """Discrete integral: sum of value times cell mass, compensated."""
    if x.grid != grid:
        raise GridMismatchError("step function not defined on this grid")
    return math.fsum(v * w for v, w in zip(x.values, grid.weights))


def measure(grid: MeasureGrid, cells: Iterable[str]) -> float:
    return grid.measure(cells)


def restrict(x: StepFunction, cells: Iterable[str]) -> StepFunction:
    return x.restrict(cells)


def pairing(f: StepFunction, x: StepFunction) -> float:
    """Integral functional pairing: integral of f*x over the grid."""
    f._check(x)
    return math.fsum(
        a * b * w for a, b, w in zip(f.values, x.values, f.grid.weights)
    )


def weighted_l1_norm(x: StepFunction, weight: Sequence[float]) -> float:
    """Integral of |x| * weight over the grid."""
    return math.fsum(
        abs(v) * u * w for v, u, w in zip(x.values, weight, x.grid.weights)
    )


def weighted_sup_norm(x: StepFunction, weight: Sequence[float]) -> float:
    """max over cells of |x| * weight (weights of 0 mask cells out)."""
    return max(abs(v) * u for v, u in zip(x.values, weight))

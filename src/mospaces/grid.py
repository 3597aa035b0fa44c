"""Finite discrete measure spaces and step functions on them.

A ``MeasureGrid`` is an ordered list of cells with strictly positive finite
weights.  It is the discrete stand-in for a sigma-finite measure space: every
"almost everywhere" statement downstream becomes "on every cell".  Grids and
step functions are immutable; norm engines evaluate modulars against them
many times and share them freely.

The samplers score step functions as rows of numpy arrays.  Their row
toolkit lives here, beside the type a row stands for: StepFunction's value
check ``finite_error``, the candidate rows, ``row_blocks``, ``RowSums`` and
its exact-sum kernel ``tree_sums``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

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
        if not self.ids:  # c0 ... c{n-1}, unique by construction
            object.__setattr__(self, "ids", tuple([f"c{i}" for i in range(len(weights))]))
            return
        object.__setattr__(self, "ids", tuple(self.ids))
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
            raise finite_error(values)

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


def fsum_up(terms) -> float:
    """math.fsum of nonnegative terms, inf where the sum passes DBL_MAX."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def weighted_l1_norm(x: StepFunction, weight: Sequence[float]) -> float:
    """Integral of |x| * weight over the grid."""
    return math.fsum(
        abs(v) * u * w for v, u, w in zip(x.values, weight, x.grid.weights)
    )


# --------------------------------------------------------------------------
# step functions as rows


def finite_error(rows) -> ValueError | None:
    """The error StepFunction raises for the first row of ``rows`` with a non-finite value, or None."""
    a = np.asarray(rows, dtype=float)
    bad = a[~np.isfinite(a)]
    return ValueError(f"step function values must be finite, got {float(bad[0])}") if bad.size else None


def finite(rows: np.ndarray) -> np.ndarray:
    """``rows``, after StepFunction's value check."""
    if (error := finite_error(rows)) is not None:
        raise error
    return rows


def signs(values: np.ndarray) -> np.ndarray:
    """The sign pattern of ``values``: 1 where a value is at least 0, else -1."""
    return np.where(values >= 0, 1.0, -1.0)


def atom_rows(values, cells, n: int, size: int):
    """Row k carries values[k] on cell cells[k] and 0 elsewhere, in blocks of ``size`` rows."""
    for a in range(0, len(values), size):
        block = np.zeros((min(size, len(values) - a), n))
        block[np.arange(len(block)), cells[a : a + size]] = values[a : a + size]
        yield block


def normal_rows(rng: np.random.Generator, count: int, n: int, size: int):
    """The rows of ``count`` calls of ``rng.standard_normal(n)``, in blocks of ``size`` rows."""
    for a in range(0, count, size):
        yield rng.standard_normal((min(size, count - a), n))


def row_blocks(parts, size: int):
    """The rows of the row arrays ``parts`` in blocks of ``size`` rows; the last may be shorter."""
    buf, have = [], 0
    for part in parts:
        while len(part):
            take = part[: size - have]
            buf.append(take)
            have += len(take)
            part = part[len(take) :]
            if have == size:
                yield np.concatenate(buf)
                buf, have = [], 0
    if buf:
        yield np.concatenate(buf)


_TINY, _HUGE = 2.0**-960, 2.0**960  # absolute row sums where RowSums' bounds hold


def tree_sums(terms, a):
    """math.fsum of each row of ``terms`` where certified, by a pairwise TwoSum tree.

    ``a`` is numpy's sum of |t| per row.  Returns the rounded sums and a
    mask of the rows where they certainly equal fsum's; see RowSums.
    """
    n = terms.shape[1]
    s, c, depth = terms, np.zeros(len(terms)), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while s.shape[1] > 1:  # s[:, :k] + s[:, k:2k], the odd column carried
            k = s.shape[1] // 2
            x, y = s[:, :k], s[:, k : 2 * k]
            t = x + y
            yy = t - x
            e = x - (t - yy)
            e += y - yy  # TwoSum: x + y = t + e exactly
            c += e.sum(axis=1)
            s = np.concatenate((t, s[:, 2 * k :]), axis=1) if s.shape[1] % 2 else t
            depth += 1
        s = s[:, 0]
        total = s + c
        zz = total - s
        r = (s - (total - zz)) + (c - zz)  # s + c = total + r exactly
        half_gap = np.abs(total - np.nextafter(total, 0.0)) * 0.5
        slack = np.abs(r) + (4.0 * n * depth * 2.0**-106) * a
        return total, (slack < half_gap) & (a >= _TINY) & (a <= _HUGE)


class RowSums:
    """math.fsum of each row of a block of terms, and certified bounds on it.

    A row of n terms t with exact sum S: numpy's row sum q adds them in
    some order of n - 1 floating-point additions, so
    |q - S| <= gamma(n - 1) * sum|t|, with gamma(k) = k*u / (1 - k*u) and
    u = 2**-53, whatever the order; an addition whose result is subnormal
    is exact, so the bound holds through underflow (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., eq. 4.4).  numpy's sum A of
    |t| is at least (1 - gamma(n - 1)) * sum|t|, so E = 4*(n + 1)*u*A,
    rounded, is more than gamma(n - 1) * sum|t| while A lies in
    [2**-960, 2**960]: E is then a normal number, and no partial sum of
    either row sum can overflow.  Rounding is monotone and fsum is S
    correctly rounded, so fsum lies in [fl(q - E), fl(q + E)]; those are
    the lists ``lower`` and ``upper``.  A row with A outside that range (a
    zero row, a non-finite term, a sum near or past DBL_MAX, a total below
    2**-960) gets -inf and inf, so every comparison falls to fsum, which
    raises its errors where the caller asks for the row.  A row with at
    most one nonzero term sums to q exactly, so fsum is never called for it.
    With ``nonnegative`` terms, |t| = t and A is q itself.

    ``maxima`` needs many exact sums at once and takes them from
    ``tree_sums``, an error-free transformation in the manner of Ogita,
    Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26
    (2005).  A pairwise tree of depth d = ceil(log2 n) adds the row with
    Knuth's TwoSum, which keeps each addition's rounding error e exactly:
    S = s + sum(e), with s the tree's root.  numpy sums the n - 1 errors
    to c, and total = fl(s + c) is rounded once, its own error r again
    kept by TwoSum, so S = total + r + (sum(e) - c).  Each |e| is at most
    u times its node's |sum|, the node sums of one level add up to at most
    (1 + u)**d * sum|t|, so sum|e| <= d*u*(1 + u)**d * sum|t| and
    |sum(e) - c| <= gamma(n - 2)*d*u*(1 + u)**d * A / (1 - gamma(n - 1)),
    below 2.01*n*d*u**2*A for n*u <= 1/4.  D = 4*n*d*u**2*A, rounded,
    exceeds it while A >= 2**-960 (its rounding error is then under
    2**-10 of it) and A <= 2**960 keeps every partial sum finite.  Where
    fl(|r| + D) is below half the gap from total to its neighbour towards
    zero, the smaller gap, S lies strictly inside total's rounding interval,
    so fsum equals total; a row near a halfway point fails the test and
    goes to fsum.
    """

    def __init__(self, terms, nonnegative=False):
        n = terms.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            q = terms.sum(axis=1)
            a = q if nonnegative else np.abs(terms).sum(axis=1)
            err = (4.0 * (n + 1) * 2.0**-53) * a
            safe = (a >= _TINY) & (a <= _HUGE)
            self._upper = np.where(safe, q + err, np.inf)
            self.lower = np.where(safe, q - err, -np.inf).tolist()
        self.upper = self._upper.tolist()
        self._q, self._a = q, a
        self._quick = q.tolist()
        self._sparse = np.count_nonzero(terms, axis=1) <= 1
        self._terms = terms

    def exact(self, i):
        """math.fsum of row i."""
        return self._quick[i] if self._sparse[i] else math.fsum(self._terms[i].tolist())

    def exceeds(self, i, level):
        """math.fsum of row i > ``level``, summing only where the bounds leave it open."""
        if self.lower[i] > level:
            return True
        return self.upper[i] > level and self.exact(i) > level

    def max_with(self, i, s):
        """max(math.fsum of row i, s), summing only where s might not be the max."""
        return s if self.upper[i] < s else max(self.exact(i), s)

    def maxima(self, s):
        """``max_with`` of every row against the array ``s``, up to the first row
        whose fsum overflows, and that OverflowError (or None).

        Rows that the bounds settle, sparse rows and rows that ``tree_sums``
        certifies take no fsum; the rest are summed by fsum in row order.
        """
        exact = self._q.copy()
        rows = np.flatnonzero(~(self._upper < s) & ~self._sparse)
        if len(rows):
            exact[rows], certified = tree_sums(self._terms[rows], self._a[rows])
            rows = rows[~certified]
        out = np.where(s > exact, s, exact).tolist()  # Python's max(exact, s)
        for i in rows.tolist():
            try:
                out[i] = max(math.fsum(self._terms[i].tolist()), float(s[i]))
            except OverflowError as exc:
                return out[:i], exc
        return out, None

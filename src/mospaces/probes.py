"""Sampling probes for unit-ball geometry.

Every probe here is one-sided: slice diameters come back as certified lower
bounds (a pair of points that far apart was actually found), roughness
quotients as the best value over sampled directions and scales, and the
slice-condition search reports failure as inconclusive rather than as a
negative.  Norms enter only through oracles (callables on step functions),
so the probes run unchanged against gauge norms, weighted norms or duals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .grid import MeasureGrid, StepFunction, pairing

NormOracle = Callable[[StepFunction], float]

_ARCHIVE = 48  # slice points kept for pairwise distance checks


@dataclass(frozen=True)
class Slice:
    """Dual element of norm one and a depth in (0, 1)."""

    functional: StepFunction
    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("slice depth must lie in (0, 1)")


@dataclass(frozen=True)
class ConditionProbeResult:
    found: bool
    witness_direction: Optional[StepFunction]
    evaluations: int
    note: str


def _aligned_candidates(grid: MeasureGrid, f: StepFunction):
    """Extremal directions aligned with the functional's sign pattern."""
    n = len(grid)
    for i in range(n):
        sgn = 1.0 if f.values[i] >= 0 else -1.0
        yield StepFunction.atom(grid, grid.ids[i], sgn)
    yield StepFunction(grid, tuple(1.0 if v >= 0 else -1.0 for v in f.values))
    yield f


def slice_diameter_lb(
    primal: NormOracle,
    dual: NormOracle,
    s: Slice,
    samples: int = 2000,
    seed: int = 0,
) -> float:
    """Largest distance found between two slice members (a diameter lower bound).

    Draws extremal candidates aligned with the functional first, then
    rejection-samples the ball; distances are checked against a bounded
    archive of accepted points.  Raises when the slice stays empty within
    the budget.
    """
    f = s.functional
    if abs(dual(f) - 1.0) > 1e-9:
        raise PreconditionError("slice functional must have dual norm 1")
    grid = f.grid
    rng = np.random.default_rng(seed)
    n = len(grid)
    aligned = list(_aligned_candidates(grid, f))
    draws = (
        StepFunction(grid, tuple(rng.standard_normal(n)))
        for _ in range(samples - len(aligned))
    )
    archive: list[StepFunction] = []
    best = 0.0
    for y in itertools.chain(aligned, draws):
        ny = primal(y)
        if ny == 0.0:
            continue
        y = (1.0 / ny) * y
        if pairing(f, y) > 1.0 - s.eps:
            for z in archive:
                d = primal(y - z)
                if d > best:
                    best = d
            if len(archive) < _ARCHIVE:
                archive.append(y)
    if not archive:
        raise PreconditionError("slice empty at this sample budget (eps too small)")
    if best > 2.0 + 1e-9:
        raise PreconditionError(f"found slice points {best} apart; not a unit ball")
    return best


def roughness_probe(
    norm: NormOracle,
    x: StepFunction,
    h_scales: Sequence[float] = (0.5, 0.1, 0.02, 0.004),
    samples: int = 500,
    seed: int = 0,
) -> float:
    """Best roughness quotient (|x+h| + |x-h| - 2|x|) / |h| found at x.

    Directions mix coordinate atoms, the sign pattern of x and random
    draws; each is tested at every scale.  A lower bound on the local
    roughness: values near 2 certify near-octahedral behaviour.
    """
    if abs(norm(x) - 1.0) > 1e-8:
        raise PreconditionError("roughness probe needs a unit vector")
    grid = x.grid
    rng = np.random.default_rng(seed)
    n = len(grid)
    dirs = []
    for i in range(n):
        dirs.append(StepFunction.atom(grid, grid.ids[i]))
        dirs.append(StepFunction.atom(grid, grid.ids[i], -1.0))
    dirs.append(StepFunction(grid, tuple(1.0 if v >= 0 else -1.0 for v in x.values)))
    while len(dirs) < samples:
        dirs.append(StepFunction(grid, tuple(rng.standard_normal(n))))
    best = 0.0
    for h0 in dirs:
        nh = norm(h0)
        if nh == 0.0:
            continue
        h0 = (1.0 / nh) * h0
        for t in h_scales:
            if t <= 0.0:
                raise PreconditionError("scales must be positive")
            h = t * h0
            q = (norm(x + h) + norm(x - h) - 2.0) / t
            if q > best:
                best = q
    return best


def daugavet_condition_probe(
    primal: NormOracle,
    dual: NormOracle,
    x: StepFunction,
    f: StepFunction,
    eps: float,
    budget: int = 2000,
    seed: int = 0,
) -> ConditionProbeResult:
    """Search for a unit y with f(y) > 1 - eps and |x + y| > 2 - eps.

    Success supports the slice condition at (x, f, eps); running out of
    budget is inconclusive and labelled as such.
    """
    if abs(primal(x) - 1.0) > 1e-8:
        raise PreconditionError("probe needs a unit point")
    if abs(dual(f) - 1.0) > 1e-8:
        raise PreconditionError("probe needs a norm-one functional")
    grid = x.grid
    rng = np.random.default_rng(seed)
    n = len(grid)
    evaluations = 0

    def slack(y, scored=True):
        """Unit y and min(f(y) - (1 - eps), |x + y| - (2 - eps)); a hit is > 0.

        (None, -inf) when |y| = 0.  Unscored, |x + y| is skipped once the
        pairing slack is <= 0, and that slack (an upper bound of the
        minimum) is returned instead.
        """
        nonlocal evaluations
        ny = primal(y)
        if ny == 0.0:
            return None, -math.inf
        y = (1.0 / ny) * y
        evaluations += 1
        s = pairing(f, y) - (1.0 - eps)
        if scored or s > 0.0:
            s = min(s, primal(x + y) - (2.0 - eps))
        return y, s

    def witnessed(y):
        return ConditionProbeResult(True, y, evaluations, "condition witnessed")

    pool = list(_aligned_candidates(grid, f))
    pool.append(x)
    pool.extend(0.5 * (x + c) for c in _aligned_candidates(grid, f))
    best_score = -math.inf
    best_y = None
    for y in pool:
        y, score = slack(y)
        if score > 0.0:
            return witnessed(y)
        if score > best_score:
            best_score, best_y = score, y
    # coordinate ascent on the minimum slack, then random restarts
    step = 0.5
    while evaluations < budget and best_y is not None and step > 1e-6:
        improved = False
        for i in range(n):
            for sgn in (1.0, -1.0):
                vals = list(best_y.values)
                vals[i] += sgn * step
                cand, score = slack(StepFunction(grid, tuple(vals)))
                if score > 0.0:
                    return witnessed(cand)
                if score > best_score:
                    best_score, best_y, improved = score, cand, True
                if evaluations >= budget:
                    break
            if evaluations >= budget:
                break
        if not improved:
            step /= 2.0
    while evaluations < budget:
        y, score = slack(StepFunction(grid, tuple(rng.standard_normal(n))), scored=False)
        if score > 0.0:
            return witnessed(y)
    return ConditionProbeResult(
        False, None, evaluations, "not found within budget; inconclusive"
    )

"""Sampling probes for unit-ball geometry.

Every probe here is one-sided: slice diameters come back as certified lower
bounds (a pair of points that far apart was actually found), roughness
quotients and non-square values as the best found over sampled directions,
and the slice-condition search reports failure as inconclusive rather than
as a negative.  Norms enter only through oracles (callables on step functions),
so the probes run unchanged against gauge norms, weighted norms or duals.

An oracle that also has ``rows(ndarray) -> ndarray`` (such as a
``BlockOracle``) norms every row of a (rows x cells) array of cell values
at once.  ``roughness_probe`` and ``slice_diameter_lb`` know many of their
points before they norm them, so they build them as row blocks of at most
``_BLOCK_CELLS`` cells, with the float operations of the step-function
arithmetic, and hand each block to ``rows``; an oracle without ``rows`` is
called once per row on the same values, so it gives the one-point loop's
result exactly.  ``daugavet_condition_probe`` and ``no_nonsquare_probe``
are sequential searches, one point at a time: each scans a pool, then
climbs from its best point by the one coordinate ascent ``_ascend``.
Every candidate list is built from the row toolkit of ``grid`` (atoms,
sign patterns, seeded normal draws, ``RowSums``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .grid import (
    MeasureGrid, RowSums, StepFunction, atom_rows, finite, normal_rows, pairing, row_blocks, signs,
)

NormOracle = Callable[[StepFunction], float]

_ARCHIVE = 48  # slice points kept for pairwise distance checks
_BLOCK_CELLS = 1 << 14  # cells per row block the probes norm at once; bounds their memory


@dataclass(frozen=True)
class BlockOracle:
    """A norm oracle that also norms row blocks.

    ``norm`` norms one step function; ``rows`` takes a (rows x cells) array
    of cell values and returns the norm of each row.
    """

    norm: NormOracle
    rows: Callable[[np.ndarray], np.ndarray]

    def __call__(self, y: StepFunction) -> float:
        return self.norm(y)


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


def _norms(oracle: NormOracle, grid: MeasureGrid, rows: np.ndarray) -> np.ndarray:
    """The oracle's norm of each row: one ``rows`` call when it has one, else a loop."""
    block = getattr(oracle, "rows", None)
    if block is not None:
        return np.asarray(block(rows), dtype=float)
    return np.array([oracle(StepFunction(grid, tuple(r))) for r in rows.tolist()])


@np.errstate(over="ignore", invalid="ignore")  # finite() below names an inf or NaN row
def _unit_rows(oracle: NormOracle, grid: MeasureGrid, rows: np.ndarray) -> np.ndarray:
    """The rows of nonzero norm, each scaled to norm one, after StepFunction's value check."""
    norms = _norms(oracle, grid, rows)
    nonzero = norms != 0.0
    return finite((1.0 / norms[nonzero])[:, None] * rows[nonzero])


def _best_of(best: float, values: np.ndarray) -> float:
    """What ``if v > best: best = v`` over ``values`` leaves (NaN never wins)."""
    hits = values[values > best]
    return float(hits.max()) if hits.size else best


def _aligned_rows(f: np.ndarray, size: int):
    """Atoms carrying f's signs, f's sign pattern, then f, in blocks of at most ``size`` rows."""
    pattern = signs(f)
    return itertools.chain(atom_rows(pattern, np.arange(len(f)), len(f), size), [np.stack((pattern, f))])


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
    the budget.  Candidates are normed in row blocks, in the draw order of
    one ``rng.standard_normal(n)`` per candidate.  Each candidate is
    admitted as ``pairing``'s ``math.fsum`` over the same terms would
    admit it: by the certified bounds of ``RowSums`` where they decide, by
    that fsum where they do not.  The distances from each admitted point
    to the archive are normed in row blocks as well.
    """
    f = s.functional
    if abs(dual(f) - 1.0) > 1e-9:
        raise PreconditionError("slice functional must have dual norm 1")
    grid = f.grid
    rng = np.random.default_rng(seed)
    n = len(grid)
    size = max(1, _BLOCK_CELLS // n)
    fv, w = np.array(f.values), np.array(grid.weights)
    candidates = itertools.chain(_aligned_rows(fv, size), normal_rows(rng, samples - (n + 2), n, size))
    archive = np.empty((_ARCHIVE, n))
    kept = 0

    def distances():
        nonlocal kept
        for ys in row_blocks(candidates, size):
            ys = _unit_rows(primal, grid, ys)
            pairs = RowSums((fv * ys) * w)
            for i, y in enumerate(ys):
                if pairs.exceeds(i, 1.0 - s.eps):
                    yield y - archive[:kept]
                    if kept < _ARCHIVE:
                        archive[kept] = y
                        kept += 1

    best = 0.0
    for ds in row_blocks(distances(), size):
        best = _best_of(best, _norms(primal, grid, finite(ds)))
    if not kept:
        raise PreconditionError("slice empty at this sample budget (eps too small)")
    if best > 2.0 + 1e-9:
        raise PreconditionError(f"found slice points {best} apart; not a unit ball")
    return min(best, 2.0)  # no two points of a unit ball are further apart; rounding can say more


@np.errstate(over="ignore", invalid="ignore")  # finite() and the cap at 2 decide
def roughness_probe(
    norm: NormOracle,
    x: StepFunction,
    h_scales: Sequence[float] = (0.5, 0.1, 0.02, 0.004),
    samples: int = 500,
    seed: int = 0,
) -> float:
    """Best roughness quotient (|x+h| + |x-h| - 2|x|) / |h| found at x.

    Directions mix the coordinate atoms e_i, the sign pattern of x and
    random draws; each is tested at every scale.  The atoms -e_i are left
    out: x + t*(-h) is x - t*h exactly, so they repeat the quotients of
    e_i.  The draws still start after 2n + 1 directions, as if they were
    tried.  A lower bound on the local roughness: values near 2 certify
    near-octahedral behaviour.  Every
    scale must be finite and positive.  The directions, then x + t*h and
    x - t*h at each scale t, are normed in row blocks of at most
    ``_BLOCK_CELLS`` cells, each row the StepFunction arithmetic of a
    one-direction loop.
    """
    if not all(0.0 < t < math.inf for t in h_scales):
        raise PreconditionError("scales must be finite and positive")
    if abs(norm(x) - 1.0) > 1e-8:
        raise PreconditionError("roughness probe needs a unit vector")
    grid = x.grid
    rng = np.random.default_rng(seed)
    n = len(grid)
    size = max(1, _BLOCK_CELLS // n)
    xv = np.array(x.values)
    scales = np.array(h_scales, dtype=float)
    per_dir = max(1, size // (2 * max(1, len(scales))))  # directions per block
    per_scale = max(1, size // (2 * per_dir))  # scales per block
    directions = itertools.chain(
        atom_rows(np.ones(n), np.arange(n), n, per_dir),
        [signs(xv)[None, :]],
        normal_rows(rng, samples - (2 * n + 1), n, per_dir),
    )
    best = 0.0
    for hs in row_blocks(directions, per_dir):
        hs = _unit_rows(norm, grid, hs)
        if not len(hs):
            continue
        for a in range(0, len(scales), per_scale):
            ts = scales[a : a + per_scale, None, None]
            steps = ts * hs
            rows = finite(np.concatenate((xv + steps, xv - steps)).reshape(-1, n))
            plus, minus = _norms(norm, grid, rows).reshape(2, len(ts), len(hs))
            best = _best_of(best, (plus + minus - 2.0) / ts[:, :, 0])
    return min(best, 2.0)  # the triangle inequality caps the quotient at 2; rounding can say more


def _ascend(score, best: float, best_y: Optional[StepFunction], rounds: Optional[int], done):
    """Greedy coordinate ascent on ``score`` (candidate -> (unit point or None, score))
    from ``best_y``, which scores ``best``; returns the last (best, best_y).

    A round tries best_y + step, then best_y - step, on each cell, moving to
    each candidate that scores strictly higher; a round with no move halves
    the step (from 0.5).  Stops once ``done(best)`` (asked before each round and after
    each candidate), at step 1e-6 or after ``rounds`` rounds (None: no limit).
    """
    step, spent = 0.5, 0
    while best_y is not None and step > 1e-6 and spent != rounds and not done(best):
        spent += 1
        grid, moved = best_y.grid, False
        for i, sgn in itertools.product(range(len(grid)), (1.0, -1.0)):
            vals = list(best_y.values)
            vals[i] += sgn * step
            y, s = score(StepFunction(grid, tuple(vals)))
            if s > best:
                best, best_y, moved = s, y, True
            if done(best):
                return best, best_y
        if not moved:
            step /= 2.0
    return best, best_y


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
    budget is inconclusive and labelled as such.  ``eps`` must be finite
    and positive, checked before any norm.  The first candidates are the
    rows aligned with f, x, then the midpoints of x and each aligned row.
    """
    if not 0.0 < eps < math.inf:  # NaN compares false
        raise PreconditionError("eps must be finite and positive")
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

    xv = np.array(x.values)
    aligned = np.concatenate(list(_aligned_rows(np.array(f.values), n)))
    with np.errstate(over="ignore"):  # an inf midpoint raises StepFunction's error below
        rows = np.concatenate((aligned, xv[None, :], 0.5 * (xv + aligned)))
    pool = [StepFunction(grid, tuple(y)) for y in rows.tolist()]
    best_score, best_y = -math.inf, None
    for y in pool:
        y, score = slack(y)
        if score > 0.0:
            return witnessed(y)
        if score > best_score:
            best_score, best_y = score, y
    # coordinate ascent on the minimum slack, then random restarts
    best_score, best_y = _ascend(
        slack, best_score, best_y, None, lambda best: best > 0.0 or evaluations >= budget
    )
    if best_score > 0.0:
        return witnessed(best_y)
    while evaluations < budget:
        y, score = slack(StepFunction(grid, tuple(rng.standard_normal(n))), scored=False)
        if score > 0.0:
            return witnessed(y)
    return ConditionProbeResult(False, None, evaluations, "not found within budget; inconclusive")


def no_nonsquare_probe(norm: NormOracle, grid: MeasureGrid, candidates, samples: int, seed: int) -> list:
    """Best value of min(|x+y|, |x-y|) found per candidate unit x.

    A lower bound on 2 - delta_best: values near 2 mean the point is not
    uniformly non-square as far as the search can tell.  The best point of
    the pool is polished by 12 rounds of ``_ascend``.
    """
    rng = np.random.default_rng(seed)
    n = len(grid)
    results = []
    for x in candidates:
        nx = norm(x)
        if nx == 0.0:
            raise PreconditionError("candidate points must be nonzero")
        x = (1.0 / nx) * x

        def score(y):
            """Unit y and min(|x + y|, |x - y|); (None, -inf) when |y| = 0."""
            ny = norm(y)
            if ny == 0.0:
                return None, -math.inf
            y = (1.0 / ny) * y
            return y, min(norm(x + y), norm(x - y))

        xv = np.array(x.values)
        pattern = signs(xv)
        pool = np.concatenate((
            *atom_rows(np.tile((1.0, -1.0), n), np.repeat(np.arange(n), 2), n, 2 * n),
            np.stack((xv, -xv, pattern, -pattern)),
            np.where(np.eye(n, dtype=bool), -pattern, pattern),  # single flips reach sup-norm extremes
            rng.standard_normal((max(0, samples - (3 * n + 4)), n)),
        ))
        best, best_y = 0.0, None
        for y in pool.tolist():
            y, val = score(StepFunction(grid, tuple(y)))
            if val > best:
                best, best_y = val, y
        results.append(_ascend(score, best, best_y, 12, lambda best: False)[0])
    return results

"""Musielak-Orlicz space engine on a finite grid.

A ``MusielakField`` assigns one Orlicz curve per grid cell.  Its compiled
form is a column table (``table.CurveTable``): family codes, numbers,
flattened breakpoints and slopes, and the knot table derived from them.
The parser builds the table straight from a config's curve list, and the
modular, the start caps and the kernel below read only the table; the
per-cell curve objects (``curves``) are built only when a structural or
scalar path asks for them.

The modular of a step function is the weighted sum of curve values; the
gauge norm (Luxemburg) is the scaling that brings the modular to one.  ``gauge``
solves rho(t|x|) = level by Newton steps from above on the convex map
t -> rho(t|x|); every level-set scaling in the package goes through it.
``gauge_block`` runs the same loop on many rows in lockstep, evaluating
all of them per step on a numpy form of the field compiled once per field;
``luxemburg_norms`` and ``unit_sphere_points`` are the row-batched
``luxemburg_norm`` and ``unit_sphere_point``.  The loop keeps each row's
state (bracket ends, their closure values, the slope at the upper end) in
arrays and moves every active row with one set of array operations, each
the float operation of a scalar step, so a row's bracket is the same alone
or in a block; ``gauge`` is the one-row block.  Every comparison with the
level is decided on the kernel, whose error bound floors the bracket
width; the per-cell ``_scaled_modular`` stays the reference.
The dual-flavoured Amemiya norm minimises h(k) = (1+rho(k|x|))/k by a
bracketed root of its optimality condition, split by tangent intersections
with a bisection safeguard, and stops once h at an evaluated k is within
the tolerance of a lower bound from the tangents at the bracket's ends.
Its value is an upper bound of the infimum, so Luxemburg <= Amemiya holds
by construction.  It evaluates the modular on the compiled kernel too.
A supremum-form oracle over the modular unit ball cross-checks the
Amemiya route through the Koethe duality.

The structural decomposition splits the grid into indicator-type cells
(``omega_inf``), globally linear cells (``omega_1``), linear-up-to-a-bound
cells (``omega_1inf``) and the rest; on the first three the norm collapses
to weighted sup/L1 expressions, which ``decomposition_norm`` exploits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import INF, CurveParams, Indicator, Linear, OrliczCurve, PiecewiseLinear, Power, _pow, conjugate
from .errors import GridMismatchError, MospacesError, PreconditionError, UnboundedNormError
from .grid import CellSet, MeasureGrid, StepFunction, weighted_l1_norm, weighted_sup_norm
from .table import CurveTable

_MAX_DOUBLINGS = 4096
_MIN_RTOL = 4.0 * math.ulp(1.0)  # the tightest Amemiya tolerance asked for
_BISECT_STEPS = 200
_SPHERE_RTOL = 1e-13  # gauge bracket width of the unit-sphere scaling
_DBL_MAX = sys.float_info.max
_DBL_MIN = sys.float_info.min  # the smallest normal float


class MusielakField:
    """One Orlicz curve per grid cell.

    The curves are held as a ``CurveTable``, the compiled form the modular
    and the gauge solvers read.  ``curves``, the per-cell objects the
    structural and scalar paths read, are built from the table on first use,
    unless the field was made from them.
    """

    def __init__(self, grid: MeasureGrid, curves):
        curves = tuple(curves)
        if len(curves) != len(grid):
            raise GridMismatchError("need one curve per grid cell")
        self.grid = grid
        self.table = CurveTable.of_curves(curves)
        self.__dict__["curves"] = curves  # the cached property's value

    @classmethod
    def of_table(cls, grid: MeasureGrid, table: CurveTable) -> "MusielakField":
        if table.n != len(grid):
            raise GridMismatchError("need one curve per grid cell")
        field = cls.__new__(cls)
        field.grid, field.table = grid, table
        return field

    def __repr__(self):
        return f"MusielakField(grid={self.grid!r}, curves={self.curves!r})"

    @cached_property
    def curves(self) -> tuple[OrliczCurve, ...]:
        return self.table.curves()

    @cached_property
    def cell_params(self) -> tuple[CurveParams, ...]:
        return tuple(c.params() for c in self.curves)

    @cached_property
    def _weights(self) -> np.ndarray:
        return np.array(self.grid.weights)

    @cached_property
    def _caps_by_level(self) -> dict:
        return {}  # level -> per-cell start caps, filled by _start_caps

    @cached_property
    def _kernel(self) -> "_FieldKernel":
        return _FieldKernel(self.table, self._weights)

    @staticmethod
    def constant(grid: MeasureGrid, curve: OrliczCurve) -> "MusielakField":
        return MusielakField(grid, (curve,) * len(grid))

    @staticmethod
    def nakano(grid: MeasureGrid, exponents) -> "MusielakField":
        """Variable-exponent field: p=1 -> linear, p=inf -> indicator."""
        curves = []
        for p in exponents:
            p = float(p)
            if p < 1.0:
                raise ValueError("exponents must lie in [1, inf]")
            if p == 1.0:
                curves.append(Linear(1.0))
            elif math.isinf(p):
                curves.append(Indicator(1.0))
            else:
                curves.append(Power(p))
        return MusielakField(grid, tuple(curves))


@dataclass(frozen=True)
class Partition:
    omega_inf: CellSet
    omega_1: CellSet
    omega_1inf: CellSet
    remainder: CellSet


@dataclass(frozen=True)
class WeightPair:
    v: StepFunction  # 1/b per cell; 0 marks an unbounded domain
    w: StepFunction  # linear-segment slope on omega_1 and omega_1inf cells


@dataclass(frozen=True)
class DecompositionResult:
    value: float
    formula: str  # "oplus-inf" or "weighted-max"
    sup_part: float
    complement_part: float


@dataclass(frozen=True)
class SupOracleResult:
    value: float
    modular_used: float
    polish_rounds: int
    converged: bool


def _check(field: MusielakField, x: StepFunction):
    if x.grid != field.grid:
        raise GridMismatchError("step function not defined on the field's grid")


def _scaled_modular(field: MusielakField, ax) -> float:
    """Modular of |x| given precomputed absolute values."""
    terms = []
    for v, crv, w in zip(ax, field.curves, field.grid.weights):
        t = crv.value(v)
        if math.isinf(t):
            return INF
        terms.append(t * w)
    return math.fsum(terms)


def modular(field: MusielakField, x: StepFunction) -> float:
    """Sum over cells of curve(|x|) * mass, with infinity propagation.

    Evaluated on the field's table with each cell's float operations and
    summed by one fsum in grid order: ``_scaled_modular`` bit for bit.
    """
    _check(field, x)
    terms = field.table.value(np.abs(np.array(x.values)))
    if np.isinf(terms).any():
        return INF
    with np.errstate(over="ignore"):  # an inf product makes the fsum inf, as in Python
        return math.fsum((terms * field._weights).tolist())


def modular_of_bounds(field: MusielakField, cells=None) -> float:
    """Modular of the domain-end function b_M (restricted to ``cells``)."""
    keep = field.grid.cell_set(cells)
    # value(0) is 0 in every family, and value(inf) is inf
    ends = [prm.b if cid in keep else 0.0 for cid, prm in zip(field.grid.ids, field.cell_params)]
    return _scaled_modular(field, ends)


def _start_caps(field: MusielakField, level: float) -> np.ndarray:
    """Per cell, min(b, inverse_upper(level / w)): no t above cap/|x_i| is feasible.

    Computed on the table once per field and level.
    """
    caps = field._caps_by_level.get(level)
    if caps is None:
        with np.errstate(divide="ignore", over="ignore"):
            u = field.table.inverse_upper(level / field._weights)
        b = field.table.cell_b
        caps = field._caps_by_level[level] = np.where(u < b, u, b)  # Python's min(b, u)
    return caps


def _check_start(hi: float):
    if math.isinf(hi):
        raise UnboundedNormError("the gauge scale overflows: the norm is below 1/DBL_MAX")
    if hi == 0.0:
        raise UnboundedNormError("the gauge scale underflows: the norm exceeds DBL_MAX")


def _larger(a, b):
    """Python's max(a, b) per element: b where b > a, else a (NaN in a wins)."""
    return np.where(b > a, b, a)


def _step(t: np.ndarray, by: float) -> np.ndarray:
    """t*(1 + by): over an ulp from a normal t (|by| >= 2*rel, 32 ulps); from a
    subnormal t, whose coarse ulps could take back the step, rounded away."""
    moved = t * (1.0 + by)
    if t.min(initial=INF) < _DBL_MIN:
        short = (t < _DBL_MIN) & (np.abs(moved - t) / t < abs(by))
        moved = np.where(short, np.nextafter(moved, 0.0 if by < 0.0 else INF), moved)
    return moved


def gauge(field: MusielakField, ax, level: float = 1.0, rtol: float = 1e-12) -> tuple[float, float]:
    """Bracket (lo, hi) of T = sup{t >= 0 : modular(t*ax) <= level}.

    ``ax`` holds nonnegative cell values, not all zero, and ``level`` is
    positive.  Guarantees modular(lo*ax) <= level, hi >= T and
    hi - lo <= max(rtol, floor)*lo, or at most one float strictly between
    lo and hi.  The floor, the kernel's ``floor(level)``, follows from its
    error bound ``rel``/``abs`` and is below 1e-13 on grids of up to a
    million cells; a smaller rtol (zero, negative, NaN) is raised to it.
    r(t) = modular(t*ax) is convex and nondecreasing, so Newton steps on its
    closure from above (left slopes) never undershoot T and solve a
    piecewise-linear piece exactly, while the chord through the feasible end
    never overshoots it.  The start is the domain edge or the tightest
    single-cell bound, whichever is smaller (the caps of ``_start_caps``).
    It is ``gauge_block`` on the one row ``ax``, so a row gets the same
    bracket alone or in a block.
    """
    lo, hi = gauge_block(field, [ax], level, rtol)
    return float(lo[0]), float(hi[0])


class _FieldKernel:
    """A field compiled to struct-of-arrays form for row-batched evaluation.

    It reads the field's ``CurveTable``, the compiled form the parser builds
    from a config's columns; the field's ``curves`` are built only when a
    scalar path asks for them, never for the kernel.  Power cells keep
    their exponents, and linear, indicator and piecewise-linear cells share
    the table's knot table padded with inf, because the closure of each is
    piecewise linear.  On those cells ``closure`` reproduces the per-cell ``value_closed`` bit
    for bit; numpy's power may differ from Python's ``**`` by a few ulps,
    and its row sums are not fsum, which the error bound ``rel``/``abs`` of
    ``side`` covers with room to spare.  Its methods run under the caller's
    ``np.errstate``, entered once per solve.
    """

    def __init__(self, table: CurveTable, weights: np.ndarray):
        power, knotted = table.power, table.knotted
        self.power, self.knotted, self.p = power, knotted, table.p
        self.weights, self.power_w, self.knot_w = weights, weights[power], weights[knotted]
        self.knots, self.values, self.slopes = table.knots, table.values, table.slopes
        counts, width = table.counts, table.knots.shape[1]
        # w*(slope*knot - phi(knot)) per entry: the cell's u*phi'(u) - phi(u)
        # on the piece from that knot on (the padding's inf knots count as 0)
        at_knots = np.where(table.filled, self.knots, 0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            gaps = (self.slopes * at_knots - self.values) * self.knot_w[:, None]
        gaps[np.isnan(gaps)] = INF  # inf - inf: slope*knot overflowed, and the gap with it
        self.cols = np.arange(len(knotted))
        # a knot cell's entry j sits at offset + j of the flattened tables
        self.offsets = self.cols * width
        self.flat_knots, self.flat_values, self.flat_slopes, self.flat_gaps = (
            a.ravel() for a in (self.knots, self.values, self.slopes, gaps)
        )
        self.inner_knots = [np.ascontiguousarray(k) for k in self.knots.T[1:]]
        self.b, self.vb, self.blowup = table.b, table.closed, table.blowup
        self.power_gap = (self.p - 1.0) / self.p * self.power_w  # of u*phi'(u) - phi(u)
        # per cell in grid order: the domain end, and for cells linear from
        # some knot on (unbounded linear and piecewise-linear cells) that knot,
        # the final slope and the cell's share of the limit of k*r'(k) - r(k)
        n = len(weights)
        self.cell_b = table.cell_b
        tail = ~np.isfinite(self.b)
        last = self.cols[tail], counts[tail] - 1
        cells = self.knotted[tail]
        self.tail_from = np.full(n, INF)
        self.tail_from[cells] = self.knots[last]
        self.tail_slope = np.zeros(n)
        self.tail_slope[cells] = self.slopes[last]
        self.tail_gap = np.zeros(n)
        self.tail_gap[cells] = gaps[last]
        self.depth = (n - 1).bit_length()  # of the pairwise row sum
        # relative error of r: the pairwise sum, a few ulps of power per cell,
        # and the rounding of the bound itself
        self.rel = (self.depth + 16) * 2.0**-52
        # (4*mass + n) ulps of 0 for subnormal powers; scaled so the sum cannot overflow
        self.abs = 4.0 * float((weights * 2.0**-64).sum()) * 2.0**-1010 + n * math.ulp(0.0)

    def floor(self, level: float) -> float:
        """The tightest gauge ``rtol`` at ``level``.  A quarter of it moves a
        convex r with r(0) = 0 near the level by twice the error bound, which
        holds with room to spare: one step from an open point lands on a certain side."""
        return 8.0 * (self.rel + self.abs / level)

    def closure(self, rows: np.ndarray, t: np.ndarray, gap: bool = False):
        """Closed modular r, t*r' and g = t*r' - r at t[k] of rows[k] (rows x cells, nonnegative).

        g (None unless ``gap``) sums the per-cell terms w*(u*phi'(u) - phi(u)),
        each nonnegative, so it does not cancel where r and t*r' are large.
        """
        terms = np.zeros((len(t), 1 << self.depth))
        scale = t[:, None]
        s, g = 0.0, 0.0 if gap else None
        n_power = self.power.size
        if n_power:
            up = np.power(scale * rows[:, self.power], self.p)
            terms[:, :n_power] = up / self.p * self.power_w
            s = (up * self.power_w).sum(axis=1)
            if gap:
                g = (up * self.power_gap).sum(axis=1)
        if self.knotted.size:
            u = np.minimum(scale * rows[:, self.knotted], self.b)
            at = np.empty(u.shape, dtype=np.intp)
            at[...] = self.offsets
            for knot in self.inner_knots:
                at += u > knot  # left slopes: u in (knot_j, knot_j+1] is piece j
            slope = self.flat_slopes.take(at)
            value = self.flat_values.take(at) + slope * (u - self.flat_knots.take(at))
            value = np.where(u == self.b, self.vb, value)
            terms[:, n_power : n_power + self.knotted.size] = value * self.knot_w
            s = s + (slope * u * self.knot_w).sum(axis=1)
            if gap:
                g = g + self.flat_gaps.take(at).sum(axis=1)
        for _ in range(self.depth):
            half = terms.shape[1] // 2
            terms = terms[:, :half] + terms[:, half:]
        return terms[:, 0], s, g

    def side(self, r: np.ndarray, level: float) -> np.ndarray:
        """Per kernel value r: 1 where the modular it approximates is
        certainly above ``level``, -1 where it is certainly at most ``level``,
        0 where the error bound leaves it open."""
        above = r * (1.0 - self.rel) - self.abs > level
        below = r * (1.0 + self.rel) + self.abs <= level
        return above.astype(np.int8) - below.astype(np.int8)

    def beyond(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Rows where some t*|x_i| leaves the domain or meets a blow-up end."""
        u = t[:, None] * rows[:, self.knotted]
        return ((u > self.b) | ((u == self.b) & self.blowup)).any(axis=1)

    def edges(self, ax: np.ndarray):
        """(k_sup, tail) of the row ``ax`` for the Amemiya search.

        k_sup is the largest float k with k*|x_i| <= b_i on the support (inf
        when every supporting cell has an unbounded domain).  ``tail`` is
        None unless every supporting cell is linear from some knot on; then
        it is (k_lin, limit, g_inf): past k_lin the modular is affine in k,
        h(k) tends to limit = sum w_i |x_i| s_i (s_i the final slopes), and
        k*r'(k) - r(k) equals g_inf.
        """
        live = ax > 0.0
        v, b = ax[live], self.cell_b[live]
        k_sup = float((b / v).min())
        if math.isfinite(k_sup):  # below the rounded quotient until k_sup*|x_i| <= b_i exactly
            near = np.isfinite(b) & (k_sup * v >= b)
            pairs = list(zip(v[near].tolist(), b[near].tolist()))
            while any(_exceeds(k_sup, x, e) for x, e in pairs):
                k_sup = math.nextafter(k_sup, 0.0)
        start = self.tail_from[live]
        if not np.isfinite(start).all():
            return k_sup, None
        k_lin = float((start / v).max())
        products = self.weights[live] * v * self.tail_slope[live]
        try:
            limit = math.fsum(products.tolist())
        except OverflowError:  # the sum passes DBL_MAX
            limit = INF
        return k_sup, (k_lin, limit, math.fsum(self.tail_gap[live].tolist()))


def _settle(kernel: _FieldKernel, rows: np.ndarray, t: np.ndarray, level: float, rtol: float):
    """The points one gauge step certifies for row k of ``rows`` at t[k].

    Evaluates the closure r and t*r' and returns, per row, arrays (t_lo,
    r_lo, t_hi, r_hi, s_hi): t_lo with r(t_lo) = r_lo at most ``level``
    (t_lo = 0 when none) and t_hi with r(t_hi) = r_hi above it and
    t_hi*r'(t_hi) = s_hi (t_hi = inf when none).  That is t[k] itself, or,
    where the kernel's error bound leaves t[k] open, a step of rtol/4 (at
    least one ulp) below and above it, which closes the bracket; a step past
    the domain edge counts as above the level.
    """
    r, s, _ = kernel.closure(rows, t)
    side = kernel.side(r, level)
    t_lo, r_lo = np.where(side < 0, t, 0.0), r.copy()
    t_hi, r_hi, s_hi = np.where(side > 0, t, INF), r, s
    unsure = np.flatnonzero(side == 0)
    if unsure.size:
        m, near = unsure.size, rows[unsure]
        tn = np.concatenate((_step(t[unsure], -rtol / 4.0), _step(t[unsure], rtol / 4.0)))
        rn, sn, _ = kernel.closure(np.concatenate((near, near)), tn)
        siden = kernel.side(rn, level)
        below, above = siden[:m] < 0, siden[m:] > 0
        if not above.all():  # a step past the domain edge is above the level too
            above |= kernel.beyond(near, tn[m:])
        k = unsure[below]
        t_lo[k], r_lo[k] = tn[:m][below], rn[:m][below]
        k = unsure[above]
        t_hi[k], r_hi[k], s_hi[k] = tn[m:][above], rn[m:][above], sn[m:][above]
    return t_lo, r_lo, t_hi, r_hi, s_hi


def _certain(kernel: _FieldKernel, rows: np.ndarray, t: np.ndarray, level: float) -> np.ndarray:
    """-1 where t[k] is certainly feasible for row k of ``rows``, 1 where it
    certainly is not, 0 where the kernel's error bound leaves it open."""
    # below the domain edge and off blow-up ends the closure is the modular
    return np.where(kernel.beyond(rows, t), 1, kernel.side(kernel.closure(rows, t)[0], level))


def _edge_brackets(kernel: _FieldKernel, rows: np.ndarray, starts: np.ndarray, level: float, rtol: float):
    """Brackets (lo, hi) of T for rows whose closure at their start bound is below the level.

    Then T is the start t up to rounding: the closure stays under the level
    up to the edge (past it the modular is infinite), or a single cell's
    bound is met exactly.  ``lo`` (the start) steps down by rtol/4 and
    ``hi`` up by rtol/2 until ``_certain`` puts each on its side: once,
    unless the start is subnormal.
    """
    lo, hi = starts.copy(), _step(starts, rtol / 2.0)
    for t, want, by in ((lo, -1, -rtol / 4.0), (hi, 1, rtol / 2.0)):
        pending = np.arange(len(rows))
        while pending.size:
            pending = pending[_certain(kernel, rows[pending], t[pending], level) != want]
            t[pending] = _step(t[pending], by)
    return lo, hi


def gauge_block(field: MusielakField, rows, level: float = 1.0, rtol: float = 1e-12):
    """``gauge`` for every row of ``rows`` at once: arrays (lo, hi).

    ``rows`` holds nonnegative cell values (rows x cells), no row all zero.
    Each row gets the guarantees of ``gauge`` against the scalar
    ``modular``.  The rows take Newton steps from above on the closure in
    lockstep, from their start bounds (the caps of ``_start_caps``); each
    step evaluates all active rows with one call of the field's compiled
    kernel (``_settle``).  A comparison with the level counts only where the
    kernel's error bound makes it certain.  The state of the active rows
    lives in arrays, and each step updates all of them at once with the
    float operations of a one-row step, so a row's bracket does not depend
    on the rows solved with it.
    """
    rows = np.asarray(rows, dtype=float)
    if not rows.any(axis=1).all():
        raise PreconditionError("the gauge of the zero function is unbounded")
    kernel = field._kernel
    rtol = max(kernel.floor(level), rtol)  # NaN compares false, so it is raised too
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        starts = np.where(rows > 0.0, np.array(_start_caps(field, level)) / rows, INF).min(axis=1)
        _check_start(float(starts.max()))
        _check_start(float(starts.min()))
        n = len(starts)
        lo, hi = np.zeros(n), np.full(n, INF)  # the brackets returned
        # per active row: its index, lo, r(lo), hi, r(hi), hi*r'(hi), and the
        # step back from hi when both steps stall (doubles each time)
        live = np.arange(n)
        l, rl, h, rh, sh = np.zeros(n), np.zeros(n), np.full(n, INF), np.full(n, INF), np.full(n, INF)
        back = np.full(n, rtol / 2.0)
        ts = starts
        for _ in range(_MAX_DOUBLINGS):
            tl, rtl, th, rth, sth = _settle(kernel, rows[live], ts, level, rtol)
            up, down = th < h, tl > l
            h, rh, sh = np.where(up, th, h), np.where(up, rth, rh), np.where(up, sth, sh)
            l, rl = np.where(down, tl, l), np.where(down, rtl, rl)
            edge = h == INF  # the closure at the start bound is at most the level
            stop = edge | (h - l <= rtol * l) | (np.nextafter(np.nextafter(l, INF), INF) >= h)
            if stop.any():
                done = live[stop]
                lo[done], hi[done] = l[stop], h[stop]
                if edge.any():
                    e = live[edge]
                    lo[e], hi[e] = _edge_brackets(kernel, rows[e], starts[e], level, rtol)
                go = ~stop
                live, l, rl, h, rh, sh, back = (v[go] for v in (live, l, rl, h, rh, sh, back))
                if not live.size:
                    return lo, hi
            t = l + (h - l) * (level - rl) / (rh - rl)  # chord: r(t) <= level
            # while the chord is loose, the tangent root, where r >= level
            tangent = _larger(h * (1.0 - (rh - level) / sh), l * (1.0 + rtol / 2.0))
            t = np.where(h - t > rtol * t, tangent, t)
            stalled = ~((l < t) & (t < h))  # rounding stalled both steps
            if stalled.any():
                mid = 0.5 * (l + h)
                t_back = _larger(mid, h * (1.0 - back))
                # a subnormal hi has an ulp above rtol
                t = np.where(stalled, np.where(t_back >= h, mid, t_back), t)
                back = np.where(stalled, 2.0 * back, back)
            ts = t
    raise MospacesError("gauge solver did not converge")  # pragma: no cover


def _norm_of_scale(hi: float) -> float:
    """1/hi: the norm a gauge bracket's upper end certifies from below."""
    norm = 1.0 / hi
    if math.isinf(norm):
        raise UnboundedNormError("the gauge scale underflows: the norm exceeds DBL_MAX")
    return norm


def luxemburg_norm(field: MusielakField, x: StepFunction, tol: float = 1e-12) -> float:
    """inf{lam > 0 : modular(x/lam) <= 1}, from the gauge bracket of |x|.

    Returns 1/hi, so the result never exceeds the true norm (keeps
    norm-ratio invariants one-sided).  A norm above DBL_MAX raises
    ``UnboundedNormError``.
    """
    _check(field, x)
    if x.is_zero():
        return 0.0
    return _norm_of_scale(gauge(field, [abs(v) for v in x.values], 1.0, tol)[1])


def luxemburg_norms(field: MusielakField, xs, tol: float = 1e-12) -> np.ndarray:
    """``luxemburg_norm`` of each row of ``xs`` (rows x cells), as one block.

    Each row's norm is ``luxemburg_norm``'s of that row, bit for bit.
    """
    ax = np.abs(np.asarray(xs, dtype=float))
    out = np.zeros(len(ax))
    nonzero = ax.any(axis=1)
    if nonzero.any():
        hi = gauge_block(field, ax[nonzero], 1.0, tol)[1]
        out[nonzero] = [_norm_of_scale(h) for h in hi.tolist()]
    return out


def unit_sphere_point(field: MusielakField, y: StepFunction) -> StepFunction:
    """Scale y to the unit sphere of the Luxemburg norm.

    Uses the feasible end of the gauge bracket of sup{t : modular(t*y) <= 1};
    the scaled point has norm 1 whether or not the modular reaches 1 (jump
    curves may skip it).
    """
    _check(field, y)
    if y.is_zero():
        raise PreconditionError("cannot normalise the zero function")
    return gauge(field, [abs(v) for v in y.values], 1.0, _SPHERE_RTOL)[0] * y


def unit_sphere_points(field: MusielakField, ys) -> np.ndarray:
    """``unit_sphere_point`` of each row of ``ys`` (nonzero rows), as one block."""
    ys = np.asarray(ys, dtype=float)
    return gauge_block(field, np.abs(ys), 1.0, _SPHERE_RTOL)[0][:, None] * ys


def conjugate_field(field: MusielakField) -> MusielakField:
    """Cellwise complementary field."""
    return MusielakField(field.grid, tuple(conjugate(c) for c in field.curves))


def amemiya_norm(field: MusielakField, x: StepFunction, tol: float = 1e-10) -> float:
    """inf over k > 0 of h(k) = (1 + modular(k x)) / k, from above.

    With r(k) = modular(k|x|) and g(k) = k*r'(k) - r(k), which is
    nondecreasing (the kernel sums it cell by cell, so it does not cancel
    where r is large), h has slope (g(k) - 1)/k**2: a minimiser k* satisfies
    g(k*-) <= 1 <= g(k*+), or sits at the domain edge k_sup.  The search
    keeps a bracket with g <= 1 at its lower end and g > 1 at its upper end,
    splits it where the tangents of 1 + r at the two ends meet (exact when
    the bracket spans one kink of a piecewise-linear r), and bisects
    (geometrically while the bracket is wide) when a step fails to halve the
    bracket's log-width.  It stops once the best h evaluated is within
    ``tol`` (relative) of the lower bound
    max(r'(a) + (1 - g(a))/b, r'(b) + (1 - g(b))/a) that the tangents give
    on [a, b]; a ``tol`` below four ulps, such as zero, a negative value or
    NaN, is raised to four ulps.

    The result is an upper bound of the infimum: h at an evaluated k (with
    r rounded up by the compiled kernel's error bound and the quotient
    rounded up, ``_objective_up``), the closed value at k_sup when the
    minimum sits on the edge (k_sup*|x_i| stays in the domain), or the
    limit sum w_i |x_i| s_i (s_i the final slopes, rounded up by the
    kernel's bound) when every supporting cell is linear from some knot on
    and g stays below 1.  Where the objective overflows before a
    bracket is found, the search restarts from the gauge scale; a norm
    above DBL_MAX raises ``UnboundedNormError``.
    """
    _check(field, x)
    if x.is_zero():
        return 0.0
    return _amemiya(field, [abs(v) for v in x.values], tol)[0]


def _exceeds(k: float, x: float, e: float) -> bool:
    """k*x > e exactly, for finite nonnegative floats, compared in integers."""
    km, kd = k.as_integer_ratio()
    xm, xd = x.as_integer_ratio()
    em, ed = e.as_integer_ratio()
    return km * xm * ed > em * kd * xd


def _short(q: float, k: float, r: float) -> bool:
    """q*k*(1 - 2**-53) < 1 + r exactly, for finite floats with q, k >= 0,
    compared in integers."""
    qm, qd = q.as_integer_ratio()
    km, kd = k.as_integer_ratio()
    rm, rd = r.as_integer_ratio()
    return qm * km * (2**53 - 1) * rd < (rd + rm) * qd * kd * 2**53


def _objective_up(r: float, k: float) -> float:
    """(1 + r)/k' rounded up (an exact check), k' = k*(1 - 2**-53): each normal
    fl(k*|x_i|) is at least k'*|x_i|, so where r bounds the modular at those
    floats, this bounds h(k') from above."""
    q = (1.0 + r) / k
    if math.isfinite(q):
        while _short(q, k, r):
            q = math.nextafter(q, INF)
    return q


@np.errstate(over="ignore", invalid="ignore")  # entered once per solve
def _amemiya(field: MusielakField, ax, tol: float) -> tuple[float, float, int]:
    """The search of ``amemiya_norm`` on |x| = ``ax``, evaluated on the kernel.

    Returns (value, lower bound of the infimum, evaluations).
    """
    tol = max(_MIN_RTOL, tol)  # NaN compares false, so it is raised too
    kernel = field._kernel
    row = np.array(ax, dtype=float)
    rows = row[None, :]
    edge, tail = kernel.edges(row)  # k_sup: a minimiser lies at or below it
    if edge == 0.0:  # every h(k) is at least 1/k_sup
        raise UnboundedNormError("the Amemiya edge underflows: the norm exceeds DBL_MAX")
    if tail is not None:
        k_lin, limit, g_inf = tail
        if g_inf <= 1.0:  # g stays below 1, so h falls to its limit
            if math.isinf(limit):
                raise UnboundedNormError("the Amemiya limit overflows: the norm exceeds DBL_MAX")
            return limit * (1.0 + kernel.rel), limit, 0
        edge = k_lin  # past k_lin g is g_inf > 1, so a minimiser lies at or below it
    top = min(edge, _DBL_MAX)
    lo = hi = None  # (k, r, k*r', g): g(lo) <= 1 < g(hi), or r overflows at hi
    k = top if math.isfinite(edge) else min(1.0 / float(row.max()), top)
    best, arg, evals, grow, width, restarted = INF, (INF, 1.0), 0, 2.0, INF, False
    for _ in range(_MAX_DOUBLINGS):
        r, s, g = (float(v[0]) for v in kernel.closure(rows, np.array([k]), gap=True))
        evals += 1
        r_up = r * (1.0 + kernel.rel) + kernel.abs  # the kernel's r rounded up
        if (1.0 + r_up) / k < best:  # rounded up once, on return
            best, arg = (1.0 + r_up) / k, (r_up, k)
        if math.isfinite(r) and g <= 1.0:
            lo = (k, r, s, g)
        else:
            hi = (k, r, s, g)
        if hi is None:  # h falls up to k
            if k >= top:  # the minimum sits at the edge
                return _objective_up(*arg), (1.0 + r) / k, evals
            k, grow = min(k * grow, top), grow * grow
            continue
        if lo is None:
            h_hi = (1.0 + hi[1]) / hi[0]
            if math.isfinite(h_hi):
                k = min(1.0 / h_hi, 0.5 * hi[0])  # every minimiser lies above 1/h(k)
            elif not restarted:
                # h overflows at k; at the gauge scale modular(kx) <= 1, so
                # there h is at most 2/k unless the norm itself is out of range
                restarted = True
                k, hi_k = gauge(field, ax, 1.0, tol)
                _norm_of_scale(hi_k)
            else:
                raise UnboundedNormError(
                    "the Amemiya objective overflows: the norm is near DBL_MAX"
                )
            continue
        (ka, ra, sa, ga), (kb, rb, sb, gb) = lo, hi
        da = sa / ka
        bound = da + (1.0 - ga) / kb  # tangent of 1 + r at ka, over [ka, kb]
        tangent = math.isfinite(rb)
        if tangent:
            db = sb / kb
            bound = max(bound, db + (1.0 - gb) / ka)
        if best - bound <= tol * best or math.nextafter(ka, INF) >= kb:
            return _objective_up(*arg), bound, evals
        k = INF
        if tangent and math.log(kb) - math.log(ka) <= 0.5 * width and db > da:
            k = (gb - ga) / (db - da)  # where the tangents at ka and kb meet
        width = math.log(kb) - math.log(ka)
        if not ka < k < kb:  # bisection, geometric while the bracket is wide
            k = math.sqrt(ka) * math.sqrt(kb)
            if not ka < k < kb:
                k = 0.5 * (ka + kb)
    raise MospacesError("Amemiya search did not converge")  # pragma: no cover


def _rightmost_maximizer(curve: OrliczCurve, v: float) -> float:
    """Largest u maximising u*v - phi(u) (closure at a finite end; may be inf)."""
    if isinstance(curve, Power):
        return _pow(v, 1.0 / (curve.p - 1.0))
    if isinstance(curve, Linear):
        return INF if v >= curve.slope else 0.0
    if isinstance(curve, Indicator):
        return curve.bound
    if isinstance(curve, PiecewiseLinear):
        u = 0.0
        for j, s in enumerate(curve.slopes):
            if v >= s:
                u = curve.breakpoints[j + 1]
            else:
                break
        return u
    raise TypeError(f"not an Orlicz curve: {curve!r}")


def _next_kink(curve: OrliczCurve, u: float) -> float:
    if isinstance(curve, Indicator):
        return curve.bound
    if isinstance(curve, PiecewiseLinear):
        for b in curve.breakpoints[1:]:
            if b > u:
                return b
        return curve.breakpoints[-1]
    return INF


def orlicz_norm_sup_oracle(field: MusielakField, x: StepFunction) -> SupOracleResult:
    """Orlicz norm of x as a supremum of pairings, used as a cross-check.

    Solves max sum(x_i y_i mu_i) over the unit ball of the conjugate modular
    by a waterline search: y_i follows the rightmost maximizer of
    u*(|x_i|/lam) - N_i(u) (N the cellwise conjugate) while lam is bisected
    until the constraint modular crosses 1 (for all-power fields this is the
    exact stationarity condition), then a kink-aware greedy fill spends any
    leftover modular budget segment by segment in decreasing gain rate.  The
    reported point is feasible, so the value is a certified lower bound; it
    equals the Amemiya norm of x in this field by the Koethe duality.
    """
    _check(field, x)
    ax = [abs(v) for v in x.values]
    supp = [i for i, v in enumerate(ax) if v > 0.0]
    if not supp:
        return SupOracleResult(0.0, 0.0, 0, True)
    mu = field.grid.weights
    constraint = {i: conjugate(field.curves[i]) for i in supp}

    def candidate(lam: float):
        return {i: _rightmost_maximizer(constraint[i], ax[i] / lam) for i in supp}

    def used(s: dict) -> float:
        terms = []
        for i, u in s.items():
            t = constraint[i].value_closed(u) if math.isfinite(u) else INF
            if math.isinf(t):
                return INF
            terms.append(t * mu[i])
        return math.fsum(terms)

    lam = max(ax)
    for _ in range(_MAX_DOUBLINGS):
        if used(candidate(lam)) <= 1.0:
            break
        lam *= 2.0
    else:  # pragma: no cover
        raise UnboundedNormError("waterline search failed to bracket")
    lam_hi = lam
    lam_lo = lam
    capped = True
    for _ in range(_MAX_DOUBLINGS):
        lam_lo /= 2.0
        if used(candidate(lam_lo)) > 1.0:
            capped = False
            break
        lam_hi = lam_lo
        if lam_lo < 1e-280:
            break
    if not capped:
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lam_lo + lam_hi)
            if used(candidate(mid)) <= 1.0:
                lam_hi = mid
            else:
                lam_lo = mid
    s = candidate(lam_hi)

    kinks = sum(
        len(c.breakpoints) for c in constraint.values() if isinstance(c, PiecewiseLinear)
    )
    rounds_cap = kinks + len(supp) + 16
    rounds = 0
    converged = False
    for rounds in range(1, rounds_cap + 1):
        leftover = 1.0 - used(s)
        if leftover <= 1e-15:
            converged = True
            break
        # best marginal gain rate |x_i| / slope, spending at most to the next
        # kink; power cells already sit at their exact waterline and their
        # rate decays within any spend, so only constant-slope cells fill up
        best_i, best_rate = None, 0.0
        for i in supp:
            crv, u = constraint[i], s[i]
            if isinstance(crv, Power) or u >= crv.params().b:
                continue
            slope = crv.right_derivative(u)
            rate = INF if slope == 0.0 else ax[i] / slope
            if best_i is None or rate > best_rate:
                best_i, best_rate = i, rate
        if best_i is None:
            converged = True  # every cell capped; the ball is exhausted sideways
            break
        crv = constraint[best_i]
        cur = crv.value_closed(s[best_i])
        target = cur + leftover / mu[best_i]
        s_new = min(crv.inverse_upper(target), _next_kink(crv, s[best_i]))
        if s_new <= s[best_i]:
            converged = True
            break
        s[best_i] = s_new
    m = used(s)
    value = math.fsum(ax[i] * s[i] * mu[i] for i in supp)
    return SupOracleResult(value, m, rounds, converged or (1.0 - m) <= 1e-12)


def partition(field: MusielakField) -> Partition:
    """Cellwise split by the cached structural parameters."""
    o_inf, o_1, o_1i, rem = set(), set(), set(), set()
    for cid, p in zip(field.grid.ids, field.cell_params):
        if p.a == p.b:
            o_inf.add(cid)
        elif p.d == p.b:
            (o_1 if math.isinf(p.b) else o_1i).add(cid)
        else:
            rem.add(cid)
    return Partition(frozenset(o_inf), frozenset(o_1), frozenset(o_1i), frozenset(rem))


def weights(field: MusielakField) -> WeightPair:
    """Reciprocal domain ends and linear-segment slopes, cross-checked.

    The slope weight must equal the a-parameter of the cellwise conjugate
    except on remainder cells, where it is 0 by definition.
    """
    part = partition(field)
    linear_cells = part.omega_1 | part.omega_1inf
    v_vals, w_vals = [], []
    for cid, crv, p in zip(field.grid.ids, field.curves, field.cell_params):
        v_vals.append(1.0 / p.b if math.isfinite(p.b) else 0.0)
        w_vals.append(crv.right_derivative(0.0) if cid in linear_cells else 0.0)
        if cid not in part.remainder:
            a_conj = conjugate(crv).params().a
            if a_conj != w_vals[-1]:
                raise MospacesError(
                    f"slope weight {w_vals[-1]} disagrees with conjugate zero {a_conj}"
                )
    return WeightPair(
        StepFunction(field.grid, tuple(v_vals)),
        StepFunction(field.grid, tuple(w_vals)),
    )


def decomposition_norm(field: MusielakField, x: StepFunction, tol: float = 1e-12) -> DecompositionResult:
    """Norm via the structural split of the grid.

    Always valid: the maximum of the weighted sup norm over indicator-type
    cells and the gauge norm of the rest.  When no remainder cell exists the
    second term collapses to a weighted L1 norm and the whole value is a
    closed form.
    """
    _check(field, x)
    part = partition(field)
    wp = weights(field)
    complement = frozenset(field.grid.ids) - part.omega_inf
    if not part.remainder:
        sup_cells = part.omega_inf | part.omega_1inf
        sup_val = (
            weighted_sup_norm(x.restrict(sup_cells), wp.v.values) if sup_cells else 0.0
        )
        l1_val = weighted_l1_norm(x.restrict(complement), wp.w.values)
        return DecompositionResult(max(sup_val, l1_val), "weighted-max", sup_val, l1_val)
    sup_val = (
        weighted_sup_norm(x.restrict(part.omega_inf), wp.v.values)
        if part.omega_inf
        else 0.0
    )
    rest = x.restrict(complement)
    lux_val = 0.0 if rest.is_zero() else luxemburg_norm(field, rest, tol)
    return DecompositionResult(max(sup_val, lux_val), "oplus-inf", sup_val, lux_val)


def finite_elements_nontrivial(field: MusielakField) -> bool:
    """True when some cell has an unbounded domain."""
    return any(math.isinf(p.b) for p in field.cell_params)


def bounded_level_sets(field: MusielakField, u: float) -> list[CellSet]:
    """Unbounded-domain cells where the curve stays finite at height u.

    On a finite grid the ascending exhaustion degenerates to one set,
    returned as a single-element list.
    """
    if u < 0:
        raise PreconditionError("height must be nonnegative")
    cells = frozenset(
        cid
        for cid, p, crv in zip(field.grid.ids, field.cell_params, field.curves)
        if math.isinf(p.b) and math.isfinite(crv.value(u))
    )
    if not cells:
        raise PreconditionError("no cell has an unbounded domain")
    return [cells]

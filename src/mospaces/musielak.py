"""Musielak-Orlicz space engine on a finite grid.

A ``MusielakField`` assigns one Orlicz curve per grid cell.  Its compiled
form is a column table (``table.CurveTable``): family codes, numbers,
flattened breakpoints and slopes, and the knot table derived from them.
The parser builds the table straight from a config's curve list, and the
modular, the start caps, the kernel, the structural split, the halving
ratios and the conjugate field read only the table; the per-cell curve
objects (``curves``) are built only for the sup oracle, a field's repr and
the message of a refused conjugate.

The modular of a step function is the weighted sum of curve values
(``modulars``, one fsum per row, inf where the sum passes DBL_MAX); the
gauge norm (Luxemburg) is the scaling that brings the modular to one.
``gauge_block`` solves rho(t|x|) = level for many rows in lockstep by
Newton steps from above on the convex map t -> rho(t|x|), evaluating all
of them per step on a numpy form of the field compiled once per field;
every level-set scaling in the package goes through it.
``luxemburg_norms`` and ``unit_sphere_points`` are its row-batched norm
and unit-sphere scaling, and ``luxemburg_norm`` and ``unit_sphere_point``
their one-row calls.  The loop keeps each row's state (bracket ends,
their closure values, the slope at the upper end) in arrays and moves
every active row with one set of array operations, each the float
operation of a one-row step, so a row's bracket is the same alone or in a
block.  Every comparison with the level is decided on the kernel, whose
error bound floors the bracket width; ``modular`` is the reference.
Where the kernel leaves a point open, steps of a quarter of the tolerance
to either side settle it; convexity of the modular bounds the kernel's
value there from the one already computed, and the steps are evaluated
only where that bound does not decide them.
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
to weighted sup/L1 expressions, which ``decomposition_norm`` exploits.  A
field computes it once, as its ``Structure`` record (``field._structure``),
which the classifier reads too; ``partition`` and ``weights`` are its views.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import INF, Indicator, Linear, OrliczCurve, PiecewiseLinear, Power, _pow, conjugate
from .errors import GridMismatchError, MospacesError, PreconditionError, UnboundedNormError
from .grid import CellSet, MeasureGrid, StepFunction, fsum_up
from .table import INDICATOR, LINEAR, POWER, CurveTable, InvalidCell

_MAX_DOUBLINGS = 4096
_EDGE_STEPS = 64  # edge steps of the asked size before they double
_MIN_RTOL = 4.0 * math.ulp(1.0)  # the tightest Amemiya tolerance asked for
_BISECT_STEPS = 200
_SPHERE_RTOL = 1e-13  # gauge bracket width of the unit-sphere scaling
_DBL_MAX = sys.float_info.max
_DBL_MIN = sys.float_info.min  # the smallest normal float


class MusielakField:
    """One Orlicz curve per grid cell.

    The curves are held as a ``CurveTable``, the compiled form the modular,
    the gauge solvers and the structural split read.  ``curves``, the
    per-cell objects, are built from the table on first use, unless the
    field was made from them.
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
    def _weights(self) -> np.ndarray:
        return np.array(self.grid.weights)

    @cached_property
    def _caps_by_level(self) -> dict:
        return {}  # level -> per-cell start caps, filled by _start_caps

    @cached_property
    def _kernel(self) -> "_FieldKernel":
        return _FieldKernel(self.table, self._weights)

    @cached_property
    def _structure(self) -> "Structure":
        """The field's ``Structure``, computed once from its table's columns."""
        t, mass = self.table, self.grid.weights
        zero = t.cell_a == t.cell_b
        linear = ~zero & (t.cell_d == t.cell_b)
        bounded = np.isfinite(t.cell_b)
        to_b = linear & bounded
        masks = (zero, linear & ~bounded, to_b, ~zero & ~linear)
        w = np.where(linear, t.per_cell(t.slopes[:, 0], 0.0), 0.0)
        with np.errstate(over="ignore"):  # 1/b and products past DBL_MAX are inf, as in Python
            v = 1.0 / t.cell_b
            terms = w[to_b] * t.cell_b[to_b] * self._weights[to_b]
        integral = INF if masks[1].any() else fsum_up(terms.tolist())
        masses = (fsum_up(itertools.compress(mass, m.tolist())) for m in masks)
        return Structure(*masks, v, w, *masses, next(modulars(self, [t.cell_b])), integral)

    @staticmethod
    def constant(grid: MeasureGrid, curve: OrliczCurve) -> "MusielakField":
        return MusielakField(grid, (curve,) * len(grid))

    @staticmethod
    def nakano(grid: MeasureGrid, exponents) -> "MusielakField":
        """Variable-exponent field: p=1 -> linear, p=inf -> indicator, each with number 1."""
        p = np.array([float(t) for t in exponents])
        if not (p >= 1.0).all():  # NaN too
            raise ValueError("exponents must lie in [1, inf]")
        family = np.select([p == 1.0, np.isinf(p)], [LINEAR, INDICATOR], POWER)
        number = np.where(family == POWER, p, 1.0)
        return MusielakField.of_table(grid, CurveTable(family, number, [], [], [], [], []))


@dataclass(frozen=True)
class Structure:
    """A field's structure, from its table's columns a <= d <= b and first slopes.

    Per cell: the masks ``omega_inf`` (a = b), ``omega_1`` (d = b = inf),
    ``omega_1inf`` (d = b < inf) and ``remainder`` (d < b); v = 1/b (0 on an
    unbounded domain) and w, the first slope on linear cells (0 elsewhere).
    A v of inf marks a subnormal end b, a real weight beyond the float range:
    ``decomposition_norm`` weighs |x| there as |x|/b, and ``component_spec``
    refuses it.  Over the grid: each mask's mass, the modular at the domain
    ends (``modulars`` of the row b) and the collapse integral, the sum of
    w*b*mass over ``omega_1inf`` (inf when ``omega_1`` has a cell); each
    sum is one fsum, inf where it passes DBL_MAX.
    """

    omega_inf: np.ndarray
    omega_1: np.ndarray
    omega_1inf: np.ndarray
    remainder: np.ndarray
    v: np.ndarray
    w: np.ndarray
    mass_omega_inf: float
    mass_omega_1: float
    mass_omega_1inf: float
    mass_remainder: float
    modular_at_bounds: float
    collapse_integral: float


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


def modulars(field: MusielakField, rows):
    """The modular of each row of nonnegative cell values (inf allowed), one
    row at a time: inf where a curve value is, else the products
    curve(u_i) * mass_i summed by one fsum in grid order (``fsum_up``: inf
    where the sum passes DBL_MAX, as in the kernel), each term the float
    operations of the curves.  A row is summed only when it is asked for."""
    values = field.table.value(rows)
    with np.errstate(over="ignore"):  # an inf product makes the sum inf
        terms = (values * field._weights).tolist()
    for blown, row in zip(np.isinf(values).any(axis=1).tolist(), terms):
        yield INF if blown else fsum_up(row)


def modular(field: MusielakField, x: StepFunction) -> float:
    """Sum over cells of curve(|x|) * mass, with infinity propagation."""
    _check(field, x)
    return next(modulars(field, np.abs([x.values])))


def modular_of_bounds(field: MusielakField, cells=None) -> float:
    """Modular of the domain-end function b_M (restricted to ``cells``)."""
    keep = field.grid.cell_set(cells)
    inside = np.array([cid in keep for cid in field.grid.ids])
    return next(modulars(field, [np.where(inside, field.table.cell_b, 0.0)]))


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
        tail, last = np.isinf(self.b), (self.cols, counts - 1)
        self.tail_from = table.per_cell(np.where(tail, self.knots[last], INF), INF)
        self.tail_slope = table.per_cell(np.where(tail, self.slopes[last], 0.0), 0.0)
        self.tail_gap = table.per_cell(np.where(tail, gaps[last], 0.0), 0.0)
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
        limit = fsum_up((self.weights[live] * v * self.tail_slope[live]).tolist())
        return k_sup, (k_lin, limit, math.fsum(self.tail_gap[live].tolist()))


def _closed(l: np.ndarray, h: np.ndarray, rtol: float) -> np.ndarray:
    """Brackets (l, h) narrow enough to return: within rtol of l, or at most
    one float strictly between l and h."""
    return (h - l <= rtol * l) | (np.nextafter(np.nextafter(l, INF), INF) >= h)


def _settle(kernel: _FieldKernel, rows: np.ndarray, t: np.ndarray, l, h, level: float, rtol: float):
    """The points one gauge step certifies for row k of ``rows`` at t[k].

    Evaluates the closure r and t*r' and returns, per row, arrays (t_lo,
    r_lo, t_hi, r_hi, s_hi): t_lo with r(t_lo) = r_lo at most ``level``
    (t_lo = 0 when none) and t_hi with r(t_hi) = r_hi above it and
    t_hi*r'(t_hi) = s_hi (t_hi = inf when none).  That is t[k] itself, or,
    where the kernel's error bound leaves t[k] open, the steps d = t(1 -
    rtol/4) below and e = t(1 + rtol/4) above it (at least one ulp), which
    close the bracket; a step past the domain edge counts as above the level.

    An open row's steps are evaluated only where ``_convex_sides`` cannot
    decide both from the value r~ at t, or where the row's bracket (l, h)
    so far, with them, would not close (``_closed``).  A row decided so
    stops, so its r_lo, r_hi and s_hi (left at t's) are not read again; its
    bracket is the one the evaluated steps give.  The bound: let R(t) be
    the exact closed modular at the float point fl(t*x_i), which the kernel
    approximates with |r~ - R| <= rel*R + abs.  Each cell's closure is
    convex on its closed domain and 0 at 0, so phi(a) <= (a/b)*phi(b) for
    0 <= a <= b in the domain.  With t normal, every nonzero fl(d*x_i)
    normal (each product then errs by under 2u, u = 2**-53) and every
    fl(t*x_i) in its domain, that gives R(d) <= (d/t)(1+2u)/(1-2u)*R(t) and,
    unless some fl(e*x_i) leaves its domain (then e is above anyway),
    R(e) >= (e/t)(1-2u)/(1+2u)*R(t).  With R(t) <= (r~ + abs)/(1 - rel) and
    r~(d) <= (1 + rel)*R(d) + abs, the test of ``side`` at d is at most
    (1+u)**2 (1+rel)**2 (1+2u)/((1-2u)(1-rel)) (d/t)(r~ + abs) + (3 + 2*rel)*abs
    (two more roundings in it, and 2**-1075 <= abs/2 for each that falls
    below the normal range); ``(r~ + abs)*(d/t)*(1 + c) + 4*abs``, five
    roundings, is at least (1-u)**5 (1+c) (d/t)(r~ + abs) + 4(1-u)*abs.
    So c = 3*rel + 2**-49 >= 3*rel + 11u (plus second-order terms far
    below 5u) makes ``side`` say below at d wherever that test is at most
    the level; the mirror image holds for ``(r~ - abs)*(e/t)*(1 - c) -
    4*abs > level`` at e.  The test's own values stay normal: the bound is
    used for level in [2**-1000, 2**1000], ``gauge_block`` caps rtol at 1
    (so d >= t/2), and rtol >= ``floor(level)`` makes abs <= level/4, so an
    open r~ exceeds level/2.
    """
    r, s, _ = kernel.closure(rows, t)
    side = kernel.side(r, level)
    t_lo, r_lo = np.where(side < 0, t, 0.0), r.copy()
    t_hi, r_hi, s_hi = np.where(side > 0, t, INF), r, s
    unsure = np.flatnonzero(side == 0)
    if unsure.size:
        tk, lk, hk = t[unsure], l[unsure], h[unsure]
        down, up = _step(tk, -rtol / 4.0), _step(tk, rtol / 4.0)
        known = _convex_sides(kernel, rows[unsure], tk, r[unsure], down, up, level)
        known &= _closed(_larger(lk, down), np.where(up < hk, up, hk), rtol)
        k = unsure[known]
        t_lo[k], t_hi[k] = down[known], up[known]
        unsure, down, up = unsure[~known], down[~known], up[~known]
    if unsure.size:
        m, near = unsure.size, rows[unsure]
        tn = np.concatenate((down, up))
        rn, sn, _ = kernel.closure(np.concatenate((near, near)), tn)
        siden = kernel.side(rn, level)
        below, above = siden[:m] < 0, siden[m:] > 0
        if not above.all():  # a step past the domain edge is above the level too
            above |= kernel.beyond(near, up)
        k = unsure[below]
        t_lo[k], r_lo[k] = down[below], rn[:m][below]
        k = unsure[above]
        t_hi[k], r_hi[k], s_hi[k] = up[above], rn[m:][above], sn[m:][above]
    return t_lo, r_lo, t_hi, r_hi, s_hi


def _convex_sides(kernel: _FieldKernel, rows, t, r, down, up, level: float):
    """Rows k whose steps down[k] < t[k] < up[k] the kernel value r[k] at t[k]
    decides: ``side`` would put down[k] below the level and up[k] above it
    (or past the domain edge).  The proof is in ``_settle``."""
    if not 2.0**-1000 <= level <= 2.0**1000:
        return np.zeros(len(t), dtype=bool)
    a, c = kernel.abs, 3.0 * kernel.rel + 2.0**-49
    low = np.where(rows > 0.0, down[:, None] * rows, INF).min(axis=1)
    inside = (t[:, None] * rows[:, kernel.knotted] <= kernel.b).all(axis=1)
    below = (r + a) * (down / t) * (1.0 + c) + 4.0 * a <= level
    above = (r - a) * (up / t) * (1.0 - c) - 4.0 * a > level
    return (t >= _DBL_MIN) & (low >= _DBL_MIN) & inside & below & above


def _certain(kernel: _FieldKernel, rows: np.ndarray, t: np.ndarray, level: float) -> np.ndarray:
    """-1 where t[k] is certainly feasible for row k of ``rows``, 1 where it
    certainly is not, 0 where the kernel's error bound leaves it open."""
    out = kernel.beyond(rows, t).astype(np.int8)
    inside = np.flatnonzero(out == 0)
    if inside.size:  # below the domain edge and off blow-up ends the closure is the modular
        out[inside] = kernel.side(kernel.closure(rows[inside], t[inside])[0], level)
    return out


def _edge_brackets(kernel: _FieldKernel, rows: np.ndarray, starts: np.ndarray, level: float, rtol: float):
    """Brackets (lo, hi) of T for rows whose closure at their start bound is below the level.

    Then T is the start t up to rounding: the closure stays under the level
    up to the edge (past it the modular is infinite), or a single cell's
    bound is met exactly.  ``lo`` (the start) steps down by rtol/4 and
    ``hi`` up by rtol/2 until ``_certain`` puts each on its side: once,
    unless the start or some product t*|x_i| is subnormal, whose coarse
    ulps can swallow many steps.  After ``_EDGE_STEPS`` steps that leave a
    row open, each further step doubles (down, at most halving t), so each
    end of such a row settles within about a hundred steps; a row that
    settles sooner keeps the bracket of steps of the asked size.
    """
    lo, hi = starts.copy(), _step(starts, rtol / 2.0)
    for t, want, by in ((lo, -1, -rtol / 4.0), (hi, 1, rtol / 2.0)):
        pending = np.arange(len(rows))
        for steps in itertools.count(1):
            pending = pending[_certain(kernel, rows[pending], t[pending], level) != want]
            if not pending.size:
                break
            if steps > _EDGE_STEPS:  # the steps are lost in a subnormal product's ulp
                by = max(2.0 * by, -0.5)
            t[pending] = _step(t[pending], by)
    return lo, hi


def gauge_block(field: MusielakField, rows, level: float = 1.0, rtol: float = 1e-12):
    """Brackets (lo, hi) of T = sup{t >= 0 : modular(t*x) <= level} for
    every row x of ``rows`` at once, as arrays.

    ``rows`` holds nonnegative cell values (rows x cells), no row all zero,
    and ``level`` is positive.  Each row gets modular(lo*x) <= level,
    hi >= T and hi - lo <= max(rtol, floor)*lo, or at most one float
    strictly between lo and hi, against the scalar ``modular``.  The
    floor, the kernel's ``floor(level)``, follows from its error bound
    ``rel``/``abs`` and is below 1e-13 on grids of up to a million cells; a
    smaller rtol (zero, negative, NaN) is raised to it, and one above 1
    (inf too) is capped at 1, where a step of rtol/4 still keeps t
    positive.  The width holds as stated where each nonzero t*x_i near T
    is normal.  Where the closure stays under the level up to the start
    bound and some such product is subnormal, its ulp 2**-1074 can swallow
    steps of t (``_edge_brackets``): lo and hi keep their sides, but
    hi/lo - 1 is only bounded by about 48*rtol plus four times that ulp
    relative to T*x_i.  A level below the kernel's absolute error bound
    ``abs`` (heavy masses and a tiny level) is a PreconditionError.

    r(t) = modular(t*x) is convex and nondecreasing, so Newton steps on its
    closure from above (left slopes) never undershoot T and solve a
    piecewise-linear piece exactly, while the chord through the feasible end
    never overshoots it.  The start is the domain edge or the tightest
    single-cell bound, whichever is smaller (the caps of ``_start_caps``).
    Each step evaluates all active rows with one call of the field's
    compiled kernel (``_settle``), and a comparison with the level counts
    only where the kernel's error bound makes it certain.  A point that
    bound leaves open is settled by steps of rtol/4 to either side, decided
    from the value already computed, as r(u)/u does not decrease, wherever
    that is certain, and evaluated otherwise; at rtol 1e-12 and above and
    with every t*x_i normal, each step evaluates the closure once.  The
    state of the active rows lives in arrays, and each step updates all of
    them at once with the float operations of a one-row step, so a row's
    bracket does not depend on the rows solved with it.
    """
    rows = np.asarray(rows, dtype=float)
    if not rows.any(axis=1).all():
        raise PreconditionError("the gauge of the zero function is unbounded")
    kernel = field._kernel
    if kernel.abs > level:  # no t > 0 could be certified feasible, and the edge steps never stop
        raise PreconditionError(f"level {level!r} is below the kernel's error bound {kernel.abs!r}")
    rtol = min(max(kernel.floor(level), rtol), 1.0)  # NaN compares false, so it is raised too
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
            tl, rtl, th, rth, sth = _settle(kernel, rows[live], ts, l, h, level, rtol)
            up, down = th < h, tl > l
            h, rh, sh = np.where(up, th, h), np.where(up, rth, rh), np.where(up, sth, sh)
            l, rl = np.where(down, tl, l), np.where(down, rtl, rl)
            edge = h == INF  # the closure at the start bound is at most the level
            stop = edge | _closed(l, h, rtol)
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
    """``luxemburg_norms`` of the one row x."""
    _check(field, x)
    return float(luxemburg_norms(field, [x.values], tol)[0])


def luxemburg_norms(field: MusielakField, xs, tol: float = 1e-12) -> np.ndarray:
    """inf{lam > 0 : modular(x/lam) <= 1} of each row x of ``xs`` (rows x cells).

    A zero row has norm 0; any other gets 1/hi from the gauge bracket of
    |x| (``gauge_block``), so no norm exceeds the true one (keeps
    norm-ratio invariants one-sided).  A norm above DBL_MAX raises
    ``UnboundedNormError``.
    """
    ax = np.abs(np.asarray(xs, dtype=float))
    out = np.zeros(len(ax))
    nonzero = ax.any(axis=1)
    if nonzero.any():
        hi = gauge_block(field, ax[nonzero], 1.0, tol)[1]
        _norm_of_scale(float(hi.min()))  # the largest norm: raises where it passes DBL_MAX
        out[nonzero] = 1.0 / hi
    return out


def unit_sphere_point(field: MusielakField, y: StepFunction) -> StepFunction:
    """``unit_sphere_points`` of the one row y."""
    _check(field, y)
    if y.is_zero():
        raise PreconditionError("cannot normalise the zero function")
    return StepFunction(field.grid, tuple(unit_sphere_points(field, [y.values])[0].tolist()))


def unit_sphere_points(field: MusielakField, ys) -> np.ndarray:
    """Each row y of ``ys`` (nonzero rows) scaled to the unit sphere of the Luxemburg norm.

    Uses the feasible end of the gauge bracket of sup{t : modular(t*y) <= 1};
    the scaled point has norm 1 whether or not the modular reaches 1 (jump
    curves may skip it).
    """
    ys = np.asarray(ys, dtype=float)
    return gauge_block(field, np.abs(ys), 1.0, _SPHERE_RTOL)[0][:, None] * ys


def conjugate_field(field: MusielakField) -> MusielakField:
    """Cellwise complementary field; a refused cell raises ``curves.conjugate``'s message."""
    try:
        table = field.table.conjugate()
    except InvalidCell as exc:
        conjugate(field.curves[exc.index])  # raises that cell's own message
        raise
    return MusielakField.of_table(field.grid, table)


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
                lo_k, hi_k = gauge_block(field, [ax], 1.0, tol)
                k = float(lo_k[0])
                _norm_of_scale(float(hi_k[0]))
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
    """The four cell sets of the field's structure record, as cell ids."""
    st, ids = field._structure, field.grid.ids
    masks = (st.omega_inf, st.omega_1, st.omega_1inf, st.remainder)
    return Partition(*(frozenset(itertools.compress(ids, m.tolist())) for m in masks))


def weights(field: MusielakField) -> WeightPair:
    """The weights v and w of the field's structure record, as step functions
    (w is the zero end a of the cellwise conjugate off the remainder).  A
    subnormal domain end makes v inf, which a step function refuses with
    ``ValueError``; the record (``field._structure``) keeps it."""
    st = field._structure
    return WeightPair(*(StepFunction(field.grid, tuple(a.tolist())) for a in (st.v, st.w)))


def decomposition_norm(field: MusielakField, x: StepFunction, tol: float = 1e-12) -> DecompositionResult:
    """Norm via the structural split of the grid.

    Always valid: the maximum of the weighted sup norm over indicator-type
    cells and the gauge norm of the rest.  When no remainder cell exists the
    second term collapses to a weighted L1 norm and the whole value is a
    closed form.  The sup weighs |x| as |x|/b where v is inf, so such a cell
    adds 0 where x vanishes.  A value past DBL_MAX raises ``UnboundedNormError``,
    as the gauge norms do.
    """
    _check(field, x)
    st = field._structure
    ax = np.abs(x.values)
    rest = np.where(st.omega_inf, 0.0, ax)  # |x| off the indicator-type cells
    with np.errstate(over="ignore", invalid="ignore"):  # a product past DBL_MAX is inf, as in Python
        sup = np.where(np.isinf(st.v), ax / field.table.cell_b, ax * st.v)
        l1_terms = rest * st.w * field._weights
    closed = not st.remainder.any()
    sup_val = float(sup.max(where=st.omega_inf | (st.omega_1inf & closed), initial=0.0))
    if closed:
        rest_val, formula = fsum_up(l1_terms.tolist()), "weighted-max"
    else:
        rest_x = StepFunction(field.grid, tuple(rest.tolist()))
        rest_val, formula = luxemburg_norm(field, rest_x, tol), "oplus-inf"
    value = max(sup_val, rest_val)
    if math.isinf(value):
        raise UnboundedNormError("the decomposition overflows: the norm exceeds DBL_MAX")
    return DecompositionResult(value, formula, sup_val, rest_val)


def finite_elements_nontrivial(field: MusielakField) -> bool:
    """True when some cell has an unbounded domain."""
    return bool(np.isinf(field.table.cell_b).any())


def bounded_level_sets(field: MusielakField, u: float) -> list[CellSet]:
    """Unbounded-domain cells where the curve stays finite at height u.

    On a finite grid the ascending exhaustion degenerates to one set,
    returned as a single-element list.
    """
    if not u >= 0.0:  # NaN too
        raise PreconditionError(f"height must be a nonnegative number, got {u!r}")
    unbounded = np.isinf(field.table.cell_b)
    if not unbounded.any():
        raise PreconditionError("no cell has an unbounded domain")
    finite = unbounded & np.isfinite(field.table.value(np.full(len(field.grid), float(u))))
    if not finite.any():
        raise PreconditionError(f"no unbounded-domain cell stays finite at height {u!r}")
    return [frozenset(itertools.compress(field.grid.ids, finite.tolist()))]

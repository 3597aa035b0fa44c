"""Musielak-Orlicz space engine on a finite grid.

A ``MusielakField`` assigns one Orlicz curve per grid cell.  The modular of
a step function is the weighted sum of curve values; the gauge norm
(Luxemburg) is the scaling that brings the modular to one.  ``gauge``
solves rho(t|x|) = level by Newton steps from above on the convex map
t -> rho(t|x|); every level-set scaling in the package goes through it.
``gauge_block`` runs the same loop on many rows in lockstep, evaluating
all of them per step on a numpy form of the field compiled once per field;
``luxemburg_norms`` and ``unit_sphere_points`` are the row-batched
``luxemburg_norm`` and ``unit_sphere_point``.  The per-cell loop stays the
reference: one-row solves use it, and a block falls back to it for a row
whose comparison with the level stays uncertain under the kernel's error
bound.
The dual-flavoured Amemiya norm minimises k -> (1+rho(kx))/k, which is
unimodal.  A supremum-form oracle over the modular unit ball
cross-checks the Amemiya route through the Koethe duality.

The structural decomposition splits the grid into indicator-type cells
(``omega_inf``), globally linear cells (``omega_1``), linear-up-to-a-bound
cells (``omega_1inf``) and the rest; on the first three the norm collapses
to weighted sup/L1 expressions, which ``decomposition_norm`` exploits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import INF, CurveParams, Indicator, Linear, OrliczCurve, PiecewiseLinear, Power, _pow, conjugate
from .errors import GridMismatchError, MospacesError, PreconditionError, UnboundedNormError
from .grid import CellSet, MeasureGrid, StepFunction, weighted_l1_norm, weighted_sup_norm

_MAX_DOUBLINGS = 4096
_MIN_RTOL = 4.0 * math.ulp(1.0)  # the tightest gauge bracket asked for
_BISECT_STEPS = 200
_SPHERE_RTOL = 1e-13  # gauge bracket width of the unit-sphere scaling


@dataclass(frozen=True)
class MusielakField:
    grid: MeasureGrid
    curves: tuple[OrliczCurve, ...]

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        if len(self.curves) != len(self.grid):
            raise GridMismatchError("need one curve per grid cell")

    @cached_property
    def cell_params(self) -> tuple[CurveParams, ...]:
        return tuple(c.params() for c in self.curves)

    @cached_property
    def _caps_by_level(self) -> dict:
        return {}  # level -> per-cell start caps, filled by _start_caps

    @cached_property
    def _kernel(self) -> "_FieldKernel":
        return _FieldKernel(self)

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


def _scaled_modular(field: MusielakField, ax, k: float) -> float:
    """Modular of k * |x| given precomputed absolute values."""
    terms = []
    for v, crv, w in zip(ax, field.curves, field.grid.weights):
        t = crv.value(k * v)
        if math.isinf(t):
            return INF
        terms.append(t * w)
    return math.fsum(terms)


def modular(field: MusielakField, x: StepFunction) -> float:
    """Sum over cells of curve(|x|) * mass, with infinity propagation."""
    _check(field, x)
    return _scaled_modular(field, [abs(v) for v in x.values], 1.0)


def modular_of_bounds(field: MusielakField, cells=None) -> float:
    """Modular of the domain-end function b_M (restricted to ``cells``)."""
    keep = field.grid.cell_set(cells)
    terms = []
    for cid, prm, crv, w in zip(
        field.grid.ids, field.cell_params, field.curves, field.grid.weights
    ):
        if cid not in keep:
            continue
        t = crv.value(prm.b)  # inf for unbounded domains by convention
        if math.isinf(t):
            return INF
        terms.append(t * w)
    return math.fsum(terms)


def _closure_left_slope(curve: OrliczCurve, u: float) -> float:
    """Left derivative of the curve's closure at u (right derivative at 0)."""
    if u == 0.0:
        return curve.right_derivative(0.0)
    if isinstance(curve, PiecewiseLinear):  # a blow-up end keeps the last slope
        return curve.slopes[bisect_left(curve.breakpoints, u) - 1]
    return curve.left_derivative(u)


def _closure(field: MusielakField, ax):
    """t -> (closed modular of t*ax, t times its left slope), cell by cell.

    The fsum reference the block kernel is checked against; valid for t up
    to the domain edge.
    """
    live = [
        (v, crv, crv.value_closed, w, prm.b)
        for v, crv, w, prm in zip(ax, field.curves, field.grid.weights, field.cell_params)
        if v > 0.0
    ]

    def closure(t: float):
        vals, slopes = [], []
        for v, crv, value_closed, w, b in live:
            u = t * v
            if u > b:
                u = b
            vals.append(value_closed(u) * w)
            slopes.append(_closure_left_slope(crv, u) * u * w)  # v*w alone may overflow
        return math.fsum(vals), math.fsum(slopes)

    return closure


def _start_caps(field: MusielakField, level: float) -> tuple[float, ...]:
    """Per cell, min(b, inverse_upper(level / w)): no t above cap/|x_i| is feasible.

    Computed once per field and level.
    """
    caps = field._caps_by_level.get(level)
    if caps is None:
        caps = field._caps_by_level[level] = tuple(
            min(prm.b, crv.inverse_upper(level / w))
            for crv, w, prm in zip(field.curves, field.grid.weights, field.cell_params)
        )
    return caps


def _check_start(hi: float):
    if math.isinf(hi):
        raise UnboundedNormError("the gauge scale overflows: the norm is below 1/DBL_MAX")
    if hi == 0.0:
        raise UnboundedNormError("the gauge scale underflows: the norm exceeds DBL_MAX")


def _edge_bracket(t: float, feasible, rtol: float) -> tuple[float, float]:
    """Bracket of T when the closure at the start bound t is at most the level.

    Then T is t up to rounding: the closure stays under the level up to the
    edge (past it the modular is infinite), or a single cell's bound is met
    exactly.  Steps of rtol (at least one ulp) away from t reach a feasible
    ``lo`` and an infeasible ``hi`` by the scalar test ``feasible``.
    """
    up = lambda u: max(u * (1.0 + rtol / 2.0), math.nextafter(u, INF))
    down = lambda u: min(u * (1.0 - rtol / 4.0), math.nextafter(u, 0.0))
    if feasible(t):
        lo, hi = t, up(t)
        while feasible(hi):
            lo, hi = hi, up(hi)
    else:
        lo, hi = down(t), up(t)
        while not feasible(lo):
            lo, hi = down(lo), lo
    return lo, hi


def _newton(starts, settle, feasible, level: float, rtol: float) -> list:
    """The gauge loop: Newton steps from above on the closure, rows in lockstep.

    ``starts[i]`` bounds row i's T from above.  ``settle(rows, ts)``
    evaluates the closure r and t*r' at ts[k] for row rows[k] and returns
    points (k, t, r, s) whose side of ``level`` is certain: t itself, or
    t*(1 - rtol/4) below and t*(1 + rtol/4) above the level, which closes
    the bracket.  ``feasible(i, t)`` is the scalar test
    modular(t * row i) <= level.  Returns one bracket (lo, hi) per row.
    """
    out = [None] * len(starts)
    # per row: lo, r(lo), hi, r(hi), hi*r'(hi), and the step back from hi
    # when both steps stall (doubles each time)
    states = [[0.0, 0.0, INF, INF, INF, rtol / 2.0] for _ in starts]
    rows, ts = list(range(len(starts))), list(starts)
    for _ in range(_MAX_DOUBLINGS):
        for k, t, r, s in settle(rows, ts):
            st = states[rows[k]]
            if r > level:
                if t < st[2]:
                    st[2], st[3], st[4] = t, r, s
            elif t > st[0]:
                st[0], st[1] = t, r
        stepping, ts = [], []
        for i in rows:
            st = states[i]
            lo, r_lo, hi, r_hi, s_hi, back = st
            if hi == INF:  # the closure at the start bound is at most the level
                out[i] = _edge_bracket(starts[i], lambda u: feasible(i, u), rtol)
                continue
            if hi - lo <= rtol * lo or math.nextafter(lo, INF) >= hi:
                out[i] = (lo, hi)
                continue
            t = lo + (hi - lo) * (level - r_lo) / (r_hi - r_lo)  # chord: r(t) <= level
            if hi - t > rtol * t:  # chord still loose: tangent root, r >= level there
                t = max(hi * (1.0 - (r_hi - level) / s_hi), lo * (1.0 + rtol / 2.0))
            if not lo < t < hi:  # rounding stalled both steps
                t = max(0.5 * (lo + hi), hi * (1.0 - back))
                st[5] = 2.0 * back
                if t >= hi:  # subnormal hi: rtol is below its ulp
                    t = 0.5 * (lo + hi)
            stepping.append(i)
            ts.append(t)
        if not stepping:
            return out
        rows = stepping
    raise MospacesError("gauge solver did not converge")  # pragma: no cover


def gauge(field: MusielakField, ax, level: float = 1.0, rtol: float = 1e-12) -> tuple[float, float]:
    """Bracket (lo, hi) of T = sup{t >= 0 : modular(t*ax) <= level}.

    ``ax`` holds nonnegative cell values, not all zero, and ``level`` is
    positive.  Guarantees modular(lo*ax) <= level, hi >= T and
    hi - lo <= rtol*lo (or no float lies strictly between lo and hi); an
    ``rtol`` below four ulps, such as zero, a negative value or NaN, is
    raised to four ulps.  r(t) = modular(t*ax) is convex and nondecreasing,
    so Newton steps on its closure from above (left slopes) never
    undershoot T and solve a piecewise-linear piece exactly, while the chord
    through the feasible end never overshoots it.  The start is the domain
    edge or the tightest single-cell bound, whichever is smaller (the caps
    of ``_start_caps``).  ``gauge_block`` runs the same loop on many rows;
    here the one row is evaluated by the per-cell closure.
    """
    rtol = max(_MIN_RTOL, rtol)  # NaN compares false, so it is raised too
    hi = min((c / v for v, c in zip(ax, _start_caps(field, level)) if v > 0.0), default=None)
    if hi is None:
        raise PreconditionError("the gauge of the zero function is unbounded")
    _check_start(hi)
    closure = _closure(field, ax)
    ((lo, hi),) = _newton(
        [hi],
        lambda rows, ts: [(0, ts[0], *closure(ts[0]))],
        lambda i, t: _scaled_modular(field, ax, t) <= level,
        level,
        rtol,
    )
    return lo, hi


def _knot_table(curve: OrliczCurve):
    """(left knots, knot values, slopes from each knot, b, closed value at b)."""
    if isinstance(curve, Linear):
        return (0.0,), (0.0,), (curve.slope,), INF, INF
    if isinstance(curve, Indicator):
        return (0.0,), (0.0,), (0.0,), curve.bound, 0.0
    if isinstance(curve, PiecewiseLinear):
        b = curve.breakpoints[-1]
        vb = curve.value_closed(b) if math.isfinite(b) else INF
        return curve.breakpoints[:-1], curve._knot_values[:-1], curve.slopes, b, vb
    raise TypeError(f"not a piecewise-linear curve: {curve!r}")


class _FieldKernel:
    """A field compiled to struct-of-arrays form for row-batched evaluation.

    Power cells keep their exponents.  Linear, indicator and piecewise-linear
    cells share one knot table padded with inf, because the closure of each
    is piecewise linear.  On those cells ``closure`` reproduces the per-cell
    ``value_closed`` bit for bit; numpy's power may differ from Python's
    ``**`` by a few ulps, and its row sums are not fsum, which the error
    bound of ``closure`` covers.
    """

    def __init__(self, field: MusielakField):
        weights = np.array(field.grid.weights)
        power = [i for i, c in enumerate(field.curves) if isinstance(c, Power)]
        knotted = [i for i, c in enumerate(field.curves) if not isinstance(c, Power)]
        self.power, self.knotted = np.array(power, dtype=np.intp), np.array(knotted, dtype=np.intp)
        self.p = np.array([field.curves[i].p for i in power])
        self.power_w, self.knot_w = weights[power], weights[knotted]
        tables = [_knot_table(field.curves[i]) for i in knotted]
        width = max((len(t[0]) for t in tables), default=1)
        table = np.full((3, len(tables), width), [[[INF]], [[0.0]], [[0.0]]])
        for j, (knots, values, slopes, _, _) in enumerate(tables):
            table[:, j, : len(knots)] = knots, values, slopes
        self.knots, self.values, self.slopes = table  # one row per knot cell
        self.cols = np.arange(len(tables))
        self.b = np.array([t[3] for t in tables])
        self.vb = np.array([t[4] for t in tables])
        n = len(weights)
        self.depth = (n - 1).bit_length()  # of the pairwise row sum
        # relative error of r against the per-cell fsum: the pairwise sum,
        # a few ulps of power per cell, and the rounding of the bound itself
        self.rel = (self.depth + 16) * 2.0**-52
        self.abs = (4.0 * float(weights.sum()) + n) * math.ulp(0.0)  # subnormal powers

    def closure(self, rows: np.ndarray, t: np.ndarray, level: float):
        """Closed modular r and t*r' at t[k] of rows[k], and the side of ``level``.

        ``rows`` holds nonnegative cell values (rows x cells).  The side is
        1 where the per-cell fsum ``_closure`` is certainly above ``level``,
        -1 where it is certainly at most ``level``, and 0 where the error
        bound leaves it open.
        """
        n_rows = len(t)
        terms = np.zeros((n_rows, 1 << self.depth))
        scale = t[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            up = np.power(scale * rows[:, self.power], self.p)
            terms[:, : len(self.power)] = up / self.p * self.power_w
            s = (up * self.power_w).sum(axis=1)
            u = np.minimum(scale * rows[:, self.knotted], self.b)
            piece = np.zeros(u.shape, dtype=np.intp)
            for knot in self.knots.T[1:]:
                piece += u > knot  # left slopes: u in (knot_j, knot_j+1] is piece j
            slope = self.slopes[self.cols, piece]
            value = self.values[self.cols, piece] + slope * (u - self.knots[self.cols, piece])
            value = np.where(u == self.b, self.vb, value)
            terms[:, len(self.power) : len(self.power) + len(self.knotted)] = value * self.knot_w
            s += (slope * u * self.knot_w).sum(axis=1)
            for _ in range(self.depth):
                half = terms.shape[1] // 2
                terms = terms[:, :half] + terms[:, half:]
            r = terms[:, 0]
            above = r * (1.0 - self.rel) - self.abs > level
            below = r * (1.0 + self.rel) + self.abs <= level
        return r, s, above.astype(np.int8) - below.astype(np.int8)


def gauge_block(field: MusielakField, rows, level: float = 1.0, rtol: float = 1e-12):
    """``gauge`` for every row of ``rows`` at once: arrays (lo, hi).

    ``rows`` holds nonnegative cell values (rows x cells), no row all zero.
    Each row gets the guarantees of ``gauge`` against the scalar
    ``modular``.  The rows run the loop of ``gauge`` in lockstep; each step
    evaluates all of them with one call of the field's compiled kernel.  A
    comparison with the level counts only where the kernel's error bound
    makes it certain.  Where it does not, the kernel settles
    t*(1 - rtol/4) below and t*(1 + rtol/4) above the level instead, which
    closes the bracket; failing that, the row falls back to the per-cell
    closure at t.
    """
    rows = np.asarray(rows, dtype=float)
    if not rows.any(axis=1).all():
        raise PreconditionError("the gauge of the zero function is unbounded")
    rtol = max(_MIN_RTOL, rtol)
    kernel = field._kernel
    with np.errstate(divide="ignore", invalid="ignore"):
        starts = np.where(rows > 0.0, np.array(_start_caps(field, level)) / rows, INF).min(axis=1)
    _check_start(float(starts.max()))
    _check_start(float(starts.min()))

    def settle(idx, ts):
        sub, t = rows[idx], np.array(ts)
        r, s, side = kernel.closure(sub, t, level)
        sure = side != 0
        points = list(
            zip(np.flatnonzero(sure).tolist(), t[sure].tolist(), r[sure].tolist(), s[sure].tolist())
        )
        unsure = np.flatnonzero(~sure)
        if unsure.size:
            m = unsure.size
            tn = np.concatenate((t[unsure] * (1.0 - rtol / 4.0), t[unsure] * (1.0 + rtol / 4.0)))
            rn, sn, siden = kernel.closure(np.concatenate((sub[unsure], sub[unsure])), tn, level)
            closed = (siden[:m] < 0) & (siden[m:] > 0)
            both = np.concatenate((unsure[closed], unsure[closed]))
            pair = np.concatenate((closed, closed))
            points += zip(both.tolist(), tn[pair].tolist(), rn[pair].tolist(), sn[pair].tolist())
            unsure = unsure[~closed]
        for k in unsure.tolist():  # the per-cell fsum decides
            points.append((k, ts[k], *_closure(field, sub[k].tolist())(ts[k])))
        return points

    brackets = _newton(
        starts.tolist(),
        settle,
        lambda i, t: _scaled_modular(field, rows[i].tolist(), t) <= level,
        level,
        rtol,
    )
    lo, hi = np.array(brackets).T
    return lo, hi


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
    """``luxemburg_norm`` of each row of ``xs`` (rows x cells), as one block."""
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


_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def amemiya_norm(field: MusielakField, x: StepFunction, tol: float = 1e-10) -> float:
    """inf over k > 0 of (1 + modular(k x)) / k.

    The objective is unimodal: it is the slope of the chord from the origin
    to (k, 1 + modular(kx)) with a convex numerator.  Search runs on log k by
    golden section.  When every supporting cell is asymptotically linear the
    objective can decrease forever; the infimum is then approached with a
    certified gap (the chord slope exceeds the limit by at most 1/k).  Where
    the objective overflows at the first k tried, the search starts from the
    gauge scale instead; a norm above DBL_MAX raises ``UnboundedNormError``.
    """
    _check(field, x)
    if x.is_zero():
        return 0.0
    ax = [abs(v) for v in x.values]

    def h(k: float) -> float:
        m = _scaled_modular(field, ax, k)
        return INF if math.isinf(m) else (1.0 + m) / k

    k_sup = INF
    for v, prm in zip(ax, field.cell_params):
        if v > 0.0 and math.isfinite(prm.b):
            k_sup = min(k_sup, prm.b / v)

    edge = INF
    k1 = k_sup / 2.0 if math.isfinite(k_sup) else 1.0
    hk = h(k1)
    if math.isinf(hk):
        # the objective overflows at k1; at the gauge scale modular(kx) <= 1,
        # so there it is at most 2/k unless the norm itself is out of range
        lo_k, hi_k = gauge(field, ax, 1.0, tol)
        _norm_of_scale(hi_k)
        k1, hk = lo_k, h(lo_k)
        if math.isinf(hk):
            raise UnboundedNormError("the Amemiya objective overflows: the norm is near DBL_MAX")
    if math.isfinite(k_sup):
        hi = k_sup
        edge = h(k_sup)
        best = min(edge, hk)
    else:
        while True:
            h2 = h(2.0 * k1)
            if h2 >= hk:
                break
            k1, hk = 2.0 * k1, h2
            if 1.0 / k1 <= tol * hk:
                return hk  # still descending; gap to the infimum is <= 1/k
        hi = 2.0 * k1
        best = hk
    lo = 0.5 / hk  # any evaluated k certifies k* >= 1/h(k)

    t_lo, t_hi = math.log(lo), math.log(hi)
    t1 = t_hi - _GOLD * (t_hi - t_lo)
    t2 = t_lo + _GOLD * (t_hi - t_lo)
    f1, f2 = h(math.exp(t1)), h(math.exp(t2))
    for _ in range(220):
        if t_hi - t_lo <= 1e-12:
            break
        if f1 <= f2:
            t_hi, t2, f2 = t2, t1, f1
            t1 = t_hi - _GOLD * (t_hi - t_lo)
            f1 = h(math.exp(t1))
        else:
            t_lo, t1, f1 = t1, t2, f2
            t2 = t_lo + _GOLD * (t_hi - t_lo)
            f2 = h(math.exp(t2))
        best = min(best, f1, f2)
    return min(best, edge)


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


def orlicz_norm_sup_oracle(
    field: MusielakField, x: StepFunction, max_polish_rounds: int | None = None
) -> SupOracleResult:
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
    rounds_cap = max_polish_rounds if max_polish_rounds is not None else kinks + len(supp) + 16
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

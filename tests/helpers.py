"""Shared random generators and independent brute-force oracles for tests."""

import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from mospaces import (
    ConfigError,
    FloatRangeError,
    Indicator,
    IntSpaceSpec,
    Linear,
    MeasureGrid,
    MusielakField,
    OrliczCurve,
    PiecewiseLinear,
    Power,
    PreconditionError,
    Slice,
    StepFunction,
    SumSpaceSpec,
    WitnessConstructionError,
    luxemburg_norm,
    modular,
    pairing,
    sum_dual_norm,
    unit_sphere_point,
    wint_norm,
)
from mospaces import musielak
from mospaces.cli import jsonify, num
from mospaces.grid import RowSums, atom_rows, finite_error, fsum_up, row_blocks, signs
from mospaces.interpolation import _BLOCK_CELLS, _SLACK, _check, _check_margin
from mospaces.probes import _ARCHIVE, ConditionProbeResult
from mospaces.reports import record_from_samples

INF = math.inf
PointNorm = Callable[[StepFunction], float]  # a norm of one step function, as the references take


def random_grid(rng, n, lo=0.1, hi=3.0, dyadic=False):
    if dyadic:
        weights = tuple(float(2.0 ** int(k)) for k in rng.integers(-2, 3, size=n))
    else:
        weights = tuple(float(w) for w in rng.uniform(lo, hi, size=n))
    return MeasureGrid(weights)


def random_pwl(rng, allow_jump=True):
    k = int(rng.integers(1, 4))
    cuts = np.sort(rng.uniform(0.2, 3.0, size=k))
    cuts = [float(c) for c in cuts]
    for j in range(1, len(cuts)):  # keep breakpoints separated
        cuts[j] = max(cuts[j], cuts[j - 1] + 0.05)
    bounded = rng.uniform() < 0.5
    if bounded:
        bp = [0.0] + cuts
    else:
        bp = [0.0] + cuts[:-1] + [INF]
    nseg = len(bp) - 1
    slopes = []
    s = 0.0 if (rng.uniform() < 0.3 and (bounded or nseg > 1)) else float(rng.uniform(0.05, 1.0))
    slopes.append(s)
    for _ in range(nseg - 1):
        s += float(rng.uniform(0.1, 1.5))
        slopes.append(s)
    if bounded:
        if allow_jump and rng.uniform() < 0.25:
            return PiecewiseLinear(tuple(bp), tuple(slopes), INF)
        return PiecewiseLinear.closed(tuple(bp), tuple(slopes))
    return PiecewiseLinear(tuple(bp), tuple(slopes), None)


def random_curve(rng, families=("power", "linear", "indicator", "pwl"), allow_jump=True):
    family = families[int(rng.integers(0, len(families)))]
    if family == "power":
        return Power(float(rng.uniform(1.05, 5.0)))
    if family == "linear":
        return Linear(float(rng.uniform(0.2, 3.0)))
    if family == "indicator":
        return Indicator(float(rng.uniform(0.2, 3.0)))
    return random_pwl(rng, allow_jump=allow_jump)


def random_field(rng, n=None, families=("power", "linear", "indicator", "pwl"), allow_jump=True, dyadic=False):
    n = n or int(rng.integers(1, 7))
    grid = random_grid(rng, n, dyadic=dyadic)
    curves = tuple(random_curve(rng, families, allow_jump) for _ in range(n))
    return MusielakField(grid, curves)


def random_x(rng, grid, scale=3.0):
    return StepFunction(grid, tuple(float(v) for v in rng.uniform(-scale, scale, len(grid))))


def random_sum_spec(rng, n=None, gamma_all=True):
    n = n or int(rng.integers(2, 7))
    grid = random_grid(rng, n)
    gamma = grid.cell_set() if gamma_all else grid.cell_set(grid.ids[: max(1, n - 1)])
    v = tuple(float(t) for t in rng.uniform(0.3, 2.0, n))
    w = tuple(float(t) for t in rng.uniform(0.3, 2.0, n))
    return SumSpaceSpec(grid, gamma, v, w)


def random_int_spec(rng, n=None, gamma_all=True):
    n = n or int(rng.integers(2, 7))
    grid = random_grid(rng, n)
    gamma = grid.cell_set() if gamma_all else grid.cell_set(grid.ids[: max(1, n - 1)])
    w = tuple(float(t) for t in rng.uniform(0.3, 2.0, n))
    v = tuple(float(t) for t in rng.uniform(0.3, 2.0, n))
    return IntSpaceSpec(grid, gamma, w, v)


def gamma_mask_reference(spec):
    """Whether each cell lies in gamma, tested by cell id."""
    return tuple(cid in spec.gamma for cid in spec.grid.ids)


def collapse_evidence_reference(spec):
    """The mass outside gamma and the integral of v/w (a sum spec) or w/v (an
    intersection spec) over gamma, by cell id, each inf where it passes DBL_MAX."""
    num, den = (spec.v, spec.w) if isinstance(spec, SumSpaceSpec) else (spec.w, spec.v)
    grid = spec.grid
    inside = [cid in spec.gamma for cid in grid.ids]
    comp_mass = fsum_up(m for m, on in zip(grid.weights, inside) if not on)
    ratio = fsum_up(num[i] / den[i] * grid.weights[i] for i, on in enumerate(inside) if on)
    return comp_mass, ratio


def _reciprocals_reference(spec, name):
    out = []
    for cid, t in zip(spec.grid.ids, getattr(spec, name)):
        r = 1.0 / t if t > 0 else 1.0
        if math.isinf(r) and (name == "w" or cid in spec.gamma):
            raise FloatRangeError(f"the reciprocal weight 1/{name} of {cid} is beyond the float range")
        out.append(r)
    return tuple(out)


def dual_reference(spec):
    """The Koethe-dual spec with reciprocal weights, each formed by cell id in
    the dual kind's field order: (w, v) for an intersection, (v, w) for a sum."""
    if isinstance(spec, SumSpaceSpec):
        w, v = _reciprocals_reference(spec, "w"), _reciprocals_reference(spec, "v")
        return IntSpaceSpec(spec.grid, spec.gamma, w, v)
    v, w = _reciprocals_reference(spec, "v"), _reciprocals_reference(spec, "w")
    return SumSpaceSpec(spec.grid, spec.gamma, v, w)


def int_full_constants_reference(spec):
    """interpolation.witness_int's gamma-full constants, its cell sets A and
    A1 chosen by the nested prefix loops it ran before ``itertools.accumulate``;
    raises what those loops and the margin check raise."""
    grid = spec.grid
    contrib = {cid: spec.w[i] / spec.v[i] * grid.weights[i] for i, cid in enumerate(grid.ids)}
    order = sorted(contrib, key=contrib.get, reverse=True)
    set_a, i_a = [], 0.0
    for cid in order:
        set_a.append(cid)
        i_a += contrib[cid]
        if i_a > 1.0:
            break
    while True:
        set_a1, i_1 = [], 0.0
        for cid in set_a:
            set_a1.append(cid)
            i_1 += contrib[cid]
            if i_1 >= 1.0:
                break
        if i_1 >= 1.0 and len(set_a1) < len(set_a):
            break
        extras = [cid for cid in order if cid not in set_a]
        if not extras:
            raise WitnessConstructionError("no proper sub-block of gamma reaches a w/v integral of one")
        set_a.append(extras[0])
        i_a += contrib[extras[0]]
    c = 1.0 / i_a
    _check_margin(0.5 * min(2.0 * c * (1.0 - c * i_1) / (1.0 + c), 1.0 - c))
    return {"case": "gamma-full", "set_a": set_a, "set_a1": set_a1, "c": c, "integral_a": i_a, "integral_a1": i_1}


def domain_samples(curve: OrliczCurve, rng, count=100):
    """Points in the finite-value domain (avoiding a blow-up end value)."""
    p = curve.params()
    if math.isinf(p.b):
        hi = 10.0
        pts = rng.uniform(0.0, hi, count - 1)
        return [0.0] + [float(t) for t in pts]
    pts = [float(t) for t in rng.uniform(0.0, p.b, count - 2)]
    out = [0.0] + pts
    if math.isfinite(p.value_at_b):
        out.append(p.b)  # left-continuous end belongs to the domain
    else:
        out.append(p.b * (1.0 - 1e-9))
    return out


# --------------------------------------------------------------------------
# independent oracles


def d_param_scan(curve: OrliczCurve, u_max=20.0, steps=200_000):
    """Brute-force sup{u : phi(u/2) = phi(u)/2} over a fine grid."""
    p = curve.params()
    hi = min(u_max, p.b) if math.isfinite(p.b) else u_max
    best = 0.0
    for u in np.linspace(0.0, hi, steps):
        fu = curve.value_closed(float(u))
        half = curve.value(float(u) / 2.0)
        if math.isinf(fu):
            continue
        if abs(half - fu / 2.0) <= 1e-12 * (1.0 + fu):
            best = float(u)
    return best


def _pieces(curve: OrliczCurve):
    """(breakpoints, slopes, blow-up end) of a linear, indicator or piecewise-linear curve."""
    if isinstance(curve, Linear):
        return (0.0, INF), (curve.slope,), False
    if isinstance(curve, Indicator):
        return (0.0, curve.bound), (0.0,), False
    if isinstance(curve, PiecewiseLinear):
        return curve.breakpoints, curve.slopes, math.isinf(curve.end_value or 0.0)
    raise TypeError(f"no exact value for {curve!r}")


def _closed(breakpoints, slopes, u: Fraction) -> Fraction:
    """The closure of a knotted curve at a rational u up to its end: a closed end
    takes the exact left limit, the value the stored ``end_value`` rounds."""
    total = Fraction(0)
    for s, u0, u1 in zip(slopes, breakpoints, breakpoints[1:]):
        if u <= u0:
            break
        total += Fraction(s) * ((u if math.isinf(u1) else min(u, Fraction(u1))) - Fraction(u0))
    return total


def exact_value(curve: OrliczCurve, u):
    """phi(u) as an exact ``Fraction`` for a linear, indicator, piecewise-linear
    or integer-p power curve (u^p / p), or inf where u lies outside the domain
    (past b, or at a blow-up end).  u is a float or a ``Fraction``."""
    if isinstance(u, float) and math.isinf(u):
        return INF
    if isinstance(curve, Power) and curve.p == int(curve.p):
        return Fraction(u) ** int(curve.p) / int(curve.p)
    bp, slopes, blowup = _pieces(curve)
    if u > bp[-1] or (u == bp[-1] and blowup):
        return INF
    return _closed(bp, slopes, Fraction(u))


def exact_modular(field, values):
    """sum of mass * phi(|v|) over the cells in exact rationals (inf outside the domain);
    the values are floats or ``Fraction``s."""
    total = Fraction(0)
    for v, curve, w in zip(values, field.curves, field.grid.weights):
        phi = exact_value(curve, abs(v))
        if phi == INF:
            return INF
        total += Fraction(w) * phi
    return total


def _exact_scan(field, values):
    """The closed modular t -> rho(t|x|) of a knotted field, exactly, with the
    points where it bends: (rho, kinks below the edge, edge or None, final slope).

    rho is affine between consecutive kinks, and past the last one up to the
    edge; with no edge it grows at the final slope sum w_i |x_i| s_i.
    """
    live = [
        (Fraction(abs(v)), *_pieces(c)[:2], Fraction(w))
        for v, c, w in zip(values, field.curves, field.grid.weights)
        if v != 0.0
    ]

    def rho(t):
        return sum(w * _closed(bp, sl, t * v) for v, bp, sl, w in live)

    ends = [Fraction(bp[-1]) / v for v, bp, _, _ in live if math.isfinite(bp[-1])]
    edge = min(ends, default=None)
    kinks = {Fraction(u) / v for v, bp, _, _ in live for u in bp[1:-1]}
    kinks = sorted(k for k in kinks if edge is None or k < edge)
    slope = sum(w * v * Fraction(sl[-1]) for v, _, sl, w in live)
    return rho, kinks, edge, slope


def exact_luxemburg(field, values) -> Fraction:
    """The Luxemburg norm 1/T, T = sup{t : rho(t|x|) <= 1}, of a knotted field, exactly."""
    rho, kinks, edge, slope = _exact_scan(field, values)
    t0 = r0 = Fraction(0)
    for t in kinks + ([edge] if edge is not None else []):
        r = rho(t)
        if r > 1:  # rho crosses 1 on the affine piece [t0, t]
            return 1 / (t0 + (1 - r0) * (t - t0) / (r - r0))
        t0, r0 = t, r
    return 1 / (t0 if edge is not None else t0 + (1 - r0) / slope)


def exact_amemiya(field, values) -> Fraction:
    """inf over k > 0 of (1 + rho(k|x|))/k for a knotted field, exactly.

    h is monotone between kinks, so the infimum is the minimum over the kinks,
    the closed edge and, with no edge, the linear-tail limit: the final slope.
    """
    rho, kinks, edge, slope = _exact_scan(field, values)
    points = kinks + ([edge] if edge is not None else [])
    heights = [(1 + rho(k)) / k for k in points]
    return min(heights + ([slope] if edge is None else []))


def scaled_modular(field, ax) -> float:
    """The modular at nonnegative cell values ``ax``, one ``curve.value`` per
    cell: inf at the first infinite value, else one fsum of value * mass,
    inf where it passes DBL_MAX."""
    terms = []
    for v, crv, w in zip(ax, field.curves, field.grid.weights):
        t = crv.value(v)
        if math.isinf(t):
            return INF
        terms.append(t * w)
    try:
        return math.fsum(terms)
    except OverflowError:
        return INF


def partition_reference(field):
    """(omega_inf, omega_1, omega_1inf, remainder) from each ``curve.params()``."""
    parts = (set(), set(), set(), set())
    for cid, crv in zip(field.grid.ids, field.curves):
        p = crv.params()
        k = 0 if p.a == p.b else (1 if math.isinf(p.b) else 2) if p.d == p.b else 3
        parts[k].add(cid)
    return tuple(map(frozenset, parts))


def weights_reference(field):
    """(v, w) per cell: 1/b (0 on an unbounded domain), and the slope at 0 on
    the linear cells (omega_1 and omega_1inf), 0 elsewhere."""
    _, o_1, o_1i, _ = partition_reference(field)
    v = [1.0 / c.params().b if math.isfinite(c.params().b) else 0.0 for c in field.curves]
    w = [
        c.right_derivative(0.0) if cid in o_1 | o_1i else 0.0
        for cid, c in zip(field.grid.ids, field.curves)
    ]
    return v, w


def modular_of_bounds_reference(field, cells=None):
    """``scaled_modular`` of the domain ends b on ``cells`` (all when None), 0 elsewhere."""
    keep = set(field.grid.ids if cells is None else cells)
    ends = [c.params().b if cid in keep else 0.0 for cid, c in zip(field.grid.ids, field.curves)]
    return scaled_modular(field, ends)


def settle_reference(kernel, rows, t, l, h, level, rtol):
    """``musielak._settle`` evaluating both steps of every open row: where the
    kernel's error bound leaves t open, the closure is evaluated at
    t(1 - rtol/4) and t(1 + rtol/4) whatever the bracket (l, h) so far."""
    r, s, _ = kernel.closure(rows, t)
    side = kernel.side(r, level)
    t_lo, r_lo = np.where(side < 0, t, 0.0), r.copy()
    t_hi, r_hi, s_hi = np.where(side > 0, t, INF), r, s
    unsure = np.flatnonzero(side == 0)
    if unsure.size:
        m, near, step = unsure.size, rows[unsure], musielak._step
        tn = np.concatenate((step(t[unsure], -rtol / 4.0), step(t[unsure], rtol / 4.0)))
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


def gauge_bisect(field, x: StepFunction, level=1.0, steps=200):
    """Bracket of sup{t >= 0 : modular(t*x) <= level}: doubling, then bisection."""

    def ok(t):
        return modular(field, t * x) <= level

    lo = hi = 1.0 / max(abs(v) for v in x.values)
    while ok(hi):
        lo, hi = hi, 2.0 * hi
    while not ok(lo):
        lo, hi = lo / 2.0, lo
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def amemiya_slope_gap(field, values, k: float) -> float:
    """g(k) = k r'(k-) - r(k) for r(k) = rho(k|x|), the closed modular, cell by
    cell with the curve objects; a power cell's term is (p - 1) phi(u), which
    does not cancel.  h(k) = (1 + r(k))/k falls up to k where g(k) <= 1."""
    terms = []
    for v, crv, w in zip(values, field.curves, field.grid.weights):
        u = k * abs(v)
        if u == 0.0:
            continue
        if isinstance(crv, Power):
            terms.append(w * (crv.p - 1.0) * crv.value(u))
        else:
            terms.append(w * (u * crv.left_derivative(u) - crv.value_closed(u)))
    return math.fsum(terms)


def amemiya_golden(field, x: StepFunction, tol=1e-10):
    """inf over k > 0 of (1 + modular(k x))/k by a 220-step golden section on log k.

    The unimodal search the package used before its bracketed root; every
    value it returns is h at an evaluated k, the closed value at the domain
    edge, or (when h still falls after doubling) h at a k with 1/k <= tol*h.
    """
    if x.is_zero():
        return 0.0

    def h(k):
        m = modular(field, k * x)
        return INF if math.isinf(m) else (1.0 + m) / k

    k_sup = INF
    for v, prm in zip(x.values, (c.params() for c in field.curves)):
        if v != 0.0 and math.isfinite(prm.b):
            k_sup = min(k_sup, prm.b / abs(v))
    edge = INF
    k1 = k_sup / 2.0 if math.isfinite(k_sup) else 1.0
    hk = h(k1)
    if math.isinf(hk):  # restart where modular(kx) <= 1
        k1 = gauge_bisect(field, x)[0]
        hk = h(k1)
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
                return hk
        hi = 2.0 * k1
        best = hk
    lo = 0.5 / hk
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    t_lo, t_hi = math.log(lo), math.log(hi)
    t1 = t_hi - gold * (t_hi - t_lo)
    t2 = t_lo + gold * (t_hi - t_lo)
    f1, f2 = h(math.exp(t1)), h(math.exp(t2))
    for _ in range(220):
        if t_hi - t_lo <= 1e-12:
            break
        if f1 <= f2:
            t_hi, t2, f2 = t2, t1, f1
            t1 = t_hi - gold * (t_hi - t_lo)
            f1 = h(math.exp(t1))
        else:
            t_lo, t1, f1 = t1, t2, f2
            t2 = t_lo + gold * (t_hi - t_lo)
            f2 = h(math.exp(t2))
        best = min(best, f1, f2)
    return min(best, edge)


def nonsquare_setup_reference(field):
    """``find_nonsquare_setup`` one point and one ``curve.value`` at a time, from
    each ``curve.params()``: (cells, a, b, sigma1), or None where no interval is usable."""
    prm = [c.params() for c in field.curves]
    w = field.grid.weights
    work = [i for i, p in enumerate(prm) if p.d < p.b]

    def point(L, R, t):
        return L + t * (R - L) if math.isfinite(R) else L + t / (1.0 - t) * max(L, 1.0)

    while work:
        L, R = max(prm[i].d for i in work), min(prm[i].b for i in work)
        t = 0.5
        for _ in range(80 if L < R else 0):
            if math.fsum(field.curves[i].value(point(L, R, t)) * w[i] for i in work) <= 1.0:
                a, b = point(L, R, t / 2.0), point(L, R, t * 0.75)
                sigma1 = max(half_ratio_reference(field.curves[i], a, b) for i in work)
                if sigma1 < 1.0:
                    return tuple(field.grid.ids[i] for i in work), a, b, sigma1
                break
            t /= 2.0
        if len(work) == 1:
            return None
        work.remove(max(work, key=lambda i: (prm[i].d, w[i])))
    return None


def nonsquare_reference(field, witness, samples, seed):
    """verify_nonsquare one direction at a time through the scalar solvers.

    Same directions in the same draw order; returns (directions checked,
    max of min(|x+y|, |x-y|), the unit y attaining it).
    """
    x = witness.x
    grid = field.grid
    rng = np.random.default_rng(seed)
    n = len(grid)
    best, worst, checked = 0.0, None, 0

    def consider(y):
        nonlocal best, worst, checked
        if y.is_zero():
            return
        y = unit_sphere_point(field, y)
        checked += 1
        val = min(luxemburg_norm(field, x + y, 1e-11), luxemburg_norm(field, x - y, 1e-11))
        if val > best:
            best, worst = val, y.values

    consider(x)
    consider(-1.0 * x)
    for cid in grid.ids:
        consider(StepFunction.atom(grid, cid))
    signs = tuple(1.0 if v >= 0 else -1.0 for v in x.values)
    consider(StepFunction(grid, signs))
    consider(StepFunction(grid, tuple(s if i % 2 == 0 else -s for i, s in enumerate(signs))))
    consider(
        StepFunction(
            grid, tuple(min(c.params().b, 1.0) for c in field.curves)
        )
    )
    while checked < samples:
        y = StepFunction(grid, tuple(rng.standard_normal(n)))
        if rng.uniform() < 0.25:
            mask = rng.uniform(size=n) < 0.5
            y = StepFunction(grid, tuple(v if m else 0.0 for v, m in zip(y.values, mask)))
        consider(y)
    return checked, best, worst


def int_slice_center_reference(spec: IntSpaceSpec, cert):
    """An intersection slice's center as the builder's constants name it: -1/v on
    ``cell_a`` (gamma proper) or on ``set_a1`` (gamma full), 0 elsewhere."""
    grid = spec.grid
    idx = grid.index
    consts = cert.constants
    vals = [0.0] * len(grid)
    if consts.get("case") == "gamma-proper":
        i = idx[consts["cell_a"]]
        vals[i] = -1.0 / spec.v[i]
    else:
        for cid in consts["set_a1"]:
            i = idx[cid]
            vals[i] = -1.0 / spec.v[i]
    return StepFunction(grid, tuple(vals))


def slice_reference(spec, cert, samples, seed):
    """The slice-certificate verifier as three norm/pairing callbacks.

    The sum case samples the dual slice through sum_dual_norm, the
    intersection case the primal slice through wint_norm; same candidates in
    the same draw order as verify_sum_certificate / verify_int_certificate.
    """
    if cert.kind == "sum-case":
        x, f0, g = cert.x, cert.functional, cert.second_functional
        return _verify_slice_bound(
            spec.grid,
            f0,
            x,
            norm=lambda h: sum_dual_norm(spec, h),
            func=lambda h: pairing(h, x),
            deviation=lambda h: sum_dual_norm(spec, h + g),
            eps=cert.epsilon,
            samples=samples,
            seed=seed,
        )
    x, f = cert.x, cert.functional
    return _verify_slice_bound(
        spec.grid,
        int_slice_center_reference(spec, cert),
        f,
        norm=lambda y: wint_norm(spec, y),
        func=lambda y: pairing(f, y),
        deviation=lambda y: wint_norm(spec, x + y),
        eps=cert.epsilon,
        samples=samples,
        seed=seed,
    )


def verify_slice_reference(spec: IntSpaceSpec, point, functional, center, eps, samples, seed):
    """The slice sampler in plain row-block form, the reference for
    ``interpolation._verify_slice``: every atom is normed as a dense row,
    every row's deviation is built whether or not the row is accepted, each
    open L1 sum is one math.fsum, and each random block is
    ``samples - accepted`` draws.  The sampler must return this record and
    raise these errors, type and message, exactly.
    """
    if not 0.0 < eps < math.inf:
        raise PreconditionError(f"slice margin must be finite and positive, got {eps!r}")
    if eps <= _SLACK:
        raise PreconditionError(f"slice margin {eps!r} is within the sampler's allowance {_SLACK!r}")
    grid = spec.grid
    _check(spec, center)
    functional._check(center)
    center._check(point)
    n = len(grid)
    rng = np.random.default_rng(seed)
    bound = 2.0 - eps
    limit = bound + _SLACK
    w, mu = np.array(spec.w), np.array(grid.weights)
    gamma = np.array([cid in spec.gamma for cid in grid.ids])
    v = np.array(spec.v)[gamma]
    f, x, c = (np.array(h.values) for h in (functional, point, center))
    rows = max(1, _BLOCK_CELLS // n)
    max_observed = 0.0
    worst = None
    violations = 0
    accepted = 0

    def norm_parts(y):
        """wint_norm's two parts for the rows of y: the L1 row sums, and the sups."""
        with np.errstate(over="ignore", invalid="ignore"):
            # products in place: a fresh block-sized array costs more than the product
            ay = np.abs(y)
            on_gamma = ay[:, gamma]
            on_gamma *= v
            sup = on_gamma.max(axis=1, initial=0.0)
            ay *= w
            ay *= mu
        return RowSums(ay), sup.tolist()

    def norms(y):
        """wint_norm of the rows of y up to the first whose fsum overflows, and that error."""
        l1, sup = norm_parts(y)
        out = []
        try:
            for i, s in enumerate(sup):
                out.append(l1.max_with(i, s))
        except OverflowError as exc:
            return out, exc
        return out, None

    def consider(y, error=None):
        """Normalise and score the rows of y in draw order, then raise ``error``."""
        nonlocal max_observed, worst, violations, accepted
        nrms, err = norms(y)
        if err is not None:
            y, error = y[: len(nrms)], err
        with np.errstate(over="ignore", invalid="ignore"):
            y *= np.array([1.0 / t if t else 0.0 for t in nrms]).reshape(-1, 1)
            terms = f * y
            terms *= mu
            pair = RowSums(terms)
            z = y + x
        dev, dev_sup = norm_parts(z)
        y_ok = np.isfinite(y).all(axis=1).tolist()
        z_ok = np.isfinite(z).all(axis=1).tolist()
        for i, nrm in enumerate(nrms):
            if nrm == 0.0:
                continue
            if not y_ok[i]:
                raise finite_error(y[i])
            if pair.exceeds(i, 1.0 - eps):
                accepted += 1
                if not z_ok[i]:
                    raise finite_error(z[i])
                if max(dev.upper[i], dev_sup[i]) <= min(max_observed, limit):
                    continue  # neither recorded nor counted, whatever its exact value
                val = dev.max_with(i, dev_sup[i])
                if val > max_observed:
                    max_observed, worst = val, tuple(y[i].tolist())
                if val > limit:
                    violations += 1
        if error is not None:
            raise error

    pattern = signs(f)
    extremal = itertools.chain(
        [np.stack((c, -c))],
        atom_rows(np.tile((1.0, -1.0), n), np.repeat(np.arange(n), 2), n, rows),
        [np.stack((pattern, -pattern))],
    )
    for y in row_blocks(extremal, rows):
        consider(y)
    drawn = 2 * n + 4
    cap = 50 * samples + 1000
    half = eps / 2.0
    while accepted < samples and drawn < cap:
        # a draw accepts at most one point, so the chunk's every draw is needed;
        # each stage below cuts the chunk at its first failing row, keeping the
        # scalar loop's error: consider() scores the rows before it, then raises
        m = min(samples - accepted, cap - drawn, rows)
        y = np.empty((m, n))
        t = np.zeros(m)
        blended = []
        error = None
        for i in range(m):
            drawn += 1
            if drawn % 7:
                t[i] = rng.random() * half  # rng.uniform(0.0, half), bit for bit
                blended.append(i)
            rng.standard_normal(out=y[i])
        idx = np.array(blended, dtype=int)
        tail = y[idx]
        nz, err = norms(tail)
        if err is not None:
            y, idx, tail, error = y[: idx[len(nz)]], idx[: len(nz)], tail[: len(nz)], err
        with np.errstate(over="ignore", invalid="ignore"):
            head = (1.0 - t[idx]).reshape(-1, 1) * c
            tail *= np.array(
                [s / r if r else 0.0 for s, r in zip(t[idx].tolist(), nz)]
            ).reshape(-1, 1)
            mixed = head + tail
        live = np.array(nz) != 0.0
        mixed[~live] = 0.0  # a draw whose noise has norm 0 considers nothing
        bad = np.flatnonzero(live & ~np.isfinite(mixed).all(axis=1))
        if len(bad):
            j = bad[0]
            y, idx, error = y[: idx[j]], idx[:j], finite_error((head[j], tail[j], mixed[j]))
        y[idx] = mixed[: len(idx)]
        consider(y, error)
    return record_from_samples(
        drawn, accepted, bound, max_observed, violations, seed, worst
    )


def _verify_slice_bound(
    grid, center, extremal_seed, norm, func, deviation, eps, samples, seed
):
    rng = np.random.default_rng(seed)
    bound = 2.0 - eps
    n = len(grid)
    max_observed = 0.0
    worst = None
    violations = 0
    accepted = 0
    drawn = 0

    def consider(y):
        nonlocal max_observed, worst, violations, accepted
        nrm = norm(y)
        if nrm == 0.0:
            return
        y = (1.0 / nrm) * y
        if func(y) > 1.0 - eps:
            accepted += 1
            val = deviation(y)
            if val > max_observed:
                max_observed, worst = val, y.values
            if val > bound + _SLACK:
                violations += 1

    for y in _adversarial_candidates(grid, extremal_seed, center):
        drawn += 1
        consider(y)
    cap = 50 * samples + 1000
    while accepted < samples and drawn < cap:
        drawn += 1
        if drawn % 7 == 0:
            y = StepFunction(grid, tuple(rng.standard_normal(n)))
        else:
            t = rng.uniform(0.0, eps / 2.0)
            noise = StepFunction(grid, tuple(rng.standard_normal(n)))
            nrm = norm(noise)
            if nrm == 0.0:
                continue
            y = (1.0 - t) * center + (t / nrm) * noise
        consider(y)
    return record_from_samples(
        drawn, accepted, bound, max_observed, violations, seed, worst
    )


def _adversarial_candidates(grid, aligned_to, center):
    yield center
    yield -1.0 * center
    n = len(grid)
    for i in range(n):
        vals = [0.0] * n
        vals[i] = 1.0
        yield StepFunction(grid, tuple(vals))
        vals[i] = -1.0
        yield StepFunction(grid, tuple(vals))
    signs = tuple(1.0 if t >= 0 else -1.0 for t in aligned_to.values)
    yield StepFunction(grid, signs)
    yield StepFunction(grid, tuple(-s for s in signs))


def _aligned_candidates(grid, f: StepFunction):
    """Extremal directions aligned with the functional's sign pattern, one StepFunction each."""
    for cid, v in zip(grid.ids, f.values):
        yield StepFunction.atom(grid, cid, 1.0 if v >= 0 else -1.0)
    yield StepFunction(grid, tuple(1.0 if v >= 0 else -1.0 for v in f.values))
    yield f


def slice_diameter_reference(
    primal: PointNorm,
    dual: PointNorm,
    s: Slice,
    samples: int = 2000,
    seed: int = 0,
) -> float:
    """probes.slice_diameter_lb one candidate and one distance at a time.

    The scalar loop the block probe replaced, kept as its reference: same
    candidates in the same draw order, one oracle call per norm.
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


def roughness_reference(
    norm: PointNorm,
    x: StepFunction,
    h_scales: Sequence[float] = (0.5, 0.1, 0.02, 0.004),
    samples: int = 500,
    seed: int = 0,
) -> float:
    """probes.roughness_probe one direction and one scale at a time.

    The scalar loop the block probe replaced, kept as its reference; the
    quotient is the best (|x+h| + |x-h| - 2|x|) / |h| found at x.
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


def canonical_json(obj) -> str:
    """Compact JSON with sorted keys and "inf" tokens, through ``cli.jsonify``:
    two configs that write the same text here are the same config."""
    return json.dumps(jsonify(obj), sort_keys=True, separators=(",", ":"))


def sorted_object_reference(pairs: list) -> dict:
    """A decoded JSON object with its keys stably sorted into a new list: the
    reference for ``cli._sorted_object``, which sorts the pairs in place."""
    return dict(sorted(pairs, key=operator.itemgetter(0)))


def fsums_reference(values, lengths) -> list:
    """math.fsum of each run of ``values`` (cut into runs of ``lengths``), NaN
    where it raises: one fsum per run, the reference for ``table._fsums``."""
    flat, out, at = list(values), [], 0
    for k in lengths:
        try:
            out.append(math.fsum(flat[at : at + k]))
        except (ValueError, OverflowError):  # inf - inf, or a finite sum past DBL_MAX
            out.append(math.nan)
        at += k
    return out


def piecewise_reference(spec: dict):
    """A piecewise curve spec parsed one token at a time and checked one pair at a time.

    The parse the bulk passes of ``cli.parse_curve`` and
    ``PiecewiseLinear`` replaced, kept as their reference: returns
    (breakpoints, slopes, end value) or raises the CLI's ConfigError.  An
    unbounded curve ignores an end value that is a number and, once its
    other rules hold, refuses any other.
    """
    try:
        bp = tuple(num(t) for t in spec["breakpoints"])
        sl = tuple(num(t) for t in spec["slopes"])
        if not bp:
            raise ValueError("a piecewise curve needs breakpoints")
        ev = None if math.isinf(bp[-1]) else spec.get("end_value")
        if ev is not None:
            ev = num(ev)
        elif math.isfinite(bp[-1]):
            ev = math.fsum(s * (b - a) for s, a, b in zip(sl, bp, bp[1:]))
        if len(bp) != len(sl) + 1 or not sl:
            raise ValueError("need one slope per segment")
        if bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        for a, b in zip(bp, bp[1:]):
            if not a < b:
                raise ValueError("breakpoints must increase strictly")
        if any(math.isinf(u) for u in bp[:-1]):
            raise ValueError("only the final breakpoint may be infinite")
        if sl[0] < 0 or any(not math.isfinite(s) for s in sl):
            raise ValueError("slopes must be finite and nonnegative")
        for s, t in zip(sl, sl[1:]):
            if not s < t:
                raise ValueError("slopes must increase strictly")
        if math.isinf(bp[-1]):
            if sl == (0.0,):
                raise ValueError("curve is identically zero")
            if spec.get("end_value") is not None:
                num(spec["end_value"])  # ignored if a number, refused if anything else
        else:
            left = math.fsum(s * (bp[j + 1] - bp[j]) for j, s in enumerate(sl))
            if not (ev == left or math.isinf(ev)):
                raise ValueError("end value must be the left limit (or inf for a blow-up)")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad curve spec {spec!r}: {exc}") from exc
    return bp, sl, ev


def knot_values_reference(curve: PiecewiseLinear) -> tuple:
    """phi at each breakpoint, summed segment by segment: ``_knot_values``' reference."""
    vals = [0.0]
    for j, s in enumerate(curve.slopes):
        u0, u1 = curve.breakpoints[j], curve.breakpoints[j + 1]
        vals.append(vals[-1] + s * (u1 - u0) if math.isfinite(u1) else INF)
    return tuple(vals)


def half_ratio_reference(curve: OrliczCurve, lo, hi) -> float:
    """Exact sup of 2*phi(u/2)/closure(phi)(u) on [lo, hi], one candidate point at a
    time: lo, hi and each finite knot u or 2u strictly between them, where the
    closure is positive and finite.  ``CurveTable.half_ratio_sup``'s reference."""
    if isinstance(curve, Power):
        return 2.0 ** (1.0 - curve.p)
    if isinstance(curve, PiecewiseLinear):
        knots = curve.breakpoints[1:]
    else:
        knots = (curve.bound,) if isinstance(curve, Indicator) else ()
    candidates = {lo, hi}
    for u in knots:
        if math.isfinite(u):
            if lo < u < hi:
                candidates.add(u)
            if lo < 2.0 * u < hi:
                candidates.add(2.0 * u)
    best = 0.0
    for u in candidates:
        den = curve.value_closed(u)
        if den <= 0.0 or math.isinf(den):
            continue
        best = max(best, 2.0 * curve.value(u / 2.0) / den)
    return best


def half_ratio_scan(curve: OrliczCurve, lo, hi, steps=100_000):
    best = 0.0
    for u in np.linspace(lo, hi, steps):
        den = curve.value_closed(float(u))
        if den <= 0 or math.isinf(den):
            continue
        best = max(best, 2.0 * curve.value(float(u) / 2.0) / den)
    return best


def wsum_lp_oracle(spec: SumSpaceSpec, x: StepFunction):
    """Exact sum norm as a linear program (scipy)."""
    from scipy.optimize import linprog

    grid = spec.grid
    ax = [abs(t) for t in x.values]
    gam = [i for i, cid in enumerate(grid.ids) if cid in spec.gamma]
    m = len(gam)
    # variables: c, z_0..z_{m-1}
    cvec = [1.0] + [spec.v[i] * grid.weights[i] for i in gam]
    a_ub, b_ub = [], []
    for j, i in enumerate(gam):
        row = [0.0] * (m + 1)
        row[0] = -1.0 / spec.w[i]
        row[j + 1] = -1.0
        a_ub.append(row)
        b_ub.append(-ax[i])
    c_floor = 0.0
    for i, cid in enumerate(grid.ids):
        if cid not in spec.gamma:
            c_floor = max(c_floor, ax[i] * spec.w[i])
    bounds = [(c_floor, None)] + [(0.0, None)] * m
    res = linprog(cvec, A_ub=a_ub or None, b_ub=b_ub or None, bounds=bounds, method="highs")
    assert res.success, res.message
    return res.fun


def wsum_ternary_oracle(spec: SumSpaceSpec, x: StepFunction, tol=1e-12):
    """Golden-section minimisation of the convex sup-level objective."""
    grid = spec.grid
    ax = [abs(t) for t in x.values]
    gam = [i for i, cid in enumerate(grid.ids) if cid in spec.gamma]

    def g(c):
        total = c
        for i in gam:
            excess = ax[i] - c / spec.w[i]
            if excess > 0:
                total += spec.v[i] * grid.weights[i] * excess
        return total

    c_floor = 0.0
    for i, cid in enumerate(grid.ids):
        if cid not in spec.gamma:
            c_floor = max(c_floor, ax[i] * spec.w[i])
    hi = max([c_floor] + [ax[i] * spec.w[i] for i in gam]) + 1.0
    lo = c_floor
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1, f2 = g(c1), g(c2)
    for _ in range(300):
        if b - a <= tol * max(1.0, abs(a)):
            break
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = g(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = g(c2)
    return min(g(a), g(b), f1, f2)


def condition_probe_reference(primal, dual, x, f, eps, budget=2000, seed=0):
    """probes.daugavet_condition_probe with its candidate pool built from
    StepFunction arithmetic, one candidate at a time: the search it replaced."""
    if not 0.0 < eps < math.inf:
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
    return ConditionProbeResult(False, None, evaluations, "not found within budget; inconclusive")


def no_nonsquare_reference(norm, grid, candidates, samples, seed):
    """probes.no_nonsquare_probe with its pool appended one StepFunction at a time
    and its own copy of the coordinate ascent, the loop ``probes._ascend`` shares."""
    rng = np.random.default_rng(seed)
    n = len(grid)
    results = []
    for x in candidates:
        nx = norm(x)
        if nx == 0.0:
            raise PreconditionError("candidate points must be nonzero")
        x = (1.0 / nx) * x
        best = 0.0
        pool = []
        for i in range(n):
            pool.append(StepFunction.atom(grid, grid.ids[i]))
            pool.append(StepFunction.atom(grid, grid.ids[i], -1.0))
        pool.append(x)
        pool.append(-1.0 * x)
        signs = tuple(1.0 if v >= 0 else -1.0 for v in x.values)
        pool.append(StepFunction(grid, signs))
        pool.append(StepFunction(grid, tuple(-s for s in signs)))
        for i in range(n):
            pool.append(StepFunction(grid, tuple(-s if j == i else s for j, s in enumerate(signs))))
        while len(pool) < samples:
            pool.append(StepFunction(grid, tuple(rng.standard_normal(n))))
        best_y = None
        for y in pool:
            ny = norm(y)
            if ny == 0.0:
                continue
            y = (1.0 / ny) * y
            val = min(norm(x + y), norm(x - y))
            if val > best:
                best, best_y = val, y
        if best_y is not None:
            step = 0.5
            for _ in range(12):
                improved = False
                for i in range(n):
                    for sgn in (1.0, -1.0):
                        vals = list(best_y.values)
                        vals[i] += sgn * step
                        cand = StepFunction(grid, tuple(vals))
                        ncand = norm(cand)
                        if ncand == 0.0:
                            continue
                        cand = (1.0 / ncand) * cand
                        val = min(norm(x + cand), norm(x - cand))
                        if val > best:
                            best, best_y = val, cand
                            improved = True
                if not improved:
                    step /= 2.0
        results.append(best)
    return results


def c1_reference(field, carrier):
    """The bounded top-up's c1 for a carrier (cell ids): the first 1 - 2**-j,
    j = 1..59, whose scaled domain ends off the carrier have a finite modular
    above one, one StepFunction and one ``modular`` call per scale; or None."""
    profile = StepFunction(
        field.grid,
        tuple(0.0 if cid in carrier else c.params().b for cid, c in zip(field.grid.ids, field.curves)),
    )
    for j in range(1, 60):
        cand = 1.0 - 2.0**-j
        val = modular(field, cand * profile)
        if math.isfinite(val) and val > 1.0:
            return cand
    return None

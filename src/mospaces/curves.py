"""Extended-real convex curves with exact Legendre conjugation.

Four closed families: power curves u^p/p, linear curves c*u, indicator
curves (0 up to a bound, infinite beyond) and convex piecewise-linear
curves with optionally bounded domain.  Conjugation, structural parameters
(largest zero ``a``, domain end ``b``, end of the half-point linearity
region ``d``), one-sided derivatives and subdifferentials are all computed
symbolically; no numerical suprema anywhere.  Extended-real arithmetic
follows the conventions a/0 = inf, a/inf = 0, 0*inf = 0.

A piecewise-linear curve with a finite domain end may store the value
``inf`` at the end.  That models a curve blowing up at the boundary; it is
not left continuous there, and the closure (what biconjugation returns)
replaces the stored ``inf`` with the left limit.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import PreconditionError

INF = math.inf


def _pow(u: float, p: float) -> float:
    try:
        return u**p
    except OverflowError:
        return INF


@dataclass(frozen=True)
class CurveParams:
    """Structural parameters: 0 <= a <= d <= b, value stored at b."""

    a: float
    d: float
    b: float
    value_at_b: float

    def __post_init__(self):
        if not (0.0 <= self.a <= self.d <= self.b):
            raise ValueError(f"parameter ordering violated: {self}")
        if not (self.b > 0.0) or math.isinf(self.a):
            raise ValueError(f"invalid parameters: {self}")


class OrliczCurve:
    """Base class; concrete families implement the symbolic pieces."""

    # -- family-specific -------------------------------------------------
    def value(self, u: float) -> float:
        raise NotImplementedError

    def params(self) -> CurveParams:
        raise NotImplementedError

    def left_derivative(self, u: float) -> float:
        raise NotImplementedError

    def right_derivative(self, u: float) -> float:
        raise NotImplementedError

    def inverse_upper(self, c: float) -> float:
        """sup{u >= 0 : closure(phi)(u) <= c} for c >= 0."""
        raise NotImplementedError

    def value_closed(self, u: float) -> float:
        """Lower-semicontinuous closure: left limit at a finite domain end."""
        return self.value(u)

    def _half_ratio_sup(self, lo: float, hi: float) -> float:
        """Exact sup of 2*phi(u/2)/phi(u) on [lo, hi]; closure value at hi."""
        raise NotImplementedError

    # -- shared ----------------------------------------------------------
    def __call__(self, u: float) -> float:
        return self.value(u)

    def conjugate(self) -> "OrliczCurve":
        return conjugate(self)

    def subdifferential(self, u: float):
        """The set {v >= 0 : phi(u) + psi(v) = u v} as a closed interval.

        Returns an ``(lo, hi)`` pair (hi may be inf) or None when empty.
        """
        if u < 0:
            raise PreconditionError("subdifferential needs u >= 0")
        p = self.params()
        if u == 0.0:
            return (0.0, conjugate(self).params().a)
        if u < p.b:
            return (self.left_derivative(u), self.right_derivative(u))
        if u == p.b:  # finite b only: u is a finite real
            if math.isinf(p.value_at_b):
                return None
            return (self.left_derivative(u), INF)
        return None

    def young_gap(self, u: float, v: float) -> float:
        """phi(u) + psi(v) - u*v; nonnegative, zero exactly on subdifferential pairs."""
        if u < 0 or v < 0:
            raise PreconditionError("young_gap needs u, v >= 0")
        fu = self.value(u)
        gv = conjugate(self).value(v)
        if math.isinf(fu) or math.isinf(gv):
            return INF
        return fu + gv - u * v

    def half_ratio_bound(self, lo: float, hi: float) -> float:
        """Certified sup of 2*phi(u/2)/phi(u) over [lo, hi], strictly below 1.

        Requires [lo, hi] inside (d, b), except that hi may equal a finite b
        carrying a finite value.
        """
        p = self.params()
        if not (p.d < lo <= hi):
            raise PreconditionError(f"interval [{lo}, {hi}] not inside ({p.d}, {p.b})")
        if hi > p.b or (hi == p.b and math.isinf(p.value_at_b)):
            raise PreconditionError(f"interval [{lo}, {hi}] not inside ({p.d}, {p.b})")
        sigma = self._half_ratio_sup(lo, hi)
        if not sigma < 1.0:
            raise PreconditionError(
                "half-point ratio reached 1; interval touches the linearity region"
            )
        return sigma

    def finitecomp_check(self, u_samples) -> bool:
        """phi(psi'_-(u)) finite at every sample; needs a bounded domain."""
        p = self.params()
        if math.isinf(p.b):
            raise PreconditionError("finitecomp_check needs a bounded domain")
        psi = conjugate(self)
        for u in u_samples:
            if u <= 0:
                raise PreconditionError("samples must be positive")
            if math.isinf(self.value(psi.left_derivative(u))):
                return False
        return True


@dataclass(frozen=True)
class Power(OrliczCurve):
    """phi(u) = u^p / p with p > 1."""

    p: float

    def __post_init__(self):
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise ValueError("power curves need a finite exponent p > 1")

    def value(self, u):
        if u < 0:
            raise PreconditionError("curves are defined for u >= 0")
        return _pow(u, self.p) / self.p

    def params(self):
        return CurveParams(0.0, 0.0, INF, INF)

    def left_derivative(self, u):
        if u <= 0:
            raise PreconditionError("left derivative needs u in (0, b]")
        return _pow(u, self.p - 1.0)

    def right_derivative(self, u):
        if u < 0:
            raise PreconditionError("right derivative needs u >= 0")
        return _pow(u, self.p - 1.0)

    def inverse_upper(self, c):
        if c < 0:
            raise PreconditionError("inverse needs c >= 0")
        if math.isinf(c):
            return INF
        return _pow(c * self.p, 1.0 / self.p)

    def _half_ratio_sup(self, lo, hi):
        return 2.0 ** (1.0 - self.p)


@dataclass(frozen=True)
class Linear(OrliczCurve):
    """phi(u) = c * u with c > 0."""

    slope: float

    def __post_init__(self):
        if not (self.slope > 0.0 and math.isfinite(self.slope)):
            raise ValueError("linear curves need a positive finite slope")

    def value(self, u):
        if u < 0:
            raise PreconditionError("curves are defined for u >= 0")
        return self.slope * u

    def params(self):
        return CurveParams(0.0, INF, INF, INF)

    def left_derivative(self, u):
        if u <= 0:
            raise PreconditionError("left derivative needs u in (0, b]")
        return self.slope

    def right_derivative(self, u):
        if u < 0:
            raise PreconditionError("right derivative needs u >= 0")
        return self.slope

    def inverse_upper(self, c):
        if c < 0:
            raise PreconditionError("inverse needs c >= 0")
        return c / self.slope if math.isfinite(c) else INF


@dataclass(frozen=True)
class Indicator(OrliczCurve):
    """phi = 0 on [0, bound], inf beyond."""

    bound: float

    def __post_init__(self):
        if not (self.bound > 0.0 and math.isfinite(self.bound)):
            raise ValueError("indicator curves need a positive finite bound")

    def value(self, u):
        if u < 0:
            raise PreconditionError("curves are defined for u >= 0")
        return 0.0 if u <= self.bound else INF

    def params(self):
        return CurveParams(self.bound, self.bound, self.bound, 0.0)

    def left_derivative(self, u):
        if not (0 < u <= self.bound):
            raise PreconditionError("left derivative needs u in (0, b]")
        return 0.0

    def right_derivative(self, u):
        if not (0 <= u < self.bound):
            raise PreconditionError("right derivative needs u in [0, b)")
        return 0.0

    def inverse_upper(self, c):
        if c < 0:
            raise PreconditionError("inverse needs c >= 0")
        return self.bound


@dataclass(frozen=True)
class PiecewiseLinear(OrliczCurve):
    """Convex piecewise-linear curve.

    ``breakpoints`` is (0 = u0, u1, ..., uk) with uk possibly inf;
    ``slopes`` is (s1, ..., sk), slope sj holding on [u_{j-1}, u_j],
    strictly increasing with s1 >= 0.  When uk is finite, ``end_value``
    stores phi(uk): either the left limit (left-continuous closure) or
    inf (blow-up at the boundary).
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    end_value: float | None = None

    def __post_init__(self):
        bp = tuple(map(float, self.breakpoints))
        sl = tuple(map(float, self.slopes))
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        if len(bp) != len(sl) + 1 or not sl:
            raise ValueError("need one slope per segment")
        if bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if not all(map(operator.lt, bp, bp[1:])):
            raise ValueError("breakpoints must increase strictly")
        if any(map(math.isinf, bp[:-1])):
            raise ValueError("only the final breakpoint may be infinite")
        if sl[0] < 0 or not all(map(math.isfinite, sl)):
            raise ValueError("slopes must be finite and nonnegative")
        if not all(map(operator.lt, sl, sl[1:])):
            raise ValueError("slopes must increase strictly")
        if math.isinf(bp[-1]):
            if self.end_value is not None:
                raise ValueError("unbounded domain takes no end value")
            if sl == (0.0,):
                raise ValueError("curve is identically zero")
        else:
            if self.end_value is None:
                raise ValueError("bounded domain needs an end value")
            ev = float(self.end_value)
            object.__setattr__(self, "end_value", ev)
            left = self._left_limit()
            if not (ev == left or ev == INF):
                raise ValueError(
                    "end value must be the left limit (or inf for a blow-up)"
                )

    @staticmethod
    def closed(breakpoints, slopes) -> "PiecewiseLinear":
        """Bounded-domain curve carrying its left limit at the end."""
        bp = tuple(map(float, breakpoints))
        sl = tuple(map(float, slopes))
        return PiecewiseLinear(bp, sl, math.fsum(_rises(bp, sl)))  # post-init checks counts

    def _left_limit(self) -> float:
        return math.fsum(_rises(self.breakpoints, self.slopes))

    @cached_property
    def _knot_values(self) -> tuple[float, ...]:
        """phi at each breakpoint, with the left limit at a finite end.

        Summed left to right over the finite segments; an infinite last
        breakpoint carries inf, so 0 * inf never arises.
        """
        bp = self.breakpoints
        vals, v = [0.0], 0.0
        for s, u0, u1 in zip(self.slopes, bp, bp[1:] if math.isfinite(bp[-1]) else bp[1:-1]):
            v += s * (u1 - u0)
            vals.append(v)
        if len(vals) < len(bp):
            vals.append(INF)
        return tuple(vals)

    def value(self, u):
        if u < 0:
            raise PreconditionError("curves are defined for u >= 0")
        if math.isinf(u):
            return INF
        b = self.breakpoints[-1]
        if u > b:
            return INF
        if u == b and math.isfinite(b):
            return self.end_value
        j = bisect_right(self.breakpoints, u)  # u in [bp[j-1], bp[j])
        return self._knot_values[j - 1] + self.slopes[j - 1] * (
            u - self.breakpoints[j - 1]
        )

    def value_closed(self, u):
        b = self.breakpoints[-1]
        if math.isfinite(b) and u == b:
            return self._left_limit()
        return self.value(u)

    def params(self):
        b = self.breakpoints[-1]
        a = self.breakpoints[1] if self.slopes[0] == 0.0 else 0.0
        d = self.breakpoints[1] if len(self.slopes) >= 2 else b
        vb = self.end_value if math.isfinite(b) else INF
        return CurveParams(a, d, b, vb)

    def left_derivative(self, u):
        b = self.breakpoints[-1]
        if not (0 < u <= b):
            raise PreconditionError("left derivative needs u in (0, b]")
        if u == b and math.isfinite(b) and math.isinf(self.end_value):
            return INF  # value jumps at the end
        j = bisect_left(self.breakpoints, u)  # u in (bp[j-1], bp[j]]
        return self.slopes[j - 1]

    def right_derivative(self, u):
        b = self.breakpoints[-1]
        if not (0 <= u < b):
            raise PreconditionError("right derivative needs u in [0, b)")
        j = bisect_right(self.breakpoints, u)  # u in [bp[j-1], bp[j])
        return self.slopes[j - 1]

    def inverse_upper(self, c):
        if c < 0:
            raise PreconditionError("inverse needs c >= 0")
        b = self.breakpoints[-1]
        if math.isfinite(b) and c >= self._left_limit():
            return b
        if math.isinf(c):
            return INF
        vals = self._knot_values
        for j in range(len(self.slopes), 0, -1):
            if vals[j - 1] <= c:
                s = self.slopes[j - 1]
                if s == 0.0:
                    return self.breakpoints[j]  # plateau: sup of the level set
                return self.breakpoints[j - 1] + (c - vals[j - 1]) / s
        return 0.0  # pragma: no cover - vals[0] = 0 <= c always

    def _half_ratio_sup(self, lo, hi):
        candidates = {lo, hi}
        for u in self.breakpoints[1:]:
            if math.isfinite(u):
                if lo < u < hi:
                    candidates.add(u)
                if lo < 2.0 * u < hi:
                    candidates.add(2.0 * u)
        best = 0.0
        for u in candidates:
            den = self.value_closed(u)
            if den <= 0.0 or math.isinf(den):
                continue
            best = max(best, 2.0 * self.value(u / 2.0) / den)
        return best


def _rises(breakpoints, slopes):
    """s_j * (u_j - u_{j-1}) for each segment, stopping at the shorter input."""
    return map(operator.mul, slopes, map(operator.sub, breakpoints[1:], breakpoints))


@lru_cache(maxsize=4096)
def conjugate(curve: OrliczCurve) -> OrliczCurve:
    """Complementary curve psi(v) = sup_u (u v - phi(u)), exact per family."""
    if isinstance(curve, Power):
        return Power(curve.p / (curve.p - 1.0))
    if isinstance(curve, Linear):
        return Indicator(curve.slope)
    if isinstance(curve, Indicator):
        return Linear(curve.bound)
    if isinstance(curve, PiecewiseLinear):
        return _conjugate_pwl(curve)
    raise TypeError(f"not an Orlicz curve: {curve!r}")


def _conjugate_pwl(curve: PiecewiseLinear) -> PiecewiseLinear:
    bp, sl = curve.breakpoints, curve.slopes
    new_bp = [0.0]
    new_sl = []
    if sl[0] > 0.0:
        new_bp.append(sl[0])
        new_sl.append(0.0)
    for j in range(1, len(sl)):
        # the conjugate has slope bp[j] on [sl[j-1], sl[j]]
        new_bp.append(sl[j])
        new_sl.append(bp[j])
    b = bp[-1]
    if math.isfinite(b):
        # tail of slope b with intercept -phi(b-): conjugate domain unbounded
        new_bp.append(INF)
        new_sl.append(b)
        return PiecewiseLinear(tuple(new_bp), tuple(new_sl), None)
    # unbounded domain: conjugate ends at the final slope, left-continuously
    return PiecewiseLinear.closed(tuple(new_bp), tuple(new_sl))


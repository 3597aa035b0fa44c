import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mospaces import (
    CurveParams,
    Indicator,
    Linear,
    PiecewiseLinear,
    Power,
    PreconditionError,
    conjugate,
)
from helpers import d_param_scan, domain_samples, half_ratio_scan, random_curve

INF = math.inf


# -- evaluation --------------------------------------------------------------


def test_eval_examples():
    assert Power(2.0).value(2.0) == 2.0
    assert Indicator(1.0).value(1.0) == 0.0
    assert Indicator(1.0).value(1.5) == INF
    assert Linear(3.0).value(0.0) == 0.0


def test_eval_rejects_negative():
    with pytest.raises(PreconditionError):
        Power(2.0).value(-0.1)


def test_eval_at_infinity_is_infinite():
    for crv in (Power(2.0), Linear(1.0), Indicator(1.0),
                PiecewiseLinear((0.0, INF), (1.0,), None)):
        assert math.isinf(crv.value(INF))


# -- structural parameters ---------------------------------------------------


def test_params_power():
    p = Power(2.0).params()
    assert (p.a, p.d, p.b) == (0.0, 0.0, INF)


def test_params_indicator_matches_sup_definitions():
    crv = Indicator(1.0)
    p = crv.params()
    assert (p.a, p.d, p.b) == (1.0, 1.0, 1.0)
    # direct check of the three sup definitions on a scan
    us = np.linspace(0, 3, 30001)
    a_scan = max(u for u in us if crv.value(float(u)) == 0.0)
    b_scan = max(u for u in us if crv.value(float(u)) < INF)
    assert math.isclose(a_scan, 1.0, abs_tol=1e-3)
    assert math.isclose(b_scan, 1.0, abs_tol=1e-3)
    assert math.isclose(d_param_scan(crv), 1.0, abs_tol=1e-3)


def test_params_pwl_kink_at_two():
    crv = PiecewiseLinear((0.0, 2.0, INF), (1.0, 3.0), None)
    p = crv.params()
    assert (p.a, p.d, p.b) == (0.0, 2.0, INF)
    # half-point identity holds up to 2 and fails beyond, by brute scan
    assert math.isclose(d_param_scan(crv), 2.0, abs_tol=1e-3)


def test_params_zero_start_segment():
    crv = PiecewiseLinear((0.0, 1.0, INF), (0.0, 2.0), None)
    p = crv.params()
    assert (p.a, p.d) == (1.0, 1.0)  # a > 0 forces d = a


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_params_ordering_property(seed):
    crv = random_curve(np.random.default_rng(seed))
    p = crv.params()
    assert 0.0 <= p.a <= p.d <= p.b
    assert p.b > 0.0 and not math.isinf(p.a)
    if p.a > 0.0:
        assert p.d == p.a or p.d == p.b  # d = a, except indicator-type curves (d = b)


def test_curve_params_validation():
    with pytest.raises(ValueError):
        CurveParams(2.0, 1.0, 3.0, 0.0)


def test_only_plus_inf_marks_a_blow_up_end():
    assert PiecewiseLinear((0.0, 1.0), (1.0,), INF).end_value == INF
    with pytest.raises(ValueError, match="end value must be the left limit"):
        PiecewiseLinear((0.0, 1.0), (1.0,), -INF)


# -- conjugation -------------------------------------------------------------


def test_conjugate_closed_forms():
    assert conjugate(Linear(3.0)) == Indicator(3.0)
    assert conjugate(Indicator(1.0)) == Linear(1.0)
    assert conjugate(Power(2.0)) == Power(2.0)
    q = conjugate(Power(3.0))
    assert isinstance(q, Power) and math.isclose(q.p, 1.5)


def test_conjugate_pwl_shape():
    crv = PiecewiseLinear((0.0, 2.0, INF), (1.0, 3.0), None)
    psi = conjugate(crv)
    assert psi.breakpoints == (0.0, 1.0, 3.0)
    assert psi.slopes == (0.0, 2.0)
    assert psi.end_value == 4.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_biconjugation_reproduces_curve(seed):
    rng = np.random.default_rng(seed)
    crv = random_curve(rng)
    back = conjugate(conjugate(crv))
    for u in domain_samples(crv, rng, count=40):
        expect = crv.value_closed(u)
        got = back.value(u)
        assert abs(got - expect) <= 1e-12 * (1.0 + abs(expect))


# -- derivatives and subdifferentials ---------------------------------------


def test_left_derivative_examples():
    assert Power(2.0).left_derivative(3.0) == 3.0
    crv = PiecewiseLinear((0.0, 2.0, INF), (1.0, 3.0), None)
    assert crv.left_derivative(2.0) == 1.0
    assert Linear(0.7).left_derivative(5.0) == 0.7


def test_left_derivative_domain():
    with pytest.raises(PreconditionError):
        Indicator(1.0).left_derivative(1.5)
    with pytest.raises(PreconditionError):
        Power(2.0).left_derivative(0.0)


def test_left_derivative_jump_end():
    crv = PiecewiseLinear((0.0, 1.0, 2.0), (1.0, 2.0), INF)
    assert crv.left_derivative(2.0) == INF
    assert crv.left_derivative(1.5) == 2.0


def test_subdifferential_five_cases():
    # (i) at zero
    assert Power(2.0).subdifferential(0.0) == (0.0, 0.0)
    assert Linear(1.0).subdifferential(0.0) == (0.0, 1.0)
    # (ii) interior
    assert Power(2.0).subdifferential(5.0) == (5.0, 5.0)
    crv = PiecewiseLinear((0.0, 2.0, INF), (1.0, 3.0), None)
    assert crv.subdifferential(2.0) == (1.0, 3.0)
    # (iii) finite end with finite left slope
    assert Indicator(1.0).subdifferential(1.0) == (0.0, INF)
    # (iv) blow-up end value
    jump = PiecewiseLinear((0.0, 1.0, 2.0), (1.0, 2.0), INF)
    assert jump.subdifferential(2.0) is None
    # (v) beyond the domain
    assert Indicator(1.0).subdifferential(2.0) is None


def test_subdifferential_matches_young_equality():
    rng = np.random.default_rng(5)
    for _ in range(200):
        crv = random_curve(rng)
        u = float(rng.uniform(0.0, 4.0))
        sub = crv.subdifferential(u)
        if sub is None:
            continue
        lo, hi = sub
        for v in {lo, hi if math.isfinite(hi) else lo + 1.0, 0.5 * (lo + min(hi, lo + 2.0))}:
            gap = crv.young_gap(u, v)
            assert gap <= 1e-10 * (1.0 + u * v), (crv, u, v, gap)


# -- Young's inequality ------------------------------------------------------


def test_young_gap_examples():
    assert Power(2.0).young_gap(2.0, 2.0) == 0.0
    assert math.isclose(Power(2.0).young_gap(1.0, 3.0), 2.0)
    assert math.isclose(Linear(1.0).young_gap(4.0, 0.5), 2.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_young_gap_nonnegative(seed, u, v):
    crv = random_curve(np.random.default_rng(seed))
    assert crv.young_gap(u, v) >= -1e-12


def test_young_gap_zero_iff_subdifferential():
    rng = np.random.default_rng(17)
    for _ in range(300):
        crv = random_curve(rng)
        u = float(rng.uniform(0.0, 3.5))
        v = float(rng.uniform(0.0, 3.5))
        gap = crv.young_gap(u, v)
        sub = crv.subdifferential(u)
        inside = sub is not None and sub[0] - 1e-12 <= v <= sub[1] + 1e-12
        if gap <= 1e-10 * (1.0 + u * v):
            assert inside, (crv, u, v, gap, sub)
        if not inside:
            assert gap > 1e-10 * (1.0 + u * v)


# -- half-point ratio bound --------------------------------------------------


def test_half_ratio_power_is_constant():
    assert Power(2.0).half_ratio_bound(1.0, 2.0) == 0.5


def test_half_ratio_pwl_matches_brute_scan():
    crv = PiecewiseLinear((0.0, 2.0, INF), (1.0, 3.0), None)
    got = crv.half_ratio_bound(4.0, 6.0)
    assert math.isclose(got, 5.0 / 7.0, rel_tol=1e-12)
    assert math.isclose(got, half_ratio_scan(crv, 4.0, 6.0), rel_tol=1e-4)


def test_half_ratio_random_pwl_vs_scan():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 25:
        crv = random_curve(rng, families=("pwl",))
        p = crv.params()
        if not p.d < p.b:
            continue
        hi_cap = p.b if math.isfinite(p.b) else p.d + 3.0
        lo = p.d + 0.25 * (hi_cap - p.d)
        hi = p.d + 0.75 * (hi_cap - p.d)
        if math.isfinite(p.b) and hi == p.b and math.isinf(p.value_at_b):
            hi = 0.5 * (lo + hi)
        got = crv.half_ratio_bound(lo, hi)
        scan = half_ratio_scan(crv, lo, hi)
        assert scan <= got + 1e-9
        assert math.isclose(got, scan, rel_tol=1e-3), (crv, lo, hi)
        checked += 1


def test_half_ratio_rejects_linear_and_bad_intervals():
    with pytest.raises(PreconditionError):
        Linear(1.0).half_ratio_bound(1.0, 2.0)
    with pytest.raises(PreconditionError):
        Indicator(1.0).half_ratio_bound(0.5, 0.9)
    with pytest.raises(PreconditionError):
        Power(2.0).half_ratio_bound(0.0, 1.0)  # lo not above d


# -- complementary-derivative finiteness ------------------------------------


def test_finitecomp_examples():
    assert Indicator(1.0).finitecomp_check([0.5, 1.0, 7.0]) is True
    crv = PiecewiseLinear.closed((0.0, 2.0), (2.5,))
    assert crv.finitecomp_check([0.5, 2.4, 2.5, 2.6, 10.0]) is True
    with pytest.raises(PreconditionError):
        Power(2.0).finitecomp_check([1.0])


def test_finitecomp_detects_blowup_end():
    jump = PiecewiseLinear((0.0, 2.0), (1.0,), INF)
    # beyond the final slope the conjugate's left derivative reaches the
    # domain end, where the stored value blows up
    assert jump.finitecomp_check([0.5, 5.0]) is False


# -- monotonicity / convexity probes -----------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_eval_monotone_and_convex(seed):
    rng = np.random.default_rng(seed)
    crv = random_curve(rng)
    pts = sorted(domain_samples(crv, rng, count=12))
    vals = [crv.value(u) for u in pts]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12
    finite = [(u, t) for u, t in zip(pts, vals) if math.isfinite(t)]
    quotients = [
        (t2 - t1) / (u2 - u1)
        for (u1, t1), (u2, t2) in zip(finite, finite[1:])
        if u2 > u1
    ]
    for q1, q2 in zip(quotients, quotients[1:]):
        assert q2 >= q1 - 1e-9 * (1.0 + abs(q1))


def test_inverse_upper_consistency():
    rng = np.random.default_rng(31)
    for _ in range(200):
        crv = random_curve(rng)
        c = float(rng.uniform(0.0, 4.0))
        u = crv.inverse_upper(c)
        if math.isinf(u):
            continue
        assert crv.value_closed(u) <= c + 1e-9 * (1.0 + c)
        beyond = crv.value(u * (1.0 + 1e-6) + 1e-9)
        assert beyond >= c - 1e-6 * (1.0 + c)

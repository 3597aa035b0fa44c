import contextlib
import itertools
import math
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mospaces import (
    Indicator,
    Linear,
    MeasureGrid,
    MospacesError,
    MusielakField,
    PiecewiseLinear,
    Power,
    PreconditionError,
    StepFunction,
    UnboundedNormError,
    amemiya_norm,
    bounded_level_sets,
    conjugate,
    conjugate_field,
    decomposition_norm,
    finite_elements_nontrivial,
    luxemburg_norm,
    modular,
    modular_of_bounds,
    orlicz_norm_sup_oracle,
    partition,
    unit_sphere_point,
    weights,
)
from mospaces import musielak
from mospaces.cli import MAX_CELLS
from mospaces.musielak import (
    _amemiya,
    gauge_block,
    luxemburg_norms,
    unit_sphere_points,
)
from helpers import (
    amemiya_golden,
    amemiya_slope_gap,
    exact_amemiya,
    exact_luxemburg,
    exact_modular,
    gauge_bisect,
    random_field,
    random_x,
    settle_reference,
)

INF = math.inf


def gauge(field, ax, level=1.0, rtol=1e-12):
    """``gauge_block`` on the one row ``ax``: its bracket (lo, hi) as floats."""
    lo, hi = gauge_block(field, [ax], level, rtol)
    return float(lo[0]), float(hi[0])


def unit_grid(n=2):
    return MeasureGrid((1.0,) * n)


# -- modular -------------------------------------------------------------


def test_modular_examples():
    g = unit_grid()
    f = MusielakField.constant(g, Power(2.0))
    assert modular(f, StepFunction(g, (1.0, 1.0))) == 1.0
    find = MusielakField.constant(g, Indicator(1.0))
    assert modular(find, StepFunction(g, (1.0, 0.5))) == 0.0
    assert modular(find, StepFunction(g, (1.1, 0.0))) == INF
    assert modular(f, StepFunction.zero(g)) == 0.0


def test_modular_rejects_foreign_grid():
    from mospaces import GridMismatchError

    f = MusielakField.constant(unit_grid(), Power(2.0))
    other = MeasureGrid((1.0, 2.0))
    with pytest.raises(GridMismatchError):
        modular(f, StepFunction(other, (1.0, 1.0)))


def test_modular_of_bounds():
    g = unit_grid()
    assert modular_of_bounds(MusielakField.constant(g, Indicator(1.0))) == 0.0
    assert modular_of_bounds(MusielakField.constant(g, Power(2.0))) == INF
    pw = PiecewiseLinear.closed((0.0, 2.0), (1.0,))
    assert modular_of_bounds(MusielakField.constant(g, pw)) == 4.0


def test_modulars_is_the_modular_of_each_row_summed_lazily(monkeypatch):
    pw = PiecewiseLinear((0.0, 1.0), (2.0,), INF)  # blows up at its end
    f = MusielakField(MeasureGrid((1.0, 0.5, 2.0)), (Power(2.5), pw, Linear(3.0)))
    rows = np.array([[0.5, 0.25, 1.0], [1e200, 0.5, 0.0], [1.0, 1.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.5, 5e307]])

    def reference(row):  # the curve objects' values, inf where one is, else one fsum of value * mass
        values = [c.value(u) for c, u in zip(f.curves, row)]
        return INF if INF in values else math.fsum(v * m for v, m in zip(values, f.grid.weights))

    want = [reference(row) for row in rows.tolist()]
    assert want[1] == want[2] == want[4] == INF and want[3] == 0.0  # row 4: a finite value, an inf product
    assert [modular(f, StepFunction(f.grid, tuple(row))) for row in rows.tolist()] == want
    sums = []
    monkeypatch.setattr(math, "fsum", lambda terms, _fsum=math.fsum: sums.append(1) or _fsum(terms))
    lazy = musielak.modulars(f, rows)
    assert next(lazy) == want[0] and len(sums) == 1
    assert list(lazy) == want[1:] and len(sums) == 3  # a row with an infinite curve value sums nothing


def test_nakano_builds_its_table_from_columns():
    exps = (2.5, 1.0, INF, 3.0, 1.0)
    f = MusielakField.nakano(MeasureGrid((1.0,) * len(exps)), exps)
    assert "curves" not in vars(f)  # no curve object was built
    ref = MusielakField(f.grid, (Power(2.5), Linear(1.0), Indicator(1.0), Power(3.0), Linear(1.0)))
    for column in ("family", "number", "cell_a", "cell_d", "cell_b", "knots", "slopes", "values"):
        assert np.array_equal(getattr(f.table, column), getattr(ref.table, column), equal_nan=True)
    assert f.curves == ref.curves


# -- Luxemburg norm --------------------------------------------------------


def test_luxemburg_power_closed_form():
    g = MeasureGrid((1.0,))
    f = MusielakField.constant(g, Power(2.0))
    got = luxemburg_norm(f, StepFunction(g, (3.0,)))
    assert math.isclose(got, 3.0 / math.sqrt(2.0), rel_tol=1e-10)


def test_luxemburg_indicator_is_weighted_sup():
    g = unit_grid()
    f = MusielakField.constant(g, Indicator(1.0))
    got = luxemburg_norm(f, StepFunction(g, (3.0, 1.0)))
    assert math.isclose(got, 3.0, rel_tol=1e-10)


def test_luxemburg_zero():
    g = unit_grid()
    f = MusielakField.constant(g, Power(2.0))
    assert luxemburg_norm(f, StepFunction.zero(g)) == 0.0


def test_luxemburg_never_exceeds_truth():
    # the solver returns the lower bracket end: modular at x/value stays > 1
    rng = np.random.default_rng(2)
    for _ in range(50):
        f = random_field(rng)
        x = random_x(rng, f.grid)
        if x.is_zero():
            continue
        val = luxemburg_norm(f, x)
        assert modular(f, (1.0 / val) * x) > 1.0 or math.isclose(
            modular(f, (1.0 / val) * x), 1.0, rel_tol=1e-9
        )


def test_unit_ball_characterization_left_continuous():
    # |x| <= 1 iff modular(x) <= 1, for left-continuous curves
    rng = np.random.default_rng(3)
    for _ in range(80):
        f = random_field(rng, allow_jump=False)
        x = random_x(rng, f.grid)
        if x.is_zero():
            continue
        rho = modular(f, x)
        nrm = luxemburg_norm(f, x)
        if rho <= 1.0:
            assert nrm <= 1.0 + 1e-9
        if rho > 1.0 + 1e-12:
            assert nrm > 1.0 - 1e-9


# -- Amemiya norm -----------------------------------------------------------


def test_amemiya_power_closed_form():
    g = MeasureGrid((1.0,))
    f = MusielakField.constant(g, Power(2.0))
    assert math.isclose(amemiya_norm(f, StepFunction(g, (1.0,))), math.sqrt(2.0), rel_tol=1e-9)


def test_amemiya_indicator():
    g = MeasureGrid((1.0,))
    f = MusielakField.constant(g, Indicator(1.0))
    assert math.isclose(amemiya_norm(f, StepFunction(g, (1.0,))), 1.0, rel_tol=1e-9)


def test_amemiya_zero_by_convention():
    g = unit_grid()
    f = MusielakField.constant(g, Power(2.0))
    assert amemiya_norm(f, StepFunction.zero(g)) == 0.0


def test_amemiya_linear_field_reaches_weighted_l1():
    # objective decreases to the asymptote; certified within tolerance
    g = MeasureGrid((1.0, 2.0))
    f = MusielakField(g, (Linear(1.0), Linear(0.5)))
    x = StepFunction(g, (1.0, -2.0))
    expect = 1.0 * 1.0 * 1.0 + 2.0 * 0.5 * 2.0
    assert math.isclose(amemiya_norm(f, x), expect, rel_tol=1e-8)


def assert_amemiya(f, x, tol=1e-10, reference=None):
    """The search's value is what ``amemiya_norm`` returns, at or above its
    certified lower bound and within ``tol`` of it and of ``reference``."""
    value, bound, _ = _amemiya(f, [abs(v) for v in x.values], tol)
    assert value >= bound * (1.0 - 1e-15)  # the bound itself is rounded
    assert value - bound <= max(tol, 1e-14) * value
    if reference is not None:
        # the reference is at or above the infimum, so at or above the bound
        assert bound <= reference * (1.0 + 1e-15)
        assert abs(value - reference) <= tol * max(value, reference) + 1e-12 * reference
    assert amemiya_norm(f, x, tol) == value
    return value


def test_amemiya_matches_golden_section_and_sup_oracle():
    # jump and blow-up PWL ends, bounded edges, zero cells, single-cell grids
    rng = np.random.default_rng(71)
    for k in range(150):
        f = random_field(rng, n=1 if k % 5 == 0 else int(rng.integers(2, 9)), allow_jump=True)
        x = random_x(rng, f.grid)
        if rng.uniform() < 0.3:
            x = StepFunction(f.grid, tuple(v if rng.uniform() < 0.6 else 0.0 for v in x.values))
        if x.is_zero():
            continue
        value = assert_amemiya(f, x, reference=amemiya_golden(f, x))
        if k % 3 == 0:
            oracle = orlicz_norm_sup_oracle(f, x).value  # a lower bound of the norm
            assert value * (1.0 - 1e-8) <= oracle <= value * (1.0 + 1e-12)


def test_amemiya_minimum_at_the_domain_edge():
    # h(k) = (1 + k/2)/k falls up to k_sup = 1, closed or blowing up there
    g = MeasureGrid((1.0,))
    x = StepFunction(g, (1.0,))
    for end in (0.5, INF):
        f = MusielakField.constant(g, PiecewiseLinear((0.0, 1.0), (0.5,), end))
        value = assert_amemiya(f, x)  # h(1) with r rounded up by the kernel's bound
        assert 1.5 <= value and math.isclose(value, 1.5, rel_tol=1e-14)
        assert amemiya_golden(f, x) >= 1.5
    # indicator cells put the minimum at k_sup: the weighted sup max |x_i|/bound_i
    g2 = MeasureGrid((0.5, 2.0, 1.0))
    f2 = MusielakField(g2, (Indicator(2.0), Indicator(0.5), Linear(0.1)))
    x2 = StepFunction(g2, (3.0, -1.0, 0.5))
    # h(k) = (1 + 0.05*k)/k at k <= k_sup = 0.5
    assert math.isclose(assert_amemiya(f2, x2), 2.05, rel_tol=1e-15)


def test_amemiya_linear_tails():
    # only linear supports: r(k) is affine past the last knot, where
    # g(k) = k r'(k) - r(k) = w * (slope*knot - phi(knot)) is constant
    g = MeasureGrid((1.0, 2.0))
    flat = PiecewiseLinear((0.0, 1.0, INF), (0.0, 1.0))  # adds w * (1*1 - 0) to g
    f = MusielakField(g, (Linear(2.0), flat))
    x = StepFunction(g, (1.0, 0.0))
    assert math.isclose(assert_amemiya(f, x), 2.0, rel_tol=1e-14)
    # g stays at 0.5 <= 1: h falls to the limit 1*1*2 + 0.5*3*1
    half = MusielakField(MeasureGrid((1.0, 0.5)), (Linear(2.0), flat))
    xh = StepFunction(half.grid, (1.0, 3.0))
    assert math.isclose(assert_amemiya(half, xh), 3.5, rel_tol=1e-14)
    assert amemiya_golden(half, xh) >= 3.5
    # g jumps to 2 > 1 at k = 1/3, the last knot: the minimum sits there,
    # h(1/3) = 3 * (1 + 2/3 + 0) = 5
    x2 = StepFunction(g, (1.0, 3.0))
    assert math.isclose(assert_amemiya(f, x2, reference=amemiya_golden(f, x2)), 5.0, rel_tol=1e-14)
    rng = np.random.default_rng(73)
    for _ in range(60):
        f = random_field(rng, families=("linear", "pwl"), allow_jump=False)
        if any(math.isfinite(c.params().b) for c in f.curves):
            continue
        x = random_x(rng, f.grid)
        if not x.is_zero():
            assert_amemiya(f, x, reference=amemiya_golden(f, x))


def test_amemiya_decides_its_bracket_on_g_summed_cell_by_cell():
    # the search starts at k_sup = 1e20, where r and k*r' are near 2e20 and
    # their difference is rounding noise; g summed cell by cell is exactly 2,
    # so the minimum is found at the kink k = 1, h(1) = 1 + 1e-20
    g = MeasureGrid((1.0, 1.0))
    tail = PiecewiseLinear((0.0, 1.0, INF), (0.0, 2.0))
    f = MusielakField(g, (tail, PiecewiseLinear.closed((0.0, 1.0), (1.0,))))
    x = StepFunction(g, (1.0, 1e-20))
    value = assert_amemiya(f, x)
    assert exact_amemiya(f, x.values) <= value <= 1.0 + 1e-15
    assert orlicz_norm_sup_oracle(f, x).value == 1.0
    assert value <= 2.0 * luxemburg_norm(f, x)


_DBL_MAX = sys.float_info.max


def capped_amemiya(field, x):
    """``amemiya_norm`` of x, or None where it refuses a minimiser above
    DBL_MAX; h must then still fall at DBL_MAX by the curve objects' g."""
    try:
        return amemiya_norm(field, x)
    except UnboundedNormError as exc:
        if "the minimising k exceeds DBL_MAX" not in str(exc):
            raise
    assert amemiya_slope_gap(field, x.values, _DBL_MAX) <= 1.0 + 1e-9
    return None


def test_amemiya_refuses_a_minimiser_above_dbl_max():
    # Power(2) on [1, 0.5, 2]: h(k) = (1 + k**2 x**2 / 2)/k is least at
    # k* = sqrt(2)/x, beyond DBL_MAX for x = 6e-309; h(DBL_MAX) = 8.7985e-309
    # missed the norm sqrt(2)*x = 8.485e-309 by far more than its tol
    g = MeasureGrid((1.0, 0.5, 2.0))
    f = MusielakField.constant(g, Power(2.0))
    for v in (6e-309, 1e-320):
        with pytest.raises(UnboundedNormError, match="^the Amemiya scale overflows: the minimising k exceeds DBL_MAX$"):
            amemiya_norm(f, StepFunction(g, (v, 0.0, 0.0)))
    for v in (1e-300, 1e-307):  # k* below DBL_MAX
        assert math.isclose(amemiya_norm(f, StepFunction(g, (v, 0.0, 0.0))), math.sqrt(2.0) * v, rel_tol=1e-9)


@pytest.mark.parametrize("factor", [1e-6, 0.25, 0.999, 1.001, 1.5, 4.0, 1e3])
def test_amemiya_near_the_cap_against_the_exact_reference(factor):
    # flat up to the knot 1, then slope 2: g jumps from 0 to 2 at the knot, so
    # the minimiser is k* = 1/x and the norm is x; past DBL_MAX it is refused
    g = MeasureGrid((1.0, 1.0))
    f = MusielakField.constant(g, PiecewiseLinear((0.0, 1.0, INF), (0.0, 2.0)))
    values = (factor / _DBL_MAX, 0.0)
    exact = exact_amemiya(f, values)
    k_star = 1 / Fraction(values[0])
    if k_star > Fraction(_DBL_MAX):
        with pytest.raises(UnboundedNormError, match="the minimising k exceeds DBL_MAX"):
            amemiya_norm(f, StepFunction(g, values))
    else:
        value = amemiya_norm(f, StepFunction(g, values))
        assert exact <= value <= exact * (1 + Fraction(1, 10**9))


_EDGES = [0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.0,
          math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), math.nextafter(_DBL_MAX, 0.0), _DBL_MAX]
_EXTREME = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(0.0, 1e-300),  # subnormals among them
    st.floats(1e300, _DBL_MAX),
    st.floats(0.0, _DBL_MAX),
)


def _near(value, ulps):
    """``value`` moved by ``ulps`` floats, staying finite and nonnegative."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, _DBL_MAX if ulps > 0 else 0.0)
    return value


@settings(max_examples=1500, derandomize=True, deadline=None, database=None)
@given(_EXTREME, _EXTREME, _EXTREME, st.integers(-2, 2), st.booleans())
def test_exact_checks_in_integers_decide_as_fractions(k, x, e, ulps, near):
    # Amemiya's two exact checks, k*x > e and q*k*(1 - 2**-53) < 1 + r, decided
    # on as_integer_ratio integers; drawn at and next to the boundary too
    if near and math.isfinite(k * x):
        e = _near(k * x, ulps)
    assert musielak._exceeds(k, x, e) == (Fraction(k) * Fraction(x) > Fraction(e))
    r = e
    q = (1.0 + r) / k if k > 0.0 else x
    if near and math.isfinite(q):
        q = _near(q, ulps)
    if math.isfinite(q):
        want = Fraction(q) * Fraction(k) * (2**53 - 1) < (1 + Fraction(r)) * 2**53
        assert musielak._short(q, k, r) == want


@pytest.mark.parametrize("r, k", [(_DBL_MAX, 1.0), (1.0, 1e-308), (_DBL_MAX, 0.5)])
def test_an_objective_rounded_up_past_dbl_max_raises(r, k):
    # (1 + r)/k rounds to DBL_MAX below the exact value, or overflows at once:
    # either way the bound is above DBL_MAX, and no inf is returned
    with pytest.raises(UnboundedNormError, match="the norm exceeds DBL_MAX"):
        musielak._objective_up(r, k)
    assert musielak._objective_up(1.0, 1.0) == math.nextafter(2.0, 3.0)


@pytest.mark.parametrize("p", [1.0000001, 1.0004, 1.001])
def test_amemiya_power_near_one(p):
    # constant power field: h(k) = 1/k + k**(p-1) S/p with S = sum w|x|^p, so
    # the norm is (p/(p-1))**(1-1/p) * S**(1/p)
    rng = np.random.default_rng(79)
    for n in (1, 3, 6):
        g = MeasureGrid(tuple(float(w) for w in rng.uniform(0.1, 3.0, n)))
        f = MusielakField.constant(g, Power(p))
        x = random_x(rng, g)
        s = math.fsum(w * abs(v) ** p for w, v in zip(g.weights, x.values))
        expect = (p / (p - 1.0)) ** (1.0 - 1.0 / p) * s ** (1.0 / p)
        assert math.isclose(assert_amemiya(f, x), expect, rel_tol=1e-9)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
def test_amemiya_extreme_magnitudes(scale):
    # the norm is homogeneous; the golden section is not used as the reference
    # here, since its doubling leaves the float range at these magnitudes
    rng = np.random.default_rng(83)
    for k in range(40):
        f = random_field(rng, n=1 if k % 4 == 0 else None, allow_jump=True)
        x = random_x(rng, f.grid)
        if x.is_zero():
            continue
        base = assert_amemiya(f, x)
        assert math.isclose(assert_amemiya(f, scale * x), scale * base, rel_tol=1e-9)


@pytest.mark.parametrize("n", [512, 4096])
def test_large_rows_against_the_references(n):
    rng = np.random.default_rng(89 + n)
    for _ in range(2):
        f = random_field(rng, n=n)
        x = random_x(rng, f.grid, scale=0.5)
        # Amemiya: the golden section and the sup oracle where they are cheap
        reference = amemiya_golden(f, x) if n == 512 else None
        value = assert_amemiya(f, x, reference=reference)
        if n == 512:
            oracle = orlicz_norm_sup_oracle(f, x).value
            assert value * (1.0 - 1e-8) <= oracle <= value * (1.0 + 1e-12)
        # Luxemburg: 1/hi of a bracket that holds T with the reference
        # bisection's, so below the reference's upper norm 1/lo
        lux = luxemburg_norm(f, x, 1e-10)
        lo, hi = gauge(f, [abs(v) for v in x.values], 1.0, 1e-10)
        assert lux == 1.0 / hi and modular(f, hi * x) > 1.0 and modular(f, lo * x) <= 1.0
        ref_lo, ref_hi = gauge_bisect(f, x)
        assert lo <= ref_hi and ref_lo <= hi
        assert lux <= 1.0 / ref_lo
        assert math.isclose(lux, 1.0 / ref_hi, rel_tol=2e-10)
        assert lux <= value


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_norm_sandwich(seed):
    rng = np.random.default_rng(seed)
    f = random_field(rng)
    x = random_x(rng, f.grid)
    if x.is_zero():
        return
    lux = luxemburg_norm(f, x)
    am = amemiya_norm(f, x)
    ratio = am / lux
    assert 1.0 <= ratio <= 2.0 + 1e-8


def test_homogeneity_and_triangle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        f = random_field(rng)
        x = random_x(rng, f.grid)
        y = random_x(rng, f.grid)
        c = float(rng.uniform(0.1, 4.0))
        for norm in (lambda z: luxemburg_norm(f, z), lambda z: amemiya_norm(f, z)):
            nx, ny = norm(x), norm(y)
            assert math.isclose(norm(c * x), c * nx, rel_tol=1e-8, abs_tol=1e-12)
            assert norm(x + y) <= nx + ny + 1e-8 * (1.0 + nx + ny)


# -- sup-form oracle and duality ---------------------------------------------


def test_oracle_examples():
    g = MeasureGrid((1.0,))
    f = MusielakField.constant(g, Power(2.0))
    res = orlicz_norm_sup_oracle(f, StepFunction(g, (1.0,)))
    assert math.isclose(res.value, math.sqrt(2.0), rel_tol=1e-9)
    assert res.modular_used <= 1.0 + 1e-12

    g2 = unit_grid()
    flin = MusielakField.constant(g2, Linear(1.0))
    res2 = orlicz_norm_sup_oracle(flin, StepFunction(g2, (1.0, 1.0)))
    assert math.isclose(res2.value, 2.0, rel_tol=1e-10)

    assert orlicz_norm_sup_oracle(f, StepFunction.zero(g)).value == 0.0


def test_koethe_duality_small_grids():
    rng = np.random.default_rng(7)
    for _ in range(60):
        f = random_field(rng, n=int(rng.integers(1, 9)))
        x = random_x(rng, f.grid)
        if x.is_zero():
            continue
        am = amemiya_norm(f, x)
        orc = orlicz_norm_sup_oracle(f, x)
        assert abs(am - orc.value) <= 1e-6 * max(am, 1e-12)


# -- field structure ----------------------------------------------------------


def test_conjugate_field_examples():
    g = unit_grid()
    f = conjugate_field(MusielakField.constant(g, Linear(1.0)))
    assert all(c == Indicator(1.0) for c in f.curves)
    f2 = conjugate_field(MusielakField.nakano(g, (2.0, 2.0)))
    assert all(isinstance(c, Power) and c.p == 2.0 for c in f2.curves)
    f3 = conjugate_field(MusielakField.nakano(g, (INF, INF)))
    assert all(c == Linear(1.0) for c in f3.curves)


@pytest.mark.parametrize("exponents", [(2.0, 0.5), (-INF, 2.0), (0.0, 1.0), (2.0, math.nan)])
def test_nakano_exponents_must_lie_in_one_to_inf(exponents):
    with pytest.raises(ValueError, match=r"exponents must lie in \[1, inf\]"):
        MusielakField.nakano(unit_grid(), exponents)


def test_partition_examples():
    g = unit_grid()
    part = partition(MusielakField.nakano(g, (1.0, INF)))
    assert part.omega_1 == {"c0"}
    assert part.omega_inf == {"c1"}
    part2 = partition(MusielakField.constant(g, Power(2.0)))
    assert part2.remainder == {"c0", "c1"}
    pw = PiecewiseLinear(
        (0.0, 2.0), (1.0,), 2.0
    )  # linear up to 2, closed end
    part3 = partition(MusielakField.constant(g, pw))
    assert part3.omega_1inf == {"c0", "c1"}


def test_partition_covers_grid():
    rng = np.random.default_rng(13)
    for _ in range(60):
        f = random_field(rng)
        part = partition(f)
        union = part.omega_inf | part.omega_1 | part.omega_1inf | part.remainder
        assert union == set(f.grid.ids)
        total = sum(map(len, (part.omega_inf, part.omega_1, part.omega_1inf, part.remainder)))
        assert total == len(f.grid)


def test_weights_examples():
    g = MeasureGrid((1.0,))
    wp = weights(MusielakField.constant(g, Linear(3.0)))
    assert wp.w.values == (3.0,) and wp.v.values == (0.0,)
    wp2 = weights(MusielakField.constant(g, Indicator(2.0)))
    assert wp2.v.values == (0.5,) and wp2.w.values == (0.0,)
    pw = PiecewiseLinear.closed((0.0, 2.0), (1.0,))
    wp3 = weights(MusielakField.constant(g, pw))
    assert wp3.w.values == (1.0,) and wp3.v.values == (0.5,)


def test_weights_match_conjugate_zero_parameter():
    rng = np.random.default_rng(19)
    for _ in range(60):
        f = random_field(rng)
        part = partition(f)
        wp = weights(f)
        for i, cid in enumerate(f.grid.ids):
            if cid in part.remainder:
                continue
            assert wp.w.values[i] == conjugate(f.curves[i]).params().a


# -- decomposition -------------------------------------------------------------


def test_decomposition_examples():
    g = unit_grid()
    f = MusielakField(g, (Indicator(1.0), Linear(1.0)))
    res = decomposition_norm(f, StepFunction(g, (3.0, 2.0)))
    assert res.value == 3.0 and res.formula == "weighted-max"

    f_inf = MusielakField.constant(g, Indicator(2.0))
    res2 = decomposition_norm(f_inf, StepFunction(g, (3.0, 1.0)))
    assert res2.value == 1.5  # weighted sup with v = 1/2

    f_mix = MusielakField(g, (Power(2.0), Indicator(1.0)))
    x = StepFunction(g, (1.0, 0.7))
    res3 = decomposition_norm(f_mix, x)
    assert res3.formula == "oplus-inf"
    assert math.isclose(res3.value, luxemburg_norm(f_mix, x), rel_tol=1e-9)


@pytest.mark.parametrize(
    "masses, x, slope",
    [
        ((1e308, 1e308), (1.0, 1.0), 1.0),  # the weighted L1 sum passes DBL_MAX
        ((1.0, 1.0), (1e308, 1e308), 1.0),
        ((1.0, 1.0), (1e308, 1e308), 3.0),  # each term is inf
        ((1.0, 1.0), (1.7e308, 0.0), 3.0),
    ],
)
def test_decomposition_past_dbl_max_raises_as_luxemburg_does(masses, x, slope):
    g = MeasureGrid(masses)
    f, x = MusielakField.constant(g, Linear(slope)), StepFunction(g, x)
    with pytest.raises(UnboundedNormError, match="the norm exceeds DBL_MAX$"):
        luxemburg_norm(f, x)
    with pytest.raises(UnboundedNormError, match="the norm exceeds DBL_MAX$"):
        decomposition_norm(f, x)


def test_decomposition_matches_luxemburg_randomly():
    rng = np.random.default_rng(29)
    for _ in range(120):
        f = random_field(rng)
        x = random_x(rng, f.grid)
        if x.is_zero():
            continue
        dec = decomposition_norm(f, x)
        lux = luxemburg_norm(f, x)
        assert math.isclose(dec.value, lux, rel_tol=1e-9, abs_tol=1e-12), (
            f.curves,
            x.values,
            dec,
            lux,
        )


# -- misc structure ------------------------------------------------------------


def test_finite_elements_nontrivial():
    g = unit_grid()
    assert finite_elements_nontrivial(MusielakField.constant(g, Indicator(1.0))) is False
    assert finite_elements_nontrivial(MusielakField(g, (Indicator(1.0), Linear(1.0)))) is True
    assert finite_elements_nontrivial(MusielakField.constant(g, Power(2.0))) is True


def test_bounded_level_sets():
    g = unit_grid()
    f = MusielakField.constant(g, Power(2.0))
    assert bounded_level_sets(f, 5.0) == [frozenset({"c0", "c1"})]
    f2 = MusielakField(g, (Power(2.0), Indicator(1.0)))
    assert bounded_level_sets(f2, 5.0) == [frozenset({"c0"})]
    with pytest.raises(PreconditionError, match="no cell has an unbounded domain"):
        bounded_level_sets(MusielakField.constant(g, Indicator(1.0)), 5.0)
    with pytest.raises(PreconditionError, match="nonnegative"):
        bounded_level_sets(f2, math.nan)
    with pytest.raises(PreconditionError, match="nonnegative"):
        bounded_level_sets(f2, -1.0)
    for u in (1e300, math.inf):  # c0 has an unbounded domain, but its curve is infinite there
        with pytest.raises(PreconditionError, match="no unbounded-domain cell stays finite"):
            bounded_level_sets(f2, u)


def test_unit_sphere_point_lands_on_sphere():
    rng = np.random.default_rng(37)
    for _ in range(40):
        f = random_field(rng)
        y = random_x(rng, f.grid)
        if y.is_zero():
            continue
        u = unit_sphere_point(f, y)
        assert math.isclose(luxemburg_norm(f, u), 1.0, rel_tol=1e-9)


def test_unit_sphere_point_refuses_the_zero_function():
    f = MusielakField.constant(unit_grid(), Power(2.0))
    with pytest.raises(PreconditionError, match="cannot normalise the zero function"):
        unit_sphere_point(f, StepFunction(f.grid, (0.0, -0.0)))


# -- gauge solver ------------------------------------------------------------


def assert_width(f, lo, hi, level, rtol):
    """hi - lo <= max(rtol, floor)*lo, or at most one float strictly between lo and hi.

    An rtol below the kernel's floor (zero, negative, NaN) is raised to it.
    """
    width = max(f._kernel.floor(level), rtol)
    assert hi - lo <= width * lo or math.nextafter(math.nextafter(lo, INF), INF) >= hi
    return width


def assert_gauge_bracket(f, x, level, rtol):
    lo, hi = gauge(f, [abs(v) for v in x.values], level, rtol)
    assert 0.0 < lo <= hi
    assert_width(f, lo, hi, level, rtol)
    assert modular(f, lo * x) <= level
    assert modular(f, hi * x) > level  # hence hi >= T
    return lo, hi


@pytest.mark.parametrize("level", [0.3, 1.0, 1.05])
def test_gauge_bracket_guarantees(level):
    rng = np.random.default_rng(41)
    for _ in range(150):
        f = random_field(rng, allow_jump=True)
        x = random_x(rng, f.grid)
        if x.is_zero():
            continue
        rtol = float(rng.choice([0.0, -1.0, math.nan, 1e-20, 1e-13, 1e-12, 1e-8]))
        assert_gauge_bracket(f, x, level, rtol)


@pytest.mark.parametrize("level", [0.3, 1.0, 1.05])
def test_gauge_matches_reference_bisection(level):
    rng = np.random.default_rng(43)
    for _ in range(100):
        f = random_field(rng, n=int(rng.integers(1, 9)))
        x = random_x(rng, f.grid)
        if x.is_zero():
            continue
        lo, hi = gauge(f, [abs(v) for v in x.values], level, 1e-12)
        ref_lo, ref_hi = gauge_bisect(f, x, level)
        assert lo <= ref_hi and ref_lo <= hi  # both brackets hold T
        assert math.isclose(lo, ref_lo, rel_tol=1e-11)


def test_gauge_floor_stays_below_every_tolerance_the_package_asks_for():
    # the floor grows with the depth of the kernel's pairwise sum; on the
    # largest grid a config may generate it stays below the unit-sphere
    # rtol 1e-13, so the sphere (1e-13), verify (1e-11) and norm (<= 1e-10)
    # solves are never widened
    floor = MusielakField.constant(MeasureGrid((1.0,) * MAX_CELLS), Power(2.0))._kernel.floor(1.0)
    assert 6e-14 < floor < 1e-13
    one = MusielakField.constant(unit_grid(1), Linear(1.0))._kernel
    assert one.floor(1.0) == 8.0 * (one.rel + one.abs) and 2e-14 < one.floor(1.0) < 3e-14


def test_gauge_rejects_zero_values_and_overflowing_scale():
    f = MusielakField.constant(unit_grid(), Power(2.0))
    with pytest.raises(PreconditionError):
        gauge(f, [0.0, 0.0])
    # the scale 1/|x| is not a float, so no bracket of it can be returned
    with pytest.raises(UnboundedNormError):
        luxemburg_norm(f, StepFunction(f.grid, (1e-310, 0.0)))
    # a normal x whose norm is below 1/DBL_MAX: the scale T = 1e310 overflows
    g = MeasureGrid((1e-5,))
    with pytest.raises(UnboundedNormError):
        luxemburg_norm(MusielakField.constant(g, Linear(1.0)), StepFunction(g, (1e-305,)))


@pytest.mark.parametrize("curve", [Power(2.0), Power(1.0005), Linear(1.0)])
def test_gauge_subnormal_scale(curve):
    # |x|*mass near 1e310: the slope of r in t overflows, and T is subnormal
    # for the two curves that are linear or nearly so
    g = MeasureGrid((1e10, 3e9))
    f = MusielakField.constant(g, curve)
    x = StepFunction(g, (1e300, -7e299))
    for rtol in (0.0, 1e-12):
        lo, hi = assert_gauge_bracket(f, x, 1.0, rtol)
        assert lo < 1e-300


def test_gauge_steps_round_away_from_a_subnormal_point():
    # T is near 8.27e-310, where one ulp of t is 6e-15 of it, below rtol/4:
    # a step rounded to nearest came back one ulp short of certain, and the
    # solve evaluated the same t until it gave up
    g = MeasureGrid((2.905473379126212,))
    f = MusielakField(g, (PiecewiseLinear.closed((0.0, 0.5870752237126398), (0.872333675306596,)),))
    x = StepFunction(g, (1.4307485092220898e308,))
    lo, hi = assert_gauge_bracket(f, x, 0.3, 0.0)
    assert lo < 1e-308
    assert_exactly_feasible(f, lo, x.values, 0.3)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
def test_gauge_extreme_magnitudes(scale):
    rng = np.random.default_rng(47)
    for _ in range(40):
        f = random_field(rng)
        x = random_x(rng, f.grid)
        if x.is_zero():
            continue
        big = scale * x
        assert_gauge_bracket(f, big, 1.0, 1e-12)
        assert math.isclose(luxemburg_norm(f, big), scale * luxemburg_norm(f, x), rel_tol=1e-10)
        assert modular(f, unit_sphere_point(f, big)) <= 1.0


@pytest.mark.parametrize("p", [1.0000001, 1.0005, 1.000999])
def test_gauge_power_near_one(p):
    rng = np.random.default_rng(53)
    for n in (1, 2, 5):
        g = MeasureGrid(tuple(float(w) for w in rng.uniform(0.1, 3.0, n)))
        f = MusielakField.constant(g, Power(p))
        x = StepFunction(g, tuple(float(v) for v in rng.uniform(-3.0, 3.0, n)))
        assert_gauge_bracket(f, x, 1.0, 1e-12)
        exact = math.fsum(w * abs(v) ** p / p for w, v in zip(g.weights, x.values)) ** (1.0 / p)
        assert math.isclose(luxemburg_norm(f, x), exact, rel_tol=1e-10)
        assert modular(f, unit_sphere_point(f, x)) <= 1.0


def test_gauge_blow_up_end_single_cell():
    # phi = 0.5u on [0, 1], then slope 1 up to u = 2, infinite at 2 itself;
    # with mass 0.5 the closure reaches only 0.75 at the edge t = 0.5
    g = MeasureGrid((0.5,))
    f = MusielakField.constant(g, PiecewiseLinear((0.0, 1.0, 2.0), (0.5, 1.0), INF))
    x = StepFunction(g, (4.0,))
    lo, hi = assert_gauge_bracket(f, x, 0.5, 1e-12)
    assert math.isclose(lo, 1.5 / 4.0, rel_tol=1e-12)
    lo, hi = assert_gauge_bracket(f, x, 1.0, 1e-12)
    assert lo < 0.5 < hi
    assert modular(f, hi * x) == INF
    assert math.isclose(luxemburg_norm(f, x), 2.0, rel_tol=1e-11)
    assert modular(f, unit_sphere_point(f, x)) <= 1.0


@pytest.mark.parametrize("rtol", [1.0, 2.0, 2.5, 3.0, INF])
@pytest.mark.parametrize("cell", ["closed", "blow-up"])
def test_gauge_caps_rtol_at_one(cell, rtol):
    # above 1 the steps of rtol/4 reach t <= 0: rtol 2 gave (0.5, 1.5) on the
    # closed cell, and 2.5 and 3 ran 0.8 s until the solver gave up
    if cell == "closed":
        f = MusielakField.constant(MeasureGrid((1.0,)), PiecewiseLinear.closed((0.0, 1.0), (1.0,)))
        x = StepFunction(f.grid, (1.0,))
    else:  # the closure stays under the level up to the edge: the edge brackets
        f = MusielakField.constant(MeasureGrid((0.5,)), PiecewiseLinear((0.0, 1.0, 2.0), (0.5, 1.0), INF))
        x = StepFunction(f.grid, (4.0,))
    start = time.process_time()
    lo, hi = gauge(f, list(x.values), 1.0, rtol)
    assert time.process_time() - start < 0.01
    assert 0.0 < lo <= hi
    assert_width(f, lo, hi, 1.0, 1.0)
    assert modular(f, lo * x) <= 1.0 < modular(f, hi * x)


def test_edge_brackets_double_their_steps_past_a_subnormal_product():
    # one linear cell: T*x = 2**-1050 is subnormal, and its ulp, 2**-24 of
    # it, swallows millions of steps of rtol/4 until the steps double
    f = MusielakField.constant(MeasureGrid((2.0**50,)), Linear(2.0**1000))
    x = StepFunction(f.grid, (2.0**-100,))
    for rtol in (0.0, 1e-13, 1e-10):
        lo, hi = gauge(f, list(x.values), 1.0, rtol)
        assert modular(f, lo * x) <= 1.0 < modular(f, hi * x)
        ulp = 2.0**-1074 / (lo * x.values[0])  # of the product, relative to it
        assert hi / lo - 1.0 <= 48.0 * max(rtol, f._kernel.floor(1.0)) + 4.0 * ulp


def test_gauge_single_cell_fields():
    rng = np.random.default_rng(59)
    for _ in range(100):
        f = random_field(rng, n=1)
        x = StepFunction(f.grid, (float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)),))
        for level in (0.3, 1.0, 1.05):
            assert_gauge_bracket(f, x, level, 1e-12)


def test_norm_above_dbl_max_raises():
    # the gauge scale is subnormal, so 1/hi overflows; the Amemiya objective
    # overflows at every k
    g = MeasureGrid((1e10, 3e9))
    f = MusielakField.constant(g, Linear(1.0))
    x = StepFunction(g, (1e300, -7e299))
    for norm in (luxemburg_norm, amemiya_norm):
        with pytest.raises(UnboundedNormError, match="exceeds DBL_MAX"):
            norm(f, x)
    with pytest.raises(UnboundedNormError, match="exceeds DBL_MAX"):
        luxemburg_norms(f, [x.values])


def test_norms_of_huge_masses_and_of_an_edge_below_the_float_range():
    # a mass sum past DBL_MAX leaves the kernel's error bound finite
    g = MeasureGrid((1e308, 1e308))
    f = MusielakField.constant(g, Linear(1.0))
    x = StepFunction(g, (1e-300, 1e-300))
    assert math.isfinite(f._kernel.abs)
    assert math.isclose(luxemburg_norm(f, x), 2e8, rel_tol=1e-12)
    assert math.isclose(amemiya_norm(f, x), 2e8, rel_tol=1e-12)
    # k_sup = 1e-300/1e300 rounds to 0: both norms exceed DBL_MAX
    g1 = MeasureGrid((1.0,))
    tiny = MusielakField.constant(g1, Indicator(1e-300))
    for norm in (luxemburg_norm, amemiya_norm):
        with pytest.raises(UnboundedNormError, match="exceeds DBL_MAX"):
            norm(tiny, StepFunction(g1, (1e300,)))


def test_amemiya_restarts_where_the_objective_overflows():
    # modular(x) overflows at k = 1 although the norm is finite
    g = MeasureGrid((0.5, 2.0))
    f = MusielakField(g, (Power(2.0), Linear(1.5)))
    x = StepFunction(g, (0.8, -1.9))
    big = 1e200 * x
    assert modular(f, big) == INF
    assert math.isclose(amemiya_norm(f, big), 1e200 * amemiya_norm(f, x), rel_tol=1e-9)


# -- row-batched gauge ------------------------------------------------------------


def _block_rows(rng, f, count):
    """Nonzero step functions, some with zero cells or magnitudes 1e-300 to 1e300."""
    rows = []
    for _ in range(count):
        x = random_x(rng, f.grid)
        if rng.uniform() < 0.3:
            x = StepFunction(f.grid, tuple(v if rng.uniform() < 0.6 else 0.0 for v in x.values))
        if rng.uniform() < 0.2:
            x = float(rng.choice([1e-300, 1e-150, 1e150, 1e300])) * x
        if not x.is_zero():
            rows.append(x)
    return rows


def assert_block_matches_rows(f, xs, level, rtol):
    lo, hi = gauge_block(f, [[abs(v) for v in x.values] for x in xs], level, rtol)
    for x, l, h in zip(xs, lo.tolist(), hi.tolist()):
        assert 0.0 < l <= h
        width = assert_width(f, l, h, level, rtol)
        assert modular(f, l * x) <= level
        assert modular(f, h * x) > level
        l1, h1 = gauge(f, [abs(v) for v in x.values], level, rtol)
        assert l <= h1 and l1 <= h  # both brackets hold T
        assert abs(l - l1) <= width * max(l, l1) + math.ulp(max(l, l1))


@pytest.mark.parametrize("level", [0.3, 1.0, 1.05])
def test_gauge_block_matches_one_row_solves(level):
    rng = np.random.default_rng(61)
    for k in range(60):
        if k % 5 == 0:
            g = MeasureGrid(tuple(float(w) for w in rng.uniform(0.1, 3.0, int(rng.integers(1, 7)))))
            f = MusielakField.constant(g, Power(float(rng.uniform(1.0000001, 1.001))))
        else:
            f = random_field(rng, n=1 if k % 7 == 0 else None, allow_jump=True)
        xs = _block_rows(rng, f, 12)
        if xs:
            for rtol in (0.0, 1e-13, 1e-11):
                assert_block_matches_rows(f, xs, level, rtol)


def test_gauge_block_steps_off_blow_up_ends():
    # T = b/|x| exactly, where the closure is 0.5 but the modular is infinite;
    # a bounded closed end (finite there) and an indicator end stay feasible
    g = MeasureGrid((1.0, 1.0))
    blow = PiecewiseLinear((0.0, 1.0), (0.5,), INF)
    for other in (blow, PiecewiseLinear.closed((0.0, 1.0), (0.5,)), Indicator(1.0)):
        f = MusielakField(g, (blow, other))
        xs = [StepFunction(g, (v, w)) for v, w in ((1.0, 0.0), (0.5, 0.25), (4.0, 4.0), (0.0, 2.0))]
        assert_block_matches_rows(f, xs, 1.0, 0.0)
        assert_block_matches_rows(f, xs, 1.0, 1e-11)


def test_gauge_block_rejects_zero_rows():
    f = MusielakField.constant(unit_grid(), Power(2.0))
    with pytest.raises(PreconditionError):
        gauge_block(f, [[1.0, 0.0], [0.0, 0.0]])


@st.composite
def _extreme_block(draw):
    """A field of 1-4 cells with p near 1, blow-up ends and linear tails, and rows of
    magnitudes near 1e+-300."""
    n = draw(st.integers(1, 4))
    curves = []
    for _ in range(n):
        kinds = ["near-one", "power", "blow-up", "closed", "unbounded", "linear", "indicator"]
        kind = draw(st.sampled_from(kinds))
        if kind == "near-one":
            curves.append(Power(draw(st.floats(1.0, 1.001, exclude_min=True, exclude_max=True))))
        elif kind == "power":
            curves.append(Power(draw(st.floats(1.5, 4.0))))
        elif kind in ("blow-up", "closed"):
            knots, slopes = (0.0, draw(st.floats(0.25, 3.0))), (draw(st.floats(0.1, 2.0)),)
            if kind == "blow-up":
                curves.append(PiecewiseLinear(knots, slopes, INF))
            else:
                curves.append(PiecewiseLinear.closed(knots, slopes))
        elif kind == "unbounded":  # linear from a knot on, perhaps flat before it
            s0 = draw(st.sampled_from([0.0, 0.5]))
            knots, slopes = (0.0, draw(st.floats(0.25, 3.0)), INF), (s0, s0 + draw(st.floats(0.1, 2.0)))
            curves.append(PiecewiseLinear(knots, slopes))
        elif kind == "linear":
            curves.append(Linear(draw(st.floats(0.2, 3.0))))
        else:
            curves.append(Indicator(draw(st.floats(0.2, 3.0))))
    grid = MeasureGrid(tuple(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))))
    value = st.builds(
        lambda m, e, sign: sign * m * e,
        st.floats(0.5, 2.0),
        st.sampled_from([0.0, 1e-300, 1e-150, 1.0, 1e150, 1e300]),
        st.sampled_from([1.0, -1.0]),
    )
    row = st.lists(value, min_size=n, max_size=n).filter(lambda r: any(r))
    return MusielakField(grid, tuple(curves)), draw(st.lists(row, min_size=1, max_size=5))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_extreme_block())
def test_array_valued_gauge_loop_on_extreme_inputs(case):
    # a row's bracket does not depend on the rows solved with it, is the
    # one-row solve's, and keeps lo feasible; so a row's norm and unit-sphere
    # point are the same alone or in a block, bit for bit
    f, rows = case
    ax = np.abs(np.array(rows))
    lo, hi = gauge_block(f, ax)
    norms, points = luxemburg_norms(f, rows), unit_sphere_points(f, rows)
    for values, a, l, h, norm, point in zip(rows, ax, lo.tolist(), hi.tolist(), norms, points):
        one_lo, one_hi = gauge_block(f, [a])
        assert (one_lo[0], one_hi[0]) == (l, h)
        x = StepFunction(f.grid, tuple(values))
        assert modular(f, l * x) <= 1.0
        assert gauge(f, a.tolist()) == (l, h)
        lux, ame = luxemburg_norm(f, x), capped_amemiya(f, x)
        assert ame is None or lux <= ame <= (2.0 + 1e-8) * lux
        assert lux.hex() == norm.hex()
        assert [v.hex() for v in unit_sphere_point(f, x).values] == [v.hex() for v in point.tolist()]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_extreme_block())
def test_sup_oracle_agrees_with_both_gauge_norms_on_extreme_inputs(case):
    # the oracle's point is feasible, so its value is at most the Orlicz norm,
    # which Amemiya bounds from above; once it has converged it is that norm,
    # which bounds the Luxemburg norm from above
    f, rows = case
    for values in rows:
        x = StepFunction(f.grid, tuple(values))
        oracle = orlicz_norm_sup_oracle(f, x)
        lux, ame = luxemburg_norm(f, x), capped_amemiya(f, x)
        assert ame is None or oracle.value <= ame * (1.0 + 1e-9)
        if oracle.converged:
            assert lux <= oracle.value * (1.0 + 1e-9)


@st.composite
def _knotted_curve(draw):
    """A linear, indicator or piecewise-linear curve: closed, blow-up or unbounded end."""
    kind = draw(st.sampled_from(["linear", "indicator", "closed", "blow-up", "unbounded"]))
    if kind == "linear":
        return Linear(draw(st.floats(0.05, 4.0)))
    if kind == "indicator":
        return Indicator(draw(st.floats(0.05, 4.0)))
    segments = draw(st.integers(1, 4))
    steps = draw(st.lists(st.floats(0.05, 3.0), min_size=segments, max_size=segments))
    knots = list(itertools.accumulate(steps, initial=0.0))
    rises = draw(st.lists(st.floats(0.05, 2.0), min_size=segments, max_size=segments))
    slopes = list(itertools.accumulate(rises, initial=draw(st.sampled_from([0.0, 0.3]))))[:segments]
    if kind == "unbounded":
        knots[-1] = INF
        if slopes == [0.0]:
            slopes = [0.3]
        return PiecewiseLinear(tuple(knots), tuple(slopes))
    if kind == "blow-up":
        return PiecewiseLinear(tuple(knots), tuple(slopes), INF)
    return PiecewiseLinear.closed(tuple(knots), tuple(slopes))


@st.composite
def _knotted_case(draw):
    """A knotted field of 1-6 cells, rows of magnitudes up to 1e+307 and down to
    1e-300, and a level."""
    n = draw(st.integers(1, 6))
    curves = tuple(draw(_knotted_curve()) for _ in range(n))
    grid = MeasureGrid(tuple(draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n))))
    value = st.builds(
        lambda m, e, sign: sign * m * e,
        st.floats(0.5, 2.0),
        # near 1e307 the scale T can be subnormal, where the kernel's steps are coarse
        st.sampled_from([0.0, 1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e300, 1e307]),
        st.sampled_from([1.0, -1.0]),
    )
    rows = st.lists(st.lists(value, min_size=n, max_size=n).filter(any), min_size=1, max_size=4)
    return MusielakField(grid, curves), draw(rows), draw(st.sampled_from([0.3, 1.0, 1.05]))


def assert_exactly_feasible(f, lo, ax, level):
    """The exact modular of the float point fl(lo * |x_i|) is at most the level."""
    point = [lo * v for v in ax]
    assert exact_modular(f, point) <= Fraction(level), (f.curves, f.grid.weights, ax, lo, level)


@pytest.mark.parametrize("rtol", [1e-12, 0.0])
@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(case=_knotted_case())
def test_gauge_lo_is_exactly_feasible_on_knotted_fields(rtol, case):
    # no slack: the float point a solver returns lies in the level set itself
    f, rows, level = case
    ax = np.abs(np.array(rows))
    block_lo = gauge_block(f, ax, level, rtol)[0].tolist()
    sphere = unit_sphere_points(f, rows)
    for values, a, lo_b, u in zip(rows, ax.tolist(), block_lo, sphere.tolist()):
        assert_exactly_feasible(f, lo_b, a, level)
        assert_exactly_feasible(f, gauge(f, a, level, rtol)[0], a, level)
        point = unit_sphere_point(f, StepFunction(f.grid, tuple(values))).values
        assert exact_modular(f, point) <= 1
        assert exact_modular(f, u) <= 1


def test_row_batched_norms_match_scalar_ones():
    rng = np.random.default_rng(67)
    for _ in range(20):
        f = random_field(rng, n=int(rng.integers(1, 9)))
        xs = [random_x(rng, f.grid) for _ in range(6)] + [StepFunction.zero(f.grid)]
        norms = luxemburg_norms(f, [x.values for x in xs], 1e-11)
        for x, got in zip(xs, norms.tolist()):
            assert got == luxemburg_norm(f, x, 1e-11)
        ys = [x for x in xs if not x.is_zero()]
        for y, u in zip(ys, unit_sphere_points(f, [y.values for y in ys])):
            assert modular(f, StepFunction(f.grid, tuple(u.tolist()))) <= 1.0
            assert tuple(u.tolist()) == unit_sphere_point(f, y).values


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(case=_knotted_case())
def test_norms_are_one_sided_against_the_exact_references(case):
    # no slack: Luxemburg never above the exact norm, Amemiya never below
    # the exact infimum, whatever the tolerance
    f, rows, _ = case
    for values in rows:
        x = StepFunction(f.grid, tuple(values))
        lux, ame = exact_luxemburg(f, values), exact_amemiya(f, values)
        for tol in (0.0, 1e-14, 1e-12):
            try:
                assert luxemburg_norm(f, x, tol) <= lux, (f, values, tol)
                assert amemiya_norm(f, x, tol) >= ame, (f, values, tol)
            except UnboundedNormError:  # only for a norm near DBL_MAX
                assert ame > 1e307


@st.composite
def _integer_power_case(draw):
    """A field of 1-11 cells mixing power cells with p in 2..5 and knotted cells
    without blow-up ends, masses 1e+-50, and rows of magnitudes 1e+-100."""
    n = draw(st.integers(1, 11))
    knotted = _knotted_curve().filter(lambda c: getattr(c, "end_value", None) != INF)
    power = st.integers(2, 5).map(lambda p: Power(float(p)))
    curves = tuple(draw(st.one_of(power, knotted)) for _ in range(n))
    mass = st.builds(lambda m, e: m * e, st.floats(0.1, 4.0), st.sampled_from([1e-50, 1.0, 1e50]))
    grid = MeasureGrid(tuple(draw(st.lists(mass, min_size=n, max_size=n))))
    value = st.builds(
        lambda m, e, sign: sign * m * e,
        st.floats(0.5, 2.0),
        st.sampled_from([0.0, 1e-100, 1e-5, 1.0, 1e5, 1e100]),
        st.sampled_from([1.0, -1.0]),
    )
    rows = st.lists(st.lists(value, min_size=n, max_size=n).filter(any), min_size=1, max_size=3)
    return MusielakField(grid, curves), draw(rows)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=_integer_power_case())
def test_luxemburg_is_exactly_at_most_the_norm_on_integer_power_fields(case):
    # no slack: N <= |x| exactly, since the modular is convex with rho(0) = 0 and,
    # in exact rationals, rho(|x|/N) >= 1 or |x|/N reaches a closed domain end
    # (below N every point is then past the end)
    f, rows = case
    ends = [c.params().b for c in f.curves]
    for values in rows:
        x = StepFunction(f.grid, tuple(values))
        for tol in (0.0, 1e-14, 1e-12):
            norm = Fraction(luxemburg_norm(f, x, tol))
            point = [Fraction(abs(v)) / norm for v in values]
            assert exact_modular(f, point) >= 1 or any(u >= b for u, b in zip(point, ends)), (
                f, values, tol,
            )


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(case=st.one_of(_knotted_case().map(lambda c: c[:2]), _extreme_block()))
def test_gauge_solvers_never_call_the_per_cell_modular(case):
    # every comparison with the level is decided on the compiled kernel: no curve's value is read
    f, rows = case
    xs = [StepFunction(f.grid, tuple(values)) for values in rows]
    ax = np.abs(np.array(rows))
    refuse = AssertionError("a curve's value was called")

    def solve(solver, *args):
        try:
            solver(*args)
        except UnboundedNormError:  # a norm past DBL_MAX, found by the kernel solve
            pass

    with contextlib.ExitStack() as stack:
        for family in (Power, Linear, Indicator, PiecewiseLinear):
            stack.enter_context(mock.patch.object(family, "value", side_effect=refuse))
        solve(gauge_block, f, ax, 0.3, 0.0)
        solve(luxemburg_norms, f, rows, 0.0)
        solve(unit_sphere_points, f, rows)
        for x, a in zip(xs, ax.tolist()):
            solve(gauge, f, a, 1.05, 0.0)
            solve(luxemburg_norm, f, x, 0.0)
            solve(unit_sphere_point, f, x)
            solve(amemiya_norm, f, x, 0.0)


# -- open gauge steps decided by convexity ---------------------------------------


@st.composite
def _settle_case(draw):
    """A field of 1-11 power and knotted cells (blow-up, closed and unbounded
    ends) with masses up to 1e+-200, rows of magnitudes 1e-200 to 1e307 (the
    largest put the scale below the normal range), a level and a tolerance."""
    n = draw(st.integers(1, 11))
    curves = []
    for _ in range(n):
        kind = draw(st.sampled_from(["power", "near-one", "knotted", "knotted"]))
        if kind == "power":
            curves.append(Power(draw(st.floats(1.05, 5.0))))
        elif kind == "near-one":
            curves.append(Power(draw(st.floats(1.0, 1.001, exclude_min=True))))
        else:
            curves.append(draw(_knotted_curve()))
    scale = st.sampled_from([1e-200, 1.0, 1.0, 1e200])
    mass = st.builds(lambda m, e: m * e, st.floats(0.1, 4.0), scale)
    grid = MeasureGrid(tuple(draw(st.lists(mass, min_size=n, max_size=n))))
    value = st.builds(
        lambda m, e: m * e,
        st.floats(0.5, 2.0),
        st.sampled_from([0.0, 1e-200, 1e-5, 1.0, 1.0, 1e5, 1e200, 1e307]),
    )
    rows = st.lists(st.lists(value, min_size=n, max_size=n).filter(any), min_size=1, max_size=6)
    # levels outside [2**-1000, 2**1000] leave every open step to the evaluated path
    level = draw(st.sampled_from([1.0, 0.37, 2.0**-1020, 2.0**1020]))
    rtol = draw(st.sampled_from([0.0, 1e-13, 1e-12, 1e-10]))
    return MusielakField(grid, tuple(curves)), np.array(draw(rows)), level, rtol


def _brackets_or_error(f, rows, level, rtol):
    try:
        lo, hi = gauge_block(f, rows, level, rtol)
    except MospacesError as exc:
        return type(exc), str(exc)
    return [v.hex() for v in lo.tolist()], [v.hex() for v in hi.tolist()]


def _settle_edge_cases():
    """Open steps at a bounded end, at a blow-up end and at a subnormal scale."""
    g1, g2 = MeasureGrid((1.0,)), MeasureGrid((1.0, 1.0))
    closed = PiecewiseLinear.closed((0.0, 1.0), (1.0,))  # the closure is 1 at its end
    blow = PiecewiseLinear((0.0, 1.0), (1.0,), INF)
    return [
        (MusielakField(g1, (closed,)), [[1.0], [2.0], [0.5]]),
        (MusielakField(g1, (blow,)), [[1.0], [3.0]]),
        (MusielakField(g2, (closed, Power(2.0))), [[1.0, 1e-9], [1.0, 0.0], [0.0, 1.0]]),
        (MusielakField(g2, (Linear(1.0), Linear(3.0))), [[1e307, 1e307], [1e300, 3e307]]),
    ]


@pytest.mark.parametrize("rtol", [0.0, 1e-13, 1e-10, 2.0, 3.0])
@pytest.mark.parametrize("level", [1.0, 0.37])
def test_settle_bound_keeps_the_brackets_at_ends_and_subnormal_scales(level, rtol):
    # rtol 2 and 3 are capped at 1, where the quarter steps close a bracket
    for f, rows in _settle_edge_cases():
        got = _brackets_or_error(f, np.array(rows), level, rtol)
        with mock.patch.object(musielak, "_settle", settle_reference):
            assert _brackets_or_error(f, np.array(rows), level, rtol) == got, (f, rows)


@pytest.mark.parametrize("rtol", [1e-10, 2.0])
@pytest.mark.parametrize("level", [1.0, 0.37])
def test_settle_bound_leaves_subnormal_products_to_the_kernel(level, rtol):
    # the scale t is normal but t*x is subnormal: at level 1 the closure at the
    # start is the level exactly, and steps of 1e-10 round back to the same
    # product, so neither step is below or above it
    f = MusielakField(MeasureGrid((2.0**50,)), (Linear(2.0**1000),))
    rows = np.array([[2.0**-100], [3 * 2.0**-100]])
    got = _brackets_or_error(f, rows, level, rtol)
    with mock.patch.object(musielak, "_settle", settle_reference):
        assert _brackets_or_error(f, rows, level, rtol) == got


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(case=_settle_case())
def test_settle_bound_gives_the_brackets_of_evaluated_steps(case):
    # deciding an open step's quarter steps by convexity, and evaluating
    # them, give the same brackets bit for bit and the same errors
    f, rows, level, rtol = case
    got = _brackets_or_error(f, rows, level, rtol)
    with mock.patch.object(musielak, "_settle", settle_reference):
        assert _brackets_or_error(f, rows, level, rtol) == got


def test_a_level_below_the_kernels_error_bound_is_a_precondition_failure():
    # the mass 1e200 makes the kernel's abs about 2e-123, far above the level:
    # no point could be certified feasible, and the edge steps of lo ran forever
    f = MusielakField(MeasureGrid((2.6e-200, 1e-200, 1e200)), (Power(2.0),) * 3)
    with pytest.raises(PreconditionError, match="below the kernel's error bound"):
        gauge_block(f, [[0.0, 1e-200, 0.0]], 2.0**-1020, 0.0)
    lo, hi = gauge_block(f, [[0.0, 1e-200, 0.0]], f._kernel.abs * 4.0, 0.0)
    assert 0.0 < lo[0] <= hi[0]


def _closure_calls():
    """The kernel's closure, patched to count its calls and keep their arguments."""
    closure = musielak._FieldKernel.closure
    return mock.patch.object(musielak._FieldKernel, "closure", autospec=True, side_effect=closure)


def test_a_converging_gauge_evaluates_the_closure_once_per_step():
    # at rtol 1e-11 the quarter steps around the last, open point are far
    # outside the kernel's error bound, so convexity decides them; the
    # reference evaluates them in a second closure call
    rng = np.random.default_rng(71)
    g = MeasureGrid(tuple(float(w) for w in rng.uniform(0.1, 3.0, 16)))
    f = MusielakField(g, tuple(Power(float(p)) for p in rng.uniform(1.05, 5.0, 16)))
    rows = np.abs(rng.standard_normal((30, 16))).tolist()

    def calls(settle):
        steps = mock.patch.object(musielak, "_settle", wraps=settle)
        counts, brackets = [], []
        for row in rows:
            with _closure_calls() as c, steps as s:
                brackets.append(gauge(f, row, 1.0, 1e-11))
            counts.append((c.call_count, s.call_count))
        return counts, brackets

    counts, brackets = calls(musielak._settle)
    assert all(c == s for c, s in counts)
    reference, same = calls(settle_reference)
    assert same == brackets
    assert sum(c for c, _ in reference) > sum(c for c, _ in counts)


def test_edge_checks_evaluate_only_rows_inside_the_domain():
    # a row past the domain edge is above the level with no closure evaluation
    g = MeasureGrid((1.0, 1.0))
    f = MusielakField(g, (PiecewiseLinear.closed((0.0, 1.0), (0.25,)), Indicator(2.0)))
    kernel = f._kernel
    rows = np.array([[1.0, 1.0], [2.0, 0.0], [0.5, 1.0], [0.0, 3.0]])
    t = np.array([1.0, 1.0, 1.5, 1.0])
    beyond = kernel.beyond(rows, t)
    assert beyond.tolist() == [False, True, False, True]
    want = np.where(beyond, 1, kernel.side(kernel.closure(rows, t)[0], 1.0))
    with _closure_calls() as c:
        assert musielak._certain(kernel, rows, t, 1.0).tolist() == want.tolist()
    (_, seen, _), _ = c.call_args
    assert seen.tolist() == rows[~beyond].tolist()


def test_row_batched_norms_raise_at_an_unbounded_row_as_the_scalar_norm():
    # the second row's gauge scale is subnormal, so its norm 1/hi overflows
    g = MeasureGrid((1e10, 3e9))
    f = MusielakField.constant(g, Linear(1.0))
    rows = [(1.0, -2.0), (1e300, -7e299), (0.0, 0.0)]
    with pytest.raises(UnboundedNormError) as scalar:
        luxemburg_norm(f, StepFunction(g, rows[1]))
    with pytest.raises(UnboundedNormError) as block:
        luxemburg_norms(f, rows)
    assert str(block.value) == str(scalar.value)
    assert luxemburg_norms(f, [rows[0], rows[2]]).tolist() == [
        luxemburg_norm(f, StepFunction(g, rows[0])),
        0.0,
    ]

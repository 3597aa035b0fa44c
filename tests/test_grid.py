import math

import pytest
from hypothesis import given, strategies as st

from mospaces import (
    GridMismatchError,
    MeasureGrid,
    StepFunction,
    UnknownCellError,
    integrate,
    measure,
    restrict,
)


def test_integrate_zero():
    g = MeasureGrid((1.0, 1.0))
    assert integrate(g, StepFunction.zero(g)) == 0.0


def test_integrate_finite_sum():
    g = MeasureGrid((1.0, 1.0))
    assert integrate(g, StepFunction(g, (3.0, 1.0))) == 4.0


def test_integrate_constant_times_mass():
    g = MeasureGrid((0.5, 0.5))
    assert integrate(g, StepFunction(g, (2.0, 2.0))) == 2.0


def test_measure_examples():
    g = MeasureGrid((1.0, 1.0))
    assert measure(g, frozenset()) == 0.0
    assert measure(g, g.cell_set()) == 2.0
    g2 = MeasureGrid((0.25, 0.75))
    assert measure(g2, {"c1"}) == 0.75


def test_restrict_examples():
    g = MeasureGrid((1.0, 1.0))
    x = StepFunction(g, (3.0, 1.0))
    assert restrict(x, {"c0"}).values == (3.0, 0.0)
    assert restrict(x, g.cell_set()).values == (3.0, 1.0)
    assert restrict(x, frozenset()).values == (0.0, 0.0)


def test_grid_rejects_bad_weights():
    with pytest.raises(ValueError):
        MeasureGrid((1.0, 0.0))
    with pytest.raises(ValueError):
        MeasureGrid((1.0, -2.0))
    with pytest.raises(ValueError):
        MeasureGrid((1.0, math.inf))
    with pytest.raises(ValueError):
        MeasureGrid((1.0, 1.0), ("a", "a"))


def test_step_function_rejects_mismatch():
    g = MeasureGrid((1.0, 1.0))
    with pytest.raises(GridMismatchError):
        StepFunction(g, (1.0,))
    with pytest.raises(ValueError):
        StepFunction(g, (1.0, math.nan))
    with pytest.raises(UnknownCellError):
        restrict(StepFunction.zero(g), {"nope"})


def test_step_function_arithmetic_is_cellwise_on_one_grid():
    g = MeasureGrid((1.0, 1.0))
    x = StepFunction(g, (3.0, -1.5))
    assert abs(x).values == (3.0, 1.5)
    assert (-x).values == (-3.0, 1.5)
    assert (x + x).values == (6.0, -3.0)
    with pytest.raises(GridMismatchError, match="different grids"):
        x + StepFunction(MeasureGrid((1.0, 2.0)), (1.0, 1.0))


def test_additivity_exact_on_dyadic():
    g = MeasureGrid((0.5, 2.0, 1.0, 0.25))
    x = StepFunction(g, (3.0, -1.5, 4.0, 8.0))
    a, b = {"c0", "c2"}, {"c1", "c3"}
    lhs = integrate(g, restrict(x, a)) + integrate(g, restrict(x, b))
    assert lhs == integrate(g, x)


@given(
    st.lists(st.floats(0.1, 10.0), min_size=1, max_size=8),
    st.lists(st.floats(-50.0, 50.0), min_size=8, max_size=8),
    st.sets(st.integers(0, 7)),
)
def test_additivity_property(weights, values, picks):
    g = MeasureGrid(tuple(weights))
    n = len(g)
    x = StepFunction(g, tuple(values[:n]))
    a = {g.ids[i] for i in picks if i < n}
    b = set(g.ids) - a
    lhs = integrate(g, restrict(x, a)) + integrate(g, restrict(x, b))
    rhs = integrate(g, x)
    assert math.isclose(lhs, rhs, rel_tol=1e-14, abs_tol=1e-12)


@given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=8), st.data())
def test_measure_monotone_additive(weights, data):
    g = MeasureGrid(tuple(weights))
    ids = list(g.ids)
    a = set(data.draw(st.sets(st.sampled_from(ids))))
    b = set(data.draw(st.sets(st.sampled_from(ids)))) - a
    assert measure(g, a) <= measure(g, a | b) + 1e-15
    assert math.isclose(
        measure(g, a) + measure(g, b), measure(g, a | b), rel_tol=1e-14, abs_tol=1e-12
    )

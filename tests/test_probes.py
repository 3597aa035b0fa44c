import math

import pytest

from mospaces import (
    ConditionProbeResult,
    IntSpaceSpec,
    Linear,
    MeasureGrid,
    MusielakField,
    PreconditionError,
    Slice,
    StepFunction,
    classify,
    daugavet_condition_probe,
    int_dual_norm,
    luxemburg_norm,
    roughness_probe,
    slice_diameter_lb,
    weighted_l1_norm,
    wint_norm,
    witness_int,
)
from mospaces.reports import FORM_L1


def l1_oracles(grid, w=None):
    w = w or (1.0,) * len(grid)
    primal = lambda y: weighted_l1_norm(y, w)
    dual = lambda y: max(abs(t) / u for t, u in zip(y.values, w))
    return primal, dual


def test_slice_diameter_two_in_l1():
    g = MeasureGrid((1.0, 1.0))
    primal, dual = l1_oracles(g)
    f = StepFunction(g, (1.0, 1.0))
    lb = slice_diameter_lb(primal, dual, Slice(f, 0.1), samples=300, seed=1)
    assert lb == 2.0


def test_slice_diameter_small_on_smooth_ball():
    g = MeasureGrid((1.0, 1.0))

    def primal(y):
        return math.sqrt(math.fsum(t * t * m / 2.0 for t, m in zip(y.values, g.weights)))

    def dual(f):
        return math.sqrt(math.fsum(2.0 * t * t * m for t, m in zip(f.values, g.weights)))

    f = StepFunction(g, (2.0**-0.5, 0.0))
    assert math.isclose(dual(f), 1.0)
    lb = slice_diameter_lb(primal, dual, Slice(f, 0.05), samples=3000, seed=2)
    # cap of depth eps in a round geometry: diameter 2*sqrt(2 eps - eps^2)
    cap = 2.0 * math.sqrt(2 * 0.05 - 0.05**2)
    assert lb <= cap + 1e-9
    assert lb < 1.9


def test_slice_becomes_ball_as_depth_grows():
    g = MeasureGrid((1.0, 1.0))
    primal, dual = l1_oracles(g)
    f = StepFunction(g, (1.0, 1.0))
    lb = slice_diameter_lb(primal, dual, Slice(f, 0.999), samples=500, seed=3)
    assert 2.0 <= lb <= 2.0 + 1e-9  # disjoint atoms give exactly 2; ulps above allowed


def test_slice_empty_raises():
    g = MeasureGrid((1.0, 1.0))

    # a shrunken ball under a functional the dual oracle vouches for keeps
    # every pairing far below 1: the slice stays empty and must be reported
    def primal(y):
        return 1000.0 * math.sqrt(math.fsum(t * t for t in y.values))

    dual = lambda f: 1.0
    f = StepFunction(g, (math.sqrt(0.5), math.sqrt(0.5)))
    with pytest.raises(PreconditionError):
        slice_diameter_lb(primal, dual, Slice(f, 1e-9), samples=50, seed=4)


def test_slice_rejects_unnormalised_functional():
    g = MeasureGrid((1.0, 1.0))
    primal, dual = l1_oracles(g)
    with pytest.raises(PreconditionError):
        slice_diameter_lb(primal, dual, Slice(StepFunction(g, (2.0, 2.0)), 0.1))


def test_roughness_two_in_l1_disjoint_direction():
    g = MeasureGrid((1.0, 1.0))
    primal, _ = l1_oracles(g)
    x = StepFunction(g, (1.0, 0.0))
    q = roughness_probe(primal, x, samples=50, seed=5)
    assert q >= 2.0 - 1e-9


def test_roughness_small_on_smooth_norm():
    g = MeasureGrid((1.0, 1.0))

    def primal(y):
        return math.sqrt(math.fsum(t * t * m / 2.0 for t, m in zip(y.values, g.weights)))

    x = StepFunction(g, (math.sqrt(2.0), 0.0))
    assert math.isclose(primal(x), 1.0)
    q = roughness_probe(primal, x, samples=300, seed=6)
    assert q < 1.9


def test_daugavet_condition_probe_l1():
    g = MeasureGrid((1.0, 1.0))
    primal, dual = l1_oracles(g)
    x = StepFunction(g, (1.0, 0.0))
    f = StepFunction(g, (1.0, 1.0))
    res = daugavet_condition_probe(primal, dual, x, f, eps=0.2, budget=200, seed=7)
    assert res.found


def test_daugavet_condition_probe_inconclusive_on_smooth():
    # generic pair: the functional does not norm x, so slice members sit far
    # from x and a smooth ball keeps |x+y| well below 2
    g = MeasureGrid((1.0, 1.0))

    def primal(y):
        return math.sqrt(math.fsum(t * t * m / 2.0 for t, m in zip(y.values, g.weights)))

    def dual(f):
        return math.sqrt(math.fsum(2.0 * t * t * m for t, m in zip(f.values, g.weights)))

    x = StepFunction(g, (math.sqrt(2.0), 0.0))
    f = StepFunction(g, (0.0, 1.0 / math.sqrt(2.0)))
    assert math.isclose(dual(f), 1.0)
    res = daugavet_condition_probe(primal, dual, x, f, eps=0.1, budget=400, seed=8)
    assert not res.found
    assert "inconclusive" in res.note


def test_daugavet_condition_probe_trivial_depth():
    g = MeasureGrid((1.0, 1.0))
    primal, dual = l1_oracles(g)
    x = StepFunction(g, (1.0, 0.0))
    f = StepFunction(g, (1.0, 1.0))
    res = daugavet_condition_probe(primal, dual, x, f, eps=1.0, budget=50, seed=9)
    assert res.found  # y = x already qualifies when f(x) > 0


def test_probe_consistent_with_failure_certificate():
    # at the certificate's (x, F, eps) the slice condition must stay false
    g = MeasureGrid((1.0,) * 4)
    spec = IntSpaceSpec(g, g.cell_set(), (1.0,) * 4, (1.0,) * 4)
    cert = witness_int(spec, samples=300, seed=10)
    primal = lambda y: wint_norm(spec, y)
    dual = lambda f: int_dual_norm(spec, f)
    res = daugavet_condition_probe(
        primal, dual, cert.x, cert.functional, cert.epsilon, budget=900, seed=11
    )
    assert not res.found


def test_roughness_on_l1_classified_field():
    g = MeasureGrid((0.5, 2.0))
    f = MusielakField(g, (Linear(1.0), Linear(0.5)))
    rep = classify(f)
    assert rep.canonical_form == FORM_L1
    primal = lambda y: luxemburg_norm(f, y)
    x = StepFunction.atom(g, "c0", 2.0)  # norm 1 under weight 0.5 mass
    assert math.isclose(primal(x), 1.0, rel_tol=1e-9)
    q = roughness_probe(primal, x, samples=40, seed=12)
    assert q >= 2.0 - 1e-6


def _counting(norm):
    def oracle(y):
        oracle.calls += 1
        return norm(y)

    oracle.calls = 0
    return oracle


def test_daugavet_condition_probe_scores_each_candidate_once():
    # at most |y| and |x + y| per scored candidate, plus the unit check of x;
    # the results are the ones the probe gave when it normed every pool and
    # ascent candidate twice
    g = MeasureGrid((1.0, 1.0))
    primal = _counting(
        lambda y: math.sqrt(math.fsum(t * t * m / 2.0 for t, m in zip(y.values, g.weights)))
    )
    dual = lambda f: math.sqrt(math.fsum(2.0 * t * t * m for t, m in zip(f.values, g.weights)))
    x = StepFunction(g, (math.sqrt(2.0), 0.0))
    f = StepFunction(g, (0.0, 1.0 / math.sqrt(2.0)))
    res = daugavet_condition_probe(primal, dual, x, f, eps=0.1, budget=40, seed=8)
    assert res == ConditionProbeResult(
        False, None, 40, "not found within budget; inconclusive"
    )
    assert primal.calls <= 1 + 2 * res.evaluations

    g3 = MeasureGrid((1.0, 1.0, 1.0))
    primal = _counting(lambda y: math.fsum(abs(t) ** 1.5 for t in y.values) ** (1 / 1.5))
    dual = lambda f: math.fsum(abs(t) ** 3.0 for t in f.values) ** (1 / 3.0)
    f = StepFunction(g3, (0.3, 1.0, -0.4))
    f = (1.0 / dual(f)) * f
    x = StepFunction(g3, (1.0, 0.0, 0.0))
    res = daugavet_condition_probe(primal, dual, x, f, eps=0.15, budget=300, seed=3)
    hit = StepFunction(g3, (0.5529338374831586, 0.6907698989773278, -0.060074835390510964))
    assert res == ConditionProbeResult(True, hit, 52, "condition witnessed")
    assert primal.calls <= 1 + 2 * res.evaluations

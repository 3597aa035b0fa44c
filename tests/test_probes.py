import functools
import math
import tracemalloc

import numpy as np
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
    amemiya_norm,
    classify,
    conjugate_field,
    daugavet_condition_probe,
    int_dual_norm,
    luxemburg_norm,
    per_row,
    roughness_probe,
    slice_diameter_lb,
    sum_dual_norm,
    weighted_l1_norm,
    wint_norm,
    witness_int,
    wsum_norm,
)
from mospaces.musielak import luxemburg_norms
from mospaces.reports import FORM_L1

from helpers import (
    condition_probe_reference,
    random_field,
    random_int_spec,
    random_sum_spec,
    random_x,
    roughness_reference,
    slice_diameter_reference,
)


def l1_norms(grid, w=None):
    """The weighted L1 norm and its dual, each a norm of one step function."""
    w = w or (1.0,) * len(grid)
    primal = lambda y: weighted_l1_norm(y, w)
    dual = lambda y: max(abs(t) / u for t, u in zip(y.values, w))
    return primal, dual


def l1_oracles(grid, w=None):
    """``l1_norms`` as the row norms the probes take."""
    return tuple(per_row(norm, grid) for norm in l1_norms(grid, w))


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
    lb = slice_diameter_lb(per_row(primal, g), per_row(dual, g), Slice(f, 0.05), samples=3000, seed=2)
    # cap of depth eps in a round geometry: diameter 2*sqrt(2 eps - eps^2)
    cap = 2.0 * math.sqrt(2 * 0.05 - 0.05**2)
    assert lb <= cap + 1e-9
    assert lb < 1.9


def test_slice_becomes_ball_as_depth_grows():
    g = MeasureGrid((1.0, 1.0))
    primal, dual = l1_oracles(g)
    f = StepFunction(g, (1.0, 1.0))
    lb = slice_diameter_lb(primal, dual, Slice(f, 0.999), samples=500, seed=3)
    assert lb == 2.0  # disjoint atoms give 2; ulps above it are capped


def test_slice_empty_raises():
    g = MeasureGrid((1.0, 1.0))

    # a shrunken ball under a functional the dual oracle vouches for keeps
    # every pairing far below 1: the slice stays empty and must be reported
    def primal(y):
        return 1000.0 * math.sqrt(math.fsum(t * t for t in y.values))

    dual = lambda f: 1.0
    f = StepFunction(g, (math.sqrt(0.5), math.sqrt(0.5)))
    with pytest.raises(PreconditionError):
        slice_diameter_lb(per_row(primal, g), per_row(dual, g), Slice(f, 1e-9), samples=50, seed=4)


def test_slice_rejects_unnormalised_functional():
    g = MeasureGrid((1.0, 1.0))
    primal, dual = l1_oracles(g)
    with pytest.raises(PreconditionError):
        slice_diameter_lb(primal, dual, Slice(StepFunction(g, (2.0, 2.0)), 0.1))


def test_probes_refuse_points_off_their_unit_spheres():
    g = MeasureGrid((1.0, 1.0))
    primal, dual = l1_oracles(g)
    unit, long = StepFunction(g, (1.0, 0.0)), StepFunction(g, (2.0, 0.0))
    with pytest.raises(PreconditionError, match="roughness probe needs a unit vector"):
        roughness_probe(primal, long, samples=10)
    with pytest.raises(PreconditionError, match="probe needs a unit point"):
        daugavet_condition_probe(primal, dual, long, unit, 0.1, budget=10)
    with pytest.raises(PreconditionError, match="probe needs a norm-one functional"):
        daugavet_condition_probe(primal, dual, unit, long, 0.1, budget=10)


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
    q = roughness_probe(per_row(primal, g), x, samples=300, seed=6)
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
    res = daugavet_condition_probe(per_row(primal, g), per_row(dual, g), x, f, eps=0.1, budget=400, seed=8)
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
        per_row(primal, g), per_row(dual, g), cert.x, cert.functional, cert.epsilon, budget=900, seed=11
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
    q = roughness_probe(per_row(primal, g), x, samples=40, seed=12)
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
    res = daugavet_condition_probe(per_row(primal, g), per_row(dual, g), x, f, eps=0.1, budget=40, seed=8)
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
    res = daugavet_condition_probe(per_row(primal, g3), per_row(dual, g3), x, f, eps=0.15, budget=300, seed=3)
    hit = StepFunction(g3, (0.5529338374831586, 0.6907698989773278, -0.060074835390510964))
    assert res == ConditionProbeResult(True, hit, 52, "condition witnessed")
    assert primal.calls <= 1 + 2 * res.evaluations


# -- row-block probes against the one-point loops ----------------------------


def _luxemburg_oracles(f):
    """(Luxemburg row norm, the same norm of one step function)."""
    return functools.partial(luxemburg_norms, f), functools.partial(luxemburg_norm, f)


def _unit(norm, y):
    return (1.0 / norm(y)) * y


def _slice_case(rng, f, dual):
    """A dual-norm-one functional peaked on one cell, so the slice is not empty."""
    vals = rng.uniform(-0.2, 0.2, len(f.grid)) / len(f.grid)
    vals[int(rng.integers(0, len(f.grid)))] = 3.0
    return Slice(_unit(dual, StepFunction(f.grid, tuple(vals))), 0.5)


@pytest.mark.parametrize("n", [1, 8, 16, 200])
def test_block_probes_match_the_scalar_references(n):
    rng = np.random.default_rng(71 + n)
    scales = (0.5, 0.1, 0.02, 0.004) if n < 200 else (0.004,)
    for k in range(3 if n < 200 else 1):
        f = random_field(rng, n=n)
        block, plain = _luxemburg_oracles(f)
        x = _unit(plain, random_x(rng, f.grid))
        want = roughness_reference(plain, x, scales, samples=60, seed=k)
        assert roughness_probe(per_row(plain, f.grid), x, scales, samples=60, seed=k) == want
        assert abs(roughness_probe(block, x, scales, samples=60, seed=k) - want) <= 1e-9

        dual = functools.partial(amemiya_norm, conjugate_field(f))
        s = _slice_case(rng, f, dual)
        samples = n + 30 if n < 200 else n + 6
        want = slice_diameter_reference(plain, dual, s, samples, seed=k)
        dual_rows = per_row(dual, f.grid)
        assert slice_diameter_lb(per_row(plain, f.grid), dual_rows, s, samples, seed=k) == want
        assert abs(slice_diameter_lb(block, dual_rows, s, samples, seed=k) - want) <= 1e-9


def test_probe_rows_match_one_row_luxemburg_norms():
    # the rows the roughness probe builds, x + t*h and x - t*h, normed as a
    # block and one at a time
    rng = np.random.default_rng(73)
    for n in (1, 2, 5, 8, 16, 200):
        f = random_field(rng, n=n)
        x = random_x(rng, f.grid)
        hs = rng.standard_normal((6, n))
        rows = np.concatenate([x.values + t * hs for t in (0.5, 0.004)] + [x.values - 0.1 * hs])
        got = luxemburg_norms(f, rows)
        for row, g in zip(rows, got.tolist()):
            want = luxemburg_norm(f, StepFunction(f.grid, tuple(row)))
            assert abs(g - want) <= 2.5e-12 * want


def test_roughness_scales_are_checked_before_any_norm():
    g = MeasureGrid((1.0, 1.0))
    primal = _counting(l1_oracles(g)[0])
    x = StepFunction(g, (1.0, 0.0))
    for scales in ((0.5, math.nan), (math.inf,), (0.1, -1.0), (0.0,)):
        with pytest.raises(PreconditionError, match="finite and positive"):
            roughness_probe(primal, x, scales, samples=20)
    assert primal.calls == 0


def test_roughness_norms_each_atom_direction_once():
    # -e_i repeats the quotients of e_i, so only e_i is tried; the draws still
    # start after 2n + 1 directions, so the result is the reference's
    g = MeasureGrid((1.0, 2.0, 0.5))
    primal = _counting(l1_norms(g)[0])
    x = StepFunction(g, (1.0, 0.0, 0.0))
    scales = (0.5, 0.1)
    q = roughness_probe(per_row(primal, g), x, scales, samples=2 * 3 + 1 + 4, seed=2)
    # |x|, then per direction (3 atoms, the sign pattern, 4 draws) |h| and |x +- t h|
    assert primal.calls == 1 + (3 + 1 + 4) * (1 + 2 * len(scales))
    # the reference loop finds 2.0000000000000018 here; the probe caps it at 2
    assert q == min(roughness_reference(l1_norms(g)[0], x, scales, samples=11, seed=2), 2.0)


def test_condition_probe_eps_is_checked_before_any_norm():
    g = MeasureGrid((1.0, 1.0))
    primal, dual = (_counting(o) for o in l1_oracles(g))
    x, f = StepFunction(g, (1.0, 0.0)), StepFunction(g, (1.0, 1.0))
    for eps in (math.nan, math.inf, 0.0, -0.5):
        with pytest.raises(PreconditionError, match="finite and positive"):
            daugavet_condition_probe(primal, dual, x, f, eps, budget=20)
    assert primal.calls == dual.calls == 0


def test_roughness_probe_memory_stays_within_a_block():
    # n + 1 = 2049 directions at n = 2048: all at once they would take 32 MiB;
    # a cheap row oracle leaves the probe's own blocks to measure
    rng = np.random.default_rng(79)
    g = MeasureGrid(tuple(float(w) for w in rng.uniform(0.5, 2.0, 2048)))
    w = np.array(g.weights)
    oracle = lambda ys: np.abs(ys) @ w
    x = _unit(lambda y: weighted_l1_norm(y, (1.0,) * len(g)), StepFunction(g, tuple(rng.standard_normal(len(g)))))
    tracemalloc.start()
    try:
        q = roughness_probe(oracle, x, (0.5, 0.1, 0.02, 0.004), samples=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q > 1.99  # L1 is rough everywhere
    assert peak < 2 * 2**20


def test_condition_probe_matches_its_stepfunction_reference():
    # the pool built as rows searches as the pool built by StepFunction
    # arithmetic did, on block Luxemburg oracles and on weighted-spec oracles
    rng = np.random.default_rng(83)
    cases = []  # (grid, primal, dual, primal row norm)
    for n in (1, 3, 6):
        f = random_field(rng, n=n)
        dual = functools.partial(amemiya_norm, conjugate_field(f))
        block, plain = _luxemburg_oracles(f)
        cases.append((f.grid, plain, dual, block))
    for n in (2, 4, 7):
        for spec, norm, dual in (
            (random_int_spec(rng, n, gamma_all=False), wint_norm, int_dual_norm),
            (random_sum_spec(rng, n), wsum_norm, sum_dual_norm),
        ):
            primal = functools.partial(norm, spec)
            cases.append((spec.grid, primal, functools.partial(dual, spec), per_row(primal, spec.grid)))
    found = 0
    for grid, primal, dual, rows in cases:
        x = _unit(primal, StepFunction(grid, tuple(rng.standard_normal(len(grid)))))
        for f in (x, StepFunction(grid, tuple(rng.standard_normal(len(grid))))):
            f = _unit(dual, f)
            for seed, (eps, budget) in enumerate(((0.05, 60), (0.3, 200), (1.0, 10))):
                want = condition_probe_reference(primal, dual, x, f, eps, budget, seed)
                assert daugavet_condition_probe(rows, per_row(dual, grid), x, f, eps, budget, seed) == want
                found += want.found
    assert 0 < found < 6 * len(cases)  # both outcomes are compared

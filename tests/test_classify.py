import math

import numpy as np
import pytest

from mospaces import (
    DAUGAVET,
    FORM_INTERSECTION,
    FORM_L1,
    FORM_LINF,
    FORM_OPLUS,
    FailureCertificate,
    Indicator,
    Linear,
    MeasureGrid,
    MusielakField,
    NOT_DAUGAVET,
    NonsquareWitness,
    PiecewiseLinear,
    Power,
    PreconditionError,
    StepFunction,
    amemiya_norm,
    build_nonsquare_witness,
    classify,
    classify_orlicz,
    conjugate_field,
    find_nonsquare_setup,
    luxemburg_norm,
    modular,
    no_nonsquare_probe,
    partition,
    verify_nonsquare,
    weights,
)
from helpers import nonsquare_reference, random_field, random_x

INF = math.inf


def unit_grid(n=2):
    return MeasureGrid((1.0,) * n)


# -- decision tree -------------------------------------------------------------


def test_nakano_all_ones_is_weighted_l1():
    rep = classify(MusielakField.nakano(unit_grid(), (1.0, 1.0)))
    assert rep.verdict == DAUGAVET and rep.canonical_form == FORM_L1
    assert rep.dual_form == "weighted-Linf(1/w)"


def test_nakano_all_twos_gets_nonsquare_witness():
    rep = classify(MusielakField.nakano(unit_grid(), (2.0, 2.0)), samples=300, seed=1)
    assert rep.verdict == NOT_DAUGAVET
    assert isinstance(rep.witness, NonsquareWitness)
    assert rep.witness.verification.passed


def test_nakano_mixed_one_inf_is_oplus():
    rep = classify(MusielakField.nakano(unit_grid(), (1.0, INF)))
    assert rep.verdict == DAUGAVET and rep.canonical_form == FORM_OPLUS


def test_indicator_field_collapses_to_sup():
    rep = classify(MusielakField.constant(unit_grid(), Indicator(1.0)))
    assert rep.verdict == DAUGAVET and rep.canonical_form == FORM_LINF
    assert rep.evidence["modular_at_bounds"] == 0.0


def test_intersection_component_branches():
    # linear-to-bound cells: light grid collapses, heavy grid fails
    pw = PiecewiseLinear.closed((0.0, 2.0), (1.0,))
    light = classify(MusielakField.constant(MeasureGrid((0.2, 0.2)), pw))
    assert light.verdict == DAUGAVET and light.canonical_form == FORM_LINF

    g = MeasureGrid((0.3, 0.3, 0.3))
    heavy = classify(MusielakField.constant(g, pw), samples=400, seed=7)
    assert heavy.verdict == NOT_DAUGAVET
    assert isinstance(heavy.witness, FailureCertificate)
    assert heavy.witness.verification.passed
    assert "gamma" in heavy.witness.constants  # component spec embedded

    # mixing in an indicator block keeps the verdict logic on the component
    g4 = MeasureGrid((1.0, 0.3, 0.3, 0.3))
    mixed = classify(
        MusielakField(g4, (Indicator(1.0), pw, pw, pw)), samples=400, seed=8
    )
    assert mixed.verdict == NOT_DAUGAVET
    assert isinstance(mixed.witness, FailureCertificate)


def test_intersection_collapse_form():
    # a blow-up indicator block keeps the bound modular above one while the
    # comparison integral on the linear-to-bound block stays small; the
    # norm still collapses to the weighted sup through the intersection leaf
    open_ind = PiecewiseLinear((0.0, 1.0), (0.0,), INF)
    pw = PiecewiseLinear.closed((0.0, 2.0), (1.0,))
    g = MeasureGrid((1.0, 0.2))
    rep = classify(MusielakField(g, (open_ind, pw)))
    assert rep.verdict == DAUGAVET and rep.canonical_form == FORM_INTERSECTION
    assert rep.evidence["modular_at_bounds"] == INF
    assert rep.evidence["integral_w_over_v_complement"] <= 1.0


def test_jump_indicator_field_still_sup_space():
    open_ind = PiecewiseLinear((0.0, 1.0), (0.0,), INF)
    rep = classify(MusielakField.constant(unit_grid(), open_ind))
    assert rep.verdict == DAUGAVET and rep.canonical_form == FORM_LINF
    assert rep.evidence["modular_at_bounds"] == INF


def test_orlicz_corollary_two_case_form():
    g = unit_grid()
    assert classify_orlicz(Linear(1.0), g).canonical_form == FORM_L1
    assert classify_orlicz(Indicator(1.0), g).canonical_form == FORM_LINF
    assert classify_orlicz(Power(2.0), g).verdict == NOT_DAUGAVET


def test_exclusivity_of_collapse_and_witness_conditions():
    rng = np.random.default_rng(3)
    for _ in range(120):
        f = random_field(rng)
        rep = classify(f)
        part = partition(f)
        rho_b = rep.evidence["modular_at_bounds"]
        # the sup-collapse test and the witness precondition never both fire
        assert not (rho_b <= 1.0 and part.remainder and rho_b > 1.0)
        assert (rep.verdict == DAUGAVET) == (rep.canonical_form is not None)


def test_every_field_reaches_exactly_one_leaf():
    rng = np.random.default_rng(5)
    for _ in range(200):
        f = random_field(rng)
        rep = classify(f)
        assert rep.verdict in (DAUGAVET, NOT_DAUGAVET)
        if rep.verdict == NOT_DAUGAVET:
            assert rep.witness is not None or rep.explanation


# -- canonical norm identities ---------------------------------------------------


def norm_identity_for(rep, f, x):
    wp = weights(f)
    part = partition(f)
    if rep.canonical_form == FORM_L1:
        return math.fsum(
            w * abs(t) * m for w, t, m in zip(wp.w.values, x.values, f.grid.weights)
        )
    if rep.canonical_form in (FORM_LINF, FORM_INTERSECTION):
        return max(v * abs(t) for v, t in zip(wp.v.values, x.values))
    if rep.canonical_form == FORM_OPLUS:
        sup_part = max(
            (wp.v.values[i] * abs(x.values[i]) for i, cid in enumerate(f.grid.ids) if cid in part.omega_inf),
            default=0.0,
        )
        l1_part = math.fsum(
            wp.w.values[i] * abs(x.values[i]) * f.grid.weights[i]
            for i, cid in enumerate(f.grid.ids)
            if cid not in part.omega_inf
        )
        return max(sup_part, l1_part)
    raise AssertionError(rep.canonical_form)


def test_classifier_norm_consistency():
    rng = np.random.default_rng(7)
    seen = set()
    trials = 0
    while len(seen) < 4 and trials < 4000:
        trials += 1
        f = random_field(rng)
        rep = classify(f)
        if rep.verdict != DAUGAVET:
            continue
        seen.add(rep.canonical_form)
        for _ in range(25):
            x = random_x(rng, f.grid)
            if x.is_zero():
                continue
            expect = norm_identity_for(rep, f, x)
            got = luxemburg_norm(f, x)
            assert math.isclose(got, expect, rel_tol=1e-9, abs_tol=1e-12), (
                rep.canonical_form,
                f.curves,
                x.values,
            )
    assert {FORM_L1, FORM_LINF} <= seen


def test_dual_form_identities():
    # positive verdicts transfer to the conjugate field through the
    # pairing-norm identities
    rng = np.random.default_rng(11)
    g = MeasureGrid((0.7, 1.3))
    cases = [
        MusielakField.constant(g, Linear(1.5)),
        MusielakField.constant(g, Indicator(0.8)),
        MusielakField(g, (Linear(2.0), Indicator(1.2))),
    ]
    for f in cases:
        rep = classify(f)
        assert rep.verdict == DAUGAVET
        wp = weights(f)
        part = partition(f)
        dualf = conjugate_field(f)
        for _ in range(25):
            x = random_x(rng, g)
            if x.is_zero():
                continue
            got = amemiya_norm(dualf, x)
            if rep.canonical_form == FORM_L1:
                expect = max(abs(t) / w for t, w in zip(x.values, wp.w.values))
            elif rep.canonical_form == FORM_LINF:
                expect = math.fsum(
                    abs(t) / v * m for t, v, m in zip(x.values, wp.v.values, g.weights)
                )
            else:  # oplus form: dual is the 1-sum of the dual blocks
                l1 = math.fsum(
                    abs(x.values[i]) / wp.v.values[i] * g.weights[i]
                    for i, cid in enumerate(g.ids)
                    if cid in part.omega_inf
                )
                sup = max(
                    (abs(x.values[i]) / wp.w.values[i] for i, cid in enumerate(g.ids) if cid not in part.omega_inf),
                    default=0.0,
                )
                expect = l1 + sup
            assert math.isclose(got, expect, rel_tol=1e-8), (rep.canonical_form, x.values)


# -- nonsquare witness machinery ---------------------------------------------


def test_setup_finds_common_interval():
    g = unit_grid()
    f = MusielakField(g, (Power(2.0), PiecewiseLinear((0.0, 1.0, INF), (0.5, 2.0), None)))
    setup = find_nonsquare_setup(f)
    assert setup.sigma1 < 1.0
    for cid in setup.cells:
        p = f.cell_params[g.index[cid]]
        assert p.d < setup.a < setup.b < p.b


def test_witness_power_two_respects_parallelogram():
    g = unit_grid()
    f = MusielakField.constant(g, Power(2.0))
    wit = build_nonsquare_witness(f)
    assert math.isclose(modular(f, wit.x), 1.0, abs_tol=1e-9)
    assert 0.0 < wit.delta <= 2.0 - math.sqrt(2.0) + 1e-9
    record = verify_nonsquare(f, wit, samples=400, seed=3)
    assert record.passed
    assert record.max_observed <= math.sqrt(2.0) + 1e-9


def test_witness_single_cell_exact_fill():
    # one quadratic cell: the carrier is its own unbounded-domain block, so
    # the level is raised until the modular is exactly one
    g = MeasureGrid((1.0,))
    f = MusielakField.constant(g, Power(2.0))
    wit = build_nonsquare_witness(f)
    assert wit.construction["mode"] == "exact-fill"
    assert math.isclose(wit.x.values[0], math.sqrt(2.0), rel_tol=1e-9)
    assert math.isclose(luxemburg_norm(f, wit.x), 1.0, rel_tol=1e-9)
    assert 0.0 < wit.delta <= 2.0 - math.sqrt(2.0) + 1e-9
    record = verify_nonsquare(f, wit, samples=300, seed=8)
    assert record.passed


def test_witness_on_mixed_field():
    g = unit_grid()
    f = MusielakField(g, (Power(2.0), Linear(1.0)))
    wit = build_nonsquare_witness(f)
    assert math.isclose(modular(f, wit.x), 1.0, abs_tol=1e-9)
    record = verify_nonsquare(f, wit, samples=400, seed=9)
    assert record.passed


def test_witness_bounded_domain_case():
    g = unit_grid()
    pwl = PiecewiseLinear.closed((0.0, 1.0, 2.0), (0.5, 2.0))
    f = MusielakField.constant(g, pwl)
    wit = build_nonsquare_witness(f)
    assert wit.construction["mode"].startswith("bounded")
    record = verify_nonsquare(f, wit, samples=400, seed=10)
    assert record.passed


def test_witness_rejects_collapsed_spaces():
    g = unit_grid()
    with pytest.raises(PreconditionError):
        build_nonsquare_witness(MusielakField.constant(g, Linear(1.0)))
    with pytest.raises(PreconditionError):
        build_nonsquare_witness(MusielakField.constant(g, Indicator(1.0)))


def test_random_witnesses_verify():
    rng = np.random.default_rng(13)
    done = 0
    while done < 8:
        f = random_field(rng, n=int(rng.integers(2, 5)))
        rep = classify(f)
        if rep.verdict != NOT_DAUGAVET or not isinstance(rep.witness, NonsquareWitness):
            continue
        record = verify_nonsquare(f, rep.witness, samples=250, seed=int(rng.integers(1, 10**6)))
        assert record.passed
        done += 1


def test_verify_rejects_tampered_delta():
    g = unit_grid()
    f = MusielakField.constant(g, Power(2.0))
    wit = build_nonsquare_witness(f)
    bad = NonsquareWitness(wit.x, 0.9, wit.construction)
    record = verify_nonsquare(f, bad, samples=500, seed=21)
    assert record.violations > 0 and not record.passed
    assert record.max_observed > record.bound
    assert record.samples_requested == 500


def test_classify_raises_when_its_witness_fails_verification(monkeypatch):
    import importlib

    from mospaces import VerificationError

    # mospaces.classify is the function once the package is imported
    classify_module = importlib.import_module("mospaces.classify")

    build = classify_module.build_nonsquare_witness
    tampered = lambda field: NonsquareWitness(build(field).x, 0.9)
    monkeypatch.setattr(classify_module, "build_nonsquare_witness", tampered)
    with pytest.raises(VerificationError, match="violations"):
        classify(MusielakField.constant(unit_grid(), Power(2.0)), samples=200, seed=3)


def _three_mode_fields():
    g = MeasureGrid((0.7, 1.3, 0.9, 1.6, 1.1, 0.8))
    mix = (
        Power(2.5),
        PiecewiseLinear((0.0, 0.4, INF), (0.2, 1.1)),
        Linear(1.4),
        Indicator(1.2),
        PiecewiseLinear((0.0, 0.6, 1.9), (0.3, 1.0), INF),
        Power(1.6),
    )
    bounded = (
        PiecewiseLinear.closed((0.0, 0.6, 2.0), (0.3, 1.2)),
        Indicator(1.2),
        PiecewiseLinear.closed((0.0, 0.7, 1.8), (0.1, 0.9)),
        PiecewiseLinear((0.0, 0.5, 2.2), (0.2, 1.4), INF),
        Indicator(0.9),
        PiecewiseLinear.closed((0.0, 1.1, 2.4), (0.4, 1.3)),
    )
    return [
        (MusielakField(g, mix), "flat-top-up"),
        (MusielakField.constant(g, Power(1.3)), "flat-top-up"),
        (MusielakField.nakano(g, (INF, INF, 2.7, INF, INF, INF)), "exact-fill"),
        (MusielakField(g, bounded), "bounded-top-up"),
    ]


@pytest.mark.parametrize("field, mode", _three_mode_fields())
def test_verify_nonsquare_matches_scalar_reference(field, mode):
    wit = build_nonsquare_witness(field)
    assert wit.construction["mode"] == mode
    for seed in (3, 11):
        rec = verify_nonsquare(field, wit, samples=120, seed=seed)
        checked, best, worst = nonsquare_reference(field, wit, 120, seed)
        assert rec.samples_requested == rec.samples_accepted == checked
        assert math.isclose(rec.max_observed, best, rel_tol=1e-10)
        assert len(rec.worst_point) == len(worst)


# -- search probe ---------------------------------------------------------------


def test_probe_finds_two_in_l1():
    g = unit_grid()
    f = MusielakField.constant(g, Linear(1.0))
    norm = lambda y: luxemburg_norm(f, y)
    (best,) = no_nonsquare_probe(norm, g, [StepFunction.atom(g, "c0")], samples=40, seed=2)
    assert best >= 2.0 - 1e-9


def test_probe_finds_two_in_linf():
    g = unit_grid()
    f = MusielakField.constant(g, Indicator(1.0))
    norm = lambda y: luxemburg_norm(f, y)
    x = StepFunction(g, (1.0, 1.0))
    (best,) = no_nonsquare_probe(norm, g, [x], samples=40, seed=2)
    assert best >= 2.0 - 1e-6


def test_probe_bounded_by_parallelogram_on_power():
    g = unit_grid()
    f = MusielakField.constant(g, Power(2.0))
    norm = lambda y: luxemburg_norm(f, y)
    (best,) = no_nonsquare_probe(norm, g, [StepFunction.atom(g, "c0")], samples=40, seed=2)
    assert best <= math.sqrt(2.0) + 1e-6

import functools
import importlib
import json
import math
from unittest import mock

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
    UnboundedNormError,
    WitnessConstructionError,
    amemiya_norm,
    build_nonsquare_witness,
    classify,
    classify_orlicz,
    component_spec,
    conjugate_field,
    decomposition_norm,
    find_nonsquare_setup,
    luxemburg_norm,
    modular,
    no_nonsquare_probe,
    partition,
    per_row,
    verify_nonsquare,
    weights,
)
from mospaces import cli, musielak
from helpers import (
    c1_reference,
    no_nonsquare_reference,
    nonsquare_reference,
    nonsquare_setup_reference,
    random_field,
    random_x,
)

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


def test_component_spec_refuses_fields_without_an_intersection_component():
    pw = PiecewiseLinear.closed((0.0, 2.0), (1.0,))
    g = MeasureGrid((0.3, 0.3))
    for curves in ((pw, Power(2.0)), (Linear(1.0), Linear(2.0))):  # a remainder cell; all linear
        with pytest.raises(PreconditionError, match="no intersection component"):
            component_spec(MusielakField(g, curves))


def test_component_spec_is_the_spec_classify_embeds():
    pw = PiecewiseLinear.closed((0.0, 2.0), (0.5,))
    g = MeasureGrid((1.0, 0.5, 2.0, 1.0))
    field = MusielakField(g, (Linear(1.0), pw, Indicator(1.0), PiecewiseLinear.closed((0.0, 1.0), (0.25,))))
    spec = component_spec(field)
    assert spec.grid == g.subgrid(["c0", "c1", "c3"]) and spec.gamma == {"c1", "c3"}
    assert spec.w == (1.0, 0.5, 0.25) and spec.v == (1.0, 0.5, 1.0)
    consts = classify(field).witness.constants
    assert (consts["gamma"], consts["w"], consts["v"]) == (sorted(spec.gamma), list(spec.w), list(spec.v))


def test_a_certificate_lost_to_rounding_is_no_collapse():
    # w*b*mass is 1 + 1.3e-16, which rounds to 1.0000000000000002, so the space
    # fails; but w/v*mass with v = fl(1/b) rounds to 1.0, and no certificate exists
    cell = PiecewiseLinear((0.0, 1.1491506018575801), (1.7536476558798046,), INF)
    rep = classify(MusielakField(MeasureGrid((0.49622736713022353,)), (cell,)), samples=50)
    assert rep.verdict == NOT_DAUGAVET and rep.witness is None
    assert rep.evidence["integral_w_over_v_complement"] == 1.0000000000000002
    assert rep.explanation == (
        "no intersection certificate exists at float precision: the component's w/v integral rounds to one"
    )


_SUBNORMAL_END = {"family": "piecewise", "breakpoints": [0, 1e-310], "slopes": [1]}  # 1/b is inf


@pytest.mark.parametrize(
    "other, verdict, form, explanation",
    [
        # omega_1 is not empty, so no collapse; the component's sup weight 1/b is not a float
        (
            {"family": "linear", "slope": 1},
            "not-daugavet",
            None,
            "no intersection certificate exists at float precision: the sup weight 1/b of c0 "
            "is beyond the float range",
        ),
        # the modular at the domain ends is 1e-310: the weighted sup collapse
        ({"family": "indicator", "bound": 1}, "daugavet", FORM_LINF, None),
    ],
)
def test_classify_of_a_subnormal_domain_end_exits_cleanly(tmp_path, capsys, other, verdict, form, explanation):
    cfg = {"grid": {"weights": [1, 1]}, "space": {"kind": "musielak", "curves": [_SUBNORMAL_END, other]}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli.main(["classify", "--config", str(path)]) == cli.EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["verdict"], res["canonical_form"], res["witness"]) == (verdict, form, None)
    assert res.get("explanation") == explanation


def test_decomposition_weighs_a_subnormal_end_by_its_quotient():
    # v = 1/1e-310 is inf: x = 0 on that cell adds 0, not 0 * inf = NaN, and a
    # nonzero x adds |x|/b, as the Luxemburg norm has it
    g = unit_grid(3)
    end = PiecewiseLinear.closed((0.0, 1e-310), (1.0,))
    for curves in ((Indicator(1e-310), end, Linear(1.0)), (Indicator(1e-310), end, Power(2.0))):
        field = MusielakField(g, curves)
        with pytest.raises(ValueError, match="finite"):
            weights(field)
        for x in ((0.0, 0.0, 0.5), (1e-300, 0.0, 0.5), (0.0, 2e-300, 0.5)):
            x = StepFunction(g, x)
            dec = decomposition_norm(field, x)
            assert math.isclose(dec.value, luxemburg_norm(field, x), rel_tol=1e-9)


def _branch_fields():
    """One fresh field per classify branch, with the branch's name."""
    g, g4 = unit_grid(), MeasureGrid((1.0, 0.5, 2.0, 1.0))
    blow_up = PiecewiseLinear((0.0, 2.0), (0.25,), INF)
    closed = PiecewiseLinear.closed((0.0, 2.0), (0.5,))
    return [
        ("collapse", MusielakField.constant(g, Indicator(1.0))),
        ("non-square", MusielakField.constant(g, Power(2.0))),
        ("L1", MusielakField.constant(g, Linear(1.0))),
        ("oplus", MusielakField(g, (Indicator(1.0), Linear(1.0)))),
        ("intersection-collapse", MusielakField(MeasureGrid((0.5, 0.5)), (blow_up, blow_up))),
        ("intersection certificate", MusielakField(g4, (Linear(1.0), closed, Indicator(1.0), closed))),
    ]


def test_classify_computes_the_structure_once():
    want = {
        "collapse": FORM_LINF,
        "non-square": NonsquareWitness,
        "L1": FORM_L1,
        "oplus": FORM_OPLUS,
        "intersection-collapse": FORM_INTERSECTION,
        "intersection certificate": FailureCertificate,
    }
    for name, field in _branch_fields():
        with mock.patch.object(musielak, "Structure", wraps=musielak.Structure) as spy:
            rep = classify(field, samples=20, seed=1)
            got = rep.canonical_form if rep.verdict == DAUGAVET else type(rep.witness)
            assert got == want[name], name
            assert spy.call_count == 1, name
            if name == "non-square":
                build_nonsquare_witness(field)
                find_nonsquare_setup(field)
            if name == "intersection certificate":
                component_spec(field)
            decomposition_norm(field, StepFunction(field.grid, (1.0,) * len(field.grid)))
            assert spy.call_count == 1, name


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
        p = f.curves[g.index[cid]].params()
        assert p.d < setup.a < setup.b < p.b


def test_setup_walk_reaches_past_a_large_linearity_end():
    # with d = 1e16 an absolute offset t/(1-t) rounds away, leaving a = b = d
    g = MeasureGrid((1e-20,))
    f = MusielakField(g, (PiecewiseLinear((0.0, 1e16, INF), (1.0, 2.0), None),))
    setup = find_nonsquare_setup(f)
    assert 1e16 < setup.a < setup.b and setup.sigma1 < 1.0
    rep = classify(f, samples=200, seed=5)
    assert rep.verdict == NOT_DAUGAVET and rep.explanation is None
    c = rep.witness.construction
    assert 1e16 < c["a"] < c["b"]
    assert rep.witness.verification.passed


@pytest.mark.parametrize("rows_per_block", [None, 1, 3])
def test_setup_walk_equals_the_per_cell_walk(monkeypatch, rows_per_block):
    # heavy masses push the walk deep toward L; small blocks split it
    rng = np.random.default_rng(23)
    module = importlib.import_module("mospaces.classify")
    for k in range(80):
        base = random_field(rng, n=int(rng.integers(1, 7)))
        masses = tuple(w * 10.0 ** int(rng.integers(0, 12)) for w in base.grid.weights)
        f = MusielakField(MeasureGrid(masses), base.curves)
        if rows_per_block:
            monkeypatch.setattr(module, "_BLOCK_CELLS", rows_per_block * len(f.grid))
        want = nonsquare_setup_reference(f)
        try:
            s = find_nonsquare_setup(f)
            got = (s.cells, s.a, s.b, s.sigma1)
        except (PreconditionError, WitnessConstructionError):
            got = None
        assert got == want, (k, f)


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


def test_witness_without_top_up_when_the_carrier_fills_the_modular():
    # a = 1.75 + 2**-52 and p = 1.75 + 2**-51, the walk's first point, are
    # adjacent floats; cell 1's terms (a - 0.35)*w and (p - 0.35)*w both round
    # to 1.0, so the carrier's modular at a is one and no top-up is left.
    # Cell 0 is flat up to 1.75, which puts L there, and cell 2 (d = b)
    # carries the modular above one outside the carrier.
    ulp = 2.0**-52
    w = float.fromhex("0x1.6db6db6db6db5p-1")
    g = MeasureGrid((1.0, w, 1.0))
    f = MusielakField(
        g,
        (
            PiecewiseLinear.closed((0.0, 1.75, 1.75 + 4096 * ulp), (0.0, 1e-200)),
            PiecewiseLinear.closed((0.0, 0.35, 4.0), (0.0, 1.0)),
            PiecewiseLinear.closed((0.0, 4.0), (1.0,)),
        ),
    )
    # b/a - 1 is one ulp, so the margin (1.1e-16) is below verify_nonsquare's
    # allowance 1e-9, where no direction could count as a violation: refused
    with pytest.raises(WitnessConstructionError, match=r"^bounded-no-top-up witness margin 1\.1"):
        build_nonsquare_witness(f)
    rep = classify(f, samples=100, seed=3)
    assert rep.verdict == NOT_DAUGAVET and rep.witness is None
    assert rep.explanation.startswith("bounded-no-top-up witness margin")


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


@pytest.mark.parametrize("delta", [-1.0, 0.0, math.inf, math.nan])
def test_verify_nonsquare_rejects_margins_that_are_not_finite_and_positive(delta):
    # delta -1 made the bound 3.0, which every direction met: 0 violations
    f = MusielakField.nakano(unit_grid(), [2, 2])
    wit = build_nonsquare_witness(f)
    with pytest.raises(PreconditionError, match="finite and positive"):
        verify_nonsquare(f, NonsquareWitness(wit.x, delta, wit.construction), samples=50, seed=0)


@pytest.mark.parametrize("delta", [1e-9, 1e-12, 5e-324])
def test_verify_nonsquare_rejects_margins_within_its_allowance(delta):
    # a violation counts only above 2 - delta + 1e-9 >= 2, which min(|x+y|, |x-y|) never is
    f = MusielakField.nakano(unit_grid(), [2, 2])
    wit = build_nonsquare_witness(f)
    with pytest.raises(PreconditionError, match="allowance"):
        verify_nonsquare(f, NonsquareWitness(wit.x, delta, wit.construction), samples=50, seed=0)


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


def _power_witness():
    f = MusielakField.constant(MeasureGrid((0.7, 1.3, 0.9)), Power(2.5))
    return f, build_nonsquare_witness(f)


def test_verify_nonsquare_solves_x_plus_y_and_x_minus_y_as_one_block(monkeypatch):
    # per block of directions: the unit-sphere solve, then x+y and x-y in one
    # solve; the block size does not change the record
    module = importlib.import_module("mospaces.classify")
    f, wit = _power_witness()
    want = verify_nonsquare(f, wit, samples=60, seed=5)
    monkeypatch.setattr(module, "_BLOCK_CELLS", 2 * 3 * 8)  # 8 directions per block
    blocks = mock.patch.object(module, "unit_sphere_points", wraps=module.unit_sphere_points)
    solves = mock.patch.object(musielak, "gauge_block", wraps=musielak.gauge_block)
    with blocks as b, solves as s:
        got = verify_nonsquare(f, wit, samples=60, seed=5)
    assert b.call_count == 8
    assert s.call_count == 2 * b.call_count
    assert got == want


@pytest.mark.parametrize("raising, want", [(("plus", "minus"), "plus"), (("minus",), "minus")])
def test_verify_nonsquare_raises_what_the_separate_solves_raise(monkeypatch, raising, want):
    # where the joint solve of x+y and x-y raises, x+y and then x-y are solved
    # alone, and the first error raised is the one reported
    module = importlib.import_module("mospaces.classify")
    f, wit = _power_witness()
    x, spheres = np.array(wit.x.values), []

    def unit(field, ys):
        spheres.append(musielak.unit_sphere_points(field, ys))
        return spheres[-1]

    def norms(field, xs, tol):
        ys = spheres[-1]
        if len(xs) == 2 * len(ys):
            raise UnboundedNormError("joint")
        for name in raising:
            if np.array_equal(xs, {"plus": x + ys, "minus": x - ys}[name]):
                raise UnboundedNormError(name)
        return musielak.luxemburg_norms(field, xs, tol)

    monkeypatch.setattr(module, "unit_sphere_points", unit)
    monkeypatch.setattr(module, "luxemburg_norms", norms)
    with pytest.raises(UnboundedNormError, match=f"^{want}$"):
        verify_nonsquare(f, wit, samples=20, seed=5)


# -- search probe ---------------------------------------------------------------


def test_probe_finds_two_in_l1():
    g = unit_grid()
    f = MusielakField.constant(g, Linear(1.0))
    norm = lambda y: luxemburg_norm(f, y)
    (best,) = no_nonsquare_probe(per_row(norm, g), g, [StepFunction.atom(g, "c0")], samples=40, seed=2)
    assert best >= 2.0 - 1e-9


def test_probe_finds_two_in_linf():
    g = unit_grid()
    f = MusielakField.constant(g, Indicator(1.0))
    norm = lambda y: luxemburg_norm(f, y)
    x = StepFunction(g, (1.0, 1.0))
    (best,) = no_nonsquare_probe(per_row(norm, g), g, [x], samples=40, seed=2)
    assert best >= 2.0 - 1e-6


def test_no_nonsquare_probe_refuses_a_zero_candidate():
    g = unit_grid()
    f = MusielakField.constant(g, Power(2.0))
    norm = per_row(lambda y: luxemburg_norm(f, y), g)
    with pytest.raises(PreconditionError, match="candidate points must be nonzero"):
        no_nonsquare_probe(norm, g, [StepFunction.zero(g)], samples=4, seed=0)


def test_probe_bounded_by_parallelogram_on_power():
    g = unit_grid()
    f = MusielakField.constant(g, Power(2.0))
    norm = lambda y: luxemburg_norm(f, y)
    (best,) = no_nonsquare_probe(per_row(norm, g), g, [StepFunction.atom(g, "c0")], samples=40, seed=2)
    assert best <= math.sqrt(2.0) + 1e-6


def test_no_nonsquare_probe_matches_its_stepfunction_reference():
    # the pool built as one array searches as the pool appended one StepFunction at a time
    rng = np.random.default_rng(89)
    for n in (1, 2, 4, 7):
        f = random_field(rng, n=n)
        norms = (functools.partial(luxemburg_norm, f), functools.partial(amemiya_norm, f))
        xs = [random_x(rng, f.grid) for _ in range(2)]
        for norm, samples in zip(norms * 2, (0, 3 * n + 4, 3 * n + 5, 40)):
            want = no_nonsquare_reference(norm, f.grid, xs, samples, seed=n)
            assert no_nonsquare_probe(per_row(norm, f.grid), f.grid, xs, samples, seed=n) == want


def test_bounded_top_up_scale_matches_its_modular_loop():
    # c1 from one block walk equals the first 1 - 2**-j whose scaled ends,
    # one StepFunction and one modular call each, keep a finite modular above one
    rng = np.random.default_rng(97)
    seen = 0
    for _ in range(400):
        f = random_field(rng, n=int(rng.integers(2, 7)), families=("indicator", "pwl", "pwl"))
        if not np.isfinite(f.table.cell_b).all():
            continue
        try:
            wit = build_nonsquare_witness(f)
        except (PreconditionError, WitnessConstructionError):
            continue
        if wit.construction["mode"] == "bounded-top-up":
            assert wit.construction["c1"] == c1_reference(f, wit.construction["carrier"])
            seen += 1
    assert seen >= 20

"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Grids stay small (at most 64 cells) and every tolerance is pinned
in the assertions below.
"""

import json
import math

import numpy as np

from mospaces import (
    DAUGAVET,
    FORM_L1,
    FORM_LINF,
    FORM_OPLUS,
    FailureCertificate,
    Indicator,
    IntSpaceSpec,
    Linear,
    MeasureGrid,
    MusielakField,
    NOT_DAUGAVET,
    NonsquareWitness,
    PiecewiseLinear,
    Power,
    Slice,
    StepFunction,
    SumSpaceSpec,
    amemiya_norm,
    build_nonsquare_witness,
    classify,
    classify_sum,
    conjugate,
    decomposition_norm,
    luxemburg_norm,
    orlicz_norm_sup_oracle,
    partition,
    per_row,
    roughness_probe,
    slice_diameter_lb,
    verify_int_certificate,
    verify_nonsquare,
    verify_sum_certificate,
    weighted_l1_norm,
    weights,
    wsum_norm,
)
from mospaces.cli import main as cli_main
from helpers import (
    domain_samples,
    random_curve,
    random_field,
    random_sum_spec,
    random_x,
    wsum_lp_oracle,
    wsum_ternary_oracle,
)

INF = math.inf


def _report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_1_conjugation_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        crv = random_curve(rng)
        back = conjugate(conjugate(crv))
        for u in domain_samples(crv, rng, count=100):
            expect = crv.value_closed(u)
            got = back.value(u)
            err = abs(got - expect) / (1.0 + abs(expect))
            worst = max(worst, err)
            assert err <= 1e-12
    # closed-form pairs: the conjugate is the dual-exponent curve symbolically
    for p in (1.5, 2.0, 3.0, 4.0):
        q = conjugate(Power(p))
        assert q == Power(p / (p - 1.0))
        assert abs(conjugate(q).p - p) <= 4e-16 * p  # exponent round trip, 1 ulp
    for c in (0.5, 1.0, 2.5):
        assert conjugate(Linear(c)) == Indicator(c)
        assert conjugate(Indicator(c)) == Linear(c)
    _report(1, f"biconjugation of 500 curves at 100 points, worst rel err {worst:.2e}")


def test_criterion_2_young_subdifferential():
    rng = np.random.default_rng(102)
    pool = [random_curve(rng) for _ in range(400)]
    checked = 0
    for _ in range(100_000):
        crv = pool[int(rng.integers(0, len(pool)))]
        u = float(rng.uniform(0.0, 4.0))
        v = float(rng.uniform(0.0, 4.0))
        gap = crv.young_gap(u, v)
        assert gap >= -1e-12
        sub = crv.subdifferential(u)
        tol = 1e-10 * (1.0 + u * v)
        inside = sub is not None and sub[0] - 1e-9 <= v <= sub[1] + 1e-9
        if gap <= tol:
            assert inside, (crv, u, v, gap, sub)
        strictly_inside = sub is not None and sub[0] + 1e-9 < v < sub[1] - 1e-9
        if strictly_inside:
            assert gap <= tol
        checked += 1
    # the five interval cases, directed
    assert Power(2.0).subdifferential(0.0) == (0.0, 0.0)  # (i)
    assert Linear(1.0).subdifferential(0.0) == (0.0, 1.0)  # (i) with a zero run
    assert Power(2.0).subdifferential(5.0) == (5.0, 5.0)  # (ii)
    assert Indicator(1.0).subdifferential(1.0) == (0.0, INF)  # (iii)
    jump = PiecewiseLinear((0.0, 1.0, 2.0), (1.0, 2.0), INF)
    assert jump.subdifferential(2.0) is None  # (iv)
    assert Indicator(1.0).subdifferential(2.0) is None  # (v)
    _report(2, f"{checked} Young triples nonnegative with equality exactly on subdifferentials")


def test_criterion_3_norm_sandwich():
    rng = np.random.default_rng(103)
    lo, hi = math.inf, 0.0
    count = 0
    while count < 10_000:
        field = random_field(rng, n=int(rng.integers(1, 7)))
        x = random_x(rng, field.grid)
        if x.is_zero():
            continue
        lux = luxemburg_norm(field, x)
        am = amemiya_norm(field, x)
        ratio = am / lux
        assert 1.0 <= ratio <= 2.0 + 1e-8, (field.curves, x.values, ratio)
        lo, hi = min(lo, ratio), max(hi, ratio)
        count += 1
    _report(3, f"10^4 ratios in [1, 2+1e-8]; observed range [{lo:.12f}, {hi:.12f}]")


def test_criterion_4_koethe_duality():
    rng = np.random.default_rng(104)
    worst = 0.0
    count = 0
    while count < 200:
        field = random_field(rng, n=int(rng.integers(1, 9)))
        x = random_x(rng, field.grid)
        if x.is_zero():
            continue
        am = amemiya_norm(field, x)
        orc = orlicz_norm_sup_oracle(field, x)
        rel = abs(am - orc.value) / max(am, 1e-12)
        assert rel <= 1e-6, (field.curves, x.values, am, orc)
        worst = max(worst, rel)
        count += 1
    _report(4, f"sup-form oracle vs Amemiya on 200 instances, worst rel diff {worst:.2e}")


def test_criterion_5_decomposition_identity():
    rng = np.random.default_rng(105)
    count = 0
    worst = 0.0
    while count < 1000:
        field = random_field(rng)
        x = random_x(rng, field.grid)
        if x.is_zero():
            continue
        dec = decomposition_norm(field, x)
        lux = luxemburg_norm(field, x)
        rel = abs(dec.value - lux) / max(lux, 1e-12)
        assert rel <= 1e-9, (field.curves, x.values, dec, lux)
        worst = max(worst, rel)
        count += 1
    _report(5, f"decomposition equals the gauge norm on 10^3 fields, worst rel {worst:.2e}")


def test_criterion_6_sum_norm_exactness():
    rng = np.random.default_rng(106)
    worst_lp = worst_t = 0.0
    for _ in range(1000):
        spec = random_sum_spec(rng, n=int(rng.integers(2, 7)), gamma_all=bool(rng.integers(0, 2)))
        x = random_x(rng, spec.grid)
        got = wsum_norm(spec, x)
        lp = wsum_lp_oracle(spec, x)
        err = abs(got - lp) / max(1.0, lp)
        assert err <= 1e-9, (spec, x.values, got, lp)
        worst_lp = max(worst_lp, err)
    for _ in range(1000):
        spec = random_sum_spec(rng, n=int(rng.integers(2, 65)), gamma_all=bool(rng.integers(0, 2)))
        x = random_x(rng, spec.grid)
        got = wsum_norm(spec, x)
        tern = wsum_ternary_oracle(spec, x)
        err = abs(got - tern) / max(1.0, tern)
        assert err <= 1e-8, (got, tern)
        worst_t = max(worst_t, err)
    _report(6, f"breakpoint scan vs LP ({worst_lp:.2e}) and ternary ({worst_t:.2e}) oracles")


def _canonical_identity(rep, field, x):
    wp = weights(field)
    part = partition(field)
    if rep.canonical_form == FORM_L1:
        return weighted_l1_norm(x, wp.w.values)
    if rep.canonical_form == FORM_OPLUS:
        sup_part = max(
            (
                wp.v.values[i] * abs(x.values[i])
                for i, cid in enumerate(field.grid.ids)
                if cid in part.omega_inf
            ),
            default=0.0,
        )
        l1_part = math.fsum(
            wp.w.values[i] * abs(x.values[i]) * field.grid.weights[i]
            for i, cid in enumerate(field.grid.ids)
            if cid not in part.omega_inf
        )
        return max(sup_part, l1_part)
    # weighted sup collapse (plain or through the intersection component)
    return max(v * abs(t) for v, t in zip(wp.v.values, x.values))


def test_criterion_7_classification_soundness():
    rng = np.random.default_rng(107)
    pw = PiecewiseLinear.closed((0.0, 2.0), (1.0,))
    fields = [
        MusielakField.nakano(MeasureGrid((1.0, 2.0)), (1.0, 1.0)),
        MusielakField.constant(MeasureGrid((0.5, 1.5)), Indicator(1.5)),
        MusielakField.nakano(MeasureGrid((1.0, 1.0)), (1.0, INF)),
        MusielakField(MeasureGrid((1.0, 0.2)), (PiecewiseLinear((0.0, 1.0), (0.0,), INF), pw)),
        MusielakField.nakano(MeasureGrid((1.0, 1.0, 1.0)), (2.0, 3.0, 2.0)),
        MusielakField(MeasureGrid((1.0, 1.0)), (Power(2.0), Linear(1.0))),
        MusielakField.constant(MeasureGrid((0.25, 0.25, 0.25, 0.25)), pw),
        MusielakField(MeasureGrid((1.0, 0.5, 0.5, 0.5)), (Indicator(1.0), pw, pw, pw)),
    ]
    for _ in range(4):
        fields.append(random_field(rng, n=int(rng.integers(2, 4))))
    forms_seen = set()
    daugavet_count = 0
    witness_count = 0
    for field in fields:
        rep = classify(field)
        if rep.verdict == DAUGAVET:
            forms_seen.add(rep.canonical_form)
            daugavet_count += 1
            for _ in range(1000):
                x = random_x(rng, field.grid)
                if x.is_zero():
                    continue
                expect = _canonical_identity(rep, field, x)
                got = luxemburg_norm(field, x)
                assert abs(got - expect) <= 1e-9 * max(expect, 1e-12), (
                    rep.canonical_form,
                    field.curves,
                    x.values,
                )
        else:
            assert rep.witness is not None, (field.curves, rep.explanation)
            if isinstance(rep.witness, NonsquareWitness):
                record = verify_nonsquare(field, rep.witness, samples=10_000, seed=7007)
            else:
                assert isinstance(rep.witness, FailureCertificate)
                consts = rep.witness.constants
                spec = IntSpaceSpec(
                    rep.witness.x.grid,
                    frozenset(consts["gamma"]),
                    tuple(consts["w"]),
                    tuple(consts["v"]),
                )
                record = verify_int_certificate(spec, rep.witness, samples=10_000, seed=7008)
            assert record.violations == 0
            witness_count += 1
    # interpolation-space verdicts and their certificates at full budget
    g2 = MeasureGrid((1.0, 1.0))
    sspec = SumSpaceSpec(g2, g2.cell_set(), (1.0, 1.0), (1.0, 1.0))
    srep = classify_sum(sspec)
    assert srep.verdict == NOT_DAUGAVET
    from mospaces import witness_sum

    scert = witness_sum(sspec)
    srec = verify_sum_certificate(sspec, scert, samples=10_000, seed=7117)
    assert srec.violations == 0

    g4 = MeasureGrid((1.0,) * 4)
    ispec = IntSpaceSpec(g4, g4.cell_set(), (1.0,) * 4, (1.0,) * 4)
    from mospaces import witness_int

    icert = witness_int(ispec)
    irec = verify_int_certificate(ispec, icert, samples=10_000, seed=7227)
    assert irec.violations == 0

    sspec_ok = SumSpaceSpec(MeasureGrid((0.25, 0.25)), frozenset(("c0", "c1")), (1.0, 1.0), (1.0, 1.0))
    srep2 = classify_sum(sspec_ok)
    assert srep2.verdict == DAUGAVET
    for _ in range(1000):
        x = random_x(rng, sspec_ok.grid)
        l1 = weighted_l1_norm(x, sspec_ok.v)
        assert abs(wsum_norm(sspec_ok, x) - l1) <= 1e-9 * max(l1, 1e-12)

    from mospaces import FORM_INTERSECTION

    assert {FORM_L1, FORM_LINF, FORM_OPLUS, FORM_INTERSECTION} <= forms_seen
    _report(
        7,
        f"{daugavet_count} collapse verdicts hold at 1e-9 on 10^3 points each; "
        f"{witness_count + 2} witnesses verified with zero violations at 10^4 samples",
    )


def test_criterion_8_nonsquare_quadratic_sanity():
    bound = math.sqrt(2.0) + 1e-9
    for weights_, seed in (((1.0, 1.0), 42), ((0.5, 1.0, 2.0), 43)):
        grid = MeasureGrid(weights_)
        field = MusielakField.constant(grid, Power(2.0))
        wit = build_nonsquare_witness(field)
        assert wit.delta <= 2.0 - math.sqrt(2.0) + 1e-9
        record = verify_nonsquare(field, wit, samples=10_000, seed=seed)
        assert record.violations == 0
        assert record.max_observed <= bound, record
    _report(8, "quadratic fields never beat the parallelogram bound at 10^4 samples")


def test_criterion_9_probe_consistency():
    rng = np.random.default_rng(109)
    # dyadic weighted-L1 field: classification, then the exact construction
    grid = MeasureGrid((1.0, 0.5, 2.0))
    field = MusielakField(grid, (Linear(1.0), Linear(2.0), Linear(0.25)))
    rep = classify(field)
    assert rep.canonical_form == FORM_L1
    wp = weights(field)
    primal = lambda y: weighted_l1_norm(y, wp.w.values)
    dual = lambda f: max(abs(t) / u for t, u in zip(f.values, wp.w.values))
    f = StepFunction(grid, wp.w.values)
    assert dual(f) == 1.0
    # the disjoint-support pair itself: distance exactly 2
    atoms = [
        StepFunction.atom(grid, cid, 1.0 / (wp.w.values[i] * grid.weights[i]))
        for i, cid in enumerate(grid.ids)
    ]
    assert primal(atoms[0] - atoms[1]) == 2.0
    lb = slice_diameter_lb(per_row(primal, grid), per_row(dual, grid), Slice(f, 0.1), samples=10_000, seed=1)
    assert lb >= 2.0
    assert lb <= 2.0 + 1e-9
    x0 = atoms[0]
    assert primal(x0) == 1.0
    rough = roughness_probe(per_row(primal, grid), x0, samples=1000, seed=2)
    assert rough >= 2.0 - 1e-6

    # quadratic field: both probes stay clearly under 2
    g2 = MeasureGrid((1.0, 1.0))

    def primal2(y):
        return math.sqrt(math.fsum(t * t * m / 2.0 for t, m in zip(y.values, g2.weights)))

    def dual2(h):
        return math.sqrt(math.fsum(2.0 * t * t * m for t, m in zip(h.values, g2.weights)))

    f2 = StepFunction(g2, (2.0**-0.5, 0.0))
    lb2 = slice_diameter_lb(per_row(primal2, g2), per_row(dual2, g2), Slice(f2, 0.05), samples=10_000, seed=3)
    assert lb2 < 1.9
    x2 = StepFunction(g2, (math.sqrt(2.0), 0.0))
    rough2 = roughness_probe(per_row(primal2, g2), x2, samples=2500, seed=4)
    assert rough2 < 1.9
    _report(
        9,
        f"slice bound {lb} and roughness {rough:.9f} reach 2 on the L1 side; "
        f"{lb2:.3f} and {rough2:.3f} stay under 1.9 on the quadratic side",
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    cfg = {
        "grid": {"weights": [1.0, 1.0]},
        "space": {"kind": "nakano", "exponents": [2, 2]},
        "x": [1.0, 0.5],
        "seed": 5,
        "samples": 400,
        "tol": 1e-10,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(["classify", "--config", str(cfg_path), "--out", str(r1)]) == 0
    assert cli_main(["classify", "--config", str(cfg_path), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()

    assert (
        cli_main(
            ["verify", "--config", str(cfg_path), "--certificate", str(r1), "--seed", "99"]
        )
        == 0
    )

    tampered = json.loads(r1.read_text())
    tampered["results"]["witness"]["delta"] = 0.9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tampered))
    assert (
        cli_main(
            ["verify", "--config", str(cfg_path), "--certificate", str(bad), "--seed", "99"]
        )
        == 4
    )
    _report(10, "byte-identical reports, certificate round-trip, tamper detected")

import functools
import importlib
import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mospaces import (
    DAUGAVET,
    FORM_L1,
    FORM_LINF,
    FailureCertificate,
    IntSpaceSpec,
    MeasureGrid,
    MusielakField,
    NOT_DAUGAVET,
    PiecewiseLinear,
    PreconditionError,
    StepFunction,
    SumSpaceSpec,
    VerificationError,
    WitnessConstructionError,
    classify,
    classify_int,
    classify_sum,
    int_dual_norm,
    order_continuity_check,
    pairing,
    sum_dual_norm,
    verify_int_certificate,
    verify_sum_certificate,
    wint_norm,
    witness_int,
    witness_sum,
    wsum_norm,
)
from mospaces import Linear, Power, cli, component_spec, interpolation
from mospaces.interpolation import _BLOCK_CELLS, RowSums, _slice_center
from mospaces.reports import record_from_samples
from helpers import (
    collapse_evidence_reference,
    dual_reference,
    gamma_mask_reference,
    int_full_constants_reference,
    int_slice_center_reference,
    random_int_spec,
    random_sum_spec,
    random_x,
    slice_reference,
    verify_slice_reference,
    wsum_lp_oracle,
    wsum_ternary_oracle,
)


def ones_spec(n=2, masses=None):
    g = MeasureGrid(masses or (1.0,) * n)
    return SumSpaceSpec(g, g.cell_set(), (1.0,) * len(g), (1.0,) * len(g))


# -- primal norms -------------------------------------------------------------


def test_wsum_examples():
    spec = ones_spec()
    g = spec.grid
    assert wsum_norm(spec, StepFunction(g, (3.0, 1.0))) == 3.0
    assert wsum_norm(spec, StepFunction.zero(g)) == 0.0
    g2 = MeasureGrid((1.0, 1.0))
    spec2 = SumSpaceSpec(g2, {"c0"}, (1.0, 1.0), (1.0, 1.0))
    assert wsum_norm(spec2, StepFunction(g2, (0.0, 2.0))) == 2.0


def test_wint_examples():
    g = MeasureGrid((1.0, 1.0))
    spec = IntSpaceSpec(g, g.cell_set(), (1.0, 1.0), (1.0, 1.0))
    assert wint_norm(spec, StepFunction(g, (0.3, 0.3))) == 0.6
    spec2 = IntSpaceSpec(g, {"c1"}, (1.0, 1.0), (1.0, 1.0))
    assert wint_norm(spec2, StepFunction(g, (2.0, 0.0))) == 2.0
    assert wint_norm(spec, StepFunction.zero(g)) == 0.0


def test_wsum_matches_lp_oracle():
    rng = np.random.default_rng(41)
    for _ in range(120):
        spec = random_sum_spec(rng, n=int(rng.integers(2, 7)), gamma_all=bool(rng.integers(0, 2)))
        x = random_x(rng, spec.grid)
        got = wsum_norm(spec, x)
        lp = wsum_lp_oracle(spec, x)
        assert math.isclose(got, lp, rel_tol=1e-9, abs_tol=1e-9)


def test_wsum_matches_ternary_oracle():
    rng = np.random.default_rng(43)
    for _ in range(120):
        spec = random_sum_spec(rng, n=int(rng.integers(2, 30)), gamma_all=bool(rng.integers(0, 2)))
        x = random_x(rng, spec.grid)
        got = wsum_norm(spec, x)
        tern = wsum_ternary_oracle(spec, x)
        assert math.isclose(got, tern, rel_tol=1e-8, abs_tol=1e-8)


# -- dual norms ----------------------------------------------------------------


def test_sum_dual_examples():
    spec = ones_spec()
    g = spec.grid
    assert sum_dual_norm(spec, StepFunction(g, (1.0, 0.0))) == 1.0
    assert sum_dual_norm(spec, StepFunction.zero(g)) == 0.0
    # f = v on a cell set with v/w integral at most one has norm one
    f = StepFunction(g, (1.0, 0.0))
    assert sum_dual_norm(spec, f) == 1.0


def test_int_dual_examples():
    g = MeasureGrid((1.0, 1.0, 1.0, 1.0))
    spec = IntSpaceSpec(g, g.cell_set(), (1.0,) * 4, (1.0,) * 4)
    assert int_dual_norm(spec, StepFunction.zero(g)) == 0.0
    # f = -w on a block with w/v integral one has dual norm one
    f = StepFunction(g, (-1.0, 0.0, 0.0, 0.0))
    assert math.isclose(int_dual_norm(spec, f), 1.0, rel_tol=1e-12)


def test_duality_consistency_exact():
    rng = np.random.default_rng(47)
    for _ in range(100):
        sspec = random_sum_spec(rng, gamma_all=bool(rng.integers(0, 2)))
        f = random_x(rng, sspec.grid)
        assert sum_dual_norm(sspec, f) == wint_norm(dual_reference(sspec), f)
        ispec = random_int_spec(rng, gamma_all=bool(rng.integers(0, 2)))
        g = random_x(rng, ispec.grid)
        assert int_dual_norm(ispec, g) == wsum_norm(dual_reference(ispec), g)


_HOSTILE = (5e-324, 1e-309, 1e-150, 0.3, 1.0, 1e10, 1e308, 1.7e308)  # positive finite weights and masses


@st.composite
def _hostile_specs(draw):
    """A valid spec of either kind whose weights and masses reach the ends of
    the float range; v off gamma may be 0, negative or inf."""
    n = draw(st.integers(1, 4))
    grid = MeasureGrid(tuple(draw(st.sampled_from(_HOSTILE)) for _ in range(n)))
    gamma = draw(st.sets(st.sampled_from(grid.ids), min_size=1))
    w = tuple(draw(st.sampled_from(_HOSTILE)) for _ in range(n))
    v = tuple(
        draw(st.sampled_from(_HOSTILE if cid in gamma else _HOSTILE + (0.0, -1.0, math.inf)))
        for cid in grid.ids
    )
    kind = draw(st.sampled_from((SumSpaceSpec, IntSpaceSpec)))
    return kind(grid, gamma, v=v, w=w)


def _dual_outcome(dual):
    """``dual()``, or the type and message of what it raised."""
    try:
        return "ok", dual()
    except Exception as exc:  # compared, never swallowed: a mismatch fails the test
        return type(exc).__name__, str(exc)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_hostile_specs())
def test_a_spec_works_out_its_mask_evidence_and_dual_as_the_id_based_code(spec):
    assert spec.on_gamma == gamma_mask_reference(spec)
    assert spec.evidence == collapse_evidence_reference(spec)
    got = _dual_outcome(lambda: spec.dual)
    assert got == _dual_outcome(lambda: dual_reference(spec))  # a FloatRangeError names the same reciprocal
    if got[0] == "ok":
        assert spec.dual is spec.dual
        assert type(spec.dual) is (IntSpaceSpec if isinstance(spec, SumSpaceSpec) else SumSpaceSpec)
    else:
        assert got[0] == "FloatRangeError"


def test_generalized_hoelder():
    rng = np.random.default_rng(53)
    for _ in range(150):
        spec = random_sum_spec(rng, gamma_all=True)
        x = random_x(rng, spec.grid)
        f = random_x(rng, spec.grid)
        lhs = abs(pairing(f, x))
        rhs = wsum_norm(spec, x) * sum_dual_norm(spec, f)
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)


# -- order continuity ----------------------------------------------------------


def test_order_continuity():
    spec = ones_spec()
    ok, ev = order_continuity_check(spec)
    assert ok and ev["integral_v_over_w"] == 2.0
    g = MeasureGrid((1.0, 1.0))
    proper = SumSpaceSpec(g, {"c0"}, (1.0, 1.0), (1.0, 1.0))
    ok2, ev2 = order_continuity_check(proper)
    assert not ok2 and ev2["complement_mass"] == 1.0


# -- classification ------------------------------------------------------------


def test_classify_sum_daugavet_small_mass():
    spec = ones_spec(masses=(0.25, 0.25))
    rep = classify_sum(spec)
    assert rep.verdict == DAUGAVET and rep.canonical_form == FORM_L1


def test_classify_sum_not_daugavet_large_mass():
    rep = classify_sum(ones_spec(), samples=500, seed=3)
    assert rep.verdict == NOT_DAUGAVET
    assert rep.witness is not None and rep.witness.verification.passed


def test_classify_sum_gamma_proper_rejects_case_one():
    g = MeasureGrid((1.0, 1.0))
    spec = SumSpaceSpec(g, {"c0"}, (1.0, 1.0), (1.0, 1.0))
    rep = classify_sum(spec)
    assert rep.verdict == NOT_DAUGAVET and rep.witness is None
    assert "singular" in rep.explanation


def test_classify_int_dual_cases():
    g = MeasureGrid((0.25, 0.25))
    spec = IntSpaceSpec(g, g.cell_set(), (1.0, 1.0), (1.0, 1.0))
    rep = classify_int(spec)
    assert rep.verdict == DAUGAVET and rep.canonical_form == FORM_LINF
    g4 = MeasureGrid((1.0,) * 4)
    rep2 = classify_int(IntSpaceSpec(g4, g4.cell_set(), (1.0,) * 4, (1.0,) * 4), samples=400, seed=5)
    assert rep2.verdict == NOT_DAUGAVET and rep2.witness is not None
    g2 = MeasureGrid((1.0, 1.0))
    rep3 = classify_int(IntSpaceSpec(g2, {"c0"}, (0.2, 0.2), (1.0, 1.0)), samples=400, seed=6)
    assert rep3.verdict == NOT_DAUGAVET


# -- norm collapse under the positive verdict -----------------------------------


def test_sum_norm_collapse():
    rng = np.random.default_rng(59)
    found = 0
    while found < 10:
        spec = random_sum_spec(rng)
        rep = classify_sum(spec)
        if rep.verdict != DAUGAVET:
            continue
        found += 1
        for _ in range(50):
            x = random_x(rng, spec.grid)
            l1 = math.fsum(
                abs(t) * u * m
                for t, u, m in zip(x.values, spec.v, spec.grid.weights)
            )
            assert math.isclose(wsum_norm(spec, x), l1, rel_tol=1e-9, abs_tol=1e-12)


def test_int_norm_collapse():
    rng = np.random.default_rng(61)
    found = 0
    while found < 10:
        spec = random_int_spec(rng)
        rep = classify_int(spec)
        if rep.verdict != DAUGAVET:
            continue
        found += 1
        for _ in range(50):
            x = random_x(rng, spec.grid)
            sup = max(abs(t) * u for t, u in zip(x.values, spec.v))
            assert math.isclose(wint_norm(spec, x), sup, rel_tol=1e-9, abs_tol=1e-12)


# -- witnesses -----------------------------------------------------------------


def test_witness_sum_worked_example():
    spec = ones_spec()  # mass 2, v = w = 1, integral v/w = 2
    cert = witness_sum(spec, samples=800, seed=11)
    assert cert.kind == "sum-case"
    assert cert.constants["b"] == 0.5
    assert cert.constants["c"] == 2.0
    assert math.isclose(cert.epsilon, 0.125)
    assert cert.verification.passed
    assert cert.verification.acceptance_rate > 0.3


def test_witness_sum_rejects_daugavet_space():
    with pytest.raises(PreconditionError):
        witness_sum(ones_spec(masses=(0.25, 0.25)))


def test_witness_sum_atomicity_obstruction():
    g = MeasureGrid((5.0, 5.0))
    spec = SumSpaceSpec(g, g.cell_set(), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(WitnessConstructionError):
        witness_sum(spec)


def test_witness_int_worked_example():
    g4 = MeasureGrid((1.0,) * 4)
    spec = IntSpaceSpec(g4, g4.cell_set(), (1.0,) * 4, (1.0,) * 4)
    cert = witness_int(spec, samples=800, seed=13)
    assert cert.kind == "intersection-case"
    assert cert.constants["case"] == "gamma-full"
    assert cert.constants["c"] == 0.5
    assert math.isclose(cert.epsilon, 1.0 / 6.0)
    assert cert.verification.passed


def test_witness_int_gamma_proper():
    g = MeasureGrid((0.5, 0.5, 1.0))
    spec = IntSpaceSpec(g, {"c0", "c1"}, (1.0,) * 3, (1.0,) * 3)
    cert = witness_int(spec, samples=800, seed=17)
    assert cert.constants["case"] == "gamma-proper"
    assert cert.verification.passed
    # unit norms as constructed
    assert math.isclose(wint_norm(spec, cert.x), 1.0, rel_tol=1e-9)
    assert math.isclose(int_dual_norm(spec, cert.functional), 1.0, rel_tol=1e-9)


def test_witness_int_rejects_daugavet_space():
    g = MeasureGrid((0.25, 0.25))
    with pytest.raises(PreconditionError):
        witness_int(IntSpaceSpec(g, g.cell_set(), (1.0, 1.0), (1.0, 1.0)))


def test_witness_int_refuses_a_margin_that_rounds_to_zero():
    # c * I_A1 rounds just above one, so the admissible interval is empty
    g = MeasureGrid((1e8, 1e-8))
    spec = IntSpaceSpec(g, g.cell_set(), (0.5, 1e-299), (5e-301, 1e-300))
    with pytest.raises(WitnessConstructionError, match="margin epsilon -0.0"):
        witness_int(spec)


@pytest.mark.parametrize(
    "grid, w, v",
    [
        # c2 = (1 - gamma_const) / w_comp, with w_comp = 1e-10 * 1e-300, overflows
        ([1.0, 1.0, 1e-300], [1.0, 3.0, 1e-10], [3.0, 10.0, 1.0]),
        # the point c / v on A, 0.5 / 1e-310, overflows
        ([1.0, 1.0, 1.0], [1e-320, 1.0, 1.0], [1e-310, 1.0, 1.0]),
    ],
)
def test_witness_int_refuses_a_point_beyond_the_float_range(tmp_path, capsys, grid, w, v):
    message = "the point's value on A or off gamma is beyond the float range"
    with pytest.raises(WitnessConstructionError, match=message):
        witness_int(IntSpaceSpec(MeasureGrid(tuple(grid)), {"c0", "c1"}, tuple(w), tuple(v)))
    cfg = {"grid": {"weights": grid}, "space": {"kind": "weighted_intersection", "w": w, "v": v, "gamma": ["c0", "c1"]}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli.main(["classify", "--config", str(path)]) == cli.EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["verdict"], res["witness"], res["explanation"]) == ("not-daugavet", None, message)


def _outcome(build, spec):
    """What ``build(spec)`` returns, or the type and message of the WitnessConstructionError it raises."""
    try:
        return build(spec)
    except WitnessConstructionError as exc:
        return type(exc), str(exc)


def test_witness_int_gamma_full_sets_match_the_prefix_loops():
    # each spec: the same constants as the loops, or the same refusal
    rng = np.random.default_rng(131)
    specs = [random_int_spec(rng) for _ in range(300)]
    dyadic = [
        [0.5, 0.25, 0.25, 0.125],  # a prefix sum hits 1 exactly
        [0.5, 0.5, 0.5],
        [0.25] * 5,  # the fourth sum is 1 exactly
        [0.75, 0.5],  # the first sum >= 1 is the last: no proper sub-block
        [1.0, 2.0**-54, 2.0**-54, 2.0**-54],  # fsum > 1, every sequential sum is 1
        [0.5 + 2.0**-53, 0.25, 0.125, 0.0625 + 2.0**-55, 0.0625],  # fsum > 1, no sum > 1, 1 only last
    ]
    for _ in range(200):
        dyadic.append([float(t) for t in np.ldexp(1.0, -rng.integers(1, 4, int(rng.integers(2, 8))))])
    for contrib in dyadic:
        g = MeasureGrid((1.0,) * len(contrib))
        specs.append(IntSpaceSpec(g, g.cell_set(), tuple(contrib), (1.0,) * len(contrib)))
    refused = 0
    for spec in specs:
        if math.fsum(spec.w[i] / spec.v[i] * spec.grid.weights[i] for i in range(len(spec.grid))) <= 1.0:
            continue  # the space collapses before any cell set is chosen
        want = _outcome(int_full_constants_reference, spec)
        got = _outcome(lambda s: witness_int(s).constants, spec)
        assert got == want, (spec, got, want)
        refused += isinstance(want, tuple)
    assert 0 < refused < len(specs)


@pytest.mark.parametrize("eps", [1e-12, 1e-300])
def test_slice_verifiers_reject_margins_within_the_allowance(eps):
    # a violation counts only above 2 - eps + 1e-12 >= 2, which no slice point reaches
    g4 = MeasureGrid((1.0,) * 4)
    int_spec = IntSpaceSpec(g4, g4.cell_set(), (1.0,) * 4, (1.0,) * 4)
    for spec, make, verify in (
        (ones_spec(), witness_sum, verify_sum_certificate),
        (int_spec, witness_int, verify_int_certificate),
    ):
        cert = replace(make(spec), epsilon=eps)
        with pytest.raises(PreconditionError, match="allowance"):
            verify(spec, cert, samples=10, seed=0)


def test_witness_sum_refuses_a_margin_within_the_allowance():
    # the v/w integral is 1 + 2**-44, so 1 - b and the margin are about 3e-14
    g = MeasureGrid((1.0, 1.0))
    spec = SumSpaceSpec(g, g.cell_set(), (1.0, 0.5 + 2.0**-44), (2.0, 1.0))
    with pytest.raises(WitnessConstructionError, match="within the sampler's allowance"):
        witness_sum(spec)
    rep = classify_sum(spec, samples=10)
    assert rep.verdict == NOT_DAUGAVET and rep.witness is None
    assert "within the sampler's allowance" in rep.explanation


@pytest.mark.parametrize("eps", [0.0, -0.0, -0.5, math.inf, math.nan])
def test_slice_verifiers_reject_margins_that_are_not_finite_and_positive(eps):
    # at eps <= 0 the bound 2 - eps would hold at every point
    sum_spec = ones_spec()
    g4 = MeasureGrid((1.0,) * 4)
    int_spec = IntSpaceSpec(g4, g4.cell_set(), (1.0,) * 4, (1.0,) * 4)
    for spec, make, verify in (
        (sum_spec, witness_sum, verify_sum_certificate),
        (int_spec, witness_int, verify_int_certificate),
    ):
        cert = replace(make(spec), epsilon=eps)
        with pytest.raises(PreconditionError, match="slice margin"):
            verify(spec, cert, samples=10, seed=0)


def test_slice_verifiers_refuse_a_certificate_of_the_other_kind():
    sum_spec = ones_spec()
    g4 = MeasureGrid((1.0,) * 4)
    int_spec = IntSpaceSpec(g4, g4.cell_set(), (1.0,) * 4, (1.0,) * 4)
    with pytest.raises(PreconditionError, match="not for an intersection space"):
        verify_int_certificate(int_spec, witness_sum(sum_spec), samples=10, seed=0)
    with pytest.raises(PreconditionError, match="not for a sum space"):
        verify_sum_certificate(sum_spec, witness_int(int_spec), samples=10, seed=0)


def test_certificates_survive_fresh_seeds():
    spec = ones_spec(masses=(1.0, 0.5, 0.8))
    cert = witness_sum(spec, samples=400, seed=1)
    rec = verify_sum_certificate(spec, cert, samples=600, seed=999)
    assert rec.passed and rec.max_observed <= rec.bound + 1e-9

    g4 = MeasureGrid((0.7, 0.9, 1.1, 0.5))
    ispec = IntSpaceSpec(g4, g4.cell_set(), (1.0,) * 4, (1.0,) * 4)
    icert = witness_int(ispec, samples=400, seed=2)
    rec2 = verify_int_certificate(ispec, icert, samples=600, seed=998)
    assert rec2.passed


def test_random_witnesses_verify():
    rng = np.random.default_rng(67)
    done_sum = done_int = 0
    while done_sum < 6 or done_int < 6:
        if done_sum < 6:
            spec = random_sum_spec(rng)
            try:
                cert = witness_sum(spec, samples=300, seed=int(rng.integers(1, 10**6)))
            except (PreconditionError, WitnessConstructionError):
                cert = None
            if cert is not None:
                assert cert.verification.passed
                done_sum += 1
        if done_int < 6:
            ispec = random_int_spec(rng, gamma_all=bool(rng.integers(0, 2)))
            try:
                icert = witness_int(ispec, samples=300, seed=int(rng.integers(1, 10**6)))
            except (PreconditionError, WitnessConstructionError):
                icert = None
            if icert is not None:
                assert icert.verification.passed
                done_int += 1


# -- verifier against the callback reference ------------------------------------


def _wide_case(n):
    """A gamma-proper intersection certificate on n cells of random weights."""
    rng = np.random.default_rng(0)
    g = MeasureGrid(tuple(rng.uniform(0.5, 1.5, n)))
    w, v = (tuple(rng.uniform(0.5, 1.5, n)) for _ in range(2))
    spec = IntSpaceSpec(g, g.ids[: n // 2], w, v)
    return spec, witness_int(spec)


def _slice_case(name):
    """(spec, certificate) for one verifier case, unverified."""
    if name == "sum":
        spec = SumSpaceSpec(MeasureGrid((1.0, 0.5, 0.8)), None, (1.3, 0.7, 1.1), (0.9, 1.2, 0.6))
        return spec, witness_sum(spec)
    if name == "classify-component":
        pw = lambda b, s: PiecewiseLinear.closed((0.0, b), (s,))
        g = MeasureGrid((0.3, 0.4, 0.35))
        cert = classify(MusielakField(g, (pw(2.0, 1.0), pw(1.5, 1.3), pw(2.5, 0.8)))).witness
        consts = cert.constants
        gamma, w, v = frozenset(consts["gamma"]), tuple(consts["w"]), tuple(consts["v"])
        return IntSpaceSpec(cert.x.grid, gamma, w, v), cert
    if name == "one-cell-grid-sum":
        g = MeasureGrid((0.8,))
        x, f0, second = (StepFunction(g, (t,)) for t in (1.2, 1.0, 0.7))
        spec = SumSpaceSpec(g, None, (1.3,), (0.9,))
        return spec, FailureCertificate("sum-case", x, f0, 0.2, second_functional=second)
    if name == "one-cell-grid-int":
        g = MeasureGrid((0.8,))
        x, f = StepFunction(g, (0.5,)), StepFunction(g, (-1.1,))
        consts = {"case": "gamma-full", "set_a1": ["c0"]}
        spec = IntSpaceSpec(g, None, (1.3,), (0.9,))
        return spec, FailureCertificate("intersection-case", x, f, 0.2, constants=consts)
    if name == "one-cell-gamma":
        g = MeasureGrid((0.7, 0.9, 1.1, 0.5, 0.6))
        spec = IntSpaceSpec(g, {"c2"}, (1.2, 0.8, 1.0, 0.9, 1.1), (0.9, 1.1, 2.0, 1.3, 1.0))
        return spec, witness_int(spec)
    if name == "wide":
        return _wide_case(256)
    if name == "thin-slice":  # the scaled functional barely reaches 1 - eps
        spec, cert = _slice_case("gamma-full")
        return spec, replace(cert, epsilon=0.01001, functional=0.99 * cert.functional)
    gamma = {"c0", "c1", "c2"} if name == "gamma-proper" else None
    g = MeasureGrid((0.7, 0.9, 1.1, 0.5))
    spec = IntSpaceSpec(g, gamma, (1.2, 0.8, 1.0, 0.9), (0.9, 1.1, 0.7, 1.3))
    cert = witness_int(spec)
    assert cert.constants["case"] == name
    return spec, cert


@pytest.mark.parametrize("samples", [0, 1, 200])
@pytest.mark.parametrize(
    "case",
    [
        "sum",
        "gamma-proper",
        "gamma-full",
        "classify-component",
        "one-cell-grid-sum",
        "one-cell-grid-int",
        "one-cell-gamma",
        "wide",
        "thin-slice",
    ],
)
def test_slice_verifiers_match_the_callback_reference(case, samples):
    spec, cert = _slice_case(case)
    verify = verify_sum_certificate if cert.kind == "sum-case" else verify_int_certificate
    for seed in (0, 5, 91):
        assert verify(spec, cert, samples, seed) == slice_reference(spec, cert, samples, seed)


def test_reference_cases_reach_the_block_and_cap_edges():
    spec, cert = _slice_case("wide")
    rec = verify_int_certificate(spec, cert, 200, 0)
    rows = _BLOCK_CELLS // 256
    random_draws = rec.samples_requested - (2 * 256 + 4)
    assert random_draws > 2 * rows and random_draws % rows != 0  # stops inside a block
    spec, cert = _slice_case("thin-slice")
    rec = verify_int_certificate(spec, cert, 200, 0)
    assert rec.samples_requested == 50 * 200 + 1000  # the cap ends the run
    assert 0 < rec.samples_accepted < 200


def test_row_block_verifier_raises_the_reference_error_on_overflow():
    g = MeasureGrid((1.0, 0.6, 0.9))
    spec = SumSpaceSpec(g, None, (1e300, 2e300, 1.5e300), (1e300, 1.2e300, 0.8e300))
    cert = witness_sum(spec)
    # g + h overflows at the first accepted dual-slice element h
    second = (sys.float_info.max,) + cert.second_functional.values[1:]
    cert = replace(cert, second_functional=StepFunction(g, second))
    with pytest.raises(ValueError) as new:
        verify_sum_certificate(spec, cert, 5, 3)
    with pytest.raises(ValueError) as ref:
        slice_reference(spec, cert, 5, 3)
    assert str(new.value) == str(ref.value) == "step function values must be finite, got inf"


@pytest.mark.parametrize("n", [256, 2048])
def test_row_block_verifier_memory_stays_within_a_block(n):
    spec, cert = _wide_case(n)
    tracemalloc.start()
    try:
        rec = verify_int_certificate(spec, cert, 200, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.samples_accepted == 200 and rec.passed
    assert peak < 2 * 2**20


def test_row_block_verifier_raises_the_reference_overflow_where_sup_dominates():
    # the first candidate, f0, has an L1 sum past DBL_MAX (fsum overflows) and
    # an infinite sup, which dominates: a skipped L1 sum would hide the error
    g = MeasureGrid((1.0, 1.0))
    spec = SumSpaceSpec(g, None, (0.01, 0.01), (1.0, 1.0))
    x, f0, second = (StepFunction(g, vals) for vals in ((1.0, 0.0), (1e308, 1e308), (-0.5, 0.0)))
    cert = FailureCertificate("sum-case", x, f0, 0.2, second_functional=second)
    with pytest.raises(OverflowError) as new:
        verify_sum_certificate(spec, cert, 5, 3)
    with pytest.raises(OverflowError) as ref:
        slice_reference(spec, cert, 5, 3)
    assert str(new.value) == str(ref.value) == "intermediate overflow in fsum"


def test_slice_verifier_sums_fewer_than_half_its_candidates_exactly(monkeypatch):
    spec, cert = _slice_case("wide")
    calls = []

    def fsum(terms, _fsum=math.fsum):
        calls.append(1)
        return _fsum(terms)

    monkeypatch.setattr(math, "fsum", fsum)
    rec = verify_int_certificate(spec, cert, 200, 0)
    monkeypatch.undo()
    assert rec == slice_reference(spec, cert, 200, 0)
    assert 0 < len(calls) < rec.samples_requested / 2


# -- certified row sums -----------------------------------------------------------

_LEVEL = 1.0 - 0.1  # a slice's 1 - eps
_ROW_KINDS = ("normal", "cancel", "level", "subnormal", "huge", "nonfinite", "sparse")


def _term_row(rng, kind, n):
    """One row of n terms of the given kind."""
    if kind == "normal":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8)
    if kind == "cancel":  # pairs t, -t that sum to exactly 0, and at most one tiny term
        half = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-8, 8)
        row = np.concatenate((half, -half, rng.standard_normal(n % 2) * 1e-30))
    elif kind == "level":  # exact sum at _LEVEL or one ulp to either side, plus cancelling pairs
        target = _around(_LEVEL)[rng.integers(3)]
        half = rng.standard_normal((n - 1) // 2) * 10.0 ** rng.uniform(-3, 3)
        row = np.concatenate(([target], half, -half, np.zeros(1 - n % 2)))
    elif kind == "subnormal":  # subnormal multiples of 2**-1074, some beside normal terms
        row = rng.integers(-(2**30), 2**30, n) * 5e-324
        normal = rng.standard_normal(n) * 2.0 ** rng.integers(-1000, -940)
        row = row + (rng.random(n) < 0.5) * normal
    elif kind == "huge":  # absolute sums near 2**960 and up to past DBL_MAX, half of one sign
        row = rng.standard_normal(n) * 2.0 ** float(rng.integers(940, 1023))
        row = np.abs(row) if rng.random() < 0.5 else row
    elif kind == "nonfinite":
        row = rng.standard_normal(n)
        row[rng.integers(0, n, 2)] = rng.choice([np.inf, -np.inf, np.nan], 2)
    else:  # at most one nonzero term, of any size
        row = np.zeros(n)
        row[rng.integers(0, n)] = rng.choice([0.0, 1.5, -5e-324, 1e308, -np.inf, np.nan])
    rng.shuffle(row)
    return row


@st.composite
def _term_blocks(draw):
    """1 to 3 rows of n terms, n from 1 to 2**14, each of a drawn kind."""
    sizes = (st.integers(1, 9), st.sampled_from([63, 64, 257, 2**14]), st.integers(1, 2**14))
    n = draw(st.one_of(*sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=3))
    return np.stack([_term_row(rng, kind, n) for kind in kinds])


def _around(t):
    """t and its neighbouring floats."""
    return [np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_term_blocks())
@example(np.array([[1e308, 1e308, 0.5], [np.inf, 1.0, -np.inf], [0.5, 0.25, 0.15]]))
@example(np.array([[_LEVEL, 2.0**-1074, -(2.0**-1074)], [2.0**-950, -(2.0**-950), 0.0]]))
def test_row_sum_decisions_agree_with_fsum(terms):
    sums = RowSums(terms)
    for i, row in enumerate(terms.tolist()):
        try:
            ref = math.fsum(row)
        except (OverflowError, ValueError) as exc:  # every decision raises fsum's error
            assert (sums.lower[i], sums.upper[i]) == (-math.inf, math.inf)
            exact = functools.partial(sums.exact, i)
            exceeds = functools.partial(sums.exceeds, i, _LEVEL)
            for decide in (exact, exceeds, functools.partial(sums.max_with, i, 0.0)):
                with pytest.raises(type(exc)) as got:
                    decide()
                assert str(got.value) == str(exc)
            continue
        assert _same(sums.exact(i), ref)
        if math.isfinite(ref):
            assert sums.lower[i] <= ref <= sums.upper[i]
        levels = [0.0, math.inf, *_around(_LEVEL)]
        if math.isfinite(ref):
            levels += _around(ref)
        for level in map(float, levels):
            assert sums.exceeds(i, level) == (ref > level)
            assert _same(sums.max_with(i, level), max(ref, level))


def test_row_sum_bounds_decide_without_fsum(monkeypatch):
    rng = np.random.default_rng(3)
    terms = rng.standard_normal((50, 64)) * 0.01
    sums = RowSums(terms)
    refs = [math.fsum(row) for row in terms.tolist()]
    monkeypatch.setattr(math, "fsum", None)  # any call fails
    for i, ref in enumerate(refs):
        assert sums.exceeds(i, ref + 1.0) is False and sums.exceeds(i, ref - 1.0) is True
        assert sums.max_with(i, abs(ref) + 1.0) == abs(ref) + 1.0


# -- the slice center, derived from the functional -----------------------------------


def _bits(step):
    return np.array(step.values).tobytes()


def test_derived_center_equals_the_constants_center_on_witness_int():
    rng = np.random.default_rng(28)
    cases = {"gamma-proper": 0, "gamma-full": 0}
    while min(cases.values()) < 150:
        n = int(rng.integers(1, 41))
        g = MeasureGrid(tuple((10.0 ** rng.uniform(-3, 3, n)).tolist()))
        w, v = (tuple((10.0 ** rng.uniform(-4, 4, n)).tolist()) for _ in range(2))
        gamma = None if rng.random() < 0.5 else [cid for cid in g.ids if rng.random() < 0.5] or g.ids[:1]
        spec = IntSpaceSpec(g, gamma, w, v)
        try:
            cert = witness_int(spec)
        except (PreconditionError, WitnessConstructionError):
            continue
        cases[cert.constants["case"]] += 1
        assert _bits(_slice_center(spec, cert.functional)) == _bits(int_slice_center_reference(spec, cert))


def test_derived_center_equals_the_constants_center_on_classify_certificates():
    rng = np.random.default_rng(29)
    cases = {"gamma-proper": 0, "gamma-full": 0}
    while min(cases.values()) < 40:
        n = int(rng.integers(1, 9))
        g = MeasureGrid(tuple(rng.uniform(0.05, 2.0, n).tolist()))
        curves = [
            Linear(float(rng.uniform(0.1, 3.0)))
            if rng.random() < 0.3
            else PiecewiseLinear.closed((0.0, float(rng.uniform(0.2, 3.0))), (float(rng.uniform(0.1, 3.0)),))
            for _ in range(n)
        ]
        cert = classify(MusielakField(g, tuple(curves))).witness
        if cert is None:
            continue
        spec = component_spec(MusielakField(g, tuple(curves)))
        cases[cert.constants["case"]] += 1
        assert _bits(_slice_center(spec, cert.functional)) == _bits(int_slice_center_reference(spec, cert))


@pytest.mark.parametrize("functional", [(-1.5, 0.0, 0.7), (0.0, 0.0, -2.0), (2.0, -0.0, 3.0)])
def test_center_is_sign_over_v_on_gamma_for_any_functional(functional):
    # off gamma, or on no gamma cell, the functional leaves the center 0 there;
    # the certificate is checked like any other, whatever its constants say
    g = MeasureGrid((0.7, 0.9, 1.1))
    spec = IntSpaceSpec(g, {"c0", "c1"}, (1.2, 0.8, 1.0), (0.9, 1.1, 0.7))
    cert = replace(witness_int(spec), functional=StepFunction(g, functional), constants={"case": "gamma-proper"})
    center = [math.copysign(1.0, f) / v if f and cid != "c2" else 0.0 for cid, f, v in zip(g.ids, functional, spec.v)]
    assert _slice_center(spec, cert.functional).values == tuple(center)
    rec = verify_int_certificate(spec, cert, 200, 4)
    args = (spec, cert.x, cert.functional, StepFunction(g, tuple(center)), cert.epsilon, 200, 4)
    assert rec == verify_slice_reference(*args)


# -- one self-check step for every builder -------------------------------------------


def test_every_builder_raises_the_one_self_check_summary(monkeypatch):
    failing = record_from_samples(10, 10, 1.75, 2.5, 3, 0)
    classify_module = importlib.import_module("mospaces.classify")
    for module, name in (
        (interpolation, "verify_sum_certificate"),
        (interpolation, "verify_int_certificate"),
        (classify_module, "verify_nonsquare"),
    ):
        monkeypatch.setattr(module, name, lambda *args: failing)
    summary = "3 violations (max 2.5 against bound 1.75)"
    sum_spec, _ = _slice_case("sum")
    int_spec, _ = _slice_case("gamma-proper")
    nonsquare = MusielakField.constant(MeasureGrid((1.0, 0.5)), Power(2.0))
    for build, prefix in (
        (lambda: witness_sum(sum_spec, samples=5), "sum certificate failed its own verification: "),
        (lambda: witness_int(int_spec, samples=5), "intersection certificate failed its own verification: "),
        (lambda: classify(nonsquare, samples=5), "nonsquare witness failed its own verification: "),
    ):
        with pytest.raises(VerificationError) as exc:
            build()
        assert str(exc.value) == prefix + summary


@pytest.mark.parametrize("samples", [0, 5])
@pytest.mark.parametrize("case", ["sum", "gamma-proper", "gamma-full"])
def test_builders_check_unit_claims_before_sampling(monkeypatch, case, samples):
    spec, _ = _slice_case(case)
    steps = []
    check, verify_sum, verify_int = (
        interpolation.check_unit_norms, interpolation.verify_sum_certificate, interpolation.verify_int_certificate
    )
    monkeypatch.setattr(interpolation, "check_unit_norms", lambda *a: steps.append("unit") or check(*a))
    monkeypatch.setattr(interpolation, "verify_sum_certificate", lambda *a: steps.append("sample") or verify_sum(*a))
    monkeypatch.setattr(interpolation, "verify_int_certificate", lambda *a: steps.append("sample") or verify_int(*a))
    cert = (witness_sum if case == "sum" else witness_int)(spec, samples=samples)
    assert steps == ["unit", "sample"][: 1 + bool(samples)]
    assert (cert.verification is not None) == bool(samples)


# -- sums past DBL_MAX ---------------------------------------------------------------


_PIECE = {"family": "piecewise", "breakpoints": [0, 1e300], "slopes": [1e8], "end_value": 1e308}


@pytest.mark.parametrize(
    "masses, space, explanation",
    [
        # the collapse integral and the w/v ratio pass DBL_MAX
        ([1.5, 1.5], {"kind": "musielak", "curves": [_PIECE, _PIECE]}, "margin epsilon 0.0 is not positive at these weights"),
        (
            [1.5, 1.5],
            {"kind": "weighted_intersection", "w": [1e308, 1e308], "v": [1, 1]},
            "margin epsilon 0.0 is not positive at these weights",
        ),
        # the v/w ratio passes DBL_MAX
        (
            [1.5, 1.5],
            {"kind": "weighted_sum", "v": [1e308, 1e308], "w": [1, 1]},
            "every cell has mass*v above w; the construction needs a smaller cell",
        ),
        # witness_int's w mass off gamma passes DBL_MAX
        (
            [1, 1.5, 1.5],
            {"kind": "weighted_intersection", "gamma": ["c0"], "w": [0.5, 1e308, 1e308], "v": [1, 1, 1]},
            "the w mass off gamma is beyond the float range",
        ),
        # the mass off gamma passes DBL_MAX
        (
            [1, 1e308, 1e308],
            {"kind": "weighted_intersection", "gamma": ["c0"], "w": [0.5, 1, 1], "v": [1, 1, 1]},
            "the w mass off gamma is beyond the float range",
        ),
    ],
)
def test_classify_of_sums_past_dbl_max_exits_cleanly(tmp_path, capsys, masses, space, explanation):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"weights": masses}, "space": space, "samples": 50}))
    capsys.readouterr()
    assert cli.main(["classify", "--config", str(path)]) == cli.EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["verdict"], res["witness"], res["explanation"]) == ("not-daugavet", None, explanation)

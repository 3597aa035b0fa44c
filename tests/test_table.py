"""The columnar parse of ``musielak`` curve lists against the per-cell parse.

``cli.parse_space`` turns a list of plain curve specs straight into a
``CurveTable``; the reference is one ``parse_curve`` per cell and a field
made from the curve objects.  The table also stands in for the per-cell
``_knot_table``, ``inverse_upper`` loop, modular and ``params`` the solvers
and the structural split used to read, so those are checked against the
curve objects here too.
"""

import contextlib
import io
import itertools
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mospaces import (
    ConfigError,
    CurveParams,
    GridMismatchError,
    Indicator,
    Linear,
    MeasureGrid,
    MusielakField,
    PiecewiseLinear,
    Power,
    StepFunction,
    UnknownCellError,
    bounded_level_sets,
    classify,
    conjugate,
    decomposition_norm,
    finite_elements_nontrivial,
    modular,
    modular_of_bounds,
    partition,
    weights,
)
from mospaces import musielak
from mospaces.classify import _nonsquare_directions
from mospaces.cli import EXIT_OK, _curve_table, jsonify, main, num, parse_curve, parse_grid, parse_space
from mospaces.table import CurveTable, InvalidCell, _check_piecewise, _fsums

from helpers import (
    fsums_reference,
    half_ratio_reference,
    knot_values_reference,
    modular_of_bounds_reference,
    partition_reference,
    random_field,
    scaled_modular,
    weights_reference,
)
from test_norm_reports import PINNED, _config

INF = math.inf
_DBL_MAX = sys.float_info.max
_SCALES = (1e-300, 1e-200, 1e-30, 1e-3, 1.0, 1e3, 1e30, 1e200, 1e300)
_LEVELS = (1.0, 0.3, 1.05, 1e-300, 1e300)


# -- configs -----------------------------------------------------------------


def _number(rng, scale):
    """A positive plain number near ``scale``: an int now and then, else a float."""
    if scale == 1.0 and rng.random() < 0.3:
        return rng.randint(1, 9)
    return rng.uniform(0.5, 4.0) * scale


def _piecewise(rng):
    k = rng.randint(1, 6)
    s_bp, s_sl = rng.choice(_SCALES), rng.choice(_SCALES)
    bp, t = [rng.choice((0, 0.0))], 0.0
    for _ in range(k - 1):
        t += _number(rng, s_bp)
        bp.append(t)
    bounded = rng.random() < 0.5
    bp.append(t + _number(rng, s_bp) if bounded else "inf")
    first = rng.choice((0, 0.0)) if rng.random() < 0.3 and (bounded or k > 1) else _number(rng, s_sl)
    slopes, s = [first], float(first)
    for _ in range(k - 1):
        s += _number(rng, s_sl)
        slopes.append(s)
    spec = {"family": "piecewise", "breakpoints": bp, "slopes": slopes}
    mode = rng.random()
    if not bounded:
        if mode < 0.2:  # a number is ignored on an unbounded domain
            spec["end_value"] = rng.choice((None, 1.0, "inf", "-inf"))
        elif mode < 0.205:  # anything else is refused
            spec["end_value"] = rng.choice((True, "x", [1], 10**400))
    elif mode < 0.2:
        spec["end_value"] = "inf"
    elif mode < 0.3:
        spec["end_value"] = None
    elif mode < 0.5:
        try:
            rises = (float(s) * (float(u1) - float(u0)) for s, u0, u1 in zip(slopes, bp, bp[1:]))
            spec["end_value"] = math.fsum(rises)
        except OverflowError:
            pass
    return spec


def _spec(rng):
    family = rng.choice(("power", "linear", "indicator", "piecewise", "piecewise"))
    if family == "power":
        p = rng.choice((2, 3, rng.uniform(1.01, 4.0), 1.0 + 2.0**-40, 150.0, 1e300))
        return {"family": "power", "p": p}
    if family == "piecewise":
        return _piecewise(rng)
    key = "slope" if family == "linear" else "bound"
    return {"family": family, key: _number(rng, rng.choice(_SCALES))}


def _weights(rng, n):
    scale = rng.choice((1.0, 1.0, 1e-300, 1e300))
    return [rng.uniform(0.5, 2.0) * scale for _ in range(n)]


def _cfg(seed, n):
    rng = random.Random(seed)
    return {
        "grid": {"weights": _weights(rng, n)},
        "space": {"kind": "musielak", "curves": [_spec(rng) for _ in range(n)]},
    }


def _points(seed, field, count=3):
    """|x| rows: random magnitudes, zeros, and each cell's knots and ends hit exactly."""
    rng = np.random.default_rng(seed)
    n = len(field.grid)
    ends = [
        c.breakpoints[1:] if isinstance(c, PiecewiseLinear) else (c.bound,) if isinstance(c, Indicator) else (1.0,)
        for c in field.curves
    ]
    rows = []
    for _ in range(count):
        x = np.abs(rng.standard_normal(n)) * rng.choice(_SCALES)
        x[rng.random(n) < 0.2] = 0.0
        for i in np.flatnonzero(rng.random(n) < 0.3):
            u = ends[i][rng.integers(len(ends[i]))]
            if math.isfinite(u):
                x[i] = u
        rows.append(x)
    return rows


# -- references ----------------------------------------------------------------


def _reference_space(cfg) -> MusielakField:
    """The per-cell parse of a ``musielak`` config: one ``parse_curve`` per cell."""
    grid = parse_grid(cfg["grid"])
    try:
        return MusielakField(grid, tuple(parse_curve(c) for c in cfg["space"]["curves"]))
    except (KeyError, TypeError, ValueError, GridMismatchError, UnknownCellError) as exc:
        raise ConfigError(f"bad space spec: {exc}") from exc


def _knot_row(curve):
    """(left knots, knot values, slopes from each knot, b, closed value at b): the
    per-cell knot table the compiled kernel read before the column table."""
    if isinstance(curve, Linear):
        return (0.0,), (0.0,), (curve.slope,), INF, INF
    if isinstance(curve, Indicator):
        return (0.0,), (0.0,), (0.0,), curve.bound, 0.0
    b = curve.breakpoints[-1]
    vb = curve.value_closed(b) if math.isfinite(b) else INF
    return curve.breakpoints[:-1], knot_values_reference(curve)[:-1], curve.slopes, b, vb


def _same(a, b) -> bool:
    """Bit for bit: arrays, lists of arrays, or scalars."""
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # compared, never swallowed: a mismatch fails the test
        return type(exc).__name__, str(exc)


def _odd_end(spec) -> bool:
    """An end value ``num`` refuses: the columns decline it."""
    end = spec.get("end_value") if isinstance(spec, dict) else None
    return end is not None and _outcome(num, end)[0] != "ok"


def _first_refused(specs):
    for i, spec in enumerate(specs):
        try:
            parse_curve(spec)
        except Exception:
            return i
    return None


# -- the tests -----------------------------------------------------------------


def _check_against_curves(field, ref):
    """The table of ``field`` reads as the curve objects of ``ref`` do."""
    table, curves = field.table, ref.curves
    prms = [c.params() for c in curves]
    w = ref.grid.weights
    for column, key in ((table.cell_a, "a"), (table.cell_d, "d"), (table.cell_b, "b")):
        assert _same(column, np.array([getattr(p, key) for p in prms])), key
    for row, i in enumerate(table.knotted.tolist()):
        knots, values, slopes, b, vb = _knot_row(curves[i])
        k = len(knots)
        assert table.counts[row] == k
        assert _same(table.knots[row, :k], np.array(knots, dtype=float))
        assert _same(table.values[row, :k], np.array(values, dtype=float))
        assert _same(table.slopes[row, :k], np.array(slopes, dtype=float))
        assert _same(table.b[row], b) and _same(table.closed[row], vb)
        assert table.blowup[row] == (math.isfinite(prms[i].b) and math.isinf(prms[i].value_at_b))
    for level in _LEVELS:
        caps = [min(prm.b, crv.inverse_upper(level / wi)) for crv, wi, prm in zip(curves, w, prms)]
        assert _same(musielak._start_caps(field, level), np.array(caps))


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 5, 17, 64, 300)))
def test_columnar_parse_equals_the_per_cell_parse(seed, n):
    cfg = _cfg(seed, n)
    got = _outcome(parse_space, cfg)
    want = _outcome(_reference_space, cfg)
    if want[0] != "ok":
        assert got == want
        return
    field, ref = got[1].field, want[1]
    assert "curves" not in vars(field)  # built from the columns, no curve object yet
    fk, rk = field._kernel, ref._kernel
    assert vars(fk).keys() == vars(rk).keys()
    for key, value in vars(fk).items():
        assert _same(value, vars(rk)[key]), key
    for level in _LEVELS:
        assert _same(musielak._start_caps(field, level), musielak._start_caps(ref, level))
    for ax in _points(seed, ref):
        x = StepFunction(ref.grid, tuple(ax.tolist()))
        want_rho = _outcome(lambda: repr(scaled_modular(ref, ax.tolist())))  # the reference
        assert _outcome(lambda: repr(modular(field, x))) == want_rho
        assert _outcome(lambda: repr(modular(ref, x))) == want_rho
    assert repr(field.curves) == repr(ref.curves)
    assert field.curves == ref.curves
    assert [c.params() for c in field.curves] == [c.params() for c in ref.curves]
    _check_against_curves(field, ref)


# one rule broken per mutation; "plain" ones keep every token a plain number,
# so the columns must decide them
def _set(key, value):
    def mutate(spec):
        spec[key] = value

    return mutate


def _token(key, at, value):
    def mutate(spec):
        if spec.get(key):
            spec[key][at % len(spec[key])] = value

    return mutate


def _slopes(change):
    def mutate(spec):
        sl = spec.get("slopes")
        if isinstance(sl, list) and sl and isinstance(sl[-1], (int, float)):
            change(sl)

    return mutate


def _fresh(family, rng):
    if family == "piecewise":
        return _piecewise(rng)
    return {"family": family, {"power": "p", "linear": "slope", "indicator": "bound"}[family]: 2.0}


def _mutations():
    plain = [
        ("power", _set("p", 1.0)), ("power", _set("p", 1)), ("power", _set("p", 0.5)),
        ("power", _set("p", math.nan)), ("power", _set("p", INF)), ("power", _set("p", -2)),
        ("linear", _set("slope", 0)), ("linear", _set("slope", -1.0)), ("linear", _set("slope", math.nan)),
        ("linear", _set("slope", INF)), ("indicator", _set("bound", 0.0)), ("indicator", _set("bound", INF)),
        ("indicator", _set("bound", math.nan)),
        ("piecewise", _token("breakpoints", 0, 0.5)),
        ("piecewise", _token("breakpoints", 1, 0.0)),
        ("piecewise", _token("breakpoints", 1, INF)),
        ("piecewise", _token("breakpoints", 1, math.nan)),
        ("piecewise", _token("breakpoints", -1, -1.0)),
        ("piecewise", _token("breakpoints", -1, math.nan)),
        ("piecewise", _token("breakpoints", -1, -INF)),
        ("piecewise", _token("slopes", 0, -1.0)),
        ("piecewise", _token("slopes", 0, math.nan)),
        ("piecewise", _token("slopes", -1, INF)),
        ("piecewise", _token("slopes", 1, 0)),
        ("piecewise", _set("breakpoints", [0.0, "inf"])),  # with more slopes than segments
        ("piecewise", _set("breakpoints", [])),
        ("piecewise", _set("slopes", [])),
        ("piecewise", lambda s: s.update(breakpoints=[0, "inf"], slopes=[0])),  # identically zero
        ("piecewise", lambda s: s.update(breakpoints=[0, 1.0, 2.0], slopes=[1.0, 2.0], end_value=2.5)),
        ("piecewise", lambda s: s.update(breakpoints=[0, 1.0, 2.0], slopes=[1.0, 2.0], end_value=math.nan)),
        ("piecewise", lambda s: s.update(breakpoints=[0, 1.0, 2.0], slopes=[1.0, 2.0], end_value=-INF)),
        ("piecewise", lambda s: s.update(breakpoints=[0, 1e308, 1.7e308], slopes=[1.0, 2.0])),  # fsum overflows
        ("piecewise", lambda s: s.update(breakpoints=[0, 1e308, 1.7e308], slopes=[1.0, 2.0], end_value="inf")),
        ("piecewise", _set("end_value", "-inf")),  # refused on a bounded domain, ignored on an unbounded one
        ("piecewise", _slopes(lambda sl: sl.append(float(sl[-1]) + 1.0))),  # one slope too many
        ("piecewise", _slopes(list.pop)),  # one too few
        (None, _set("family", "cubic")),
        (None, _set("family", 3)),
        ("power", _set("p", 2**63 + 1)),  # valid: ints convert as float() converts them
        ("piecewise", _token("breakpoints", -1, 2**70 + 12345)),
        ("piecewise", _token("slopes", -1, 2**64 - 1)),
    ]
    hostile = [
        (None, _set("family", True)), (None, _set("family", ["power"])),
        ("power", _set("p", True)), ("power", _set("p", "2")), ("power", _set("p", [2])),
        ("power", _set("p", None)), ("power", _set("p", 10**400)), ("power", lambda s: s.pop("p", None)),
        ("linear", _set("slope", False)), ("indicator", _set("bound", {"a": 1})),
        ("piecewise", _token("breakpoints", 1, True)), ("piecewise", _token("breakpoints", 1, "1.5")),
        ("piecewise", _token("breakpoints", 1, "inf")), ("piecewise", _token("breakpoints", 0, 10**400)),
        ("piecewise", _token("slopes", 0, "inf")), ("piecewise", _token("slopes", 0, False)),
        ("piecewise", _set("end_value", True)), ("piecewise", _set("end_value", 10**400)),
        ("piecewise", _set("end_value", "x")), ("piecewise", _set("end_value", [1])),
        ("piecewise", _set("breakpoints", "abc")), ("piecewise", _set("slopes", {"a": 1})),
        ("piecewise", lambda s: s.pop("slopes", None)),
    ]
    return [(f, m, True) for f, m in plain] + [(f, m, False) for f, m in hostile]


_MUTATIONS = _mutations()


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, len(_MUTATIONS) - 1)), max_size=2),
    st.sampled_from(["keep", "keep", "keep", "drop", "add", "odd"]),
)
def test_columnar_parse_refuses_what_the_per_cell_parse_refuses(seed, n, breaks, count):
    cfg = _cfg(seed, n)
    specs = cfg["space"]["curves"]
    plain = True
    for at, which in breaks:
        family, mutate, keeps_plain = _MUTATIONS[which]
        i = at % n
        if family is not None and specs[i]["family"] != family:
            specs[i] = _fresh(family, random.Random(at))
        mutate(specs[i])
        plain &= keeps_plain
    if count == "drop" and n > 1:
        specs.pop()
    elif count == "add":
        specs.append({"family": "linear", "slope": 1.0})
    elif count == "odd":
        specs.insert(n // 2, [1.0])  # a spec that is no dict
        plain = False
    plain &= not any(map(_odd_end, specs))  # _piecewise draws one now and then
    cfg = json.loads(json.dumps(cfg))  # the tokens as json.load gives them
    specs = cfg["space"]["curves"]
    want = _outcome(lambda c: repr(_reference_space(c).curves), cfg)
    assert _outcome(lambda c: repr(parse_space(c).field.curves), cfg) == want
    assert "\n" not in want[1]
    try:
        table = _curve_table(specs)
        refused = None
    except InvalidCell as exc:
        table, refused = "refused", exc.index
    if plain:
        assert table is not None  # the columns decided
        assert refused == _first_refused(specs)
    if table is None:  # the columns decline only a list holding an invalid curve
        assert _first_refused(specs) is not None


# rises near DBL_MAX, subnormal ones, infinities of both signs (inf - inf) and signed zeros
_RISES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-960, 1.7e308, -1.7e308, 8.9e307, INF, -INF, 1.0 + 2.0**-52]),
)


def _hexes(values) -> list:
    return [float(v).hex() for v in values]  # "nan" for every NaN, and -0.0 apart from 0.0


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.lists(st.lists(_RISES, min_size=1, max_size=17), max_size=12))
def test_tree_summed_left_limits_equal_one_fsum_per_cell(runs):
    lengths = list(map(len, runs))
    values = [v for run in runs for v in run]
    got = _fsums(np.array(values, dtype=float), np.array(lengths, dtype=np.intp))
    assert _hexes(got) == _hexes(fsums_reference(values, lengths))


_KNOTS = st.one_of(st.floats(5e-324, 1.7e308), st.sampled_from([5e-324, 1e-310, 1.0, 8.9e307, 1.7e308, _DBL_MAX]))
_SLOPES = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, _DBL_MAX]))


@st.composite
def _bounded_cells(draw):
    """(breakpoints, slopes) of bounded piecewise cells, one knot or more, breaking
    the curve rules now and then: their left limits are summed all the same."""
    cells = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(1, 6))
        knots = draw(st.lists(_KNOTS, min_size=k, max_size=k))
        cells.append(([0.0, *sorted(knots)], draw(st.lists(_SLOPES, min_size=k, max_size=k))))
    return cells


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_bounded_cells())
def test_the_left_limits_of_extreme_cells_are_one_fsum_each(cells):
    bp = np.array([u for knots, _ in cells for u in knots])
    sl = np.array([v for _, slopes in cells for v in slopes])
    bp_len = np.array([len(knots) for knots, _ in cells], dtype=np.intp)
    sl_len = np.array([len(slopes) for _, slopes in cells], dtype=np.intp)
    n = len(cells)
    with np.errstate(all="ignore"):
        _, limits = _check_piecewise(bp, bp_len, sl, sl_len, np.zeros(n, dtype=bool), np.full(n, math.nan))
    rises = [[v * (hi - lo) for v, lo, hi in zip(slopes, knots, knots[1:])] for knots, slopes in cells]
    assert _hexes(limits) == _hexes(fsums_reference([r for run in rises for r in run], list(map(len, rises))))


@pytest.mark.parametrize("flavour", sorted(PINNED))
def test_the_norm_path_builds_no_curve_object(tmp_path, monkeypatch, flavour):
    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (Power, Linear, Indicator, PiecewiseLinear, CurveParams):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(flavour)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["norm", "--config", str(path)]) == EXIT_OK


# -- the structural columns ------------------------------------------------------


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 5, 17)))
def test_the_structure_layer_reads_only_the_table(seed, n):
    cfg = _cfg(seed, n)
    got = _outcome(parse_space, cfg)
    if got[0] != "ok":
        return
    field, ref = got[1].field, _reference_space(cfg)
    part = partition(field)
    assert (part.omega_inf, part.omega_1, part.omega_1inf, part.remainder) == partition_reference(ref)
    half = field.grid.ids[::2]
    for cells in (None, half):
        want = _outcome(lambda: repr(modular_of_bounds_reference(ref, cells)))
        assert _outcome(lambda: repr(modular_of_bounds(field, cells))) == want
    assert finite_elements_nontrivial(field) == any(math.isinf(c.params().b) for c in ref.curves)
    for u in (0.0, 1.0, 1e300, INF):
        _outcome(bounded_level_sets, field, u)
    x = np.linspace(-1.0, 1.0, n)
    rows = list(_nonsquare_directions(field, x, n + 8, np.random.default_rng(seed), 4))
    bounded = [min(c.params().b, 1.0) for c in ref.curves]
    assert _same(np.concatenate(rows)[n + 4], np.array(bounded))  # the bounded profile
    _assert_structure(field, ref)
    _outcome(decomposition_norm, field, StepFunction(field.grid, tuple(x.tolist())))
    _outcome(classify, field, 20, seed)  # the non-square witness's halving ratios included
    assert "curves" not in vars(field)  # no curve object built


def _up(total):
    """``total()``, or inf where its fsum passes DBL_MAX."""
    try:
        return total()
    except OverflowError:
        return INF


def _assert_structure(field, ref):
    """The field's structure record against the per-curve references on ``ref``,
    a field of the same curves as objects; ``weights`` where its v is finite."""
    st, ids, mass = field._structure, field.grid.ids, field.grid.weights
    parts = partition_reference(ref)
    masks = (st.omega_inf, st.omega_1, st.omega_1inf, st.remainder)
    assert tuple(frozenset(itertools.compress(ids, m.tolist())) for m in masks) == parts
    masses = (st.mass_omega_inf, st.mass_omega_1, st.mass_omega_1inf, st.mass_remainder)
    assert masses == tuple(_up(lambda: field.grid.measure(p)) for p in parts)
    v, w = weights_reference(ref)
    assert _same(st.v, np.array(v)) and _same(st.w, np.array(w))
    assert repr(st.modular_at_bounds) == repr(modular_of_bounds_reference(ref))
    assert repr(modular_of_bounds(field)) == repr(st.modular_at_bounds)
    ends = [c.params().b for c in ref.curves]
    terms = [w[i] * ends[i] * mass[i] for i, cid in enumerate(ids) if cid in parts[2]]
    want = INF if parts[1] else _up(lambda: math.fsum(terms))
    assert repr(st.collapse_integral) == repr(want)
    if all(map(math.isfinite, v)):
        wp = weights(field)
        assert _same(np.array(wp.v.values), np.array(v)) and _same(np.array(wp.w.values), np.array(w))
    else:  # a step function holds finite values only
        with pytest.raises(ValueError, match="finite"):
            weights(field)


_EDGE_CURVES = (
    PiecewiseLinear((0.0, 1.0, 2.0), (0.0, 1.5), INF),  # flat first piece, blow-up end
    PiecewiseLinear((0.0, 2.0), (0.0,), 0.0),  # one flat piece: indicator type
    PiecewiseLinear((0.0, 2.0), (1.0,), INF),  # linear up to a blow-up end
    PiecewiseLinear((0.0, 0.5, INF), (0.0, 1.0), None),  # flat first piece, unbounded
    Indicator(0.5),
    PiecewiseLinear.closed((0.0, 1e-310), (1.0,)),  # a subnormal end: v = 1/b is inf
    PiecewiseLinear((0.0, 1e-310), (1.0,), INF),  # a subnormal blow-up end
    Indicator(1e-310),
    PiecewiseLinear.closed((0.0, 1e300), (1e8,)),  # phi(b) = 1e308: the sums at the ends pass DBL_MAX
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_structure_from_the_table_equals_the_per_curve_references(seed):
    rng = np.random.default_rng(seed)
    base = random_field(rng, n=int(rng.integers(1, 8)), dyadic=bool(rng.integers(2)))
    extra = [_EDGE_CURVES[k] for k in rng.integers(len(_EDGE_CURVES), size=int(rng.integers(0, 3)))]
    curves = list(base.curves) + extra
    rng.shuffle(curves)
    weights_ = tuple(float(w) for w in rng.uniform(0.1, 3.0, len(curves)))
    f = MusielakField(MeasureGrid(weights_), curves)
    part = partition(f)
    assert (part.omega_inf, part.omega_1, part.omega_1inf, part.remainder) == partition_reference(f)
    _assert_structure(f, f)
    sub = [cid for cid in f.grid.ids if rng.random() < 0.5]
    for cells in (None, sub):
        want = _outcome(lambda: repr(modular_of_bounds_reference(f, cells)))
        assert _outcome(lambda: repr(modular_of_bounds(f, cells))) == want


def test_the_structure_record_takes_sums_past_dbl_max_as_inf():
    # each end term is 1.5e308: their sum, the masses' and the modular's are inf
    big = PiecewiseLinear.closed((0.0, 1e300), (1e8,))
    field = MusielakField(MeasureGrid((1.5, 1.5)), (big, big))
    assert modular_of_bounds(field) == INF
    assert field._structure.modular_at_bounds == field._structure.collapse_integral == INF
    _assert_structure(field, field)
    heavy = MusielakField(MeasureGrid((1e308, 1e308)), (Linear(1.0),) * 2)
    assert heavy._structure.mass_omega_1 == modular(heavy, StepFunction(heavy.grid, (1.0, 1.0))) == INF
    _assert_structure(heavy, heavy)


# -- conjugates, specs and halving ratios from the columns ------------------------


def _fields(seed, n):
    """The field of the config of ``seed`` and that of its conjugate, where they parse."""
    got = _outcome(parse_space, _cfg(seed, n))
    if got[0] != "ok":
        return []
    conj = _outcome(musielak.conjugate_field, got[1].field)
    return [got[1].field] + ([conj[1]] if conj[0] == "ok" else [])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 5, 17)))
def test_the_conjugate_columns_equal_the_curve_conjugates(seed, n):
    got = _outcome(parse_space, _cfg(seed, n))
    if got[0] != "ok":
        return
    field = got[1].field
    want = _outcome(lambda: repr(tuple(conjugate(c) for c in field.curves)))
    try:
        assert ("ok", repr(field.table.conjugate().curves())) == want
    except InvalidCell as exc:  # both paths refuse, at the same first cell
        assert want == _outcome(lambda: repr(conjugate(field.curves[exc.index])))
    assert _outcome(lambda: repr(musielak.conjugate_field(field).curves)) == want


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 5, 17)))
def test_the_specs_parse_back_to_the_curves(seed, n):
    for field in _fields(seed, n):
        specs = json.loads(json.dumps(jsonify(field.table.specs())))  # as the CLI writes them
        assert repr(tuple(map(parse_curve, specs))) == repr(field.table.curves())


def _knots(curve):
    if isinstance(curve, PiecewiseLinear):
        return curve.breakpoints[1:]
    return (curve.bound,) if isinstance(curve, Indicator) else ()


def _check_half_ratios(table, curves, lo, hi):
    """``half_ratio_sup`` on every cell equals the scalar reference bit for bit."""
    his = hi if isinstance(hi, list) else [hi] * len(curves)
    want = [half_ratio_reference(c, lo, h) for c, h in zip(curves, his)]
    assert _same(table.half_ratio_sup(range(len(curves)), lo, hi), np.array(want)), (lo, hi)


_DOUBLED_PAST_DBL_MAX = (
    PiecewiseLinear((0.0, 1.5e308, INF), (1.0, 2.0), None),
    PiecewiseLinear((0.0, 1e-300, 1.5e308, 1.7e308), (0.0, 0.5, 1.0), INF),
    PiecewiseLinear.closed((0.0, 1e300, 1.6e308), (1e-300, 1.0)),
)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 5, 17)))
def test_the_half_ratios_equal_the_scalar_reference(seed, n):
    rng = random.Random(seed)
    for field in _fields(seed, n):
        table = CurveTable.of_curves(field.curves + _DOUBLED_PAST_DBL_MAX)
        curves = table.curves()
        knots = [u for c in curves for u in _knots(c) if math.isfinite(u)]
        points = [u * t for u in knots for t in (0.5, 1.0, 2.0, rng.uniform(0.5, 1.5))]
        points = [u for u in points if 0.0 < u < INF] + [rng.choice(_SCALES)]
        ends = table.cell_b.tolist()
        for _ in range(4):
            lo = rng.choice(points)
            closed = [b if math.isfinite(c.params().value_at_b) else lo for b, c in zip(ends, curves)]
            for hi in (lo, INF, max(lo, rng.choice(points)), [max(lo, b) for b in closed]):
                _check_half_ratios(table, curves, lo, hi)
            _check_half_ratios(table, curves, lo, [max(lo, rng.choice(points)) for _ in curves])

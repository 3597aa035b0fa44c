"""The columnar parse of ``musielak`` curve lists against the per-cell parse.

``cli.parse_space`` turns a list of plain curve specs straight into a
``CurveTable``; the reference is one ``parse_curve`` per cell and a field
made from the curve objects.  The table also stands in for the per-cell
``_knot_table``, ``inverse_upper`` loop and ``_scaled_modular`` the solvers
used to read, so those are checked against the curve objects here too.
"""

import contextlib
import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mospaces import (
    ConfigError,
    CurveParams,
    GridMismatchError,
    Indicator,
    Linear,
    MusielakField,
    PiecewiseLinear,
    Power,
    StepFunction,
    UnknownCellError,
    modular,
)
from mospaces import musielak
from mospaces.cli import EXIT_OK, _curve_table, main, parse_curve, parse_grid, parse_space
from mospaces.table import InvalidCell

from helpers import knot_values_reference
from test_norm_reports import PINNED, _config

INF = math.inf
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
        if mode < 0.2:
            spec["end_value"] = rng.choice((None, 1.0, "inf"))  # ignored on an unbounded domain
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
    table, curves, prms = field.table, ref.curves, ref.cell_params
    w = ref.grid.weights
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
        want_rho = _outcome(lambda: repr(musielak._scaled_modular(ref, ax.tolist())))  # the reference
        assert _outcome(lambda: repr(modular(field, x))) == want_rho
        assert _outcome(lambda: repr(modular(ref, x))) == want_rho
    assert repr(field.curves) == repr(ref.curves)
    assert field.curves == ref.curves and field.cell_params == ref.cell_params
    _check_against_curves(field, ref)


# one rule broken per mutation; "plain" ones keep every token a plain number,
# so the columns, not the per-cell path, must refuse them
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
        ("piecewise", _set("end_value", "-inf")), ("piecewise", _set("end_value", "x")),
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
        assert table is not None  # the columns decided, not the per-cell path
        assert refused == _first_refused(specs)


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

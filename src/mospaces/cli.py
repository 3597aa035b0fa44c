"""Command line interface: norm, classify, verify, probe, conjugate.

Configuration and reports are JSON.  Floats serialize at full precision
with explicit "inf" tokens; every randomized operation takes its seed from
the config (or the --seed override), so identical config and seed reproduce
identical reports byte for byte.  Wall time is reported as 0 unless
--timing is given, keeping the default output deterministic.

``parse_space`` alone reads a config's space kind: it returns a
``GaugeSpace`` (a Musielak-Orlicz field) or a ``WeightedSpace`` (a
weighted sum or intersection spec), and each command calls that object:
``norms``, ``classify``, ``oracles`` (for ``probe``), ``conjugate``, and
for ``verify`` the ``verify`` of its ``certificate_space``.

Exit codes: 0 success, 2 configuration/parse failure, 3 precondition
failure, 4 verification violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import marshal
import math
import operator
import sys
import time
from dataclasses import dataclass, is_dataclass
from typing import Any, Callable, Optional, Union

import numpy as np

from . import __version__
from .classify import check_unit_modular, classify, component_spec, verify_nonsquare
from .curves import Indicator, Linear, OrliczCurve, PiecewiseLinear, Power
from .errors import (
    ConfigError,
    GridMismatchError,
    MospacesError,
    PreconditionError,
    UnknownCellError,
    VerificationError,
)
from .grid import MeasureGrid, StepFunction
from .interpolation import (
    IntSpaceSpec,
    SumSpaceSpec,
    check_unit_norms,
    classify_int,
    classify_sum,
    verify_int_certificate,
    verify_sum_certificate,
    wint_norm,
    wsum_norm,
)
from .musielak import (
    MusielakField,
    amemiya_norm,
    conjugate_field,
    luxemburg_norm,
    luxemburg_norms,
    modular,
)
from .probes import BlockOracle, Slice, daugavet_condition_probe, roughness_probe, slice_diameter_lb
from .reports import FailureCertificate, NonsquareWitness, VerificationRecord
from .table import FAMILIES, NUMBERS, PIECEWISE, CurveTable, InvalidCell

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4

# Largest accepted sample budget.  The verifiers may draw 50 points per
# requested sample, so an unchecked count such as 3.4e38 never finishes;
# a count above this is a config error.
MAX_SAMPLES = 10**6

# Largest generated grid.  Its weights are drawn up front, so an unchecked
# "cells": 1e13 asks numpy for tens of TiB; a larger count is a config error.
MAX_CELLS = 10**6


# --------------------------------------------------------------------------
# JSON with explicit infinity tokens


def jsonify(obj) -> Any:
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(str(v) for v in obj)
    if isinstance(obj, StepFunction):
        return [jsonify(float(v)) for v in obj.values]
    if is_dataclass(obj):
        return jsonify(vars(obj))
    return obj


_encode_str = json.encoder.encode_basestring_ascii
_encode_floats = json.JSONEncoder().encode  # the C encoder: "[a, b, ...]", inf as Infinity


def report_json(obj) -> str:
    """``json.dumps(jsonify(obj), sort_keys=True, indent=2)``, in one walk.

    The walk converts as ``jsonify`` does and prints as the encoder does,
    byte for byte; a list or tuple of floats goes to the C encoder in one
    call, which puts ", " only between its items, so splitting there gives
    the indented lines.
    """
    out = []
    _write(obj, "\n", out.append)
    return "".join(out)


def _write(obj, pad: str, put) -> None:
    """``put`` the indented JSON of ``jsonify(obj)``; ``pad`` is a newline
    and the indent of the line ``obj`` starts on."""
    if isinstance(obj, float):
        if math.isinf(obj):
            put('"inf"' if obj > 0 else '"-inf"')
        else:
            put("NaN" if obj != obj else float.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in sorted({str(k): v for k, v in obj.items()}.items(), key=operator.itemgetter(0)):
            put(sep + _encode_str(key) + ": ")
            _write(value, inner, put)
            sep = "," + inner
        put(pad + "}")
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, pad, put)
    elif isinstance(obj, (frozenset, set)):
        _write_list(sorted(str(v) for v in obj), pad, put)
    elif isinstance(obj, StepFunction):
        _write_list(obj.values, pad, put)
    elif is_dataclass(obj):
        _write(vars(obj), pad, put)
    elif isinstance(obj, str):
        put(_encode_str(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _write_list(items, pad: str, put) -> None:
    if not items:
        put("[]")
        return
    inner = pad + "  "
    if {float}.issuperset(map(type, items)):
        text = _encode_floats(items)
        if "Infinity" in text:
            text = text.replace("-Infinity", '"-inf"').replace("Infinity", '"inf"')
        put("[" + inner + text[1:-1].replace(", ", "," + inner) + pad + "]")
        return
    if {str}.issuperset(map(type, items)):  # one call; an id may itself contain ", "
        put("[" + inner + ("," + inner).join(map(_encode_str, items)) + pad + "]")
        return
    sep = "[" + inner
    for item in items:
        put(sep)
        _write(item, inner, put)
        sep = "," + inner
    put(pad + "]")


def num(value) -> float:
    """A JSON number or an "inf"/"-inf" token as a float; a boolean is no number."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            raise ConfigError(
                "expected a number or 'inf', got an integer out of float range"
            ) from None
    raise ConfigError(f"expected a number or 'inf', got {value!r}")


_PLAIN_NUMBERS = frozenset({int, float})
_END_TOKENS = _PLAIN_NUMBERS | {type(None)}


def _flat_numbers(lists) -> Optional[list]:
    """The tokens of the JSON lists ``lists`` in one flat list, each list's
    trailing "inf" as inf, or None unless each list holds plain ints and
    floats, perhaps ending in "inf".

    The trailing "inf"s are replaced first, so one type pass over the
    tokens refuses every other string (a mid-list "inf", "-inf", a numeric
    string) and every boolean.  The ints are left for the caller to convert;
    one beyond the float range raises OverflowError there.
    """
    if not {list}.issuperset(map(type, lists)):
        return None
    flat = list(itertools.chain.from_iterable(lists))
    # the end of an empty list is the end of the one before it, whose last
    # token may be "inf" as well; an empty first list ends at 0
    for end in itertools.accumulate(map(len, lists)):
        if end and flat[end - 1] == "inf":
            flat[end - 1] = math.inf
    return flat if _PLAIN_NUMBERS.issuperset(map(type, flat)) else None


def nums(tokens) -> tuple:
    """``num`` of each token of a JSON list.

    A list of plain ints and floats, perhaps ending in "inf", converts in one
    pass; any other token (and an int beyond the float range) takes the
    per-token path, which raises what ``num`` raises.
    """
    flat = _flat_numbers([tokens])
    if flat is not None:
        try:
            return tuple(map(float, flat))
        except OverflowError:  # an int beyond the float range
            pass
    return tuple(num(t) for t in tokens)


def _listed(value, what: str) -> tuple:
    """A JSON list of ids as a tuple; a string or an object is no list of ids."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return tuple(value)


def _cell_ids(value, what: str) -> tuple:
    """A JSON list of cell ids as a tuple; each id must be a string."""
    for cid in (ids := _listed(value, what)):
        if not isinstance(cid, str):
            raise ConfigError(f"{what} must be strings, got {cid!r}")
    return ids


def _sorted_object(pairs: list) -> dict:
    """A decoded JSON object, keys stably sorted: a repeated key keeps its last value, as in json.load."""
    return dict(sorted(pairs, key=operator.itemgetter(0)))


def config_hash(cfg: dict) -> str:
    """sha256 of ``marshal.dumps(cfg, 2)``, ``cfg`` as ``_load_object`` decodes it (every object key-sorted).

    Format 2 writes each float as its 8 IEEE bytes and shares no references, so
    only the decoded value counts: not key order or whitespace, but ``1`` vs
    ``1.0``, ``0.0`` vs ``-0.0``, ``true`` vs ``1`` and ``Infinity`` vs ``"inf"``.
    """
    try:
        data = marshal.dumps(cfg, 2)
    except ValueError:  # deeper than marshal writes: json.load reads that under a raised recursion limit
        raise ConfigError("config is nested too deeply to hash") from None
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# parsing


def parse_curve(d: dict) -> OrliczCurve:
    try:
        family = d["family"]
        if family == "power":
            return Power(num(d["p"]))
        if family == "linear":
            return Linear(num(d["slope"]))
        if family == "indicator":
            return Indicator(num(d["bound"]))
        if family == "piecewise":
            bp = nums(d["breakpoints"])
            sl = nums(d["slopes"])
            if not bp:
                raise ValueError("a piecewise curve needs breakpoints")
            ev = d.get("end_value")
            if math.isinf(bp[-1]):
                curve = PiecewiseLinear(bp, sl, None)
                if ev is not None:
                    num(ev)  # an unbounded domain ignores a number and refuses anything else
                return curve
            if ev is None:
                return PiecewiseLinear.closed(bp, sl)
            return PiecewiseLinear(bp, sl, num(ev))
        raise ConfigError(f"unknown curve family {family!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad curve spec {d!r}: {exc}") from exc


def _curve_table(specs) -> Optional[CurveTable]:
    """The columns of a list of curve specs, or None unless every spec is a
    plain dict of plain numbers: ints, floats, "inf" as a last breakpoint and
    "inf" or "-inf" as an end value.

    Such a list parses in bulk passes, each number converted as ``num``
    converts it; the table checks them as the curve constructors do and
    raises ``InvalidCell`` at the first cell they would refuse.  Any other
    list holds a curve ``parse_curve`` refuses: a boolean, for one, is no
    plain number, and ``num`` refuses it.
    """
    if not {dict}.issuperset(map(type, specs)):
        return None
    try:  # a missing key, or an unhashable family, is declined
        codes = list(map(FAMILIES.get, map(operator.itemgetter("family"), specs), itertools.repeat(-1)))
        family = np.array(codes, dtype=np.int8)
        number = np.full(len(specs), math.nan)
        for code, key in NUMBERS.items():
            cells = family == code
            if cells.any():
                values = list(map(operator.itemgetter(key), itertools.compress(specs, cells.tolist())))
                if not _PLAIN_NUMBERS.issuperset(map(type, values)):
                    return None
                number[cells] = np.array(values, dtype=float)
        pw = list(itertools.compress(specs, (family == PIECEWISE).tolist()))
        bps = list(map(operator.itemgetter("breakpoints"), pw))
        sls = list(map(operator.itemgetter("slopes"), pw))
    except (KeyError, TypeError, OverflowError):  # OverflowError: an int beyond the float range
        return None
    ends = list(map(dict.get, pw, itertools.repeat("end_value")))
    if "inf" in ends or "-inf" in ends:
        ends = [num(e) if e in ("inf", "-inf") else e for e in ends]
    bp, sl = _flat_numbers(bps), _flat_numbers(sls)
    if bp is None or sl is None or not _END_TOKENS.issuperset(map(type, ends)):
        return None
    try:
        return CurveTable(family, number, bp, list(map(len, bps)), sl, list(map(len, sls)), ends)
    except OverflowError:  # an int beyond the float range
        return None


def parse_grid(d: dict) -> MeasureGrid:
    try:
        if "weights" in d:
            weights = nums(d["weights"])
        else:
            n = int(d["cells"])
            if n > MAX_CELLS:
                raise ConfigError(f"grid cells must be at most {MAX_CELLS}, got {n!r}")
            rng = np.random.default_rng(int(d["weight_seed"]))
            lo, hi = (num(t) for t in d.get("weight_range", [0.5, 2.0]))
            weights = tuple(rng.uniform(lo, hi, n).tolist())
        ids = _cell_ids(d["ids"], "grid ids") if "ids" in d else ()
        return MeasureGrid(weights, ids)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid spec: {exc}") from exc


def _field(grid: MeasureGrid, specs) -> MusielakField:
    """The field of a list of curve specs, one per cell, built on its columns; a list
    they decline or refuse holds an invalid curve, and ``parse_curve`` raises its message."""
    try:
        table = _curve_table(specs)
    except InvalidCell as exc:
        parse_curve(specs[exc.index])  # raises that cell's own message
        raise
    if table is None:
        for spec in specs:
            parse_curve(spec)  # raises the first invalid curve's message
        raise ValueError("the columns decline a valid curve list")
    return MusielakField.of_table(grid, table)


_WEIGHTED_SPECS = {"weighted_sum": SumSpaceSpec, "weighted_intersection": IntSpaceSpec}


@dataclass(frozen=True)
class GaugeSpace:
    """A Musielak-Orlicz space: ``field`` on ``grid``, with its Luxemburg and Amemiya norms."""

    grid: MeasureGrid
    field: MusielakField

    def norms(self, x: StepFunction, tol: float) -> dict:
        field, tol = self.field, min(tol, 1e-10)
        return {
            "modular": modular(field, x),
            "luxemburg": luxemburg_norm(field, x, tol=tol),
            "amemiya": amemiya_norm(field, x, tol=tol),
        }

    def classify(self, samples: int, seed: int):
        return classify(self.field, samples=samples, seed=seed)

    def oracles(self, tol: float) -> tuple:
        """The probes' norm, Luxemburg (the one that norms row blocks), and dual norm, Amemiya of the conjugate."""
        field, tol = self.field, min(tol, 1e-10)
        primal = BlockOracle(
            functools.partial(luxemburg_norm, field, tol=tol), functools.partial(luxemburg_norms, field, tol=tol)
        )
        return primal, functools.partial(amemiya_norm, conjugate_field(field), tol=tol)

    def conjugate(self) -> dict:
        return {"curves": conjugate_field(self.field).table.specs()}

    def certificate_space(self, wtype: str):
        """This space for a nonsquare witness, the field's intersection component for an intersection certificate."""
        if wtype == "sum-case":
            raise PreconditionError("sum-case certificates need a weighted_sum space")
        return self if wtype == "nonsquare" else WeightedSpace(component_spec(self.field))

    def verify(self, witness: NonsquareWitness, samples: int, seed: int) -> VerificationRecord:
        """Sample, then check the unit claim, so that the sampler's own errors keep their exit code."""
        record = verify_nonsquare(self.field, witness, samples, seed)
        check_unit_modular(self.field, witness.x, VerificationError)
        return record


@dataclass(frozen=True)
class WeightedSpace:
    """A weighted sum or intersection space; its Koethe dual is ``WeightedSpace(spec.dual)``."""

    spec: Union[SumSpaceSpec, IntSpaceSpec]
    grid = property(operator.attrgetter("spec.grid"))
    is_sum = property(lambda self: isinstance(self.spec, SumSpaceSpec))

    @functools.cached_property
    def dual(self) -> "WeightedSpace":
        return WeightedSpace(self.spec.dual)

    def norm(self, x: StepFunction) -> float:
        return wsum_norm(self.spec, x) if self.is_sum else wint_norm(self.spec, x)

    def norms(self, x: StepFunction, tol: float) -> dict:
        return {"sum_norm" if self.is_sum else "intersection_norm": self.norm(x), "dual_norm": self.dual.norm(x)}

    def classify(self, samples: int, seed: int):
        return (classify_sum if self.is_sum else classify_int)(self.spec, samples=samples, seed=seed)

    def oracles(self, tol: float) -> tuple:
        return self.norm, lambda f: self.dual.norm(f)  # the dual spec is formed on first use

    def to_json(self) -> dict:
        kind = "weighted_sum" if self.is_sum else "weighted_intersection"
        return {"kind": kind, "gamma": sorted(self.spec.gamma), "v": list(self.spec.v), "w": list(self.spec.w)}

    def conjugate(self) -> dict:
        return self.dual.to_json()

    def certificate_space(self, wtype: str) -> "WeightedSpace":
        if wtype == "nonsquare":
            raise PreconditionError("nonsquare witnesses need a gauge-norm space")
        if wtype != ("sum-case" if self.is_sum else "intersection-case"):
            needs = "weighted_intersection or gauge-norm" if self.is_sum else "weighted_sum"
            raise PreconditionError(f"{wtype} certificates need a {needs} space")
        return self

    def verify(self, cert: FailureCertificate, samples: int, seed: int) -> VerificationRecord:
        record = (verify_sum_certificate if self.is_sum else verify_int_certificate)(self.spec, cert, samples, seed)
        check_unit_norms(self.spec, cert, VerificationError)  # after the sampler, as on a gauge-norm space
        return record


def parse_space(cfg: dict) -> Union[GaugeSpace, WeightedSpace]:
    grid = parse_grid(cfg.get("grid", {}))
    space = cfg.get("space")
    if not isinstance(space, dict) or "kind" not in space:
        raise ConfigError("config needs a space.kind entry")
    kind = space["kind"]
    try:
        if kind == "musielak":
            return GaugeSpace(grid, _field(grid, _listed(space["curves"], "curves")))
        if kind == "nakano":
            return GaugeSpace(grid, MusielakField.nakano(grid, nums(space["exponents"])))
        if kind == "orlicz":
            return GaugeSpace(grid, _field(grid, [space["curve"]] * len(grid)))
        if kind in _WEIGHTED_SPECS:
            gamma = frozenset(_listed(space["gamma"], "gamma")) if "gamma" in space else grid.cell_set()
            return WeightedSpace(_WEIGHTED_SPECS[kind](grid, gamma, v=nums(space["v"]), w=nums(space["w"])))
    except (KeyError, TypeError, ValueError, GridMismatchError, UnknownCellError) as exc:
        raise ConfigError(f"bad space spec: {exc}") from exc
    raise ConfigError(f"unknown space kind {kind!r}")


def parse_x(cfg: dict, grid: MeasureGrid) -> StepFunction:
    x = cfg.get("x")
    if x is None:
        raise ConfigError("config needs an x entry (values or generator)")
    try:
        if isinstance(x, dict):
            rng = np.random.default_rng(int(x["seed"]))
            scale = num(x.get("scale", 1.0))
            return StepFunction(grid, tuple((scale * rng.standard_normal(len(grid))).tolist()))
        return _step(grid, x)
    except (KeyError, TypeError, ValueError, GridMismatchError) as exc:
        raise ConfigError(f"bad x spec: {exc}") from exc


def _step(grid: MeasureGrid, values) -> StepFunction:
    """A step function on ``grid`` from a JSON list of numbers and "inf" tokens."""
    return StepFunction(grid, nums(values))


# --------------------------------------------------------------------------
# report assembly

Digest = Callable[[], str]  # the config hash, computed on the first call


def make_report(command: str, digest: Digest, results, settings: dict, wall_time_ms: float) -> dict:
    return {
        "command": command,
        "config_hash": digest(),
        "versions": {
            "mospaces": __version__,
            "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        },
        **settings,
        "wall_time_ms": wall_time_ms,
        "results": results,
    }


def _settings(cfg: dict, args) -> dict:
    """The run's seed, samples and tol: each command-line override, else its config value.

    A NaN tol is refused; zero and negative ones reach the solvers, which
    raise them to their floors: the gauge's, set by the compiled kernel's
    error bound, and four ulps for Amemiya.
    """
    settings = {}
    for key, default in (("seed", 0), ("samples", 10000)):
        value = getattr(args, key)
        if value is None:
            value = cfg.get(key, default)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigError(f"{key} must be an integer >= 0, got {value!r}")
        settings[key] = value
    if settings["samples"] > MAX_SAMPLES:
        raise ConfigError(f"samples must be at most {MAX_SAMPLES}, got {settings['samples']!r}")
    tol = args.tol if args.tol is not None else num(cfg.get("tol", 1e-10))
    if math.isnan(tol):
        raise ConfigError("tol must be a number or 'inf', got nan")
    settings["tol"] = tol
    return settings


def _witness_to_json(witness) -> Optional[dict]:
    """A witness's fields plus its type tag; a certificate also carries its grid."""
    if witness is None:
        return None
    if isinstance(witness, NonsquareWitness):
        return {"type": "nonsquare", **vars(witness)}
    out = dict(vars(witness), grid_weights=witness.x.grid.weights, grid_ids=witness.x.grid.ids)
    out["type"] = out.pop("kind")
    if witness.second_functional is None:
        del out["second_functional"]
    return out


def _witness_from_json(obj, space: Union[GaugeSpace, WeightedSpace]) -> tuple:
    """The witness ``_witness_to_json`` wrote, and the space it is checked on
    (``space.certificate_space``); a malformed witness is a ConfigError.

    A margin of at most 0 would make the bound 2 - margin hold at every point.
    """
    if not isinstance(obj, dict):
        raise ConfigError("certificate witness must be a JSON object")
    wtype = obj.get("type")
    if wtype not in ("nonsquare", "sum-case", "intersection-case"):
        raise ConfigError(f"unknown witness type {wtype!r}")
    if wtype == "nonsquare":
        on = space.certificate_space(wtype)  # a weighted space refuses it before the margin parses
    key = "delta" if wtype == "nonsquare" else "epsilon"
    try:
        margin = num(obj[key])
        if not 0.0 < margin < math.inf:
            raise ConfigError(f"certificate {key} must be finite and positive, got {margin!r}")
        record = _record_from_json(obj.get("verification"))
        if wtype == "nonsquare":
            return NonsquareWitness(_step(space.grid, obj["x"]), margin, obj.get("construction", {}), record), on
        grid = MeasureGrid(nums(obj["grid_weights"]), _cell_ids(obj["grid_ids"], "grid ids"))
        cert = FailureCertificate(
            kind=wtype,
            x=_step(grid, obj["x"]),
            functional=_step(grid, obj["functional"]),
            epsilon=margin,
            second_functional=(
                _step(grid, obj["second_functional"])
                if wtype == "sum-case" or "second_functional" in obj
                else None
            ),
            constants=obj.get("constants", {}),
            verification=record,
        )
        if not isinstance(cert.constants, dict):
            raise TypeError("constants must be a JSON object")
        on = space.certificate_space(wtype)
        if on.grid != grid:
            raise PreconditionError("certificate grid does not match the space")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad certificate witness: {exc!r}") from exc
    return cert, on


def _record_from_json(obj) -> Optional[VerificationRecord]:
    if obj is None:
        return None
    worst = obj["worst_point"]
    worst = None if worst is None else nums(worst)
    return VerificationRecord(**dict(obj, worst_point=worst))


# --------------------------------------------------------------------------
# commands: each takes the config, a function returning its hash and the run
# settings, and returns its results as domain objects, which main encodes


def cmd_norm(cfg: dict, args, digest: Digest, seed: int, samples: int, tol: float) -> dict:
    space = parse_space(cfg)
    x = parse_x(cfg, space.grid)
    return {"x": x, "tolerance": tol, **space.norms(x, tol)}


def cmd_classify(cfg: dict, args, digest: Digest, seed: int, samples: int, tol: float) -> dict:
    report = parse_space(cfg).classify(samples, seed)
    return dict(vars(report), witness=_witness_to_json(report.witness))


def cmd_verify(cfg: dict, args, digest: Digest, seed: int, samples: int, tol: float) -> dict:
    if not args.certificate:
        raise ConfigError("verify needs --certificate <report.json>")
    cert_report = _load_object(args.certificate, "certificate")
    if cert_report.get("config_hash") != digest():
        raise PreconditionError("certificate does not match this configuration")
    results = cert_report.get("results", {})
    if not isinstance(results, dict):
        raise ConfigError("certificate results must be a JSON object")
    if results.get("witness") is None:
        raise PreconditionError("report carries no witness to verify")
    wit, on = _witness_from_json(results["witness"], parse_space(cfg))
    record = on.verify(wit, samples, seed)
    record.raise_if_failed("re-verification found ")
    return {"verdict": "pass", "verification": record}


def cmd_probe(cfg: dict, args, digest: Digest, seed: int, samples: int, tol: float) -> dict:
    space = parse_space(cfg)
    primal, dual = space.oracles(tol)

    def unit_vector(i, probe, key):
        oracle, what = (primal, "probe point") if key == "x" else (dual, "slice functional")
        try:
            y = _step(space.grid, probe[key])
        except (ValueError, GridMismatchError) as exc:
            raise ConfigError(f"probe {i}: bad {key}: {exc}") from exc
        scale = oracle(y)
        if scale == 0.0:
            raise ConfigError(f"{what} must be nonzero")
        return (1.0 / scale) * y  # probes expect unit inputs; normalise here

    out = []
    try:
        for i, probe in enumerate(cfg.get("probes", [])):
            if not isinstance(probe, dict):
                raise ConfigError(f"probe {i} must be a JSON object")
            kind = probe.get("type")
            entry: dict[str, Any] = {"type": kind, "one_sided": True}
            if kind == "slice_diameter":
                f = unit_vector(i, probe, "functional")
                s = Slice(f, num(probe["eps"]))
                entry["diameter_lower_bound"] = slice_diameter_lb(
                    primal, dual, s, samples=samples, seed=seed + i
                )
            elif kind == "roughness":
                x = unit_vector(i, probe, "x")
                scales = nums(probe.get("scales", [0.5, 0.1, 0.02, 0.004]))
                if not scales:
                    raise ConfigError(f"probe {i}: roughness scales must not be empty")
                entry["roughness_lower_bound"] = roughness_probe(
                    primal, x, scales, samples=min(samples, 2000), seed=seed + i
                )
            elif kind == "daugavet_condition":
                x = unit_vector(i, probe, "x")
                f = unit_vector(i, probe, "functional")
                res = daugavet_condition_probe(
                    primal, dual, x, f, num(probe["eps"]), budget=samples, seed=seed + i
                )
                entry.update(vars(res))
            else:
                raise ConfigError(f"unknown probe type {kind!r}")
            out.append(entry)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad probe spec: {exc!r}") from exc
    return {"probes": out}


def cmd_conjugate(cfg: dict, args, digest: Digest, seed: int, samples: int, tol: float) -> dict:
    return parse_space(cfg).conjugate()


COMMANDS = {
    "norm": cmd_norm,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "probe": cmd_probe,
    "conjugate": cmd_conjugate,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``error: ...`` line and exit 2."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {' '.join(message.split())}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mospaces",
        description="Norms, duals and Daugavet classification on finite measure grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", help="write the JSON report here (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--samples", type=int, default=None, help="override config sample budget"
        )
        p.add_argument("--tol", type=float, default=None, help="override tolerance")
        p.add_argument(
            "--timing", action="store_true", help="include wall time in the report"
        )
        if name == "verify":
            p.add_argument("--certificate", help="report file carrying the witness")
    return parser


def _load_object(path: str, what: str) -> dict:
    """A JSON object read from ``path``, every object key-sorted; anything else is a ConfigError."""
    try:
        with open(path) as fh:
            obj = json.load(fh, object_pairs_hook=_sorted_object)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, huge ints
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return obj


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_object(args.config, "config")
        settings = _settings(cfg, args)
        # one hash per op, taken where it is first needed: verify's match or the report
        digest = functools.cache(functools.partial(config_hash, cfg))
        t0 = time.perf_counter()
        results = COMMANDS[args.command](cfg, args, digest, **settings)
        wall_time_ms = (time.perf_counter() - t0) * 1000.0 if args.timing else 0.0
        report = make_report(args.command, digest, results, settings, wall_time_ms)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (MospacesError, ValueError, OverflowError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    text = report_json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

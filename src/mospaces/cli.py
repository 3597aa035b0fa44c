"""Command line interface: norm, classify, verify, probe, conjugate.

Configuration and reports are JSON.  Floats serialize at full precision
with explicit "inf" tokens; every randomized operation takes its seed from
the config (or the --seed override), so identical config and seed reproduce
identical reports byte for byte.  Wall time is reported as 0 unless
--timing is given, keeping the default output deterministic.

Exit codes: 0 success, 2 configuration/parse failure, 3 precondition
failure, 4 verification violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, is_dataclass
from typing import Any, Callable, Optional, Union

import numpy as np

from . import __version__
from .classify import classify, verify_nonsquare
from .curves import Indicator, Linear, OrliczCurve, PiecewiseLinear, Power
from .errors import (
    ConfigError,
    GridMismatchError,
    PreconditionError,
    UnboundedNormError,
    UnknownCellError,
    VerificationError,
    WitnessConstructionError,
)
from .grid import MeasureGrid, StepFunction
from .interpolation import (
    IntSpaceSpec,
    SumSpaceSpec,
    _int_slice_center,
    classify_int,
    classify_sum,
    int_dual_norm,
    sum_dual_norm,
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


def _flat_numbers(lists) -> Optional[np.ndarray]:
    """The tokens of the JSON lists ``lists``, flattened to floats as ``num``
    converts them, or None unless each list holds plain ints and floats,
    perhaps ending in "inf"."""
    if not {list}.issuperset(map(type, lists)):
        return None
    bodies = (t[:-1] if t and t[-1] == "inf" else t for t in lists)
    if not _PLAIN_NUMBERS.issuperset(map(type, itertools.chain.from_iterable(bodies))):
        return None
    try:
        return np.fromiter(itertools.chain.from_iterable(lists), float)
    except OverflowError:  # an int beyond the float range
        return None


def nums(tokens) -> tuple:
    """``num`` of each token of a JSON list.

    A list of plain ints and floats, perhaps ending in "inf", converts in one
    pass through ``_flat_numbers``; any other token (and an int beyond the
    float range) takes the per-token path, which raises what ``num`` raises.
    """
    flat = _flat_numbers([tokens])
    return tuple(num(t) for t in tokens) if flat is None else tuple(flat.tolist())


def _listed(value, what: str) -> tuple:
    """A JSON list of ids as a tuple; a string or an object is no list of ids."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return tuple(value)


def canonical_json(obj) -> str:
    return json.dumps(jsonify(obj), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical JSON: sorted keys, compact, "inf" tokens.

    ``cfg`` is a config as ``json.load`` gives it, which encodes as it is;
    only a non-finite float (an ``Infinity`` or ``NaN`` literal), which
    ``allow_nan=False`` refuses, goes through ``canonical_json``, so the
    bytes are the same either way.  A config nested too deeply for the
    encoders' recursion is a ConfigError.
    """
    try:
        try:
            text = json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)
        except ValueError:  # a non-finite float
            text = canonical_json(cfg)
    except RecursionError:
        raise ConfigError("config is nested too deeply to hash") from None
    return hashlib.sha256(text.encode()).hexdigest()


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
            if math.isinf(bp[-1]):
                return PiecewiseLinear(bp, sl, None)
            ev = d.get("end_value")
            if ev is None:
                return PiecewiseLinear.closed(bp, sl)
            return PiecewiseLinear(bp, sl, num(ev))
        raise ConfigError(f"unknown curve family {family!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad curve spec {d!r}: {exc}") from exc


def _curve_table(specs) -> Optional[CurveTable]:
    """The columns of a list of curve specs, or None unless every spec is a
    plain dict of plain numbers: ints, floats and "inf" as a last breakpoint
    or as an end value.

    Such a list parses in bulk passes, each number converted as ``num``
    converts it; the table checks them as the curve constructors do and
    raises ``InvalidCell`` at the first cell they would refuse.  A boolean
    is no plain number, so it takes the per-cell path, where ``num`` refuses it.
    """
    if type(specs) is not list or not {dict}.issuperset(map(type, specs)):
        return None
    try:  # a missing key, or an unhashable family, takes the per-cell path
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
        ends = list(map(dict.get, pw, itertools.repeat("end_value")))
        if not _END_TOKENS.issuperset(type(e) for e in ends if e != "inf"):
            return None
        ends = [e if e is None else float(e) for e in ends]
    except (KeyError, TypeError, OverflowError):  # OverflowError: an int beyond the float range
        return None
    bp, sl = _flat_numbers(bps), _flat_numbers(sls)
    if bp is None or sl is None:
        return None
    return CurveTable(family, number, bp, list(map(len, bps)), sl, list(map(len, sls)), ends)


def curve_to_json(curve: OrliczCurve) -> dict:
    if isinstance(curve, Power):
        return {"family": "power", "p": curve.p}
    if isinstance(curve, Linear):
        return {"family": "linear", "slope": curve.slope}
    if isinstance(curve, Indicator):
        return {"family": "indicator", "bound": curve.bound}
    if isinstance(curve, PiecewiseLinear):
        out = {
            "family": "piecewise",
            "breakpoints": list(curve.breakpoints),
            "slopes": list(curve.slopes),
        }
        if curve.end_value is not None:
            out["end_value"] = curve.end_value
        return out
    raise ConfigError(f"cannot serialize {curve!r}")


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
            weights = tuple(float(t) for t in rng.uniform(lo, hi, n))
        ids = _listed(d["ids"], "grid ids") if "ids" in d else ()
        return MeasureGrid(weights, ids)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid spec: {exc}") from exc


_WEIGHTED_SPECS = {"weighted_sum": SumSpaceSpec, "weighted_intersection": IntSpaceSpec}


@dataclass
class SpaceConfig:
    """A parsed space: a gauge-norm ``field`` or a weighted interpolation ``spec``."""

    grid: MeasureGrid
    field: Optional[MusielakField] = None
    spec: Union[SumSpaceSpec, IntSpaceSpec, None] = None


def parse_space(cfg: dict) -> SpaceConfig:
    grid = parse_grid(cfg.get("grid", {}))
    space = cfg.get("space")
    if not isinstance(space, dict) or "kind" not in space:
        raise ConfigError("config needs a space.kind entry")
    kind = space["kind"]
    try:
        if kind == "musielak":
            specs = space["curves"]
            try:
                table = _curve_table(specs)
            except InvalidCell as exc:
                parse_curve(specs[exc.index])  # raises that cell's own message
                raise
            if table is not None:
                return SpaceConfig(grid, field=MusielakField.of_table(grid, table))
            curves = tuple(parse_curve(c) for c in specs)
            return SpaceConfig(grid, field=MusielakField(grid, curves))
        if kind == "nakano":
            exps = nums(space["exponents"])
            return SpaceConfig(grid, field=MusielakField.nakano(grid, exps))
        if kind == "orlicz":
            curve = parse_curve(space["curve"])
            return SpaceConfig(grid, field=MusielakField.constant(grid, curve))
        if kind in _WEIGHTED_SPECS:
            spec = _WEIGHTED_SPECS[kind](
                grid=grid,
                gamma=(
                    frozenset(_listed(space["gamma"], "gamma"))
                    if "gamma" in space
                    else grid.cell_set()
                ),
                v=nums(space["v"]),
                w=nums(space["w"]),
            )
            return SpaceConfig(grid, spec=spec)
    except (KeyError, TypeError, ValueError, GridMismatchError, UnknownCellError) as exc:
        raise ConfigError(f"bad space spec: {exc}") from exc
    raise ConfigError(f"unknown space kind {kind!r}")


def space_to_json(space: SpaceConfig) -> dict:
    """Canonical config fragment for a parsed space (round-trip support)."""
    grid = {"weights": list(space.grid.weights), "ids": list(space.grid.ids)}
    if space.field is not None:
        body = {"kind": "musielak", "curves": [curve_to_json(c) for c in space.field.curves]}
    else:
        body = _spec_to_json(space.spec)
    return {"grid": grid, "space": body}


def _spec_to_json(spec) -> dict:
    """The ``space`` fragment of a weighted sum or intersection spec."""
    kind = next(k for k, cls in _WEIGHTED_SPECS.items() if isinstance(spec, cls))
    return {"kind": kind, "gamma": sorted(spec.gamma), "v": list(spec.v), "w": list(spec.w)}


def parse_x(cfg: dict, grid: MeasureGrid) -> StepFunction:
    x = cfg.get("x")
    if x is None:
        raise ConfigError("config needs an x entry (values or generator)")
    try:
        if isinstance(x, dict):
            rng = np.random.default_rng(int(x["seed"]))
            scale = num(x.get("scale", 1.0))
            return StepFunction(
                grid, tuple(float(t) for t in scale * rng.standard_normal(len(grid)))
            )
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


def _witness_from_json(obj, space: SpaceConfig) -> Union[NonsquareWitness, FailureCertificate]:
    """The witness ``_witness_to_json`` wrote; a malformed one is a ConfigError.

    A margin of at most 0 would make the bound 2 - margin hold at every point.
    """
    if not isinstance(obj, dict):
        raise ConfigError("certificate witness must be a JSON object")
    wtype = obj.get("type")
    if wtype not in ("nonsquare", "sum-case", "intersection-case"):
        raise ConfigError(f"unknown witness type {wtype!r}")
    if wtype == "nonsquare" and space.field is None:
        raise PreconditionError("nonsquare witnesses need a gauge-norm space")
    key = "delta" if wtype == "nonsquare" else "epsilon"
    try:
        margin = num(obj[key])
        if not 0.0 < margin < math.inf:
            raise ConfigError(f"certificate {key} must be finite and positive, got {margin!r}")
        record = _record_from_json(obj.get("verification"))
        if wtype == "nonsquare":
            x = _step(space.grid, obj["x"])
            return NonsquareWitness(x, margin, obj.get("construction", {}), record)
        grid = MeasureGrid(nums(obj["grid_weights"]), _listed(obj["grid_ids"], "grid ids"))
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
        if wtype == "intersection-case":
            # reads the cells the constants name
            _int_slice_center(_embedded_int_spec(space, grid, cert.constants), cert)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad certificate witness: {exc!r}") from exc
    return cert


def _record_from_json(obj) -> Optional[VerificationRecord]:
    if obj is None:
        return None
    worst = obj["worst_point"]
    worst = None if worst is None else nums(worst)
    return VerificationRecord(**dict(obj, worst_point=worst))


def _embedded_int_spec(space: SpaceConfig, grid: MeasureGrid, consts: dict) -> IntSpaceSpec:
    if isinstance(space.spec, IntSpaceSpec) and space.spec.grid == grid:
        return space.spec
    gamma = consts.get("gamma")
    w = consts.get("w")
    v = consts.get("v")
    if gamma is None or w is None or v is None:
        raise PreconditionError(
            "certificate lives on a component space but carries no spec for it"
        )
    return IntSpaceSpec(grid, frozenset(_listed(gamma, "gamma")), nums(w), nums(v))


# --------------------------------------------------------------------------
# commands: each takes the config, a function returning its hash and the run
# settings, and returns its results as domain objects, which main encodes


def cmd_norm(cfg: dict, args, digest: Digest, seed: int, samples: int, tol: float) -> dict:
    space = parse_space(cfg)
    x = parse_x(cfg, space.grid)
    results: dict[str, Any] = {"x": x, "tolerance": tol}
    if space.field is not None:
        results["modular"] = modular(space.field, x)
        results["luxemburg"] = luxemburg_norm(space.field, x, tol=min(tol, 1e-10))
        results["amemiya"] = amemiya_norm(space.field, x, tol=min(tol, 1e-10))
    elif isinstance(space.spec, SumSpaceSpec):
        results["sum_norm"] = wsum_norm(space.spec, x)
        results["dual_norm"] = sum_dual_norm(space.spec, x)
    else:
        results["intersection_norm"] = wint_norm(space.spec, x)
        results["dual_norm"] = int_dual_norm(space.spec, x)
    return results


def cmd_classify(cfg: dict, args, digest: Digest, seed: int, samples: int, tol: float) -> dict:
    space = parse_space(cfg)
    if space.field is not None:
        report = classify(space.field, samples=samples, seed=seed)
    elif isinstance(space.spec, SumSpaceSpec):
        report = classify_sum(space.spec, samples=samples, seed=seed)
    else:
        report = classify_int(space.spec, samples=samples, seed=seed)
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
    space = parse_space(cfg)
    wit = _witness_from_json(results["witness"], space)
    if isinstance(wit, NonsquareWitness):
        record = verify_nonsquare(space.field, wit, samples, seed)
    elif wit.kind == "sum-case":
        if not isinstance(space.spec, SumSpaceSpec) or space.spec.grid != wit.x.grid:
            raise PreconditionError("certificate grid does not match the space")
        record = verify_sum_certificate(space.spec, wit, samples, seed)
    else:
        spec = _embedded_int_spec(space, wit.x.grid, wit.constants)
        record = verify_int_certificate(spec, wit, samples, seed)
    if record.violations:
        raise VerificationError(
            f"re-verification found {record.violations} violations "
            f"(max {record.max_observed} against bound {record.bound})"
        )
    return {"verdict": "pass", "verification": record}


def cmd_probe(cfg: dict, args, digest: Digest, seed: int, samples: int, tol: float) -> dict:
    space = parse_space(cfg)
    field, spec, tol = space.field, space.spec, min(tol, 1e-10)
    if field is not None:  # only the Luxemburg oracle norms row blocks
        primal = BlockOracle(
            functools.partial(luxemburg_norm, field, tol=tol),
            functools.partial(luxemburg_norms, field, tol=tol),
        )
        dual = functools.partial(amemiya_norm, conjugate_field(field), tol=tol)
    elif isinstance(spec, SumSpaceSpec):
        primal, dual = functools.partial(wsum_norm, spec), functools.partial(sum_dual_norm, spec)
    else:
        primal, dual = functools.partial(wint_norm, spec), functools.partial(int_dual_norm, spec)

    def unit_vector(values, oracle, what):
        y = _step(space.grid, values)
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
                f = unit_vector(probe["functional"], dual, "slice functional")
                s = Slice(f, num(probe["eps"]))
                entry["diameter_lower_bound"] = slice_diameter_lb(
                    primal, dual, s, samples=samples, seed=seed + i
                )
            elif kind == "roughness":
                x = unit_vector(probe["x"], primal, "probe point")
                scales = nums(probe.get("scales", [0.5, 0.1, 0.02, 0.004]))
                if not scales:
                    raise ConfigError(f"probe {i}: roughness scales must not be empty")
                entry["roughness_lower_bound"] = roughness_probe(
                    primal, x, scales, samples=min(samples, 2000), seed=seed + i
                )
            elif kind == "daugavet_condition":
                x = unit_vector(probe["x"], primal, "probe point")
                f = unit_vector(probe["functional"], dual, "slice functional")
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
    space = parse_space(cfg)
    if space.field is not None:
        dual = conjugate_field(space.field)
        return {"curves": [curve_to_json(c) for c in dual.curves]}
    if isinstance(space.spec, SumSpaceSpec):
        return _spec_to_json(space.spec.reciprocal_int())
    return _spec_to_json(space.spec.reciprocal_sum())


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
    """A JSON object read from ``path``; anything else is a ConfigError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
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
    except (
        PreconditionError,
        WitnessConstructionError,
        UnboundedNormError,
        GridMismatchError,
        UnknownCellError,
        ValueError,
        OverflowError,
    ) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    text = json.dumps(jsonify(report), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

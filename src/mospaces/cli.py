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
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Optional, Union

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
    classify_int,
    classify_sum,
    int_dual_norm,
    sum_dual_norm,
    verify_int_certificate,
    verify_sum_certificate,
    wint_norm,
    wsum_norm,
)
from .musielak import MusielakField, amemiya_norm, conjugate_field, luxemburg_norm, modular
from .probes import Slice, daugavet_condition_probe, roughness_probe, slice_diameter_lb
from .reports import FailureCertificate, NonsquareWitness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4


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
    return obj


def num(value) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigError(f"expected a number or 'inf', got {value!r}")


def canonical_json(obj) -> str:
    return json.dumps(jsonify(obj), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


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
            bp = tuple(num(t) for t in d["breakpoints"])
            sl = tuple(num(t) for t in d["slopes"])
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
            weights = tuple(num(t) for t in d["weights"])
        else:
            n = int(d["cells"])
            rng = np.random.default_rng(int(d["weight_seed"]))
            lo, hi = (num(t) for t in d.get("weight_range", [0.5, 2.0]))
            weights = tuple(float(t) for t in rng.uniform(lo, hi, n))
        ids = tuple(d["ids"]) if "ids" in d else ()
        return MeasureGrid(weights, ids)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid spec: {exc}") from exc


_WEIGHTED_SPECS = {"weighted_sum": SumSpaceSpec, "weighted_intersection": IntSpaceSpec}


@dataclass
class SpaceConfig:
    """A parsed space: a gauge-norm ``field`` or a weighted interpolation ``spec``."""

    kind: str
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
            curves = tuple(parse_curve(c) for c in space["curves"])
            return SpaceConfig(kind, grid, field=MusielakField(grid, curves))
        if kind == "nakano":
            exps = tuple(num(p) for p in space["exponents"])
            return SpaceConfig(kind, grid, field=MusielakField.nakano(grid, exps))
        if kind == "orlicz":
            curve = parse_curve(space["curve"])
            return SpaceConfig(kind, grid, field=MusielakField.constant(grid, curve))
        if kind in _WEIGHTED_SPECS:
            spec = _WEIGHTED_SPECS[kind](
                grid=grid,
                gamma=frozenset(space["gamma"]) if "gamma" in space else grid.cell_set(),
                v=tuple(num(t) for t in space["v"]),
                w=tuple(num(t) for t in space["w"]),
            )
            return SpaceConfig(kind, grid, spec=spec)
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
        return StepFunction(grid, tuple(num(t) for t in x))
    except (KeyError, TypeError, ValueError, GridMismatchError) as exc:
        raise ConfigError(f"bad x spec: {exc}") from exc


# --------------------------------------------------------------------------
# report assembly


def make_report(command: str, cfg: dict, results: dict, args, elapsed_ms: float) -> dict:
    return {
        "command": command,
        "config_hash": config_hash(cfg),
        "versions": {
            "mospaces": __version__,
            "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        },
        "seed": _seed(cfg, args),
        "samples": _samples(cfg, args),
        "tol": _tol(cfg, args),
        "wall_time_ms": elapsed_ms if args.timing else 0.0,
        "results": results,
    }


def _seed(cfg, args):
    return _integer_setting(cfg, args, "seed", 0, least=0)


def _samples(cfg, args):
    return _integer_setting(cfg, args, "samples", 10000, least=0)


def _integer_setting(cfg, args, key, default, least=None):
    """The command-line override of ``key``, else its config value, as an int."""
    value = getattr(args, key)
    if value is None:
        value = cfg.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    bad = isinstance(value, bool) or not isinstance(value, int)
    if bad or (least is not None and value < least):
        what = "an integer" if least is None else f"an integer >= {least}"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _tol(cfg, args):
    return args.tol if args.tol is not None else num(cfg.get("tol", 1e-10))


def _witness_to_json(witness) -> Optional[dict]:
    if witness is None:
        return None
    if isinstance(witness, NonsquareWitness):
        return {
            "type": "nonsquare",
            "x": jsonify(witness.x),
            "delta": witness.delta,
            "construction": jsonify(witness.construction),
            "verification": _record_to_json(witness.verification),
        }
    if isinstance(witness, FailureCertificate):
        out = {
            "type": witness.kind,
            "x": jsonify(witness.x),
            "functional": jsonify(witness.functional),
            "epsilon": witness.epsilon,
            "constants": jsonify(witness.constants),
            "verification": _record_to_json(witness.verification),
            "grid_weights": jsonify(list(witness.x.grid.weights)),
            "grid_ids": list(witness.x.grid.ids),
        }
        if witness.second_functional is not None:
            out["second_functional"] = jsonify(witness.second_functional)
        return out
    raise ConfigError(f"cannot serialize witness {witness!r}")


def _record_to_json(record) -> Optional[dict]:
    if record is None:
        return None
    return {
        "samples_requested": record.samples_requested,
        "samples_accepted": record.samples_accepted,
        "acceptance_rate": record.acceptance_rate,
        "bound": record.bound,
        "max_observed": record.max_observed,
        "violations": record.violations,
        "seed": record.seed,
        "worst_point": jsonify(record.worst_point),
    }


# --------------------------------------------------------------------------
# commands


def cmd_norm(cfg: dict, args) -> dict:
    space = parse_space(cfg)
    x = parse_x(cfg, space.grid)
    tol = _tol(cfg, args)
    results: dict[str, Any] = {"x": jsonify(x), "tolerance": tol}
    if space.field is not None:
        results["modular"] = jsonify(modular(space.field, x))
        results["luxemburg"] = luxemburg_norm(space.field, x, tol=min(tol, 1e-10))
        results["amemiya"] = amemiya_norm(space.field, x, tol=min(tol, 1e-10))
    elif isinstance(space.spec, SumSpaceSpec):
        results["sum_norm"] = wsum_norm(space.spec, x)
        results["dual_norm"] = sum_dual_norm(space.spec, x)
    else:
        results["intersection_norm"] = wint_norm(space.spec, x)
        results["dual_norm"] = int_dual_norm(space.spec, x)
    return results


def cmd_classify(cfg: dict, args) -> dict:
    space = parse_space(cfg)
    samples = _samples(cfg, args)
    seed = _seed(cfg, args)
    if space.field is not None:
        report = classify(space.field, samples=samples, seed=seed)
    elif isinstance(space.spec, SumSpaceSpec):
        report = classify_sum(space.spec, samples=samples, seed=seed)
    else:
        report = classify_int(space.spec, samples=samples, seed=seed)
    return {
        "verdict": report.verdict,
        "canonical_form": report.canonical_form,
        "dual_form": report.dual_form,
        "evidence": jsonify(report.evidence),
        "witness": _witness_to_json(report.witness),
        "explanation": report.explanation,
    }


def cmd_verify(cfg: dict, args) -> dict:
    if not args.certificate:
        raise ConfigError("verify needs --certificate <report.json>")
    cert_report = _load_object(args.certificate, "certificate")
    if cert_report.get("config_hash") != config_hash(cfg):
        raise PreconditionError("certificate does not match this configuration")
    results = cert_report.get("results", {})
    if not isinstance(results, dict):
        raise ConfigError("certificate results must be a JSON object")
    witness = results.get("witness")
    if witness is None:
        raise PreconditionError("report carries no witness to verify")
    if not isinstance(witness, dict):
        raise ConfigError("certificate witness must be a JSON object")
    samples = _samples(cfg, args)
    seed = _seed(cfg, args)
    space = parse_space(cfg)
    wtype = witness.get("type")
    if wtype not in ("nonsquare", "sum-case", "intersection-case"):
        raise ConfigError(f"unknown witness type {wtype!r}")
    if wtype == "nonsquare" and space.field is None:
        raise PreconditionError("nonsquare witnesses need a gauge-norm space")
    try:
        if wtype == "nonsquare":
            x = StepFunction(space.grid, tuple(num(t) for t in witness["x"]))
            wit = NonsquareWitness(x=x, delta=num(witness["delta"]))
        else:
            grid = MeasureGrid(
                tuple(num(t) for t in witness["grid_weights"]),
                tuple(witness["grid_ids"]),
            )
            cert = FailureCertificate(
                kind=wtype,
                x=StepFunction(grid, tuple(num(t) for t in witness["x"])),
                functional=StepFunction(
                    grid, tuple(num(t) for t in witness["functional"])
                ),
                epsilon=num(witness["epsilon"]),
                second_functional=(
                    StepFunction(grid, tuple(num(t) for t in witness["second_functional"]))
                    if "second_functional" in witness
                    else None
                ),
                constants=witness.get("constants", {}),
            )
            if not isinstance(cert.constants, dict):
                raise TypeError("constants must be a JSON object")
            if wtype == "intersection-case":
                spec = _embedded_int_spec(space, grid, cert.constants)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad certificate witness: {exc!r}") from exc
    if wtype == "nonsquare":
        record = verify_nonsquare(space.field, wit, samples, seed)
    elif wtype == "sum-case":
        if not isinstance(space.spec, SumSpaceSpec) or space.spec.grid != grid:
            raise PreconditionError("certificate grid does not match the space")
        record = verify_sum_certificate(space.spec, cert, samples, seed)
    else:
        record = verify_int_certificate(spec, cert, samples, seed)
    if record.violations:
        raise VerificationError(
            f"re-verification found {record.violations} violations "
            f"(max {record.max_observed} against bound {record.bound})"
        )
    return {"verdict": "pass", "verification": _record_to_json(record)}


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
    return IntSpaceSpec(grid, frozenset(gamma), tuple(num(t) for t in w), tuple(num(t) for t in v))


def cmd_probe(cfg: dict, args) -> dict:
    space = parse_space(cfg)
    samples = _samples(cfg, args)
    seed = _seed(cfg, args)
    tol = _tol(cfg, args)
    if space.field is not None:
        primal = lambda y: luxemburg_norm(space.field, y, tol=min(tol, 1e-10))
        dual_field = conjugate_field(space.field)
        dual = lambda y: amemiya_norm(dual_field, y, tol=min(tol, 1e-10))
    elif isinstance(space.spec, SumSpaceSpec):
        primal = lambda y: wsum_norm(space.spec, y)
        dual = lambda y: sum_dual_norm(space.spec, y)
    else:
        primal = lambda y: wint_norm(space.spec, y)
        dual = lambda y: int_dual_norm(space.spec, y)
    def unit_vector(values, oracle, what):
        y = StepFunction(space.grid, tuple(num(t) for t in values))
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
                scales = tuple(num(t) for t in probe.get("scales", [0.5, 0.1, 0.02, 0.004]))
                entry["roughness_lower_bound"] = roughness_probe(
                    primal, x, scales, samples=min(samples, 2000), seed=seed + i
                )
            elif kind == "daugavet_condition":
                x = unit_vector(probe["x"], primal, "probe point")
                f = unit_vector(probe["functional"], dual, "slice functional")
                res = daugavet_condition_probe(
                    primal, dual, x, f, num(probe["eps"]), budget=samples, seed=seed + i
                )
                entry.update(
                    {
                        "found": res.found,
                        "witness_direction": jsonify(res.witness_direction),
                        "evaluations": res.evaluations,
                        "note": res.note,
                    }
                )
            else:
                raise ConfigError(f"unknown probe type {kind!r}")
            out.append(entry)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad probe spec: {exc!r}") from exc
    return {"probes": out}


def cmd_conjugate(cfg: dict, args) -> dict:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return obj


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_object(args.config, "config")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    t0 = time.perf_counter()
    try:
        results = COMMANDS[args.command](cfg, args)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        report = make_report(args.command, cfg, results, args, elapsed_ms)
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

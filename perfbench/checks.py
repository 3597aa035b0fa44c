"""Output checks for benchmark ops, run outside the timed region.

Each check takes the report text an op printed and the outcome its config
was built to give, and returns a list of problems (empty when the report
is correct).  The checks read reports only; the one program-computed input
is the sup-oracle value for norm ops, passed in by the caller.
"""

from __future__ import annotations

import json
import math

ORACLE_MAX_CELLS = 512  # the Koethe cross-check runs on grids up to this size
ORACLE_RTOL = 1e-8


def _num(v) -> float:
    return math.inf if v == "inf" else float(v)


def check_classify(results: dict, expect: dict) -> list:
    problems = []
    for key in ("verdict", "canonical_form"):
        if results.get(key) != expect[key]:
            problems.append(f"{key} {results.get(key)!r}, expected {expect[key]!r}")
    witness = results.get("witness")
    kind = witness.get("type") if witness else None
    if kind != expect["witness"]:
        problems.append(f"witness {kind!r}, expected {expect['witness']!r}")
        return problems
    if witness is None:
        return problems
    mode = expect.get("mode")
    built = witness.get("construction", {}).get("mode")
    if mode is not None and built != mode:
        problems.append(f"construction mode {built!r}, expected {mode!r}")
    record = witness.get("verification")
    if record is None:
        problems.append("witness carries no verification record")
    elif record.get("violations") != 0:
        problems.append(f"classify self-verification found {record.get('violations')} violations")
    return problems


def check_verify(results: dict) -> list:
    problems = []
    if results.get("verdict") != "pass":
        problems.append(f"verify verdict {results.get('verdict')!r}")
    record = results.get("verification") or {}
    if record.get("violations") != 0:
        problems.append(f"verify found {record.get('violations')} violations")
    if not record.get("samples_accepted", 0) > 0:
        problems.append("verify accepted no samples")
    return problems


def check_norm(results: dict, oracle_value: float | None = None) -> list:
    lux = _num(results["luxemburg"])
    ame = _num(results["amemiya"])
    problems = []
    if not (0.0 < lux <= ame <= 2.0 * lux):
        problems.append(f"norm sandwich broken: luxemburg {lux!r}, amemiya {ame!r}")
    if oracle_value is not None:
        rel = abs(ame - oracle_value) / max(abs(ame), 1e-300)
        if not rel <= ORACLE_RTOL:
            problems.append(f"amemiya {ame!r} vs sup oracle {oracle_value!r}: rel diff {rel:.3g}")
    return problems


def check_probe(results: dict, expect: dict) -> list:
    probes = results.get("probes") or []
    if len(probes) != 1 or probes[0].get("type") != expect["probe"]:
        return [f"probe entries {[p.get('type') for p in probes]}, expected [{expect['probe']!r}]"]
    entry = probes[0]
    key = {
        "slice_diameter": "diameter_lower_bound",
        "roughness": "roughness_lower_bound",
    }.get(expect["probe"])
    if key is None:  # daugavet_condition: found or inconclusive, both one-sided
        ok = isinstance(entry.get("found"), bool) and isinstance(entry.get("evaluations"), int)
        return [] if ok else [f"malformed condition probe entry {entry!r}"]
    bound = _num(entry.get(key, math.nan))
    return [] if 0.0 <= bound <= 2.0 else [f"{key} {bound!r} outside [0, 2]"]


def check_report(command: str, text: str, expect: dict, oracle_value: float | None = None) -> list:
    """All problems with one op's report text; [] when it is correct."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if report.get("command") != command:
        return [f"report command {report.get('command')!r}, expected {command!r}"]
    results = report.get("results") or {}
    try:
        if command == "classify":
            return check_classify(results, expect)
        if command == "verify":
            return check_verify(results)
        if command == "norm":
            return check_norm(results, oracle_value)
        if command == "probe":
            return check_probe(results, expect)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed {command} report: {exc!r}"]
    return [f"no check for command {command!r}"]

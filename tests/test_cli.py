import contextlib
import functools
import io
import json
import math
import random
import re
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mospaces import ConfigError, MospacesError, StepFunction, classify, int_dual_norm, witness_int, witness_sum
from mospaces.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VERIFICATION,
    MAX_CELLS,
    MAX_SAMPLES,
    GaugeSpace,
    _load_object,
    _sorted_object,
    _witness_from_json,
    _witness_to_json,
    build_parser,
    config_hash,
    jsonify,
    main,
    num,
    parse_curve,
    parse_space,
    parse_x,
)
from mospaces import cli, interpolation
from mospaces.musielak import orlicz_norm_sup_oracle
from mospaces.reports import record_from_samples

from helpers import canonical_json, knot_values_reference, piecewise_reference


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "mospaces.cli", *args],
        capture_output=True,
        text=True,
    )


class _Nested:
    """Stands for a list nested ``depth`` deep, which ``json.dumps`` would recurse too far to write."""

    def __init__(self, depth: int):
        self.depth = depth

    @staticmethod
    def mark(obj):
        if not isinstance(obj, _Nested):
            raise TypeError(f"{obj!r} is not JSON")
        return f"<nested {obj.depth}>"


def write(path, obj):
    text = json.dumps(obj, default=_Nested.mark)
    path.write_text(re.sub(r'"<nested (\d+)>"', lambda m: "[" * int(m[1]) + "]" * int(m[1]), text))
    return str(path)


BASE = {
    "grid": {"weights": [1.0, 1.0]},
    "space": {"kind": "nakano", "exponents": [2, 2]},
    "x": [1.0, 0.0],
    "seed": 5,
    "samples": 300,
    "tol": 1e-10,
}
# not Daugavet: classify attaches a sum-case and an intersection-case certificate
SUM_CFG = {
    "grid": {"weights": [1.0, 1.0]},
    "space": {"kind": "weighted_sum", "v": [1.0, 1.0], "w": [1.0, 1.0]},
    "x": [1.0, -0.5],
    "samples": 50,
}
INT_CFG = {
    "grid": {"weights": [1.0, 1.0, 1.0, 1.0]},
    "space": {"kind": "weighted_intersection", "w": [1.0] * 4, "v": [1.0] * 4},
    "x": [1.0, -0.5, 0.0, 2.0],
    "samples": 50,
}


# -- serialization helpers ---------------------------------------------------


def test_inf_tokens_round_trip():
    assert num("inf") == math.inf
    assert num("-inf") == -math.inf
    assert jsonify({"a": math.inf, "b": [1.0, -math.inf]}) == {
        "a": "inf",
        "b": [1.0, "-inf"],
    }


def test_curve_json_round_trip():
    specs = [
        {"family": "power", "p": 2.5},
        {"family": "linear", "slope": 0.7},
        {"family": "indicator", "bound": 1.2},
        {"family": "piecewise", "breakpoints": [0.0, 2.0, "inf"], "slopes": [1.0, 3.0]},
        {
            "family": "piecewise",
            "breakpoints": [0.0, 1.0],
            "slopes": [2.0],
            "end_value": "inf",
        },
    ]
    table = parse_space({"grid": {"weights": [1.0] * len(specs)}, "space": {"kind": "musielak", "curves": specs}}).field.table
    again = [parse_curve(spec) for spec in jsonify(table.specs())]
    assert again == [parse_curve(spec) for spec in specs]


def test_config_round_trip_up_to_canonical_ordering():
    configs = [
        {
            "grid": {"weights": [1.0, 2.0], "ids": ["c0", "c1"]},
            "space": {
                "kind": "weighted_sum",
                "gamma": ["c0", "c1"],
                "v": [1.0, 0.5],
                "w": [2.0, 1.0],
            },
        },
        {
            "grid": {"weights": [1.0], "ids": ["c0"]},
            "space": {
                "kind": "musielak",
                "curves": [
                    {
                        "family": "piecewise",
                        "breakpoints": [0.0, 2.0, "inf"],
                        "slopes": [1.0, 3.0],
                    }
                ],
            },
        },
    ]
    for cfg in configs:
        space = parse_space(cfg)
        grid = {"weights": list(space.grid.weights), "ids": list(space.grid.ids)}
        if isinstance(space, GaugeSpace):
            body = {"kind": "musielak", "curves": space.field.table.specs()}
        else:
            body = space.to_json()
        assert canonical_json({"grid": grid, "space": body}) == canonical_json(cfg)


def test_witness_codec_round_trips():
    builders = [
        (BASE, lambda space: classify(space.field, samples=20, seed=1).witness),
        (SUM_CFG, lambda space: witness_sum(space.spec, samples=20, seed=1)),
        (INT_CFG, lambda space: witness_int(space.spec, samples=20, seed=1)),
    ]
    for cfg, build in builders:
        space = parse_space(cfg)
        witness = build(space)
        assert witness.verification is not None
        for wit in (witness, replace(witness, verification=None)):
            assert _witness_from_json(jsonify(_witness_to_json(wit)), space) == (wit, space)


_REPORT_KEYS = {"command", "config_hash", "versions", "seed", "samples", "tol"}
_RECORD_KEYS = {
    "samples_requested",
    "samples_accepted",
    "acceptance_rate",
    "bound",
    "max_observed",
    "violations",
    "seed",
    "worst_point",
}
_CLASSIFY_KEYS = {"verdict", "canonical_form", "dual_form", "evidence", "witness", "explanation"}
_CERT_KEYS = {"type", "x", "functional", "epsilon", "constants", "verification"}


def test_reports_keep_their_json_form(tmp_path, capsys):
    """Reports encode records by their fields; this pins every key they carry."""
    path = tmp_path / "c.json"

    def results(command, cfg, *extra):
        write(path, cfg)
        assert main([command, "--config", str(path), *extra]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report) == _REPORT_KEYS | {"wall_time_ms", "results"}
        return report["results"]

    nonsquare = results("classify", dict(BASE, samples=20))
    assert set(nonsquare) == _CLASSIFY_KEYS
    assert set(nonsquare["witness"]) == {"type", "x", "delta", "construction", "verification"}
    assert set(nonsquare["witness"]["verification"]) == _RECORD_KEYS
    sum_case = results("classify", SUM_CFG)["witness"]
    assert set(sum_case) == _CERT_KEYS | {"grid_weights", "grid_ids", "second_functional"}
    assert set(sum_case["verification"]) == _RECORD_KEYS
    int_case = results("classify", INT_CFG)["witness"]
    assert set(int_case) == _CERT_KEYS | {"grid_weights", "grid_ids"}
    collapse = results("classify", dict(BASE, space={"kind": "nakano", "exponents": [1, 1]}))
    assert set(collapse) == _CLASSIFY_KEYS and collapse["witness"] is None

    cert = tmp_path / "cert.json"
    write(path, INT_CFG)
    assert main(["classify", "--config", str(path), "--out", str(cert)]) == EXIT_OK
    verified = results("verify", INT_CFG, "--certificate", str(cert))
    assert set(verified) == {"verdict", "verification"}
    assert set(verified["verification"]) == _RECORD_KEYS

    norm = {"x", "tolerance"}
    assert set(results("norm", BASE)) == norm | {"modular", "luxemburg", "amemiya"}
    assert set(results("norm", SUM_CFG)) == norm | {"sum_norm", "dual_norm"}
    assert set(results("norm", INT_CFG)) == norm | {"intersection_norm", "dual_norm"}

    probes = [
        {"type": "slice_diameter", "functional": [1.0, 1.0], "eps": 0.1},
        {"type": "roughness", "x": [1.0, 0.0]},
        {"type": "daugavet_condition", "x": [1.0, 0.0], "functional": [1.0, 0.0], "eps": 0.1},
    ]
    entries = results("probe", dict(BASE, samples=20, probes=probes))
    assert set(entries) == {"probes"}
    probe = {"type", "one_sided"}
    assert [set(e) for e in entries["probes"]] == [
        probe | {"diameter_lower_bound"},
        probe | {"roughness_lower_bound"},
        probe | {"found", "witness_direction", "evaluations", "note"},
    ]

    assert set(results("conjugate", BASE)) == {"curves"}
    assert set(results("conjugate", SUM_CFG)) == {"kind", "gamma", "v", "w"}


# -- commands -----------------------------------------------------------------


def test_norm_command_nakano(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", BASE)
    assert main(["norm", "--config", cfg]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    res = report["results"]
    assert math.isclose(res["luxemburg"], 1.0 / math.sqrt(2.0), rel_tol=1e-9)
    assert math.isclose(res["amemiya"], math.sqrt(2.0), rel_tol=1e-9)


def test_norm_command_orlicz_indicator(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.json",
        {
            "grid": {"weights": [1.0, 1.0]},
            "space": {"kind": "orlicz", "curve": {"family": "indicator", "bound": 1.0}},
            "x": [3.0, 1.0],
        },
    )
    assert main(["norm", "--config", cfg]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert math.isclose(res["luxemburg"], 3.0, rel_tol=1e-9)


def test_norm_command_tolerance_zero(tmp_path, capsys):
    cfg = dict(BASE, grid={"weights": [1.0, 2.0]}, x=[1.0, -0.5])
    cfg["space"] = {"kind": "nakano", "exponents": [2, 3]}
    path = write(tmp_path / "c.json", cfg)
    assert main(["norm", "--config", path]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert main(["norm", "--config", path, "--tol", "0"]) == EXIT_OK
    tight = json.loads(capsys.readouterr().out)["results"]
    assert math.isclose(tight["luxemburg"], res["luxemburg"], rel_tol=1e-10)
    assert tight["luxemburg"] <= res["luxemburg"] * (1.0 + 1e-10)


@pytest.mark.parametrize(
    "space",
    [
        {"kind": "nakano", "exponents": [2, 3]},
        {"kind": "orlicz", "curve": {"family": "linear", "slope": 1.5}},
        {
            "kind": "musielak",
            "curves": [
                {
                    "family": "piecewise",
                    "breakpoints": [0.0, 0.5, 2.0],
                    "slopes": [0.5, 2.0],
                    "end_value": "inf",
                },
                {"family": "indicator", "bound": 1.5},
            ],
        },
    ],
)
def test_norm_command_raises_degenerate_tolerances_to_a_floor(tmp_path, capsys, space):
    # a zero or negative tol reaches both solvers; each raises it to its floor
    cfg = dict(BASE, grid={"weights": [1.0, 2.0]}, x=[1.0, -0.5], space=space)
    runs = [(dict(cfg, tol=0), []), (cfg, ["--tol", "0"]), (cfg, ["--tol", "-1"])]
    for body, extra in runs:
        path = write(tmp_path / "c.json", body)
        assert main(["norm", "--config", path, *extra]) == EXIT_OK
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["luxemburg"] <= res["amemiya"] <= 2.0 * res["luxemburg"]


@pytest.mark.parametrize("command", ["norm", "classify", "probe", "conjugate"])
def test_nan_tolerance_is_a_config_error(tmp_path, capsys, command):
    # a NaN tol would be echoed into the report as a bare NaN token, which is not JSON
    nan_cfg = write(tmp_path / "nan.json", dict(BASE, tol=math.nan))
    for argv in (["--config", nan_cfg], ["--config", write(tmp_path / "c.json", BASE), "--tol", "nan"]):
        assert main([command, *argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: tol must be")
        assert captured.err.count("\n") == 1


def test_norm_command_zero(tmp_path, capsys):
    cfg = dict(BASE)
    cfg["x"] = [0.0, 0.0]
    path = write(tmp_path / "c.json", cfg)
    assert main(["norm", "--config", path]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["luxemburg"] == 0.0 and res["amemiya"] == 0.0 and res["modular"] == 0.0


def test_classify_command_variants(tmp_path, capsys):
    cfg1 = write(
        tmp_path / "c1.json",
        {"grid": {"weights": [1.0, 1.0]}, "space": {"kind": "nakano", "exponents": [1, 1]}},
    )
    assert main(["classify", "--config", cfg1]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["verdict"] == "daugavet" and res["canonical_form"] == "weighted-L1"

    cfg2 = write(
        tmp_path / "c2.json",
        {
            "grid": {"weights": [1.0, 1.0]},
            "space": {
                "kind": "weighted_sum",
                "v": [1.0, 1.0],
                "w": [1.0, 1.0],
            },
            "samples": 200,
            "seed": 9,
        },
    )
    assert main(["classify", "--config", cfg2]) == EXIT_OK
    res2 = json.loads(capsys.readouterr().out)["results"]
    assert res2["verdict"] == "not-daugavet"
    assert res2["witness"]["type"] == "sum-case"
    assert res2["witness"]["verification"]["violations"] == 0

    cfg3 = write(
        tmp_path / "c3.json",
        dict(BASE, samples=250),
    )
    assert main(["classify", "--config", cfg3]) == EXIT_OK
    res3 = json.loads(capsys.readouterr().out)["results"]
    assert res3["verdict"] == "not-daugavet" and res3["witness"]["type"] == "nonsquare"
    assert res3["witness"]["delta"] > 0.0


def test_probe_command(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.json",
        {
            "grid": {"weights": [1.0, 1.0]},
            "space": {"kind": "nakano", "exponents": [1, 1]},
            "samples": 200,
            "seed": 2,
            "probes": [
                {"type": "slice_diameter", "functional": [1.0, 1.0], "eps": 0.1},
                {"type": "roughness", "x": [1.0, 0.0]},
            ],
        },
    )
    assert main(["probe", "--config", cfg]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]["probes"]
    assert res[0]["diameter_lower_bound"] >= 2.0 - 1e-9
    assert res[1]["roughness_lower_bound"] >= 2.0 - 1e-6
    assert all(entry["one_sided"] for entry in res)


def test_probe_command_smooth_field(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.json",
        {
            "grid": {"weights": [1.0, 1.0]},
            "space": {"kind": "nakano", "exponents": [2, 2]},
            "samples": 300,
            "seed": 4,
            "probes": [{"type": "roughness", "x": [1.4142135623730951, 0.0]}],
        },
    )
    assert main(["probe", "--config", cfg]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]["probes"]
    assert res[0]["roughness_lower_bound"] < 1.0  # smooth norm stays far from 2


def test_conjugate_command_weighted_spaces(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.json",
        {
            "grid": {"weights": [1.0, 2.0]},
            "space": {
                "kind": "weighted_sum",
                "gamma": ["c0", "c1"],
                "v": [2.0, 4.0],
                "w": [0.5, 0.25],
            },
        },
    )
    assert main(["conjugate", "--config", cfg]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["kind"] == "weighted_intersection"
    assert res["w"] == [2.0, 4.0]  # reciprocal of the sup weights
    assert res["v"] == [0.5, 0.25]  # reciprocal of the L1 weights


def test_conjugate_command_round_trips_through_the_sum_space(tmp_path, capsys):
    grid = {"weights": [1.0, 2.0, 0.5]}
    start = {
        "kind": "weighted_intersection",
        "gamma": ["c0", "c2"],
        "w": [2.0, 4.0, 0.5],
        "v": [0.25, 1.0, 8.0],
    }
    cfg = write(tmp_path / "c.json", {"grid": grid, "space": start})
    assert main(["conjugate", "--config", cfg]) == EXIT_OK
    dual = json.loads(capsys.readouterr().out)["results"]
    assert dual["kind"] == "weighted_sum"
    assert dual["gamma"] == ["c0", "c2"]
    assert dual["w"] == [0.5, 0.25, 2.0]  # reciprocal of the L1 weights
    assert dual["v"] == [4.0, 1.0, 0.125]  # reciprocal of the sup weights on gamma

    cfg2 = write(tmp_path / "c2.json", {"grid": grid, "space": dual})
    assert main(["conjugate", "--config", cfg2]) == EXIT_OK
    back = json.loads(capsys.readouterr().out)["results"]
    assert back["kind"] == "weighted_intersection"
    assert back["gamma"] == start["gamma"]
    assert back["w"] == start["w"]
    assert back["v"] == start["v"]


def test_probe_command_empty_list(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.json",
        {"grid": {"weights": [1.0]}, "space": {"kind": "nakano", "exponents": [2]}},
    )
    assert main(["probe", "--config", cfg]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["probes"] == []


def test_conjugate_command_involution(tmp_path, capsys):
    space = {
        "kind": "musielak",
        "curves": [
            {"family": "linear", "slope": 2.0},
            {"family": "piecewise", "breakpoints": [0.0, 2.0, "inf"], "slopes": [1.0, 3.0]},
        ],
    }
    cfg = write(tmp_path / "c.json", {"grid": {"weights": [1.0, 1.0]}, "space": space})
    assert main(["conjugate", "--config", cfg]) == EXIT_OK
    first = json.loads(capsys.readouterr().out)["results"]["curves"]
    assert first[0] == {"family": "indicator", "bound": 2.0}

    cfg2 = write(
        tmp_path / "c2.json",
        {"grid": {"weights": [1.0, 1.0]}, "space": {"kind": "musielak", "curves": first}},
    )
    assert main(["conjugate", "--config", cfg2]) == EXIT_OK
    back = json.loads(capsys.readouterr().out)["results"]["curves"]
    assert [parse_curve(c) for c in back] == [parse_curve(c) for c in space["curves"]]


# -- reproducibility and verification ------------------------------------------


def test_reports_are_byte_identical(tmp_path):
    cfg = write(tmp_path / "c.json", dict(BASE, samples=150))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["classify", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["classify", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", dict(BASE, x=[1.0, 0.5], samples=200))
    report_path = tmp_path / "report.json"
    assert main(["classify", "--config", cfg, "--out", str(report_path)]) == EXIT_OK

    assert (
        main(
            ["verify", "--config", cfg, "--certificate", str(report_path), "--seed", "777"]
        )
        == EXIT_OK
    )

    tampered = json.loads(report_path.read_text())
    tampered["results"]["witness"]["delta"] = 0.9
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(tampered))
    capsys.readouterr()
    assert (
        main(["verify", "--config", cfg, "--certificate", str(bad_path), "--seed", "777"])
        == EXIT_VERIFICATION
    )
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "violations" in err and "found 0 " not in err


def test_verification_records_carry_the_worst_point(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", dict(BASE, x=[1.0, 0.5], samples=60))
    report_path = tmp_path / "report.json"
    assert main(["classify", "--config", cfg, "--out", str(report_path)]) == EXIT_OK
    record = json.loads(report_path.read_text())["results"]["witness"]["verification"]
    assert len(record["worst_point"]) == 2
    assert main(["verify", "--config", cfg, "--certificate", str(report_path)]) == EXIT_OK
    again = json.loads(capsys.readouterr().out)["results"]["verification"]
    assert again["worst_point"] == record["worst_point"]


def test_verify_hashes_the_config_once(tmp_path, capsys, monkeypatch):
    # the hash that matches the certificate is the report's
    cfg = write(tmp_path / "c.json", dict(BASE, x=[1.0, 0.5], samples=60))
    report_path = tmp_path / "report.json"
    assert main(["classify", "--config", cfg, "--out", str(report_path)]) == EXIT_OK
    hashed = []
    monkeypatch.setattr("mospaces.cli.config_hash", lambda c: hashed.append(c) or config_hash(c))
    assert main(["verify", "--config", cfg, "--certificate", str(report_path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(hashed) == 1 and report["config_hash"] == config_hash(hashed[0])


def test_norm_command_above_dbl_max(tmp_path, capsys):
    cfg = {
        "grid": {"weights": [1e10, 3e9]},
        "space": {"kind": "orlicz", "curve": {"family": "linear", "slope": 1.0}},
        "x": [1e300, -7e299],
    }
    assert main(["norm", "--config", write(tmp_path / "c.json", cfg)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "exceeds DBL_MAX" in err and err.count("\n") == 1


def test_verify_rejects_wrong_config(tmp_path):
    cfg = write(tmp_path / "c.json", dict(BASE, samples=150))
    report_path = tmp_path / "report.json"
    assert main(["classify", "--config", cfg, "--out", str(report_path)]) == EXIT_OK
    other = write(tmp_path / "other.json", dict(BASE, seed=6, samples=150))
    assert (
        main(["verify", "--config", other, "--certificate", str(report_path)])
        == EXIT_PRECONDITION
    )


def test_verify_int_certificate_round_trip(tmp_path):
    cfg = write(
        tmp_path / "c.json",
        {
            "grid": {"weights": [1.0, 1.0, 1.0, 1.0]},
            "space": {
                "kind": "weighted_intersection",
                "w": [1.0, 1.0, 1.0, 1.0],
                "v": [1.0, 1.0, 1.0, 1.0],
            },
            "samples": 200,
            "seed": 3,
        },
    )
    report_path = tmp_path / "report.json"
    assert main(["classify", "--config", cfg, "--out", str(report_path)]) == EXIT_OK
    assert (
        main(
            ["verify", "--config", cfg, "--certificate", str(report_path), "--seed", "31"]
        )
        == EXIT_OK
    )


def test_exit_codes_for_bad_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["norm", "--config", str(missing)]) == EXIT_CONFIG

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["norm", "--config", str(bad_json)]) == EXIT_CONFIG

    bad_space = write(
        tmp_path / "s.json",
        {"grid": {"weights": [1.0]}, "space": {"kind": "mystery"}, "x": [1.0]},
    )
    assert main(["norm", "--config", bad_space]) == EXIT_CONFIG

    bad_weights = write(
        tmp_path / "w.json",
        {"grid": {"weights": [0.0]}, "space": {"kind": "nakano", "exponents": [2]}, "x": [1.0]},
    )
    assert main(["norm", "--config", bad_weights]) == EXIT_CONFIG

    def one_line_config_error(argv):
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        return code == EXIT_CONFIG and err.count("\n") == 1 and "Traceback" not in err

    array_cfg = write(tmp_path / "array.json", [BASE])
    assert one_line_config_error(["norm", "--config", array_cfg])

    unbounded_range = {"cells": 2, "weight_seed": 1, "weight_range": ["inf", 1.0]}
    range_cfg = write(tmp_path / "range.json", dict(BASE, grid=unbounded_range))
    assert one_line_config_error(["norm", "--config", range_cfg])

    # generated grids above MAX_CELLS are refused before their weights are drawn
    assert MAX_CELLS == 10**6
    for cells in (MAX_CELLS + 1, 1e13, 2**64):
        huge_grid = {"cells": cells, "weight_seed": 1}
        huge_grid = write(tmp_path / "cells.json", dict(BASE, grid=huge_grid))
        assert one_line_config_error(["norm", "--config", huge_grid])

    for setting in ({"samples": None}, {"samples": -5}, {"seed": [1]}, {"seed": -1}):
        bad_setting = write(tmp_path / "setting.json", dict(BASE, **setting))
        assert one_line_config_error(["norm", "--config", bad_setting])

    cfg = write(tmp_path / "base.json", BASE)
    assert one_line_config_error(["classify", "--config", cfg, "--samples", "-5"])
    assert one_line_config_error(
        ["verify", "--config", cfg, "--certificate", str(tmp_path / "no-cert.json")]
    )
    array_cert = write(tmp_path / "array-cert.json", [])
    assert one_line_config_error(["verify", "--config", cfg, "--certificate", array_cert])
    # two faults, a hash mismatch (exit 3) and a bad setting: the setting is read first
    other_cert = write(tmp_path / "other-cert.json", {"config_hash": "0" * 64, "results": {}})
    two_faults = write(tmp_path / "two-faults.json", dict(BASE, samples=-1))
    assert one_line_config_error(["verify", "--config", two_faults, "--certificate", other_cert])

    empty_scales = {"type": "roughness", "x": [1.0, 0.0], "scales": []}
    for probes in ([{"type": "roughness"}], [["roughness", [1.0, 0.0]]], 5, [empty_scales]):
        probe_cfg = write(tmp_path / "probe.json", dict(BASE, probes=probes))
        assert one_line_config_error(["probe", "--config", probe_cfg])

    # nesting too deep for json.load
    deep = tmp_path / "deep.json"
    deep.write_text('{"a": ' + "[" * 5000 + "]" * 5000 + "}")
    assert one_line_config_error(["norm", "--config", str(deep)])

    no_grid = {"type": "sum-case", "x": [1.0, 0.0], "functional": [1.0, 0.0], "epsilon": 0.5}
    for results in ({"witness": {"type": "nonsquare"}}, 5, {"witness": [1]}, {"witness": no_grid}):
        body = {"config_hash": config_hash(_load_object(cfg, "config")), "results": results}
        cert = write(tmp_path / "hostile.json", body)
        assert one_line_config_error(["verify", "--config", cfg, "--certificate", cert])


@pytest.mark.parametrize("scales", [["inf"], [math.nan], [-1], [0], [0.5, -1]])
def test_roughness_scales_must_be_finite_and_positive(tmp_path, capsys, scales):
    probe = {"type": "roughness", "x": [1.0, 0.0], "scales": scales}
    cfg = write(tmp_path / "probe.json", dict(BASE, probes=[probe]))
    capsys.readouterr()
    assert main(["probe", "--config", cfg]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "scales must be finite and positive" in err


def test_samples_above_the_ceiling_are_config_errors(tmp_path, capsys):
    def outcome(argv):
        capsys.readouterr()
        code = main(argv)
        return code, capsys.readouterr()

    for huge in (MAX_SAMPLES + 1, 3.4e38, 2**64):
        cfg = write(tmp_path / "huge.json", dict(BASE, samples=huge))
        code, (out, err) = outcome(["norm", "--config", cfg])
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
    base = write(tmp_path / "base.json", BASE)
    for huge in (MAX_SAMPLES + 1, 2**64):
        code, (out, err) = outcome(["norm", "--config", base, "--samples", str(huge)])
        assert code == EXIT_CONFIG and err.count("\n") == 1
    assert MAX_SAMPLES == 10**6
    code, (out, _) = outcome(["norm", "--config", base, "--samples", str(MAX_SAMPLES)])
    assert code == EXIT_OK and json.loads(out)["samples"] == MAX_SAMPLES
    cfg = write(tmp_path / "max.json", dict(BASE, samples=float(MAX_SAMPLES)))
    assert outcome(["norm", "--config", cfg])[0] == EXIT_OK


def test_verify_reads_no_intersection_constants(tmp_path, capsys):
    # the constants are the construction's audit record: verify derives the
    # slice's center from the functional, so hostile constants change nothing
    cfg = {
        "grid": {"cells": 2, "weight_seed": 0},
        "space": {"kind": "weighted_intersection", "v": [1.0, 1.0], "w": [1.0, 1.0]},
        "samples": 200,
    }
    path = write(tmp_path / "c.json", cfg)
    cert = tmp_path / "cert.json"
    assert main(["classify", "--config", path, "--out", str(cert)]) == EXIT_OK
    report = json.loads(cert.read_text())
    assert report["results"]["witness"]["type"] == "intersection-case"
    capsys.readouterr()
    assert main(["verify", "--config", path, "--certificate", str(cert)]) == EXIT_OK
    untouched = capsys.readouterr()
    for constants in ({}, {"set_a1": 5}, {"set_a1": ["nope"]}, {"case": "gamma-proper"}):
        report["results"]["witness"]["constants"] = constants
        hostile = write(tmp_path / "hostile.json", report)
        assert main(["verify", "--config", path, "--certificate", hostile]) == EXIT_OK
        assert capsys.readouterr() == untouched
    for constants in ([], "gamma-full", 5, None):  # not a JSON object: a malformed certificate
        report["results"]["witness"]["constants"] = constants
        hostile = write(tmp_path / "hostile.json", report)
        assert main(["verify", "--config", path, "--certificate", hostile]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_center_beyond_the_float_range_is_a_precondition_failure(tmp_path, capsys):
    # 1/v on the functional's gamma cell overflows: the claim is well formed,
    # its slice's center is not a float point
    cfg = {"grid": {"weights": [1, 1]}, "space": {"kind": "weighted_intersection", "gamma": ["c0"], "w": [1e-309, 1], "v": [5e-309, 1]}}
    path = write(tmp_path / "c.json", cfg)
    witness = {
        "type": "intersection-case", "x": [1e308, 0.9], "functional": [-5e-309, 0.0], "epsilon": 0.01,
        "grid_weights": [1.0, 1.0], "grid_ids": ["c0", "c1"], "constants": {}, "verification": None,
    }
    report = {"config_hash": config_hash(_load_object(path, "config")), "results": {"witness": witness}}
    capsys.readouterr()
    assert main(["verify", "--config", path, "--certificate", write(tmp_path / "r.json", report)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == "precondition failure: step function values must be finite, got -inf\n"


@pytest.mark.parametrize("functional", [[-0.9, 0.0, 0.4], [0.0, 0.0, -1.0]])
def test_verify_intersection_certificate_with_a_functional_off_gamma(tmp_path, capsys, functional):
    # nonzero off gamma, or on no gamma cell: the center is 0 there, and the
    # certificate is sampled and judged like any other
    cfg = {
        "grid": {"weights": [0.7, 0.9, 1.1]},
        "space": {"kind": "weighted_intersection", "gamma": ["c0", "c1"], "w": [1.2, 0.8, 1.0], "v": [0.9, 1.1, 0.7]},
        "samples": 200,
    }
    path = write(tmp_path / "c.json", cfg)
    cert = tmp_path / "cert.json"
    assert main(["classify", "--config", path, "--out", str(cert)]) == EXIT_OK
    report = json.loads(cert.read_text())
    spec = parse_space(cfg).spec
    scale = int_dual_norm(spec, StepFunction(spec.grid, tuple(functional)))  # a unit functional, so sampling decides
    report["results"]["witness"]["functional"] = [t / scale for t in functional]
    capsys.readouterr()
    code = main(["verify", "--config", path, "--certificate", write(tmp_path / "off.json", report)])
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_VERIFICATION) and "Traceback" not in err
    assert (json.loads(out)["results"]["verdict"] == "pass") if code == EXIT_OK else err.count("\n") == 1


def test_verify_reports_violations_in_the_one_summary(tmp_path, capsys, monkeypatch):
    path = write(tmp_path / "c.json", SUM_CFG)
    cert = tmp_path / "cert.json"
    assert main(["classify", "--config", path, "--out", str(cert)]) == EXIT_OK
    monkeypatch.setattr(cli, "verify_sum_certificate", lambda *args: record_from_samples(10, 10, 1.75, 2.5, 3, 0))
    capsys.readouterr()
    assert main(["verify", "--config", path, "--certificate", str(cert)]) == EXIT_VERIFICATION
    err = capsys.readouterr().err
    assert err == "verification failure: re-verification found 3 violations (max 2.5 against bound 1.75)\n"


def test_verify_sum_certificate_without_second_functional_exits_cleanly(tmp_path, capsys):
    cfg = {
        "grid": {"weights": [1.0, 1.0]},
        "space": {"kind": "weighted_sum", "v": [1.0, 1.0], "w": [1.0, 1.0]},
        "samples": 50,
    }
    path = write(tmp_path / "c.json", cfg)
    cert = tmp_path / "cert.json"
    assert main(["classify", "--config", path, "--out", str(cert)]) == EXIT_OK
    report = json.loads(cert.read_text())
    assert report["results"]["witness"]["type"] == "sum-case"
    del report["results"]["witness"]["second_functional"]
    hostile = write(tmp_path / "hostile.json", report)
    capsys.readouterr()
    code = main(["verify", "--config", path, "--certificate", hostile])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_overflowing_sum_certificate_is_a_precondition_failure(tmp_path, capsys):
    cfg = {
        "grid": {"weights": [1.0, 0.6, 0.9]},
        "space": {
            "kind": "weighted_sum",
            "v": [1e300, 2e300, 1.5e300],
            "w": [1e300, 1.2e300, 0.8e300],
        },
        "samples": 5,
    }
    path = write(tmp_path / "c.json", cfg)
    cert = tmp_path / "cert.json"
    assert main(["classify", "--config", path, "--out", str(cert)]) == EXIT_OK
    report = json.loads(cert.read_text())
    # the fixed dual element at DBL_MAX: g + h overflows on the first accepted h
    report["results"]["witness"]["second_functional"][0] = sys.float_info.max
    hostile = write(tmp_path / "hostile.json", report)
    capsys.readouterr()
    code = main(["verify", "--config", path, "--certificate", hostile])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert err == "precondition failure: step function values must be finite, got inf\n"


def test_overflow_in_a_verifier_norm_is_a_precondition_failure(tmp_path, capsys):
    cfg = {
        "grid": {"weights": [2.0, 2.0, 1.0, 2.0]},
        "space": {
            "kind": "weighted_intersection",
            "w": [3e307, 1e-307, 1e-307, 3e307],
            "v": [6e307, 1.0, 1.0, 1.2e308],
        },
        "samples": 50,
    }
    capsys.readouterr()
    assert main(["classify", "--config", write(tmp_path / "c.json", cfg)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == "precondition failure: intermediate overflow in fsum\n"
    # with these v the margin, about 5.6e-16, is one the sampler cannot check:
    # the witness is refused before any verifier norm
    cfg["space"]["v"] = [1e300, 3e307, 1e300, 3e307]
    assert main(["classify", "--config", write(tmp_path / "c.json", cfg)]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["witness"] is None
    assert res["explanation"].startswith("margin epsilon 5.55555")


def test_verify_refuses_margins_within_the_checks_allowance(tmp_path, capsys):
    # a positive margin at most the verifier's allowance could not fail its check
    for cfg, key, margin, err in (
        (dict(BASE, samples=50), "delta", 1e-10, "nonsquare margin 1e-10 is within"),
        (INT_CFG, "epsilon", 1e-13, "slice margin 1e-13 is within"),
        (SUM_CFG, "epsilon", 5e-324, "slice margin 5e-324 is within"),
    ):
        path = write(tmp_path / "c.json", cfg)
        cert = tmp_path / "cert.json"
        assert main(["classify", "--config", path, "--out", str(cert)]) == EXIT_OK
        report = json.loads(cert.read_text())
        report["results"]["witness"][key] = margin
        hostile = write(tmp_path / "hostile.json", report)
        capsys.readouterr()
        assert main(["verify", "--config", path, "--certificate", hostile]) == EXIT_PRECONDITION
        assert capsys.readouterr().err.startswith(f"precondition failure: {err}")


@pytest.mark.parametrize(
    "cfg, key, margin",
    [
        (dict(BASE, samples=50), "delta", -1),
        (dict(BASE, samples=50), "delta", 0),
        (INT_CFG, "epsilon", 0),
        (SUM_CFG, "epsilon", "inf"),
        (SUM_CFG, "epsilon", -0.5),
    ],
)
def test_verify_rejects_margins_that_are_not_finite_and_positive(
    tmp_path, capsys, cfg, key, margin
):
    # at a margin of at most 0 the bound 2 - margin holds at every point
    path = write(tmp_path / "c.json", cfg)
    cert = tmp_path / "cert.json"
    assert main(["classify", "--config", path, "--out", str(cert)]) == EXIT_OK
    report = json.loads(cert.read_text())
    report["results"]["witness"][key] = margin
    hostile = write(tmp_path / "hostile.json", report)
    capsys.readouterr()
    assert main(["verify", "--config", path, "--certificate", hostile]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: certificate {key} must be finite and positive, got {num(margin)!r}\n"


@pytest.mark.parametrize("samples", [0, 50])
def test_classify_attaches_no_witness_whose_margin_rounds_to_zero(tmp_path, capsys, samples):
    cfg = {
        "grid": {"weights": [1e8, 1e-8]},
        "space": {"kind": "weighted_intersection", "w": [0.5, 1e-299], "v": [5e-301, 1e-300]},
        "samples": samples,
    }
    assert main(["classify", "--config", write(tmp_path / "c.json", cfg)]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["verdict"] == "not-daugavet" and res["witness"] is None
    assert res["explanation"].startswith("margin epsilon -0.0 is not positive")


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--config", "c.json", "--samples", "3.4e38"],
        ["norm", "--config", "c.json", "--seed", "x"],
        ["frobnicate", "--config", "c.json"],
    ],
)
def test_bad_command_lines_exit_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_CONFIG and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cli_entry_point_runs():
    proc = run_cli(["norm", "--config", "/does/not/exist.json"])
    assert proc.returncode == EXIT_CONFIG


# -- the config hash, and bulk parsing against its per-token reference -----------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["inf", "-inf", "NaN", "1.5", ""]),
)
_STR_KEYS = st.sampled_from(["a", "b", "inf", "1", "9", "10", "True", "null"])
# config objects as json.dumps writes them: non-finite floats as Infinity and NaN literals
_CONFIGS = st.dictionaries(
    _STR_KEYS,
    st.recursive(
        _SCALARS,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_STR_KEYS, kids, max_size=4),
        max_leaves=16,
    ),
    max_size=5,
)


def _outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # compared, never swallowed: a mismatch fails the test
        return type(exc).__name__, str(exc)


def _decoded(obj):
    """``obj`` as ``_load_object`` decodes it from a config file, which is what ``config_hash`` takes."""
    return json.loads(json.dumps(obj), object_pairs_hook=_sorted_object)


def _file_hash(text: str) -> str:
    """The hash the CLI takes of a config file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text)
        return config_hash(_load_object(str(path), "config"))


def _reordered(obj, rng):
    """``obj`` with the keys of each of its objects in a random order."""
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: _reordered(obj[k], rng) for k in keys}
    if isinstance(obj, list):
        return [_reordered(v, rng) for v in obj]
    return obj


def _nodes(obj, path=()):
    """(path, value) of ``obj`` and of everything inside it."""
    yield path, obj
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _nodes(value, path + (key,))


def _replaced(obj, path, value):
    """A copy of ``obj`` with ``value`` at ``path``."""
    if not path:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return copy


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_CONFIGS, st.randoms(use_true_random=False))
def test_config_hash_ignores_key_order_and_whitespace(cfg, rng):
    text = json.dumps(
        _reordered(cfg, rng),
        indent=rng.choice([None, 0, 3, "\t"]),
        separators=rng.choice([(",", ":"), (" , ", " :  ")]),
    )
    assert _file_hash("\n " + text + " \n") == _file_hash(json.dumps(cfg))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_CONFIGS)
def test_config_hash_changes_with_any_number_and_any_added_key(cfg):
    """A one-ulp step of any number (one more for an int; a NaN has no
    neighbour) and a key added to any object each change the hash."""
    base = _file_hash(json.dumps(cfg))
    for path, value in _nodes(cfg):
        if isinstance(value, dict):
            changed = dict(value, added=None)
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
            continue
        elif isinstance(value, int):
            changed = value + 1
        else:
            changed = math.nextafter(value, -math.inf if value == math.inf else math.inf)
        assert _file_hash(json.dumps(_replaced(cfg, path, changed))) != base, path


@pytest.mark.parametrize("a, b", [("1", "1.0"), ("0.0", "-0.0"), ("true", "1"), ("false", "0")])
def test_config_hash_tells_equal_comparing_values_apart(a, b):
    assert _file_hash('{"a": [%s]}' % a) != _file_hash('{"a": [%s]}' % b)


def test_a_repeated_key_hashes_as_its_last_value():
    text = '{"b": 0, "a": 1, "c": {"y": 2, "x": 3, "y": [4]}, "a": "last"}'
    assert _file_hash(text) == _file_hash('{"a": "last", "b": 0, "c": {"x": 3, "y": [4]}}')
    assert _file_hash(text) != _file_hash('{"a": 1, "b": 0, "c": {"x": 3, "y": 2}}')
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "c.json").write_text(text)
        assert _load_object(str(Path(tmp) / "c.json"), "config") == json.loads(text)


def test_an_infinity_literal_hashes_as_the_float_not_as_the_inf_token():
    # Infinity and 1e400 decode to the same float; "inf" is a string, which parses to that float too
    assert _file_hash('{"tol": Infinity}') == _file_hash('{"tol": 1e400}')
    assert _file_hash('{"tol": -Infinity}') == _file_hash('{"tol": -1e400}')
    assert _file_hash('{"tol": Infinity}') != _file_hash('{"tol": "inf"}')


def test_the_config_hash_of_a_small_config_is_pinned(tmp_path, capsys):
    # every JSON type; a change to the decoder or to marshal's format 2 moves this digest
    extra = [1, 2**70, 2.5, -0.0, math.inf, True, False, None, "\u00e9", {"b": "inf", "a": []}]
    assert main(["norm", "--config", write(tmp_path / "c.json", dict(BASE, extra=extra))]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["config_hash"] == "26e3d416c115f71179ea2dc09e5bf7efcd58e92b29f9ffb83cd87bd86d818d31"


def test_verify_matches_a_reordered_config_and_refuses_a_changed_one(tmp_path, capsys):
    cfg = dict(BASE, x=[1.0, 0.5], samples=60)
    cert = tmp_path / "cert.json"
    assert main(["classify", "--config", write(tmp_path / "c.json", cfg), "--out", str(cert)]) == EXIT_OK
    reordered = tmp_path / "reordered.json"
    reordered.write_text(json.dumps(dict(reversed(cfg.items())), indent=3))
    assert main(["verify", "--config", str(reordered), "--certificate", str(cert)]) == EXIT_OK
    changed = write(tmp_path / "changed.json", dict(cfg, x=[1.0, math.nextafter(0.5, 1.0)]))
    capsys.readouterr()
    assert main(["verify", "--config", changed, "--certificate", str(cert)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == "precondition failure: certificate does not match this configuration\n"


def test_a_config_too_deep_to_hash_is_a_config_error(tmp_path, capsys):
    """marshal writes at most 2,000 levels.  At the default recursion limit
    json.load reads fewer than 1,000, but under a raised limit it reads more."""
    deep = write(tmp_path / "deep.json", dict(BASE, a=_Nested(2_500)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 5_000)
    try:
        code = main(["norm", "--config", deep])
    finally:
        sys.setrecursionlimit(limit)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: config is nested too deeply to hash\n"
    # a NaN 500 lists deep hashes, and norm leaves the key it sits under unread
    nested = math.nan
    for _ in range(500):
        nested = [nested]
    assert main(["norm", "--config", write(tmp_path / "nan.json", dict(BASE, a=nested))]) == EXIT_OK


_HOSTILE_TOKENS = st.sampled_from(
    [True, False, None, "1.5", "0", "-inf", "inf", "nan", [1.0], [], 10**400, -(10**400), math.nan,
     math.inf, -0.0, 0, 2**70]
)


@st.composite
def _piecewise_spec(draw):
    """A piecewise curve spec, valid or broken in its token lists or end value."""
    k = draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.floats(0.01, 9.0), min_size=k - 1, max_size=k - 1, unique=True)))
    bp = [draw(st.sampled_from([0, 0.0]))] + cuts + [draw(st.sampled_from(["inf", 10.0, 10, 1e308]))]
    slopes = [draw(st.sampled_from([0, 0.0, 0.5, 1e308]))]
    for _ in range(k - 1):
        slopes.append(slopes[-1] + draw(st.floats(0.01, 3.0)))
    spec = {"family": "piecewise", "breakpoints": bp, "slopes": slopes}
    for key in draw(st.lists(st.sampled_from(["breakpoints", "slopes"]), max_size=2)):
        tokens = spec[key]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_HOSTILE_TOKENS)
    if draw(st.booleans()):
        spec[draw(st.sampled_from(["breakpoints", "slopes"]))] = draw(
            st.sampled_from(["ab", "", {"a": 1}, 5, (0.0, 1.0), [], [0.0, 1.0, 2.0]])
        )
    if draw(st.booleans()):
        spec["end_value"] = draw(st.one_of(st.sampled_from(["inf", 3.0, 10**400]), _HOSTILE_TOKENS))
    return spec


def _parsed(spec):
    curve = parse_curve(spec)
    assert curve._knot_values == knot_values_reference(curve)
    return repr((curve.breakpoints, curve.slopes, curve.end_value))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_piecewise_spec())
def test_bulk_piecewise_parse_matches_the_per_token_reference(spec):
    want = _outcome(lambda s: repr(piecewise_reference(s)), spec)
    assert _outcome(_parsed, spec) == want
    assert "\n" not in want[1]


def test_integers_beyond_the_float_range_are_config_errors(tmp_path, capsys):
    with pytest.raises(ConfigError, match="out of float range"):
        num(10**400)
    pwl = {"family": "piecewise", "breakpoints": [0.0, 10**400, "inf"], "slopes": [1.0, 2.0]}
    for body in (
        dict(BASE, space={"kind": "orlicz", "curve": pwl}),
        dict(BASE, space={"kind": "orlicz", "curve": {"family": "power", "p": 10**400}}),
        dict(BASE, space={"kind": "nakano", "exponents": [2, 10**400]}),
        dict(BASE, grid={"weights": [1.0, 10**400]}),
        dict(BASE, x=[-(10**400), 0.0]),
        dict(BASE, tol=10**400),
    ):
        cfg = write(tmp_path / "huge.json", body)
        capsys.readouterr()
        assert main(["norm", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "out of float range" in err, err


_ONE_CELL = {"grid": {"weights": [1.0]}, "space": {"kind": "musielak", "curves": [{"family": "power", "p": 2}]}, "x": [0.5]}


def _with_curve(curve):
    return dict(_ONE_CELL, space={"kind": "musielak", "curves": [curve]})


@pytest.mark.parametrize(
    "body, token",
    [
        (_with_curve({"family": "power", "p": True}), True),
        (_with_curve({"family": "linear", "slope": True}), True),
        (_with_curve({"family": "indicator", "bound": True}), True),
        (_with_curve({"family": "piecewise", "breakpoints": [0, 1], "slopes": [1], "end_value": True}), True),
        (_with_curve({"family": "piecewise", "breakpoints": [0, True, "inf"], "slopes": [1, 2]}), True),
        (dict(_ONE_CELL, grid={"weights": [True]}), True),
        (dict(_ONE_CELL, x=[False]), False),
        (dict(_ONE_CELL, tol=True), True),
    ],
    ids=["p", "slope", "bound", "end_value", "breakpoint", "weight", "x", "tol"],
)
def test_a_json_boolean_is_no_number(tmp_path, capsys, body, token):
    cfg = write(tmp_path / "bool.json", body)
    assert main(["norm", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: expected a number or 'inf', got {token!r}\n"


def test_num_refuses_booleans():
    for token in (True, False):
        with pytest.raises(ConfigError, match="expected a number"):
            num(token)
    assert num(1) == 1.0 and num(0.5) == 0.5


def _end_value_config(end: str) -> str:
    """A bounded piecewise cell whose end value is the JSON text ``end``, and a power cell."""
    curve = {"family": "piecewise", "breakpoints": [0, 1.0], "slopes": [1.0], "end_value": "<end>"}
    body = {
        "grid": {"weights": [1, 1]},
        "space": {"kind": "musielak", "curves": [curve, {"family": "power", "p": 2}]},
        "x": [0.5, 0.5],
    }
    return json.dumps(body).replace('"<end>"', end)


@pytest.mark.parametrize("end", ['"-inf"', "-1e400"])  # json.load reads -1e400 as -inf
def test_a_negative_infinite_end_value_is_a_config_error(tmp_path, capsys, end):
    cfg = tmp_path / "end.json"
    cfg.write_text(_end_value_config(end))
    assert main(["norm", "--config", str(cfg)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: bad curve spec") and "end value must be the left limit" in err


def _unbounded_end_config(end) -> dict:
    """An unbounded piecewise cell carrying the end value ``end``, and a power cell."""
    curve = {"family": "piecewise", "breakpoints": [0, 1, "inf"], "slopes": [1, 2], "end_value": end}
    return {
        "grid": {"weights": [1, 1]},
        "space": {"kind": "musielak", "curves": [curve, {"family": "power", "p": 2}]},
        "x": [0.5, 0.5],
    }


@pytest.mark.parametrize(
    "end, message",
    [
        (True, "expected a number or 'inf', got True"),
        ("x", "expected a number or 'inf', got 'x'"),
        ([1], "expected a number or 'inf', got [1]"),
        ({"a": 1}, "expected a number or 'inf', got {'a': 1}"),
        (10**400, "expected a number or 'inf', got an integer out of float range"),
    ],
    ids=["true", "string", "list", "object", "huge-int"],
)
@pytest.mark.parametrize("kind", ["musielak", "orlicz"])
def test_an_unbounded_cell_refuses_an_end_value_that_is_no_number(tmp_path, capsys, end, message, kind):
    body = _unbounded_end_config(end)
    if kind == "orlicz":
        body["space"] = {"kind": "orlicz", "curve": body["space"]["curves"][0]}
    assert main(["norm", "--config", write(tmp_path / "end.json", body)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", ["ab", {"family": "power", "p": 2}, 5, None])
def test_a_curve_list_must_be_a_list(tmp_path, capsys, value):
    body = dict(_ONE_CELL, space={"kind": "musielak", "curves": value})
    assert main(["norm", "--config", write(tmp_path / "curves.json", body)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: curves must be a list, got {value!r}\n")


def test_probe_bounds_never_exceed_two(tmp_path, capsys):
    # the l1 part of this intersection norm makes the roughness quotient 2 up
    # to rounding; the loop found 2.0000000000000018 before the cap
    cfg = {
        "grid": {"weights": [1.0, 0.5, 2.0]},
        "space": {"kind": "weighted_intersection", "v": [1.0, 2.0, 0.5], "w": [1.0, 1.0, 2.0]},
        "probes": [{"type": "roughness", "x": [1, 0, 0]}],
        "samples": 200,
        "seed": 3,
    }
    assert main(["probe", "--config", write(tmp_path / "probe.json", cfg)]) == EXIT_OK
    (entry,) = json.loads(capsys.readouterr().out)["results"]["probes"]
    assert entry["roughness_lower_bound"] == 2.0


def _certificate(cfg, results) -> dict:
    return {"config_hash": config_hash(_decoded(cfg)), "results": results}


_SUM_WITNESS = {
    "type": "sum-case",
    "x": [1.0, 0.0, 0.0],
    "functional": [1.0, 0.0, 0.0],
    "second_functional": [1.0, 0.0, 0.0],
    "epsilon": 0.5,
    "grid_weights": [1.0, 1.0, 1.0],
    "grid_ids": ["c0", "c1", "c2"],
}
_INT_WITNESS = dict(_SUM_WITNESS, type="intersection-case", constants={})


@pytest.mark.parametrize(
    "command, cfg, cert, probes, code, line",
    [
        ("verify", BASE, _certificate(BASE, {"witness": [1]}), None,
         EXIT_CONFIG, "error: certificate witness must be a JSON object"),
        ("verify", BASE, _certificate(BASE, {"witness": {"type": "cubic"}}), None,
         EXIT_CONFIG, "error: unknown witness type 'cubic'"),
        ("verify", BASE, _certificate(BASE, 5), None,
         EXIT_CONFIG, "error: certificate results must be a JSON object"),
        ("verify", BASE, None, None,
         EXIT_CONFIG, "error: verify needs --certificate <report.json>"),
        ("verify", SUM_CFG, _certificate(SUM_CFG, {"witness": {"type": "nonsquare"}}), None,
         EXIT_PRECONDITION, "precondition failure: nonsquare witnesses need a gauge-norm space"),
        ("verify", INT_CFG, _certificate(INT_CFG, {"witness": dict(_INT_WITNESS, constants=5)}), None,
         EXIT_CONFIG, "error: bad certificate witness: TypeError('constants must be a JSON object')"),
        ("verify", BASE, _certificate(BASE, {"witness": _INT_WITNESS}), None,
         EXIT_PRECONDITION,
         "precondition failure: field has no intersection component: it has a genuinely "
         "convex cell or no linear-up-to-a-bound cell"),
        ("verify", SUM_CFG, _certificate(SUM_CFG, {"witness": _SUM_WITNESS}), None,
         EXIT_PRECONDITION, "precondition failure: certificate grid does not match the space"),
        ("probe", BASE, None, [{"type": "roughness", "x": [0.0, 0.0]}],
         EXIT_CONFIG, "error: probe point must be nonzero"),
        ("probe", BASE, None, [{"type": "cubic"}],
         EXIT_CONFIG, "error: unknown probe type 'cubic'"),
    ],
    ids=[
        "witness-not-object", "unknown-witness-type", "results-not-object", "no-certificate",
        "nonsquare-on-weighted", "constants-not-object", "component-without-spec",
        "sum-grid-mismatch", "zero-probe-point", "unknown-probe-type",
    ],
)
def test_refused_verify_and_probe_inputs_exit_with_one_line(tmp_path, capsys, command, cfg, cert, probes, code, line):
    if probes is not None:
        cfg = dict(cfg, probes=probes)
    argv = [command, "--config", write(tmp_path / "c.json", cfg)]
    if cert is not None:
        argv += ["--certificate", write(tmp_path / "cert.json", cert)]
    assert main(argv) == code
    assert capsys.readouterr() == ("", line + "\n")


def _linear(slope):
    return {"family": "linear", "slope": slope}


def _bounded_linear(end, slope):
    return {"family": "piecewise", "breakpoints": [0, end], "slopes": [slope]}


_INDICATOR = {"family": "indicator", "bound": 1.0}
# fields of linear and linear-up-to-a-bound cells: each classifies not
# Daugavet with an intersection certificate on its component space.
# FIELD_A's component is c0, c1, c3; FIELD_B's is its own three cells, on
# another grid; FIELD_C's lies on FIELD_A's component grid, with other weights.
FIELD_A = {
    "grid": {"weights": [1.0, 0.5, 2.0, 1.0]},
    "space": {
        "kind": "musielak",
        "curves": [_linear(1.0), _bounded_linear(2.0, 0.5), _INDICATOR, _bounded_linear(1.0, 0.25)],
    },
    "samples": 100,
    "seed": 3,
}
FIELD_B = dict(FIELD_A, grid={"weights": [1.0, 0.5, 2.0]}, space={
    "kind": "musielak", "curves": [_linear(1.0), _bounded_linear(2.0, 0.5), _bounded_linear(1.0, 0.25)],
})
FIELD_C = dict(FIELD_A, space={
    "kind": "musielak", "curves": [_linear(10.0), _bounded_linear(0.5, 2.0), _INDICATOR, _bounded_linear(4.0, 0.25)],
})


def _classified(tmp_path, cfg) -> dict:
    """The classify report of ``cfg``, which must carry a witness."""
    out = tmp_path / "report.json"
    assert main(["classify", "--config", write(tmp_path / "classify.json", cfg), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["results"]["witness"] is not None
    return report


def _verify(tmp_path, capsys, cfg, report) -> tuple:
    """verify's exit code and stderr for ``report`` as a certificate of ``cfg``."""
    argv = ["verify", "--config", write(tmp_path / "verify.json", cfg)]
    argv += ["--certificate", write(tmp_path / "cert.json", report), "--seed", "17"]
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert (out == "") == (code != EXIT_OK)
    return code, err


@pytest.mark.parametrize("cfg", [FIELD_A, FIELD_B, FIELD_C], ids=["A", "B", "C"])
def test_component_certificates_verify_on_their_own_config(tmp_path, capsys, cfg):
    report = _classified(tmp_path, cfg)
    assert report["results"]["witness"]["type"] == "intersection-case"
    assert _verify(tmp_path, capsys, cfg, report) == (EXIT_OK, "")


def test_a_certificate_of_another_grid_is_refused_under_this_configs_hash(tmp_path, capsys):
    # FIELD_B's witness carries its own gamma, w and v; verify reads the space from FIELD_A alone
    forged = _classified(tmp_path, FIELD_B)
    forged["config_hash"] = _classified(tmp_path, FIELD_A)["config_hash"]
    assert _verify(tmp_path, capsys, FIELD_A, forged) == (
        EXIT_PRECONDITION, "precondition failure: certificate grid does not match the space\n"
    )


def test_a_certificate_of_another_field_on_the_same_grid_fails_its_unit_claims(tmp_path, capsys):
    forged = _classified(tmp_path, FIELD_C)
    assert forged["results"]["witness"]["grid_weights"] == [1.0, 0.5, 1.0]  # FIELD_A's component grid
    forged["config_hash"] = _classified(tmp_path, FIELD_A)["config_hash"]
    assert _verify(tmp_path, capsys, FIELD_A, forged) == (
        EXIT_VERIFICATION, "verification failure: witness point has norm 0.1375, expected 1\n"
    )


@pytest.mark.parametrize("scale", [0.5, 0.0])
@pytest.mark.parametrize(
    "cfg, claim",
    [
        (dict(BASE, samples=50), "witness modular is"),
        (FIELD_A, "witness point has norm"),
        (SUM_CFG, "witness point has norm"),
    ],
    ids=["nonsquare", "component-intersection", "weighted-sum"],
)
def test_verify_refuses_a_witness_point_off_the_unit_sphere(tmp_path, capsys, cfg, claim, scale):
    # a scaled point keeps min(|x+y|, |x-y|), or |x+y| over the slice, under 2 - margin
    report = _classified(tmp_path, cfg)
    witness = report["results"]["witness"]
    witness["x"] = [scale * t for t in witness["x"]]
    code, err = _verify(tmp_path, capsys, cfg, report)
    assert code == EXIT_VERIFICATION and err.count("\n") == 1
    assert err.startswith(f"verification failure: {claim} ") and err.endswith(", expected 1\n")


def test_verify_refuses_functionals_off_the_dual_unit_sphere(tmp_path, capsys):
    for cfg, key, claim in (
        (FIELD_A, "functional", "slice functional"),
        (SUM_CFG, "second_functional", "fixed dual element"),
        (SUM_CFG, "functional", "norming functional"),
    ):
        report = _classified(tmp_path, cfg)
        witness = report["results"]["witness"]
        witness[key] = [2.0 * t for t in witness[key]]
        code, err = _verify(tmp_path, capsys, cfg, report)
        assert code == EXIT_VERIFICATION
        assert err.startswith(f"verification failure: {claim} has norm 2.0") and err.count("\n") == 1


def test_a_nan_nakano_exponent_is_refused_with_the_range_message(tmp_path, capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"grid": {"weights": [1, 1]}, "space": {"kind": "nakano", "exponents": [2, NaN]}, "x": [1, 1]}')
    assert main(["norm", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: bad space spec: exponents must lie in [1, inf]\n")


def test_a_knot_gap_past_the_float_range_warns_nothing(tmp_path, capsys):
    """slope*knot overflows at the last knot, so the kernel's gap there is
    inf - inf unless it is stored as +inf; the run prints no warning."""
    body = {
        "grid": {"weights": [1, 1]},
        "space": {
            "kind": "musielak",
            "curves": [
                {"family": "piecewise", "breakpoints": [0, 1e-300, 1e300, "inf"], "slopes": [1.0, 1e10, 1e250]},
                {"family": "power", "p": 2},
            ],
        },
        "x": [0.5, 0.5],
    }
    cfg = write(tmp_path / "gap.json", body)
    assert main(["norm", "--config", cfg]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    space = parse_space(body)
    x = parse_x(body, space.grid)
    assert space.field._kernel.flat_gaps.max() == math.inf
    want = orlicz_norm_sup_oracle(space.field, x).value
    assert json.loads(out)["results"]["amemiya"] == pytest.approx(want, rel=1e-8)


def test_a_knot_sum_past_the_float_range_warns_nothing(tmp_path, capsys):
    """The knot values sum past DBL_MAX to inf, as ``_knot_values`` sums them;
    norm, classify and conjugate print no warning."""
    curve = {"family": "piecewise", "breakpoints": [0, 1e308, 1.5e308, "inf"], "slopes": [1.5, 1.7, 2.0]}
    body = {"grid": {"weights": [1]}, "space": {"kind": "musielak", "curves": [curve]}, "x": [0.5]}
    cfg = write(tmp_path / "sum.json", body)
    for command in ("norm", "classify", "conjugate"):
        assert main([command, "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().err == ""
    table = parse_space(body).field.table
    assert table.values[0].tolist() == list(parse_curve(curve)._knot_values[:-1])


_REFUSED_CONJUGATES = {
    "power curves need a finite exponent p > 1": {"family": "power", "p": 1e17},  # p/(p - 1) rounds to 1
    "intermediate overflow in fsum": {  # the conjugate's left limit passes DBL_MAX
        "family": "piecewise",
        "breakpoints": [0, 1, 2, "inf"],
        "slopes": [1, 1e308, 1.7e308],
    },
}


@pytest.mark.parametrize("message", sorted(_REFUSED_CONJUGATES))
@pytest.mark.parametrize("command", ["conjugate", "probe"])
def test_a_refused_conjugate_keeps_its_message(tmp_path, capsys, message, command):
    curves = [{"family": "linear", "slope": 2}, _REFUSED_CONJUGATES[message]]
    body = {
        "grid": {"weights": [1, 2]},
        "space": {"kind": "musielak", "curves": curves},
        "probes": [{"type": "roughness", "x": [1, 1]}],
    }
    assert main([command, "--config", write(tmp_path / "refused.json", body)]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"precondition failure: {message}\n")


def test_unreadable_files_are_config_errors(tmp_path, capsys):
    # an int of more than 4300 digits and bytes that are not UTF-8 fail inside
    # json.load with a ValueError that is no JSONDecodeError
    huge = tmp_path / "huge-literal.json"
    huge.write_text(json.dumps(dict(BASE, x=[0.0, 0.0]))[:-1] + ', "tol": 1' + "0" * 5000 + "}")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    cfg = write(tmp_path / "base.json", BASE)
    for argv in (
        ["norm", "--config", str(huge)],
        ["norm", "--config", str(binary)],
        ["verify", "--config", cfg, "--certificate", str(binary)],
    ):
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot read" in err, err


@pytest.mark.parametrize("where", ["ids", "gamma"])
@pytest.mark.parametrize("value", ["ab", {"a": 0, "b": 1}])
def test_id_lists_must_be_lists(tmp_path, capsys, where, value):
    grid = {"weights": [1.0, 1.0], "ids": ["a", "b"]}
    space = {"kind": "weighted_sum", "v": [1.0, 1.0], "w": [1.0, 1.0], "gamma": ["a"]}
    (grid if where == "ids" else space)[where] = value
    cfg = write(tmp_path / "ids.json", dict(SUM_CFG, grid=grid, space=space))
    capsys.readouterr()
    assert main(["norm", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be a list" in err, err


@pytest.mark.parametrize(
    "command, ids, space",
    [
        # mixed ids used to reach sorted() over the ids and exit 1 with a traceback
        ("conjugate", [1, "a", "b"], {"kind": "weighted_sum", "v": [1, 1, 1], "w": [1, 1, 1]}),
        (
            "classify",
            [1, "a", "b"],
            {"kind": "weighted_intersection", "gamma": ["a"], "v": [1, 1, 1], "w": [0.1] * 3},
        ),
        ("norm", [0, 1, 2], {"kind": "orlicz", "curve": {"family": "power", "p": 2}}),
    ],
)
def test_grid_ids_must_be_strings(tmp_path, capsys, command, ids, space):
    body = {"grid": {"weights": [1, 1, 1], "ids": ids}, "space": space, "x": [1, 0, 0]}
    cfg = write(tmp_path / "ids.json", body)
    capsys.readouterr()
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: grid ids must be strings, got {ids[0]}\n", err


def test_certificate_grid_ids_must_be_strings(tmp_path, capsys):
    path = write(tmp_path / "c.json", INT_CFG)
    cert = tmp_path / "cert.json"
    assert main(["classify", "--config", path, "--out", str(cert)]) == EXIT_OK
    report = json.loads(cert.read_text())
    report["results"]["witness"]["grid_ids"] = [0, "c1", "c2", "c3"]
    hostile = write(tmp_path / "hostile.json", report)
    capsys.readouterr()
    assert main(["verify", "--config", path, "--certificate", hostile]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: grid ids must be strings, got 0\n"


@pytest.mark.parametrize(
    "kind, key",
    [
        ("roughness", "x"),
        ("slice_diameter", "functional"),
        ("daugavet_condition", "x"),
        ("daugavet_condition", "functional"),
    ],
)
@pytest.mark.parametrize(
    "bad, why",
    [([1.0, 0.0, 0.0], "value count must equal cell count"), ([1.0, "inf"], "values must be finite, got inf")],
)
def test_a_bad_probe_vector_is_a_config_error(tmp_path, capsys, kind, key, bad, why):
    probe = {"type": kind, "x": [1.0, 0.0], "functional": [1.0, 0.0], "eps": 0.5, key: bad}
    probes = [{"type": "roughness", "x": [0.0, 1.0]}, probe]  # the fault sits in probe 1
    cfg = write(tmp_path / "probe.json", dict(BASE, samples=20, probes=probes))
    capsys.readouterr()
    assert main(["probe", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: probe 1: bad {key}: ") and err.endswith(why + "\n"), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("eps", ["inf", math.nan, 0, -1.0])
def test_condition_probe_eps_must_be_finite_and_positive(tmp_path, capsys, eps):
    probe = {"type": "daugavet_condition", "x": [1.0, 0.0], "functional": [1.0, 0.0], "eps": eps}
    cfg = write(tmp_path / "probe.json", dict(BASE, probes=[probe]))
    capsys.readouterr()
    assert main(["probe", "--config", cfg]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "eps must be finite and positive" in err


# -- config fuzzing -------------------------------------------------------------

_LOADS_DEEP, _TOO_DEEP = 1_000, 10_000  # nesting depths of the junk lists
# values no config key expects; each example puts them into at most one slot
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "ab", "abc", "inf", "-inf"]),
    st.sampled_from([10**400, -(10**400)]),  # ints beyond the float range
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "seed", "kind"]), st.integers(0, 3), max_size=2),
    # loads under hypothesis's raised recursion limit, and no slot takes it
    st.just(_Nested(_LOADS_DEEP)),
    # too deep to load even under that limit: the loader's RecursionError
    st.just(_Nested(_TOO_DEEP)),
)
_POS = st.floats(0.25, 4.0)
# integral sample counts above the ceiling, which would otherwise never finish
_HUGE_SAMPLES = st.sampled_from([10**6 + 1, 3.4e38, 2**64])
# generated grids above MAX_CELLS, which would otherwise allocate up to 72.8 TiB
_HUGE_GRIDS = st.sampled_from([10**6 + 1, 1e13]).map(lambda c: {"cells": c, "weight_seed": 0})
_SLOTS = (
    "grid",
    "ids",
    "weight_range",
    "space",
    "entries",
    "curve",
    "x",
    "seed",
    "samples",
    "tol",
    "probes",
    "scales",
    "certificate",
)


@st.composite
def _curve(draw, broken):
    a = draw(st.floats(0.2, 2.0))
    s1 = draw(st.floats(0.0, 1.0))
    s2 = s1 + draw(st.floats(0.1, 2.0))
    valid = [
        {"family": "power", "p": 1.0 + a},
        {"family": "linear", "slope": a},
        {"family": "indicator", "bound": a},
        {"family": "piecewise", "breakpoints": [0.0, a, "inf"], "slopes": [s1, s2]},
        {"family": "piecewise", "breakpoints": [0.0, a], "slopes": [s2]},
        {"family": "piecewise", "breakpoints": [0.0, a], "slopes": [s2], "end_value": "inf"},
    ]
    malformed = [
        {"family": "piecewise", "breakpoints": [], "slopes": []},
        {"family": "piecewise", "breakpoints": [0.0, a], "slopes": [s2, s1]},
        {"family": "piecewise", "breakpoints": [0.0, a, "inf"], "slopes": [s2, s1]},
        {"family": "power"},
    ]
    return draw(st.sampled_from(malformed if broken else valid))


def _vector(n):
    return st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)


def _probe(n, scales):
    eps = st.floats(0.01, 0.5)
    return st.one_of(
        st.builds(lambda x, t: {"type": "roughness", "x": x, **t}, _vector(n), scales),
        st.builds(
            lambda f, e: {"type": "slice_diameter", "functional": f, "eps": e}, _vector(n), eps
        ),
        st.builds(
            lambda x, f, e: {"type": "daugavet_condition", "x": x, "functional": f, "eps": e},
            _vector(n),
            _vector(n),
            eps,
        ),
    )


_BAD_SCALES = st.one_of(_JUNK, st.just([]), st.lists(st.floats(-1.0, 0.0), min_size=1, max_size=2))


@st.composite
def _config(draw):
    """A config with valid values except, usually, in one slot.

    Returns the config and, when the certificate slot is broken, how to
    corrupt the certificate that ``classify`` writes for it: (target, key
    index, delete, junk).
    """
    broken = draw(st.sampled_from((None,) + _SLOTS))
    n = draw(st.integers(1, 4))
    ids = [f"c{i}" for i in range(n)]
    weights = st.lists(_POS, min_size=n, max_size=n)

    def slot(name, valid):
        return draw(_JUNK if broken == name else valid)

    kinds = ["orlicz", "musielak"]
    if broken != "curve":
        kinds += ["nakano", "weighted_sum", "weighted_intersection"]
    kind = draw(st.sampled_from(kinds))
    if kind == "nakano":
        exponents = st.lists(st.floats(1.0, 4.0), min_size=n, max_size=n)
        space = {"kind": kind, "exponents": slot("entries", exponents)}
    elif kind == "orlicz":
        space = {"kind": kind, "curve": slot("entries", _curve(broken == "curve"))}
    elif kind == "musielak":
        curves = [draw(_curve(broken == "curve" and i == 0)) for i in range(n)]
        # a lone curve object, or a string, where the list belongs
        no_list = st.sampled_from(curves[:1] + ["power", "[]"])
        space = {"kind": kind, "curves": draw((_JUNK | no_list) if broken == "entries" else st.just(curves))}
    else:
        space = {"kind": kind, "v": slot("entries", weights), "w": draw(weights)}
        if draw(st.booleans()):
            space["gamma"] = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    if broken == "grid":
        grid = draw(_HUGE_GRIDS if draw(st.booleans()) else _JUNK)
    elif broken != "weight_range" and draw(st.booleans()):
        grid = {"weights": draw(weights)}
    else:
        grid = {"cells": n, "weight_seed": draw(st.integers(0, 9))}
        if broken == "weight_range" or draw(st.booleans()):
            pair = st.lists(_POS, min_size=2, max_size=2).map(sorted)
            grid["weight_range"] = slot("weight_range", pair)
    if broken != "grid" and (broken == "ids" or draw(st.booleans())):
        grid["ids"] = slot("ids", st.permutations(ids))
    scales = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3).map(lambda t: {"scales": t})
    if broken == "scales":
        bad = _probe(n, _BAD_SCALES.map(lambda t: {"scales": t}))
        probes = [draw(bad.filter(lambda p: "scales" in p))]
    else:
        probes = slot("probes", st.lists(_probe(n, st.one_of(st.just({}), scales)), max_size=2))
    cfg = {
        "grid": grid,
        "space": slot("space", st.just(space)),
        "x": slot(
            "x",
            st.one_of(
                _vector(n),
                st.builds(lambda s, c: {"seed": s, "scale": c}, st.integers(0, 9), _POS),
            ),
        ),
        "samples": draw(
            st.one_of(_JUNK, _HUGE_SAMPLES) if broken == "samples" else st.integers(0, 20)
        ),
        "probes": probes,
    }
    # a NaN tol, half the time it is broken: a report that echoed it would not be JSON
    for key, valid, junk in (
        ("seed", st.integers(0, 99), _JUNK),
        ("tol", st.floats(1e-12, 1e-3), st.just(math.nan) | _JUNK),
    ):
        if broken == key or draw(st.booleans()):
            cfg[key] = draw(junk if broken == key else valid)
    hostile = None
    if broken == "certificate":
        if draw(st.booleans()):  # a delta or epsilon that leaves no margin, or no bound
            hostile = ("margin", 0, False, draw(st.sampled_from([0, -1, "inf"])))
        else:
            target = draw(st.sampled_from(["config_hash", "results", "witness", "witness key"]))
            hostile = (target, draw(st.integers(0, 9)), draw(st.booleans()), draw(_JUNK))
    return cfg, hostile


def _corrupt(cert: dict, hostile):
    """Put junk into, or delete, the part of a certificate ``hostile`` names."""
    target, index, delete, junk = hostile
    results = cert.get("results")
    witness = results.get("witness") if isinstance(results, dict) else None
    owner, key = {
        "config_hash": (cert, "config_hash"),
        "results": (cert, "results"),
        "witness": (results, "witness"),
        "witness key": (witness, sorted(witness)[index % len(witness)] if witness else None),
        "margin": (witness, "delta" if witness and "delta" in witness else "epsilon"),
    }[target]
    if isinstance(owner, dict) and key is not None:
        if delete:
            owner.pop(key, None)
        else:
            owner[key] = junk


def _refuse_constant(token):
    raise ValueError(f"the report holds {token}, which is not JSON")


_CPU_LIMIT_S = 30.0  # of one main call; a hang fails the test instead of stalling the suite


class _CpuLimit(BaseException):
    """Raised out of ``main`` when it spends its CPU-time budget (main catches no BaseException)."""


def _spent(signum, frame):
    raise _CpuLimit("main spent its CPU-time budget")


def _run_in_process(argv, limit=_CPU_LIMIT_S):
    out, err = io.StringIO(), io.StringIO()
    handler = signal.signal(signal.SIGPROF, _spent)
    timer = signal.setitimer(signal.ITIMER_PROF, limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, handler)
    if code == EXIT_OK and "--out" not in argv:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)  # no NaN or Infinity literal
    return code, err.getvalue()


@settings(max_examples=1, deadline=None, database=None)
@given(st.just(None))
def test_the_junk_lists_load_or_not_under_the_fuzzers_recursion_limit(_):
    with tempfile.TemporaryDirectory() as tmp:
        shallow = write(Path(tmp) / "shallow.json", {"x": _Nested(_LOADS_DEEP)})
        x, depth = _load_object(shallow, "config")["x"], 1
        while x:
            x, depth = x[0], depth + 1
        assert depth == _LOADS_DEEP
        deep = write(Path(tmp) / "deep.json", {"x": _Nested(_TOO_DEEP)})
        with pytest.raises(ConfigError, match="cannot read config") as exc:
            _load_object(deep, "config")
    assert isinstance(exc.value.__cause__, RecursionError)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(_config(), st.sampled_from(["norm", "classify", "verify", "probe", "conjugate"]))
def test_fuzzed_configs_keep_the_exit_code_contract(case, command):
    """Any config exits 0, 2, 3 or 4 with at most one line on stderr.

    ``verify`` is handed the report of ``classify`` on the same config,
    corrupted where the example breaks the certificate.
    """
    cfg, hostile = case
    if hostile is not None:
        command = "verify"  # only verify reads the certificate
    contract = (EXIT_OK, EXIT_CONFIG, EXIT_PRECONDITION, EXIT_VERIFICATION)
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "c.json", cfg)
        argv = [command, "--config", path]
        if command == "verify":
            cert = str(Path(tmp) / "cert.json")
            code, err = _run_in_process(["classify", "--config", path, "--out", cert])
            assert code in contract, err
            if hostile is not None and code == EXIT_OK:
                with open(cert) as fh:
                    report = json.load(fh)
                _corrupt(report, hostile)
                write(Path(cert), report)
            argv += ["--certificate", cert]
        code, err = _run_in_process(argv)
    assert code in contract, err
    assert err.count("\n") <= 1 and "Traceback" not in err, err


def test_a_subnormal_product_does_not_stall_the_edge_brackets(tmp_path):
    # T*x = 2**-1050 is subnormal: its ulp, 2**-24 of it, swallowed millions
    # of steps of rtol/4 before the steps doubled; at --tol 1e-13 this ran
    # for more than 15 s of CPU
    cfg = {
        "grid": {"weights": [2.0**50]},
        "space": {"kind": "musielak", "curves": [{"family": "linear", "slope": 2.0**1000}]},
        "x": [2.0**-100],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for tol in ("1e-13", "1e-10"):
        code, err = _run_in_process(["norm", "--config", str(path), "--tol", tol], limit=2.0)
        assert (code, err) == (EXIT_OK, "")


@pytest.mark.parametrize("mass", [1e-310, 1e-300])
def test_classify_of_a_sum_space_whose_point_is_out_of_float_range_exits_cleanly(tmp_path, capsys, mass):
    # on c0, v * mass underflows to 0 (1e-310) or its inverse 1/(mass*v) overflows (1e-300),
    # so c0 is no candidate for the witness cell; c1 has mass*v above w
    space = {"kind": "weighted_sum", "w": [1, 1], "v": [1e-10 if mass == 1e-300 else 1e-20, 3]}
    cfg = {"grid": {"weights": [mass, 1.0]}, "space": space}
    capsys.readouterr()
    assert main(["classify", "--config", write(tmp_path / "c.json", cfg)]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["verdict"] == "not-daugavet" and res["witness"] is None
    assert res["explanation"] == "every cell has mass*v above w or a point 1/(mass*v) outside the float range"
    # beside cells with room, such a cell is passed over
    cfg = {"grid": {"weights": [mass, 0.1, 0.2]}, "space": dict(space, w=[1, 1, 1], v=space["v"] + [4])}
    assert main(["classify", "--config", write(tmp_path / "c.json", cfg)]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["witness"]["constants"]["cell_a"] == "c1"


@pytest.mark.parametrize(
    "grid, w, v, gamma",
    [
        # the w mass off gamma, 2.2e-308 * 1e-300, underflows to 0
        ([2.0, 2.0, 1e-300], [5e-324, 3.0, 2.2e-308], [2.2e-308, 0.5, 5e-324], ["c0", "c1"]),
        # the w/v integral on A, 5e-324 / 1e300 * 0.5, underflows to 0
        ([1e20, 0.5, 3.0, 1e20], [1e20, 5e-324, 1e20, 3.0], [3.0, 1e300, 2.0, 1.0], ["c0", "c1", "c3"]),
    ],
)
def test_classify_of_a_gamma_proper_space_whose_constants_underflow_exits_cleanly(tmp_path, capsys, grid, w, v, gamma):
    space = {"kind": "weighted_intersection", "w": w, "v": v, "gamma": gamma}
    cfg = {"grid": {"weights": grid}, "space": space, "samples": 30}
    capsys.readouterr()
    assert main(["classify", "--config", write(tmp_path / "c.json", cfg)]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["verdict"] == "not-daugavet" and res["witness"] is None
    assert res["explanation"] == "the w/v integral on A or the w mass off gamma is below the float range"


def _op(path, command, *extra):
    """(exit code, stdout, stderr) of one in-process CLI op on the config at ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(path), *extra])
    return rc, out.getvalue(), err.getvalue()


def _linear(slope):
    return {"family": "linear", "slope": slope}


def _piece(breakpoints, slopes):
    return {"family": "piecewise", "breakpoints": breakpoints, "slopes": slopes}


_RECIPROCAL_V = "the reciprocal weight 1/v of c0 is beyond the float range"
_RECIPROCAL_W = "the reciprocal weight 1/w of c0 is beyond the float range"


@pytest.mark.parametrize(
    "masses, space, refused, explanation",
    [
        # 1/v on gamma and 1/w are beyond the float range; 1/v is formed first
        (
            [1, 1],
            {"kind": "weighted_intersection", "gamma": ["c0"], "w": [1e-309, 1], "v": [5e-309, 1]},
            _RECIPROCAL_V,
            _RECIPROCAL_V,
        ),
        (
            [1, 1],
            {"kind": "weighted_sum", "w": [1e-309, 1], "v": [1, 1]},
            _RECIPROCAL_W,
            "cannot reach a v/w integral in (1, 2] by whole cells",
        ),
        # the intersection component's w = 1e-310 on c1: its dual needs 1/w
        (
            [1, 1, 1],
            {"kind": "musielak", "curves": [_linear(1), _linear(1e-310), _piece([0, 0.5], [1])]},
            None,
            "the reciprocal weight 1/w of c1 is beyond the float range",
        ),
        # a functional and a point of witness_int past the float range
        (
            [1, 1e-10, 0.5],
            {"kind": "weighted_intersection", "gamma": ["c2"], "w": [0.3, 1.7e308, 1e-309], "v": [1e308, 1e-300, 1e10]},
            "the reciprocal weight 1/w of c2 is beyond the float range",
            "the functional's value on A is beyond the float range",
        ),
        (
            [0.5, 2],
            {"kind": "weighted_intersection", "gamma": ["c0", "c1"], "w": [5e-309, 1e-150], "v": [1e-320, 1e150]},
            _RECIPROCAL_V,
            "the point's value on A is beyond the float range",
        ),
    ],
)
def test_values_beyond_the_float_range_are_named(tmp_path, masses, space, refused, explanation):
    path = write(tmp_path / "c.json", {"grid": {"weights": masses}, "space": space, "x": [1] * len(masses)})
    rc, out, err = _op(path, "classify")
    assert (rc, err) == (EXIT_OK, "")
    res = json.loads(out)["results"]
    assert (res["verdict"], res["witness"], res["explanation"]) == ("not-daugavet", None, explanation)
    if refused is not None:  # a weighted spec: its dual spec is refused
        for command in ("norm", "conjugate"):
            assert _op(path, command) == (EXIT_PRECONDITION, "", f"precondition failure: {refused}\n")


def test_sums_past_dbl_max_are_inf(tmp_path):
    # the masses of the structure record pass DBL_MAX
    cfg = {"grid": {"weights": [1e308, 1e308]}, "space": {"kind": "orlicz", "curve": _linear(1)}}
    rc, out, _ = _op(write(tmp_path / "c.json", cfg), "classify")
    res = json.loads(out)["results"]
    assert (rc, res["verdict"], res["canonical_form"]) == (EXIT_OK, "daugavet", "weighted-L1")
    assert res["evidence"]["mass_omega_1"] == "inf"
    # each modular term is 1.69e308: the modular is inf, the norms finite
    cfg = {"grid": {"weights": [1, 1, 1]}, "space": {"kind": "orlicz", "curve": {"family": "power", "p": 2}}}
    rc, out, _ = _op(write(tmp_path / "c.json", dict(cfg, x=[1.3e154] * 3)), "norm")
    res = json.loads(out)["results"]
    assert (rc, res["modular"]) == (EXIT_OK, "inf")
    assert 0.0 < res["luxemburg"] <= res["amemiya"] < math.inf
    # the modular at the domain ends of the two bounded cells passes DBL_MAX
    big = _piece([0, 1e300], [1e8])
    space = {"kind": "musielak", "curves": [_piece([0, 1, 2], [1, 2]), big, big]}
    path = write(tmp_path / "c.json", {"grid": {"weights": [0.01, 1.5, 1.5]}, "space": space, "samples": 200})
    rc, out, _ = _op(path, "classify")
    res = json.loads(out)["results"]
    assert (rc, res["verdict"], res["evidence"]["modular_at_bounds"]) == (EXIT_OK, "not-daugavet", "inf")
    assert res["witness"]["construction"]["mode"] == "bounded-top-up"
    (tmp_path / "cert.json").write_text(out)
    rc, out, _ = _op(path, "verify", "--certificate", str(tmp_path / "cert.json"))
    assert (rc, json.loads(out)["results"]["verdict"]) == (EXIT_OK, "pass")


_FUZZ_WEIGHTS = (1e-320, 1e-309, 5e-309, 1e-300, 1e-150, 1e-10, 0.3, 1, 3, 1e10, 1e150, 1e300, 1e308, 1.7e308)
_FUZZ_MASSES = (1e-300, 1e-10, 0.5, 1, 2, 1e10, 1e300)


def test_weighted_specs_at_the_float_range_keep_the_exit_contract(tmp_path):
    rng = random.Random(20261020)
    path = tmp_path / "c.json"
    seen = set()
    for _ in range(1500):
        n = rng.randint(1, 4)
        ids = [f"c{i}" for i in range(n)]
        space = {
            "kind": rng.choice(("weighted_sum", "weighted_intersection")),
            "gamma": rng.sample(ids, rng.randint(1, n)),
            "w": [rng.choice(_FUZZ_WEIGHTS) for _ in ids],
            "v": [rng.choice(_FUZZ_WEIGHTS) for _ in ids],
        }
        x = [rng.choice((-1.0, 0.5, 1.0, 3.0)) for _ in ids]
        cfg = {"grid": {"weights": [rng.choice(_FUZZ_MASSES) for _ in ids]}, "space": space, "x": x, "samples": 20}
        path.write_text(json.dumps(cfg))
        for command in ("norm", "classify", "conjugate"):
            rc, out, err = _op(path, command)
            text = err or json.loads(out)["results"].get("explanation") or ""
            assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_PRECONDITION), (cfg, command, err)
            assert (err == "") == (rc == EXIT_OK) and err.count("\n") == (rc != EXIT_OK), (cfg, command, err)
            assert "must be positive finite, got inf" not in text, (cfg, command)
            assert not (command == "classify" and "step function values must be finite" in err), cfg
            if "reciprocal weight" in text:
                seen.add(command)
    assert seen == {"norm", "classify", "conjugate"}  # the refusal is reached by every command


def _counted_property(monkeypatch, name):
    """The specs whose cached ``name`` is worked out from now on, one entry per computation."""
    prop = interpolation._WeightedSpec.__dict__[name]
    seen = []
    counted = functools.cached_property(lambda spec: seen.append(type(spec).__name__) or prop.func(spec))
    counted.__set_name__(interpolation._WeightedSpec, name)
    monkeypatch.setattr(interpolation._WeightedSpec, name, counted)
    return seen


@pytest.mark.parametrize("cfg, kind", [(SUM_CFG, "SumSpaceSpec"), (INT_CFG, "IntSpaceSpec")])
def test_a_weighted_op_works_out_its_dual_and_evidence_once(tmp_path, monkeypatch, cfg, kind):
    path = write(tmp_path / "c.json", cfg)
    built, validate = [], interpolation._validate_spec
    monkeypatch.setattr(interpolation, "_validate_spec", lambda s: built.append(type(s).__name__) or validate(s))
    duals, evidence = _counted_property(monkeypatch, "dual"), _counted_property(monkeypatch, "evidence")
    rc, out, _ = _op(path, "classify")
    assert rc == EXIT_OK and json.loads(out)["results"]["witness"] is not None
    dual = {"SumSpaceSpec": "IntSpaceSpec", "IntSpaceSpec": "SumSpaceSpec"}[kind]
    # the config's spec and its dual are each built once, and the evidence read twice is worked out once
    assert (built, duals, evidence) == ([kind, dual], [kind], [kind])
    (tmp_path / "cert.json").write_text(out)
    del built[:], duals[:], evidence[:]
    rc, out, _ = _op(path, "verify", "--certificate", str(tmp_path / "cert.json"))
    assert (rc, json.loads(out)["results"]["verdict"]) == (EXIT_OK, "pass")
    assert (built, duals, evidence) == ([kind, dual], [kind], [])


def test_a_package_error_of_any_kind_exits_3(tmp_path, monkeypatch):
    def unconverged(*args, **kwargs):
        raise MospacesError("gauge solver did not converge")

    monkeypatch.setattr(cli, "luxemburg_norm", unconverged)
    assert _op(write(tmp_path / "c.json", BASE), "norm") == (
        EXIT_PRECONDITION, "", "precondition failure: gauge solver did not converge\n"
    )


def test_a_sum_norm_ignores_a_candidate_past_dbl_max(tmp_path):
    # the candidate c = 0 sums to 2e308; c = 1 gives the norm, 1
    space = {"kind": "weighted_sum", "v": [1e308, 1e308], "w": [1, 1]}
    path = write(tmp_path / "c.json", {"grid": {"weights": [1, 1]}, "space": space, "x": [1, 1]})
    rc, out, err = _op(path, "norm")
    res = json.loads(out)["results"]
    assert (rc, err, res["sum_norm"], res["dual_norm"]) == (EXIT_OK, "", 1.0, 2.0)


_ROUGH = {"type": "roughness", "x": [1, 1, 1], "scales": [1e308]}
_PW_CURVE = {"family": "piecewise", "breakpoints": [0, 1, "inf"], "slopes": [0, 2]}


@pytest.mark.parametrize(
    "cfg, code, err",
    [
        ({"grid": {"weights": [1, 0.5, 2]},
          "space": {"kind": "musielak", "curves": [{"family": "power", "p": 2}, _linear(1), _PW_CURVE]},
          "probes": [_ROUGH]},
         EXIT_PRECONDITION, "precondition failure: step function values must be finite, got inf\n"),
        ({"grid": {"weights": [1, 1, 2]},
          "space": {"kind": "weighted_intersection", "gamma": ["c0"], "v": [1, 2, 1], "w": [0.5, 1, 0.3]},
          "probes": [_ROUGH]},
         EXIT_OK, ""),
        ({"grid": {"weights": [0.5, 1, 1]},
          "space": {"kind": "weighted_sum", "v": [0.5, 5e-324, 1e-300], "w": [0.5, 5e-324, 5e-324]},
          "probes": [dict(_ROUGH, x=[1e300, -1e200, 1e-300])]},
         EXIT_PRECONDITION, "precondition failure: step function values must be finite, got nan\n"),
    ],
    ids=["gauge-steps-overflow", "intersection-quotient-overflows", "sum-unit-rows-overflow"],
)
def test_a_probe_past_the_float_range_prints_no_numpy_warning(tmp_path, cfg, code, err):
    # pytest turns a RuntimeWarning into an error; the probes' finite() check and the cap at 2 decide
    rc, out, got = _op(write(tmp_path / "c.json", cfg), "probe")
    assert (rc, got) == (code, err)
    if rc == EXIT_OK:
        assert json.loads(out)["results"]["probes"][0]["roughness_lower_bound"] == 2.0


_GRID3 = {"weights": [1.0, 1.0, 1.0]}
_SUM3 = {"grid": _GRID3, "space": {"kind": "weighted_sum", "v": [1.0] * 3, "w": [1.0] * 3}}
_INT3 = {"grid": _GRID3, "space": {"kind": "weighted_intersection", "w": [1.0] * 3, "v": [1.0] * 3}}
_GAUGE3 = {"grid": _GRID3, "space": {"kind": "nakano", "exponents": [2, 2, 2]}}


@pytest.mark.parametrize(
    "cfg, witness, line",
    [
        (_SUM3, _INT_WITNESS, "intersection-case certificates need a weighted_intersection or gauge-norm space"),
        (_GAUGE3, _SUM_WITNESS, "sum-case certificates need a weighted_sum space"),
        (_INT3, _SUM_WITNESS, "sum-case certificates need a weighted_sum space"),
    ],
    ids=["intersection-on-sum", "sum-on-gauge", "sum-on-intersection"],
)
def test_a_certificate_of_the_wrong_kind_names_the_kind_it_needs(tmp_path, cfg, witness, line):
    # the certificate's grid is the config's: only the kind of space is wrong
    path = write(tmp_path / "c.json", cfg)
    cert = write(tmp_path / "cert.json", _certificate(cfg, {"witness": witness}))
    assert _op(path, "verify", "--certificate", cert) == (EXIT_PRECONDITION, "", f"precondition failure: {line}\n")


def test_the_benchmark_cross_checks_a_gauge_norm_through_parse_space(tmp_path, monkeypatch):
    # the benchmark's sup oracle reads parse_space(body).grid and .field for every
    # norm op of at most 512 cells; loaded as perfbench/test_perfbench.py loads it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import checks
    import run
    import workloads

    from mospaces import grid, musielak

    wl = workloads.generate("gauge-large", 3)
    op = next(op for op in wl.ops if op.command == "norm" and wl.configs[op.cid].n == 512)
    cfg = wl.configs[op.cid]
    (tmp_path / f"{cfg.cid}.json").write_text(json.dumps(cfg.body))
    rc, out, err = _op(tmp_path / f"{cfg.cid}.json", "norm")
    assert (rc, err) == (EXIT_OK, "")
    value = run.sup_oracle(cli, musielak, grid)(cfg.body, json.loads(out)["results"]["x"])
    assert checks.check_report("norm", out, cfg.expect, value) == []

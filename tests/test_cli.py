import contextlib
import hashlib
import io
import json
import math
import re
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mospaces import ConfigError, classify, witness_int, witness_sum
from mospaces.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VERIFICATION,
    MAX_CELLS,
    MAX_SAMPLES,
    _load_object,
    _witness_from_json,
    _witness_to_json,
    build_parser,
    canonical_json,
    config_hash,
    curve_to_json,
    jsonify,
    main,
    num,
    parse_curve,
    parse_space,
    parse_x,
)
from mospaces.musielak import orlicz_norm_sup_oracle

from helpers import knot_values_reference, piecewise_reference


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
    for spec in specs:
        crv = parse_curve(spec)
        again = parse_curve(jsonify(curve_to_json(crv)))
        assert again == crv


def test_canonical_json_is_order_insensitive():
    a = {"x": 1, "y": [2, 3]}
    b = {"y": [2, 3], "x": 1}
    assert canonical_json(a) == canonical_json(b)


def test_config_round_trip_up_to_canonical_ordering():
    from mospaces.cli import parse_space, space_to_json

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
        echoed = space_to_json(parse_space(cfg))
        assert canonical_json(echoed) == canonical_json(cfg)


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
            assert _witness_from_json(jsonify(_witness_to_json(wit)), space) == wit


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

    # nesting too deep for json.load, and a NaN too deep for the hash's encoders
    deep = tmp_path / "deep.json"
    deep.write_text('{"a": ' + "[" * 5000 + "]" * 5000 + "}")
    assert one_line_config_error(["norm", "--config", str(deep)])
    nested = math.nan
    for _ in range(500):
        nested = [nested]
    assert one_line_config_error(["norm", "--config", write(tmp_path / "nan.json", dict(BASE, a=nested))])

    no_grid = {"type": "sum-case", "x": [1.0, 0.0], "functional": [1.0, 0.0], "epsilon": 0.5}
    for results in ({"witness": {"type": "nonsquare"}}, 5, {"witness": [1]}, {"witness": no_grid}):
        body = {"config_hash": config_hash(BASE), "results": results}
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


def test_verify_rejects_intersection_constants_naming_no_cells(tmp_path, capsys):
    cfg = {
        "grid": {"cells": 2, "weight_seed": 0},
        "space": {"kind": "weighted_intersection", "v": [1.0, 1.0], "w": [1.0, 1.0]},
    }
    path = write(tmp_path / "c.json", cfg)
    cert = tmp_path / "cert.json"
    assert main(["classify", "--config", path, "--out", str(cert)]) == EXIT_OK
    report = json.loads(cert.read_text())
    assert report["results"]["witness"]["type"] == "intersection-case"
    for constants in ({}, {"set_a1": 5}, {"set_a1": ["nope"]}, {"case": "gamma-proper"}):
        report["results"]["witness"]["constants"] = constants
        hostile = write(tmp_path / "hostile.json", report)
        capsys.readouterr()
        assert main(["verify", "--config", path, "--certificate", hostile]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err


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
            "v": [1e300, 3e307, 1e300, 3e307],
        },
        "samples": 50,
    }
    capsys.readouterr()
    assert main(["classify", "--config", write(tmp_path / "c.json", cfg)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == "precondition failure: intermediate overflow in fsum\n"


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


# -- bulk hashing and parsing against their per-token references -----------------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["inf", "-inf", "NaN", "1.5", ""]),
)
_STR_KEYS = st.sampled_from(["a", "b", "inf", "1", "9", "10", "True", "null"])
# as json.load gives it back: Infinity and NaN literals become non-finite floats
_LOADED = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_STR_KEYS, kids, max_size=4),
    max_leaves=16,
).map(lambda obj: json.loads(json.dumps(obj)))


def _outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # compared, never swallowed: a mismatch fails the test
        return type(exc).__name__, str(exc)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_LOADED)
def test_config_hash_is_the_sha256_of_the_canonical_json(cfg):
    want = _outcome(lambda c: hashlib.sha256(canonical_json(c).encode()).hexdigest(), cfg)
    assert _outcome(config_hash, cfg) == want


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
        space = {"kind": kind, "curves": slot("entries", st.just(curves))}
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
    raise _CpuLimit(f"main spent {_CPU_LIMIT_S} s of CPU time")


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    handler = signal.signal(signal.SIGPROF, _spent)
    timer = signal.setitimer(signal.ITIMER_PROF, _CPU_LIMIT_S)
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

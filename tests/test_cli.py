import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mospaces.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VERIFICATION,
    canonical_json,
    config_hash,
    curve_to_json,
    jsonify,
    main,
    num,
    parse_curve,
)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "mospaces.cli", *args],
        capture_output=True,
        text=True,
    )


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


BASE = {
    "grid": {"weights": [1.0, 1.0]},
    "space": {"kind": "nakano", "exponents": [2, 2]},
    "x": [1.0, 0.0],
    "seed": 5,
    "samples": 300,
    "tol": 1e-10,
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

    for probes in ([{"type": "roughness"}], [["roughness", [1.0, 0.0]]], 5):
        probe_cfg = write(tmp_path / "probe.json", dict(BASE, probes=probes))
        assert one_line_config_error(["probe", "--config", probe_cfg])

    no_grid = {"type": "sum-case", "x": [1.0, 0.0], "functional": [1.0, 0.0], "epsilon": 0.5}
    for results in ({"witness": {"type": "nonsquare"}}, 5, {"witness": [1]}, {"witness": no_grid}):
        body = {"config_hash": config_hash(BASE), "results": results}
        cert = write(tmp_path / "hostile.json", body)
        assert one_line_config_error(["verify", "--config", cfg, "--certificate", cert])


def test_cli_entry_point_runs():
    proc = run_cli(["norm", "--config", "/does/not/exist.json"])
    assert proc.returncode == EXIT_CONFIG


# -- config fuzzing -------------------------------------------------------------

# values no config key expects; each example puts them into at most one slot
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "abc", "inf", "-inf"]),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "seed", "kind"]), st.integers(0, 3), max_size=2),
)
_POS = st.floats(0.25, 4.0)
_SLOTS = ("grid", "space", "entries", "curve", "x", "seed", "samples", "tol", "probes")


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


def _probe(n):
    eps = st.floats(0.01, 0.5)
    return st.one_of(
        st.builds(lambda x: {"type": "roughness", "x": x}, _vector(n)),
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


@st.composite
def _config(draw):
    """A config with valid values except, usually, in one slot."""
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
    cfg = {
        "grid": slot(
            "grid",
            st.one_of(
                st.builds(lambda w: {"weights": w}, weights),
                st.builds(lambda s: {"cells": n, "weight_seed": s}, st.integers(0, 9)),
            ),
        ),
        "space": slot("space", st.just(space)),
        "x": slot(
            "x",
            st.one_of(
                _vector(n),
                st.builds(lambda s, c: {"seed": s, "scale": c}, st.integers(0, 9), _POS),
            ),
        ),
        "samples": slot("samples", st.integers(0, 20)),
        "probes": slot("probes", st.lists(_probe(n), max_size=2)),
    }
    for key, valid in (("seed", st.integers(0, 99)), ("tol", st.floats(1e-12, 1e-3))):
        if broken == key or draw(st.booleans()):
            cfg[key] = slot(key, valid)
    return cfg


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_config(), st.sampled_from(["norm", "classify", "verify", "probe", "conjugate"]))
def test_fuzzed_configs_keep_the_exit_code_contract(cfg, command):
    """Any config exits 0, 2, 3 or 4 with at most one line on stderr.

    ``verify`` is handed the report of ``classify`` on the same config.
    """
    contract = (EXIT_OK, EXIT_CONFIG, EXIT_PRECONDITION, EXIT_VERIFICATION)
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "c.json", cfg)
        argv = [command, "--config", path]
        if command == "verify":
            cert = str(Path(tmp) / "cert.json")
            code, err = _run_in_process(["classify", "--config", path, "--out", cert])
            assert code in contract, err
            argv += ["--certificate", cert]
        code, err = _run_in_process(argv)
    assert code in contract, err
    assert err.count("\n") <= 1 and "Traceback" not in err, err

"""Pinned bytes of the reports of every config route besides a Musielak ``norm``.

``test_norm_reports`` pins Musielak ``norm`` reports.  The configs here take
the other ways a config is read: a ``nakano`` exponent list with "inf"
tokens before its end (per-token number parsing), an ``orlicz`` curve, the
weighted sum and intersection specs, probes, the conjugate field, and a
config file written with an ``Infinity`` literal, which the config hash
encodes through ``jsonify``.  Each config is a literal, and the sha256 of
each report without its ``versions`` block is pinned.
"""

import json

import pytest

from test_norm_reports import _report_digest

WEIGHTS = [1.0, 0.5, 2.0, 1.5, 0.75, 1.25, 1.0, 0.5]
MIX = [
    {"family": "power", "p": 2.5},
    {"family": "piecewise", "breakpoints": [0.0, 0.4, 1.1, "inf"], "slopes": [0.2, 0.9, 1.7]},
    {"family": "linear", "slope": 1.3},
    {"family": "indicator", "bound": 0.8},
    {"family": "piecewise", "breakpoints": [0.0, 0.5, 1.9], "slopes": [0.3, 1.2]},
    {"family": "power", "p": 1.7},
    {"family": "piecewise", "breakpoints": [0.0, 0.6, 2.0], "slopes": [0.4, 1.1], "end_value": "inf"},
    {"family": "piecewise", "breakpoints": [0.0, 0.3, "inf"], "slopes": [0.0, 1.5]},
]
NAKANO = {
    "grid": {"weights": WEIGHTS},
    "space": {"kind": "nakano", "exponents": [2.5, 1, "inf", 3, 1.75, "inf", 2, 1]},
    "seed": 11,
    "samples": 300,
}
CONFIGS = {
    "nakano": NAKANO,
    "orlicz": {
        "grid": {"weights": WEIGHTS},
        "space": {"kind": "orlicz", "curve": {"family": "power", "p": 2.5}},
        "seed": 3,
        "samples": 300,
    },
    "weighted-sum": {
        "grid": {"weights": [1.0, 0.5, 2.0, 1.5]},
        "space": {"kind": "weighted_sum", "v": [0.6, 0.9, 0.5, 0.8], "w": [1.5, 2.0, 1.2, 2.5]},
        "seed": 5,
        "samples": 200,
    },
    "weighted-intersection": {
        "grid": {"weights": [1.0, 0.5, 2.0, 1.5]},
        "space": {
            "kind": "weighted_intersection",
            "gamma": ["c0", "c2"],
            "w": [0.4, 0.8, 0.3, 0.6],
            "v": [1.2, 1.0, 1.5, 2.1],
        },
        "seed": 7,
        "samples": 200,
    },
    "musielak": {
        "grid": {"weights": WEIGHTS},
        "space": {"kind": "musielak", "curves": MIX},
        "probes": [
            {"type": "roughness", "x": [0.3, -0.1, 0.2, 0.05, -0.4, 0.1, 0.2, -0.3]},
            {
                "type": "daugavet_condition",
                "x": [0.3, -0.1, 0.2, 0.05, -0.4, 0.1, 0.2, -0.3],
                "functional": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                "eps": 0.5,
            },
        ],
        "x": [0.3, -0.1, 0.2, 0.05, -0.4, 0.1, 0.2, -0.3],
        "seed": 13,
        "samples": 40,
    },
}

# (command, config): sha256 of the report without "versions"
PINNED = {
    ("classify", "nakano"):
        "c3288b38ae0df86c2e6a8a288f672c13fec0ea09c8b82f71aa8b9a0a1e879b23",
    ("verify", "nakano"):
        "5886c36d8f4855e362fccc14a33444a31622d09a4ebced99b7e72148c470ffe8",
    ("classify", "orlicz"):
        "185bc85edf2b5cd11624ef34dacf9a881c4ad3e9ea0ebe9b086e671a21d922c6",
    ("classify", "weighted-sum"):
        "67864b724ed8854f381874151928d8b7938dfb55f8aad23a99d39a23c0a7de16",
    ("classify", "weighted-intersection"):
        "a3ce832cef71b325267754596197261ae621efd9339b7c0ce19e342d908dd73b",
    ("probe", "musielak"):
        "4376d0cf3c505f323592104454ef76ad7ea1b89ce9ab69d1449c475d1c307df7",
    ("conjugate", "musielak"):
        "804abac74ec8eaab128117f34b6053e61d371df034155c2a4c8feb4d4603747c",
}
# a tol written as the non-standard literal Infinity, which json.load reads as inf
INFINITY_NORM = "818bb9da80f10e4ad867424198c5f0394cb84219bdd34d80eb62d6fe99acb9bf"


@pytest.mark.parametrize("command, name", sorted(PINNED))
def test_route_reports_keep_their_pinned_bytes(tmp_path, command, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIGS[name]))
    args = []
    if command == "verify":
        cert = tmp_path / "cert.json"
        assert _report_digest(path, "classify", ["--out", str(cert)]) is None
        args = ["--certificate", str(cert), "--seed", "17"]
    assert _report_digest(path, command, args) == PINNED[command, name]


def test_a_config_with_an_infinity_literal_keeps_its_pinned_report(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIGS["musielak"], tol=float("inf"))))
    assert "Infinity" in path.read_text()
    assert _report_digest(path, "norm") == INFINITY_NORM

"""Pinned bytes of the reports of every config route besides a Musielak ``norm``.

``test_norm_reports`` pins Musielak ``norm`` reports.  The configs here take
the other ways a config is read: a ``nakano`` exponent list with "inf"
tokens before its end (per-token number parsing), an ``orlicz`` curve, the
weighted sum and intersection specs, probes on a Musielak field and on both
weighted specs (all three probe types), the conjugate field, and a
config file written with an ``Infinity`` literal, which the config hash
encodes through ``jsonify``.  Each config is a literal or comes from a
fixed-seed generator, and the sha256 of each report without its
``versions`` block is pinned.  The two n = 64 interpolation configs draw
600 slice samples each, so their ``classify`` and ``verify`` reports pin
the slice sampler's records.
"""

import json
import random

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


def _r(x):
    return round(x, 4)


def _sum_64():
    """A weighted sum space at n = 64 whose v/w integral lies in (1.5, 4]: a sum certificate."""
    rng = random.Random("pinned-route/sum-64")
    mass = [_r(rng.uniform(0.5, 2.0)) for _ in range(64)]
    w = [_r(rng.uniform(1.0, 3.0)) for _ in range(64)]
    target = rng.uniform(1.5, 4.0) / 64
    v = [_r(target * w[i] / mass[i] * rng.uniform(0.8, 1.2)) for i in range(64)]
    return {
        "grid": {"weights": mass},
        "space": {"kind": "weighted_sum", "v": v, "w": w},
        "seed": 19,
        "samples": 600,
    }


def _int_proper_64():
    """An intersection space at n = 64 with gamma half the grid: a gamma-proper certificate."""
    rng = random.Random("pinned-route/int-proper-64")
    mass = [_r(rng.uniform(0.5, 2.0)) for _ in range(64)]
    gamma = sorted(rng.sample(range(64), 32))
    w = [_r(rng.uniform(0.2, 1.0)) for _ in range(64)]
    v = [_r(rng.uniform(1.0, 3.0) * w[i] * mass[i]) for i in range(64)]
    return {
        "grid": {"weights": mass},
        "space": {
            "kind": "weighted_intersection",
            "gamma": [f"c{i}" for i in gamma],
            "w": w,
            "v": v,
        },
        "seed": 23,
        "samples": 600,
    }


CONFIGS = {
    "sum-64": _sum_64(),
    "int-proper-64": _int_proper_64(),
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
    # the roughness quotient here reached 2.0000000000000018 before the cap at 2
    "weighted-intersection-probes": {
        "grid": {"weights": [1.0, 0.5, 2.0]},
        "space": {"kind": "weighted_intersection", "v": [1.0, 2.0, 0.5], "w": [1.0, 1.0, 2.0]},
        "probes": [
            {"type": "roughness", "x": [1, 0, 0]},
            {"type": "slice_diameter", "functional": [1.0, 0.5, 0.0], "eps": 0.3},
            {"type": "daugavet_condition", "x": [0.2, -1.0, 0.5], "functional": [0.0, 1.0, 0.0], "eps": 0.5},
        ],
        "samples": 200,
        "seed": 3,
    },
    "weighted-sum-probes": {
        "grid": {"weights": [1.0, 0.5, 2.0, 1.5]},
        "space": {"kind": "weighted_sum", "v": [0.6, 0.9, 0.5, 0.8], "w": [1.5, 2.0, 1.2, 2.5]},
        "probes": [
            {"type": "roughness", "x": [0.3, -0.1, 0.2, 0.05], "scales": [0.5, 0.05]},
            {"type": "slice_diameter", "functional": [1.0, 0.0, -0.5, 0.2], "eps": 0.3},
            {
                "type": "daugavet_condition",
                "x": [0.3, -0.1, 0.2, 0.05],
                "functional": [0.0, 1.0, 0.0, 0.0],
                "eps": 0.5,
            },
        ],
        "samples": 200,
        "seed": 5,
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
    ("classify", "sum-64"):
        "47a404f15c2a9051738f635049ea334c3fcac04a45a5befb9167825d96ac09f3",
    ("verify", "sum-64"):
        "283d6af0b1ce6fb39f3c6c3ef79dddef9296fe2bad1184260c800f33aad386ad",
    ("classify", "int-proper-64"):
        "c514d37673ff705529f5df548432397071586da2cee36212da3c884b792087d7",
    ("verify", "int-proper-64"):
        "54277a8bc70248883931b2453c9655ec1b7ec6701239ac732acb5657c1692143",
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
    ("probe", "weighted-intersection-probes"):
        "146c42439a7e15971f5efa68f7c4f04f76b4bf4d13b92f761f140ac637203c5b",
    ("probe", "weighted-sum-probes"):
        "855152d01b185c048e3520a9c903e12b9164f7fd4cc8c4abb0be72ffe8ab052c",
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

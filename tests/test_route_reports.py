"""Pinned bytes of the reports of every config route besides a Musielak ``norm``.

``test_norm_reports`` pins Musielak ``norm`` reports.  The configs here take
the other ways a config is read: a ``nakano`` exponent list with "inf"
tokens before its end (per-token number parsing), an ``orlicz`` curve, the
weighted sum and intersection specs, probes on a Musielak field and on both
weighted specs (all three probe types), the conjugate field, and a
config file written with an ``Infinity`` literal, which the config hash
takes as the float inf, not as an "inf" token.  Each config is a literal
or comes from a fixed-seed generator, and the sha256 of each report
without its ``versions`` block is pinned.  The two n = 64 interpolation configs draw
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
        "7bdfaf9d0ba5306a73626ea1557b64377d57db0493b4f0add1642fd6d804c587",
    ("verify", "sum-64"):
        "e3574ac527e806673e286b0b8e2a5e1472f42f2dc69078cf3a5440ecf1587aed",
    ("classify", "int-proper-64"):
        "e93ed4231889b2cec57bb369c24648a8576f28423f899a0875e72b378b9b3f95",
    ("verify", "int-proper-64"):
        "594708691ecb6014a160207d6a0b46baf76b166860626fcace26fa9ddb09bf72",
    ("classify", "nakano"):
        "aeaf9e0f7526bc289b5780351bc69de50d9d39f65d5c27cf42638849aab15705",
    ("verify", "nakano"):
        "4cb09beed79267533833514b1ed85ab5a98c6147183fdff2be87e60e65f0a230",
    ("classify", "orlicz"):
        "55f5205cf7997c155178f531f8dd8c6c772d60da5b5374e38c8f905e974175aa",
    ("classify", "weighted-sum"):
        "ab5bfb0f0b1e74c5d0ef5094ad5b41665407e17cc9ac26f484c0a8c5aec5c28b",
    ("classify", "weighted-intersection"):
        "bd84393f22406c35769ca2a5acf0f2b9c956a1ece2c5af6aca6f7ad4e091b657",
    ("probe", "weighted-intersection-probes"):
        "6cba60b5d0c72feeb6ae78bcfb6f0b362b1e95ce00166788b068c8c47677b0d4",
    ("probe", "weighted-sum-probes"):
        "2392988058eeda1826d0075ef7ef8915aeede73d4bd830bdd58a86ced346cd46",
    ("probe", "musielak"):
        "4fe3cf7bc62ef6ed15de742a0f8aa2fbe99402eda2cc2af7aa8b8eea8a017026",
    ("conjugate", "musielak"):
        "432625b20953a521f7099b4822d4b523ea9756e9c31b714f9e52b86e2a9bf6b8",
}
# a tol written as the non-standard literal Infinity, which json.load reads as inf
INFINITY_NORM = "305d5eeda068e22466eb25e3ec583022ce75764ae85197886e0e4f1af67537dd"


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

"""Seeded workload generator for the mospaces benchmark.

A workload is one cycle of CLI operations ("ops") over generated configs.
The seed is the only input: the same seed gives byte-identical configs and
the same op list.  Every config carries the outcome its construction
implies (verdict, canonical form, witness kind and construction mode), so
the checker can judge a report without recomputing it with the program.

The program only ever sees the generated JSON configs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DAUGAVET = "daugavet"
NOT_DAUGAVET = "not-daugavet"


@dataclass(frozen=True)
class Config:
    cid: str  # unique within a workload, used for file names
    cls: str  # config class; the re-run check takes one op per class
    n: int
    body: dict  # the JSON config handed to the CLI
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    command: str  # norm, classify, verify or probe
    cid: str
    seed: int | None = None  # --seed override; verify uses a fresh seed

    @property
    def key(self) -> str:
        return f"{self.command}:{self.cid}"


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict  # cid -> Config
    ops: tuple  # one cycle, interleaved so that every prefix mixes classes
    warmup: str  # cid of a small fixed-class config; its first op is the warm-up

    @property
    def warmup_index(self) -> int:
        return next(
            i for i, op in enumerate(self.ops) if op.cid == self.warmup and op.command != "verify"
        )


# --------------------------------------------------------------------------
# curves and grids in the JSON form the CLI reads


def _r(x: float, digits: int = 4) -> float:
    return round(x, digits)


def _weights(rng: random.Random, n: int, lo: float, hi: float) -> list:
    return [_r(rng.uniform(lo, hi)) for _ in range(n)]


def _power(rng: random.Random) -> dict:
    return {"family": "power", "p": _r(rng.uniform(1.4, 3.5), 3)}


def _linear(rng: random.Random) -> dict:
    return {"family": "linear", "slope": _r(rng.uniform(0.5, 2.0))}


def _indicator(rng: random.Random) -> dict:
    return {"family": "indicator", "bound": _r(rng.uniform(0.5, 2.0))}


def _increasing(rng: random.Random, k: int, start: float, lo: float, hi: float) -> list:
    out, t = [], start
    for _ in range(k):
        t = _r(t + rng.uniform(lo, hi))
        out.append(t)
    return out


def _pwl_unbounded(rng: random.Random, knots: int) -> dict:
    """Convex PWL curve on [0, inf) with ``knots`` finite interior knots."""
    cuts = _increasing(rng, knots, 0.0, 0.1, 0.6)
    first = 0.0 if rng.random() < 0.3 else _r(rng.uniform(0.05, 0.5))
    slopes = [first] + _increasing(rng, knots, first, 0.2, 1.0)
    return {"family": "piecewise", "breakpoints": [0.0] + cuts + ["inf"], "slopes": slopes}


def _pwl_bounded(rng: random.Random, segments: int, end: float) -> dict:
    """Convex PWL curve closed at its finite domain end ``end``."""
    cuts = sorted(_r(rng.uniform(0.05, 0.6) * end) for _ in range(segments - 1))
    cuts = [c for i, c in enumerate(cuts) if i == 0 or c > cuts[i - 1]]
    first = 0.0 if rng.random() < 0.3 else _r(rng.uniform(0.05, 0.5))
    slopes = [first] + _increasing(rng, len(cuts), first, 0.2, 1.0)
    return {"family": "piecewise", "breakpoints": [0.0] + cuts + [end], "slopes": slopes}


def _values(rng: random.Random, n: int) -> list:
    return [_r(rng.gauss(0.0, 1.0)) for _ in range(n)]


def _atom_functional(rng: random.Random, n: int) -> list:
    """Functional concentrated on one cell.

    In a lattice norm it norms the atom of that cell, so the slice it cuts
    always holds the aligned atom candidate: the probe never comes back empty.
    """
    f = [0.0] * n
    f[rng.randrange(n)] = rng.choice([1.0, -1.0])
    return f


# --------------------------------------------------------------------------
# gauge-small: gauge spaces with a genuinely convex cell, n in {8, 16, 32}


def _nonsquare(mode: str) -> dict:
    return {"verdict": NOT_DAUGAVET, "canonical_form": None, "witness": "nonsquare", "mode": mode}


def _gs_orlicz_power(rng, n):
    body = {"space": {"kind": "orlicz", "curve": _power(rng)}}
    return body, _nonsquare("flat-top-up")


# The cell pattern of each class is fixed; the seed draws the numbers.  Cell
# order matters to the cost (the modular stops at the first infinite term),
# so fixing it keeps the work of a class the same from seed to seed.


def _gs_nakano_top_up(rng, n):
    exps = [_r(rng.uniform(1.4, 3.5), 3) for _ in range(n)]
    for i in range(3, n, 8):
        exps[i] = 1  # linear cell: the top-up block
    for i in range(7, n, 8):
        exps[i] = "inf"
    return {"space": {"kind": "nakano", "exponents": exps}}, _nonsquare("flat-top-up")


def _gs_nakano_exact_fill(rng, n):
    exps = ["inf"] * n
    exps[n // 2] = _r(rng.uniform(1.4, 3.5), 3)  # the one convex, unbounded cell
    return {"space": {"kind": "nakano", "exponents": exps}}, _nonsquare("exact-fill")


def _gs_musielak_mix(rng, n):
    curves = []
    for i in range(n):
        kind = i % 5
        if kind == 0:
            curves.append(_power(rng))
        elif kind == 1:
            curves.append(_pwl_unbounded(rng, rng.randint(1, 3)))
        elif kind == 2:
            curves.append(_linear(rng))
        elif kind == 3:
            curves.append(_indicator(rng))
        else:
            curves.append(_pwl_bounded(rng, rng.randint(2, 3), _r(rng.uniform(1.5, 2.5))))
    return {"space": {"kind": "musielak", "curves": curves}}, _nonsquare("flat-top-up")


def _gs_musielak_bounded(rng, n):
    """Every domain bounded: the witness tops up with scaled domain ends."""
    curves = []
    for i in range(n):
        if i % 4 == 3:
            curves.append(_indicator(rng))
        else:
            curves.append(_pwl_bounded(rng, rng.randint(2, 3), _r(rng.uniform(1.5, 2.5))))
    return {"space": {"kind": "musielak", "curves": curves}}, _nonsquare("bounded-top-up")


_GAUGE_SMALL = (
    ("orlicz-power", _gs_orlicz_power),
    ("nakano-top-up", _gs_nakano_top_up),
    ("nakano-exact-fill", _gs_nakano_exact_fill),
    ("musielak-mix", _gs_musielak_mix),
    ("musielak-bounded", _gs_musielak_bounded),
)


def gauge_small(seed: int) -> Workload:
    rng = random.Random(f"gauge-small/{seed}")
    configs, rounds = {}, []
    for n in (8, 16, 32):
        for cls, make in _GAUGE_SMALL:
            body, expect = make(rng, n)
            body["grid"] = {"weights": _weights(rng, n, 0.5, 2.0)}
            body["seed"] = rng.randrange(1, 10**6)
            body["samples"] = 300
            cid = f"{cls}-{n}"
            configs[cid] = Config(cid, cls, n, body, expect)
            rounds.append(
                [Op("classify", cid), Op("verify", cid, rng.randrange(1, 10**6))]
            )
    # probes at n <= 16 on the gauge fields built above; roughness tries
    # 200 directions (9 gauge solves each), which makes its n = 16 ops the
    # slowest of the cycle together with the n = 32 musielak ones
    for n in (8, 16):
        for kind, cls in (
            ("roughness", "musielak-mix"),
            ("roughness", "orlicz-power"),
            ("slice_diameter", "orlicz-power"),
            ("daugavet_condition", "nakano-top-up"),
        ):
            src = configs[f"{cls}-{n}"]
            probe = {"type": kind}
            if kind in ("roughness", "daugavet_condition"):
                probe["x"] = _values(rng, n)
            if kind in ("slice_diameter", "daugavet_condition"):
                probe["functional"] = _atom_functional(rng, n)
                probe["eps"] = 0.5
            body = {
                "grid": src.body["grid"],
                "space": src.body["space"],
                "probes": [probe],
                "seed": rng.randrange(1, 10**6),
                "samples": 200 if kind == "roughness" else 2 * n + 8,
            }
            cid = f"probe-{kind}-{cls}-{n}"
            configs[cid] = Config(cid, f"probe-{kind}", n, body, {"probe": kind})
            rounds.append([Op("probe", cid)])
    return Workload("gauge-small", configs, _interleave(rng, rounds), "nakano-exact-fill-8")


# --------------------------------------------------------------------------
# gauge-large: norm ops on large mixed fields


def _gl_field(rng, n, flavour):
    curves = []
    for _ in range(n):
        u = rng.random()
        if flavour == "asymptotically-linear":
            # only linear supports: Amemiya takes its doubling branch
            curves.append(_linear(rng) if u < 0.3 else _pwl_unbounded(rng, rng.randint(7, 15)))
        elif flavour == "bounded-domain":
            # bounded cells give Amemiya a finite k_sup edge
            if u < 0.4:
                curves.append(_pwl_bounded(rng, rng.randint(8, 16), _r(rng.uniform(4.0, 8.0))))
            elif u < 0.7:
                curves.append(_pwl_unbounded(rng, rng.randint(7, 15)))
            else:
                curves.append(_power(rng))
        else:  # power-mix: interior minimiser, unbounded domains
            if u < 0.4:
                curves.append(_power(rng))
            elif u < 0.8:
                curves.append(_pwl_unbounded(rng, rng.randint(7, 15)))
            else:
                curves.append(_linear(rng))
    return curves


def gauge_large(seed: int) -> Workload:
    rng = random.Random(f"gauge-large/{seed}")
    configs, rounds = {}, []
    # a fifth of the ops are n = 4096, so p90 falls inside that group and p50
    # inside the n = 512 group, not on the edge between two sizes
    plan = ((512, 6), (2048, 2), (4096, 2))
    for flavour in ("power-mix", "bounded-domain", "asymptotically-linear"):
        for n, count in plan:
            for k in range(count):
                cid = f"{flavour}-{n}-{k}"
                body = {
                    "grid": {"weights": _weights(rng, n, 0.5, 2.0)},
                    "space": {"kind": "musielak", "curves": _gl_field(rng, n, flavour)},
                    "x": {"seed": rng.randrange(1, 10**6), "scale": 0.5},
                    "tol": 1e-10,
                }
                configs[cid] = Config(cid, f"norm-{flavour}", n, body, {"norm": flavour})
                rounds.append([Op("norm", cid)])
    return Workload("gauge-large", configs, _interleave(rng, rounds), "power-mix-512-0")


# --------------------------------------------------------------------------
# slice-cert: weighted interpolation spaces and slice certificates


def _slice_cert_expect(kind: str) -> dict:
    return {"verdict": NOT_DAUGAVET, "canonical_form": None, "witness": kind}


def _sc_sum_cert(rng, n):
    # every cell contributes v/w * mass in (0, 0.5]; the total exceeds 1
    mass = _weights(rng, n, 0.5, 2.0)
    w = _weights(rng, n, 1.0, 3.0)
    target = rng.uniform(1.5, 4.0) / n
    v = [_r(min(target, 0.5) * w[i] / mass[i] * rng.uniform(0.8, 1.2)) for i in range(n)]
    body = {"grid": {"weights": mass}, "space": {"kind": "weighted_sum", "v": v, "w": w}}
    return body, _slice_cert_expect("sum-case")


def _sc_int_proper(rng, n):
    mass = _weights(rng, n, 0.5, 2.0)
    gamma = sorted(rng.sample(range(n), n // 2))
    w = _weights(rng, n, 0.2, 1.0)
    v = [_r(rng.uniform(1.0, 3.0) * w[i] * mass[i]) for i in range(n)]  # w/v*mass < 1
    body = {
        "grid": {"weights": mass},
        "space": {"kind": "weighted_intersection", "gamma": [f"c{i}" for i in gamma], "w": w, "v": v},
    }
    return body, _slice_cert_expect("intersection-case")


def _sc_int_full(rng, n):
    mass = _weights(rng, n, 0.5, 2.0)
    w = _weights(rng, n, 0.2, 1.0)
    target = rng.uniform(2.0, 4.0) / n  # each w/v*mass small, the total above 1
    v = [_r(w[i] * mass[i] / (target * rng.uniform(0.8, 1.2))) for i in range(n)]
    body = {"grid": {"weights": mass}, "space": {"kind": "weighted_intersection", "w": w, "v": v}}
    return body, _slice_cert_expect("intersection-case")


def _sc_component(rng, n):
    """Linear and linear-up-to-a-bound cells: a component certificate."""
    mass = _weights(rng, n, 0.5, 2.0)
    curves = []
    for i in range(n):
        if i % 2 == 0:
            curves.append(_linear(rng))
        else:
            end = _r(rng.uniform(0.5, 2.0))
            slope = _r(rng.uniform(0.2, 0.9) / (end * mass[i]))  # slope*b*mass < 1
            curves.append({"family": "piecewise", "breakpoints": [0.0, end], "slopes": [slope]})
    rng.shuffle(curves)
    body = {"grid": {"weights": mass}, "space": {"kind": "musielak", "curves": curves}}
    return body, _slice_cert_expect("intersection-case")


def _collapse(form: str) -> dict:
    return {"verdict": DAUGAVET, "canonical_form": form, "witness": None}


def _sc_collapse_l1(rng, n):
    mass = _weights(rng, n, 0.5, 2.0)
    w = _weights(rng, n, 1.0, 3.0)
    target = rng.uniform(0.3, 0.9) / n
    v = [_r(target * w[i] / mass[i]) for i in range(n)]
    body = {"grid": {"weights": mass}, "space": {"kind": "weighted_sum", "v": v, "w": w}}
    return body, _collapse("weighted-L1")


def _sc_collapse_linf(rng, n):
    mass = _weights(rng, n, 0.5, 2.0)
    w = _weights(rng, n, 0.2, 1.0)
    target = rng.uniform(0.3, 0.9) / n
    v = [_r(w[i] * mass[i] / target) for i in range(n)]
    body = {"grid": {"weights": mass}, "space": {"kind": "weighted_intersection", "w": w, "v": v}}
    return body, _collapse("weighted-Linf")


def _sc_collapse_oplus(rng, n):
    curves = [_linear(rng) if i % 2 else _indicator(rng) for i in range(n)]
    rng.shuffle(curves)
    body = {
        "grid": {"weights": _weights(rng, n, 0.5, 2.0)},
        "space": {"kind": "musielak", "curves": curves},
    }
    return body, _collapse("Linf-oplus-L1")


def _sc_collapse_intersection(rng, n):
    """Linear-up-to-a-bound cells with small total, plus blow-up indicator cells."""
    mass = _weights(rng, n, 0.5, 2.0)
    curves = []
    budget = rng.uniform(0.3, 0.9) / n
    for i in range(n):
        end = _r(rng.uniform(0.5, 2.0))
        if i % 3 == 2:
            curves.append(
                {"family": "piecewise", "breakpoints": [0.0, end], "slopes": [0.0], "end_value": "inf"}
            )
        else:
            curves.append(
                {
                    "family": "piecewise",
                    "breakpoints": [0.0, end],
                    "slopes": [_r(budget / (end * mass[i]), 6)],
                }
            )
    body = {"grid": {"weights": mass}, "space": {"kind": "musielak", "curves": curves}}
    return body, _collapse("intersection-collapse")


_SLICE_CERT = (
    ("sum-cert", _sc_sum_cert),
    ("int-proper", _sc_int_proper),
    ("int-full", _sc_int_full),
    ("musielak-component", _sc_component),
)

# one collapse config per canonical form, with its grid size
_COLLAPSE = (
    ("collapse-l1", _sc_collapse_l1, 16),
    ("collapse-linf", _sc_collapse_linf, 64),
    ("collapse-oplus", _sc_collapse_oplus, 256),
    ("collapse-intersection", _sc_collapse_intersection, 64),
)


# configs per class at each grid size: the n = 64 ops other than sum-cert
# are the middle third of the cycle's op times, so p50 falls inside them
# and not on the edge between two grid sizes
_SLICE_CERT_PLAN = ((16, 1), (64, 2), (256, 1))


def slice_cert(seed: int) -> Workload:
    rng = random.Random(f"slice-cert/{seed}")
    configs, rounds = {}, []

    def add(cid, cls, n, body, expect, ops):
        body["seed"] = rng.randrange(1, 10**6)
        body["samples"] = 200
        configs[cid] = Config(cid, cls, n, body, expect)
        rounds.append(
            [Op(c, cid, rng.randrange(1, 10**6) if c == "verify" else None) for c in ops]
        )

    for n, copies in _SLICE_CERT_PLAN:
        for k in range(copies):
            for cls, make in _SLICE_CERT:
                add(f"{cls}-{n}-{k}", cls, n, *make(rng, n), ("classify", "verify"))
    for cls, make, n in _COLLAPSE:  # a collapse returns without a witness to verify
        add(f"{cls}-{n}", cls, n, *make(rng, n), ("classify",))
    return Workload("slice-cert", configs, _interleave(rng, rounds), "sum-cert-16-0")


# --------------------------------------------------------------------------


def _interleave(rng: random.Random, rounds: list) -> tuple:
    """Shuffle the per-config op groups, keeping classify before its verify."""
    rng.shuffle(rounds)
    return tuple(op for group in rounds for op in group)


WORKLOADS = {
    "gauge-small": gauge_small,
    "gauge-large": gauge_large,
    "slice-cert": slice_cert,
}


def generate(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed)

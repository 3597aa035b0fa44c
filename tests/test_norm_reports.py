"""Pinned bytes of Musielak ``norm`` reports.

Each config below is fixed (a seeded generator, no program input), and the
sha256 of its ``norm`` report is pinned.  Any change to the bytes a
Musielak field's norm report prints (the parse, the modular, either norm
solver, the config hash or the encoding) fails here.  The ``versions``
block is left out of the digest, so a version bump alone changes nothing;
the test checks that the report without it re-encodes to the printed bytes.
"""

import contextlib
import hashlib
import io
import json
import math
import random

import pytest

from mospaces.cli import EXIT_OK, main


def _r(x, digits=4):
    return round(x, digits)


def _increasing(rng, k, start, lo, hi):
    out, t = [], start
    for _ in range(k):
        t = _r(t + rng.uniform(lo, hi))
        out.append(t)
    return out


def _power(rng):
    return {"family": "power", "p": _r(rng.uniform(1.4, 3.5), 3)}


def _linear(rng):
    return {"family": "linear", "slope": _r(rng.uniform(0.5, 2.0))}


def _indicator(rng):
    return {"family": "indicator", "bound": _r(rng.uniform(0.5, 2.0))}


def _unbounded(rng):
    knots = rng.randint(7, 15)
    cuts = _increasing(rng, knots, 0.0, 0.1, 0.6)
    first = 0.0 if rng.random() < 0.3 else _r(rng.uniform(0.05, 0.5))
    slopes = [first] + _increasing(rng, knots, first, 0.2, 1.0)
    return {"family": "piecewise", "breakpoints": [0.0] + cuts + ["inf"], "slopes": slopes}


def _bounded(rng, end_value=None):
    """A convex piecewise-linear curve on [0, end]; ``end_value`` "inf" blows up,
    "limit" writes the left limit out, None leaves it to the parser."""
    end = _r(rng.uniform(4.0, 8.0))
    cuts = sorted({_r(rng.uniform(0.05, 0.6) * end) for _ in range(rng.randint(7, 15))})
    first = 0.0 if rng.random() < 0.3 else _r(rng.uniform(0.05, 0.5))
    slopes = [first] + _increasing(rng, len(cuts), first, 0.2, 1.0)
    bp = [0.0] + cuts + [end]
    spec = {"family": "piecewise", "breakpoints": bp, "slopes": slopes}
    if end_value == "limit":
        spec["end_value"] = math.fsum(s * (u1 - u0) for s, u0, u1 in zip(slopes, bp, bp[1:]))
    elif end_value is not None:
        spec["end_value"] = end_value
    return spec


def _curves(rng, n, flavour):
    curves = []
    for _ in range(n):
        u = rng.random()
        if flavour == "asymptotically-linear":
            curves.append(_linear(rng) if u < 0.3 else _unbounded(rng))
        elif flavour == "power-mix":
            curves.append(_power(rng) if u < 0.4 else _unbounded(rng) if u < 0.8 else _linear(rng))
        elif flavour == "bounded-domain":
            curves.append(_bounded(rng) if u < 0.4 else _unbounded(rng) if u < 0.7 else _power(rng))
        elif flavour == "blow-up":
            curves.append(
                _bounded(rng, "inf") if u < 0.3 else _indicator(rng) if u < 0.5 else _power(rng)
            )
        else:  # end-value: every bounded cell writes its end value out
            curves.append(_bounded(rng, "limit") if u < 0.5 else _unbounded(rng))
    return curves


def _config(flavour, n=64):
    rng = random.Random(f"pinned-norm/{flavour}")
    return {
        "grid": {"weights": [_r(rng.uniform(0.5, 2.0)) for _ in range(n)]},
        "space": {"kind": "musielak", "curves": _curves(rng, n, flavour)},
        "x": {"seed": rng.randrange(1, 10**6), "scale": 0.5},
        "tol": 1e-10,
    }


# sha256 of each report without its "versions" block
PINNED = {
    "power-mix": "c817a9386798e5b1d6c2ca08ad16daed6cec9e3cadec79796929ac81daf44b4f",
    "bounded-domain": "d37121e7c3133a5848a583342b10e4d5a420b54e1120d3a0dc9c3d61493ae857",
    "asymptotically-linear": "678700e3fea007d304aaad4dfbad3afd57a3d5badda85fa5ead2ba2abf4ed99c",
    "blow-up": "adb07480ac0c23c439803e6489364c5bce50983e8b9b6643d5e43122a3ae1ba6",
    "end-value": "f850a02099a024c4c9320ac8c0ec2ef37be86789a43aa1ca3e4964f2166dd333",
}


def _report_digest(path, command="norm", args=()):
    """The digest of ``command``'s report on the config at ``path``; None
    when ``args`` send the report to a file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--config", str(path), *args]) == EXIT_OK
    text = out.getvalue()
    if "--out" in args:
        return None
    report = json.loads(text)
    versions = report.pop("versions")
    rest = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert json.dumps(dict(report, versions=versions), sort_keys=True, indent=2) + "\n" == text
    return hashlib.sha256(rest.encode()).hexdigest()


@pytest.mark.parametrize("flavour", sorted(PINNED))
def test_norm_reports_keep_their_pinned_bytes(tmp_path, flavour):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(flavour)))
    assert _report_digest(path) == PINNED[flavour]

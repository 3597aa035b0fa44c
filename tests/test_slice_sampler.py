"""The slice sampler against its plain row-block reference, and its exact row sums.

``interpolation._verify_slice`` settles atoms in closed form, builds a
row's deviation only once the row is accepted, takes exact L1 sums from a
TwoSum tree and sizes its random blocks from the acceptance ratio.  None
of that may show: on every input it returns ``verify_slice_reference``'s
record, or raises its error with the same type and message.
"""

import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mospaces import IntSpaceSpec, MeasureGrid, StepFunction, pairing, wint_norm, witness_int
from mospaces import interpolation
from mospaces.cli import parse_space
from mospaces.grid import RowSums, tree_sums
from mospaces.interpolation import _slice_center, _verify_slice
from helpers import verify_slice_reference


def _outcome(run, *args):
    try:
        return run(*args)
    except Exception as exc:  # the type and message are what must agree
        return type(exc), str(exc)


def _agree(*args):
    """The sampler's outcome on ``args``, after checking it equals the reference's."""
    got = _outcome(_verify_slice, *args)
    assert got == _outcome(verify_slice_reference, *args)
    return got


def _slice_args(spec, cert):
    """_verify_slice's (spec, point, functional, center, eps) for a certificate."""
    if cert.kind == "sum-case":
        return spec.dual, cert.second_functional, cert.x, cert.functional, cert.epsilon
    return spec, cert.x, cert.functional, _slice_center(spec, cert.functional), cert.epsilon


class _CountingRng(np.random.Generator):
    """A generator that counts its standard_normal calls, one per drawn row."""

    rows = 0

    def standard_normal(self, *args, **kwargs):
        _CountingRng.rows += 1
        return super().standard_normal(*args, **kwargs)


@pytest.fixture
def counted_draws(monkeypatch):
    _CountingRng.rows = 0
    monkeypatch.setattr(interpolation.np.random, "default_rng", lambda seed: _CountingRng(np.random.PCG64(seed)))
    return _CountingRng


# -- cases ------------------------------------------------------------------------


def _atom_inside():
    """+e_0 normed is inside the slice: its norm is max(w*mu, v) = 1 and f pairs it to 1."""
    g = MeasureGrid((1.0, 0.5, 2.0))
    spec = IntSpaceSpec(g, {"c0", "c1"}, (1.0, 2.0, 0.25), (0.5, 4.0, 1.0))
    f = StepFunction(g, (1.0, 0.0, 0.0))
    atom = StepFunction.atom(g, "c0")
    assert pairing(f, (1.0 / wint_norm(spec, atom)) * atom) > 1.0 - 0.3
    return spec, StepFunction(g, (-0.5, 0.25, 0.5)), f, StepFunction(g, (1.0, 0.0, 0.0)), 0.3


def _atom_overflow(cell):
    """The atom of ``cell`` has norm 1e-310, so 1/norm overflows to inf."""
    g = MeasureGrid((1.0, 1.0, 1.0))
    w = [1.0, 1.0, 1.0]
    w[cell] = 1e-310
    spec = IntSpaceSpec(g, {g.ids[(cell + 1) % 3]}, tuple(w), (1.0, 1.0, 1.0))
    c = StepFunction.atom(g, g.ids[(cell + 1) % 3])
    return spec, StepFunction(g, (0.5, 0.5, 0.5)), c, c, 0.3


def _l1_overflow(big=3e307):
    """Four cells of w*mu = big: a random row's L1 sum overflows fsum when sum|y| > DBL_MAX/big."""
    g = MeasureGrid((1.0,) * 4)
    spec = IntSpaceSpec(g, {"c0"}, (big,) * 4, (1.0,) * 4)
    c = StepFunction(g, (1.0 / big, 0.0, 0.0, 0.0))
    f = StepFunction(g, (big, 0.0, 0.0, 0.0))
    return spec, StepFunction(g, (0.0, 0.5 / big, 0.0, 0.0)), f, c, 0.3


def _deviation_overflow(big=3e307):
    """|point + y| has an L1 sum past DBL_MAX for every accepted y, the center first;
    later in the same block, the atom of c3 (norm 1e-310) is not finite once normed."""
    g = MeasureGrid((1.0,) * 4)
    spec = IntSpaceSpec(g, {"c0"}, (big, big, big, 1e-310), (1.0,) * 4)
    c = StepFunction(g, (1.0 / big, 0.0, 0.0, 0.0))
    f = StepFunction(g, (big, 0.0, 0.0, 0.0))
    return spec, StepFunction(g, (0.0, 4.0, 4.0, 0.0)), f, c, 0.3


def _blend_overflow(weight=1e-308, eps=0.5):
    """Two cells of tiny weight: a blend's t/|noise| can overflow, so some blends are not finite."""
    g = MeasureGrid((1.0, 1.0))
    spec = IntSpaceSpec(g, None, (weight, weight), (weight, weight))
    c = StepFunction(g, (1.0 / weight, 0.0))
    f = StepFunction(g, (weight, 0.0))
    return spec, StepFunction(g, (0.0, 0.5 / weight)), f, c, eps


def _wide(n):
    """A gamma-proper intersection certificate on n cells of random weights."""
    rng = np.random.default_rng(0)
    g = MeasureGrid(tuple(rng.uniform(0.5, 1.5, n)))
    w, v = (tuple(rng.uniform(0.5, 1.5, n)) for _ in range(2))
    spec = IntSpaceSpec(g, g.ids[: n // 2], w, v)
    return _slice_args(spec, witness_int(spec))


# -- the sampler equals the reference -----------------------------------------------


@pytest.mark.parametrize("samples", [0, 1, 30])
def test_an_atom_inside_the_slice_is_scored(samples):
    args = _atom_inside()
    rec = _agree(*args, samples, 4)
    assert rec.samples_accepted >= 1


@pytest.mark.parametrize("cell", [0, 1, 2])
def test_an_atom_whose_inverse_norm_overflows_raises_in_order(cell):
    got = _agree(*_atom_overflow(cell), 10, 0)
    assert got == (ValueError, f"step function values must be finite, got {'inf' if cell == 0 else 'nan'}")


def _kind(outcome):
    return outcome[0].__name__ if isinstance(outcome, tuple) else "record"


def test_l1_sums_that_overflow_fsum_raise_in_order_or_not_at_all(monkeypatch):
    kinds = {_kind(_agree(*_l1_overflow(), samples, seed)) for seed in range(20) for samples in (3, 10, 30)}
    assert kinds == {"OverflowError", "record"}  # some runs stop before the first overflow
    # seed 25 at 10 samples: a row of the stopping block past the stopping row overflows
    found = []
    maxima = RowSums.maxima

    def watch(self, s):
        out = maxima(self, s)
        found.append(out[1])
        return out

    monkeypatch.setattr(RowSums, "maxima", watch)
    rec = _agree(*_l1_overflow(), 10, 25)
    assert rec.samples_accepted == 10 and any(isinstance(e, OverflowError) for e in found)


def test_a_deviation_overflow_comes_before_later_rows():
    got = _agree(*_deviation_overflow(), 10, 1)
    assert got == (OverflowError, "intermediate overflow in fsum")


def test_blend_errors_raise_in_order_or_not_at_all(monkeypatch):
    kinds = {_kind(_agree(*_blend_overflow(), samples, seed)) for seed in range(30) for samples in (5, 10, 20)}
    assert kinds == {"ValueError", "record"}
    # seed 21 at 20 samples: a blend past the stopping row is not finite, and is never raised
    built = []
    finite_error = interpolation.finite_error
    monkeypatch.setattr(interpolation, "finite_error", lambda rows: built.append(1) or finite_error(rows))
    rec = _agree(*_blend_overflow(), 20, 21)
    assert rec.samples_accepted == 20 and built


def test_samples_reached_mid_block_counts_the_draws_up_to_the_stopping_row(counted_draws):
    rec = _agree(*_wide(16), 200, 0)
    assert rec.samples_accepted == 200
    # the reference drew its rows too; the sampler drew past the stopping row
    random_draws = rec.samples_requested - (2 * 16 + 4)
    assert counted_draws.rows > 2 * random_draws


def test_the_cap_reached_first_ends_the_run():
    g = MeasureGrid((0.7, 0.9, 1.1, 0.5))
    spec = IntSpaceSpec(g, None, (1.2, 0.8, 1.0, 0.9), (0.9, 1.1, 0.7, 1.3))
    cert = witness_int(spec)
    cert = replace(cert, epsilon=0.01001, functional=0.99 * cert.functional)  # a thin slice
    for seed in (0, 3):
        rec = _agree(*_slice_args(spec, cert), 200, seed)
        assert rec.samples_requested == 50 * 200 + 1000 and 0 < rec.samples_accepted < 200


def _one_cell():
    g = MeasureGrid((0.8,))
    spec = IntSpaceSpec(g, None, (1.3,), (0.9,))
    return spec, StepFunction(g, (0.5,)), StepFunction(g, (-1.1,)), StepFunction(g, (-1.0 / 0.9,)), 0.2


@pytest.mark.parametrize("n", [1, 2, 3, 256, 2048])
def test_grids_of_every_width_agree(n):
    args = _one_cell() if n == 1 else _wide(n)
    for samples, seed in ((0, 1), (1, 2), (200, 3)):
        _agree(*args, samples, seed)


def _benchmark_configs(seed):
    """The slice-cert configs of the benchmark at ``seed``, read from its generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_slice_cert_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module.generate("slice-cert", seed).configs.values()


@pytest.mark.parametrize("n", [16, 64, 256])
def test_the_benchmark_slice_certificates_agree(n):
    configs = [cfg for cfg in _benchmark_configs(3) if cfg.n == n and not cfg.cls.startswith("collapse")]
    assert len(configs) == 4 * (2 if n == 64 else 1)
    for cfg in configs:
        space = parse_space(cfg.body)
        cert = space.classify(samples=0, seed=0).witness
        rec = _agree(*_slice_args(space.certificate_space(cert.kind).spec, cert), cfg.body["samples"], cfg.body["seed"])
        assert rec.passed


# -- exact row sums -------------------------------------------------------------------

_KINDS = ("spread", "spread-signed", "subnormal", "zero", "single", "halfway", "near-halfway", "normal")


def _halfway(rng, off):
    """A row whose exact sum is a double plus (1 + off) times half its gap upwards."""
    x = rng.uniform(1.0, 2.0) * 2.0 ** float(rng.integers(-300, 300))
    half = (np.nextafter(x, np.inf) - x) / 2.0
    k = int(rng.integers(0, 4))  # half in 2**k equal pieces: every partial sum is exact
    row = np.array([x] + [half / 2**k] * 2**k + ([half * off] if off else []))
    rng.shuffle(row)
    return row


def _row(rng, kind, n):
    if kind == "spread":
        return np.abs(rng.standard_normal(n)) * 2.0 ** rng.integers(-300, 301, n).astype(float)
    if kind == "spread-signed":
        return rng.standard_normal(n) * 2.0 ** rng.integers(-300, 301, n).astype(float)
    if kind == "subnormal":
        row = rng.integers(0, 2**30, n) * 5e-324
        return row + (rng.random(n) < 0.3) * np.abs(rng.standard_normal(n)) * 2.0 ** -float(rng.integers(940, 1022))
    if kind == "zero":
        return np.zeros(n)
    if kind == "single":
        row = np.zeros(n)
        row[rng.integers(n)] = rng.choice([1.5, 5e-324, 1e300, 2.0**-1000])
        return row
    if kind in ("halfway", "near-halfway"):
        return _halfway(rng, 0.0 if kind == "halfway" else float(rng.choice([2.0**-40, -(2.0**-40)])))
    return np.abs(rng.standard_normal(n)) * 10.0 ** rng.uniform(-8, 8)


def _stack(rows):
    """The rows as one block, each padded with zeros to the widest."""
    width = max(map(len, rows))
    return np.stack([np.concatenate((r, np.zeros(width - len(r)))) for r in rows])


@st.composite
def _blocks(draw):
    """1 to 4 rows of a drawn width (halfway rows may be wider), each of a drawn kind."""
    n = draw(st.one_of(st.integers(2, 9), st.sampled_from([16, 63, 64, 257])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4))
    return _stack([_row(rng, kind, n) for kind in kinds])


def _fsum_or_error(row):
    try:
        return math.fsum(row)
    except OverflowError as exc:
        return exc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_blocks())
@example(np.array([[1.0, 2.0**-53, 0.0], [1.0, 2.0**-53, 2.0**-120], [3.0, 2.0**-52, 0.0]]))
@example(np.array([[2.0**-1000, 2.0**-1000, 2.0**-1074], [0.0, 0.0, 0.0], [1e308, 1e308, 1.0]]))
def test_the_tree_matches_fsum_bit_for_bit_where_it_certifies(terms):
    with np.errstate(over="ignore"):
        a = np.abs(terms).sum(axis=1)
    sums, certified = tree_sums(terms, a)
    for i, row in enumerate(terms.tolist()):
        if certified[i]:
            assert 2.0**-960 <= a[i] <= 2.0**960  # RowSums' safe range
            assert sums[i].hex() == math.fsum(row).hex()


def test_the_tree_never_certifies_an_exact_halfway_sum():
    rng = np.random.default_rng(7)
    terms = _stack([_halfway(rng, 0.0) for _ in range(300)])
    sums, certified = tree_sums(terms, terms.sum(axis=1))
    assert not certified.any()
    near = _stack([_halfway(rng, 2.0**-40) for _ in range(300)])
    sums, certified = tree_sums(near, near.sum(axis=1))
    assert certified.mean() > 0.9
    assert all(sums[i] == math.fsum(row) for i, row in enumerate(near.tolist()) if certified[i])


def test_the_tree_certifies_nearly_every_random_row():
    rng = np.random.default_rng(11)
    for n, rows in ((16, 300), (64, 300), (256, 100)):
        terms = np.abs(rng.standard_normal((rows, n))) * rng.uniform(0.1, 3.0, n)
        sums, certified = tree_sums(terms, terms.sum(axis=1))
        assert certified.mean() > 0.95
        assert (sums[certified] == [math.fsum(r) for r in terms[certified].tolist()]).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_blocks(), st.integers(0, 2**32 - 1))
@example(np.array([[1e308, 1e308, 0.5], [1.0, 2.0**-53, 0.0], [4.0, 4.0, 4.0]]), 0)
def test_maxima_sums_every_row_it_cannot_certify_with_fsum(terms, seed):
    terms = np.abs(terms)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # some sups settle their row, some leave it open
        sup = terms.max(axis=1) * rng.choice([0.0, 1e-3, 1.0, 1e3], len(terms))
    sums = RowSums(terms, nonnegative=True)
    open_rows = [i for i in range(len(terms)) if not sums.upper[i] < sup[i] and np.count_nonzero(terms[i]) > 1]
    with np.errstate(over="ignore"):
        certified = tree_sums(terms[open_rows], terms[open_rows].sum(axis=1))[1] if open_rows else []
    want_fsum = [i for i, ok in zip(open_rows, certified) if not ok]
    calls = []
    fsum = math.fsum

    def counting(row):
        calls.append(list(row))
        return fsum(row)

    math.fsum = counting  # not monkeypatch: a function-scoped fixture outlives the examples
    try:
        out, error = sums.maxima(sup)
    finally:
        math.fsum = fsum
    want = []
    for i, row in enumerate(terms.tolist()):
        total = _fsum_or_error(row)
        if isinstance(total, OverflowError):
            assert isinstance(error, OverflowError) and str(error) == str(total)
            break
        want.append(max(total, float(sup[i])))
    else:
        assert error is None
    assert out == want
    stop = len(out)
    assert calls == [terms[i].tolist() for i in want_fsum if i <= stop]

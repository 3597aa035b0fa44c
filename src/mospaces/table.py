"""A field's curves as columns: the compiled form of a ``MusielakField``.

A ``CurveTable`` holds one entry per grid cell: a family code and the
family's number (the exponent ``p``, the slope or the bound).  The
piecewise-linear cells add their breakpoints and slopes, flattened in grid
order with per-cell counts, and their end values.  The table checks these
columns with numpy, rule for rule as the constructors in ``curves`` do, and
raises ``InvalidCell`` at the first cell one of them would refuse.

From the columns it derives what the solvers read: one knot table, padded
with inf, for the linear, indicator and piecewise-linear cells (the left
knots, the value at each and the slope from each), and per such cell the
domain end ``b``, the closed value there and the stored one.  Knot values
are summed left to right and each finite end's left limit is the fsum of
its rises (``grid.tree_sums`` where it certifies the sum), as
``PiecewiseLinear`` computes them, so every number is the curve object's
bit for bit.  Per cell in grid order it holds the zero, linearity and
domain ends a, d, b of ``OrliczCurve.params``.  ``value`` (on one profile
or a block of rows) and ``inverse_upper`` evaluate the curves on the table
with the float operations of the curve methods, and ``half_ratio_sup``
gives the exact sup of the halving ratio 2 phi(u/2) / phi(u) on an interval
from the knots; power cells use Python's ``**`` per cell in all three,
because numpy's power can differ from it in the last bits.  ``conjugate``
is the table of the cellwise conjugates, as ``curves.conjugate`` gives
them; ``specs`` writes the columns back as a config's curve list and
``curves`` builds the curve objects.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .curves import INF, Indicator, Linear, OrliczCurve, PiecewiseLinear, Power, _pow
from .grid import tree_sums

POWER, LINEAR, INDICATOR, PIECEWISE = range(4)
FAMILIES = {"power": POWER, "linear": LINEAR, "indicator": INDICATOR, "piecewise": PIECEWISE}
NUMBERS = {POWER: "p", LINEAR: "slope", INDICATOR: "bound"}  # the config key and the attribute
_FAMILY_OF = {Power: POWER, Linear: LINEAR, Indicator: INDICATOR, PiecewiseLinear: PIECEWISE}
_NAMES = {code: name for name, code in FAMILIES.items()}
_CLASSES = {_NAMES[code]: kind for kind, code in _FAMILY_OF.items()}


class InvalidCell(ValueError):
    """The columns hold a curve its constructor refuses; ``index`` is the first such cell."""

    def __init__(self, index: int):
        super().__init__(f"cell {index} holds no valid curve")
        self.index = index


def _runs(lengths: np.ndarray):
    """(run, start) for a flat array cut into runs of ``lengths``: the run of
    each entry and the offset where each run starts."""
    starts = np.zeros(len(lengths), dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    return np.repeat(np.arange(len(lengths)), lengths), starts


def _any_per_run(run: np.ndarray, flags: np.ndarray, runs: int) -> np.ndarray:
    return np.bincount(run, weights=flags, minlength=runs) > 0


def _fsums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """math.fsum of each run of ``values``; NaN where it raises.

    The runs, zero-padded to rows, are summed by ``tree_sums``; only a row
    it does not certify (a zero, subnormal, non-finite or huge one, or one
    near a halfway point) takes its own fsum, so each sum is fsum's bit for bit.
    """
    filled = np.arange(int(lengths.max(initial=1))) < lengths[:, None]
    rows = np.zeros(filled.shape)
    rows[filled] = values
    with np.errstate(over="ignore"):  # a sum of |t| past DBL_MAX is inf, and certifies nothing
        sums, certified = tree_sums(rows, np.abs(rows).sum(axis=1))
    starts = (np.cumsum(lengths) - lengths).tolist()
    for i in np.flatnonzero(~certified).tolist():
        try:
            sums[i] = math.fsum(values[starts[i] : starts[i] + int(lengths[i])].tolist())
        except (ValueError, OverflowError):  # inf - inf, or a finite sum past DBL_MAX
            sums[i] = math.nan
    return sums


def _check_piecewise(bp, bp_len, sl, sl_len, given, end):
    """The rules of ``PiecewiseLinear`` (and of ``PiecewiseLinear.closed``
    where no end value is ``given``) on each piecewise cell.

    Returns the cells they refuse (a bool array) and the left limit of each
    bounded cell (inf elsewhere).
    """
    bad = ~((bp_len == sl_len + 1) & (sl_len > 0))  # one slope per segment
    shaped = np.flatnonzero(~bad)
    limits = np.full(len(bp_len), INF)
    if not shaped.size:
        return bad, limits
    if bad.any():
        bp, sl = bp[np.repeat(~bad, bp_len)], sl[np.repeat(~bad, sl_len)]
    k = sl_len[shaped]
    bcell, bstart = _runs(k + 1)
    scell, sstart = _runs(k)
    last = bstart + k
    inner = np.ones(len(bp), dtype=bool)
    inner[last] = False
    at = np.flatnonzero(inner)  # the breakpoints followed by one of their cell: bp[:-1]
    follows = np.flatnonzero(scell[:-1] == scell[1:])  # the slopes followed likewise
    with np.errstate(invalid="ignore", over="ignore"):
        fault = bp[bstart] != 0.0
        # strictly increasing, which leaves no room for an inf before the last
        fault |= _any_per_run(bcell[at], ~(bp[at] < bp[at + 1]), len(k))
        fault |= (sl[sstart] < 0.0) | _any_per_run(scell, ~np.isfinite(sl), len(k))
        fault |= _any_per_run(scell[follows], ~(sl[follows] < sl[follows + 1]), len(k))
        unbounded = np.isinf(bp[last])
        fault |= unbounded & (k == 1) & (sl[sstart] == 0.0)  # identically zero
        rises = sl * (bp[at + 1] - bp[at])  # as _rises: s_j * (u_j - u_{j-1})
    # a bounded cell's left limit, one fsum, is its end value unless one is
    # given; a given one must be the limit or +inf.  A NaN fsum (one that
    # raised, or one over a cell refused above) refuses the cell.
    bounded = np.flatnonzero(~unbounded)
    sums = _fsums(rises[np.repeat(~unbounded, k)], k[bounded])
    cells = shaped[bounded]
    e, g = end[cells], given[cells]
    fault[bounded] |= np.isnan(sums) | (g & ~((e == sums) | (e == INF)))
    limits[cells] = sums
    bad[shaped] = fault
    return bad, limits


class CurveTable:
    """Columns of a field's curves, checked and compiled once per field.

    ``family`` holds one code per cell (-1 for an unknown family) and
    ``number`` each power, linear or indicator cell's number.  The
    piecewise-linear cells, in grid order, give their breakpoints ``bp`` cut
    into runs of ``bp_len``, their slopes ``sl`` cut into runs of ``sl_len``
    and their end values ``end`` (None where absent: a bounded cell then
    closes at its left limit, as ``PiecewiseLinear.closed``; an unbounded
    cell ignores it).  The compiled columns include the structural numbers
    ``cell_a``, ``cell_d`` and ``cell_b`` per cell in grid order.  The
    breakpoints, slopes and end values convert to floats in one pass each,
    as ``float`` converts them; an int beyond the float range raises
    OverflowError.
    """

    def __init__(self, family, number, bp, bp_len, sl, sl_len, end):
        family = np.asarray(family, dtype=np.int8)
        number = np.asarray(number, dtype=float)
        bp, sl = np.fromiter(bp, float, len(bp)), np.fromiter(sl, float, len(sl))
        bp_len, sl_len = np.asarray(bp_len, dtype=np.intp), np.asarray(sl_len, dtype=np.intp)
        flags = list(map(operator.is_not, end, itertools.repeat(None)))
        given = np.array(flags, dtype=bool)
        values, end = end, np.full(len(flags), math.nan)
        end[given] = np.fromiter(itertools.compress(values, flags), float)
        with np.errstate(invalid="ignore"):
            least = np.where(family == POWER, 1.0, 0.0)  # p > 1; slope and bound > 0
            bad = (family < 0) | ~((number > least) & np.isfinite(number))
        pw = np.flatnonzero(family == PIECEWISE)
        bad[pw], limits = _check_piecewise(bp, bp_len, sl, sl_len, given, end)
        if bad.any():
            raise InvalidCell(int(np.argmax(bad)))
        self.n = len(family)
        self.family, self.number = family, number
        self.power = np.flatnonzero(family == POWER)
        self.knotted = np.flatnonzero(family != POWER)
        self.p = number[self.power]
        self._p = self.p.tolist()
        self._runs = bp, bp_len, sl, sl_len
        self._compile(np.where(given, end, limits), limits)

    @classmethod
    def of_curves(cls, curves) -> "CurveTable":
        """The table of curve objects, one per cell."""
        family, number, pw = [], [], []
        for c in curves:
            kind = type(c)
            if kind not in _FAMILY_OF:
                raise TypeError(f"not an Orlicz curve: {c!r}")
            code = _FAMILY_OF[kind]
            family.append(code)
            if code == PIECEWISE:
                number.append(math.nan)
                pw.append(c)
            else:
                number.append(getattr(c, NUMBERS[code]))
        bps = [c.breakpoints for c in pw]
        sls = [c.slopes for c in pw]
        return cls(
            family,
            number,
            list(itertools.chain.from_iterable(bps)),
            list(map(len, bps)),
            list(itertools.chain.from_iterable(sls)),
            list(map(len, sls)),
            [c.end_value for c in pw],
        )

    def _compile(self, end, limits):
        """The padded knot table of the knotted cells, and their domain ends;
        ``end`` and ``limits`` give each piecewise cell's value at b and left limit there."""
        bp, bp_len, sl, sl_len = self._runs
        family = self.family[self.knotted]
        number = self.number[self.knotted]
        rows = len(family)
        pw = np.flatnonzero(family == PIECEWISE)  # rows of the piecewise cells
        counts = np.ones(rows, dtype=np.intp)
        counts[pw] = sl_len
        width = int(counts.max(initial=1))
        filled = np.arange(width) < counts[:, None]  # row-major: each row's knots in order
        pw_filled = np.zeros_like(filled)
        pw_filled[pw] = filled[pw]
        lasts = np.cumsum(bp_len) - 1  # each piecewise cell's last breakpoint
        lefts = np.ones(len(bp), dtype=bool)
        lefts[lasts] = False
        knots = np.full((rows, width), INF)
        knots[:, 0] = 0.0
        knots[pw_filled] = bp[lefts]
        slopes = np.zeros((rows, width))
        slopes[family == LINEAR, 0] = number[family == LINEAR]
        slopes[pw_filled] = sl
        # phi at each left knot: the rises summed left to right, as _knot_values
        rises = np.zeros((rows, width))
        with np.errstate(invalid="ignore", over="ignore"):
            steps = slopes[:, :-1] * (knots[:, 1:] - knots[:, :-1])
        rises[:, 1:] = np.where(filled[:, 1:], steps, 0.0)
        with np.errstate(over="ignore"):  # a sum past DBL_MAX is inf, as in Python
            self.values = np.where(filled, np.add.accumulate(rises, axis=1), 0.0)
        self.knots, self.slopes = knots, slopes
        self.filled, self.counts = filled, counts
        b = np.full(rows, INF)
        closed = np.full(rows, INF)  # the closed value at b
        stored = np.full(rows, INF)  # the value at b itself
        indicator = family == INDICATOR
        b[indicator] = number[indicator]
        closed[indicator] = stored[indicator] = 0.0
        b[pw] = bp[lasts]
        bounded = np.isfinite(b[pw])
        closed[pw] = np.where(bounded, limits, INF)
        stored[pw] = np.where(bounded, end, INF)
        self.b, self.closed, self.stored = b, closed, stored
        self.blowup = np.isfinite(b) & np.isinf(stored)  # the modular is infinite at b itself
        # the linearity end is the first inner knot, or b for a one-piece
        # cell; a flat first piece makes it the zero end too
        d = np.minimum(knots[:, 1], b) if width > 1 else b
        a = np.where(slopes[:, 0] == 0.0, d, 0.0)
        self.cell_a, self.cell_d = self.per_cell(a, 0.0), self.per_cell(d, 0.0)
        self.cell_b = self.per_cell(b, INF)
        self._ends = np.where(bounded, end, math.nan)  # NaN: the curve keeps no end value

    def per_cell(self, column: np.ndarray, power: float) -> np.ndarray:
        """A column of the knotted cells in grid order, ``power`` on the power cells."""
        out = np.full(self.n, power)
        out[self.knotted] = column
        return out

    def specs(self) -> list[dict]:
        """The config's curve list, one spec per cell; its keys are the curve classes' fields."""
        bp, bp_len, sl, sl_len = (a.tolist() for a in self._runs)
        starts = itertools.accumulate(bp_len, initial=0), itertools.accumulate(sl_len, initial=0)
        cuts = zip(starts[0], bp_len, starts[1], sl_len)
        ends = iter(self._ends.tolist())  # NaN: no end value
        out = []
        for code, number in zip(self.family.tolist(), self.number.tolist()):
            if code != PIECEWISE:
                out.append({"family": _NAMES[code], NUMBERS[code]: number})
                continue
            b0, bn, s0, sn = next(cuts)
            out.append({"family": "piecewise", "breakpoints": bp[b0 : b0 + bn], "slopes": sl[s0 : s0 + sn]})
            end = next(ends)
            if not math.isnan(end):
                out[-1]["end_value"] = end
        return out

    def curves(self) -> tuple[OrliczCurve, ...]:
        """The curve objects, one per cell: each spec's fields."""
        return tuple(_CLASSES[spec.pop("family")](**spec) for spec in self.specs())

    def conjugate(self) -> "CurveTable":
        """The table of the cellwise conjugates, as ``curves.conjugate`` gives them: p/(p - 1),
        linear and indicator swapped, a piecewise cell's breakpoints and slopes traded; a
        refused conjugate raises ``InvalidCell`` at its cell."""
        family, number = self.family.copy(), self.number.copy()
        family[self.family == LINEAR] = INDICATOR
        family[self.family == INDICATOR] = LINEAR
        number[self.power] = self.p / (self.p - 1.0)
        bp, _, sl, sl_len = self._runs
        run, start = _runs(sl_len)
        cells = np.arange(len(sl_len))
        bstart, first = start + cells, start + 2 * cells
        flat, unbounded = sl[start] == 0.0, np.isinf(bp[bstart + sl_len])
        # k + 2 entries per cell: breakpoints 0, s1..sk, inf and slopes (unused), 0, u1..uk,
        # less s1 and 0 where s1 = 0 and less inf and uk where uk is inf; no end value, so a
        # bounded conjugate closes at its left limit
        inner = np.arange(len(sl)) + 2 * run + 1
        knots = np.full(len(sl) + 2 * len(cells), INF)
        knots[first] = 0.0
        knots[inner] = sl
        slopes = np.zeros(len(knots))
        slopes[inner + 1] = np.delete(bp, bstart)
        keep = np.ones(len(knots), dtype=bool)
        keep[first[flat] + 1] = False
        keep[(first + sl_len + 1)[unbounded]] = False
        knots = knots[keep]
        keep[first] = False
        bp_len = sl_len + 2 - flat - unbounded
        return CurveTable(family, number, knots, bp_len, slopes[keep], bp_len - 1, [None] * len(cells))

    def value(self, u: np.ndarray) -> np.ndarray:
        """phi_i(u_i) per cell of a profile u (n,) or of each row of a block
        (rows, n), u nonnegative (inf allowed), as the curves' ``value``."""
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape)
        if self.power.size:
            up = u[..., self.power]
            pairs = zip(up.ravel().tolist(), itertools.cycle(self._p))
            out[..., self.power] = np.reshape([_pow(v, p) / p for v, p in pairs], up.shape)
        if self.knotted.size:
            rows = np.arange(len(self.knotted))
            out[..., self.knotted] = self._knot_value(rows, u[..., self.knotted], self.stored)
        return out

    def _knot_value(self, rows: np.ndarray, u: np.ndarray, at_b: np.ndarray) -> np.ndarray:
        """phi(u) on the knot table's ``rows`` (broadcast against u), u nonnegative
        (inf allowed); at a finite b itself it reads ``at_b``: ``stored`` for the
        value, ``closed`` for its closure."""
        j = (self.knots[rows, 1:] <= u[..., None]).sum(axis=-1)  # u in [knot_j, knot_j+1)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf at u = inf
            v = self.values[rows, j] + self.slopes[rows, j] * (u - self.knots[rows, j])
        b = self.b[rows]
        return np.where(u < b, v, np.where(u == b, at_b[rows], INF))

    def half_ratio_sup(self, cells, lo: float, hi) -> np.ndarray:
        """The exact sup of 2 phi(u/2) / closure(phi)(u) on [lo, hi] for each of
        ``cells`` (``hi`` one number or one per cell): 2**(1 - p) on a power cell,
        else the largest ratio at lo, hi and each finite knot u or 2u strictly
        between them where 0 < closure(phi)(u) < inf, or 0."""
        cells = np.asarray(cells, dtype=np.intp)
        hi = np.broadcast_to(np.asarray(hi, dtype=float), cells.shape)
        out = np.zeros(len(cells))
        power = self.family[cells] == POWER
        out[power] = [2.0 ** (1.0 - p) for p in self.number[cells[power]].tolist()]
        rows = np.searchsorted(self.knotted, cells[~power])[:, None]
        top = hi[~power, None]
        with np.errstate(over="ignore", invalid="ignore"):  # 2u, 2 phi past DBL_MAX; inf / inf
            knots = np.concatenate((self.knots[rows[:, 0], 1:], self.b[rows]), axis=1)
            knots = np.concatenate((knots, 2.0 * knots), axis=1)
            inside = (lo < knots) & (knots < top)
            u = np.concatenate((np.full_like(top, lo), top, np.where(inside, knots, lo)), axis=1)
            den = self._knot_value(rows, u, self.closed)
            ratio = 2.0 * self._knot_value(rows, u / 2.0, self.stored) / den
        out[~power] = np.where((den > 0.0) & (den < INF), ratio, 0.0).max(axis=1, initial=0.0)
        return out

    def inverse_upper(self, c: np.ndarray) -> np.ndarray:
        """sup{u >= 0 : closure(phi_i)(u) <= c_i} per cell (c nonnegative), as
        the curves' ``inverse_upper``."""
        out = np.empty(self.n)
        if self.power.size:
            out[self.power] = [
                INF if math.isinf(v) else _pow(v * p, 1.0 / p)
                for v, p in zip(c[self.power].tolist(), self._p)
            ]
        if self.knotted.size:
            ck = c[self.knotted]
            rows = np.arange(len(ck))
            # the last piece starting at a value of at most c; its slope is
            # positive (a flat first piece is followed by a second one starting
            # at 0) unless the cell is bounded and c is at least its limit
            j = (np.where(self.filled, self.values, INF) <= ck[:, None]).sum(axis=1) - 1
            with np.errstate(divide="ignore", invalid="ignore"):
                u = self.knots[rows, j] + (ck - self.values[rows, j]) / self.slopes[rows, j]
            u = np.where(np.isinf(ck), INF, u)
            out[self.knotted] = np.where(np.isfinite(self.b) & (ck >= self.closed), self.b, u)
        return out

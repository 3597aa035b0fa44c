"""Daugavet-property classification for Musielak-Orlicz fields.

Decision tree, read off the field's structure record (``field._structure``,
computed once per field in ``musielak``):

1. modular at the domain ends at most one: the space is the weighted sup
   space (collapse), verdict positive.
2. otherwise a cell with a genuine convexity region (d < b, the record's
   remainder) forces a uniformly non-square point, verdict negative with a
   constructed witness.
3. remaining fields are built from indicator-type and linear-type cells
   only; the verdict follows the record's masses and collapse integral:
   weighted L1, the sup-sum of an L-infinity block and an L1 block, or the
   intersection component criterion with its interpolation certificate on
   failure, built on the component ``component_spec(field)``, where
   ``verify`` checks it again.

The witness construction follows the modular-halving argument: on a cell
set where the curves are strictly convex between a and b, the halving ratio
2*phi(u/2)/phi(u) stays below a sigma < 1 up to per-cell caps that no unit
vector can exceed, which bounds min(|x+y|, |x-y|) away from 2 uniformly.
The search for non-square points, ``no_nonsquare_probe``, is in ``probes``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import INF, OrliczCurve
from .errors import (
    FloatRangeError,
    MospacesError,
    PreconditionError,
    VerificationError,
    WitnessConstructionError,
)
from .grid import MeasureGrid, StepFunction, atom_rows, row_blocks, signs
from .interpolation import IntSpaceSpec, assert_unit, witness_int
from .musielak import (
    MusielakField,
    gauge_block,
    luxemburg_norms,
    modular,
    modular_of_bounds,
    modulars,
    unit_sphere_points,
)
from .reports import (
    DAUGAVET,
    FORM_INTERSECTION,
    FORM_L1,
    FORM_LINF,
    FORM_OPLUS,
    NOT_DAUGAVET,
    ClassificationReport,
    NonsquareWitness,
    record_from_samples,
)


_BLOCK_CELLS = 1 << 16  # cells per block of rows (the scale walks, verify_nonsquare): bounds their memory
_WALK = np.ldexp(1.0, -np.arange(1, 81))  # t = 1/2, 1/4, ..., 2**-80: the setup walk
_SLACK = 1e-9  # verify_nonsquare counts a violation only above 2 - delta + _SLACK


@dataclass(frozen=True)
class NonsquareSetup:
    cells: tuple[str, ...]
    a: float
    b: float
    sigma1: float


def _flat_rows(field: MusielakField, u, cells) -> np.ndarray:
    """The profile equal to u on ``cells`` and 0 elsewhere: one row per height in u."""
    on = np.zeros(len(field.grid), dtype=bool)
    on[cells] = True
    return np.where(on, np.reshape(u, (-1, 1)), 0.0)


def _flat_terms(field: MusielakField, u, cells) -> np.ndarray:
    """curve(u) * mass per cell of the profile u on ``cells``, 0 elsewhere: one row per height in u."""
    with np.errstate(over="ignore"):  # an inf product makes the fsum inf, as in Python
        return field.table.value(_flat_rows(field, u, cells)) * field._weights


def _flat_modular(field: MusielakField, u: float, cells) -> float:
    """Modular of the profile equal to u on ``cells`` and 0 elsewhere."""
    return next(modulars(field, _flat_rows(field, u, cells)))


def _interval_point(L: float, R: float, t):
    """Map t in (0,1) (a number or an array) into (L, R), handling an infinite right end."""
    if math.isfinite(R):
        return L + t * (R - L)
    return L + t / (1.0 - t) * max(L, 1.0)  # increasing, unbounded, and never rounded away at a large L


def _first_scale(field: MusielakField, scales: np.ndarray, rows, passes) -> float | None:
    """The first t of ``scales`` whose row ``rows(t)`` of nonnegative cell values has a
    modular that ``passes``, or None.  The rows are built and evaluated in blocks of at
    most ``_BLOCK_CELLS`` cells; no row past the first that passes is summed."""
    per = max(1, _BLOCK_CELLS // len(field.grid))  # rows per block: all 80 up to 819 cells
    for ts in np.split(scales, range(per, len(scales), per)):
        with np.errstate(over="ignore"):  # a row past DBL_MAX is inf, as in Python
            block = rows(ts)
        for t, rho in zip(ts.tolist(), modulars(field, block)):
            if passes(rho):
                return t
    return None


def find_nonsquare_setup(field: MusielakField) -> NonsquareSetup:
    """Common interval [a, b] inside (d, b) across a remainder cell set.

    Shrinks the candidate set until the intervals overlap and the modular of
    the constant-a profile fits under one, then certifies the halving-ratio
    bound sigma1 < 1 on [a, b].
    """
    grid = field.grid
    d, b_end = field.table.cell_d.tolist(), field.table.cell_b.tolist()
    work = np.flatnonzero(field._structure.remainder).tolist()  # the cells with d < b
    if not work:
        raise PreconditionError("no cell has d < b")

    while True:
        L = max(d[i] for i in work)
        R = min(b_end[i] for i in work)
        if L < R:
            t_feas = _first_scale(
                field, _WALK, lambda ts: _flat_rows(field, _interval_point(L, R, ts), work),
                lambda rho: rho <= 1.0,
            )
            if t_feas is not None:
                a = _interval_point(L, R, t_feas / 2.0)
                b = _interval_point(L, R, t_feas * 0.75)
                sigma1 = max(field.table.half_ratio_sup(work, a, b).tolist())
                if sigma1 < 1.0:
                    return NonsquareSetup(
                        tuple(grid.ids[i] for i in work), a, b, sigma1
                    )
        if len(work) == 1:
            raise WitnessConstructionError(
                "no usable interval: the remaining cell carries too much mass "
                "near its linearity region"
            )
        # drop the most constraining cell: largest d, then largest mass
        work.remove(max(work, key=lambda i: (d[i], grid.weights[i])))


def check_unit_modular(field: MusielakField, x: StepFunction, error=WitnessConstructionError):
    """Check a nonsquare witness's unit claim, as its builder does: x has modular one."""
    assert_unit(modular(field, x), "witness modular is", error)


def build_nonsquare_witness(field: MusielakField) -> NonsquareWitness:
    """Unit vector x and margin delta with min(|x+y|, |x-y|) <= 2 - delta.

    Splits on whether an unbounded-domain cell is available outside the
    carrier set (top-up by a flat block there) or all domains are bounded
    (top-up by a scaled copy of the domain ends).  All constants are
    deterministic and recorded for audit; its gauge solves ask for rtol 0: the kernel's floor.
    A margin of at most ``_SLACK`` is refused: ``verify_nonsquare`` could not check it.
    """
    ends = field.table.cell_b
    grid = field.grid
    idx = grid.index
    if field._structure.modular_at_bounds <= 1.0:
        raise PreconditionError("space collapses to the weighted sup norm")
    setup = find_nonsquare_setup(field)
    a, b = setup.a, setup.b
    carrier = [idx[cid] for cid in setup.cells]
    s_cells = np.flatnonzero(np.isinf(ends)).tolist()
    x_vals = [0.0] * len(grid)
    record = {"carrier": list(setup.cells), "a": a, "b": b, "sigma1": setup.sigma1}

    exact_fill = False
    if s_cells:
        outside = [i for i in s_cells if i not in carrier]
        if not outside:
            non_s = [i for i in carrier if i not in s_cells]
            if non_s:
                carrier = non_s
            elif len(carrier) >= 2:  # drop the (first) cell of largest curve(a) * mass
                del carrier[int(np.argmax(_flat_terms(field, a, carrier)[0][carrier]))]
            else:
                exact_fill = True
        if not exact_fill:
            outside = [i for i in s_cells if i not in carrier]
            top_up = min(outside)
            residual = 1.0 - _flat_modular(field, a, carrier)
            if residual < 0:  # pragma: no cover - carrier was built feasible
                raise WitnessConstructionError("carrier modular exceeds one")
            d0 = 0.0
            if residual > 0.0:
                with np.errstate(over="ignore"):  # residual/mass past DBL_MAX is inf, as in Python
                    d0 = float(field.table.inverse_upper(residual / field._weights)[top_up])
                x_vals[top_up] = d0
            record.update({"mode": "flat-top-up", "top_up_cell": grid.ids[top_up], "d0": d0})
        else:
            # single unbounded-domain carrier cell: raise a until the modular is one
            a = float(gauge_block(field, _flat_rows(field, 1.0, carrier), 1.0, 0.0)[0][0])
            b = 2.0 * a
            record.update({"mode": "exact-fill", "a": a, "b": b})
    else:
        # every domain bounded: the complement must carry modular above one
        while carrier:
            if modular_of_bounds(field, [c for i, c in enumerate(grid.ids) if i not in carrier]) > 1.0:
                break
            del carrier[int(np.argmax(_flat_terms(field, a, carrier)[0][carrier]))]  # as above
        if not carrier:
            raise WitnessConstructionError(
                "cannot keep modular above one outside the carrier set"
            )
        comp_bounds = [0.0 if i in carrier else e for i, e in enumerate(ends.tolist())]
        c1 = _first_scale(
            field, 1.0 - _WALK[:59], lambda ts: ts[:, None] * np.array(comp_bounds),  # 1 - 2**-j
            lambda rho: 1.0 < rho < INF,
        )
        if c1 is None:
            raise WitnessConstructionError(
                "no scale below the domain ends keeps the modular above one "
                "(blow-up end values on this grid)"
            )
        residual = 1.0 - _flat_modular(field, a, carrier)
        if residual > 0.0:
            # largest scale of the domain ends whose modular fits the residual
            scale = float(gauge_block(field, [comp_bounds], residual, 0.0)[0][0])
            c2 = c1 / scale - 1.0
            x_vals = [scale * e for e in comp_bounds]  # 0 on the carrier, set to a below
            record.update({"mode": "bounded-top-up", "c1": c1, "c2": c2, "scale": scale})
        else:
            record.update({"mode": "bounded-no-top-up"})

    for i in carrier:
        x_vals[i] = a
    record["carrier"] = [grid.ids[i] for i in carrier]
    record["a"], record["b"] = a, b
    x = StepFunction(grid, tuple(x_vals))
    check_unit_modular(field, x)

    # halving-ratio bound up to per-cell caps no unit vector can exceed; the
    # cap interval contains [a, b], so sigma2 alone covers both uses
    with np.errstate(over="ignore"):  # 1/mass past DBL_MAX is inf, as in Python
        u_star = field.table.inverse_upper(1.0 / field._weights).tolist()
    cap_list = [max(b, u_star[i]) for i in carrier]
    caps = {grid.ids[i]: cap for i, cap in zip(carrier, cap_list)}
    sigma2 = max(field.table.half_ratio_sup(carrier, a, cap_list).tolist(), default=0.0)
    if not sigma2 < 1.0:
        raise WitnessConstructionError("halving ratio reached one at the caps")
    sigma0 = sigma2
    eta = _flat_modular(field, a, carrier)
    delta_mod = (1.0 - sigma0) * eta / 4.0

    # margin: largest stretch up to b/a keeping the modular within delta of one
    stretch = float(gauge_block(field, np.abs([x.values]), 1.0 + delta_mod, 0.0)[0][0])
    t_lo = min(stretch, b / a) - 1.0
    if t_lo <= 0.0:  # pragma: no cover - modular is continuous at x
        raise WitnessConstructionError("no admissible stretch margin")
    eps = t_lo / 2.0
    delta = eps / (1.0 + eps)
    if delta <= _SLACK:
        raise WitnessConstructionError(
            f"{record['mode']} witness margin {delta!r} is within verify_nonsquare's "
            f"allowance {_SLACK!r}"
        )
    record.update(
        {
            "caps": caps,
            "sigma2": sigma2,
            "sigma0": sigma0,
            "eta": eta,
            "gamma": 0.0,
            "delta_modular": delta_mod,
            "eps": eps,
        }
    )
    return NonsquareWitness(x=x, delta=delta, construction=record)


def _nonsquare_directions(field: MusielakField, x: np.ndarray, samples: int, rng, chunk: int):
    """Nonzero test directions in draw order, as blocks of ``chunk`` rows.

    Adversarial ones first (x, -x, the atoms, the sign pattern of x and its
    alternating flip, the bounded profile), then seeded normal draws, a
    quarter of them masked to about half the cells, until ``samples``
    directions are out.  The last block may be shorter.  At most ``chunk``
    rows are built or drawn at a time; zero rows are dropped and the
    shortfall drawn next.
    """
    n = len(x)
    pattern = signs(x)
    flip = np.where(np.arange(n) % 2 == 0, pattern, -pattern)
    bounded = np.minimum(field.table.cell_b, 1.0)
    fixed = itertools.chain(
        [np.stack((x, -x))],
        atom_rows(np.ones(n), np.arange(n), n, chunk),
        [np.stack((pattern, flip, bounded))],
    )

    def nonzero_rows():
        count = 0
        for y in fixed:
            y = y[np.count_nonzero(y, axis=1) > 0]
            count += len(y)
            yield y
        while count < samples:
            y = np.empty((min(chunk, samples - count), n))
            for row in y:
                rng.standard_normal(out=row)
                if rng.random() < 0.25:
                    row[rng.random(n) >= 0.5] = 0.0
            y = y[np.count_nonzero(y, axis=1) > 0]
            count += len(y)
            yield y

    return row_blocks(nonzero_rows(), chunk)


def verify_nonsquare(
    field: MusielakField, witness: NonsquareWitness, samples: int, seed: int
):
    """Check min(|x+y|, |x-y|) <= 2 - delta on sampled and adversarial unit y.

    Each direction is scaled to the unit sphere and both Luxemburg norms are
    evaluated; the record keeps the largest minimum observed, its direction
    and the number of directions above the bound.  The directions are solved
    as blocks of rows, the unit sphere and then x+y and x-y together, of at
    most ``_BLOCK_CELLS`` cells.  A row's norm does not depend on its block,
    so this is the separate solve of x+y and then x-y, and where the joint
    solve raises, those two run to raise what they raise.  The margin delta
    must be finite and above ``_SLACK``: a violation counts only above
    2 - delta + ``_SLACK``, and min(|x+y|, |x-y|) is at most 2.
    """
    delta = witness.delta
    if not 0.0 < delta < math.inf:
        raise PreconditionError(f"nonsquare margin must be finite and positive, got {delta!r}")
    if delta <= _SLACK:
        raise PreconditionError(f"nonsquare margin {delta!r} is within the check's allowance {_SLACK!r}")
    x = np.array(witness.x.values)
    bound = 2.0 - delta
    chunk = max(1, _BLOCK_CELLS // (2 * len(x)))
    directions = _nonsquare_directions(field, x, samples, np.random.default_rng(seed), chunk)
    max_observed = 0.0
    worst = None
    checked = violations = 0
    for block in directions:
        ys = unit_sphere_points(field, block)
        pair = (x + ys, x - ys)
        try:
            norms = luxemburg_norms(field, np.concatenate(pair), tol=1e-11)
        except MospacesError:
            norms = np.concatenate([luxemburg_norms(field, p, tol=1e-11) for p in pair])
        vals = np.minimum(norms[: len(ys)], norms[len(ys) :])
        checked += len(block)
        violations += int(np.count_nonzero(vals > bound + _SLACK))
        k = int(np.argmax(vals))
        if vals[k] > max_observed:
            max_observed, worst = float(vals[k]), tuple(ys[k].tolist())
    return record_from_samples(checked, checked, bound, max_observed, violations, seed, worst)


def component_spec(field: MusielakField) -> IntSpaceSpec:
    """The field's intersection component: L1(w) on its linear cells, w their slopes,
    intersected with Linf(v) on gamma, its linear-up-to-a-bound cells, v = 1/b (1 off
    gamma).  A field with a genuinely convex cell, or none linear up to a bound, has none;
    a v of inf (a subnormal end b) is a ``WitnessConstructionError``."""
    st = field._structure
    if st.remainder.any() or not st.omega_1inf.any():
        raise PreconditionError(
            "field has no intersection component: it has a genuinely convex cell or no linear-up-to-a-bound cell"
        )
    ids = field.grid.ids
    beyond = np.isinf(st.v) & st.omega_1inf
    if beyond.any():
        raise WitnessConstructionError(
            "no intersection certificate exists at float precision: the sup weight 1/b "
            f"of {ids[beyond.argmax()]} is beyond the float range"
        )
    linear = st.omega_1 | st.omega_1inf
    sub = field.grid.subgrid(itertools.compress(ids, linear.tolist()))
    gamma = frozenset(itertools.compress(ids, st.omega_1inf.tolist()))
    v = np.where(st.omega_1inf, st.v, 1.0)
    return IntSpaceSpec(sub, gamma, tuple(st.w[linear].tolist()), tuple(v[linear].tolist()))


def classify(field: MusielakField, samples: int = 0, seed: int = 0) -> ClassificationReport:
    """Full decision tree on the field's structure record; witnesses are verified when samples > 0."""
    st = field._structure
    evidence = {
        "modular_at_bounds": st.modular_at_bounds,
        "mass_omega_inf": st.mass_omega_inf,
        "mass_omega_1": st.mass_omega_1,
        "mass_omega_1inf": st.mass_omega_1inf,
        "mass_remainder": st.mass_remainder,
        "integral_w_over_v_complement": st.collapse_integral,
    }
    # a field of indicator-type cells only collapses too, even where a blow-up
    # end value puts the modular at the domain ends above one
    if st.modular_at_bounds <= 1.0 or not (st.remainder | st.omega_1 | st.omega_1inf).any():
        return ClassificationReport(DAUGAVET, FORM_LINF, "weighted-L1(1/v)", evidence)
    witness = explanation = None
    if st.remainder.any():
        try:
            witness = build_nonsquare_witness(field)
            if samples:
                record = verify_nonsquare(field, witness, samples, seed)
                record.raise_if_failed("nonsquare witness failed its own verification: ")
                witness = replace(witness, verification=record)
        except WitnessConstructionError as exc:
            explanation = str(exc)
        return ClassificationReport(NOT_DAUGAVET, None, None, evidence, witness, explanation)
    if st.mass_omega_inf == 0.0 and st.mass_omega_1inf == 0.0:  # every cell linear on [0, inf)
        return ClassificationReport(DAUGAVET, FORM_L1, "weighted-Linf(1/w)", evidence)
    if st.mass_omega_1inf == 0.0 and st.mass_omega_inf > 0.0 and st.mass_omega_1 > 0.0:
        return ClassificationReport(
            DAUGAVET, FORM_OPLUS, "weighted-L1(1/v) oplus-1 weighted-Linf(1/w)", evidence
        )
    if st.mass_omega_1 == 0.0 and st.collapse_integral <= 1.0:
        return ClassificationReport(DAUGAVET, FORM_INTERSECTION, "weighted-L1(1/v)", evidence)
    try:
        spec = component_spec(field)
        witness = witness_int(spec, samples=samples, seed=seed)
        # the spec rides along for the reader; verify takes it from the config
        constants = dict(witness.constants, gamma=sorted(spec.gamma), w=list(spec.w), v=list(spec.v))
        witness = replace(witness, constants=constants)
    except (FloatRangeError, WitnessConstructionError) as exc:
        explanation = str(exc)
    except PreconditionError:
        # the integral above is over one, but w/v with v = 1/b rounds it to one
        explanation = (
            "no intersection certificate exists at float precision: "
            "the component's w/v integral rounds to one"
        )
    return ClassificationReport(NOT_DAUGAVET, None, None, evidence, witness, explanation)


def classify_orlicz(
    curve: OrliczCurve, grid: MeasureGrid, samples: int = 0, seed: int = 0
) -> ClassificationReport:
    """Constant-field classification; the verdict must take the two-case form."""
    report = classify(MusielakField.constant(grid, curve), samples=samples, seed=seed)
    if report.verdict == DAUGAVET and report.canonical_form not in (FORM_L1, FORM_LINF):
        raise VerificationError(
            f"constant field produced unexpected form {report.canonical_form}"
        )
    return report

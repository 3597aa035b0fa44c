"""Daugavet-property classification for Musielak-Orlicz fields.

Decision tree:

1. modular at the domain ends at most one: the space is the weighted sup
   space (collapse), verdict positive.
2. otherwise a cell with a genuine convexity region (d < b) forces a
   uniformly non-square point, verdict negative with a constructed witness.
3. remaining fields are built from indicator-type and linear-type cells
   only; the verdict follows the collapse form: weighted L1, the sup-sum of
   an L-infinity block and an L1 block, or the intersection component
   criterion with its interpolation certificate on failure.

The witness construction follows the modular-halving argument: on a cell
set where the curves are strictly convex between a and b, the halving ratio
2*phi(u/2)/phi(u) stays below a sigma < 1 up to per-cell caps that no unit
vector can exceed, which bounds min(|x+y|, |x-y|) away from 2 uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .curves import INF, OrliczCurve
from .errors import PreconditionError, VerificationError, WitnessConstructionError
from .grid import MeasureGrid, StepFunction
from .interpolation import IntSpaceSpec, witness_int
from .musielak import (
    MusielakField,
    gauge,
    luxemburg_norms,
    modular,
    modular_of_bounds,
    partition,
    unit_sphere_points,
    weights,
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


_RTOL = 1e-14  # relative bracket width of the witness constants
_BLOCK_CELLS = 1 << 16  # cells per block solve in verify_nonsquare: bounds its memory


@dataclass(frozen=True)
class NonsquareSetup:
    cells: tuple[str, ...]
    a: float
    b: float
    sigma1: float


def _flat_modular(field: MusielakField, u: float, cells) -> float:
    """Modular of the profile equal to u on ``cells`` and 0 elsewhere."""
    return math.fsum(field.curves[i].value(u) * field.grid.weights[i] for i in cells)


def _interval_point(L: float, R: float, t: float) -> float:
    """Map t in (0,1) into (L, R), handling an infinite right end."""
    if math.isfinite(R):
        return L + t * (R - L)
    return L + t / (1.0 - t)  # strictly increasing, unbounded


def find_nonsquare_setup(field: MusielakField) -> NonsquareSetup:
    """Common interval [a, b] inside (d, b) across a remainder cell set.

    Shrinks the candidate set until the intervals overlap and the modular of
    the constant-a profile fits under one, then certifies the halving-ratio
    bound sigma1 < 1 on [a, b].
    """
    prm = field.cell_params
    grid = field.grid
    work = [i for i, p in enumerate(prm) if p.d < p.b]
    if not work:
        raise PreconditionError("no cell has d < b")

    while True:
        L = max(prm[i].d for i in work)
        R = min(prm[i].b for i in work)
        if L < R:
            # walk t upward until the constant-a modular fits under 1
            t_feas = None
            t = 0.5
            for _ in range(80):
                if _flat_modular(field, _interval_point(L, R, t), work) <= 1.0:
                    t_feas = t
                    break
                t /= 2.0
            if t_feas is not None:
                a = _interval_point(L, R, t_feas / 2.0)
                b = _interval_point(L, R, t_feas * 0.75)
                sigma1 = max(
                    field.curves[i]._half_ratio_sup(a, b) for i in work
                )
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
        work.remove(max(work, key=lambda i: (prm[i].d, grid.weights[i])))


def build_nonsquare_witness(field: MusielakField) -> NonsquareWitness:
    """Unit vector x and margin delta with min(|x+y|, |x-y|) <= 2 - delta.

    Splits on whether an unbounded-domain cell is available outside the
    carrier set (top-up by a flat block there) or all domains are bounded
    (top-up by a scaled copy of the domain ends).  All constants are
    deterministic and recorded for audit.
    """
    rho_b = modular_of_bounds(field)
    prm = field.cell_params
    grid = field.grid
    idx = grid.index
    if rho_b <= 1.0:
        raise PreconditionError("space collapses to the weighted sup norm")
    if all(p.d >= p.b for p in prm):
        raise PreconditionError("no cell has d < b")
    setup = find_nonsquare_setup(field)
    a, b = setup.a, setup.b
    carrier = [idx[cid] for cid in setup.cells]
    s_cells = [i for i in range(len(grid)) if math.isinf(prm[i].b)]
    x_vals = [0.0] * len(grid)
    record = {
        "carrier": list(setup.cells),
        "a": a,
        "b": b,
        "sigma1": setup.sigma1,
    }

    exact_fill = False
    if s_cells:
        outside = [i for i in s_cells if i not in carrier]
        if not outside:
            non_s = [i for i in carrier if i not in s_cells]
            if non_s:
                carrier = non_s
            elif len(carrier) >= 2:
                dropped = max(carrier, key=lambda i: field.curves[i].value(a) * grid.weights[i])
                carrier = [i for i in carrier if i != dropped]
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
                d0 = field.curves[top_up].inverse_upper(
                    residual / grid.weights[top_up]
                )
                x_vals[top_up] = d0
            record.update({"mode": "flat-top-up", "top_up_cell": grid.ids[top_up], "d0": d0})
        else:
            # single unbounded-domain carrier cell: raise a until the modular is one
            a = gauge(field, [float(i in carrier) for i in range(len(grid))], 1.0, _RTOL)[0]
            b = 2.0 * a
            record.update({"mode": "exact-fill", "a": a, "b": b})
    else:
        # every domain bounded: the complement must carry modular above one
        while carrier:
            comp = [i for i in range(len(grid)) if i not in carrier]
            comp_rho = modular_of_bounds(field, [grid.ids[i] for i in comp])
            if comp_rho > 1.0:
                break
            dropped = max(carrier, key=lambda i: field.curves[i].value(a) * grid.weights[i])
            carrier = [i for i in carrier if i != dropped]
        if not carrier:
            raise WitnessConstructionError(
                "cannot keep modular above one outside the carrier set"
            )
        comp = [i for i in range(len(grid)) if i not in carrier]
        comp_bounds = [0.0 if i in carrier else p.b for i, p in enumerate(prm)]
        comp_profile = StepFunction(grid, tuple(comp_bounds))

        c1 = None
        for j in range(1, 60):
            cand = 1.0 - 2.0**-j
            val = modular(field, cand * comp_profile)
            if math.isfinite(val) and val > 1.0:
                c1 = cand
                break
        if c1 is None:
            raise WitnessConstructionError(
                "no scale below the domain ends keeps the modular above one "
                "(blow-up end values on this grid)"
            )
        residual = 1.0 - _flat_modular(field, a, carrier)
        if residual > 0.0:
            # largest scale of the domain ends whose modular fits the residual
            scale = gauge(field, comp_bounds, residual, _RTOL)[0]
            c2 = c1 / scale - 1.0
            for i in comp:
                x_vals[i] = scale * prm[i].b
            record.update({"mode": "bounded-top-up", "c1": c1, "c2": c2, "scale": scale})
        else:
            record.update({"mode": "bounded-no-top-up"})

    for i in carrier:
        x_vals[i] = a
    record["carrier"] = [grid.ids[i] for i in carrier]
    record["a"], record["b"] = a, b
    x = StepFunction(grid, tuple(x_vals))
    rho_x = modular(field, x)
    if abs(rho_x - 1.0) > 1e-9:
        raise WitnessConstructionError(f"witness modular is {rho_x}, expected 1")

    # halving-ratio bound up to per-cell caps no unit vector can exceed; the
    # cap interval contains [a, b], so sigma2 alone covers both uses
    sigma2 = 0.0
    caps = {}
    for i in carrier:
        u_star = field.curves[i].inverse_upper(1.0 / grid.weights[i])
        cap = max(b, u_star)
        caps[grid.ids[i]] = cap
        sigma2 = max(sigma2, field.curves[i]._half_ratio_sup(a, cap))
    if not sigma2 < 1.0:
        raise WitnessConstructionError("halving ratio reached one at the caps")
    sigma0 = sigma2
    eta = _flat_modular(field, a, carrier)
    delta_mod = (1.0 - sigma0) * eta / 4.0

    # margin: largest stretch up to b/a keeping the modular within delta of one
    stretch = gauge(field, [abs(v) for v in x.values], 1.0 + delta_mod, _RTOL)[0]
    t_lo = min(stretch, b / a) - 1.0
    if t_lo <= 0.0:  # pragma: no cover - modular is continuous at x
        raise WitnessConstructionError("no admissible stretch margin")
    eps = t_lo / 2.0
    delta = eps / (1.0 + eps)
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


def _nonsquare_directions(field: MusielakField, x: np.ndarray, samples: int, rng):
    """Nonzero test directions in draw order.

    Adversarial ones first (x, -x, the atoms, the sign pattern of x and its
    alternating flip, the bounded profile), then seeded normal draws, a
    quarter of them masked to about half the cells, until ``samples``
    directions are out.
    """
    n = len(x)
    signs = np.where(x >= 0.0, 1.0, -1.0)
    bounded = [min(p.b, 1.0) if math.isfinite(p.b) else 1.0 for p in field.cell_params]
    adversarial = chain(
        (x, -1.0 * x),
        (np.eye(1, n, i)[0] for i in range(n)),
        (signs, np.where(np.arange(n) % 2 == 0, signs, -signs), np.array(bounded)),
    )
    count = 0
    for y in adversarial:
        if y.any():
            count += 1
            yield y
    while count < samples:
        y = rng.standard_normal(n)
        if rng.uniform() < 0.25:
            y = np.where(rng.uniform(size=n) < 0.5, y, 0.0)
        if y.any():
            count += 1
            yield y


def verify_nonsquare(
    field: MusielakField, witness: NonsquareWitness, samples: int, seed: int
):
    """Check min(|x+y|, |x-y|) <= 2 - delta on sampled and adversarial unit y.

    Each direction is scaled to the unit sphere and both Luxemburg norms are
    evaluated; the record keeps the largest minimum observed, its direction
    and the number of directions above the bound.  The directions are solved
    as blocks of rows (unit sphere, then x+y and x-y) in chunks of
    ``_BLOCK_CELLS`` cells.
    """
    x = np.array(witness.x.values)
    bound = 2.0 - witness.delta
    directions = _nonsquare_directions(field, x, samples, np.random.default_rng(seed))
    chunk = max(1, _BLOCK_CELLS // len(x))
    max_observed = 0.0
    worst = None
    checked = violations = 0
    while block := list(islice(directions, chunk)):
        ys = unit_sphere_points(field, np.array(block))
        vals = np.minimum(
            luxemburg_norms(field, x + ys, tol=1e-11), luxemburg_norms(field, x - ys, tol=1e-11)
        )
        checked += len(block)
        violations += int(np.count_nonzero(vals > bound + 1e-9))
        k = int(np.argmax(vals))
        if vals[k] > max_observed:
            max_observed, worst = float(vals[k]), tuple(ys[k].tolist())
    return record_from_samples(checked, checked, bound, max_observed, violations, seed, worst)


def no_nonsquare_probe(norm, grid: MeasureGrid, candidates, samples: int, seed: int):
    """Best value of min(|x+y|, |x-y|) found per candidate unit x.

    A lower bound on 2 - delta_best: values near 2 mean the point is not
    uniformly non-square as far as the search can tell.
    """
    rng = np.random.default_rng(seed)
    n = len(grid)
    results = []
    for x in candidates:
        nx = norm(x)
        if nx == 0.0:
            raise PreconditionError("candidate points must be nonzero")
        x = (1.0 / nx) * x
        best = 0.0
        pool = []
        for i in range(n):
            pool.append(StepFunction.atom(grid, grid.ids[i]))
            pool.append(StepFunction.atom(grid, grid.ids[i], -1.0))
        pool.append(x)
        pool.append(-1.0 * x)
        signs = tuple(1.0 if v >= 0 else -1.0 for v in x.values)
        pool.append(StepFunction(grid, signs))
        pool.append(StepFunction(grid, tuple(-s for s in signs)))
        for i in range(n):  # single-flip sign patterns reach sup-norm extremes
            flipped = tuple(-s if j == i else s for j, s in enumerate(signs))
            pool.append(StepFunction(grid, flipped))
        drawn = len(pool)
        while drawn < samples:
            pool.append(StepFunction(grid, tuple(rng.standard_normal(n))))
            drawn += 1
        best_y = None
        for y in pool:
            ny = norm(y)
            if ny == 0.0:
                continue
            y = (1.0 / ny) * y
            val = min(norm(x + y), norm(x - y))
            if val > best:
                best, best_y = val, y
        # greedy coordinate polish around the best direction found
        if best_y is not None:
            step = 0.5
            for _ in range(12):
                improved = False
                for i in range(n):
                    for sgn in (1.0, -1.0):
                        cand_vals = list(best_y.values)
                        cand_vals[i] += sgn * step
                        cand = StepFunction(grid, tuple(cand_vals))
                        ncand = norm(cand)
                        if ncand == 0.0:
                            continue
                        cand = (1.0 / ncand) * cand
                        val = min(norm(x + cand), norm(x - cand))
                        if val > best:
                            best, best_y = val, cand
                            improved = True
                if not improved:
                    step /= 2.0
        results.append(best)
    return results


def _component_int_spec(field: MusielakField, part, wp) -> IntSpaceSpec:
    """Intersection-space view of the non-indicator block of the grid."""
    comp_ids = sorted(
        part.omega_1 | part.omega_1inf, key=field.grid.index.__getitem__
    )
    sub = field.grid.subgrid(comp_ids)
    w_vals, v_vals = [], []
    for cid in sub.ids:
        i = field.grid.index[cid]
        w_vals.append(wp.w.values[i])
        v_vals.append(wp.v.values[i] if cid in part.omega_1inf else 1.0)
    return IntSpaceSpec(
        sub, frozenset(part.omega_1inf), tuple(w_vals), tuple(v_vals)
    )


def classify(field: MusielakField, samples: int = 0, seed: int = 0) -> ClassificationReport:
    """Full decision tree; witnesses are verified when samples > 0."""
    grid = field.grid
    part = partition(field)
    wp = weights(field)
    rho_b = modular_of_bounds(field)
    mass = {
        "omega_inf": grid.measure(part.omega_inf),
        "omega_1": grid.measure(part.omega_1),
        "omega_1inf": grid.measure(part.omega_1inf),
        "remainder": grid.measure(part.remainder),
    }
    ratio_int = math.fsum(
        wp.w.values[i] * field.cell_params[i].b * grid.weights[i]
        for i, cid in enumerate(grid.ids)
        if cid in part.omega_1inf
    )
    if part.omega_1:
        ratio_int = INF  # unbounded domains make the comparison integral blow up
    evidence = {
        "modular_at_bounds": rho_b,
        "mass_omega_inf": mass["omega_inf"],
        "mass_omega_1": mass["omega_1"],
        "mass_omega_1inf": mass["omega_1inf"],
        "mass_remainder": mass["remainder"],
        "integral_w_over_v_complement": ratio_int,
    }

    if rho_b <= 1.0:
        return ClassificationReport(
            DAUGAVET, FORM_LINF, "weighted-L1(1/v)", evidence
        )
    if part.remainder:
        witness = None
        explanation = None
        try:
            witness = build_nonsquare_witness(field)
            if samples:
                record = verify_nonsquare(field, witness, samples, seed)
                if not record.passed:
                    raise VerificationError(
                        f"nonsquare witness failed its own verification: {record.violations} "
                        f"violations (max {record.max_observed} against bound {record.bound})"
                    )
                witness = replace(witness, verification=record)
        except WitnessConstructionError as exc:
            explanation = str(exc)
        return ClassificationReport(
            NOT_DAUGAVET, None, None, evidence, witness, explanation
        )
    if mass["omega_inf"] == 0.0 and mass["omega_1inf"] == 0.0:
        # every cell linear on [0, inf)
        return ClassificationReport(DAUGAVET, FORM_L1, "weighted-Linf(1/w)", evidence)
    if mass["omega_1inf"] == 0.0 and mass["omega_inf"] > 0.0 and mass["omega_1"] > 0.0:
        return ClassificationReport(
            DAUGAVET,
            FORM_OPLUS,
            "weighted-L1(1/v) oplus-1 weighted-Linf(1/w)",
            evidence,
        )
    if not (part.omega_1 | part.omega_1inf):
        # indicator-type cells only, but with blow-up end values (otherwise
        # the modular at the bounds would have been at most one)
        return ClassificationReport(
            DAUGAVET, FORM_LINF, "weighted-L1(1/v)", evidence
        )
    # internal cross-check: on linear-up-to-b cells the comparison integral
    # equals the modular of the closed domain ends
    check = math.fsum(
        field.curves[i].value_closed(field.cell_params[i].b) * grid.weights[i]
        for i, cid in enumerate(grid.ids)
        if cid in part.omega_1inf
    )
    if math.isfinite(ratio_int) and abs(check - ratio_int) > 1e-9 * max(1.0, ratio_int):
        raise VerificationError(
            f"weight bookkeeping broken: {check} vs {ratio_int}"
        )
    if mass["omega_1"] == 0.0 and ratio_int <= 1.0:
        return ClassificationReport(
            DAUGAVET, FORM_INTERSECTION, "weighted-L1(1/v)", evidence
        )
    spec = _component_int_spec(field, part, wp)
    witness = None
    explanation = None
    try:
        witness = witness_int(spec, samples=samples, seed=seed)
        # the certificate lives on the component space; embed its spec so it
        # can be re-verified from the certificate alone
        constants = dict(witness.constants)
        constants.update(
            {"gamma": sorted(spec.gamma), "w": list(spec.w), "v": list(spec.v)}
        )
        witness = replace(witness, constants=constants)
    except (PreconditionError, WitnessConstructionError) as exc:
        explanation = str(exc)
    return ClassificationReport(
        NOT_DAUGAVET, None, None, evidence, witness, explanation
    )


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

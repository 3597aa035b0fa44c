"""Weighted sum and intersection spaces built from L1 and Linf pieces.

The sum space carries inf{|y|_inf,w + |z|_1,v : x = y + z with z supported
in gamma}; the infimum is a convex piecewise-linear function of the sup
level of y, minimised exactly by a breakpoint scan.  The intersection space
carries the max of a weighted L1 norm and a weighted sup norm over gamma.
Each is the Koethe dual of the other with reciprocal weights.

Classification follows the collapse criteria: the sum space has the
Daugavet-style geometry exactly when gamma exhausts the grid and the
integral of v/w is at most one (it then *is* the weighted L1 space), and
dually for the intersection space.  When classification fails, the module
builds explicit failure certificates: a unit vector, a norm-one functional
and a margin epsilon such that every slice member keeps |x+y| (or the dual
sum) below 2 - epsilon; certificates are re-checked by seeded sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import GridMismatchError, PreconditionError, VerificationError, WitnessConstructionError
from .grid import CellSet, MeasureGrid, StepFunction, pairing
from .reports import (
    DAUGAVET,
    FORM_L1,
    FORM_LINF,
    NOT_DAUGAVET,
    ClassificationReport,
    FailureCertificate,
    record_from_samples,
)

_SLACK = 1e-12  # float allowance when comparing against certified bounds


def _validate_spec(spec):
    """Resolve gamma, then check the weights in field order: v > 0 on gamma, w > 0."""
    grid = spec.grid
    gamma = grid.cell_set(spec.gamma)
    object.__setattr__(spec, "gamma", gamma)
    if not gamma:
        raise ValueError("gamma must have positive measure")
    for f in fields(spec)[2:]:
        vals = tuple(float(t) for t in getattr(spec, f.name))
        if len(vals) != len(grid):
            raise GridMismatchError("weight count must equal cell count")
        for cid, t in zip(grid.ids, vals):
            if (f.name == "w" or cid in gamma) and not (t > 0.0 and math.isfinite(t)):
                raise ValueError(f"weight on {cid} must be positive finite, got {t}")
        object.__setattr__(spec, f.name, vals)


@dataclass(frozen=True)
class SumSpaceSpec:
    """L_inf(w) over the grid plus L_1(v) supported in gamma."""

    grid: MeasureGrid
    gamma: CellSet
    v: tuple[float, ...]  # L1 weight, positive on gamma
    w: tuple[float, ...]  # sup weight, positive everywhere

    def __post_init__(self):
        _validate_spec(self)

    def reciprocal_int(self) -> "IntSpaceSpec":
        """The Koethe-dual intersection space (reciprocal weights)."""
        return IntSpaceSpec(
            self.grid,
            self.gamma,
            tuple(1.0 / t for t in self.w),
            tuple(1.0 / t if t > 0 else 1.0 for t in self.v),
        )


@dataclass(frozen=True)
class IntSpaceSpec:
    """L_1(w) over the grid intersected with L_inf(v) over gamma."""

    grid: MeasureGrid
    gamma: CellSet
    w: tuple[float, ...]  # L1 weight, positive everywhere
    v: tuple[float, ...]  # sup weight, positive on gamma

    def __post_init__(self):
        _validate_spec(self)

    def reciprocal_sum(self) -> SumSpaceSpec:
        """The Koethe-dual sum space (reciprocal weights)."""
        return SumSpaceSpec(
            self.grid,
            self.gamma,
            tuple(1.0 / t if t > 0 else 1.0 for t in self.v),
            tuple(1.0 / t for t in self.w),
        )


def _check(spec, x: StepFunction):
    if x.grid != spec.grid:
        raise GridMismatchError("step function not defined on the spec's grid")


def wsum_norm(spec: SumSpaceSpec, x: StepFunction) -> float:
    """Exact sum-space norm by breakpoint scan.

    Parametrise by c, the sup level of the bounded part: feasibility forces
    c >= max over cells outside gamma of |x|*w, and the objective
    c + sum_gamma v*mu*max(|x| - c/w, 0) is convex piecewise linear with
    breakpoints at the |x|*w levels.
    """
    _check(spec, x)
    grid = spec.grid
    ax = [abs(t) for t in x.values]
    in_gamma = [cid in spec.gamma for cid in grid.ids]
    c_floor = 0.0
    for i, inside in enumerate(in_gamma):
        if not inside:
            c_floor = max(c_floor, ax[i] * spec.w[i])
    candidates = {c_floor}
    for i, inside in enumerate(in_gamma):
        if inside:
            lvl = ax[i] * spec.w[i]
            if lvl >= c_floor:
                candidates.add(lvl)

    def objective(c):
        terms = [c]
        for i, inside in enumerate(in_gamma):
            if inside:
                excess = ax[i] - c / spec.w[i]
                if excess > 0.0:
                    terms.append(spec.v[i] * grid.weights[i] * excess)
        return math.fsum(terms)

    return min(objective(c) for c in candidates)


def wint_norm(spec: IntSpaceSpec, x: StepFunction) -> float:
    """max of the weighted L1 norm and the weighted sup norm over gamma."""
    _check(spec, x)
    grid = spec.grid
    l1 = math.fsum(
        abs(t) * u * m for t, u, m in zip(x.values, spec.w, grid.weights)
    )
    sup = 0.0
    for cid, t, u in zip(grid.ids, x.values, spec.v):
        if cid in spec.gamma:
            sup = max(sup, abs(t) * u)
    return max(l1, sup)


def sum_dual_norm(spec: SumSpaceSpec, f: StepFunction) -> float:
    """Norm of the integral functional induced by f on the sum space.

    On a finite grid there is no singular part, so this is the max of the
    reciprocal-weight sup norm over gamma and the reciprocal-weight L1 norm.
    """
    return wint_norm(spec.reciprocal_int(), f)


def int_dual_norm(spec: IntSpaceSpec, f: StepFunction) -> float:
    """Norm of the integral functional induced by f on the intersection space."""
    return wsum_norm(spec.reciprocal_sum(), f)


def _collapse_evidence(spec, num, den) -> tuple[float, float]:
    """Mass outside gamma and the integral of num/den over gamma.

    The sum space passes (v, w), the intersection space (w, v).
    """
    grid = spec.grid
    comp_mass = grid.measure(frozenset(grid.ids) - spec.gamma)
    ratio = math.fsum(
        num[i] / den[i] * grid.weights[i]
        for i, cid in enumerate(grid.ids)
        if cid in spec.gamma
    )
    return comp_mass, ratio


def order_continuity_check(spec: SumSpaceSpec) -> tuple[bool, dict]:
    """Order continuity criterion: gamma exhausts the grid and v/w integrates.

    The integral clause is always finite on a finite grid, so the verdict
    reduces to the complement of gamma having measure zero; both numbers are
    returned as evidence.
    """
    comp_mass, ratio = _collapse_evidence(spec, spec.v, spec.w)
    return comp_mass == 0.0, {"complement_mass": comp_mass, "integral_v_over_w": ratio}


def _classify_pair(spec, num, den, ratio_key, form, dual_form, witness, samples, seed):
    """Collapse to ``form`` when the evidence allows, else try ``witness``."""
    comp_mass, ratio = _collapse_evidence(spec, num, den)
    evidence = {"complement_mass": comp_mass, ratio_key: ratio}
    if comp_mass == 0.0 and ratio <= 1.0:
        return ClassificationReport(DAUGAVET, form, dual_form, evidence)
    try:
        cert = witness(spec, samples=samples, seed=seed)
    except (PreconditionError, WitnessConstructionError) as exc:
        return ClassificationReport(NOT_DAUGAVET, None, None, evidence, explanation=str(exc))
    return ClassificationReport(NOT_DAUGAVET, None, None, evidence, cert)


def classify_sum(spec: SumSpaceSpec, samples: int = 0, seed: int = 0) -> ClassificationReport:
    """Daugavet-style verdict for the sum space.

    The space collapses to the weighted L1 space exactly when gamma covers
    the grid and the integral of v/w is at most one; otherwise a failure
    certificate is attached when constructible on this grid.
    """
    return _classify_pair(
        spec, spec.v, spec.w, "integral_v_over_w", FORM_L1,
        "weighted-Linf(1/v) ∩ weighted-L1(1/w)", witness_sum, samples, seed,
    )


def classify_int(spec: IntSpaceSpec, samples: int = 0, seed: int = 0) -> ClassificationReport:
    """Daugavet-style verdict for the intersection space (collapse to sup norm)."""
    return _classify_pair(
        spec, spec.w, spec.v, "integral_w_over_v", FORM_LINF,
        "weighted-Linf(1/w) + weighted-L1(1/v)", witness_int, samples, seed,
    )


# --------------------------------------------------------------------------
# failure witnesses


def witness_sum(spec: SumSpaceSpec, samples: int = 0, seed: int = 0) -> FailureCertificate:
    """Failure certificate for the sum space (order-continuous case).

    Requires gamma to cover the grid and the v/w integral to exceed 1; the
    non-order-continuous case needs singular functionals, which do not exist
    on a finite grid, and is refused.  The construction picks a cell A whose
    mass is dominated by w/v (so the normalised indicator has norm one), a
    set C on which -b*v has dual norm one, and a margin epsilon from the
    admissible interval; every dual-slice element h then keeps the dual norm
    of h + g at or below 2 - epsilon.
    """
    grid = spec.grid
    comp_mass, ratio = _collapse_evidence(spec, spec.v, spec.w)
    if comp_mass > 0.0:
        raise PreconditionError(
            "failure witness needs a non-order-continuous space here, which "
            "requires singular functionals; not representable on a finite grid"
        )
    if ratio <= 1.0:
        raise PreconditionError("space collapses to the weighted L1 space")

    # A = single cell with mass at most w/v there (mass*v <= w)
    best_i, best_score = None, 0.0
    for i in range(len(grid)):
        score = spec.w[i] / (spec.v[i] * grid.weights[i])
        if score > best_score:
            best_i, best_score = i, score
    if best_score < 1.0:
        raise WitnessConstructionError(
            "every cell has mass*v above w; the construction needs a smaller cell"
        )
    i0 = best_i
    mu_a = grid.weights[i0]
    cell_a = grid.ids[i0]
    x_vals = [0.0] * len(grid)
    x_vals[i0] = 1.0 / (mu_a * spec.v[i0])
    x = StepFunction(grid, tuple(x_vals))
    f0 = StepFunction(
        grid, tuple(spec.v[i] if i == i0 else 0.0 for i in range(len(grid)))
    )

    # C from A upward until the v/w integral lands in (1, 2]
    contrib = [spec.v[i] / spec.w[i] * grid.weights[i] for i in range(len(grid))]
    chosen = [i0]
    total = contrib[i0]
    if ratio <= 2.0:
        chosen = list(range(len(grid)))
        total = ratio
    else:
        for i in sorted(range(len(grid)), key=lambda j: contrib[j]):
            if i == i0:
                continue
            if total > 1.0:
                break
            chosen.append(i)
            total += contrib[i]
        if not (1.0 < total <= 2.0):
            raise WitnessConstructionError(
                "cannot reach a v/w integral in (1, 2] by whole cells"
            )
    b = 1.0 / total
    g = StepFunction(
        grid,
        tuple(-b * spec.v[i] if i in set(chosen) else 0.0 for i in range(len(grid))),
    )

    c = 2.0
    # alpha <= v and w <= beta on A; with a single cell both hold exactly
    q = mu_a * spec.v[i0] / spec.w[i0]
    eps = 0.5 * min(q / (1.0 + q) / c, (1.0 - b) / c)

    cert = FailureCertificate(
        kind="sum-case",
        x=x,
        functional=f0,
        epsilon=eps,
        second_functional=g,
        constants={
            "cell_a": cell_a,
            "mass_a": mu_a,
            "set_c": [grid.ids[i] for i in chosen],
            "b": b,
            "c": c,
            "q": q,
            "integral_v_over_w": ratio,
            "integral_on_c": total,
        },
    )
    _assert_unit(wsum_norm(spec, x), "witness point")
    _assert_unit(sum_dual_norm(spec, g), "fixed dual element")
    _assert_unit(sum_dual_norm(spec, f0), "norming functional")
    if samples:
        record = verify_sum_certificate(spec, cert, samples, seed)
        if not record.passed:
            raise VerificationError(
                f"sum certificate failed its own verification: {record}"
            )
        cert = replace(cert, verification=record)
    return cert


def witness_int(spec: IntSpaceSpec, samples: int = 0, seed: int = 0) -> FailureCertificate:
    """Failure certificate for the intersection space.

    Case gamma proper: a two-block unit vector and the functional carried by
    A keep every slice member from pushing |x+y| past 2 - epsilon.  Case
    gamma = grid with w/v integral above one: the functional sits on a
    proper sub-block of mass at least one, with epsilon from the re-derived
    admissible interval 2c(1-c*I1)/(1+c).
    """
    grid = spec.grid
    comp_mass, ratio = _collapse_evidence(spec, spec.w, spec.v)
    if comp_mass == 0.0 and ratio <= 1.0:
        raise PreconditionError("space collapses to the weighted sup norm")
    contrib = {
        cid: spec.w[i] / spec.v[i] * grid.weights[i]
        for i, cid in enumerate(grid.ids)
        if cid in spec.gamma
    }
    idx = grid.index

    if comp_mass > 0.0:
        complement = frozenset(grid.ids) - spec.gamma
        c = 0.5
        cell_a = min(contrib, key=contrib.get)
        if contrib[cell_a] >= 1.0:
            raise WitnessConstructionError(
                "every cell in gamma carries a w/v integral of at least one"
            )
        gamma_const = c * contrib[cell_a]
        w_comp = math.fsum(
            spec.w[i] * grid.weights[i]
            for i, cid in enumerate(grid.ids)
            if cid in complement
        )
        c2 = (1.0 - gamma_const) / w_comp
        x_vals = [0.0] * len(grid)
        x_vals[idx[cell_a]] = c / spec.v[idx[cell_a]]
        for cid in complement:
            x_vals[idx[cid]] = c2
        x = StepFunction(grid, tuple(x_vals))
        f_vals = [0.0] * len(grid)
        f_vals[idx[cell_a]] = -(c / gamma_const) * spec.w[idx[cell_a]]
        f = StepFunction(grid, tuple(f_vals))
        eps = 0.5 * (2.0 * gamma_const * (1.0 - c)) / (1.0 - c + 2.0 * gamma_const)
        constants = {
            "case": "gamma-proper",
            "cell_a": cell_a,
            "set_a2": sorted(complement),
            "c": c,
            "gamma_const": gamma_const,
            "c2": c2,
        }
    else:
        # gamma covers the grid; pick A = smallest prefix with integral > 1,
        # then a proper prefix A1 of A with integral in [1, I_A)
        order = sorted(contrib, key=contrib.get, reverse=True)
        set_a, i_a = [], 0.0
        for cid in order:
            set_a.append(cid)
            i_a += contrib[cid]
            if i_a > 1.0:
                break
        while True:
            set_a1, i_1 = [], 0.0
            for cid in set_a:
                set_a1.append(cid)
                i_1 += contrib[cid]
                if i_1 >= 1.0:
                    break
            if i_1 >= 1.0 and len(set_a1) < len(set_a):
                break
            extras = [cid for cid in order if cid not in set_a]
            if not extras:
                raise WitnessConstructionError(
                    "no proper sub-block of gamma reaches a w/v integral of one"
                )
            set_a.append(extras[0])
            i_a += contrib[extras[0]]
        c = 1.0 / i_a
        x_vals = [0.0] * len(grid)
        for cid in set_a:
            x_vals[idx[cid]] = c / spec.v[idx[cid]]
        x = StepFunction(grid, tuple(x_vals))
        f_vals = [0.0] * len(grid)
        for cid in set_a1:
            f_vals[idx[cid]] = -spec.w[idx[cid]]
        f = StepFunction(grid, tuple(f_vals))
        eps = 0.5 * min(2.0 * c * (1.0 - c * i_1) / (1.0 + c), 1.0 - c)
        constants = {
            "case": "gamma-full",
            "set_a": set_a,
            "set_a1": set_a1,
            "c": c,
            "integral_a": i_a,
            "integral_a1": i_1,
        }

    cert = FailureCertificate(
        kind="intersection-case",
        x=x,
        functional=f,
        epsilon=eps,
        constants=constants,
    )
    _assert_unit(wint_norm(spec, x), "witness point")
    _assert_unit(int_dual_norm(spec, f), "slice functional")
    if samples:
        record = verify_int_certificate(spec, cert, samples, seed)
        if not record.passed:
            raise VerificationError(
                f"intersection certificate failed its own verification: {record}"
            )
        cert = replace(cert, verification=record)
    return cert


def _assert_unit(value: float, label: str):
    if abs(value - 1.0) > 1e-9:
        raise WitnessConstructionError(f"{label} has norm {value}, expected 1")


# --------------------------------------------------------------------------
# certificate verification by seeded sampling


def _verify_slice_bound(
    grid, center, extremal_seed, norm, func, deviation, eps, samples, seed
):
    """Common slice-verification loop.

    Draws unit vectors in the slice {func > 1 - eps} (deterministic
    extremal candidates first, then center-blended and raw random points)
    and records the maximum of ``deviation`` against the bound 2 - eps.
    """
    rng = np.random.default_rng(seed)
    bound = 2.0 - eps
    n = len(grid)
    max_observed = 0.0
    worst = None
    violations = 0
    accepted = 0
    drawn = 0

    def consider(y):
        nonlocal max_observed, worst, violations, accepted
        nrm = norm(y)
        if nrm == 0.0:
            return
        y = (1.0 / nrm) * y
        if func(y) > 1.0 - eps:
            accepted += 1
            val = deviation(y)
            if val > max_observed:
                max_observed, worst = val, y.values
            if val > bound + _SLACK:
                violations += 1

    for y in _adversarial_candidates(grid, extremal_seed, center):
        drawn += 1
        consider(y)
    cap = 50 * samples + 1000
    while accepted < samples and drawn < cap:
        drawn += 1
        if drawn % 7 == 0:
            y = StepFunction(grid, tuple(rng.standard_normal(n)))
        else:
            t = rng.uniform(0.0, eps / 2.0)
            noise = StepFunction(grid, tuple(rng.standard_normal(n)))
            nrm = norm(noise)
            if nrm == 0.0:
                continue
            y = (1.0 - t) * center + (t / nrm) * noise
        consider(y)
    return record_from_samples(
        drawn, accepted, bound, max_observed, violations, seed, worst
    )


def verify_int_certificate(
    spec: IntSpaceSpec, cert: FailureCertificate, samples: int, seed: int
):
    """Sample the primal slice and check |x+y| stays at or below 2 - eps."""
    if cert.kind != "intersection-case":
        raise PreconditionError("certificate is not for an intersection space")
    x, f = cert.x, cert.functional
    return _verify_slice_bound(
        spec.grid,
        _int_slice_center(spec, cert),
        f,
        norm=lambda y: wint_norm(spec, y),
        func=lambda y: pairing(f, y),
        deviation=lambda y: wint_norm(spec, x + y),
        eps=cert.epsilon,
        samples=samples,
        seed=seed,
    )


def verify_sum_certificate(
    spec: SumSpaceSpec, cert: FailureCertificate, samples: int, seed: int
):
    """Sample the dual slice through x and check the dual norm of h + g."""
    if cert.kind != "sum-case":
        raise PreconditionError("certificate is not for a sum space")
    x, f0, g = cert.x, cert.functional, cert.second_functional
    return _verify_slice_bound(
        spec.grid,
        f0,
        x,
        norm=lambda h: sum_dual_norm(spec, h),
        func=lambda h: pairing(h, x),
        deviation=lambda h: sum_dual_norm(spec, h + g),
        eps=cert.epsilon,
        samples=samples,
        seed=seed,
    )


def _int_slice_center(spec: IntSpaceSpec, cert: FailureCertificate):
    """A unit vector with functional value 1 (the proof's extremal point)."""
    grid = spec.grid
    idx = grid.index
    consts = cert.constants
    vals = [0.0] * len(grid)
    if consts.get("case") == "gamma-proper":
        i = idx[consts["cell_a"]]
        vals[i] = -1.0 / spec.v[i]
    else:
        for cid in consts["set_a1"]:
            i = idx[cid]
            vals[i] = -1.0 / spec.v[i]
    return StepFunction(grid, tuple(vals))


def _adversarial_candidates(grid, aligned_to, center):
    """Deterministic extremal candidates: the center, atoms, sign patterns."""
    yield center
    yield -1.0 * center
    n = len(grid)
    for i in range(n):
        vals = [0.0] * n
        vals[i] = 1.0
        yield StepFunction(grid, tuple(vals))
        vals[i] = -1.0
        yield StepFunction(grid, tuple(vals))
    signs = tuple(1.0 if t >= 0 else -1.0 for t in aligned_to.values)
    yield StepFunction(grid, signs)
    yield StepFunction(grid, tuple(-s for s in signs))

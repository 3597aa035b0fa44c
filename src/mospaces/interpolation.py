"""Weighted sum and intersection spaces built from L1 and Linf pieces.

The sum space carries inf{|y|_inf,w + |z|_1,v : x = y + z with z supported
in gamma}; the infimum is a convex piecewise-linear function of the sup
level of y, minimised exactly by a breakpoint scan.  The intersection space
carries the max of a weighted L1 norm and a weighted sup norm over gamma.
Each is the Koethe dual of the other with reciprocal weights.  A valid
weight whose reciprocal is beyond the float range (a subnormal w, or v on
gamma) has no dual spec: forming it raises ``FloatRangeError`` naming that
reciprocal, which ``norm`` and ``conjugate`` report as a precondition
failure and ``classify`` as its explanation.  A spec works out three values
once, on first use, and every reader takes them from it: its gamma mask in
grid order (``on_gamma``, the one test of which cells lie in gamma), its
collapse evidence (``evidence``) and its Koethe dual (``dual``).

Classification follows the collapse criteria: the sum space has the
Daugavet-style geometry exactly when gamma exhausts the grid and the
integral of v/w is at most one (it then *is* the weighted L1 space), and
dually for the intersection space.  When classification fails, the module
builds explicit failure certificates: a unit vector, a norm-one functional
and a margin epsilon such that every slice member keeps |x+y| (or the dual
sum) below 2 - epsilon; certificates are re-checked by seeded sampling.
The dual unit ball of the sum space is the unit ball of the intersection
space with reciprocal weights, so a sum certificate is checked as a primal
slice of that space: every check evaluates the intersection norm.  The
sampler scores its candidates as numpy row blocks, built with the row
toolkit of ``grid``.  Each row's sum is settled by a certified bound on
numpy's row sum (``grid.RowSums``), taken from a TwoSum tree where a proved
bound certifies it (``grid.tree_sums``), or taken by one math.fsum over
the scalar norm's terms, so its records equal those of the scalar norms
bit for bit.  The public norms stay scalar.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import FloatRangeError, GridMismatchError, PreconditionError, WitnessConstructionError
from .grid import (
    CellSet,
    MeasureGrid,
    RowSums,
    StepFunction,
    atom_rows,
    finite_error,
    fsum_up,
    row_blocks,
    signs,
    weighted_l1_norm,
)
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
_BLOCK_CELLS = 1 << 14  # cells per row block in _verify_slice; bounds its memory


def _validate_spec(spec):
    """Resolve gamma, then check the weights in field order: v > 0 on gamma, w > 0."""
    grid = spec.grid
    object.__setattr__(spec, "gamma", grid.cell_set(spec.gamma))
    if not spec.gamma:
        raise ValueError("gamma must have positive measure")
    for f in fields(spec)[2:]:
        vals = tuple(float(t) for t in getattr(spec, f.name))
        if len(vals) != len(grid):
            raise GridMismatchError("weight count must equal cell count")
        for cid, on, t in zip(grid.ids, spec.on_gamma, vals):
            if (f.name == "w" or on) and not (t > 0.0 and math.isfinite(t)):
                raise ValueError(f"weight on {cid} must be positive finite, got {t}")
        object.__setattr__(spec, f.name, vals)


class _WeightedSpec:
    """What the two spec kinds share: one validation, and three values a spec
    works out once, on first use.  A kind's fields are the grid, gamma, its L1
    weight and its sup weight, in that order."""

    def __post_init__(self):
        _validate_spec(self)

    @cached_property
    def on_gamma(self) -> tuple[bool, ...]:
        """Whether each cell, in grid order, lies in gamma."""
        return tuple(cid in self.gamma for cid in self.grid.ids)

    @cached_property
    def evidence(self) -> tuple[float, float]:
        """The collapse evidence: the mass off gamma, and the integral over gamma
        of the L1 weight over the sup weight (v/w for a sum, w/v for an
        intersection), each inf where it passes DBL_MAX."""
        mu, on_gamma = self.grid.weights, self.on_gamma
        num, den = (getattr(self, f.name) for f in fields(self)[2:])
        comp_mass = fsum_up(m for m, on in zip(mu, on_gamma) if not on)
        ratio = fsum_up(num[i] / den[i] * mu[i] for i, on in enumerate(on_gamma) if on)
        return comp_mass, ratio

    @cached_property
    def dual(self) -> "_WeightedSpec":
        """The Koethe dual: the other kind on the same gamma, both weights reciprocal.

        The reciprocals are formed in the dual kind's field order, so a
        ``FloatRangeError`` names the first of them beyond the float range.
        """
        kind = IntSpaceSpec if isinstance(self, SumSpaceSpec) else SumSpaceSpec
        return kind(self.grid, self.gamma, *(_reciprocals(self, f.name) for f in fields(kind)[2:]))


@dataclass(frozen=True)
class SumSpaceSpec(_WeightedSpec):
    """L_inf(w) over the grid plus L_1(v) supported in gamma."""

    grid: MeasureGrid
    gamma: CellSet
    v: tuple[float, ...]  # L1 weight, positive on gamma
    w: tuple[float, ...]  # sup weight, positive everywhere


@dataclass(frozen=True)
class IntSpaceSpec(_WeightedSpec):
    """L_1(w) over the grid intersected with L_inf(v) over gamma."""

    grid: MeasureGrid
    gamma: CellSet
    w: tuple[float, ...]  # L1 weight, positive everywhere
    v: tuple[float, ...]  # sup weight, positive on gamma


def _reciprocals(spec, name: str) -> tuple[float, ...]:
    """1/t for each weight t named ``name`` of ``spec`` (1 where t <= 0, off gamma).

    A reciprocal the dual spec needs, 1/w anywhere or 1/v on gamma, beyond
    the float range raises ``FloatRangeError`` naming it.
    """
    out = []
    for cid, on, t in zip(spec.grid.ids, spec.on_gamma, getattr(spec, name)):
        r = 1.0 / t if t > 0 else 1.0
        if math.isinf(r) and (name == "w" or on):
            raise FloatRangeError(f"the reciprocal weight 1/{name} of {cid} is beyond the float range")
        out.append(r)
    return tuple(out)


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
    c_floor = 0.0
    for i, inside in enumerate(spec.on_gamma):
        if not inside:
            c_floor = max(c_floor, ax[i] * spec.w[i])
    candidates = {c_floor}
    for i, inside in enumerate(spec.on_gamma):
        if inside:
            lvl = ax[i] * spec.w[i]
            if lvl >= c_floor:
                candidates.add(lvl)

    def objective(c):
        terms = [c]
        for i, inside in enumerate(spec.on_gamma):
            if inside:
                excess = ax[i] - c / spec.w[i]
                if excess > 0.0:
                    terms.append(spec.v[i] * grid.weights[i] * excess)
        return fsum_up(terms)  # a candidate past DBL_MAX is inf, never the minimum of a finite norm

    return min(objective(c) for c in candidates)


def wint_norm(spec: IntSpaceSpec, x: StepFunction) -> float:
    """max of the weighted L1 norm and the weighted sup norm over gamma."""
    _check(spec, x)
    l1 = weighted_l1_norm(x, spec.w)
    sup = 0.0
    for on, t, u in zip(spec.on_gamma, x.values, spec.v):
        if on:
            sup = max(sup, abs(t) * u)
    return max(l1, sup)


def sum_dual_norm(spec: SumSpaceSpec, f: StepFunction) -> float:
    """Norm of the integral functional induced by f on the sum space.

    On a finite grid there is no singular part, so this is the max of the
    reciprocal-weight sup norm over gamma and the reciprocal-weight L1 norm.
    """
    return wint_norm(spec.dual, f)


def int_dual_norm(spec: IntSpaceSpec, f: StepFunction) -> float:
    """Norm of the integral functional induced by f on the intersection space."""
    return wsum_norm(spec.dual, f)


def order_continuity_check(spec: SumSpaceSpec) -> tuple[bool, dict]:
    """Order continuity criterion: gamma exhausts the grid and v/w integrates.

    The integral clause is always finite on a finite grid, so the verdict
    reduces to the complement of gamma having measure zero; both numbers are
    returned as evidence.
    """
    comp_mass, ratio = spec.evidence
    return comp_mass == 0.0, {"complement_mass": comp_mass, "integral_v_over_w": ratio}


def _classify_pair(spec, form, dual_form, witness, samples, seed):
    """Collapse to ``form`` when the spec's evidence allows, else try ``witness``."""
    comp_mass, ratio = spec.evidence
    num, den = (f.name for f in fields(spec)[2:])
    evidence = {"complement_mass": comp_mass, f"integral_{num}_over_{den}": ratio}
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
        spec, FORM_L1, "weighted-Linf(1/v) ∩ weighted-L1(1/w)", witness_sum, samples, seed
    )


def classify_int(spec: IntSpaceSpec, samples: int = 0, seed: int = 0) -> ClassificationReport:
    """Daugavet-style verdict for the intersection space (collapse to sup norm)."""
    return _classify_pair(
        spec, FORM_LINF, "weighted-Linf(1/w) + weighted-L1(1/v)", witness_int, samples, seed
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
    comp_mass, ratio = spec.evidence
    if comp_mass > 0.0:
        raise PreconditionError(
            "failure witness needs a non-order-continuous space here, which "
            "requires singular functionals; not representable on a finite grid"
        )
    if ratio <= 1.0:
        raise PreconditionError("space collapses to the weighted L1 space")

    # A = single cell with mass at most w/v there (mass*v <= w) and a float point 1/(mass*v)
    best_i, best_score, out_of_range = None, 0.0, False
    for i in range(len(grid)):
        mass_v = spec.v[i] * grid.weights[i]
        if not mass_v or math.isinf(1.0 / mass_v):
            out_of_range = True
            continue
        score = spec.w[i] / mass_v
        if score > best_score:
            best_i, best_score = i, score
    if best_score < 1.0:
        raise WitnessConstructionError(
            "every cell has mass*v above w or a point 1/(mass*v) outside the float range"
            if out_of_range
            else "every cell has mass*v above w; the construction needs a smaller cell"
        )
    i0 = best_i
    mu_a = grid.weights[i0]
    cell_a = grid.ids[i0]
    x_vals = [0.0] * len(grid)
    x_vals[i0] = 1.0 / (mu_a * spec.v[i0])
    x = _vector(grid, x_vals, "point's value on A")
    f0 = _vector(grid, [spec.v[i] if i == i0 else 0.0 for i in range(len(grid))], "functional's value on A")

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
    on_c = set(chosen)
    g_vals = [-b * spec.v[i] if i in on_c else 0.0 for i in range(len(grid))]
    g = _vector(grid, g_vals, "second functional's value on C")

    c = 2.0
    # alpha <= v and w <= beta on A; with a single cell both hold exactly
    q = mu_a * spec.v[i0] / spec.w[i0]
    eps = 0.5 * min(q / (1.0 + q) / c, (1.0 - b) / c)
    constants = {
        "cell_a": cell_a,
        "mass_a": mu_a,
        "set_c": [grid.ids[i] for i in chosen],
        "b": b,
        "c": c,
        "q": q,
        "integral_v_over_w": ratio,
        "integral_on_c": total,
    }
    cert = FailureCertificate("sum-case", x, f0, eps, second_functional=g, constants=constants)
    return _self_checked(spec, cert, verify_sum_certificate, samples, seed)


def witness_int(spec: IntSpaceSpec, samples: int = 0, seed: int = 0) -> FailureCertificate:
    """Failure certificate for the intersection space.

    Case gamma proper: a two-block unit vector and the functional carried by
    A keep every slice member from pushing |x+y| past 2 - epsilon.  Case
    gamma = grid with w/v integral above one: the functional sits on a
    proper sub-block of mass at least one, with epsilon from the re-derived
    admissible interval 2c(1-c*I1)/(1+c).
    """
    grid = spec.grid
    comp_mass, ratio = spec.evidence
    if comp_mass == 0.0 and ratio <= 1.0:
        raise PreconditionError("space collapses to the weighted sup norm")
    contrib = {
        cid: spec.w[i] / spec.v[i] * grid.weights[i]
        for i, (cid, on) in enumerate(zip(grid.ids, spec.on_gamma))
        if on
    }
    idx = grid.index

    if comp_mass > 0.0:
        complement = [cid for cid, on in zip(grid.ids, spec.on_gamma) if not on]
        c = 0.5
        cell_a = min(contrib, key=contrib.get)
        if contrib[cell_a] >= 1.0:
            raise WitnessConstructionError(
                "every cell in gamma carries a w/v integral of at least one"
            )
        gamma_const = c * contrib[cell_a]
        w_comp = fsum_up(spec.w[i] * grid.weights[i] for i, on in enumerate(spec.on_gamma) if not on)
        if not (gamma_const and w_comp):
            raise WitnessConstructionError(
                "the w/v integral on A or the w mass off gamma is below the float range"
            )
        if math.isinf(w_comp):
            raise WitnessConstructionError("the w mass off gamma is beyond the float range")
        c2 = (1.0 - gamma_const) / w_comp
        x_vals = [0.0] * len(grid)
        x_vals[idx[cell_a]] = c / spec.v[idx[cell_a]]
        for cid in complement:
            x_vals[idx[cid]] = c2
        x = _vector(grid, x_vals, "point's value on A or off gamma")
        f_vals = [0.0] * len(grid)
        f_vals[idx[cell_a]] = -(c / gamma_const) * spec.w[idx[cell_a]]
        f = _vector(grid, f_vals, "functional's value on A")
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
        # gamma covers the grid; by falling contribution, A1 = the shortest prefix with
        # integral >= 1 and A = A1 plus the next cell (if A's integral rounds to 1, c = 1: no margin)
        order = sorted(contrib, key=contrib.get, reverse=True)
        sums = list(itertools.accumulate(contrib[cid] for cid in order))
        j = next((k for k, t in enumerate(sums) if t >= 1.0), len(sums))
        if j + 1 >= len(sums):
            raise WitnessConstructionError("no proper sub-block of gamma reaches a w/v integral of one")
        set_a, set_a1, i_a, i_1 = order[: j + 2], order[: j + 1], sums[j + 1], sums[j]
        c = 1.0 / i_a
        x_vals = [0.0] * len(grid)
        for cid in set_a:
            x_vals[idx[cid]] = c / spec.v[idx[cid]]
        x = _vector(grid, x_vals, "point's value on A")
        f_vals = [0.0] * len(grid)
        for cid in set_a1:
            f_vals[idx[cid]] = -spec.w[idx[cid]]
        f = _vector(grid, f_vals, "functional's value on A1")
        eps = 0.5 * min(2.0 * c * (1.0 - c * i_1) / (1.0 + c), 1.0 - c)
        constants = {
            "case": "gamma-full",
            "set_a": set_a,
            "set_a1": set_a1,
            "c": c,
            "integral_a": i_a,
            "integral_a1": i_1,
        }

    cert = FailureCertificate("intersection-case", x, f, eps, constants=constants)
    return _self_checked(spec, cert, verify_int_certificate, samples, seed)


def _vector(grid: MeasureGrid, vals: list, what: str) -> StepFunction:
    """A builder's vector; a value beyond the float range is a WitnessConstructionError naming ``what``."""
    if not all(map(math.isfinite, vals)):
        raise WitnessConstructionError(f"the {what} is beyond the float range")
    return StepFunction(grid, tuple(vals))


def _self_checked(spec, cert: FailureCertificate, verify, samples: int, seed: int) -> FailureCertificate:
    """A builder's one self-check of its certificate: the margin, the unit claims and,
    when ``samples`` > 0, ``verify``'s sampling, whose record is attached."""
    _check_margin(cert.epsilon)
    check_unit_norms(spec, cert)
    if not samples:
        return cert
    record = verify(spec, cert, samples, seed)
    record.raise_if_failed(f"{cert.kind.removesuffix('-case')} certificate failed its own verification: ")
    return replace(cert, verification=record)


def _check_margin(eps: float):
    """Refuse a margin the slice sampler cannot check: at most 0, or within ``_SLACK``."""
    if not eps > _SLACK:
        what = "not positive" if not eps > 0.0 else f"within the sampler's allowance {_SLACK!r}"
        raise WitnessConstructionError(f"margin epsilon {eps!r} is {what} at these weights")


def assert_unit(value: float, what: str, error=WitnessConstructionError):
    """Raise ``error`` unless ``value``, claimed to be one, lies within 1e-9 of one."""
    if abs(value - 1.0) > 1e-9:
        raise error(f"{what} {value}, expected 1")


def check_unit_norms(spec, cert: FailureCertificate, error=WitnessConstructionError):
    """Check a certificate's unit claims on ``spec``, as its builder does: the
    point has norm one, and so has each functional as a functional."""
    if cert.kind == "sum-case":
        assert_unit(wsum_norm(spec, cert.x), "witness point has norm", error)
        assert_unit(sum_dual_norm(spec, cert.second_functional), "fixed dual element has norm", error)
        assert_unit(sum_dual_norm(spec, cert.functional), "norming functional has norm", error)
    else:
        assert_unit(wint_norm(spec, cert.x), "witness point has norm", error)
        assert_unit(int_dual_norm(spec, cert.functional), "slice functional has norm", error)


# --------------------------------------------------------------------------
# certificate verification by seeded sampling


def _verify_slice(spec: IntSpaceSpec, point, functional, center, eps, samples, seed):
    """Sample the slice {y : |y| = 1, functional(y) > 1 - eps} of ``spec``.

    Draws deterministic extremal candidates first (the center, atoms, sign
    patterns), then center-blended and raw random points, and records the
    maximum of |point + y| against the bound 2 - eps.  An eps of at most
    ``_SLACK`` is refused: no point could break 2 - eps + ``_SLACK`` >= 2.
    The verifiers pass a certificate's claim and its config's space only:
    the center is the sum case's norming functional, or the intersection
    case's ``_slice_center`` of its functional, never a builder constant.

    Candidates are scored in row blocks of at most _BLOCK_CELLS cells.  Each
    per-cell term is wint_norm's or pairing's product in the same operation
    order, and each row sum a comparison needs is math.fsum's correctly
    rounded value, or a certified bound on it (``RowSums``) where the bound
    alone decides the comparison: a norm is the sup part where the L1 sum
    is certainly below it, a pairing is in or out of the slice where its
    bounds lie on one side of 1 - eps, and a deviation is skipped where its
    upper bound is at most both the running maximum and the violation
    level, so it could neither be recorded nor counted.  So every norm,
    pairing and the record equal those of a loop over one StepFunction per
    draw bit for bit.  Errors keep that loop's order too: a candidate that
    is not finite raises StepFunction's error, and a row whose bounds do
    not hold is summed by fsum where that loop sums it, raising its error.

    Row x cell work goes only to rows that can matter:

    - An atom has one nonzero term, so its norm is max(w*mu, v on gamma
      else 0) and its pairing (f*(+-1/norm))*mu, both in closed form.  Only
      the atoms inside the slice are scored as rows, and the first atom
      whose scaled value is not finite, which raises its error in order.
    - A row's deviation |point + y| is built only once the row is accepted.
      Acceptance is decided first, in row order; an accepted row's
      deviation error still comes before any error of a later row.
    - The random stage's first block is ``samples - accepted`` draws, a
      later one that need times the stage's own drawn-to-accepted ratio,
      plus a margin, within the cap and _BLOCK_CELLS.  Scoring stops at
      the row that brings ``accepted`` to ``samples``: ``drawn`` counts
      the draws up to it, and an error past it is never raised, as the
      scalar loop never draws those rows.
    """
    if not 0.0 < eps < math.inf:
        raise PreconditionError(f"slice margin must be finite and positive, got {eps!r}")
    if eps <= _SLACK:
        raise PreconditionError(f"slice margin {eps!r} is within the sampler's allowance {_SLACK!r}")
    grid = spec.grid
    _check(spec, center)  # the grid checks the scalar loop's first candidate meets
    functional._check(center)
    center._check(point)
    n = len(grid)
    rng = np.random.default_rng(seed)
    bound = 2.0 - eps
    limit = bound + _SLACK
    level = 1.0 - eps
    w, mu = np.array(spec.w), np.array(grid.weights)
    gamma = np.array(spec.on_gamma)
    v = np.array(spec.v)[gamma]
    f, x, c = (np.array(h.values) for h in (functional, point, center))
    rows = max(1, _BLOCK_CELLS // n)
    max_observed = 0.0
    worst = None
    violations = 0
    accepted = 0

    def norm_parts(y):
        """wint_norm's two parts for the rows of y: the L1 row sums, and the sups."""
        with np.errstate(over="ignore", invalid="ignore"):
            # products in place: a fresh block-sized array costs more than the product
            ay = np.abs(y)
            on_gamma = ay[:, gamma]
            on_gamma *= v
            sup = on_gamma.max(axis=1, initial=0.0)
            ay *= w
            ay *= mu
        return RowSums(ay, nonnegative=True), sup

    def norms(y):
        """wint_norm of the rows of y up to the first whose fsum overflows, and that error."""
        l1, sup = norm_parts(y)
        return l1.maxima(sup)

    def consider(y, error=None, need=math.inf):
        """Normalise and score the rows of y in draw order, then raise ``error``.

        Scoring stops at the row that brings this call's accepted rows to
        ``need``; the rows after it and ``error`` are dropped.  Returns the
        number of rows scored.
        """
        nonlocal accepted
        nrms, err = norms(y)
        if err is not None:
            y, error = y[: len(nrms)], err
        scored = len(y)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scale = np.array(nrms)
            y *= np.where(scale != 0.0, 1.0 / scale, 0.0).reshape(-1, 1)
            terms = f * y
            terms *= mu
        pair = RowSums(terms)
        y_ok = np.isfinite(y).all(axis=1).tolist()
        inside = []
        try:
            for i, nrm in enumerate(nrms):
                if nrm == 0.0:
                    continue
                if not y_ok[i]:
                    raise finite_error(y[i])
                if pair.exceeds(i, level):
                    inside.append(i)
                    if len(inside) == need:
                        scored, error = i + 1, None
                        break
        except (OverflowError, ValueError) as exc:  # raised once the rows before it are scored
            error = exc
        accepted += len(inside)
        if inside:
            score(y[inside])
        if error is not None:
            raise error
        return scored

    def score(y):
        """Record |point + y| for the accepted rows of y."""
        nonlocal max_observed, worst, violations
        with np.errstate(over="ignore", invalid="ignore"):
            z = y + x
        dev, dev_sup = norm_parts(z)
        dev_sup = dev_sup.tolist()
        z_ok = np.isfinite(z).all(axis=1).tolist()
        for i in range(len(y)):
            if not z_ok[i]:
                raise finite_error(z[i])
            if max(dev.upper[i], dev_sup[i]) <= min(max_observed, limit):
                continue  # neither recorded nor counted, whatever its exact value
            val = dev.max_with(i, dev_sup[i])
            if val > max_observed:
                max_observed, worst = val, tuple(y[i].tolist())
            if val > limit:
                violations += 1

    # the atoms +-e_j in closed form: those inside the slice, up to the first not finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        l1 = w * mu
        sup = np.where(gamma, np.array(spec.v), 0.0)
        nrm = np.repeat(np.where(sup > l1, sup, l1), 2)  # Python's max(l1, sup)
        sign = np.tile((1.0, -1.0), n)
        unit = sign * (1.0 / nrm)
        cells = np.repeat(np.arange(n), 2)
        live = nrm != 0.0  # a zero norm: nothing to score
        bad = live & ~np.isfinite(unit)  # normed, not finite: its row raises the error
        keep = np.flatnonzero(bad | live & ((f[cells] * unit) * mu[cells] > level))
        if bad.any():
            keep = keep[keep <= np.argmax(bad)]
    pattern = signs(f)
    extremal = itertools.chain(
        [np.stack((c, -c))],
        atom_rows(sign[keep], cells[keep], n, rows),
        [np.stack((pattern, -pattern))],
    )
    for y in row_blocks(extremal, rows):
        consider(y)
    drawn = start = 2 * n + 4
    settled = accepted
    cap = 50 * samples + 1000
    half = eps / 2.0
    while accepted < samples and drawn < cap:
        # a draw accepts at most one point; past the first block, the stage's
        # own ratio sizes the block.  Each stage below cuts the block at its
        # first failing row, keeping the scalar loop's error: consider()
        # scores the rows before it, then raises
        need = samples - accepted
        m = need if drawn == start else rows
        if accepted > settled:
            m = -(-need * (drawn - start) // (accepted - settled)) * 9 // 8 + 4
        m = min(m, cap - drawn, rows)
        y = np.empty((m, n))
        t = np.zeros(m)
        blended = []
        error = None
        for i in range(m):
            if (drawn + i + 1) % 7:
                t[i] = rng.random() * half  # rng.uniform(0.0, half), bit for bit
                blended.append(i)
            rng.standard_normal(out=y[i])
        idx = np.array(blended, dtype=int)
        tail = y[idx]
        nz, err = norms(tail)
        if err is not None:
            y, idx, tail, error = y[: idx[len(nz)]], idx[: len(nz)], tail[: len(nz)], err
        with np.errstate(over="ignore", invalid="ignore"):
            head = (1.0 - t[idx]).reshape(-1, 1) * c
            tail *= np.array(
                [s / r if r else 0.0 for s, r in zip(t[idx].tolist(), nz)]
            ).reshape(-1, 1)
            mixed = head + tail
        live = np.array(nz) != 0.0
        mixed[~live] = 0.0  # a draw whose noise has norm 0 considers nothing
        bad = np.flatnonzero(live & ~np.isfinite(mixed).all(axis=1))
        if len(bad):
            j = bad[0]
            y, idx, error = y[: idx[j]], idx[:j], finite_error((head[j], tail[j], mixed[j]))
        y[idx] = mixed[: len(idx)]
        drawn += consider(y, error, need)
    return record_from_samples(
        drawn, accepted, bound, max_observed, violations, seed, worst
    )


def verify_int_certificate(
    spec: IntSpaceSpec, cert: FailureCertificate, samples: int, seed: int
):
    """Sample the primal slice and check |x+y| stays at or below 2 - eps.

    Reads the certificate's claim only, its point, functional and margin; the
    slice's center is derived from the functional (``_slice_center``).
    """
    if cert.kind != "intersection-case":
        raise PreconditionError("certificate is not for an intersection space")
    center = _slice_center(spec, cert.functional)
    return _verify_slice(spec, cert.x, cert.functional, center, cert.epsilon, samples, seed)


def verify_sum_certificate(
    spec: SumSpaceSpec, cert: FailureCertificate, samples: int, seed: int
):
    """Sample the dual slice through x and check the dual norm of h + g.

    That slice is a primal slice of the reciprocal-weight intersection
    space, with x as its functional and g as its point.
    """
    if cert.kind != "sum-case":
        raise PreconditionError("certificate is not for a sum space")
    x, f0, g = cert.x, cert.functional, cert.second_functional
    return _verify_slice(spec.dual, g, x, f0, cert.epsilon, samples, seed)


def _slice_center(spec: IntSpaceSpec, functional: StepFunction) -> StepFunction:
    """The slice's center, from the functional f alone: sign(f)/v on the cells of
    gamma where f is nonzero, 0 elsewhere.  On a built certificate f is negative
    exactly on the cells its proof's extremal point sits on, so this is that point."""
    vals = [
        math.copysign(1.0, t) / u if t and on else 0.0
        for on, t, u in zip(spec.on_gamma, functional.values, spec.v)
    ]
    return StepFunction(spec.grid, tuple(vals))

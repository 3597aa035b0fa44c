"""Result containers shared by the interpolation and classification layers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import VerificationError
from .grid import StepFunction

DAUGAVET = "daugavet"
NOT_DAUGAVET = "not-daugavet"

# canonical space forms a classified space can collapse to
FORM_L1 = "weighted-L1"
FORM_LINF = "weighted-Linf"
FORM_OPLUS = "Linf-oplus-L1"
FORM_INTERSECTION = "intersection-collapse"


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of a sampling verification run (one-sided: falsification only)."""

    samples_requested: int
    samples_accepted: int
    acceptance_rate: float
    bound: float
    max_observed: float
    violations: int
    seed: int
    worst_point: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def raise_if_failed(self, prefix: str) -> None:
        """Raise VerificationError "<prefix>N violations (max M against bound B)" unless passed."""
        if not self.passed:
            raise VerificationError(
                f"{prefix}{self.violations} violations (max {self.max_observed} against bound {self.bound})"
            )


@dataclass(frozen=True)
class FailureCertificate:
    """Concrete slice data refuting a Daugavet-style condition.

    ``kind`` is "sum-case" (the slice lives in the dual; ``functional`` is
    the norming functional of ``x`` and ``second_functional`` the fixed
    norm-one dual element) or "intersection-case" (``functional`` is the
    fixed dual element whose primal slice is tested).  ``constants`` lists
    every constant of the construction: its audit record, which no verifier
    reads; a certificate is checked from its point, functionals and margin on
    the space its config gives.
    """

    kind: str
    x: StepFunction
    functional: StepFunction
    epsilon: float
    second_functional: Optional[StepFunction] = None
    constants: dict = field(default_factory=dict)
    verification: Optional[VerificationRecord] = None


@dataclass(frozen=True)
class NonsquareWitness:
    """A unit vector x with min(|x+y|, |x-y|) <= 2 - delta for every unit y."""

    x: StepFunction
    delta: float
    construction: dict = field(default_factory=dict)
    verification: Optional[VerificationRecord] = None


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str  # DAUGAVET or NOT_DAUGAVET
    canonical_form: Optional[str]  # one of the FORM_* tokens, None when absent
    dual_form: Optional[str]
    evidence: dict
    witness: Union[NonsquareWitness, FailureCertificate, None] = None
    explanation: Optional[str] = None

    def __post_init__(self):
        if (self.verdict == DAUGAVET) != (self.canonical_form is not None):
            raise ValueError("canonical form exactly for Daugavet verdicts")


def record_from_samples(
    requested: int,
    accepted: int,
    bound: float,
    max_observed: float,
    violations: int,
    seed: int,
    worst_point=None,
) -> VerificationRecord:
    rate = accepted / requested if requested else 0.0
    return VerificationRecord(
        samples_requested=requested,
        samples_accepted=accepted,
        acceptance_rate=rate,
        bound=bound,
        max_observed=max_observed,
        violations=violations,
        seed=seed,
        worst_point=worst_point,
    )

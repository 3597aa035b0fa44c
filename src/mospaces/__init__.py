"""Musielak-Orlicz spaces on finite measure grids.

Norms (Luxemburg gauge, Amemiya), exact curve conjugation, weighted
interpolation spaces, Daugavet-property classification with verifiable
witness certificates, and sampling probes for unit-ball geometry.
"""

__version__ = "0.1.0"

from .classify import (
    build_nonsquare_witness,
    classify,
    classify_orlicz,
    component_spec,
    find_nonsquare_setup,
    verify_nonsquare,
)
from .curves import (
    CurveParams,
    Indicator,
    Linear,
    OrliczCurve,
    PiecewiseLinear,
    Power,
    conjugate,
)
from .errors import (
    ConfigError,
    FloatRangeError,
    GridMismatchError,
    MospacesError,
    PreconditionError,
    UnboundedNormError,
    UnknownCellError,
    VerificationError,
    WitnessConstructionError,
)
from .grid import (
    MeasureGrid,
    StepFunction,
    integrate,
    measure,
    pairing,
    restrict,
    weighted_l1_norm,
)
from .interpolation import (
    IntSpaceSpec,
    SumSpaceSpec,
    classify_int,
    classify_sum,
    int_dual_norm,
    order_continuity_check,
    sum_dual_norm,
    verify_int_certificate,
    verify_sum_certificate,
    wint_norm,
    witness_int,
    witness_sum,
    wsum_norm,
)
from .musielak import (
    MusielakField,
    Partition,
    WeightPair,
    amemiya_norm,
    bounded_level_sets,
    conjugate_field,
    decomposition_norm,
    finite_elements_nontrivial,
    luxemburg_norm,
    modular,
    modular_of_bounds,
    orlicz_norm_sup_oracle,
    partition,
    unit_sphere_point,
    weights,
)
from .probes import (
    ConditionProbeResult,
    Slice,
    daugavet_condition_probe,
    no_nonsquare_probe,
    per_row,
    roughness_probe,
    slice_diameter_lb,
)
from .reports import (
    DAUGAVET,
    FORM_INTERSECTION,
    FORM_L1,
    FORM_LINF,
    FORM_OPLUS,
    NOT_DAUGAVET,
    ClassificationReport,
    FailureCertificate,
    NonsquareWitness,
    VerificationRecord,
)

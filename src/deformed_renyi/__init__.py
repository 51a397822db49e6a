"""Generalized Renyi divergence via deformed exponentials.

The divergence of order alpha in (0, 1) between positive densities p and q is
kappa(alpha) / (alpha (1 - alpha)), where kappa(alpha) >= 0 is the unique
shift along a positive direction u0 that renormalizes the phi-interpolation
of p and q to total mass 1.  The package provides the deformed exponential
families, the implicit solver, the classical oracles, the phi-divergence and
endpoint limits, and executable probes for the existence conditions.
"""

from .families import (
    BUILTIN_FAMILIES,
    PHI_MAX,
    ClassicalExp,
    CounterexamplePhi,
    DeformedExponential,
    DomainError,
    FamilyParameterError,
    KaniadakisKappa,
    TabulatedMonotone,
    TsallisQ,
    ValidationReport,
    parse_family_spec,
    q_logarithm,
    validate_family,
)
from .measures import (
    Counting,
    MeasureError,
    PairValidationError,
    ProbabilityPair,
    QuadGrid,
    SimpleNonAtomic,
    integrate,
    load_pair,
    normalize,
    save_pair,
)
from .kappa import (
    KappaSolveResult,
    SolveStatus,
    classical_kappa,
    normalization_functional,
    solve_kappa,
)
from .divergences import (
    DivergenceReport,
    LimitEstimate,
    classical_renyi,
    generalized_renyi,
    kappa_derivative_at_endpoint,
    kl_divergence,
    limit_divergence,
    phi_divergence,
    sweep,
    tsallis_relative_entropy,
)
from .existence import (
    AdversarialDemo,
    ConditionProbeReport,
    ConstructionError,
    EnvelopeCheck,
    InequalityProbeResult,
    KaniadakisCertificate,
    ShiftedSumReport,
    U0Construction,
    adversarial_nonexistence_demo,
    build_divergent_pair,
    construct_u0_sequence,
    growth_envelope_check,
    pointwise_inequality_probe,
    ratio_limsup_probe,
    shifted_sum_check,
    verify_kaniadakis_u0,
)

__version__ = "0.1.0"

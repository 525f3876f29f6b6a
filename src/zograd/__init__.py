"""Biased noisy gradient oracles for convex optimization.

Gradient estimators with an explicit bias/variance tolerance knob, mirror
descent driven by closed-form schedules, and the constructive hard
instances that pin the matching error floors.
"""

from .core import (
    Ball,
    Box,
    ConvexBody,
    DomainError,
    EUCLIDEAN,
    MAX_NORM,
    Norm,
    OracleEnvelope,
    OracleQuery,
    OracleResponse,
    RngStream,
    interval,
)
from .testbed import (
    ObjectiveFunction,
    exp_one_d,
    finite_diff_check,
    kinked_quadratic,
    quadratic,
    separable,
    softabs,
    strongly_convex_pair,
)
from .estimators import (
    ControlledNoise,
    EstimatorOracle,
    ExactGradientOracle,
    PerturbationScheme,
    RDSA,
    SF,
    SPSA,
    SURFACE,
    UncontrolledNoise,
    envelope_for,
    scheme_moments,
    smoothed_eval,
)
from .adversarial import (
    AdversarialOracle,
    HardInstance,
    hard_pair,
    kl_divergence_bound,
    mean_response_convex,
    mean_response_strongly_convex,
    minimax_lower_bound,
    optimal_separation,
    scaled_hard_coordinates,
    worst_case_tolerance,
)
from .solver import (
    RunTrace,
    Schedule,
    divergence_diameter,
    manual_schedule,
    optimization_rate_exponent,
    prox_inequality_gap,
    regret_rate_exponent,
    run,
    schedule_opt_convex,
    schedule_opt_sc,
    schedule_regret,
)

__version__ = "0.1.0"

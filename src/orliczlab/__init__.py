"""Numerical laboratory for Orlicz-space analysis of weighted averaging operators.

The package studies the operator T f = E(u f), where E is conditional
expectation onto a finite partition and u a fixed multiplier, through the lens
of Young-function calculus: Luxemburg norms, conditional Hölder inequalities,
norm sandwiches, spectra, resolvents, and compactness trends on refinement
families.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import errors
from .errors import OrliczLabError
from .holder import (
    HolderReport,
    conditional_holder_ratio,
    empirical_holder_constant,
    holder_from_domination,
    normalization_constants,
)
from .measure import (
    MeasureSpace,
    MinOfLinear,
    Partition,
    build_rotation_space,
    build_symmetric_space,
    cond_exp,
    domination_constant,
    generalized_jensen_check,
    jensen_check,
)
from .operators import (
    LevelSetReport,
    RefinementFamily,
    SpectrumReport,
    WeightedConditionalExpectation,
    boundedness_classifier,
    essential_gap,
    essential_norm_bound,
    level_set,
    mean_multiplier,
    multiplier_levels,
    norm_estimate,
    norm_upper_bound,
    resolvent_check,
    spectrum,
    truncate,
    truncation_gap_check,
)
from .orlicz import (
    contraction_check,
    indicator_norm,
    luxemburg_norm,
    luxemburg_norm_closed_form,
    modular,
)
from .scenarios import (
    BUILTIN_ORDER,
    Materialized,
    Scenario,
    builtin_scenario,
    from_config,
    materialize,
    to_config,
)
from .suites import SUITE_ORDER, run_all_suites, run_suite
from .young import (
    GridSpec,
    GrowthCertificate,
    YoungFunction,
    check_delta2,
    check_delta_prime,
    check_nabla_prime,
    check_ordering,
    check_product_convexity,
    conjugate_closed_form,
    conjugate_numeric,
    exp_type,
    log_type,
    power,
    scaled_power,
    young_inequality_check,
)

__all__ = [
    "__version__",
    "errors",
    "OrliczLabError",
    # young
    "YoungFunction",
    "GridSpec",
    "GrowthCertificate",
    "power",
    "scaled_power",
    "exp_type",
    "log_type",
    "conjugate_closed_form",
    "conjugate_numeric",
    "check_delta2",
    "check_delta_prime",
    "check_nabla_prime",
    "check_ordering",
    "check_product_convexity",
    "young_inequality_check",
    # measure
    "MeasureSpace",
    "Partition",
    "MinOfLinear",
    "cond_exp",
    "build_symmetric_space",
    "build_rotation_space",
    "jensen_check",
    "generalized_jensen_check",
    "domination_constant",
    # orlicz
    "modular",
    "luxemburg_norm",
    "luxemburg_norm_closed_form",
    "indicator_norm",
    "contraction_check",
    # holder
    "HolderReport",
    "conditional_holder_ratio",
    "empirical_holder_constant",
    "normalization_constants",
    "holder_from_domination",
    # operators
    "WeightedConditionalExpectation",
    "LevelSetReport",
    "SpectrumReport",
    "RefinementFamily",
    "mean_multiplier",
    "multiplier_levels",
    "norm_upper_bound",
    "norm_estimate",
    "level_set",
    "truncate",
    "truncation_gap_check",
    "essential_gap",
    "essential_norm_bound",
    "spectrum",
    "resolvent_check",
    "boundedness_classifier",
    # scenarios and suites
    "Scenario",
    "Materialized",
    "BUILTIN_ORDER",
    "builtin_scenario",
    "from_config",
    "to_config",
    "materialize",
    "SUITE_ORDER",
    "run_suite",
    "run_all_suites",
]

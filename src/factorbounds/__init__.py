"""Partial-identification bounds for complier effects in 2^K factorial designs."""

from .design import (
    FactorialDesign,
    enumerate_assignments,
    interaction_contrast,
    main_effect_contrast,
)
from .errors import (
    AssumptionViolationError,
    FactorBoundsError,
    GenerationError,
    InsufficientDataError,
    InvalidDesignError,
    InvalidFactorError,
    InvalidInputError,
    InvalidShareError,
    NoCompliersError,
    WeakFirstStageError,
)
from .oracle import (
    Interval,
    ITTReport,
    adjusted_bounds,
    conservative_bounds,
    exclusion_bounds,
    interaction_bounds,
    interaction_effect,
    itt_report,
    joint_bounds,
    joint_interaction_effect,
    main_effect,
    simple_bounds,
)
from .population import (
    GroupShares,
    Population,
    check_conditional_monotonicity,
    check_conditional_treatment_exclusion,
    check_least_compliant_profile,
    check_outcome_exclusion,
    check_weak_treatment_exclusion,
    classify,
    group_shares,
    load_population,
    save_population,
)
from .data import ObservedDataset, load_csv, save_csv
from .estimate import (
    BoundsEstimate,
    ConfidenceInterval,
    WaldEstimate,
    estimate_bounds,
    im_critical_value,
    imbens_manski_ci,
    wald_reference,
)
from .simulate import (
    CoverageReport,
    FactorSpec,
    OutcomeSpec,
    ScenarioConfig,
    TargetSpec,
    census_dataset,
    complete_randomization,
    generate_population,
    load_scenario,
    monte_carlo,
    observe,
)

__version__ = "0.1.0"

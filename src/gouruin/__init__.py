"""Exact ruin classification and Monte Carlo validation for generalized
Ornstein-Uhlenbeck processes driven by bivariate Levy processes."""

from .classify import (
    Branch,
    DecisionKind,
    RuinDecision,
    RuinReport,
    SubordinatorCertificate,
    Verdict,
    delta,
    feasible_u_set,
    is_subordinator_1d,
    is_subordinator_s,
    no_ruin_threshold,
    z_infinity_converges,
)
from .errors import (
    GouError,
    IndeterminateFormError,
    InvalidModelError,
    NotApplicableError,
    NotFiniteVariationError,
    NotSupportedError,
    UndeterminedError,
)
from .estimate import (
    EmpiricalCDF,
    EstimateWithCI,
    RuinFormulaCheck,
    empirical_lower_bound,
    estimate_negative_prob,
    estimate_ruin,
    estimate_Zinf_cdf,
    validate_ruin_formula,
    wilson_interval,
)
from .intervals import Interval, IntervalSet
from .model import (
    BoxDensity,
    Density1D,
    FiniteAtomSet,
    JumpAtom,
    LevyTriplet2D,
    LineDensity,
    MarginalTriplet,
    d_eta,
    drift_vector,
    marginal_eta,
    marginal_xi,
    mean_at_one,
    s_process,
    scale_eta,
    triplet_from_json,
    triplet_to_json,
    w_transform,
)
from .presets import continuous_example_triplet, jump_example_triplet, triplet_from_spec
from .regions import (
    PiecewiseLinearFn,
    ThetaBounds,
    drift_lhs,
    drift_lhs_piecewise,
    quadrant_mass,
    region_mass,
    thetas,
)
from .simulate import (
    FirstPassage,
    Path,
    PathConfig,
    closed_form_continuous_example,
    compute_V,
    compute_Z,
    first_passage,
    fv_first_passage,
    path_rng,
    simulate_pair,
)

__version__ = "0.1.0"

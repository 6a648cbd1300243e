"""Optimal dynamic treatment regime estimation under treatment nonadherence.

Recorded treatments are often prescriptions or self reports, not the
treatments actually taken.  This package estimates stage-wise contrast
(decision rule) parameters with estimating equations that residualize the
recorded proxy against its own assignment model and weight by a model of the
probability the treatment was actually taken, restoring consistency for the
effect of treatment received.  It also ships sandwich and bootstrap
inference, synthetic scenario generators, and a CLI.
"""

__version__ = "0.1.0"

from .glm import GlmFit, NonConvergenceError, RankDeficiencyError, expit, fit_logistic
from .gest import (
    AdherenceSource,
    EstimationError,
    EstimationPlan,
    MODES,
    RegimeFit,
    SingularSystemError,
    StageModelSpec,
    pseudo_outcome,
    pseudo_outcome_exact,
    psi_flat,
    recommend,
    sensitivity_sweep,
)
from .inference import (
    BootstrapError,
    IntervalSet,
    SandwichError,
    SandwichResult,
    bootstrap,
    numerical_jacobian,
    regime_sandwich,
    regime_wald_intervals,
    sandwich,
    wald_intervals,
)
from .model import (
    DataError,
    Dataset,
    DesignError,
    FeatureSpec,
    FormulaError,
    build_design_matrix,
    parse_feature_spec,
)
from .simulation import (
    ReplicationError,
    ReplicationSummary,
    ScenarioConfig,
    generate_s1,
    generate_s3,
    generate_s4,
    run_replications,
)

__all__ = [
    "AdherenceSource",
    "BootstrapError",
    "DataError",
    "Dataset",
    "DesignError",
    "EstimationError",
    "EstimationPlan",
    "FeatureSpec",
    "FormulaError",
    "GlmFit",
    "IntervalSet",
    "MODES",
    "NonConvergenceError",
    "RankDeficiencyError",
    "RegimeFit",
    "ReplicationError",
    "ReplicationSummary",
    "SandwichError",
    "SandwichResult",
    "ScenarioConfig",
    "SingularSystemError",
    "StageModelSpec",
    "bootstrap",
    "build_design_matrix",
    "expit",
    "fit_logistic",
    "generate_s1",
    "generate_s3",
    "generate_s4",
    "numerical_jacobian",
    "parse_feature_spec",
    "pseudo_outcome",
    "pseudo_outcome_exact",
    "psi_flat",
    "recommend",
    "regime_sandwich",
    "regime_wald_intervals",
    "run_replications",
    "sandwich",
    "sensitivity_sweep",
    "wald_intervals",
]

"""Ground-truth inference from noisy crowd labels.

The package aggregates conflicting binary labels into a single answer per
example (majority vote, weighted vote, share vote, or a naive-Bayes
posterior over known labeler accuracies), estimates labeler accuracy from
an expert-graded assessment, and runs budgeted collection strategies that
decide when an example has enough labels.  A simulator and experiment
harness reproduce the cost/error trade-offs of each method end to end.
"""

from .aggregators import AggregateLabel, Method, aggregate
from .assessment import (
    AssessmentSet,
    estimate_accuracy,
    oracle_estimates,
    run_assessment,
)
from .errors import ConfigError, DataError, GtxError
from .experiments import (
    SweepResult,
    UncertaintyResult,
    run_threshold_experiment,
    run_uncertainty_experiment,
    write_results,
)
from .io import (
    ExperimentConfig,
    config_from_dict,
    load_config,
    read_assessment_set,
    read_label_records,
    write_event_log,
    write_label_records,
)
from .metrics import (
    TrialReport,
    TrialSummary,
    summarize,
    trial_report,
)
from .model import (
    ClassPrior,
    LabelerEstimate,
    LabelRecord,
    log_odds,
)
from .simulation import (
    SimConfig,
    SimDataset,
    SimLabeler,
    draw_assessment,
    init_simulation,
)
from .strategies import (
    BudgetLedger,
    CollectionOutcome,
    LabelEvent,
    ThresholdConfig,
    run_confidence_threshold,
    run_uncertainty_sampling,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateLabel",
    "AssessmentSet",
    "BudgetLedger",
    "ClassPrior",
    "CollectionOutcome",
    "ConfigError",
    "DataError",
    "ExperimentConfig",
    "GtxError",
    "LabelEvent",
    "LabelRecord",
    "LabelerEstimate",
    "Method",
    "SimConfig",
    "SimDataset",
    "SimLabeler",
    "SweepResult",
    "ThresholdConfig",
    "TrialReport",
    "TrialSummary",
    "UncertaintyResult",
    "aggregate",
    "config_from_dict",
    "draw_assessment",
    "estimate_accuracy",
    "init_simulation",
    "load_config",
    "log_odds",
    "oracle_estimates",
    "read_assessment_set",
    "read_label_records",
    "run_assessment",
    "run_confidence_threshold",
    "run_threshold_experiment",
    "run_uncertainty_experiment",
    "run_uncertainty_sampling",
    "summarize",
    "trial_report",
    "write_event_log",
    "write_label_records",
    "write_results",
    "__version__",
]

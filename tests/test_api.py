"""The public surface: ``gtx.__all__`` is pinned, so that adding or removing
a public name is a deliberate change to this list."""

import gtx

PUBLIC = {
    "AggregateLabel",
    "AlreadyLabeled",
    "AssessmentSet",
    "BudgetLedger",
    "ClassPrior",
    "CollectionOutcome",
    "ConfigError",
    "DuplicateLabeler",
    "EmptyAssessment",
    "EmptyLabelSet",
    "ExperimentConfig",
    "GtxError",
    "IncompleteAssessment",
    "LabelEvent",
    "LabelRecord",
    "LabelerEstimate",
    "Method",
    "MissingEstimate",
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
    "error_rate",
    "estimate_accuracy",
    "init_simulation",
    "load_config",
    "log_odds",
    "mean_absolute_error",
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
}


def test_all_is_pinned():
    assert len(gtx.__all__) == len(set(gtx.__all__))
    assert set(gtx.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in gtx.__all__:
        assert hasattr(gtx, name), name

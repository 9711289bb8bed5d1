"""The public surface: ``gtx.__all__``, the engines' keyword-only options
and the experiment commands' flags are pinned, so that adding or removing
one is a deliberate change to these lists."""

import argparse
import inspect

import pytest

import gtx
from gtx.cli import build_parser

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


@pytest.mark.parametrize("engine", [gtx.run_confidence_threshold, gtx.run_uncertainty_sampling])
def test_engine_keyword_options_are_pinned(engine):
    # the config sets every other run parameter; aggregate takes the prior
    params = inspect.signature(engine).parameters.values()
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == ["record_events"]


@pytest.mark.parametrize("command", ["threshold", "uncertainty"])
def test_experiment_command_flags_are_pinned(command):
    # seed, trials and oracle_accuracy are config keys, with no flag beside them
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in subs.choices[command]._actions for s in a.option_strings}
    assert flags == {"--config", "--out", "--workers", "-h", "--help"}

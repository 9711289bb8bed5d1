"""The public surface: ``gtx.__all__``, the engines' keyword-only options
and the experiment commands' flags are pinned, so that adding or removing
one is a deliberate change to these lists.  The error contract is held
here too: a bad argument to a public class or a checked public function
raises a ``GtxError``, a numpy scalar is accepted wherever a number is,
and the package raises no builtin exception but the internal checks
listed."""

import argparse
import ast
import builtins
import inspect
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtx
from gtx.cli import build_parser
from gtx.errors import ConfigError, DataError, GtxError
from gtx.strategies import EventLog

PUBLIC = {
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
}


def test_all_is_pinned():
    assert len(gtx.__all__) == len(set(gtx.__all__)) == 42
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


# arguments each validating public class accepts; the tests below replace
# one of them at a time by a bad value
_CONFIG = gtx.config_from_dict({"strategy": "threshold"}).as_dict()
VALID_ARGS = {
    "AssessmentSet": [((0, 1), (1, 0))],
    "BudgetLedger": [(10, 4)],
    "ClassPrior": [(0.3, 0.7)],
    "ExperimentConfig": [tuple(_CONFIG.values())],
    "LabelRecord": [(0, "a", 1)],
    "LabelerEstimate": [("a", 0.8, 10)],
    "Method": [("gtx",)],
    "SimConfig": [(10, 3, 0.6, 0.9)],
    "SimDataset": [(np.array([0, 1]),)],
    "SimLabeler": [(0, 0.8)],
    "ThresholdConfig": [(0.9, 3, None), (None, 3, 2)],
}
# plain records and results, which check nothing, and the error types
EXEMPT = {
    "AggregateLabel", "CollectionOutcome", "LabelEvent", "SweepResult", "TrialReport",
    "TrialSummary", "UncertaintyResult", "GtxError", "ConfigError", "DataError",
}
BAD_VALUES = [None, "x", True, -1, 2, 0.5, math.nan, math.inf, [1], (1,), {},
              np.array([1, 1]), 10**30]
CASES = [(name, args, i) for name, bases in VALID_ARGS.items()
         for args in bases for i in range(len(args))]
CASE_IDS = [f"{name}-{b}-arg{i}" for name, bases in VALID_ARGS.items()
            for b, args in enumerate(bases) for i in range(len(args))]


def _call_with(case, bad):
    """Call the case's class or function with argument ``i`` replaced by
    ``bad``.  A bad value may be valid in some places (a label id of "x", a
    kappa of 2), so the call may succeed; what it may not do is raise a
    foreign exception."""
    name, args, i = case
    args = list(args)
    args[i] = bad
    try:
        getattr(gtx, name)(*args)
    except GtxError:
        pass


def test_every_public_class_is_checked_or_exempt():
    classes = {name for name in gtx.__all__ if isinstance(getattr(gtx, name), type)}
    assert classes == set(VALID_ARGS) | EXEMPT


@pytest.mark.parametrize("name", sorted(VALID_ARGS))
def test_valid_arguments_construct(name):
    for args in VALID_ARGS[name]:
        getattr(gtx, name)(*args)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_each_listed_bad_value_raises_only_gtx_errors(case):
    for bad in BAD_VALUES:
        _call_with(case, bad)


@given(st.sampled_from(CASES), st.one_of(
    st.sampled_from(BAD_VALUES), st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=3)))
@settings(max_examples=300)
def test_any_bad_scalar_raises_only_gtx_errors(case, bad):
    _call_with(case, bad)


# arguments each checked public function accepts, and the index of the
# first argument the tests below replace (the path of write_label_records
# is not an argument they check, nor draw_assessment's size, a count of
# draws that tests/test_simulation.py holds)
_RECORDS = [gtx.LabelRecord(0, "a", 1)]
# an engine run: dataset, pool, estimates, (config,) budget, method, rng
_POOL = [gtx.SimLabeler(0, 0.8), gtx.SimLabeler(1, 0.7)]
_RUN = (gtx.SimDataset(np.array([0, 1, 1])), _POOL,
        {lab.labeler_id: gtx.LabelerEstimate(lab.labeler_id, lab.accuracy) for lab in _POOL})
_RNG = np.random.default_rng(0)
_ASSESSMENT = gtx.AssessmentSet((0, 1), (1, 0))
# a scored run: an outcome and its truth, and its report
_SCORED = (gtx.run_uncertainty_sampling(*_RUN, 4, "gtx", np.random.default_rng(1)),
           _RUN[0].true_labels)
_REPORT = gtx.trial_report(*_SCORED)
VALID_CALLS = {
    "aggregate": (("gtx", _RECORDS, {"a": gtx.LabelerEstimate("a", 0.8)},
                   gtx.ClassPrior(0.3, 0.7)), 0),
    "draw_assessment": ((3, _RNG), 1),
    "estimate_accuracy": (("a", {0: 1}, gtx.AssessmentSet((0,), (1,))), 0),
    "init_simulation": ((gtx.SimConfig(10, 3, 0.6, 0.9), _RNG), 0),
    "log_odds": ((0.9,), 0),
    "oracle_estimates": ((_POOL,), 0),
    "run_assessment": ((_POOL, _ASSESSMENT, _RNG), 0),
    "run_confidence_threshold": ((*_RUN, gtx.ThresholdConfig(0.9, 2), 4, "gtx", _RNG), 0),
    "run_uncertainty_sampling": ((*_RUN, 4, "gtx", _RNG), 0),
    "summarize": (([_REPORT, _REPORT],), 0),
    "trial_report": (_SCORED, 0),
    "write_label_records": ((os.devnull, _RECORDS, [1]), 1),
}
FUNCTION_CASES = [(name, args, i) for name, (args, first) in VALID_CALLS.items()
                  for i in range(first, len(args))]
FUNCTION_IDS = [f"{name}-arg{i}" for name, _, i in FUNCTION_CASES]


@pytest.mark.parametrize("name", sorted(VALID_CALLS))
def test_valid_function_arguments_run(name):
    getattr(gtx, name)(*VALID_CALLS[name][0])


@pytest.mark.parametrize("case", FUNCTION_CASES, ids=FUNCTION_IDS)
def test_each_listed_bad_value_to_a_function_raises_only_gtx_errors(case):
    for bad in BAD_VALUES:
        _call_with(case, bad)


@given(st.sampled_from(FUNCTION_CASES), st.one_of(
    st.sampled_from(BAD_VALUES), st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=3), st.lists(st.integers(), max_size=2)))
@settings(max_examples=300)
def test_any_bad_value_to_a_function_raises_only_gtx_errors(case, bad):
    _call_with(case, bad)


@pytest.mark.parametrize("make, error", [
    (lambda: gtx.AssessmentSet(5, (1,)), DataError),
    (lambda: gtx.AssessmentSet(([1],), (1,)), DataError),
    (lambda: gtx.BudgetLedger("a"), ConfigError),
    (lambda: gtx.BudgetLedger(2.5), ConfigError),
    (lambda: gtx.LabelRecord(0, "a", np.array([1, 1])), DataError),
    (lambda: gtx.Method("zz"), ConfigError),
    (lambda: gtx.SimDataset([[0], [0, 1]]), DataError),
    (lambda: gtx.log_odds("x"), ConfigError),
    (lambda: gtx.log_odds(None), ConfigError),
    (lambda: gtx.aggregate("mv", [1]), DataError),
    (lambda: gtx.aggregate("wmv", _RECORDS, 5), DataError),
    (lambda: gtx.aggregate("mv", None), DataError),
    (lambda: gtx.aggregate("gtx", _RECORDS, {"a": gtx.LabelerEstimate("a", 0.8)}, "x"),
     ConfigError),
    (lambda: gtx.estimate_accuracy("w", None, gtx.AssessmentSet((0,), (1,))), DataError),
    (lambda: gtx.estimate_accuracy("w", {0: 1}, "x"), DataError),
    (lambda: gtx.write_label_records(os.devnull, [1]), DataError),
    (lambda: gtx.run_uncertainty_sampling(None, *_RUN[1:], 4, "gtx", _RNG), DataError),
    (lambda: gtx.run_uncertainty_sampling(*_RUN, 4, "gtx", None), ConfigError),
    (lambda: gtx.run_confidence_threshold(*_RUN, None, 4, "gtx", _RNG), ConfigError),
    (lambda: gtx.run_uncertainty_sampling(_RUN[0], True, _RUN[2], 4, "gtx", _RNG),
     ConfigError),
    (lambda: gtx.run_uncertainty_sampling(_RUN[0], np.array(_POOL), _RUN[2], 4, "gtx", _RNG),
     ConfigError),
    *[(lambda e=e: gtx.run_confidence_threshold(*_RUN[:2], e, gtx.ThresholdConfig(0.9, 2), 4,
                                                "gtx", _RNG), DataError)
      for e in ("x", [1], 3)],
    (lambda: gtx.init_simulation(None, _RNG), ConfigError),
    (lambda: gtx.init_simulation(gtx.SimConfig(10, 3, 0.6, 0.9), None), ConfigError),
    (lambda: gtx.draw_assessment(3, None), ConfigError),
    (lambda: gtx.run_assessment(_POOL, _ASSESSMENT, None), ConfigError),
    (lambda: gtx.run_assessment(None, _ASSESSMENT, _RNG), ConfigError),
    (lambda: gtx.run_assessment(["x"], _ASSESSMENT, _RNG), ConfigError),
    (lambda: gtx.oracle_estimates(None), ConfigError),
    (lambda: gtx.oracle_estimates(["x"]), ConfigError),
    *[(lambda o=o: gtx.trial_report(o, _SCORED[1]), DataError) for o in (None, "x")],
    *[(lambda t=t: gtx.trial_report(_SCORED[0], t), DataError) for t in (None, "x", 3, {})],
    (lambda: gtx.summarize([_REPORT, None]), DataError),
    (lambda: gtx.write_results("x", os.devnull), ConfigError),
    # integers of more digits than Python writes, named before the file is opened
    *[(lambda r=r: gtx.write_label_records("out.jsonl", [r]), DataError)
      for r in [(10**5000, "a", 1), (0, 10**5000, 1)]],
    (lambda: gtx.write_label_records("out.jsonl", [(0, "a", 1), (1, "a", 0)], [1, 10**5000]),
     DataError),
    *[(lambda e=e: gtx.write_event_log("out.jsonl", [e]), DataError)
      for e in [gtx.LabelEvent(1, 10**5000, "a", 1, 0.9), gtx.LabelEvent(1, 0, 10**5000, 1, 0.9)]],
    (lambda: gtx.write_event_log("out.jsonl", EventLog([1], [0], [0], [1], [0.9], [10**5000])),
     DataError),
    # values JSON cannot hold (numpy integers and floats are written as their values)
    *[(lambda e=e: gtx.write_event_log("out.jsonl", [e]), DataError)
      for e in [gtx.LabelEvent(np.int64(1), 0, "a", 1, np.complex64(0.5)),
                gtx.LabelEvent(1, np.float32(0.5).tobytes(), "a", 1, np.float32(0.5)),
                gtx.LabelEvent(1, np.int64(0), {"a"}, 1, 0.5)]],
])
def test_former_leaks_raise_the_contract_types(make, error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error):
        make()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("pool, message", [
    ([gtx.SimLabeler(0, 0.8), gtx.SimLabeler(0, 0.7)], "labeler ids must be unique"),
    ([gtx.SimLabeler(0, 0.8), gtx.SimLabeler("0", 0.7)],
     "labeler ids must be all strings or all integers"),
    ([], "labeler pool is empty"),
], ids=["duplicate", "mixed", "empty"])
@pytest.mark.parametrize("use", [
    lambda pool: gtx.oracle_estimates(pool),
    lambda pool: gtx.run_assessment(pool, _ASSESSMENT, _RNG),
    lambda pool: gtx.run_uncertainty_sampling(
        _RUN[0], pool, _RUN[2], 4, "gtx", np.random.default_rng(0)),
], ids=["oracle_estimates", "run_assessment", "engine"])
def test_every_pool_taker_rejects_the_pools_the_engines_reject(pool, message, use):
    # estimates are keyed by labeler id, so two labelers of one id would share one
    with pytest.raises(ConfigError, match=f"^{message}$"):
        use(pool)


_SWEEP = gtx.run_threshold_experiment(gtx.config_from_dict(
    {"strategy": "threshold", "trials": 1, "budget": 8, "n_examples": 4, "n_labelers": 2,
     "kappa": 2, "tau_grid": [0.9], "fixed_counts": [1]}))
PATH_CALLS = {
    "load_config": gtx.load_config,
    "read_assessment_set": gtx.read_assessment_set,
    "read_label_records": gtx.read_label_records,
    "write_event_log": lambda path: gtx.write_event_log(path, []),
    "write_label_records": lambda path: gtx.write_label_records(path, _RECORDS),
    "write_results": lambda path: gtx.write_results(_SWEEP, path),
}


@pytest.mark.parametrize("bad", [None, 5, [1]], ids=["None", "int", "list"])
@pytest.mark.parametrize("name", sorted(PATH_CALLS))
def test_a_path_that_is_no_path_is_a_config_error_and_writes_nothing(
        name, bad, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="a path must be a str or an os.PathLike"):
        PATH_CALLS[name](bad)
    assert list(tmp_path.iterdir()) == []


def _numpy_form(v, ints, float32):
    """``v`` with its numbers as numpy scalars, inside tuples and lists too:
    ints as ``ints``, floats as float32 when ``float32`` is set and float32
    holds them exactly, else as float64."""
    if isinstance(v, (list, tuple)):
        return type(v)(_numpy_form(x, ints, float32) for x in v)
    if type(v) is int:
        return ints(v)
    if type(v) is float:
        return np.float32(v) if float32 and float(np.float32(v)) == v else np.float64(v)
    return v


# valid arguments that float32 holds exactly, beside the bases above
_EXACT_ARGS = [("ClassPrior", (0.25, 0.75)), ("LabelerEstimate", ("a", 0.75, 10)),
               ("SimConfig", (10, 3, 0.5, 0.75)), ("SimLabeler", (0, 0.75)),
               ("ThresholdConfig", (0.75, 3, None))]
# SimDataset takes an array, which is numpy already
NUMPY_CASES = [(name, args) for name, bases in VALID_ARGS.items() if name != "SimDataset"
               for args in bases] + _EXACT_ARGS


@pytest.mark.parametrize("ints, float32", [(np.int64, False), (np.int32, True)],
                         ids=["int64-float64", "int32-float32"])
@pytest.mark.parametrize("name, args", NUMPY_CASES,
                         ids=[f"{name}-{j}" for j, (name, _) in enumerate(NUMPY_CASES)])
def test_numpy_scalars_build_what_python_numbers_build(name, args, ints, float32):
    cls = getattr(gtx, name)
    made = cls(*_numpy_form(args, ints, float32))
    assert made == cls(*args)
    if name == "ExperimentConfig":  # its dict is written as run.json
        assert json.dumps(made.as_dict()) == json.dumps(cls(*args).as_dict())


# The builtin exceptions the package may raise: internal checks whose
# failure marks a bug, by (module, enclosing function, exception).
INTERNAL_CHECKS = {
    ("experiments.py", "_uncertainty_curves", "ValueError"),
}
_BUILTIN_ERRORS = {name for name, v in vars(builtins).items()
                   if isinstance(v, type) and issubclass(v, BaseException)}


def _builtin_raises(tree):
    """``(function, exception)`` of every ``raise`` of a builtin exception."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in _BUILTIN_ERRORS:
                found.append((func, exc.id))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_internal_checks_raise_builtin_exceptions():
    src = Path(gtx.__file__).parent
    raised = {(path.name, func, exc) for path in sorted(src.glob("*.py"))
              for func, exc in _builtin_raises(ast.parse(path.read_text(encoding="utf-8")))}
    assert raised == INTERNAL_CHECKS


def test_only_errors_decides_what_a_number_is():
    # errors.is_int and errors.is_number are the one home of that rule
    src = Path(gtx.__file__).parent
    importers = {path.name for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "numbers"}
    assert importers == {"errors.py"}


# the record rules' messages, raised only by their one home, io._columns
_RECORD_RULES = ("strictly increasing", "duplicate label for example",
                 "value must be the int 0 or 1")


def _rule_raises(tree):
    """``(function, message)`` of every ``raise`` whose text holds a record
    rule's message."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    found += [(func.name, rule) for text in ast.walk(node.exc)
                              if isinstance(text, ast.Constant) and isinstance(text.value, str)
                              for rule in _RECORD_RULES if rule in text.value]
    return found


def test_only_one_check_raises_the_record_rules():
    # write_label_records, _read_lines and _read_block state no rule themselves
    seen = _rule_raises(ast.parse("def f(at):\n    raise E(f'{at}: steps must be strictly "
                                  "increasing')\n"))
    assert seen == [("f", "strictly increasing")]
    src = Path(gtx.__file__).parent
    raised = {(path.name, func, rule) for path in sorted(src.glob("*.py"))
              for func, rule in _rule_raises(ast.parse(path.read_text(encoding="utf-8")))}
    assert raised == {("io.py", "_columns", rule) for rule in _RECORD_RULES}


def test_the_guard_sees_a_plain_raise():
    tree = ast.parse("def f():\n    raise ValueError('x')\n\ndef g():\n    raise KeyError\n")
    assert _builtin_raises(tree) == [("f", "ValueError"), ("g", "KeyError")]

"""Span tracing of gtx's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of each gtx module, in
every gtx namespace that holds a reference to it, with a wrapper that
records a span (id, parent id, name, start, end).  Self time is a span's
duration minus the time its child spans cover.  Statistics count every
call; only the first ``SPANS_PER_NAME`` spans of each function are kept for
the spans file, so that per-vote calls do not fill memory.

Two per-value helpers are left unwrapped because wrapping them would cost
more than their work: their time stays in their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from time import perf_counter

from reference import RULES

MODULES = (
    "model",
    "aggregators",
    "assessment",
    "simulation",
    "strategies",
    "metrics",
    "experiments",
    "io",
    "cli",
)
UNWRAPPED = {"model.as_label", "io.fmt"}
SPANS_PER_NAME = 2000


def _method_tag(position):
    """Tag an engine span by method (plus "+events" when logging) and count
    the labels it spent."""

    def tag(args, kwargs, result):
        method = args[position] if len(args) > position else kwargs["method"]
        events = "+events" if kwargs.get("record_events", True) else ""
        return f"{method}{events}", result.ledger.spent

    return tag


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return None, os.path.getsize(path)


# name -> tagger(args, kwargs, result) -> (tag or None, amount)
TAGGERS = {
    "strategies.run_confidence_threshold": _method_tag(5),
    "strategies.run_uncertainty_sampling": _method_tag(4),
    "aggregators.aggregate": lambda a, k, r: (str(a[0] if a else k["method"]), 1),
    "io.read_label_records": lambda a, k, r: (None, len(r[0])),
    "io.write_csv": _file_bytes,
    "io.write_event_log": _file_bytes,
}


def patch(wrap, wanted):
    """Replace each public gtx function whose "module.function" name
    ``wanted`` accepts by ``wrap(name, fn)``, in every gtx namespace that
    holds a reference to it.  Returns (namespace, attribute, original)
    triples for ``unpatch``."""
    package = importlib.import_module("gtx")
    modules = [importlib.import_module(f"gtx.{m}") for m in MODULES]
    wrappers = {}
    for short, mod in zip(MODULES, modules):
        public = getattr(mod, "__all__", None) or [
            n for n in vars(mod) if not n.startswith("_")
        ]
        for attr in public:
            fn = getattr(mod, attr)
            name = f"{short}.{attr}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and wanted(name):
                wrappers[fn] = wrap(name, fn)
    patched = []
    for mod in [package, *modules]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                patched.append((mod, attr, value))
    return patched


def unpatch(patched):
    for mod, attr, value in reversed(patched):
        setattr(mod, attr, value)
    patched.clear()


class Stat:
    __slots__ = ("calls", "inclusive", "self_time", "amount")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.amount = 0


class Tracer:
    def __init__(self, clock=perf_counter):
        """``clock`` gives the span times in seconds."""
        self.clock = clock
        self.origin = clock()
        self.stack = []  # open spans: [span id, seconds covered by children]
        self.stats = {}  # "module.function" or "module.function[tag]" -> Stat
        self.spans = []
        self.next_id = 0
        self._patched = []

    def _stat(self, key):
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _wrap(self, name, fn):
        stack = self.stack
        clock = self.clock
        stat = self._stat(name)
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.inclusive += duration
                stat.self_time += duration - frame[1]
                if stat.calls <= SPANS_PER_NAME:
                    self.spans.append((span_id, parent, name, t0, t1))
            if tagger is not None:
                tag, amount = tagger(args, kwargs, result)
                stat.amount += amount
                if tag is not None:
                    sub = self._stat(f"{name}[{tag}]")
                    sub.calls += 1
                    sub.inclusive += duration
                    sub.amount += amount
            return result

        return traced

    def install(self):
        self._patched = patch(self._wrap, lambda name: name not in UNWRAPPED)
        return self

    def uninstall(self):
        unpatch(self._patched)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": t0 - self.origin,
                            "end": t1 - self.origin,
                        }
                    )
                    + "\n"
                )

    # ------------------------------------------------------------------
    # per-layer metrics

    def layer_metrics(self, rounds, busy, setup):
        """Per-layer metrics, times and counts per round.

        ``busy`` is the measured wall time of the calls into gtx, summed over
        ``rounds`` rounds; ``setup`` holds the worker's own import and config
        load times.
        """
        stats = self.stats
        empty = Stat()

        def get(key):
            return stats.get(key, empty)

        def ms(key):
            return get(key).inclusive * 1000.0 / rounds

        def rate(keys):
            amount = sum(get(k).amount for k in keys)
            seconds = sum(get(k).inclusive for k in keys)
            return amount / seconds if seconds else 0.0

        th = "strategies.run_confidence_threshold"
        un = "strategies.run_uncertainty_sampling"
        m = {}
        for rule in RULES:
            m[f"strategies.threshold.labels_per_s.{rule}"] = rate([f"{th}[{rule}]"])
        m["strategies.threshold_events.labels_per_s"] = rate(
            [f"{th}[{rule}+events]" for rule in RULES]
        )
        for rule in RULES:
            m[f"strategies.uncertainty.labels_per_s.{rule}"] = rate(
                [f"{un}[{rule}]", f"{un}[{rule}+events]"]
            )
        m["strategies.calls"] = (get(th).calls + get(un).calls) / rounds
        m["strategies.labels"] = (get(th).amount + get(un).amount) / rounds
        m["simulation.build_trial_env_ms"] = ms("experiments.build_trial_env")
        m["assessment.run_assessment_ms"] = ms("assessment.run_assessment")
        m["metrics.trial_report_ms"] = ms("metrics.trial_report")
        m["metrics.summarize_ms"] = ms("metrics.summarize")
        m["metrics.mean_se_ms"] = ms("metrics.mean_se")
        m["metrics.mean_se_calls"] = get("metrics.mean_se").calls / rounds
        m["experiments.self_ms"] = sum(
            s.self_time
            for k, s in stats.items()
            if k.startswith("experiments.")
            and "[" not in k
            and k != "experiments.write_results"
        ) * 1000.0 / rounds
        m["experiments.write_results_ms"] = ms("experiments.write_results")
        m["io.write_csv_ms"] = ms("io.write_csv")
        m["io.write_event_log_ms"] = ms("io.write_event_log")
        m["io.write_aggregates_csv_ms"] = ms("io.write_aggregates_csv")
        m["io.bytes_written"] = (
            get("io.write_csv").amount + get("io.write_event_log").amount
        ) / rounds
        m["io.read_label_records.records_per_s"] = rate(["io.read_label_records"])
        m["io.records_read"] = get("io.read_label_records").amount / rounds
        m["io.load_config_ms"] = setup["load_config_s"] * 1000.0
        m["cli.import_s"] = setup["import_s"]
        m["assessment.estimate_accuracy_ms"] = ms("assessment.estimate_accuracy")
        for rule in RULES:
            key = f"aggregators.aggregate[{rule}]"
            seconds = get(key).inclusive
            m[f"aggregators.aggregate.per_s.{rule}"] = (
                get(key).calls / seconds if seconds else 0.0
            )
        m["trace.self_time_share"] = self.self_total() / busy if busy else 0.0
        return m

    def self_total(self):
        return sum(s.self_time for k, s in self.stats.items() if "[" not in k)

    def table(self, rounds, busy):
        """Per-function and per-module self time, calls and share of the
        measured gtx wall time, per round."""
        lines = [
            f"{'layer':44} {'calls/round':>12} {'self ms/round':>14} {'share':>7}"
        ]
        by_module = {}
        for key in sorted(self.stats):
            s = self.stats[key]
            if "[" in key or not s.calls:
                continue
            by_module.setdefault(key.split(".")[0], []).append((key, s))
        for module, rows in by_module.items():
            total = sum(s.self_time for _, s in rows)
            lines.append(
                f"{module:44} {'':>12} {total * 1000 / rounds:14.1f} "
                f"{100 * total / busy:6.1f}%"
            )
            for key, s in rows:
                lines.append(
                    f"  {key:42} {s.calls / rounds:12.1f} "
                    f"{s.self_time * 1000 / rounds:14.2f} {100 * s.self_time / busy:6.1f}%"
                )
        total = self.self_total()
        lines.append(
            f"{'all layers':44} {'':>12} {total * 1000 / rounds:14.1f} "
            f"{100 * total / busy:6.1f}% of {busy * 1000 / rounds:.1f} ms gtx wall time"
        )
        return lines

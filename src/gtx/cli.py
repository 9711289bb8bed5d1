"""Command-line entry points.

Exit codes: 0 on success, 1 on a usage error or a ``ConfigError``, 2 on a
``DataError`` or another ``GtxError``, an ``OSError`` or a ``MemoryError``
(a run too large for memory).  Any other exception is a traceback: a bug.
Progress goes to stderr so stdout stays clean; results land only in files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DataError, GtxError
from .experiments import (
    run_threshold_experiment,
    run_uncertainty_experiment,
    write_results,
)
from .io import (
    _read_label_file,
    load_config,
    read_assessment_set,
    write_csv,
    write_json,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtx",
        description="Label collection experiments: impute truth from noisy "
        "crowd labels under a budget.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, text in [
        ("threshold", "sweep stopping parameters for the confidence-threshold strategy"),
        ("uncertainty", "run uncertainty sampling for each method under one budget"),
    ]:
        p = subs.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")

    p = subs.add_parser(
        "assess",
        help="estimate labeler accuracies from recorded labels and expert truth",
    )
    p.add_argument("--labels", required=True, help="JSONL label records to score")
    p.add_argument("--truth", required=True, help="JSONL expert labels (gold)")
    p.add_argument("--out", required=True, help="output directory")
    return parser


_RUNNERS = {
    "threshold": run_threshold_experiment,
    "uncertainty": run_uncertainty_experiment,
}


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    if config.strategy != args.command:
        raise ConfigError(
            f"config has strategy {config.strategy!r} but the "
            f"{args.command!r} command was requested"
        )
    runner = _RUNNERS[args.command]
    result = runner(config, workers=args.workers,
                    progress=lambda msg: print(msg, file=sys.stderr))
    write_results(result, args.out)
    print(f"wrote results to {args.out}", file=sys.stderr)
    return 0


def _cmd_assess(args) -> int:
    from .assessment import estimate_accuracy

    truth = read_assessment_set(args.truth)
    truth_ids = set(truth.example_ids)
    by_labeler: dict = {}

    def take(example_ids, labeler_ids, values, _):  # a block's columns: no record is built
        for ex, lab, value in zip(example_ids, labeler_ids, values):
            if ex in truth_ids:
                by_labeler.setdefault(lab, {})[ex] = value

    _read_label_file(args.labels, take)
    if not by_labeler:
        raise DataError("no label records overlap the truth set")
    estimates = [
        estimate_accuracy(labeler_id, responses, truth)
        for labeler_id, responses in by_labeler.items()
    ]
    estimates.sort(key=lambda e: str(e.labeler_id))
    for a, b in zip([None, *estimates], estimates):  # ids of equal text sort together
        try:
            str(b.labeler_id).encode()
        except UnicodeEncodeError:  # a lone surrogate, which JSON can escape
            raise DataError(f"labeler id {b.labeler_id!r} is not valid text") from None
        if a is not None and str(a.labeler_id) == str(b.labeler_id):
            raise DataError(f"labeler ids {a.labeler_id!r} and {b.labeler_id!r} "
                            "would read the same in estimates.csv")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "estimates.csv",
        ["labeler_id", "n_assessed", "accuracy"],
        ([e.labeler_id, e.n_assessed, e.accuracy] for e in estimates),
    )
    payload = {
        "command": "assess",
        "n_labelers": len(estimates),
        "n_items": len(truth),
    }
    write_json(out_dir / "run.json", payload)
    print(f"wrote estimates for {len(estimates)} labelers to {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage problems are config
        # problems here (exit 1), while 2 is reserved for runtime failures.
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command == "assess":
            return _cmd_assess(args)
        return _cmd_experiment(args)
    except (GtxError, OSError, MemoryError) as exc:  # anything else is a bug
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())

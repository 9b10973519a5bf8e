"""`bench` command line front end.

Subcommands: run (sweep schedulers and emit the report), train (fit the
dispatch policy on the toy problem), summarize (rebuild summary/deltas from
an existing results.csv). `bench run` prints the sha256 of the results.csv
it wrote; reruns print the same digest, whatever --jobs is. `bench
--show-params` prints every default scheduler parameter and exits, without
running a subcommand given with it. A file that cannot be read, like any
bad input, ends the command with `error: ...` on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (
    DELTA_COLUMNS,
    RESULT_COLUMNS,
    SUMMARY_COLUMNS,
    compute_deltas,
    default_config,
    load_config,
    run_experiment,
    run_training,
    summarize,
    write_rows_csv,
)
from .errors import ConfigurationError
from .metrics import QosWeights
from .rewards import RewardConfig
from .schedulers import DEFAULT_ACO_PARAMS, DEFAULT_GAACO_PARAMS, DEFAULT_SA_PARAMS


def show_params(stream=None) -> None:
    stream = stream or sys.stdout
    sections = (
        ("gaaco", DEFAULT_GAACO_PARAMS),
        ("aco", DEFAULT_ACO_PARAMS),
        ("sa", DEFAULT_SA_PARAMS),
        ("weights", QosWeights()),
        ("reward", RewardConfig()),
    )
    for name, obj in sections:
        print(f"[{name}]", file=stream)
        for f in fields(obj):
            print(f"  {f.name} = {getattr(obj, f.name)}", file=stream)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark task schedulers on generated cloud workloads.",
    )
    parser.add_argument(
        "--show-params",
        action="store_true",
        help="print default scheduler parameters and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run the configured sweep and write the report")
    p_run.add_argument("--config", help="JSON experiment config (defaults when omitted)")
    p_run.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p_run.add_argument("--out", help="output directory (overrides the config)")

    p_train = sub.add_parser("train", help="train the dispatch policy and save it")
    p_train.add_argument("--config", help="JSON experiment config (train section applies)")
    p_train.add_argument("--out", default="policy.txt", help="policy output path")

    p_sum = sub.add_parser("summarize", help="recompute summary and deltas from results.csv")
    p_sum.add_argument("--results", required=True, help="path to an existing results.csv")
    p_sum.add_argument("--out", required=True, help="directory for summary.csv and deltas.csv")
    return parser


def _load(config_path: str | None):
    return load_config(config_path) if config_path else default_config()


def _cmd_run(args) -> int:
    config = _load(args.config)
    if args.jobs < 1:
        raise ConfigurationError("--jobs must be >= 1")
    out_dir = args.out if args.out else config.output_dir
    rows = run_experiment(config, jobs=args.jobs, out_dir=out_dir)
    ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"{len(rows)} rows ({ok} ok) -> {out_dir}")
    if out_dir:
        digest = hashlib.sha256(Path(out_dir, "results.csv").read_bytes()).hexdigest()
        print(f"results.csv sha256 {digest}")
    return 0 if ok == len(rows) else 2


def _cmd_train(args) -> int:
    config = _load(args.config)
    report = run_training(config, args.out)
    print(f"saved policy -> {args.out}")
    print(
        "trained return {trained_return:.3f} vs random {random_return:.3f} "
        "(improvement {improvement:+.1%})".format(**report)
    )
    return 0


def _read_results(path: str) -> list[dict]:
    """results.csv rows with their numbers parsed. A file that cannot be
    read, lacks a column or holds a non-number in a numeric column is a
    ConfigurationError naming it (and the line and column)."""

    def bad(reason: str) -> ConfigurationError:
        return ConfigurationError(f"cannot read results file {path}: {reason}")

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            raw = [(reader.line_num, entry) for entry in reader]
    except OSError as exc:
        raise bad(exc.strerror) from exc
    except UnicodeDecodeError as exc:
        raise bad(f"not UTF-8 (byte {exc.start})") from exc
    except csv.Error as exc:
        raise bad(str(exc)) from exc
    if not raw:
        raise ConfigurationError(f"{path} holds no rows")
    if "score" not in reader.fieldnames and "multi_qos" in reader.fieldnames:
        raise bad("no score column; multi_qos is the old pooled score, which summarize no longer reads")
    for column in RESULT_COLUMNS:
        if column not in reader.fieldnames:
            raise bad(f"no {column} column")
    numeric = {"task_count": int, "seed": int}
    numeric.update(dict.fromkeys(("avg_time_cost", "avg_money_cost", "score", "load_rate"), float))
    rows = []
    for line, entry in raw:
        row = dict(entry)
        for column, kind in numeric.items():
            try:
                row[column] = kind(row[column])
            except (TypeError, ValueError):
                raise bad(f"line {line}: {column} {row[column]!r} is not a number") from None
        rows.append(row)
    return rows


def _cmd_summarize(args) -> int:
    rows = _read_results(args.results)
    summary = summarize(rows)
    target = Path(args.out)
    target.mkdir(parents=True, exist_ok=True)
    write_rows_csv(target / "summary.csv", summary, SUMMARY_COLUMNS)
    write_rows_csv(target / "deltas.csv", compute_deltas(summary), DELTA_COLUMNS)
    print(f"summary and deltas -> {target}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.show_params:
            show_params()
            return 0
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        parser.print_help()
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

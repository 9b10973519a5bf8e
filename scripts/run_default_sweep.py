"""Run the default benchmark sweep and print the headline comparisons.

Equivalent to `bench run --out <dir>` plus a short console digest of how the
hybrid scheduler compares against the two baselines at the largest task count,
and the sha256 of the results.csv it wrote: reruns, and runs with any --jobs,
print the same digest.

Usage: python3 scripts/run_default_sweep.py [--out sweep_out] [--jobs N]
"""

import argparse
import hashlib
import sys
from pathlib import Path

from cloudsched.bench import default_config, run_experiment, summarize


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="sweep_out", help="report directory")
    ap.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = ap.parse_args()

    config = default_config()
    rows = run_experiment(config, jobs=args.jobs, out_dir=args.out)
    ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"{len(rows)} cells run, {ok} ok; report in {args.out}/")
    digest = hashlib.sha256(Path(args.out, "results.csv").read_bytes()).hexdigest()
    print(f"results.csv sha256 {digest}")

    summary = {(s["algorithm"], s["task_count"]): s for s in summarize(rows)}
    top = config.sweep.stop
    for metric, label in (("time_median", "time cost"), ("load_median", "load rate")):
        g = summary[("gaaco", top)][metric]
        a = summary[("aco", top)][metric]
        s = summary[("sa", top)][metric]
        print(f"{label} at {top} tasks: gaaco {g:.4f}, aco {a:.4f}, sa {s:.4f}")
    return 0 if ok == len(rows) else 2


if __name__ == "__main__":
    sys.exit(main())

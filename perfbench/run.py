"""cloudsched benchmark: one workload, one process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search-batch --seed 1 --seconds 40 --trace 0

Workloads are `search-batch`, `search-dag` and `dispatch-learned` (see
workloads.py). The run imports the package from `src/` and generates its
inputs from `--seed` several times, reporting the median as `setup_s`, then
repeats rounds of the workload until the next round would end after
`--seconds`. Between the timed calls a speed probe (probe.py) samples the
host, and every end-to-end time is reported at its reference speed; the
raw times are recorded too. `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced rounds and reports the per-module metrics,
the tracing overhead and the share of the traced wall each module took.
`--smoke` runs tiny inputs on the same code path.

Every output trace is checked (checks.py); a violation counts as a failed
operation and makes the run exit 1. Earlier stdout lines carry a report
stamped with the machine, versions, commit, seed, input sizes, sample counts
and the sha256 of the result rows; the last line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from probe import NOMINAL_S, NoProbe, SpeedProbe
from tracing import Tracer, span_stats
from workloads import SEARCHES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("bench", "schedulers", "simulator", "metrics", "rewards", "policy", "workload")
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "tasks/s",
    "decision_us_p50": "us",
    "decision_us_p90": "us",
    "flow_time_s": "s",
    "load_peak_ratio": "ratio",
    "deadline_met_frac": "fraction",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
}

# Per traced round: ".calls" counts spans, ".s" is self time.
_SPAN_METRICS = (
    "schedulers.gaaco_schedule.s",
    "schedulers.aco_schedule.s",
    "schedulers.sa_schedule.s",
    "schedulers.eft_schedule.calls",
    "schedulers.eft_schedule.s",
    "simulator.run_simulation.calls",
    "simulator.run_simulation.s",
    "simulator.step.calls",
    "simulator.step.s",
    "simulator.init_state.s",
    "simulator.scan_overuse.s",
    "simulator.machine_usage_series.s",
    "rewards.total_reward.calls",
    "rewards.total_reward.s",
    "rewards.kmeans_cluster.s",
    "rewards.dtw_distance.calls",
    "rewards.dtw_distance.s",
    "policy.policy_forward.calls",
    "policy.policy_forward.s",
    "policy.encode_state.s",
    "policy.valid_actions.s",
    "policy.reinforce_update.calls",
    "policy.reinforce_update.s",
    "policy.train.s",
    "policy.SchedulingEnv.step.s",
    "metrics.raw_qos.s",
    "metrics.qos_scores.s",
    "metrics.load_rate.s",
    "bench.run_cell_group.s",
    "bench.build_cell_workload.s",
    "bench.emit_report.s",
    "workload.generate_tasks.s",
)
LAYERS = ("schedulers", "simulator", "rewards", "policy", "metrics", "bench", "workload")

PER_LAYER = {name: ("count" if name.endswith(".calls") else "s") for name in _SPAN_METRICS}
PER_LAYER.update({
    "schedulers.sim_calls_per_cell": "count",
    "simulator.run_simulation.tasks_per_s": "tasks/s",
    "rewards.dtw_pairs_per_s": "pairs/s",
    "setup.workload.generate_tasks.s": "s",
    "setup.workload.generate_profiles.s": "s",
    "gaaco_cell_s": "s",
    "aco_cell_s": "s",
    "sa_cell_s": "s",
    "trace.untraced_round_s": "s",
    "trace.traced_round_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.remainder_s": "s",
    "trace.spans_per_round": "count",
})
PER_LAYER.update({f"share.{layer}": "fraction" for layer in LAYERS})
PER_LAYER["share.remainder"] = "fraction"


def import_program() -> SimpleNamespace:
    """Fresh import of the package, so every set-up repeat pays for it."""
    for name in [m for m in sys.modules if m == "cloudsched" or m.startswith("cloudsched.")]:
        del sys.modules[name]
    importlib.import_module("cloudsched")
    return SimpleNamespace(**{m: importlib.import_module(f"cloudsched.{m}") for m in MODULES})


def bindings(cs: SimpleNamespace) -> list:
    """(owner, attribute, span name, work fn) for every traced boundary.

    A function is wrapped where the calling module binds it, so the span
    name names the callee's module and the owner names the caller.
    """
    tasks_of = lambda args: len(args[0].dag.tasks)  # noqa: E731
    out = []

    def add(owner, attrs, module, work=None):
        out.extend((owner, a, f"{module}.{a}", work) for a in attrs)

    searches = [f"{s}_schedule" for s in SEARCHES] + ["eft_schedule"]
    add(cs.bench, ["run_cell_group", "build_cell_workload", "emit_report"], "bench")
    add(cs.bench, searches, "schedulers")
    add(cs.bench, ["run_simulation"], "simulator", tasks_of)
    add(cs.bench, ["raw_qos", "qos_scores", "load_rate", "machine_usage_totals"], "metrics")
    add(cs.bench, ["generate_tasks"], "workload")
    add(cs.schedulers, searches, "schedulers")
    add(cs.schedulers, ["run_simulation"], "simulator", tasks_of)
    add(cs.schedulers, ["raw_qos", "qos_scores"], "metrics")
    add(cs.simulator, ["run_simulation"], "simulator", tasks_of)
    add(cs.simulator, ["scan_overuse", "machine_usage_series"], "simulator")
    add(cs.metrics, ["raw_qos", "qos_scores", "load_rate", "machine_usage_totals"], "metrics")
    add(cs.policy, ["step", "init_state"], "simulator")
    add(cs.policy, ["total_reward"], "rewards")
    add(cs.policy, ["encode_state", "valid_actions", "policy_forward", "reinforce_update", "train"], "policy")
    add(cs.policy.SchedulingEnv, ["step", "reset"], "policy.SchedulingEnv")
    add(cs.rewards, ["kmeans_cluster", "dtw_distance"], "rewards")
    add(cs.workload, ["generate_tasks", "generate_profiles"], "workload")
    return out


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def mean(values):
    return statistics.fmean(values) if values else float("nan")


def median(values):
    """Median of the completed traces' figures; nan when none completed."""
    return statistics.median(values) if values else float("nan")


def decision_percentiles(rounds, probe):
    """p50 and p90 of one decision in microseconds at the reference speed,
    and the sample count behind them.

    On dispatch-learned each finished deployment's greedy steps give a p50
    and a p90, and the median over deployments is reported: a deployment
    that a burst on the host slowed then moves neither figure. On the search
    workloads each search cell's time per task placed is one sample.
    """
    deployments = [d for r in rounds for d in r.deployments]
    if deployments:
        p50s, p90s = [], []
        for t0, t1, latencies in deployments:
            scaled = [d * probe.factor(t0, t1) * 1e6 for d in latencies]
            p50s.append(statistics.median(scaled))
            p90s.append(p90(scaled))
        return statistics.median(p50s), statistics.median(p90s), sum(len(d[2]) for d in deployments)
    cells = [probe.scaled(s, t0, t1) / n * 1e6 for r in rounds for _, n, s, t0, t1 in r.cells]
    return statistics.median(cells), p90(cells), len(cells)


def cell_medians(rounds, probe):
    """Median time of one cell per search scheduler at its largest task
    count, at the reference speed."""
    out = {}
    for s in SEARCHES:
        cells = [c for r in rounds for c in r.cells if c[0] == s]
        if cells:
            top = max(c[1] for c in cells)
            out[f"{s}_cell_s"] = statistics.median(
                probe.scaled(secs, t0, t1) for _, n, secs, t0, t1 in cells if n == top
            )
        else:
            out[f"{s}_cell_s"] = 0
    return out


def end_to_end(rounds, setups, probe, peak_rss_mb, failed, attempted):
    """The gated metrics; every time is scaled to the reference speed, and
    the raw times are returned beside them."""
    first = rounds[0]
    decision_p50, decision_p90, decision_count = decision_percentiles(rounds, probe)
    values = {
        "setup_s": statistics.median(probe.scaled(*s) for s in setups),
        "tasks_per_s": statistics.median(r.tasks / probe.scaled(r.wall, r.t0, r.t1) for r in rounds),
        "decision_us_p50": decision_p50,
        "decision_us_p90": decision_p90,
        "flow_time_s": median(first.flow),
        "load_peak_ratio": median(first.peak),
        "deadline_met_frac": median(first.deadline),
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_p50, raw_p90, _ = decision_percentiles(rounds, NoProbe())
    recorded = {
        "mean_flow_time_s": mean(first.flow),
        "load_imbalance": mean(first.load),
        "error_rate": failed / attempted,
        **cell_medians(rounds, probe),
        "unscaled": {
            "setup_s": statistics.median(s[0] for s in setups),
            "tasks_per_s": statistics.median(r.tasks / r.wall for r in rounds),
            "decision_us_p50": raw_p50,
            "decision_us_p90": raw_p90,
            **cell_medians(rounds, NoProbe()),
        },
    }
    samples = {
        "setup_s": len(setups),
        "rounds": len(rounds),
        "decision_us": decision_count,
        "deployments": sum(len(r.deployments) for r in rounds),
        "quality_traces": len(first.flow),
        "cell_s": sum(1 for r in rounds for c in r.cells if c[0] == SEARCHES[0]),
    }
    return values, recorded, samples


def per_layer(untraced, traced, spans, setup_span_range, probe):
    """Medians over traced rounds of per-round span totals."""
    per_round = []
    for rnd, first, last in traced:
        stats = span_stats(spans, first, last)
        wall = stats["round"]["incl_s"]
        v = {}
        for metric in _SPAN_METRICS:
            name, _, kind = metric.rpartition(".")
            v[metric] = stats.get(name, {}).get(kind, 0)
        sim = stats.get("simulator.run_simulation")
        search_cells = sum(1 for c in rnd.cells if c[0] in SEARCHES)
        in_search = sum(sim["parents"][f"schedulers.{s}_schedule"] for s in SEARCHES) if sim else 0
        v["schedulers.sim_calls_per_cell"] = in_search / search_cells if search_cells else 0
        v["simulator.run_simulation.tasks_per_s"] = sim["work"] / sim["incl_s"] if sim else 0
        dtw = stats.get("rewards.dtw_distance")
        v["rewards.dtw_pairs_per_s"] = dtw["calls"] / dtw["incl_s"] if dtw else 0
        for layer in LAYERS:
            v[f"share.{layer}"] = sum(
                e["s"] for name, e in stats.items() if name.split(".")[0] == layer
            ) / wall
        v["trace.remainder_s"] = stats["round"]["s"]
        v["share.remainder"] = stats["round"]["s"] / wall
        v["trace.traced_round_s"] = wall
        v["trace.spans_per_round"] = last - first - 1
        per_round.append(v)
    out = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    untraced_wall = statistics.median(r.wall for r in untraced)
    out["trace.untraced_round_s"] = untraced_wall
    out["trace.overhead_frac"] = (out["trace.traced_round_s"] - untraced_wall) / untraced_wall
    out.update(cell_medians(untraced, probe))
    setup_stats = span_stats(spans, *setup_span_range)
    for fn in ("generate_tasks", "generate_profiles"):
        out[f"setup.workload.{fn}.s"] = setup_stats.get(f"workload.{fn}", {}).get("s", 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs on the same code path")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cloudsched" / "__init__.py").is_file():
        print(f"cloudsched sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]

    probe = SpeedProbe()
    setups = []  # (seconds, start, end)
    for _ in range(2 if args.smoke else SETUP_REPEATS):
        probe(3)
        gc.collect()  # the previous import's garbage is not this set-up's cost
        t0 = time.perf_counter()
        cs = import_program()
        inputs = workload.setup(cs, args.seed, args.smoke)
        t1 = time.perf_counter()
        setups.append((t1 - t0, t0, t1))
    probe(3)

    tracer = Tracer()
    binds = bindings(cs)
    setup_span_range = (0, 0)
    if args.trace:
        with tracer.installed(binds):
            index = tracer.open("setup")
            workload.setup(cs, args.seed, args.smoke)
            tracer.close(index)
        setup_span_range = (0, len(tracer.spans))

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    untraced, traced = [], []
    try:
        start = last = time.perf_counter()
        longest = 0.0
        while True:
            if args.trace and len(untraced) > len(traced):
                first = len(tracer.spans)
                with tracer.installed(binds):
                    rnd = workload.run(cs, inputs, tracer, NoProbe(), tmp)
                traced.append((rnd, first, len(tracer.spans)))
            else:
                untraced.append(workload.run(cs, inputs, None, probe, tmp))
                probe(3)
            now = time.perf_counter()
            longest, last = max(longest, now - last), now
            # Stop before a round that, as long as the longest so far, would overrun.
            if len(untraced) + len(traced) >= 1 + args.trace and now - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    rounds = untraced + [t[0] for t in traced]
    digests = sorted({r.digest for r in rounds})
    violations = [v for r in rounds for v in r.violations]
    if len(digests) > 1:
        violations.append(f"result rows differ between rounds: {digests}")
    # Every round repeats the same operations on the same inputs, so the
    # operations of a run are those of one round; how many rounds fit in
    # --seconds must not change the counts.
    attempted = rounds[0].attempted
    if any(r.failures != rounds[0].failures for r in rounds):
        violations.append("failed operations differ between rounds")
    failures = rounds[0].failures + violations
    failed = min(attempted, len(failures))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        values = per_layer(untraced, traced, tracer.spans, setup_span_range, probe)
        units, recorded = PER_LAYER, {}
        samples = {"setup_s": len(setups), "untraced_rounds": len(untraced), "traced_rounds": len(traced)}
    else:
        values, recorded, samples = end_to_end(untraced, setups, probe, peak_rss_mb, failed, attempted)
        units = END_TO_END

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(), "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(ROOT),
        "input_sizes": inputs["sizes"],
        "samples": samples,
        "recorded": recorded,
        "round_walls_s": [r.wall for r in untraced],
        "speed_probe": {
            "samples": len(probe.samples),
            "median_s": statistics.median(probe.samples),
            "nominal_s": NOMINAL_S,
        },
        "result_rows_sha256": digests[0] if len(digests) == 1 else digests,
        "failures": failures[:10],
        "output_checks": "failed" if violations else "passed",
    }
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer timings of the dispatch path, of simulated annealing and of
the search scorers, written to a BENCH_<n>.json file.

Each figure is the median of --repeats runs (at least 5):

* `kmeans_dtw_<n>users_s`: kmeans_cluster(k=3) with DTW distance over n
  users' 48-slot cpu profiles (flat, diurnal and spike shapes), n = 30, 60.
* `env_step_per_s`: SchedulingEnv.step calls per second with the full
  RewardConfig(), over 5 episodes of 100 profiled tasks on 4 VMs; actions
  are drawn uniformly from the valid ones with a fixed seed, and only the
  step calls are timed.
* `usage_series_100tasks_s`: machine_usage_series on one of those
  deployments with every task sent to one VM, as the benchmark's trained
  policies nearly do.
* `sa_n<n>_s`: one sa_schedule call on the default config's cell of n
  tasks, n = 10, 100, 1000, with cell seed 1 and that cell's scheduler seed
  (bench.scheduler_seed), as `bench run` calls it.
* `raw_fast_n100_us`: microseconds per _Evaluator._raw_fast call on the
  default config's n = 100 cell (cell seed 1), over 2,000 random
  assignment vectors; its inverse is the evaluations/s of the searches on
  instances without precedence edges.
* `raw_dag_4x10_us`: the same for _Tables._raw_dag, the event walk, on a
  layered DAG instance of 4 workflows of 10 tasks on the default fleet,
  built as the benchmark's search-dag instances are (perfbench/workloads.py).

Usage, from the root of a checkout:

    python3 scripts/perf.py --src parent=../parent/src --src change=src --out BENCH_10.json

Each --src names one label and the directory holding the cloudsched package
to time under it. A repeat runs every label once, each in a fresh Python
process that measures every figure once; the label that goes first
alternates from one repeat to the next, so a drift in the host's speed lands
on all labels alike rather than between them. The medians, and the first
and third quartiles, go under each label in --out, next to any labels the
file already holds, with the machine, Python and numpy versions. Only the
standard library and numpy are used.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SHAPES = ("flat", "diurnal", "spike")
FLEET = ((1050.0, 1000.0), (1000.0, 1250.0), (950.0, 800.0), (900.0, 1000.0))  # (mips, bandwidth)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def profiles_for(wk, users: int, seed: int = 1):
    per_shape = users // len(SHAPES)
    out = []
    for k, shape in enumerate(SHAPES):
        for p in wk.generate_profiles(per_shape, 48, seed + k, shape, noise=0.05):
            out.append(wk.UsageProfile(p.user_id + k * per_shape, p.resource, p.series))
    return out


def deployment(wk, profiles, seed: int):
    users = len({p.user_id for p in profiles})
    params = wk.TaskGenParams(
        mean_interarrival=1.0, n_users=users, deadline_slack_range=(30.0, 600.0)
    )
    tasks = wk.generate_tasks(100, seed, params)
    vms = [wk.VmSpec(id=i, mips=m, bandwidth=b) for i, (m, b) in enumerate(FLEET)]
    present = {t.user_id for t in tasks}
    return wk.WorkloadSet.from_tasks(vms, tasks, [p for p in profiles if p.user_id in present])


def time_kmeans(rw, profiles) -> float:
    cpu = [p for p in profiles if p.resource == "cpu"]
    t0 = time.perf_counter()
    rw.kmeans_cluster(cpu, k=3, seed=1)
    return time.perf_counter() - t0


def steps_per_s(pol, rw, workloads) -> float:
    """SchedulingEnv.step calls per second over one episode per workload."""
    steps, spent = 0, 0.0
    for seed, wl in enumerate(workloads):
        env = pol.SchedulingEnv(wl, rw.RewardConfig(), lookahead=3, ready_slots=3)
        rng = np.random.default_rng(seed)
        _, mask = env.reset()
        done = env.state.done
        while not done:
            choices = np.flatnonzero(mask)
            action = int(choices[rng.integers(len(choices))])
            t0 = time.perf_counter()
            _, mask, _, done = env.step(action)
            spent += time.perf_counter() - t0
            steps += 1
    return steps / spent


def sa_cell_s(bench, schedulers, n: int) -> float:
    """One sa_schedule call on the default config's cell (n, seed 1)."""
    config = bench.default_config()
    wl = bench.build_cell_workload(config, n, 1)
    seed = bench.scheduler_seed(n, 1, "sa")
    t0 = time.perf_counter()
    schedulers.sa_schedule(wl, seed=seed, weights=config.weights)
    return time.perf_counter() - t0


def layered_dag(wk, bench, seed: int, flows: int = 4, per_flow: int = 10):
    """`flows` disconnected layered DAGs of `per_flow` tasks submitted at t=0
    with deadlines, on the default fleet: perfbench's search-dag instance."""
    params = wk.TaskGenParams(mean_interarrival=0.0, deadline_slack_range=(8.0, 40.0))
    tasks = wk.generate_tasks(flows * per_flow, seed, params)
    rng = np.random.default_rng([seed, 0xDA6])
    edges = []
    for f in range(flows):
        ids = np.arange(f * per_flow, (f + 1) * per_flow)
        n_layers = int(rng.integers(3, 5))
        cuts = np.sort(rng.choice(np.arange(1, per_flow), n_layers - 1, replace=False))
        layers = np.split(ids, cuts)
        for prev, layer in zip(layers, layers[1:]):
            for t in layer:
                k = min(len(prev), 1 + int(rng.integers(0, 2)))
                edges.extend((int(p), int(t)) for p in rng.choice(prev, k, replace=False))
    return wk.WorkloadSet(list(bench.VmFleetConfig().build()), wk.DagWorkflow(tasks, edges))


def scorer_us(sched, wl, name: str, calls: int = 2000) -> float:
    """Microseconds per call of the evaluator's scorer `name` over `calls`
    seeded random assignment vectors."""
    ev = sched._Evaluator(wl, sched.QosWeights(), np.random.default_rng(0))
    rng = np.random.default_rng(3)
    vecs = [tuple(row) for row in rng.integers(0, len(ev.vm_ids), (calls, len(ev.task_ids))).tolist()]
    score = getattr(ev, name)
    t0 = time.perf_counter()
    for vec in vecs:
        score(vec)
    return (time.perf_counter() - t0) / calls * 1e6


def measure(src: str) -> dict[str, float]:
    """One run of every figure against the cloudsched package in src."""
    sys.path.insert(0, os.path.abspath(src))
    import cloudsched.bench as bench
    import cloudsched.policy as pol
    import cloudsched.rewards as rw
    import cloudsched.schedulers as sched
    import cloudsched.simulator as sim
    import cloudsched.workload as wk

    results = {}
    for users in (30, 60):
        results[f"kmeans_dtw_{users}users_s"] = time_kmeans(rw, profiles_for(wk, users))
    profiles = profiles_for(wk, 30)
    workloads = [deployment(wk, profiles, seed) for seed in range(1, 6)]
    results["env_step_per_s"] = steps_per_s(pol, rw, workloads)
    wl = workloads[0]
    trace = sim.run_simulation(wl, {t.id: wl.vms[0].id for t in wl.tasks})
    t0 = time.perf_counter()
    sim.machine_usage_series(trace, wl)
    results["usage_series_100tasks_s"] = time.perf_counter() - t0
    for n in (10, 100, 1000):
        results[f"sa_n{n}_s"] = sa_cell_s(bench, sched, n)
    cell = bench.build_cell_workload(bench.default_config(), 100, 1)
    results["raw_fast_n100_us"] = scorer_us(sched, cell, "_raw_fast")
    results["raw_dag_4x10_us"] = scorer_us(sched, layered_dag(wk, bench, 1), "_raw_dag")
    return results


def label_path(text: str) -> tuple[str, str]:
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    if not (Path(path) / "cloudsched").is_dir():
        raise argparse.ArgumentTypeError(f"no cloudsched package under {path!r}")
    return label, path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--src", type=label_path, action="append", metavar="LABEL=PATH",
        help="time the cloudsched package under PATH as LABEL; give once per label",
    )
    ap.add_argument("--out", help="JSON file to add the labels to")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--measure", help=argparse.SUPPRESS)  # child process: one run of src
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if not args.src or not args.out:
        ap.error("--src and --out are required")
    labels = dict(args.src)
    if len(labels) != len(args.src):
        ap.error("each --src label must be unique")
    if args.repeats < 5:
        ap.error("--repeats must be at least 5")

    runs: dict[str, list[dict[str, float]]] = {label: [] for label in labels}
    order = list(labels)
    for _ in range(args.repeats):
        for label in order:
            child = subprocess.run(
                [sys.executable, __file__, "--measure", labels[label]],
                capture_output=True, text=True, check=True,
            )
            runs[label].append(json.loads(child.stdout))
        order.reverse()

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    machine = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    for label, label_runs in runs.items():
        results = {name: statistics.median(r[name] for r in label_runs) for name in label_runs[0]}
        quartiles = {
            name: statistics.quantiles([r[name] for r in label_runs], n=4)[::2]
            for name in label_runs[0]
        }
        doc[label] = {
            "machine": machine, "repeats": args.repeats, "results": results, "quartiles": quartiles,
        }
        for name, value in results.items():
            print(f"{label:10s} {name:28s} {value:.6g}")
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

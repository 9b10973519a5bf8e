"""Benchmark harness: sweep schedulers over generated workloads.

One experiment crosses a task-count sweep with a set of seeds and a list of
schedulers. Every scheduler inside one (task_count, seed) cell sees the
identical workload, and every row's blended score scales time and money by
bounds read from that workload, the score the searches minimize, so a row's
score does not depend on which other schedulers ran. Output is a directory
of CSV files plus a self-contained plotting script.

Wall-clock timings go to a separate file (timings.csv) so results.csv stays
byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .codec import decode, encode
from .errors import ConfigurationError, SimulationError
from .metrics import QosWeights, load_rate, machine_usage_totals, raw_qos
from .metrics import qos_scores  # noqa: F401 (perfbench's tracer wraps qos_scores here)
from .policy import (
    SchedulingEnv,
    TrainConfig,
    _rollout,
    evaluate_policy,
    load_policy,
    observation_size,
    save_policy,
    train,
)
from .rewards import RewardConfig
from .schedulers import (
    AcoParams,
    GaacoParams,
    SaParams,
    _Evaluator,
    aco_schedule,
    eft_schedule,
    gaaco_schedule,
    sa_schedule,
)
from .simulator import run_simulation
from .workload import TaskGenParams, VmSpec, WorkloadSet, generate_tasks

_WORKLOAD_STREAM = 9261  # fixed salt so workloads depend only on (count, seed)

RESULT_COLUMNS = (
    "algorithm",
    "task_count",
    "seed",
    "avg_time_cost",
    "avg_money_cost",
    "score",
    "load_rate",
    "status",
)
TIMING_COLUMNS = ("algorithm", "task_count", "seed", "wall_clock_s")
SUMMARY_COLUMNS = (
    "algorithm",
    "task_count",
    "n_ok",
    "time_median",
    "time_mean",
    "time_std",
    "money_median",
    "money_mean",
    "money_std",
    "score_median",
    "score_mean",
    "score_std",
    "load_median",
    "load_mean",
    "load_std",
)
DELTA_COLUMNS = ("metric", "task_count", "algorithm_a", "algorithm_b", "delta_pct")

_SUMMARY_METRICS = (
    ("time", "avg_time_cost"),
    ("money", "avg_money_cost"),
    ("score", "score"),
    ("load", "load_rate"),
)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VmFleetConfig:
    """Homogeneous machine fleet; one VmSpec per id 0..count-1."""

    count: int = 10
    mips: float = 1000.0
    bandwidth: float = 1000.0
    instr_cost_rate: float = 0.01
    bw_cost_rate: float = 0.01

    def __post_init__(self):
        if self.count < 1:
            raise ConfigurationError("fleet count must be >= 1")
        VmSpec(id=0, **self._machine())  # reject bad machine values at load

    def _machine(self) -> dict[str, Any]:
        """Every field but count, as VmSpec arguments."""
        fields = asdict(self)
        del fields["count"]
        return fields

    def build(self) -> tuple[VmSpec, ...]:
        machine = self._machine()
        return tuple(VmSpec(id=i, **machine) for i in range(self.count))


@dataclass(frozen=True)
class SweepConfig:
    """Task counts to sweep: start, start+step, ... up to stop inclusive."""

    start: int = 10
    stop: int = 100
    step: int = 10

    def __post_init__(self):
        if self.start < 1 or self.stop < self.start or self.step < 1:
            raise ConfigurationError("sweep needs 1 <= start <= stop and step >= 1")

    def counts(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.stop + 1, self.step))


_ALGORITHMS = ("gaaco", "aco", "sa", "eft", "policy")


@dataclass(frozen=True)
class SchedulerSpec:
    """One scheduler entry: display name, algorithm, optional overrides."""

    name: str
    algorithm: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)
    policy_file: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("scheduler name must be nonempty")
        if not self.algorithm:
            object.__setattr__(self, "algorithm", self.name)
        if self.algorithm not in _ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; choose one of {_ALGORITHMS}"
            )
        if self.algorithm == "policy" and not self.policy_file:
            raise ConfigurationError("policy scheduler needs a policy_file")
        if self.algorithm != "policy" and self.policy_file is not None:
            raise ConfigurationError(f"{self.algorithm!r} takes no policy_file")
        self.build_params()  # reject bad keys before any work happens

    def build_params(self):
        kind = {"gaaco": GaacoParams, "aco": AcoParams, "sa": SaParams}.get(self.algorithm)
        if kind is None:
            if self.params:
                raise ConfigurationError(f"{self.algorithm!r} takes no params")
            return None
        try:
            return decode(kind, dict(self.params), "params")
        except ConfigurationError as exc:
            raise ConfigurationError(f"bad params for {self.name!r}: {exc}") from exc


@dataclass(frozen=True)
class TrainSetup:
    """Small dispatch problem used to train and score the policy scheduler.

    Machines differ in speed so placement matters; tasks arrive spread out
    over time so the queue features carry signal. The reward is pure waiting
    penalty (no resource profiles in this setup).
    """

    machine_mips: tuple[float, ...] = (1000.0, 500.0)
    n_tasks: int = 8
    length_range: tuple[float, float] = (500.0, 1500.0)
    mean_interarrival: float = 1.0
    episodes: int = 500
    alpha: float = 0.02
    gamma: float = 0.99
    batch_size: int = 5
    hidden: int = 16
    seed: int = 0
    ready_slots: int = 3
    lookahead: int = 3
    eval_episodes: int = 20

    def __post_init__(self):
        if len(self.machine_mips) < 1:
            raise ConfigurationError("train setup needs at least one machine")
        if self.n_tasks < 1:
            raise ConfigurationError("train setup needs at least one task")
        # Each builds an environment or evaluates a policy that would refuse it.
        for name in ("lookahead", "ready_slots", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"train setup needs {name} >= 1")
        self.build_vms()  # reject non-positive speeds when the config loads

    def build_vms(self) -> tuple[VmSpec, ...]:
        return tuple(VmSpec(id=i, mips=mips) for i, mips in enumerate(self.machine_mips))

    def workload_params(self) -> TaskGenParams:
        return TaskGenParams(
            length_range=self.length_range,
            input_range=(0.0, 0.0),
            output_range=(0.0, 0.0),
            mean_interarrival=self.mean_interarrival,
            n_users=1,
        )

    def build_env(self) -> SchedulingEnv:
        vms = self.build_vms()
        params = self.workload_params()
        n_tasks = self.n_tasks

        def source(seed: int) -> WorkloadSet:
            return WorkloadSet.from_tasks(vms, generate_tasks(n_tasks, seed, params))

        return SchedulingEnv(
            source,
            RewardConfig(k_u=0.0, resources=()),
            lookahead=self.lookahead,
            ready_slots=self.ready_slots,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            alpha=self.alpha,
            gamma=self.gamma,
            episodes=self.episodes,
            batch_size=self.batch_size,
            seed=self.seed,
            hidden=self.hidden,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run needs; JSON-loadable."""

    workload: TaskGenParams = TaskGenParams()
    vms: VmFleetConfig = VmFleetConfig()
    schedulers: tuple[SchedulerSpec, ...] = (
        SchedulerSpec("gaaco"),
        SchedulerSpec("aco"),
        SchedulerSpec("sa"),
        SchedulerSpec("eft"),
    )
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    weights: QosWeights = QosWeights()
    sweep: SweepConfig = SweepConfig()
    output_dir: str = "bench_out"
    train: TrainSetup = TrainSetup()

    def __post_init__(self):
        if not self.schedulers:
            raise ConfigurationError("at least one scheduler is required")
        names = [s.name for s in self.schedulers]
        if len(set(names)) != len(names):
            raise ConfigurationError("scheduler names must be unique")
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigurationError("seeds must be >= 0")


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def config_from_dict(data: Mapping[str, Any]) -> ExperimentConfig:
    """Build a validated ExperimentConfig; a bare scheduler name stands for
    {"name": name}. Every error names the offending field's path."""
    if isinstance(data, Mapping) and isinstance(data.get("schedulers"), list):
        specs = [{"name": s} if isinstance(s, str) else s for s in data["schedulers"]]
        data = {**data, "schedulers": specs}
    return decode(ExperimentConfig, data, "experiment config")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"cannot read config file {path}: not UTF-8 (byte {exc.start})"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    out = encode(config)
    out["schedulers"] = [
        {k: v for k, v in s.items() if v not in (None, {})} for s in out["schedulers"]
    ]
    return out


# ---------------------------------------------------------------------------
# Running cells
# ---------------------------------------------------------------------------

def workload_seed(task_count: int, seed: int) -> int:
    """Workload randomness depends only on the cell, never the scheduler."""
    ss = np.random.SeedSequence([task_count, seed, _WORKLOAD_STREAM])
    return int(ss.generate_state(1)[0])


def scheduler_seed(task_count: int, seed: int, name: str) -> int:
    """Per-scheduler stream: the cell identity salted with the name."""
    ss = np.random.SeedSequence([task_count, seed, zlib.crc32(name.encode("utf-8"))])
    return int(ss.generate_state(1)[0])


def build_cell_workload(config: ExperimentConfig, task_count: int, seed: int) -> WorkloadSet:
    tasks = generate_tasks(task_count, workload_seed(task_count, seed), config.workload)
    return WorkloadSet.from_tasks(config.vms.build(), tasks)


def _check_policy_fit(config: ExperimentConfig) -> None:
    """Reject a policy scheduler whose input size does not fit the fleet.

    A policy reads observations sized by the machine count, so one trained
    on another fleet would fail every cell of the sweep; so would a policy
    file that cannot be opened or that load_policy rejects.
    """
    expected = observation_size(
        config.vms.count, config.train.lookahead, config.train.ready_slots
    )
    for i, spec in enumerate(config.schedulers):
        if spec.algorithm != "policy":
            continue
        try:
            theta = load_policy(spec.policy_file)
        except OSError as exc:
            raise ConfigurationError(
                f"schedulers[{i}].policy_file {spec.policy_file!r} cannot be read: {exc}"
            ) from exc
        except ConfigurationError as exc:
            raise ConfigurationError(f"schedulers[{i}].policy_file: {exc}") from exc
        if theta.n_inputs != expected:
            raise ConfigurationError(
                f"schedulers[{i}].policy_file {spec.policy_file!r} takes "
                f"{theta.n_inputs} inputs, but a fleet of {config.vms.count} machines "
                f"gives observations of {expected}"
            )


def _policy_trace(spec: SchedulerSpec, config: ExperimentConfig, workload: WorkloadSet):
    env = SchedulingEnv(
        workload,
        RewardConfig(k_u=0.0, resources=()),
        lookahead=config.train.lookahead,
        ready_slots=config.train.ready_slots,
    )
    # A greedy rollout never reads its generator.
    _rollout(env, load_policy(spec.policy_file), np.random.default_rng(0), episode_seed=0, greedy=True)
    if not env.state.done:  # stopped at the step cap
        raise SimulationError(f"incomplete {len(env.state.records)}/{len(workload.tasks)}")
    return env.trace()


def _cell_trace(spec: SchedulerSpec, config: ExperimentConfig, workload: WorkloadSet, seed: int):
    """Run one scheduler on one workload and simulate its assignment."""
    if spec.algorithm == "eft":
        return run_simulation(workload, eft_schedule(workload))
    # Looked up per call, so a search rebound on this module is the one that runs.
    search = {"gaaco": gaaco_schedule, "aco": aco_schedule, "sa": sa_schedule}.get(spec.algorithm)
    if search is not None:
        params = spec.build_params()
        return run_simulation(
            workload, search(workload, params=params, seed=seed, weights=config.weights)
        )
    # SchedulerSpec admits no other algorithm.
    return _policy_trace(spec, config, workload)


def run_cell_group(config: ExperimentConfig, task_count: int, seed: int) -> list[dict[str, Any]]:
    """All schedulers on one workload, each row scored against the cell's
    bounds: a search row's score is the one its search minimized."""
    workload = build_cell_workload(config, task_count, seed)
    deadlines = {t.id: t.deadline for t in workload.tasks if t.deadline is not None} or None
    ev = _Evaluator(workload, config.weights)
    rows: list[dict[str, Any]] = []
    for spec in config.schedulers:
        t0 = time.perf_counter()
        row: dict[str, Any] = {
            "algorithm": spec.name,
            "task_count": task_count,
            "seed": seed,
            "avg_time_cost": float("nan"),
            "avg_money_cost": float("nan"),
            "score": float("nan"),
            "load_rate": float("nan"),
            "status": "ok",
        }
        try:
            trace = _cell_trace(spec, config, workload, scheduler_seed(task_count, seed, spec.name))
            raw = raw_qos(trace, workload.vms, deadlines)
            row["avg_time_cost"] = raw.time_cost
            row["avg_money_cost"] = raw.money_cost
            row["score"] = ev._blend(raw.time_cost, raw.money_cost, raw.reliability)
            row["load_rate"] = load_rate(machine_usage_totals(trace))
        except Exception as exc:  # isolate the cell; the sweep must go on
            row["status"] = f"failed: {exc}"
        row["wall_clock_s"] = time.perf_counter() - t0
        rows.append(row)
    return rows


def _run_group_args(args) -> list[dict[str, Any]]:
    return run_cell_group(*args)


def run_experiment(
    config: ExperimentConfig, jobs: int = 1, out_dir: str | None = None
) -> list[dict[str, Any]]:
    """Full sweep; returns result rows sorted by (task_count, seed, name).

    jobs > 1 fans (task_count, seed) groups out to worker processes. When
    out_dir (or config.output_dir) is set the report files are written there.
    A policy that does not fit the fleet is rejected before any cell runs.
    """
    _check_policy_fit(config)
    cells = [(config, n, s) for n in config.sweep.counts() for s in config.seeds]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # kept out of `import cloudsched`

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            groups = list(pool.map(_run_group_args, cells))
    else:
        groups = [run_cell_group(*cell) for cell in cells]
    rows = [row for group in groups for row in group]
    rows.sort(key=lambda r: (r["task_count"], r["seed"], r["algorithm"]))
    target = out_dir if out_dir is not None else config.output_dir
    if target:
        emit_report(config, rows, target)
    return rows


# ---------------------------------------------------------------------------
# Aggregation and reporting
# ---------------------------------------------------------------------------

def _ok_values(rows: Sequence[Mapping[str, Any]], column: str) -> list[float]:
    return [r[column] for r in rows if r["status"] == "ok"]


def summarize(rows: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Per (algorithm, task_count): median, mean and std over ok seeds."""
    algos = sorted({r["algorithm"] for r in rows})
    counts = sorted({r["task_count"] for r in rows})
    out = []
    for algo in algos:
        for count in counts:
            cell = [r for r in rows if r["algorithm"] == algo and r["task_count"] == count]
            entry: dict[str, Any] = {
                "algorithm": algo,
                "task_count": count,
                "n_ok": sum(1 for r in cell if r["status"] == "ok"),
            }
            for label, column in _SUMMARY_METRICS:
                vals = _ok_values(cell, column)
                finite = [v for v in vals if np.isfinite(v)]
                if finite:
                    entry[f"{label}_median"] = float(np.median(finite))
                    entry[f"{label}_mean"] = float(np.mean(finite))
                    entry[f"{label}_std"] = float(np.std(finite))
                else:
                    entry[f"{label}_median"] = float("nan")
                    entry[f"{label}_mean"] = float("nan")
                    entry[f"{label}_std"] = float("nan")
            out.append(entry)
    return out


def compute_deltas(summary: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Pairwise relative gaps: 100 * (mean_a - mean_b) / mean_b per metric,
    nan where mean_b is not positive (a score at its lower bound can read a
    rounding step below 0) or not finite."""
    algos = sorted({s["algorithm"] for s in summary})
    counts = sorted({s["task_count"] for s in summary})
    lookup = {(s["algorithm"], s["task_count"]): s for s in summary}
    out = []
    for label, _ in _SUMMARY_METRICS:
        for count in counts:
            for a in algos:
                for b in algos:
                    if a == b:
                        continue
                    row_a, row_b = lookup[(a, count)], lookup[(b, count)]
                    ma, mb = row_a[f"{label}_mean"], row_b[f"{label}_mean"]
                    delta = 100.0 * (ma - mb) / mb if mb > 0 and np.isfinite(mb) else float("nan")
                    out.append(
                        {
                            "metric": label,
                            "task_count": count,
                            "algorithm_a": a,
                            "algorithm_b": b,
                            "delta_pct": delta,
                        }
                    )
    return out


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(path: str | Path, rows: Sequence[Mapping[str, Any]], columns: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                text = _format_value(row[col])
                if "," in text or '"' in text:
                    text = '"' + text.replace('"', '""') + '"'
                cells.append(text)
            fh.write(",".join(cells) + "\n")


_PLOT_SCRIPT = '''\
"""Render the benchmark CSVs next to this script as a 2x2 panel figure.

Needs matplotlib. Run: python plot_results.py [--out results.png]
"""

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
PANELS = [
    ("avg_time_cost", "average time cost (s)"),
    ("avg_money_cost", "average money cost"),
    ("score", "blended score (lower is better)"),
    ("load_rate", "load imbalance"),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=str(HERE / "results.png"))
    args = ap.parse_args()
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is required: pip install matplotlib", file=sys.stderr)
        return 1
    with open(HERE / "results.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["status"] == "ok"]
    series = defaultdict(lambda: defaultdict(list))
    for row in rows:
        for metric, _ in PANELS:
            series[metric][(row["algorithm"], int(row["task_count"]))].append(
                float(row[metric])
            )
    fig, axes = plt.subplots(2, 2, figsize=(11, 8))
    for ax, (metric, label) in zip(axes.ravel(), PANELS):
        algos = sorted({a for a, _ in series[metric]})
        for algo in algos:
            counts = sorted(c for a, c in series[metric] if a == algo)
            med = []
            for c in counts:
                vals = sorted(series[metric][(algo, c)])
                med.append(vals[len(vals) // 2])
            ax.plot(counts, med, marker="o", label=algo)
        ax.set_xlabel("task count")
        ax.set_ylabel(label)
        ax.grid(True, alpha=0.3)
    axes[0, 0].legend()
    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
'''


def emit_report(config: ExperimentConfig, rows: Sequence[Mapping[str, Any]], out_dir: str | Path) -> Path:
    """Write results, timings, summary, deltas, config snapshot and plotter."""
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    write_rows_csv(target / "results.csv", rows, RESULT_COLUMNS)
    write_rows_csv(target / "timings.csv", rows, TIMING_COLUMNS)
    summary = summarize(rows)
    write_rows_csv(target / "summary.csv", summary, SUMMARY_COLUMNS)
    write_rows_csv(target / "deltas.csv", compute_deltas(summary), DELTA_COLUMNS)
    with open(target / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
    (target / "plot_results.py").write_text(_PLOT_SCRIPT, encoding="utf-8")
    return target


# ---------------------------------------------------------------------------
# Policy training entry point used by the CLI
# ---------------------------------------------------------------------------

def run_training(config: ExperimentConfig, out_path: str) -> dict[str, float]:
    """Train the dispatch policy on the configured toy problem and save it.

    Returns the trained and uniform-random mean returns on held-out
    episodes plus the relative improvement.
    """
    setup = config.train
    env = setup.build_env()
    theta, curve = train(env, setup.train_config())
    save_policy(theta, out_path)
    trained = evaluate_policy(env, theta, episodes=setup.eval_episodes)
    random_play = evaluate_policy(env, None, episodes=setup.eval_episodes)
    denom = abs(random_play) if random_play != 0 else 1.0
    return {
        "episodes": float(len(curve)),
        "trained_return": trained,
        "random_return": random_play,
        "improvement": (trained - random_play) / denom,
    }

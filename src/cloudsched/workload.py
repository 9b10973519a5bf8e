"""Workload model: VMs, tasks, precedence graphs, usage profiles, generators.

Time is discretised into 1 second slots throughout the package; a usage
profile holds one demand fraction per slot. Independent tasks are represented
as a precedence graph with no edges so one code path serves both batch and
workflow inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .codec import decode, encode
from .errors import ConfigurationError, DagValidationError

RESOURCES = ("cpu", "memory", "bandwidth")


@dataclass(frozen=True)
class VmSpec:
    """Static capacity and pricing of one virtual machine.

    mips is the instruction throughput (million instructions per second),
    memory is in MB, bandwidth in MB/s, storage in GB. Cost rates are charged
    per second of instruction execution and per second of data transfer.
    The simulator runs each VM on one core, so cpu_count must be 1; memory
    and storage are stored but not read by the simulator.
    """

    id: int
    cpu_count: int = 1
    mips: float = 1000.0
    memory: float = 256.0
    bandwidth: float = 1000.0
    storage: float = 10.0
    instr_cost_rate: float = 0.01
    bw_cost_rate: float = 0.01

    def __post_init__(self):
        for name in ("mips", "memory", "bandwidth", "storage"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"vm {self.id}: {name} must be positive")
        if self.cpu_count != 1:
            raise ConfigurationError(f"vm {self.id}: cpu_count must be 1")
        if self.instr_cost_rate < 0 or self.bw_cost_rate < 0:
            raise ConfigurationError(f"vm {self.id}: cost rates must be >= 0")


@dataclass(frozen=True)
class Task:
    """One schedulable request.

    length is in million instructions; input_size/output_size are the data
    volumes (MB) moved to and from the machine before execution starts.
    """

    id: int
    user_id: int = 0
    length: float = 1000.0
    input_size: float = 0.0
    output_size: float = 0.0
    arrival_time: float = 0.0
    deadline: float | None = None

    def __post_init__(self):
        if self.length <= 0:
            raise ConfigurationError(f"task {self.id}: length must be positive")
        if self.input_size < 0 or self.output_size < 0:
            raise ConfigurationError(f"task {self.id}: data sizes must be >= 0")
        if self.arrival_time < 0:
            raise ConfigurationError(f"task {self.id}: arrival_time must be >= 0")
        if self.deadline is not None and self.deadline <= self.arrival_time:
            raise ConfigurationError(f"task {self.id}: deadline must fall after arrival")


@dataclass(frozen=True)
class UsageProfile:
    """Per-slot resource demand fractions for one user's workload."""

    user_id: int
    resource: str
    series: np.ndarray

    def __post_init__(self):
        if self.resource not in RESOURCES:
            raise ConfigurationError(
                f"unknown resource {self.resource!r}; expected one of {RESOURCES}"
            )
        arr = np.asarray(self.series, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError("profile series must be a non-empty 1-d sequence")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ConfigurationError("profile entries must lie in [0, 1]")
        series = arr.view()
        series.flags.writeable = False  # read-only, like the profile itself
        object.__setattr__(self, "series", series)

    def demand_at(self, slot: int) -> float:
        # Series are treated as periodic: lookups past the horizon wrap.
        return float(self.series[int(slot) % len(self.series)])


@dataclass
class DagWorkflow:
    """Task set plus precedence edges (pred_id, succ_id)."""

    tasks: list[Task]
    edges: list[tuple[int, int]] = field(default_factory=list)

    def task_ids(self) -> list[int]:
        return [t.id for t in self.tasks]

    def predecessors(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {t.id: [] for t in self.tasks}
        for a, b in self.edges:
            preds[b].append(a)
        return preds

    def successors(self) -> dict[int, list[int]]:
        succs: dict[int, list[int]] = {t.id: [] for t in self.tasks}
        for a, b in self.edges:
            succs[a].append(b)
        return succs


@dataclass(frozen=True)
class DagValidation:
    """Outcome of validate_dag: ok, or a witness cycle of task ids."""

    ok: bool
    cycle: tuple[int, ...] | None = None


def validate_dag(dag: DagWorkflow) -> DagValidation:
    """Check a precedence graph for duplicate ids, dangling edges and cycles.

    Dangling edge endpoints and duplicate task ids raise DagValidationError.
    A cyclic graph is reported (not raised) with one offending cycle.
    """
    ids = dag.task_ids()
    id_set = set(ids)
    if len(ids) != len(id_set):
        seen: set[int] = set()
        dupes = sorted({i for i in ids if i in seen or seen.add(i)})
        raise DagValidationError(f"duplicate task ids: {dupes}")
    missing = sorted({e for edge in dag.edges for e in edge if e not in id_set})
    if missing:
        raise DagValidationError(f"edges reference unknown task ids: {missing}")

    succs = dag.successors()
    WHITE, GREY, BLACK = 0, 1, 2
    color = {i: WHITE for i in ids}
    for root in ids:
        if color[root] != WHITE:
            continue
        path: list[int] = []
        stack: list[tuple[int, Iterable[int]]] = [(root, iter(succs[root]))]
        color[root] = GREY
        path.append(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    # Back edge: slice the current path to expose the cycle.
                    start = path.index(nxt)
                    return DagValidation(False, tuple(path[start:]))
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(succs[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return DagValidation(True, None)


@dataclass
class WorkloadSet:
    """A complete scheduling instance: machines, tasks (as a DAG), profiles."""

    vms: list[VmSpec]
    dag: DagWorkflow
    profiles: list[UsageProfile] = field(default_factory=list)

    def __post_init__(self):
        vm_ids = [v.id for v in self.vms]
        if len(vm_ids) != len(set(vm_ids)):
            raise ConfigurationError("duplicate vm ids")
        task_users = {t.user_id for t in self.dag.tasks}
        orphan = sorted({p.user_id for p in self.profiles} - task_users)
        if orphan:
            raise ConfigurationError(
                f"profiles reference users with no tasks: {orphan}"
            )
        # Co-resident series are summed slot by slot, so one resource's
        # profiles must share one length.
        for d in RESOURCES:
            lengths = sorted({len(p.series) for p in self.profiles if p.resource == d})
            if len(lengths) > 1:
                raise ConfigurationError(f"{d} profiles differ in length: {lengths} slots")

    @classmethod
    def from_tasks(
        cls,
        vms: Sequence[VmSpec],
        tasks: Sequence[Task],
        profiles: Sequence[UsageProfile] = (),
    ) -> "WorkloadSet":
        return cls(list(vms), DagWorkflow(list(tasks), []), list(profiles))

    @property
    def tasks(self) -> list[Task]:
        return self.dag.tasks

    def profile_map(self) -> dict[tuple[int, str], UsageProfile]:
        return {(p.user_id, p.resource): p for p in self.profiles}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskGenParams:
    """Knobs for the random task generator.

    Defaults mirror the benchmark fixture: near-uniform task sizes around
    3000 MI so that a perfectly spread assignment yields a near-zero load
    imbalance, and a steady arrival stream at roughly the fleet's aggregate
    service rate so queues stay short under good placement but grow under
    bad placement. mean_interarrival = 0 means batch submission at t=0;
    otherwise arrivals are evenly spaced by default or Poisson with
    arrival_pattern="poisson".
    """

    length_range: tuple[float, float] = (2850.0, 3150.0)
    input_range: tuple[float, float] = (90.0, 110.0)
    output_range: tuple[float, float] = (90.0, 110.0)
    mean_interarrival: float = 0.32
    arrival_pattern: str = "even"
    n_users: int = 5
    deadline_slack_range: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("length_range", "input_range", "output_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigurationError(f"{name}: min {lo} exceeds max {hi}")
            if lo < 0:
                raise ConfigurationError(f"{name}: values must be >= 0")
        if self.length_range[0] <= 0:
            raise ConfigurationError("length_range: lengths must be positive")
        if self.mean_interarrival < 0:
            raise ConfigurationError("mean_interarrival must be >= 0")
        if self.arrival_pattern not in ("even", "poisson"):
            raise ConfigurationError("arrival_pattern must be 'even' or 'poisson'")
        if self.n_users < 1:
            raise ConfigurationError("n_users must be >= 1")
        if self.deadline_slack_range is not None:
            lo, hi = self.deadline_slack_range
            if lo > hi or lo <= 0:
                raise ConfigurationError("deadline_slack_range must be positive and ordered")


def generate_tasks(n: int, seed: int, params: TaskGenParams | None = None) -> list[Task]:
    """Draw n tasks deterministically from (n, seed, params).

    Arrival times are nondecreasing; all attribute draws stay inside the
    configured ranges.
    """
    if n < 0:
        raise ConfigurationError("task count must be >= 0")
    p = params or TaskGenParams()
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(*p.length_range, n)
    inputs = rng.uniform(*p.input_range, n)
    outputs = rng.uniform(*p.output_range, n)
    users = rng.integers(0, p.n_users, n)
    if p.mean_interarrival > 0:
        if p.arrival_pattern == "poisson":
            arrivals = np.cumsum(rng.exponential(p.mean_interarrival, n))
        else:
            arrivals = p.mean_interarrival * np.arange(n, dtype=float)
    else:
        arrivals = np.zeros(n)
    if p.deadline_slack_range is not None:
        slack = rng.uniform(*p.deadline_slack_range, n)
        deadlines: list[float | None] = list(arrivals + slack)
    else:
        deadlines = [None] * n
    return [
        Task(
            id=i,
            user_id=int(users[i]),
            length=float(lengths[i]),
            input_size=float(inputs[i]),
            output_size=float(outputs[i]),
            arrival_time=float(arrivals[i]),
            deadline=None if deadlines[i] is None else float(deadlines[i]),
        )
        for i in range(n)
    ]


def generate_profiles(
    users: int,
    horizon: int,
    seed: int,
    shape: str = "flat",
    *,
    level: float = 0.5,
    peak_level: float = 0.9,
    peak_width: int | None = None,
    period: int | None = None,
    noise: float = 0.0,
    peak_slots: Sequence[int] | None = None,
) -> list[UsageProfile]:
    """Generate one profile per (user, resource kind), `horizon` slots long.

    Shapes: "flat" holds `level`; "diurnal" adds one peak window per period on
    top of `level`; "spike" is zero outside a single peak window (so spikes in
    disjoint windows are orthogonal series). Peak window starts are drawn per
    user unless `peak_slots` pins them. All entries are clipped to [0, 1].
    """
    if users < 0:
        raise ConfigurationError("users must be >= 0")
    if horizon < 1:
        raise ConfigurationError("profile horizon must be >= 1 slot")
    if shape not in ("flat", "diurnal", "spike"):
        raise ConfigurationError(f"unknown profile shape {shape!r}")
    if peak_slots is not None and len(peak_slots) < users:
        raise ConfigurationError("peak_slots must provide one slot per user")
    width = peak_width if peak_width is not None else max(1, horizon // 8)
    per = period if period is not None else horizon
    if per < 1 or width < 1:
        raise ConfigurationError("period and peak_width must be >= 1")
    rng = np.random.default_rng(seed)
    t = np.arange(horizon)
    profiles: list[UsageProfile] = []
    for u in range(users):
        if peak_slots is not None:
            start = int(peak_slots[u])
        else:
            start = int(rng.integers(0, max(1, horizon - width + 1)))
        if shape == "flat":
            base = np.full(horizon, level, dtype=float)
        elif shape == "diurnal":
            phase = (t - start) % per
            window = phase < width
            base = np.where(window, peak_level, level).astype(float)
        else:  # spike
            base = np.zeros(horizon)
            base[start : start + width] = peak_level
        for resource in RESOURCES:
            series = base.copy()
            if noise > 0:
                series = series + rng.uniform(-noise, noise, horizon)
            profiles.append(UsageProfile(u, resource, np.clip(series, 0.0, 1.0)))
    return profiles


# ---------------------------------------------------------------------------
# Workload files (JSON), read and written through the codec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Dag:
    tasks: tuple[Task, ...]
    edges: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class _WorkloadFile:
    """The file's shape: vms, exactly one of tasks or dags, and profiles."""

    vms: tuple[VmSpec, ...]
    tasks: tuple[Task, ...] | None = None
    dags: tuple[_Dag, ...] | None = None
    profiles: tuple[UsageProfile, ...] = ()

    def __post_init__(self):
        if (self.tasks is None) == (self.dags is None):
            raise ConfigurationError("needs exactly one of 'tasks' or 'dags'")


def load_workload(path: str) -> WorkloadSet:
    """Read a workload file; see docs/formats.md for the schema."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"workload file {path} is not valid JSON: {exc}") from exc
    doc = decode(_WorkloadFile, data, "workload file")
    dags = doc.dags if doc.tasks is None else (_Dag(doc.tasks),)
    dag = DagWorkflow(
        [t for d in dags for t in d.tasks], [e for d in dags for e in d.edges]
    )
    result = validate_dag(dag)
    if not result.ok:
        raise DagValidationError(f"workload dag contains a cycle: {result.cycle}")
    return WorkloadSet(list(doc.vms), dag, list(doc.profiles))


def save_workload(workload: WorkloadSet, path: str) -> None:
    """Write a workload file readable by load_workload."""
    doc = {"vms": encode(workload.vms)}
    tasks = encode(workload.dag.tasks)
    if workload.dag.edges:
        doc["dags"] = [{"tasks": tasks, "edges": encode(workload.dag.edges)}]
    else:
        doc["tasks"] = tasks
    if workload.profiles:
        doc["profiles"] = encode(workload.profiles)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

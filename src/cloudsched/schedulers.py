"""Assignment search: greedy, annealing, ant colony and a GA-ACO hybrid.

Every scheduler is a pure function of (inputs, seed): identical calls return
identical assignments. A candidate's score blends its mean flow time, mean
money cost and deadline reliability. Search loops do not simulate: they
score from per-instance tables, with an event walk that reproduces
raw_qos(run_simulation(...)) bit for bit, or, on instances without
precedence edges, a closed-form per-machine recurrence that agrees with it
up to the last bits of its sums. They freeze normalization bounds from a
seeded reference pool (greedy assignment plus random samples) so that the
best-so-far comparison is a fixed total order.
The exhaustive oracle scores its "time", "cost" and "qos" objectives with
the same event walk.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InstanceTooLargeError
from .metrics import QosWeights, RawQos, qos_scores, raw_qos  # noqa: F401 (perfbench traces raw_qos here)
from .simulator import Assignment, SimTrace, run_simulation, _service_times
from .workload import DagWorkflow, Task, VmSpec, WorkloadSet, validate_dag

_TAU_FLOOR = 1e-3
_TAU_CEIL = 1e3
_REFERENCE_SAMPLES = 16


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaacoParams:
    """GA-ACO hybrid knobs. The *_max fields are adaptive upper bounds:
    the pheromone exponents, evaporation and deposit intensity ramp up to
    them over the run while the mutation rate decays from pm to pm/4."""

    evolution_num: int = 100
    population: int = 10
    m: int = 31
    pc: float = 0.35
    pm: float = 0.08
    alpha_max: float = 1.00
    beta_max: float = 2.00
    rho_max: float = 0.10
    q: float = 50.00

    def __post_init__(self):
        if self.evolution_num < 1 or self.population < 1 or self.m < 1:
            raise ConfigurationError("evolution_num, population and m must be >= 1")
        for name in ("pc", "pm"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.rho_max <= 1.0:
            raise ConfigurationError("rho_max must lie in (0, 1]")
        if self.alpha_max < 0 or self.beta_max < 0 or self.q <= 0:
            raise ConfigurationError("alpha_max, beta_max must be >= 0 and q > 0")


DEFAULT_GAACO_PARAMS = GaacoParams()


@dataclass(frozen=True)
class AcoParams:
    """Plain max-min ant system knobs."""

    ants: int = 20
    iterations: int = 40
    alpha: float = 1.0
    beta: float = 0.5
    rho: float = 0.1
    q: float = 50.0
    tau_min: float = 0.01
    tau_max: float = 10.0

    def __post_init__(self):
        if self.ants < 1 or self.iterations < 1:
            raise ConfigurationError("ants and iterations must be >= 1")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigurationError("rho must lie in (0, 1]")
        if self.tau_min <= 0 or self.tau_min > self.tau_max:
            raise ConfigurationError("tau bounds must satisfy 0 < tau_min <= tau_max")
        if self.alpha < 0 or self.beta < 0 or self.q <= 0:
            raise ConfigurationError("alpha, beta must be >= 0 and q > 0")


DEFAULT_ACO_PARAMS = AcoParams()


@dataclass(frozen=True)
class SaParams:
    """Simulated annealing schedule. Temperatures live on the normalized
    score scale, where neighbor deltas are typically around 1e-2."""

    initial_temp: float = 0.02
    cooling_rate: float = 0.97
    steps_per_temp: int = 60
    min_temp: float = 0.0005

    def __post_init__(self):
        if self.initial_temp <= 0 or self.min_temp <= 0:
            raise ConfigurationError("temperatures must be positive")
        if self.min_temp > self.initial_temp:
            raise ConfigurationError("min_temp cannot exceed initial_temp")
        if not 0.0 < self.cooling_rate < 1.0:
            raise ConfigurationError("cooling_rate must lie in (0, 1)")
        if self.steps_per_temp < 1:
            raise ConfigurationError("steps_per_temp must be >= 1")


DEFAULT_SA_PARAMS = SaParams()


# ---------------------------------------------------------------------------
# Fitness
# ---------------------------------------------------------------------------

def as_workload(
    tasks: Sequence[Task] | DagWorkflow | WorkloadSet, vms: Sequence[VmSpec] | None = None
) -> WorkloadSet:
    """Normalize the (tasks, vms) calling convention into a WorkloadSet."""
    if isinstance(tasks, WorkloadSet):
        return tasks
    if vms is None:
        raise ConfigurationError("vms are required when tasks are passed directly")
    if isinstance(tasks, DagWorkflow):
        return WorkloadSet(list(vms), tasks, [])
    return WorkloadSet.from_tasks(vms, tasks)


def _deadline_map(workload: WorkloadSet) -> dict[int, float] | None:
    dl = {t.id: t.deadline for t in workload.tasks if t.deadline is not None}
    return dl or None


class _Tables:
    """One instance as lookup tables, rows by task position in construction
    order and columns by machine position, plus the exact event walk that
    scores an assignment vector from them."""

    def __init__(self, workload: WorkloadSet):
        self.workload = workload
        self.task_ids = _construction_order(workload)
        self.vm_ids = [v.id for v in workload.vms]
        self.deadlines = _deadline_map(workload)
        by_id = {t.id: t for t in workload.tasks}
        ordered = [by_id[t] for t in self.task_ids]
        self._arrivals = [t.arrival_time for t in ordered]
        self._task_deadlines = [t.deadline for t in ordered]
        self._transfer_tab: list[list[float]] = []
        self._exec_tab: list[list[float]] = []
        self._money_tab: list[list[float]] = []
        specs = {v.id: v for v in workload.vms}
        for task in ordered:
            tr_row, ex_row, money_row = [], [], []
            for vid in self.vm_ids:
                spec = specs[vid]
                transfer, exec_time = _service_times(task, spec)
                tr_row.append(transfer)
                ex_row.append(exec_time)
                money_row.append(
                    exec_time * spec.instr_cost_rate + transfer * spec.bw_cost_rate
                )
            self._transfer_tab.append(tr_row)
            self._exec_tab.append(ex_row)
            self._money_tab.append(money_row)
        self._srv = np.array(self._transfer_tab) + np.array(self._exec_tab)
        # Precedence by position: successor lists, predecessor counts, and the
        # tasks without predecessors as a ready heap of (arrival, id, position).
        pos_of = {tid: pos for pos, tid in enumerate(self.task_ids)}
        succs = workload.dag.successors()
        self._succ_pos = [[pos_of[s] for s in succs[tid]] for tid in self.task_ids]
        self._indeg = [0] * len(self.task_ids)
        for row in self._succ_pos:
            for s in row:
                self._indeg[s] += 1
        self._roots = sorted(
            (self._arrivals[pos], tid, pos)
            for pos, tid in enumerate(self.task_ids)
            if not self._indeg[pos]
        )

    def _vec_of(self, assignment: Assignment) -> tuple[int, ...]:
        pos = {vm: i for i, vm in enumerate(self.vm_ids)}
        return tuple(pos[assignment[t]] for t in self.task_ids)

    def assignment_of(self, vec: Sequence[int]) -> dict[int, int]:
        return {t: self.vm_ids[vec[i]] for i, t in enumerate(self.task_ids)}

    def _raw_dag(self, vec: tuple[int, ...]) -> RawQos:
        """raw_qos(run_simulation(...)) of the assignment, bit for bit, with
        or without edges, from an event walk instead of a simulation.

        Tasks join their machines in the simulator's order, by (ready time,
        id), where a successor is ready at max(arrival, latest predecessor
        completion). Each machine serves in join order, so a task's start and
        completion are known the moment it joins, and its successors can be
        released at once: their ready times are never earlier than that
        completion, as in the simulator, which handles completions before
        readies at equal times. The aggregates are taken in the simulator's
        completion order, (completion, id): the mean flow as np.mean takes
        it, the money as a running sum over n, and reliability from exact
        counts.
        """
        arrivals = self._arrivals
        transfer, exec_tab = self._transfer_tab, self._exec_tab
        succ_pos, task_ids = self._succ_pos, self.task_ids
        free = [0.0] * len(self.vm_ids)
        remaining = self._indeg.copy()
        ready = arrivals.copy()
        heap = self._roots.copy()
        done = []
        while heap:
            r, tid, pos = heapq.heappop(heap)
            j = vec[pos]
            f = free[j]
            start = r if r > f else f
            comp = (start + transfer[pos][j]) + exec_tab[pos][j]
            free[j] = comp
            done.append((comp, tid, pos))
            for s in succ_pos[pos]:
                if comp > ready[s]:
                    ready[s] = comp
                remaining[s] -= 1
                if not remaining[s]:
                    heapq.heappush(heap, (ready[s], task_ids[s], s))
        done.sort()
        flows = []
        money = 0.0
        dl_total = dl_met = 0
        for comp, _, pos in done:
            flows.append(comp - arrivals[pos])
            money += self._money_tab[pos][vec[pos]]
            d = self._task_deadlines[pos]
            if d is not None:
                dl_total += 1
                if comp <= d:
                    dl_met += 1
        n = len(vec)
        rel = dl_met / dl_total if dl_total else 1.0
        # np.mean(flows) is this same pairwise sum over n, behind more dispatch.
        return RawQos(float(np.add.reduce(np.array(flows))) / n, money / n, rel)


class _Evaluator(_Tables):
    """Caches candidate evaluations and scores them against frozen bounds."""

    def __init__(self, workload: WorkloadSet, weights: QosWeights, rng: np.random.Generator):
        super().__init__(workload)
        self.weights = weights
        self._cache: dict[tuple[int, ...], RawQos] = {}
        self.evaluations = 0
        # Independent tasks admit a closed-form per-machine recurrence that
        # matches the event simulation up to the last bits of its sums; tasks
        # with edges take the event walk, which matches it exactly.
        self._fast = not workload.dag.edges
        # Reference pool: greedy assignment plus seeded random samples.
        ref_vecs = [self._vec_of(eft_schedule(workload))]
        n, m = len(self.task_ids), len(self.vm_ids)
        for _ in range(_REFERENCE_SAMPLES):
            ref_vecs.append(tuple(int(v) for v in rng.integers(0, m, n)))
        ref_raws = [self.raw(v) for v in ref_vecs]
        times = [r.time_cost for r in ref_raws]
        costs = [r.money_cost for r in ref_raws]
        self._t_lo, t_hi = min(times), max(times)
        self._c_lo, c_hi = min(costs), max(costs)
        self._t_span = max(t_hi - self._t_lo, 1e-12)
        self._c_span = max(c_hi - self._c_lo, 1e-12)

    def _raw_fast(self, vec: tuple[int, ...]) -> RawQos:
        """Per-machine FIFO recurrence; valid only without precedence edges."""
        free = [0.0] * len(self.vm_ids)
        total_time = 0.0
        money = 0.0
        dl_total = dl_met = 0
        for pos, j in enumerate(vec):
            a = self._arrivals[pos]
            f = free[j]
            start = a if a > f else f
            comp = (start + self._transfer_tab[pos][j]) + self._exec_tab[pos][j]
            free[j] = comp
            total_time += comp - a
            money += self._money_tab[pos][j]
            d = self._task_deadlines[pos]
            if d is not None:
                dl_total += 1
                if comp <= d:
                    dl_met += 1
        n = len(vec)
        rel = dl_met / dl_total if dl_total else 1.0
        return RawQos(total_time / n, money / n, rel)

    def raw(self, vec: tuple[int, ...]) -> RawQos:
        hit = self._cache.get(vec)
        if hit is not None:
            return hit
        r = self._raw_fast(vec) if self._fast else self._raw_dag(vec)
        self._cache[vec] = r
        self.evaluations += 1
        return r

    def score(self, vec: tuple[int, ...]) -> float:
        r = self.raw(vec)
        t_hat = (r.time_cost - self._t_lo) / self._t_span
        c_hat = (r.money_cost - self._c_lo) / self._c_span
        return (
            self.weights.time * t_hat
            + self.weights.cost * c_hat
            + self.weights.reliability * (1.0 - r.reliability)
        )


def _construction_order(workload: WorkloadSet) -> list[int]:
    """Topological order, ties broken by (arrival, id)."""
    dag = workload.dag
    check = validate_dag(dag)
    if not check.ok:
        raise ConfigurationError(f"dag contains a cycle: {check.cycle}")
    by_id = {t.id: t for t in dag.tasks}
    indeg = {t.id: 0 for t in dag.tasks}
    for _, b in dag.edges:
        indeg[b] += 1
    heap = [
        (by_id[tid].arrival_time, tid) for tid, d in indeg.items() if d == 0
    ]
    heapq.heapify(heap)
    succs = dag.successors()
    order: list[int] = []
    while heap:
        _, tid = heapq.heappop(heap)
        order.append(tid)
        for s in succs[tid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(heap, (by_id[s].arrival_time, s))
    return order


def _require_instance(workload: WorkloadSet) -> None:
    if not workload.tasks:
        raise ConfigurationError("scheduling needs at least one task")
    if not workload.vms:
        raise ConfigurationError("scheduling needs at least one machine")


# ---------------------------------------------------------------------------
# Greedy earliest-finish-time baseline
# ---------------------------------------------------------------------------

def eft_schedule(
    tasks: Sequence[Task] | DagWorkflow | WorkloadSet,
    vms: Sequence[VmSpec] | None = None,
) -> dict[int, int]:
    """List scheduling: place each task (topological order) on the machine
    finishing it earliest given current loads. Machine ties break on id."""
    wl = as_workload(tasks, vms)
    _require_instance(wl)
    order = _construction_order(wl)
    by_id = {t.id: t for t in wl.tasks}
    preds = wl.dag.predecessors()
    machine_ready = {v.id: 0.0 for v in wl.vms}
    completions: dict[int, float] = {}
    out: dict[int, int] = {}
    for tid in order:
        task = by_id[tid]
        est = task.arrival_time
        for p in preds[tid]:
            est = max(est, completions[p])
        best_vm, best_finish = None, math.inf
        for v in wl.vms:
            transfer, exec_time = _service_times(task, v)
            finish = max(est, machine_ready[v.id]) + transfer + exec_time
            if finish < best_finish or (finish == best_finish and (best_vm is None or v.id < best_vm)):
                best_vm, best_finish = v.id, finish
        out[tid] = best_vm
        machine_ready[best_vm] = best_finish
        completions[tid] = best_finish
    return out


# ---------------------------------------------------------------------------
# Ant colony construction (shared by ACO and the hybrid)
# ---------------------------------------------------------------------------

def _construct_colony(
    ev: _Evaluator,
    tau_pow: np.ndarray,
    beta: float,
    rng: np.random.Generator,
    ants: int,
) -> list[tuple[int, ...]]:
    """Build `ants` assignment vectors guided by pheromone and a completion-
    time heuristic evaluated against each ant's own partial loads.

    tau_pow is the pheromone matrix already raised to alpha. One uniform
    draw per (ant, task) drives roulette selection; degenerate weight rows
    fall back to a uniform pick. All ants advance together, task by task,
    over (ants x machines) arrays, and each comes out bit-identical to an
    ant built alone with scalar arithmetic, machine by machine:

    - rng.random((ants, n)) fills row-major from the same stream, so row k
      holds the draws of the k-th of `ants` sequential rng.random(n) calls
      and the generator ends in the same state.
    - np.float_power computes each power with the C library's pow(), as
      Python's `x ** beta` does; np.power may take SIMD code that differs
      in the last bit (about 5% of inputs on AVX-512 hosts).
    - cumsum along a row adds left to right, so its prefix sums are those of
      a running `acc += w`. The pick is the first machine whose prefix sum
      exceeds u * total, i.e. the count of prefix sums <= u * total among
      the first m - 1 (the last machine takes whatever is left).
    """
    m = len(ev.vm_ids)
    n = len(ev.task_ids)
    arrivals = ev._arrivals
    srv = ev._srv
    draws = rng.random((ants, n)).T.copy()
    free = np.zeros((ants, m))
    free_flat = free.reshape(-1)
    row_offsets = np.arange(ants) * m
    choice = np.empty((n, ants), dtype=np.intp)
    for pos in range(n):
        start = np.maximum(free, arrivals[pos])
        row_srv = srv[pos]
        w = 1.0 + start
        w += row_srv
        np.divide(1.0, w, out=w)
        np.float_power(w, beta, out=w)
        w *= tau_pow[pos]
        cum = w.cumsum(axis=1)
        total = cum[:, -1]
        u = draws[pos]
        j = (cum[:, :-1] <= (u * total)[:, None]).sum(axis=1)
        if not (0.0 < total.min() and total.max() < math.inf):
            degenerate = ~((0.0 < total) & (total < math.inf))
            j[degenerate] = np.minimum((u[degenerate] * m).astype(np.intp), m - 1)
        flat = row_offsets + j
        free_flat[flat] = start.reshape(-1)[flat] + row_srv[j]
        choice[pos] = j
    return [tuple(vec) for vec in choice.T.tolist()]


def aco_schedule(
    tasks: Sequence[Task] | DagWorkflow | WorkloadSet,
    vms: Sequence[VmSpec] | None = None,
    params: AcoParams = DEFAULT_ACO_PARAMS,
    seed: int = 0,
    weights: QosWeights = QosWeights(),
    with_history: bool = False,
):
    """Max-min ant system: iteration-best deposits, pheromone clamped to
    [tau_min, tau_max] after every evaporation and deposit."""
    wl = as_workload(tasks, vms)
    _require_instance(wl)
    rng = np.random.default_rng(seed)
    ev = _Evaluator(wl, weights, rng)
    n, m = len(ev.task_ids), len(ev.vm_ids)
    tau = np.full((n, m), params.tau_max)
    best_vec: tuple[int, ...] | None = None
    best_score = math.inf
    history: dict = {"tau": [], "best_scores": []}
    for _ in range(params.iterations):
        tau_pow = np.float_power(tau, params.alpha)
        iter_best_vec, iter_best_score = None, math.inf
        for vec in _construct_colony(ev, tau_pow, params.beta, rng, params.ants):
            s = ev.score(vec)
            if s < iter_best_score:
                iter_best_vec, iter_best_score = vec, s
        if iter_best_score < best_score:
            best_vec, best_score = iter_best_vec, iter_best_score
        tau *= 1.0 - params.rho
        deposit = params.q / (1.0 + max(0.0, iter_best_score))
        for pos, j in enumerate(iter_best_vec):
            tau[pos, j] += deposit
        np.clip(tau, params.tau_min, params.tau_max, out=tau)
        if with_history:
            history["tau"].append(tau.copy())
            history["best_scores"].append(best_score)
    assignment = ev.assignment_of(best_vec)
    if with_history:
        return assignment, history
    return assignment


# ---------------------------------------------------------------------------
# Simulated annealing
# ---------------------------------------------------------------------------

def sa_accept(delta: float, temperature: float, rng: np.random.Generator) -> bool:
    """Metropolis rule: downhill always, uphill with exp(-delta/T)."""
    if delta < 0:
        return True
    if temperature <= 0:
        return False
    return bool(rng.random() < math.exp(-delta / temperature))


def sa_schedule(
    tasks: Sequence[Task] | DagWorkflow | WorkloadSet,
    vms: Sequence[VmSpec] | None = None,
    params: SaParams = DEFAULT_SA_PARAMS,
    seed: int = 0,
    weights: QosWeights = QosWeights(),
    with_history: bool = False,
):
    """Single-task reassignment neighborhood under a geometric cooling
    schedule; returns the best assignment visited."""
    wl = as_workload(tasks, vms)
    _require_instance(wl)
    rng = np.random.default_rng(seed)
    ev = _Evaluator(wl, weights, rng)
    n, m = len(ev.task_ids), len(ev.vm_ids)
    # Anneal from the greedy earliest-finish placement rather than a random
    # one; the walk then explores its neighborhood instead of spending the
    # whole schedule recovering from noise.
    current = ev._vec_of(eft_schedule(wl))
    current_score = ev.score(current)
    best, best_score = current, current_score
    temp = params.initial_temp
    history: dict = {"best_scores": [], "temps": []}
    while temp > params.min_temp:
        for _ in range(params.steps_per_temp):
            pos = int(rng.integers(0, n))
            if m == 1:
                break
            shift = 1 + int(rng.integers(0, m - 1))
            neighbor = list(current)
            neighbor[pos] = (neighbor[pos] + shift) % m
            neighbor = tuple(neighbor)
            neighbor_score = ev.score(neighbor)
            if sa_accept(neighbor_score - current_score, temp, rng):
                current, current_score = neighbor, neighbor_score
                if current_score < best_score:
                    best, best_score = current, current_score
        history["best_scores"].append(best_score)
        history["temps"].append(temp)
        temp *= params.cooling_rate
    assignment = ev.assignment_of(best)
    if with_history:
        return assignment, history
    return assignment


# ---------------------------------------------------------------------------
# GA-ACO hybrid
# ---------------------------------------------------------------------------

def gaaco_schedule(
    tasks: Sequence[Task] | DagWorkflow | WorkloadSet,
    vms: Sequence[VmSpec] | None = None,
    params: GaacoParams = DEFAULT_GAACO_PARAMS,
    seed: int = 0,
    weights: QosWeights = QosWeights(),
    with_history: bool = False,
):
    """Genetic search over assignment chromosomes hybridized with an ant
    colony: each generation the GA elite deposits pheromone, ants construct
    candidates from the trails, and the best of both populations survive.
    Adaptive parameters ramp toward their configured maxima while mutation
    decays from pm to pm/4. The best assignment of the whole run is returned;
    elitism makes the per-generation best score nonincreasing."""
    wl = as_workload(tasks, vms)
    _require_instance(wl)
    rng = np.random.default_rng(seed)
    ev = _Evaluator(wl, weights, rng)
    n, m = len(ev.task_ids), len(ev.vm_ids)
    pop_size = params.population
    # Seed the population with the greedy earliest-finish solution so the
    # genetic phase starts from a competent placement instead of pure noise.
    pop = [ev._vec_of(eft_schedule(wl))]
    pop += [tuple(int(v) for v in rng.integers(0, m, n)) for _ in range(pop_size - 1)]
    pop = pop[:pop_size]
    tau = np.ones((n, m))
    best_vec = min(pop, key=ev.score)
    best_score = ev.score(best_vec)
    history: dict = {"best_scores": []}

    def tournament(scores: list[float]) -> int:
        i, j = rng.integers(0, len(scores)), rng.integers(0, len(scores))
        return int(i if scores[i] <= scores[j] else j)

    generations = params.evolution_num
    for g in range(generations):
        progress = g / (generations - 1) if generations > 1 else 1.0
        pm_g = params.pm * (1.0 - 0.75 * progress)
        alpha_g = params.alpha_max * (0.5 + 0.5 * progress)
        beta_g = params.beta_max * (0.5 + 0.5 * progress)
        rho_g = params.rho_max * (0.25 + 0.75 * progress)

        scores = [ev.score(v) for v in pop]
        gen_best = min(range(len(pop)), key=lambda i: scores[i])
        if scores[gen_best] < best_score:
            best_vec, best_score = pop[gen_best], scores[gen_best]

        # Genetic phase: elitist reproduction.
        offspring: list[tuple[int, ...]] = [best_vec]
        while len(offspring) < pop_size:
            pa = list(pop[tournament(scores)])
            pb = list(pop[tournament(scores)])
            if n > 1 and rng.random() < params.pc:
                cut = int(rng.integers(1, n))
                child = pa[:cut] + pb[cut:]
            else:
                child = pa
            for i in range(n):
                if rng.random() < pm_g:
                    child[i] = int(rng.integers(0, m))
            offspring.append(tuple(child))

        # Elite deposits pheromone on its task->vm edges.
        tau *= 1.0 - rho_g
        deposit = params.q / (1.0 + max(0.0, best_score))
        for pos, j in enumerate(best_vec):
            tau[pos, j] += deposit
        np.clip(tau, _TAU_FLOOR, _TAU_CEIL, out=tau)

        # Ant phase constructs candidates from the trails.
        ants = _construct_colony(ev, np.float_power(tau, alpha_g), beta_g, rng, params.m)
        merged = offspring + ants
        merged_scores = [ev.score(v) for v in merged]
        keep = sorted(range(len(merged)), key=lambda i: (merged_scores[i], i))[:pop_size]
        pop = [merged[i] for i in keep]
        if merged_scores[keep[0]] < best_score:
            best_vec, best_score = merged[keep[0]], merged_scores[keep[0]]
        history["best_scores"].append(best_score)

    assignment = ev.assignment_of(best_vec)
    if with_history:
        return assignment, history
    return assignment


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

def brute_force_schedule(
    tasks: Sequence[Task] | DagWorkflow | WorkloadSet,
    vms: Sequence[VmSpec] | None = None,
    objective: str | Callable[[SimTrace, WorkloadSet], float] = "makespan",
    weights: QosWeights = QosWeights(),
    limit: int = 1_000_000,
) -> dict[int, int]:
    """Enumerate every assignment and return the optimum.

    objective: "makespan", "time" (mean flow), "cost" (mean money), "qos"
    (pool-normalized blend over the full enumeration) or a callable
    (trace, workload) -> float. Ties keep the lexicographically smallest
    assignment vector. Refuses instances with more than `limit` combinations.
    """
    wl = as_workload(tasks, vms)
    _require_instance(wl)
    n, m = len(wl.tasks), len(wl.vms)
    combos = m ** n
    if combos > limit:
        raise InstanceTooLargeError(
            f"{m}^{n} = {combos} assignments exceeds the limit of {limit}"
        )
    tables = _Tables(wl)
    vecs = itertools.product(range(m), repeat=n)
    if callable(objective) or objective == "makespan":
        score_fn = objective if callable(objective) else lambda trace, _wl: trace.makespan
        scored = ((v, score_fn(run_simulation(wl, tables.assignment_of(v)), wl)) for v in vecs)
    elif objective in ("time", "cost"):
        field = "time_cost" if objective == "time" else "money_cost"
        scored = ((v, getattr(tables._raw_dag(v), field)) for v in vecs)
    elif objective == "qos":
        # Pool objective: normalization sees every candidate before any is ranked.
        vecs = list(vecs)
        scored = zip(vecs, qos_scores([tables._raw_dag(v) for v in vecs], weights))
    else:
        raise ConfigurationError(f"unknown objective {objective!r}")

    best_vec, best_score = None, math.inf
    for vec, s in scored:
        if s < best_score:  # strict: first optimum wins, lexicographic order
            best_vec, best_score = vec, s
    return tables.assignment_of(best_vec)

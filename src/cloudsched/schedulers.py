"""Assignment search: greedy, annealing, ant colony and a GA-ACO hybrid.

Every scheduler is a pure function of (inputs, seed). Each call builds its
instance once, as one table object: the construction order, per-(task,
machine) service times and money, and the earliest-finish-time (EFT) plan,
the greedy baseline that seeds annealing and the GA. A score blends mean
flow time, mean money cost and deadline reliability, computed without
simulating: by an event walk or, without precedence edges, a per-machine
recurrence. Both add flows and charges left to right in (arrival, id)
order, as metrics does, so every score equals raw_qos(run_simulation(...))
bit for bit, and so does annealing's re-walk of the two machine queues a
move changes. With edges, annealing walks each proposal in place on its
plan. The evaluator keeps no plans: each search keeps the scores it
computed, and gaaco, whose candidates repeat across generations, scores
each distinct plan once. Time and money are scaled by bounds read from the
instance, so every search and seed on it minimizes one score, and the
exhaustive oracle returns that score's exact minimizer.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InstanceTooLargeError
from .metrics import QosWeights, RawQos, _qos_blend, _task_charge, qos_scores, raw_qos  # noqa: F401 (perfbench's tracer wraps qos_scores and raw_qos here)
from .simulator import run_simulation, _service_times  # noqa: F401 (read here by perfbench: its tracer wraps run_simulation, and search-dag's probing_simulation swaps it)
from .workload import WorkloadSet, validate_dag

_TAU_FLOOR = 1e-3
_TAU_CEIL = 1e3
_ONE = np.array(1.0)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------
# Each range check tests that the valid range fails to hold, so NaN, for
# which every comparison is false, is rejected too.

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
        if not (self.alpha_max >= 0 and self.beta_max >= 0 and self.q > 0):
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
        if not 0 < self.tau_min <= self.tau_max:
            raise ConfigurationError("tau bounds must satisfy 0 < tau_min <= tau_max")
        if not (self.alpha >= 0 and self.beta >= 0 and self.q > 0):
            raise ConfigurationError("alpha, beta must be >= 0 and q > 0")


DEFAULT_ACO_PARAMS = AcoParams()


@dataclass(frozen=True)
class SaParams:
    """Simulated annealing schedule. Temperatures live on the normalized
    score scale, where a neighbor's delta depends on the instance's bounds."""

    initial_temp: float = 0.02
    cooling_rate: float = 0.97
    steps_per_temp: int = 60
    min_temp: float = 0.0005

    def __post_init__(self):
        if not (self.initial_temp > 0 and self.min_temp > 0):
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

class _Tables:
    """One search instance, built once per scheduler call: the construction
    order, lookup tables with rows by task position in that order and columns
    by machine position, the earliest-finish-time plan (eft_vec), and the
    exact event walk that scores an assignment vector from the tables."""

    def __init__(self, workload: WorkloadSet):
        if not workload.tasks:
            raise ConfigurationError("scheduling needs at least one task")
        if not workload.vms:
            raise ConfigurationError("scheduling needs at least one machine")
        dag = workload.dag
        # The construction order: input indices in a topological order with
        # ties broken by (arrival, id).
        order = validate_dag(dag)
        ordered = [dag.tasks[i] for i in order]
        pos_of = {t.id: pos for pos, t in enumerate(ordered)}
        self.task_ids = [t.id for t in ordered]
        self.vm_ids = [v.id for v in workload.vms]
        self._arrivals = [t.arrival_time for t in ordered]
        self._task_deadlines = [t.deadline for t in ordered]
        self._transfer_tab: list[list[float]] = []
        self._exec_tab: list[list[float]] = []
        self._money_tab: list[list[float]] = []
        for task in ordered:
            tr_row, ex_row, money_row = [], [], []
            for spec in workload.vms:
                transfer, exec_time = _service_times(task, spec)
                tr_row.append(transfer)
                ex_row.append(exec_time)
                money_row.append(_task_charge(spec, transfer, exec_time))
            self._transfer_tab.append(tr_row)
            self._exec_tab.append(ex_row)
            self._money_tab.append(money_row)
        # Precedence by position: successor lists, predecessor counts, and the
        # tasks without predecessors as a ready heap of (arrival, id, position).
        # The heap is cut from all positions in (arrival, id) order, the order
        # in which metrics adds flows and charges.
        self._succ_pos: list[list[int]] = [[] for _ in ordered]
        self._indeg = [0] * len(ordered)
        for a, b in dag.edges:
            self._succ_pos[pos_of[a]].append(pos_of[b])
            self._indeg[pos_of[b]] += 1
        keyed = sorted(zip(self._arrivals, self.task_ids, range(len(order))))
        self._arrival_order = [pos for _, _, pos in keyed]
        self._roots = [key for key in keyed if not self._indeg[key[2]]]
        # The event walk's rows, built once: per position its transfer row,
        # exec row and successors as (position, id) pairs; and in (arrival,
        # id) order, the order of the sums, each position with its arrival,
        # money row and deadline.
        self._walk_rows = [
            (tr_row, ex_row, [(s, self.task_ids[s]) for s in succs])
            for tr_row, ex_row, succs in zip(self._transfer_tab, self._exec_tab, self._succ_pos)
        ]
        self._sum_rows = [
            (pos, self._arrivals[pos], self._money_tab[pos], self._task_deadlines[pos])
            for pos in self._arrival_order
        ]
        self._dl_total = len(ordered) - self._task_deadlines.count(None)
        self.eft_vec = self._plan_eft()

    def _plan_eft(self) -> tuple[int, ...]:
        """List scheduling in the manner of HEFT (Topcuoglu et al., IEEE TPDS
        2002), in construction order instead of by upward rank: each task goes
        to the machine that finishes it earliest given the loads so far, ties
        to the lowest machine id. A task is ready at the latest of its arrival
        and its predecessors' finishes, which the construction order places
        first."""
        m = len(self.vm_ids)
        by_id = sorted(range(m), key=self.vm_ids.__getitem__)
        free = [0.0] * m
        ready = self._arrivals.copy()
        vec = []
        for pos, succs in enumerate(self._succ_pos):
            est, transfer, exec_row = ready[pos], self._transfer_tab[pos], self._exec_tab[pos]
            finish = [(max(est, free[j]) + transfer[j]) + exec_row[j] for j in range(m)]
            j = min(by_id, key=finish.__getitem__)
            free[j] = comp = finish[j]
            vec.append(j)
            for s in succs:
                if comp > ready[s]:
                    ready[s] = comp
        return tuple(vec)

    def assignment_of(self, vec: Sequence[int]) -> dict[int, int]:
        return {t: self.vm_ids[vec[i]] for i, t in enumerate(self.task_ids)}

    def _raw_dag(self, vec: Sequence[int]) -> RawQos:
        """raw_qos(run_simulation(...)) of the assignment, bit for bit, with
        or without edges, from an event walk instead of a simulation.

        Tasks join their machines in the simulator's order, by (ready time,
        id), where a successor is ready at max(arrival, latest predecessor
        completion). Each machine serves in join order, so a task's start and
        completion are known the moment it joins, and its successors can be
        released at once: their ready times are never earlier than that
        completion, as in the simulator, which handles completions before
        readies at equal times. Each completion is kept by position; flows
        and money are then added left to right in (arrival, id) order, as
        metrics adds them, and reliability comes from exact counts.
        """
        walk_rows = self._walk_rows
        pop, push = heapq.heappop, heapq.heappush
        free = [0.0] * len(self.vm_ids)
        remaining = self._indeg.copy()
        ready = self._arrivals.copy()
        comps = [0.0] * len(vec)
        heap = self._roots.copy()
        while heap:
            r, _, pos = pop(heap)
            j = vec[pos]
            f = free[j]
            transfer, exec_row, succs = walk_rows[pos]
            comp = ((r if r > f else f) + transfer[j]) + exec_row[j]
            free[j] = comps[pos] = comp
            for s, tid in succs:
                if comp > ready[s]:
                    ready[s] = comp
                left = remaining[s] - 1
                remaining[s] = left
                if not left:
                    push(heap, (ready[s], tid, s))
        total_time = money = 0.0
        dl_met = 0
        for pos, a, money_row, d in self._sum_rows:
            comp = comps[pos]
            total_time += comp - a
            money += money_row[vec[pos]]
            if d is not None and comp <= d:
                dl_met += 1
        n = len(vec)
        dl_total = self._dl_total
        rel = dl_met / dl_total if dl_total else 1.0
        return RawQos(total_time / n, money / n, rel)


class _Evaluator(_Tables):
    """Scores plans against bounds read from the instance (Marler and Arora,
    Struct. Multidisc. Optim. 2004). It holds no per-plan state: every
    score is a fresh walk."""

    def __init__(self, workload: WorkloadSet, weights: QosWeights):
        super().__init__(workload)
        self.weights = weights
        # Service times for ant construction, as a plain attribute: a
        # cached_property would slow every attribute load in the scoring loops.
        self._srv = np.array(self._transfer_tab) + np.array(self._exec_tab)
        self._colonies: dict[int, tuple] = {}  # _construct_colony's workspaces by ant count
        # Independent tasks admit a per-machine recurrence fused with the
        # sums in one pass; tasks with edges take the event walk. Both equal
        # the event simulation exactly.
        self._fast = not workload.dag.edges
        self._fast_rows = list(zip(
            self._arrivals, self._transfer_tab, self._exec_tab, self._money_tab, self._task_deadlines
        ))
        n, m = len(self.task_ids), len(self.vm_ids)
        # Utopia and nadir bounds, each a mean added left to right in
        # (arrival, id) order as metrics adds: money from each task's cheapest
        # charge to its dearest, the exact range over all plans; time from each
        # task's fastest service (no wait) to the worst one-machine plan.
        money = np.array(self._money_tab)
        ends = np.stack([self._srv.min(axis=1), money.min(axis=1), money.max(axis=1)])
        self._t_lo, self._c_lo, c_hi = (
            list(itertools.accumulate(col, initial=0.0))[-1] / n for col in ends[:, self._arrival_order].tolist()
        )
        t_hi = max(self.raw((j,) * n).time_cost for j in range(m))
        self._t_span = max(t_hi - self._t_lo, 1e-12)
        self._c_span = max(c_hi - self._c_lo, 1e-12)

    def _raw_fast(self, vec: Sequence[int]) -> RawQos:
        """Per-machine FIFO recurrence; valid only without precedence edges.
        One pass over the rows zipped in __init__, each task's arrival,
        transfer, exec and money rows and deadline, in position order, which
        without edges is (arrival, id) order."""
        free = [0.0] * len(self.vm_ids)
        total_time = money = 0.0
        dl_met = 0
        for (a, transfer, exec_row, money_row, d), j in zip(self._fast_rows, vec):
            f = free[j]
            comp = ((a if a > f else f) + transfer[j]) + exec_row[j]
            free[j] = comp
            total_time += comp - a
            money += money_row[j]
            if d is not None and comp <= d:
                dl_met += 1
        n = len(vec)
        dl_total = self._dl_total
        rel = dl_met / dl_total if dl_total else 1.0
        return RawQos(total_time / n, money / n, rel)

    def raw(self, vec: Sequence[int]) -> RawQos:
        """The plan's raw metrics; vec may be a tuple or a list."""
        return self._raw_fast(vec) if self._fast else self._raw_dag(vec)

    def score(self, vec: Sequence[int]) -> float:
        r = self.raw(vec)
        return self._blend(r.time_cost, r.money_cost, r.reliability)

    def _blend(self, time_cost: float, money_cost: float, reliability: float) -> float:
        """The score of raw metrics against the instance's bounds."""
        t_hat = (time_cost - self._t_lo) / self._t_span
        c_hat = (money_cost - self._c_lo) / self._c_span
        return _qos_blend(self.weights, t_hat, c_hat, reliability)


# ---------------------------------------------------------------------------
# Greedy earliest-finish-time baseline
# ---------------------------------------------------------------------------

def eft_schedule(workload: WorkloadSet) -> dict[int, int]:
    """List scheduling: place each task (topological order) on the machine
    finishing it earliest given current loads. Machine ties break on id."""
    tables = _Tables(workload)
    return tables.assignment_of(tables.eft_vec)


# ---------------------------------------------------------------------------
# Ant colony construction (shared by ACO and the hybrid)
# ---------------------------------------------------------------------------

def _colony_workspace(ev: _Evaluator, ants: int) -> tuple:
    """_construct_colony's buffers for `ants` ants on ev and each task's row
    of views into them. Task i's srv, tau and cum are row i % 32 of 32-row
    chunks, which the colony refills 32 tasks at a time."""
    m, n = len(ev.vm_ids), len(ev.task_ids)
    srv, tau, cum = np.empty((3, 32, m, ants))
    free, start, w = np.empty((3, m, ants))
    draws = np.empty((n, ants))
    below = np.zeros((n, m + 1, ants), dtype=bool)
    below[:, 0] = True
    rows = [
        (np.array(a), srv[i % 32], tau[i % 32], cum[i % 32], cum[i % 32, :-1], cum[i % 32, -1],
         u, below[i, 1:m], below[i, :m], below[i, 1:])
        for i, (a, u) in enumerate(zip(ev._arrivals, draws))
    ]
    chunks = [(slice(lo, lo + 32), rows[lo:lo + 32]) for lo in range(0, n, 32)]
    return draws, below, chunks, srv, tau, cum, free, start, w, np.empty(ants), np.empty((m, ants), dtype=bool)


def _construct_colony(
    ev: _Evaluator,
    tau_pow: np.ndarray,
    beta: float,
    rng: np.random.Generator,
    ants: int,
) -> list[tuple[int, ...]]:
    """Build `ants` assignment vectors guided by pheromone and a completion-
    time heuristic evaluated against each ant's own partial loads.

    tau_pow is the pheromone matrix already raised to alpha. One uniform draw
    per (ant, task) drives roulette selection; a degenerate weight row falls
    back to a uniform pick. All ants advance together, task by task, each
    ufunc running over the ants on (machines x ants) buffers, and each ant
    equals one built alone with scalar arithmetic:
    - rng.random((ants, n)) fills row-major: ant k draws what the k-th of
      `ants` sequential rng.random(n) calls would, and the stream ends alike.
    - A weight is tau * (1 / ((1 + start) + srv)) ** beta, the power by the C
      library's pow() as in `x ** beta`: np.float_power, not np.power's SIMD.
    - np.add.accumulate down the machines adds left to right, as `acc += w`.
      The pick is the first machine whose prefix sum exceeds u * total. Row j
      of `below` is prefix sum j - 1 <= u * total (rows 1..m-1; row 0 is True,
      row m False). Prefix sums never fall, so adjacent rows differ at the
      pick alone, the one-hot that updates the loads; the pick is the count
      of True rows 1..m-1.
    The evaluator keeps one workspace per ant count, built on first use: the
    draws, `below`, the loads, and srv, tau and cum as 32-task chunks, with
    each task's views into them. A task costs 12 ufunc calls and no
    allocation; its arrival, 1 and beta are 0-d arrays, which ufuncs take
    without converting, and the loads take start + srv by a masked copy.
    A total outside (0, inf) needs the uniform pick and a NaN breaks the
    monotone `below`, so each chunk's totals are tested in cum after it. If
    one fails, the colony is rebuilt from empty loads on the same draws,
    replacing failing picks as it goes; the first pass wrote only its own
    buffers, so this is exactly the per-task fallback.
    """
    ws = ev._colonies.get(ants)
    if ws is None:
        ws = ev._colonies[ants] = _colony_workspace(ev, ants)
    draws, below, chunks, srv, tau, cum, free, start, w, target, pick = ws
    m, n, beta = len(ev.vm_ids), len(ev.task_ids), np.array(beta)
    np.copyto(draws, rng.random((ants, n)).T)
    for fallback in (False, True):
        free.fill(0.0)
        for at, rows in chunks:
            k = len(rows)
            np.copyto(srv[:k], ev._srv[at, :, None])
            np.copyto(tau[:k], tau_pow[at, :, None])
            for a, srv_col, tau_col, cum_row, head, last, u, mid, lo, hi in rows:
                np.maximum(free, a, out=start)
                np.add(_ONE, start, out=w)
                np.add(w, srv_col, out=w)
                np.divide(_ONE, w, out=w)
                np.float_power(w, beta, out=w)
                np.multiply(w, tau_col, out=w)
                np.add.accumulate(w, axis=0, out=cum_row)
                np.multiply(u, last, out=target)
                np.less_equal(head, target, out=mid)
                if fallback:
                    bad = ~((0.0 < last) & (last < math.inf))
                    j = np.minimum((u[bad] * m).astype(np.intp), m - 1)
                    mid[:, bad] = np.arange(1, m)[:, None] <= j
                np.not_equal(lo, hi, out=pick)
                np.add(start, srv_col, out=w)
                np.copyto(free, w, where=pick)
            totals = cum[:k, -1]
            if not (fallback or ((0.0 < totals) & (totals < math.inf)).all()):
                break
        else:
            return [tuple(vec) for vec in below[:, 1:m].sum(axis=1).T.tolist()]


def aco_schedule(
    workload: WorkloadSet,
    *,
    params: AcoParams = DEFAULT_ACO_PARAMS,
    seed: int = 0,
    weights: QosWeights = QosWeights(),
    with_history: bool = False,
):
    """Max-min ant system: iteration-best deposits, pheromone clamped to
    [tau_min, tau_max] after every evaporation and deposit."""
    rng = np.random.default_rng(seed)
    ev = _Evaluator(workload, weights)
    n, m = len(ev.task_ids), len(ev.vm_ids)
    tau = np.full((n, m), params.tau_max)
    best_vec: tuple[int, ...] | None = None
    best_score = math.inf
    history: dict = {"tau": [], "best_scores": []}
    for _ in range(params.iterations):
        tau_pow = np.float_power(tau, params.alpha)
        colony = _construct_colony(ev, tau_pow, params.beta, rng, params.ants)
        scores = [ev.score(vec) for vec in colony]
        i = min(range(len(colony)), key=scores.__getitem__)
        iter_best_vec, iter_best_score = colony[i], scores[i]
        if iter_best_score < best_score:
            best_vec, best_score = iter_best_vec, iter_best_score
        tau *= 1.0 - params.rho
        tau[np.arange(n), iter_best_vec] += params.q / (1.0 + max(0.0, iter_best_score))
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

def sa_accept(delta: float, temperature: float, u: float) -> bool:
    """Metropolis rule (Metropolis et al., 1953): accept with probability
    min(1, exp(-delta/T)), given a uniform u in [0, 1). A move that does not
    go uphill is accepted without reading u."""
    if delta <= 0:
        return True
    if temperature <= 0:
        return False
    return u < math.exp(-delta / temperature)


class _QueueMoves:
    """Annealing state on an instance without precedence edges, scored one
    move at a time with the bits of _Evaluator._raw_fast, the simulator's.

    Moving the task at position pos from machine j0 to j1 changes only the
    completions after it on j0 and from it on on j1, and on each machine
    only up to the first task whose completion comes out as before. Each
    machine keeps its positions in order with their completions; propose
    re-walks the two tails with _raw_fast's recurrence, then builds the flow
    and money prefix sums from pos on, left to right onto the kept prefix at
    pos, and reads each total off its chain's end: the same chain of
    additions that _raw_fast makes. (Builtin sum() compensates from Python
    3.12 and np.add.reduce adds pairwise; neither would give the same bits.)
    propose builds the chains, accept keeps them: it installs them in place
    of the old ones by slice assignment, without adding again. Deadlines met
    are an exact count, adjusted by the tasks whose completions changed."""

    def __init__(self, ev: _Evaluator):
        self._arrivals, self._transfer, self._exec = ev._arrivals, ev._transfer_tab, ev._exec_tab
        self._money_tab, self._due = ev._money_tab, ev._task_deadlines
        self._blend = ev._blend
        self.vec = list(ev.eft_vec)
        n = len(self.vec)
        self._queues: list[list[int]] = [[] for _ in ev.vm_ids]
        for pos, j in enumerate(self.vec):
            self._queues[j].append(pos)
        # Walking each queue against NaN completions, which equal nothing and
        # meet no deadline, fills in every completion and counts the
        # deadlines met from zero.
        self._flows = [0.0] * n
        self._comps = []
        self._dl_met = 0
        for j, queue in enumerate(self._queues):
            comps, met = self._walk(j, queue, [math.nan] * len(queue), 0.0, self._flows, 0)
            self._comps.append(comps)
            self._dl_met += met
        self._money = [self._money_tab[pos][j] for pos, j in enumerate(self.vec)]
        self._flow_sums = list(itertools.accumulate(self._flows, initial=0.0))
        self._money_sums = list(itertools.accumulate(self._money, initial=0.0))
        self._dl_total = ev._dl_total
        self._pending: tuple = ()

    def _walk(self, j, positions, before, f, flows, base):
        """Serve `positions` in order on machine j after a task that
        completes at f, up to the first whose completion equals its old one
        in `before`: from there on nothing changes. Returns the changed
        completions and the change in deadlines met, and writes each changed
        flow to flows[pos - base]."""
        arrivals, transfer, exec_tab, due = self._arrivals, self._transfer, self._exec, self._due
        comps = []
        met = 0
        for pos, old in zip(positions, before):
            a = arrivals[pos]
            f = ((a if a > f else f) + transfer[pos][j]) + exec_tab[pos][j]
            if f == old:
                break
            comps.append(f)
            flows[pos - base] = f - a
            d = due[pos]
            if d is not None:
                met += (f <= d) - (old <= d)
        return comps, met

    def propose(self, pos: int, j1: int) -> float:
        """Score of the current assignment with pos moved to j1, from the
        raw metrics as _raw_fast computes them."""
        j0 = self.vec[pos]
        q0, q1 = self._queues[j0], self._queues[j1]
        c0, c1 = self._comps[j0], self._comps[j1]
        i0, i1 = bisect.bisect_left(q0, pos), bisect.bisect_left(q1, pos)
        flows = self._flows[pos:]
        met = self._dl_met
        if i0 + 1 < len(q0):
            f = c0[i0 - 1] if i0 else 0.0
            tail0, met0 = self._walk(j0, q0[i0 + 1:], c0[i0 + 1:], f, flows, pos)
            met += met0
        else:
            tail0 = []
        # pos itself is new on j1: walk it against NaN, so the walk cannot
        # stop on it, and take its old completion out of the count here.
        d = self._due[pos]
        if d is not None and c0[i0] <= d:
            met -= 1
        q1 = q1[i1:]
        q1.insert(0, pos)
        before = c1[i1:]
        before.insert(0, math.nan)
        tail1, met1 = self._walk(j1, q1, before, c1[i1 - 1] if i1 else 0.0, flows, pos)
        met += met1
        money = self._money[pos:]
        money[0] = self._money_tab[pos][j1]
        flow_sums = list(itertools.accumulate(flows, initial=self._flow_sums[pos]))
        money_sums = list(itertools.accumulate(money, initial=self._money_sums[pos]))
        self._pending = (pos, j0, j1, i0, i1, tail0, tail1, flows, money, flow_sums, money_sums, met)
        n = len(self.vec)
        dl_total = self._dl_total
        return self._blend(flow_sums[-1] / n, money_sums[-1] / n, met / dl_total if dl_total else 1.0)

    def accept(self) -> None:
        """Make the last proposal the current assignment."""
        pos, j0, j1, i0, i1, tail0, tail1, flows, money, flow_sums, money_sums, met = self._pending
        self.vec[pos] = j1
        del self._queues[j0][i0]
        self._queues[j1].insert(i1, pos)
        self._comps[j0][i0:i0 + len(tail0) + 1] = tail0
        self._comps[j1][i1:i1 + len(tail1) - 1] = tail1
        self._flows[pos:] = flows
        self._money[pos:] = money
        self._flow_sums[pos:] = flow_sums
        self._money_sums[pos:] = money_sums
        self._dl_met = met


class _RescoredMoves:
    """Annealing state on an instance with precedence edges, the plan kept
    as a list. A proposal is scored in place: the move is written into the
    plan, the evaluator scores the plan, and the old machine is put back."""

    def __init__(self, ev: _Evaluator):
        self._score = ev.score
        self.vec = list(ev.eft_vec)
        self._pending = (0, self.vec[0])

    def propose(self, pos: int, j1: int) -> float:
        vec = self.vec
        j0 = vec[pos]
        vec[pos] = j1
        score = self._score(vec)
        vec[pos] = j0
        self._pending = (pos, j1)
        return score

    def accept(self) -> None:
        """Make the last proposal the current assignment."""
        pos, j1 = self._pending
        self.vec[pos] = j1


def sa_schedule(
    workload: WorkloadSet,
    *,
    params: SaParams = DEFAULT_SA_PARAMS,
    seed: int = 0,
    weights: QosWeights = QosWeights(),
    with_history: bool = False,
):
    """Single-task reassignment neighborhood under a geometric cooling
    schedule; returns the best assignment visited.

    The generator's draws, in stream order: at each temperature one array
    each of steps_per_temp positions (rng.integers(0, n, steps)), machine
    shifts (rng.integers(1, m, steps)) and acceptance uniforms
    (rng.random(steps)), used in order by the moves.
    A move that does not go uphill leaves its uniform unread. With one
    machine there is no move: the arrays are empty and draw nothing."""
    rng = np.random.default_rng(seed)
    ev = _Evaluator(workload, weights)
    n, m = len(ev.task_ids), len(ev.vm_ids)
    # Anneal from the greedy earliest-finish placement, not from noise.
    moves = _QueueMoves(ev) if ev._fast else _RescoredMoves(ev)
    current_score = ev.score(ev.eft_vec)
    best, best_score = ev.eft_vec, current_score
    temp = params.initial_temp
    history: dict = {"best_scores": [], "temps": []}
    steps = params.steps_per_temp if m > 1 else 0  # zero-size draws take nothing
    while temp > params.min_temp:
        positions = rng.integers(0, n, steps).tolist()
        shifts = rng.integers(1, m, steps).tolist()
        uniforms = rng.random(steps).tolist()
        for pos, shift, u in zip(positions, shifts, uniforms):
            neighbor_score = moves.propose(pos, (moves.vec[pos] + shift) % m)
            if sa_accept(neighbor_score - current_score, temp, u):
                moves.accept()
                current_score = neighbor_score
                if current_score < best_score:
                    best, best_score = tuple(moves.vec), current_score
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
    workload: WorkloadSet,
    *,
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
    elitism makes the per-generation best score nonincreasing.

    Candidates repeat: the elite, children equal to a parent, ants that
    rebuild a plan of the same or an earlier generation. gaaco scores each
    distinct plan once per run, and the population carries its scores from
    the generation that kept it.

    The generator's draws, in stream order: pop_size - 1 random chromosomes
    (rng.integers(0, m, n) each), then each generation, for its children:
    - the tournament pairs, rng.integers(0, pop_size, (pop_size - 1, 2, 2)):
      child c's parents are the winners of pairs [c, 0] and [c, 1], the first
      of a pair winning ties;
    - with n > 1, the crossover uniforms rng.random(pop_size - 1), each
      compared with pc, and the cuts rng.integers(1, n, pop_size - 1);
    - per child, a mutation mask rng.random(n) < pm_g, then
      rng.integers(0, m, hits), the new machines of its hit genes in
      position order;
    - the colony's rng.random((ants, n)) (see _construct_colony)."""
    rng = np.random.default_rng(seed)
    ev = _Evaluator(workload, weights)
    n, m = len(ev.task_ids), len(ev.vm_ids)
    pop_size = params.population
    # Seed the population with the greedy earliest-finish solution so the
    # genetic phase starts from a competent placement instead of pure noise.
    pop = [ev.eft_vec] + [tuple(int(v) for v in rng.integers(0, m, n)) for _ in range(pop_size - 1)]
    tau = np.ones((n, m))
    memo: dict[tuple[int, ...], float] = {}

    def score(vec: tuple[int, ...]) -> float:
        s = memo.get(vec)
        if s is None:
            s = memo[vec] = ev.score(vec)
        return s

    scores = [score(v) for v in pop]
    best = min(range(pop_size), key=scores.__getitem__)
    best_vec, best_score = pop[best], scores[best]
    history: dict = {"best_scores": []}

    generations = params.evolution_num
    children = pop_size - 1
    for g in range(generations):
        progress = g / (generations - 1) if generations > 1 else 1.0
        pm_g = params.pm * (1.0 - 0.75 * progress)
        alpha_g = params.alpha_max * (0.5 + 0.5 * progress)
        beta_g = params.beta_max * (0.5 + 0.5 * progress)
        rho_g = params.rho_max * (0.25 + 0.75 * progress)

        # Genetic phase: elitist reproduction. A cut at n copies the first
        # parent, as a child that is not crossed over.
        pairs = rng.integers(0, pop_size, (children, 2, 2)).tolist()
        cuts = [n] * children
        if n > 1:
            crossed = rng.random(children) < params.pc
            cuts = np.where(crossed, rng.integers(1, n, children), n).tolist()
        offspring: list[tuple[int, ...]] = [best_vec]
        for ((i, j), (k, l)), cut in zip(pairs, cuts):
            pa = pop[i if scores[i] <= scores[j] else j]
            pb = pop[k if scores[k] <= scores[l] else l]
            child = list(pa[:cut] + pb[cut:])
            hits = np.flatnonzero(rng.random(n) < pm_g).tolist()
            for pos, v in zip(hits, rng.integers(0, m, len(hits)).tolist()):
                child[pos] = v
            offspring.append(tuple(child))

        # Elite deposits pheromone on its task->vm edges.
        tau *= 1.0 - rho_g
        tau[np.arange(n), best_vec] += params.q / (1.0 + max(0.0, best_score))
        np.clip(tau, _TAU_FLOOR, _TAU_CEIL, out=tau)

        # Ant phase constructs candidates from the trails.
        ants = _construct_colony(ev, np.float_power(tau, alpha_g), beta_g, rng, params.m)
        merged = offspring + ants
        merged_scores = [score(v) for v in merged]
        keep = sorted(range(len(merged)), key=lambda i: (merged_scores[i], i))[:pop_size]
        pop = [merged[i] for i in keep]
        scores = [merged_scores[i] for i in keep]
        if scores[0] < best_score:
            best_vec, best_score = pop[0], scores[0]
        history["best_scores"].append(best_score)

    assignment = ev.assignment_of(best_vec)
    if with_history:
        return assignment, history
    return assignment


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

def brute_force_schedule(
    workload: WorkloadSet,
    *,
    weights: QosWeights = QosWeights(),
    limit: int = 1_000_000,
) -> dict[int, int]:
    """Enumerate every assignment and return the one with the lowest
    _Evaluator score, the score aco, sa and gaaco minimize, bit for bit.
    Ties keep the lexicographically smallest assignment vector. Refuses
    instances with more than `limit` combinations.
    """
    n, m = len(workload.tasks), len(workload.vms)
    combos = m ** n
    if combos > limit:
        raise InstanceTooLargeError(
            f"{m}^{n} = {combos} assignments exceeds the limit of {limit}"
        )
    ev = _Evaluator(workload, weights)
    return ev.assignment_of(min(itertools.product(range(m), repeat=n), key=ev.score))

"""Greedy, annealing, ant colony, hybrid and exhaustive schedulers."""

import dataclasses
import gc
import heapq
import itertools
import math
import pickle
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudsched import schedulers
from cloudsched.errors import ConfigurationError, DagValidationError, InstanceTooLargeError
from cloudsched.metrics import QosWeights, RawQos, raw_qos
from cloudsched.schedulers import (
    AcoParams,
    GaacoParams,
    SaParams,
    _construct_colony,
    _Evaluator,
    aco_schedule,
    brute_force_schedule,
    eft_schedule,
    gaaco_schedule,
    sa_accept,
    sa_schedule,
)
from cloudsched.simulator import _service_times, run_simulation
from cloudsched.workload import (
    DagWorkflow,
    Task,
    TaskGenParams,
    VmSpec,
    WorkloadSet,
    generate_tasks,
)

from helpers import (
    contested_workload,
    flat_workload,
    plan_score,
    random_dag_workload,
    task,
    vm,
)

# A small instance where oracle agreement can be checked exhaustively: the
# searches see 2^4 = 16 candidate assignments.
ORACLE_WL = WorkloadSet.from_tasks(
    [
        VmSpec(id=0, mips=1000.0, instr_cost_rate=0.01, bw_cost_rate=0.01),
        VmSpec(id=1, mips=500.0, instr_cost_rate=0.005, bw_cost_rate=0.01),
    ],
    [
        Task(id=0, length=2400.0, input_size=120.0, output_size=60.0, arrival_time=0.0),
        Task(id=1, length=900.0, input_size=40.0, output_size=40.0, arrival_time=0.4),
        Task(id=2, length=3600.0, input_size=200.0, output_size=100.0, arrival_time=0.9),
        Task(id=3, length=1500.0, input_size=80.0, output_size=20.0, arrival_time=1.5),
    ],
)


FAST_GAACO = GaacoParams(evolution_num=30, population=8, m=12)
FAST_ACO = AcoParams(ants=10, iterations=20)
FAST_SA = SaParams(initial_temp=0.02, cooling_rate=0.9, steps_per_temp=30, min_temp=0.001)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def test_cyclic_dag_is_rejected_as_by_the_simulator():
    # A cyclic workload cannot be built, so neither the simulator nor any
    # scheduler can be handed one.
    dag = DagWorkflow([task(0), task(1), task(2)], [(0, 1), (1, 2), (2, 1)])
    with pytest.raises(DagValidationError, match=r"dag contains a cycle: \((1, 2|2, 1)\)"):
        WorkloadSet([vm(0), vm(1)], dag, [])


# ---------------------------------------------------------------------------
# EFT greedy
# ---------------------------------------------------------------------------

def test_eft_parallelizes_across_idle_machines():
    wl = flat_workload([1000.0, 2000.0], n_vms=2)
    assignment = eft_schedule(wl)
    trace = run_simulation(wl, assignment)
    assert trace.makespan == 2.0
    assert assignment[0] != assignment[1]


def test_eft_serializes_on_a_single_machine():
    wl = flat_workload([1000.0, 2000.0, 3000.0])
    trace = run_simulation(wl, eft_schedule(wl))
    assert trace.makespan == 6.0


def test_eft_breaks_ties_toward_the_lowest_machine_id():
    wl = flat_workload([1000.0], n_vms=3)
    assert eft_schedule(wl) == {0: 0}


def test_eft_respects_chains():
    tasks = [task(0), task(1)]
    wl = WorkloadSet([vm(0), vm(1)], DagWorkflow(tasks, [(0, 1)]))
    trace = run_simulation(wl, eft_schedule(wl))
    assert trace.records[1].start >= trace.records[0].completion


# ---------------------------------------------------------------------------
# ACO
# ---------------------------------------------------------------------------

def test_aco_single_choice_is_forced():
    wl = flat_workload([1000.0])
    assert aco_schedule(wl, params=FAST_ACO, seed=0) == {0: 0}


def test_aco_is_deterministic_per_seed():
    a = aco_schedule(ORACLE_WL, params=FAST_ACO, seed=5)
    b = aco_schedule(ORACLE_WL, params=FAST_ACO, seed=5)
    assert a == b


def test_aco_pheromone_stays_within_bounds():
    _, history = aco_schedule(ORACLE_WL, params=FAST_ACO, seed=2, with_history=True)
    for tau in history["tau"]:
        assert np.all(tau >= FAST_ACO.tau_min - 1e-12)
        assert np.all(tau <= FAST_ACO.tau_max + 1e-12)


def test_aco_finds_the_optimum_often_and_never_beats_it():
    ev = _Evaluator(ORACLE_WL, QosWeights())
    best = plan_score(ev, brute_force_schedule(ORACLE_WL))
    scores = [plan_score(ev, aco_schedule(ORACLE_WL, seed=seed)) for seed in range(20)]
    assert min(scores) >= best
    assert scores.count(best) >= 12  # 60% of 20 seeds


# ---------------------------------------------------------------------------
# Ant construction and the fast evaluator, against their references
# ---------------------------------------------------------------------------

def _reference_ant(ev, tau_pow, beta, rng, degenerate=None):
    """One ant built with scalar Python arithmetic, machine by machine: the
    per-ant construction the colony kernel replaced, kept as its oracle.
    If given, `degenerate` gets one flag per task: whether the uniform
    fallback picked."""
    m = len(ev.vm_ids)
    n = len(ev.task_ids)
    arrivals = ev._arrivals
    srv = ev._srv.tolist()
    free = [0.0] * m
    draws = rng.random(n)
    vec = []
    for pos in range(n):
        a = arrivals[pos]
        row_srv = srv[pos]
        row_tau = tau_pow[pos]
        weights = []
        total = 0.0
        for j in range(m):
            f = free[j]
            start = a if a > f else f
            w = row_tau[j] * (1.0 / (1.0 + start + row_srv[j])) ** beta
            weights.append(w)
            total += w
        u = draws[pos]
        if degenerate is not None:
            degenerate.append(not (0.0 < total < math.inf))
        if not (0.0 < total < math.inf):
            j = min(int(u * m), m - 1)
        else:
            target = u * total
            acc = 0.0
            j = m - 1
            for k in range(m):
                acc += weights[k]
                if target < acc:
                    j = k
                    break
        f = free[j]
        start = a if a > f else f
        free[j] = start + row_srv[j]
        vec.append(j)
    return tuple(vec)


@st.composite
def independent_workloads(draw):
    """Edge-free workloads on heterogeneous machines, arrivals batched, even
    or Poisson, with or without deadlines."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 6))
    vms = [
        VmSpec(
            id=j,
            mips=draw(st.sampled_from([250.0, 500.0, 1000.0, 2000.0])),
            bandwidth=draw(st.sampled_from([100.0, 1000.0])),
            instr_cost_rate=draw(st.sampled_from([0.0, 0.005, 0.01, 0.02])),
            bw_cost_rate=draw(st.sampled_from([0.0, 0.005, 0.01])),
        )
        for j in range(m)
    ]
    params = TaskGenParams(
        length_range=(100.0, 5000.0),
        input_range=(0.0, 300.0),
        output_range=(0.0, 300.0),
        mean_interarrival=draw(st.sampled_from([0.0, 0.1, 0.5])),
        arrival_pattern=draw(st.sampled_from(["even", "poisson"])),
        deadline_slack_range=draw(st.sampled_from([None, (0.5, 20.0)])),
    )
    tasks = generate_tasks(n, draw(st.integers(0, 2**32 - 1)), params)
    return WorkloadSet.from_tasks(vms, tasks)


@settings(max_examples=120, deadline=None)
@given(
    wl=independent_workloads(),
    ants=st.integers(1, 12),
    beta=st.one_of(
        st.sampled_from([0.0, 0.5, 2.0]),
        st.floats(0.0, 4.0),
        # Every task here needs at least 0.05 s, so 1/(1+t) <= 1/1.05 and
        # these powers underflow to zero: the uniform fallback picks.
        st.floats(1e5, 1e6),
    ),
    alpha=st.sampled_from([0.0, 0.7, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_colony_matches_sequential_reference_ants(wl, ants, beta, alpha, seed):
    ev = _Evaluator(wl, QosWeights())
    rng = np.random.default_rng(seed)
    tau = rng.uniform(1e-3, 1e3, (len(ev.task_ids), len(ev.vm_ids)))
    tau_pow = np.power(tau, alpha)
    ref_rng = np.random.default_rng(seed + 1)
    got_rng = np.random.default_rng(seed + 1)
    expected = [_reference_ant(ev, tau_pow.tolist(), beta, ref_rng) for _ in range(ants)]
    assert _construct_colony(ev, tau_pow, beta, got_rng, ants) == expected
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def _colony_against_reference(ev, tau_pow, beta, ants, seed):
    """Assert the colony equals `ants` sequential reference ants and leaves
    the generator in their state; return each ant's fallback flags."""
    ref_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    degenerate = [[] for _ in range(ants)]
    expected = [_reference_ant(ev, tau_pow.tolist(), beta, ref_rng, flags) for flags in degenerate]
    assert _construct_colony(ev, tau_pow, beta, got_rng, ants) == expected
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    return np.array(degenerate)


def test_colony_falls_back_at_zero_and_infinite_pheromone_rows_only():
    # A row of zeros makes a zero total and an infinite pheromone an
    # infinite one, at those tasks only: every ant falls back there and
    # takes the roulette everywhere else.
    wl = WorkloadSet.from_tasks([vm(j, mips=500.0 * (j + 1)) for j in range(4)], generate_tasks(40, 3))
    ev = _Evaluator(wl, QosWeights())
    tau_pow = np.random.default_rng(1).uniform(0.1, 10.0, (40, 4))
    tau_pow[[3, 17, 18]] = 0.0
    tau_pow[25, 2] = math.inf
    degenerate = _colony_against_reference(ev, tau_pow, 2.0, 9, seed=2)
    assert np.flatnonzero(degenerate.any(axis=0)).tolist() == [3, 17, 18, 25]
    assert degenerate[:, [3, 17, 18, 25]].all()


@pytest.mark.parametrize("seed", range(4))
def test_colony_falls_back_exactly_when_only_some_ants_underflow(seed):
    # Every task arrives at t = 0 and needs 1.5-12 s. With beta = 200 a
    # weight (1 / (1 + t)) ** 200 underflows to zero once t passes about
    # 40 s, so an ant falls back only once its least loaded machine holds
    # that much: at some tasks only some of the ants do.
    vms = [vm(j, mips=mips) for j, mips in enumerate((500.0, 750.0, 1000.0, 1500.0))]
    params = TaskGenParams(length_range=(2000.0, 6000.0), mean_interarrival=0.0)
    wl = WorkloadSet.from_tasks(vms, generate_tasks(36, seed, params))
    ev = _Evaluator(wl, QosWeights())
    tau_pow = np.random.default_rng(seed).uniform(0.5, 2.0, (36, 4))
    per_task = _colony_against_reference(ev, tau_pow, 200.0, 12, seed + 1).sum(axis=0)
    assert ((0 < per_task) & (per_task < 12)).any()


class _PresetDraws:
    """Stands in for a Generator: hands out preset uniforms in stream order."""

    def __init__(self, draws):
        self._flat = np.ravel(draws)
        self._used = 0

    def random(self, size):
        k = int(np.prod(size))
        out = self._flat[self._used:self._used + k].reshape(size)
        self._used += k
        return out


def test_colony_resolves_roulette_ties_on_the_exact_scalar_weights():
    # Tasks arrive far apart, so every machine is idle at each arrival and
    # the weights do not depend on earlier picks. Each draw puts u * total
    # exactly on a prefix sum of the scalar weights; the scalar rule
    # (target < acc) then moves on to the next machine, and a weight off in
    # its last bit would move the pick.
    n, m, ants, beta = 150, 4, 6, 1.37
    vms = [vm(j, mips=mips) for j, mips in enumerate((300.0, 700.0, 1100.0, 1900.0))]
    rng = np.random.default_rng(11)
    tasks = [
        task(i, length=float(rng.uniform(100.0, 5000.0)), arrival=1e4 * i)
        for i in range(n)
    ]
    ev = _Evaluator(WorkloadSet.from_tasks(vms, tasks), QosWeights())
    tau_pow = rng.uniform(0.1, 10.0, (n, m))
    srv = ev._srv.tolist()
    draws = np.zeros((ants, n))
    expected = np.zeros((ants, n), dtype=int)
    for pos in range(n):
        a = ev._arrivals[pos]
        cum = list(itertools.accumulate(
            tau_pow[pos, j] * (1.0 / (1.0 + a + srv[pos][j])) ** beta for j in range(m)
        ))
        for ant in range(ants):
            k = (pos + ant) % (m - 1)
            u = cum[k] / cum[-1]
            for _ in range(4):
                if u * cum[-1] == cum[k]:
                    draws[ant, pos], expected[ant, pos] = u, k + 1
                    break
                u = math.nextafter(u, 1.0 if u * cum[-1] < cum[k] else 0.0)
    assert np.count_nonzero(expected) > 0.9 * ants * n
    got = _construct_colony(ev, tau_pow, beta, _PresetDraws(draws), ants)
    assert got == [tuple(row) for row in expected.tolist()]


def test_a_kept_colony_workspace_builds_as_a_fresh_one():
    # The evaluator keeps one workspace per ant count across colonies. 70
    # tasks fill two 32-task chunks and part of a third. The degenerate
    # colonies fall back, one in the first chunk and one only in the second,
    # so the first pass stops part way and leaves stale rows of `below` and
    # cum behind; every colony after them, of either ant count, must still
    # pick as on a fresh evaluator and draw the same.
    wl = WorkloadSet.from_tasks([vm(j, mips=500.0 * (j + 1)) for j in range(4)], generate_tasks(70, 3))
    kept = _Evaluator(wl, QosWeights())
    rng = np.random.default_rng(1)
    normal, early, late = (rng.uniform(0.1, 10.0, (70, 4)) for _ in range(3))
    early[3] = 0.0
    late[[40, 69]] = 0.0
    late[35, 1] = math.inf
    kept_rng, fresh_rng = np.random.default_rng(7), np.random.default_rng(7)
    for tau_pow, ants in [
        (normal, 9), (normal, 5), (early, 9), (normal, 9), (late, 5), (normal, 5), (late, 9), (normal, 9),
    ]:
        got = _construct_colony(kept, tau_pow, 2.0, kept_rng, ants)
        assert got == _construct_colony(_Evaluator(wl, QosWeights()), tau_pow, 2.0, fresh_rng, ants)
        assert kept_rng.bit_generator.state == fresh_rng.bit_generator.state
    assert sorted(kept._colonies) == [5, 9]


def test_pheromone_powers_match_scalar_pow(monkeypatch):
    # The searches raise tau to alpha before each colony. Each power must be
    # Python's scalar t ** alpha, bit for bit, or the weights, and with them
    # the chosen assignments, depend on the host's SIMD level.
    checked = []

    def spy(ev, tau_pow, beta, rng, ants):
        # tau and alpha are locals of the search that called the kernel.
        caller = sys._getframe(1).f_locals
        alpha = caller["alpha_g"] if "alpha_g" in caller else caller["params"].alpha
        expected = [[t ** alpha for t in row] for row in caller["tau"].tolist()]
        assert tau_pow.tolist() == expected
        checked.append(alpha)
        return construct(ev, tau_pow, beta, rng, ants)

    construct = schedulers._construct_colony
    monkeypatch.setattr(schedulers, "_construct_colony", spy)
    wl = WorkloadSet.from_tasks(
        [vm(j, mips=500.0 * (j + 1)) for j in range(4)], generate_tasks(40, 3)
    )
    aco_schedule(wl, params=AcoParams(ants=4, iterations=6, alpha=0.685), seed=1)
    gaaco_schedule(wl, seed=1)
    assert 0.685 in checked and any(a not in (0.685, 1.0) for a in checked)


def simulated_raw(wl, assignment):
    """raw_qos of the simulated assignment, scored against wl's deadlines."""
    deadlines = {t.id: t.deadline for t in wl.tasks}
    return raw_qos(run_simulation(wl, assignment), wl.vms, deadlines)


@settings(max_examples=150, deadline=None)
@given(wl=independent_workloads(), seed=st.integers(0, 2**32 - 1))
def test_fast_evaluator_matches_the_event_simulator(wl, seed):
    # The fused recurrence adds flow and money in the simulator's (arrival,
    # id) order, so it equals the simulated metrics bit for bit.
    ev = _Evaluator(wl, QosWeights())
    rng = np.random.default_rng(seed)
    for _ in range(5):
        vec = tuple(int(v) for v in rng.integers(0, len(ev.vm_ids), len(ev.task_ids)))
        assert ev._raw_fast(vec) == simulated_raw(wl, ev.assignment_of(vec))


@settings(max_examples=100, deadline=None)
@given(wl=independent_workloads(), data=st.data())
def test_fast_evaluator_counts_only_the_deadlines_set(wl, data):
    # independent_workloads sets deadlines on every task or on none. Here
    # the first task has one, the second none, and the rest are drawn, so
    # the count of deadlines _raw_fast takes from the tables and the
    # deadlines it counts as met are both checked against the simulator.
    n = len(wl.tasks)
    has = [True, False] + data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    slack = data.draw(st.sampled_from([0.5, 2.0, 6.0, 20.0]))
    tasks = [
        dataclasses.replace(t, deadline=t.arrival_time + slack if keep else None)
        for t, keep in zip(wl.tasks, has)
    ]
    wl = WorkloadSet.from_tasks(wl.vms, tasks)
    ev = _Evaluator(wl, QosWeights())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(5):
        vec = tuple(rng.integers(0, len(ev.vm_ids), n).tolist())
        assert ev._raw_fast(vec) == simulated_raw(wl, ev.assignment_of(vec))


@st.composite
def dag_workloads(draw):
    """Random DAGs made to tie: integer arrivals shared by several tasks,
    zero data sizes, ids out of arrival order, deadlines on none, some or
    all of the tasks and 1-5 heterogeneous machines listed out of id order.
    Some draws have no edges at all."""
    n = draw(st.integers(1, 25))
    ids = draw(st.permutations(range(3 * n)))[:n]
    slacks = st.sampled_from([0.5, 2.0, 6.0, 15.0])
    slacks = draw(st.sampled_from([st.none(), st.one_of(st.none(), slacks), slacks]))
    tasks = []
    for tid in ids:
        arrival = float(draw(st.integers(0, 3)))
        size = draw(st.sampled_from([0.0, 0.0, 100.0, 250.0]))
        slack = draw(slacks)
        tasks.append(Task(
            id=tid,
            length=draw(st.sampled_from([500.0, 1000.0, 2000.0, 2750.0])),
            input_size=size,
            output_size=size,
            arrival_time=arrival,
            deadline=None if slack is None else arrival + slack,
        ))
    # Edges run forward in a random topological order, so the graph is acyclic.
    topo = draw(st.permutations(ids))
    pairs = draw(st.one_of(
        st.just([]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    ))
    edges = sorted({(topo[min(i, j)], topo[max(i, j)]) for i, j in pairs if i != j})
    vm_ids = draw(st.permutations([0, 10, 20, 30, 40]))[: draw(st.integers(1, 5))]
    vms = [
        VmSpec(
            id=vid,
            mips=draw(st.sampled_from([500.0, 750.0, 1000.0, 2000.0])),
            bandwidth=draw(st.sampled_from([100.0, 300.0, 1000.0])),
            instr_cost_rate=draw(st.sampled_from([0.0, 0.01, 0.02])),
            bw_cost_rate=draw(st.sampled_from([0.0, 0.005])),
        )
        for vid in vm_ids
    ]
    return WorkloadSet(vms, DagWorkflow(tasks, edges))


def reference_construction_order(wl):
    """Topological order, ties broken by (arrival, id), as a standalone
    Kahn pass over task ids."""
    dag = wl.dag
    by_id = {t.id: t for t in dag.tasks}
    indeg = {t.id: 0 for t in dag.tasks}
    for _, b in dag.edges:
        indeg[b] += 1
    heap = [(by_id[tid].arrival_time, tid) for tid, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    succs = dag.successors()
    order = []
    while heap:
        _, tid = heapq.heappop(heap)
        order.append(tid)
        for s in succs[tid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(heap, (by_id[s].arrival_time, s))
    return order


def reference_eft(wl):
    """Greedy earliest finish time over machine ids, predecessor by
    predecessor, in reference_construction_order."""
    by_id = {t.id: t for t in wl.tasks}
    preds = wl.dag.predecessors()
    machine_ready = {v.id: 0.0 for v in wl.vms}
    completions = {}
    out = {}
    for tid in reference_construction_order(wl):
        task = by_id[tid]
        est = task.arrival_time
        for p in preds[tid]:
            est = max(est, completions[p])
        best_vm, best_finish = None, math.inf
        for v in wl.vms:
            transfer = (task.input_size + task.output_size) / v.bandwidth
            finish = max(est, machine_ready[v.id]) + transfer + task.length / v.mips
            if finish < best_finish or (finish == best_finish and v.id < best_vm):
                best_vm, best_finish = v.id, finish
        out[tid] = best_vm
        machine_ready[best_vm] = best_finish
        completions[tid] = best_finish
    return out


@settings(max_examples=300, deadline=None)
@given(wl=dag_workloads())
def test_tables_order_and_eft_plan_match_the_reference(wl):
    assert schedulers._Tables(wl).task_ids == reference_construction_order(wl)
    assert list(eft_schedule(wl).items()) == list(reference_eft(wl).items())


def test_each_scheduler_call_validates_its_dag_once(monkeypatch):
    validate = schedulers.validate_dag
    calls = []

    def counting(dag):
        calls.append(dag)
        return validate(dag)

    monkeypatch.setattr(schedulers, "validate_dag", counting)
    wl = layered_dag_workload(5)
    tiny_sa = SaParams(initial_temp=0.02, cooling_rate=0.5, steps_per_temp=2, min_temp=0.01)
    for run in (
        lambda: eft_schedule(wl),
        lambda: aco_schedule(wl, params=AcoParams(ants=2, iterations=2), seed=1),
        lambda: sa_schedule(wl, params=tiny_sa, seed=1),
        lambda: gaaco_schedule(wl, params=GaacoParams(evolution_num=2, population=2, m=2), seed=1),
    ):
        calls.clear()
        run()
        assert calls == [wl.dag]


@settings(max_examples=300, deadline=None)
@given(wl=st.one_of(dag_workloads(), independent_workloads()), seed=st.integers(0, 2**32 - 1))
def test_event_walk_equals_the_event_simulator_exactly(wl, seed):
    # Every scorer, the evaluator's choice, the event walk and (without
    # edges) the fused recurrence, equals the simulated metrics with ==.
    ev = _Evaluator(wl, QosWeights())
    rng = np.random.default_rng(seed)
    for _ in range(5):
        vec = tuple(int(v) for v in rng.integers(0, len(ev.vm_ids), len(ev.task_ids)))
        sim = simulated_raw(wl, ev.assignment_of(vec))
        assert ev.raw(vec) == ev._raw_dag(vec) == sim
        # Annealing walks its plan in place, as a list.
        assert ev._raw_dag(list(vec)) == ev.raw(list(vec)) == sim
        if not wl.dag.edges:
            assert ev._raw_fast(vec) == sim


def layered_dag_workload(seed, flows=3, per_flow=6):
    """`flows` disconnected layered workflows submitted at t=0 with deadlines
    on 6 heterogeneous machines; each task after the first layer has one or
    two predecessors in the layer before it."""
    params = TaskGenParams(mean_interarrival=0.0, deadline_slack_range=(4.0, 20.0))
    tasks = generate_tasks(flows * per_flow, seed, params)
    rng = np.random.default_rng(seed)
    edges = []
    for f in range(flows):
        ids = list(range(f * per_flow, (f + 1) * per_flow))
        layers = [ids[:2], ids[2:4], ids[4:]]
        for prev, layer in zip(layers, layers[1:]):
            for t in layer:
                for p in rng.choice(prev, int(rng.integers(1, 3)), replace=False):
                    edges.append((int(p), t))
    vms = [
        vm(j, mips=500.0 * (1 + j % 3), bandwidth=100.0 * (1 + j), instr_cost_rate=0.002 * (1 + j))
        for j in range(6)
    ]
    return WorkloadSet(vms, DagWorkflow(tasks, edges))


def test_searches_on_dags_choose_as_with_simulated_scoring(monkeypatch):
    # The event walk stands in for a full simulation of every candidate; the
    # searches must pick the same assignments as they do when each candidate
    # is simulated.
    wl = layered_dag_workload(5)
    runs = [
        lambda: aco_schedule(wl, params=FAST_ACO, seed=3),
        lambda: sa_schedule(wl, params=FAST_SA, seed=3),
        lambda: gaaco_schedule(wl, params=FAST_GAACO, seed=3),
    ]
    walked = [run() for run in runs]
    simulated = []

    def simulate(ev, vec):
        simulated.append(vec)
        return simulated_raw(wl, ev.assignment_of(vec))

    # Annealing scores its proposals by resuming its own walk, not through
    # _raw_dag: each proposal is also checked against the simulated score of
    # its moved plan, and counted, through an evaluator equal to the one
    # sa_schedule builds with the default weights.
    ev = _Evaluator(wl, QosWeights())
    propose = schedulers._ResumedMoves.propose

    def checked_propose(moves, pos, j1):
        moved = moves.vec.copy()
        moved[pos] = j1
        score = propose(moves, pos, j1)
        assert score == ev.score(moved)
        return score

    monkeypatch.setattr(_Evaluator, "_raw_dag", simulate)
    monkeypatch.setattr(schedulers._ResumedMoves, "propose", checked_propose)
    assert [run() for run in runs] == walked
    assert len(simulated) > 1000


# ---------------------------------------------------------------------------
# SA
# ---------------------------------------------------------------------------

def resumed_walk_workload(seed):
    """A DAG instance for the resumed walk on 1-4 heterogeneous machines
    listed out of id order. Every third seed is a layered DAG, its arrivals
    tied at t=0 and a deadline on every task; the others are random DAGs of
    2-30 tasks with data to move and nonzero arrivals, floored to whole
    seconds (so that they tie) on every other seed, and deadlines on none,
    some or all of the tasks."""
    rng = np.random.default_rng([seed, 30])
    if seed % 3 == 0:
        dag = layered_dag_workload(seed).dag
        tasks = dag.tasks
    else:
        dag = random_dag_workload(rng, max_nodes=30)[0].dag
        keep = rng.random() * 1.5  # each task's chance of a deadline; at 1 or more, all have one
        tasks = []
        for t in dag.tasks:
            arrival = float(math.floor(t.arrival_time)) if seed % 3 == 2 else t.arrival_time
            size = float(rng.choice([0.0, 100.0, 250.0]))
            deadline = arrival + float(rng.choice([1.0, 4.0, 12.0])) if rng.random() < keep else None
            tasks.append(dataclasses.replace(
                t, arrival_time=arrival, input_size=size, output_size=size, deadline=deadline
            ))
    vms = [
        VmSpec(
            id=int(vid),
            mips=float(rng.choice([500.0, 750.0, 1000.0, 2000.0])),
            bandwidth=float(rng.choice([100.0, 300.0, 1000.0])),
            instr_cost_rate=float(rng.choice([0.0, 0.005, 0.01])),
            bw_cost_rate=float(rng.choice([0.0, 0.01])),
        )
        for vid in rng.permutation(1 + seed % 4) * 10
    ]
    return WorkloadSet(vms, DagWorkflow(tasks, dag.edges))


def test_dag_proposals_are_walked_in_place():
    # A proposal writes its move into the plan, resumes the plan's walk from
    # a checkpoint and puts the old machine back; only accept keeps the
    # move, with its walk. Each score equals the evaluator's full score of
    # the moved plan bit for bit, on 60 instances: every root and sink is
    # moved, and every other instance accepts all of its 150 proposals in
    # one chain. A shift of m proposes the machine the task is on.
    kinds = set()
    for seed in range(60):
        wl = resumed_walk_workload(seed)
        ev = _Evaluator(wl, QosWeights())
        moves = schedulers._ResumedMoves(ev)
        n, m = len(ev.task_ids), len(ev.vm_ids)
        rng = np.random.default_rng(seed)
        roots = [pos for pos in range(n) if not ev._indeg[pos]]
        sinks = [pos for pos in range(n) if not ev._succ_pos[pos]]
        positions = roots + sinks + rng.integers(0, n, 150 - len(roots) - len(sinks)).tolist()
        takes = [True] * 150 if seed % 2 else (rng.random(150) < 0.3).tolist()
        plan = list(ev.eft_vec)
        assert moves.vec == plan
        for pos, shift, take in zip(positions, rng.integers(1, m + 1, 150).tolist(), takes):
            moved = plan.copy()
            moved[pos] = (plan[pos] + shift) % m
            assert moves.propose(pos, moved[pos]).hex() == ev.score(tuple(moved)).hex(), f"seed {seed}"
            assert moves.vec == plan
            if take:
                moves.accept()
                plan = moved
                assert moves.vec == plan
        arrivals = [t.arrival_time for t in wl.tasks]
        kinds.add((
            m,
            len(set(arrivals)) < len(arrivals),
            min(arrivals) > 0,
            sum(t.deadline is not None for t in wl.tasks) / len(arrivals),
        ))
    assert {k[0] for k in kinds} == {1, 2, 3, 4}
    assert {k[1] for k in kinds} == {True, False} and any(k[2] for k in kinds)
    assert {k[3] for k in kinds} > {0.0, 1.0}


def test_downhill_moves_always_accepted():
    rng = np.random.default_rng(0)
    assert all(sa_accept(-1.0, t, rng) for t in (1e-6, 0.5, 100.0))


def test_uphill_acceptance_matches_boltzmann_frequency():
    rng = np.random.default_rng(123)
    trials = 10_000
    accepted = sum(sa_accept(1.0, 1.0, u) for u in rng.random(trials).tolist())
    assert accepted / trials == pytest.approx(math.exp(-1.0), abs=0.03)


def test_level_moves_are_accepted_without_reading_the_uniform():
    # min(1, exp(-0/T)) = 1 accepts a tie at any temperature, a frozen one
    # included, so the rule must not compare it with the uniform, even one
    # just below 1.
    u = math.nextafter(1.0, 0.0)
    for temp in (0.0, 1e-300, 1e-6, 0.5, 100.0):
        assert sa_accept(0.0, temp, u) and sa_accept(-0.0, temp, u)


@pytest.mark.parametrize("name", ["initial_temp", "min_temp"])
def test_sa_params_reject_an_infinite_temperature(name):
    # Only the params are built: a search from an infinite temperature would
    # never cool below min_temp.
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite$"):
        dataclasses.replace(SaParams(), **{name: math.inf})


def test_sa_cooling_terminates_below_min_temp():
    _, history = sa_schedule(ORACLE_WL, params=FAST_SA, seed=1, with_history=True)
    temps = history["temps"]
    assert all(t > FAST_SA.min_temp for t in temps)
    assert temps[-1] * FAST_SA.cooling_rate <= FAST_SA.min_temp
    assert temps[0] == FAST_SA.initial_temp


def test_sa_best_score_history_is_nonincreasing():
    _, history = sa_schedule(ORACLE_WL, params=FAST_SA, seed=3, with_history=True)
    scores = history["best_scores"]
    assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))


def test_sa_is_deterministic_per_seed():
    a = sa_schedule(ORACLE_WL, params=FAST_SA, seed=9)
    b = sa_schedule(ORACLE_WL, params=FAST_SA, seed=9)
    assert a == b


def test_sa_never_beats_the_enumeration():
    ev = _Evaluator(ORACLE_WL, QosWeights())
    best = plan_score(ev, brute_force_schedule(ORACLE_WL))
    for seed in range(10):
        assert plan_score(ev, sa_schedule(ORACLE_WL, seed=seed)) >= best


@settings(max_examples=200, deadline=None)
@given(dag=dag_workloads(), data=st.data())
def test_annealing_moves_score_as_a_full_rescore(dag, data):
    # On the DAG's tasks without their edges, every proposal's raw metrics
    # and score must equal, bit for bit, those of re-scoring the whole
    # neighbor, whichever earlier proposals were accepted.
    wl = WorkloadSet.from_tasks(dag.vms, dag.tasks)
    ev = _Evaluator(wl, QosWeights())
    n, m = len(ev.task_ids), len(ev.vm_ids)
    raws = []
    blend = ev._blend

    def recording_blend(*raw):
        raws.append(RawQos(*raw))
        return blend(*raw)

    ev._blend = recording_blend
    moves = schedulers._QueueMoves(ev)
    steps = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, max(m - 1, 1)), st.booleans()),
        max_size=0 if m == 1 else 60,
    ))
    vec = list(ev.eft_vec)
    for pos, shift, take in steps:
        neighbor = vec.copy()
        neighbor[pos] = (vec[pos] + shift) % m
        raws.clear()
        score = moves.propose(pos, neighbor[pos])
        assert raws == [ev._raw_fast(tuple(neighbor))]
        assert score == ev.score(tuple(neighbor))
        if take:
            moves.accept()
            vec = neighbor
        assert moves.vec == vec


def full_rescore_sa(workload, params, seed, weights=QosWeights()):
    """The annealing loop with every neighbor re-scored in full through the
    evaluator, as sa_schedule ran before it scored moves from the previous
    state; kept as its oracle. Each temperature draws its positions, shifts
    and acceptance uniforms as one array each, and one machine draws
    nothing. Returns (assignment, history)."""
    rng = np.random.default_rng(seed)
    ev = _Evaluator(workload, weights)
    n, m = len(ev.task_ids), len(ev.vm_ids)
    current = ev.eft_vec
    current_score = ev.score(current)
    best, best_score = current, current_score
    temp = params.initial_temp
    history = {"best_scores": [], "temps": []}
    while temp > params.min_temp:
        if m > 1:
            positions = rng.integers(0, n, params.steps_per_temp)
            shifts = rng.integers(1, m, params.steps_per_temp)
            uniforms = rng.random(params.steps_per_temp)
        for step in range(params.steps_per_temp if m > 1 else 0):
            pos = int(positions[step])
            neighbor = list(current)
            neighbor[pos] = (neighbor[pos] + int(shifts[step])) % m
            neighbor = tuple(neighbor)
            neighbor_score = ev.score(neighbor)
            if sa_accept(neighbor_score - current_score, temp, float(uniforms[step])):
                current, current_score = neighbor, neighbor_score
                if current_score < best_score:
                    best, best_score = current, current_score
        history["best_scores"].append(best_score)
        history["temps"].append(temp)
        temp *= params.cooling_rate
    return ev.assignment_of(best), history


def annealing_workload(seed):
    """Random workload for the annealing oracle: every sixth seed a layered
    DAG, otherwise 1-60 independent tasks on 1-6 heterogeneous machines
    listed out of id order, with or without deadlines."""
    if seed % 6 == 0:
        return layered_dag_workload(seed)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    vms = [
        VmSpec(
            id=int(vid),
            mips=float(rng.choice([500.0, 750.0, 1000.0, 2000.0])),
            bandwidth=float(rng.choice([100.0, 1000.0])),
            instr_cost_rate=float(rng.choice([0.0, 0.005, 0.01])),
            bw_cost_rate=float(rng.choice([0.0, 0.01])),
        )
        for vid in rng.permutation(m) * 10
    ]
    params = TaskGenParams(
        mean_interarrival=float(rng.choice([0.0, 0.1, 0.5])),
        arrival_pattern=str(rng.choice(["even", "poisson"])),
        deadline_slack_range=None if rng.random() < 0.5 else (0.5, 20.0),
    )
    return WorkloadSet.from_tasks(vms, generate_tasks(int(rng.integers(1, 61)), seed, params))


def test_sa_equals_the_full_rescore_loop():
    # 48 annealing workloads, then 16 of the resumed walk's DAG instances.
    params = SaParams(initial_temp=0.02, cooling_rate=0.9, steps_per_temp=40, min_temp=0.0005)
    workloads = [(seed, annealing_workload(seed)) for seed in range(48)]
    workloads += [(seed, resumed_walk_workload(seed)) for seed in range(100, 116)]
    for seed, wl in workloads:
        got = sa_schedule(wl, params=params, seed=seed, with_history=True)
        assert got == full_rescore_sa(wl, params, seed), f"seed {seed}"


# ---------------------------------------------------------------------------
# GA-ACO hybrid
# ---------------------------------------------------------------------------

def test_gaaco_default_parameters_are_frozen():
    p = GaacoParams()
    assert (p.evolution_num, p.population, p.m) == (100, 10, 31)
    assert (p.pc, p.pm) == (0.35, 0.08)
    assert (p.alpha_max, p.beta_max, p.rho_max, p.q) == (1.0, 2.0, 0.10, 50.0)


def test_gaaco_single_choice_is_forced():
    wl = flat_workload([1000.0])
    assert gaaco_schedule(wl, params=FAST_GAACO, seed=0) == {0: 0}


def test_gaaco_is_deterministic_per_seed():
    a = gaaco_schedule(ORACLE_WL, params=FAST_GAACO, seed=4)
    b = gaaco_schedule(ORACLE_WL, params=FAST_GAACO, seed=4)
    assert a == b


def test_gaaco_generation_best_is_nonincreasing():
    _, history = gaaco_schedule(
        ORACLE_WL, params=FAST_GAACO, seed=6, with_history=True
    )
    scores = history["best_scores"]
    assert len(scores) == FAST_GAACO.evolution_num
    assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))


def reference_gaaco(workload, params, seed, weights=QosWeights()):
    """The GA-ACO hybrid with scalar loops and sequential reference ants,
    drawing as gaaco_schedule documents: each generation the tournament
    pairs, then (n > 1) the crossover uniforms and the cuts, then per child
    a mutation mask and its hit genes' machines; kept as its oracle. Each
    distinct plan is scored once, the first time it is seen, and the
    population carries the scores of the generation that kept it.
    Returns (assignment, history)."""
    rng = np.random.default_rng(seed)
    ev = _Evaluator(workload, weights)
    n, m = len(ev.task_ids), len(ev.vm_ids)
    size = params.population
    pop = [ev.eft_vec] + [tuple(int(v) for v in rng.integers(0, m, n)) for _ in range(size - 1)]
    tau = np.ones((n, m))
    known = {}
    for vec in pop:
        if vec not in known:
            known[vec] = ev.score(vec)
    scores = [known[vec] for vec in pop]
    best, best_score = pop[0], scores[0]
    for vec, score in zip(pop, scores):
        if score < best_score:
            best, best_score = vec, score
    history = {"best_scores": []}
    generations = params.evolution_num
    for g in range(generations):
        progress = g / (generations - 1) if generations > 1 else 1.0
        pm_g = params.pm * (1.0 - 0.75 * progress)
        alpha_g = params.alpha_max * (0.5 + 0.5 * progress)
        beta_g = params.beta_max * (0.5 + 0.5 * progress)
        rho_g = params.rho_max * (0.25 + 0.75 * progress)
        pairs = rng.integers(0, size, (size - 1, 2, 2))
        if n > 1:
            crossing = rng.random(size - 1)
            cuts = rng.integers(1, n, size - 1)
        offspring = [best]
        for c in range(size - 1):
            pa, pb = (pop[i] if scores[i] <= scores[j] else pop[j] for i, j in pairs[c])
            child = list(pa)
            if n > 1 and crossing[c] < params.pc:
                for pos in range(cuts[c], n):
                    child[pos] = pb[pos]
            mask = rng.random(n)
            hits = [pos for pos in range(n) if mask[pos] < pm_g]
            for pos, gene in zip(hits, rng.integers(0, m, len(hits))):
                child[pos] = int(gene)
            offspring.append(tuple(child))
        tau *= 1.0 - rho_g
        for pos in range(n):
            tau[pos, best[pos]] += params.q / (1.0 + max(0.0, best_score))
        np.clip(tau, schedulers._TAU_FLOOR, schedulers._TAU_CEIL, out=tau)
        tau_pow = np.float_power(tau, alpha_g)
        merged = offspring + [_reference_ant(ev, tau_pow, beta_g, rng) for _ in range(params.m)]
        for vec in merged:
            if vec not in known:
                known[vec] = ev.score(vec)
        merged_scores = [known[vec] for vec in merged]
        keep = sorted(range(len(merged)), key=lambda i: (merged_scores[i], i))[:size]
        pop = [merged[i] for i in keep]
        scores = [merged_scores[i] for i in keep]
        if scores[0] < best_score:
            best, best_score = pop[0], scores[0]
        history["best_scores"].append(best_score)
    return ev.assignment_of(best), history


def test_gaaco_equals_the_scalar_reference(monkeypatch):
    # Seeds 229, 283 and 341 have one task, on 4, 1 and 6 machines; seeds
    # 11, 14 and 23 in range(24) have one machine, and every sixth is a DAG.
    # Both sides score every candidate in the same order, so the recorded
    # candidates pin each child, not only the best of the run.
    scored = []
    score = _Evaluator.score

    def recording_score(ev, vec):
        scored.append(vec)
        return score(ev, vec)

    monkeypatch.setattr(_Evaluator, "score", recording_score)
    shapes = set()
    for seed in [*range(24), 229, 283, 341]:
        wl = annealing_workload(seed)
        shapes.add((len(wl.tasks), len(wl.vms)))
        got = gaaco_schedule(wl, params=FAST_GAACO, seed=seed, with_history=True), scored.copy()
        scored.clear()
        assert got == (reference_gaaco(wl, FAST_GAACO, seed), scored), f"seed {seed}"
        scored.clear()
    assert (1, 1) in shapes and (1, 6) in shapes and (52, 1) in shapes


def test_gaaco_finds_the_optimum_often_and_never_beats_it():
    wl = WorkloadSet.from_tasks(
        [
            VmSpec(id=0, mips=2000.0, instr_cost_rate=0.02),
            VmSpec(id=1, mips=1000.0, instr_cost_rate=0.01),
            VmSpec(id=2, mips=500.0, instr_cost_rate=0.005),
        ],
        [
            Task(id=0, length=1800.0, input_size=90.0, output_size=30.0, arrival_time=0.0),
            Task(id=1, length=2600.0, input_size=60.0, output_size=80.0, arrival_time=0.3),
            Task(id=2, length=700.0, input_size=30.0, output_size=10.0, arrival_time=0.8),
            Task(id=3, length=3100.0, input_size=150.0, output_size=90.0, arrival_time=1.1),
            Task(id=4, length=1200.0, input_size=50.0, output_size=50.0, arrival_time=1.7),
        ],
    )
    ev = _Evaluator(wl, QosWeights())
    best = plan_score(ev, brute_force_schedule(wl))  # 3^5 = 243 assignments
    scores = [plan_score(ev, gaaco_schedule(wl, seed=seed)) for seed in range(20)]
    assert min(scores) >= best
    assert scores.count(best) >= 16  # 80% of 20 seeds


def test_searches_beat_eft_on_contested_cells():
    # On identical machines at one price, EFT is hard to beat and the
    # searches hand it back; on five speed/price tiers with deadlines, each
    # must find a strictly better plan, judged by the score both searches
    # minimize: the instance's, which no seed moves.
    for seed in (1, 2, 3):
        wl = contested_workload(20, seed)
        ev = _Evaluator(wl, QosWeights())
        eft = ev.score(ev.eft_vec)
        for search in (sa_schedule, gaaco_schedule):
            assert plan_score(ev, search(wl, seed=seed)) < eft, f"{search.__name__}, seed {seed}"


def ids_reversed(wl):
    """wl with task ids mirrored, so every edge runs from a higher id to a
    lower one: the construction order is no longer (arrival, id) order."""
    top = max(t.id for t in wl.tasks)
    tasks = [dataclasses.replace(t, id=top - t.id) for t in wl.tasks]
    return WorkloadSet(wl.vms, DagWorkflow(tasks, [(top - a, top - b) for a, b in wl.dag.edges]))


@pytest.mark.parametrize("wl", [
    contested_workload(20, 1),
    contested_workload(50, 4),
    layered_dag_workload(5),
    ids_reversed(layered_dag_workload(5)),
], ids=["contested-20-1", "contested-50-4", "layered-dag", "layered-dag-ids-reversed"])
def test_evaluator_bounds_and_scores_come_from_the_instance(wl):
    # Money runs from every task's cheapest charge to its dearest and time
    # from every task's fastest service to the worst plan that puts all
    # tasks on one machine, each a mean added in (arrival, id) order; a
    # plan scores by the simulated metrics against them, bit for bit.
    weights = QosWeights(time=0.4, cost=0.35, reliability=0.25)
    ev = _Evaluator(wl, weights)
    deadlines = {t.id: t.deadline for t in wl.tasks}
    fastest = cheapest = dearest = 0.0
    for t in sorted(wl.tasks, key=lambda t: (t.arrival_time, t.id)):
        times = [_service_times(t, spec) for spec in wl.vms]
        charges = [ex * spec.instr_cost_rate + tr * spec.bw_cost_rate for spec, (tr, ex) in zip(wl.vms, times)]
        fastest += min(tr + ex for tr, ex in times)
        cheapest += min(charges)
        dearest += max(charges)
    n = len(wl.tasks)

    def simulated(assignment):
        return raw_qos(run_simulation(wl, assignment), wl.vms, deadlines)

    t_lo, c_lo = fastest / n, cheapest / n
    t_hi = max(simulated({t.id: spec.id for t in wl.tasks}).time_cost for spec in wl.vms)
    assert (ev._t_lo, ev._t_span) == (t_lo, t_hi - t_lo)
    assert (ev._c_lo, ev._c_span) == (c_lo, dearest / n - c_lo)
    rng = np.random.default_rng(7)
    plans = [ev.eft_vec, *((j,) * n for j in range(len(wl.vms)))]
    plans += [tuple(rng.integers(0, len(wl.vms), n).tolist()) for _ in range(5)]
    for vec in plans:
        raw = simulated(ev.assignment_of(vec))
        expected = (
            weights.time * ((raw.time_cost - t_lo) / (t_hi - t_lo))
            + weights.cost * ((raw.money_cost - c_lo) / (dearest / n - c_lo))
            + weights.reliability * (1.0 - raw.reliability)
        )
        assert ev.score(vec) == expected


@pytest.mark.parametrize("wl", [ORACLE_WL, layered_dag_workload(5)], ids=["independent", "dag"])
def test_an_evaluator_is_freed_when_its_search_drops_it(wl):
    # An evaluator holds an instance's tables, about n * m floats each. A
    # reference cycle through it would keep them alive after the search
    # returns, until the cycle collector runs, and raise the peak memory of
    # a sweep.
    ev = _Evaluator(wl, QosWeights())
    ev.score(ev.eft_vec)
    freed = weakref.ref(ev)
    gc.disable()
    try:
        del ev
        assert freed() is None
    finally:
        gc.enable()


def test_a_plan_scores_the_same_in_every_search_and_seed(monkeypatch):
    # A plan's score depends on the instance and the weights alone: every
    # plan any search scores, under any seed, scores as a fresh evaluator
    # scores it.
    wl = contested_workload(20, 2)
    fresh = _Evaluator(wl, QosWeights())
    scored = []
    score = _Evaluator.score

    def recording_score(ev, vec):
        s = score(ev, vec)
        scored.append((vec, s))
        return s

    monkeypatch.setattr(_Evaluator, "score", recording_score)
    for seed in (0, 1, 2):
        aco_schedule(wl, params=FAST_ACO, seed=seed)
        sa_schedule(wl, params=FAST_SA, seed=seed)
        gaaco_schedule(wl, params=FAST_GAACO, seed=seed)
    monkeypatch.undo()
    assert len({vec for vec, _ in scored}) > 1000
    assert all(s == fresh.score(vec) for vec, s in scored)


@pytest.mark.parametrize("wl", [contested_workload(20, 2), layered_dag_workload(5)], ids=["independent", "dag"])
def test_each_search_scores_a_plan_once_on_a_stateless_evaluator(monkeypatch, wl):
    # Scoring leaves the evaluator as it was; aco scores each ant once, and
    # gaaco, the one search that remembers plans, never scores a plan twice.
    ev = _Evaluator(wl, QosWeights())
    before = pickle.dumps(vars(ev))
    rng = np.random.default_rng(11)
    for _ in range(100):
        ev.score(tuple(rng.integers(0, len(ev.vm_ids), len(ev.task_ids)).tolist()))
    assert pickle.dumps(vars(ev)) == before
    scored = []
    score = _Evaluator.score

    def recording_score(ev, vec):
        scored.append(tuple(vec))
        return score(ev, vec)

    monkeypatch.setattr(_Evaluator, "score", recording_score)
    aco_schedule(wl, params=FAST_ACO, seed=4)
    assert len(scored) == FAST_ACO.ants * FAST_ACO.iterations
    scored.clear()
    gaaco_schedule(wl, params=FAST_GAACO, seed=4)
    assert len(scored) == len(set(scored)) > FAST_GAACO.population


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

def test_brute_force_returns_the_first_minimizer_of_the_search_score():
    # The oracle must return the first plan, in lexicographic vector order,
    # of those whose simulated metrics score lowest against the instance's
    # bounds.
    tiers = [VmSpec(id=j, mips=500.0 + 250.0 * j, instr_cost_rate=0.004 * (1 + j)) for j in range(4)]
    params = TaskGenParams(arrival_pattern="poisson", deadline_slack_range=(4.0, 12.0))
    instances = [
        (WorkloadSet.from_tasks(tiers[:m], generate_tasks(n, seed, params)), weights)
        for (n, m, seed), weights in zip(
            [(5, 4, 1), (4, 4, 2), (5, 3, 3), (6, 2, 4), (3, 4, 5), (4, 3, 6)],
            itertools.cycle([QosWeights(), QosWeights(time=0.4, cost=0.35, reliability=0.25)]),
        )
    ]
    rng = np.random.default_rng(17)
    instances += [(random_dag_workload(rng, max_nodes=6)[0], QosWeights()) for _ in range(8)]
    # Tasks that never queue, on identical machines: every plan ties.
    tie = WorkloadSet.from_tasks([vm(0), vm(1)], [task(i, arrival=10.0 * i) for i in range(3)])
    instances.append((tie, QosWeights()))
    for wl, weights in instances:
        ev = _Evaluator(wl, weights)
        n, m = len(wl.tasks), len(wl.vms)
        vecs = list(itertools.product(range(m), repeat=n))
        scores = []
        for vec in vecs:
            r = simulated_raw(wl, ev.assignment_of(vec))
            scores.append(ev._blend(r.time_cost, r.money_cost, r.reliability))
        assert brute_force_schedule(wl, weights=weights) == ev.assignment_of(vecs[scores.index(min(scores))])
    assert min(scores) == max(scores)
    assert brute_force_schedule(tie) == {0: 0, 1: 0, 2: 0}


def test_brute_force_respects_the_enumeration_limit():
    wl = flat_workload([1000.0] * 4, n_vms=3)
    with pytest.raises(InstanceTooLargeError):
        brute_force_schedule(wl, limit=80)  # 3^4 = 81


# ---------------------------------------------------------------------------
# Shared behavior
# ---------------------------------------------------------------------------

def test_schedulers_leave_the_workload_unmodified():
    before_tasks = list(ORACLE_WL.tasks)
    before_vms = list(ORACLE_WL.vms)
    aco_schedule(ORACLE_WL, params=FAST_ACO, seed=0)
    sa_schedule(ORACLE_WL, params=FAST_SA, seed=0)
    gaaco_schedule(ORACLE_WL, params=FAST_GAACO, seed=0)
    eft_schedule(ORACLE_WL)
    assert ORACLE_WL.tasks == before_tasks
    assert ORACLE_WL.vms == before_vms


def test_empty_instance_rejected():
    wl = WorkloadSet.from_tasks([vm(0)], [])
    with pytest.raises(ConfigurationError):
        eft_schedule(wl)
    with pytest.raises(ConfigurationError):
        aco_schedule(wl, params=FAST_ACO)

"""Small builders shared across test modules, and the per-step reward
oracle: the snapshot of every machine and the four penalty terms that the
online stepper's rewards were once computed from."""

import math
from collections import defaultdict, namedtuple
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from cloudsched.rewards import overuse_penalty, wait_penalty
from cloudsched.workload import (
    RESOURCES,
    DagWorkflow,
    Task,
    TaskGenParams,
    UsageProfile,
    VmSpec,
    WorkloadSet,
    generate_tasks,
)


def vm(vid, mips=1000.0, **kw):
    return VmSpec(id=vid, mips=mips, **kw)


def task(tid, length=1000.0, arrival=0.0, **kw):
    return Task(id=tid, length=length, arrival_time=arrival, **kw)


def flat_workload(lengths, n_vms=1, mips=1000.0):
    """Independent tasks, all arriving at t=0, on identical machines."""
    tasks = [task(i, length=ln) for i, ln in enumerate(lengths)]
    vms = [vm(j, mips=mips) for j in range(n_vms)]
    return WorkloadSet.from_tasks(vms, tasks)


def random_instance(rng):
    """Small heterogeneous instance for oracle comparisons: 2-5 tasks, 2-3 vms."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 4))
    vms = [
        VmSpec(
            id=j,
            mips=float(rng.choice([500.0, 1000.0, 2000.0])),
            instr_cost_rate=float(rng.choice([0.005, 0.01, 0.02])),
            bw_cost_rate=float(rng.choice([0.005, 0.01])),
        )
        for j in range(m)
    ]
    arrivals = np.sort(rng.uniform(0.0, 2.0, n))
    tasks = [
        Task(
            id=i,
            length=float(rng.uniform(500.0, 5000.0)),
            input_size=float(rng.uniform(10.0, 300.0)),
            output_size=float(rng.uniform(10.0, 300.0)),
            arrival_time=float(arrivals[i]),
        )
        for i in range(n)
    ]
    return WorkloadSet.from_tasks(vms, tasks)


def contested_workload(n, seed):
    """n tasks on a fleet where the searches can beat EFT: 10 machines in
    five speed/price tiers (500-1500 MIPS, instr_cost_rate 0.004-0.02, the
    faster the dearer), Poisson arrivals and deadlines 4-12 s after arrival."""
    vms = [
        VmSpec(id=j, mips=500.0 + 250.0 * (j // 2), instr_cost_rate=0.004 * (1 + j // 2))
        for j in range(10)
    ]
    params = TaskGenParams(arrival_pattern="poisson", deadline_slack_range=(4.0, 12.0))
    return WorkloadSet.from_tasks(vms, generate_tasks(n, seed, params))


def plan_score(ev, assignment):
    """ev's score of an assignment given as task id -> machine id."""
    return ev.score(tuple(ev.vm_ids.index(assignment[t]) for t in ev.task_ids))


def random_dag_workload(rng, max_nodes=10):
    """Random DAG over identical machines. Edges only go id-forward, so the
    graph is acyclic by construction."""
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, 4))
    tasks = [
        Task(
            id=i,
            length=float(rng.uniform(200.0, 3000.0)),
            arrival_time=float(rng.uniform(0.0, 3.0)),
        )
        for i in range(n)
    ]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                edges.append((i, j))
    vms = [vm(j) for j in range(m)]
    wl = WorkloadSet(vms, DagWorkflow(tasks, edges))
    assignment = {i: int(rng.integers(0, m)) for i in range(n)}
    return wl, assignment


def assert_trace_invariants(trace, workload):
    """Check what every complete SimTrace must hold, whichever driver made it:
    each task appears once, start >= ready_time >= arrival, no two tasks
    overlap on a machine, each machine serves its tasks in join order, and
    sample-path Little's law holds: the area under queue_series equals the
    summed waits start - ready_time, to 1e-12 relative.

    Join times come from the residency rows; on one machine a row is matched
    to its task by completion time, which no two of its tasks share. The
    queue holds each sample's count until the next sample.
    """
    arrivals = {t.id: t.arrival_time for t in workload.tasks}
    assert sorted(trace.records) == sorted(arrivals)
    assert len(trace.residency) == len(arrivals)
    served = defaultdict(list)
    for tid, r in trace.records.items():
        assert r.task_id == tid and r.arrival == arrivals[tid]
        assert r.start >= r.ready_time >= r.arrival
        served[r.machine_id].append(r)
    joined = defaultdict(list)
    for m, _, join, completion in trace.residency:
        joined[m].append((completion, join))
    assert set(joined) == set(served)
    for m, recs in served.items():
        recs.sort(key=lambda r: r.start)
        for a, b in zip(recs, recs[1:]):
            assert b.start >= a.completion, f"tasks {a.task_id} and {b.task_id} overlap"
        rows = sorted(joined[m])
        assert [c for c, _ in rows] == [r.completion for r in recs]
        joins = [j for _, j in rows]
        assert joins == sorted(joins), f"machine {m} does not serve in join order"
        assert all(r.ready_time <= j <= r.start for r, j in zip(recs, joins))
    series = trace.queue_series
    area = sum(q * (t1 - t0) for (t0, q), (t1, _) in zip(series, series[1:]))
    waits = sum(r.start - r.ready_time for r in trace.records.values())
    assert abs(area - waits) <= 1e-12 * waits, f"queue area {area} != summed waits {waits}"


def profiled_workload(rng, max_nodes=14):
    """Random DAG on 1-4 heterogeneous machines whose users carry usage
    profiles; every profile of one resource shares a length, as WorkloadSet
    requires, and lengths differ across resources."""
    n = int(rng.integers(2, max_nodes + 1))
    n_users = int(rng.integers(1, 7))
    tasks = [
        Task(
            id=i,
            user_id=int(rng.integers(n_users)),
            # Some tasks short enough that several share one slot.
            length=float(rng.choice([rng.uniform(10.0, 300.0), rng.uniform(200.0, 3000.0)])),
            input_size=float(rng.choice([0.0, rng.uniform(0.0, 50.0)])),
            arrival_time=float(rng.choice([rng.integers(0, 4), rng.uniform(0.0, 3.0)])),
        )
        for i in range(n)
    ]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
    mips = (500.0, 1000.0, 1700.0)
    vms = [vm(j, mips=float(rng.choice(mips))) for j in range(int(rng.integers(1, 5)))]
    lengths = {d: int(rng.integers(1, 9)) for d in RESOURCES}
    profiles = []
    for u in sorted({t.user_id for t in tasks}):
        for d in RESOURCES:
            if rng.random() < 0.8:
                profiles.append(UsageProfile(u, d, rng.uniform(0.0, 0.8, lengths[d])))
    return WorkloadSet(vms, DagWorkflow(tasks, edges), profiles)


# ---------------------------------------------------------------------------
# Reward oracle: each machine's snapshot, rebuilt from the profiles at every
# step, and the four terms summed over the snapshots
# ---------------------------------------------------------------------------

# What the reward reads of one machine at one instant: used maps each
# resource to the summed resident demand at the clock's slot, and
# resident_profiles to the resident users' series.
Snapshot = namedtuple("Snapshot", "machine_id in_use used resident_profiles")
StepInputs = namedtuple("StepInputs", "clock queue_len machines new_overuse")


class Breakdown(NamedTuple):
    competition: float
    utilization: float
    overuse: float
    wait: float

    @property
    def total(self) -> float:
        return self.competition + self.utilization + self.overuse + self.wait


def old_resident_users(state, machine):
    users = set()
    if machine.running is not None:
        users.add(state.tasks[machine.running].user_id)
    for tid, _ in machine.queue:
        users.add(state.tasks[tid].user_id)
    return sorted(users)


def old_snapshot(state, new_overuse):
    pmap = state.workload.profile_map()
    slot = int(math.floor(state.clock))
    snaps = []
    for machine in state.machines:
        users = old_resident_users(state, machine)
        used, resident = {}, {}
        for d in RESOURCES:
            profs = [pmap[(u, d)] for u in users if (u, d) in pmap]
            resident[d] = tuple(p.series for p in profs)
            used[d] = float(sum(p.demand_at(slot) for p in profs))
        snaps.append(Snapshot(machine.spec.id, machine.in_use, used, resident))
    return StepInputs(state.clock, state.waiting_count(), tuple(snaps), tuple(new_overuse))


def old_competition_penalty(machine_profiles, config):
    total = 0.0
    for entry in machine_profiles:
        for d in config.resources:
            series = [np.asarray(s, dtype=float) for s in entry.get(d, ())]
            if len(series) < 2:
                continue
            stacked = np.stack(series)
            agg = stacked.sum(axis=0)
            pair_sum = (float(agg @ agg) - float((stacked * stacked).sum())) / 2.0
            total += config.k_c * pair_sum
    return -total


def old_utilization_penalty(machines, config):
    """Slack |1 - used|^k_u on in-use machines; idle ones are free."""
    if config.k_u == 0:
        return 0.0
    total = 0.0
    for snap in machines:
        if not snap.in_use:
            continue
        for d in config.resources:
            total += abs(1.0 - snap.used.get(d, 0.0)) ** config.k_u
    return -total


def old_breakdown(inputs, config):
    return Breakdown(
        competition=old_competition_penalty([m.resident_profiles for m in inputs.machines], config),
        utilization=old_utilization_penalty(inputs.machines, config),
        overuse=overuse_penalty(inputs.new_overuse, config),
        wait=wait_penalty(inputs.queue_len, config),
    )


TERMS = {"competition": "k_c", "utilization": "k_u", "overuse": "k_o", "wait": "k_w"}


def only(term, config):
    """config with the coefficients of the other three terms set to 0, so
    that rewards.total_reward charges this term alone (k_u = 0 disables
    utilization)."""
    return replace(config, **{k: 0.0 for t, k in TERMS.items() if t != term})


def old_reward(state, new_overuse, config):
    """The oracle's reward of the step that left the state as it is."""
    return old_breakdown(old_snapshot(state, new_overuse), config).total

"""Small builders shared across test modules."""

from collections import defaultdict

import numpy as np

from cloudsched.workload import Task, TaskGenParams, VmSpec, WorkloadSet, generate_tasks


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
    from cloudsched.workload import DagWorkflow

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

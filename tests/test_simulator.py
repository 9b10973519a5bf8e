"""Event simulation, precedence handling, online stepping and trace output."""

import csv

import numpy as np
import pytest

from cloudsched.errors import DagValidationError, SimulationError
from cloudsched.simulator import (
    TASK_CSV_COLUMNS,
    USAGE_CSV_COLUMNS,
    init_state,
    machine_usage_series,
    replay_assignment,
    run_simulation,
    scan_overuse,
    step,
    write_task_csv,
    write_usage_csv,
)
from cloudsched.workload import DagWorkflow, Task, UsageProfile, WorkloadSet

from helpers import flat_workload, random_dag_workload, task, vm


def test_empty_workload_yields_empty_trace():
    wl = WorkloadSet.from_tasks([vm(0)], [])
    trace = run_simulation(wl, {})
    assert trace.makespan == 0.0
    assert trace.records == {}


def test_single_task_timing():
    wl = flat_workload([1000.0])
    trace = run_simulation(wl, {0: 0})
    r = trace.records[0]
    assert r.start == 0.0
    assert r.completion == 1.0
    assert r.wait == 0.0
    assert r.exec_time == 1.0
    assert r.transfer_time == 0.0


def test_transfer_time_precedes_execution():
    t = task(0, length=1000.0, input_size=500.0, output_size=500.0)
    wl = WorkloadSet.from_tasks([vm(0, bandwidth=1000.0)], [t])
    trace = run_simulation(wl, {0: 0})
    r = trace.records[0]
    assert r.transfer_time == 1.0
    assert r.completion == 2.0


def test_chain_on_one_machine_serializes():
    tasks = [task(0), task(1)]
    wl = WorkloadSet([vm(0)], DagWorkflow(tasks, [(0, 1)]))
    trace = run_simulation(wl, {0: 0, 1: 0})
    assert trace.records[1].start == trace.records[0].completion == 1.0
    assert trace.records[1].completion == 2.0


def test_chain_serializes_across_machines_too():
    # Successor still cannot start before the predecessor finishes even on a
    # different, idle machine.
    tasks = [task(0), task(1)]
    wl = WorkloadSet([vm(0), vm(1)], DagWorkflow(tasks, [(0, 1)]))
    trace = run_simulation(wl, {0: 0, 1: 1})
    assert trace.records[1].start == trace.records[0].completion


def test_fifo_queueing_and_wait_accounting():
    wl = flat_workload([1000.0, 2000.0])
    trace = run_simulation(wl, {0: 0, 1: 0})
    first, second = trace.records[0], trace.records[1]
    assert first.start == 0.0 and first.completion == 1.0
    assert second.start == 1.0 and second.wait == 1.0
    assert second.completion == 3.0
    assert trace.machine_busy[0] == 3.0
    assert trace.makespan == 3.0


# ---------------------------------------------------------------------------
# Ready times: max(arrival, latest predecessor completion)
# ---------------------------------------------------------------------------

def test_earliest_start_without_predecessors_is_arrival():
    wl = WorkloadSet.from_tasks([vm(0)], [task(0, arrival=3.0)])
    assert run_simulation(wl, {0: 0}).records[0].ready_time == 3.0


def test_earliest_start_takes_the_latest_predecessor():
    tasks = [task(1, length=2000.0), task(2, length=5000.0), task(3)]
    wl = WorkloadSet([vm(0), vm(1), vm(2)], DagWorkflow(tasks, [(1, 3), (2, 3)]))
    assert run_simulation(wl, {1: 0, 2: 1, 3: 2}).records[3].ready_time == 5.0


def test_earliest_start_arrival_can_dominate():
    tasks = [task(1), task(2, arrival=4.0)]
    wl = WorkloadSet([vm(0), vm(1)], DagWorkflow(tasks, [(1, 2)]))
    assert run_simulation(wl, {1: 0, 2: 1}).records[2].ready_time == 4.0


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def test_missing_assignment_entries_rejected():
    wl = flat_workload([1000.0, 1000.0])
    with pytest.raises(SimulationError):
        run_simulation(wl, {0: 0})


def test_unknown_machine_rejected():
    wl = flat_workload([1000.0])
    with pytest.raises(SimulationError):
        run_simulation(wl, {0: 9})


def test_cyclic_dag_rejected():
    tasks = [task(0), task(1)]
    wl = WorkloadSet([vm(0)], DagWorkflow(tasks, [(0, 1), (1, 0)]))
    with pytest.raises(DagValidationError):
        run_simulation(wl, {0: 0, 1: 0})


# ---------------------------------------------------------------------------
# Step/run equivalence and invariants
# ---------------------------------------------------------------------------

def test_replay_matches_run_on_random_fixtures():
    rng = np.random.default_rng(100)
    for _ in range(100):
        wl, raw_assign = random_dag_workload(rng, max_nodes=8)
        assignment = {t: wl.vms[j].id for t, j in raw_assign.items()}
        a = run_simulation(wl, assignment)
        b = replay_assignment(wl, assignment)
        assert a.records == b.records
        assert a.machine_busy == b.machine_busy


def test_precedence_holds_on_random_dags():
    rng = np.random.default_rng(200)
    for _ in range(60):
        wl, raw_assign = random_dag_workload(rng)
        assignment = {t: wl.vms[j].id for t, j in raw_assign.items()}
        trace = run_simulation(wl, assignment)
        for a, b in wl.dag.edges:
            assert trace.records[b].start >= trace.records[a].completion - 1e-9


def test_busy_time_accounting():
    rng = np.random.default_rng(300)
    for _ in range(20):
        wl, raw_assign = random_dag_workload(rng)
        assignment = {t: wl.vms[j].id for t, j in raw_assign.items()}
        trace = run_simulation(wl, assignment)
        per_machine = {v.id: 0.0 for v in wl.vms}
        for r in trace.records.values():
            per_machine[r.machine_id] += r.transfer_time + r.exec_time
        for m, total in per_machine.items():
            assert trace.machine_busy[m] == pytest.approx(total)
            assert trace.machine_busy[m] <= trace.makespan + 1e-9


def test_queue_series_is_time_ordered_and_drains():
    wl = flat_workload([1000.0] * 4, n_vms=2)
    trace = run_simulation(wl, {0: 0, 1: 0, 2: 1, 3: 1})
    times = [t for t, _ in trace.queue_series]
    assert times == sorted(times)
    assert trace.queue_series[-1][1] == 0


def test_step_dispatch_and_noop():
    wl = flat_workload([1000.0, 1000.0])
    state = init_state(wl)
    assert state.ready == [0, 1]
    state, _ = step(state, (0, 0))
    # Dispatch does not advance the clock.
    assert state.clock == 0.0
    with pytest.raises(SimulationError):
        step(state, (0, 0))  # task 0 is no longer ready
    with pytest.raises(SimulationError):
        step(state, (1, 42))  # no such machine
    state, _ = step(state, (1, 0))
    while not state.done:
        state, _ = step(state, None)
    assert state.records[1].wait == 1.0


def test_noop_advances_one_slot_when_idle():
    wl = WorkloadSet.from_tasks([vm(0)], [task(0, arrival=2.5)])
    state = init_state(wl)
    state, _ = step(state, None)
    assert state.clock == 2.5
    assert state.ready == [0]


# ---------------------------------------------------------------------------
# Overuse scanning
# ---------------------------------------------------------------------------

def _contended_workload():
    profiles = [
        UsageProfile(0, "cpu", np.array([0.8] * 4)),
        UsageProfile(1, "cpu", np.array([0.8] * 4)),
    ]
    tasks = [task(0, user_id=0), task(1, user_id=1)]
    return WorkloadSet.from_tasks([vm(0)], tasks, profiles)


def test_overuse_fires_once_per_machine_resource_pair():
    wl = _contended_workload()
    trace = run_simulation(wl, {0: 0, 1: 0})
    cpu_events = [e for e in trace.overuse_events if e.resource == "cpu"]
    # Both users are co-resident from t=0; their joint demand 1.6 overshoots
    # capacity immediately and the pair must fire exactly once.
    assert len(cpu_events) == 1
    assert cpu_events[0].machine_id == 0
    assert cpu_events[0].time == 0.0


def test_no_overuse_without_profiles():
    wl = flat_workload([1000.0, 1000.0])
    trace = run_simulation(wl, {0: 0, 1: 0})
    assert scan_overuse(trace, wl) == []


def test_solo_residency_does_not_overshoot():
    profiles = [UsageProfile(0, "cpu", np.array([0.8] * 4))]
    wl = WorkloadSet.from_tasks([vm(0)], [task(0, user_id=0)], profiles)
    trace = run_simulation(wl, {0: 0})
    assert trace.overuse_events == []


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def test_task_csv_schema(tmp_path):
    wl = flat_workload([1000.0, 2000.0])
    trace = run_simulation(wl, {0: 0, 1: 0})
    path = tmp_path / "tasks.csv"
    write_task_csv(trace, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TASK_CSV_COLUMNS
    assert len(rows) == 1 + len(trace.records)


def test_usage_csv_schema(tmp_path):
    wl = _contended_workload()
    trace = run_simulation(wl, {0: 0, 1: 0})
    path = tmp_path / "usage.csv"
    write_usage_csv(trace, wl, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == USAGE_CSV_COLUMNS
    assert len(rows) > 1


def test_usage_series_covers_the_horizon():
    wl = flat_workload([1000.0, 2000.0], n_vms=2)
    trace = run_simulation(wl, {0: 0, 1: 1})
    series = machine_usage_series(trace, wl)
    horizon = int(np.ceil(trace.makespan))
    assert set(series) == {0, 1}
    for per_machine in series.values():
        assert len(per_machine["busy"]) == horizon

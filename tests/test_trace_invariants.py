"""Trace invariants on both simulator drivers, checked by one helper."""

import numpy as np
import pytest

from cloudsched.simulator import init_state, replay_assignment, run_simulation, step

from helpers import assert_trace_invariants, flat_workload, random_dag_workload


def test_static_drivers_keep_trace_invariants():
    rng = np.random.default_rng(500)
    for _ in range(100):
        wl, assignment = random_dag_workload(rng)
        assert_trace_invariants(run_simulation(wl, assignment), wl)
        assert_trace_invariants(replay_assignment(wl, assignment), wl)


def test_online_dispatch_keeps_trace_invariants():
    # Ready tasks wait for a random number of no-ops and are then dispatched
    # in random order to random machines, so tasks join after they become
    # ready and machines see them in an order other than their ids.
    rng = np.random.default_rng(501)
    for _ in range(60):
        wl, _ = random_dag_workload(rng)
        state = init_state(wl)
        while not state.done:
            if state.ready and rng.random() < 0.5:
                tid = state.ready[int(rng.integers(len(state.ready)))]
                vm_id = wl.vms[int(rng.integers(len(wl.vms)))].id
                step(state, (tid, vm_id))
            else:
                step(state, None)
        assert_trace_invariants(state.trace(), wl)


def test_hand_dispatched_episode_serves_in_join_order():
    wl = flat_workload([1000.0, 1000.0, 1000.0])
    state = init_state(wl)
    step(state, (2, 0))
    step(state, None)  # task 2 completes at t=1
    step(state, (1, 0))
    step(state, (0, 0))
    while not state.done:
        step(state, None)
    trace = state.trace()
    assert_trace_invariants(trace, wl)
    assert [trace.records[t].start for t in (2, 1, 0)] == [0.0, 1.0, 2.0]
    assert [row[2] for row in trace.residency] == [0.0, 1.0, 1.0]


def test_littles_law_fails_a_queue_sample_taken_before_an_instant_settles():
    # Three tasks arrive at t=0 on one machine, so the settled queue reads
    # 2, 1, 0, 0 at t = 0, 1, 3, 6 and tasks 1 and 2 wait 1 s and 3 s.
    # Sampling each instant before its events land reads the previous
    # instant's count: 0, 2, 1, 0.
    wl = flat_workload([1000.0, 2000.0, 3000.0])
    trace = run_simulation(wl, {0: 0, 1: 0, 2: 0})
    assert trace.queue_series == [(0.0, 2), (1.0, 1), (3.0, 0), (6.0, 0)]
    assert_trace_invariants(trace, wl)
    counts = [0] + [q for _, q in trace.queue_series[:-1]]
    trace.queue_series = [(t, q) for (t, _), q in zip(trace.queue_series, counts)]
    with pytest.raises(AssertionError, match="queue area 7.0 != summed waits 4.0"):
        assert_trace_invariants(trace, wl)

"""Trace metrics: flow time, money, reliability, load rate and blended QoS."""

from dataclasses import replace

import numpy as np
import pytest

from cloudsched.errors import ConfigurationError
from cloudsched.metrics import (
    QosWeights,
    RawQos,
    load_rate,
    machine_usage_totals,
    money_cost,
    multi_qos,
    qos_scores,
    raw_qos,
    reliability,
    time_cost,
)
from cloudsched.simulator import run_simulation
from cloudsched.workload import WorkloadSet

from helpers import flat_workload, task, vm


def simulate(lengths, n_vms=1, assignment=None, mips=1000.0):
    wl = flat_workload(lengths, n_vms=n_vms, mips=mips)
    assignment = assignment or {i: 0 for i in range(len(lengths))}
    return run_simulation(wl, assignment), wl


# ---------------------------------------------------------------------------
# time_cost
# ---------------------------------------------------------------------------

def test_single_task_flow_time():
    trace, _ = simulate([2000.0])
    assert time_cost(trace) == 2.0


def test_flow_time_is_the_mean():
    # Two tasks on one machine: flows 1.0 and 3.0, mean 2.0.
    trace, _ = simulate([1000.0, 2000.0])
    assert time_cost(trace) == 2.0


def test_zero_wait_flow_equals_service_time():
    trace, wl = simulate([1000.0, 2000.0], n_vms=2, assignment={0: 0, 1: 1})
    expected = np.mean(
        [r.exec_time + r.transfer_time for r in trace.records.values()]
    )
    assert time_cost(trace) == pytest.approx(float(expected))


def test_time_cost_of_empty_trace_rejected():
    trace, _ = simulate([1000.0])
    trace.records.clear()
    with pytest.raises(ValueError):
        time_cost(trace)


# ---------------------------------------------------------------------------
# money_cost
# ---------------------------------------------------------------------------

def test_money_charged_per_execution_second():
    # 100 s of execution at 0.01 per second, no transfer: 1.00 per task.
    trace, wl = simulate([100000.0])
    assert money_cost(trace, wl.vms) == pytest.approx(1.00)


def test_money_cost_of_empty_trace_is_zero():
    trace, wl = simulate([1000.0])
    trace.records.clear()
    assert money_cost(trace, wl.vms) == 0.0


def test_money_cost_scales_linearly_with_rates():
    tasks = [task(0, length=1000.0, input_size=200.0)]
    cheap = WorkloadSet.from_tasks([vm(0)], tasks)
    dear = WorkloadSet.from_tasks(
        [vm(0, instr_cost_rate=0.02, bw_cost_rate=0.02)], tasks
    )
    t1 = run_simulation(cheap, {0: 0})
    t2 = run_simulation(dear, {0: 0})
    assert money_cost(t2, dear.vms) == pytest.approx(2 * money_cost(t1, cheap.vms))


def test_money_cost_averages_over_tasks():
    trace, wl = simulate([100000.0, 100000.0])
    assert money_cost(trace, wl.vms) == pytest.approx(1.00)


# ---------------------------------------------------------------------------
# Summation order
# ---------------------------------------------------------------------------

def test_money_adds_in_arrival_order_not_completion_order():
    # Tasks 0, 1, 2 arrive in that order and complete in the order 1, 2, 0.
    # Their charges 0.1, 0.2, 0.3 add to different doubles in the two orders.
    vms = [vm(0, instr_cost_rate=0.1), vm(1, instr_cost_rate=1.0), vm(2, instr_cost_rate=1.0)]
    tasks = [task(0, length=1000.0), task(1, length=200.0, arrival=0.1), task(2, length=300.0, arrival=0.2)]
    wl = WorkloadSet.from_tasks(vms, tasks)
    trace = run_simulation(wl, {0: 0, 1: 1, 2: 2})
    assert list(trace.records) == [1, 2, 0]
    by_arrival, by_completion = (0.1 + 0.2) + 0.3, (0.2 + 0.3) + 0.1
    assert money_cost(trace, wl.vms) == by_arrival / 3 != by_completion / 3


def test_raw_qos_does_not_depend_on_record_order():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n, m = int(rng.integers(8, 40)), int(rng.integers(1, 5))
        vms = [
            vm(j, mips=float(rng.choice([750.0, 1000.0, 2000.0])),
               instr_cost_rate=float(rng.choice([0.003, 0.01, 0.02])), bw_cost_rate=0.005)
            for j in range(m)
        ]
        tasks = []
        for i in range(n):
            arrival = float(rng.uniform(0.0, 10.0))
            tasks.append(task(
                i, length=float(rng.uniform(100.0, 5000.0)), arrival=arrival,
                input_size=float(rng.uniform(0.0, 300.0)), deadline=arrival + float(rng.uniform(1.0, 20.0)),
            ))
        wl = WorkloadSet.from_tasks(vms, tasks)
        trace = run_simulation(wl, {i: int(rng.integers(0, m)) for i in range(n)})
        deadlines = {t.id: t.deadline for t in tasks}
        expected = raw_qos(trace, wl.vms, deadlines)
        for _ in range(3):
            shuffled = {int(tid): trace.records[int(tid)] for tid in rng.permutation(n)}
            assert raw_qos(replace(trace, records=shuffled), wl.vms, deadlines) == expected


# ---------------------------------------------------------------------------
# reliability
# ---------------------------------------------------------------------------

def test_reliability_defaults_to_one_without_deadlines():
    trace, _ = simulate([1000.0])
    assert reliability(trace) == 1.0
    assert reliability(trace, {}) == 1.0


def test_reliability_counts_met_deadlines():
    trace, _ = simulate([1000.0] * 4)  # completions 1, 2, 3, 4
    deadlines = {0: 10.0, 1: 10.0, 2: 10.0, 3: 3.5}
    assert reliability(trace, deadlines) == 0.75


def test_reliability_zero_when_every_deadline_missed():
    trace, _ = simulate([1000.0, 1000.0])  # completions 1, 2
    assert reliability(trace, {0: 0.5, 1: 0.5}) == 0.0


# ---------------------------------------------------------------------------
# load_rate
# ---------------------------------------------------------------------------

def test_even_usage_has_zero_load():
    assert load_rate([5.0, 5.0, 5.0, 5.0]) == 0.0


def test_fully_skewed_usage():
    # |10-5| + |0-5| over (5 * 2) = 1.0
    assert load_rate([10.0, 0.0]) == 1.0


def test_all_idle_machines_load_zero():
    assert load_rate([0.0, 0.0, 0.0]) == 0.0


def test_load_rate_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.uniform(0, 10, int(rng.integers(1, 8)))
        assert load_rate(list(3.7 * u)) == pytest.approx(load_rate(list(u)))


def test_load_rate_zero_iff_even():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.uniform(0.1, 10, 5)
        if np.ptp(u) > 1e-9:
            assert load_rate(list(u)) > 0.0
    assert load_rate([2.5] * 7) == 0.0


def test_load_rate_input_validation():
    with pytest.raises(ValueError):
        load_rate([])
    with pytest.raises(ValueError):
        load_rate([-1.0, 2.0])


def test_usage_totals_follow_machine_order():
    trace, _ = simulate([1000.0, 2000.0], n_vms=2, assignment={0: 1, 1: 0})
    assert machine_usage_totals(trace) == [2.0, 1.0]


# ---------------------------------------------------------------------------
# multi_qos
# ---------------------------------------------------------------------------

def test_singleton_pool_reduces_to_reliability_term():
    trace, wl = simulate([1000.0])
    weights = QosWeights(time=0.5, cost=0.3, reliability=0.2)
    scores = multi_qos([trace], wl.vms, weights)
    assert scores == [pytest.approx(0.2 * (1.0 - 1.0))]


def test_identical_traces_score_identically():
    trace_a, wl = simulate([1000.0, 2000.0])
    trace_b, _ = simulate([1000.0, 2000.0])
    scores = multi_qos([trace_a, trace_b], wl.vms, QosWeights())
    assert scores[0] == pytest.approx(scores[1])


def test_reliability_only_weights_score_missed_fraction():
    trace_a, wl = simulate([1000.0, 1000.0], n_vms=2, assignment={0: 0, 1: 1})
    trace_b, _ = simulate([1000.0, 1000.0])  # same tasks, queued serially
    weights = QosWeights(time=0.0, cost=0.0, reliability=1.0)
    # A meets both deadlines, B meets half.
    deadlines = {0: 1.5, 1: 1.5}
    scores = multi_qos([trace_a, trace_b], wl.vms, weights, deadlines)
    assert scores[0] == pytest.approx(0.0)
    assert scores[1] == pytest.approx(0.5)


def test_time_weight_orders_by_flow():
    slow, _ = simulate([1000.0, 1000.0])
    fast, wl = simulate([1000.0, 1000.0], n_vms=2, assignment={0: 0, 1: 1})
    weights = QosWeights(time=1.0, cost=0.0, reliability=0.0)
    scores = multi_qos([fast, slow], wl.vms, weights)
    assert scores[0] == 0.0 and scores[1] == 1.0


def test_qos_ranking_invariant_to_affine_rescaling():
    raws = [RawQos(10.0, 1.0, 1.0), RawQos(20.0, 2.0, 1.0), RawQos(15.0, 3.0, 1.0)]
    shifted = [RawQos(5 * r.time_cost + 7, 2 * r.money_cost + 1, 1.0) for r in raws]
    w = QosWeights()
    assert np.argsort(qos_scores(raws, w)).tolist() == np.argsort(
        qos_scores(shifted, w)
    ).tolist()


def test_degenerate_pool_scores_zero_axes():
    raws = [RawQos(5.0, 1.0, 1.0), RawQos(5.0, 1.0, 1.0)]
    assert qos_scores(raws, QosWeights()) == [0.0, 0.0]
    # A tied cost axis scores 0 while the time axis still spreads.
    raws = [RawQos(10.0, 0.1, 1.0), RawQos(20.0, 0.1, 1.0)]
    assert qos_scores(raws, QosWeights(time=0.5, cost=0.3, reliability=0.2)) == [0.0, 0.5]


def test_weights_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        QosWeights(time=0.5, cost=0.5, reliability=0.5)
    with pytest.raises(ConfigurationError):
        QosWeights(time=-0.2, cost=0.6, reliability=0.6)


def test_raw_qos_collects_all_three_axes():
    trace, wl = simulate([1000.0])
    r = raw_qos(trace, wl.vms)
    assert r.time_cost == 1.0
    assert r.money_cost == pytest.approx(0.01)
    assert r.reliability == 1.0

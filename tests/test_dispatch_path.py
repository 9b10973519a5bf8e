"""The dispatch path's cached and batched kernels against the code they
replaced: the per-step reward snapshot and competition sum, the scalar DTW
table and the slot-by-slot usage series. Each old body is kept here as the
oracle, and results must be equal with ==, not approximately."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudsched import rewards
from cloudsched.errors import ConfigurationError
from cloudsched.rewards import (
    RewardBreakdown,
    RewardConfig,
    competition_penalty,
    dtw_distance,
    kmeans_cluster,
    overuse_penalty,
    reward_breakdown,
    total_reward,
    utilization_penalty,
    wait_penalty,
)
from cloudsched.simulator import (
    MachineSnapshot,
    OveruseEvent,
    RewardInputs,
    init_state,
    machine_usage_series,
    replay_assignment,
    run_simulation,
    scan_overuse,
    step,
)
from cloudsched.workload import RESOURCES, DagWorkflow, Task, UsageProfile, WorkloadSet

from helpers import vm


# ---------------------------------------------------------------------------
# Oracles: the replaced code, verbatim in substance
# ---------------------------------------------------------------------------

def scalar_dtw(a, b):
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    n, m = len(x), len(y)
    dp = np.full((n + 1, m + 1), np.inf)
    dp[0, 0] = 0.0
    for i in range(1, n + 1):
        costs = np.abs(x[i - 1] - y)
        for j in range(1, m + 1):
            dp[i, j] = costs[j - 1] + min(dp[i - 1, j], dp[i, j - 1], dp[i - 1, j - 1])
    return float(dp[n, m])


def old_resident_users(state, machine):
    users = set()
    if machine.running is not None:
        users.add(state.tasks[machine.running].user_id)
    for tid in machine.queue:
        users.add(state.tasks[tid].user_id)
    return sorted(users)


def old_snapshot(state, new_overuse):
    pmap = state.pmap
    slot = int(math.floor(state.clock))
    snaps = []
    for machine in state.machines:
        users = old_resident_users(state, machine)
        used, resident = {}, {}
        for d in RESOURCES:
            profs = [pmap[(u, d)] for u in users if (u, d) in pmap]
            resident[d] = tuple(p.series for p in profs)
            used[d] = float(sum(p.demand_at(slot) for p in profs))
        snaps.append(MachineSnapshot(machine.spec.id, machine.in_use, used, resident))
    return RewardInputs(state.clock, state.waiting_count(), tuple(snaps), tuple(new_overuse))


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


def old_breakdown(inputs, config):
    return RewardBreakdown(
        competition=old_competition_penalty([m.resident_profiles for m in inputs.machines], config),
        utilization=utilization_penalty(inputs.machines, config),
        overuse=overuse_penalty(inputs.new_overuse, config),
        wait=wait_penalty(inputs.queue_len, config),
    )


def old_usage_series(trace, workload):
    horizon = int(math.ceil(trace.makespan))
    out = {v.id: {"busy": np.zeros(horizon)} for v in workload.vms}
    for r in trace.records.values():
        lo, hi = r.start, r.completion
        for s in range(int(math.floor(lo)), min(horizon, int(math.ceil(hi)))):
            overlap = min(hi, s + 1) - max(lo, s)
            if overlap > 0:
                out[r.machine_id]["busy"][s] += overlap
    if workload.profiles:
        pmap = workload.profile_map()
        for v in workload.vms:
            for d in RESOURCES:
                out[v.id][d] = np.zeros(horizon)
        for m, u, t0, t1 in trace.residency:
            for s in range(math.ceil(t0), min(horizon, math.ceil(t1))):
                for d in RESOURCES:
                    prof = pmap.get((u, d))
                    if prof is not None:
                        out[m][d][s] += prof.demand_at(s)
    return out


def old_scan_overuse(trace, workload):
    if not workload.profiles or not trace.residency:
        return []
    pmap = workload.profile_map()
    fired, events = set(), []
    for s in range(int(math.ceil(trace.makespan))):
        for m in sorted({r[0] for r in trace.residency}):
            users = sorted({u for mm, u, t0, t1 in trace.residency if mm == m and t0 <= s < t1})
            for d in RESOURCES:
                if not users or (m, d) in fired:
                    continue
                demand = 0.0
                for u in users:
                    prof = pmap.get((u, d))
                    if prof is not None:
                        demand += prof.demand_at(s)
                if demand > 1.0:
                    fired.add((m, d))
                    events.append(OveruseEvent(m, d, float(s)))
    return sorted(events, key=lambda e: (e.time, e.machine_id, e.resource))


# ---------------------------------------------------------------------------
# Random profiled workloads and episodes
# ---------------------------------------------------------------------------

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


def random_episode(rng, wl):
    """Yield (state, inputs) after every step of a random dispatch."""
    state = init_state(wl)
    while not state.done:
        if state.ready and rng.random() < 0.6:
            tid = state.ready[int(rng.integers(len(state.ready)))]
            action = (tid, wl.vms[int(rng.integers(len(wl.vms)))].id)
        else:
            action = None
        state, inputs = step(state, action)
        yield state, inputs


def assert_same_inputs(new, old):
    assert new.clock == old.clock and new.queue_len == old.queue_len
    assert new.new_overuse == old.new_overuse
    for a, b in zip(new.machines, old.machines, strict=True):
        assert (a.machine_id, a.in_use) == (b.machine_id, b.in_use)
        assert a.used == b.used
        assert set(a.resident_profiles) == set(b.resident_profiles) == set(RESOURCES)
        for d in RESOURCES:
            assert len(a.resident_profiles[d]) == len(b.resident_profiles[d])
            assert all(x is y for x, y in zip(a.resident_profiles[d], b.resident_profiles[d]))


# ---------------------------------------------------------------------------
# Reward inputs and rewards
# ---------------------------------------------------------------------------

def test_cached_snapshots_equal_the_per_step_snapshot():
    rng = np.random.default_rng(900)
    configs = [RewardConfig(), RewardConfig(k_c=0.3, k_u=1.5, resources=("cpu", "memory"))]
    steps = 0
    for _ in range(80):
        wl = profiled_workload(rng)
        for state, inputs in random_episode(rng, wl):
            old = old_snapshot(state, inputs.new_overuse)
            assert_same_inputs(inputs, old)
            for cfg in configs:
                # Twice, so the second call reads the memoized pair sums.
                for _ in range(2):
                    assert reward_breakdown(inputs, cfg) == old_breakdown(old, cfg)
                    assert total_reward(inputs, cfg) == old_breakdown(old, cfg).total
            steps += 1
    assert steps > 1000


def test_mixed_profile_lengths_are_rejected():
    # One VM and two users whose cpu profiles have 24 and 48 slots: their
    # demand has no slot-by-slot sum, so the workload is rejected when it is
    # built rather than crashing the competition reward mid-episode.
    tasks = [Task(id=u, user_id=u) for u in (0, 1)]
    cpu = [UsageProfile(0, "cpu", np.full(24, 0.3)), UsageProfile(1, "cpu", np.full(48, 0.3))]
    with pytest.raises(ConfigurationError, match=r"cpu profiles differ in length: \[24, 48\]"):
        WorkloadSet([vm(0)], DagWorkflow(tasks, []), cpu)
    # Lengths may differ across resources.
    memory = UsageProfile(1, "memory", np.full(48, 0.3))
    state = init_state(WorkloadSet([vm(0)], DagWorkflow(tasks, []), [cpu[0], memory]))
    for tid in (0, 1):
        state, inputs = step(state, (tid, 0))
    assert inputs.machines[0].used == {"cpu": 0.3, "memory": 0.3, "bandwidth": 0.0}
    assert total_reward(inputs, RewardConfig()) == old_breakdown(inputs, RewardConfig()).total


def test_one_slot_profiles_keep_the_sequential_sum():
    # Sixteen or more one-slot series on one machine: numpy's pairwise sum
    # of the stacked rows differs from sum() here, so a summed demand built
    # with np.stack(...).sum(axis=0) would fail this test.
    values = [0.5] + [2.0 ** -54] * 19
    rows = [np.array([v]) for v in values]
    assert float(np.stack(rows).sum(axis=0)[0]) != sum(values)
    tasks = [Task(id=u, user_id=u, length=1000.0 * (u + 1)) for u in range(len(values))]
    profiles = [UsageProfile(u, "cpu", [v]) for u, v in enumerate(values)]
    profiles += [UsageProfile(u, "memory", [0.06]) for u in range(len(values))]
    wl = WorkloadSet([vm(0)], DagWorkflow(tasks, []), profiles)
    state = init_state(wl)
    for tid in range(len(values)):
        state, inputs = step(state, (tid, 0))
        old = old_snapshot(state, inputs.new_overuse)
        assert_same_inputs(inputs, old)
        assert reward_breakdown(inputs, RewardConfig()) == old_breakdown(old, RewardConfig())
    assert inputs.machines[0].used["cpu"] == 0.5
    while not state.done:
        state, inputs = step(state, None)
        assert_same_inputs(inputs, old_snapshot(state, inputs.new_overuse))
    assert [(e.machine_id, e.resource) for e in state.overuse_events] == [(0, "memory")]


def test_shared_resident_sets_are_read_only():
    # Snapshots share a machine's resident set until its users change, so a
    # write through one snapshot must fail rather than change later steps.
    tasks = [Task(id=0, user_id=0, length=5000.0), Task(id=1, user_id=1, length=5000.0)]
    tasks.append(Task(id=2, user_id=0, length=5000.0, arrival_time=2.0))
    profiles = [UsageProfile(u, "cpu", [0.2, 0.4]) for u in (0, 1)]
    wl = WorkloadSet([vm(0)], DagWorkflow(tasks, []), profiles)
    state, _ = step(init_state(wl), (0, 0))
    state, first = step(state, (1, 0))
    state, second = step(state, None)  # task 2 arrives; the queue is unchanged
    assert state.clock == 2.0
    residents = first.machines[0].resident_profiles
    assert second.machines[0].resident_profiles is residents
    # A queued task of a user already resident changes the queue, not the set.
    state, third = step(state, (2, 0))
    assert third.machines[0].resident_profiles is residents
    with pytest.raises(TypeError):
        residents["cpu"] = ()
    with pytest.raises(AttributeError):
        residents.pop("cpu")
    with pytest.raises(ValueError):
        residents["cpu"][0][0] = 1.0
    assert residents.pair_sum("cpu") == 0.2 * 0.2 + 0.4 * 0.4


def test_competition_on_plain_mappings_is_unchanged():
    rng = np.random.default_rng(902)
    for _ in range(200):
        entries = [
            {d: tuple(rng.uniform(0.0, 1.0, 5) for _ in range(int(rng.integers(0, 5))))
             for d in RESOURCES}
            for _ in range(int(rng.integers(1, 4)))
        ]
        cfg = RewardConfig(k_c=float(rng.uniform(0.0, 3.0)))
        assert competition_penalty(entries, cfg) == old_competition_penalty(entries, cfg)


def test_overuse_scan_equals_the_slot_filter():
    rng = np.random.default_rng(906)
    fired = 0
    for k in range(150):
        wl = profiled_workload(rng)
        one_vm = k % 3 == 0  # every task piles onto one machine
        picks = [0 if one_vm else int(rng.integers(len(wl.vms))) for _ in wl.tasks]
        assignment = {t.id: wl.vms[j].id for t, j in zip(wl.tasks, picks)}
        trace = run_simulation(wl, assignment)
        assert trace.overuse_events == old_scan_overuse(trace, wl)
        # The stepper samples each slot online, from the residents it keeps
        # across joins and completions that no snapshot read in between.
        assert replay_assignment(wl, assignment).overuse_events == trace.overuse_events
        fired += len(trace.overuse_events)
    assert fired > 20


# ---------------------------------------------------------------------------
# Usage series
# ---------------------------------------------------------------------------

def test_usage_series_equal_the_slot_loop():
    rng = np.random.default_rng(903)
    for k in range(120):
        wl = profiled_workload(rng)
        if k % 3:
            assignment = {t.id: wl.vms[int(rng.integers(len(wl.vms)))].id for t in wl.tasks}
            trace = run_simulation(wl, assignment)
        else:
            for state, _ in random_episode(rng, wl):
                pass
            trace = state.trace()
        new, old = machine_usage_series(trace, wl), old_usage_series(trace, wl)
        assert set(new) == set(old)
        for m in old:
            assert set(new[m]) == set(old[m])
            for key, arr in old[m].items():
                assert new[m][key].dtype == arr.dtype
                assert np.array_equal(new[m][key], arr)


def test_busy_series_with_many_tasks_per_slot():
    # Tasks of 0.03-0.1 s: each slot sums many overlaps, so the order of the
    # adds shows in the last bits.
    rng = np.random.default_rng(905)
    tasks = [
        Task(id=i, user_id=i % 3, length=float(rng.uniform(30.0, 100.0)),
             arrival_time=float(rng.uniform(0.0, 2.0)))
        for i in range(60)
    ]
    profiles = [UsageProfile(u, "cpu", rng.uniform(0.0, 0.3, 5)) for u in range(3)]
    wl = WorkloadSet([vm(0), vm(1, mips=700.0)], DagWorkflow(tasks, []), profiles)
    trace = run_simulation(wl, {t.id: t.id % 2 for t in tasks})
    new, old = machine_usage_series(trace, wl), old_usage_series(trace, wl)
    for m in old:
        for key, arr in old[m].items():
            assert np.array_equal(new[m][key], arr)


# ---------------------------------------------------------------------------
# DTW
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
series_1_40 = st.lists(finite, min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(series_1_40, series_1_40, st.booleans()), min_size=1, max_size=12),
    st.integers(1, 5),
)
def test_batched_dtw_equals_the_scalar_table(pairs, block):
    # A small block puts more pairs in a call than in one block; the flag
    # turns a pair into two identical series, whose distance is 0.
    xs = [np.array(a) for a, _, _ in pairs]
    ys = [np.array(a if same else b) for a, b, same in pairs]
    got = rewards._dtw_pairs(xs, ys, block=block)
    want = [scalar_dtw(x, y) for x, y in zip(xs, ys)]
    assert got.tolist() == want
    assert all(g == 0.0 for g, (_, _, same) in zip(got, pairs) if same)
    assert [dtw_distance(x, y) for x, y in zip(xs, ys)] == want


def test_kmeans_distances_equal_the_scalar_table(monkeypatch):
    # 24 users give 276 pairs: more than one default block.
    rng = np.random.default_rng(904)
    profiles = [
        UsageProfile(u, "cpu", rng.uniform(0.0, 1.0, int(rng.integers(20, 30))))
        for u in range(24)
    ]
    profiles[5] = UsageProfile(5, "cpu", profiles[3].series)
    iu, ju = np.triu_indices(24, 1)
    assert len(iu) > rewards._DTW_BLOCK
    xs, ys = [profiles[i].series for i in iu], [profiles[j].series for j in ju]
    assert rewards._dtw_pairs(xs, ys).tolist() == [scalar_dtw(x, y) for x, y in zip(xs, ys)]
    batched = kmeans_cluster(profiles, k=4, seed=3)
    monkeypatch.setattr(
        rewards, "_dtw_pairs", lambda xs, ys: np.array([scalar_dtw(x, y) for x, y in zip(xs, ys)])
    )
    scalar = kmeans_cluster(profiles, k=4, seed=3)
    assert batched.assignments == scalar.assignments
    assert batched.centroid_users == scalar.centroid_users
    assert batched.inertia_history == scalar.inertia_history

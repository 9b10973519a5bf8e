"""The dispatch path's cached and batched kernels against the code they
replaced: the per-step reward snapshot and competition sum, the scalar DTW
table, the slot-by-slot usage series and overuse scan. Each old body is kept
here as the oracle, and results must be equal with ==, not approximately;
the usage oracle's resource half counts each resident user once, as the
overuse scan and the stepper do. So is the policy encoder's backlog walk,
which now reads the service time each machine keeps beside every queued
task and stops once the backlog covers the lookahead, and so are the
resident users, which each machine now counts as tasks join and complete.
The online step's leaner bodies are pinned the same way: the overuse
sampler with its per-machine tuples of unfired resources, the encoder's
clamps by comparison, the unbuilt breakdown of total_reward, the copied
action masks and the softmax that exponentiates only valid logits. The
one-hot that policy_forward returns, without the network, for a mask with
one valid action is pinned to the full pass, and so are its errors. Each
resident set's one-pass build, gathered from the episode's series index, is
pinned by its bytes to the per-resource sums it replaced: the totals that
used_at reads and the pair sums, for single sets and through whole
episodes."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudsched import policy, rewards, simulator
from cloudsched.errors import ConfigurationError
from cloudsched.policy import PolicyParams, encode_state, valid_actions
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
    ResidentSet,
    RewardInputs,
    init_state,
    machine_usage_series,
    replay_assignment,
    run_simulation,
    scan_overuse,
    step,
)
from cloudsched.workload import (
    RESOURCES,
    DagWorkflow,
    Task,
    UsageProfile,
    WorkloadSet,
    generate_profiles,
)

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


def old_totals(residents):
    """ResidentSet's totals as they were built per resource: the series
    added user by user from np.zeros, as sum() adds them."""
    return {d: sum(rows, np.zeros(len(rows[0]) if rows else 1)) for d, rows in residents.items()}


def old_pair_sum(rows):
    """ResidentSet.pair_sum as it was computed per resource, from a stack
    of that resource's series alone, which share a length."""
    if len(rows) < 2:
        return 0.0
    stacked = np.array(rows)
    agg = stacked.sum(axis=0)
    return (float(agg @ agg) - float((stacked * stacked).sum())) / 2.0


def old_breakdown(inputs, config):
    return RewardBreakdown(
        competition=old_competition_penalty([m.resident_profiles for m in inputs.machines], config),
        utilization=utilization_penalty(inputs.machines, config),
        overuse=overuse_penalty(inputs.new_overuse, config),
        wait=wait_penalty(inputs.queue_len, config),
    )


def old_machine_features(state, lookahead):
    """encode_state's per-machine block, each queued task's service time
    computed from the task and the machine."""
    feats = []
    for machine in state.machines:
        backlog = max(0.0, machine.busy_until - state.clock) if machine.running is not None else 0.0
        for tid, _ in machine.queue:
            task = state.tasks[tid]
            transfer = (task.input_size + task.output_size) / machine.spec.bandwidth
            backlog += transfer + task.length / machine.spec.mips
        feats.extend(min(1.0, max(0.0, backlog - slot)) for slot in range(lookahead))
    return feats


def old_sample_slot(state, slot, fired):
    """The overuse sampler with one set of fired (machine, resource) pairs
    per episode, which it read for every machine at every slot."""
    if not state.workload.profiles:
        return []
    fresh = []
    for machine in state.machines:
        m, res = machine.spec.id, simulator._residents(state, machine)
        pending = [d for d in RESOURCES if (m, d) not in fired]
        if res is simulator._NO_RESIDENTS or not pending:
            continue
        used = res.used_at(slot)
        for d in pending:
            if used[d] > 1.0:
                fired.add((m, d))
                fresh.append((m, d))
    state.overuse_events.extend(OveruseEvent(m, d, float(slot)) for m, d in fresh)
    return fresh


def old_encode_state(state, lookahead=3, *, ready_slots=5):
    """encode_state with min/max clamps and one append per feature."""
    feats = []
    for machine in state.machines:
        backlog = max(0.0, machine.busy_until - state.clock) if machine.running is not None else 0.0
        if backlog < lookahead:
            for _, service in machine.queue:
                backlog += service
                if backlog >= lookahead:
                    break
        for slot in range(lookahead):
            feats.append(min(1.0, max(0.0, backlog - slot)))
    for slot in range(ready_slots):
        if slot < len(state.ready):
            task = state.tasks[state.ready[slot]]
            feats.append(min(1.0, task.length / policy._LENGTH_SCALE))
            feats.append(min(1.0, task.input_size / policy._SIZE_SCALE))
            feats.append(min(1.0, task.output_size / policy._SIZE_SCALE))
            waited = state.clock - state.ready_times[task.id]
            feats.append(min(1.0, max(0.0, waited) / policy._WAIT_SCALE))
        else:
            feats.extend([0.0, 0.0, 0.0, 0.0])
    feats.append(min(1.0, state.waiting_count() / policy._QUEUE_SCALE))
    return np.asarray(feats)


def old_forward(theta, s, valid):
    """The forward pass that exponentiated every logit, masked ones too."""
    hidden = np.tanh(s @ theta.w1 + theta.b1)
    logits = hidden @ theta.w2 + theta.b2
    shifted = logits - logits[valid].max()
    expv = np.where(valid, np.exp(shifted), 0.0)
    return hidden, expv / expv.sum()


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
        # Each user resident at the slot counts once, in ascending id order.
        for s in range(horizon):
            for m in out:
                users = sorted({u for mm, u, t0, t1 in trace.residency if mm == m and t0 <= s < t1})
                for d in RESOURCES:
                    demand = 0.0
                    for u in users:
                        prof = pmap.get((u, d))
                        if prof is not None:
                            demand += prof.demand_at(s)
                    out[m][d][s] = demand
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
            for machine in state.machines:
                assert sorted(machine.user_tasks) == old_resident_users(state, machine)
                running = machine.running is not None
                assert sum(machine.user_tasks.values()) == len(machine.queue) + running
            for cfg in configs:
                # Twice, so the second call reads the memoized pair sums.
                for _ in range(2):
                    assert reward_breakdown(inputs, cfg) == old_breakdown(old, cfg)
                    assert total_reward(inputs, cfg) == old_breakdown(old, cfg).total
            steps += 1
    assert steps > 1000


def test_overuse_sampler_equals_the_fired_set(monkeypatch):
    # Two states of one workload take the same random actions, one stepped
    # with the per-machine tuples of unfired resources, one with the old
    # sampler and its fired set: every step reports the same fresh pairs
    # and the same overuse events, and its snapshot equals the old one.
    rng = np.random.default_rng(909)
    fired_pairs = 0
    for k in range(120):
        wl = profiled_workload(rng)
        if k % 2:
            wl = WorkloadSet(wl.vms[:1], wl.dag, wl.profiles)  # everything on one machine
        state, twin, fired = init_state(wl), init_state(wl), set()
        while not state.done:
            if state.ready and rng.random() < 0.6:
                tid = state.ready[int(rng.integers(len(state.ready)))]
                action = (tid, wl.vms[int(rng.integers(len(wl.vms)))].id)
            else:
                action = None
            state, inputs = step(state, action)
            with monkeypatch.context() as mp:
                mp.setattr(simulator, "_sample_slot", lambda st, s: old_sample_slot(st, s, fired))
                twin, old_inputs = step(twin, action)
            assert inputs.new_overuse == old_inputs.new_overuse
            assert state.overuse_events == twin.overuse_events
            assert_same_inputs(inputs, old_snapshot(state, inputs.new_overuse))
            for machine in state.machines:
                left = tuple(d for d in RESOURCES if (machine.spec.id, d) not in fired)
                assert machine.unfired == left
        fired_pairs += len(fired)
    assert fired_pairs > 60


def test_encoded_states_equal_the_old_encoder_byte_for_byte():
    rng = np.random.default_rng(910)
    shapes = [(1, 1), (3, 3), (3, 5), (12, 2)]
    full = crowded = 0
    for _ in range(60):
        wl = profiled_workload(rng)
        for state, _ in random_episode(rng, wl):
            encoded = {}
            for lookahead, slots in shapes:
                got = encoded[lookahead, slots] = encode_state(state, lookahead, ready_slots=slots)
                assert got.tobytes() == old_encode_state(state, lookahead, ready_slots=slots).tobytes()
                assert got.dtype == np.float64
            # Machines whose backlog covers a lookahead of 3, and more
            # ready tasks than three slots.
            full += int((encoded[3, 3][2 : 3 * len(wl.vms) : 3] == 1.0).sum())
            crowded += len(state.ready) > 3
    assert full > 100 and crowded > 30
    # A task of 1e-12 s started at t = 16384 ends at the clock, whose ulp is
    # 3.6e-12: its machine runs it with busy_until == clock, a backlog of
    # exactly zero, and the 5 s task queued behind it covers the lookahead.
    tasks = [Task(id=0, user_id=0, length=1e-9, arrival_time=16384.0)]
    tasks.append(Task(id=1, user_id=0, length=5000.0, arrival_time=16384.0))
    state = init_state(WorkloadSet([vm(0), vm(1)], DagWorkflow(tasks, [])))
    state, _ = step(state, None)
    for action in [(0, 0), (1, 0)]:
        state, _ = step(state, action)
        machine = state.machines[0]
        assert machine.running == 0 and machine.busy_until == state.clock == 16384.0
        for lookahead in (1, 3, 5, 6):
            got = encode_state(state, lookahead, ready_slots=2)
            assert got.tobytes() == old_encode_state(state, lookahead, ready_slots=2).tobytes()
    assert encode_state(state, 3, ready_slots=1)[:3].tolist() == [1.0, 1.0, 1.0]
    assert encode_state(state, 6, ready_slots=1)[:6].tolist() == [1.0] * 5 + [0.0]


def test_action_masks_are_fresh_copies():
    wl = WorkloadSet([vm(0), vm(1)], DagWorkflow([Task(id=i, user_id=0) for i in range(2)], []))
    state = init_state(wl)
    first = valid_actions(state, ready_slots=3)
    assert first.tolist() == [True] * 4 + [False, False, True]
    first[:] = False
    assert valid_actions(state, ready_slots=3).tolist() == [True] * 4 + [False, False, True]
    state, _ = step(state, (0, 0))
    second = valid_actions(state, ready_slots=3)
    assert second.tolist() == [True] * 2 + [False] * 4 + [True]
    assert second.flags.writeable and second is not valid_actions(state, ready_slots=3)


def test_forward_pass_equals_the_full_softmax():
    # Logit scales from 0.05 to 50, so some valid probabilities underflow
    # to 0 and some masked logits would overflow exp.
    rng = np.random.default_rng(911)
    for _ in range(3000):
        n_in, n_act = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        scale = float(rng.choice([0.05, 1.0, 10.0, 50.0]))
        theta = PolicyParams(
            w1=rng.normal(0, scale, (n_in, 16)),
            b1=rng.normal(0, scale, 16),
            w2=rng.normal(0, scale, (16, n_act)),
            b2=rng.normal(0, scale, n_act),
        )
        s = rng.normal(0, 1, n_in)
        valid = rng.random(n_act) < float(rng.uniform(0.1, 1.0))
        valid[-1] = True
        with np.errstate(over="ignore"):
            want = old_forward(theta, s, valid)
        got = policy._forward(theta, s, valid)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_a_one_action_mask_gives_the_full_pass_one_hot():
    # The same logit scales, 0.05 to 50; each position in turn is the one
    # valid action, the no-op's included.
    rng = np.random.default_rng(912)
    for _ in range(300):
        n_in, n_act = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        scale = float(rng.choice([0.05, 1.0, 10.0, 50.0]))
        theta = PolicyParams(
            w1=rng.normal(0, scale, (n_in, 16)),
            b1=rng.normal(0, scale, 16),
            w2=rng.normal(0, scale, (16, n_act)),
            b2=rng.normal(0, scale, n_act),
        )
        s = rng.normal(0, 1, n_in)
        for only in range(n_act):
            valid = np.zeros(n_act, dtype=bool)
            valid[only] = True
            got = policy.policy_forward(theta, s, valid)
            assert got.tobytes() == policy._forward(theta, s, valid)[1].tobytes()
            assert got[only] == 1.0


@pytest.mark.parametrize(
    "n_state, valid, message",
    [
        (5, [True, False, False], "state dimension (5,) does not match policy input 4"),
        (5, [True, True, False], "state dimension (5,) does not match policy input 4"),
        (4, [True, False], "valid mask length does not match action count"),
        (4, [True, True, True, True], "valid mask length does not match action count"),
        (4, [False, False, False], "at least one action must be valid"),
    ],
    ids=["state-size-one-valid", "state-size", "mask-length-one-valid", "mask-length", "none-valid"],
)
def test_a_one_action_mask_keeps_the_input_errors(n_state, valid, message):
    theta = policy.init_policy(4, 3, 3, seed=0)
    s, valid = np.zeros(n_state), np.array(valid)
    for forward in (policy.policy_forward, lambda *args: policy._forward(*args)[1]):
        with pytest.raises(ConfigurationError) as err:
            forward(theta, s, valid)
        assert str(err.value) == message


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def reward_cases(draw):
    """(RewardInputs, RewardConfig) with up to 4 machines, whose residents
    are ResidentSets or plain mappings of equal-length series."""
    length = draw(st.integers(1, 6))
    machines = []
    for m in range(draw(st.integers(0, 4))):
        n_users = draw(st.integers(0, 4))
        residents = {
            d: tuple(np.array(draw(st.lists(unit, min_size=length, max_size=length)))
                     for _ in range(n_users))
            for d in RESOURCES
        }
        if draw(st.booleans()):
            residents = ResidentSet.of(residents)
        used = {d: draw(st.floats(0.0, 3.0)) for d in RESOURCES}
        machines.append(MachineSnapshot(m, draw(st.booleans()), used, residents))
    overuse = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(RESOURCES)), max_size=4))
    inputs = RewardInputs(
        draw(st.floats(0.0, 100.0)), draw(st.integers(0, 60)), tuple(machines), tuple(overuse)
    )
    config = RewardConfig(
        k_c=draw(st.floats(0.0, 10.0)),
        k_u=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
        k_o=draw(st.floats(0.0, 10.0)),
        k_w=draw(st.floats(0.0, 10.0)),
        resources=draw(st.lists(st.sampled_from(RESOURCES), unique=True, max_size=3)),
    )
    return inputs, config


@settings(max_examples=300, deadline=None)
@given(reward_cases())
def test_total_reward_equals_the_breakdown_total(case):
    inputs, config = case
    assert total_reward(inputs, config) == reward_breakdown(inputs, config).total


def test_encoded_backlogs_equal_the_queue_walk():
    rng = np.random.default_rng(901)
    lookahead = 12
    queued = 0
    for _ in range(80):
        wl = profiled_workload(rng)
        for state, _ in random_episode(rng, wl):
            obs = encode_state(state, lookahead, ready_slots=1)
            assert obs[: lookahead * len(wl.vms)].tolist() == old_machine_features(state, lookahead)
            queued += sum(len(m.queue) for m in state.machines)
    assert queued > 300


@pytest.mark.parametrize("lookahead", [1, 2, 3])
def test_encoded_backlogs_stop_early_at_lookahead(lookahead):
    # Short lookaheads, so most long queues reach lookahead partway through
    # their walk and the rest of it is skipped.
    rng = np.random.default_rng(908)
    crossed = 0
    for _ in range(40):
        # Up to 20 tasks of 0.1-1.5 s at t < 2 on one or two machines.
        tasks = [
            Task(id=i, user_id=int(rng.integers(3)), length=float(rng.uniform(100.0, 1500.0)),
                 input_size=float(rng.choice([0.0, rng.uniform(0.0, 50.0)])),
                 arrival_time=float(rng.uniform(0.0, 2.0)))
            for i in range(int(rng.integers(4, 21)))
        ]
        wl = WorkloadSet([vm(j) for j in range(int(rng.integers(1, 3)))], DagWorkflow(tasks, []))
        for state, _ in random_episode(rng, wl):
            obs = encode_state(state, lookahead, ready_slots=1)
            assert obs[: lookahead * len(wl.vms)].tolist() == old_machine_features(state, lookahead)
            for m in state.machines:
                head = max(0.0, m.busy_until - state.clock) if m.running is not None else 0.0
                services = [service for _, service in m.queue]
                crossed += head < lookahead <= head + sum(services[:-1])
    assert crossed > 300


def test_user_task_counts_follow_the_queue():
    # User 0 has two tasks on machine 0, co-resident while the second waits;
    # user 1 has one, queued behind them. The counts, and so the resident
    # users, match the queue walk after every step, and the resident set is
    # rebuilt only when a user comes or goes.
    tasks = [Task(id=0, user_id=0, length=2000.0), Task(id=1, user_id=0, length=1000.0)]
    tasks.append(Task(id=2, user_id=1, length=1000.0))
    profiles = [UsageProfile(u, "cpu", [0.3]) for u in (0, 1)]
    wl = WorkloadSet([vm(0)], DagWorkflow(tasks, []), profiles)
    state = init_state(wl)
    machine = state.machines[0]
    seen, sets = [], []
    for action in [(0, 0), (1, 0), (2, 0)] + [None] * 4:
        state, inputs = step(state, action)
        users = old_resident_users(state, machine)
        tids = [tid for tid, _ in machine.queue] + [machine.running] * (machine.running is not None)
        assert machine.user_tasks == Counter(state.tasks[tid].user_id for tid in tids)
        assert sorted(machine.user_tasks) == users
        assert inputs.machines[0].resident_profiles.users == tuple(users)
        seen.append((state.clock, dict(machine.user_tasks)))
        sets.append(inputs.machines[0].resident_profiles)
    assert seen == [
        (0.0, {0: 1}),
        (0.0, {0: 2}),
        (0.0, {0: 2, 1: 1}),
        (2.0, {0: 1, 1: 1}),  # task 0 done: user 0 still resident through task 1
        (3.0, {1: 1}),
        (4.0, {}),
        (4.0, {}),
    ]
    assert sets[0] is sets[1] and sets[2] is sets[3]
    assert len({id(r) for r in sets}) == 4  # (0,), (0, 1), (1,), ()


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


def test_an_idle_machine_keeps_its_snapshot_across_slots():
    # Tasks of 0.5 s arrive at t = 0, 1, 2 and 3 and all go to machine 0.
    # Machine 1 never has a resident, so it uses nothing at any slot; each
    # step's inputs equal the snapshot built from scratch.
    tasks = [Task(id=i, user_id=0, length=500.0, arrival_time=float(i)) for i in range(4)]
    wl = WorkloadSet([vm(0), vm(1)], DagWorkflow(tasks, []), [UsageProfile(0, "cpu", [0.2, 0.4])])
    state, seen = init_state(wl), []
    while not state.done:
        state, inputs = step(state, (state.ready[0], 0) if state.ready else None)
        assert_same_inputs(inputs, old_snapshot(state, inputs.new_overuse))
        seen.append(inputs)
    assert [i.clock for i in seen] == [0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 2.5, 3.0, 3.0, 3.5]


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


def assert_same_build(residents, series):
    """The one-pass build of residents against the per-resource formulas
    on series (resource -> rows), compared by their bytes so that signed
    zeros count: totals, used_at at every slot, each pair sum and
    pair_sums of several resource tuples."""
    expected = old_totals(series)
    assert list(residents._totals) == list(expected)
    for d, total in expected.items():
        assert residents._totals[d].tobytes() == total.tobytes(), d
    period = max(len(t) for t in expected.values())
    for slot in range(period + 1):
        used = residents.used_at(slot)
        assert {d: v.hex() for d, v in used.items()} == {
            d: float(t[slot % len(t)]).hex() for d, t in expected.items()
        }
    pairs = {d: old_pair_sum(rows) for d, rows in series.items()}
    for order in (RESOURCES, RESOURCES[::-1], ("memory",), ()):
        assert [v.hex() for v in residents.pair_sums(order)] == [
            pairs[d].hex() for d in order if len(series[d]) >= 2
        ]
    assert {d: residents.pair_sum(d).hex() for d in series} == {d: v.hex() for d, v in pairs.items()}


def test_one_pass_resident_sets_equal_the_per_resource_formulas():
    # Sets of 0-30 generated users, drawn in user order from 90 users of
    # three shapes, through the per-episode index the stepper reads, with
    # some users missing a resource so that stacks of one length have
    # different user counts; memory series are half as long as the others.
    rng = np.random.default_rng(2020)
    profiles = []
    for k, shape in enumerate(("flat", "diurnal", "spike")):
        for p in generate_profiles(30, 48, 7 + k, shape, noise=0.05):
            series = p.series if p.resource != "memory" else p.series[:24]
            profiles.append(UsageProfile(p.user_id + 30 * k, p.resource, series))
    dropped = {(u, d) for u in range(90) for d in RESOURCES if rng.random() < 0.1}
    profiles = [p for p in profiles if (p.user_id, p.resource) not in dropped]
    tasks = [Task(id=u, user_id=u) for u in range(90)]
    index = init_state(WorkloadSet([vm(0)], DagWorkflow(tasks, []), profiles)).series_index()
    pmap = {(p.user_id, p.resource): p.series for p in profiles}
    for _ in range(300):
        users = tuple(sorted(rng.choice(90, int(rng.integers(0, 31)), replace=False).tolist()))
        series = {d: [pmap[(u, d)] for u in users if (u, d) in pmap] for d in RESOURCES}
        residents = ResidentSet.of_users(users, index)
        if not any(series.values()):
            assert residents is simulator._NO_RESIDENTS
        assert_same_build(residents, series)
    # Random series with exact zeros, and -0.0 entries that a profile stores
    # as +0.0: 2-20 users, one length per resource, one slot included (where
    # numpy's sum of a stack runs pairwise, and the totals must not).
    for _ in range(400):
        lengths = {d: int(rng.choice([1, 2, 24, 47, 48, 96, 100])) for d in RESOURCES}
        if rng.random() < 0.5:
            lengths = dict.fromkeys(RESOURCES, lengths["cpu"])  # one shared stack
        series = {}
        for d in RESOURCES:
            rows = []
            for _ in range(int(rng.integers(0, 21))):
                row = rng.uniform(0.0, 1.0, lengths[d]) ** 3
                row[rng.random(lengths[d]) < 0.3] = rng.choice([0.0, -0.0])
                rows.append(UsageProfile(0, d, row).series)
            series[d] = rows
        assert_same_build(ResidentSet.of(series), series)


def profile_cases(rng):
    """(name, profiles of users 0-19) for each kind of profile set that
    groups the series index differently."""
    users = range(20)
    shared = generate_profiles(20, 48, 11, "diurnal", noise=0.05)
    one_slot = [0.5] + [2.0 ** -54] * 19
    return [
        ("shared", shared),  # one group of three resources
        ("missing", [p for p in shared if rng.random() < 0.7]),  # several groups
        ("lengths", [UsageProfile(p.user_id, p.resource, p.series[:24]) if p.resource == "memory"
                     else p for p in shared]),
        ("one slot", [UsageProfile(u, "cpu", [one_slot[u]]) for u in users]
         + [UsageProfile(u, "memory", [0.06]) for u in users]),
        ("single", [p for p in shared if p.user_id == 0]),
    ]


def test_gathered_sets_equal_the_per_resource_formulas_through_episodes():
    # Whole episodes of 40 tasks on one or two machines, stepped at random to
    # the end, for each kind of profile set. Every set a machine builds is
    # compared by bytes with the per-resource formulas on its users' series,
    # its rows are the profiles' own read-only series, and a finished
    # episode holds no series index.
    rng = np.random.default_rng(2023)
    for name, profiles in profile_cases(rng):
        pmap = {(p.user_id, p.resource): p.series for p in profiles}
        users = sorted({p.user_id for p in profiles})
        largest = checked = 0
        for episode in range(6):
            tasks = [
                Task(id=i, user_id=int(rng.choice(users)), length=float(rng.uniform(500.0, 4000.0)),
                     arrival_time=float(rng.uniform(0.0, 6.0)))
                for i in range(40)
            ]
            present = [p for p in profiles if p.user_id in {t.user_id for t in tasks}]
            wl = WorkloadSet([vm(j) for j in range(1 + episode % 2)], DagWorkflow(tasks, []), present)
            seen = {id(simulator._NO_RESIDENTS): simulator._NO_RESIDENTS}  # kept, so no id is reused
            for state, _ in random_episode(rng, wl):
                for machine in state.machines:
                    residents = machine.residents
                    if id(residents) in seen:
                        continue
                    seen[id(residents)] = residents
                    series = {d: [pmap[(u, d)] for u in residents.users if (u, d) in pmap]
                              for d in RESOURCES}
                    assert_same_build(residents, series)
                    for d, rows in series.items():
                        assert len(residents[d]) == len(rows)
                        assert all(x is y for x, y in zip(residents[d], rows))
                    row = next(rows[0] for rows in residents.values() if rows)
                    with pytest.raises(ValueError):
                        row[0] = 1.0
                    largest = max(largest, max(len(rows) for rows in series.values()))
                    checked += 1
            assert state.done and state.index is None, name
        assert checked >= (5 if name == "single" else 50), name
        assert largest >= {"one slot": 16, "single": 1}.get(name, 8), name


def test_plain_mappings_build_as_resident_sets():
    rng = np.random.default_rng(2021)
    for _ in range(200):
        series = {
            d: [rng.uniform(0.0, 1.0, 6) for _ in range(int(rng.integers(0, 5)))]
            for d in RESOURCES
        }
        lists = {d: [row.tolist() for row in rows] for d, rows in series.items()}
        assert_same_build(ResidentSet.of(lists), series)
    # Ragged lengths: only the resource that has them is refused, naming it,
    # and totals are refused with it.
    ragged = ResidentSet.of({"cpu": [[0.1, 0.2], [0.3]], "memory": [[0.5, 0.5], [0.25, 1.0]]})
    message = r"^resident series for resource 'cpu' differ in length: \[1, 2\]$"
    with pytest.raises(ValueError, match=message):
        ragged.pair_sum("cpu")
    with pytest.raises(ValueError, match=message):
        ragged.used_at(0)
    assert ragged.pair_sum("memory") == 0.5 * 0.25 + 0.5 * 1.0
    assert ragged.pair_sums(("memory",)) == (0.625,)


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


def test_a_user_with_two_resident_tasks_counts_once():
    # One user, two 2 s tasks on one machine: the second waits behind the
    # first, so both are resident in slots 0 and 1. The user's 0.6 cpu demand
    # counts once there, as the stepper's overuse check and reward read it.
    tasks = [Task(id=i, user_id=0, length=2000.0) for i in (0, 1)]
    wl = WorkloadSet([vm(0)], DagWorkflow(tasks, []), [UsageProfile(0, "cpu", [0.6])])
    trace = run_simulation(wl, {0: 0, 1: 0})
    assert machine_usage_series(trace, wl)[0]["cpu"].tolist() == [0.6] * 4
    assert trace.overuse_events == scan_overuse(trace, wl) == []
    assert replay_assignment(wl, {0: 0, 1: 0}).overuse_events == []


def test_overuse_events_are_the_usage_series_first_overshoots():
    # Each (machine, resource) fires at the first slot its exported demand
    # exceeds 1.0, and a series that never exceeds it fires nothing, for
    # traces of both drivers.
    rng = np.random.default_rng(907)
    fired = 0
    for k in range(160):
        wl = profiled_workload(rng)
        if k % 2:
            one_vm = k % 3 == 0  # every task piles onto one machine
            picks = [0 if one_vm else int(rng.integers(len(wl.vms))) for _ in wl.tasks]
            trace = run_simulation(wl, {t.id: wl.vms[j].id for t, j in zip(wl.tasks, picks)})
        else:
            for state, _ in random_episode(rng, wl):
                pass
            trace = state.trace()
        first = {(e.machine_id, e.resource): e.time for e in trace.overuse_events}
        assert len(first) == len(trace.overuse_events)
        for m, series in machine_usage_series(trace, wl).items():
            for d in RESOURCES:
                over = np.flatnonzero(series[d] > 1.0)
                assert first.pop((m, d), None) == (float(over[0]) if over.size else None)
        assert not first
        fired += len(trace.overuse_events)
    assert fired > 20


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

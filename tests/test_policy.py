"""Policy network, REINFORCE update, encoding and the episodic environment."""

import math
import warnings

import numpy as np
import pytest

from cloudsched import policy
from cloudsched.errors import ConfigurationError
from cloudsched.policy import (
    _STEP_CAP_FACTOR,
    PolicyParams,
    SchedulingEnv,
    TrainConfig,
    Trajectory,
    action_count,
    compute_returns,
    encode_state,
    evaluate_policy,
    init_policy,
    load_policy,
    observation_size,
    policy_forward,
    reinforce_update,
    save_policy,
    train,
    valid_actions,
)
from cloudsched.rewards import RewardConfig
from cloudsched.simulator import init_state, step
from cloudsched.workload import RESOURCES, TaskGenParams, UsageProfile, WorkloadSet, generate_tasks

from helpers import old_breakdown, old_reward, old_snapshot, task, vm


def zero_policy(n_in, n_hid, n_act):
    return PolicyParams(
        w1=np.zeros((n_in, n_hid)),
        b1=np.zeros(n_hid),
        w2=np.zeros((n_hid, n_act)),
        b2=np.zeros(n_act),
    )


def tiny_env(n_tasks=4, ready_slots=3, reward=RewardConfig(k_u=0.0, resources=())):
    vms = [vm(0), vm(1, mips=500.0)]
    params = TaskGenParams(
        length_range=(500.0, 1500.0),
        input_range=(0.0, 0.0),
        output_range=(0.0, 0.0),
        mean_interarrival=1.0,
        n_users=1,
    )

    def source(seed):
        return WorkloadSet.from_tasks(vms, generate_tasks(n_tasks, seed=seed, params=params))

    return SchedulingEnv(source, reward, lookahead=3, ready_slots=ready_slots)


# ---------------------------------------------------------------------------
# Policy network
# ---------------------------------------------------------------------------

def test_init_policy_is_seeded_and_bounded():
    a = init_policy(6, 4, 3, seed=7)
    b = init_policy(6, 4, 3, seed=7)
    for arr_a, arr_b in zip((a.w1, a.b1, a.w2, a.b2), (b.w1, b.b1, b.w2, b.b2)):
        assert np.array_equal(arr_a, arr_b)
        assert np.all(np.abs(arr_a) <= 0.05)
    assert (a.n_inputs, a.n_hidden, a.n_actions) == (6, 4, 3)


def test_zero_policy_is_uniform_over_valid_actions():
    theta = zero_policy(5, 4, 4)
    valid = np.array([True, False, True, True])
    probs = policy_forward(theta, np.zeros(5), valid)
    assert probs[1] == 0.0
    assert probs[[0, 2, 3]] == pytest.approx([1 / 3] * 3)


def test_single_valid_action_takes_all_probability():
    theta = init_policy(5, 4, 4, seed=0)
    valid = np.array([False, False, True, False])
    probs = policy_forward(theta, np.ones(5) * 0.3, valid)
    assert probs[2] == 1.0
    assert probs.sum() == 1.0


def test_a_large_masked_logit_does_not_overflow():
    # The masked action's logit is 1000: exp of it overflows, but its
    # probability is 0 whatever it is, so the pass must not compute it.
    theta = zero_policy(3, 2, 4)
    theta.b2[2] = 1000.0
    valid = np.array([True, True, False, True])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = policy_forward(theta, np.ones(3), valid)
    assert probs.tolist() == [1 / 3, 1 / 3, 0.0, 1 / 3]


def test_probabilities_normalize_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n_in, n_hid, n_act = 4, 3, 5
        theta = init_policy(n_in, n_hid, n_act, seed=int(rng.integers(1 << 30)))
        s = rng.normal(size=n_in)
        valid = rng.random(n_act) < 0.7
        if not valid.any():
            valid[int(rng.integers(n_act))] = True
        probs = policy_forward(theta, s, valid)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs[~valid] == 0.0)


def test_masked_actions_are_never_sampled():
    rng = np.random.default_rng(21)
    theta = init_policy(6, 5, 6, seed=3)
    valid = np.array([True, False, True, False, True, True])
    probs = policy_forward(theta, rng.normal(size=6), valid)
    draws = rng.choice(6, size=100_000, p=probs)
    assert not np.isin(draws, [1, 3]).any()


def test_sampler_draws_as_generator_choice():
    # _rollout samples with policy._sample, which must pick what
    # rng.choice(len(probs), p=probs) picks and consume the same draws.
    rng = np.random.default_rng(8)
    choice_rng = np.random.default_rng(9)
    sample_rng = np.random.default_rng(9)
    for _ in range(1500):
        n_act = int(rng.integers(2, 30))
        scale = rng.choice([0.05, 1.0, 10.0])
        theta = PolicyParams(
            w1=rng.normal(0, scale, (6, 4)),
            b1=rng.normal(0, scale, 4),
            w2=rng.normal(0, scale, (4, n_act)),
            b2=rng.normal(0, scale, n_act),
        )
        valid = rng.random(n_act) < 0.5
        valid[rng.integers(n_act)] = True
        probs = policy_forward(theta, rng.normal(size=6), valid)
        assert policy._sample(probs, sample_rng) == choice_rng.choice(n_act, p=probs)
    assert sample_rng.bit_generator.state == choice_rng.bit_generator.state


@pytest.mark.parametrize(
    "probs", [[0.5, math.nan, 0.5], [1.25, -0.25], [0.5, 0.4], [math.inf, 0.0]]
)
def test_sampler_rejects_what_generator_choice_rejects(probs):
    probs = np.array(probs)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(probs), p=probs)
    with pytest.raises(ValueError):
        policy._sample(probs, np.random.default_rng(0))


def test_forward_input_validation():
    theta = init_policy(4, 3, 2, seed=0)
    with pytest.raises(ConfigurationError):
        policy_forward(theta, np.zeros(5))
    with pytest.raises(ConfigurationError):
        policy_forward(theta, np.zeros(4), np.array([False, False]))
    with pytest.raises(ConfigurationError):
        policy_forward(theta, np.zeros(4), np.array([True, True, True]))


# ---------------------------------------------------------------------------
# Returns
# ---------------------------------------------------------------------------

def test_discounted_returns_hand_example():
    assert compute_returns([1.0, 1.0, 1.0], gamma=0.5).tolist() == [1.75, 1.5, 1.0]


def test_undiscounted_returns_are_suffix_sums():
    out = compute_returns([1.0, 2.0, 3.0], gamma=1.0)
    assert out.tolist() == [6.0, 5.0, 3.0]


def test_empty_returns():
    assert compute_returns([], gamma=0.9).size == 0


def test_returns_satisfy_the_recursion_exactly():
    rng = np.random.default_rng(31)
    for _ in range(50):
        rewards = list(rng.normal(size=int(rng.integers(1, 12))))
        gamma = float(rng.uniform(0.1, 1.0))
        v = compute_returns(rewards, gamma)
        for t in range(len(rewards) - 1):
            assert v[t] == rewards[t] + gamma * v[t + 1]
        assert v[-1] == rewards[-1]


def test_gamma_validation():
    with pytest.raises(ConfigurationError):
        compute_returns([1.0], gamma=0.0)
    with pytest.raises(ConfigurationError):
        compute_returns([1.0], gamma=1.5)


def test_trajectory_validation():
    with pytest.raises(ConfigurationError):
        Trajectory(states=[np.zeros(2)], actions=[0, 1], rewards=[0.0])
    with pytest.raises(ConfigurationError):
        Trajectory(states=[np.zeros(2)], actions=[0], rewards=[float("nan")])


# ---------------------------------------------------------------------------
# REINFORCE update
# ---------------------------------------------------------------------------

def test_zero_advantage_leaves_theta_unchanged():
    theta = init_policy(4, 3, 3, seed=1)
    traj = Trajectory(
        states=[np.ones(4), np.zeros(4)], actions=[0, 1], rewards=[0.0, 0.0]
    )
    config = TrainConfig(alpha=0.1, gamma=0.99, baseline="none")
    updated = reinforce_update(theta, traj, config)
    for before, after in zip(
        (theta.w1, theta.b1, theta.w2, theta.b2),
        (updated.w1, updated.b1, updated.w2, updated.b2),
    ):
        assert np.array_equal(before, after)


def test_positive_return_raises_chosen_action_probability():
    theta = init_policy(4, 3, 3, seed=2)
    s = np.array([0.2, -0.4, 0.6, 0.1])
    traj = Trajectory(states=[s], actions=[1], rewards=[1.0])
    config = TrainConfig(alpha=0.05, baseline="none")
    before = policy_forward(theta, s)[1]
    after = policy_forward(reinforce_update(theta, traj, config), s)[1]
    assert after > before


def test_analytic_gradient_matches_finite_differences():
    # Central differences on log pi(a | s) for every coordinate of theta.
    from cloudsched.policy import _log_policy_grad

    rng = np.random.default_rng(41)
    eps = 1e-5
    worst = 0.0
    for _ in range(10):
        theta = init_policy(5, 4, 4, seed=int(rng.integers(1 << 30)))
        s = rng.normal(size=5)
        valid = rng.random(4) < 0.8
        if not valid.any():
            valid[0] = True
        choices = np.flatnonzero(valid)
        a = int(choices[rng.integers(len(choices))])
        analytic = _log_policy_grad(theta, s, a, valid)

        def log_pi(t):
            return float(np.log(policy_forward(t, s, valid)[a]))

        for idx, name in enumerate(("w1", "b1", "w2", "b2")):
            arr = getattr(theta, name)
            grad = analytic[idx]
            it = np.nditer(arr, flags=["multi_index"])
            for _val in it:
                mi = it.multi_index
                bumped = theta.copy()
                getattr(bumped, name)[mi] += eps
                up = log_pi(bumped)
                bumped = theta.copy()
                getattr(bumped, name)[mi] -= eps
                down = log_pi(bumped)
                numeric = (up - down) / (2 * eps)
                err = abs(grad[mi] - numeric) / max(1.0, abs(numeric))
                worst = max(worst, err)
    assert worst <= 1e-4


def tensors_bytes(theta):
    return [a.tobytes() for a in (theta.w1, theta.b1, theta.w2, theta.b2)]


def without_passes(tr):
    return Trajectory(tr.states, tr.actions, tr.rewards, valid_masks=tr.valid_masks)


def counting_forward(monkeypatch):
    calls = []
    forward = policy._forward

    def counted(*args):
        calls.append(1)
        return forward(*args)

    monkeypatch.setattr(policy, "_forward", counted)
    return calls


def choice_steps(batch):
    """Steps with two or more valid actions: the only ones passed forward."""
    return sum(int(np.count_nonzero(m) > 1) for tr in batch for m in tr.valid_masks)


def rollouts(env, theta, seeds):
    rng = np.random.default_rng(11)
    return [policy._rollout(env, theta, rng, episode_seed=s) for s in seeds]


def test_update_reads_the_rollout_passes_to_the_same_bits(monkeypatch):
    env = tiny_env(n_tasks=6, reward=RewardConfig(k_w=0.1, k_u=0.0, resources=()))
    theta = init_policy(env.observation_dim, 8, env.n_actions, seed=4)
    batch = rollouts(env, theta, range(4))
    assert all(tr.theta is theta and len(tr.passes) == len(tr) for tr in batch)
    config = TrainConfig(alpha=0.05, gamma=0.9)
    calls = counting_forward(monkeypatch)
    stored = reinforce_update(theta, batch, config)
    assert calls == []  # no second forward pass
    recomputed = reinforce_update(theta, [without_passes(tr) for tr in batch], config)
    assert 0 < len(calls) == choice_steps(batch) < sum(len(tr) for tr in batch)
    assert tensors_bytes(stored) == tensors_bytes(recomputed)
    assert tensors_bytes(stored) != tensors_bytes(theta)


def test_update_under_another_theta_recomputes_the_passes(monkeypatch):
    env = tiny_env(n_tasks=6, reward=RewardConfig(k_w=0.1, k_u=0.0, resources=()))
    rolled = init_policy(env.observation_dim, 8, env.n_actions, seed=4)
    batch = rollouts(env, rolled, range(3))
    config = TrainConfig(alpha=0.05, gamma=0.9)
    bare = [without_passes(tr) for tr in batch]
    # Another policy, and an equal copy that is another object: both take
    # the recompute path and equal an update of the bare trajectories.
    for theta in (init_policy(env.observation_dim, 8, env.n_actions, seed=5), rolled.copy()):
        calls = counting_forward(monkeypatch)
        updated = reinforce_update(theta, batch, config)
        assert 0 < len(calls) == choice_steps(batch) < sum(len(tr) for tr in batch)
        assert tensors_bytes(updated) == tensors_bytes(reinforce_update(theta, bare, config))
        monkeypatch.undo()


def reference_train(env, config):
    """train as it ran before one-action steps were skipped: a full forward
    pass and a sample at every step, and every step's gradient summed."""
    theta = init_policy(env.observation_dim, config.hidden, env.n_actions, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    batch, forced = [], 0
    for episode in range(config.episodes):
        obs, mask = env.reset(seed=episode)
        steps, rewards, done = [], [], False
        while not done:
            a = policy._sample(policy._forward(theta, obs, mask)[1], rng)
            forced += int(np.count_nonzero(mask) == 1)
            steps.append((obs, a, mask))
            obs, mask, reward, done = env.step(a)
            rewards.append(reward)
        batch.append((steps, compute_returns(rewards, config.gamma)))
        if len(batch) == config.batch_size or episode == config.episodes - 1:
            baseline = float(np.concatenate([v for _, v in batch]).mean())
            tensors = (theta.w1, theta.b1, theta.w2, theta.b2)
            sums = [np.zeros_like(x) for x in tensors]
            for steps, returns in batch:
                for (s, a, mask), v in zip(steps, returns):
                    for total, g in zip(sums, policy._log_policy_grad(theta, s, a, mask)):
                        total += (v - baseline) * g
            theta = PolicyParams(*(x + config.alpha * g for x, g in zip(tensors, sums)))
            batch = []
    return theta, rng, forced


def test_training_equals_the_every_step_reference(monkeypatch):
    # Episodes with waits in which only the no-op is valid: train skips
    # their network and gradient, the reference runs both.
    rngs = []
    rollout = policy._rollout

    def recording(env, theta, rng, *args, **kwargs):
        rngs.append(rng)
        return rollout(env, theta, rng, *args, **kwargs)

    monkeypatch.setattr(policy, "_rollout", recording)
    env = tiny_env(n_tasks=6, reward=RewardConfig(k_w=0.1, k_u=0.0, resources=()))
    config = TrainConfig(episodes=12, batch_size=4, hidden=8, alpha=0.05, gamma=0.9, seed=7)
    theta, _ = train(env, config)
    want, want_rng, forced = reference_train(env, config)
    assert forced > 0
    assert tensors_bytes(theta) == tensors_bytes(want)
    assert rngs[0].bit_generator.state == want_rng.bit_generator.state


def test_a_non_finite_step_gradient_is_named():
    from cloudsched.errors import TrainingError

    theta = init_policy(4, 3, 3, seed=1)
    states = [np.full(4, 0.1 * t) for t in range(4)]
    states[2] = np.array([np.inf, 0.0, 0.0, 0.0])  # tanh saturates: inf * 0 in grad w1
    bad = Trajectory(states=states, actions=[0, 1, 2, 0], rewards=[1.0, 0.5, 2.0, 1.0])
    good = Trajectory(states=states[:2], actions=[1, 1], rewards=[1.0, 1.0])
    config = TrainConfig(alpha=0.01, baseline="none")
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingError, match="non-finite gradient at step 2$"):
            reinforce_update(theta, bad, config)
        with pytest.raises(TrainingError, match="non-finite gradient at step 2$"):
            reinforce_update(theta, [good, bad], config)
        # Every step's gradient finite, the weighted sum not: the sum is named.
        huge = Trajectory(states=states[:2], actions=[1, 1], rewards=[1e308, 1e308])
        with pytest.raises(TrainingError, match="non-finite gradient sum over the batch"):
            reinforce_update(theta, huge, TrainConfig(gamma=1.0, baseline="none"))


def test_a_reward_without_resources_equals_the_snapshot_reward():
    # With no per-resource term on, total_reward reads no machine; the env's
    # reward must still have the bits of the reward of the full per-step
    # snapshot (tests/helpers), overuse charges included.
    vms = [vm(0), vm(1, mips=500.0)]
    params = TaskGenParams(length_range=(500.0, 3000.0), mean_interarrival=0.5, n_users=3)
    profiles = [UsageProfile(u, d, [0.6, 0.7]) for u in range(3) for d in ("cpu", "memory")]

    def source(seed):
        return WorkloadSet.from_tasks(vms, generate_tasks(12, seed=seed, params=params), profiles)

    config = RewardConfig(k_w=0.3, k_o=2.0, resources=())
    env = SchedulingEnv(source, config, lookahead=3, ready_slots=3)
    rng = np.random.default_rng(8)
    fired = 0
    for seed in range(5):
        env.reset(seed=seed)
        twin = init_state(env.state.workload)
        done = False
        while not done:
            choices = np.flatnonzero(valid_actions(env.state, env.ready_slots))
            a = int(choices[rng.integers(len(choices))])
            fresh = step(twin, env.decode_action(a))
            _, _, reward, done = env.step(a)
            assert reward.hex() == old_reward(twin, fresh, config).hex()
            fired += len(fresh)
    assert fired > 0


@pytest.mark.parametrize(
    "config",
    [
        RewardConfig(),
        RewardConfig(resources=()),
        RewardConfig(k_u=0.0),
        RewardConfig(k_c=0.3, k_u=1.5, resources=("cpu", "memory")),
    ],
    ids=["snapshot", "no-resources", "no-utilization", "two-resources"],
)
def test_env_rewards_equal_the_stepper_rewards_on_competing_users(config):
    # The rewards training reads: the env scores each step straight from the
    # machines. Each reward has the bits, signed zeros included, of the
    # per-step snapshot's reward (tests/helpers) on a twin state stepped
    # alone by simulator.step, on users whose profiles share machines, so
    # competition and overuse both fire.
    vms = [vm(0), vm(1, mips=500.0)]
    params = TaskGenParams(length_range=(500.0, 3000.0), mean_interarrival=0.5, n_users=4)
    series = np.random.default_rng(3).uniform(0.1, 0.6, (4, len(RESOURCES), 24))
    profiles = [UsageProfile(u, d, series[u, i]) for u in range(4) for i, d in enumerate(RESOURCES)]

    def source(seed):
        return WorkloadSet.from_tasks(vms, generate_tasks(12, seed=seed, params=params), profiles)

    env = SchedulingEnv(source, config, lookahead=3, ready_slots=3)
    rng = np.random.default_rng(9)
    competed = fired = 0
    for seed in range(4):
        env.reset(seed=seed)
        twin = init_state(env.state.workload)
        done = False
        while not done:
            choices = np.flatnonzero(valid_actions(env.state, env.ready_slots))
            a = int(choices[rng.integers(len(choices))])
            fresh = step(twin, env.decode_action(a))
            _, _, reward, done = env.step(a)
            old = old_snapshot(twin, fresh)
            assert reward.hex() == old_breakdown(old, config).total.hex()
            competed += old_breakdown(old, RewardConfig()).competition < 0
            fired += len(fresh)
    assert competed > 0 and fired > 0


def test_the_env_steps_and_scores_through_the_names_policy_binds(monkeypatch):
    # A tracer wraps functions where the calling module binds them
    # (setattr on policy), so SchedulingEnv.step must call policy.step and
    # policy.total_reward once each per step for their spans to count it.
    calls = {"step": 0, "total_reward": 0}

    def counting(name):
        inner = getattr(policy, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(policy, name, counting(name))
    vms = [vm(0), vm(1, mips=500.0)]
    profiles = [UsageProfile(u, d, [0.3, 0.6]) for u in range(3) for d in RESOURCES]
    tasks = generate_tasks(10, seed=1, params=TaskGenParams(n_users=3))
    env = SchedulingEnv(WorkloadSet.from_tasks(vms, tasks, profiles), RewardConfig())
    _, mask = env.reset(seed=0)
    steps, done = 0, False
    while not done:
        _, mask, _, done = env.step(int(np.flatnonzero(mask)[0]))
        steps += 1
    assert env.state.done and steps >= 10
    assert calls == {"step": steps, "total_reward": steps}


def test_divergent_training_is_reported():
    from cloudsched.errors import TrainingError

    config = TrainConfig(
        episodes=4, batch_size=1, alpha=1e8, hidden=8, seed=0, baseline="none"
    )
    with pytest.raises(TrainingError, match="smaller alpha"):
        train(tiny_env(), config)


# ---------------------------------------------------------------------------
# State encoding
# ---------------------------------------------------------------------------

def test_idle_empty_system_encodes_to_zeros():
    wl = WorkloadSet.from_tasks([vm(0), vm(1)], [])
    state = init_state(wl)
    obs = encode_state(state, 3, ready_slots=4)
    assert obs.shape == (observation_size(2, 3, 4),)
    assert np.all(obs == 0.0)


def test_saturated_machine_encodes_to_ones():
    wl = WorkloadSet.from_tasks([vm(0)], [task(0, length=50_000.0)])
    state = init_state(wl)
    step(state, (0, 0))  # 50 s backlog on one machine
    obs = encode_state(state, 3, ready_slots=2)
    assert obs[:3].tolist() == [1.0, 1.0, 1.0]


def test_encoding_dimension_is_fixed():
    env = tiny_env()
    obs, mask = env.reset(seed=0)
    assert obs.shape == (env.observation_dim,)
    assert mask.shape == (env.n_actions,)
    assert env.observation_dim == observation_size(2, 3, 3)
    assert env.n_actions == action_count(2, 3)


def test_valid_actions_reflect_ready_slots_and_noop():
    wl = WorkloadSet.from_tasks([vm(0), vm(1)], [task(0)])
    state = init_state(wl)
    mask = valid_actions(state, ready_slots=3)
    # One ready task: its two machine pairings are valid, later slots are not.
    assert mask.tolist() == [True, True, False, False, False, False, True]
    # More ready tasks than slots: every slot pairs with every machine.
    crowded = init_state(WorkloadSet.from_tasks([vm(0), vm(1)], [task(i) for i in range(3)]))
    assert valid_actions(crowded, ready_slots=2).tolist() == [True] * 5


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def test_episode_runs_to_completion_under_noops_and_dispatches():
    env = tiny_env()
    obs, mask = env.reset(seed=0)
    steps = 0
    done = False
    while not done:
        choices = np.flatnonzero(mask)
        obs, mask, reward, done = env.step(int(choices[0]))
        assert reward <= 0.0  # penalties only
        steps += 1
    assert env.state.done or steps >= _STEP_CAP_FACTOR * 4


def test_zero_task_episode_ends_after_one_noop():
    env = SchedulingEnv(WorkloadSet.from_tasks([vm(0)], []))
    obs, mask = env.reset()
    assert np.flatnonzero(mask).tolist() == [env.n_actions - 1]
    _, _, reward, done = env.step(env.n_actions - 1)
    assert done and reward == 0.0
    assert env.trace().queue_series == []


def test_noop_decode_is_none():
    env = tiny_env()
    env.reset(seed=0)
    assert env.decode_action(env.n_actions - 1) is None


def test_out_of_range_action_indices_are_rejected():
    # 2 VMs, 2 ready slots and 8 tasks ready at t=0, so n_actions == 5.
    # -1 and -3 used to wrap around to tasks 7 and 6, and 5 and 6 to reach
    # past the observed slots to tasks 2 and 3.
    wl = WorkloadSet.from_tasks([vm(0), vm(1)], [task(i) for i in range(8)])
    env = SchedulingEnv(wl, lookahead=3, ready_slots=2)
    env.reset()
    assert env.n_actions == 5 and len(env.state.ready) == 8
    for index in (-1, -3, 5, 6):
        with pytest.raises(ConfigurationError, match=rf"^action {index} is outside \[0, 5\)$"):
            env.decode_action(index)
        with pytest.raises(ConfigurationError, match=rf"^action {index} is outside"):
            env.step(index)
    assert env.decode_action(3) == (1, 1)
    assert env.decode_action(4) is None
    assert len(env.state.ready) == 8


def test_env_requires_reset_before_step():
    env = tiny_env()
    with pytest.raises(ConfigurationError):
        env.step(0)


@pytest.mark.parametrize("name", ["lookahead", "ready_slots"])
@pytest.mark.parametrize("value", [0, -2])
def test_env_rejects_empty_windows_when_built(name, value):
    # Such an environment used to build and fail at its first reset().
    wl = WorkloadSet.from_tasks([vm(0)], [task(0)])
    with pytest.raises(ConfigurationError, match=rf"^{name} must be >= 1, got {value}$"):
        SchedulingEnv(wl, **{name: value})


@pytest.mark.parametrize("episodes", [0, -1])
def test_evaluation_needs_an_episode(episodes):
    # A mean over no episodes used to read 0.0.
    with pytest.raises(ConfigurationError, match=rf"^episodes must be >= 1, got {episodes}$"):
        evaluate_policy(tiny_env(), None, episodes=episodes)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_zero_episodes_returns_the_initial_policy():
    env = tiny_env()
    config = TrainConfig(episodes=0, hidden=8, seed=5)
    theta, curve = train(env, config)
    init = init_policy(env.observation_dim, 8, env.n_actions, seed=5)
    assert curve == []
    assert np.array_equal(theta.w1, init.w1)
    assert np.array_equal(theta.b2, init.b2)


def test_training_is_deterministic_per_seed():
    config = TrainConfig(episodes=16, batch_size=4, hidden=8, alpha=0.02, seed=3)
    _, curve_a = train(tiny_env(), config)
    _, curve_b = train(tiny_env(), config)
    assert curve_a == curve_b
    assert len(curve_a) == 16


def test_training_curve_adds_each_episode_left_to_right(monkeypatch):
    # Fractional queue penalties over 89-step episodes, where the order of
    # the additions shows in the last bits: a compensated sum, as builtin
    # sum() takes from Python 3.12, differs from the left-to-right one.
    episodes = []
    rollout = policy._rollout

    def recording(*args, **kwargs):
        traj = rollout(*args, **kwargs)
        episodes.append(traj.rewards)
        return traj

    monkeypatch.setattr(policy, "_rollout", recording)
    env = tiny_env(n_tasks=30, reward=RewardConfig(k_w=0.1, k_u=0.0, resources=()))
    _, curve = train(env, TrainConfig(episodes=8, batch_size=4, hidden=8, seed=3))
    left_to_right = []
    for rewards in episodes:
        total = 0.0
        for r in rewards:
            total += r
        left_to_right.append(total)
    assert curve == left_to_right
    assert all(c != math.fsum(rewards) for c, rewards in zip(curve, episodes))


def test_evaluation_is_deterministic():
    env = tiny_env()
    theta, _ = train(env, TrainConfig(episodes=8, batch_size=4, hidden=8, seed=1))
    a = evaluate_policy(env, theta, episodes=5, seed=77)
    b = evaluate_policy(env, theta, episodes=5, seed=77)
    assert a == b


def test_random_policy_evaluation_uses_valid_actions_only():
    env = tiny_env()
    value = evaluate_policy(env, None, episodes=3, seed=5)
    assert np.isfinite(value)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_policy_roundtrip_is_exact(tmp_path):
    theta = init_policy(7, 5, 4, seed=13)
    path = tmp_path / "policy.txt"
    save_policy(theta, str(path))
    back = load_policy(str(path))
    assert np.array_equal(back.w1, theta.w1)
    assert np.array_equal(back.b1, theta.b1)
    assert np.array_equal(back.w2, theta.w2)
    assert np.array_equal(back.b2, theta.b2)


def test_policy_file_header_is_versioned(tmp_path):
    theta = init_policy(3, 2, 2, seed=0)
    path = tmp_path / "policy.txt"
    save_policy(theta, str(path))
    assert path.read_text().splitlines()[0] == "cloudsched-policy 1"
    assert path.read_text().splitlines()[1] == "3 2 2"


def test_corrupt_policy_files_rejected(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("cloudsched-policy 1\n3 2 2\n0.0 0.0\n")
    with pytest.raises(ConfigurationError):
        load_policy(str(path))
    path.write_text("other-format 9\n")
    with pytest.raises(ConfigurationError):
        load_policy(str(path))
    # Each fault names the file, and a bad number its line.
    good = "cloudsched-policy 1\n1 1 1\n0.5\n0.5\n0.5\n0.5\n"
    for text, reason in [
        (good.replace("1 1 1", "1 1 x"), "line 2: 'x' is not a number"),
        (good.replace("1 1 1", "1 1"), "line 2: dims must be three positive integers"),
        (good.replace("1 1 1", "-1 -1 1"), "line 2: dims must be three positive integers"),
        (good.replace("\n0.5\n0.5\n0.5\n", "\n\n0.5\n0.5\n0,5\n"), "line 6: '0,5' is not a number"),
        (good.replace("\n0.5\n0.5\n0.5\n", "\n0.5\n0.5 0.5\n0.5\n"), "line 4: tensor holds 2 values, expected 1"),
        (good.replace("0.5\n0.5\n0.5\n0.5", "0.5\nnan\n0.5\n0.5"), "policy parameters must be finite"),
        (good.replace("policy 1", "policy 2"), "unsupported header 'cloudsched-policy 2'"),
    ]:
        path.write_text(text)
        with pytest.raises(ConfigurationError) as err:
            load_policy(str(path))
        assert str(err.value) == f"cannot read policy file {path}: {reason}"
    path.write_bytes(good.replace("0.5", "\u00e9", 1).encode("latin-1"))
    with pytest.raises(ConfigurationError, match=r"policy file .*broken.txt: not UTF-8 \(byte 26\)"):
        load_policy(str(path))

"""Monte Carlo policy gradient (REINFORCE) over the online simulator.

The policy is a single hidden layer network (tanh activation, softmax
output) mapping an encoded system state to a distribution over
(ready slot, machine) dispatch actions plus one no-op. Invalid actions are
masked to probability exactly zero before normalization. Updates follow

    theta <- theta + alpha * sum_t grad log pi(s_t, a_t) * (v_t - baseline)

with v_t the discounted suffix return and an optional mean-return baseline.
Gradients are computed analytically and verified against finite differences
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, TrainingError
from .rewards import RewardConfig, total_reward
from .simulator import SimState, init_state, step
from .workload import WorkloadSet

_INIT_SCALE = 0.05
_DIVERGENCE_BOUND = 1e3  # mean |theta| above which training is reported as diverged
_STEP_CAP_FACTOR = 10  # an episode ends after this many steps per task
# Normalization references for the ready-slot and queue features.
_LENGTH_SCALE = 5000.0
_SIZE_SCALE = 200.0
_WAIT_SCALE = 10.0
_QUEUE_SCALE = 50.0


@dataclass
class PolicyParams:
    """Network weights: input->hidden (w1, b1) and hidden->actions (w2, b2)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=float)
        self.b1 = np.asarray(self.b1, dtype=float)
        self.w2 = np.asarray(self.w2, dtype=float)
        self.b2 = np.asarray(self.b2, dtype=float)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ConfigurationError("weight matrices must be 2-d")
        if self.b1.shape != (self.w1.shape[1],) or self.b2.shape != (self.w2.shape[1],):
            raise ConfigurationError("bias shapes do not match weight matrices")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ConfigurationError("hidden widths of w1 and w2 disagree")
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError("policy parameters must be finite")

    @property
    def n_inputs(self) -> int:
        return self.w1.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def n_actions(self) -> int:
        return self.w2.shape[1]

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def mean_abs(self) -> float:
        total = sum(np.abs(a).sum() for a in (self.w1, self.b1, self.w2, self.b2))
        count = sum(a.size for a in (self.w1, self.b1, self.w2, self.b2))
        return float(total / count)


def init_policy(n_inputs: int, n_hidden: int, n_actions: int, seed: int = 0) -> PolicyParams:
    """Seeded uniform initialization in [-0.05, 0.05]; near-uniform policy."""
    if min(n_inputs, n_hidden, n_actions) < 1:
        raise ConfigurationError("all layer sizes must be >= 1")
    rng = np.random.default_rng(seed)
    return PolicyParams(
        w1=rng.uniform(-_INIT_SCALE, _INIT_SCALE, (n_inputs, n_hidden)),
        b1=rng.uniform(-_INIT_SCALE, _INIT_SCALE, n_hidden),
        w2=rng.uniform(-_INIT_SCALE, _INIT_SCALE, (n_hidden, n_actions)),
        b2=rng.uniform(-_INIT_SCALE, _INIT_SCALE, n_actions),
    )


def policy_forward(
    theta: PolicyParams, state_vec: np.ndarray, valid: np.ndarray | None = None
) -> np.ndarray:
    """Action distribution for one encoded state; masked entries are exactly 0."""
    return _forward(theta, state_vec, valid)[1]


def _forward(
    theta: PolicyParams, state_vec: np.ndarray, valid: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """policy_forward's checks and pass, returning (hidden layer, probs)."""
    s = np.asarray(state_vec, dtype=float)
    if s.shape != (theta.n_inputs,):
        raise ConfigurationError(
            f"state dimension {s.shape} does not match policy input {theta.n_inputs}"
        )
    if valid is None:
        valid = np.ones(theta.n_actions, dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != (theta.n_actions,):
            raise ConfigurationError("valid mask length does not match action count")
        if not valid.any():
            raise ConfigurationError("at least one action must be valid")
    hidden = np.tanh(s @ theta.w1 + theta.b1)
    logits = hidden @ theta.w2 + theta.b2
    shifted = logits - logits[valid].max()
    expv = np.where(valid, np.exp(shifted), 0.0)
    return hidden, expv / expv.sum()


def _episode_return(rewards: Sequence[float]) -> float:
    """Undiscounted sum of an episode's rewards, added left to right from
    0.0. Builtin sum() compensates float sums from Python 3.12, which would
    change the training bytes between interpreter versions."""
    total = 0.0
    for r in rewards:
        total += r
    return total


def compute_returns(rewards: Sequence[float], gamma: float) -> np.ndarray:
    """Discounted suffix sums: v_t = sum_{k>=t} gamma^(k-t) r_k."""
    if not 0.0 < gamma <= 1.0:
        raise ConfigurationError("gamma must lie in (0, 1]")
    out = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


@dataclass
class Trajectory:
    """One episode rollout: aligned (state, action, reward) plus masks."""

    states: list[np.ndarray]
    actions: list[int]
    rewards: list[float]
    valid_masks: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if len(self.states) != len(self.actions) or len(self.actions) != len(self.rewards):
            raise ConfigurationError("trajectory fields must have equal length")
        if self.valid_masks and len(self.valid_masks) != len(self.actions):
            raise ConfigurationError("valid_masks must align with actions")
        if any(not np.isfinite(r) for r in self.rewards):
            raise ConfigurationError("trajectory rewards must be finite")

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class TrainConfig:
    """REINFORCE hyperparameters."""

    alpha: float = 0.05
    gamma: float = 0.99
    episodes: int = 300
    batch_size: int = 5
    seed: int = 0
    baseline: str = "mean-return"
    hidden: int = 16

    def __post_init__(self):
        if not self.alpha > 0:  # also false for NaN
            raise ConfigurationError("alpha must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError("gamma must lie in (0, 1]")
        if self.episodes < 0:
            raise ConfigurationError("episodes must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.baseline not in ("none", "mean-return"):
            raise ConfigurationError("baseline must be 'none' or 'mean-return'")
        if self.hidden < 1:
            raise ConfigurationError("hidden width must be >= 1")


def _log_policy_grad(
    theta: PolicyParams, s: np.ndarray, a: int, valid: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Analytic grad of log pi(a | s) for every parameter tensor."""
    hidden, probs = _forward(theta, s, valid)
    dlogits = -probs
    dlogits[a] += 1.0  # masked entries have p == 0 so their grad stays 0
    gw2 = np.outer(hidden, dlogits)
    gb2 = dlogits
    dh = theta.w2 @ dlogits
    dz1 = dh * (1.0 - hidden**2)
    gw1 = np.outer(s, dz1)
    gb1 = dz1
    return gw1, gb1, gw2, gb2


def reinforce_update(
    theta: PolicyParams,
    trajectories: Trajectory | Sequence[Trajectory],
    config: TrainConfig,
) -> PolicyParams:
    """One ascent step over a trajectory or a batch of them.

    Returns are computed per episode; the optional baseline is the mean
    return across everything in the batch. All-zero returns leave theta
    unchanged.
    """
    if isinstance(trajectories, Trajectory):
        trajectories = [trajectories]
    all_returns = [compute_returns(tr.rewards, config.gamma) for tr in trajectories]
    flat = np.concatenate(all_returns) if all_returns else np.zeros(0)
    baseline = float(flat.mean()) if (config.baseline == "mean-return" and flat.size) else 0.0

    gw1 = np.zeros_like(theta.w1)
    gb1 = np.zeros_like(theta.b1)
    gw2 = np.zeros_like(theta.w2)
    gb2 = np.zeros_like(theta.b2)
    for tr, returns in zip(trajectories, all_returns):
        masks = tr.valid_masks if tr.valid_masks else [None] * len(tr)
        for t in range(len(tr)):
            advantage = returns[t] - baseline
            if advantage == 0.0:
                continue
            g1, g2, g3, g4 = _log_policy_grad(theta, tr.states[t], tr.actions[t], masks[t])
            if not all(np.all(np.isfinite(g)) for g in (g1, g2, g3, g4)):
                raise TrainingError(f"non-finite gradient at step {t}")
            gw1 += advantage * g1
            gb1 += advantage * g2
            gw2 += advantage * g3
            gb2 += advantage * g4
    return PolicyParams(
        w1=theta.w1 + config.alpha * gw1,
        b1=theta.b1 + config.alpha * gb1,
        w2=theta.w2 + config.alpha * gw2,
        b2=theta.b2 + config.alpha * gb2,
    )


# ---------------------------------------------------------------------------
# State encoding and the scheduling environment
# ---------------------------------------------------------------------------

def encode_state(state: SimState, lookahead: int = 3, *, ready_slots: int = 5) -> np.ndarray:
    """Fixed-size encoding of machine backlogs and the head of the queue.

    Per machine: `lookahead` slot-occupancy values (1 while the backlog of
    in-flight plus queued work covers the slot, fractional at the edge).
    Per ready slot: normalized length, input and output sizes, wait so far.
    One extra feature holds the waiting count. An empty idle system encodes
    to the zero vector.
    """
    if lookahead < 1 or ready_slots < 1:
        raise ConfigurationError("lookahead and ready_slots must be >= 1")
    feats: list[float] = []
    for machine in state.machines:
        backlog = max(0.0, machine.busy_until - state.clock) if machine.running is not None else 0.0
        for _, service in machine.queue:
            backlog += service
        for slot in range(lookahead):
            feats.append(min(1.0, max(0.0, backlog - slot)))
    for slot in range(ready_slots):
        if slot < len(state.ready):
            task = state.tasks[state.ready[slot]]
            feats.append(min(1.0, task.length / _LENGTH_SCALE))
            feats.append(min(1.0, task.input_size / _SIZE_SCALE))
            feats.append(min(1.0, task.output_size / _SIZE_SCALE))
            waited = state.clock - state.ready_times[task.id]
            feats.append(min(1.0, max(0.0, waited) / _WAIT_SCALE))
        else:
            feats.extend([0.0, 0.0, 0.0, 0.0])
    feats.append(min(1.0, state.waiting_count() / _QUEUE_SCALE))
    return np.asarray(feats)


def observation_size(n_machines: int, lookahead: int = 3, ready_slots: int = 5) -> int:
    return n_machines * lookahead + ready_slots * 4 + 1


def action_count(n_machines: int, ready_slots: int = 5) -> int:
    return ready_slots * n_machines + 1


def valid_actions(state: SimState, ready_slots: int = 5) -> np.ndarray:
    """Mask over (ready slot, machine) pairs plus the always-valid no-op:
    every machine is open to every occupied ready slot."""
    n_machines = len(state.machines)
    mask = np.zeros(action_count(n_machines, ready_slots), dtype=bool)
    mask[: min(ready_slots, len(state.ready)) * n_machines] = True
    mask[-1] = True  # no-op
    return mask


class SchedulingEnv:
    """Episodic wrapper pairing the online simulator with a reward model.

    workload_source is either a fixed WorkloadSet or a callable seed ->
    WorkloadSet producing a fresh instance per episode. Episodes end when
    every task completed or after _STEP_CAP_FACTOR steps per task.
    """

    def __init__(
        self,
        workload_source: WorkloadSet | Callable[[int], WorkloadSet],
        reward_config: RewardConfig = RewardConfig(resources=()),
        *,
        lookahead: int = 3,
        ready_slots: int = 5,
    ):
        self._source = workload_source
        self.reward_config = reward_config
        self.lookahead = lookahead
        self.ready_slots = ready_slots
        probe = self._workload_for(0)
        self.n_machines = len(probe.vms)
        self.observation_dim = observation_size(self.n_machines, lookahead, ready_slots)
        self.n_actions = action_count(self.n_machines, ready_slots)
        self._state: SimState | None = None
        self._steps = 0
        self._cap = 0

    def _workload_for(self, seed: int) -> WorkloadSet:
        wl = self._source(seed) if callable(self._source) else self._source
        if not wl.vms:
            raise ConfigurationError("environment workload needs at least one machine")
        return wl

    def reset(self, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        wl = self._workload_for(seed)
        if len(wl.vms) != self.n_machines:
            raise ConfigurationError("machine count must stay fixed across episodes")
        self._state = init_state(wl)
        self._steps = 0
        self._cap = _STEP_CAP_FACTOR * max(1, len(wl.tasks))
        return self._observe()

    def _observe(self) -> tuple[np.ndarray, np.ndarray]:
        obs = encode_state(self._state, self.lookahead, ready_slots=self.ready_slots)
        mask = valid_actions(self._state, self.ready_slots)
        return obs, mask

    def decode_action(self, index: int) -> tuple[int, int] | None:
        """Map an action index to (task_id, machine_id), or None for no-op."""
        if index == self.n_actions - 1:
            return None
        slot, j = divmod(index, self.n_machines)
        if slot >= len(self._state.ready):
            raise ConfigurationError(f"action {index} points at an empty ready slot")
        return self._state.ready[slot], self._state.machines[j].spec.id

    def step(self, action_index: int) -> tuple[np.ndarray, np.ndarray, float, bool]:
        if self._state is None:
            raise ConfigurationError("call reset() before step()")
        decoded = self.decode_action(int(action_index))
        self._state, inputs = step(self._state, decoded)
        reward = total_reward(inputs, self.reward_config)
        self._steps += 1
        done = self._state.done or self._steps >= self._cap
        obs, mask = self._observe()
        return obs, mask, reward, done

    @property
    def state(self) -> SimState:
        return self._state

    def trace(self):
        return self._state.trace()


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------

def _rollout(
    env: SchedulingEnv,
    theta: PolicyParams | None,
    rng: np.random.Generator,
    episode_seed: int,
    greedy: bool = False,
) -> Trajectory:
    obs, mask = env.reset(seed=episode_seed)
    states, actions, rewards, masks = [], [], [], []
    done = False
    while not done:
        if theta is None:
            choices = np.flatnonzero(mask)
            a = int(choices[rng.integers(0, len(choices))])
        else:
            probs = policy_forward(theta, obs, mask)
            if greedy:
                a = int(np.argmax(probs))
            else:
                a = int(rng.choice(len(probs), p=probs))
        states.append(obs)
        actions.append(a)
        masks.append(mask)
        obs, mask, reward, done = env.step(a)
        rewards.append(reward)
    return Trajectory(states=states, actions=actions, rewards=rewards, valid_masks=masks)


def train(env: SchedulingEnv, config: TrainConfig = TrainConfig()) -> tuple[PolicyParams, list[float]]:
    """REINFORCE over env episodes; returns (theta, per-episode return curve).

    Deterministic for a fixed (env, config). Raises TrainingError when the
    mean |theta| exceeds the divergence bound (try a smaller alpha).
    """
    theta = init_policy(env.observation_dim, config.hidden, env.n_actions, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    curve: list[float] = []
    batch: list[Trajectory] = []
    for episode in range(config.episodes):
        traj = _rollout(env, theta, rng, episode_seed=episode)
        curve.append(float(_episode_return(traj.rewards)))
        batch.append(traj)
        if len(batch) >= config.batch_size or episode == config.episodes - 1:
            theta = reinforce_update(theta, batch, config)
            batch = []
            if theta.mean_abs() > _DIVERGENCE_BOUND:
                raise TrainingError(
                    f"policy diverged (mean |theta| > {_DIVERGENCE_BOUND}); try a smaller alpha"
                )
    return theta, curve


def evaluate_policy(
    env: SchedulingEnv,
    theta: PolicyParams | None,
    episodes: int = 20,
    seed: int = 9090,
    greedy: bool = True,
) -> float:
    """Mean episode return; theta=None plays uniformly over valid actions."""
    rng = np.random.default_rng(seed)
    totals = []
    for e in range(episodes):
        traj = _rollout(env, theta, rng, episode_seed=seed + e, greedy=greedy)
        totals.append(_episode_return(traj.rewards))
    return float(np.mean(totals)) if totals else 0.0


# ---------------------------------------------------------------------------
# Serialization: versioned text document, dims header + row-major weights
# ---------------------------------------------------------------------------

_POLICY_MAGIC = "cloudsched-policy"
_POLICY_VERSION = 1


def save_policy(theta: PolicyParams, path: str) -> None:
    """Write `cloudsched-policy <version>`, a dims line, then one
    whitespace-separated row-major line per tensor (w1, b1, w2, b2)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_POLICY_MAGIC} {_POLICY_VERSION}\n")
        fh.write(f"{theta.n_inputs} {theta.n_hidden} {theta.n_actions}\n")
        for arr in (theta.w1, theta.b1, theta.w2, theta.b2):
            fh.write(" ".join(repr(float(x)) for x in np.ravel(arr)))
            fh.write("\n")


def load_policy(path: str) -> PolicyParams:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh.readlines() if ln.strip()]
    if len(lines) != 6:
        raise ConfigurationError("policy file must hold header, dims and 4 tensor lines")
    magic = lines[0].split()
    if magic[0] != _POLICY_MAGIC or int(magic[1]) != _POLICY_VERSION:
        raise ConfigurationError(f"unsupported policy file header: {lines[0]!r}")
    n_in, n_hid, n_act = (int(x) for x in lines[1].split())
    shapes = [(n_in, n_hid), (n_hid,), (n_hid, n_act), (n_act,)]
    tensors = []
    for line, shape in zip(lines[2:], shapes):
        vals = np.array([float(x) for x in line.split()])
        expect = int(np.prod(shape))
        if vals.size != expect:
            raise ConfigurationError(
                f"policy tensor holds {vals.size} values, expected {expect}"
            )
        tensors.append(vals.reshape(shape))
    return PolicyParams(*tensors)

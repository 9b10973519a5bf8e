"""Monte Carlo policy gradient (REINFORCE) over the online simulator.

The policy is a single hidden layer network (tanh activation, softmax
output) mapping an encoded system state to a distribution over
(ready slot, machine) dispatch actions plus one no-op. Invalid actions are
masked to probability exactly zero before normalization. Updates follow

    theta <- theta + alpha * sum_t grad log pi(s_t, a_t) * (v_t - baseline)

with v_t the discounted suffix return and an optional mean-return baseline.
Gradients are computed analytically and verified against finite differences
in the test suite.

A step whose mask admits one action is not a decision, and the network is
not evaluated for it. Its probability is exactly 1: for any finite logit the
masked softmax gives that one-hot too, since the shifted logit is 0 and
exp(0) / 1 == 1.0. Its gradient is exactly 0 (log 1), so the update skips
it; its terms would all be +-0, which leave every bit of the summed
gradients as they are. A sampled rollout still draws the one uniform that
sampling from the one-hot would draw, so the generator stays in step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, TrainingError
from .rewards import RewardConfig, step_reward
from .rewards import total_reward  # noqa: F401 (unread; bound for perfbench's tracer, which wraps it here)
from .simulator import SimState, _advance, init_state
from .simulator import step  # noqa: F401 (unread; bound for perfbench's tracer, which wraps it here)
from .workload import WorkloadSet

_INIT_SCALE = 0.05
_DIVERGENCE_BOUND = 1e3  # mean |theta| above which training is reported as diverged
_STEP_CAP_FACTOR = 10  # an episode ends after this many steps per task
# Normalization references for the ready-slot and queue features.
_LENGTH_SCALE = 5000.0
_SIZE_SCALE = 200.0
_WAIT_SCALE = 10.0
_QUEUE_SCALE = 50.0
_EMPTY_SLOT = (0.0, 0.0, 0.0, 0.0)  # the features of an empty ready slot
_PROBS_ATOL = math.sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance on sum(p)


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
    """Action distribution for one encoded state; masked entries are exactly 0.

    A mask with one valid action holds no decision: after the input checks
    the exact one-hot is returned without evaluating the network.
    """
    s, valid = _checked(theta, state_vec, valid)
    only = _only_action(valid)
    if only is None:
        return _pass(theta, s, valid)[1]
    probs = np.zeros(theta.n_actions)
    probs[only] = 1.0
    return probs


def _forward(
    theta: PolicyParams, state_vec: np.ndarray, valid: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """policy_forward's checks and the full pass, returning (hidden layer,
    probs), whatever the mask."""
    return _pass(theta, *_checked(theta, state_vec, valid))


def _checked(
    theta: PolicyParams, state_vec: np.ndarray, valid: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The state and the mask as arrays, once their sizes fit theta."""
    s = np.asarray(state_vec, dtype=float)
    if s.shape != (theta.n_inputs,):
        raise ConfigurationError(
            f"state dimension {s.shape} does not match policy input {theta.n_inputs}"
        )
    if valid is None:
        return s, np.ones(theta.n_actions, dtype=bool)
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != (theta.n_actions,):
        raise ConfigurationError("valid mask length does not match action count")
    return s, valid


def _only_action(valid: np.ndarray) -> int | None:
    """The index of a mask's one valid action; None when it has several or none."""
    return int(valid.argmax()) if np.count_nonzero(valid) == 1 else None


def _pass(
    theta: PolicyParams, s: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The network on checked inputs, returning (hidden layer, probs)."""
    hidden = np.tanh(s @ theta.w1 + theta.b1)
    logits = hidden @ theta.w2 + theta.b2
    live = logits[valid]
    if not live.size:
        raise ConfigurationError("at least one action must be valid")
    shifted = logits - live.max()
    # Only valid logits are exponentiated, so a large masked one cannot overflow.
    probs = np.exp(shifted, out=np.zeros(shifted.shape), where=valid)
    probs /= probs.sum()
    return hidden, probs


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
    """One episode rollout: aligned (state, action, reward) plus masks.

    A rollout under a policy also keeps each step's forward pass, (hidden
    layer, probs), in `passes`, None for a step with one valid action,
    and the PolicyParams it ran under in `theta`. reinforce_update reads
    the passes in place of a second forward pass only when it updates that
    same theta object, which must not have been changed in place since; any
    other trajectory is recomputed.
    """

    states: list[np.ndarray]
    actions: list[int]
    rewards: list[float]
    valid_masks: list[np.ndarray] = field(default_factory=list)
    passes: list[tuple[np.ndarray, np.ndarray] | None] = field(default_factory=list)
    theta: PolicyParams | None = None

    def __post_init__(self):
        if len(self.states) != len(self.actions) or len(self.actions) != len(self.rewards):
            raise ConfigurationError("trajectory fields must have equal length")
        if self.valid_masks and len(self.valid_masks) != len(self.actions):
            raise ConfigurationError("valid_masks must align with actions")
        if self.passes and len(self.passes) != len(self.actions):
            raise ConfigurationError("passes must align with actions")
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
    theta: PolicyParams,
    s: np.ndarray,
    a: int,
    valid: np.ndarray | None,
    forward: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Analytic grad of log pi(a | s) for every parameter tensor. forward is
    _forward(theta, s, valid) when the caller has it already."""
    hidden, probs = forward if forward is not None else _forward(theta, s, valid)
    dlogits = -probs
    dlogits[a] += 1.0  # masked entries have p == 0 so their grad stays 0
    gw2 = np.outer(hidden, dlogits)
    gb2 = dlogits
    dh = theta.w2 @ dlogits
    dz1 = dh * (1.0 - hidden**2)
    gw1 = np.outer(s, dz1)
    gb1 = dz1
    return gw1, gb1, gw2, gb2


def _step_grads(
    theta: PolicyParams,
    trajectories: Sequence[Trajectory],
    all_returns: Sequence[np.ndarray],
    baseline: float,
):
    """(step, advantage, grad log pi) of each step with a nonzero advantage
    and a choice, in batch order. A step that takes its mask's one valid
    action has pi = 1 and a zero gradient, so it is skipped. A trajectory
    rolled out under this theta object lends its stored forward passes."""
    for tr, returns in zip(trajectories, all_returns):
        masks = tr.valid_masks if tr.valid_masks else [None] * len(tr)
        stored = bool(tr.passes) and tr.theta is theta
        for t in range(len(tr)):
            advantage = returns[t] - baseline
            if advantage == 0.0:
                continue
            if stored:
                forward = tr.passes[t]
                if forward is None:  # _rollout took the one valid action
                    continue
            else:
                forward = None
                _, valid = _checked(theta, tr.states[t], masks[t])
                if _only_action(valid) == tr.actions[t]:
                    continue
            yield t, advantage, _log_policy_grad(
                theta, tr.states[t], tr.actions[t], masks[t], forward
            )


def reinforce_update(
    theta: PolicyParams,
    trajectories: Trajectory | Sequence[Trajectory],
    config: TrainConfig,
) -> PolicyParams:
    """One ascent step over a trajectory or a batch of them.

    Returns are computed per episode; the optional baseline is the mean
    return across everything in the batch. All-zero returns leave theta
    unchanged. A trajectory that _rollout made under this same theta object
    supplies its stored forward passes; every other one (built by hand, or
    rolled out under another theta) is passed forward again, to the same
    bits. Finiteness is checked once, on the summed gradients; only if that
    fails is the batch walked again, so the TrainingError names the first
    step whose gradient is not finite, or the sum if every step's is.
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
    for _, advantage, (g1, g2, g3, g4) in _step_grads(theta, trajectories, all_returns, baseline):
        gw1 += advantage * g1
        gb1 += advantage * g2
        gw2 += advantage * g3
        gb2 += advantage * g4
    if not all(np.isfinite(g).all() for g in (gw1, gb1, gw2, gb2)):
        for t, _, grads in _step_grads(theta, trajectories, all_returns, baseline):
            if not all(np.isfinite(g).all() for g in grads):
                raise TrainingError(f"non-finite gradient at step {t}")
        raise TrainingError("non-finite gradient sum over the batch; try a smaller alpha")
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
    to the zero vector. Each feature is clamped to [0, 1] as
    min(1.0, max(0.0, x)) would: a feature at or below 0 reads +0.0.
    """
    if lookahead < 1 or ready_slots < 1:
        raise ConfigurationError("lookahead and ready_slots must be >= 1")
    feats: list[float] = []
    clock, ready = state.clock, state.ready
    for machine in state.machines:
        backlog = max(0.0, machine.busy_until - clock) if machine.running is not None else 0.0
        if backlog < lookahead:
            # Services are >= 0, so the sum never falls: once it reaches
            # lookahead every slot below reads 1.0, as it would at the end.
            for _, service in machine.queue:
                backlog += service
                if backlog >= lookahead:
                    break
        for slot in range(lookahead):
            x = backlog - slot
            feats.append(1.0 if x >= 1.0 else x if x > 0.0 else 0.0)
    for slot in range(ready_slots):
        if slot < len(ready):
            task = state.tasks[ready[slot]]
            length = task.length / _LENGTH_SCALE
            size_in = task.input_size / _SIZE_SCALE
            size_out = task.output_size / _SIZE_SCALE
            waited = (clock - state.ready_times[task.id]) / _WAIT_SCALE
            feats += (
                length if length < 1.0 else 1.0,
                size_in if size_in < 1.0 else 1.0,
                size_out if size_out < 1.0 else 1.0,
                1.0 if waited >= 1.0 else waited if waited > 0.0 else 0.0,
            )
        else:
            feats += _EMPTY_SLOT
    feats.append(min(1.0, state.waiting_count() / _QUEUE_SCALE))
    return np.asarray(feats)


def observation_size(n_machines: int, lookahead: int = 3, ready_slots: int = 5) -> int:
    return n_machines * lookahead + ready_slots * 4 + 1


def action_count(n_machines: int, ready_slots: int = 5) -> int:
    return ready_slots * n_machines + 1


def valid_actions(state: SimState, ready_slots: int = 5) -> np.ndarray:
    """Mask over (ready slot, machine) pairs plus the always-valid no-op:
    every machine is open to every occupied ready slot. Each call returns
    a fresh, writable array."""
    occupied = min(ready_slots, len(state.ready))
    return _mask_template(len(state.machines), ready_slots, occupied).copy()


@functools.lru_cache(maxsize=None)
def _mask_template(n_machines: int, ready_slots: int, occupied: int) -> np.ndarray:
    """valid_actions' mask for one shape; read-only, so every call copies it."""
    mask = np.zeros(action_count(n_machines, ready_slots), dtype=bool)
    mask[: occupied * n_machines] = True
    mask[-1] = True  # no-op
    mask.flags.writeable = False
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
        for name, value in (("lookahead", lookahead), ("ready_slots", ready_slots)):
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
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
        if not 0 <= index < self.n_actions:
            raise ConfigurationError(f"action {index} is outside [0, {self.n_actions})")
        if index == self.n_actions - 1:
            return None
        slot, j = divmod(index, self.n_machines)
        if slot >= len(self._state.ready):
            raise ConfigurationError(f"action {index} points at an empty ready slot")
        return self._state.ready[slot], self._state.machines[j].spec.id

    def step(self, action_index: int) -> tuple[np.ndarray, np.ndarray, float, bool]:
        if self._state is None:
            raise ConfigurationError("call reset() before step()")
        fresh = _advance(self._state, self.decode_action(int(action_index)))
        reward = step_reward(self._state, fresh, self.reward_config)
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

def _sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    """rng.choice(len(probs), p=probs), step for step without its overhead:
    the same checks, one rng.random() draw and the same normalized cumulative
    search, so the same action and the same generator state."""
    cdf = probs.cumsum()
    total = cdf[-1]
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if probs.min() < 0:
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _PROBS_ATOL:
        raise ValueError("Probabilities do not sum to 1")
    cdf /= total
    return int(cdf.searchsorted(rng.random(), side="right"))


def _rollout(
    env: SchedulingEnv,
    theta: PolicyParams | None,
    rng: np.random.Generator,
    episode_seed: int,
    greedy: bool = False,
) -> Trajectory:
    obs, mask = env.reset(seed=episode_seed)
    states, actions, rewards, masks, passes = [], [], [], [], []
    done = False
    while not done:
        if theta is None:
            choices = np.flatnonzero(mask)
            a = int(choices[rng.integers(0, len(choices))])
        else:
            s, valid = _checked(theta, obs, mask)
            only = _only_action(valid)
            if only is None:
                forward = _pass(theta, s, valid)
                probs = forward[1]
                a = int(np.argmax(probs)) if greedy else _sample(probs, rng)
            else:
                # pi is the one-hot, so _sample would take `only` whatever it
                # drew; the draw keeps the generator in step.
                forward, a = None, only
                if not greedy:
                    rng.random()
            passes.append(forward)
        states.append(obs)
        actions.append(a)
        masks.append(mask)
        obs, mask, reward, done = env.step(a)
        rewards.append(reward)
    return Trajectory(
        states=states,
        actions=actions,
        rewards=rewards,
        valid_masks=masks,
        passes=passes,
        theta=theta,
    )


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
    if episodes < 1:
        raise ConfigurationError(f"episodes must be >= 1, got {episodes}")
    rng = np.random.default_rng(seed)
    totals = []
    for e in range(episodes):
        traj = _rollout(env, theta, rng, episode_seed=seed + e, greedy=greedy)
        totals.append(_episode_return(traj.rewards))
    return float(np.mean(totals))


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
    """Read a save_policy file. Anything else is a ConfigurationError that
    names the file, and the line of a number that does not parse; a file
    that cannot be opened raises OSError."""

    def bad(reason: str) -> ConfigurationError:
        return ConfigurationError(f"cannot read policy file {path}: {reason}")

    def numbers(line: tuple[int, list[str]], kind: type) -> list:
        number, words = line
        out = []
        for word in words:
            try:
                out.append(kind(word))
            except ValueError:
                raise bad(f"line {number}: {word!r} is not a number") from None
        return out

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, ln.split()) for n, ln in enumerate(fh, 1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise bad(f"not UTF-8 (byte {exc.start})") from exc
    if len(lines) != 6:
        raise bad(f"{len(lines)} nonblank lines, not 6 (header, dims and 4 tensors)")
    magic = lines[0][1]
    if magic != [_POLICY_MAGIC, str(_POLICY_VERSION)]:
        raise bad(f"unsupported header {' '.join(magic)!r}")
    dims = numbers(lines[1], int)
    if len(dims) != 3 or min(dims) < 1:
        raise bad(f"line {lines[1][0]}: dims must be three positive integers")
    n_in, n_hid, n_act = dims
    shapes = [(n_in, n_hid), (n_hid,), (n_hid, n_act), (n_act,)]
    tensors = []
    for line, shape in zip(lines[2:], shapes):
        vals = np.array(numbers(line, float))
        expect = int(np.prod(shape))
        if vals.size != expect:
            raise bad(f"line {line[0]}: tensor holds {vals.size} values, expected {expect}")
        tensors.append(vals.reshape(shape))
    try:
        return PolicyParams(*tensors)
    except ConfigurationError as exc:
        raise bad(str(exc)) from exc

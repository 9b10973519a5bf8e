"""Per-layer timings of the dispatch path, of the searches and of their
scorers and ant construction, written to a BENCH_<n>.json file.

Each figure is the median of --repeats runs (at least 5):

* `kmeans_dtw_<n>users_s`: kmeans_cluster(k=3) with DTW distance over n
  users' 48-slot cpu profiles (flat, diurnal and spike shapes), n = 30, 60.
* `env_step_per_s`: SchedulingEnv.step calls per second with the full
  RewardConfig(), over 5 episodes of 100 profiled tasks on 4 VMs; actions
  are drawn uniformly from the valid ones with a fixed seed, and only the
  step calls are timed.
* `usage_series_100tasks_s`: machine_usage_series on one of those
  deployments with every task sent to one VM, as the benchmark's trained
  policies nearly do.
* `noop_gap_1e6_s`: one online no-op, simulator.step(state, None), across
  a 1e6 s idle gap on one VM that holds no resident, with a user's cpu
  profile loaded. step changes the state and returns the fresh overuse
  pairs; it builds no per-machine reward snapshot. The `BENCH_*.json` files
  written before it stopped doing so timed a step that built one for the
  VM, so their figure includes that build.
* `sa_n<n>_s`: the seconds of one sa_schedule call on the default config's
  cell of n tasks, n = 10, 100, 200, 1000, with cell seed 1 and that cell's
  scheduler seed (bench.scheduler_seed), as `bench run` calls it. Each
  search figure is the median of SEARCH_CALLS calls after one unmeasured
  call, all in one process, so that one slow call does not set it.
* `gaaco_n200_s`, `aco_n200_s`: the same for gaaco_schedule and
  aco_schedule on the n = 200 cell; `gaaco_n1000_s` for gaaco_schedule on
  the n = 1000 cell.
* `sa_dag_4x10_s`, `gaaco_dag_4x10_s`: the same for sa_schedule and
  gaaco_schedule, with seed 1 and the default weights as the benchmark's
  search-dag workload calls them, on the layered DAG instance of
  `raw_dag_4x10_us` below, where every candidate is scored by the event walk.
* `sa_dag_moves_per_s`, `sa_n100_moves_per_s`, `sa_n200_moves_per_s`:
  one-task proposals per second of annealing: steps_per_temp times the
  number of temperatures of the default schedule, over the seconds that
  `sa_dag_4x10_s`, `sa_n100_s` or `sa_n200_s` reads
  (ROADMAP's "SA moves/s"). The benchmark's search-batch workload anneals
  n = 200 cells, and a move re-adds the totals from its task on, so the
  cost of a move grows with n. Every instance has more than one machine,
  so every step proposes a move.
* `gaaco_n200_walks`, `aco_n200_walks`, `gaaco_dag_4x10_walks`: the plans
  one call of `gaaco_n200_s`, `aco_n200_s` or `gaaco_dag_4x10_s` walked,
  counted as calls of _Evaluator._raw_fast and _Evaluator._raw_dag (the
  bounds' one-machine plans included) in a call of its own, untimed. The
  counts show that a change to the evaluator or to a search's bookkeeping
  leaves the work done as it was.
* `sa_dag_4x10_pops`: the ready-heap pops of the event walks in one call
  of `sa_dag_4x10_s`, counted untimed in a call of its own as heappop
  calls through the schedulers module's heapq (the bounds' and the EFT
  plan's walks included). A walk pops each task once, so a full rescore of
  every proposal pops the instance's 40 tasks per move.
* `colony_ants_per_s_<k>`: ants built per second by _construct_colony on
  the n = 200 cell (cell seed 1), over 10 colonies of k ants after one
  unmeasured colony, with the pheromone fixed at 1: k = 31 with beta 2 (the
  hybrid's colony at its last generation) and k = 20 with beta 0.5 (plain
  ACO's colony).
* `raw_fast_n100_us`: microseconds per _Evaluator._raw_fast call on the
  default config's n = 100 cell (cell seed 1), over 2,000 random
  assignment vectors; its inverse is the evaluations/s of the searches on
  instances without precedence edges.
* `raw_dag_4x10_us`: the same for _Tables._raw_dag, the event walk, on a
  layered DAG instance of 4 workflows of 10 tasks on the default fleet,
  built as the benchmark's search-dag instances are (perfbench/workloads.py).
* `train_10x15_s`: one policy.train call shaped like one pipeline of the
  benchmark's dispatch-learned workload: 10 episodes of 15 profiled tasks
  on the 4 VMs, the full RewardConfig(), alpha 1e-5, batches of 5, 16
  hidden units, lookahead 3 and 3 ready slots; the median of the calls
  for pipeline seeds 1, 2 and 3.
* `reinforce_update_us`: microseconds per reinforce_update call on one
  batch of 5 such episodes rolled out (policy._rollout) under the initial
  policy, as train's first update gets it; the mean of 20 calls.
* `greedy_decision_us`: the median microseconds of one greedy decision,
  policy_forward plus SchedulingEnv.step, as the benchmark's
  dispatch-learned workload times a deployment step. The policies are the
  three that `train_10x15_s` trains; each is deployed greedily on the
  100-task deployment of its pipeline seed (the `env_step_per_s`
  workload of that seed), with the full RewardConfig(), lookahead 3 and 3
  ready slots, three times over. Only finished episodes count, as in the
  benchmark.
* `forced_decision_us`: the same median over the steps of those episodes
  whose mask admits one action (only the no-op: no task is ready), which
  policy_forward answers without the network.
* `forced_step_share`: the share of those episodes' steps that admit one
  action.
* `build_step_decision_us`: the same median over the steps of those
  episodes that build at least one resident set: after the step, some
  machine holds a set with residents that it did not hold before it.
* `build_step_share`: the share of those episodes' steps that build one.
* `resident_set_build_us`: the median microseconds of one such build as
  the step ran it: the machine's set is built again from its users (the
  resident users' series, the totals that used_at reads and the pair sums
  of every resource), then the set the step built is put back. The
  episode's series index, built once per episode where the package has
  one, is built before the timed build.
* `replay_100k_batch_tasks_per_s`, `replay_100k_poisson_tasks_per_s`:
  tasks per second of simulator.replay_assignment, the online stepper
  driven by a static plan, on 100,000 generated tasks (seed 1) on the
  default fleet, with the plan eft_schedule returns. Batch submits every
  task at t = 0; Poisson draws arrivals at the generator's default mean
  gap. Only the replay is timed: this is the cost of the ready list and
  the event core at scale.
* `probe_s`: the median seconds of one sample of perfbench's speed-probe
  kernel (perfbench/probe.py, the kernel perfbench scales its times by),
  sampled 5 times before and 5 times after the figures above in the same
  process. It measures the host, not cloudsched: a figure that moves
  together with `probe_s` between repeats, labels or files moved with the
  host's speed. Every label runs the probe of this checkout.

Usage, from the root of a checkout:

    python3 scripts/perf.py --src parent=../parent/src --src change=src --out BENCH_12.json

Each --src names one label and the directory holding the cloudsched package
to time under it. A repeat runs every label once, each in a fresh Python
process that measures every figure once; the label that goes first
alternates from one repeat to the next, so a drift in the host's speed lands
on all labels alike rather than between them. The medians, and the first
and third quartiles, go under each label in --out, next to any labels the
file already holds, with the machine, Python and numpy versions. Only the
standard library and numpy are used.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROBE_SAMPLES = 5  # kernel samples taken before and again after the figures
SEARCH_CALLS = 5  # timed calls behind each search figure
SHAPES = ("flat", "diurnal", "spike")
FLEET = ((1050.0, 1000.0), (1000.0, 1250.0), (950.0, 800.0), (900.0, 1000.0))  # (mips, bandwidth)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def profiles_for(wk, users: int, seed: int = 1):
    per_shape = users // len(SHAPES)
    out = []
    for k, shape in enumerate(SHAPES):
        for p in wk.generate_profiles(per_shape, 48, seed + k, shape, noise=0.05):
            out.append(wk.UsageProfile(p.user_id + k * per_shape, p.resource, p.series))
    return out


def deployment(wk, profiles, seed: int):
    users = len({p.user_id for p in profiles})
    params = wk.TaskGenParams(
        mean_interarrival=1.0, n_users=users, deadline_slack_range=(30.0, 600.0)
    )
    tasks = wk.generate_tasks(100, seed, params)
    vms = [wk.VmSpec(id=i, mips=m, bandwidth=b) for i, (m, b) in enumerate(FLEET)]
    present = {t.user_id for t in tasks}
    return wk.WorkloadSet.from_tasks(vms, tasks, [p for p in profiles if p.user_id in present])


def time_kmeans(rw, profiles) -> float:
    cpu = [p for p in profiles if p.resource == "cpu"]
    t0 = time.perf_counter()
    rw.kmeans_cluster(cpu, k=3, seed=1)
    return time.perf_counter() - t0


def steps_per_s(pol, rw, workloads) -> float:
    """SchedulingEnv.step calls per second over one episode per workload."""
    steps, spent = 0, 0.0
    for seed, wl in enumerate(workloads):
        env = pol.SchedulingEnv(wl, rw.RewardConfig(), lookahead=3, ready_slots=3)
        rng = np.random.default_rng(seed)
        _, mask = env.reset()
        done = env.state.done
        while not done:
            choices = np.flatnonzero(mask)
            action = int(choices[rng.integers(len(choices))])
            t0 = time.perf_counter()
            _, mask, _, done = env.step(action)
            spent += time.perf_counter() - t0
            steps += 1
    return steps / spent


def default_cell(bench, name: str, n: int) -> tuple:
    """The default config's cell (n, seed 1) and the keyword arguments with
    which `bench run` calls <name>_schedule on it."""
    config = bench.default_config()
    return bench.build_cell_workload(config, n, 1), {
        "seed": bench.scheduler_seed(n, 1, name), "weights": config.weights,
    }


def cell_s(bench, schedulers, name: str, n: int) -> float:
    """search_s of <name>_schedule on the default config's cell (n, seed 1)."""
    wl, kwargs = default_cell(bench, name, n)
    return search_s(schedulers, name, wl, **kwargs)


def search_s(schedulers, name: str, wl, **kwargs) -> float:
    """Median seconds of SEARCH_CALLS <name>_schedule calls on wl, after
    one unmeasured call."""
    search = getattr(schedulers, f"{name}_schedule")
    search(wl, **kwargs)
    spent = []
    for _ in range(SEARCH_CALLS):
        t0 = time.perf_counter()
        search(wl, **kwargs)
        spent.append(time.perf_counter() - t0)
    return statistics.median(spent)


def walks(schedulers, name: str, wl, **kwargs) -> int:
    """Calls of _Evaluator._raw_fast and _Evaluator._raw_dag in one
    <name>_schedule call on wl; the scorers are put back afterwards."""
    ev_class = schedulers._Evaluator
    kept = {attr: getattr(ev_class, attr) for attr in ("_raw_fast", "_raw_dag")}
    calls = 0

    def counting(walk):
        def counted(ev, vec):
            nonlocal calls
            calls += 1
            return walk(ev, vec)
        return counted

    for attr, walk in kept.items():
        setattr(ev_class, attr, counting(walk))
    try:
        getattr(schedulers, f"{name}_schedule")(wl, **kwargs)
    finally:
        for attr, walk in kept.items():
            setattr(ev_class, attr, walk)
    return calls


def pops(schedulers, name: str, wl, **kwargs) -> int:
    """Ready-heap pops of the search-side event walks in one <name>_schedule
    call on wl: heappop calls through the schedulers module's heapq, which
    is put back afterwards."""
    kept = schedulers.heapq
    counting = types.SimpleNamespace(**vars(kept))
    calls = 0

    def counted(heap):
        nonlocal calls
        calls += 1
        return kept.heappop(heap)

    counting.heappop = counted
    schedulers.heapq = counting
    try:
        getattr(schedulers, f"{name}_schedule")(wl, **kwargs)
    finally:
        schedulers.heapq = kept
    return calls


def sa_moves(schedulers) -> int:
    """Proposals of one sa_schedule call with the default parameters on an
    instance of more than one machine: steps_per_temp per temperature."""
    params = schedulers.DEFAULT_SA_PARAMS
    temps, temp = 0, params.initial_temp
    while temp > params.min_temp:
        temps += 1
        temp *= params.cooling_rate
    return params.steps_per_temp * temps


def colony_ants_per_s(bench, schedulers, ants: int, beta: float, colonies: int = 10) -> float:
    """Ants per second built by _construct_colony on the default config's
    n = 200 cell (seed 1) with the pheromone fixed at 1."""
    config = bench.default_config()
    ev = schedulers._Evaluator(bench.build_cell_workload(config, 200, 1), config.weights)
    tau_pow = np.ones((len(ev.task_ids), len(ev.vm_ids)))
    rng = np.random.default_rng(1)
    schedulers._construct_colony(ev, tau_pow, beta, rng, ants)
    t0 = time.perf_counter()
    for _ in range(colonies):
        schedulers._construct_colony(ev, tau_pow, beta, rng, ants)
    return ants * colonies / (time.perf_counter() - t0)


def layered_dag(wk, bench, seed: int, flows: int = 4, per_flow: int = 10):
    """`flows` disconnected layered DAGs of `per_flow` tasks submitted at t=0
    with deadlines, on the default fleet: perfbench's search-dag instance."""
    params = wk.TaskGenParams(mean_interarrival=0.0, deadline_slack_range=(8.0, 40.0))
    tasks = wk.generate_tasks(flows * per_flow, seed, params)
    rng = np.random.default_rng([seed, 0xDA6])
    edges = []
    for f in range(flows):
        ids = np.arange(f * per_flow, (f + 1) * per_flow)
        n_layers = int(rng.integers(3, 5))
        cuts = np.sort(rng.choice(np.arange(1, per_flow), n_layers - 1, replace=False))
        layers = np.split(ids, cuts)
        for prev, layer in zip(layers, layers[1:]):
            for t in layer:
                k = min(len(prev), 1 + int(rng.integers(0, 2)))
                edges.extend((int(p), int(t)) for p in rng.choice(prev, k, replace=False))
    return wk.WorkloadSet(list(bench.VmFleetConfig().build()), wk.DagWorkflow(tasks, edges))


def train_env(pol, rw, wk, profiles, sub_seed: int = 1):
    """A dispatch-learned training environment: each episode is 15 fresh
    tasks of the 30 users, with their profiles, on the 4 VMs."""
    params = wk.TaskGenParams(mean_interarrival=1.0, n_users=30, deadline_slack_range=(30.0, 600.0))
    vms = [wk.VmSpec(id=i, mips=m, bandwidth=b) for i, (m, b) in enumerate(FLEET)]

    def episode(episode_seed):
        tasks = wk.generate_tasks(15, sub_seed * 7919 + episode_seed, params)
        present = {t.user_id for t in tasks}
        return wk.WorkloadSet.from_tasks(vms, tasks, [p for p in profiles if p.user_id in present])

    return pol.SchedulingEnv(episode, rw.RewardConfig(), lookahead=3, ready_slots=3)


def train_s(pol, env, seed: int):
    """(seconds, trained policy) of one train call."""
    config = pol.TrainConfig(alpha=1e-5, episodes=10, batch_size=5, seed=seed, hidden=16)
    t0 = time.perf_counter()
    theta, _ = pol.train(env, config)
    return time.perf_counter() - t0, theta


def rebuild_s(sim, state, machine, resources) -> float:
    """Seconds of one build of the machine's resident set from its users:
    the set, its totals at the clock's slot and its pair sums. Where the
    set computes its totals and pair sums as it is built, the build itself
    holds them and the two reads are lookups. The set that was there
    before is put back, so the episode goes on unchanged."""
    kept = machine.residents
    machine.residents, machine.users_changed = None, True
    if hasattr(state, "series_index"):
        state.series_index()  # built once per episode, not per set
    t0 = time.perf_counter()
    residents = sim._residents(state, machine)
    residents.used_at(int(state.clock))
    residents.pair_sums(resources)
    spent = time.perf_counter() - t0
    machine.residents = kept
    return spent


def greedy_decisions(pol, rw, sim, deployments, passes: int = 3) -> dict[str, float]:
    """Median microseconds of policy_forward plus SchedulingEnv.step per
    greedy step, over `passes` episodes of each (policy, workload); over the
    steps among them whose mask admits one action, and over those that
    build a resident set, with the share of each; and of one such build.
    Stalled episodes are left out."""
    latencies, forced, building, builds = [], [], [], []
    resources = rw.RewardConfig().resources
    for _ in range(passes):
        for theta, wl in deployments:
            env = pol.SchedulingEnv(wl, rw.RewardConfig(), lookahead=3, ready_slots=3)
            obs, mask = env.reset()
            done = env.state.done
            steps, episode_builds = [], []
            while not done:
                one = np.count_nonzero(mask) == 1
                before = [m.residents for m in env.state.machines]
                t0 = time.perf_counter()
                probs = pol.policy_forward(theta, obs, mask)
                obs, mask, _, done = env.step(int(np.argmax(probs)))
                spent = time.perf_counter() - t0
                built = [
                    m for m, kept in zip(env.state.machines, before)
                    if m.residents is not kept and m.residents is not sim._NO_RESIDENTS
                ]
                steps.append((one, bool(built), spent))
                episode_builds.extend(rebuild_s(sim, env.state, m, resources) for m in built)
            if env.state.done:
                latencies.extend(spent for _, _, spent in steps)
                forced.extend(spent for one, _, spent in steps if one)
                building.extend(spent for _, built, spent in steps if built)
                builds.extend(episode_builds)
    return {
        "greedy_decision_us": statistics.median(latencies) * 1e6,
        "forced_decision_us": statistics.median(forced) * 1e6,
        "forced_step_share": len(forced) / len(latencies),
        "build_step_decision_us": statistics.median(building) * 1e6,
        "build_step_share": len(building) / len(latencies),
        "resident_set_build_us": statistics.median(builds) * 1e6,
    }


def replay_tasks_per_s(bench, sched, sim, wk, arrivals: str, n: int = 100_000) -> float:
    """Tasks per second of replay_assignment on n tasks on the default fleet,
    with the EFT plan; arrivals is "batch" or "poisson"."""
    if arrivals == "batch":
        params = wk.TaskGenParams(mean_interarrival=0.0)
    else:
        params = wk.TaskGenParams(arrival_pattern="poisson")
    wl = wk.WorkloadSet.from_tasks(bench.VmFleetConfig().build(), wk.generate_tasks(n, 1, params))
    plan = sched.eft_schedule(wl)
    t0 = time.perf_counter()
    sim.replay_assignment(wl, plan)
    return n / (time.perf_counter() - t0)


def reinforce_update_us(pol, env, calls: int = 20) -> float:
    config = pol.TrainConfig(alpha=1e-5, episodes=5, batch_size=5, seed=1, hidden=16)
    theta = pol.init_policy(env.observation_dim, config.hidden, env.n_actions, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    batch = [pol._rollout(env, theta, rng, episode_seed=e) for e in range(config.batch_size)]
    t0 = time.perf_counter()
    for _ in range(calls):
        pol.reinforce_update(theta, batch, config)
    return (time.perf_counter() - t0) / calls * 1e6


def scorer_us(sched, wl, name: str, calls: int = 2000) -> float:
    """Microseconds per call of the evaluator's scorer `name` over `calls`
    seeded random assignment vectors."""
    ev = sched._Evaluator(wl, sched.QosWeights())
    rng = np.random.default_rng(3)
    vecs = [tuple(row) for row in rng.integers(0, len(ev.vm_ids), (calls, len(ev.task_ids))).tolist()]
    score = getattr(ev, name)
    t0 = time.perf_counter()
    for vec in vecs:
        score(vec)
    return (time.perf_counter() - t0) / calls * 1e6


def noop_gap_s(sim, wk, gap: float = 1e6) -> float:
    """Seconds of one no-op across an idle gap: one VM whose only task
    finished at t = 1, and the next task arriving `gap` seconds later, with
    the user's cpu profile loaded but no resident left on the machine."""
    profiles = [wk.UsageProfile(0, "cpu", np.full(48, 0.8))]
    tasks = [wk.Task(id=0, length=1000.0), wk.Task(id=1, length=1000.0, arrival_time=1.0 + gap)]
    state = sim.init_state(wk.WorkloadSet.from_tasks([wk.VmSpec(id=0, mips=1000.0)], tasks, profiles))
    sim.step(state, (0, 0))
    sim.step(state, None)  # to task 0's completion at t = 1
    t0 = time.perf_counter()
    sim.step(state, None)
    return time.perf_counter() - t0


def speed_probe():
    """A perfbench SpeedProbe, loaded from perfbench/probe.py by path."""
    spec = importlib.util.spec_from_file_location("perfbench_probe", ROOT / "perfbench" / "probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SpeedProbe()


def measure(src: str) -> dict[str, float]:
    """One run of every figure against the cloudsched package in src, with
    the host's speed probed before and after them."""
    probe = speed_probe()
    probe(PROBE_SAMPLES)
    results = figures(src)
    probe(PROBE_SAMPLES)
    results["probe_s"] = statistics.median(probe.samples)
    return results


def figures(src: str) -> dict[str, float]:
    """One run of every figure but probe_s against the cloudsched package
    in src."""
    sys.path.insert(0, os.path.abspath(src))
    import cloudsched.bench as bench
    import cloudsched.policy as pol
    import cloudsched.rewards as rw
    import cloudsched.schedulers as sched
    import cloudsched.simulator as sim
    import cloudsched.workload as wk

    results = {}
    for users in (30, 60):
        results[f"kmeans_dtw_{users}users_s"] = time_kmeans(rw, profiles_for(wk, users))
    profiles = profiles_for(wk, 30)
    workloads = [deployment(wk, profiles, seed) for seed in range(1, 6)]
    results["env_step_per_s"] = steps_per_s(pol, rw, workloads)
    trained = {seed: train_s(pol, train_env(pol, rw, wk, profiles, seed), seed) for seed in (1, 2, 3)}
    results["train_10x15_s"] = statistics.median(spent for spent, _ in trained.values())
    results.update(greedy_decisions(
        pol, rw, sim, [(theta, workloads[seed - 1]) for seed, (_, theta) in trained.items()]
    ))
    results["reinforce_update_us"] = reinforce_update_us(pol, train_env(pol, rw, wk, profiles))
    wl = workloads[0]
    trace = sim.run_simulation(wl, {t.id: wl.vms[0].id for t in wl.tasks})
    t0 = time.perf_counter()
    sim.machine_usage_series(trace, wl)
    results["usage_series_100tasks_s"] = time.perf_counter() - t0
    results["noop_gap_1e6_s"] = noop_gap_s(sim, wk)
    for arrivals in ("batch", "poisson"):
        results[f"replay_100k_{arrivals}_tasks_per_s"] = replay_tasks_per_s(bench, sched, sim, wk, arrivals)
    for n in (10, 100, 200, 1000):
        results[f"sa_n{n}_s"] = cell_s(bench, sched, "sa", n)
    for name in ("gaaco", "aco"):
        results[f"{name}_n200_s"] = cell_s(bench, sched, name, 200)
    results["gaaco_n1000_s"] = cell_s(bench, sched, "gaaco", 1000)
    results["colony_ants_per_s_31"] = colony_ants_per_s(bench, sched, 31, beta=2.0)
    results["colony_ants_per_s_20"] = colony_ants_per_s(bench, sched, 20, beta=0.5)
    cell = bench.build_cell_workload(bench.default_config(), 100, 1)
    results["raw_fast_n100_us"] = scorer_us(sched, cell, "_raw_fast")
    dag = layered_dag(wk, bench, 1)
    results["raw_dag_4x10_us"] = scorer_us(sched, dag, "_raw_dag")
    for name in ("sa", "gaaco"):
        results[f"{name}_dag_4x10_s"] = search_s(sched, name, dag, seed=1)
    moves = sa_moves(sched)
    results["sa_dag_moves_per_s"] = moves / results["sa_dag_4x10_s"]
    for n in (100, 200):
        results[f"sa_n{n}_moves_per_s"] = moves / results[f"sa_n{n}_s"]
    for name in ("gaaco", "aco"):
        wl, kwargs = default_cell(bench, name, 200)
        results[f"{name}_n200_walks"] = walks(sched, name, wl, **kwargs)
    results["gaaco_dag_4x10_walks"] = walks(sched, "gaaco", dag, seed=1)
    results["sa_dag_4x10_pops"] = pops(sched, "sa", dag, seed=1)
    return results


def label_path(text: str) -> tuple[str, str]:
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    if not (Path(path) / "cloudsched").is_dir():
        raise argparse.ArgumentTypeError(f"no cloudsched package under {path!r}")
    return label, path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--src", type=label_path, action="append", metavar="LABEL=PATH",
        help="time the cloudsched package under PATH as LABEL; give once per label",
    )
    ap.add_argument("--out", help="JSON file to add the labels to")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--measure", help=argparse.SUPPRESS)  # child process: one run of src
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if not args.src or not args.out:
        ap.error("--src and --out are required")
    labels = dict(args.src)
    if len(labels) != len(args.src):
        ap.error("each --src label must be unique")
    if args.repeats < 5:
        ap.error("--repeats must be at least 5")

    runs: dict[str, list[dict[str, float]]] = {label: [] for label in labels}
    order = list(labels)
    for _ in range(args.repeats):
        for label in order:
            child = subprocess.run(
                [sys.executable, __file__, "--measure", labels[label]],
                capture_output=True, text=True, check=True,
            )
            runs[label].append(json.loads(child.stdout))
        order.reverse()

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    machine = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    for label, label_runs in runs.items():
        results = {name: statistics.median(r[name] for r in label_runs) for name in label_runs[0]}
        quartiles = {
            name: statistics.quantiles([r[name] for r in label_runs], n=4)[::2]
            for name in label_runs[0]
        }
        doc[label] = {
            "machine": machine, "repeats": args.repeats, "results": results, "quartiles": quartiles,
        }
        for name, value in results.items():
            print(f"{label:10s} {name:28s} {value:.6g}")
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads.

Each workload has a `setup(cs, seed, smoke)` that builds every input from the
seed with the program's own generators, and a
`run(cs, inputs, tracer, probe, tmp)` that performs one round: a closed loop
with one client, each public call issued after the previous one returns,
`jobs=1`, no pool and no threads. Only the program calls inside `Section`
are timed; the speed probe (probe.py) samples between them, outside the
timing, and the output checks run after it.

`cs` is a namespace holding the cloudsched modules of the final import, so
the inputs and the calls use the same classes.
"""

from __future__ import annotations

import shutil
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from checks import digest, trace_violations

SEARCHES = ("gaaco", "aco", "sa")


class Section:
    """Times the program part of a round, less the probe samples taken in it;
    under a tracer it is the root span."""

    def __init__(self, tracer, probe):
        self.tracer = tracer
        self.probe = probe
        self.wall = self.t0 = self.t1 = 0.0

    def __enter__(self):
        self._index = self.tracer.open("round") if self.tracer else None
        self._probed = self.probe.spent
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        self.wall = self.t1 - self.t0 - (self.probe.spent - self._probed)
        if self.tracer:
            self.tracer.close(self._index)
        return False


@dataclass
class Round:
    """What one round did and produced."""

    wall: float = 0.0
    t0: float = 0.0  # the timed section's start and end, for the probe
    t1: float = 0.0
    tasks: int = 0
    cells: list = field(default_factory=list)  # search cells: (scheduler, task count, seconds, start, end)
    deployments: list = field(default_factory=list)  # (start, end, decision seconds)
    attempted: int = 0
    failures: list = field(default_factory=list)  # failed operations
    violations: list = field(default_factory=list)  # failed output checks
    rows: list = field(default_factory=list)
    flow: list = field(default_factory=list)
    load: list = field(default_factory=list)  # metrics.load_rate
    peak: list = field(default_factory=list)  # busiest machine over the mean
    deadline: list = field(default_factory=list)

    def add_quality(self, trace, flow, load, deadline):
        busy = list(trace.machine_busy.values())
        self.flow.append(flow)
        self.load.append(load)
        self.peak.append(max(busy) * len(busy) / sum(busy))
        self.deadline.append(deadline)

    @property
    def digest(self) -> str:
        return digest(self.rows)


def _check(rnd: Round, what: str, trace, workload, assignment=None, complete=True) -> None:
    problems = trace_violations(trace, workload, assignment, complete)
    if problems:
        rnd.violations.append(f"{what}: {'; '.join(problems[:3])}")


def _deadlines(workload):
    return {t.id: t.deadline for t in workload.tasks if t.deadline is not None} or None


# ---------------------------------------------------------------------------
# search-batch: the `bench run` sweep path
# ---------------------------------------------------------------------------

class SearchBatch:
    """Default config (10 homogeneous VMs, independent tasks, even arrivals,
    gaaco/aco/sa/eft) at task counts at the top of the default range and
    above it, through `bench.run_experiment(config, jobs=1, out_dir=...)`."""

    def setup(self, cs, seed, smoke):
        counts = (10, 20) if smoke else (100, 200)
        sweep = cs.bench.SweepConfig(start=counts[0], stop=counts[-1], step=counts[-1] - counts[0])
        config = cs.bench.ExperimentConfig(sweep=sweep, seeds=(seed,), output_dir="")
        return {"config": config, "sizes": {"task_counts": list(counts), "vms": config.vms.count}}

    def run(self, cs, inp, tracer, probe, tmp):
        rnd = Round()
        captured = []
        searched = []  # (start, probe seconds) of each search call, in call order
        bench = cs.bench
        saved = {a: getattr(bench, a) for a in ("run_simulation", *(f"{s}_schedule" for s in SEARCHES))}

        def capture(workload, assignment):
            trace = saved["run_simulation"](workload, assignment)
            captured.append((workload, dict(assignment), trace))
            return trace

        def probed(search):
            # Sample the host's speed before each search; the cell's time
            # in its row includes the sample, which is taken out below.
            def call(*args, **kwargs):
                before = probe.spent
                probe(3)
                searched.append((time.perf_counter(), probe.spent - before))
                return search(*args, **kwargs)

            return call

        out_dir = tmp / "sweep"
        bench.run_simulation = capture
        for s in SEARCHES:
            setattr(bench, f"{s}_schedule", probed(saved[f"{s}_schedule"]))
        try:
            with Section(tracer, probe) as sec:
                rows = bench.run_experiment(inp["config"], jobs=1, out_dir=str(out_dir))
        finally:
            for attr, fn in saved.items():
                setattr(bench, attr, fn)
        rnd.wall, rnd.t0, rnd.t1 = sec.wall, sec.t0, sec.t1
        rnd.rows = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()
        shutil.rmtree(out_dir)

        rnd.attempted = len(rows)
        for row in rows:
            if row["status"] != "ok":
                rnd.failures.append(f"{row['algorithm']} n={row['task_count']}: {row['status']}")
        # Cells run by task count, then in config order; rows come back sorted by name.
        names = [s.name for s in inp["config"].schedulers]
        order = [r for n in sorted({r["task_count"] for r in rows}) for name in names
                 for r in rows if r["task_count"] == n and r["algorithm"] == name]
        search_rows = [id(r) for r in order if r["algorithm"] in SEARCHES]
        starts = dict(zip(search_rows, searched))
        ok = [row for row in order if row["status"] == "ok"]
        if len(captured) != len(ok) or len(searched) != len(search_rows):
            rnd.violations.append(
                f"{len(captured)} traces for {len(ok)} cells, {len(searched)} searches for {len(search_rows)} rows"
            )
            return rnd
        for row, (workload, assignment, trace) in zip(ok, captured):
            _check(rnd, f"{row['algorithm']} n={row['task_count']}", trace, workload, assignment)
            rnd.tasks += row["task_count"]
            if row["algorithm"] in SEARCHES:
                start, probed_s = starts[id(row)]
                seconds = row["wall_clock_s"] - probed_s
                rnd.cells.append((row["algorithm"], row["task_count"], seconds, start, start + seconds))
            reliability = cs.metrics.reliability(trace, _deadlines(workload))
            rnd.add_quality(trace, row["avg_time_cost"], row["load_rate"], reliability)
        return rnd


# ---------------------------------------------------------------------------
# search-dag: every scheduler on layered random DAG workflows
# ---------------------------------------------------------------------------

def layered_dag_workload(cs, seed, flows, per_flow):
    """`flows` disconnected layered DAGs of `per_flow` tasks, all submitted at
    t=0 with deadlines; each task after the first layer has one or two
    predecessors in the layer before it."""
    params = cs.workload.TaskGenParams(mean_interarrival=0.0, deadline_slack_range=(8.0, 40.0))
    tasks = cs.workload.generate_tasks(flows * per_flow, seed, params)
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
                for p in rng.choice(prev, k, replace=False):
                    edges.append((int(p), int(t)))
    vms = cs.bench.VmFleetConfig().build()
    return cs.workload.WorkloadSet(list(vms), cs.workload.DagWorkflow(tasks, edges))


class SearchDag:
    """eft/aco/sa/gaaco called directly on each of two DAG instances per
    round (two, so that one instance's luck moves a run's figures less);
    each assignment is replayed by `simulator.run_simulation` and scored."""

    def setup(self, cs, seed, smoke):
        instances, flows, per_flow = (1, 2, 4) if smoke else (2, 4, 10)
        wls = [layered_dag_workload(cs, seed * instances + i, flows, per_flow) for i in range(instances)]
        sizes = {
            "instances": instances,
            "tasks": len(wls[0].tasks),
            "edges": [len(wl.dag.edges) for wl in wls],
            "workflows": flows,
            "vms": len(wls[0].vms),
        }
        return {"workloads": wls, "seed": seed, "sizes": sizes}

    def run(self, cs, inp, tracer, probe, tmp):
        rnd = Round()
        seed = inp["seed"]
        sched, sim, met = cs.schedulers, cs.simulator, cs.metrics
        calls = {
            "eft": lambda wl: sched.eft_schedule(wl),
            "aco": lambda wl: sched.aco_schedule(wl, seed=seed),
            "sa": lambda wl: sched.sa_schedule(wl, seed=seed),
            "gaaco": lambda wl: sched.gaaco_schedule(wl, seed=seed),
        }
        simulate = sched.run_simulation

        def probing_simulation(*args, **kwargs):
            # A search calls this thousands of times; a probe sample every
            # quarter second lets the scaling follow the host inside a search
            # that runs for seconds. The sample is taken out of the cell's time.
            if time.perf_counter() - probe.last > 0.25:
                probe()
            return simulate(*args, **kwargs)

        results = []
        sched.run_simulation = probing_simulation
        try:
            with Section(tracer, probe) as sec:
                for wl in inp["workloads"]:
                    n = len(wl.tasks)
                    deadlines = _deadlines(wl)
                    done = []
                    for name, call in calls.items():
                        probe(3)
                        probed, t0 = probe.spent, time.perf_counter()
                        try:
                            assignment = call(wl)
                            trace = sim.run_simulation(wl, assignment)
                            raw = met.raw_qos(trace, wl.vms, deadlines)
                            load = met.load_rate(met.machine_usage_totals(trace))
                        except Exception as exc:  # a failed cell is counted, the round goes on
                            rnd.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                            continue
                        t1 = time.perf_counter()
                        if name in SEARCHES:
                            rnd.cells.append((name, n, t1 - t0 - (probe.spent - probed), t0, t1))
                        done.append((name, wl, assignment, trace, raw, load))
                    scores = met.qos_scores([r[4] for r in done], met.QosWeights())
                    results.extend(zip(done, scores))
        finally:
            sched.run_simulation = simulate
        rnd.wall, rnd.t0, rnd.t1 = sec.wall, sec.t0, sec.t1
        rnd.attempted = len(calls) * len(inp["workloads"])
        for (name, wl, assignment, trace, raw, load), score in results:
            n = len(wl.tasks)
            _check(rnd, name, trace, wl, assignment)
            rnd.tasks += n
            rnd.add_quality(trace, raw.time_cost, load, raw.reliability)
            rnd.rows.append(
                f"{name},{n},{raw.time_cost!r},{raw.money_cost!r},{raw.reliability!r},{load!r},{score!r}"
            )
        return rnd


# ---------------------------------------------------------------------------
# dispatch-learned: clustering, REINFORCE training, greedy deployment, export
# ---------------------------------------------------------------------------

# Machines differ in speed and bandwidth, but mildly: the trained policy sends
# nearly every task to one machine (see README.md), so the machine it picks
# sets the makespan, and a wide speed range would let that pick dominate
# every figure of the workload.
_FLEET = ((1050.0, 1000.0), (1000.0, 1250.0), (950.0, 800.0), (900.0, 1000.0))  # (mips, bandwidth)
_HORIZON = 48
_SHAPES = ("flat", "diurnal", "spike")


class DispatchLearned:
    """The learned-dispatch pipeline on a heterogeneous fleet whose users have
    flat, diurnal and spike usage profiles: DTW k-means over the users' cpu
    series, then, for each of several pipelines with their own seeds,
    REINFORCE training on short episodes with the full four-term reward, one
    greedy deployment episode and the trace export. Training and deployment
    share the fleet, because the policy's input size depends on the machine
    count. Several pipelines per round average out which action each
    trained policy happens to prefer."""

    def setup(self, cs, seed, smoke):
        wk, pol = cs.workload, cs.policy
        per_shape, pipelines, episodes, episode_tasks, deploy_tasks = (
            (2, 2, 4, 6, 30) if smoke else (10, 24, 10, 15, 100)
        )
        n_users = per_shape * len(_SHAPES)
        profiles = []
        for k, shape in enumerate(_SHAPES):
            for p in wk.generate_profiles(per_shape, _HORIZON, seed + k, shape, noise=0.05):
                profiles.append(wk.UsageProfile(p.user_id + k * per_shape, p.resource, p.series))
        vms = [wk.VmSpec(id=i, mips=m, bandwidth=b) for i, (m, b) in enumerate(_FLEET)]
        task_params = wk.TaskGenParams(
            mean_interarrival=1.0, n_users=n_users, deadline_slack_range=(30.0, 600.0)
        )
        reward = cs.rewards.RewardConfig()

        def with_profiles(tasks):
            users = {t.user_id for t in tasks}
            return wk.WorkloadSet.from_tasks(vms, tasks, [p for p in profiles if p.user_id in users])

        def pipeline(sub_seed):
            def episode(episode_seed):
                tasks = wk.generate_tasks(episode_tasks, sub_seed * 7919 + episode_seed, task_params)
                return with_profiles(tasks)

            deploy = with_profiles(wk.generate_tasks(deploy_tasks, sub_seed, task_params))
            return {
                "train_env": pol.SchedulingEnv(episode, reward, lookahead=3, ready_slots=3),
                "train_config": pol.TrainConfig(
                    alpha=1e-5, episodes=episodes, batch_size=5, seed=sub_seed, hidden=16
                ),
                "deploy": deploy,
                "deploy_env": pol.SchedulingEnv(deploy, reward, lookahead=3, ready_slots=3),
            }

        return {
            "seed": seed,
            "cpu_profiles": [p for p in profiles if p.resource == "cpu"],
            "pipelines": [pipeline(seed * pipelines + i) for i in range(pipelines)],
            "sizes": {
                "users": n_users,
                "profile_slots": _HORIZON,
                "vms": len(vms),
                "pipelines": pipelines,
                "train_episodes": episodes,
                "train_episode_tasks": episode_tasks,
                "deploy_tasks": deploy_tasks,
            },
        }

    def run(self, cs, inp, tracer, probe, tmp):
        rnd = Round()
        with Section(tracer, probe) as sec:
            probe()
            model = cs.rewards.kmeans_cluster(inp["cpu_profiles"], k=3, seed=inp["seed"])
            outputs = [self._pipeline(cs, p, probe, rnd.deployments) for p in inp["pipelines"]]
        rnd.wall, rnd.t0, rnd.t1 = sec.wall, sec.t0, sec.t1
        rnd.attempted = 1
        rnd.rows.append("clusters," + ",".join(f"{u}:{c}" for u, c in sorted(model.assignments.items())))
        for p, out in zip(inp["pipelines"], outputs):
            self._record(rnd, p, out)
        return rnd

    @staticmethod
    def _pipeline(cs, p, probe, deployments):
        """Train, deploy greedily and export; every call times into the round."""
        pol, sim, met = cs.policy, cs.simulator, cs.metrics
        train_env, env, wl = p["train_env"], p["deploy_env"], p["deploy"]
        out = {"episodes": [], "theta": None, "curve": []}

        def keeping_reset(seed=0):
            # Keep every episode's state; the next reset builds a new one.
            observation = type(train_env).reset(train_env, seed)
            out["episodes"].append(train_env.state)
            return observation

        probe()
        train_env.reset = keeping_reset
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out["theta"], out["curve"] = pol.train(train_env, p["train_config"])
        except Exception as exc:  # counted as a failed training run
            out["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            del train_env.reset
        out["warnings"] = [str(w.message) for w in caught]
        if out["theta"] is None:
            return out
        start = time.perf_counter()
        obs, mask = env.reset()
        done = env.state.done
        latencies = []
        while not done:
            t0 = time.perf_counter()
            probs = pol.policy_forward(out["theta"], obs, mask)
            obs, mask, _, done = env.step(int(np.argmax(probs)))
            latencies.append(time.perf_counter() - t0)
        if env.state.done:
            # A stalled episode's decisions are a failed operation, counted
            # in success_rate, not latency samples.
            deployments.append((start, time.perf_counter(), latencies))
        out["state"] = env.state
        trace = out["trace"] = env.trace()
        out["overuse"] = sim.scan_overuse(trace, wl)
        out["usage"] = sim.machine_usage_series(trace, wl)
        if env.state.done:
            out["raw"] = met.raw_qos(trace, wl.vms, _deadlines(wl))
            out["load"] = met.load_rate(met.machine_usage_totals(trace))
        return out

    @staticmethod
    def _record(rnd, p, out):
        rnd.attempted += p["train_config"].episodes + 1
        if "error" in out:
            rnd.failures.append(f"training: {out['error']}")
        if out["warnings"]:
            rnd.failures.append(f"training: {len(out['warnings'])} numpy warnings, first {out['warnings'][0]}")
        for state in out["episodes"]:
            _check(rnd, "training episode", state.trace(), state.workload, complete=state.done)
            rnd.tasks += len(state.tasks)
            if not state.done:
                rnd.failures.append(f"training episode stopped at the step cap ({len(state.records)} tasks done)")
        rnd.rows.append("returns," + ",".join(repr(r) for r in out["curve"]))
        if out["theta"] is None:
            return
        trace, wl, state = out["trace"], p["deploy"], out["state"]
        rnd.tasks += len(wl.tasks)
        _check(rnd, "deployment", trace, wl, complete=state.done)
        busy = [repr(float(s["busy"].sum())) for _, s in sorted(out["usage"].items())]
        if not state.done:
            rnd.failures.append(f"deployment stopped at the step cap ({len(trace.records)} tasks done)")
            rnd.rows.append(f"deploy,stalled,{len(trace.records)},{len(out['overuse'])},{busy}")
            return
        if out["overuse"] != trace.overuse_events:
            rnd.violations.append("deployment: overuse scan disagrees with the online stepper")
        raw, load = out["raw"], out["load"]
        rnd.add_quality(trace, raw.time_cost, load, raw.reliability)
        rnd.rows.append(
            f"deploy,{raw.time_cost!r},{raw.money_cost!r},{raw.reliability!r},{load!r},"
            f"{len(out['overuse'])},{busy}"
        )


WORKLOADS = {
    "search-batch": SearchBatch(),
    "search-dag": SearchDag(),
    "dispatch-learned": DispatchLearned(),
}

"""End-to-end acceptance checks.

One test per shipped claim, fourteen in all. The first six read the default
benchmark sweep (task counts 10..100 step 10, seeds 1..5, median per cell)
run through the real CLI; the rest are property suites over the library.
Each test prints one PASS/FAIL line; pytest -v adds its own verdict per test.
"""

import csv
import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cloudsched.cli import main as cli_main
from cloudsched.bench import TrainSetup
from cloudsched.metrics import QosWeights
from cloudsched.policy import (
    _log_policy_grad,
    evaluate_policy,
    init_policy,
    policy_forward,
    train,
)
from cloudsched.rewards import (
    OveruseEvent,
    RewardConfig,
    dtw_distance,
    kmeans_cluster,
    overuse_penalty,
    reward_breakdown,
    wait_penalty,
)
from cloudsched.simulator import (
    MachineSnapshot,
    RewardInputs,
    replay_assignment,
    run_simulation,
)
from cloudsched.schedulers import (
    aco_schedule,
    eft_schedule,
    gaaco_schedule,
    sa_schedule,
)
from cloudsched.workload import UsageProfile

from helpers import full_enumeration_raws, random_dag_workload, random_instance, score_with_pool

METAHEURISTICS = ("gaaco", "aco", "sa")
COUNTS = tuple(range(10, 101, 10))
HIGH_COUNTS = tuple(c for c in COUNTS if c >= 50)
# The default sweep's results.csv digest. A change that moves any byte of it
# must change this file too.
PINNED_SWEEP_SHA256 = Path(__file__).parent / "data" / "default_sweep.sha256"


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {verdict} {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# Default sweep fixture (runs the real CLI twice; the second run, on two
# worker processes, feeds #13)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "run1"
    t0 = time.perf_counter()
    rc = cli_main(["run", "--out", str(out)])
    wall = time.perf_counter() - t0
    assert rc == 0, "default sweep reported failures"
    return out, wall


@pytest.fixture(scope="module")
def sweep_again(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "run2"
    rc = cli_main(["run", "--out", str(out), "--jobs", "2"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def medians(sweep):
    out, _ = sweep
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    table = {}
    for row in rows:
        key = (row["algorithm"], int(row["task_count"]))
        table[key] = {
            "time": float(row["time_median"]),
            "money": float(row["money_median"]),
            "qos": float(row["qos_median"]),
            "load": float(row["load_median"]),
        }
    return table


def test_criterion_01_time_gap_over_aco_widens(medians):
    gaps = []
    ok = True
    for count in HIGH_COUNTS:
        g = medians[("gaaco", count)]["time"]
        a = medians[("aco", count)]["time"]
        gaps.append(a - g)
        ok = ok and g <= a
    widening = all(b >= a for a, b in zip(gaps, gaps[1:]))
    _report(
        1,
        "time cost beats aco at counts >= 50 with a widening gap",
        ok and widening,
        f"gaps over {HIGH_COUNTS} = {[round(x, 4) for x in gaps]}",
    )


def test_criterion_02_time_within_ten_pct_of_sa(medians):
    worst = max(
        abs(medians[("gaaco", c)]["time"] - medians[("sa", c)]["time"])
        / medians[("sa", c)]["time"]
        for c in COUNTS
    )
    _report(2, "time cost within +-10% of sa at every count", worst <= 0.10,
            f"worst relative difference {worst:.4f}")


def test_criterion_03_money_within_ten_pct_across_metaheuristics(medians):
    worst = 0.0
    for count in COUNTS:
        vals = [medians[(m, count)]["money"] for m in METAHEURISTICS]
        worst = max(worst, (max(vals) - min(vals)) / min(vals))
    _report(3, "money cost within 10% across the three metaheuristics", worst <= 0.10,
            f"worst relative spread {worst:.4f}")


def test_criterion_04_load_below_aco_at_high_counts(medians):
    ok = all(
        medians[("gaaco", c)]["load"] < medians[("aco", c)]["load"] for c in HIGH_COUNTS
    )
    pairs = [
        (round(medians[("gaaco", c)]["load"], 4), round(medians[("aco", c)]["load"], 4))
        for c in HIGH_COUNTS
    ]
    _report(4, "load rate strictly below aco at counts >= 50", ok,
            f"(gaaco, aco) pairs {pairs}")


def test_criterion_05_sa_load_near_zero(medians):
    worst = max(medians[("sa", c)]["load"] for c in COUNTS)
    _report(5, "sa load rate <= 0.05 on the default sweep", worst <= 0.05,
            f"max sa load {worst:.4f}")


def test_criterion_06_blended_quality_best_at_count_100(medians):
    g = medians[("gaaco", 100)]["qos"]
    other = min(medians[("aco", 100)]["qos"], medians[("sa", 100)]["qos"])
    _report(6, "blended quality at count 100 <= min(aco, sa)", g <= other,
            f"gaaco {g:.4f} vs min(aco, sa) {other:.4f}")


# ---------------------------------------------------------------------------
# Oracle optimality
# ---------------------------------------------------------------------------

def test_criterion_07_small_instance_oracle():
    t0 = time.perf_counter()
    matches = {"gaaco": 0, "aco": 0, "sa": 0, "eft": 0}
    beats = 0
    weights = QosWeights()
    for k in range(50):
        rng = np.random.default_rng(1000 + k)
        wl = random_instance(rng)
        raws = full_enumeration_raws(wl)
        candidates = {
            "gaaco": gaaco_schedule(wl, seed=k, weights=weights),
            "aco": aco_schedule(wl, seed=k, weights=weights),
            "sa": sa_schedule(wl, seed=k, weights=weights),
            "eft": eft_schedule(wl),
        }
        for name, assignment in candidates.items():
            score, best = score_with_pool(raws, wl, assignment, weights)
            if score < best - 1e-9:
                beats += 1
            if abs(score - best) <= 1e-9:
                matches[name] += 1
    wall = time.perf_counter() - t0
    ok = matches["gaaco"] >= 40 and matches["aco"] >= 30 and beats == 0 and wall < 30.0
    _report(7, "oracle matches on 50 small instances", ok,
            f"matches {matches}, oracle beaten {beats} times, {wall:.1f}s")


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------

def test_criterion_08_policy_gradient_matches_finite_differences():
    rng = np.random.default_rng(88)
    eps = 1e-5
    worst = 0.0
    for _ in range(100):
        theta = init_policy(6, 5, 4, seed=int(rng.integers(1 << 30)))
        s = rng.normal(size=6)
        valid = rng.random(4) < 0.8
        if not valid.any():
            valid[int(rng.integers(4))] = True
        choices = np.flatnonzero(valid)
        a = int(choices[rng.integers(len(choices))])
        analytic = _log_policy_grad(theta, s, a, valid)

        def log_pi(t):
            return float(np.log(policy_forward(t, s, valid)[a]))

        for idx, name in enumerate(("w1", "b1", "w2", "b2")):
            grad = getattr(theta, name) * 0.0 + analytic[idx]
            it = np.nditer(grad, flags=["multi_index"])
            for _v in it:
                mi = it.multi_index
                up = theta.copy()
                getattr(up, name)[mi] += eps
                down = theta.copy()
                getattr(down, name)[mi] -= eps
                numeric = (log_pi(up) - log_pi(down)) / (2 * eps)
                denom = max(abs(grad[mi]), abs(numeric), 1e-6)
                worst = max(worst, abs(grad[mi] - numeric) / denom)
    _report(8, "analytic gradient vs central differences on 100 triples",
            worst <= 1e-4, f"max relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# RL learning on the two-machine toy problem
# ---------------------------------------------------------------------------

def test_criterion_09_trained_policy_beats_random_play():
    t0 = time.perf_counter()
    setup = TrainSetup()  # two machines, waiting-penalty-only reward
    improvements = []
    for s in (1, 2, 3, 4, 5):
        env = setup.build_env()
        theta, _ = train(env, replace(setup.train_config(), seed=s))
        trained = evaluate_policy(env, theta, episodes=setup.eval_episodes)
        rand = evaluate_policy(env, None, episodes=setup.eval_episodes)
        improvements.append((trained - rand) / abs(rand))
    wall = time.perf_counter() - t0
    med = float(np.median(improvements))
    ok = med >= 0.20 and wall < 60.0
    _report(9, "trained return beats uniform-random by >= 20% (median of 5 seeds)",
            ok, f"median improvement {med:+.1%}, {wall:.1f}s")


# ---------------------------------------------------------------------------
# Reward sanity
# ---------------------------------------------------------------------------

def _random_reward_inputs(rng, config):
    n_machines = int(rng.integers(1, 5))
    machines = []
    for m in range(n_machines):
        in_use = bool(rng.random() < 0.7)
        used = {r: float(rng.uniform(0.0, 1.5)) for r in config.resources}
        n_res = int(rng.integers(0, 4))
        series_len = int(rng.integers(1, 5))
        residents = {
            r: tuple(rng.uniform(0.0, 1.0, size=series_len) for _ in range(n_res))
            for r in config.resources
        }
        machines.append(
            MachineSnapshot(
                machine_id=m, in_use=in_use, used=used, resident_profiles=residents
            )
        )
    events = [
        OveruseEvent(
            machine_id=int(rng.integers(0, n_machines)),
            resource=str(rng.choice(list(config.resources))),
            time=float(rng.integers(0, 10)),
        )
        for _ in range(int(rng.integers(0, 6)))
    ]
    queue = int(rng.integers(0, 40))
    return RewardInputs(
        clock=float(rng.uniform(0, 100)),
        queue_len=queue,
        machines=machines,
        new_overuse=events,
    )


def test_criterion_10_penalties_are_nonpositive_and_exact():
    config = RewardConfig()
    rng = np.random.default_rng(10)
    worst = 0.0
    wait_exact = True
    overuse_once = True
    for _ in range(1000):
        inputs = _random_reward_inputs(rng, config)
        br = reward_breakdown(inputs, config)
        worst = max(worst, br.competition, br.utilization, br.overuse, br.wait)
        if br.wait != -config.k_w * abs(inputs.queue_len):
            wait_exact = False
        pairs = {(e.machine_id, e.resource) for e in inputs.new_overuse}
        if br.overuse != -config.k_o * len(pairs):
            overuse_once = False
        assert wait_penalty(inputs.queue_len, config) == br.wait
    ok = worst <= 0.0 and wait_exact and overuse_once
    _report(10, "penalties <= 0 on 1000 random states, wait and overuse exact",
            ok, f"max component {worst:.3g}, wait exact {wait_exact}, "
                f"overuse once per (machine, resource) {overuse_once}")


def test_overuse_penalty_counts_duplicate_events_once():
    config = RewardConfig(k_o=5.0)
    events = [OveruseEvent(0, "cpu", 1.0), OveruseEvent(0, "cpu", 3.0), OveruseEvent(0, "cpu", 9.0)]
    assert overuse_penalty(events, config) == -5.0


# ---------------------------------------------------------------------------
# DTW axioms
# ---------------------------------------------------------------------------

def test_criterion_11_dtw_axioms_and_hand_examples():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        x = rng.uniform(-5, 5, size=int(rng.integers(1, 9)))
        y = rng.uniform(-5, 5, size=int(rng.integers(1, 9)))
        d = dtw_distance(x, y)
        ok = ok and d >= 0.0
        ok = ok and dtw_distance(x, x) == 0.0
        ok = ok and dtw_distance(x, y) == dtw_distance(y, x)
    hands = (
        dtw_distance([0.0, 0.0, 1.0], [0.0, 1.0]) == 0.0
        and dtw_distance([0.0], [1.0]) == 1.0
    )
    _report(11, "dtw nonnegative, identity, symmetric on 1000 pairs + hand values",
            ok and hands, f"axioms {ok}, hand examples {hands}")


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

def test_criterion_12_kmeans_inertia_monotone_and_groups_recovered():
    monotone = True
    rng = np.random.default_rng(12)
    for trial in range(30):
        profiles = [
            UsageProfile(u, "cpu", rng.uniform(0.0, 1.0, size=8))
            for u in range(int(rng.integers(4, 9)))
        ]
        model = kmeans_cluster(profiles, k=int(rng.integers(1, 4)), seed=trial)
        hist = model.inertia_history
        monotone = monotone and all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    low = [UsageProfile(u, "cpu", np.full(6, 0.1)) for u in range(5)]
    high = [UsageProfile(u + 5, "cpu", np.full(6, 0.9)) for u in range(5)]
    recovered = True
    for seed in range(50):
        model = kmeans_cluster(low + high, k=2, seed=seed)
        groups = {}
        for user, cid in model.assignments.items():
            groups.setdefault(cid, set()).add(user)
        wanted = {frozenset(range(5)), frozenset(range(5, 10))}
        recovered = recovered and {frozenset(g) for g in groups.values()} == wanted
    _report(12, "k-means inertia nonincreasing and two-group fixture recovered",
            monotone and recovered,
            f"monotone {monotone}, fixture recovered for all 50 seeds {recovered}")


# ---------------------------------------------------------------------------
# Determinism of the benchmark artifact
# ---------------------------------------------------------------------------

def test_criterion_13_bench_run_is_reproducible(sweep, sweep_again):
    out1, wall = sweep
    first = (out1 / "results.csv").read_bytes()
    second = (sweep_again / "results.csv").read_bytes()
    rows = first.decode("utf-8").strip().splitlines()
    digest = hashlib.sha256(first).hexdigest()
    pinned = PINNED_SWEEP_SHA256.read_text(encoding="utf-8").strip()
    ok = first == second and digest == pinned and len(rows) == 1 + 10 * 5 * 4 and wall < 300.0
    _report(13, "default bench runs at --jobs 1 and 2 emit the pinned results.csv",
            ok, f"identical {first == second}, sha256 {digest}"
                + ("" if digest == pinned else f" but pinned {pinned}")
                + f", {len(rows) - 1} data rows, first run took {wall:.0f}s (budget 300s)")


# ---------------------------------------------------------------------------
# Simulator precedence
# ---------------------------------------------------------------------------

def test_criterion_14_precedence_and_replay_equivalence():
    rng = np.random.default_rng(14)
    precedence_ok = True
    replay_ok = True
    for _ in range(200):
        wl, assignment = random_dag_workload(rng)
        trace = run_simulation(wl, assignment)
        rec = trace.records
        for src, dst in wl.dag.edges:
            if rec[dst].start < rec[src].completion - 1e-12:
                precedence_ok = False
        stepped = replay_assignment(wl, assignment)
        if stepped.records != trace.records:
            replay_ok = False
    _report(14, "start(j) >= CT(i) on 200 random dags and step/run equivalence",
            precedence_ok and replay_ok,
            f"precedence {precedence_ok}, replay equality {replay_ok}")

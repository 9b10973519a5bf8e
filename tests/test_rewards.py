"""Penalty terms, DTW, feature extraction and profile clustering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudsched.errors import ConfigurationError
from cloudsched.rewards import (
    RewardConfig,
    dtw_distance,
    extract_features,
    kmeans_cluster,
    kmeans_elbow,
    overuse_penalty,
    total_reward,
    wait_penalty,
    write_centroid_csv,
    write_cluster_csv,
)
from cloudsched.simulator import OveruseEvent, init_state, step
from cloudsched.workload import RESOURCES, DagWorkflow, Task, UsageProfile, WorkloadSet

from helpers import TERMS, only, profiled_workload, vm


def placed_state(machines, profiles, n_vms=1):
    """The state after each machines[i] got a task of user i at t = 0, in
    user order: a machine's first task runs and the rest wait in its queue,
    so every user is resident. None leaves the user's task ready."""
    tasks = [Task(id=u, user_id=u, length=5000.0) for u in range(len(machines))]
    state = init_state(WorkloadSet([vm(j) for j in range(n_vms)], DagWorkflow(tasks, []), profiles))
    for u, m in enumerate(machines):
        if m is not None:
            step(state, (u, m))
    return state


# ---------------------------------------------------------------------------
# Competition
# ---------------------------------------------------------------------------

def competition(series, k_c=1.0):
    """The competition term of one machine whose residents have these cpu
    series."""
    state = placed_state([0] * len(series), [UsageProfile(u, "cpu", s) for u, s in enumerate(series)])
    return total_reward(state, [], only("competition", RewardConfig(k_c=k_c, resources=("cpu",))))


def test_single_resident_contributes_nothing():
    assert competition([[1.0, 1.0]]) == 0.0


def test_orthogonal_residents_do_not_compete():
    assert competition([[1.0, 0.0], [0.0, 1.0]]) == 0.0


def test_overlapping_residents_charged_by_inner_product():
    # <[1,1], [1,1]> = 2, weighted by k_c=2 -> -4
    assert competition([[1.0, 1.0], [1.0, 1.0]], k_c=2.0) == -4.0


def test_competition_matches_pairwise_double_loop():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n_machines = int(rng.integers(1, 4))
        n_users = int(rng.integers(0, 10))
        cfg = only("competition", RewardConfig(k_c=float(rng.uniform(0.5, 3.0))))
        machines = [int(rng.integers(n_machines)) for _ in range(n_users)]
        profiles = [
            UsageProfile(u, d, rng.uniform(0, 1, 6))
            for u in range(n_users) for d in RESOURCES if rng.random() < 0.6
        ]
        expected = 0.0
        for a in profiles:
            for b in profiles:
                if a.user_id < b.user_id and a.resource == b.resource:
                    if machines[a.user_id] == machines[b.user_id]:
                        expected += cfg.k_c * float(a.series @ b.series)
        state = placed_state(machines, profiles, n_vms=n_machines)
        assert total_reward(state, [], cfg) == pytest.approx(-expected)


# ---------------------------------------------------------------------------
# Utilization
# ---------------------------------------------------------------------------

def utilization(cpu, k_u=2.0, n_vms=1):
    """The utilization term with one resident of this cpu demand on
    machine 0."""
    state = placed_state([0], [UsageProfile(0, "cpu", [cpu])], n_vms=n_vms)
    return total_reward(state, [], only("utilization", RewardConfig(k_u=k_u, resources=("cpu",))))


def test_fully_packed_machines_have_no_slack_penalty():
    assert utilization(1.0) == 0.0


def test_half_idle_machine_charged_by_squared_slack():
    assert utilization(0.5) == pytest.approx(-0.25)


def test_idle_machines_are_exempt():
    # Machine 1 holds no task: its zero demand is not slack.
    assert utilization(1.0, n_vms=2) == 0.0


def test_zero_exponent_disables_the_term():
    assert utilization(0.2, k_u=0.0) == 0.0


# ---------------------------------------------------------------------------
# Overuse
# ---------------------------------------------------------------------------

def test_no_overshoot_means_no_charge():
    assert overuse_penalty([], RewardConfig()) == 0.0


def test_repeat_overshoots_of_one_pair_charge_once():
    events = [OveruseEvent(0, "cpu", 3.0), OveruseEvent(0, "cpu", 7.0)]
    assert overuse_penalty(events, RewardConfig(k_o=5.0)) == -5.0


def test_distinct_pairs_add_up():
    events = [(0, "cpu"), (1, "memory")]
    assert overuse_penalty(events, RewardConfig(k_o=1.0)) == -2.0


# ---------------------------------------------------------------------------
# Wait
# ---------------------------------------------------------------------------

def test_empty_queue_is_free():
    assert wait_penalty(0, RewardConfig()) == 0.0


def test_wait_charge_is_linear_in_queue_length():
    cfg = RewardConfig(k_w=2.0)
    assert wait_penalty(3, cfg) == -6.0
    assert wait_penalty(4 + 5, cfg) == wait_penalty(4, cfg) + wait_penalty(5, cfg)


def test_negative_queue_rejected():
    with pytest.raises(ValueError):
        wait_penalty(-1, RewardConfig())


# ---------------------------------------------------------------------------
# Composite
# ---------------------------------------------------------------------------

def breakdown_state():
    """Users 0 and 1 on machine 0 with cpu [0.25, 0.25] each: a pair sum of
    0.125, a demand of 0.5 at slot 0 and one task waiting in the queue."""
    return placed_state([0, 0], [UsageProfile(u, "cpu", [0.25, 0.25]) for u in (0, 1)])


def test_breakdown_total_is_the_component_sum():
    # Over random profiled episodes, the full reward equals its four terms,
    # each read alone, added in order.
    rng = np.random.default_rng(6)
    steps = 0
    for _ in range(30):
        wl = profiled_workload(rng)
        state = init_state(wl)
        while not state.done:
            action = (state.ready[0], wl.vms[int(rng.integers(len(wl.vms)))].id) if state.ready else None
            fresh = step(state, action)
            config = RewardConfig(k_c=float(rng.uniform(0, 3)), k_u=float(rng.choice([0.0, 2.0])))
            terms = [total_reward(state, fresh, only(t, config)) for t in TERMS]
            assert total_reward(state, fresh, config) == ((terms[0] + terms[1]) + terms[2]) + terms[3]
            steps += 1
    assert steps > 200


def test_disabling_other_terms_leaves_wait_only():
    # Four users on one machine with cpu 0.125 each: 0.5 in use, three
    # tasks queued, and a fresh overshoot that k_o = 0 does not charge.
    state = placed_state([0] * 4, [UsageProfile(u, "cpu", [0.125]) for u in range(4)])
    cfg = RewardConfig(k_c=0.0, k_u=0.0, k_o=0.0, k_w=2.0)
    assert total_reward(state, [(0, "cpu")], cfg) == -6.0


def test_breakdown_components_are_individually_retrievable():
    state = breakdown_state()
    cfg = RewardConfig(k_c=1.0, k_u=2.0, k_o=5.0, k_w=1.0, resources=("cpu",))
    terms = {t: total_reward(state, [(0, "cpu")], only(t, cfg)) for t in TERMS}
    assert terms == {"competition": -0.125, "utilization": -0.25, "overuse": -5.0, "wait": -1.0}
    assert total_reward(state, [(0, "cpu")], cfg) == -6.375


def test_negative_weights_rejected():
    with pytest.raises(ConfigurationError):
        RewardConfig(k_c=-1.0)
    with pytest.raises(ConfigurationError):
        RewardConfig(resources=("disk",))
    # A repeated resource would be charged twice by every per-resource term.
    with pytest.raises(ConfigurationError, match=r"^resources lists \['cpu'\] more than once$"):
        RewardConfig(resources=("cpu", "memory", "cpu"))


def test_all_penalties_are_nonpositive_on_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        cfg = RewardConfig(
            k_c=float(rng.uniform(0, 3)),
            k_u=float(rng.uniform(0, 3)),
            k_o=float(rng.uniform(0, 6)),
            k_w=float(rng.uniform(0, 2)),
        )
        n_users = int(rng.integers(0, 5))
        machines = [None if rng.random() < 0.2 else int(rng.integers(2)) for _ in range(n_users)]
        profiles = [
            UsageProfile(u, d, rng.uniform(0, 1, 4))
            for u in range(n_users) for d in cfg.resources if rng.random() < 0.7
        ]
        state = placed_state(machines, profiles, n_vms=2)
        events = [(int(rng.integers(0, 3)), "cpu") for _ in range(int(rng.integers(0, 3)))]
        for term in TERMS:
            assert total_reward(state, events, only(term, cfg)) <= 0.0
        assert overuse_penalty(events, cfg) <= 0.0
        assert wait_penalty(int(rng.integers(0, 20)), cfg) <= 0.0


# ---------------------------------------------------------------------------
# DTW
# ---------------------------------------------------------------------------

def test_dtw_identical_series_cost_zero():
    assert dtw_distance([0.2, 0.4, 0.6], [0.2, 0.4, 0.6]) == 0.0


def test_dtw_warp_absorbs_repeats():
    assert dtw_distance([0.0, 0.0, 1.0], [0.0, 1.0]) == 0.0


def test_dtw_single_cell():
    assert dtw_distance([0.0], [1.0]) == 1.0


def test_dtw_empty_series_rejected():
    with pytest.raises(ValueError):
        dtw_distance([], [1.0])
    with pytest.raises(ValueError):
        dtw_distance([1.0], [])


series_strategy = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(series_strategy, series_strategy)
def test_dtw_axioms(a, b):
    d = dtw_distance(a, b)
    assert d >= 0.0
    assert dtw_distance(a, a) == 0.0
    assert dtw_distance(b, a) == pytest.approx(d)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def test_constant_series_has_flat_trend():
    f = extract_features([0.5] * 8, ar_order=2)
    assert f.trend_slope == pytest.approx(0.0, abs=1e-9)
    assert f.mean == pytest.approx(0.5)
    assert np.all(np.isfinite(f.ar_coeffs))


def test_linear_ramp_slope_recovered():
    series = [0.5 * t for t in range(10)]
    f = extract_features(series, ar_order=2)
    assert f.trend_slope == pytest.approx(0.5, abs=1e-9)


def test_peak_slot_is_the_argmax():
    assert extract_features([0.0, 0.0, 1.0, 0.0], ar_order=1).peak_slot == 2


def test_short_series_error_names_the_minimum():
    with pytest.raises(ValueError, match="3"):
        extract_features([0.1, 0.2], ar_order=1)


def test_feature_vector_layout():
    f = extract_features([0.1, 0.5, 0.3, 0.9, 0.2], ar_order=2)
    arr = f.as_array()
    assert arr.shape == (6,)  # 2 AR coefficients + slope, intercept, mean, peak


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

def _flat_profiles(levels):
    return [UsageProfile(u, "cpu", np.full(8, lv)) for u, lv in enumerate(levels)]


def test_k_equals_n_gives_singleton_clusters():
    profiles = _flat_profiles([0.1, 0.3, 0.5, 0.7])
    model = kmeans_cluster(profiles, k=4, seed=0)
    assert model.inertia == 0.0
    assert len(set(model.assignments.values())) == 4


def test_k_one_picks_the_central_medoid():
    profiles = _flat_profiles([0.0, 0.5, 1.0])
    model = kmeans_cluster(profiles, k=1, seed=0)
    assert set(model.assignments.values()) == {0}
    # Total distance: 0.5*8 to each end beats 1.0*8 from either end.
    assert model.centroid_users == [1]
    assert model.inertia == pytest.approx(8.0)


def test_separated_groups_recovered_for_every_seed():
    profiles = [UsageProfile(u, "cpu", np.full(8, 0.1)) for u in range(5)]
    profiles += [UsageProfile(u, "cpu", np.full(8, 0.9)) for u in range(5, 10)]
    for seed in range(20):
        model = kmeans_cluster(profiles, k=2, seed=seed)
        groups = {}
        for u, c in model.assignments.items():
            groups.setdefault(c, set()).add(u)
        assert sorted(groups.values(), key=min) == [{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}]


def test_inertia_history_is_nonincreasing():
    rng = np.random.default_rng(23)
    for trial in range(20):
        profiles = [
            UsageProfile(u, "cpu", rng.uniform(0, 1, 10)) for u in range(8)
        ]
        model = kmeans_cluster(profiles, k=3, seed=trial)
        hist = model.inertia_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        assert model.inertia == hist[-1]
        assert set(model.assignments) == set(range(8))


def test_k_larger_than_n_rejected():
    with pytest.raises(ConfigurationError):
        kmeans_cluster(_flat_profiles([0.1, 0.2]), k=3)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_no_iterations_rejected(max_iter):
    # Without a sweep there is no assignment to return; it used to end in IndexError.
    with pytest.raises(ConfigurationError, match=rf"^max_iter must be >= 1, got {max_iter}$"):
        kmeans_cluster(_flat_profiles([0.1, 0.2]), k=1, max_iter=max_iter)


def test_duplicate_users_rejected():
    profiles = [
        UsageProfile(0, "cpu", np.full(4, 0.1)),
        UsageProfile(0, "memory", np.full(4, 0.2)),
    ]
    with pytest.raises(ConfigurationError):
        kmeans_cluster(profiles, k=1)


def test_euclidean_mode_recovers_groups_too():
    profiles = [UsageProfile(u, "cpu", np.full(8, 0.1)) for u in range(3)]
    profiles += [UsageProfile(u, "cpu", np.full(8, 0.9)) for u in range(3, 6)]
    model = kmeans_cluster(profiles, k=2, distance="euclidean", seed=1)
    groups = {}
    for u, c in model.assignments.items():
        groups.setdefault(c, set()).add(u)
    assert sorted(groups.values(), key=min) == [{0, 1, 2}, {3, 4, 5}]


def test_elbow_reports_one_inertia_per_k():
    profiles = _flat_profiles([0.1, 0.4, 0.9, 0.6])
    out = kmeans_elbow(profiles, ks=[1, 2, 3])
    assert [k for k, _ in out] == [1, 2, 3]
    assert all(v >= 0 for _, v in out)


def test_cluster_csv_outputs(tmp_path):
    profiles = _flat_profiles([0.1, 0.9])
    model = kmeans_cluster(profiles, k=2, seed=0)
    cpath = tmp_path / "clusters.csv"
    mpath = tmp_path / "centroids.csv"
    write_cluster_csv(model, str(cpath))
    write_centroid_csv(model, str(mpath))
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "user_id,cluster_id"
    assert len(lines) == 3
    assert mpath.read_text().startswith("cluster_id,slot,value")

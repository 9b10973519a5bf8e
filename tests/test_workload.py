"""Generators, DAG validation and workload (de)serialization."""

import ast
import json
import math

import numpy as np
import pytest

from cloudsched.errors import ConfigurationError, DagValidationError
from cloudsched.workload import (
    RESOURCES,
    DagWorkflow,
    Task,
    TaskGenParams,
    UsageProfile,
    VmSpec,
    WorkloadSet,
    generate_profiles,
    generate_tasks,
    load_workload,
    save_workload,
    validate_dag,
)

from helpers import task, vm


# ---------------------------------------------------------------------------
# Task generation
# ---------------------------------------------------------------------------

def test_zero_tasks_gives_empty_list():
    assert generate_tasks(0, seed=1) == []


def test_negative_count_rejected():
    with pytest.raises(ConfigurationError):
        generate_tasks(-1, seed=0)


def test_generation_is_deterministic():
    a = generate_tasks(30, seed=3)
    b = generate_tasks(30, seed=3)
    assert a == b


def test_different_seeds_differ():
    a = generate_tasks(30, seed=3)
    b = generate_tasks(30, seed=4)
    assert a != b


def test_draws_stay_inside_configured_ranges():
    params = TaskGenParams(
        length_range=(1000.0, 5000.0),
        input_range=(10.0, 20.0),
        output_range=(30.0, 40.0),
        n_users=4,
    )
    tasks = generate_tasks(100, seed=7, params=params)
    assert len(tasks) == 100
    for t in tasks:
        assert 1000.0 <= t.length <= 5000.0
        assert 10.0 <= t.input_size <= 20.0
        assert 30.0 <= t.output_size <= 40.0
        assert 0 <= t.user_id < 4


def test_even_arrivals_are_evenly_spaced():
    params = TaskGenParams(mean_interarrival=0.5, arrival_pattern="even")
    tasks = generate_tasks(10, seed=0, params=params)
    arrivals = [t.arrival_time for t in tasks]
    assert arrivals[0] == 0.0
    diffs = np.diff(arrivals)
    assert np.allclose(diffs, 0.5)


def test_poisson_arrivals_nondecreasing():
    params = TaskGenParams(mean_interarrival=0.5, arrival_pattern="poisson")
    tasks = generate_tasks(50, seed=11, params=params)
    arrivals = [t.arrival_time for t in tasks]
    assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))


def test_zero_interarrival_means_batch_submission():
    params = TaskGenParams(mean_interarrival=0.0)
    tasks = generate_tasks(5, seed=2, params=params)
    assert all(t.arrival_time == 0.0 for t in tasks)


def test_deadlines_present_only_when_configured():
    assert all(t.deadline is None for t in generate_tasks(10, seed=1))
    params = TaskGenParams(deadline_slack_range=(5.0, 10.0))
    for t in generate_tasks(10, seed=1, params=params):
        assert t.deadline is not None
        slack = t.deadline - t.arrival_time
        assert 5.0 <= slack <= 10.0


def test_bad_generator_params_rejected():
    with pytest.raises(ConfigurationError):
        TaskGenParams(length_range=(5000.0, 1000.0))
    with pytest.raises(ConfigurationError):
        TaskGenParams(mean_interarrival=-1.0)
    with pytest.raises(ConfigurationError):
        TaskGenParams(arrival_pattern="bursty")
    with pytest.raises(ConfigurationError):
        TaskGenParams(n_users=0)


def test_task_field_validation():
    with pytest.raises(ConfigurationError):
        Task(id=0, length=0.0)
    with pytest.raises(ConfigurationError):
        Task(id=0, input_size=-1.0)
    with pytest.raises(ConfigurationError):
        Task(id=0, arrival_time=2.0, deadline=2.0)  # deadline must fall after


def test_vm_field_validation():
    with pytest.raises(ConfigurationError):
        VmSpec(id=0, mips=0.0)
    with pytest.raises(ConfigurationError):
        VmSpec(id=0, instr_cost_rate=-0.01)


NAN = float("nan")


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (VmSpec, {"id": 0, "mips": NAN}),
        (VmSpec, {"id": 0, "bandwidth": NAN}),
        (VmSpec, {"id": 0, "instr_cost_rate": NAN}),
        (VmSpec, {"id": 0, "bw_cost_rate": NAN}),
        (Task, {"id": 0, "length": NAN}),
        (Task, {"id": 0, "output_size": NAN}),
        (Task, {"id": 0, "arrival_time": NAN}),
        (Task, {"id": 0, "deadline": NAN}),
        (UsageProfile, {"user_id": 0, "resource": "cpu", "series": [NAN]}),
        (UsageProfile, {"user_id": 0, "resource": "cpu", "series": [0.5, NAN]}),
        (TaskGenParams, {"mean_interarrival": NAN}),
        (TaskGenParams, {"length_range": (NAN, 1.0)}),
        (TaskGenParams, {"input_range": (0.0, NAN)}),
        (TaskGenParams, {"deadline_slack_range": (NAN, 5.0)}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "-".join(k for k, x in v.items() if "nan" in repr(x)),
)
def test_nan_fields_are_rejected(cls, kwargs):
    # A NaN fails every comparison, so each check must test that the valid
    # range fails to hold rather than that an invalid one holds.
    with pytest.raises(ConfigurationError):
        cls(**kwargs)


INF = math.inf


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (VmSpec, {"id": 0, "mips": INF}),
        (VmSpec, {"id": 0, "bandwidth": INF}),
        (VmSpec, {"id": 0, "instr_cost_rate": INF}),
        (VmSpec, {"id": 0, "bw_cost_rate": INF}),
        (Task, {"id": 0, "length": INF}),
        (Task, {"id": 0, "input_size": INF}),
        (Task, {"id": 0, "output_size": INF}),
        (Task, {"id": 0, "arrival_time": INF}),
        (Task, {"id": 0, "deadline": INF}),
        (TaskGenParams, {"length_range": (1.0, INF)}),
        (TaskGenParams, {"length_range": (INF, INF)}),
        (TaskGenParams, {"input_range": (0.0, INF)}),
        (TaskGenParams, {"output_range": (INF, INF)}),
        (TaskGenParams, {"deadline_slack_range": (1.0, INF)}),
        (TaskGenParams, {"deadline_slack_range": (INF, INF)}),
        (TaskGenParams, {"mean_interarrival": INF}),
        (TaskGenParams, {"n_users": NAN}),
        (TaskGenParams, {"n_users": INF}),
        (TaskGenParams, {"n_users": 2.5}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "-".join(f"{k}={x}" for k, x in v.items() if k != "id"),
)
def test_non_finite_fields_are_rejected_naming_the_field(cls, kwargs):
    # JSON input rejects these in the codec; values built in Python must be
    # rejected by the dataclass itself, with a message that names the field.
    (field,) = set(kwargs) - {"id"}
    with pytest.raises(ConfigurationError, match=field):
        cls(**kwargs)


# ---------------------------------------------------------------------------
# DAG validation
# ---------------------------------------------------------------------------

def _witness(err):
    """The cycle of task ids named by a DagValidationError's message."""
    return ast.literal_eval(str(err).split("dag contains a cycle: ", 1)[1])


def test_empty_dag_is_valid():
    assert validate_dag(DagWorkflow([], [])) == []


def test_chain_is_acyclic():
    # Input indices, in edge order: task 2 is listed first but runs last.
    tasks = [task(2), task(1), task(0)]
    assert validate_dag(DagWorkflow(tasks, [(0, 1), (1, 2)])) == [2, 1, 0]


def test_two_node_cycle_reported_with_witness():
    tasks = [task(1), task(2)]
    with pytest.raises(DagValidationError, match="dag contains a cycle") as exc:
        validate_dag(DagWorkflow(tasks, [(1, 2), (2, 1)]))
    assert set(_witness(exc.value)) == {1, 2}
    with pytest.raises(DagValidationError, match="dag contains a cycle") as exc:
        validate_dag(DagWorkflow([task(0), task(1)], [(0, 1), (0, 0)]))
    assert _witness(exc.value) == (0,)


def test_duplicate_task_ids_raise():
    with pytest.raises(DagValidationError):
        validate_dag(DagWorkflow([task(1), task(1)], []))


def test_dangling_edge_endpoint_raises():
    with pytest.raises(DagValidationError):
        validate_dag(DagWorkflow([task(1)], [(1, 99)]))


def _kahn_is_acyclic(n, edges):
    indeg = {i: 0 for i in range(n)}
    succs = {i: [] for i in range(n)}
    for a, b in edges:
        indeg[b] += 1
        succs[a].append(b)
    frontier = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while frontier:
        node = frontier.pop()
        seen += 1
        for nxt in succs[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                frontier.append(nxt)
    return seen == n


def test_cycle_detection_agrees_with_reference_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        edges = []
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < 0.15:
                    edges.append((a, b))
        dag = DagWorkflow([task(i) for i in range(n)], edges)
        if _kahn_is_acyclic(n, edges):
            # A topological permutation of the input indices (here the ids).
            order = validate_dag(dag)
            assert sorted(order) == list(range(n))
            place = {t: k for k, t in enumerate(order)}
            assert all(place[a] < place[b] for a, b in edges)
            continue
        with pytest.raises(DagValidationError, match="dag contains a cycle") as exc:
            validate_dag(dag)
        # The witness must be an actual cycle of the graph.
        cyc = list(_witness(exc.value))
        assert len(set(cyc)) == len(cyc)
        edge_set = set(edges)
        for i in range(len(cyc)):
            assert (cyc[i], cyc[(i + 1) % len(cyc)]) in edge_set


def test_validate_does_not_mutate_the_dag():
    tasks = [task(i) for i in range(4)]
    edges = [(0, 1), (1, 2), (2, 3)]
    dag = DagWorkflow(list(tasks), list(edges))
    validate_dag(dag)
    assert dag.tasks == tasks and dag.edges == edges


# ---------------------------------------------------------------------------
# Usage profiles
# ---------------------------------------------------------------------------

def test_flat_profiles_hold_the_level():
    profiles = generate_profiles(1, horizon=4, seed=0, shape="flat", level=0.5)
    assert len(profiles) == len(RESOURCES)  # one per resource kind
    for p in profiles:
        assert list(p.series) == [0.5, 0.5, 0.5, 0.5]


def test_disjoint_spikes_are_orthogonal():
    profiles = generate_profiles(
        2, horizon=8, seed=0, shape="spike", peak_width=2, peak_slots=(0, 4)
    )
    by_user = {(p.user_id, p.resource): p for p in profiles}
    a = by_user[(0, "cpu")].series
    b = by_user[(1, "cpu")].series
    assert float(a @ b) == 0.0


def test_profile_generation_is_deterministic():
    kw = dict(shape="diurnal", noise=0.1, period=8, peak_width=2)
    a = generate_profiles(3, horizon=16, seed=5, **kw)
    b = generate_profiles(3, horizon=16, seed=5, **kw)
    for pa, pb in zip(a, b):
        assert pa.user_id == pb.user_id and pa.resource == pb.resource
        assert np.array_equal(pa.series, pb.series)


def test_noisy_profiles_remain_within_unit_interval():
    profiles = generate_profiles(4, horizon=32, seed=9, shape="diurnal", noise=0.5)
    for p in profiles:
        assert np.all(p.series >= 0.0) and np.all(p.series <= 1.0)


def test_profile_entry_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        UsageProfile(0, "cpu", np.array([0.5, 1.2]))
    with pytest.raises(ConfigurationError):
        UsageProfile(0, "cpu", np.array([]))
    with pytest.raises(ConfigurationError):
        UsageProfile(0, "gpu", np.array([0.5]))
    # -0.0 is kept as +0.0, from Python and from JSON alike, so summed
    # demand never depends on where a sum starts; the file is rewritten with 0.0.
    signed = np.array([-0.0, 0.2, -0.0])
    assert [float(v).hex() for v in UsageProfile(0, "cpu", signed).series] == [
        "0x0.0p+0", (0.2).hex(), "0x0.0p+0"
    ]
    assert np.signbit(signed).tolist() == [True, False, True]  # the input is not changed
    path = tmp_path / "wl.json"
    path.write_text(json.dumps({
        "vms": [{"id": 0}],
        "tasks": [{"id": 0}],
        "profiles": [{"user_id": 0, "resource": "cpu", "series": [-0.0, 0.5]}],
    }))
    assert "-0.0" in path.read_text()
    series = load_workload(str(path)).profiles[0].series
    assert not np.signbit(series).any() and series.tolist() == [0.0, 0.5]
    save_workload(load_workload(str(path)), str(path))
    assert "-0.0" not in path.read_text()


def test_demand_lookup_wraps_past_the_horizon():
    p = UsageProfile(0, "cpu", np.array([0.1, 0.9]))
    assert p.demand_at(3) == 0.9
    assert p.demand_at(4) == 0.1


# ---------------------------------------------------------------------------
# WorkloadSet and serialization
# ---------------------------------------------------------------------------

def test_duplicate_vm_ids_rejected():
    with pytest.raises(ConfigurationError):
        WorkloadSet.from_tasks([vm(0), vm(0)], [task(0)])


def test_profiles_for_unknown_users_rejected():
    orphan = UsageProfile(7, "cpu", np.array([0.5]))
    with pytest.raises(ConfigurationError):
        WorkloadSet.from_tasks([vm(0)], [task(0, user_id=0)], [orphan])


def test_duplicate_profiles_rejected():
    # A second cpu profile for user 0 would replace the first in
    # profile_map and in the stepper's series index, so it is refused,
    # naming the user, the count and the resource. Other resources of the
    # same user, and the same resource of another user, are fine.
    tasks = [task(0, user_id=0), task(1, user_id=1)]
    cpu = [UsageProfile(0, "cpu", [0.2, 0.4]), UsageProfile(1, "cpu", [0.1, 0.3])]
    memory = UsageProfile(0, "memory", [0.5])
    wl = WorkloadSet.from_tasks([vm(0)], tasks, cpu + [memory])
    assert set(wl.profile_map()) == {(0, "cpu"), (1, "cpu"), (0, "memory")}
    for extra, message in [
        ([UsageProfile(0, "cpu", [0.9, 0.9])], "user 0 has 2 cpu profiles"),
        ([memory, memory], "user 0 has 3 memory profiles"),
        ([UsageProfile(1, "cpu", [0.1, 0.3])], "user 1 has 2 cpu profiles"),
    ]:
        with pytest.raises(ConfigurationError) as err:
            WorkloadSet.from_tasks([vm(0)], tasks, cpu + [memory] + extra)
        assert str(err.value) == message


def test_save_load_roundtrip(tmp_path):
    tasks = [task(i, length=1000.0 + i / 3, user_id=i % 2, deadline=50.0 + i) for i in range(4)]
    tasks[1] = task(1, length=0.1 + 0.2, user_id=1)
    wl = WorkloadSet(
        [vm(0), vm(1, mips=500.0, bw_cost_rate=0.3)],
        DagWorkflow(tasks, [(0, 2), (1, 3)]),
        generate_profiles(2, horizon=6, seed=1, noise=0.1),
    )
    path = tmp_path / "wl.json"
    save_workload(wl, str(path))
    back = load_workload(str(path))
    assert back.vms == wl.vms
    assert back.dag.tasks == wl.dag.tasks
    assert back.dag.edges == wl.dag.edges
    assert len(back.profiles) == len(wl.profiles)
    for pa, pb in zip(back.profiles, wl.profiles):
        assert pa.user_id == pb.user_id and pa.resource == pb.resource
        assert np.array_equal(pa.series, pb.series)
    save_workload(back, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


_VM = {"id": 0}
_TASK = {"id": 0}


@pytest.mark.parametrize(
    "doc, path",
    [
        ("{not json", "is not valid JSON"),
        ([], "workload file must be a JSON object"),
        ({"vms": [_VM], "tasks": [_TASK], "extra": {}}, "unknown key 'extra' in workload file"),
        ({"vms": _VM, "tasks": [_TASK]}, "workload file.vms must be a list"),
        ({"vms": [{"mips": 1}], "tasks": [_TASK]}, "workload file.vms[0].id is required"),
        ({"vms": [{"id": 0, "ram": 1}], "tasks": [_TASK]}, "unknown key 'ram' in workload file.vms[0]"),
        ({"vms": [{"id": 0, "mips": True}], "tasks": [_TASK]}, "workload file.vms[0].mips must be a number"),
        ({"vms": [{"id": 0, "cpu_count": 1}], "tasks": [_TASK]}, "unknown key 'cpu_count' in workload file.vms[0]"),
        ({"vms": [_VM], "tasks": [{"id": 1.5}]}, "workload file.tasks[0].id must be an integer"),
        ({"vms": [_VM], "tasks": [{"id": 0, "length": "9"}]}, "workload file.tasks[0].length must be"),
        ({"vms": [_VM], "tasks": [{"id": 0, "deadline": "x"}]}, "workload file.tasks[0].deadline must"),
        ('{"vms": [{"id": 0}], "tasks": [{"id": 0, "length": Infinity}]}', "tasks[0].length must be a finite"),
        ({"vms": [_VM]}, "workload file: needs exactly one of 'tasks' or 'dags'"),
        ({"vms": [_VM], "tasks": [_TASK], "dags": []}, "workload file: needs exactly one"),
        ({"vms": [_VM], "dags": [{"edges": []}]}, "workload file.dags[0].tasks is required"),
        ({"vms": [_VM], "dags": {"tasks": [_TASK]}}, "workload file.dags must be a list"),
        (
            {"vms": [_VM], "dags": [{"tasks": [_TASK, {"id": 1}], "edges": [[0]]}]},
            "workload file.dags[0].edges[0] must be a list of 2 items",
        ),
        (
            {"vms": [_VM], "tasks": [_TASK], "profiles": [{"user_id": 0, "resource": "cpu"}]},
            "workload file.profiles[0].series is required",
        ),
        (
            {"vms": [_VM], "tasks": [_TASK],
             "profiles": [{"user_id": 0, "resource": "cpu", "series": [0.5, "x"]}]},
            "workload file.profiles[0].series[1] must be a number",
        ),
        (
            {"vms": [_VM], "tasks": [_TASK],
             "profiles": [{"user_id": 0, "resource": "cpu", "series": [1.5]}]},
            "workload file.profiles[0]: profile entries must lie in [0, 1]",
        ),
        (
            {"vms": [_VM], "tasks": [_TASK, {"id": 1, "user_id": 1}],
             "profiles": [{"user_id": 0, "resource": "cpu", "series": [0.5] * 24},
                          {"user_id": 1, "resource": "cpu", "series": [0.5] * 48}]},
            "cpu profiles differ in length: [24, 48] slots",
        ),
        ({"vms": [{"id": 0, "memory": 256.0}], "tasks": [_TASK]}, "unknown key 'memory' in workload file.vms[0]"),
        ({"vms": [{"id": 0, "storage": 10.0}], "tasks": [_TASK]}, "unknown key 'storage' in workload file.vms[0]"),
        (
            {"vms": [_VM], "tasks": [_TASK],
             "profiles": [{"user_id": 0, "resource": "cpu", "series": [0.5] * 24},
                          {"user_id": 0, "resource": "memory", "series": [0.5]},
                          {"user_id": 0, "resource": "cpu", "series": [0.25] * 24}]},
            "user 0 has 2 cpu profiles",
        ),
    ],
)
def test_malformed_workload_fails_naming_its_field(tmp_path, doc, path):
    file = tmp_path / "wl.json"
    file.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ConfigurationError) as exc:
        load_workload(str(file))
    assert path in str(exc.value)


def test_load_rejects_a_cyclic_dag(tmp_path):
    doc = {"vms": [_VM], "dags": [{"tasks": [_TASK, {"id": 1}], "edges": [[0, 1], [1, 0]]}]}
    file = tmp_path / "wl.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(DagValidationError, match=r"dag contains a cycle: \((0, 1|1, 0)\)"):
        load_workload(str(file))


def test_load_rejects_unknown_top_level_keys(tmp_path):
    wl = WorkloadSet.from_tasks([vm(0)], [task(0)])
    path = tmp_path / "wl.json"
    save_workload(wl, str(path))
    doc = json.loads(path.read_text())
    doc["extra"] = {}
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError):
        load_workload(str(path))


def test_load_requires_exactly_one_task_container(tmp_path):
    wl = WorkloadSet.from_tasks([vm(0)], [task(0)])
    path = tmp_path / "wl.json"
    save_workload(wl, str(path))
    doc = json.loads(path.read_text())
    doc.pop("tasks", None)
    doc.pop("dags", None)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError):
        load_workload(str(path))

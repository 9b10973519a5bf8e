"""Experiment configs, the sweep runner, report files and the bench CLI."""

import ast
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cloudsched
from cloudsched.bench import (
    DELTA_COLUMNS,
    RESULT_COLUMNS,
    SUMMARY_COLUMNS,
    TIMING_COLUMNS,
    ExperimentConfig,
    SchedulerSpec,
    SweepConfig,
    VmFleetConfig,
    build_cell_workload,
    compute_deltas,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    run_cell_group,
    run_experiment,
    run_training,
    scheduler_seed,
    summarize,
    workload_seed,
    write_rows_csv,
)
from cloudsched.cli import main
from cloudsched.errors import ConfigurationError
from cloudsched.metrics import QosWeights
from cloudsched.policy import (
    TrainConfig,
    action_count,
    init_policy,
    load_policy,
    observation_size,
    save_policy,
)
from cloudsched.rewards import RewardConfig
from cloudsched.schedulers import (
    AcoParams,
    GaacoParams,
    SaParams,
    _Evaluator,
    aco_schedule,
    gaaco_schedule,
    sa_schedule,
)
from cloudsched.workload import load_workload

from helpers import plan_score

FAST_SA_PARAMS = {
    "initial_temp": 0.02,
    "cooling_rate": 0.8,
    "steps_per_temp": 10,
    "min_temp": 0.005,
}


def tiny_config_data(out_dir):
    return {
        "vms": {"count": 2},
        "seeds": [1, 2],
        "sweep": {"start": 3, "stop": 4, "step": 1},
        "schedulers": ["eft", {"name": "sa", "params": dict(FAST_SA_PARAMS)}],
        "output_dir": str(out_dir),
    }


def tiny_config(out_dir=""):
    return config_from_dict(tiny_config_data(out_dir))


def result_view(rows):
    return [{k: r[k] for k in RESULT_COLUMNS} for r in rows]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_default_config_roundtrips_through_dict():
    config = default_config()
    assert config_from_dict(config_to_dict(config)) == config


def test_config_roundtrips_through_json_file(tmp_path):
    config = tiny_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)))
    assert load_config(str(path)) == config


def test_unknown_keys_are_rejected_everywhere():
    for data in (
        {"bogus": 1},
        {"workload": {"bogus": 1}},
        {"vms": {"bogus": 1}},
        {"sweep": {"bogus": 1}},
        {"weights": {"bogus": 0.1}},
        {"train": {"bogus": 1}},
        {"schedulers": [{"name": "eft", "bogus": 1}]},
    ):
        with pytest.raises(ConfigurationError, match="bogus"):
            config_from_dict(data)


@pytest.mark.parametrize(
    "data, path",
    [
        ([1], "experiment config must be a JSON object"),
        ({"workload": [1]}, "experiment config.workload must be a JSON object"),
        ({"seeds": 3}, "experiment config.seeds must be a list"),
        ({"schedulers": "eft"}, "experiment config.schedulers must be a list"),
        ({"schedulers": [3]}, "experiment config.schedulers[0] must be a JSON object"),
        ({"schedulers": [{"algorithm": "eft"}]}, "experiment config.schedulers[0].name is required"),
        ({"schedulers": [{"name": "sa", "params": []}]}, "experiment config.schedulers[0].params must"),
        (
            {"schedulers": [{"name": "sa", "params": {"steps_per_temp": 1.5}}]},
            "experiment config.schedulers[0]: bad params for 'sa': params.steps_per_temp",
        ),
        ({"workload": {"mean_interarrival": "0.3"}}, "experiment config.workload.mean_interarrival"),
        ({"workload": {"length_range": [1]}}, "experiment config.workload.length_range must"),
        ({"workload": {"length_range": [1, "x"]}}, "experiment config.workload.length_range[1]"),
        ({"seeds": [1.5]}, "experiment config.seeds[0] must be an integer"),
        ({"seeds": [-1]}, "experiment config: seeds must be >= 0"),
        ({"sweep": {"start": True}}, "experiment config.sweep.start must be an integer"),
        ({"weights": {"time": True}}, "experiment config.weights.time must be a number"),
        ({"weights": {"time": 0.9}}, "experiment config.weights: weights must sum to 1"),
        ({"vms": {"mips": "fast"}}, "experiment config.vms.mips must be a number"),
        ({"vms": {"mips": -1}}, "experiment config.vms: vm 0: mips must be positive"),
        ({"vms": {"mips": 10**400}}, "experiment config.vms.mips must be a finite number"),
        ({"weights": {"time": math.nan}}, "experiment config.weights.time must be a finite"),
        ({"workload": {"length_range": [1, math.inf]}}, "experiment config.workload.length_range[1]"),
        ({"vms": {"cpu_count": 1}}, "unknown key 'cpu_count' in experiment config.vms"),
        ({"train": {"machine_mips": [1000.0, 0]}}, "experiment config.train: vm 1: mips"),
        ({"output_dir": 5}, "experiment config.output_dir must be a string"),
        (
            {"schedulers": [{"name": "eft", "policy_file": "policy.txt"}]},
            "experiment config.schedulers[0]: 'eft' takes no policy_file",
        ),
        ({"vms": {"memory": 256.0}}, "unknown key 'memory' in experiment config.vms"),
        ({"vms": {"storage": 10.0}}, "unknown key 'storage' in experiment config.vms"),
        ({"train": {"eval_episodes": 0}}, "experiment config.train: train setup needs eval_episodes"),
        ({"train": {"lookahead": 0}}, "experiment config.train: train setup needs lookahead >= 1"),
        ({"train": {"ready_slots": -1}}, "experiment config.train: train setup needs ready_slots"),
    ],
)
def test_malformed_config_fails_naming_its_field(data, path):
    with pytest.raises(ConfigurationError) as exc:
        config_from_dict(data)
    assert path in str(exc.value)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "params", "mips", "x"]), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_json_fails_only_with_configuration_errors(data):
    # Swap one value of the default config, at any depth, for random JSON.
    doc = config_to_dict(default_config())
    node, key = doc, data.draw(st.sampled_from(sorted(doc)))
    while isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
        node = node[key]
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    node[key] = data.draw(_JSON)
    try:
        config_from_dict(doc)
    except ConfigurationError:
        pass


DOCS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def test_format_examples_load(tmp_path):
    # Every JSON example in docs/formats.md loads through the reader its
    # section documents, so the docs cannot drift from the codec.
    loaded = []
    for section in DOCS.read_text().split("\n## ")[1:]:
        title = section.splitlines()[0]
        for i, block in enumerate(section.split("```json\n")[1:]):
            text = block.split("```")[0]
            if title == "Workload JSON":
                path = tmp_path / f"workload-{i}.json"
                path.write_text(text)
                loaded.append(load_workload(str(path)))
            else:
                assert title == "Experiment config JSON"
                loaded.append(config_from_dict(json.loads(text)))
    assert [type(x).__name__ for x in loaded] == ["WorkloadSet", "WorkloadSet", "ExperimentConfig"]
    assert loaded[2] == default_config()
    # The example writes [2850, 3150]; JSON integers in float fields are floats.
    assert all(type(x) is float for x in loaded[2].workload.length_range)


def test_scheduler_string_shorthand():
    config = config_from_dict({"schedulers": ["eft", "aco"]})
    assert [s.name for s in config.schedulers] == ["eft", "aco"]
    assert config.schedulers[0].algorithm == "eft"


def test_scheduler_spec_validation():
    with pytest.raises(ConfigurationError, match="unknown algorithm"):
        SchedulerSpec("mystery")
    with pytest.raises(ConfigurationError, match="policy_file"):
        SchedulerSpec("policy")
    with pytest.raises(ConfigurationError, match="bad params"):
        SchedulerSpec("gaaco", params={"not_a_knob": 3})
    with pytest.raises(ConfigurationError, match="takes no params"):
        SchedulerSpec("eft", params={"x": 1})
    with pytest.raises(ConfigurationError, match="'aco' takes no policy_file"):
        SchedulerSpec("aco", policy_file="nowhere.txt")
    # Display name can differ from the algorithm it runs.
    spec = SchedulerSpec("sa-fast", algorithm="sa", params=dict(FAST_SA_PARAMS))
    assert spec.build_params().steps_per_temp == 10


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError, match="unique"):
        ExperimentConfig(schedulers=(SchedulerSpec("eft"), SchedulerSpec("eft")))
    with pytest.raises(ConfigurationError, match="seed"):
        ExperimentConfig(seeds=())
    with pytest.raises(ConfigurationError, match="load_formula"):
        config_from_dict({"load_formula": "imbalance"})


NAN_CHECKED = (QosWeights, RewardConfig, AcoParams, GaacoParams, SaParams, TrainConfig)
FLOAT_FIELDS = [
    (cls, f.name) for cls in NAN_CHECKED for f in dataclasses.fields(cls) if f.type == "float"
]


@pytest.mark.parametrize(
    "cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS]
)
def test_nan_fails_every_range_check(cls, name):
    with pytest.raises(ConfigurationError):
        dataclasses.replace(cls(), **{name: math.nan})


def test_sweep_counts_are_inclusive():
    assert SweepConfig(10, 100, 10).counts() == (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    assert SweepConfig(3, 4, 1).counts() == (3, 4)
    with pytest.raises(ConfigurationError):
        SweepConfig(10, 5, 10)


def test_fleet_builds_one_spec_per_id():
    vms = VmFleetConfig(count=3, mips=2000.0).build()
    assert [v.id for v in vms] == [0, 1, 2]
    assert all(v.mips == 2000.0 for v in vms)


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------

def test_workload_seed_depends_only_on_the_cell():
    assert workload_seed(50, 3) == workload_seed(50, 3)
    assert workload_seed(50, 3) != workload_seed(50, 4)
    assert workload_seed(50, 3) != workload_seed(60, 3)


def test_scheduler_seeds_differ_by_name():
    assert scheduler_seed(50, 3, "gaaco") == scheduler_seed(50, 3, "gaaco")
    assert scheduler_seed(50, 3, "gaaco") != scheduler_seed(50, 3, "aco")


def test_cell_workload_is_shared_and_deterministic():
    config = tiny_config()
    a = build_cell_workload(config, 4, 1)
    b = build_cell_workload(config, 4, 1)
    assert [t.length for t in a.tasks] == [t.length for t in b.tasks]
    assert len(a.tasks) == 4
    assert len(a.vms) == 2


# ---------------------------------------------------------------------------
# Running the sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "out"
    config = tiny_config(out)
    rows = run_experiment(config)
    return config, rows, out


def test_run_produces_one_row_per_cell(tiny_run):
    config, rows, _ = tiny_run
    assert len(rows) == 2 * 2 * 2  # counts x seeds x schedulers
    assert all(r["status"] == "ok" for r in rows)
    keys = [(r["task_count"], r["seed"], r["algorithm"]) for r in rows]
    assert keys == sorted(keys)
    assert {r["algorithm"] for r in rows} == {"eft", "sa"}


def test_rerun_gives_identical_result_rows(tiny_run):
    config, rows, _ = tiny_run
    again = run_experiment(config, out_dir="")
    assert result_view(again) == result_view(rows)


def test_report_files_and_headers(tiny_run):
    _, _, out = tiny_run
    for name in ("results.csv", "timings.csv", "summary.csv", "deltas.csv",
                 "config.json", "plot_results.py"):
        assert (out / name).exists()
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == ",".join(RESULT_COLUMNS)
    assert (out / "timings.csv").read_text().splitlines()[0] == ",".join(TIMING_COLUMNS)
    assert (out / "summary.csv").read_text().splitlines()[0] == ",".join(SUMMARY_COLUMNS)
    assert (out / "deltas.csv").read_text().splitlines()[0] == ",".join(DELTA_COLUMNS)


def test_rerun_results_csv_is_byte_identical(tiny_run, tmp_path):
    config, _, out = tiny_run
    run_experiment(config, out_dir=str(tmp_path / "again"))
    first = (out / "results.csv").read_bytes()
    second = (tmp_path / "again" / "results.csv").read_bytes()
    assert first == second


def test_failed_cells_are_isolated(tmp_path):
    # The policy fits the fleet, but its no-op bias wins every argmax, so
    # each episode stops at the step cap with no task done.
    theta = init_policy(observation_size(2, 3, 3), 4, action_count(2, 3))
    theta.b2[-1] = 100.0
    policy = tmp_path / "noop-policy.txt"
    save_policy(theta, str(policy))
    data = tiny_config_data("")
    data["schedulers"].append({"name": "policy", "policy_file": str(policy)})
    config = config_from_dict(data)
    rows = run_experiment(config, out_dir="")
    failed = [r for r in rows if r["algorithm"] == "policy"]
    assert [r["status"] for r in failed] == [
        f"failed: incomplete 0/{r['task_count']}" for r in failed
    ]
    assert len(failed) == 4
    assert all(math.isnan(r["score"]) for r in failed)
    others = [r for r in rows if r["algorithm"] != "policy"]
    assert all(r["status"] == "ok" for r in others)


def test_cell_scores_do_not_depend_on_the_pool():
    # On the default workload gaaco, sa and eft tie on time and money in
    # every cell, so no pool could move their scores. Here they differ and
    # aco's plan is the slowest, so a score normalized within the pool gave
    # gaaco 0.132 with aco and 0.51 without it.
    config = config_from_dict({"workload": {
        "arrival_pattern": "poisson",
        "length_range": [1000.0, 5000.0],
        "deadline_slack_range": [4.0, 12.0],
    }})
    without_aco = dataclasses.replace(
        config, schedulers=tuple(s for s in config.schedulers if s.name != "aco")
    )
    n, seed = 20, 1
    rows = {r["algorithm"]: r for r in run_cell_group(config, n, seed)}
    fewer = {r["algorithm"]: r for r in run_cell_group(without_aco, n, seed)}
    assert sorted(fewer) == ["eft", "gaaco", "sa"]
    assert {a: r["score"].hex() for a, r in fewer.items()} == {
        a: rows[a]["score"].hex() for a in fewer
    }
    wl = build_cell_workload(config, n, seed)
    ev = _Evaluator(wl, config.weights)
    searches = {"gaaco": gaaco_schedule, "aco": aco_schedule, "sa": sa_schedule}
    for spec in config.schedulers:
        if spec.name in searches:
            plan = searches[spec.name](
                wl, params=spec.build_params(), seed=scheduler_seed(n, seed, spec.name),
                weights=config.weights,
            )
            assert rows[spec.name]["score"] == plan_score(ev, plan)


def test_missing_policy_file_is_rejected_before_any_cell(tmp_path):
    data = tiny_config_data(tmp_path / "out")
    data["schedulers"].append(
        {"name": "policy", "policy_file": str(tmp_path / "missing-policy.txt")}
    )
    with pytest.raises(
        ConfigurationError,
        match=r"schedulers\[2\]\.policy_file .*missing-policy.txt.* cannot be read",
    ):
        run_experiment(config_from_dict(data))
    assert not (tmp_path / "out").exists()


def test_policy_that_does_not_fit_the_fleet_is_rejected_before_any_cell(tmp_path):
    # The bias on "first ready task to machine 0" wins every argmax where
    # it is valid, so every episode finishes within its step cap.
    theta = init_policy(observation_size(2, 3, 3), 4, action_count(2, 3))
    theta.b2[0] = 100.0
    policy = tmp_path / "policy.txt"
    save_policy(theta, str(policy))
    data = tiny_config_data(tmp_path / "fits")
    data["schedulers"].append({"name": "policy", "policy_file": str(policy)})
    rows = run_experiment(config_from_dict(data))
    assert [r["status"] for r in rows if r["algorithm"] == "policy"] == ["ok"] * 4
    data["vms"] = {"count": 3}
    data["output_dir"] = str(tmp_path / "misfit")
    with pytest.raises(
        ConfigurationError,
        match=r"schedulers\[2\]\.policy_file .* takes 19 inputs, .* 3 machines .* of 22",
    ):
        run_experiment(config_from_dict(data))
    assert not (tmp_path / "misfit").exists()


def test_summary_ignores_failed_rows(tiny_run):
    base = {
        "task_count": 10, "seed": 1, "avg_time_cost": 2.0,
        "avg_money_cost": 1.0, "score": 0.5, "load_rate": 0.1,
    }
    rows = [
        dict(base, algorithm="a", status="ok"),
        dict(base, algorithm="b", status="failed: boom"),
    ]
    summary = summarize(rows)
    by_algo = {s["algorithm"]: s for s in summary}
    assert by_algo["a"]["n_ok"] == 1
    assert by_algo["a"]["time_std"] == 0.0
    assert by_algo["b"]["n_ok"] == 0
    assert math.isnan(by_algo["b"]["time_median"])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def make_row(algo, count, seed, time):
    return {
        "algorithm": algo, "task_count": count, "seed": seed,
        "avg_time_cost": time, "avg_money_cost": 1.0,
        "score": 0.5, "load_rate": 0.1, "status": "ok",
    }


def test_delta_hand_example():
    rows = [make_row("a", 10, 1, 49.1), make_row("b", 10, 1, 100.0)]
    deltas = compute_deltas(summarize(rows))
    entry = next(
        d for d in deltas
        if d["metric"] == "time" and d["algorithm_a"] == "a" and d["algorithm_b"] == "b"
    )
    assert entry["delta_pct"] == pytest.approx(-50.9)


def test_identical_algorithms_have_zero_delta():
    rows = [make_row("a", 10, 1, 3.0), make_row("b", 10, 1, 3.0)]
    deltas = compute_deltas(summarize(rows))
    assert all(d["delta_pct"] == 0.0 for d in deltas if d["metric"] == "time")


def test_delta_with_zero_baseline_is_nan():
    # -3.4e-18 is the default sweep's mean score of eft at n = 10: a score
    # at its lower bound, a rounding step below 0.
    for baseline in (0.0, -0.0, -3.4e-18):
        rows = [make_row("a", 10, 1, 3.0), make_row("b", 10, 1, baseline)]
        deltas = compute_deltas(summarize(rows))
        entry = next(
            d for d in deltas
            if d["metric"] == "time" and d["algorithm_a"] == "a" and d["algorithm_b"] == "b"
        )
        assert math.isnan(entry["delta_pct"]), baseline


def test_median_and_mean_over_seeds():
    rows = [make_row("a", 10, s, t) for s, t in ((1, 1.0), (2, 2.0), (3, 6.0))]
    (entry,) = summarize(rows)
    assert entry["time_median"] == 2.0
    assert entry["time_mean"] == 3.0
    assert entry["n_ok"] == 3


def test_csv_floats_use_repr(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(path, [{"x": 0.1, "y": 1 / 3, "z": "plain"}], ("x", "y", "z"))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,z"
    assert lines[1] == f"{0.1!r},{(1 / 3)!r},plain"


def test_csv_escapes_commas_and_quotes(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(path, [{"s": 'failed: a,b "c"'}], ("s",))
    assert path.read_text().splitlines()[1] == '"failed: a,b ""c"""'


def test_plot_script_only_uses_stdlib_and_matplotlib(tiny_run):
    _, _, out = tiny_run
    tree = ast.parse((out / "plot_results.py").read_text())
    mods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            mods.add(node.module.split(".")[0])
    assert mods <= {"argparse", "csv", "sys", "collections", "pathlib", "matplotlib"}


# ---------------------------------------------------------------------------
# Policy training entry point
# ---------------------------------------------------------------------------

def test_run_training_saves_a_loadable_policy(tmp_path):
    config = config_from_dict(
        {"train": {"episodes": 8, "n_tasks": 3, "eval_episodes": 3, "hidden": 8}}
    )
    out = tmp_path / "policy.txt"
    report = run_training(config, str(out))
    assert set(report) == {"episodes", "trained_return", "random_return", "improvement"}
    assert report["episodes"] == 8.0
    assert math.isfinite(report["improvement"])
    theta = load_policy(str(out))
    assert theta.n_hidden == 8


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def test_cli_show_params(capsys):
    assert main(["--show-params"]) == 0
    out = capsys.readouterr().out
    assert "[gaaco]" in out and "[aco]" in out and "[sa]" in out
    assert "evolution_num = 100" in out
    assert "ants = 20" in out


def test_cli_show_params_with_a_subcommand_prints_and_exits(tmp_path, capsys):
    argv = ["--show-params", "summarize", "--results", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "evolution_num = 100" in captured.out and captured.err == ""
    assert not (tmp_path / "out").exists()


HEADER = "algorithm,task_count,seed,avg_time_cost,avg_money_cost,score,load_rate,status\n"


def bad_input_files(tmp_path):
    """{placeholder: (path, bytes)} of the files the unreadable-input cases
    name; a missing file has no bytes."""
    policy = tmp_path / "policy.txt"
    config = tiny_config_data(tmp_path / "out")
    config["schedulers"].append({"name": "policy", "policy_file": str(policy)})
    return {
        "missing": (tmp_path / "nope", None),
        "latin1": (tmp_path / "latin1.json", '{"seeds": [1], "note": "café"}'.encode("latin-1")),
        "no_count": (
            tmp_path / "no_count.csv",
            (HEADER.replace("task_count,", "") + "eft,1,1.0,2.0,0.5,0.1,ok\n").encode(),
        ),
        "bad_seed": (
            tmp_path / "bad_seed.csv",
            (HEADER + "eft,3,1,1.0,2.0,0.5,0.1,ok\neft,3,x,1.0,2.0,0.5,0.1,ok\n").encode(),
        ),
        "old_pooled": (
            tmp_path / "old_pooled.csv",
            (HEADER.replace("score", "multi_qos") + "eft,3,1,1.0,2.0,0.5,0.1,ok\n").encode(),
        ),
        "huge_field": (tmp_path / "huge.csv", (HEADER + "eft,3,1,1.0,2.0,0.5,0.1," + "x" * 200_000).encode()),
        "bad_dims": (policy, b"cloudsched-policy 1\n2 2 x\n1 2 3 4\n1 2\n1 2 3 4\n1 2\n"),
        "policy_config": (tmp_path / "policy.json", json.dumps(config).encode()),
    }


@pytest.mark.parametrize("argv, kind, detail", [
    pytest.param(["run", "--config", "{missing}"], "config", "", id="argv0-config"),
    pytest.param(["train", "--config", "{missing}"], "config", "", id="argv1-config"),
    pytest.param(
        ["summarize", "--results", "{missing}", "--out", "{out}"], "results", "", id="argv2-results"
    ),
    pytest.param(["run", "--config", "{latin1}"], "config", "not UTF-8 (byte 27)", id="not-utf8-config"),
    pytest.param(
        ["summarize", "--results", "{no_count}", "--out", "{out}"],
        "results",
        "no task_count column",
        id="results-without-a-column",
    ),
    pytest.param(
        ["summarize", "--results", "{bad_seed}", "--out", "{out}"],
        "results",
        "line 3: seed 'x' is not a number",
        id="results-with-a-non-number",
    ),
    pytest.param(
        ["summarize", "--results", "{old_pooled}", "--out", "{out}"],
        "results",
        "no score column; multi_qos is the old pooled score",
        id="results-with-the-old-pooled-column",
    ),
    pytest.param(
        ["summarize", "--results", "{huge_field}", "--out", "{out}"],
        "results",
        "field larger than field limit",
        id="results-with-a-huge-field",
    ),
    pytest.param(
        ["run", "--config", "{policy_config}"],
        "policy",
        "line 2: 'x' is not a number",
        id="policy-with-a-non-number",
    ),
])
def test_cli_unreadable_input_file_is_an_error_naming_it(tmp_path, capsys, argv, kind, detail):
    files = bad_input_files(tmp_path)
    for path, data in files.values():
        if data is not None:
            path.write_bytes(data)
    # The policy case names the policy file its config points at, and the
    # config field that holds it.
    named, field = files[argv[2][1:-1]][0], ""
    if kind == "policy":
        named, field = files["bad_dims"][0], "schedulers[2].policy_file: "
    argv = [a.format(out=tmp_path / "out", **{k: p for k, (p, _) in files.items()}) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}cannot read {kind} file {named}: {detail}")
    assert "Traceback" not in err


def test_cli_run_with_config(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny_config_data(tmp_path / "ignored")))
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "8 rows (8 ok)" in out
    digest = hashlib.sha256((out_dir / "results.csv").read_bytes()).hexdigest()
    assert out.splitlines()[-1] == f"results.csv sha256 {digest}"


def test_cli_summarize_matches_the_run_report(tiny_run, tmp_path, capsys):
    _, _, out = tiny_run
    redo = tmp_path / "redo"
    rc = main(["summarize", "--results", str(out / "results.csv"), "--out", str(redo)])
    assert rc == 0
    assert (redo / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()
    assert (redo / "deltas.csv").read_bytes() == (out / "deltas.csv").read_bytes()


def test_cli_train_writes_policy(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps({"train": {"episodes": 6, "n_tasks": 3, "eval_episodes": 2, "hidden": 8}})
    )
    out = tmp_path / "policy.txt"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert "saved policy" in capsys.readouterr().out


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_without_command_prints_help(capsys):
    assert main([]) == 0
    assert "usage: bench" in capsys.readouterr().out


def test_importing_the_package_loads_no_process_pool():
    # Only run_experiment with jobs > 1 starts worker processes, so it imports
    # the pool itself: every `bench` start-up would otherwise load the
    # multiprocessing modules for nothing.
    code = (
        "import sys, cloudsched; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cloudsched.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert run.stdout.strip() == "[]"

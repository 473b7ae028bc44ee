"""Tests of the benchmark itself: every output check fires on a corrupted
output, and a smoke size of each workload runs clean.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from stormgrid.cli import load_scenario
from stormgrid.engine import MonteCarloConfig, SimulationContext, run_experiment
from stormgrid.fragility import sample_failures
from stormgrid.network import load_networks
from stormgrid.outputs import emit_outputs
from stormgrid.restoration import Strategy
from workloads import WORKLOADS, make_inputs

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """A small landfall experiment whose stopping rule runs past its minimum."""
    tmp = tmp_path_factory.mktemp("exp")
    workload = WORKLOADS["landfall-gradient"]
    files = make_inputs(workload, 3, tmp / "inputs", smoke=True)
    net, roads, households = load_networks(
        files["power"], files["roads"], files["couplings"]
    )
    cfg = load_scenario(files["scenario"])
    ctx = SimulationContext(net, roads, households)
    mc = MonteCarloConfig(min_replications=3, max_replications=30, base_seed=40)
    result = run_experiment(
        net, roads, households, cfg.hazard, cfg.fragility, cfg.repair,
        list(Strategy), workload.teams, mc, context=ctx,
    )
    emit_outputs(result, tmp / "out")
    ref = checks.Reference(files)
    return ref, result, tmp / "out", workload.teams, ref.fueled_plants_at_hour0()


def _edit_csv(out, strategy, edit):
    path = out / f"timeseries_{strategy}.csv"
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _edit_summary(out, edit):
    path = out / "summary.json"
    payload = json.loads(path.read_text())
    edit(payload["strategies"]["distance"])
    path.write_text(json.dumps(payload))


def _set(rows, rep, hour, column, value):
    for row in rows:
        if row["replication"] == str(rep) and row["hour"] == str(hour):
            row[column] = value
    return rows


def _last_hour(rows, rep):
    return max(int(r["hour"]) for r in rows if r["replication"] == str(rep))


def _records(result, strategy):
    return result.by_strategy[Strategy.from_name(strategy)].replications


CORRUPTIONS = {
    "end_state": lambda out, res: _edit_csv(
        out, "distance",
        lambda rows: _set(rows, 0, _last_hour(rows, 0), "failed_components", "1"),
    ),
    "quality_range": lambda out, res: _edit_csv(
        out, "distance",
        lambda rows: _set(rows, 1, _last_hour(rows, 1), "q_traffic_lights", "1.500000"),
    ),
    "monotone": lambda out, res: _edit_csv(
        out, "component",
        lambda rows: _set(rows, 0, _last_hour(rows, 0) - 1, "q_households", "0.000000"),
    ),
    "crews": lambda out, res: setattr(
        _records(res, "traffic-light")[0].records[2], "crews_in_use", 999
    ),
    "paired_failures": lambda out, res: _records(res, "distance")[0]
    .initial_failures.__setitem__(0, "GEN0"),
    "hour0_failures": lambda out, res: _edit_csv(
        out, "distance",
        lambda rows: _set(rows, 0, 0, "failed_components",
                          str(int(rows[0]["failed_components"]) + 1)),
    ),
    "failure_count": lambda out, res: _edit_csv(
        out, "component",
        lambda rows: [
            dict(r, failed_components=str(int(r["failed_components"]) + 500))
            if r["hour"] == "0" else r
            for r in rows
        ],
    ),
    "hour0_service": lambda out, res: _edit_csv(
        out, "traffic-light",
        lambda rows: _set(rows, 0, 0, "q_households", "0.000000"),
    ),
    "trl": lambda out, res: _edit_summary(
        out, lambda entry: entry.update(mean_trl=entry["mean_trl"] + 0.5)
    ),
    "stopping_rule": lambda out, res: _edit_summary(
        out, lambda entry: entry.update(converged=not entry["converged"])
    ),
    "rows": lambda out, res: _edit_csv(
        out, "component", lambda rows: [r for r in rows if r["replication"] != "2"]
    ),
}


def test_clean_experiment_passes(experiment):
    ref, result, out, teams, live = experiment
    report = checks.check_experiment(ref, result, out, teams, live)
    assert report.messages == []
    assert report.attempted == sum(mc.n() for mc in result.by_strategy.values())
    # The rule ran sequentially past its minimum for at least one strategy.
    assert max(mc.n() for mc in result.by_strategy.values()) > 3


def test_hour0_service_is_not_trivial(experiment):
    ref, result, out, teams, live = experiment
    q0 = checks.read_timeseries(out / "timeseries_distance.csv")[0].q_hh[0]
    assert live and 0.0 < q0 < 1.0


@pytest.mark.parametrize("check", sorted(CORRUPTIONS))
def test_check_fires_on_corruption(experiment, check, tmp_path):
    ref, result, out, teams, live = experiment
    bad_out = tmp_path / "out"
    shutil.copytree(out, bad_out)
    bad_result = copy.deepcopy(result)
    CORRUPTIONS[check](bad_out, bad_result)
    report = checks.check_experiment(ref, bad_result, bad_out, teams, live)
    assert check in report.checks_failed(), report.messages
    assert report.failed


def test_oversized_failure_screen_matches_engine(tmp_path):
    """The seed screen flags exactly the seeds where a job exceeds the pool."""
    workload = WORKLOADS["surge-115"]
    files = make_inputs(workload, 0, tmp_path, smoke=True)
    ref = checks.Reference(files)
    net, roads, households = load_networks(
        files["power"], files["roads"], files["couplings"]
    )
    cfg = load_scenario(files["scenario"])
    for seed in range(40):
        net.reset_statuses()
        failed = sample_failures(net, cfg.hazard, cfg.fragility,
                                 np.random.default_rng([seed, 0]))
        need = max(
            (cfg.repair.spec_for(net.components[c].kind,
                                 net.components[c].damage_level).crews
             for c in failed),
            default=0,
        )
        for teams in (1, 4, 6, 14):
            assert ref.oversized_failure(seed, teams) == (need > teams)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_workload_runs_clean(name, tmp_path):
    result = run.run(name, 5, 0, False, smoke=True, work=tmp_path / "w")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_layers_and_repeats_counts(tmp_path):
    first = run.run("landfall-gradient", 2, 0, True, smoke=True, work=tmp_path / "a")
    second = run.run("landfall-gradient", 2, 0, True, smoke=True, work=tmp_path / "b")
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "h", "ratio", "bytes"):
            assert metric["value"] == second["metrics"][name]["value"], name

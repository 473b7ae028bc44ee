"""CLI parsing, scenario files, testbed round-trips, and output emission."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from stormgrid import cli
from stormgrid.cli import load_scenario, main, parse_cli
from stormgrid.engine import (
    MonteCarloConfig,
    SimulationContext,
    run_experiment,
    run_replication,
)
from stormgrid.errors import ConfigError, FormatError
from stormgrid.fragility import DEFAULT_LINE_CRITICAL_MPH
from stormgrid.hazard import WindCell
from stormgrid.network import ComponentKind, DamageLevel, load_networks
from stormgrid.metrics import full_restoration_hour, resilience_loss
from stormgrid.outputs import (
    TIMESERIES_HEADER,
    emit_outputs,
    plot_data,
    replication_metrics,
    summary_payload,
)
from stormgrid.restoration import Strategy
from stormgrid.testbed import TestbedParams, generate_testbed

from .conftest import nearest_links


@pytest.fixture(scope="module")
def testbed_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("tb_cli")
    return generate_testbed(
        TestbedParams(grid_size=5, households=80, substations=1, seed=2), out
    )


def all_households_powered(net, households):
    """Every household's attachment reaches a plant in the pristine grid."""
    idx = net.index
    powered = idx.powered_mask(np.ones(len(idx.ids), dtype=bool))
    return all(powered[idx.pos[hh.attachment]] for hh in households)


class TestParseCli:
    def _simulate_args(self, files, extra=()):
        return [
            "--power", str(files["power"]),
            "--roads", str(files["roads"]),
            "--couplings", str(files["couplings"]),
            "--scenario", str(files["scenario"]),
            "--teams", "12",
            *extra,
        ]

    def test_basic_simulate(self, testbed_files):
        cfg = parse_cli(
            self._simulate_args(
                testbed_files, ["--strategy", "distance", "--seed", "7"]
            )
        )
        assert cfg.command == "simulate"
        assert cfg.strategies == [Strategy.DISTANCE_BASED]
        assert cfg.teams == 12
        assert cfg.seed == 7
        assert cfg.confidence == 0.90
        assert cfg.rel_halfwidth == 0.10

    def test_default_runs_all_strategies(self, testbed_files):
        cfg = parse_cli(self._simulate_args(testbed_files))
        assert cfg.strategies == list(Strategy)

    def test_strategy_list(self, testbed_files):
        cfg = parse_cli(
            self._simulate_args(testbed_files, ["--strategy", "component,traffic-light"])
        )
        assert cfg.strategies == [Strategy.COMPONENT_BASED, Strategy.TRAFFIC_LIGHT_BASED]

    def test_unknown_strategy_usage_error(self, testbed_files, capsys):
        with pytest.raises(SystemExit):
            parse_cli(self._simulate_args(testbed_files, ["--strategy", "sorted"]))
        err = capsys.readouterr().err
        assert "component" in err and "traffic-light" in err

    def test_unknown_flag_rejected(self, testbed_files):
        with pytest.raises(SystemExit):
            parse_cli(self._simulate_args(testbed_files, ["--clever-mode"]))

    def test_confidence_out_of_range(self, testbed_files):
        with pytest.raises(ConfigError):
            parse_cli(self._simulate_args(testbed_files, ["--confidence", "1.5"]))

    def test_confidence_with_infinite_quantile_rejected(self, testbed_files):
        # 0.5 + c / 2 rounds to 1.0: the rule of MonteCarloConfig, applied here
        with pytest.raises(ConfigError, match="confidence"):
            parse_cli(
                self._simulate_args(testbed_files, ["--confidence", "0.9999999999999999"])
            )

    @pytest.mark.parametrize(
        "reps", [["--min-reps", "1"], ["--min-reps", "5", "--max-reps", "4"]]
    )
    def test_replication_counts_checked(self, testbed_files, reps):
        with pytest.raises(ConfigError, match="min-reps"):
            parse_cli(self._simulate_args(testbed_files, reps))

    def test_monte_carlo_settings_built(self, testbed_files):
        cfg = parse_cli(
            self._simulate_args(
                testbed_files, ["--min-reps", "3", "--max-reps", "5", "--seed", "4"]
            )
        )
        assert cfg.mc_config == MonteCarloConfig(
            confidence=0.90, relative_halfwidth=0.10, min_replications=3,
            max_replications=5, base_seed=4,
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_rel_halfwidth_must_be_finite_positive(self, testbed_files, value):
        with pytest.raises(ConfigError, match="rel-halfwidth"):
            parse_cli(self._simulate_args(testbed_files, ["--rel-halfwidth", value]))

    def test_missing_file_reported(self, testbed_files, tmp_path):
        args = self._simulate_args(testbed_files)
        args[1] = str(tmp_path / "nope.txt")
        with pytest.raises(ConfigError) as err:
            parse_cli(args)
        assert "nope.txt" in str(err.value)

    def test_teams_required(self, testbed_files):
        args = self._simulate_args(testbed_files)
        idx = args.index("--teams")
        del args[idx : idx + 2]
        with pytest.raises(SystemExit):
            parse_cli(args)

    def test_make_testbed_command(self, tmp_path):
        cfg = parse_cli(
            ["make-testbed", "--grid-size", "4", "--households", "30",
             "--out", str(tmp_path)]
        )
        assert cfg.command == "make-testbed"
        assert cfg.testbed.grid_size == 4
        assert cfg.testbed.households == 30

    def test_plot_data_command(self, tmp_path):
        cfg = parse_cli(["plot-data", "a.csv", "b.csv", "--out", str(tmp_path / "c.csv")])
        assert cfg.command == "plot-data"
        assert len(cfg.inputs) == 2


class TestScenarioFile:
    def test_defaults_applied(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"wind_mph": 65.0, "runoff_in": 12.0}')
        cfg = load_scenario(p)
        assert cfg.hazard.wind_mph == 65.0
        assert cfg.hazard.drainage_in_per_hr == 0.65
        assert cfg.hazard.passable_threshold_in == 2.0
        assert cfg.hazard.fuel_dependence is True
        assert cfg.fragility.line.w_critical == DEFAULT_LINE_CRITICAL_MPH

    def test_wind_cells(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"wind_mph": {"cells": [[0, 0, 10, 10, 60.0]]}}))
        cfg = load_scenario(p)
        assert cfg.hazard.wind_mph == [WindCell(0, 0, 10, 10, 60.0)]

    def test_runoff_map(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"runoff_in": {"default": 1.0, "per_link": {"L1": 13.0}}}))
        cfg = load_scenario(p)
        assert cfg.hazard.initial_runoff_in == {"L1": 13.0}
        assert cfg.hazard.runoff_default_in == 1.0

    def test_fragility_and_repair_overrides(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({
            "substation_fragility": {
                "moderate": [150.0, 0.25],
                "severe": [180.0, 0.25],
                "complete": [220.0, 0.25],
            },
            "line_fragility": [70.0, 140.0],
            "repair_overrides": {
                "pole": [6.0, 3.0, 2],
                "substation:severe": [100.0, 50.0, 10],
            },
        }))
        cfg = load_scenario(p)
        assert cfg.fragility.line.w_critical == 70.0
        pole = cfg.repair.spec_for(ComponentKind.POLE, None)
        assert (pole.mean_hr, pole.crews) == (6.0, 2)
        sev = cfg.repair.spec_for(ComponentKind.SUBSTATION, DamageLevel.SEVERE)
        assert sev.crews == 10
        # untouched rows keep their defaults
        assert cfg.repair.spec_for(ComponentKind.CONDUCTOR, None).mean_hr == 4.0

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"wind": 65}')
        with pytest.raises(FormatError):
            load_scenario(p)

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"wind_mph": }')
        with pytest.raises(FormatError):
            load_scenario(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "missing.json")


class TestTestbed:
    def test_round_trip_loads_clean(self, testbed_files):
        net, roads, households = load_networks(
            testbed_files["power"], testbed_files["roads"], testbed_files["couplings"]
        )
        assert len(households) == 80
        assert all(nearest_links(net, roads).values())
        assert all_households_powered(net, households)

    def test_deterministic_bytes(self, tmp_path):
        params = TestbedParams(grid_size=4, households=30, substations=1, seed=9)
        a = generate_testbed(params, tmp_path / "a")
        b = generate_testbed(params, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes(), key

    def test_default_household_count_on_target(self, tmp_path):
        # write only the coupling file cheaply by generating the full testbed
        paths = generate_testbed(TestbedParams(), tmp_path / "full")
        count = sum(
            1
            for line in paths["couplings"].read_text().splitlines()
            if line.startswith("household ")
        )
        assert abs(count - 7657) <= 0.01 * 7657

    def test_minimal_grid(self, tmp_path):
        paths = generate_testbed(
            TestbedParams(grid_size=2, households=4, substations=1, seed=1),
            tmp_path / "mini",
        )
        net, roads, households = load_networks(
            paths["power"], paths["roads"], paths["couplings"]
        )
        assert len(households) == 4
        assert all_households_powered(net, households)

    def test_express_feeders_load(self, tmp_path):
        paths = generate_testbed(
            TestbedParams(grid_size=6, households=60, substations=1, seed=4,
                          express_fraction=1.0),
            tmp_path / "express",
        )
        net, _, households = load_networks(
            paths["power"], paths["roads"], paths["couplings"]
        )
        assert all_households_powered(net, households)

    def test_infeasible_params(self):
        with pytest.raises(ConfigError):
            TestbedParams(grid_size=1, substations=50)
        with pytest.raises(ConfigError):
            TestbedParams(lights_fraction=1.5)
        with pytest.raises(ConfigError):
            TestbedParams(households=0)
        with pytest.raises(ConfigError, match="wind_mph"):
            TestbedParams(wind_mph=float("nan"))
        with pytest.raises(ConfigError, match="runoff_in"):
            TestbedParams(runoff_in=float("inf"))


@pytest.fixture(scope="module")
def small_experiment(testbed_files):
    net, roads, households = load_networks(
        testbed_files["power"], testbed_files["roads"], testbed_files["couplings"]
    )
    cfg = load_scenario(testbed_files["scenario"])
    hazard = dataclasses.replace(cfg.hazard, wind_mph=90.0)
    ctx = SimulationContext(net, roads, households)
    mc = MonteCarloConfig(min_replications=3, max_replications=3, base_seed=1)
    return run_experiment(
        net, roads, households, hazard, cfg.fragility, cfg.repair,
        list(Strategy), teams=6, mc_config=mc, context=ctx,
    )


class TestEmitOutputs:
    def test_files_written(self, small_experiment, tmp_path):
        written = emit_outputs(small_experiment, tmp_path)
        names = {p.name for p in written}
        assert "summary.json" in names
        assert {"timeseries_component.csv", "timeseries_distance.csv",
                "timeseries_traffic-light.csv"} <= names

    def test_timeseries_shape(self, small_experiment, tmp_path):
        emit_outputs(small_experiment, tmp_path)
        mc = small_experiment.by_strategy[Strategy.DISTANCE_BASED]
        lines = (tmp_path / "timeseries_distance.csv").read_text().splitlines()
        assert lines[0] == TIMESERIES_HEADER
        expected_rows = sum(rep.horizon() + 1 for rep in mc.replications)
        assert len(lines) - 1 == expected_rows
        assert not any("nan" in line.lower() for line in lines)

    def test_summary_contents(self, small_experiment, tmp_path):
        emit_outputs(small_experiment, tmp_path)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["baseline"] == "component"
        strategies = payload["strategies"]
        assert set(strategies) == {"component", "distance", "traffic-light"}
        assert strategies["component"]["improvement_pct"] is None
        for name, block in strategies.items():
            hours = block["restoration_hours_households"]
            assert hours["75"] <= hours["90"] <= hours["100"]
            assert 0 <= block["mean_trl"] <= payload["mpr"]

    def test_deterministic_rerun(self, small_experiment, tmp_path):
        emit_outputs(small_experiment, tmp_path / "x")
        emit_outputs(small_experiment, tmp_path / "y")
        assert (tmp_path / "x/summary.json").read_bytes() == (
            tmp_path / "y/summary.json"
        ).read_bytes()

    def test_replication_metrics_in_seed_order(self, small_experiment):
        # one row per replication; the summary holds the columns' means
        exp = small_experiment
        payload = summary_payload(exp)
        base = replication_metrics(exp.by_strategy[exp.baseline])
        for strategy, mc in exp.by_strategy.items():
            table = replication_metrics(mc)
            assert len(table) == mc.n()
            for row, rep in zip(table, mc.replications):
                q = rep.records.q_households
                assert row["trl"] == resilience_loss(q)
                assert row["households_100"] == full_restoration_hour(q)
                assert row["lights_100"] == full_restoration_hour(
                    rep.records.q_traffic_lights
                )
            summary = payload["strategies"][strategy.value]
            assert summary["mean_trl"] == round(np.mean(table["trl"]), 6)
            assert summary["restoration_hours_households"]["75"] == round(
                np.mean(table["households_75"]), 6
            )
        assert payload["mpr"] == round(max(np.mean(base["households_100"]), 1.0), 6)

    def test_plot_data_reshape(self, small_experiment, tmp_path):
        emit_outputs(small_experiment, tmp_path)
        out = plot_data(
            [tmp_path / "timeseries_distance.csv",
             tmp_path / "timeseries_traffic-light.csv"],
            tmp_path / "curves.csv",
        )
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "hour"
        assert "distance_q_households" in header
        assert "traffic-light_q_traffic_lights" in header
        # mean curves end at full service
        assert lines[-1].split(",")[1:] == ["1.000000"] * (len(header) - 1)

    def test_plot_data_values(self, tmp_path):
        # three files of 200+ replications with unequal horizons, within and
        # across files: each cell is its hour's mean over the file's
        # replications, finished ones held at 1.0, and 1.0 past the file's end
        rng = np.random.default_rng(26)
        inputs, expected = [], {}
        for label, reps, longest in (("a", 200, 30), ("b", 233, 75), ("c", 257, 12)):
            series = []
            for _ in range(reps):
                hours = int(rng.integers(0, longest))
                q = np.sort(rng.integers(0, 10**6, (hours, 2)), axis=0) / 10**6
                series.append(np.vstack([q, [1.0, 1.0]]).tolist())
            path = tmp_path / f"timeseries_{label}.csv"
            with open(path, "w") as fh:
                fh.write(TIMESERIES_HEADER + "\n")
                for rep, rows in enumerate(series):
                    for hour, (hh, tl) in enumerate(rows):
                        fh.write(f"{rep},{hour},{hh:.6f},{tl:.6f},0,0\n")
            inputs.append(path)
            for c, curve in enumerate(("q_households", "q_traffic_lights")):
                column = expected[f"{label}_{curve}"] = []
                for hour in range(max(map(len, series))):
                    values = [r[hour][c] if hour < len(r) else 1.0 for r in series]
                    column.append(f"{float(np.mean(values)):.6f}")
        out = plot_data(inputs, tmp_path / "curves.csv")
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["hour", *sorted(expected)]
        assert len(lines) - 1 == max(map(len, expected.values())) == 75
        for hour, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(hour)
            for name, cell in zip(header[1:], cells[1:]):
                column = expected[name]
                assert cell == (column[hour] if hour < len(column) else "1.000000")


class TestMainEndToEnd:
    def test_simulate_single_strategy(self, testbed_files, tmp_path, capsys):
        rc = main([
            "simulate",
            "--power", str(testbed_files["power"]),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(testbed_files["scenario"]),
            "--strategy", "distance",
            "--teams", "6",
            "--seed", "2",
            "--min-reps", "2",
            "--max-reps", "3",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "distance" in out
        assert (tmp_path / "res/summary.json").is_file()
        assert (tmp_path / "res/timeseries.csv").is_file()

    def test_wind_zero_run_all_quality_one(self, testbed_files, tmp_path):
        scenario = tmp_path / "calm.json"
        scenario.write_text(json.dumps({
            "wind_mph": 0.0, "runoff_in": 0.0,
            "fuel_dependence": False, "crew_access_dependence": False,
        }))
        rc = main([
            "simulate",
            "--power", str(testbed_files["power"]),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(scenario),
            "--strategy", "component",
            "--teams", "6",
            "--min-reps", "2",
            "--max-reps", "2",
            "--out", str(tmp_path / "calm"),
        ])
        assert rc == 0
        rows = (tmp_path / "calm/timeseries.csv").read_text().splitlines()[1:]
        assert rows
        assert all(row.split(",")[2] == "1.000000" for row in rows)

    def test_calm_storm_under_all_strategies_writes_every_file(
        self, testbed_files, tmp_path
    ):
        # no household loses power, so the baseline's mean TRL is 0 and the
        # improvement over it is undefined
        scenario = tmp_path / "calm.json"
        raw = json.loads(testbed_files["scenario"].read_text())
        scenario.write_text(json.dumps(dict(raw, wind_mph=0.0, runoff_in=0.0)))
        rc = main([
            "simulate",
            "--power", str(testbed_files["power"]),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(scenario),
            "--teams", "6",
            "--min-reps", "2",
            "--max-reps", "2",
            "--out", str(tmp_path / "calm"),
        ])
        assert rc == 0
        assert {p.name for p in (tmp_path / "calm").iterdir()} == {
            "summary.json", *(f"timeseries_{s.value}.csv" for s in Strategy)
        }
        summary = json.loads((tmp_path / "calm/summary.json").read_text())
        for entry in summary["strategies"].values():
            assert entry["mean_trl"] == 0.0
            assert entry["improvement_pct"] is None

    def test_strategy_slower_than_baseline_exceeds_mpr(self, tmp_path, capsys):
        # distance restores every household at 265 h on average, the
        # component baseline at 214 h: its mean TRL exceeds MPR, but not its
        # own mean 100 % household hour
        files = generate_testbed(
            TestbedParams(grid_size=5, households=150, substations=2, seed=2,
                          wind_mph=130.0),
            tmp_path / "tb",
        )
        rc = main([
            "simulate",
            "--power", str(files["power"]),
            "--roads", str(files["roads"]),
            "--couplings", str(files["couplings"]),
            "--scenario", str(files["scenario"]),
            "--teams", "6",
            "--min-reps", "2",
            "--max-reps", "4",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 0, capsys.readouterr().err
        summary = json.loads((tmp_path / "res/summary.json").read_text())
        assert summary["mpr"] == 214.0
        distance = summary["strategies"]["distance"]
        assert distance["restoration_hours_households"]["100"] == 265.0
        assert distance["trl_over_mpr_pct"] == pytest.approx(113.4, abs=0.05)
        assert distance["mean_trl"] <= distance["restoration_hours_households"]["100"]

    def test_fuel_source_for_no_plant_exits_2(self, testbed_files, tmp_path, capsys):
        scenario = tmp_path / "fuel.json"
        raw = json.loads(testbed_files["scenario"].read_text())
        scenario.write_text(json.dumps(dict(raw, fuel_sources={"GEN9": [0, 500]})))
        rc = main([
            "simulate",
            "--power", str(testbed_files["power"]),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(scenario),
            "--teams", "6",
            "--min-reps", "2",
            "--max-reps", "2",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dangling reference 'GEN9'" in err
        assert not (tmp_path / "res").exists()

    def test_road_file_without_links_exits_2(self, testbed_files, tmp_path, capsys):
        roads = tmp_path / "roads.txt"
        lines = testbed_files["roads"].read_text().splitlines(keepends=True)
        roads.write_text("".join(ln for ln in lines if not ln.startswith("link ")))
        rc = main([
            "simulate",
            "--power", str(testbed_files["power"]),
            "--roads", str(roads),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(testbed_files["scenario"]),
            "--teams", "6",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{roads}:0: no link records" in err
        assert not (tmp_path / "res").exists()

    def test_make_testbed_cli(self, tmp_path):
        rc = main([
            "make-testbed", "--grid-size", "3", "--households", "20",
            "--substations", "1", "--out", str(tmp_path / "tb"),
        ])
        assert rc == 0
        assert (tmp_path / "tb/power.txt").is_file()
        assert (tmp_path / "tb/scenario.json").is_file()

    def test_job_larger_than_pool_exits_2_at_hour_zero(
        self, testbed_files, tmp_path, capsys
    ):
        # at 240 mph the substation takes complete damage: 60 crews, 6 teams
        scenario = tmp_path / "extreme.json"
        raw = json.loads(testbed_files["scenario"].read_text())
        scenario.write_text(json.dumps(dict(raw, wind_mph=240.0)))
        rc = main([
            "simulate",
            "--power", str(testbed_files["power"]),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(scenario),
            "--strategy", "distance",
            "--teams", "6",
            "--min-reps", "2",
            "--max-reps", "2",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "needs 60 crews" in err and "6 teams" in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "cell",
        [[-1e6, -1e6, 1e6, 1e6, -5.0], [10.0, -1e6, -10.0, 1e6, 65.0]],
        ids=["negative-mph", "inverted-bounds"],
    )
    def test_bad_wind_cell_exits_2_before_simulating(
        self, testbed_files, tmp_path, capsys, cell
    ):
        scenario = tmp_path / "bad_cell.json"
        raw = json.loads(testbed_files["scenario"].read_text())
        scenario.write_text(json.dumps(dict(raw, wind_mph={"cells": [cell]})))
        rc = main([
            "simulate",
            "--power", str(testbed_files["power"]),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(scenario),
            "--teams", "12",
            "--min-reps", "2",
            "--max-reps", "2",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad_cell.json" in err and "wind cell" in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "override,teams,bad",
        [
            ({"drainage_in_per_hr": float("nan")}, 6, "drainage_in_per_hr"),
            ({"passable_threshold_in": float("nan")}, 6, "passable_threshold_in"),
            ({"runoff_in": float("nan")}, 6, "runoff"),
            ({"runoff_in": {"per_link": {}, "default": float("nan")}}, 6, "runoff"),
            ({"wind_mph": float("nan")}, 6, "wind_mph"),
            ({"wind_mph": {"cells": [[-1e6, -1e6, 1e6, 1e6, float("nan")]]}}, 6,
             "wind cell"),
            ({"wind_mph": 150.0,
              "repair_overrides": {"pole": [float("nan"), 2.5, 1]}}, 60,
             "repair mean"),
        ],
        ids=["drainage", "threshold", "runoff", "default-runoff", "wind",
             "wind-cell", "repair-mean"],
    )
    def test_non_finite_scenario_exits_2_before_simulating(
        self, testbed_files, tmp_path, capsys, override, teams, bad
    ):
        scenario = tmp_path / "non_finite.json"
        raw = json.loads(testbed_files["scenario"].read_text())
        scenario.write_text(json.dumps(dict(raw, **override)))
        rc = main([
            "simulate",
            "--power", str(testbed_files["power"]),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(scenario),
            "--strategy", "distance",
            "--teams", str(teams),
            "--min-reps", "2",
            "--max-reps", "2",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "non_finite.json" in err and bad in err and "nan" in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "override,named",
        [
            ({"runoff_in": "deep"}, "runoff_in"),
            ({"drainage_in_per_hr": None}, "drainage_in_per_hr"),
            ({"line_fragility": [67.1]}, "line_fragility"),
            ({"substation_fragility": {
                "moderate": [0, 0.2], "severe": [200.0, 0.2], "complete": [250.0, 0.2]
            }}, "median must be finite and > 0"),
            ({"fuel_sources": {"GEN0": [1.0]}}, "fuel_sources"),
            ({"repair_overrides": {"pole": 5}}, "repair row 'pole'"),
            ({"fuel_dependence": "false"}, "fuel_dependence"),
            ({"wind_mph": True}, "wind_mph"),
            ({"wind_mph": {"cells": [[-1e6, -1e6, 1e6, 1e6, True]]}}, "wind_mph"),
            ({"wind_mph": {"cells": [[-1e6, -1e6, 1e6, 1e6, "90"]]}}, "wind_mph"),
            ({"drainage_in_per_hr": True}, "drainage_in_per_hr"),
            ({"drainage_in_per_hr": "0.5"}, "drainage_in_per_hr"),
            ({"passable_threshold_in": False}, "passable_threshold_in"),
            ({"runoff_in": "12"}, "runoff_in"),
            ({"runoff_in": {"per_link": {"L0": "3"}}}, "runoff_in"),
            ({"line_fragility": [True, 134.2]}, "line_fragility"),
            ({"substation_fragility": {
                "moderate": ["160", 0.2], "severe": [200.0, 0.2],
                "complete": [250.0, 0.2],
            }}, "substation_fragility"),
            ({"fuel_sources": {"GEN0": [True, 0]}}, "fuel_sources"),
            ({"repair_overrides": {"pole": [6.0, 3.0, 2.7]}}, "repair row 'pole'"),
            ({"repair_overrides": {"pole": [6.0, 3.0, True]}}, "repair row 'pole'"),
            ({"repair_overrides": {"pole": [6.0, 3.0, "2"]}}, "repair row 'pole'"),
            ({"runoff_in": {"default": 3.0, "perlink": {"L0": 9.0}}},
             "unknown runoff_in keys: ['perlink']"),
            ({"wind_mph": {"cells": [[-1e6, -1e6, 1e6, 1e6, 90.0]], "mph": 90.0}},
             "unknown wind_mph keys: ['mph']"),
            ({"substation_fragility": {
                "moderate": [160.0, 0.2], "severe": [200.0, 0.2],
                "complete": [250.0, 0.2], "slight": [120.0, 0.2],
            }}, "unknown substation_fragility keys: ['slight']"),
        ],
        ids=["runoff-string", "drainage-null", "line-one-value", "zero-median",
             "fuel-source-one-coord", "repair-row-scalar", "flag-string",
             "wind-bool", "wind-cell-bool", "wind-cell-string", "drainage-bool",
             "drainage-string", "threshold-bool", "runoff-numeric-string",
             "per-link-runoff-string", "line-bool", "median-string",
             "fuel-source-bool", "crews-fraction", "crews-bool", "crews-string",
             "runoff-unknown-key", "wind-unknown-key", "fragility-unknown-level"],
    )
    def test_malformed_scenario_value_exits_2_before_networks(
        self, testbed_files, tmp_path, capsys, override, named
    ):
        power = tmp_path / "bad_power.txt"
        power.write_text("component X reactor 0 0\n")
        scenario = tmp_path / "malformed.json"
        raw = json.loads(testbed_files["scenario"].read_text())
        scenario.write_text(json.dumps(dict(raw, **override)))
        rc = main([
            "simulate",
            "--power", str(power),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(scenario),
            "--teams", "6",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(scenario) in err
        assert named in err and "bad_power.txt" not in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("bad", ["power", "scenario"])
    def test_non_utf8_input_exits_2(self, testbed_files, tmp_path, capsys, bad):
        files = dict(testbed_files)
        files[bad] = tmp_path / testbed_files[bad].name
        files[bad].write_bytes(testbed_files[bad].read_bytes() + b"\xff")
        rc = main([
            "simulate",
            "--power", str(files["power"]),
            "--roads", str(files["roads"]),
            "--couplings", str(files["couplings"]),
            "--scenario", str(files["scenario"]),
            "--teams", "6",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{files[bad]}:0: not UTF-8" in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "bad,tag,column,token",
        [
            ("power", "component", 3, "nan"),
            ("roads", "intersection", 3, "inf"),
            ("roads", "link", 4, "inf"),
            ("roads", "link", 4, "nan"),
            ("couplings", "household", 2, "-inf"),
        ],
        ids=["component-x", "intersection-y", "link-length-inf", "link-length-nan",
             "household-x"],
    )
    def test_non_finite_network_value_exits_2(
        self, testbed_files, tmp_path, capsys, bad, tag, column, token
    ):
        # the first record of the kind gets the non-finite token
        files = dict(testbed_files)
        files[bad] = tmp_path / testbed_files[bad].name
        lines = testbed_files[bad].read_text().splitlines()
        line_no = next(n for n, ln in enumerate(lines, 1) if ln.startswith(tag + " "))
        toks = lines[line_no - 1].split()
        toks[column] = token
        lines[line_no - 1] = " ".join(toks)
        files[bad].write_text("\n".join(lines) + "\n")
        rc = main([
            "simulate",
            "--power", str(files["power"]),
            "--roads", str(files["roads"]),
            "--couplings", str(files["couplings"]),
            "--scenario", str(files["scenario"]),
            "--teams", "6",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{files[bad]}:{line_no}:" in err
        assert "must be finite" in err and repr(token) in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "text,line,named",
        [
            (TIMESERIES_HEADER + "\n0,0,0.5,low,3,10\n", 2, "bad value"),
            ("replication,hour,q_households,failed_components\n0,0,0.5,3\n", 1,
             "q_traffic_lights"),
            (TIMESERIES_HEADER + "\n0,0,0.5,0.5,3,10\n0,2,1.0,1.0,0,12\n", 3,
             "expected hour 1"),
            (TIMESERIES_HEADER + "\n0,0,0.5,\udcff,3,10\n", 0, "not UTF-8"),
        ],
        ids=["non-numeric", "missing-column", "hour-gap", "not-utf8"],
    )
    def test_plot_data_malformed_csv_exits_2(self, tmp_path, capsys, text, line, named):
        path = tmp_path / "timeseries_distance.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        rc = main(["plot-data", str(path), "--out", str(tmp_path / "curves.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{path}:{line}:" in err and named in err
        assert not (tmp_path / "curves.csv").exists()

    def test_plot_data_same_label_exits_2(self, tmp_path, capsys):
        # both files would give the "component" columns; one must not replace the other
        paths = []
        for run in ("r1", "r2"):
            (tmp_path / run).mkdir()
            paths.append(tmp_path / run / "timeseries_component.csv")
            paths[-1].write_text(TIMESERIES_HEADER + "\n0,0,0.5,0.5,3,10\n")
        rc = main(["plot-data", *map(str, paths), "--out", str(tmp_path / "curves.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'component'" in err
        assert str(paths[0]) in err and str(paths[1]) in err
        assert not (tmp_path / "curves.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "make-testbed", "plot-data"])
    def test_unwritable_out_exits_2(
        self, testbed_files, tmp_path, capsys, monkeypatch, command
    ):
        # an --out that is a file, or whose directory is missing, stops the
        # command with the path named, and simulate stops before it runs
        def not_run(*args):
            raise AssertionError("experiment run")

        monkeypatch.setattr(cli, "run_experiment", not_run)
        taken = tmp_path / "taken"
        taken.write_text("")
        series = tmp_path / "timeseries.csv"
        series.write_text(TIMESERIES_HEADER + "\n0,0,1.0,1.0,0,10\n")
        args, out = {
            "simulate": ([
                "simulate",
                "--power", str(testbed_files["power"]),
                "--roads", str(testbed_files["roads"]),
                "--couplings", str(testbed_files["couplings"]),
                "--scenario", str(testbed_files["scenario"]),
                "--teams", "6",
            ], taken),
            "make-testbed": (["make-testbed", "--grid-size", "5"], taken),
            "plot-data": (["plot-data", str(series)], tmp_path / "missing/curves.csv"),
        }[command]
        rc = main([*args, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot") and str(out) in err
        assert taken.read_text() == ""

    def test_scenario_checked_before_networks(self, testbed_files, tmp_path, capsys):
        power = tmp_path / "bad_power.txt"
        power.write_text("component X reactor 0 0\n")
        scenario = tmp_path / "bad_scenario.json"
        scenario.write_text(json.dumps({"hail_mm": 3}))
        rc = main([
            "simulate",
            "--power", str(power),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(scenario),
            "--teams", "6",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad_scenario.json" in err and "bad_power.txt" not in err

    def test_confidence_with_infinite_quantile_exits_2_before_networks(
        self, testbed_files, tmp_path, capsys, monkeypatch
    ):
        # 0.5 + c / 2 rounds to 1.0, so the normal quantile is infinite and
        # every half-width would be too; the networks are never loaded
        def not_loaded(*args):
            raise AssertionError("networks loaded")

        monkeypatch.setattr(cli, "load_networks", not_loaded)
        rc = main([
            "simulate",
            "--power", str(testbed_files["power"]),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(testbed_files["scenario"]),
            "--strategy", "distance",
            "--teams", "6",
            "--confidence", "0.9999999999999999",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        assert "confidence" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_light_without_plant_path_exits_2_before_simulating(
        self, testbed_files, tmp_path, capsys
    ):
        # a pole with no edge feeds a new light: the light can never be
        # powered, so Q for lights would never reach 1
        power = tmp_path / "power.txt"
        power.write_text(
            testbed_files["power"].read_text() + "component ISO pole 3.0 3.0\n"
        )
        couplings = tmp_path / "couplings.txt"
        couplings.write_text(
            testbed_files["couplings"].read_text() + "light SGX I1-1 ISO\n"
        )
        rc = main([
            "simulate",
            "--power", str(power),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(couplings),
            "--scenario", str(testbed_files["scenario"]),
            "--teams", "6",
            "--min-reps", "2",
            "--max-reps", "2",
            "--out", str(tmp_path / "res"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "traffic light SGX" in err
        assert "ISO" in err and "cannot reach a plant" in err
        assert not (tmp_path / "res").exists()

    def _dark_light_run(self, tmp_path, runoff_l2):
        """Two plants: every household on P1's tree, one light fed from P2's.

        P2's crew road node is D and its fuel enters at A, so its only fuel
        route crosses L2, which starts under ``runoff_l2`` inches. Wind 0
        fails nothing.
        """
        files = {
            "power.txt": "component P1 plant 0 0\n"
            "component S1 substation 10 0\n"
            "component P2 plant 300 0\n"
            "component S2 substation 310 0\n"
            "edge P1 S1\nedge P2 S2\n",
            "roads.txt": "intersection A 0 0\nintersection B 100 0\n"
            "intersection C 200 0\nintersection D 300 0\n"
            "link L1 A B 100\nlink L2 B C 100\nlink L3 C D 100\n",
            "couplings.txt": "household H1 10 5 S1\nlight T1 D S2\n"
            "fuel P1 A\nfuel P2 A\n",
            "scenario.json": json.dumps({
                "wind_mph": 0,
                "runoff_in": {"default": 0.0, "per_link": {"L2": runoff_l2}},
            }),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "res"
        rc = main([
            "simulate",
            "--power", str(tmp_path / "power.txt"),
            "--roads", str(tmp_path / "roads.txt"),
            "--couplings", str(tmp_path / "couplings.txt"),
            "--scenario", str(tmp_path / "scenario.json"),
            "--strategy", "distance",
            "--teams", "2",
            "--min-reps", "2",
            "--max-reps", "2",
            "--out", str(out),
        ])
        return rc, out

    def test_run_continues_while_a_light_is_dark(self, tmp_path):
        # households are all powered at hour 0, but the light stays dark
        # until L2 drains below 2 in at hour 5 and P2 gets fuel
        rc, out = self._dark_light_run(tmp_path, 5.0)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategies"]["distance"]["restoration_hours_lights_100"] == 5.0
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0", "1", "2", "3", "4", "5"] * 2

    def test_light_never_fueled_exits_2(self, tmp_path, capsys):
        rc, out = self._dark_light_run(tmp_path, 1e5)
        assert rc == 2
        err = capsys.readouterr().err
        assert "did not terminate" in err
        # the message says why: frozen at hour 0, one light dark, P2 unfueled
        assert "from hour 0 to the cap" in err
        assert "1 traffic lights dark" in err and "without fuel: P2" in err
        assert not (out / "summary.json").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        rc = main([
            "simulate", "--power", "missing.txt", "--roads", "missing.txt",
            "--couplings", "missing.txt", "--scenario", "missing.json",
            "--teams", "5",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_dependency_override_flags(self, testbed_files, tmp_path):
        rc = main([
            "simulate",
            "--power", str(testbed_files["power"]),
            "--roads", str(testbed_files["roads"]),
            "--couplings", str(testbed_files["couplings"]),
            "--scenario", str(testbed_files["scenario"]),
            "--strategy", "distance",
            "--teams", "6",
            "--min-reps", "2",
            "--max-reps", "2",
            "--no-fuel-dependence",
            "--no-crew-access-dependence",
            "--out", str(tmp_path / "nodeps"),
        ])
        assert rc == 0
        # with both couplings off and calm default wind 65, repairs start
        # immediately: quality is above zero from hour one
        rows = (tmp_path / "nodeps/timeseries.csv").read_text().splitlines()[1:]
        q_first = float(rows[0].split(",")[2])
        assert q_first > 0.0


class TestPinnedOutputs:
    """Byte-for-byte outputs of one small configuration, pinned by sha256.

    The digests were recorded before the replication state moved off the
    network objects. A change that alters any of them changes simulation
    results and must say so.
    """

    DIGESTS = {
        "summary.json":
            "10317466bc5ce762cd4c4f1eae4fcf8bd9d56dc6dfd4861f742793d14dc84556",
        "timeseries_component.csv":
            "e82fb12bd5be899ef7df295fa29281870bd2ea40a0154402b287511226396e45",
        "timeseries_distance.csv":
            "570ad32f65816a2ae5c3c597e0bdbb7375f71f7b586347f6a5e8264526741470",
        "timeseries_traffic-light.csv":
            "054a78604fde3df5261a92cb20ebafed3d33dbb80b72939ff9f320dac6b593b3",
    }

    # One traffic-light replication (seed 0) on the same testbed: its
    # events as JSON. The uniform 12 in runoff restores fuel at hour 16.
    EVENTS_DIGEST = "a920b1ee7265500993f8ef7d03100e001f086e5e9dfb49ee46b4c6d75ba67bec"

    # The strategies stop at 12, 2 and 2 replications on the 115 mph variant
    # of the same testbed; recorded while each strategy ran all its seeds
    # before the next strategy started.
    UNEVEN_DIGESTS = {
        "summary.json":
            "64138e68adab7288b6dbb38c75497152b142dab9f594b156c5b78937f091b6b3",
        "timeseries_component.csv":
            "cdc8663a0a083b9c3f960197812cd132eb90e622aefd228a79ffe2787acf9be7",
        "timeseries_distance.csv":
            "04c873c424231ec5c96e63a0c631c9d4380a4598407dff9249cbf4d85383d3c2",
        "timeseries_traffic-light.csv":
            "76ed1f393891b43dc2c0db2fdc102a9d89e3d165c530e35926b9d24f616f7c3e",
    }

    @staticmethod
    def _testbed(tmp_path, wind_mph=95.0):
        return generate_testbed(
            TestbedParams(grid_size=6, households=150, substations=2, seed=3,
                          wind_mph=wind_mph),
            tmp_path / "tb",
        )

    @staticmethod
    def _simulate(files, out, *flags):
        """Digest per written file of one ``simulate`` run."""
        rc = main([
            "simulate",
            "--power", str(files["power"]),
            "--roads", str(files["roads"]),
            "--couplings", str(files["couplings"]),
            "--scenario", str(files["scenario"]),
            *flags,
            "--out", str(out),
        ])
        assert rc == 0
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
        }

    def test_small_testbed_events_unchanged(self, tmp_path):
        files = self._testbed(tmp_path)
        net, roads, hh = load_networks(
            files["power"], files["roads"], files["couplings"]
        )
        cfg = load_scenario(files["scenario"])
        res = run_replication(
            SimulationContext(net, roads, hh), cfg.hazard, cfg.fragility,
            cfg.repair, 8, 0, Strategy.TRAFFIC_LIGHT_BASED,
        )
        assert (16, "fuel_restored", "GEN0") in res.events
        actual = hashlib.sha256(json.dumps(res.events).encode()).hexdigest()
        assert actual == self.EVENTS_DIGEST

    def test_small_testbed_outputs_unchanged(self, tmp_path):
        files = self._testbed(tmp_path)
        digests = self._simulate(
            files, tmp_path / "res", "--teams", "8", "--min-reps", "3",
            "--max-reps", "3",
        )
        assert set(digests) == set(self.DIGESTS)
        for name, digest in self.DIGESTS.items():
            assert digests[name] == digest, name

    def test_uneven_stops_outputs_unchanged(self, tmp_path):
        files = self._testbed(tmp_path, wind_mph=115.0)
        out = tmp_path / "res"
        digests = self._simulate(
            files, out, "--teams", "16", "--min-reps", "2", "--max-reps", "12",
            "--rel-halfwidth", "0.05",
        )
        summary = json.loads((out / "summary.json").read_text())
        counts = [summary["strategies"][s.value]["replications"] for s in Strategy]
        assert counts == [12, 2, 2]
        assert digests == self.UNEVEN_DIGESTS

    # The default testbed at 115 mph with 36 teams: the surge shape, with
    # about 1,300 failures and hundreds of pending repairs per ranking.
    SURGE_DIGESTS = {
        "summary.json":
            "264a2dc2669e7f8b6aeca933992e01f34b09e8cbed6912633c2fd23573c08442",
        "timeseries_component.csv":
            "fd1b532445832562e4b2743727dacc5f0fa0b24044d03a0f0aa8e9671a084b16",
        "timeseries_distance.csv":
            "871152e76e112cca7395a1ccddf00784d8d6e4bdaf86d5721c9bf647a19d79a2",
        "timeseries_traffic-light.csv":
            "1303c6f0151bf97449a3338038d1a535bf3ec849f5897232a04afe0d780c8aa7",
    }

    def test_default_testbed_surge_outputs_unchanged(self, tmp_path):
        files = generate_testbed(TestbedParams(wind_mph=115.0), tmp_path / "tb")
        digests = self._simulate(
            files, tmp_path / "res", "--teams", "36", "--min-reps", "2",
            "--max-reps", "2",
        )
        assert digests == self.SURGE_DIGESTS

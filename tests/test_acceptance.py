"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 5-8 share a single experiment matrix over the default synthetic
testbed: three strategies at two wind regimes plus coupling-disabled runs,
30 paired seeds each. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import dataclasses
import json

import numpy as np
import pytest

from stormgrid.cli import load_scenario, main
from stormgrid.coupling import fuel_reachable, resolve_fuel_nodes
from stormgrid.engine import (
    RECORD_DTYPE,
    MonteCarloConfig,
    ReplicationResult,
    SimulationContext,
    run_experiment,
    run_monte_carlo,
)
from stormgrid.fragility import (
    LineFragilityParams,
    SubstationFragilityParams,
    p_fail_conductor,
    p_fail_line,
    p_fail_pole,
    p_fail_substation,
    p_fail_tower,
)
from stormgrid.hazard import drain_step, initial_flood, passable_mask
from stormgrid.metrics import (
    improvement_pct,
    resilience_loss,
    restoration_quantiles,
)
from stormgrid.network import DamageLevel, load_networks
from stormgrid.restoration import Strategy
from stormgrid.testbed import TestbedParams, generate_testbed

from . import oracles
from .conftest import make_power

SEEDS = list(range(30))
LOW_WIND, LOW_TEAMS = 65.0, 12
HIGH_WIND, HIGH_TEAMS = 115.0, 36

C, D, T = Strategy.COMPONENT_BASED, Strategy.DISTANCE_BASED, Strategy.TRAFFIC_LIGHT_BASED


@pytest.fixture(scope="session")
def default_testbed(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_tb")
    paths = generate_testbed(TestbedParams(), out)
    net, roads, households = load_networks(
        paths["power"], paths["roads"], paths["couplings"]
    )
    cfg = load_scenario(paths["scenario"])
    ctx = SimulationContext(net, roads, households)
    return paths, net, roads, households, cfg, ctx


@pytest.fixture(scope="session")
def matrix(default_testbed):
    """Per-config arrays of replication statistics over the paired seeds."""
    _, net, roads, households, cfg, ctx = default_testbed
    configs = [
        (LOW_WIND, LOW_TEAMS, True, C),
        (LOW_WIND, LOW_TEAMS, True, D),
        (LOW_WIND, LOW_TEAMS, True, T),
        (HIGH_WIND, HIGH_TEAMS, True, C),
        (HIGH_WIND, HIGH_TEAMS, True, D),
        (HIGH_WIND, HIGH_TEAMS, True, T),
        (LOW_WIND, LOW_TEAMS, False, D),
        (HIGH_WIND, HIGH_TEAMS, False, D),
    ]
    # one experiment per (wind, coupling) cell runs its strategies on the
    # paired seeds
    cells: dict[tuple, list[Strategy]] = {}
    for wind, teams, deps, strategy in configs:
        cells.setdefault((wind, teams, deps), []).append(strategy)
    mc = MonteCarloConfig(
        min_replications=len(SEEDS), max_replications=len(SEEDS), base_seed=SEEDS[0]
    )
    out = {}
    crew_violations = 0
    for (wind, teams, deps), strategies in cells.items():
        hazard = dataclasses.replace(
            cfg.hazard,
            wind_mph=wind,
            fuel_dependence=deps,
            crew_access_dependence=deps,
        )
        exp = run_experiment(
            net, roads, households, hazard, cfg.fragility, cfg.repair,
            strategies, teams, mc, context=ctx,
        )
        for strategy, result in exp.by_strategy.items():
            assert [res.seed for res in result.replications] == SEEDS
            trl, trl_tl, q100_hh, q100_tl, horizons = [], [], [], [], []
            for res in result.replications:
                for rec in res.records:
                    if rec.crews_available + rec.crews_in_use != teams:
                        crew_violations += 1
                q_hh, q_tl = res.records.q_households, res.records.q_traffic_lights
                trl.append(resilience_loss(q_hh))
                trl_tl.append(resilience_loss(q_tl))
                q100_hh.append(restoration_quantiles(q_hh, (1.0,))[1.0])
                q100_tl.append(restoration_quantiles(q_tl, (1.0,))[1.0])
                horizons.append(res.horizon())
            out[(wind, deps, strategy)] = {
                "trl": np.array(trl),
                "trl_tl": np.array(trl_tl),
                "q100_hh": np.array(q100_hh),
                "q100_tl": np.array(q100_tl),
                "horizon": np.array(horizons),
            }
    out["crew_violations"] = crew_violations
    return out


def test_criterion_01_fragility_point_checks():
    checks = [
        ("tower(65)", p_fail_tower(65), oracles.mp_tower(65)),
        ("tower(115)", p_fail_tower(115), oracles.mp_tower(115)),
        ("pole(115)", p_fail_pole(115), oracles.mp_pole(115)),
        ("conductor(115)", p_fail_conductor(115), oracles.mp_conductor(115)),
        (
            "line(115; 67.1, 134.2)",
            p_fail_line(115, LineFragilityParams(67.1, 134.2)),
            oracles.mp_line(115, "67.1", "134.2"),
        ),
    ]
    for name, got, want in checks:
        rel = abs(got - float(want)) / float(want)
        assert rel <= 1e-9, f"{name}: rel err {rel:.2e}"
    # spot values quoted to three figures
    assert p_fail_tower(65) == pytest.approx(4.52e-5, rel=1e-2)
    assert p_fail_conductor(115) == pytest.approx(0.366, rel=1e-2)
    print("PASS criterion 1: five point checks within 1e-9 of the oracle")


def test_criterion_02_curve_properties():
    xs = np.linspace(0.0, 250.0, 10_000)
    line = LineFragilityParams()
    curves = {
        "tower": [p_fail_tower(float(x)) for x in xs],
        "pole": [p_fail_pole(float(x)) for x in xs],
        "conductor": [p_fail_conductor(float(x)) for x in xs],
        "line": [p_fail_line(float(x), line) for x in xs],
    }
    param_sets = [
        SubstationFragilityParams.from_medians(),
        SubstationFragilityParams.from_medians(
            {DamageLevel.MODERATE: 160.0, DamageLevel.SEVERE: 200.0,
             DamageLevel.COMPLETE: 250.0}, 0.2),
        SubstationFragilityParams.from_medians(
            {DamageLevel.MODERATE: 120.0, DamageLevel.SEVERE: 150.0,
             DamageLevel.COMPLETE: 180.0}, 0.3),
    ]
    for i, params in enumerate(param_sets):
        per_level = {lv: [] for lv in DamageLevel}
        for x in xs:
            probs = p_fail_substation(float(x), params)
            assert (
                probs[DamageLevel.COMPLETE]
                <= probs[DamageLevel.SEVERE]
                <= probs[DamageLevel.MODERATE]
            ), f"nesting violated for set {i} at {x}"
            for lv, p in probs.items():
                per_level[lv].append(p)
        for lv, vals in per_level.items():
            curves[f"sub{i}-{lv.value}"] = vals
    for name, vals in curves.items():
        arr = np.asarray(vals)
        assert (arr >= 0).all() and (arr <= 1).all(), name
        assert (np.diff(arr) >= -1e-15).all(), f"{name} not monotone"
    print("PASS criterion 2: all curves monotone in [0,1]; nesting holds")


def test_criterion_03_connectivity_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        comps = [("G0", "plant", 0, 0)] + [
            (f"N{i}", "conductor", i, 0) for i in range(1, n)
        ]
        ids = [c[0] for c in comps]
        edges = [(ids[int(rng.integers(0, i))], ids[i]) for i in range(1, n)]
        extra = int(rng.integers(0, 4))
        for _ in range(extra):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                edges.append((ids[a], ids[b]))
        net, _ = make_power(comps, edges)
        k = int(rng.integers(0, min(8, n)))
        down = set(rng.choice(ids[1:], size=min(k, n - 1), replace=False))
        conducting = {cid: cid not in down for cid in net.components}
        expected = oracles.bfs_powered(net.components, net.edges, net.plants, conducting)
        idx = net.index
        mask = idx.powered_mask(np.array([conducting[cid] for cid in idx.ids]))
        assert {idx.ids[i] for i in np.flatnonzero(mask)} == expected, f"trial {trial}"
    print("PASS criterion 3: powered set equals naive reachability on 1000 graphs")


def test_criterion_04_drainage_reopening(default_testbed):
    _, net, roads, _, cfg, ctx = default_testbed
    scenario = dataclasses.replace(cfg.hazard)
    assert scenario.initial_runoff_in == 12.0
    assert scenario.drainage_in_per_hr == 0.65
    assert scenario.passable_threshold_in == 2.0
    flood = initial_flood(scenario, roads.link_ids)
    fuel_node = resolve_fuel_nodes(net, scenario, ctx.road_index, ctx.plant_node)
    hour = 0
    while not fuel_reachable(
        ctx.road_index, fuel_node, ctx.plant_node, passable_mask(flood, scenario),
        scenario,
    ).all():
        flood = drain_step(flood, scenario)
        hour += 1
        assert hour < 50
    assert hour == 16
    # per-link check and the 13-inch variant
    link = 0  # position of the first road link
    flood = initial_flood(scenario, roads.link_ids)
    h = 0
    while not passable_mask(flood, scenario)[link]:
        flood = drain_step(flood, scenario)
        h += 1
    assert h == 16
    thirteen = dataclasses.replace(scenario, initial_runoff_in=13.0)
    flood = initial_flood(thirteen, roads.link_ids)
    h = 0
    while not passable_mask(flood, thirteen)[link]:
        flood = drain_step(flood, thirteen)
        h += 1
    assert h == 17
    print("PASS criterion 4: 12-inch flood reopens routes at hour 16 exactly")


def test_criterion_05_strategy_ordering(matrix):
    low = {s: matrix[(LOW_WIND, True, s)]["trl"] for s in (C, D, T)}
    assert low[C].mean() > low[D].mean() > low[T].mean(), {
        s.value: low[s].mean() for s in low
    }
    lo, hi = oracles.bootstrap_mean_ci(low[C] - low[T], confidence=0.95, seed=11)
    assert lo > 0.0, f"component-vs-traffic-light gap CI [{lo:.2f}, {hi:.2f}]"

    high = {s: matrix[(HIGH_WIND, True, s)]["trl"] for s in (C, D, T)}
    assert high[D].mean() < high[C].mean()
    assert high[T].mean() < high[C].mean()
    dlo, dhi = oracles.bootstrap_mean_ci(high[D] - high[T], confidence=0.95, seed=11)
    assert dlo <= 0.0 <= dhi, (
        f"distance/traffic-light difference significant at high wind: "
        f"CI [{dlo:.2f}, {dhi:.2f}]"
    )
    print(
        "PASS criterion 5: low wind "
        f"{low[C].mean():.1f} > {low[D].mean():.1f} > {low[T].mean():.1f} "
        f"(c-t CI [{lo:.2f},{hi:.2f}]); high wind d-t CI [{dlo:.2f},{dhi:.2f}] spans 0"
    )


def test_criterion_06_traffic_signal_restoration(matrix):
    for wind in (LOW_WIND, HIGH_WIND):
        q = {s: matrix[(wind, True, s)]["q100_tl"] for s in (C, D, T)}
        assert q[T].mean() < q[D].mean(), wind
        assert q[T].mean() < q[C].mean(), wind
        late = int((q[T] > q[D]).sum())
        assert late == 0, f"{late} replication(s) at {wind} mph finish lights late"
    print("PASS criterion 6: traffic-light strategy restores signals first, every seed")


def test_criterion_07_road_access_effect(matrix):
    gaps = {}
    for wind in (LOW_WIND, HIGH_WIND):
        on = matrix[(wind, True, D)]["trl"]
        off = matrix[(wind, False, D)]["trl"]
        assert on.mean() > off.mean(), wind
        gaps[wind] = (on.mean() - off.mean()) / off.mean()
    assert gaps[LOW_WIND] > gaps[HIGH_WIND]
    print(
        "PASS criterion 7: coupling raises mean loss at both winds; relative gap "
        f"{gaps[LOW_WIND]*100:.0f}% (low) > {gaps[HIGH_WIND]*100:.0f}% (high)"
    )


def test_criterion_08_wind_monotonicity(matrix):
    for s in (C, D, T):
        low, high = matrix[(LOW_WIND, True, s)], matrix[(HIGH_WIND, True, s)]
        assert low["trl"].mean() < high["trl"].mean(), s
        assert low["q100_hh"].mean() < high["q100_hh"].mean(), s
    print("PASS criterion 8: mean loss and restoration hour strictly increase with wind")


def test_criterion_09_stopping_rule():
    def source(values):
        def run_seed(seed, live):
            q = float(values[seed % len(values)])
            records = np.array([(0, q, q, 0, 0, 0, 0)], dtype=RECORD_DTYPE)
            return [
                ReplicationResult(
                    seed=seed, strategy=strategy, records=records.view(np.recarray),
                    events=[], initial_failures=[],
                )
                for strategy in live
            ]
        return run_seed

    meta_rng = np.random.default_rng(555)
    for trial in range(200):
        draws = (meta_rng.random(5000) < 0.7).astype(float)
        cfg = MonteCarloConfig(
            min_replications=10, max_replications=5000, base_seed=0
        )
        out = run_monte_carlo(cfg, [C], source(draws))[C]
        assert out.converged, f"meta-trial {trial} failed to converge"
        assert out.ci_halfwidth <= 0.10 * out.mean_statistic + 1e-12, (
            f"meta-trial {trial}: hw {out.ci_halfwidth:.4f} vs mean {out.mean_statistic:.4f}"
        )
    flat = run_monte_carlo(
        MonteCarloConfig(min_replications=10, max_replications=100), [C], source([1.0])
    )[C]
    assert flat.n() == 10 and flat.converged and flat.ci_halfwidth == 0.0
    print("PASS criterion 9: 200 meta-trials met the 90%/10% rule; flat input stops at minimum")


def test_criterion_10_determinism_and_crew_conservation(matrix, tmp_path):
    paths = generate_testbed(
        TestbedParams(grid_size=5, households=80, substations=1, seed=2),
        tmp_path / "tb",
    )
    args = [
        "simulate",
        "--power", str(paths["power"]),
        "--roads", str(paths["roads"]),
        "--couplings", str(paths["couplings"]),
        "--scenario", str(paths["scenario"]),
        "--strategy", "component,distance,traffic-light",
        "--teams", "6",
        "--seed", "3",
        "--min-reps", "3",
        "--max-reps", "3",
    ]
    assert main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert main(args + ["--out", str(tmp_path / "run2")]) == 0
    a = (tmp_path / "run1/summary.json").read_bytes()
    b = (tmp_path / "run2/summary.json").read_bytes()
    assert a == b
    assert matrix["crew_violations"] == 0
    print("PASS criterion 10: byte-identical summary.json; crew conservation held every hour")


def test_criterion_11_metric_identities():
    perfect = np.array([1.0])
    assert resilience_loss(perfect) == 0.0
    horizon = 174
    blackout = np.array([0.0] * horizon + [1.0])
    assert resilience_loss(blackout) == pytest.approx(float(horizon))
    assert improvement_pct(53.16, 58.18) == pytest.approx(8.6, abs=0.1)
    assert improvement_pct(45.07, 58.18) == pytest.approx(22.5, abs=0.1)
    print("PASS criterion 11: loss identities and published improvement arithmetic hold")

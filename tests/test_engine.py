"""Replication loop behavior, seeding discipline, and the stopping rule."""

import dataclasses
import weakref

import numpy as np
import pytest

import stormgrid.engine as engine
from stormgrid.cli import load_scenario
from stormgrid.engine import (
    RECORD_DTYPE,
    MonteCarloConfig,
    ReplicationResult,
    SimulationContext,
    run_experiment,
    run_monte_carlo,
    run_replication,
)
from stormgrid.errors import ConfigError, SimulationCapError
from stormgrid.fragility import FragilityConfig, RepairModel
from stormgrid.hazard import HazardScenario, WindCell
from stormgrid.metrics import full_restoration_hour, resilience_loss
from stormgrid.network import load_networks
from stormgrid.outputs import summary_payload
from stormgrid.restoration import Strategy, complete_due_jobs
from stormgrid.testbed import TestbedParams, generate_testbed

from .conftest import make_power, make_roads
from .test_restoration import radial_net


@pytest.fixture(scope="module")
def small_testbed(tmp_path_factory):
    out = tmp_path_factory.mktemp("tb")
    paths = generate_testbed(
        TestbedParams(grid_size=6, households=150, substations=2, seed=3), out
    )
    net, roads, households = load_networks(
        paths["power"], paths["roads"], paths["couplings"]
    )
    cfg = load_scenario(paths["scenario"])
    ctx = SimulationContext(net, roads, households)
    return net, roads, households, cfg, ctx


def run_small(small_testbed, wind, strategy, seed, teams=8, deps=True, hard_cap=10_000):
    net, roads, households, cfg, ctx = small_testbed
    hazard = dataclasses.replace(
        cfg.hazard,
        wind_mph=wind,
        fuel_dependence=deps,
        crew_access_dependence=deps,
    )
    return run_replication(
        ctx, hazard, cfg.fragility, cfg.repair,
        teams=teams, seed=seed, strategy=strategy, hard_cap=hard_cap,
    )


class TestRunReplication:
    def test_no_hazard_terminates_at_hour_zero(self, small_testbed):
        res = run_small(small_testbed, wind=0.0, strategy=Strategy.DISTANCE_BASED,
                        seed=1, deps=False)
        assert res.horizon() == 0
        assert res.records.q_households.tolist() == [1.0]
        assert res.initial_failures == []

    def test_wind_zero_with_flood_waits_for_fuel(self, small_testbed):
        res = run_small(small_testbed, wind=0.0, strategy=Strategy.DISTANCE_BASED,
                        seed=1, deps=True)
        # 12-inch runoff: the fuel route reopens at hour 16 exactly.
        q = res.records.q_households
        assert full_restoration_hour(q) == 16
        assert all(q[:16] == 0.0)
        assert resilience_loss(q) == pytest.approx(16.0)

    def test_same_seed_bit_identical(self, small_testbed):
        a = run_small(small_testbed, 95.0, Strategy.TRAFFIC_LIGHT_BASED, seed=4)
        b = run_small(small_testbed, 95.0, Strategy.TRAFFIC_LIGHT_BASED, seed=4)
        assert a.events == b.events
        assert a.records.tolist() == b.records.tolist()

    def test_paired_failure_sets_across_strategies(self, small_testbed):
        failures = {
            s: run_small(small_testbed, 95.0, s, seed=6).initial_failures
            for s in Strategy
        }
        assert failures[Strategy.COMPONENT_BASED] == failures[Strategy.DISTANCE_BASED]
        assert failures[Strategy.COMPONENT_BASED] == failures[
            Strategy.TRAFFIC_LIGHT_BASED
        ]

    def test_failure_sets_nest_with_wind(self, small_testbed):
        for seed in range(5):
            low = set(run_small(small_testbed, 65.0, Strategy.DISTANCE_BASED,
                                seed=seed).initial_failures)
            high = set(run_small(small_testbed, 115.0, Strategy.DISTANCE_BASED,
                                 seed=seed).initial_failures)
            assert low <= high

    def test_quality_monotone_and_crews_conserved(self, small_testbed):
        res = run_small(small_testbed, 100.0, Strategy.COMPONENT_BASED, seed=2)
        teams = 8
        prev = -1.0
        for rec in res.records:
            assert rec.q_households >= prev - 1e-12
            prev = rec.q_households
            assert rec.crews_available + rec.crews_in_use == teams
        assert res.records[-1].q_households == 1.0
        assert res.records[-1].failed_components == 0


class TestScriptedChain:
    """Wind cells script exactly one conductor failure on a 5-component chain."""

    def _chain(self):
        comps = [
            ("P", "plant", 0, 0),
            ("LN", "line", 100, 0),
            ("PA", "pole", 200, 0),
            ("CO", "conductor", 300, 0),
            ("PB", "pole", 400, 0),
        ]
        edges = [("P", "LN"), ("LN", "PA"), ("PA", "CO"), ("CO", "PB")]
        households = ["PA", "PA", "PB", "PB", "PB"]
        net, hh = make_power(comps, edges, households=households, fuel={"P": "N0"})
        roads = make_roads(
            {f"N{i}": (i * 100.0, 0.0) for i in range(5)},
            [(f"L{i}", f"N{i}", f"N{i+1}", 100.0) for i in range(4)],
        )
        return net, roads, hh

    def test_conductor_dip_and_recovery(self):
        net, roads, hh = self._chain()
        # 160 mph over the conductor only; calm elsewhere.
        hazard = HazardScenario(
            wind_mph=[
                WindCell(250, -10, 350, 10, 160.0),
                WindCell(-10, -10, 250, 10, 0.0),
                WindCell(350, -10, 500, 10, 0.0),
            ],
            initial_runoff_in=0.0,
        )
        res = run_replication(
            SimulationContext(net, roads, hh), hazard, FragilityConfig(),
            RepairModel(), teams=4, seed=11, strategy=Strategy.DISTANCE_BASED,
        )
        assert res.initial_failures == ["CO"]
        assert res.records[0].q_households == pytest.approx(2 / 5)
        duration = full_restoration_hour(res.records.q_households)
        assert 1 <= duration <= 9  # ceil of a N(4, 2) draw, floored at 1
        for hour, q in enumerate(res.records.q_households.tolist()):
            expected = 2 / 5 if hour < duration else 1.0
            assert q == pytest.approx(expected)
        assert res.events == [
            (0, "failed", "CO"),
            (0, "fuel_restored", "P"),
            (0, "job_started", "CO"),
            (duration, "repaired", "CO"),
        ]

    def test_job_larger_than_pool_fails_at_hour_zero(self):
        net, roads, hh = self._chain()
        # 160 mph over the line only: its job needs 4 crews, the pool has 3
        hazard = HazardScenario(
            wind_mph=[
                WindCell(50, -10, 150, 10, 160.0),
                WindCell(-10, -10, 500, 10, 0.0),
            ],
            initial_runoff_in=0.0,
        )
        with pytest.raises(ConfigError) as err:
            run_replication(
                SimulationContext(net, roads, hh), hazard, FragilityConfig(),
                RepairModel(), teams=3, seed=11, strategy=Strategy.DISTANCE_BASED,
            )
        message = str(err.value)
        assert "LN" in message and "4 crews" in message and "3 teams" in message
        # the same draw with a pool that fits runs to full restoration
        res = run_replication(
            SimulationContext(net, roads, hh), hazard, FragilityConfig(),
            RepairModel(), teams=4, seed=11, strategy=Strategy.DISTANCE_BASED,
        )
        assert "LN" in res.initial_failures
        assert res.records[-1].q_households == 1.0

    def test_empty_pool_rejected(self):
        net, roads, hh = self._chain()
        with pytest.raises(ConfigError, match="at least one restoration team"):
            run_replication(
                SimulationContext(net, roads, hh),
                HazardScenario(wind_mph=0.0, initial_runoff_in=0.0),
                FragilityConfig(), RepairModel(),
                teams=0, seed=0, strategy=Strategy.DISTANCE_BASED,
            )


def run_unreachable_fuel(**kwargs):
    """A wind-free run whose only plant never gets fuel: the fuel source is
    on a road island, so no household is ever powered."""
    net, hh = make_power(
        [("P", "plant", 0, 0), ("PA", "pole", 10, 0)],
        [("P", "PA")],
        households=["PA"],
        fuel={"P": "ISLAND"},
    )
    roads = make_roads(
        {"A": (0, 0), "B": (100, 0), "ISLAND": (900, 0), "FAR": (1000, 0)},
        [("L1", "A", "B", 100), ("L2", "ISLAND", "FAR", 100)],
    )
    hazard = HazardScenario(wind_mph=0.0, initial_runoff_in=0.0)
    return run_replication(
        SimulationContext(net, roads, hh), hazard,
        FragilityConfig(), RepairModel(),
        teams=2, seed=0, strategy=Strategy.DISTANCE_BASED, **kwargs,
    )


class TestHardCap:
    def test_unreachable_fuel_hits_cap(self):
        with pytest.raises(SimulationCapError) as err:
            run_unreachable_fuel(hard_cap=40)
        assert err.value.hour == 40
        assert err.value.snapshot["q_households"] == 0.0

    def test_frozen_run_raises_without_walking_to_cap(self, monkeypatch):
        # nothing can change after hour 0, so the default cap is reported
        # at once, with the snapshot a short cap gives
        with pytest.raises(SimulationCapError) as short:
            run_unreachable_fuel(hard_cap=40)
        hours = []

        def counted(jobs, hour):
            hours.append(hour)
            return complete_due_jobs(jobs, hour)

        monkeypatch.setattr(engine, "complete_due_jobs", counted)
        with pytest.raises(SimulationCapError) as err:
            run_unreachable_fuel()
        assert err.value.hour == 10_000
        assert err.value.snapshot == short.value.snapshot
        assert len(hours) <= 2

    def test_cap_snapshot_lists_pending_then_running(self):
        # 160 mph east of the substation fails every conductor; one team
        # works them off one at a time, so at the cap one job is running
        # while the rest wait
        net, roads, hh = radial_net(n_poles=6)
        hazard = HazardScenario(
            wind_mph=[
                WindCell(-10, -10, 140, 10, 0.0),
                WindCell(140, -10, 800, 10, 160.0),
            ],
            initial_runoff_in=0.0,
        )
        args = (SimulationContext(net, roads, hh), hazard, FragilityConfig(),
                RepairModel())
        full = run_replication(*args, teams=1, seed=0,
                               strategy=Strategy.COMPONENT_BASED)
        cap = 3
        with pytest.raises(SimulationCapError) as err:
            run_replication(*args, teams=1, seed=0,
                            strategy=Strategy.COMPONENT_BASED, hard_cap=cap)
        seen = {
            kind: {cid for hour, k, cid in full.events if k == kind and hour <= cap}
            for kind in ("failed", "job_started", "repaired")
        }
        pending = seen["failed"] - seen["job_started"]
        running = seen["job_started"] - seen["repaired"]
        assert len(running) == 1 and min(running) < max(pending)
        assert err.value.snapshot["unrepaired"] == sorted(pending) + sorted(running)


C = Strategy.COMPONENT_BASED


def fake_run_seed(values):
    """Synthetic replication source yielding preset time-averaged qualities,
    the same for every strategy of a seed."""
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


class TestMonteCarlo:
    def test_zero_variance_stops_at_min(self):
        cfg = MonteCarloConfig(min_replications=10, max_replications=500)
        out = run_monte_carlo(cfg, [C], fake_run_seed([1.0]))[C]
        assert out.n() == 10
        assert out.converged
        assert out.ci_halfwidth == 0.0

    def test_bernoulli_meets_relative_halfwidth(self):
        rng = np.random.default_rng(77)
        draws = (rng.random(5000) < 0.7).astype(float)
        cfg = MonteCarloConfig(min_replications=10, max_replications=5000)
        out = run_monte_carlo(cfg, [C], fake_run_seed(draws))[C]
        assert out.converged
        assert out.ci_halfwidth <= 0.10 * out.mean_statistic + 1e-12
        assert 0.5 < out.mean_statistic < 0.9

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(78)
        draws = (rng.random(100) < 0.5).astype(float)
        cfg = MonteCarloConfig(min_replications=10, max_replications=12)
        out = run_monte_carlo(cfg, [C], fake_run_seed(draws))[C]
        assert not out.converged
        assert out.n() == 12

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MonteCarloConfig(confidence=1.5)
        with pytest.raises(ConfigError):
            MonteCarloConfig(relative_halfwidth=0.0)
        with pytest.raises(ConfigError):
            MonteCarloConfig(min_replications=1)
        with pytest.raises(ConfigError):
            MonteCarloConfig(min_replications=20, max_replications=10)

    def test_seeds_are_base_plus_index(self):
        seen = []
        def run_seed(seed, live):
            seen.append(seed)
            return fake_run_seed([1.0])(seed, live)
        cfg = MonteCarloConfig(min_replications=2, max_replications=10, base_seed=40)
        run_monte_carlo(cfg, [C], run_seed)
        assert seen == [40, 41]

    def test_each_strategy_stops_on_its_own_statistics(self):
        # constant qualities stop the distance strategy at the minimum; the
        # component strategy's noisy ones keep it running to the maximum
        rng = np.random.default_rng(78)
        values = {C: (rng.random(100) < 0.5).astype(float),
                  Strategy.DISTANCE_BASED: [1.0]}
        calls = []

        def run_seed(seed, live):
            calls.append((seed, live))
            return [fake_run_seed(values[s])(seed, [s])[0] for s in live]

        cfg = MonteCarloConfig(min_replications=3, max_replications=12, base_seed=5)
        out = run_monte_carlo(cfg, list(values), run_seed)
        assert list(out) == list(values)
        assert [mc.n() for mc in out.values()] == [12, 3]
        assert calls == [
            (5 + i, [s for s in values if out[s].n() > i]) for i in range(12)
        ]
        for strategy, mc in out.items():
            alone = run_monte_carlo(cfg, [strategy], fake_run_seed(values[strategy]))
            assert mc.statistics.tolist() == alone[strategy].statistics.tolist()
            assert mc.converged == alone[strategy].converged == (mc.n() == 3)


class TestRunExperiment:
    def test_summaries_and_pairing(self, small_testbed):
        net, roads, households, cfg, ctx = small_testbed
        hazard = dataclasses.replace(cfg.hazard, wind_mph=90.0)
        mc = MonteCarloConfig(min_replications=4, max_replications=4, base_seed=3)
        exp = run_experiment(
            net, roads, households, hazard, cfg.fragility, cfg.repair,
            list(Strategy), teams=8, mc_config=mc, context=ctx,
        )
        assert set(exp.by_strategy) == set(Strategy)
        assert exp.baseline is Strategy.COMPONENT_BASED
        assert summary_payload(exp)["mpr"] > 0
        for strategy, result in exp.by_strategy.items():
            assert result.n() == 4
        # paired seeds: identical failure sets per replication across strategies
        for i in range(4):
            sets = {
                tuple(exp.by_strategy[s].replications[i].initial_failures)
                for s in Strategy
            }
            assert len(sets) == 1

    def test_context_of_another_network_rejected(self, small_testbed):
        # a toy network passed beside the testbed's context would run the
        # testbed; only a context built from the objects given is accepted
        *_, cfg, ctx = small_testbed
        net, roads, hh = radial_net()
        mc = MonteCarloConfig(min_replications=2, max_replications=2)
        with pytest.raises(ConfigError, match="other network objects"):
            run_experiment(
                net, roads, hh, cfg.hazard, cfg.fragility, cfg.repair,
                [Strategy.DISTANCE_BASED], teams=8, mc_config=mc, context=ctx,
            )
        own = SimulationContext(net, roads, hh)
        exp = run_experiment(
            net, roads, hh, HazardScenario(wind_mph=0.0), FragilityConfig(),
            RepairModel(), [Strategy.DISTANCE_BASED], teams=8, mc_config=mc,
            context=own,
        )
        assert exp.by_strategy[Strategy.DISTANCE_BASED].n() == 2


def outcome(rep):
    return rep.seed, rep.records.tolist(), rep.events, rep.initial_failures


class TestSharedDraw:
    """``run_experiment`` makes the road schedule once and each seed's draw
    once, and every strategy reads them; no result may change."""

    # (wind, teams): the stopping rule runs 12 replications per strategy at
    # 65 mph and stops some strategies after 2 at 115 mph
    CASES = [(65.0, 8), (115.0, 16)]
    MC = MonteCarloConfig(min_replications=2, max_replications=12,
                          relative_halfwidth=0.05, base_seed=0)

    def experiment(self, small_testbed, wind, teams, strategies, mc=MC):
        net, roads, households, cfg, ctx = small_testbed
        hazard = dataclasses.replace(cfg.hazard, wind_mph=wind)
        return run_experiment(
            net, roads, households, hazard, cfg.fragility, cfg.repair,
            strategies, teams=teams, mc_config=mc, context=ctx,
        )

    @pytest.mark.parametrize("wind, teams", CASES)
    def test_experiment_matches_standalone_replications(
        self, small_testbed, wind, teams
    ):
        exp = self.experiment(small_testbed, wind, teams, list(Strategy))
        for strategy, mc in exp.by_strategy.items():
            for rep in mc.replications:
                alone = run_small(small_testbed, wind, strategy, rep.seed, teams)
                assert outcome(rep) == outcome(alone)

    @pytest.mark.parametrize("wind, teams", CASES)
    def test_strategy_set_and_order_change_nothing(self, small_testbed, wind, teams):
        def outcomes(strategies):
            exp = self.experiment(small_testbed, wind, teams, strategies)
            return {
                s: [outcome(rep) for rep in mc.replications]
                for s, mc in exp.by_strategy.items()
            }

        together = outcomes(list(Strategy))
        assert outcomes(list(reversed(Strategy))) == together
        for strategy in Strategy:
            assert outcomes([strategy]) == {strategy: together[strategy]}

    def test_stopping_rule_runs_strategies_to_different_counts(self, small_testbed):
        counts = {
            len({mc.n() for mc in self.experiment(
                small_testbed, wind, teams, list(Strategy)).by_strategy.values()})
            for wind, teams in self.CASES
        }
        assert max(counts) > 1

    def test_oversized_job_raises_the_standalone_error(self, small_testbed):
        # at 65 mph with 3 teams, seed 7 is the first of seeds 5-8 whose
        # draw holds a job of more than 3 crews
        with pytest.raises(ConfigError) as alone:
            run_small(small_testbed, 65.0, Strategy.COMPONENT_BASED, 7, teams=3)
        mc = MonteCarloConfig(min_replications=4, max_replications=4, base_seed=5)
        with pytest.raises(ConfigError) as shared:
            self.experiment(small_testbed, 65.0, 3, list(Strategy), mc)
        assert "(seed 7)" in str(alone.value)
        assert str(shared.value) == str(alone.value)

    def test_one_draw_per_seed_and_one_schedule(self, small_testbed, monkeypatch):
        calls = {"sample_failures": 0, "road_schedule": 0}
        order = []  # (seed, strategy) per replication, in call order
        draws = []  # a weak reference to each draw's crews array
        alive_at_draw = []  # per draw, how many earlier draws are still alive

        def counted(name, before=lambda: None):
            original = getattr(engine, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                before()
                return original(*args, **kwargs)

            monkeypatch.setattr(engine, name, wrapper)

        counted("sample_failures", lambda: alive_at_draw.append(
            sum(ref() is not None for ref in draws)))
        counted("road_schedule")
        run_replication = engine.run_replication

        def check_shared(*args, **kwargs):
            inputs = kwargs["shared"]
            order.append((args[5], args[6]))
            if not draws or draws[-1]() is not inputs.crews:
                draws.append(weakref.ref(inputs.crews))
            assert isinstance(inputs.failed, tuple)
            for name in ("link_from", "plant_from", "opens", "crews", "duration"):
                array = getattr(inputs, name)
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 0
            return run_replication(*args, **kwargs)

        monkeypatch.setattr(engine, "run_replication", check_shared)
        strategies = list(Strategy)
        exp = self.experiment(small_testbed, 115.0, 16, strategies)

        counts = [mc.n() for mc in exp.by_strategy.values()]
        assert len(set(counts)) > 1
        assert calls == {"sample_failures": max(counts), "road_schedule": 1}
        assert len(order) == sum(counts)
        # seed by seed, each seed's live strategies in the given order
        assert order == [
            (seed, s)
            for seed in range(max(counts))
            for s, n in zip(strategies, counts)
            if seed < n
        ]
        # each draw is dropped before the next one is made
        assert len(draws) == max(counts)
        assert alive_at_draw == [0] * max(counts)
        reps = [rep for mc in exp.by_strategy.values() for rep in mc.replications]
        assert len({id(rep.initial_failures) for rep in reps}) == len(reps)
        assert all(type(rep.initial_failures) is list for rep in reps)

"""Hourly simulation loop, replication driver, and Monte Carlo aggregation.

Each replication: sample wind failures once at hour 0, then step hour by
hour; floodwater drains, due repairs complete, grid connectivity and the two
quality fractions are remeasured, and new repair jobs start under the chosen
strategy, until every failed component is repaired and every household has
power again. The replication's hourly state is one record array with a row
per hour from hour 0, so a row's position is its hour and the
``q_households`` and ``q_traffic_lights`` columns are the two Q(t) curves the
metrics read. A failure draw containing a job larger than the whole crew pool
is rejected at hour 0, since that job could never start.

After the hour-0 draw a replication works only with component positions
and masks it owns: a conducting mask over components, a mask of pending
(failed, not yet started) components, each failed component's repair spec,
the active job list, a fueled mask over plants, and the flood depths with
one passable mask per hour over road links. The draw itself writes only
substation damage levels onto the shared component objects; ids reappear
only in the events, the initial failure list and the hour-cap error.

Seeding is layered so comparisons are paired: the failure draw comes from a
substream of the replication seed that no strategy-dependent code touches,
and each component's repair duration comes from its own substream, so two
strategies (or two coupling settings) run against identical failure sets and
identical per-component repair times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .coupling import RoadIndex, crew_road_nodes, fuel_reachable, resolve_fuel_nodes
from .errors import ConfigError, SimulationCapError
from .fragility import FragilityConfig, RepairModel, sample_failures
from .hazard import HazardScenario, drain_step, initial_flood, passable_mask
from .metrics import full_restoration_hour, normal_ci_halfwidth
from .network import Household, PowerNetwork, RoadNetwork
from .restoration import (
    CrewPool,
    Prioritizer,
    RestorationState,
    Strategy,
    complete_due_jobs,
    start_pending_jobs,
)

HARD_CAP_HOURS = 10_000

# Substream tags for the layered seeding scheme.
_STREAM_FAILURES = 0
_STREAM_SCHEDULING = 1
_STREAM_REPAIR = 2


# One row per simulated hour of a replication, in hour order from hour 0.
RECORD_DTYPE = np.dtype(
    [
        ("hour", np.int64),
        ("q_households", np.float64),
        ("q_traffic_lights", np.float64),
        ("failed_components", np.int64),
        ("passable_links", np.int64),
        ("crews_available", np.int64),
        ("crews_in_use", np.int64),
    ]
)


@dataclass
class ReplicationResult:
    seed: int
    strategy: Strategy
    records: np.recarray  # RECORD_DTYPE rows; fields read by column or by row
    events: list[tuple[int, str, str]]
    initial_failures: list[str]

    def horizon(self) -> int:
        return int(self.records.hour[-1])


class SimulationContext:
    """Static per-network state shared across replications and strategies.

    Holds the integer indexes, the prioritizer (with its road-distance
    caches) and the position arrays it and the replications read: per
    component its nearest road link and crew road node, per household and
    light its attachment, and per plant its position and road node. Nothing
    here changes during a replication except those caches. The hour-0
    failure draw still writes substation damage levels onto the components,
    so replications run one at a time per context.
    """

    def __init__(
        self,
        net: PowerNetwork,
        roads: RoadNetwork,
        households: list[Household],
    ):
        self.net = net
        self.roads = roads
        self.households = households
        self.index = idx = net.index
        self.road_index = rix = RoadIndex(roads)

        link_pos = {lid: i for i, lid in enumerate(rix.link_ids)}
        comps = [net.components[cid] for cid in idx.ids]
        self.comp_link = np.array(
            [link_pos[c.nearest_road_link] for c in comps], dtype=np.intp
        )
        locations = np.array([c.location for c in comps], dtype=float)
        self.comp_node = crew_road_nodes(rix, self.comp_link, locations)
        self.hh_attach = np.array(
            [idx.pos[hh.attachment] for hh in households], dtype=np.intp
        )
        self.light_feed = np.array(
            [idx.pos[tl.feed_component] for tl in roads.traffic_lights.values()],
            dtype=np.intp,
        )
        self.plant_pos = idx.plant_idx
        self.plant_node = self.comp_node[self.plant_pos]
        self.prioritizer = Prioritizer(
            net, rix, self.comp_node, self.hh_attach, self.light_feed
        )


def run_replication(
    net: PowerNetwork,
    roads: RoadNetwork,
    households: list[Household],
    scenario: HazardScenario,
    fragility: FragilityConfig,
    repair_model: RepairModel,
    strategy: Strategy,
    teams: int,
    seed: int,
    hard_cap: int = HARD_CAP_HOURS,
    context: SimulationContext | None = None,
) -> ReplicationResult:
    """One seeded end-to-end replication; deterministic given (seed, config)."""
    ctx = context or SimulationContext(net, roads, households)
    idx = ctx.index
    ids = idx.ids

    failure_rng = np.random.default_rng([seed, _STREAM_FAILURES])
    schedule_rng = np.random.default_rng([seed, _STREAM_SCHEDULING])

    def duration_rng(c: int) -> np.random.Generator:
        return np.random.default_rng([seed, _STREAM_REPAIR, c])

    depth = initial_flood(scenario, roads.link_ids)
    fuel_node = resolve_fuel_nodes(net, scenario, ctx.road_index, ctx.plant_node)

    failed = sample_failures(net, scenario, fragility, failure_rng)
    specs = {}
    for cid in failed:
        comp = net.components[cid]
        spec = repair_model.spec_for(comp.kind, comp.damage_level)
        if spec.crews > teams:
            raise ConfigError(
                f"failed component {cid} needs {spec.crews} crews but the pool has "
                f"{teams} teams, so its job could never start (seed {seed})"
            )
        specs[idx.pos[cid]] = spec
    pending = np.zeros(len(ids), dtype=bool)
    pending[list(specs)] = True
    alive = ~pending

    state = RestorationState(pool=CrewPool(total=teams))
    events: list[tuple[int, str, str]] = [(0, "failed", cid) for cid in failed]
    rows: list[tuple] = []

    q_hh = q_tl = 0.0
    hh_powered = np.zeros(len(households), dtype=bool)
    light_powered = np.zeros(len(ctx.light_feed), dtype=bool)
    fueled = np.zeros(len(ctx.plant_pos), dtype=bool)
    last_passable = -1

    def remeasure() -> None:
        nonlocal q_hh, q_tl, hh_powered, light_powered
        powered = idx.powered_mask(alive, ctx.plant_pos[fueled])
        hh_powered = powered[ctx.hh_attach]
        light_powered = powered[ctx.light_feed]
        q_hh = float(hh_powered.mean()) if hh_powered.size else 1.0
        q_tl = float(light_powered.mean()) if light_powered.size else 1.0

    for hour in range(hard_cap + 1):
        if hour > 0:
            depth = drain_step(depth, scenario)

        completed = complete_due_jobs(state, hour) if hour > 0 else []
        for c in completed:
            alive[c] = True
            events.append((hour, "repaired", ids[c]))

        passable = passable_mask(depth, scenario)
        n_passable = int(np.count_nonzero(passable))
        passable_changed = n_passable != last_passable
        last_passable = n_passable

        fuel_changed = False
        if hour == 0 or (passable_changed and scenario.fuel_dependence):
            now_fueled = fuel_reachable(
                ctx.road_index, fuel_node, ctx.plant_node, passable, scenario
            )
            for p in np.flatnonzero(now_fueled & ~fueled):
                events.append((hour, "fuel_restored", ids[ctx.plant_pos[p]]))
            fuel_changed = not np.array_equal(now_fueled, fueled)
            fueled = now_fueled

        if hour == 0 or completed or fuel_changed:
            remeasure()

        if pending.any() and state.pool.available > 0 and (
            hour == 0 or completed or passable_changed
        ):
            order = ctx.prioritizer.order(
                strategy,
                pending,
                passable,
                schedule_rng,
                hh_powered=hh_powered,
                light_powered=light_powered,
            )
            started = start_pending_jobs(
                state, order, specs, ctx.comp_link, passable, scenario, hour,
                duration_rng,
            )
            for job in started:
                pending[job.component] = False
                events.append((hour, "job_started", ids[job.component]))

        # Pending and under-repair components are exactly the dead ones.
        n_failed = len(ids) - int(np.count_nonzero(alive))
        rows.append(
            (hour, q_hh, q_tl, n_failed, n_passable, state.pool.available,
             state.crews_in_use())
        )

        if n_failed == 0 and q_hh >= 1.0:
            break
    else:
        raise SimulationCapError(
            hard_cap,
            {
                "unrepaired": sorted(ids[c] for c in np.flatnonzero(pending))
                + sorted(ids[j.component] for j in state.active),
                "q_households": q_hh,
                "passable_links": last_passable,
                "strategy": strategy.value,
                "seed": seed,
            },
        )

    return ReplicationResult(
        seed=seed,
        strategy=strategy,
        records=np.array(rows, dtype=RECORD_DTYPE).view(np.recarray),
        events=events,
        initial_failures=failed,
    )


# ---------------------------------------------------------------------------
# Monte Carlo driver


@dataclass
class MonteCarloConfig:
    confidence: float = 0.90
    relative_halfwidth: float = 0.10
    min_replications: int = 10
    max_replications: int = 200
    base_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.confidence < 1.0):
            raise ConfigError(f"confidence must be in (0, 1), got {self.confidence}")
        if not 0 < self.relative_halfwidth < math.inf:
            raise ConfigError(
                f"relative halfwidth must be finite and > 0, got "
                f"{self.relative_halfwidth}"
            )
        if self.min_replications < 2:
            raise ConfigError("need at least 2 replications for a CI")
        if self.max_replications < self.min_replications:
            raise ConfigError("max replications below the minimum")


@dataclass
class MonteCarloResult:
    replications: list[ReplicationResult]
    statistics: np.ndarray
    mean_statistic: float
    ci_halfwidth: float
    converged: bool

    def n(self) -> int:
        return len(self.replications)


def run_monte_carlo(
    config: MonteCarloConfig,
    run_one: Callable[[int], ReplicationResult],
) -> MonteCarloResult:
    """Replicate until the mean powered-household proportion is pinned down.

    The per-replication statistic is the time-averaged household quality.
    After each replication past the minimum, the normal-approximation CI of
    its mean is checked against the relative half-width target; hitting the
    maximum without convergence is flagged, not fatal.
    """
    results: list[ReplicationResult] = []
    stats: list[float] = []
    converged = False
    for i in range(config.max_replications):
        res = run_one(config.base_seed + i)
        results.append(res)
        stats.append(float(res.records.q_households.mean()))
        if len(stats) >= config.min_replications:
            arr = np.array(stats)
            mean = float(arr.mean())
            hw = normal_ci_halfwidth(arr, config.confidence)
            if mean > 0 and hw <= config.relative_halfwidth * mean:
                converged = True
                break
            if mean == 0 and hw == 0:
                converged = True
                break
    arr = np.array(stats)
    return MonteCarloResult(
        replications=results,
        statistics=arr,
        mean_statistic=float(arr.mean()),
        ci_halfwidth=normal_ci_halfwidth(arr, config.confidence),
        converged=converged,
    )


@dataclass
class ExperimentResult:
    """Per-strategy Monte Carlo outputs for one scenario."""

    by_strategy: dict[Strategy, MonteCarloResult]
    baseline: Strategy
    mc_config: MonteCarloConfig
    teams: int = 0

    def mpr_horizon(self) -> float:
        """Mean 100%-restoration hour of the baseline strategy's replications."""
        base = self.by_strategy[self.baseline]
        hours = [
            full_restoration_hour(rep.records.q_households)
            for rep in base.replications
        ]
        horizon = float(np.mean(hours))
        return max(horizon, 1.0)


def run_experiment(
    net: PowerNetwork,
    roads: RoadNetwork,
    households: list[Household],
    scenario: HazardScenario,
    fragility: FragilityConfig,
    repair_model: RepairModel,
    strategies: Iterable[Strategy],
    teams: int,
    mc_config: MonteCarloConfig,
    context: SimulationContext | None = None,
) -> ExperimentResult:
    """Run every requested strategy against paired seeds and collect results."""
    ctx = context or SimulationContext(net, roads, households)
    strategies = list(strategies)
    by_strategy: dict[Strategy, MonteCarloResult] = {}
    for strategy in strategies:
        by_strategy[strategy] = run_monte_carlo(
            mc_config,
            lambda seed: run_replication(
                ctx.net, ctx.roads, ctx.households, scenario, fragility,
                repair_model, strategy, teams, seed, context=ctx,
            ),
        )
    baseline = (
        Strategy.COMPONENT_BASED
        if Strategy.COMPONENT_BASED in by_strategy
        else strategies[0]
    )
    return ExperimentResult(
        by_strategy=by_strategy,
        baseline=baseline,
        mc_config=mc_config,
        teams=teams,
    )

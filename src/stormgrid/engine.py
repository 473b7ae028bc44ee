"""Event-stepped simulation loop, replication driver, and Monte Carlo aggregation.

Each replication, given its context and two strategy-independent inputs,
the road schedule (when each road link turns passable and each plant
regains fuel) and the hour-0 draw (the failed components, with each one's
crew demand and repair hours), visits hour 0 and each hour a job completes
or a link opens (nothing changes in between); it repairs, remeasures
service and starts jobs under the chosen strategy until every failed
component is repaired and every household and traffic light has power (a
light can wait for its plant's fuel after the last repair), or stops with
the hour-cap error once no next visit falls within the cap. The state is
one record array, a row per hour from hour 0 (each visit's row repeats
until the next), whose ``q_households`` and ``q_traffic_lights`` columns
are the two Q(t) curves. A failure draw containing a job larger than the
whole crew pool is rejected at hour 0, since that job could never start.

``run_experiment`` makes the road schedule once and visits the seeds in
order: each seed's draw is made, read by every strategy still running, in
the given order, and dropped before the next; both are read-only arrays. A
replication run on its own makes both itself, with the same functions.
Beyond them a replication works only with positions and arrays it owns: a
conducting mask over components, a mask of pending (failed, not yet
started) components and the running jobs. The draw itself writes only
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
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import network
from .coupling import RoadIndex, crew_road_nodes, fuel_reachable, resolve_fuel_nodes
from .errors import ConfigError, SimulationCapError
from .fragility import FragilityConfig, RepairModel, sample_failures
from .hazard import HazardScenario, drain_step, initial_flood, passable_mask
from .metrics import normal_ci_halfwidth
from .network import Household, PowerNetwork, RoadNetwork
from .restoration import (
    JobTable,
    Prioritizer,
    Strategy,
    complete_due_jobs,
    draw_repairs,
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

    Holds the network, the integer indexes, the prioritizer (with its rank
    cache per passable set) and the position arrays it and the replications
    read: per component its nearest road link (mapped here, when the context
    is built) and crew road node, per household and light its attachment,
    and per plant (in the order of the index's ``plant_idx``) its road node.
    Nothing here changes during a replication except that cache. An
    experiment runs seed by seed, each seed's strategies one after another
    on that seed's hour-0 draw, which still writes substation damage levels
    onto the components, so replications run one at a time per context.
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
        self.comp_link = network.assign_nearest_road_links(idx.location, roads)
        self.comp_node = crew_road_nodes(rix, self.comp_link, idx.location)
        self.hh_attach = np.array(
            [idx.pos[hh.attachment] for hh in households], dtype=np.intp
        )
        self.light_feed = np.array(
            [idx.pos[tl.feed_component] for tl in roads.traffic_lights.values()],
            dtype=np.intp,
        )
        self.plant_node = self.comp_node[idx.plant_idx]
        self.prioritizer = Prioritizer(
            idx, rix, self.comp_node, self.plant_node, self.hh_attach,
            self.light_feed,
        )


def road_schedule(
    ctx: SimulationContext, scenario: HazardScenario, hard_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First hour each road link is passable and each plant has fuel, or
    ``hard_cap + 1``, and the distinct hours within the cap at which some
    link opens, ascending; all three read-only. Floodwater only drains, so
    both hold from then on; the depths drain with the hourly float
    operations, and fuel is checked only at hours a link opens while some
    plant lacks it. The walk stops once every link is open or too deep to
    drain to the threshold by the cap."""
    fuel_node = resolve_fuel_nodes(ctx.net, scenario, ctx.road_index, ctx.plant_node)
    never = hard_cap + 1
    depth = initial_flood(scenario, ctx.road_index.link_ids)
    # A drain step takes off at most the rate plus half a unit in the last
    # place of the depth. Allowing two units also covers the rounding of
    # this test, so a hopeless link stays closed through the cap.
    hopeless = depth - scenario.passable_threshold_in > hard_cap * (
        scenario.drainage_in_per_hr + 2 * np.spacing(depth)
    )
    link_from = np.full(len(depth), never)
    plant_from = np.full(len(ctx.plant_node), never)
    for hour in range(never):
        if hour > 0:
            depth = drain_step(depth, scenario)
        opened = passable_mask(depth, scenario) & (link_from == never)
        link_from[opened] = hour
        unfueled = plant_from == never
        if (hour == 0 or opened.any()) and unfueled.any():
            fueled = fuel_reachable(
                ctx.road_index, fuel_node, ctx.plant_node, link_from <= hour, scenario
            )
            plant_from[unfueled & fueled] = hour
        if ((link_from <= hour) | hopeless).all():
            break
    # Road and fuel state change only at the hours a link opens.
    opens = np.unique(link_from[link_from <= hard_cap])
    return _read_only(link_from, plant_from, opens)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def hour_zero_draw(
    ctx: SimulationContext,
    scenario: HazardScenario,
    fragility: FragilityConfig,
    repair_model: RepairModel,
    teams: int,
    seed: int,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The seed's failed ids in network order, and per component position
    the crew demand and repair hours (zero for intact components), both
    arrays read-only. Raises :class:`ConfigError` for a pool of no teams or
    for a failed component whose job needs more crews than the pool."""
    if teams < 1:
        raise ConfigError(f"need at least one restoration team, got {teams}")
    idx = ctx.index
    failure_rng = np.random.default_rng([seed, _STREAM_FAILURES])
    failed = sample_failures(ctx.net, scenario, fragility, failure_rng)
    jobs = []
    for cid in failed:
        comp = ctx.net.components[cid]
        spec = repair_model.spec_for(comp.kind, comp.damage_level)
        if spec.crews > teams:
            raise ConfigError(
                f"failed component {cid} needs {spec.crews} crews but the pool has "
                f"{teams} teams, so its job could never start (seed {seed})"
            )
        c = idx.pos[cid]
        jobs.append((c, spec, np.random.default_rng([seed, _STREAM_REPAIR, c])))
    crews, duration = draw_repairs(len(idx.ids), jobs)
    return (tuple(failed), *_read_only(crews, duration))


def _powered_share(powered: np.ndarray) -> float:
    """Share of a service mask that is powered, 1.0 when it is empty. The
    count is exact and the one division rounds as ``mean`` does."""
    return np.count_nonzero(powered) / powered.size if powered.size else 1.0


class SharedInputs(NamedTuple):
    """A replication's strategy-independent inputs: :func:`road_schedule`'s
    three arrays, then :func:`hour_zero_draw`'s failed ids and two arrays."""

    link_from: np.ndarray
    plant_from: np.ndarray
    opens: np.ndarray
    failed: tuple[str, ...]
    crews: np.ndarray
    duration: np.ndarray


def run_replication(
    ctx: SimulationContext,
    scenario: HazardScenario,
    fragility: FragilityConfig,
    repair_model: RepairModel,
    teams: int,
    seed: int,
    strategy: Strategy,
    hard_cap: int = HARD_CAP_HOURS,
    *,
    shared: SharedInputs | None = None,
) -> ReplicationResult:
    """One seeded end-to-end replication; deterministic given (seed, config).

    ``shared`` carries the road schedule and hour-0 draw made from these
    same arguments (:func:`run_experiment` makes each once and passes it to
    every strategy); without it the replication makes both itself.
    """
    if shared is None:
        shared = SharedInputs(
            *road_schedule(ctx, scenario, hard_cap),
            *hour_zero_draw(ctx, scenario, fragility, repair_model, teams, seed),
        )
    link_from, plant_from, opens, failed, crews, duration = shared
    idx = ctx.index
    ids = idx.ids

    schedule_rng = np.random.default_rng([seed, _STREAM_SCHEDULING])
    jobs = JobTable(crews, duration, teams)
    pending = crews > 0
    alive = ~pending

    events: list[tuple[int, str, str]] = [(0, "failed", cid) for cid in failed]
    rows: list[tuple] = []  # one per visited hour

    hour = next_hour = 0
    while next_hour <= hard_cap:
        hour = next_hour
        completed = complete_due_jobs(jobs, hour)
        alive[completed] = True
        for c in completed.tolist():
            events.append((hour, "repaired", ids[c]))

        passable = link_from <= hour
        n_passable = int(np.count_nonzero(passable))

        restored = idx.plant_idx[plant_from == hour]
        events += [(hour, "fuel_restored", ids[c]) for c in restored.tolist()]

        if hour == 0 or completed.size or restored.size:
            powered = idx.powered_mask(alive, idx.plant_idx[plant_from <= hour])
            hh_powered = powered[ctx.hh_attach]
            light_powered = powered[ctx.light_feed]
            q_hh = _powered_share(hh_powered)
            q_tl = _powered_share(light_powered)

        if pending.any() and jobs.free > 0:
            order = ctx.prioritizer.order(
                strategy,
                pending,
                passable,
                schedule_rng,
                hh_powered=hh_powered,
                light_powered=light_powered,
            )
            started = start_pending_jobs(
                jobs, order, ctx.comp_link, passable, scenario, hour
            )
            pending[started] = False
            for c in started.tolist():
                events.append((hour, "job_started", ids[c]))

        # Pending and under-repair components are exactly the dead ones.
        n_failed = len(ids) - int(np.count_nonzero(alive))
        rows.append(
            (hour, q_hh, q_tl, n_failed, n_passable, jobs.free,
             int(jobs.crews[jobs.running].sum()))
        )

        if n_failed == 0 and q_hh >= 1.0 and q_tl >= 1.0:
            break
        upcoming = np.concatenate([jobs.done_at[jobs.running], opens])
        next_hour = int(upcoming[upcoming > hour].min(initial=hard_cap + 1))
    else:
        raise SimulationCapError(
            hard_cap,
            {
                "unrepaired": sorted(ids[c] for c in np.flatnonzero(pending))
                + sorted(ids[c] for c in jobs.running),
                "q_households": q_hh,
                "q_traffic_lights": q_tl,
                "dark_lights": int(np.count_nonzero(~light_powered)),
                "unfueled_plants": [ids[c] for c in idx.plant_idx[plant_from > hour]],
                "passable_links": n_passable,
                "frozen_at": hour,
                "strategy": strategy.value,
                "seed": seed,
            },
        )

    records = np.array(rows, dtype=RECORD_DTYPE)
    records = np.repeat(records, np.diff(records["hour"], append=hour + 1))
    records["hour"] = np.arange(hour + 1)
    return ReplicationResult(
        seed=seed,
        strategy=strategy,
        records=records.view(np.recarray),
        events=events,
        initial_failures=list(failed),
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
        # Each message names the simulate flag that sets the field.
        # Above 1 - 2**-52, 0.5 + confidence / 2 rounds to 1: an infinite quantile.
        if not (0.0 < self.confidence and 0.5 + self.confidence / 2 < 1.0):
            raise ConfigError(
                f"--confidence must be in (0, 1 - 2**-52], got {self.confidence}"
            )
        if not 0 < self.relative_halfwidth < math.inf:
            raise ConfigError(
                f"--rel-halfwidth must be finite and > 0, got "
                f"{self.relative_halfwidth}"
            )
        if self.min_replications < 2 or self.max_replications < self.min_replications:
            raise ConfigError("need --min-reps >= 2 and --max-reps >= --min-reps")


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
    strategies: Iterable[Strategy],
    run_seed: Callable[[int, list[Strategy]], list[ReplicationResult]],
) -> dict[Strategy, MonteCarloResult]:
    """Replicate each strategy until its mean powered-household proportion
    is pinned down, visiting each seed once, in order: ``run_seed(seed,
    live)`` returns one replication for each strategy of ``live`` (those
    still running, in the given order). The per-replication statistic is
    the time-averaged household quality. After each replication past the
    minimum, the normal-approximation CI of the mean of the strategy's own
    statistics is checked against the relative half-width target; hitting
    the maximum without convergence is flagged, not fatal.
    """
    results: dict[Strategy, list[ReplicationResult]] = {s: [] for s in strategies}
    stats: dict[Strategy, list[float]] = {s: [] for s in results}
    converged = dict.fromkeys(results, False)
    for i in range(config.max_replications):
        if not (live := [s for s in results if not converged[s]]):
            break
        batch = run_seed(config.base_seed + i, live)
        for strategy, res in zip(live, batch, strict=True):
            results[strategy].append(res)
            stats[strategy].append(float(res.records.q_households.mean()))
            if len(stats[strategy]) >= config.min_replications:
                arr = np.array(stats[strategy])
                mean, hw = float(arr.mean()), normal_ci_halfwidth(arr, config.confidence)
                converged[strategy] = (
                    hw <= config.relative_halfwidth * mean if mean > 0 else hw == 0
                )
    out = {}
    for strategy, reps in results.items():
        arr = np.array(stats[strategy])
        out[strategy] = MonteCarloResult(
            replications=reps,
            statistics=arr,
            mean_statistic=float(arr.mean()),
            ci_halfwidth=normal_ci_halfwidth(arr, config.confidence),
            converged=converged[strategy],
        )
    return out


@dataclass
class ExperimentResult:
    """Per-strategy Monte Carlo outputs for one scenario."""

    by_strategy: dict[Strategy, MonteCarloResult]
    baseline: Strategy
    mc_config: MonteCarloConfig
    teams: int = 0


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
    given = (net, roads, households)
    if any(a is not b for a, b in zip((ctx.net, ctx.roads, ctx.households), given)):
        raise ConfigError("the context was built from other network objects")
    schedule = road_schedule(ctx, scenario, HARD_CAP_HOURS)

    def run_seed(seed: int, live: list[Strategy]) -> list[ReplicationResult]:
        draw = hour_zero_draw(ctx, scenario, fragility, repair_model, teams, seed)
        shared = SharedInputs(*schedule, *draw)
        # positional, with the strategy 7th, as the benchmark's tracer reads it
        return [
            run_replication(
                ctx, scenario, fragility, repair_model, teams, seed, strategy,
                shared=shared,
            )
            for strategy in live
        ]

    by_strategy = run_monte_carlo(mc_config, strategies, run_seed)
    baseline = (
        Strategy.COMPONENT_BASED
        if Strategy.COMPONENT_BASED in by_strategy
        else next(iter(by_strategy))
    )
    return ExperimentResult(
        by_strategy=by_strategy,
        baseline=baseline,
        mc_config=mc_config,
        teams=teams,
    )

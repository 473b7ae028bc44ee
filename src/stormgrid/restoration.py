"""Crew-constrained repair scheduling under three priority strategies.

All strategies repair the critical tier (substations, towers, transmission
lines) ahead of the distribution tier (poles, conductors):

* component-based: substations by unpowered-household count, transmission in
  id order, then the distribution tier in a fresh uniform-random order each
  hour;
* distance-based: transmission by road distance to a plant, substations by
  unpowered-household count, distribution by road distance to its substation;
* traffic-light-based: a first pass over components feeding an unpowered
  traffic light (same keys as distance-based, substations by unpowered-light
  count), then everything else distance-based.

Scheduling walks the priority list each hour and starts jobs in order. The
highest-ranked accessible job that is short of free crews holds the rest of
the list, so crews freed by later completions build up for it instead of
going to lower-ranked work. A component whose road link is still flooded is
skipped rather than held, so lower tiers start ahead of flood-blocked
critical work. No job can demand more crews than the whole pool: the engine
rejects such a failure draw at hour 0. Jobs are non-preemptive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .coupling import RoadIndex, component_accessible, component_road_node
from .fragility import RepairModel, sample_repair
from .hazard import FloodState, HazardScenario
from .network import ComponentKind, Household, PowerNetwork, RoadNetwork


class Strategy(enum.Enum):
    COMPONENT_BASED = "component"
    DISTANCE_BASED = "distance"
    TRAFFIC_LIGHT_BASED = "traffic-light"

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        for s in cls:
            if s.value == name:
                return s
        valid = ", ".join(s.value for s in cls)
        raise ValueError(f"unknown strategy {name!r}; valid: {valid}")


@dataclass
class CrewPool:
    total: int
    available: int = -1

    def __post_init__(self):
        if self.total < 1:
            raise ValueError("crew pool must have at least one team")
        if self.available < 0:
            self.available = self.total
        if not (0 <= self.available <= self.total):
            raise ValueError("available crews out of range")

    def debit(self, crews: int) -> None:
        if crews > self.available:
            raise ValueError("crew pool overdrawn")
        self.available -= crews

    def credit(self, crews: int) -> None:
        if self.available + crews > self.total:
            raise ValueError("crew pool over-credited")
        self.available += crews


@dataclass
class RepairJob:
    component_id: str
    start_hour: int
    duration_hours: int
    crews: int

    def done_at(self) -> int:
        return self.start_hour + self.duration_hours


class Prioritizer:
    """Strategy orderings over failed components, with static maps precomputed.

    Road distances are measured over the currently passable subgraph (a
    component cut off by floodwater sorts last, mirroring the access gate)
    and cached per passable set, which recurs across hours and replications.
    """

    def __init__(
        self,
        net: PowerNetwork,
        roads: RoadNetwork,
        households: list[Household],
        road_index: RoadIndex | None = None,
    ):
        self.index = net.index
        self.road_index = road_index or RoadIndex(roads)

        idx = self.index
        rix = self.road_index
        self.comp_node = np.array(
            [
                rix.pos[component_road_node(net.components[cid], roads)]
                for cid in idx.ids
            ],
            dtype=np.intp,
        )
        self.plant_nodes = sorted({int(self.comp_node[i]) for i in idx.plant_idx})

        kinds = [net.components[cid].kind for cid in idx.ids]
        self.is_sub = np.array([k is ComponentKind.SUBSTATION for k in kinds])
        self.is_transmission = np.array(
            [k in (ComponentKind.TOWER, ComponentKind.LINE) for k in kinds]
        )
        self.is_distribution = np.array(
            [k in (ComponentKind.POLE, ComponentKind.CONDUCTOR) for k in kinds]
        )

        self.hh_attach = np.array(
            [idx.pos[hh.attachment] for hh in households], dtype=np.intp
        )
        hh_sub = idx.substation_of[self.hh_attach] if len(households) else np.array([], dtype=np.intp)
        self.hh_by_sub: dict[int, np.ndarray] = {
            int(s): np.flatnonzero(hh_sub == s) for s in np.unique(hh_sub) if s >= 0
        }

        lights = list(roads.traffic_lights.values())
        self.light_feed = np.array(
            [idx.pos[tl.feed_component] for tl in lights], dtype=np.intp
        )
        light_sub = (
            idx.substation_of[self.light_feed] if lights else np.array([], dtype=np.intp)
        )
        self.lights_by_sub: dict[int, np.ndarray] = {
            int(s): np.flatnonzero(light_sub == s)
            for s in np.unique(light_sub)
            if s >= 0
        }
        # Static feed path per light (component and its upstream chain);
        # inverted to: component -> lights whose path crosses it.
        through: dict[int, list[int]] = {}
        for li, feed in enumerate(self.light_feed):
            for c in idx.path_to_root(int(feed)):
                through.setdefault(c, []).append(li)
        self.lights_through: dict[int, np.ndarray] = {
            c: np.array(ls, dtype=np.intp) for c, ls in through.items()
        }

        self._dist_cache: dict[bytes, tuple[np.ndarray, dict[int, np.ndarray]]] = {}

    # -- distance fields ----------------------------------------------------

    def _distances(self, flood: FloodState | None, scenario: HazardScenario):
        if flood is None:
            mask = np.ones(len(self.road_index.link_ids), dtype=bool)
        else:
            mask = flood.passable_mask(scenario.passable_threshold_in)
        key = mask.tobytes()
        cached = self._dist_cache.get(key)
        if cached is None:
            to_plant = self.road_index.distances_from(self.plant_nodes, mask)
            from_sub = {
                int(s): self.road_index.distances_from(
                    [int(self.comp_node[s])], mask
                )
                for s in np.flatnonzero(self.is_sub)
            }
            cached = (to_plant, from_sub)
            self._dist_cache[key] = cached
        return cached

    def _dist_tc(self, c: int, to_plant: np.ndarray) -> float:
        return float(to_plant[self.comp_node[c]])

    def _dist_dc(self, c: int, from_sub: dict[int, np.ndarray]) -> float:
        s = int(self.index.substation_of[c])
        if s < 0 or s not in from_sub:
            return float("inf")
        return float(from_sub[s][self.comp_node[c]])

    # -- per-tick service state ----------------------------------------------

    def _unpowered_households_below(self, sub: int, hh_powered: np.ndarray) -> int:
        members = self.hh_by_sub.get(sub)
        if members is None or members.size == 0:
            return 0
        return int((~hh_powered[members]).sum())

    def _unpowered_lights_below(self, sub: int, light_powered: np.ndarray) -> int:
        members = self.lights_by_sub.get(sub)
        if members is None or members.size == 0:
            return 0
        return int((~light_powered[members]).sum())

    def _feeds_unpowered_light(self, c: int, light_powered: np.ndarray) -> bool:
        lights = self.lights_through.get(c)
        if lights is None:
            return False
        return bool((~light_powered[lights]).any())

    # -- orderings ------------------------------------------------------------

    def _distance_blocks(
        self,
        comp_idx: list[int],
        to_plant: np.ndarray,
        from_sub: dict[int, np.ndarray],
        hh_powered: np.ndarray,
    ) -> list[int]:
        ids = self.index.ids
        trans = [c for c in comp_idx if self.is_transmission[c]]
        subs = [c for c in comp_idx if self.is_sub[c]]
        dcs = [c for c in comp_idx if self.is_distribution[c]]
        trans.sort(key=lambda c: (self._dist_tc(c, to_plant), ids[c]))
        subs.sort(
            key=lambda c: (-self._unpowered_households_below(c, hh_powered), ids[c])
        )
        dcs.sort(key=lambda c: (self._dist_dc(c, from_sub), ids[c]))
        return trans + subs + dcs

    def order(
        self,
        strategy: Strategy,
        failed: Iterable[str],
        flood: FloodState | None,
        scenario: HazardScenario,
        rng: np.random.Generator,
        hh_powered: np.ndarray,
        light_powered: np.ndarray,
    ) -> list[str]:
        """Pending component ids in repair order.

        ``hh_powered`` is this hour's service mask over households (aligned
        with ``hh_attach``) and ``light_powered`` over traffic lights
        (aligned with ``light_feed``).
        """
        ids = self.index.ids
        pos = self.index.pos
        comp_idx = sorted(pos[cid] for cid in failed)

        if strategy is Strategy.COMPONENT_BASED:
            subs = [c for c in comp_idx if self.is_sub[c]]
            trans = [c for c in comp_idx if self.is_transmission[c]]
            dcs = [c for c in comp_idx if self.is_distribution[c]]
            subs.sort(
                key=lambda c: (
                    -self._unpowered_households_below(c, hh_powered), ids[c]
                )
            )
            shuffled = [dcs[i] for i in rng.permutation(len(dcs))]
            return [ids[c] for c in subs + trans + shuffled]

        to_plant, from_sub = self._distances(flood, scenario)

        if strategy is Strategy.DISTANCE_BASED:
            ordered = self._distance_blocks(comp_idx, to_plant, from_sub, hh_powered)
            return [ids[c] for c in ordered]

        if strategy is Strategy.TRAFFIC_LIGHT_BASED:
            first = [
                c for c in comp_idx if self._feeds_unpowered_light(c, light_powered)
            ]
            rest = [
                c
                for c in comp_idx
                if not self._feeds_unpowered_light(c, light_powered)
            ]
            f_trans = [c for c in first if self.is_transmission[c]]
            f_subs = [c for c in first if self.is_sub[c]]
            f_dcs = [c for c in first if self.is_distribution[c]]
            f_trans.sort(key=lambda c: (self._dist_tc(c, to_plant), ids[c]))
            f_subs.sort(
                key=lambda c: (
                    -self._unpowered_lights_below(c, light_powered), ids[c]
                )
            )
            f_dcs.sort(key=lambda c: (self._dist_dc(c, from_sub), ids[c]))
            second = self._distance_blocks(rest, to_plant, from_sub, hh_powered)
            return [ids[c] for c in f_trans + f_subs + f_dcs + second]

        raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Scheduling


DurationRng = Callable[[str], np.random.Generator]


@dataclass
class RestorationState:
    pool: CrewPool
    active: list[RepairJob] = field(default_factory=list)
    completed: list[RepairJob] = field(default_factory=list)

    def crews_in_use(self) -> int:
        return sum(job.crews for job in self.active)


def complete_due_jobs(state: RestorationState, hour: int) -> list[str]:
    """Finish jobs whose time has elapsed; credit their crews back."""
    done: list[str] = []
    still: list[RepairJob] = []
    for job in state.active:
        if job.done_at() <= hour:
            state.pool.credit(job.crews)
            state.completed.append(job)
            done.append(job.component_id)
        else:
            still.append(job)
    state.active = still
    return done


def start_pending_jobs(
    state: RestorationState,
    order: list[str],
    net: PowerNetwork,
    flood: FloodState,
    scenario: HazardScenario,
    repair_model: RepairModel,
    hour: int,
    duration_rng: DurationRng,
) -> list[RepairJob]:
    """Walk the priority list and start jobs in order while crews allow.

    ``order`` holds pending components only (none already under repair).
    The walk stops at the first accessible job whose crew demand exceeds the
    free crews: that job holds every job ranked below it until enough crews
    are free. A component whose road link is impassable is skipped, so
    accessible work further down the list still starts. Every job fits the
    whole pool; the engine rejects larger demands at hour 0.
    """
    started: list[RepairJob] = []
    pool = state.pool
    for cid in order:
        comp = net.components[cid]
        if not component_accessible(comp, flood, scenario):
            continue
        spec = repair_model.spec_for(comp.kind, comp.damage_level)
        if spec.crews > pool.available:
            break
        duration, _ = sample_repair(comp, repair_model, duration_rng(cid))
        pool.debit(spec.crews)
        job = RepairJob(
            component_id=cid, start_hour=hour, duration_hours=duration,
            crews=spec.crews,
        )
        state.active.append(job)
        started.append(job)
    return started

"""Crew-constrained repair scheduling under three priority strategies.

A strategy is an ordered list of blocks. Each block takes one tier of the
pending components and ranks it by one key, ties broken by component id; the
priority list is the blocks one after another:

* component-based: substations by unpowered households below them (most
  first), transmission (towers, lines) in network-file order, then
  distribution (poles, conductors) in a fresh uniform-random order each hour;
* distance-based: transmission by road distance to a plant, substations by
  unpowered households, distribution by road distance to its own substation;
* traffic-light-based: the distance-based blocks in two passes. The first
  pass holds the components on the feed path of an unpowered traffic light,
  with substations ranked by unpowered lights instead of households; the
  second pass holds everything else.

Component- and distance-based restoration put substations and transmission
before distribution. Traffic-light-based restoration does so only within a
pass: light-feeding distribution work ranks ahead of every component that
feeds no unpowered light, substations and transmission included.

Scheduling walks the priority list each hour and starts jobs in order. The
highest-ranked accessible job that is short of free crews holds the rest of
the list, so crews freed by later completions build up for it instead of
going to lower-ranked work. A component whose road link is still flooded is
skipped rather than held, so lower tiers start ahead of flood-blocked
critical work. No job can demand more crews than the whole pool: the engine
rejects such a failure draw at hour 0. Jobs are non-preemptive.

Both steps work on component positions in the power network index: the
priority list is an array of positions, crew access reads this hour's
passable mask at each component's nearest road link, and a job's crews and
duration come from its component's repair spec, resolved at hour 0. The
road links, crew road nodes and household and light attachments are the
simulation context's position arrays; nothing here reads them off the
network objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from .coupling import RoadIndex, component_accessible
from .fragility import RepairSpec, sample_repair
from .hazard import HazardScenario
from .network import ComponentKind, PowerNetwork


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
    component: int  # position in the power network index
    start_hour: int
    duration_hours: int
    crews: int

    def done_at(self) -> int:
        return self.start_hour + self.duration_hours


class Prioritizer:
    """Strategy orderings over pending components, as ranked blocks.

    A block pairs a tier mask over the pending components with one key per
    component. The static inputs of the keys are built once from the
    context's position arrays: the id rank, the substation of each household
    and light, and the component x light incidence of the lights' feed
    paths. ``comp_node`` is each component's crew road node. Road distances
    are measured from it over the currently passable subgraph (a component
    cut off by floodwater sorts last, mirroring the access gate) and cached
    per passable set, which recurs across hours and replications.
    """

    def __init__(
        self,
        net: PowerNetwork,
        road_index: RoadIndex,
        comp_node: np.ndarray,
        hh_attach: np.ndarray,
        light_feed: np.ndarray,
    ):
        self.index = net.index
        self.road_index = road_index
        self.comp_node = comp_node

        idx = self.index
        n = len(idx.ids)
        self.plant_nodes = sorted({int(comp_node[i]) for i in idx.plant_idx})
        self.id_rank = np.empty(n, dtype=np.intp)
        self.id_rank[sorted(range(n), key=idx.ids.__getitem__)] = np.arange(n)

        kinds = [net.components[cid].kind for cid in idx.ids]
        self.is_sub = np.array([k is ComponentKind.SUBSTATION for k in kinds])
        self.is_transmission = np.array(
            [k in (ComponentKind.TOWER, ComponentKind.LINE) for k in kinds]
        )
        self.is_distribution = np.array(
            [k in (ComponentKind.POLE, ComponentKind.CONDUCTOR) for k in kinds]
        )

        # Substation of each household and light; n stands for none.
        self.hh_sub, self.light_sub = (
            np.where(idx.substation_of[a] >= 0, idx.substation_of[a], n)
            for a in (hh_attach, light_feed)
        )
        # Component x light incidence: the light's static feed path (its
        # feed component and the upstream chain) crosses the component.
        paths = [idx.path_to_root(int(feed)) for feed in light_feed]
        rows = [c for path in paths for c in path]
        cols = [li for li, path in enumerate(paths) for _ in path]
        self.light_paths = csr_matrix(
            (np.ones(len(rows), dtype=np.int32), (rows, cols)),
            shape=(n, len(paths)),
        )

        self._dist_cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def _distances(self, passable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per component: road distance to a plant and to its own substation."""
        key = passable.tobytes()
        cached = self._dist_cache.get(key)
        if cached is None:
            rix = self.road_index
            to_plant = rix.distances_from(self.plant_nodes, passable)[self.comp_node]
            to_sub = np.full(len(self.comp_node), np.inf)
            for s in np.flatnonzero(self.is_sub):
                below = self.index.substation_of == s
                from_s = rix.distances_from([int(self.comp_node[s])], passable)
                to_sub[below] = from_s[self.comp_node[below]]
            cached = (to_plant, to_sub)
            self._dist_cache[key] = cached
        return cached

    def order(
        self,
        strategy: Strategy,
        pending: np.ndarray,
        passable: np.ndarray,
        rng: np.random.Generator,
        hh_powered: np.ndarray,
        light_powered: np.ndarray,
    ) -> np.ndarray:
        """Positions of the pending components in repair order.

        ``pending`` is a mask over components, ``passable`` this hour's mask
        over road links, ``hh_powered`` this hour's service mask over
        households (aligned with ``hh_attach``) and ``light_powered`` over
        traffic lights (aligned with ``light_feed``), both in the context's
        order.
        """
        comps = np.flatnonzero(pending)
        n = len(pending)
        subs = self.is_sub[comps]
        trans = self.is_transmission[comps]
        dist = self.is_distribution[comps]
        hh_out = np.bincount(self.hh_sub[~hh_powered], minlength=n + 1)[comps]

        if strategy is Strategy.COMPONENT_BASED:
            # Each distribution row's slot in this hour's shuffle.
            n_dist = int(np.count_nonzero(dist))
            shuffled = np.empty(len(comps), dtype=np.intp)
            shuffled[np.flatnonzero(dist)[rng.permutation(n_dist)]] = np.arange(n_dist)
            blocks = [(subs, -hh_out), (trans, comps), (dist, shuffled)]
        else:
            to_plant, to_sub = (d[comps] for d in self._distances(passable))
            blocks = [(trans, to_plant), (subs, -hh_out), (dist, to_sub)]
            if strategy is Strategy.TRAFFIC_LIGHT_BASED:
                feeds = (self.light_paths @ ~light_powered)[comps] > 0
                lights_out = np.bincount(
                    self.light_sub[~light_powered], minlength=n + 1
                )[comps]
                first = [(trans, to_plant), (subs, -lights_out), (dist, to_sub)]
                blocks = [(tier & feeds, key) for tier, key in first] + [
                    (tier & ~feeds, key) for tier, key in blocks
                ]

        # Pending components are never plants, so the blocks partition them.
        block = np.empty(len(comps), dtype=np.intp)
        key = np.empty(len(comps))
        for b, (tier, tier_key) in enumerate(blocks):
            block[tier] = b
            key[tier] = tier_key[tier]
        return comps[np.lexsort((self.id_rank[comps], key, block))]


# ---------------------------------------------------------------------------
# Scheduling


DurationRng = Callable[[int], np.random.Generator]


@dataclass
class RestorationState:
    pool: CrewPool
    active: list[RepairJob] = field(default_factory=list)

    def crews_in_use(self) -> int:
        return sum(job.crews for job in self.active)


def complete_due_jobs(state: RestorationState, hour: int) -> list[int]:
    """Finish jobs whose time has elapsed; credit their crews back.

    Returns the positions of the repaired components.
    """
    done: list[int] = []
    still: list[RepairJob] = []
    for job in state.active:
        if job.done_at() <= hour:
            state.pool.credit(job.crews)
            done.append(job.component)
        else:
            still.append(job)
    state.active = still
    return done


def start_pending_jobs(
    state: RestorationState,
    order: np.ndarray,
    specs: dict[int, RepairSpec],
    comp_link: np.ndarray,
    passable: np.ndarray,
    scenario: HazardScenario,
    hour: int,
    duration_rng: DurationRng,
) -> list[RepairJob]:
    """Walk the priority list and start jobs in order while crews allow.

    ``order`` holds the positions of pending components only (none already
    under repair), ``specs`` each failed component's repair spec by position,
    ``comp_link`` each component's nearest road link and ``passable`` this
    hour's mask over road links. The walk stops at the first accessible job
    whose crew demand exceeds the free crews: that job holds every job
    ranked below it until enough crews are free. A component whose road link
    is impassable is skipped, so accessible work further down the list still
    starts. Every job fits the whole pool; the engine rejects larger demands
    at hour 0.
    """
    started: list[RepairJob] = []
    pool = state.pool
    for c in order.tolist():
        if not component_accessible(comp_link[c], passable, scenario):
            continue
        spec = specs[c]
        if spec.crews > pool.available:
            break
        duration = sample_repair(spec, duration_rng(c))
        pool.debit(spec.crews)
        job = RepairJob(
            component=c, start_hour=hour, duration_hours=duration, crews=spec.crews
        )
        state.active.append(job)
        started.append(job)
    return started

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
passable mask at each component's nearest road link, and the job table
holds each failed component's crew demand and repair duration, both drawn
at hour 0, with the running jobs in start order and the hour each
completes. The road links, crew road nodes and household and light
attachments are the simulation context's position arrays; nothing here
reads them off the network objects.
"""

from __future__ import annotations

import enum
from typing import Iterable

import numpy as np

from .coupling import RoadIndex, component_accessible
from .fragility import RepairSpec, sample_repair
from .hazard import HazardScenario
from .network import KINDS, ComponentKind, PowerIndex


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


class Prioritizer:
    """Strategy orderings over pending components, as ranked blocks.

    A block is one tier of the pending components in rank order, ties
    broken by id rank. Built once: each tier's positions (from the kind
    codes), each component's id rank and the substation of each household
    and light. A component lies on a light's feed path (the feed component
    and its forest ancestors below the plant) exactly when its preorder
    interval in the index holds the feed's. Cached per passable set (which
    recurs across hours and replications): transmission positions sorted by
    road distance to a plant, and distribution positions by road distance to
    their own substation, both from ``plant_node`` and ``comp_node`` over the
    passable subgraph; a component cut off by floodwater sorts last,
    mirroring the access gate. A call keeps each block's pending entries and
    ranks only the pending substations, whose keys change every hour.
    """

    def __init__(
        self,
        index: PowerIndex,
        road_index: RoadIndex,
        comp_node: np.ndarray,
        plant_node: np.ndarray,
        hh_attach: np.ndarray,
        light_feed: np.ndarray,
    ):
        self.index = idx = index
        self.road_index = road_index
        self.comp_node = comp_node

        n = len(idx.ids)
        self.id_rank = np.empty(n, dtype=np.intp)
        self.id_rank[sorted(range(n), key=idx.ids.__getitem__)] = np.arange(n)

        def of_kind(*kinds: ComponentKind) -> np.ndarray:
            return np.flatnonzero(np.isin(idx.kind, [KINDS.index(k) for k in kinds]))

        self.subs = of_kind(ComponentKind.SUBSTATION)
        self.trans = of_kind(ComponentKind.TOWER, ComponentKind.LINE)
        self.dist = of_kind(ComponentKind.POLE, ComponentKind.CONDUCTOR)

        # Substation of each household and light; n stands for none.
        self.hh_sub, self.light_sub = (
            np.where(idx.substation_of[a] >= 0, idx.substation_of[a], n)
            for a in (hh_attach, light_feed)
        )
        self.light_feed = light_feed

        # Road distances come from one query per passable set: a row from
        # each plant node, then one from each substation's node. Each
        # component reads the row of its substation; the extra last slot of
        # row_of answers substation_of's -1 (none) with -1.
        plant_nodes = np.unique(plant_node).tolist()
        self.sources = plant_nodes + comp_node[self.subs].tolist()
        self.n_plant_rows = len(plant_nodes)
        row_of = np.full(n + 1, -1, dtype=np.intp)
        row_of[self.subs] = np.arange(len(plant_nodes), len(self.sources))
        self.sub_row = row_of[idx.substation_of]

        self._ranked: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def _distances(self, passable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per component: road distance to a plant and to its own substation."""
        rows = self.road_index.distances_from(self.sources, passable)[:, self.comp_node]
        to_plant = rows[: self.n_plant_rows].min(axis=0, initial=np.inf)
        to_sub = np.full(len(self.comp_node), np.inf)
        has = self.sub_row >= 0
        to_sub[has] = rows[self.sub_row[has], has]
        return to_plant, to_sub

    def _by_outage(
        self, subs: np.ndarray, powered: np.ndarray, sub_of: np.ndarray
    ) -> np.ndarray:
        """``subs``, most unpowered households (or lights) below them first."""
        if len(subs) == 0:
            return subs
        out = np.bincount(sub_of[~powered], minlength=len(self.id_rank))[subs]
        return subs[np.lexsort((self.id_rank[subs], -out))]

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
        def blocks(trans, subs, dist, powered=hh_powered, sub_of=self.hh_sub):
            return [trans, self._by_outage(subs, powered, sub_of), dist]

        subs = self.subs[pending[self.subs]]
        if strategy is Strategy.COMPONENT_BASED:
            dist = self.dist[pending[self.dist]]
            return np.concatenate([
                self._by_outage(subs, hh_powered, self.hh_sub),
                self.trans[pending[self.trans]],
                dist[rng.permutation(len(dist))],
            ])

        key = passable.tobytes()
        if key not in self._ranked:
            # By id rank, then stably by distance: the (distance, id) order.
            ranked = []
            for tier, d in zip((self.trans, self.dist), self._distances(passable)):
                tier = tier[np.argsort(self.id_rank[tier])]
                ranked.append(tier[np.argsort(d[tier], kind="stable")])
            self._ranked[key] = tuple(ranked)
        trans, dist = (tier[pending[tier]] for tier in self._ranked[key])
        if strategy is Strategy.DISTANCE_BASED:
            return np.concatenate(blocks(trans, subs, dist))

        # An entry feeds a dark light when the first dark feed at or after
        # its tin lies within its tout; the sentinel n lies past every tout.
        idx = self.index
        dark = np.sort(idx.tin[self.light_feed[~light_powered]])
        dark = np.append(dark, len(pending))
        tiers = (trans, subs, dist)
        feeds = [dark[np.searchsorted(dark, idx.tin[t])] <= idx.tout[t] for t in tiers]
        return np.concatenate(
            blocks(*(t[f] for t, f in zip(tiers, feeds)), light_powered, self.light_sub)
            + blocks(*(t[~f] for t, f in zip(tiers, feeds)))
        )


# ---------------------------------------------------------------------------
# Scheduling


class JobTable:
    """Repair jobs indexed by component position.

    ``crews`` and ``duration`` are each failed component's crew demand and
    repair hours, both fixed at hour 0 (zero for intact components); the
    table only reads them, so every strategy of a seed can share one pair.
    The table owns the rest: ``running`` holds the positions of the
    components under repair in the order their jobs started, ``done_at``
    the hour each started job completes, and ``free`` counts the crews on
    no job.
    """

    def __init__(self, crews: np.ndarray, duration: np.ndarray, teams: int):
        self.crews = crews
        self.duration = duration
        self.done_at = np.full(len(crews), -1, dtype=np.int64)
        self.running = np.empty(0, dtype=np.intp)
        self.free = teams


def draw_repairs(
    n: int, jobs: Iterable[tuple[int, RepairSpec, np.random.Generator]]
) -> tuple[np.ndarray, np.ndarray]:
    """Crew demand and repair hours over ``n`` component positions for the
    failed components in ``jobs``, (position, spec, generator) triples, each
    drawing its hours from its own generator; zero elsewhere."""
    crews = np.zeros(n, dtype=np.int64)
    duration = np.zeros(n, dtype=np.int64)
    for c, spec, rng in jobs:
        crews[c] = spec.crews
        duration[c] = sample_repair(spec, rng)
    return crews, duration


def complete_due_jobs(jobs: JobTable, hour: int) -> np.ndarray:
    """Finish the jobs due this hour and free their crews.

    Returns the positions of the repaired components in start order.
    """
    due = jobs.done_at[jobs.running] == hour
    done = jobs.running[due]
    jobs.running = jobs.running[~due]
    jobs.free += int(jobs.crews[done].sum())
    return done


def start_pending_jobs(
    jobs: JobTable,
    order: np.ndarray,
    comp_link: np.ndarray,
    passable: np.ndarray,
    scenario: HazardScenario,
    hour: int,
) -> np.ndarray:
    """Walk the priority list and start jobs in order while crews allow.

    ``order`` holds the positions of pending components only (none already
    under repair), ``comp_link`` each component's nearest road link and
    ``passable`` this hour's mask over road links. The walk stops at the
    first accessible job whose crew demand exceeds the free crews: that job
    holds every job ranked below it until enough crews are free. A component
    whose road link is impassable is skipped, so accessible work further
    down the list still starts. Every job fits the whole pool; the engine
    rejects larger demands at hour 0. Returns the started positions in
    start order.
    """
    started = []
    free = jobs.free
    for c, need in zip(order.tolist(), jobs.crews[order].tolist()):
        if not component_accessible(comp_link[c], passable, scenario):
            continue
        if need > free:
            break
        free -= need
        started.append(c)
    started = np.array(started, dtype=np.intp)
    jobs.free = free
    jobs.done_at[started] = hour + jobs.duration[started]
    jobs.running = np.concatenate([jobs.running, started])
    return started

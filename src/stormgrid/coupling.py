"""Couplings between the road state and the power system.

Two directions are modeled here: flooded roads gate both repair-crew access
to individual components and fuel delivery to plants. (The reverse coupling,
power outages knocking out traffic lights, is a connectivity query and lives
with the network code; the traffic-light restoration strategy consumes it.)

Where the two meet is decided here too, as road-node positions: each
component's crew road node (once per network) and each plant's fuel entry
node (once per replication, as the scenario may move it).

Fuel delivery needs any passable route from the fuel source to the plant's
road node, which is plain reachability on the passable subgraph: if the
shortest route is cut but a longer one survives, delivery continues.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import DanglingReferenceError
from .hazard import HazardScenario
from .network import PowerNetwork, RoadNetwork


class RoadIndex:
    """Integer-indexed road graph. Each query takes a mask over road links
    and builds the passable subgraph afresh; nothing is cached here."""

    def __init__(self, roads: RoadNetwork):
        self.node_ids = list(roads.intersections)
        self.pos = {nid: i for i, nid in enumerate(self.node_ids)}
        self.link_ids = roads.link_ids
        ends = np.empty((len(self.link_ids), 2), dtype=np.intp)
        self.lengths = np.empty(len(self.link_ids))
        for i, lid in enumerate(self.link_ids):
            link = roads.links[lid]
            ends[i, 0] = self.pos[link.endpoints[0]]
            ends[i, 1] = self.pos[link.endpoints[1]]
            self.lengths[i] = link.length_m
        self.link_ends = ends
        self.coords = np.array([roads.intersections[n] for n in self.node_ids])
        # A route between two intersections takes the shortest of their
        # parallel links, so each query keeps one link per node pair: the
        # shortest passable one, first in this order (pair, length, position).
        lo, hi = np.sort(ends, axis=1).T
        self._pair = lo * len(self.node_ids) + hi
        self._by_pair = np.lexsort((self.lengths, self._pair))

    def n_nodes(self) -> int:
        return len(self.node_ids)

    def subgraph(self, passable: np.ndarray) -> csr_matrix:
        """Symmetric length matrix of the passable links, the shortest of
        parallel ones only (the matrix would add their lengths)."""
        keep = self._by_pair[passable[self._by_pair]]
        pair = self._pair[keep]
        keep = np.sort(keep[np.diff(pair, prepend=-1) != 0])
        n = self.n_nodes()
        a = self.link_ends[keep, 0]
        b = self.link_ends[keep, 1]
        w = self.lengths[keep]
        rows = np.concatenate([a, b])
        cols = np.concatenate([b, a])
        data = np.concatenate([w, w])
        return csr_matrix((data, (rows, cols)), shape=(n, n))

    def labels_for(self, passable: np.ndarray) -> np.ndarray:
        """Connected-component label per road node on the passable subgraph."""
        return connected_components(self.subgraph(passable), directed=False)[1]

    def distances_from(self, sources: list[int], passable: np.ndarray) -> np.ndarray:
        """Road distance from each source node, one row per source, +inf
        where unreachable."""
        return dijkstra(self.subgraph(passable), directed=False, indices=sources)

    def nearest_node(self, location: tuple[float, float]) -> int:
        d2 = ((self.coords - np.asarray(location)) ** 2).sum(axis=1)
        return int(np.argmin(d2))


def component_accessible(
    link: int, passable: np.ndarray, scenario: HazardScenario
) -> bool:
    """Can a crew reach a component through its nearest road link now?

    ``link`` is the position of the component's nearest road link and
    ``passable`` this hour's mask over road links.
    """
    if not scenario.crew_access_dependence:
        return True
    return bool(passable[link])


def crew_road_nodes(
    index: RoadIndex, comp_link: np.ndarray, locations: np.ndarray
) -> np.ndarray:
    """Road-node position where crews reach each component.

    ``comp_link`` holds each component's nearest road link position and
    ``locations`` its (x, y) row. The answer is the endpoint of that link
    nearer the component; an exact tie goes to the endpoint whose
    intersection id sorts lower.
    """
    n = index.n_nodes()
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=index.node_ids.__getitem__)] = np.arange(n)
    a, b = index.link_ends[comp_link].T
    a_first = rank[a] < rank[b]
    lo, hi = np.where(a_first, a, b), np.where(a_first, b, a)
    (ax, ay), (bx, by) = index.coords[lo].T, index.coords[hi].T
    cx, cy = locations.T
    da = (ax - cx) ** 2 + (ay - cy) ** 2
    db = (bx - cx) ** 2 + (by - cy) ** 2
    return np.where(da <= db, lo, hi)


def resolve_fuel_nodes(
    net: PowerNetwork,
    scenario: HazardScenario,
    index: RoadIndex,
    plant_node: np.ndarray,
) -> np.ndarray:
    """Road-node position where fuel enters, one per plant in ``net.plants``.

    Scenario fuel-source coordinates take precedence (snapped to the nearest
    intersection); otherwise the coupling file's fuel record applies; a plant
    with neither takes fuel at its own crew road node, ``plant_node``. A
    fuel source named for no plant raises :class:`DanglingReferenceError`.
    """
    if unknown := set(scenario.fuel_source_coords) - set(net.plants):
        raise DanglingReferenceError(min(unknown), "fuel_sources names no plant")
    nodes = plant_node.copy()
    for p, plant in enumerate(net.plants):
        if plant in scenario.fuel_source_coords:
            nodes[p] = index.nearest_node(scenario.fuel_source_coords[plant])
        elif plant in net.fuel_source:
            nodes[p] = index.pos[net.fuel_source[plant]]
    return nodes


def fuel_reachable(
    index: RoadIndex,
    fuel_node: np.ndarray,
    plant_node: np.ndarray,
    passable: np.ndarray,
    scenario: HazardScenario,
) -> np.ndarray:
    """Mask over plants: does any passable route join fuel source and plant?

    A plant runs only while this holds (when the fuel coupling is on).
    ``passable`` is this hour's mask over road links.
    """
    if not scenario.fuel_dependence:
        return np.ones(len(plant_node), dtype=bool)
    labels = index.labels_for(passable)
    return labels[fuel_node] == labels[plant_node]

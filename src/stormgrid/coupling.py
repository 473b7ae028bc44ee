"""Couplings between the road state and the power system.

Two directions are modeled here: flooded roads gate both repair-crew access
to individual components and fuel delivery to plants. (The reverse coupling,
power outages knocking out traffic lights, is a connectivity query and lives
with the network code; the traffic-light restoration strategy consumes it.)

Fuel delivery needs any passable route from the fuel source to the plant's
road node, which is plain reachability on the passable subgraph: if the
shortest route is cut but a longer one survives, delivery continues.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .hazard import HazardScenario
from .network import PowerComponent, PowerNetwork, RoadNetwork


class RoadIndex:
    """Integer-indexed road graph with passability-keyed caches.

    Passable subgraphs recur across hours and replications (drainage is
    deterministic), so connectivity labels and distance fields are cached by
    the passable-mask bytes.
    """

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
        self._coords = np.array([roads.intersections[n] for n in self.node_ids])
        self._label_cache: dict[bytes, np.ndarray] = {}

    def n_nodes(self) -> int:
        return len(self.node_ids)

    def subgraph(self, passable: np.ndarray) -> csr_matrix:
        keep = np.flatnonzero(passable)
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
        key = passable.tobytes()
        labels = self._label_cache.get(key)
        if labels is None:
            _, labels = connected_components(self.subgraph(passable), directed=False)
            self._label_cache[key] = labels
        return labels

    def distances_from(self, sources: list[int], passable: np.ndarray) -> np.ndarray:
        """Min road distance from any source node, +inf where unreachable."""
        if not sources:
            return np.full(self.n_nodes(), np.inf)
        return dijkstra(
            self.subgraph(passable),
            directed=False,
            indices=sources,
            min_only=True,
        )

    def nearest_node(self, location: tuple[float, float]) -> int:
        d2 = ((self._coords - np.asarray(location)) ** 2).sum(axis=1)
        return int(np.argmin(d2))


def component_road_node(component: PowerComponent, roads: RoadNetwork) -> str:
    """Road intersection where crews reach the component.

    The endpoint of the component's nearest road link that lies closer to the
    component; ties go to the endpoint with the lower intersection id.
    """
    link = roads.links[component.nearest_road_link]
    a, b = sorted(link.endpoints)
    ax, ay = roads.intersections[a]
    bx, by = roads.intersections[b]
    cx, cy = component.location
    da = (ax - cx) ** 2 + (ay - cy) ** 2
    db = (bx - cx) ** 2 + (by - cy) ** 2
    return a if da <= db else b


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


def resolve_fuel_nodes(
    net: PowerNetwork,
    roads: RoadNetwork,
    scenario: HazardScenario,
    index: RoadIndex | None = None,
) -> dict[str, str]:
    """Fuel-entry road node per plant.

    Scenario fuel-source coordinates take precedence (snapped to the nearest
    intersection); otherwise the coupling file's fuel records apply; a plant
    with neither defaults to its own road node (fuel at the gate).
    """
    index = index or RoadIndex(roads)
    nodes: dict[str, str] = {}
    for plant in net.plants:
        if plant in scenario.fuel_source_coords:
            nodes[plant] = index.node_ids[
                index.nearest_node(scenario.fuel_source_coords[plant])
            ]
        elif plant in net.fuel_source:
            nodes[plant] = net.fuel_source[plant]
        else:
            nodes[plant] = component_road_node(net.components[plant], roads)
    return nodes


def fuel_route_available(
    plant: PowerComponent,
    net: PowerNetwork,
    roads: RoadNetwork,
    passable: np.ndarray,
    scenario: HazardScenario,
    index: RoadIndex | None = None,
    fuel_nodes: dict[str, str] | None = None,
) -> bool:
    """Does any passable route reach the plant from its fuel source?

    A plant runs only while this holds (when the fuel coupling is on).
    ``passable`` is this hour's mask over road links. ``fuel_nodes`` is
    :func:`resolve_fuel_nodes` for the same scenario, resolved here when not
    given.
    """
    if not scenario.fuel_dependence:
        return True
    index = index or RoadIndex(roads)
    if fuel_nodes is None:
        fuel_nodes = resolve_fuel_nodes(net, roads, scenario, index)
    source = index.pos[fuel_nodes[plant.id]]
    target = index.pos[component_road_node(plant, roads)]
    labels = index.labels_for(passable)
    return bool(labels[source] == labels[target])


"""Domain types for the power and road networks, file ingestion, connectivity.

The power grid is an undirected graph whose nodes are typed components
(plants, substations, towers, lines, poles, conductors). Service is binary:
a component is energized when it can reach a fueled plant through components
that conduct; the replication engine owns which components conduct each
hour. Households and traffic lights hang off the grid through
attachment/feeding component ids.

Network files are line-record text: one record per line, ``#`` comments,
whitespace-separated typed columns (see README for the three schemas).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    DanglingReferenceError,
    DisconnectedGridError,
    FormatError,
)


class ComponentKind(enum.Enum):
    PLANT = "plant"
    SUBSTATION = "substation"
    TOWER = "tower"
    LINE = "line"
    POLE = "pole"
    CONDUCTOR = "conductor"


class DamageLevel(enum.Enum):
    MODERATE = "moderate"
    SEVERE = "severe"
    COMPLETE = "complete"


@dataclass
class PowerComponent:
    id: str
    kind: ComponentKind
    location: tuple[float, float]
    # Substation damage from the latest failure draw; None when undamaged.
    damage_level: DamageLevel | None = None
    nearest_road_link: str | None = None


@dataclass
class Household:
    id: str
    location: tuple[float, float]
    attachment: str


@dataclass
class RoadLink:
    id: str
    endpoints: tuple[str, str]
    length_m: float

    def __post_init__(self):
        if self.length_m <= 0:
            raise ValueError(f"link {self.id}: length must be > 0")


@dataclass
class TrafficLight:
    id: str
    intersection: str
    feed_component: str


@dataclass
class RoadNetwork:
    links: dict[str, RoadLink]
    intersections: dict[str, tuple[float, float]]
    traffic_lights: dict[str, TrafficLight]
    # Link ids in file order: the position of every per-link array.
    link_ids: list[str] = field(init=False, repr=False)

    def __post_init__(self):
        self.link_ids = list(self.links)


@dataclass
class PowerNetwork:
    components: dict[str, PowerComponent]
    edges: list[tuple[str, str]]
    plants: list[str]
    # plant id -> road intersection id where fuel enters the road network
    fuel_source: dict[str, str]
    _index: "PowerIndex | None" = field(default=None, repr=False)

    @property
    def index(self) -> "PowerIndex":
        if self._index is None:
            self._index = PowerIndex(self)
        return self._index

    def reset_statuses(self) -> None:
        """Clear the damage levels of the previous failure draw."""
        for comp in self.components.values():
            comp.damage_level = None


class PowerIndex:
    """Integer-indexed static view of a power network for fast connectivity.

    Built once per network and never mutated. Which components conduct is
    per-replication state that the caller owns and passes in as a boolean
    mask per query.
    """

    def __init__(self, net: PowerNetwork):
        self.ids = list(net.components)
        self.pos = {cid: i for i, cid in enumerate(self.ids)}
        n = len(self.ids)
        rows, cols = [], []
        for a, b in net.edges:
            ia, ib = self.pos[a], self.pos[b]
            rows += [ia, ib]
            cols += [ib, ia]
        data = np.ones(len(rows), dtype=np.int8)
        self.adjacency = csr_matrix((data, (rows, cols)), shape=(n, n))
        self.plant_idx = np.array([self.pos[p] for p in net.plants], dtype=np.intp)
        self._plant_set = frozenset(self.plant_idx.tolist())
        # BFS forest rooted at the plants over the pristine graph. Used for
        # canonical upstream paths and per-substation service areas; for a
        # radial grid the forest is the grid itself.
        self.parent, visit_order = self._bfs_forest(net)
        self.substation_of = self._assign_substations(net, visit_order)

    def _bfs_forest(self, net: PowerNetwork) -> tuple[np.ndarray, list[int]]:
        """Parent per component (-1 for roots and unreached) and BFS visit order."""
        neighbors: list[list[int]] = [[] for _ in self.ids]
        for a, b in net.edges:
            ia, ib = self.pos[a], self.pos[b]
            neighbors[ia].append(ib)
            neighbors[ib].append(ia)
        for lst in neighbors:
            lst.sort()
        parent = np.full(len(self.ids), -1, dtype=np.intp)
        seen = np.zeros(len(self.ids), dtype=bool)
        order = sorted(self.plant_idx.tolist())
        seen[self.plant_idx] = True
        for u in order:  # the visit order grows as it is walked: it is the queue
            for v in neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    order.append(v)
        return parent, order

    def _assign_substations(
        self, net: PowerNetwork, visit_order: list[int]
    ) -> np.ndarray:
        """Nearest substation ancestor (by BFS forest) per component, -1 if none.

        ``visit_order`` puts every parent before its children. Components the
        BFS never reached have no forest children, so only their own kind
        decides their entry.
        """
        is_sub = np.array(
            [net.components[c].kind is ComponentKind.SUBSTATION for c in self.ids]
        )
        sub = np.where(is_sub, np.arange(len(self.ids)), -1).astype(np.intp)
        for u in visit_order:
            if not is_sub[u] and self.parent[u] >= 0:
                sub[u] = sub[self.parent[u]]
        return sub

    def path_to_root(self, idx: int) -> list[int]:
        """Component indices from ``idx`` up to (and excluding) its plant."""
        path = []
        u = idx
        while u >= 0 and u not in self._plant_set:
            path.append(u)
            u = int(self.parent[u])
        return path

    def powered_mask(
        self, conducting: np.ndarray, plant_idx: np.ndarray | None = None
    ) -> np.ndarray:
        """Boolean mask of components connected to an operational plant.

        Connectivity runs over the subgraph induced by conducting components;
        a component that does not conduct (failed, or under repair) blocks
        propagation entirely. ``plant_idx`` lists the live (fueled) plants;
        by default every plant is live.
        """
        if plant_idx is None:
            plant_idx = self.plant_idx
        powered = np.zeros(len(self.ids), dtype=bool)
        plant_idx = plant_idx[conducting[plant_idx]]
        if plant_idx.size == 0:
            return powered
        alive_nodes = np.flatnonzero(conducting)
        sub = self.adjacency[alive_nodes][:, alive_nodes]
        n_comp, labels = connected_components(sub, directed=False)
        pos_in_alive = np.full(len(self.ids), -1, dtype=np.intp)
        pos_in_alive[alive_nodes] = np.arange(alive_nodes.size)
        plant_labels = set(labels[pos_in_alive[plant_idx]].tolist())
        hit = np.isin(labels, list(plant_labels))
        powered[alive_nodes[hit]] = True
        return powered


# ---------------------------------------------------------------------------
# File ingestion


_KIND_BY_NAME = {k.value: k for k in ComponentKind}


def _records(path: Path):
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield line_no, line.split()


def _parse_float(path, line_no, token, what):
    try:
        return float(token)
    except ValueError:
        raise FormatError(path, line_no, f"bad {what}: {token!r}") from None


def load_power_file(path: str | Path) -> tuple[dict[str, PowerComponent], list]:
    path = Path(path)
    components: dict[str, PowerComponent] = {}
    edges: list[tuple[str, str]] = []
    for line_no, toks in _records(path):
        tag = toks[0]
        if tag == "component":
            if len(toks) != 5:
                raise FormatError(path, line_no, "component needs: id kind x y")
            _, cid, kind_s, xs, ys = toks
            if kind_s not in _KIND_BY_NAME:
                raise FormatError(path, line_no, f"unknown component kind {kind_s!r}")
            if cid in components:
                raise FormatError(path, line_no, f"duplicate component id {cid!r}")
            x = _parse_float(path, line_no, xs, "x coordinate")
            y = _parse_float(path, line_no, ys, "y coordinate")
            components[cid] = PowerComponent(
                id=cid, kind=_KIND_BY_NAME[kind_s], location=(x, y)
            )
        elif tag == "edge":
            if len(toks) != 3:
                raise FormatError(path, line_no, "edge needs: id_a id_b")
            edges.append((toks[1], toks[2], line_no))
        else:
            raise FormatError(path, line_no, f"unknown record type {tag!r}")
    resolved = []
    for a, b, line_no in edges:
        for cid in (a, b):
            if cid not in components:
                raise DanglingReferenceError(
                    cid, f"edge at {path}:{line_no} names a missing component"
                )
        resolved.append((a, b))
    return components, resolved


def load_road_file(path: str | Path) -> RoadNetwork:
    path = Path(path)
    intersections: dict[str, tuple[float, float]] = {}
    links: dict[str, RoadLink] = {}
    pending = []
    for line_no, toks in _records(path):
        tag = toks[0]
        if tag == "intersection":
            if len(toks) != 4:
                raise FormatError(path, line_no, "intersection needs: id x y")
            _, nid, xs, ys = toks
            if nid in intersections:
                raise FormatError(path, line_no, f"duplicate intersection id {nid!r}")
            intersections[nid] = (
                _parse_float(path, line_no, xs, "x coordinate"),
                _parse_float(path, line_no, ys, "y coordinate"),
            )
        elif tag == "link":
            if len(toks) != 5:
                raise FormatError(path, line_no, "link needs: id a b length_m")
            _, lid, a, b, ls = toks
            length = _parse_float(path, line_no, ls, "length")
            if length <= 0:
                raise FormatError(path, line_no, f"link {lid}: length must be > 0")
            pending.append((lid, a, b, length, line_no))
        else:
            raise FormatError(path, line_no, f"unknown record type {tag!r}")
    for lid, a, b, length, line_no in pending:
        if lid in links:
            raise FormatError(path, line_no, f"duplicate link id {lid!r}")
        for nid in (a, b):
            if nid not in intersections:
                raise DanglingReferenceError(
                    nid, f"link {lid} at {path}:{line_no} names a missing intersection"
                )
        links[lid] = RoadLink(id=lid, endpoints=(a, b), length_m=length)
    return RoadNetwork(links=links, intersections=intersections, traffic_lights={})


def load_coupling_file(path: str | Path):
    path = Path(path)
    households: list[tuple[str, float, float, str, int]] = []
    lights: list[tuple[str, str, str, int]] = []
    fuel: list[tuple[str, str, int]] = []
    for line_no, toks in _records(path):
        tag = toks[0]
        if tag == "household":
            if len(toks) != 5:
                raise FormatError(path, line_no, "household needs: id x y component")
            _, hid, xs, ys, comp = toks
            x = _parse_float(path, line_no, xs, "x coordinate")
            y = _parse_float(path, line_no, ys, "y coordinate")
            households.append((hid, x, y, comp, line_no))
        elif tag == "light":
            if len(toks) != 4:
                raise FormatError(path, line_no, "light needs: id intersection component")
            lights.append((toks[1], toks[2], toks[3], line_no))
        elif tag == "fuel":
            if len(toks) != 3:
                raise FormatError(path, line_no, "fuel needs: plant intersection")
            fuel.append((toks[1], toks[2], line_no))
        else:
            raise FormatError(path, line_no, f"unknown record type {tag!r}")
    return households, lights, fuel


def assign_nearest_road_links(
    components: dict[str, PowerComponent], roads: RoadNetwork
) -> None:
    """Map every component to the road link with the nearest midpoint.

    Euclidean distance to link midpoints; exact ties break to the lowest
    link id so repeated loads are reproducible.
    """
    link_ids = roads.link_ids
    # Sorting by id makes argmin pick the lowest id among equal distances.
    order = sorted(range(len(link_ids)), key=lambda i: link_ids[i])
    mids = np.empty((len(link_ids), 2))
    for row, i in enumerate(order):
        link = roads.links[link_ids[i]]
        (x1, y1) = roads.intersections[link.endpoints[0]]
        (x2, y2) = roads.intersections[link.endpoints[1]]
        mids[row] = ((x1 + x2) / 2.0, (y1 + y2) / 2.0)
    comp_list = list(components.values())
    locs = np.array([c.location for c in comp_list])
    chunk = 512
    for start in range(0, len(comp_list), chunk):
        block = locs[start : start + chunk]
        d2 = ((block[:, None, :] - mids[None, :, :]) ** 2).sum(axis=2)
        best = np.argmin(d2, axis=1)
        for j, comp in enumerate(comp_list[start : start + chunk]):
            comp.nearest_road_link = link_ids[order[best[j]]]


def load_networks(
    power_file: str | Path,
    road_file: str | Path,
    coupling_file: str | Path,
) -> tuple[PowerNetwork, RoadNetwork, list[Household]]:
    """Load and cross-validate the three network files.

    Raises :class:`FormatError` with file/line context on malformed records,
    :class:`DanglingReferenceError` naming the offending id on unresolved
    cross-references, and :class:`DisconnectedGridError` when a household
    cannot reach a plant in the pristine network.
    """
    components, edges = load_power_file(power_file)
    roads = load_road_file(road_file)
    hh_records, light_records, fuel_records = load_coupling_file(coupling_file)

    coupling_path = Path(coupling_file)
    households: list[Household] = []
    seen: set[str] = set()
    for hid, x, y, comp, line_no in hh_records:
        if comp not in components:
            raise DanglingReferenceError(
                comp,
                f"household {hid} at {coupling_path}:{line_no} attaches to a missing component",
            )
        if hid in seen:
            raise FormatError(coupling_path, line_no, f"duplicate household id {hid!r}")
        households.append(Household(id=hid, location=(x, y), attachment=comp))
        seen.add(hid)

    for lid, inter, comp, line_no in light_records:
        if inter not in roads.intersections:
            raise DanglingReferenceError(
                inter, f"light {lid} at {coupling_path}:{line_no} names a missing intersection"
            )
        if comp not in components:
            raise DanglingReferenceError(
                comp, f"light {lid} at {coupling_path}:{line_no} is fed by a missing component"
            )
        roads.traffic_lights[lid] = TrafficLight(
            id=lid, intersection=inter, feed_component=comp
        )

    plants = [c.id for c in components.values() if c.kind is ComponentKind.PLANT]
    fuel_source: dict[str, str] = {}
    for plant, inter, line_no in fuel_records:
        if plant not in components:
            raise DanglingReferenceError(
                plant, f"fuel record at {coupling_path}:{line_no} names a missing plant"
            )
        if components[plant].kind is not ComponentKind.PLANT:
            raise FormatError(
                coupling_path, line_no, f"fuel source on non-plant component {plant!r}"
            )
        if inter not in roads.intersections:
            raise DanglingReferenceError(
                inter, f"fuel record at {coupling_path}:{line_no} names a missing intersection"
            )
        fuel_source[plant] = inter

    assign_nearest_road_links(components, roads)

    net = PowerNetwork(
        components=components,
        edges=edges,
        plants=plants,
        fuel_source=fuel_source,
    )

    idx = net.index
    powered = idx.powered_mask(np.ones(len(idx.ids), dtype=bool))
    for hh in households:
        if not powered[idx.pos[hh.attachment]]:
            raise DisconnectedGridError(
                f"household {hh.id} (attachment {hh.attachment}) cannot reach a plant "
                "in the pristine network"
            )
    return net, roads, households

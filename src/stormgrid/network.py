"""Domain types for the power and road networks, file ingestion, connectivity.

The power grid is an undirected graph whose nodes are typed components
(plants, substations, towers, lines, poles, conductors). Service is binary:
a component is energized when it can reach a fueled plant through components
that conduct; the replication engine owns which components conduct each
hour. Households and traffic lights hang off the grid through
attachment/feeding component ids.

The index numbers the breadth-first forest rooted at the plants in preorder,
so every subtree is an interval. A radial grid, in which every edge among
plant-reachable components is a forest edge, has one path from a component
up to its plant, and service is read from those intervals with two
``bincount`` calls; a meshed grid falls back to a connected-components
search over the conducting subgraph.

Network files are line-record text: one record per line, ``#`` comments,
whitespace-separated typed columns (see README for the three schemas).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

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


#: Kind codes of ``PowerIndex.kind`` are positions in this tuple.
KINDS = tuple(ComponentKind)


class PowerIndex:
    """Integer-indexed static view of a power network for fast connectivity.

    Built once per network and never mutated. Which components conduct is
    per-replication state that the caller owns and passes in as a boolean
    mask per query.

    It is the one owner of the grid's tables: the edges become one array of
    position pairs, ``edges``, that feeds the CSR ``adjacency`` (sorted
    columns), the meshed service search, the breadth-first forest rooted at
    the plants and the ``radial`` count.
    Per component it holds the kind code (a position in ``KINDS``), the
    location as an ``(n, 2)`` array, the parent in that forest, the nearest
    substation at or above it (-1 for none), and the preorder interval
    ``[tin, tout]`` of its forest subtree: ``a`` is ``b`` or an ancestor of ``b`` exactly when
    ``tin[a] <= tin[b] <= tout[a]``. Components no plant reaches are roots of
    singleton intervals numbered after the reached ones. ``radial`` is read
    from the data: it holds when every edge among reached components is a
    forest edge, so a reached component has one path to a plant.
    """

    def __init__(self, net: PowerNetwork):
        self.ids = list(net.components)
        self.pos = {cid: i for i, cid in enumerate(self.ids)}
        n = len(self.ids)
        code = {k: i for i, k in enumerate(KINDS)}
        comps = net.components.values()
        self.kind = np.array([code[c.kind] for c in comps], dtype=np.intp)
        self.location = np.array([c.location for c in comps], dtype=float).reshape(n, 2)
        self.edges = ends = np.array(
            [(self.pos[a], self.pos[b]) for a, b in net.edges], dtype=np.intp
        ).reshape(-1, 2)
        rows, cols = np.concatenate([ends, ends[:, ::-1]]).T
        data = np.ones(len(rows), dtype=np.int8)
        self.adjacency = csr_matrix((data, (rows, cols)), shape=(n, n))
        self.adjacency.sum_duplicates()  # sorted neighbours fix the BFS order
        self.plant_idx = np.array([self.pos[p] for p in net.plants], dtype=np.intp)
        # BFS forest rooted at the plants over the pristine graph. Used for
        # upstream paths and per-substation service areas; for a radial grid
        # the forest is the grid itself.
        self._forest()
        edges_in_reach = np.count_nonzero(self.reached[ends[:, 0]])
        forest_edges = np.count_nonzero(self.reached) - len(self.plant_idx)
        self.radial = bool(edges_in_reach == forest_edges)

    def _forest(self) -> None:
        """Set ``parent``, ``reached``, ``tin``/``tout`` and ``substation_of``.

        The BFS visits the plants in position order and each component's
        neighbours in the sorted column order of its adjacency row. Subtree
        sizes are summed up the visit order walked backwards. Walked
        forwards, each root takes the next free block, each parent hands its
        children consecutive blocks after its own number, and a child that
        is no substation takes its parent's. Unreached components are
        singletons after the reached ones, and their own kind decides their
        substation.
        """
        n = len(self.ids)
        indptr = self.adjacency.indptr.tolist()
        indices = self.adjacency.indices.tolist()
        parent = [-1] * n
        seen = np.isin(np.arange(n), self.plant_idx).tolist()
        order = sorted(self.plant_idx.tolist())
        for u in order:  # the visit order grows as it is walked: it is the queue
            for v in indices[indptr[u] : indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    order.append(v)
        size = [1] * n
        for v in reversed(order):
            if parent[v] >= 0:
                size[parent[v]] += size[v]
        is_sub = (self.kind == KINDS.index(ComponentKind.SUBSTATION)).tolist()
        sub = [v if is_sub[v] else -1 for v in range(n)]
        tin = [-1] * n
        nxt = [0] * n
        free = 0
        for v in order:
            p = parent[v]
            if p < 0:
                tin[v], free = free, free + size[v]
            else:
                tin[v], nxt[p] = nxt[p], nxt[p] + size[v]
                if not is_sub[v]:
                    sub[v] = sub[p]
            nxt[v] = tin[v] + 1
        self.parent = np.array(parent, dtype=np.intp)
        self.reached = np.array(seen)
        self.tin = np.array(tin, dtype=np.intp)
        self.tin[~self.reached] = np.arange(free, n)
        self.tout = self.tin + np.array(size, dtype=np.intp) - 1
        self.substation_of = np.array(sub, dtype=np.intp)

    def powered_mask(
        self, conducting: np.ndarray, plant_idx: np.ndarray | None = None
    ) -> np.ndarray:
        """Boolean mask of components connected to an operational plant.

        Connectivity runs over the subgraph induced by conducting components;
        a component that does not conduct (failed, or under repair) blocks
        propagation entirely. ``plant_idx`` lists the live (fueled) plants;
        by default every plant is live.

        On a radial grid a reached component is powered exactly when no dead
        component (one that does not conduct, or a plant that is not live)
        lies on its forest path, that is, when no dead interval covers its
        ``tin``; the covers are counted with a difference array. A meshed
        grid labels the connected components of the edges whose two ends
        conduct; a component is powered when it shares a label with a live,
        conducting plant (a component that does not conduct keeps a label of
        its own).
        """
        if plant_idx is None:
            plant_idx = self.plant_idx
        n = len(self.ids)
        if self.radial:
            dead = ~conducting
            dead[self.plant_idx] = True
            dead[plant_idx] = ~conducting[plant_idx]
            d = np.flatnonzero(dead)
            cover = np.cumsum(
                np.bincount(self.tin[d], minlength=n + 1)
                - np.bincount(self.tout[d] + 1, minlength=n + 1)
            )
            return self.reached & (cover[self.tin] == 0)
        u, v = self.edges.T
        keep = conducting[u] & conducting[v]
        graph = csr_matrix(
            (np.ones(np.count_nonzero(keep), dtype=np.int8), (u[keep], v[keep])),
            shape=(n, n),
        )
        n_comp, labels = connected_components(graph, directed=False)
        hit = np.zeros(n_comp, dtype=bool)
        hit[labels[plant_idx[conducting[plant_idx]]]] = True
        return hit[labels]


# ---------------------------------------------------------------------------
# File ingestion


_KIND_BY_NAME = {k.value: k for k in ComponentKind}


def _records(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                yield line_no, line.split()
    except UnicodeDecodeError as exc:
        raise FormatError(path, 0, f"not UTF-8 text: {exc.reason}") from None


def _parse_float(path, line_no, token, what):
    try:
        value = float(token)
    except ValueError:
        raise FormatError(path, line_no, f"bad {what}: {token!r}") from None
    if not math.isfinite(value):
        raise FormatError(path, line_no, f"{what} must be finite: {token!r}")
    return value


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
    if not links:
        # every component is mapped to its nearest link, so there must be one
        raise FormatError(path, 0, "no link records; need at least one road link")
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


#: Candidate links the k-d tree gives each row of assign_nearest_road_links.
NEAREST_CANDIDATES = 8


def assign_nearest_road_links(locations: np.ndarray, roads: RoadNetwork) -> np.ndarray:
    """Position in ``roads.link_ids`` of the road link with the nearest
    midpoint, per ``(x, y)`` row of ``locations``.

    Euclidean distance to link midpoints; exact ties break to the lowest
    link id so the mapping is reproducible.

    A k-d tree over the midpoints gives each row its ``NEAREST_CANDIDATES``
    nearest links; the lowest id among the candidates at the exact minimum
    squared distance wins. A row whose farthest candidate is as near as its
    best, within rounding, may have tied links the tree left out, so it is
    answered by scanning every midpoint.
    """
    link_ids = roads.link_ids
    # Rows sorted by id, so the lowest row among equal distances is the
    # lowest id.
    order = np.array(sorted(range(len(link_ids)), key=link_ids.__getitem__), dtype=np.intp)
    ends = np.array(
        [roads.intersections[e] for lid in link_ids for e in roads.links[lid].endpoints],
        dtype=float,
    ).reshape(-1, 2, 2)[order]
    mids = (ends[:, 0] + ends[:, 1]) / 2.0
    k = min(NEAREST_CANDIDATES, len(mids))
    _, cand = cKDTree(mids).query(locations, k=np.arange(1, k + 1))
    d2 = ((locations[:, None, :] - mids[cand]) ** 2).sum(axis=2)
    best = d2.min(axis=1)
    rows = np.where(d2 == best[:, None], cand, len(mids)).min(axis=1)
    if k < len(mids):
        for r in np.flatnonzero(d2.max(axis=1) <= best * (1 + 1e-9)):
            rows[r] = np.argmin(((locations[r] - mids) ** 2).sum(axis=1))
    return order[rows]


def load_networks(
    power_file: str | Path,
    road_file: str | Path,
    coupling_file: str | Path,
) -> tuple[PowerNetwork, RoadNetwork, list[Household]]:
    """Load and cross-validate the three network files.

    Raises :class:`FormatError` with file/line context on malformed records,
    :class:`DanglingReferenceError` naming the offending id on unresolved
    cross-references, and :class:`DisconnectedGridError` when a household or
    a traffic light's feed component cannot reach a plant in the pristine
    network.
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

    net = PowerNetwork(
        components=components,
        edges=edges,
        plants=plants,
        fuel_source=fuel_source,
    )

    idx = net.index
    powered = idx.powered_mask(np.ones(len(idx.ids), dtype=bool))
    lights = roads.traffic_lights.values()
    for name, comp in [(f"household {hh.id}", hh.attachment) for hh in households] + [
        (f"traffic light {tl.id}", tl.feed_component) for tl in lights
    ]:
        if not powered[idx.pos[comp]]:
            raise DisconnectedGridError(
                f"{name} (fed by {comp}) cannot reach a plant in the pristine network"
            )
    return net, roads, households

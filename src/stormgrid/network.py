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

Network files are line-record text: one record per line, whitespace-separated
typed columns (see README for the three schemas), and ``#`` starting a comment
anywhere on a line. One table gives every record tag's fields.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import chain
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

#: Per record tag: its fields, and whether its first field is unique among
#: the tag's records. The fields named in ``_NUMBERS`` are finite numbers.
_RECORDS = {
    "component": ("id kind x y", True),
    "edge": ("id_a id_b", False),
    "intersection": ("id x y", True),
    "link": ("id a b length_m", True),
    "household": ("id x y component", True),
    "light": ("id intersection component", True),
    "fuel": ("plant intersection", True),
}
_NUMBERS = {"x": "x coordinate", "y": "y coordinate", "length_m": "length"}


def _read(path: Path, *tags: str) -> dict[str, list[list]]:
    """The records of one network file by tag, as columns in file order.

    A tag's columns are its records' line numbers, then one per field, the
    numeric ones as floats. ``#`` starts a comment anywhere on a line. Raises
    :class:`FormatError` for an unknown tag or a wrong field count, then,
    tag by tag, for a bad or non-finite number and a repeated unique field.
    """
    width = {tag: len(_RECORDS[tag][0].split()) + 1 for tag in tags}
    line_nos: dict[str, list[int]] = {tag: [] for tag in tags}
    tokens: dict[str, list[str]] = {tag: [] for tag in tags}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                rec = line.partition("#")[0].split()
                if not rec:
                    continue
                tag = rec[0]
                if tag not in width:
                    raise FormatError(path, line_no, f"unknown record type {tag!r}")
                if len(rec) != width[tag]:
                    raise FormatError(path, line_no, f"{tag} needs: {_RECORDS[tag][0]}")
                line_nos[tag].append(line_no)
                tokens[tag].extend(rec)
    except UnicodeDecodeError as exc:
        raise FormatError(path, 0, f"not UTF-8 text: {exc.reason}") from None
    out = {}
    for tag, nums in line_nos.items():
        names = _RECORDS[tag][0].split()
        cols = [nums] + [tokens[tag][i :: width[tag]] for i in range(1, width[tag])]
        for i, name in enumerate(names, start=1):
            if name in _NUMBERS:
                cols[i] = _numbers(path, nums, cols[i], _NUMBERS[name])
        if _RECORDS[tag][1] and len(set(cols[1])) < len(nums):
            first: dict[str, int] = {}
            for line_no, rid in zip(nums, cols[1]):
                if first.setdefault(rid, line_no) != line_no:
                    raise FormatError(path, line_no, f"duplicate {tag} {names[0]} {rid!r}")
        out[tag] = cols
    return out


def _numbers(path: Path, line_nos: list[int], tokens: list[str], what: str) -> list[float]:
    """``tokens`` as floats; a bad or non-finite one raises :class:`FormatError`."""
    try:
        values = list(map(float, tokens))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    for line_no, token in zip(line_nos, tokens):
        try:
            value = float(token)
        except ValueError:
            raise FormatError(path, line_no, f"bad {what}: {token!r}") from None
        if not math.isfinite(value):
            raise FormatError(path, line_no, f"{what} must be finite: {token!r}")


def _check_refs(path: Path, cols: list[list], fields: tuple, known: dict, message: str):
    """Raise :class:`DanglingReferenceError` for the first id, in file order,
    in the columns ``fields`` of one tag's ``cols`` that ``known`` lacks;
    ``message`` is formatted with the record's ``id`` and ``at``, file:line.
    """
    if known.keys() >= set().union(*(cols[f] for f in fields)):
        return
    for rec in zip(*cols):
        for f in fields:
            if rec[f] not in known:
                at = f"{path}:{rec[0]}"
                raise DanglingReferenceError(rec[f], message.format(id=rec[1], at=at))


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
    power_file, road_file, coupling_file = map(Path, (power_file, road_file, coupling_file))
    power = _read(power_file, "component", "edge")
    components: dict[str, PowerComponent] = {}
    for line_no, cid, kind, x, y in zip(*power["component"]):
        if kind not in _KIND_BY_NAME:
            raise FormatError(power_file, line_no, f"unknown component kind {kind!r}")
        components[cid] = PowerComponent(id=cid, kind=_KIND_BY_NAME[kind], location=(x, y))
    _check_refs(power_file, power["edge"], (1, 2), components,
                "edge at {at} names a missing component")

    road = _read(road_file, "intersection", "link")
    _, nids, xs, ys = road["intersection"]
    intersections = dict(zip(nids, zip(xs, ys)))
    links: dict[str, RoadLink] = {}
    for line_no, lid, a, b, length in zip(*road["link"]):
        if length <= 0:
            raise FormatError(road_file, line_no, f"link {lid}: length must be > 0")
        links[lid] = RoadLink(id=lid, endpoints=(a, b), length_m=length)
    _check_refs(road_file, road["link"], (2, 3), intersections,
                "link {id} at {at} names a missing intersection")
    if not links:
        # every component is mapped to its nearest link, so there must be one
        raise FormatError(road_file, 0, "no link records; need at least one road link")

    coupling = _read(coupling_file, "household", "light", "fuel")
    for tag, fields, known, message in [
        ("household", (4,), components, "household {id} at {at} attaches to a missing component"),
        ("light", (2,), intersections, "light {id} at {at} names a missing intersection"),
        ("light", (3,), components, "light {id} at {at} is fed by a missing component"),
        ("fuel", (1,), components, "fuel record at {at} names a missing plant"),
        ("fuel", (2,), intersections, "fuel record at {at} names a missing intersection"),
    ]:
        _check_refs(coupling_file, coupling[tag], fields, known, message)
    for line_no, plant in zip(*coupling["fuel"][:2]):
        if components[plant].kind is not ComponentKind.PLANT:
            raise FormatError(
                coupling_file, line_no, f"fuel source on non-plant component {plant!r}"
            )

    households = [
        Household(id=hid, location=(x, y), attachment=comp)
        for _, hid, x, y, comp in zip(*coupling["household"])
    ]
    lights = {
        lid: TrafficLight(id=lid, intersection=inter, feed_component=comp)
        for _, lid, inter, comp in zip(*coupling["light"])
    }
    roads = RoadNetwork(links=links, intersections=intersections, traffic_lights=lights)
    net = PowerNetwork(
        components=components,
        edges=list(zip(*power["edge"][1:])),
        plants=[c.id for c in components.values() if c.kind is ComponentKind.PLANT],
        fuel_source=dict(zip(*coupling["fuel"][1:])),
    )

    idx = net.index
    powered = idx.powered_mask(np.ones(len(idx.ids), dtype=bool))
    dark = {idx.ids[i] for i in np.flatnonzero(~powered)}
    if dark:
        for name, rid, comp in chain(
            (("household", hh.id, hh.attachment) for hh in households),
            (("traffic light", tl.id, tl.feed_component) for tl in lights.values()),
        ):
            if comp in dark:
                raise DisconnectedGridError(
                    f"{name} {rid} (fed by {comp}) cannot reach a plant in the pristine network"
                )
    return net, roads, households

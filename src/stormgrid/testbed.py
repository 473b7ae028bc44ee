"""Deterministic synthetic testbed: grid roads, radial power net, couplings.

The layout mimics a small coastal service territory. Roads form a square
grid with designated arterial rows/columns every few blocks. One plant sits
at the south-west corner with its fuel source at the opposite corner.
Substations sit at arterial crossings spread over the area.

Distribution wiring follows two familiar patterns. Primary corridors run
along the arterials from each substation; that is also where the traffic
lights hang. The residential blocks between arterials are wired as compact
trees and are fed either from the adjacent corridor (a tap) or straight
from the substation over a dedicated express conductor, in a seeded mix.
Every intersection carries one street pole per few household clusters,
chained in series along the street; households tap the poles of their own
intersection.

Everything derives from one seed; a rerun writes byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import ConfigError, StormGridError


@dataclass
class TestbedParams:
    __test__ = False  # not a pytest class despite the name

    grid_size: int = 44
    households: int = 7657
    substations: int = 4
    lights_fraction: float = 0.25
    seed: int = 1
    spacing_m: float = 100.0
    arterial_every: int = 5
    households_per_cluster: int = 3
    # Household placement weight of arterial intersections relative to side
    # streets (commercial corridors hold fewer homes than residential blocks).
    arterial_household_weight: float = 0.55
    # Share of residential blocks served by a dedicated express conductor
    # from the substation instead of a tap off the arterial corridor.
    express_fraction: float = 0.0
    wind_mph: float = 65.0
    runoff_in: float = 12.0

    def __post_init__(self):
        if self.grid_size < 1:
            raise ConfigError("grid_size must be >= 1")
        if self.households < 1:
            raise ConfigError("households must be >= 1")
        if self.substations < 1:
            raise ConfigError("substations must be >= 1")
        if not (0.0 <= self.lights_fraction <= 1.0):
            raise ConfigError("lights_fraction must be in [0, 1]")
        if self.spacing_m <= 0 or self.arterial_every < 1:
            raise ConfigError("spacing_m and arterial_every must be positive")
        if self.households_per_cluster < 1:
            raise ConfigError("households_per_cluster must be >= 1")
        if not (0.0 <= self.express_fraction <= 1.0):
            raise ConfigError("express_fraction must be in [0, 1]")
        for name in ("wind_mph", "runoff_in"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        n_nodes = (self.grid_size + 1) ** 2
        if self.substations > max(1, n_nodes - 2):
            raise ConfigError(
                f"{self.substations} substations will not fit a "
                f"{self.grid_size}x{self.grid_size} grid"
            )


def _node_name(r: int, c: int) -> str:
    return f"I{r}-{c}"


def generate_testbed(params: TestbedParams, out_dir: str | Path) -> dict[str, Path]:
    """Write power.txt, roads.txt, couplings.txt, scenario.json under out_dir."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StormGridError(f"cannot create testbed directory {out}: {exc}") from exc
    rng = np.random.default_rng(params.seed)
    g = params.grid_size
    side = g + 1
    sp = params.spacing_m

    def coord(r: int, c: int) -> tuple[float, float]:
        return (c * sp, r * sp)

    def is_arterial_row(r: int) -> bool:
        return r % params.arterial_every == 0

    def is_arterial_col(c: int) -> bool:
        return c % params.arterial_every == 0

    # -- road grid -----------------------------------------------------------
    node_pos = {}
    node_list = []
    for r in range(side):
        for c in range(side):
            node_pos[(r, c)] = len(node_list)
            node_list.append((r, c))

    links = []  # (id, (r1,c1), (r2,c2), length, arterial)
    for r in range(side):
        for c in range(g):
            links.append((f"LH{r}-{c}", (r, c), (r, c + 1), sp, is_arterial_row(r)))
    for r in range(g):
        for c in range(side):
            links.append((f"LV{r}-{c}", (r, c), (r + 1, c), sp, is_arterial_col(c)))

    # -- substation placement at arterial crossings ---------------------------
    crossings = [
        (r, c)
        for r in range(side)
        for c in range(side)
        if is_arterial_row(r) and is_arterial_col(c) and (r, c) != (0, 0)
    ]
    if len(crossings) < params.substations:
        # Tiny grids may lack arterial crossings; any intersection will do.
        crossings = [
            (r, c) for r in range(side) for c in range(side) if (r, c) != (0, 0)
        ]
    if len(crossings) < params.substations:
        raise ConfigError(
            f"only {len(crossings)} candidate intersections for "
            f"{params.substations} substations; grow the grid"
        )
    k = params.substations
    rows_of = int(np.ceil(np.sqrt(k)))
    # Staggered off a regular lattice so service areas differ in size; equal
    # areas would leave substation priorities to sampling-noise coin flips.
    stagger = (-0.35, 0.2, -0.1, 0.3)
    targets = []
    for i in range(k):
        rr = (i // rows_of + 0.5 + stagger[i % 4]) / rows_of * g
        cc = (i % rows_of + 0.5 + stagger[(i + 1) % 4]) / rows_of * g
        targets.append((min(max(rr, 0.0), g), min(max(cc, 0.0), g)))
    sub_cells: list[tuple[int, int]] = []
    for rr, cc in targets:
        best = min(
            (x for x in crossings if x not in sub_cells),
            key=lambda x: ((x[0] - rr) ** 2 + (x[1] - cc) ** 2, x),
        )
        sub_cells.append(best)

    # -- arterial corridor skeleton --------------------------------------------
    # Substation cells count as corridor nodes even off-arterial (tiny grids),
    # and their incident streets join the skeleton so it stays rooted.
    n_nodes = side * side
    sub_nodes = [node_pos[cell] for cell in sub_cells]
    sub_node_set = set(sub_nodes)
    is_arterial_node = np.array(
        [is_arterial_row(r) or is_arterial_col(c) for r, c in node_list]
    )
    is_arterial_node[sub_nodes] = True

    rows, cols, data = [], [], []
    for _, a, b, length, arterial in links:
        ia, ib = node_pos[a], node_pos[b]
        if arterial or ia in sub_node_set or ib in sub_node_set:
            rows += [ia, ib]
            cols += [ib, ia]
            data += [length, length]
    art_graph = csr_matrix((data, (rows, cols)), shape=(n_nodes, n_nodes))
    art_dist, art_pred, art_src = dijkstra(
        art_graph,
        directed=False,
        indices=sub_nodes,
        return_predecessors=True,
        min_only=True,
    )
    if not np.isfinite(art_dist[is_arterial_node]).all():
        raise ConfigError("arterial skeleton is not reachable from the substations")

    # Intersection-level feed tree: parent[v] is the upstream intersection,
    # -2 marks an express feed straight from owner_sub[v]'s substation.
    EXPRESS = -2
    parent = np.full(n_nodes, -1, dtype=np.intp)
    owner_sub = np.full(n_nodes, -1, dtype=np.intp)
    for nid in range(n_nodes):
        if is_arterial_node[nid]:
            owner_sub[nid] = art_src[nid]
            parent[nid] = art_pred[nid] if art_pred[nid] >= 0 else -1

    # Residential blocks: connected side-street patches between arterials,
    # each fed from the corridor tap with the shortest corridor run or, for a
    # seeded share of blocks, express from the substation.
    side_adj: dict[int, list[int]] = {}
    block_taps: dict[int, list[tuple[int, int]]] = {}
    for _, a, b, _, _ in links:
        ia, ib = node_pos[a], node_pos[b]
        for u, v in ((ia, ib), (ib, ia)):
            if not is_arterial_node[u]:
                if not is_arterial_node[v]:
                    side_adj.setdefault(u, []).append(v)
                else:
                    block_taps.setdefault(u, []).append((v, u))

    seen = np.zeros(n_nodes, dtype=bool)
    blocks: list[list[int]] = []
    for start in range(n_nodes):
        if is_arterial_node[start] or seen[start]:
            continue
        stack, block = [start], []
        seen[start] = True
        while stack:
            u = stack.pop()
            block.append(u)
            for v in sorted(side_adj.get(u, [])):
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        blocks.append(sorted(block))

    express_draws = rng.random(len(blocks))
    for bi, block in enumerate(blocks):
        taps = [
            (float(art_dist[a]), a, b)
            for u in block
            for a, b in block_taps.get(u, [])
        ]
        if not taps:
            raise ConfigError("residential block has no arterial neighbor")
        _, tap_node, root = min(taps)
        owner = int(art_src[tap_node])
        if express_draws[bi] < params.express_fraction:
            root = min(block)
            parent[root] = EXPRESS
        else:
            parent[root] = tap_node
        owner_sub[np.array(block)] = owner
        visited = {root}
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in sorted(side_adj.get(u, [])):
                if v not in visited:
                    visited.add(v)
                    parent[v] = u
                    queue.append(v)

    # -- components ------------------------------------------------------------
    comp_lines = []  # (id, kind, x, y)
    comp_xy: dict[str, tuple[float, float]] = {}
    edge_lines = []  # (a, b)

    def add_component(cid: str, kind: str, x: float, y: float) -> None:
        comp_lines.append((cid, kind, x, y))
        comp_xy[cid] = (x, y)

    plant_id = "GEN0"
    add_component(plant_id, "plant", *coord(0, 0))

    sub_ids: dict[tuple[int, int], str] = {}
    for i, cell in enumerate(sub_cells):
        sid = f"SUB{i}"
        sub_ids[cell] = sid
        add_component(sid, "substation", *coord(*cell))

    # Transmission chain plant -> each substation along row 0 then up the column.
    tower_n = 0
    line_n = 0
    for i, (sr, sc) in enumerate(sub_cells):
        path = [(0, c) for c in range(0, sc + 1)]
        path += [(r, sc) for r in range(1, sr + 1)]
        anchors = [plant_id]
        step = max(params.arterial_every, 1)
        for j in range(step, len(path) - 1, step):
            tid = f"TW{tower_n}"
            tower_n += 1
            add_component(tid, "tower", *coord(*path[j]))
            anchors.append(tid)
        anchors.append(sub_ids[(sr, sc)])
        for a, b in zip(anchors, anchors[1:]):
            lid = f"TL{line_n}"
            line_n += 1
            ax, ay = comp_xy[a]
            bx, by = comp_xy[b]
            add_component(lid, "line", (ax + bx) / 2.0, (ay + by) / 2.0)
            edge_lines.append((a, lid))
            edge_lines.append((lid, b))

    # -- households over intersections ----------------------------------------
    weights = np.ones(n_nodes)
    for nid, (r, c) in enumerate(node_list):
        if is_arterial_row(r) or is_arterial_col(c):
            weights[nid] = params.arterial_household_weight
    hh_counts = rng.multinomial(params.households, weights / weights.sum())
    jitter = rng.uniform(-0.3 * sp, 0.3 * sp, size=(params.households, 2))

    # -- pole runs: poles in series along the street, one per cluster ----------
    # Busy intersections get several pole segments chained one after another;
    # downstream blocks hang off the last pole of the run, so the whole run
    # lies on the through-path.
    poles_at: dict[int, list[str]] = {}
    pole_n = 0
    for nid in range(n_nodes):
        cell = node_list[nid]
        if cell in sub_ids:
            poles_at[nid] = []
            continue
        n_poles = max(1, int(np.ceil(hh_counts[nid] / params.households_per_cluster)))
        x, y = coord(*cell)
        ids = []
        for j in range(n_poles):
            pid = f"PO{pole_n}"
            pole_n += 1
            add_component(pid, "pole", x + 2.0 * j, y + 1.0 * j)
            ids.append(pid)
        poles_at[nid] = ids

    def anchor_of(nid: int) -> str:
        """Junction component that downstream intersections hang from."""
        cell = node_list[nid]
        sid = sub_ids.get(cell)
        return sid if sid is not None else poles_at[nid][-1]

    cond_n = 0

    def add_conductor(upstream: str, downstream: str) -> str:
        nonlocal cond_n
        cid = f"CD{cond_n}"
        cond_n += 1
        ux, uy = comp_xy[upstream]
        dx, dy = comp_xy[downstream]
        add_component(cid, "conductor", (ux + dx) / 2.0, (uy + dy) / 2.0)
        edge_lines.append((upstream, cid))
        edge_lines.append((cid, downstream))
        return cid

    for nid in range(n_nodes):
        ids = poles_at[nid]
        if not ids:
            continue
        up = int(parent[nid])
        if up == EXPRESS:
            upstream = f"SUB{sub_nodes.index(int(owner_sub[nid]))}"
        elif up >= 0:
            upstream = anchor_of(up)
        else:
            raise ConfigError(f"intersection {node_list[nid]} has no feed")
        add_conductor(upstream, ids[0])
        for upstream, downstream in zip(ids, ids[1:]):
            add_conductor(upstream, downstream)

    # -- households tap the pole run at their intersection ----------------------
    hh_lines = []
    hh_n = 0
    for nid in range(n_nodes):
        cnt = int(hh_counts[nid])
        if cnt == 0:
            continue
        cell = node_list[nid]
        ids = poles_at[nid] or [sub_ids[cell]]
        x, y = coord(*cell)
        for j in range(cnt):
            hx = x + jitter[hh_n, 0]
            hy = y + jitter[hh_n, 1]
            attach = ids[min(j // params.households_per_cluster, len(ids) - 1)]
            hh_lines.append((f"HH{hh_n}", hx, hy, attach))
            hh_n += 1

    # -- traffic lights, preferring arterial intersections ---------------------
    n_lights = int(round(params.lights_fraction * n_nodes))
    preferred = [
        node_pos[(r, c)]
        for r in range(side)
        for c in range(side)
        if is_arterial_row(r) or is_arterial_col(c)
    ]
    other_nodes = sorted(set(range(n_nodes)) - set(preferred))
    chosen: list[int] = []
    if n_lights <= len(preferred):
        pick = rng.choice(len(preferred), size=n_lights, replace=False)
        chosen = [preferred[i] for i in sorted(pick)]
    else:
        chosen = list(preferred)
        extra = n_lights - len(preferred)
        pick = rng.choice(len(other_nodes), size=extra, replace=False)
        chosen += [other_nodes[i] for i in sorted(pick)]
    light_lines = []
    for i, nid in enumerate(chosen):
        cell = node_list[nid]
        light_lines.append((f"SG{i}", _node_name(*cell), anchor_of(nid)))

    # -- write files ------------------------------------------------------------
    power_path = out / "power.txt"
    with open(power_path, "w") as fh:
        fh.write("# power network components and grid edges\n")
        fh.write("# component <id> <kind> <x_m> <y_m>\n")
        for cid, kind, x, y in comp_lines:
            fh.write(f"component {cid} {kind} {x:.3f} {y:.3f}\n")
        fh.write("# edge <id_a> <id_b>\n")
        for a, b in edge_lines:
            fh.write(f"edge {a} {b}\n")

    road_path = out / "roads.txt"
    with open(road_path, "w") as fh:
        fh.write("# road network: intersections and links\n")
        fh.write("# intersection <id> <x_m> <y_m>\n")
        for r, c in node_list:
            x, y = coord(r, c)
            fh.write(f"intersection {_node_name(r, c)} {x:.3f} {y:.3f}\n")
        fh.write("# link <id> <a> <b> <length_m>\n")
        for lid, a, b, length, _ in links:
            fh.write(
                f"link {lid} {_node_name(*a)} {_node_name(*b)} {length:.3f}\n"
            )

    coupling_path = out / "couplings.txt"
    with open(coupling_path, "w") as fh:
        fh.write("# household <id> <x_m> <y_m> <component>\n")
        for hid, x, y, attach in hh_lines:
            fh.write(f"household {hid} {x:.3f} {y:.3f} {attach}\n")
        fh.write("# light <id> <intersection> <component>\n")
        for lid, inter, feed in light_lines:
            fh.write(f"light {lid} {inter} {feed}\n")
        fh.write("# fuel <plant> <intersection>\n")
        fh.write(f"fuel {plant_id} {_node_name(g, g)}\n")

    scenario_path = out / "scenario.json"
    scenario = {
        "wind_mph": params.wind_mph,
        "runoff_in": params.runoff_in,
        "drainage_in_per_hr": 0.65,
        "passable_threshold_in": 2.0,
        "fuel_dependence": True,
        "crew_access_dependence": True,
        # Hardened-substation curve medians for this territory (the package
        # defaults assume lighter construction).
        "substation_fragility": {
            "moderate": [160.0, 0.2],
            "severe": [200.0, 0.2],
            "complete": [250.0, 0.2],
        },
    }
    with open(scenario_path, "w") as fh:
        json.dump(scenario, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return {
        "power": power_path,
        "roads": road_path,
        "couplings": coupling_path,
        "scenario": scenario_path,
    }

"""Independent reference implementations kept deliberately naive.

These run before and beside the package code: the network files split line
by line on whitespace, plain-python breadth-first
reachability for connectivity, the breadth-first forest over neighbour lists,
high-precision curve evaluation through mpmath for the fragility formulas,
the failure draw walked one component at a time over the package's scalar
curves, restoration orderings restated with Python ``sorted`` over
single-source road distances, the scheduling walk restated over ids, and
the closed form for the hour a flooded link reopens. They share no code
with the package beyond the network index they take as input, and the
scalar wind lookup and curves of the failure draw. The nearest road link
scanned link by link, the chunked brute-force scan over every midpoint and
the scalar crew road node here are the references for the package's
vectorised ones. The percentile bootstrap below is the
statistic the acceptance criteria use to compare strategies; the package
needs no bootstrap of its own.

The hourly replication is the exception: it composes the package's own
layer functions, but visits every hour and decides when a run is frozen by
its own rule, as the engine did before it stepped from event to event.
"""

import math
from collections import Counter, deque

import mpmath as mp
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from stormgrid import engine
from stormgrid.errors import ConfigError, SimulationCapError
from stormgrid.fragility import failure_probability, p_fail_substation
from stormgrid.hazard import wind_at
from stormgrid.network import ComponentKind, DamageLevel
from stormgrid.restoration import JobTable, complete_due_jobs, start_pending_jobs

mp.mp.dps = 40


def naive_network_records(power, roads, couplings):
    """The records of the three network files as plain tuples, in file order.

    Each line is cut at its first ``#`` and split on whitespace; its first
    word names the record and the rest are its fields in the README's column
    order, with coordinates and lengths read by ``float``.
    """
    rows = {}
    for path in (power, roads, couplings):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                words = line.split("#")[0].split()
                if words:
                    rows.setdefault(words[0], []).append(words[1:])
    return {
        "components": [
            (cid, kind, float(x), float(y)) for cid, kind, x, y in rows.get("component", [])
        ],
        "edges": [(a, b) for a, b in rows.get("edge", [])],
        "intersections": [(nid, float(x), float(y)) for nid, x, y in rows.get("intersection", [])],
        "links": [(lid, a, b, float(length)) for lid, a, b, length in rows.get("link", [])],
        "households": [
            (hid, float(x), float(y), comp) for hid, x, y, comp in rows.get("household", [])
        ],
        "lights": [tuple(r) for r in rows.get("light", [])],
        "fuel": [tuple(r) for r in rows.get("fuel", [])],
    }


def bfs_powered(components, edges, plants, conducting):
    """Set of component ids reachable from a conducting plant.

    ``conducting`` maps id -> bool; blocked nodes do not relay. Adjacency is
    rebuilt from the raw edge list on every call.
    """
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = set()
    queue = deque(p for p in plants if conducting.get(p, False))
    seen.update(queue)
    while queue:
        u = queue.popleft()
        for v in adj.get(u, []):
            if v not in seen and conducting.get(v, False):
                seen.add(v)
                queue.append(v)
    return seen


def reference_forest(net):
    """Breadth-first forest rooted at the plants, over neighbour lists.

    Positions follow ``net.components``. Plants are visited in position
    order and each component's neighbours in position order, duplicates and
    self-loops included. Returns per component its parent (-1 for plants
    and unreached components), nearest substation ancestor or itself (-1
    if none) and whether a plant reaches it, and whether the grid is radial:
    the edges among reached components, counted with repeats, are exactly
    the forest edges.
    """
    ids = list(net.components)
    pos = {cid: i for i, cid in enumerate(ids)}
    neighbors = [[] for _ in ids]
    for a, b in net.edges:
        neighbors[pos[a]].append(pos[b])
        neighbors[pos[b]].append(pos[a])
    for lst in neighbors:
        lst.sort()
    parent = [-1] * len(ids)
    seen = [False] * len(ids)
    order = sorted(pos[p] for p in net.plants)
    for p in order:
        seen[p] = True
    for u in order:  # the visit order grows as it is walked: it is the queue
        for v in neighbors[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    is_sub = [c.kind is ComponentKind.SUBSTATION for c in net.components.values()]
    sub = [i if is_sub[i] else -1 for i in range(len(ids))]
    for u in order:
        if not is_sub[u] and parent[u] >= 0:
            sub[u] = sub[parent[u]]
    forest = Counter(frozenset((v, p)) for v, p in enumerate(parent) if p >= 0)
    in_reach = Counter(
        frozenset((pos[a], pos[b])) for a, b in net.edges if seen[pos[a]]
    )
    return parent, sub, seen, in_reach == forest


def mp_tower(x):
    return min(mp.mpf("2e-7") * mp.e ** (mp.mpf("0.0834") * x), mp.mpf(1))


def mp_pole(x):
    return min(mp.mpf("1e-4") * mp.e ** (mp.mpf("0.0421") * x), mp.mpf(1))


def mp_conductor(x):
    if x == 0:
        return mp.mpf(0)
    return min(mp.mpf("8e-12") * mp.mpf(x) ** mp.mpf("5.1731"), mp.mpf(1))


def mp_line(x, w_critical, w_collapse):
    x, wc, wo = mp.mpf(x), mp.mpf(w_critical), mp.mpf(w_collapse)
    if x < wc:
        return mp.mpf("0.01")
    if x > wo:
        return mp.mpf(1)
    return mp.mpf("0.01") + (1 - mp.mpf("0.01")) * (x - wc) / (wo - wc)


def mp_lognormal_cdf(x, median, sigma):
    if x <= 0:
        return mp.mpf(0)
    return mp.ncdf((mp.log(x) - mp.log(median)) / mp.mpf(sigma))


def path_to_root(idx, c):
    """Positions from ``c`` up its forest parents to, not including, a plant."""
    plants = set(idx.plant_idx.tolist())
    path = []
    while c >= 0 and c not in plants:
        path.append(c)
        c = int(idx.parent[c])
    return path


def reference_failures(net, scenario, config, rng):
    """Failed ids of one draw, walking the components one at a time.

    Sets every substation's ``damage_level`` to the last level, in order of
    severity, whose probability beats the component's uniform.
    """
    comps = list(net.components.values())
    draws = rng.random(len(comps))
    failed = []
    for comp, r in zip(comps, draws):
        if comp.kind is ComponentKind.PLANT:
            continue
        x = wind_at(scenario, comp.location)
        if comp.kind is ComponentKind.SUBSTATION:
            probs = p_fail_substation(x, config.substation)
            level = None
            for lv in (DamageLevel.MODERATE, DamageLevel.SEVERE, DamageLevel.COMPLETE):
                if probs[lv] > r:
                    level = lv
            comp.damage_level = level
            if level is not None:
                failed.append(comp.id)
        elif failure_probability(comp.kind, x, config) > r:
            failed.append(comp.id)
    return failed


def nearest_link(component, roads):
    """Id of the road link whose midpoint lies nearest the component.

    Squared Euclidean distance to each link's midpoint, scanned link by link;
    an exact tie goes to the lowest link id.
    """
    cx, cy = component.location
    best = None
    for lid, link in roads.links.items():
        (ax, ay), (bx, by) = (roads.intersections[e] for e in link.endpoints)
        dx, dy = cx - (ax + bx) / 2.0, cy - (ay + by) / 2.0
        key = (dx * dx + dy * dy, lid)
        if best is None or key < best:
            best = key
    return best[1]


def nearest_link_positions_brute(locations, roads):
    """Position in ``roads.link_ids`` of the link with the nearest midpoint,
    per ``(x, y)`` row of ``locations``.

    Every midpoint's squared distance, 512 rows at a time, and the ``argmin``
    over midpoints sorted by link id, so an exact tie goes to the lowest id.
    """
    link_ids = roads.link_ids
    order = sorted(range(len(link_ids)), key=link_ids.__getitem__)
    mids = np.empty((len(link_ids), 2))
    for row, i in enumerate(order):
        link = roads.links[link_ids[i]]
        (x1, y1) = roads.intersections[link.endpoints[0]]
        (x2, y2) = roads.intersections[link.endpoints[1]]
        mids[row] = ((x1 + x2) / 2.0, (y1 + y2) / 2.0)
    nearest = np.empty(len(locations), dtype=np.intp)
    chunk = 512
    for start in range(0, len(locations), chunk):
        block = locations[start : start + chunk]
        d2 = ((block[:, None, :] - mids[None, :, :]) ** 2).sum(axis=2)
        nearest[start : start + chunk] = np.take(order, np.argmin(d2, axis=1))
    return nearest


def component_road_node(component, roads, link=None):
    """Road intersection id where crews reach the component.

    The endpoint of road link ``link`` (by default the component's nearest
    link) that lies closer to the component; ties go to the endpoint with
    the lower intersection id.
    """
    link = roads.links[link or nearest_link(component, roads)]
    a, b = sorted(link.endpoints)
    ax, ay = roads.intersections[a]
    bx, by = roads.intersections[b]
    cx, cy = component.location
    da = (ax - cx) ** 2 + (ay - cy) ** 2
    db = (bx - cx) ** 2 + (by - cy) ** 2
    return a if da <= db else b


def bfs_fuel_reachable(roads, passable, source, target):
    """Is intersection ``target`` reachable from ``source`` over passable links?

    ``passable`` maps link id -> bool.
    """
    adj = {}
    for lid, link in roads.links.items():
        if passable[lid]:
            a, b = link.endpoints
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, []):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return target in seen


_TIER = {
    "substation": "sub",
    "tower": "trans",
    "line": "trans",
    "pole": "dist",
    "conductor": "dist",
}


def road_distances(roads, passable, source):
    """Shortest road distance from intersection ``source`` to each
    intersection id over the links that ``passable`` (a mask over
    ``roads.link_ids``) keeps; the shortest of parallel links counts."""
    nodes = list(roads.intersections)
    pos = {nid: i for i, nid in enumerate(nodes)}
    shortest = {}
    for lid, ok in zip(roads.link_ids, passable):
        if ok:
            a, b = sorted(pos[e] for e in roads.links[lid].endpoints)
            length = roads.links[lid].length_m
            shortest[a, b] = min(length, shortest.get((a, b), math.inf))
    ends = list(shortest)
    graph = csr_matrix(
        (list(shortest.values()), ([a for a, _ in ends], [b for _, b in ends])),
        shape=(len(nodes), len(nodes)),
    )
    dist = dijkstra(graph, directed=False, indices=pos[source])
    return dict(zip(nodes, dist.tolist()))


def reference_order(
    strategy, pending, net, roads, households, passable, rng,
    hh_powered, light_powered,
):
    """Pending ids in repair order under ``strategy`` (its string value).

    Each tier is sorted by ``(key, id)``; component-based keeps transmission
    in network order and shuffles distribution with one
    ``rng.permutation``. ``passable`` is the boolean mask over road links
    used for road distances, each found from one source at a time.
    """
    idx = net.index
    comps = net.components
    node = {}

    def node_of(cid):
        if cid not in node:
            node[cid] = component_road_node(comps[cid], roads)
        return node[cid]

    sub_of = {
        cid: idx.ids[s] if s >= 0 else None
        for cid, s in zip(idx.ids, idx.substation_of)
    }
    lights = list(roads.traffic_lights.values())
    hh_down = Counter(
        sub_of[h.attachment] for h, on in zip(households, hh_powered) if not on
    )
    lights_down = Counter(
        sub_of[tl.feed_component] for tl, on in zip(lights, light_powered) if not on
    )
    feeding = {
        idx.ids[c]
        for tl, on in zip(lights, light_powered)
        if not on
        for c in path_to_root(idx, idx.pos[tl.feed_component])
    }

    pending = set(pending)
    in_net_order = [cid for cid in idx.ids if cid in pending]

    def tier(name, members):
        return [c for c in members if _TIER[comps[c].kind.value] == name]

    def ranked(members, key):
        return sorted(members, key=lambda c: (key(c), c))

    if strategy == "component":
        dist = tier("dist", in_net_order)
        return (
            ranked(tier("sub", in_net_order), lambda c: -hh_down[c])
            + tier("trans", in_net_order)
            + [dist[i] for i in rng.permutation(len(dist))]
        )

    from_plants = [road_distances(roads, passable, node_of(p)) for p in net.plants]
    from_sub = {}

    def to_plant(c):
        return min((d[node_of(c)] for d in from_plants), default=math.inf)

    def to_own_sub(c):
        s = sub_of[c]
        if s is None:
            return math.inf
        if s not in from_sub:
            from_sub[s] = road_distances(roads, passable, node_of(s))
        return from_sub[s][node_of(c)]

    def blocks(members, sub_down):
        return (
            ranked(tier("trans", members), to_plant)
            + ranked(tier("sub", members), lambda c: -sub_down[c])
            + ranked(tier("dist", members), to_own_sub)
        )

    if strategy == "distance":
        return blocks(in_net_order, hh_down)
    first = [c for c in in_net_order if c in feeding]
    rest = [c for c in in_net_order if c not in feeding]
    return blocks(first, lights_down) + blocks(rest, hh_down)


def first_passable_hour(depth_in, scenario):
    """Hour at which a link with the given initial depth becomes passable."""
    excess = depth_in - scenario.passable_threshold_in
    if excess <= 0:
        return 0
    return math.ceil(excess / scenario.drainage_in_per_hr)


def reference_walk(
    order, components, roads, depth_by_link, scenario, crews_by_id, available
):
    """Ids that one scheduling pass starts, in start order.

    ``order`` is the priority list as ids and ``depth_by_link`` maps road
    link ids to this hour's depth. Entries are taken one at a time: a job
    whose nearest road link is flooded is skipped (when crew access depends
    on the roads), and the first accessible job needing more crews than are
    free holds the rest of the list.
    """
    started = []
    for cid in order:
        depth = depth_by_link[nearest_link(components[cid], roads)]
        if scenario.crew_access_dependence and depth > scenario.passable_threshold_in:
            continue
        if crews_by_id[cid] > available:
            break
        available -= crews_by_id[cid]
        started.append(cid)
    return started


def hourly_replication(
    ctx, scenario, fragility, repair_model, teams, seed, strategy, hard_cap
):
    """``engine.run_replication`` as one loop over every hour.

    Hour 0, job completions and link openings schedule; hour 0, completions
    and fuel restorations remeasure service. Once every road link that will
    open has opened and no job runs, nothing changes, so the run raises the
    cap error at once; so it does at the cap itself.
    """
    idx = ctx.index
    ids = idx.ids

    schedule_rng = np.random.default_rng([seed, engine._STREAM_SCHEDULING])

    link_from, plant_from, _ = engine.road_schedule(ctx, scenario, hard_cap)
    roads_settled = int(link_from[link_from <= hard_cap].max(initial=0))

    failed, crews, duration = engine.hour_zero_draw(
        ctx, scenario, fragility, repair_model, teams, seed
    )
    jobs = JobTable(crews, duration, teams)
    pending = crews > 0
    alive = ~pending

    events = [(0, "failed", cid) for cid in failed]
    rows = []
    last_change = 0

    for hour in range(hard_cap + 1):
        completed = complete_due_jobs(jobs, hour)
        alive[completed] = True
        for c in completed.tolist():
            events.append((hour, "repaired", ids[c]))

        passable = link_from <= hour
        n_passable = int(np.count_nonzero(passable))
        opened = bool((link_from == hour).any())
        if completed.size or opened:
            last_change = hour

        restored = idx.plant_idx[plant_from == hour]
        events += [(hour, "fuel_restored", ids[c]) for c in restored.tolist()]

        if hour == 0 or completed.size or restored.size:
            powered = idx.powered_mask(alive, idx.plant_idx[plant_from <= hour])
            hh_powered = powered[ctx.hh_attach]
            light_powered = powered[ctx.light_feed]
            q_hh = float(hh_powered.mean()) if hh_powered.size else 1.0
            q_tl = float(light_powered.mean()) if light_powered.size else 1.0

        if pending.any() and jobs.free > 0 and (
            hour == 0 or completed.size or opened
        ):
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

        n_failed = len(ids) - int(np.count_nonzero(alive))
        rows.append(
            (hour, q_hh, q_tl, n_failed, n_passable, jobs.free,
             int(jobs.crews[jobs.running].sum()))
        )

        if n_failed == 0 and q_hh >= 1.0 and q_tl >= 1.0:
            break
        if hour == hard_cap or (hour >= roads_settled and not jobs.running.size):
            raise SimulationCapError(
                hard_cap,
                {
                    "unrepaired": sorted(ids[c] for c in np.flatnonzero(pending))
                    + sorted(ids[c] for c in jobs.running),
                    "q_households": q_hh,
                    "q_traffic_lights": q_tl,
                    "dark_lights": int(np.count_nonzero(~light_powered)),
                    "unfueled_plants": [
                        ids[c] for c in idx.plant_idx[plant_from > hour].tolist()
                    ],
                    "passable_links": n_passable,
                    "frozen_at": last_change,
                    "strategy": strategy.value,
                    "seed": seed,
                },
            )

    return engine.ReplicationResult(
        seed=seed,
        strategy=strategy,
        records=np.array(rows, dtype=engine.RECORD_DTYPE).view(np.recarray),
        events=events,
        initial_failures=list(failed),
    )


def bootstrap_mean_ci(
    values: np.ndarray,
    confidence: float = 0.95,
    n_boot: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean of ``values``."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise ConfigError("bootstrap needs at least two observations")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(values), size=(n_boot, len(values)))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)

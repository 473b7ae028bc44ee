"""Independent reference implementations kept deliberately naive.

These run before and beside the package code: plain-python breadth-first
reachability for connectivity, high-precision curve evaluation through
mpmath for the fragility formulas, restoration orderings restated with
Python ``sorted``, the scheduling walk restated over ids, and the closed
form for the hour a flooded link reopens. They share no code with the
package beyond the network index and the road distance query they take as
inputs. The scalar crew road node here is the reference for the package's
vectorised one. The percentile bootstrap below is the statistic
the acceptance criteria use to compare strategies; the package needs no
bootstrap of its own.
"""

import math
from collections import Counter, deque

import mpmath as mp
import numpy as np

from stormgrid.errors import ConfigError

mp.mp.dps = 40


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


def component_road_node(component, roads):
    """Road intersection id where crews reach the component.

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


def reference_order(
    strategy, pending, net, roads, households, road_index, passable, rng,
    hh_powered, light_powered,
):
    """Pending ids in repair order under ``strategy`` (its string value).

    Each tier is sorted by ``(key, id)``; component-based keeps transmission
    in network order and shuffles distribution with one
    ``rng.permutation``. ``passable`` is the boolean mask over road links
    used for road distances.
    """
    idx = net.index
    comps = net.components
    node = {
        cid: road_index.pos[component_road_node(comps[cid], roads)] for cid in idx.ids
    }
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
        for c in idx.path_to_root(idx.pos[tl.feed_component])
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

    to_plant = road_index.distances_from(
        sorted({node[p] for p in net.plants}), passable
    )
    from_sub = {}

    def to_own_sub(c):
        s = sub_of[c]
        if s is None:
            return float("inf")
        if s not in from_sub:
            from_sub[s] = road_index.distances_from([node[s]], passable)
        return from_sub[s][node[c]]

    def blocks(members, sub_down):
        return (
            ranked(tier("trans", members), lambda c: to_plant[node[c]])
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


def reference_walk(order, components, depth_by_link, scenario, crews_by_id, available):
    """Ids that one scheduling pass starts, in start order.

    ``order`` is the priority list as ids and ``depth_by_link`` maps road
    link ids to this hour's depth. Entries are taken one at a time: a job
    whose nearest road link is flooded is skipped (when crew access depends
    on the roads), and the first accessible job needing more crews than are
    free holds the rest of the list.
    """
    started = []
    for cid in order:
        depth = depth_by_link[components[cid].nearest_road_link]
        if scenario.crew_access_dependence and depth > scenario.passable_threshold_in:
            continue
        if crews_by_id[cid] > available:
            break
        available -= crews_by_id[cid]
        started.append(cid)
    return started


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

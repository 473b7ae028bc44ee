"""Crew access, crew road nodes and fuel reachability on the road links."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from stormgrid.coupling import (
    RoadIndex,
    component_accessible,
    crew_road_nodes,
    fuel_reachable,
    resolve_fuel_nodes,
)
from stormgrid.engine import SimulationContext, road_schedule, run_replication
from stormgrid.fragility import FragilityConfig, RepairModel
from stormgrid.hazard import HazardScenario, drain_step, initial_flood, passable_mask
from stormgrid.metrics import full_restoration_hour
from stormgrid.network import load_networks
from stormgrid.restoration import Strategy
from stormgrid.testbed import TestbedParams, generate_testbed

from .conftest import make_power, make_roads
from .oracles import bfs_fuel_reachable, component_road_node, road_distances


def grid_roads(n=4, spacing=100.0):
    """n x n grid of intersections."""
    intersections = {
        f"N{r}_{c}": (c * spacing, r * spacing) for r in range(n) for c in range(n)
    }
    links = []
    for r in range(n):
        for c in range(n - 1):
            links.append((f"H{r}_{c}", f"N{r}_{c}", f"N{r}_{c+1}", spacing))
    for r in range(n - 1):
        for c in range(n):
            links.append((f"V{r}_{c}", f"N{r}_{c}", f"N{r+1}_{c}", spacing))
    return make_roads(intersections, links)


class Fuel:
    """Fuel reachability of every plant of ``net`` under one scenario."""

    def __init__(self, net, roads, sc):
        self.ctx = SimulationContext(net, roads, [])
        self.sc = sc
        self.fuel_node = resolve_fuel_nodes(
            net, sc, self.ctx.road_index, self.ctx.plant_node
        )

    def reachable(self, passable):
        return fuel_reachable(
            self.ctx.road_index, self.fuel_node, self.ctx.plant_node, passable,
            self.sc,
        )

    def __call__(self, flood):
        return self.reachable(passable_mask(flood, self.sc))


def fuel_ok(net, roads, flood, sc):
    """Is the single plant fueled under the flood depths ``flood``?"""
    return bool(Fuel(net, roads, sc)(flood)[0])


def plant_with_roads(fuel_node="N3_3"):
    roads = grid_roads()
    net, _ = make_power([("P", "plant", 0, 0)], [], fuel={"P": fuel_node})
    return net, roads


class TestComponentAccessible:
    def _link(self):
        roads = grid_roads()
        return roads, roads.link_ids.index("H0_0")

    def test_toggle_off_always_accessible(self):
        roads, link = self._link()
        sc = HazardScenario(initial_runoff_in=26.0, crew_access_dependence=False)
        passable = passable_mask(initial_flood(sc, roads.link_ids), sc)
        assert component_accessible(link, passable, sc) is True

    def test_flooded_link_blocks(self):
        roads, link = self._link()
        sc = HazardScenario(initial_runoff_in=5.0)
        passable = passable_mask(initial_flood(sc, roads.link_ids), sc)
        assert component_accessible(link, passable, sc) is False

    def test_first_accessible_hour_17(self):
        roads, link = self._link()
        sc = HazardScenario(initial_runoff_in=13.0)
        flood = initial_flood(sc, roads.link_ids)
        hour = 0
        while not component_accessible(link, passable_mask(flood, sc), sc):
            flood = drain_step(flood, sc)
            hour += 1
        assert hour == 17


class TestFuelRoute:
    def test_dry_roads_available(self):
        net, roads = plant_with_roads()
        sc = HazardScenario(initial_runoff_in=0.0)
        assert fuel_ok(net, roads, initial_flood(sc, roads.link_ids), sc)

    def test_flooded_roads_blocked(self):
        net, roads = plant_with_roads()
        sc = HazardScenario(initial_runoff_in=26.0)
        assert not fuel_ok(net, roads, initial_flood(sc, roads.link_ids), sc)

    def test_toggle_off_always_available(self, monkeypatch):
        net, roads = plant_with_roads()
        sc = HazardScenario(initial_runoff_in=26.0, fuel_dependence=False)
        monkeypatch.setattr(
            RoadIndex, "labels_for", lambda *a: pytest.fail("labels_for called")
        )
        assert fuel_ok(net, roads, initial_flood(sc, roads.link_ids), sc)

    def test_route_opens_at_hour_16_for_12_inch_flood(self):
        net, roads = plant_with_roads()
        sc = HazardScenario(initial_runoff_in=12.0)
        flood = initial_flood(sc, roads.link_ids)
        fueled = Fuel(net, roads, sc)
        hour = 0
        while not fueled(flood).all():
            flood = drain_step(flood, sc)
            hour += 1
            assert hour < 100
        assert hour == 16

    def test_partial_drain_uses_any_path(self):
        # only a roundabout route is passable; reachability must find it
        net, roads = plant_with_roads(fuel_node="N0_3")
        sc = HazardScenario(
            initial_runoff_in={"H0_0": 9.0, "H0_1": 9.0, "H0_2": 9.0},
            runoff_default_in=0.0,
        )
        assert fuel_ok(net, roads, initial_flood(sc, roads.link_ids), sc)

    def test_island_plant_blocked_even_dry(self):
        roads = make_roads(
            {"A": (0, 0), "B": (100, 0), "C": (500, 0), "D": (600, 0)},
            [("L1", "A", "B", 100), ("L2", "C", "D", 100)],
        )
        net, _ = make_power([("P", "plant", 0, 0)], [], fuel={"P": "C"})
        sc = HazardScenario(initial_runoff_in=0.0)
        assert not fuel_ok(net, roads, initial_flood(sc, roads.link_ids), sc)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=24, max_size=24),
        st.lists(
            st.tuples(
                st.integers(0, 300), st.integers(0, 300),
                st.one_of(st.none(), st.integers(0, 15)),
            ),
            min_size=1, max_size=4,
        ),
    )
    def test_matches_bfs_over_passable_links(self, open_links, plants):
        roads = grid_roads()
        nodes = list(roads.intersections)
        net, _ = make_power(
            [(f"P{i}", "plant", x, y) for i, (x, y, _) in enumerate(plants)], [],
            fuel={f"P{i}": nodes[f] for i, (_, _, f) in enumerate(plants)
                  if f is not None},
        )
        fuel = Fuel(net, roads, HazardScenario())
        reachable = fuel.reachable(np.array(open_links))
        by_id = dict(zip(roads.link_ids, open_links))
        for p, plant in enumerate(net.plants):
            target = component_road_node(net.components[plant], roads)
            source = net.fuel_source.get(plant, target)
            assert nodes[fuel.fuel_node[p]] == source
            assert reachable[p] == bfs_fuel_reachable(roads, by_id, source, target)


class TestPlantOperational:
    def test_mirrors_fuel_route(self):
        # the engine runs the plant exactly in the hours the fuel route is open
        roads = grid_roads()
        net, hh = make_power(
            [("P", "plant", 0, 0), ("D", "pole", 10, 0)], [("P", "D")],
            households=["D"], fuel={"P": "N3_3"},
        )
        sc = HazardScenario(wind_mph=0.0, initial_runoff_in=12.0)
        res = run_replication(
            SimulationContext(net, roads, hh), sc, FragilityConfig(), RepairModel(),
            teams=1, seed=0, strategy=Strategy.DISTANCE_BASED,
        )
        assert res.initial_failures == []
        assert full_restoration_hour(res.records.q_households) == 16
        assert res.events == [(16, "fuel_restored", "P")]
        fueled = Fuel(net, roads, sc)
        flood = initial_flood(sc, roads.link_ids)
        for q in res.records.q_households.tolist():
            assert (q == 1.0) is bool(fueled(flood)[0])
            assert q in (0.0, 1.0)
            flood = drain_step(flood, sc)

    def test_monotone_over_drainage(self):
        net, roads = plant_with_roads()
        sc = HazardScenario(initial_runoff_in=8.0)
        flood = initial_flood(sc, roads.link_ids)
        fueled = Fuel(net, roads, sc)
        was_ok = False
        for _ in range(30):
            ok = bool(fueled(flood)[0])
            assert ok or not was_ok
            was_ok = ok
            flood = drain_step(flood, sc)
        assert was_ok


def reference_schedule(net, roads, sc, hard_cap):
    """First passable hour per link and first fueled hour per plant, found
    by stepping the flood one hour at a time and asking the BFS oracle."""
    never = hard_cap + 1
    link_from = dict.fromkeys(roads.link_ids, never)
    plant_from = dict.fromkeys(net.plants, never)
    flood = initial_flood(sc, roads.link_ids)
    for hour in range(hard_cap + 1):
        if hour > 0:
            flood = drain_step(flood, sc)
        by_id = dict(zip(roads.link_ids, passable_mask(flood, sc).tolist()))
        for lid, ok in by_id.items():
            if ok and link_from[lid] == never:
                link_from[lid] = hour
        for plant in net.plants:
            target = component_road_node(net.components[plant], roads)
            source = net.fuel_source.get(plant, target)
            fueled = not sc.fuel_dependence or bfs_fuel_reachable(
                roads, by_id, source, target
            )
            if fueled and plant_from[plant] == never:
                plant_from[plant] = hour
    return list(link_from.values()), list(plant_from.values())


class TestRoadSchedule:
    @settings(max_examples=100, deadline=None)
    @given(
        st.data(),
        st.sampled_from([0.25, 0.5, 0.65, 1.0]),
        st.sampled_from([0.0, 2.0]),
        st.integers(0, 40),
        st.booleans(),
        st.lists(
            st.tuples(
                st.integers(0, 300), st.integers(0, 300),
                st.one_of(st.none(), st.integers(0, 17)),
            ),
            min_size=1, max_size=3,
        ),
    )
    def test_matches_hourly_reference(
        self, data, drainage, threshold, hard_cap, fuel_dependence, plants
    ):
        # a 4 x 4 grid plus one link on an island no grid road reaches;
        # fuel node 16 or 17 puts a plant's fuel source on the island
        grid = grid_roads()
        roads = make_roads(
            {**grid.intersections, "ISL_A": (900, 0), "ISL_B": (1000, 0)},
            [(lk.id, *lk.endpoints, lk.length_m) for lk in grid.links.values()]
            + [("ISL", "ISL_A", "ISL_B", 100)],
        )
        nodes = list(roads.intersections)
        net, _ = make_power(
            [(f"P{i}", "plant", x, y) for i, (x, y, _) in enumerate(plants)], [],
            fuel={f"P{i}": nodes[f] for i, (_, _, f) in enumerate(plants)
                  if f is not None},
        )
        # whole drain steps above the threshold land on it exactly for the
        # binary-exact drainage rates; the cap's own step count, a few units
        # in the last place either side, just meets or just misses the cap
        def near_cap(steps_ulps):
            steps, ulps = steps_ulps
            d = threshold + (hard_cap + steps) * drainage
            return max(0.0, d + ulps * float(np.spacing(d)))

        depth = st.one_of(
            st.floats(0.0, 30.0),
            st.integers(0, 60).map(lambda k: threshold + k * drainage),
            st.tuples(st.integers(-1, 2), st.integers(-3, 3)).map(near_cap),
            st.floats(30.0, 1e6),
        )
        runoff = {lid: data.draw(depth) for lid in roads.link_ids}
        sc = HazardScenario(
            initial_runoff_in=runoff,
            drainage_in_per_hr=drainage,
            passable_threshold_in=threshold,
            fuel_dependence=fuel_dependence,
        )
        ctx = SimulationContext(net, roads, [])
        link_from, plant_from, opens = road_schedule(ctx, sc, hard_cap)
        assert (link_from.tolist(), plant_from.tolist()) == reference_schedule(
            net, roads, sc, hard_cap
        )
        assert opens.tolist() == sorted({h for h in link_from.tolist() if h <= hard_cap})


def crew_nodes(comps, roads, links):
    """:func:`crew_road_nodes` over ``comps``, reached through the road
    link ids ``links``, as intersection ids."""
    index = RoadIndex(roads)
    comp_link = np.array([roads.link_ids.index(lid) for lid in links], dtype=np.intp)
    locations = np.array([c.location for c in comps], dtype=float)
    return [index.node_ids[n] for n in crew_road_nodes(index, comp_link, locations)]


class TestRoadNodes:
    def test_component_road_node_nearer_endpoint(self):
        roads = grid_roads()
        net, _ = make_power(
            [("X", "pole", 10, 0), ("Y", "pole", 90, 0), ("Z", "pole", 50, 7)], []
        )
        comps = list(net.components.values())
        links = ["H0_0"] * 3  # N0_0 (0,0) to N0_1 (100,0)
        # Z sits on the perpendicular bisector: the tie goes to the lower id
        assert crew_nodes(comps, roads, links) == ["N0_0", "N0_1", "N0_0"]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_scalar_reference_with_forced_ties(self, data):
        # Integer intersections with shuffled ids, so id order and position
        # order differ; half the components sit on the perpendicular
        # bisector of their link, where both endpoints are equally near.
        n = data.draw(st.integers(2, 8))
        coords = data.draw(
            st.lists(
                st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                min_size=n, max_size=n, unique=True,
            )
        )
        names = data.draw(st.permutations([f"I{k}" for k in range(n)]))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda ab: ab[0] != ab[1]
                ),
                min_size=1, max_size=10,
            )
        )
        roads = make_roads(
            dict(zip(names, coords)),
            [(f"L{k}", names[a], names[b], 1.0) for k, (a, b) in enumerate(pairs)],
        )
        specs = []
        for k in range(data.draw(st.integers(1, 12))):
            link = data.draw(st.integers(0, len(pairs) - 1))
            (ax, ay), (bx, by) = (coords[i] for i in pairs[link])
            if data.draw(st.booleans()):
                t = data.draw(st.integers(-4, 4)) / 2
                x, y = (ax + bx) / 2 - t * (by - ay), (ay + by) / 2 + t * (bx - ax)
            else:
                x, y = data.draw(st.integers(-30, 30)), data.draw(st.integers(-30, 30))
            specs.append((f"C{k}", "pole", x, y, f"L{link}"))
        net, _ = make_power([s[:4] for s in specs], [])
        comps = list(net.components.values())
        links = [spec[4] for spec in specs]
        assert crew_nodes(comps, roads, links) == [
            component_road_node(c, roads, link) for c, link in zip(comps, links)
        ]

    def test_default_testbed_matches_scalar_reference(self, tmp_path):
        files = generate_testbed(TestbedParams(), tmp_path)
        net, roads, households = load_networks(
            files["power"], files["roads"], files["couplings"]
        )
        ctx = SimulationContext(net, roads, households)
        # the links are the package's; test_network checks them against
        # the oracle's nearest link
        want = [
            ctx.road_index.pos[
                component_road_node(net.components[cid], roads, roads.link_ids[link])
            ]
            for cid, link in zip(net.index.ids, ctx.comp_link.tolist())
        ]
        assert ctx.comp_node.tolist() == want

    def test_fuel_coords_override(self):
        net, roads = plant_with_roads(fuel_node="N0_1")
        sc = HazardScenario(fuel_source_coords={"P": (310.0, 290.0)})
        fuel = Fuel(net, roads, sc)
        assert fuel.ctx.road_index.node_ids[fuel.fuel_node[0]] == "N3_3"

    def test_fuel_defaults_to_coupling_record(self):
        net, roads = plant_with_roads(fuel_node="N0_1")
        fuel = Fuel(net, roads, HazardScenario())
        assert fuel.ctx.road_index.node_ids[fuel.fuel_node[0]] == "N0_1"

    def test_fuel_falls_back_to_plant_node(self):
        roads = grid_roads()
        net, _ = make_power([("P", "plant", 0, 0)], [])
        fuel = Fuel(net, roads, HazardScenario())
        assert fuel.fuel_node.tolist() == fuel.ctx.plant_node.tolist()
        node = component_road_node(net.components["P"], roads)
        assert fuel.ctx.road_index.node_ids[fuel.fuel_node[0]] == node


class TestRoadDistances:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=24, max_size=24),
        st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)),
                 min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)), max_size=3),
    )
    def test_one_call_per_passable_set(self, open_links, plants, subs):
        # plants, then substations each feeding one pole
        roads = grid_roads()
        comps = [(f"P{i}", "plant", x, y) for i, (x, y) in enumerate(plants)]
        edges = []
        for i, (x, y) in enumerate(subs):
            comps += [(f"S{i}", "substation", x, y), (f"D{i}", "pole", y, x)]
            edges += [("P0", f"S{i}"), (f"S{i}", f"D{i}")]
        net, _ = make_power(comps, edges)
        ctx = SimulationContext(net, roads, [])
        rix, prio = ctx.road_index, ctx.prioritizer
        passable = np.array(open_links)

        rows = rix.distances_from(prio.sources, passable)
        assert rows.shape == (len(prio.sources), rix.n_nodes())
        for source, row in zip(prio.sources, rows):
            np.testing.assert_array_equal(row, rix.distances_from([source], passable)[0])

        to_plant, to_sub = prio._distances(passable)
        plant_nodes = sorted(set(ctx.plant_node.tolist()))
        np.testing.assert_array_equal(
            to_plant,
            dijkstra(rix.subgraph(passable), directed=False, indices=plant_nodes,
                     min_only=True)[ctx.comp_node],
        )
        sub_of = net.index.substation_of
        for c, s in enumerate(sub_of.tolist()):
            want = np.inf
            if s >= 0:
                want = rix.distances_from([ctx.comp_node[s]], passable)[0][ctx.comp_node[c]]
            assert to_sub[c] == want

    @pytest.mark.parametrize(
        "open_links, want", [((1, 1), 100.0), ((0, 1), 120.0), ((1, 0), 100.0)]
    )
    def test_parallel_links_take_the_shortest(self, open_links, want):
        # two links between the same intersections, listed in both directions
        roads = make_roads(
            {"A": (0, 0), "B": (100, 0)},
            [("SHORT", "A", "B", 100), ("LONG", "B", "A", 120)],
        )
        rix = RoadIndex(roads)
        passable = np.array(open_links, dtype=bool)
        got = rix.distances_from([rix.pos["A"]], passable)[0]
        assert got.tolist() == [0.0, want]
        assert dict(zip(rix.node_ids, got.tolist())) == road_distances(
            roads, passable, "A"
        )
        assert rix.labels_for(passable).tolist() == [0, 0]

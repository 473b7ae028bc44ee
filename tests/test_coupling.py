"""Crew access, crew road nodes and fuel reachability on the road links."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormgrid.coupling import (
    RoadIndex,
    component_accessible,
    crew_road_nodes,
    fuel_reachable,
    resolve_fuel_nodes,
)
from stormgrid.engine import SimulationContext, run_replication
from stormgrid.fragility import FragilityConfig, RepairModel
from stormgrid.hazard import HazardScenario, drain_step, initial_flood, passable_mask
from stormgrid.metrics import full_restoration_hour
from stormgrid.network import assign_nearest_road_links, load_networks
from stormgrid.restoration import Strategy
from stormgrid.testbed import TestbedParams, generate_testbed

from .conftest import make_power, make_roads
from .oracles import bfs_fuel_reachable, component_road_node


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
    assign_nearest_road_links(net.components, roads)
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
        assign_nearest_road_links(net.components, roads)
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
        assign_nearest_road_links(net.components, roads)
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
        assign_nearest_road_links(net.components, roads)
        sc = HazardScenario(wind_mph=0.0, initial_runoff_in=12.0)
        res = run_replication(
            net, roads, hh, sc, FragilityConfig(), RepairModel(),
            Strategy.DISTANCE_BASED, teams=1, seed=0,
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


def crew_nodes(comps, roads):
    """:func:`crew_road_nodes` over ``comps`` as intersection ids."""
    index = RoadIndex(roads)
    link_pos = {lid: i for i, lid in enumerate(roads.link_ids)}
    comp_link = np.array([link_pos[c.nearest_road_link] for c in comps], dtype=np.intp)
    locations = np.array([c.location for c in comps], dtype=float)
    return [index.node_ids[n] for n in crew_road_nodes(index, comp_link, locations)]


class TestRoadNodes:
    def test_component_road_node_nearer_endpoint(self):
        roads = grid_roads()
        net, _ = make_power(
            [("X", "pole", 10, 0), ("Y", "pole", 90, 0), ("Z", "pole", 50, 7)], []
        )
        comps = list(net.components.values())
        for comp in comps:
            comp.nearest_road_link = "H0_0"  # N0_0 (0,0) to N0_1 (100,0)
        # Z sits on the perpendicular bisector: the tie goes to the lower id
        assert crew_nodes(comps, roads) == ["N0_0", "N0_1", "N0_0"]

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
        for comp, spec in zip(comps, specs):
            comp.nearest_road_link = spec[4]
        assert crew_nodes(comps, roads) == [
            component_road_node(c, roads) for c in comps
        ]

    def test_default_testbed_matches_scalar_reference(self, tmp_path):
        files = generate_testbed(TestbedParams(), tmp_path)
        net, roads, households = load_networks(
            files["power"], files["roads"], files["couplings"]
        )
        ctx = SimulationContext(net, roads, households)
        want = [
            ctx.road_index.pos[component_road_node(net.components[cid], roads)]
            for cid in net.index.ids
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
        assign_nearest_road_links(net.components, roads)
        fuel = Fuel(net, roads, HazardScenario())
        assert fuel.fuel_node.tolist() == fuel.ctx.plant_node.tolist()
        node = component_road_node(net.components["P"], roads)
        assert fuel.ctx.road_index.node_ids[fuel.fuel_node[0]] == node

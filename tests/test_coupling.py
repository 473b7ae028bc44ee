"""Crew access and fuel-route predicates against the passable road links."""

from stormgrid.coupling import (
    RoadIndex,
    component_accessible,
    component_road_node,
    fuel_route_available,
    resolve_fuel_nodes,
)
from stormgrid.engine import run_replication
from stormgrid.fragility import FragilityConfig, RepairModel
from stormgrid.hazard import HazardScenario, drain_step, initial_flood, passable_mask
from stormgrid.metrics import full_restoration_hour
from stormgrid.network import assign_nearest_road_links
from stormgrid.restoration import Strategy

from .conftest import make_power, make_roads


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


def fuel_ok(plant, net, roads, flood, sc, index=None):
    """:func:`fuel_route_available` under the flood depths ``flood``."""
    return fuel_route_available(plant, net, roads, passable_mask(flood, sc), sc, index)


def plant_with_roads(fuel_node="N3_3"):
    roads = grid_roads()
    net, _ = make_power([("P", "plant", 0, 0)], [], fuel={"P": fuel_node})
    from stormgrid.network import assign_nearest_road_links

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
        flood = initial_flood(sc, roads.link_ids)
        assert fuel_ok(net.components["P"], net, roads, flood, sc)

    def test_flooded_roads_blocked(self):
        net, roads = plant_with_roads()
        sc = HazardScenario(initial_runoff_in=26.0)
        flood = initial_flood(sc, roads.link_ids)
        assert not fuel_ok(net.components["P"], net, roads, flood, sc)

    def test_toggle_off_always_available(self):
        net, roads = plant_with_roads()
        sc = HazardScenario(initial_runoff_in=26.0, fuel_dependence=False)
        flood = initial_flood(sc, roads.link_ids)
        assert fuel_ok(net.components["P"], net, roads, flood, sc)

    def test_route_opens_at_hour_16_for_12_inch_flood(self):
        net, roads = plant_with_roads()
        sc = HazardScenario(initial_runoff_in=12.0)
        flood = initial_flood(sc, roads.link_ids)
        index = RoadIndex(roads)
        plant = net.components["P"]
        hour = 0
        while not fuel_ok(plant, net, roads, flood, sc, index):
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
        flood = initial_flood(sc, roads.link_ids)
        assert fuel_ok(net.components["P"], net, roads, flood, sc)

    def test_island_plant_blocked_even_dry(self):
        roads = make_roads(
            {"A": (0, 0), "B": (100, 0), "C": (500, 0), "D": (600, 0)},
            [("L1", "A", "B", 100), ("L2", "C", "D", 100)],
        )
        net, _ = make_power([("P", "plant", 0, 0)], [], fuel={"P": "C"})
        from stormgrid.network import assign_nearest_road_links

        assign_nearest_road_links(net.components, roads)
        sc = HazardScenario(initial_runoff_in=0.0)
        flood = initial_flood(sc, roads.link_ids)
        assert not fuel_ok(net.components["P"], net, roads, flood, sc)


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
        plant = net.components["P"]
        flood = initial_flood(sc, roads.link_ids)
        for q in res.records.q_households.tolist():
            assert (q == 1.0) is fuel_ok(plant, net, roads, flood, sc)
            assert q in (0.0, 1.0)
            flood = drain_step(flood, sc)

    def test_monotone_over_drainage(self):
        net, roads = plant_with_roads()
        sc = HazardScenario(initial_runoff_in=8.0)
        flood = initial_flood(sc, roads.link_ids)
        plant = net.components["P"]
        was_ok = False
        for _ in range(30):
            ok = fuel_ok(plant, net, roads, flood, sc)
            assert ok or not was_ok
            was_ok = ok
            flood = drain_step(flood, sc)
        assert was_ok


class TestRoadNodes:
    def test_component_road_node_nearer_endpoint(self):
        roads = grid_roads()
        net, _ = make_power([("X", "pole", 10, 0)], [])
        comp = net.components["X"]
        comp.nearest_road_link = "H0_0"  # N0_0 (0,0) to N0_1 (100,0)
        assert component_road_node(comp, roads) == "N0_0"
        comp.location = (90.0, 0.0)
        assert component_road_node(comp, roads) == "N0_1"

    def test_fuel_coords_override(self):
        net, roads = plant_with_roads(fuel_node="N0_1")
        sc = HazardScenario(fuel_source_coords={"P": (310.0, 290.0)})
        nodes = resolve_fuel_nodes(net, roads, sc)
        assert nodes["P"] == "N3_3"

    def test_fuel_defaults_to_coupling_record(self):
        net, roads = plant_with_roads(fuel_node="N0_1")
        nodes = resolve_fuel_nodes(net, roads, HazardScenario())
        assert nodes["P"] == "N0_1"

    def test_fuel_falls_back_to_plant_node(self):
        roads = grid_roads()
        net, _ = make_power([("P", "plant", 0, 0)], [])
        from stormgrid.network import assign_nearest_road_links

        assign_nearest_road_links(net.components, roads)
        nodes = resolve_fuel_nodes(net, roads, HazardScenario())
        assert nodes["P"] == component_road_node(net.components["P"], roads)

"""Shared builders for toy networks used across the test modules."""

import pytest

from stormgrid.network import (
    ComponentKind,
    Household,
    PowerComponent,
    PowerNetwork,
    RoadLink,
    RoadNetwork,
    TrafficLight,
)

KIND = {
    "plant": ComponentKind.PLANT,
    "substation": ComponentKind.SUBSTATION,
    "tower": ComponentKind.TOWER,
    "line": ComponentKind.LINE,
    "pole": ComponentKind.POLE,
    "conductor": ComponentKind.CONDUCTOR,
}


def make_power(comps, edges, households=(), fuel=None):
    """Build a PowerNetwork from (id, kind, x, y) tuples and edge pairs."""
    components = {
        cid: PowerComponent(id=cid, kind=KIND[kind], location=(float(x), float(y)))
        for cid, kind, x, y in comps
    }
    hh = [
        Household(id=f"H{i}", location=(0.0, 0.0), attachment=attach)
        for i, attach in enumerate(households)
    ]
    net = PowerNetwork(
        components=components,
        edges=[tuple(e) for e in edges],
        plants=[c.id for c in components.values() if c.kind is ComponentKind.PLANT],
        fuel_source=dict(fuel or {}),
    )
    return net, hh


def make_roads(intersections, links, lights=()):
    """Build a RoadNetwork from {id: (x, y)} and (id, a, b, length) tuples."""
    return RoadNetwork(
        links={
            lid: RoadLink(id=lid, endpoints=(a, b), length_m=float(ln))
            for lid, a, b, ln in links
        },
        intersections={k: (float(x), float(y)) for k, (x, y) in intersections.items()},
        traffic_lights={
            lid: TrafficLight(id=lid, intersection=inter, feed_component=comp)
            for lid, inter, comp in lights
        },
    )


@pytest.fixture
def toy_files(tmp_path):
    """Minimal pristine network: one plant, one pole, one household."""
    power = tmp_path / "power.txt"
    power.write_text(
        "component P plant 0 0\n"
        "component D pole 10 0\n"
        "edge P D\n"
    )
    roads = tmp_path / "roads.txt"
    roads.write_text(
        "intersection A 0 0\n"
        "intersection B 100 0\n"
        "link L1 A B 100\n"
    )
    couplings = tmp_path / "couplings.txt"
    couplings.write_text(
        "household H 10 5 D\n"
        "fuel P A\n"
    )
    return power, roads, couplings


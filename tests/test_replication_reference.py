"""Whole replications against the hour-by-hour reference loop.

``run_replication`` visits only hour 0, job completions and link openings,
and stops under one next-visit rule. ``oracles.hourly_replication`` visits
every hour and stops under its own frozen-run rule. On small generated
worlds (radial and meshed grids, one to three plants, fuel on a road island,
links that do and do not drain, every strategy and coupling, short caps)
both must give the same records, events and initial failures, or the same
cap error.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stormgrid.engine import SimulationContext, run_replication
from stormgrid.errors import SimulationCapError
from stormgrid.fragility import (
    FragilityConfig, RepairModel, RepairSpec, sample_failures,
)
from stormgrid.hazard import HazardScenario
from stormgrid.network import ComponentKind, DamageLevel
from stormgrid.restoration import Strategy

from .conftest import make_power, make_roads
from .oracles import hourly_replication

GRID = 4  # road intersections per side, 100 m apart
SPAN = (GRID - 1) * 100


def grid_roads(n_lights, light_feeds):
    """A GRID x GRID street grid plus a two-node island far to the east."""
    nodes = {
        f"N{i}_{j}": (i * 100.0, j * 100.0) for i in range(GRID) for j in range(GRID)
    }
    links = []
    for i in range(GRID):
        for j in range(GRID):
            if i + 1 < GRID:
                links.append((f"H{i}_{j}", f"N{i}_{j}", f"N{i+1}_{j}", 100))
            if j + 1 < GRID:
                links.append((f"V{i}_{j}", f"N{i}_{j}", f"N{i}_{j+1}", 100))
    nodes["ISL_A"], nodes["ISL_B"] = (2000.0, 0.0), (2100.0, 0.0)
    links.append(("ISL", "ISL_A", "ISL_B", 100))
    lights = [
        (f"T{k}", f"N{k % GRID}_{(2 * k) % GRID}", feed)
        for k, feed in zip(range(n_lights), light_feeds)
    ]
    return make_roads(nodes, links, lights)


@st.composite
def worlds(draw):
    """A small network, scenario, repair model and run settings."""
    coord = st.integers(0, SPAN)
    comps, edges = [], []
    for p in range(draw(st.integers(1, 3))):
        plant = f"P{p}"
        comps.append((plant, "plant", draw(coord), draw(coord)))
        top = plant
        if draw(st.booleans()):
            top = f"X{p}"
            comps.append((top, draw(st.sampled_from(["line", "tower"])),
                          draw(coord), draw(coord)))
            edges.append((plant, top))
        tree = [f"S{p}"]
        comps.append((tree[0], "substation", draw(coord), draw(coord)))
        edges.append((top, tree[0]))
        for k in range(draw(st.integers(1, 5))):
            cid = f"D{p}_{k}"
            comps.append((cid, draw(st.sampled_from(["pole", "conductor"])),
                          draw(coord), draw(coord)))
            edges.append((draw(st.sampled_from(tree)), cid))
            tree.append(cid)
        if p == 0:
            first_tree = [c[0] for c in comps if c[1] != "plant"]
    fed = [c[0] for c in comps if c[1] != "plant"]
    if draw(st.booleans()):  # meshed: a tie line and a duplicate edge
        edges.append((draw(st.sampled_from(fed)), draw(st.sampled_from(fed))))
        edges.append(draw(st.sampled_from(edges)))
    homes, feeds = fed, fed
    others = [c for c in fed if c not in first_tree]
    if others and draw(st.booleans()):
        # households on the first plant's tree, lights on the others: a light
        # can be the last thing dark, waiting for its plant's fuel
        homes, feeds = first_tree, others
    households = draw(st.lists(st.sampled_from(homes), min_size=1, max_size=8))
    plants = [c[0] for c in comps if c[1] == "plant"]
    node = st.sampled_from([f"N{i}_{j}" for i in range(GRID) for j in range(GRID)])
    fuel = {p: draw(node) for p in plants}
    if draw(st.booleans()):  # one plant's fuel waits on a road island
        fuel[draw(st.sampled_from(plants))] = "ISL_A"
    net, hh = make_power(comps, edges, households=households, fuel=fuel)
    light_feeds = draw(st.lists(st.sampled_from(feeds), max_size=3))
    roads = grid_roads(len(light_feeds), light_feeds)

    depth = st.sampled_from([0.0, 1.0, 2.0, 2.3, 3.5, 6.0, 12.0, 1e5])
    scenario = HazardScenario(
        wind_mph=draw(st.sampled_from([0.0, 0.0, 80.0, 120.0, 150.0, 180.0])),
        initial_runoff_in={lid: draw(depth) for lid in roads.link_ids},
        drainage_in_per_hr=draw(st.sampled_from([0.3, 0.65, 1.5])),
        fuel_dependence=draw(st.booleans()),
        crew_access_dependence=draw(st.booleans()),
    )
    spec = st.builds(
        lambda mean, crews: RepairSpec(float(mean), mean / 2.0, crews),
        st.integers(1, 12), st.integers(1, 3),
    )
    rows = {(k, None): draw(spec) for k in (
        ComponentKind.TOWER, ComponentKind.LINE, ComponentKind.POLE,
        ComponentKind.CONDUCTOR,
    )}
    rows.update({(ComponentKind.SUBSTATION, lv): draw(spec) for lv in DamageLevel})
    return dict(
        ctx=SimulationContext(net, roads, hh),
        scenario=scenario,
        repair=RepairModel(rows=rows),
        seed=draw(st.integers(0, 2**16)),
        strategy=draw(st.sampled_from(list(Strategy))),
        hard_cap=draw(st.one_of(st.integers(0, 40), st.just(10_000))),
        extra_teams=draw(st.integers(0, 3)),
    )


def replication_args(world):
    """Positional ``run_replication`` arguments, with a crew pool from the
    largest job of the seed's failure draw up."""
    ctx, scenario, repair = world["ctx"], world["scenario"], world["repair"]
    fragility, seed = FragilityConfig(), world["seed"]
    failed = sample_failures(
        ctx.net, scenario, fragility, np.random.default_rng([seed, 0])
    )
    comps = [ctx.net.components[c] for c in failed]
    largest = max((repair.spec_for(c.kind, c.damage_level).crews for c in comps),
                  default=1)
    teams = largest + world["extra_teams"]
    return ctx, scenario, fragility, repair, teams, seed, world["strategy"]


def outcome(run, world):
    """The replication's records, events and failures, or its cap error."""
    try:
        res = run(*replication_args(world), hard_cap=world["hard_cap"])
    except SimulationCapError as exc:
        return ("cap", exc.hour, exc.snapshot, str(exc))
    return ("done", res.records.tolist(), res.events, res.initial_failures)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(world=worlds())
def test_stepped_replication_matches_hourly_reference(world):
    assert outcome(run_replication, world) == outcome(hourly_replication, world)


def test_generated_worlds_reach_every_path():
    """Meshed and radial grids, cap errors, and fuel that comes back late."""
    seen = dict.fromkeys(["meshed", "radial", "cap", "done", "late_fuel"], 0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(world=worlds())
    def tally(world):
        seen["radial" if world["ctx"].index.radial else "meshed"] += 1
        kind, *rest = outcome(run_replication, world)
        seen[kind] += 1
        if kind == "done":
            seen["late_fuel"] += any(
                k == "fuel_restored" and hour > 0 for hour, k, _ in rest[1]
            )

    tally()
    assert all(seen.values()), seen


def test_cap_error_names_the_last_change():
    """A job that outlasts the cap: its start at hour 0 is the last change,
    and the light it feeds stays dark."""
    net, hh = make_power(
        [("P", "plant", 0, 0), ("D", "pole", 10, 0)], [("P", "D")], households=["D"]
    )
    roads = grid_roads(1, ["D"])
    repair = RepairModel(rows={(ComponentKind.POLE, None): RepairSpec(30.0, 0.0, 1)})
    with pytest.raises(SimulationCapError) as err:
        run_replication(
            SimulationContext(net, roads, hh), HazardScenario(wind_mph=300.0),
            FragilityConfig(), repair, 1, 0, Strategy.DISTANCE_BASED, hard_cap=20,
        )
    snapshot = err.value.snapshot
    assert (snapshot["frozen_at"], snapshot["unrepaired"]) == (0, ["D"])
    assert (snapshot["q_traffic_lights"], snapshot["dark_lights"]) == (0.0, 1)
    assert snapshot["unfueled_plants"] == []
    assert str(err.value) == (
        "replication did not terminate within 20 hours: nothing changes from "
        "hour 0 to the cap (1 components unrepaired, 1 traffic lights dark, "
        "plants without fuel: none)"
    )

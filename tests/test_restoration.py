"""Strategy orderings and the hourly crew-constrained scheduling pass."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormgrid.engine import SimulationContext, run_replication
from stormgrid.fragility import FragilityConfig, RepairModel
from stormgrid.hazard import HazardScenario, WindCell, initial_flood, passable_mask
from stormgrid.network import (
    ComponentKind,
    DamageLevel,
    TrafficLight,
    load_networks,
)
from stormgrid.restoration import (
    JobTable,
    Strategy,
    complete_due_jobs,
    draw_repairs,
    start_pending_jobs,
)
from stormgrid.testbed import TestbedParams, generate_testbed

from .conftest import make_power, make_roads, nearest_links
from .oracles import reference_order, reference_walk


def road_line(n=6, spacing=100.0):
    intersections = {f"N{i}": (i * spacing, 0.0) for i in range(n)}
    links = [(f"L{i}", f"N{i}", f"N{i+1}", spacing) for i in range(n - 1)]
    return make_roads(intersections, links)


def radial_net(n_poles=4, lights=()):
    """plant(N0) - line - substation(N1) - conductor chain of poles east."""
    comps = [
        ("GEN", "plant", 0, 0),
        ("TL0", "line", 50, 0),
        ("SUB", "substation", 100, 0),
    ]
    edges = [("GEN", "TL0"), ("TL0", "SUB")]
    prev = "SUB"
    for i in range(n_poles):
        x = 200 + 100 * i
        comps.append((f"CD{i}", "conductor", x - 50, 0))
        comps.append((f"PO{i}", "pole", x, 0))
        edges += [(prev, f"CD{i}"), ((f"CD{i}"), f"PO{i}")]
        prev = f"PO{i}"
    households = [f"PO{i}" for i in range(n_poles) for _ in range(2)]
    net, hh = make_power(comps, edges, households=households, fuel={"GEN": "N0"})
    roads = road_line(n=n_poles + 2)
    for lid, inter, comp in lights:
        roads.traffic_lights[lid] = TrafficLight(
            id=lid, intersection=inter, feed_component=comp
        )
    return net, roads, hh


def pending_mask(net, ids):
    """Mask over components with the ``ids`` set."""
    mask = np.zeros(len(net.index.ids), dtype=bool)
    mask[[net.index.pos[c] for c in ids]] = True
    return mask


def service_masks(ctx, net, down):
    """Household and light service masks with the ``down`` ids not conducting."""
    idx = net.index
    alive = np.ones(len(idx.ids), dtype=bool)
    alive[[idx.pos[c] for c in down]] = False
    powered = idx.powered_mask(alive)
    return powered[ctx.hh_attach], powered[ctx.light_feed]


def order_of(strategy, failed, net, roads, hh, flood=None, sc=None, rng=None):
    """Repair order of the ``failed`` ids, as ids."""
    ctx = SimulationContext(net, roads, hh)
    sc = sc or HazardScenario()
    depth = initial_flood(sc, roads.link_ids) if flood is None else flood
    order = ctx.prioritizer.order(
        strategy,
        pending_mask(net, failed),
        passable_mask(depth, sc),
        rng if rng is not None else np.random.default_rng(0),
        *service_masks(ctx, net, failed),
    )
    return [net.index.ids[c] for c in order]


class TestPriorityOrder:
    def test_distance_orders_nearer_pole_first(self):
        net, roads, hh = radial_net()
        failed = ["PO3", "PO0"]
        order = order_of(Strategy.DISTANCE_BASED, failed, net, roads, hh)
        assert order == ["PO0", "PO3"]

    def test_substation_before_distribution_all_strategies(self):
        for strategy in Strategy:
            net, roads, hh = radial_net()
            failed = ["PO1", "SUB"]
            order = order_of(strategy, failed, net, roads, hh)
            assert order[0] == "SUB", strategy

    def test_transmission_before_distribution(self):
        net, roads, hh = radial_net()
        failed = ["PO0", "TL0"]
        order = order_of(Strategy.DISTANCE_BASED, failed, net, roads, hh)
        assert order == ["TL0", "PO0"]

    def test_traffic_light_pass_prioritizes_light_feeder(self):
        net, roads, hh = radial_net(lights=[("SG0", "N4", "PO2")])
        failed = ["CD0", "CD3"]
        # CD3 is past the light's feed pole PO2; CD0 is on the light's path.
        order = order_of(Strategy.TRAFFIC_LIGHT_BASED, failed, net, roads, hh)
        assert order == ["CD0", "CD3"]

    def test_traffic_light_second_pass_by_distance(self):
        net, roads, hh = radial_net(lights=[("SG0", "N3", "PO1")])
        failed = ["CD3", "CD2", "CD0"]
        order = order_of(Strategy.TRAFFIC_LIGHT_BASED, failed, net, roads, hh)
        # CD0 feeds the light; CD2 and CD3 follow in distance order.
        assert order == ["CD0", "CD2", "CD3"]

    def test_component_based_shuffles_distribution_each_call(self):
        net, roads, hh = radial_net(n_poles=8)
        failed = [f"PO{i}" for i in range(8)]
        rng = np.random.default_rng(0)
        orders = {
            tuple(
                order_of(Strategy.COMPONENT_BASED, failed, net, roads, hh, rng=rng)
            )
            for _ in range(6)
        }
        assert len(orders) > 1

    def test_component_based_deterministic_given_stream(self):
        net, roads, hh = radial_net(n_poles=8)
        failed = [f"PO{i}" for i in range(8)]
        a = order_of(
            Strategy.COMPONENT_BASED, failed, net, roads, hh,
            rng=np.random.default_rng(42),
        )
        b = order_of(
            Strategy.COMPONENT_BASED, failed, net, roads, hh,
            rng=np.random.default_rng(42),
        )
        assert a == b

    def test_substations_ordered_by_unpowered_households(self):
        # two substations on one bus; SUB_B cuts off three times the households
        comps = [
            ("GEN", "plant", 0, 0),
            ("SUBA", "substation", 100, 0),
            ("SUBB", "substation", 100, 100),
            ("POA", "pole", 200, 0),
            ("POB", "pole", 200, 100),
        ]
        edges = [
            ("GEN", "SUBA"),
            ("GEN", "SUBB"),
            ("SUBA", "POA"),
            ("SUBB", "POB"),
        ]
        households = ["POA"] + ["POB"] * 3
        net, hh = make_power(comps, edges, households=households)
        roads = road_line()
        failed = ["SUBA", "SUBB"]
        order = order_of(Strategy.DISTANCE_BASED, failed, net, roads, hh)
        assert order == ["SUBB", "SUBA"]

    def test_unreachable_distance_sorts_last(self):
        net, roads, hh = radial_net()
        failed = ["PO0", "PO2"]
        sc = HazardScenario(initial_runoff_in={"L3": 26.0}, runoff_default_in=0.0)
        flood = initial_flood(sc, roads.link_ids)
        # PO2 sits past the flooded link: unreachable by road, sorted last.
        order = order_of(Strategy.DISTANCE_BASED, failed, net, roads, hh, flood, sc)
        assert order == ["PO0", "PO2"]


@pytest.fixture(scope="module")
def small_testbed(tmp_path_factory):
    files = generate_testbed(
        TestbedParams(grid_size=6, households=150, substations=2, seed=3),
        tmp_path_factory.mktemp("tb_order"),
    )
    net, roads, hh = load_networks(files["power"], files["roads"], files["couplings"])
    return net, roads, hh, SimulationContext(net, roads, hh)


class TestOrderMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_sorted_reference(self, small_testbed, data):
        net, roads, hh, ctx = small_testbed
        repairable = [
            cid for cid, c in net.components.items()
            if c.kind is not ComponentKind.PLANT
        ]
        pending = data.draw(st.sets(st.sampled_from(repairable)), label="pending")
        hh_powered = np.array(
            data.draw(st.lists(st.booleans(), min_size=len(hh), max_size=len(hh))),
            dtype=bool,
        )
        n_lights = len(ctx.light_feed)
        light_powered = np.array(
            data.draw(st.lists(st.booleans(), min_size=n_lights, max_size=n_lights)),
            dtype=bool,
        )
        n_links = len(roads.link_ids)
        depths = data.draw(
            st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.5, 12.0]),
                     min_size=n_links, max_size=n_links),
            label="depths",
        )
        strategy = data.draw(st.sampled_from(list(Strategy)), label="strategy")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

        passable = np.array(depths) <= HazardScenario().passable_threshold_in
        got = ctx.prioritizer.order(
            strategy, pending_mask(net, pending), passable,
            np.random.default_rng(seed), hh_powered, light_powered,
        )
        want = reference_order(
            strategy.value, pending, net, roads, hh, passable,
            np.random.default_rng(seed), hh_powered, light_powered,
        )
        assert [net.index.ids[c] for c in got] == want


class TestRankCache:
    def test_passable_sets_a_b_a_match_reference(self, small_testbed):
        net, roads, hh, _ = small_testbed
        ctx = SimulationContext(net, roads, hh)
        prio = ctx.prioritizer
        a = np.ones(len(roads.link_ids), dtype=bool)
        b = a.copy()
        b[::3] = False
        # B cuts some components off from every plant, but not all of them.
        to_plant = prio._distances(b)[0]
        assert np.isinf(to_plant).any() and np.isfinite(to_plant).any()

        pending = [
            cid for cid, c in net.components.items()
            if c.kind is not ComponentKind.PLANT
        ]
        hh_powered = np.arange(len(hh)) % 3 == 0
        light_powered = np.arange(len(ctx.light_feed)) % 2 == 0
        for strategy in Strategy:
            for passable in (a, b, a):
                got = prio.order(
                    strategy, pending_mask(net, pending), passable,
                    np.random.default_rng(5), hh_powered, light_powered,
                )
                want = reference_order(
                    strategy.value, pending, net, roads, hh, passable,
                    np.random.default_rng(5), hh_powered, light_powered,
                )
                assert [net.index.ids[c] for c in got] == want
                # Writing into a returned list leaves the next call's intact.
                got[:] = got[0]
        assert len(prio._ranked) == 2


class TestWalkMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_starts_match_reference_walk(self, small_testbed, data):
        net, roads, hh, ctx = small_testbed
        ids = net.index.ids
        # multi-crew jobs are few on this testbed; draw them on their own so
        # that crew-starved holds come up often
        kinds = {cid: c.kind for cid, c in net.components.items()}
        one_crew = (ComponentKind.POLE, ComponentKind.CONDUCTOR)
        small = [c for c, k in kinds.items() if k in one_crew]
        big = [
            c for c, k in kinds.items()
            if k not in one_crew and k is not ComponentKind.PLANT
        ]
        pending = data.draw(st.sets(st.sampled_from(big)), label="big") | data.draw(
            st.sets(st.sampled_from(small)), label="small"
        )
        model = RepairModel()
        available = data.draw(st.integers(0, 20), label="available")
        crews = np.zeros(len(ids), dtype=np.int64)
        jobs = JobTable(crews, np.zeros_like(crews), available)
        crews_by_id = {}
        for cid in pending:
            kind = kinds[cid]
            level = None
            if kind is ComponentKind.SUBSTATION:
                level = data.draw(st.sampled_from(list(DamageLevel)), label=cid)
            spec = model.spec_for(kind, level)
            crews_by_id[cid] = crews[net.index.pos[cid]] = spec.crews
        n_links = len(roads.link_ids)
        depths = data.draw(
            st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.5, 12.0]),
                     min_size=n_links, max_size=n_links),
            label="depths",
        )
        sc = HazardScenario(crew_access_dependence=data.draw(st.booleans()))
        strategy = data.draw(st.sampled_from(list(Strategy)), label="strategy")

        passable = passable_mask(np.array(depths), sc)
        order = ctx.prioritizer.order(
            strategy, pending_mask(net, pending), passable,
            np.random.default_rng(0), np.zeros(len(hh), dtype=bool),
            np.zeros(len(ctx.light_feed), dtype=bool),
        )
        started = start_pending_jobs(jobs, order, ctx.comp_link, passable, sc, 0)
        want = reference_walk(
            [ids[c] for c in order], net.components, roads,
            dict(zip(roads.link_ids, depths)), sc, crews_by_id, available,
        )
        assert [ids[c] for c in started] == want


def dry_flood(roads):
    sc = HazardScenario(initial_runoff_in=0.0)
    return initial_flood(sc, roads.link_ids), sc


class Crews:
    """The engine's hourly scheduling steps, with the pending set kept here.

    The job table is filled as the engine fills it at hour 0: each failed
    component's crews and a drawn duration. Each tick completes due jobs,
    orders the pending components under this hour's service masks, and
    starts what fits.
    """

    def __init__(self, net, roads, hh, failed, teams, flood, sc):
        self.net, self.sc = net, sc
        self.passable = passable_mask(flood, sc)
        self.ctx = SimulationContext(net, roads, hh)
        self.pending = set(failed)
        model, comps = RepairModel(), net.components
        rng = np.random.default_rng(0)
        jobs = [
            (net.index.pos[c], model.spec_for(comps[c].kind, comps[c].damage_level), rng)
            for c in failed
        ]
        self.jobs = JobTable(*draw_repairs(len(net.index.ids), jobs), teams)

    def ids_of(self, positions):
        return [self.net.index.ids[c] for c in positions]

    def running(self):
        """Ids of the components under repair, in start order."""
        return self.ids_of(self.jobs.running)

    def crews_in_use(self):
        jobs = self.jobs
        return int(jobs.crews[jobs.running].sum())

    def tick(self, hour, rng=None, strategy=Strategy.DISTANCE_BASED):
        """Completed ids and started positions, each in order."""
        rng = rng if rng is not None else np.random.default_rng(1)
        completed = self.ids_of(complete_due_jobs(self.jobs, hour))
        down = self.pending | set(self.running())
        order = self.ctx.prioritizer.order(
            strategy, pending_mask(self.net, self.pending), self.passable, rng,
            *service_masks(self.ctx, self.net, down),
        )
        started = start_pending_jobs(
            self.jobs, order, self.ctx.comp_link, self.passable, self.sc, hour
        ).tolist()
        self.pending -= set(self.ids_of(started))
        return completed, started


class TestScheduling:
    def test_crew_starved_top_job_holds_lower_ranks(self):
        # a severe substation (14 crews) fits a 20-team pool but not the 10
        # teams free now; it outranks the poles, which wait with it
        net, roads, hh = radial_net()
        failed = ["SUB", "PO0", "PO1"]
        net.components["SUB"].damage_level = DamageLevel.SEVERE
        crews = Crews(net, roads, hh, failed, 20, *dry_flood(roads))
        crews.jobs.free -= 10
        _, started = crews.tick(hour=0)
        assert started == []
        assert crews.jobs.free == 10
        assert crews.pending == {"SUB", "PO0", "PO1"}

        crews.jobs.free += 4  # fourteen teams free: the substation starts
        _, started = crews.tick(hour=1)
        assert crews.ids_of(started) == ["SUB"]
        assert crews.jobs.crews[started[0]] == 14
        assert crews.jobs.free == 0
        assert crews.pending == {"PO0", "PO1"}

    def test_flooded_top_job_does_not_hold(self):
        net, roads, hh = radial_net()
        failed = ["SUB", "PO0", "PO1"]
        net.components["SUB"].damage_level = DamageLevel.SEVERE
        links = nearest_links(net, roads)
        sub_link = links["SUB"]
        assert sub_link not in {links[c] for c in ("PO0", "PO1")}
        sc = HazardScenario(initial_runoff_in={sub_link: 12.0}, runoff_default_in=0.0)
        flood = initial_flood(sc, roads.link_ids)
        crews = Crews(net, roads, hh, failed, 20, flood, sc)
        crews.jobs.free -= 10
        _, started = crews.tick(hour=0)
        assert set(crews.ids_of(started)) == {"PO0", "PO1"}
        assert crews.pending == {"SUB"}

    def test_all_flooded_zero_starts(self):
        net, roads, hh = radial_net()
        failed = ["PO0", "PO1"]
        sc = HazardScenario(initial_runoff_in=12.0)
        flood = initial_flood(sc, roads.link_ids)
        crews = Crews(net, roads, hh, failed, 10, flood, sc)
        _, started = crews.tick(hour=0)
        assert started == []
        assert crews.jobs.free == 10

    def test_access_toggle_off_ignores_flood(self):
        net, roads, hh = radial_net()
        failed = ["PO0"]
        sc = HazardScenario(initial_runoff_in=12.0, crew_access_dependence=False)
        flood = initial_flood(sc, roads.link_ids)
        crews = Crews(net, roads, hh, failed, 10, flood, sc)
        _, started = crews.tick(hour=0)
        assert len(started) == 1

    def test_distribution_starts_when_transmission_inaccessible(self):
        net, roads, hh = radial_net()
        failed = ["TL0", "PO2"]
        # flood only the link nearest the transmission line
        line_link = nearest_links(net, roads)["TL0"]
        sc = HazardScenario(
            initial_runoff_in={line_link: 12.0}, runoff_default_in=0.0
        )
        flood = initial_flood(sc, roads.link_ids)
        crews = Crews(net, roads, hh, failed, 10, flood, sc)
        _, started = crews.tick(hour=0)
        assert set(crews.ids_of(started)) == {"PO2"}

    def test_job_completion_bookkeeping(self):
        net, roads, hh = radial_net()
        failed = ["PO0"]
        crews = Crews(net, roads, hh, failed, 10, *dry_flood(roads))
        po0 = net.index.pos["PO0"]
        crews.jobs.duration[po0] = 5

        _, started = crews.tick(hour=5)
        assert started == [po0]
        assert crews.running() == ["PO0"] and crews.jobs.done_at[po0] == 10
        assert crews.pending == set()
        assert crews.jobs.free == 9

        completed, started = crews.tick(hour=9)
        assert completed == [] and started == []
        assert crews.running() == ["PO0"]

        completed, _ = crews.tick(hour=10)
        assert completed == ["PO0"]
        assert crews.running() == []
        assert crews.jobs.free == 10

    def test_same_hour_completions_keep_start_order(self):
        # two equal jobs started in one hour against their position order
        # complete in the order they started, not in position order
        net, roads, hh = radial_net()
        crews = Crews(net, roads, hh, ["PO0", "PO1"], 10, *dry_flood(roads))
        po0, po1 = net.index.pos["PO0"], net.index.pos["PO1"]
        assert po0 < po1
        crews.jobs.duration[[po0, po1]] = 3
        started = start_pending_jobs(
            crews.jobs, np.array([po1, po0]), crews.ctx.comp_link,
            crews.passable, crews.sc, 2,
        )
        assert started.tolist() == [po1, po0]
        assert complete_due_jobs(crews.jobs, 4).tolist() == []
        assert complete_due_jobs(crews.jobs, 5).tolist() == [po1, po0]
        assert crews.jobs.free == 10

    def test_crew_conservation_through_run(self):
        net, roads, hh = radial_net(n_poles=6)
        failed = [f"PO{i}" for i in range(6)] + [f"CD{i}" for i in range(6)]
        crews = Crews(net, roads, hh, failed, 3, *dry_flood(roads))
        rng = np.random.default_rng(5)
        repaired = []
        for hour in range(200):
            completed, _ = crews.tick(
                hour, rng=rng, strategy=Strategy.COMPONENT_BASED
            )
            repaired += completed
            assert crews.jobs.free + crews.crews_in_use() == 3
            if not crews.pending and not crews.running():
                break
        else:
            pytest.fail("repairs did not finish in 200 hours")
        assert sorted(repaired) == sorted(failed)

    def test_under_repair_not_restarted(self):
        # 160 mph east of the substation fails every conductor (and some
        # poles); four teams work them off over several scheduling passes
        net, roads, hh = radial_net(n_poles=6)
        hazard = HazardScenario(
            wind_mph=[
                WindCell(-10, -10, 140, 10, 0.0),
                WindCell(140, -10, 800, 10, 160.0),
            ],
            initial_runoff_in=0.0,
        )
        for strategy in Strategy:
            for seed in range(4):
                res = run_replication(
                    SimulationContext(net, roads, hh), hazard, FragilityConfig(),
                    RepairModel(), teams=4, seed=seed, strategy=strategy,
                )
                failed = res.initial_failures
                assert {f"CD{i}" for i in range(6)} <= set(failed)
                by_kind = {"job_started": [], "repaired": []}
                for hour, kind, cid in res.events:
                    by_kind.get(kind, []).append((cid, hour))
                starts, repairs = by_kind["job_started"], by_kind["repaired"]
                once = Counter(failed)
                assert Counter(c for c, _ in starts) == once, (strategy, seed)
                assert Counter(c for c, _ in repairs) == once, (strategy, seed)
                started_at = dict(starts)
                assert all(hour > started_at[cid] for cid, hour in repairs)
                assert res.records[-1].q_households == 1.0

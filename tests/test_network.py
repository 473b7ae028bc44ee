"""Loading, cross-reference validation, and connectivity computations."""

import numpy as np
import pytest

from stormgrid.errors import (
    DanglingReferenceError,
    DisconnectedGridError,
    FormatError,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from stormgrid.engine import SimulationContext, run_replication
from stormgrid.fragility import FragilityConfig, RepairModel
from stormgrid.hazard import HazardScenario, WindCell
from stormgrid.network import (
    NEAREST_CANDIDATES,
    ComponentKind,
    assign_nearest_road_links,
    load_networks,
)
from stormgrid.restoration import Strategy
from stormgrid.testbed import TestbedParams, generate_testbed

from .conftest import make_power, make_roads, nearest_links
from .oracles import (
    bfs_powered,
    naive_network_records,
    nearest_link,
    nearest_link_positions_brute,
    reference_forest,
)


class TestLoadNetworks:
    def test_toy_network_loads_powered(self, toy_files):
        net, roads, households = load_networks(*toy_files)
        assert set(net.components) == {"P", "D"}
        assert net.plants == ["P"]
        assert len(households) == 1
        idx = net.index
        assert idx.powered_mask(np.ones(len(idx.ids), dtype=bool))[idx.pos["D"]]
        assert all(c.damage_level is None for c in net.components.values())
        assert net.fuel_source == {"P": "A"}

    def test_nearest_road_link_assigned(self, toy_files):
        net, roads, _ = load_networks(*toy_files)
        links = nearest_links(net, roads)
        assert links["P"] == "L1"
        assert links["D"] == "L1"

    def test_dangling_coupling_reference_named(self, toy_files, tmp_path):
        power, roads, _ = toy_files
        bad = tmp_path / "bad_couplings.txt"
        bad.write_text("household H 0 0 X9\n")
        with pytest.raises(DanglingReferenceError) as err:
            load_networks(power, roads, bad)
        assert "X9" in str(err.value)

    def test_dangling_edge_reference(self, toy_files, tmp_path):
        _, roads, couplings = toy_files
        bad = tmp_path / "bad_power.txt"
        bad.write_text("component P plant 0 0\nedge P GHOST\n")
        with pytest.raises(DanglingReferenceError) as err:
            load_networks(bad, roads, couplings)
        assert "GHOST" in str(err.value)

    def test_parse_error_reports_line(self, toy_files, tmp_path):
        _, roads, couplings = toy_files
        bad = tmp_path / "bad_power.txt"
        bad.write_text("component P plant 0 0\ncomponent D widget 1 1\n")
        with pytest.raises(FormatError) as err:
            load_networks(bad, roads, couplings)
        assert err.value.line_no == 2
        assert "widget" in str(err.value)

    def test_bad_coordinate(self, toy_files, tmp_path):
        _, roads, couplings = toy_files
        bad = tmp_path / "bad_power.txt"
        bad.write_text("component P plant zero 0\n")
        with pytest.raises(FormatError):
            load_networks(bad, roads, couplings)

    @pytest.mark.parametrize(
        "which,text,line_no,rid",
        [
            (0, "component P plant 0 0\ncomponent P plant 1 1\n", 2, "P"),
            (1, "intersection A 0 0\nintersection B 100 0\nintersection A 5 5\n"
                "link L1 A B 100\n", 3, "A"),
            (1, "intersection A 0 0\nintersection B 100 0\nlink L1 A B 100\n"
                "link L1 B A 50\n", 4, "L1"),
            (2, "household H 10 5 D\nhousehold H 11 5 D\nfuel P A\n", 2, "H"),
            (2, "household H 10 5 D\nlight SG0 A D\nlight SG0 B D\nfuel P A\n", 3, "SG0"),
            (2, "household H 10 5 D\nfuel P A\nfuel P B\n", 3, "P"),
        ],
        ids=["component", "intersection", "link", "household", "light", "fuel"],
    )
    def test_duplicate_id(self, toy_files, tmp_path, which, text, line_no, rid):
        # ids are unique within each record type, and a plant takes one fuel record
        files = list(toy_files)
        files[which] = bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(FormatError) as err:
            load_networks(*files)
        assert err.value.path == str(bad) and err.value.line_no == line_no
        assert "duplicate" in str(err.value) and repr(rid) in str(err.value)

    def test_trailing_comments(self, tmp_path):
        # every record type, with a comment cut from its end, loads as without
        texts = {
            "power.txt": "component P plant 0 0\ncomponent D pole 10 0\nedge P D\n",
            "roads.txt": "intersection A 0 0\nintersection B 100 0\nlink L1 A B 100\n",
            "couplings.txt": "household H 10 5 D\nlight SG0 B D\nfuel P A\n",
        }
        loaded = []
        for comment in ("", "   # {tag} record", "#{tag}#again"):
            folder = tmp_path / str(len(loaded))
            folder.mkdir()
            for name, text in texts.items():
                lines = [ln + comment.format(tag=ln.split()[0]) for ln in text.splitlines()]
                (folder / name).write_text("\n".join(lines) + "\n")
            loaded.append(loaded_records(*load_networks(*(folder / n for n in texts))))
        assert len(loaded[0]["lights"]) == 1 and len(loaded[0]["fuel"]) == 1
        assert loaded[1] == loaded[0] and loaded[2] == loaded[0]

    def test_disconnected_household(self, toy_files, tmp_path):
        power, roads, _ = toy_files
        bad_power = tmp_path / "p2.txt"
        bad_power.write_text(
            "component P plant 0 0\ncomponent D pole 10 0\n"
        )  # no edge: pole is stranded
        couplings = tmp_path / "c2.txt"
        couplings.write_text("household H 10 5 D\n")
        with pytest.raises(DisconnectedGridError):
            load_networks(bad_power, roads, couplings)

    def test_light_references_validated(self, toy_files, tmp_path):
        power, roads, _ = toy_files
        bad = tmp_path / "c3.txt"
        bad.write_text("light SG1 NOWHERE D\n")
        with pytest.raises(DanglingReferenceError):
            load_networks(power, roads, bad)

    def test_unknown_record_type(self, toy_files, tmp_path):
        power, _, couplings = toy_files
        bad = tmp_path / "r2.txt"
        bad.write_text("intersection A 0 0\nhighway L1 A A 5\n")
        with pytest.raises(FormatError):
            load_networks(power, bad, couplings)


def powered_ids(net, down=(), plants=None):
    """Ids powered with ``down`` not conducting; ``plants`` are the live ones."""
    idx = net.index
    alive = np.ones(len(idx.ids), dtype=bool)
    alive[[idx.pos[c] for c in down]] = False
    live = None
    if plants is not None:
        live = np.array([idx.pos[p] for p in plants], dtype=np.intp)
    mask = idx.powered_mask(alive, live)
    return {idx.ids[i] for i in np.flatnonzero(mask)}


def oracle(net, down=(), plants=None):
    conducting = {cid: cid not in down for cid in net.components}
    live = net.plants if plants is None else plants
    return bfs_powered(net.components, net.edges, live, conducting)


class TestForest:
    """The index's forest against a breadth-first search over neighbour lists.

    On a meshed grid a component reachable along two paths takes the parent
    the search meets first, so ``substation_of``, and with it the
    prioritizer's substation keys, follow the search's tie order.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference_forest(self, data):
        # any multigraph: cycles, repeated edges, self-loops, several plants
        # or none, and fragments no plant reaches, in a random file order
        n = data.draw(st.integers(1, 12), label="components")
        kinds = data.draw(
            st.lists(st.sampled_from(["plant", "substation", "pole"]),
                     min_size=n, max_size=n),
            label="kinds",
        )
        order = data.draw(st.permutations(range(n)), label="file order")
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        raw = data.draw(st.lists(pairs, max_size=2 * n), label="edges")
        net, _ = make_power(
            [(f"C{i}", kinds[i], i, 0) for i in order],
            [(f"C{a}", f"C{b}") for a, b in raw],
        )
        idx = net.index
        parent, sub, reached, radial = reference_forest(net)
        assert idx.parent.tolist() == parent
        assert idx.substation_of.tolist() == sub
        assert idx.reached.tolist() == reached
        assert idx.radial == radial
        assert sorted(idx.tin.tolist()) == list(range(n))
        for a in range(n):
            below = set()
            for b in range(n):
                c = b
                while c >= 0 and c != a:
                    c = parent[c]
                if c == a:
                    below.add(b)
            inside = (idx.tin[a] <= idx.tin) & (idx.tin <= idx.tout[a])
            assert set(np.flatnonzero(inside).tolist()) == below


def chain_net():
    """plant - line - pole single path."""
    net, _ = make_power(
        [("PL", "plant", 0, 0), ("LN", "line", 1, 0), ("PO", "pole", 2, 0)],
        [("PL", "LN"), ("LN", "PO")],
    )
    return net


def scripted_chain(mph_by_x, lights=(), households=True):
    """Ten households on plant - line - poleA - conductor - poleB, 100 m apart.

    ``mph_by_x`` maps a component's x coordinate to the wind it sees, so a
    160 mph cell scripts exactly that component's failure (conductors and
    lines fail with certainty there; elsewhere the wind is calm).
    """
    comps = [
        ("PL", "plant", 0, 0),
        ("LN", "line", 100, 0),
        ("PA", "pole", 200, 0),
        ("CO", "conductor", 300, 0),
        ("PB", "pole", 400, 0),
    ]
    edges = [("PL", "LN"), ("LN", "PA"), ("PA", "CO"), ("CO", "PB")]
    attach = ["PA"] * 6 + ["PB"] * 4 if households else []
    net, hh = make_power(comps, edges, households=attach, fuel={"PL": "N0"})
    roads = make_roads(
        {f"N{i}": (i * 100.0, 0.0) for i in range(5)},
        [(f"L{i}", f"N{i}", f"N{i+1}", 100.0) for i in range(4)],
        lights=lights,
    )
    cells = [
        WindCell(x - 50, -10, x + 49, 10, mph_by_x.get(x, 0.0))
        for x in range(0, 500, 100)
    ]
    return net, roads, hh, HazardScenario(wind_mph=cells, initial_runoff_in=0.0)


def run_chain(net, roads, hh, hazard, seed=0):
    return run_replication(
        SimulationContext(net, roads, hh), hazard, FragilityConfig(), RepairModel(),
        teams=4, seed=seed, strategy=Strategy.DISTANCE_BASED,
    )


class TestPoweredSet:
    def test_pristine_all_powered(self):
        net = chain_net()
        assert powered_ids(net) == {"PL", "LN", "PO"}

    def test_failed_line_isolates_downstream(self):
        net = chain_net()
        assert powered_ids(net, down={"LN"}) == {"PL"}

    def test_under_repair_blocks(self):
        # the engine keeps a component dark from its failure until the hour
        # its repair completes, including every hour a crew works on it
        net, roads, hh, hazard = scripted_chain({100: 160.0})
        res = run_chain(net, roads, hh, hazard)
        assert res.initial_failures == ["LN"]
        (start,) = [h for h, kind, _ in res.events if kind == "job_started"]
        (done,) = [h for h, kind, _ in res.events if kind == "repaired"]
        assert start == 0 and done >= 1
        for hour, q in enumerate(res.records.q_households.tolist()):
            assert q == (0.0 if hour < done else 1.0)

    def test_repaired_conducts(self):
        net = chain_net()
        before = powered_ids(net, down={"LN"})
        assert powered_ids(net, down=set()) == {"PL", "LN", "PO"} > before

    def test_fuel_starved_plant_powers_nothing(self):
        net = chain_net()
        assert powered_ids(net, plants=[]) == set()

    def test_matches_bfs_oracle_on_random_trees(self):
        rng = np.random.default_rng(17)
        for trial in range(200):
            n = int(rng.integers(2, 51))
            comps = [("G0", "plant", 0, 0)] + [
                (f"N{i}", "pole", i, 0) for i in range(1, n)
            ]
            # random tree: attach each node to an earlier one
            ids = [c[0] for c in comps]
            edges = [
                (ids[int(rng.integers(0, i))], ids[i]) for i in range(1, n)
            ]
            net, _ = make_power(comps, edges)
            k = int(rng.integers(0, 6))
            down = set(rng.choice(ids[1:], size=min(k, n - 1), replace=False))
            assert powered_ids(net, down) == oracle(net, down), f"trial {trial}"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_bfs_oracle_on_meshed_graphs(self, data):
        n = data.draw(st.integers(2, 40), label="components")
        n_plants = data.draw(st.integers(1, min(4, n)), label="plants")
        ids = [f"G{i}" for i in range(n_plants)] + [
            f"N{i}" for i in range(n_plants, n)
        ]
        comps = [
            (cid, "plant" if i < n_plants else "conductor", i, 0)
            for i, cid in enumerate(ids)
        ]
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        raw = data.draw(st.lists(pairs, max_size=3 * n), label="edges")
        edges = [(ids[a], ids[b]) for a, b in raw if a != b]
        net, _ = make_power(comps, edges)
        down = {
            cid for cid in ids
            if data.draw(st.booleans(), label=f"{cid} down")
        }
        live = [
            p for p in net.plants if data.draw(st.booleans(), label=f"{p} fueled")
        ]
        assert powered_ids(net, down, live) == oracle(net, down, live)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_bfs_oracle_on_radial_graphs(self, data):
        # Forests whose plants each root their own tree, plus plant-less
        # fragments; edges among unreached components (even cycles) keep the
        # grid radial, because no plant can reach them.
        n = data.draw(st.integers(2, 40), label="components")
        n_plants = data.draw(st.integers(1, min(4, n)), label="plants")
        # Each non-plant joins an earlier component or starts a fragment (-1).
        parent = [-1] * n_plants + [
            data.draw(st.integers(-1, i - 1), label=f"parent of {i}")
            for i in range(n_plants, n)
        ]
        root = list(range(n))
        for i in range(n_plants, n):
            if parent[i] >= 0:
                root[i] = root[parent[i]]
        edges = [(i, p) for i, p in enumerate(parent) if p >= 0]
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        extra = data.draw(st.lists(pairs, max_size=n), label="fragment edges")
        edges += [(a, b) for a, b in extra if min(root[a], root[b]) >= n_plants]
        order = data.draw(st.permutations(range(n)), label="file order")
        ids = [f"G{i}" if i < n_plants else f"N{i}" for i in range(n)]
        comps = [
            (ids[i], "plant" if i < n_plants else "pole", i, 0) for i in order
        ]
        flip = data.draw(st.lists(st.booleans(), min_size=len(edges),
                                  max_size=len(edges)), label="edge direction")
        net, _ = make_power(
            comps, [(ids[b], ids[a]) if f else (ids[a], ids[b])
                    for (a, b), f in zip(edges, flip)]
        )
        assert net.index.radial
        down = {cid for cid in ids if data.draw(st.booleans(), label=f"{cid} down")}
        live = [
            p for p in net.plants if data.draw(st.booleans(), label=f"{p} fueled")
        ]
        assert powered_ids(net, down, live) == oracle(net, down, live)

    @pytest.mark.parametrize(
        "edges",
        [
            [("G0", "A"), ("A", "B"), ("B", "C"), ("C", "A")],
            [("G0", "A"), ("A", "B"), ("B", "G1")],
            [("G0", "A"), ("A", "B"), ("G0", "A")],
            [("G0", "A"), ("A", "A"), ("A", "B")],
        ],
        ids=["cycle", "two-plants-one-tree", "duplicate-edge", "self-loop"],
    )
    def test_meshed_grid_matches_oracle_on_every_mask(self, edges):
        names = sorted({c for e in edges for c in e})
        comps = [(c, "plant" if c.startswith("G") else "pole", 0, 0) for c in names]
        net, _ = make_power(comps, edges)
        assert not net.index.radial
        for down_bits in range(2 ** len(names)):
            down = {c for k, c in enumerate(names) if down_bits >> k & 1}
            for live_bits in range(2 ** len(net.plants)):
                live = [p for k, p in enumerate(net.plants) if live_bits >> k & 1]
                assert powered_ids(net, down, live) == oracle(net, down, live)

    def test_repair_never_shrinks_powered_set(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            comps = [("G0", "plant", 0, 0)] + [
                (f"N{i}", "conductor", i, 0) for i in range(1, n)
            ]
            ids = [c[0] for c in comps]
            edges = [(ids[int(rng.integers(0, i))], ids[i]) for i in range(1, n)]
            net, _ = make_power(comps, edges)
            down = list(rng.choice(ids[1:], size=min(4, n - 1), replace=False))
            before = powered_ids(net, down)
            after = powered_ids(net, down[1:])
            assert before <= after


class TestPoweredFractions:
    """Hour-0 service fractions as the replication engine measures them."""

    LIGHTS = [
        ("S1", "N2", "PA"),
        ("S2", "N2", "PA"),
        ("S3", "N2", "PA"),
        ("S4", "N4", "PB"),
        ("S5", "N4", "PB"),
    ]

    def test_pristine_fraction_one(self):
        net, roads, hh, hazard = scripted_chain({})
        res = run_chain(net, roads, hh, hazard)
        assert res.initial_failures == []
        assert res.records.q_households.tolist() == [1.0]

    def test_downstream_of_failed_conductor(self):
        net, roads, hh, hazard = scripted_chain({300: 160.0})
        res = run_chain(net, roads, hh, hazard)
        assert res.initial_failures == ["CO"]
        # 6 of 10 households hang off poleA, upstream of the conductor
        assert res.records[0].q_households == pytest.approx(0.6)

    def test_fuel_starved_fraction_zero(self):
        # fuel enters at the far end of a fully flooded street; no failures
        net, roads, hh, hazard = scripted_chain({})
        net.fuel_source["PL"] = "N4"
        hazard.initial_runoff_in = 12.0
        res = run_chain(net, roads, hh, hazard)
        assert res.initial_failures == []
        assert res.records[0].q_households == 0.0
        assert res.records[0].q_traffic_lights == 1.0  # no lights here

    def test_no_households_is_fully_served(self):
        net, roads, hh, hazard = scripted_chain({300: 160.0}, households=False)
        res = run_chain(net, roads, hh, hazard)
        assert res.initial_failures == ["CO"]
        assert all(res.records.q_households == 1.0)

    def test_traffic_light_fraction(self):
        net, roads, hh, hazard = scripted_chain({300: 160.0}, lights=self.LIGHTS)
        res = run_chain(net, roads, hh, hazard)
        assert res.initial_failures == ["CO"]
        assert res.records[0].q_traffic_lights == pytest.approx(0.6)

    def test_traffic_lights_all_out(self):
        net, roads, hh, hazard = scripted_chain({100: 160.0}, lights=self.LIGHTS)
        res = run_chain(net, roads, hh, hazard)
        assert res.initial_failures == ["LN"]
        assert res.records[0].q_traffic_lights == 0.0

    def test_no_lights_is_fully_served(self):
        net, roads, hh, hazard = scripted_chain({100: 160.0})
        res = run_chain(net, roads, hh, hazard)
        assert res.initial_failures == ["LN"]
        assert all(res.records.q_traffic_lights == 1.0)


@pytest.fixture(scope="module")
def default_files(tmp_path_factory):
    return generate_testbed(TestbedParams(), tmp_path_factory.mktemp("tb_default"))


@pytest.fixture(scope="module")
def default_testbed(default_files):
    files = default_files
    net, roads, _ = load_networks(files["power"], files["roads"], files["couplings"])
    return net, roads, nearest_links(net, roads)


def loaded_records(net, roads, households):
    """What :func:`load_networks` built, as the plain tuples of
    :func:`naive_network_records`."""
    return {
        "components": [(c.id, c.kind.value, *c.location) for c in net.components.values()],
        "edges": list(net.edges),
        "intersections": [(nid, x, y) for nid, (x, y) in roads.intersections.items()],
        "links": [(lk.id, *lk.endpoints, lk.length_m) for lk in roads.links.values()],
        "households": [(hh.id, *hh.location, hh.attachment) for hh in households],
        "lights": [
            (tl.id, tl.intersection, tl.feed_component) for tl in roads.traffic_lights.values()
        ],
        "fuel": list(net.fuel_source.items()),
    }


_NON_PLANT = [k.value for k in ComponentKind if k is not ComponentKind.PLANT]


@st.composite
def network_texts(draw):
    """Three small valid network files, each record line shuffled among blank
    lines and comment lines, with random spacing and trailing comments."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    num = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    length = st.floats(1e-3, 1e5).map(repr)
    comp = st.sampled_from([f"C{i}" for i in range(n)])
    inter = st.sampled_from([f"I{j}" for j in range(m)])
    kinds = ["plant"] + draw(st.lists(st.sampled_from(_NON_PLANT + ["plant"]),
                                      min_size=n - 1, max_size=n - 1))
    power = [["component", f"C{i}", kinds[i], draw(num), draw(num)] for i in range(n)]
    # a tree: each component joins an earlier one, so all reach C0
    power += [["edge", *draw(st.permutations([f"C{i}", f"C{draw(st.integers(0, i - 1))}"]))]
              for i in range(1, n)]
    roads = [["intersection", f"I{j}", draw(num), draw(num)] for j in range(m)]
    roads += [["link", f"L{k}", draw(inter), draw(inter), draw(length)]
              for k in range(draw(st.integers(1, 5)))]
    couplings = [["household", f"H{k}", draw(num), draw(num), draw(comp)]
                 for k in range(draw(st.integers(0, 5)))]
    couplings += [["light", f"SG{k}", draw(inter), draw(comp)]
                  for k in range(draw(st.integers(0, 3)))]
    couplings += [["fuel", f"C{i}", draw(inter)]
                  for i in range(n) if kinds[i] == "plant" and draw(st.booleans())]
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    comment = st.sampled_from(["", "#", " # note", "\t#x # y", "# a  b"])
    texts = []
    for records in (power, roads, couplings):
        lines = [draw(st.sampled_from(["", " ", "\t"]))
                 + "".join(tok + draw(space) for tok in rec[:-1]) + rec[-1]
                 + draw(st.sampled_from(["", " "])) + draw(comment)
                 for rec in records]
        lines += draw(st.lists(st.sampled_from(["", "   ", "# comment", "  #indented #"]),
                               max_size=4))
        texts.append("\n".join(draw(st.permutations(lines))) + "\n")
    return texts


class TestReaderOracle:
    """The table-driven reader against a plain whitespace split."""

    def test_default_testbed(self, default_files):
        files = [default_files[k] for k in ("power", "roads", "couplings")]
        got = loaded_records(*load_networks(*files))
        assert got == naive_network_records(*files)
        assert len(got["components"]) == 6667 and len(got["households"]) > 0
        assert got["lights"] and got["fuel"]

    @settings(max_examples=60, deadline=None)
    @given(texts=network_texts())
    def test_generated_files(self, tmp_path_factory, texts):
        folder = tmp_path_factory.mktemp("gen")
        files = [folder / name for name in ("power.txt", "roads.txt", "couplings.txt")]
        for path, text in zip(files, texts):
            path.write_text(text)
        assert loaded_records(*load_networks(*files)) == naive_network_records(*files)


class TestNearestRoadLink:
    def test_tie_breaks_to_lowest_link_id(self):
        # component equidistant from both link midpoints
        net, _ = make_power([("P", "plant", 100, 10)], [])
        roads = make_roads(
            {"A": (0, 0), "B": (100, 0), "C": (200, 0)},
            [("LB", "A", "B", 100), ("LA", "B", "C", 100)],
        )
        # midpoints at (50,0) and (150,0) are equidistant from (100,10)
        assert nearest_links(net, roads)["P"] == "LA"

    def test_picks_closest_midpoint(self):
        net, _ = make_power([("P", "plant", 40, 0)], [])
        roads = make_roads(
            {"A": (0, 0), "B": (100, 0), "C": (200, 0)},
            [("L1", "A", "B", 100), ("L2", "B", "C", 100)],
        )
        assert nearest_links(net, roads)["P"] == "L1"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_integer_grids(self, data):
        # Intersections on an integer grid and components on the half-integer
        # one put many link midpoints at exactly equal distance; shuffled
        # intersection and link ids make id order differ from file order.
        n = data.draw(st.integers(1, 4))
        names = data.draw(st.permutations([f"I{k}" for k in range(n * n)]))
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n * n - 1), st.integers(0, n * n - 1)),
                     min_size=1, max_size=12)
        )
        link_ids = data.draw(st.permutations([f"L{k}" for k in range(len(pairs))]))
        roads = make_roads(
            {name: (k % n, k // n) for k, name in enumerate(names)},
            [(lid, names[a], names[b], 1.0) for lid, (a, b) in zip(link_ids, pairs)],
        )
        spots = data.draw(
            st.lists(st.tuples(st.integers(-1, 2 * n), st.integers(-1, 2 * n)),
                     min_size=1, max_size=20)
        )
        net, _ = make_power(
            [(f"C{k}", "pole", x / 2, y / 2) for k, (x, y) in enumerate(spots)], []
        )
        assert nearest_links(net, roads) == {
            cid: nearest_link(comp, roads) for cid, comp in net.components.items()
        }

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_default_testbed_matches_oracle(self, default_testbed, data):
        # about a quarter of its components have several nearest midpoints
        net, roads, links = default_testbed
        ids = data.draw(st.lists(st.sampled_from(net.index.ids), min_size=1, max_size=10))
        assert [links[cid] for cid in ids] == [
            nearest_link(net.components[cid], roads) for cid in ids
        ]

    @settings(max_examples=30, deadline=None)
    @given(st.permutations([f"L{k}" for k in range(36)]))
    def test_more_ties_than_candidates_go_to_lowest_id(self, link_ids):
        # The 36 integer points at distance 65 from the origin are the
        # midpoints. They fill several leaves of the tree, which may leave the
        # lowest id out of the origin's candidates; only a scan sees them all.
        spots = [(x, y) for x in range(-65, 66) for y in range(-65, 66)
                 if x * x + y * y == 65 * 65]
        assert len(spots) == len(link_ids) > NEAREST_CANDIDATES
        inters, links = {}, []
        for lid, (x, y) in zip(link_ids, spots):
            inters[lid + "a"], inters[lid + "b"] = (x - 1, y), (x + 1, y)
            links.append((lid, lid + "a", lid + "b", 2))
        roads = make_roads(inters, links)
        net, _ = make_power([("C", "pole", 0, 0), ("D", "pole", 33, 56)], [])
        assert nearest_links(net, roads) == {"C": "L0", "D": link_ids[spots.index((33, 56))]}

    def test_fewer_links_than_candidates(self):
        roads = make_roads(
            {"A": (0, 0), "B": (100, 0), "C": (100, 100)},
            [("L2", "A", "B", 100), ("L1", "B", "C", 100), ("L0", "C", "A", 141)],
        )
        comps = [("P", "plant", 40, 0), ("Q", "pole", 100, 60), ("R", "pole", 50, 50),
                 ("S", "pole", -300, 900)]
        net, _ = make_power(comps, [])
        assert nearest_links(net, roads) == {"P": "L2", "Q": "L1", "R": "L0", "S": "L0"}

    def test_component_on_a_midpoint(self):
        # P lies on the midpoint L1 and L3 share, Q on L2's own midpoint
        roads = make_roads(
            {"A": (0, 0), "B": (100, 0), "C": (50, -50), "D": (50, 50), "E": (100, 50)},
            [("L3", "A", "B", 100), ("L2", "D", "E", 50), ("L1", "C", "D", 100)],
        )
        net, _ = make_power([("P", "plant", 50, 0), ("Q", "pole", 75, 50)], [])
        assert nearest_links(net, roads) == {"P": "L1", "Q": "L2"}

    def test_default_testbed_matches_brute_force_everywhere(self, default_testbed):
        net, roads, _ = default_testbed
        locations = net.index.location
        assert len(locations) == 6667
        got = assign_nearest_road_links(locations, roads)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, nearest_link_positions_brute(locations, roads))

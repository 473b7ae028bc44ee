"""Wind lookup, drainage arithmetic, and passability conventions."""

import math

import numpy as np
import pytest

from stormgrid.errors import ExtentError, UnknownLinkError
from stormgrid.hazard import (
    FloodState,
    HazardScenario,
    WindCell,
    drain_step,
    first_passable_hour,
    initial_flood,
    link_passable,
    wind_at,
)


def flood_of(depths):
    ids = [f"L{i}" for i in range(len(depths))]
    return FloodState(link_ids=ids, depth_in=np.array(depths, dtype=float))


class TestWind:
    def test_uniform_65(self):
        sc = HazardScenario(wind_mph=65.0)
        assert wind_at(sc, (0, 0)) == 65.0
        assert wind_at(sc, (1e6, -1e6)) == 65.0

    def test_uniform_115(self):
        sc = HazardScenario(wind_mph=115.0)
        assert wind_at(sc, (42.0, 17.0)) == 115.0

    def test_cell_lookup(self):
        cells = [WindCell(0, 0, 10, 10, 60.0), WindCell(10, 0, 20, 10, 70.0)]
        sc = HazardScenario(wind_mph=cells)
        assert wind_at(sc, (15, 5)) == 70.0
        assert wind_at(sc, (5, 5)) == 60.0

    def test_out_of_extent(self):
        sc = HazardScenario(wind_mph=[WindCell(0, 0, 10, 10, 60.0)])
        with pytest.raises(ExtentError):
            wind_at(sc, (50, 50))

    def test_negative_wind_rejected(self):
        with pytest.raises(ValueError):
            HazardScenario(wind_mph=-1.0)

    @pytest.mark.parametrize(
        "cell",
        [
            WindCell(0, 0, 10, 10, -0.5),
            WindCell(10, 0, 0, 10, 60.0),
            WindCell(0, 10, 10, 0, 60.0),
        ],
        ids=["negative-mph", "inverted-x", "inverted-y"],
    )
    def test_bad_wind_cell_rejected(self, cell):
        with pytest.raises(ValueError, match="wind cell"):
            HazardScenario(wind_mph=[WindCell(0, 0, 10, 10, 60.0), cell])


class TestDrainage:
    def test_single_step(self):
        sc = HazardScenario(initial_runoff_in=13.0)
        flood = flood_of([13.0])
        after = drain_step(flood, sc)
        assert after.depth_in[0] == pytest.approx(12.35)
        assert after.clock == 1

    def test_floor_at_zero(self):
        sc = HazardScenario()
        after = drain_step(flood_of([0.3]), sc)
        assert after.depth_in[0] == 0.0

    def test_first_passable_hour_13(self):
        sc = HazardScenario(initial_runoff_in=13.0)
        flood = flood_of([13.0])
        hour = 0
        while not link_passable(flood, sc, "L0"):
            flood = drain_step(flood, sc)
            hour += 1
        assert hour == 17
        assert hour == math.ceil((13.0 - 2.0) / 0.65)
        assert first_passable_hour(13.0, sc) == 17

    def test_first_passable_hour_12(self):
        sc = HazardScenario()
        assert first_passable_hour(12.0, sc) == 16

    def test_depths_non_increasing(self):
        sc = HazardScenario()
        rng = np.random.default_rng(5)
        flood = flood_of(rng.uniform(0, 26, size=40))
        initial = flood.depth_in.copy()
        passable_ever = np.zeros(40, dtype=bool)
        for _ in range(60):
            nxt = drain_step(flood, sc)
            assert (nxt.depth_in <= flood.depth_in).all()
            assert (nxt.depth_in <= initial).all()
            assert (nxt.depth_in >= 0).all()
            now = nxt.passable_mask(sc.passable_threshold_in)
            # once passable, always passable
            assert (now | ~passable_ever).all()
            passable_ever |= now
            flood = nxt

    def test_first_passable_formula_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            depth = float(rng.uniform(0, 30))
            rate = float(rng.uniform(0.1, 2.0))
            theta = float(rng.uniform(0, 5))
            sc = HazardScenario(drainage_in_per_hr=rate, passable_threshold_in=theta)
            expected = 0 if depth <= theta else math.ceil((depth - theta) / rate)
            flood = flood_of([depth])
            hour = 0
            while not link_passable(flood, sc, "L0"):
                flood = drain_step(flood, sc)
                hour += 1
            assert hour == expected, (depth, rate, theta)


class TestPassability:
    def test_dry_link(self):
        sc = HazardScenario()
        assert link_passable(flood_of([0.0]), sc, "L0") is True

    def test_boundary_inclusive(self):
        sc = HazardScenario(passable_threshold_in=2.0)
        assert link_passable(flood_of([2.0]), sc, "L0") is True

    def test_deep_flood(self):
        sc = HazardScenario()
        assert link_passable(flood_of([26.0]), sc, "L0") is False

    def test_unknown_link(self):
        sc = HazardScenario()
        with pytest.raises(UnknownLinkError):
            link_passable(flood_of([0.0]), sc, "NOPE")


class TestInitialFlood:
    def test_uniform(self):
        sc = HazardScenario(initial_runoff_in=12.0)
        flood = initial_flood(sc, ["A", "B"])
        assert (flood.depth_in == 12.0).all()
        assert flood.clock == 0

    def test_per_link_with_default(self):
        sc = HazardScenario(initial_runoff_in={"A": 13.0}, runoff_default_in=1.0)
        flood = initial_flood(sc, ["A", "B"])
        assert flood.depth_of("A") == 13.0
        assert flood.depth_of("B") == 1.0

    def test_unknown_link_in_map(self):
        sc = HazardScenario(initial_runoff_in={"Z": 2.0})
        with pytest.raises(UnknownLinkError):
            initial_flood(sc, ["A"])

    def test_negative_depth_rejected(self):
        sc = HazardScenario(initial_runoff_in=-2.0)
        with pytest.raises(ValueError):
            initial_flood(sc, ["A"])

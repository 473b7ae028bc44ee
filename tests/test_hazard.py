"""Wind lookup, drainage arithmetic, and passability conventions."""

import math

import numpy as np
import pytest

from stormgrid.errors import ExtentError, UnknownLinkError
from stormgrid.hazard import (
    HazardScenario,
    WindCell,
    drain_step,
    initial_flood,
    passable_mask,
    wind_at,
)

from .oracles import first_passable_hour


def flood_of(depths):
    return np.array(depths, dtype=float)


def passable(depth, sc):
    """Passability of a single-link flood as a plain bool."""
    (ok,) = passable_mask(depth, sc)
    return bool(ok)


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
        assert after[0] == pytest.approx(12.35)

    def test_floor_at_zero(self):
        sc = HazardScenario()
        after = drain_step(flood_of([0.3]), sc)
        assert after[0] == 0.0

    def test_first_passable_hour_13(self):
        sc = HazardScenario(initial_runoff_in=13.0)
        flood = flood_of([13.0])
        hour = 0
        while not passable(flood, sc):
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
        initial = flood.copy()
        passable_ever = np.zeros(40, dtype=bool)
        for _ in range(60):
            nxt = drain_step(flood, sc)
            assert (nxt <= flood).all()
            assert (nxt <= initial).all()
            assert (nxt >= 0).all()
            now = passable_mask(nxt, sc)
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
            while not passable(flood, sc):
                flood = drain_step(flood, sc)
                hour += 1
            assert hour == expected, (depth, rate, theta)


class TestPassability:
    def test_dry_link(self):
        sc = HazardScenario()
        assert passable(flood_of([0.0]), sc) is True

    def test_boundary_inclusive(self):
        sc = HazardScenario(passable_threshold_in=2.0)
        assert passable(flood_of([2.0]), sc) is True

    def test_deep_flood(self):
        sc = HazardScenario()
        assert passable(flood_of([26.0]), sc) is False


class TestInitialFlood:
    def test_uniform(self):
        sc = HazardScenario(initial_runoff_in=12.0)
        flood = initial_flood(sc, ["A", "B"])
        assert (flood == 12.0).all()

    def test_per_link_with_default(self):
        sc = HazardScenario(initial_runoff_in={"A": 13.0}, runoff_default_in=1.0)
        assert initial_flood(sc, ["A", "B"]).tolist() == [13.0, 1.0]

    def test_unknown_link_in_map(self):
        sc = HazardScenario(initial_runoff_in={"Z": 2.0})
        with pytest.raises(UnknownLinkError):
            initial_flood(sc, ["A"])

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            HazardScenario(initial_runoff_in=-2.0)


NAN, INF = float("nan"), float("inf")


class TestNonFiniteRejected:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wind_mph": NAN},
            {"wind_mph": INF},
            {"wind_mph": [WindCell(0, 0, 10, 10, NAN)]},
            {"wind_mph": [WindCell(0, NAN, 10, 10, 60.0)]},
            {"drainage_in_per_hr": NAN},
            {"drainage_in_per_hr": INF},
            {"passable_threshold_in": NAN},
            {"initial_runoff_in": NAN},
            {"initial_runoff_in": {"A": NAN}},
            {"initial_runoff_in": {"A": 1.0}, "runoff_default_in": INF},
            {"fuel_source_coords": {"P": (NAN, 0.0)}},
        ],
        ids=[
            "wind-nan", "wind-inf", "cell-mph-nan", "cell-bound-nan",
            "drainage-nan", "drainage-inf", "threshold-nan", "runoff-nan",
            "link-runoff-nan", "default-runoff-inf", "fuel-source-nan",
        ],
    )
    def test_scenario_rejects(self, kwargs):
        with pytest.raises(ValueError, match="nan|inf"):
            HazardScenario(**kwargs)

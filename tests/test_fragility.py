"""Failure-probability curves against frozen oracle values, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormgrid.errors import (
    ExtentError,
    FragilityParamError,
    RepairModelError,
    StormGridError,
)
from stormgrid.fragility import (
    FragilityConfig,
    LineFragilityParams,
    RepairModel,
    RepairSpec,
    SubstationFragilityParams,
    p_fail_conductor,
    p_fail_line,
    p_fail_pole,
    p_fail_substation,
    p_fail_tower,
    sample_failures,
    sample_repair,
)
from stormgrid.hazard import HazardScenario, WindCell
from stormgrid.network import ComponentKind, DamageLevel

from .conftest import KIND, make_power
from .oracles import reference_failures

MOD, SEV, COMP = DamageLevel.MODERATE, DamageLevel.SEVERE, DamageLevel.COMPLETE

# Frozen from a 30-digit mpmath evaluation of the closed forms.
TOWER_65 = 4.52210229204e-5
TOWER_115 = 2.92649894305e-3
POLE_65 = 1.54328753957e-3
POLE_115 = 1.26659198107e-2
CONDUCTOR_65 = 1.91193037198e-2
CONDUCTOR_115 = 0.365835616758
LINE_115 = 0.716721311475
SUB_115 = {MOD: 0.16266804796, SEV: 0.0253310103816, COMP: 0.00282937826173}

PLACEHOLDER = SubstationFragilityParams.from_medians(
    {MOD: 140.0, SEV: 170.0, COMP: 200.0}, 0.2
)


class TestCurvePoints:
    def test_tower(self):
        assert p_fail_tower(0) == pytest.approx(2e-7, rel=1e-12)
        assert p_fail_tower(65) == pytest.approx(TOWER_65, rel=1e-10)
        assert p_fail_tower(115) == pytest.approx(TOWER_115, rel=1e-10)

    def test_pole(self):
        assert p_fail_pole(0) == pytest.approx(1e-4, rel=1e-12)
        assert p_fail_pole(65) == pytest.approx(POLE_65, rel=1e-10)
        assert p_fail_pole(115) == pytest.approx(POLE_115, rel=1e-10)

    def test_conductor(self):
        assert p_fail_conductor(0) == 0.0
        assert p_fail_conductor(65) == pytest.approx(CONDUCTOR_65, rel=1e-10)
        assert p_fail_conductor(115) == pytest.approx(CONDUCTOR_115, rel=1e-10)

    def test_line(self):
        params = LineFragilityParams(67.1, 134.2)
        assert p_fail_line(65, params) == 0.01
        assert p_fail_line(140, params) == 1.0
        assert p_fail_line(115, params) == pytest.approx(LINE_115, rel=1e-10)

    def test_substation_placeholder_at_115(self):
        probs = p_fail_substation(115, PLACEHOLDER)
        for level, expected in SUB_115.items():
            assert probs[level] == pytest.approx(expected, rel=1e-9)

    def test_substation_at_zero(self):
        probs = p_fail_substation(0, PLACEHOLDER)
        assert all(p == 0.0 for p in probs.values())

    def test_substation_median(self):
        # At the moderate-level median wind the exceedance is exactly one half.
        x = math.exp(PLACEHOLDER.mu[MOD])
        assert p_fail_substation(x, PLACEHOLDER)[MOD] == pytest.approx(0.5, abs=1e-12)

    def test_negative_wind_rejected(self):
        for fn in (p_fail_tower, p_fail_pole, p_fail_conductor):
            with pytest.raises(ValueError):
                fn(-1)


class TestCurveProperties:
    XS = np.linspace(0.0, 250.0, 10_000)

    def _check_monotone_bounded(self, values):
        values = np.asarray(values)
        assert (values >= 0).all() and (values <= 1).all()
        assert (np.diff(values) >= -1e-15).all()

    def test_tower_pole_conductor_monotone(self):
        self._check_monotone_bounded([p_fail_tower(x) for x in self.XS])
        self._check_monotone_bounded([p_fail_pole(x) for x in self.XS])
        self._check_monotone_bounded([p_fail_conductor(x) for x in self.XS])

    def test_line_monotone(self):
        params = LineFragilityParams()
        self._check_monotone_bounded([p_fail_line(x, params) for x in self.XS])

    def test_substation_monotone_and_nested(self):
        per_level = {lv: [] for lv in DamageLevel}
        for x in self.XS:
            probs = p_fail_substation(float(x), PLACEHOLDER)
            for lv, p in probs.items():
                per_level[lv].append(p)
            assert probs[COMP] <= probs[SEV] <= probs[MOD]
        for lv in DamageLevel:
            self._check_monotone_bounded(per_level[lv])

    def test_crossing_curves_rejected(self):
        with pytest.raises(FragilityParamError):
            SubstationFragilityParams.from_medians(
                {MOD: 140.0, SEV: 170.0, COMP: 200.0},
                {MOD: 0.2, SEV: 0.2, COMP: 2.0},
            )

    @pytest.mark.parametrize(
        "median,sd",
        [(math.nan, 0.2), (math.inf, 0.2), (140.0, math.nan), (0.0, 0.2), (-140.0, 0.2)],
    )
    def test_non_finite_substation_params_rejected(self, median, sd):
        with pytest.raises(FragilityParamError, match="finite"):
            SubstationFragilityParams.from_medians(
                {MOD: median, SEV: 170.0, COMP: 200.0}, {MOD: sd, SEV: 0.2, COMP: 0.2}
            )

    def test_line_params_ordering(self):
        with pytest.raises(FragilityParamError):
            LineFragilityParams(100.0, 50.0)


class _ZeroRng:
    """Stub stream returning r = 0 for every draw."""

    def random(self, n):
        return np.zeros(n)


class _OneRng:
    """Stub stream returning r = 1 for every draw: nothing fails."""

    def random(self, n):
        return np.ones(n)


class TestSampleFailures:
    def _net(self, comps):
        net, _ = make_power(comps, [])
        return net

    def test_wind_zero_conductors_never_fail(self):
        comps = [(f"C{i}", "conductor", 0, 0) for i in range(500)]
        net = self._net(comps)
        failed = sample_failures(
            net, HazardScenario(wind_mph=0.0), FragilityConfig(),
            np.random.default_rng(1),
        )
        assert failed == []

    def test_zero_stream_fails_everything_with_positive_probability(self):
        comps = [
            ("P", "plant", 0, 0),
            ("S", "substation", 0, 0),
            ("T", "tower", 0, 0),
            ("L", "line", 0, 0),
            ("D", "pole", 0, 0),
            ("C", "conductor", 0, 0),
        ]
        net = self._net(comps)
        failed = sample_failures(
            net, HazardScenario(wind_mph=65.0), FragilityConfig(), _ZeroRng()
        )
        # Everything but the plant has positive probability at 65 mph.
        assert sorted(failed) == ["C", "D", "L", "S", "T"]
        assert net.components["S"].damage_level is DamageLevel.COMPLETE
        assert net.components["P"].damage_level is None

    def test_pole_failure_rate_matches_curve(self):
        n = 10_000
        net = self._net([(f"D{i}", "pole", 0, 0) for i in range(n)])
        failed = sample_failures(
            net, HazardScenario(wind_mph=115.0), FragilityConfig(),
            np.random.default_rng(123),
        )
        p = POLE_115
        sd = math.sqrt(n * p * (1 - p))
        assert abs(len(failed) - n * p) <= 3 * sd

    def test_redraw_clears_substation_damage(self):
        # each draw sets every substation's level, so no reset is needed
        net = self._net([("S", "substation", 0, 0)])
        config, sc = FragilityConfig(), HazardScenario(wind_mph=65.0)
        assert sample_failures(net, sc, config, _ZeroRng()) == ["S"]
        assert net.components["S"].damage_level is DamageLevel.COMPLETE
        assert sample_failures(net, sc, config, _OneRng()) == []
        assert net.components["S"].damage_level is None

    def test_same_seed_same_failures(self):
        comps = [(f"C{i}", "conductor", 0, 0) for i in range(300)]
        out = []
        for _ in range(2):
            net = self._net(comps)
            out.append(
                sample_failures(
                    net, HazardScenario(wind_mph=115.0), FragilityConfig(),
                    np.random.default_rng(42),
                )
            )
        assert out[0] == out[1]

    @pytest.mark.parametrize(
        "kind,wind,p",
        [
            ("tower", 115.0, TOWER_115),
            ("pole", 115.0, POLE_115),
            ("conductor", 65.0, CONDUCTOR_65),
            ("conductor", 115.0, CONDUCTOR_115),
            ("line", 115.0, LINE_115),
        ],
    )
    def test_empirical_frequency_matches_curve(self, kind, wind, p):
        n = 100_000
        net = self._net([(f"X{i}", kind, 0, 0) for i in range(n)])
        failed = sample_failures(
            net, HazardScenario(wind_mph=wind), FragilityConfig(),
            np.random.default_rng(2718),
        )
        sd = math.sqrt(n * p * (1 - p))
        assert abs(len(failed) - n * p) <= 3 * sd, (kind, wind, len(failed))

    def test_substation_level_frequencies(self):
        n = 100_000
        net = self._net([(f"S{i}", "substation", 0, 0) for i in range(n)])
        sample_failures(
            net, HazardScenario(wind_mph=115.0), FragilityConfig(),
            np.random.default_rng(31415),
        )
        counts = {lv: 0 for lv in DamageLevel}
        for comp in net.components.values():
            if comp.damage_level is not None:
                counts[comp.damage_level] += 1
        expected = {
            DamageLevel.MODERATE: SUB_115[MOD] - SUB_115[SEV],
            DamageLevel.SEVERE: SUB_115[SEV] - SUB_115[COMP],
            DamageLevel.COMPLETE: SUB_115[COMP],
        }
        for lv, p in expected.items():
            sd = math.sqrt(n * p * (1 - p))
            assert abs(counts[lv] - n * p) <= 3 * sd, (lv, counts[lv], n * p)

    def test_failures_monotone_in_wind(self):
        # One r per component, reused across winds: failure sets nest.
        comps = [(f"C{i}", "conductor", 0, 0) for i in range(400)]
        sets = {}
        for wind in (65.0, 115.0):
            net = self._net(comps)
            sets[wind] = set(
                sample_failures(
                    net, HazardScenario(wind_mph=wind), FragilityConfig(),
                    np.random.default_rng(7),
                )
            )
        assert sets[65.0] <= sets[115.0]

    def test_first_cell_inclusive_bounds_and_extent(self):
        cells = [WindCell(0, 0, 10, 10, 0.0), WindCell(0, 0, 20, 20, 250.0)]
        sc = HazardScenario(wind_mph=cells)
        comps = [
            ("P", "plant", 99, 99),  # plants need no wind cell
            ("IN", "conductor", 5, 5),  # first cell wins: calm
            ("EDGE", "conductor", 10, 10),  # bounds inclusive: still calm
            ("OUT", "conductor", 10.5, 10),  # only the second cell: fails
        ]
        net = self._net(comps)
        assert sample_failures(net, sc, FragilityConfig(), _ZeroRng()) == ["OUT"]
        net = self._net(comps + [("FAR", "pole", 20, 20.5)])
        with pytest.raises(ExtentError, match=r"location \(20.0, 20.5\) outside"):
            sample_failures(net, sc, FragilityConfig(), _ZeroRng())

    def test_fails_only_where_probability_exceeds_draw(self):
        # At 0 mph conductors have probability 0, so r = 0 spares them.
        net = self._net([("P", "plant", 0, 0), ("C", "conductor", 0, 0),
                         ("D", "pole", 0, 0), ("L", "line", 0, 0)])
        failed = sample_failures(
            net, HazardScenario(wind_mph=0.0), FragilityConfig(), _ZeroRng()
        )
        assert failed == ["D", "L"]


# Low medians and an early line ramp, so substations and lines fail at
# moderate winds too.
_FRAGILE = FragilityConfig(
    substation=SubstationFragilityParams.from_medians(
        {MOD: 60.0, SEV: 90.0, COMP: 120.0}, 0.3
    ),
    line=LineFragilityParams(40.0, 90.0),
)
# Cells start at 0 or 10 and span 0, 10 or 20; component coordinates lie on
# those bounds, between them and outside every cell unless a backdrop cell
# spans the whole plot.
_COORDS = [5.0, 10.0, 0.0, 20.0, 15.0, 30.0, -5.0, 35.0]
# 0 and 250 mph separate the outcomes of most kinds for any uniform draw.
_MPH = st.one_of(st.sampled_from([250.0, 0.0, 65, 115.0]), st.floats(0, 250))


@st.composite
def _wind_cells(draw):
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        x0, y0 = (draw(st.sampled_from([0.0, 10.0])) for _ in range(2))
        w, h = (draw(st.sampled_from([10.0, 20.0, 0.0])) for _ in range(2))
        cells.append(WindCell(x0, y0, x0 + w, y0 + h, draw(_MPH)))
    if draw(st.booleans()):
        cells.append(WindCell(-10.0, -10.0, 40.0, 40.0, draw(_MPH)))
    return cells


def _draw_outcome(sample, comps, scenario, config, seed):
    """Failed ids and every damage level of one draw, or the error it raised."""
    net, _ = make_power(comps, [])
    try:
        failed = sample(net, scenario, config, np.random.default_rng(seed))
    except StormGridError as exc:
        return type(exc), str(exc)
    return failed, {cid: c.damage_level for cid, c in net.components.items()}


class TestSampleFailuresMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(sorted(KIND)), min_size=1, max_size=30),
        data=st.data(),
        wind=st.one_of(_MPH, _wind_cells()),
        config=st.sampled_from([FragilityConfig(), _FRAGILE]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_ids_levels_and_errors(self, kinds, data, wind, config, seed):
        xy = st.sampled_from(_COORDS)
        comps = [
            (f"C{i}", kind, data.draw(xy), data.draw(xy))
            for i, kind in enumerate(kinds)
        ]
        scenario = HazardScenario(wind_mph=wind)
        want = _draw_outcome(reference_failures, comps, scenario, config, seed)
        got = _draw_outcome(sample_failures, comps, scenario, config, seed)
        assert got == want


class _MeanRng:
    """Stub stream whose normal draws sit exactly at the mean."""

    def normal(self, mean, sd):
        return mean


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def normal(self, mean, sd):
        return self.value


def _spec(kind, damage=None):
    return RepairModel().spec_for(KIND[kind], damage)


class TestSampleRepair:
    def test_severe_substation_at_mean(self):
        spec = _spec("substation", SEV)
        assert (sample_repair(spec, _MeanRng()), spec.crews) == (168, 14)

    def test_conductor_at_mean(self):
        spec = _spec("conductor")
        assert (sample_repair(spec, _MeanRng()), spec.crews) == (4, 1)

    def test_truncation_floor(self):
        assert sample_repair(_spec("pole"), _FixedRng(-3.0)) == 1

    def test_rounds_up_to_whole_hours(self):
        assert sample_repair(_spec("pole"), _FixedRng(4.2)) == 5

    def test_missing_row(self):
        model = RepairModel(rows={(ComponentKind.POLE, None): RepairSpec(5, 2.5, 1)})
        with pytest.raises(RepairModelError):
            model.spec_for(ComponentKind.CONDUCTOR, None)

    def test_sampled_mean_near_configured_mean(self):
        # Truncation at 1 h and ceiling bias the pole mean upward slightly;
        # it must stay within 5% plus the half-hour rounding shift.
        spec = _spec("pole")
        rng = np.random.default_rng(99)
        n = 100_000
        draws = [sample_repair(spec, rng) for _ in range(n)]
        mean = np.mean(draws)
        assert mean >= 1.0
        assert abs(mean - (5.0 + 0.5)) / 5.0 < 0.05

    def test_all_durations_at_least_one_hour(self):
        spec = _spec("conductor")
        rng = np.random.default_rng(3)
        assert min(sample_repair(spec, rng) for _ in range(5000)) >= 1

    @pytest.mark.parametrize(
        "mean,sd", [(math.nan, 1.0), (math.inf, 1.0), (5.0, math.nan), (5.0, math.inf)]
    )
    def test_non_finite_spec_rejected(self, mean, sd):
        with pytest.raises(RepairModelError, match="nan|inf"):
            RepairSpec(mean, sd, 1)


class TestRepairModelTable:
    @pytest.mark.parametrize(
        "kind,damage,mean,sd,crews",
        [
            ("substation", MOD, 72, 36, 6),
            ("substation", SEV, 168, 84, 14),
            ("substation", COMP, 720, 360, 60),
            ("tower", None, 72, 36, 6),
            ("line", None, 48, 24, 4),
            ("pole", None, 5, 2.5, 1),
            ("conductor", None, 4, 2, 1),
        ],
    )
    def test_default_rows(self, kind, damage, mean, sd, crews):
        spec = RepairModel().spec_for(KIND[kind], damage)
        assert (spec.mean_hr, spec.sd_hr, spec.crews) == (mean, sd, crews)

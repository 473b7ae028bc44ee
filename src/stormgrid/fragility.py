"""Wind fragility curves, failure sampling, and repair-time assignment.

Five curve families cover the failable component kinds: a lognormal
exceedance family for substations (three nested damage levels), empirical
exponential curves for towers and distribution poles, a power law for
conductors, and a piecewise-linear ramp for transmission lines. Each failed
component then draws a normally distributed repair duration and a fixed crew
requirement from the repair model.

The substation curve medians shipped as defaults are documented placeholders
(the published source tables are proprietary); override them per scenario
when calibrated values are available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FragilityParamError, RepairModelError
from .hazard import HazardScenario, wind_at
from .network import KINDS, ComponentKind, DamageLevel, PowerNetwork

#: m/s to mph conversion used for the transmission-line ramp defaults.
MS_TO_MPH = 2.23694

#: Placeholder lognormal medians (mph) and log-sd for substation damage
#: levels. Not calibrated values; configure per scenario for real studies.
DEFAULT_SUBSTATION_MEDIANS_MPH = {
    DamageLevel.MODERATE: 140.0,
    DamageLevel.SEVERE: 170.0,
    DamageLevel.COMPLETE: 200.0,
}
DEFAULT_SUBSTATION_LOG_SD = 0.2

#: Transmission-line ramp thresholds: 30 and 60 m/s converted to mph.
DEFAULT_LINE_CRITICAL_MPH = 67.1
DEFAULT_LINE_COLLAPSE_MPH = 134.2

_LEVELS_BY_SEVERITY = (DamageLevel.MODERATE, DamageLevel.SEVERE, DamageLevel.COMPLETE)


def _lognormal_cdf(x: float, mu: float, sigma: float) -> float:
    if x <= 0.0:
        return 0.0
    z = (math.log(x) - mu) / sigma
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class SubstationFragilityParams:
    """Lognormal (log-mean, log-sd) per damage level, nested by severity."""

    mu: dict[DamageLevel, float]
    sigma: dict[DamageLevel, float]

    def __post_init__(self):
        for level in _LEVELS_BY_SEVERITY:
            if level not in self.mu or level not in self.sigma:
                raise FragilityParamError(f"missing parameters for level {level.value}")
            if not math.isfinite(self.mu[level]):
                raise FragilityParamError(
                    f"median must be finite for level {level.value}"
                )
            if not 0 < self.sigma[level] < math.inf:
                raise FragilityParamError(
                    f"sigma must be finite and > 0 for level {level.value}, "
                    f"got {self.sigma[level]}"
                )
        # Exceedance curves must not cross: complete <= severe <= moderate
        # at every wind speed in the supported range.
        for x in np.linspace(0.0, 250.0, 2501):
            probs = [
                _lognormal_cdf(float(x), self.mu[lv], self.sigma[lv])
                for lv in _LEVELS_BY_SEVERITY
            ]
            if not (probs[2] <= probs[1] + 1e-12 and probs[1] <= probs[0] + 1e-12):
                raise FragilityParamError(
                    f"damage-level curves cross at {x:.1f} mph: "
                    f"moderate={probs[0]:.3g} severe={probs[1]:.3g} complete={probs[2]:.3g}"
                )

    @classmethod
    def from_medians(
        cls,
        medians_mph: dict[DamageLevel, float] | None = None,
        log_sd: float | dict[DamageLevel, float] = DEFAULT_SUBSTATION_LOG_SD,
    ) -> "SubstationFragilityParams":
        medians = medians_mph or DEFAULT_SUBSTATION_MEDIANS_MPH
        if isinstance(log_sd, dict):
            sigma = dict(log_sd)
        else:
            sigma = {lv: float(log_sd) for lv in _LEVELS_BY_SEVERITY}
        for lv in _LEVELS_BY_SEVERITY:
            if not 0 < medians[lv] < math.inf:
                raise FragilityParamError(
                    f"median must be finite and > 0 for level {lv.value}, "
                    f"got {medians[lv]}"
                )
        mu = {lv: math.log(medians[lv]) for lv in _LEVELS_BY_SEVERITY}
        return cls(mu=mu, sigma=sigma)


@dataclass(frozen=True)
class LineFragilityParams:
    """Transmission-line ramp thresholds in mph."""

    w_critical: float = DEFAULT_LINE_CRITICAL_MPH
    w_collapse: float = DEFAULT_LINE_COLLAPSE_MPH

    def __post_init__(self):
        if not (0 < self.w_critical < self.w_collapse):
            raise FragilityParamError(
                f"need 0 < w_critical < w_collapse, got "
                f"({self.w_critical}, {self.w_collapse})"
            )


@dataclass(frozen=True)
class FragilityConfig:
    substation: SubstationFragilityParams = field(
        default_factory=SubstationFragilityParams.from_medians
    )
    line: LineFragilityParams = field(default_factory=LineFragilityParams)


def p_fail_substation(
    x: float, params: SubstationFragilityParams
) -> dict[DamageLevel, float]:
    """Exceedance probability of reaching each damage level at wind x (mph)."""
    if x < 0:
        raise ValueError("wind speed must be >= 0")
    return {
        lv: _lognormal_cdf(x, params.mu[lv], params.sigma[lv])
        for lv in _LEVELS_BY_SEVERITY
    }


def p_fail_tower(x: float) -> float:
    """Transmission tower failure probability at wind x (mph)."""
    if x < 0:
        raise ValueError("wind speed must be >= 0")
    return min(2e-7 * math.exp(0.0834 * x), 1.0)


def p_fail_line(x: float, params: LineFragilityParams) -> float:
    """Transmission line failure probability: 0.01 floor, linear ramp, 1 cap."""
    if x < 0:
        raise ValueError("wind speed must be >= 0")
    if x < params.w_critical:
        return 0.01
    if x > params.w_collapse:
        return 1.0
    span = params.w_collapse - params.w_critical
    return 0.01 + (1.0 - 0.01) * (x - params.w_critical) / span


def p_fail_pole(x: float) -> float:
    """Distribution pole failure probability at wind x (mph)."""
    if x < 0:
        raise ValueError("wind speed must be >= 0")
    return min(1e-4 * math.exp(0.0421 * x), 1.0)


def p_fail_conductor(x: float) -> float:
    """Conductor failure probability at wind x (mph)."""
    if x < 0:
        raise ValueError("wind speed must be >= 0")
    return min(8e-12 * x**5.1731, 1.0)


# ---------------------------------------------------------------------------
# Repair model


@dataclass(frozen=True)
class RepairSpec:
    mean_hr: float
    sd_hr: float
    crews: int

    def __post_init__(self):
        if not 0 < self.mean_hr < math.inf:
            raise RepairModelError(
                f"repair mean must be finite and > 0 hours, got {self.mean_hr}"
            )
        if not 0 <= self.sd_hr < math.inf:
            raise RepairModelError(
                f"repair sd must be finite and >= 0, got {self.sd_hr}"
            )
        if self.crews < 1:
            raise RepairModelError("crews required must be >= 1")


def _default_rows() -> dict:
    return {
        (ComponentKind.SUBSTATION, DamageLevel.MODERATE): RepairSpec(72.0, 36.0, 6),
        (ComponentKind.SUBSTATION, DamageLevel.SEVERE): RepairSpec(168.0, 84.0, 14),
        (ComponentKind.SUBSTATION, DamageLevel.COMPLETE): RepairSpec(720.0, 360.0, 60),
        (ComponentKind.TOWER, None): RepairSpec(72.0, 36.0, 6),
        (ComponentKind.LINE, None): RepairSpec(48.0, 24.0, 4),
        (ComponentKind.POLE, None): RepairSpec(5.0, 2.5, 1),
        (ComponentKind.CONDUCTOR, None): RepairSpec(4.0, 2.0, 1),
    }


@dataclass(frozen=True)
class RepairModel:
    """Normal repair-duration parameters and crew needs per (kind, damage)."""

    rows: dict[tuple[ComponentKind, DamageLevel | None], RepairSpec] = field(
        default_factory=_default_rows
    )

    def spec_for(self, kind: ComponentKind, damage: DamageLevel | None) -> RepairSpec:
        key = (kind, damage if kind is ComponentKind.SUBSTATION else None)
        try:
            return self.rows[key]
        except KeyError:
            name = damage.value if damage else "-"
            raise RepairModelError(
                f"no repair row for kind={kind.value} damage={name}"
            ) from None


def sample_repair(spec: RepairSpec, rng: np.random.Generator) -> int:
    """Draw the repair duration in hours for a failed component's spec.

    Durations are normal draws truncated below at one hour and rounded up to
    whole hours, because the simulation clock is hourly.
    """
    raw = rng.normal(spec.mean_hr, spec.sd_hr)
    return max(1, math.ceil(raw))


# ---------------------------------------------------------------------------
# Failure sampling


def failure_probability(
    kind: ComponentKind, x: float, config: FragilityConfig
) -> float:
    """Probability that a component of this kind fails at all at wind x (mph)."""
    if kind is ComponentKind.PLANT:
        return 0.0
    if kind is ComponentKind.SUBSTATION:
        return p_fail_substation(x, config.substation)[DamageLevel.MODERATE]
    if kind is ComponentKind.TOWER:
        return p_fail_tower(x)
    if kind is ComponentKind.LINE:
        return p_fail_line(x, config.line)
    if kind is ComponentKind.POLE:
        return p_fail_pole(x)
    return p_fail_conductor(x)


def _component_winds(net: PowerNetwork, scenario: HazardScenario) -> np.ndarray:
    """Wind (mph) at every component: the first cell containing it, bounds
    inclusive. A non-plant component outside every cell raises the
    :class:`ExtentError` of :func:`wind_at`; plants need no wind."""
    idx = net.index
    if isinstance(scenario.wind_mph, (int, float)):
        return np.full(len(idx.ids), float(scenario.wind_mph))
    x, y = idx.location.T
    wind = np.full(len(idx.ids), np.nan)
    for cell in reversed(scenario.wind_mph):  # earlier cells overwrite later
        inside = (cell.x_min <= x) & (x <= cell.x_max)
        inside &= (cell.y_min <= y) & (y <= cell.y_max)
        wind[inside] = float(cell.mph)
    outside = np.isnan(wind) & (idx.kind != KINDS.index(ComponentKind.PLANT))
    if outside.any():
        first = net.components[idx.ids[np.argmax(outside)]]
        wind_at(scenario, first.location)  # raises: no cell holds it
    return wind


def sample_failures(
    net: PowerNetwork,
    scenario: HazardScenario,
    config: FragilityConfig,
    rng: np.random.Generator,
) -> list[str]:
    """One-shot failure draw for every non-plant component against peak wind.

    Each component compares one uniform r to its curve value; a component
    fails when the probability strictly exceeds r. A substation takes the
    most severe damage level whose exceedance probability beats the same r.
    One r is consumed per component (plants included) so the draw for a given
    component is identical across wind intensities under the same stream.
    The curves are evaluated once per kind and distinct wind speed.

    Every substation's ``damage_level`` is set by each draw (``None`` when
    it survives); no other component is written.

    Returns the failed component ids in network order.
    """
    idx = net.index
    draws = rng.random(len(idx.ids))
    wind = _component_winds(net, scenario)
    failed = np.zeros(len(idx.ids), dtype=bool)
    for code in np.unique(idx.kind).tolist():
        kind = KINDS[code]
        if kind is ComponentKind.PLANT:
            continue
        members = np.flatnonzero(idx.kind == code)
        winds, at = np.unique(wind[members], return_inverse=True)
        r = draws[members]
        if kind is ComponentKind.SUBSTATION:
            probs = [p_fail_substation(w, config.substation) for w in winds.tolist()]
            table = np.array([[p[lv] for lv in _LEVELS_BY_SEVERITY] for p in probs])
            beats = table[at] > r[:, None]
            failed[members] = beats.any(axis=1)
            for c, row in zip(members.tolist(), beats.tolist()):
                hits = [lv for lv, hit in zip(_LEVELS_BY_SEVERITY, row) if hit]
                net.components[idx.ids[c]].damage_level = hits[-1] if hits else None
        else:
            p = [failure_probability(kind, w, config) for w in winds.tolist()]
            failed[members] = np.array(p)[at] > r
    return [idx.ids[c] for c in np.flatnonzero(failed)]

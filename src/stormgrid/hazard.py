"""Hazard scenario state: wind field, per-link flood depths, hourly drainage.

Wind is static for a whole replication (failure sampling is a one-shot draw
against peak wind); flooding is dynamic, draining at a fixed rate each hour
until road links drop back below the passability threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtentError, UnknownLinkError

DEFAULT_DRAINAGE_IN_PER_HR = 0.65
DEFAULT_PASSABLE_THRESHOLD_IN = 2.0


@dataclass(frozen=True)
class WindCell:
    """Axis-aligned rectangle with a uniform wind speed, bounds inclusive."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    mph: float

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass
class HazardScenario:
    """One hurricane scenario: wind, initial runoff, drainage, coupling toggles.

    ``wind_mph`` is either a uniform scalar or a list of :class:`WindCell`.
    ``initial_runoff_in`` is either a uniform depth applied to every road link
    or a per-link-id map (missing links default to ``runoff_default_in``).
    """

    wind_mph: float | list[WindCell] = 0.0
    initial_runoff_in: float | dict[str, float] = 0.0
    runoff_default_in: float = 0.0
    drainage_in_per_hr: float = DEFAULT_DRAINAGE_IN_PER_HR
    passable_threshold_in: float = DEFAULT_PASSABLE_THRESHOLD_IN
    fuel_dependence: bool = True
    crew_access_dependence: bool = True
    # Optional per-plant fuel-source coordinates; when set they override the
    # fuel records of the coupling file (resolved to the nearest road node).
    fuel_source_coords: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.wind_mph, (int, float)):
            _check_range("wind_mph", self.wind_mph)
        else:
            for cell in self.wind_mph:
                if not (
                    0 <= cell.mph < math.inf
                    and -math.inf < cell.x_min <= cell.x_max < math.inf
                    and -math.inf < cell.y_min <= cell.y_max < math.inf
                ):
                    raise ValueError(
                        f"bad wind cell {cell}: needs finite bounds and mph >= 0, "
                        "min <= max"
                    )
        _check_range("drainage_in_per_hr", self.drainage_in_per_hr, positive=True)
        _check_range("passable_threshold_in", self.passable_threshold_in)
        runoff = self.initial_runoff_in
        if isinstance(runoff, dict):
            for lid, depth in runoff.items():
                _check_range(f"runoff for link {lid}", depth)
            _check_range("default runoff", self.runoff_default_in)
        else:
            _check_range("runoff", runoff)
        for plant, xy in self.fuel_source_coords.items():
            if not all(map(math.isfinite, xy)):
                raise ValueError(f"fuel source of {plant} must be finite, got {xy}")


def _check_range(name: str, value: float, positive: bool = False) -> None:
    """Raise unless ``value`` is finite and >= 0 (> 0 when ``positive``)."""
    if not ((0 < value) if positive else (0 <= value)) or not value < math.inf:
        bound = ">" if positive else ">="
        raise ValueError(f"{name} must be finite and {bound} 0, got {value}")


def wind_at(scenario: HazardScenario, location: tuple[float, float]) -> float:
    """Wind speed (mph) at a planar location.

    Uniform scenarios return the scalar everywhere; gridded scenarios return
    the first cell containing the point and raise :class:`ExtentError` when
    the point lies outside every cell.
    """
    if isinstance(scenario.wind_mph, (int, float)):
        return float(scenario.wind_mph)
    x, y = location
    for cell in scenario.wind_mph:
        if cell.contains(x, y):
            return float(cell.mph)
    raise ExtentError(f"location ({x}, {y}) outside all wind cells")


def initial_flood(scenario: HazardScenario, link_ids: list[str]) -> np.ndarray:
    """Hour-0 flood depth (inches) per road link, aligned with ``link_ids``."""
    runoff = scenario.initial_runoff_in
    if isinstance(runoff, (int, float)):
        return np.full(len(link_ids), float(runoff))
    unknown = set(runoff) - set(link_ids)
    if unknown:
        raise UnknownLinkError(
            f"runoff map names unknown road link(s): {sorted(unknown)[:5]}"
        )
    default = float(scenario.runoff_default_in)
    return np.array([float(runoff.get(lid, default)) for lid in link_ids])


def drain_step(depth_in: np.ndarray, scenario: HazardScenario) -> np.ndarray:
    """Depths one hour later: every depth drops by the drainage rate, floored at 0."""
    return np.maximum(depth_in - scenario.drainage_in_per_hr, 0.0)


def passable_mask(depth_in: np.ndarray, scenario: HazardScenario) -> np.ndarray:
    """Boolean mask over road links: depth at or below the threshold.

    The boundary is inclusive: a link at exactly the threshold is usable.
    """
    return depth_in <= scenario.passable_threshold_in

"""Hazard scenario state: wind field, per-link flood depths, hourly drainage.

Wind is static for a whole replication (failure sampling is a one-shot draw
against peak wind); flooding is dynamic, draining at a fixed rate each hour
until road links drop back below the passability threshold.
"""

from __future__ import annotations

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
            if self.wind_mph < 0:
                raise ValueError(f"wind_mph must be >= 0, got {self.wind_mph}")
        else:
            for cell in self.wind_mph:
                if cell.mph < 0 or cell.x_min > cell.x_max or cell.y_min > cell.y_max:
                    raise ValueError(f"bad wind cell {cell}: needs mph >= 0, min <= max")
        if self.drainage_in_per_hr <= 0:
            raise ValueError("drainage_in_per_hr must be > 0")
        if self.passable_threshold_in < 0:
            raise ValueError("passable_threshold_in must be >= 0")


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


@dataclass
class FloodState:
    """Current flood depth (inches) per road link, plus the hour clock.

    Depths are stored as a dense array aligned with ``link_ids``; they never
    exceed the initial runoff and never go below zero.
    """

    link_ids: list[str]
    depth_in: np.ndarray
    clock: int = 0
    _index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = {lid: i for i, lid in enumerate(self.link_ids)}

    def depth_of(self, link_id: str) -> float:
        try:
            return float(self.depth_in[self._index[link_id]])
        except KeyError:
            raise UnknownLinkError(f"unknown road link {link_id!r}") from None

    def passable_mask(self, threshold_in: float) -> np.ndarray:
        """Boolean array over ``link_ids``: depth at or below the threshold."""
        return self.depth_in <= threshold_in

    def passable_count(self, threshold_in: float) -> int:
        return int(self.passable_mask(threshold_in).sum())


def initial_flood(scenario: HazardScenario, link_ids: list[str]) -> FloodState:
    """Build the hour-0 flood state for a set of road links."""
    runoff = scenario.initial_runoff_in
    if isinstance(runoff, (int, float)):
        depths = np.full(len(link_ids), float(runoff))
    else:
        unknown = set(runoff) - set(link_ids)
        if unknown:
            raise UnknownLinkError(
                f"runoff map names unknown road link(s): {sorted(unknown)[:5]}"
            )
        default = float(scenario.runoff_default_in)
        depths = np.array([float(runoff.get(lid, default)) for lid in link_ids])
    if (depths < 0).any():
        raise ValueError("runoff depths must be >= 0")
    return FloodState(link_ids=link_ids, depth_in=depths, clock=0)


def drain_step(flood: FloodState, scenario: HazardScenario) -> FloodState:
    """Advance the flood one hour: every depth drops by the drainage rate."""
    depths = np.maximum(flood.depth_in - scenario.drainage_in_per_hr, 0.0)
    return FloodState(
        link_ids=flood.link_ids,
        depth_in=depths,
        clock=flood.clock + 1,
        _index=flood._index,
    )


def link_passable(flood: FloodState, scenario: HazardScenario, link_id: str) -> bool:
    """True when the link's current depth is at or below the threshold.

    The boundary is inclusive: a link at exactly the threshold is usable.
    """
    return flood.depth_of(link_id) <= scenario.passable_threshold_in


def first_passable_hour(depth_in: float, scenario: HazardScenario) -> int:
    """Hour at which a link with the given initial depth becomes passable."""
    excess = depth_in - scenario.passable_threshold_in
    if excess <= 0:
        return 0
    return int(np.ceil(excess / scenario.drainage_in_per_hr))

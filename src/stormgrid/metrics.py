"""Resilience metrics over hourly quality series.

Quality Q(t) is the fraction of households (or traffic lights) with power at
hour t. Transient resilience loss (TRL) integrates 1 - Q(t) from disruption
to full restoration with left rectangles on the hourly grid; maximum possible
resilience (MPR) is the undisrupted baseline (Q = 1) over the same horizon,
so TRL/MPR is the fraction of resilience lost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, UndefinedImprovementError


@dataclass
class QualitySeries:
    """Hourly quality samples from t0 until restoration completes at t1."""

    samples: list[tuple[int, float]]
    t0: int
    t1: int

    def __post_init__(self):
        if not self.samples:
            raise ValueError("quality series cannot be empty")
        hours = [h for h, _ in self.samples]
        if hours[0] != self.t0:
            raise ValueError("first sample must be at t0")
        for prev, cur in zip(hours, hours[1:]):
            if cur != prev + 1:
                raise ValueError("sample hours must increase by exactly 1")
        for _, q in self.samples:
            if not (0.0 <= q <= 1.0 + 1e-12):
                raise ValueError(f"quality out of [0, 1]: {q}")

    def values(self) -> np.ndarray:
        return np.array([q for _, q in self.samples])

    def time_averaged(self) -> float:
        return float(self.values().mean())


def resilience_loss(series: QualitySeries) -> float:
    """Transient resilience loss: sum of (1 - Q(t)) for t in [t0, t1)."""
    total = 0.0
    for hour, q in series.samples:
        if series.t0 <= hour < series.t1:
            total += 1.0 - q
    return total


def max_possible_resilience(horizon_hours: float) -> float:
    """Baseline resilience over the horizon: quality 1 integrated over it."""
    if horizon_hours <= 0:
        raise ValueError("horizon must be > 0 hours")
    return float(horizon_hours)


def improvement_pct(loss_strategy: float, loss_baseline: float) -> float:
    """Relative reduction in resilience loss versus the baseline strategy."""
    if loss_baseline == 0:
        raise UndefinedImprovementError(
            "baseline resilience loss is zero; improvement is undefined"
        )
    return (loss_baseline - loss_strategy) / loss_baseline * 100.0


DEFAULT_QUANTILE_LEVELS = (0.75, 0.90, 1.0)


def restoration_quantiles(
    series: QualitySeries, levels: tuple[float, ...] = DEFAULT_QUANTILE_LEVELS
) -> dict[float, int]:
    """Hours from t0 until quality first reaches each level."""
    out: dict[float, int] = {}
    for level in levels:
        for hour, q in series.samples:
            if q >= level - 1e-12:
                out[level] = hour - series.t0
                break
        else:
            raise ValueError(f"series never reaches quality {level}")
    return out


@dataclass
class ResilienceSummary:
    """Aggregated strategy outcome across replications."""

    trl: float
    mpr: float
    trl_over_mpr_pct: float
    restoration_hours: dict[float, float]
    lights_restoration_hours_100: float
    improvement_pct: float | None = None
    replications: int = 0
    ci_halfwidth: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.trl <= self.mpr + 1e-9):
            raise ValueError(
                f"resilience loss {self.trl} outside [0, MPR={self.mpr}]"
            )
        levels = sorted(self.restoration_hours)
        hours = [self.restoration_hours[lv] for lv in levels]
        for a, b in zip(hours, hours[1:]):
            if b < a - 1e-9:
                raise ValueError("restoration hours must be non-decreasing in level")


# ---------------------------------------------------------------------------
# Statistical helpers


def normal_ci_halfwidth(values: np.ndarray, confidence: float) -> float:
    """Normal-approximation half-width of the CI for the mean."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        return float("inf")
    z = ndtri(0.5 + confidence / 2.0)
    return float(z * values.std(ddof=1) / np.sqrt(n))


def bootstrap_mean_ci(
    values: np.ndarray,
    confidence: float = 0.95,
    n_boot: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean of ``values``."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise ConfigError("bootstrap needs at least two observations")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(values), size=(n_boot, len(values)))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)

"""Resilience metrics over an hourly quality column.

Quality Q(t) is the fraction of households (or traffic lights) with power at
hour t. Each metric takes one replication's Q column, a 1-D array whose
position is the hour: every replication starts at hour 0 and steps by one.
Transient resilience loss (TRL) integrates 1 - Q(t) from disruption to full
restoration with left rectangles on the hourly grid; maximum possible
resilience (MPR) is the undisrupted baseline (Q = 1) over the same horizon,
so TRL/MPR is the fraction of resilience lost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import UndefinedImprovementError


def full_restoration_hour(q: np.ndarray) -> int:
    """First hour with Q >= 1, or the last hour if Q never gets there."""
    hits = np.flatnonzero(q >= 1.0)
    return int(hits[0]) if hits.size else len(q) - 1


def resilience_loss(q: np.ndarray) -> float:
    """Transient resilience loss: sum of (1 - Q(t)) before full restoration."""
    total = 0.0
    # left to right: a pairwise np.sum would change the last bits of mean_trl
    for value in q[: full_restoration_hour(q)].tolist():
        total += 1.0 - value
    return total


def improvement_pct(loss_strategy: float, loss_baseline: float) -> float:
    """Relative reduction in resilience loss versus the baseline strategy."""
    if loss_baseline == 0:
        raise UndefinedImprovementError(
            "baseline resilience loss is zero; improvement is undefined"
        )
    return (loss_baseline - loss_strategy) / loss_baseline * 100.0


DEFAULT_QUANTILE_LEVELS = (0.75, 0.90, 1.0)


def restoration_quantiles(
    q: np.ndarray, levels: tuple[float, ...] = DEFAULT_QUANTILE_LEVELS
) -> dict[float, int]:
    """Hours from hour 0 until quality first reaches each level."""
    out: dict[float, int] = {}
    for level in levels:
        hits = np.flatnonzero(q >= level - 1e-12)
        if not hits.size:
            raise ValueError(f"series never reaches quality {level}")
        out[level] = int(hits[0])
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

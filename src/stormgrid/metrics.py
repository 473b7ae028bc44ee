"""Resilience metrics over an hourly quality column.

Quality Q(t) is the fraction of households (or traffic lights) with power at
hour t. Each metric takes one replication's Q column, a 1-D array whose
position is the hour: every replication starts at hour 0 and steps by one.
Transient resilience loss (TRL) integrates 1 - Q(t) from disruption to full
restoration with left rectangles on the hourly grid. A run's maximum possible
resilience (MPR) is an undisrupted system (Q = 1) over the baseline
strategy's mean hour of 100 % household restoration, so TRL/MPR is the
fraction of resilience lost; it exceeds 100 % for a strategy that restores
households later than the baseline does. A replication's TRL is at most its
100 % household hour, and its quantile hours rise with the level; the
per-strategy means in ``outputs.summary_payload`` keep both.
"""

from __future__ import annotations

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

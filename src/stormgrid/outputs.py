"""Result emission: hourly timeseries CSVs, the summary JSON, plot reshaping.

Both outputs are deterministic for a given run configuration: rows are
written in seed order with fixed float formatting, and the JSON is emitted
with sorted keys and rounded values.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .engine import ExperimentResult, MonteCarloResult
from .errors import FormatError, StormGridError
from .metrics import (
    DEFAULT_QUANTILE_LEVELS,
    ResilienceSummary,
    improvement_pct,
    resilience_loss,
    restoration_quantiles,
)
from .restoration import Strategy

TIMESERIES_HEADER = (
    "replication,hour,q_households,q_traffic_lights,failed_components,passable_links"
)


def _strategy_summary(
    mc: MonteCarloResult,
    mpr_horizon: float,
    baseline_mean_trl: float | None,
) -> ResilienceSummary:
    losses = [resilience_loss(rep.records.q_households) for rep in mc.replications]
    mean_trl = float(np.mean(losses))
    quantiles: dict[float, list[float]] = {lv: [] for lv in DEFAULT_QUANTILE_LEVELS}
    lights_100: list[float] = []
    for rep in mc.replications:
        per_rep = restoration_quantiles(rep.records.q_households)
        for lv in DEFAULT_QUANTILE_LEVELS:
            quantiles[lv].append(per_rep[lv])
        q_tl = rep.records.q_traffic_lights
        lights_100.append(restoration_quantiles(q_tl, (1.0,))[1.0])
    improvement = None
    if baseline_mean_trl is not None:
        improvement = improvement_pct(mean_trl, baseline_mean_trl)
    return ResilienceSummary(
        trl=mean_trl,
        mpr=mpr_horizon,
        trl_over_mpr_pct=mean_trl / mpr_horizon * 100.0,
        restoration_hours={lv: float(np.mean(h)) for lv, h in quantiles.items()},
        lights_restoration_hours_100=float(np.mean(lights_100)),
        improvement_pct=improvement,
        replications=mc.n(),
        ci_halfwidth=mc.ci_halfwidth,
    )


def build_summaries(
    experiment: ExperimentResult,
) -> dict[Strategy, ResilienceSummary]:
    mpr_horizon = experiment.mpr_horizon()
    base_mc = experiment.by_strategy[experiment.baseline]
    base_trl = float(
        np.mean(
            [resilience_loss(rep.records.q_households) for rep in base_mc.replications]
        )
    )
    out: dict[Strategy, ResilienceSummary] = {}
    for strategy, mc in experiment.by_strategy.items():
        baseline_ref = base_trl if strategy is not experiment.baseline else None
        out[strategy] = _strategy_summary(mc, mpr_horizon, baseline_ref)
    return out


def write_timeseries(mc: MonteCarloResult, path: Path) -> Path:
    try:
        with open(path, "w") as fh:
            fh.write(TIMESERIES_HEADER + "\n")
            for rep_no, rep in enumerate(mc.replications):
                for hour, q_hh, q_tl, failed, passable, *_ in rep.records.tolist():
                    fh.write(
                        f"{rep_no},{hour},{q_hh:.6f},{q_tl:.6f},{failed},{passable}\n"
                    )
    except OSError as exc:
        raise StormGridError(f"cannot write timeseries {path}: {exc}") from exc
    return path


def emit_outputs(experiment: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write per-strategy timeseries CSVs plus summary.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    strategies = list(experiment.by_strategy)
    for strategy in strategies:
        name = (
            "timeseries.csv"
            if len(strategies) == 1
            else f"timeseries_{strategy.value}.csv"
        )
        written.append(write_timeseries(experiment.by_strategy[strategy], out / name))

    summaries = build_summaries(experiment)
    payload = {
        "mpr": round(experiment.mpr_horizon(), 6),
        "baseline": experiment.baseline.value,
        "teams": experiment.teams,
        "confidence": experiment.mc_config.confidence,
        "relative_halfwidth": experiment.mc_config.relative_halfwidth,
        "base_seed": experiment.mc_config.base_seed,
        "strategies": {},
    }
    for strategy, summary in summaries.items():
        mc = experiment.by_strategy[strategy]
        payload["strategies"][strategy.value] = {
            "mean_trl": round(summary.trl, 6),
            "trl_over_mpr_pct": round(summary.trl_over_mpr_pct, 6),
            "improvement_pct": (
                None
                if summary.improvement_pct is None
                else round(summary.improvement_pct, 6)
            ),
            "restoration_hours_households": {
                f"{int(lv * 100)}": round(h, 6)
                for lv, h in summary.restoration_hours.items()
            },
            "restoration_hours_lights_100": round(
                summary.lights_restoration_hours_100, 6
            ),
            "replications": summary.replications,
            "mean_avg_quality": round(mc.mean_statistic, 6),
            "ci_halfwidth": round(summary.ci_halfwidth, 6),
            "converged": mc.converged,
        }
    summary_path = out / "summary.json"
    try:
        with open(summary_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise StormGridError(f"cannot write summary {summary_path}: {exc}") from exc
    written.append(summary_path)
    return written


_QUALITY_COLUMNS = ("replication", "hour", "q_households", "q_traffic_lights")


def _read_quality(path: Path) -> dict[int, list[tuple[float, float]]]:
    """Per replication, its (q_households, q_traffic_lights) rows by hour."""
    by_rep: dict[int, list[tuple[float, float]]] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or ()
            missing = [c for c in _QUALITY_COLUMNS if c not in header]
            if missing:
                raise FormatError(path, 1, f"missing columns {missing}")
            for row in reader:
                try:
                    rep, hour = int(row["replication"]), int(row["hour"])
                    q = float(row["q_households"]), float(row["q_traffic_lights"])
                except (TypeError, ValueError) as exc:
                    line = reader.line_num
                    raise FormatError(path, line, f"bad value: {exc}") from None
                series = by_rep.setdefault(rep, [])
                if hour != len(series):
                    raise FormatError(
                        path, reader.line_num,
                        f"replication {rep}: expected hour {len(series)}, got {hour}",
                    )
                series.append(q)
    except OSError as exc:
        raise StormGridError(f"cannot read timeseries {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(path, 0, f"not UTF-8 text: {exc.reason}") from None
    if not by_rep:
        raise StormGridError(f"no rows in {path}")
    return by_rep


def plot_data(inputs: list[str | Path], out_path: str | Path) -> Path:
    """Reshape timeseries CSVs into per-strategy mean quality curves.

    Each input contributes two columns (mean household and traffic-light
    quality by hour), averaged over its replications; finished replications
    are held at quality 1.0 out to the longest horizon in that file. Each
    replication's rows must run from hour 0 in steps of one, as
    :func:`write_timeseries` writes them.
    """
    columns: dict[str, list[float]] = {}
    labels: list[str] = []
    max_hours = 0
    for path in inputs:
        path = Path(path)
        label = path.stem
        if label.startswith("timeseries_"):
            label = label[len("timeseries_"):]
        elif label == "timeseries":
            label = "run"
        by_rep = _read_quality(path)
        horizon = max(len(series) for series in by_rep.values()) - 1
        max_hours = max(max_hours, horizon)
        hh_cols, tl_cols = [], []
        for hour in range(horizon + 1):
            hh_vals, tl_vals = [], []
            for series in by_rep.values():
                q_hh, q_tl = series[hour] if hour < len(series) else (1.0, 1.0)
                hh_vals.append(q_hh)
                tl_vals.append(q_tl)
            hh_cols.append(float(np.mean(hh_vals)))
            tl_cols.append(float(np.mean(tl_vals)))
        columns[f"{label}_q_households"] = hh_cols
        columns[f"{label}_q_traffic_lights"] = tl_cols
        labels.append(label)

    out_path = Path(out_path)
    names = sorted(columns)
    with open(out_path, "w") as fh:
        fh.write("hour," + ",".join(names) + "\n")
        for hour in range(max_hours + 1):
            vals = []
            for name in names:
                col = columns[name]
                vals.append(f"{col[hour] if hour < len(col) else 1.0:.6f}")
            fh.write(f"{hour}," + ",".join(vals) + "\n")
    return out_path

"""Result emission: hourly timeseries CSVs, the summary JSON, plot reshaping.

Both outputs are deterministic for a given run configuration: rows are
written in seed order with fixed float formatting, and the JSON is emitted
with sorted keys and rounded values. Each replication's TRL and restoration
hours are computed once, as a row of :func:`replication_metrics`;
:func:`summary_payload` builds summary.json from the column means of those
tables, and ``simulate`` prints its lines from that file.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from .engine import ExperimentResult, MonteCarloResult
from .errors import ConfigError, FormatError, StormGridError
from .metrics import (
    DEFAULT_QUANTILE_LEVELS,
    improvement_pct,
    resilience_loss,
    restoration_quantiles,
)

TIMESERIES_HEADER = (
    "replication,hour,q_households,q_traffic_lights,failed_components,passable_links"
)


# summary.json's key for each household quantile level, and its field below
_LEVEL_FIELDS = {
    f"{int(lv * 100)}": f"households_{int(lv * 100)}" for lv in DEFAULT_QUANTILE_LEVELS
}
# One replication's TRL, the hours at which its households first reach each
# quantile level, and the hour at which every traffic light is lit.
REPLICATION_METRICS = np.dtype(
    [("trl", float), *((f, int) for f in _LEVEL_FIELDS.values()), ("lights_100", int)]
)


def replication_metrics(mc: MonteCarloResult) -> np.ndarray:
    """One REPLICATION_METRICS row per replication, in seed order."""
    rows = []
    for rep in mc.replications:
        q = rep.records.q_households
        lights = restoration_quantiles(rep.records.q_traffic_lights, (1.0,))[1.0]
        rows.append((resilience_loss(q), *restoration_quantiles(q).values(), lights))
    return np.array(rows, dtype=REPLICATION_METRICS)


def summary_payload(experiment: ExperimentResult) -> dict:
    """summary.json's content: per strategy, the means of its replication
    metrics, rounded to 6 decimals. MPR is the baseline's mean 100 %
    household hour, floored at one hour."""
    tables = {s: replication_metrics(mc) for s, mc in experiment.by_strategy.items()}
    base = tables[experiment.baseline]
    mpr = max(float(np.mean(base["households_100"])), 1.0)
    base_trl = float(np.mean(base["trl"]))
    strategies = {}
    for strategy, mc in experiment.by_strategy.items():
        table = tables[strategy]
        means = {f: float(np.mean(table[f])) for f in table.dtype.names}
        trl = means["trl"]
        improvement = None
        # undefined for the baseline itself and for a storm that costs the
        # baseline no resilience
        if strategy is not experiment.baseline and base_trl != 0:
            improvement = round(improvement_pct(trl, base_trl), 6)
        strategies[strategy.value] = {
            "mean_trl": round(trl, 6),
            "trl_over_mpr_pct": round(trl / mpr * 100.0, 6),
            "improvement_pct": improvement,
            "restoration_hours_households": {
                key: round(means[f], 6) for key, f in _LEVEL_FIELDS.items()
            },
            "restoration_hours_lights_100": round(means["lights_100"], 6),
            "replications": mc.n(),
            "mean_avg_quality": round(mc.mean_statistic, 6),
            "ci_halfwidth": round(mc.ci_halfwidth, 6),
            "converged": mc.converged,
        }
    return {
        "mpr": round(mpr, 6),
        "baseline": experiment.baseline.value,
        "teams": experiment.teams,
        "confidence": experiment.mc_config.confidence,
        "relative_halfwidth": experiment.mc_config.relative_halfwidth,
        "base_seed": experiment.mc_config.base_seed,
        "strategies": strategies,
    }


def check_out_dir(path: str | Path) -> None:
    """Fail before a run if ``path`` cannot become the output directory: the
    nearest part of it that exists must be a directory that can be written."""
    path = Path(path)
    found = next(p for p in (path, *path.parents) if p.exists())
    if not (found.is_dir() and os.access(found, os.W_OK | os.X_OK)):
        raise StormGridError(
            f"cannot create output directory {path}: "
            f"{found} is not a writable directory"
        )


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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StormGridError(f"cannot create output directory {out}: {exc}") from exc
    written: list[Path] = []
    several = len(experiment.by_strategy) > 1
    for strategy, mc in experiment.by_strategy.items():
        name = f"timeseries_{strategy.value}" if several else "timeseries"
        written.append(write_timeseries(mc, out / f"{name}.csv"))

    summary_path = out / "summary.json"
    try:
        with open(summary_path, "w") as fh:
            json.dump(summary_payload(experiment), fh, indent=2, sort_keys=True)
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
    :func:`write_timeseries` writes them. Two inputs whose file names give
    the same label raise :class:`ConfigError` before any file is read.
    """
    labels: dict[str, Path] = {}
    for path in map(Path, inputs):
        label = path.stem
        if label.startswith("timeseries_"):
            label = label[len("timeseries_"):]
        elif label == "timeseries":
            label = "run"
        if label in labels:
            raise ConfigError(
                f"plot-data inputs {labels[label]} and {path} both give the label "
                f"{label!r}; each input needs a file name of its own"
            )
        labels[label] = path
    columns: dict[str, np.ndarray] = {}
    for label, path in labels.items():
        by_rep = _read_quality(path)
        # (curve, hour, replication): the replication axis is contiguous, so
        # each hour's mean sums its replications in file order, pairwise
        q = np.ones((2, max(map(len, by_rep.values())), len(by_rep)))
        for r, series in enumerate(by_rep.values()):
            q[:, : len(series), r] = np.array(series).T
        hh, tl = q.mean(axis=2)
        columns[f"{label}_q_households"] = hh
        columns[f"{label}_q_traffic_lights"] = tl

    names = sorted(columns)
    table = np.ones((max(map(len, columns.values())), len(names)))
    for j, name in enumerate(names):
        table[: len(columns[name]), j] = columns[name]
    out_path = Path(out_path)
    try:
        with open(out_path, "w") as fh:
            fh.write("hour," + ",".join(names) + "\n")
            for hour, row in enumerate(table.tolist()):
                fh.write(f"{hour}," + ",".join(f"{v:.6f}" for v in row) + "\n")
    except OSError as exc:
        raise StormGridError(f"cannot write curves {out_path}: {exc}") from exc
    return out_path

"""The benchmark's workloads: how each one's input files and seeds are made.

Every workload runs on the default synthetic testbed (``TestbedParams()``).
What differs is the hazard scenario, the crew count and the replication
count per experiment. ``--seed`` sets the per-link runoff noise of
``landfall-gradient``; the same seed always gives the same files.

Replication seeds do not depend on ``--seed``: experiment ``k`` of every run
uses the same block of seeds, so every run of a workload simulates the same
storms and run-to-run spread is the machine's alone. On a shared 2-core
machine, seed-dependent blocks gave an interquartile spread of
``simulate_s`` on ``surge-115`` of 10.6 % over ten runs; five runs of fixed
blocks right after gave 3.4 %.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from stormgrid.testbed import TestbedParams, generate_testbed

#: Tiny testbed used for the untimed warm-up and for the smoke tests.
SMOKE_TESTBED = dict(grid_size=5, households=80, substations=1)


@dataclass(frozen=True)
class Workload:
    name: str
    teams: int
    # Replications per strategy in one experiment. ``max_reps`` bounds the
    # stopping rule; confidence and half-width always keep their defaults.
    min_reps: int
    max_reps: int
    # Experiments in a traced run: a fixed amount of work, so the traced
    # counts repeat exactly for a given seed.
    trace_rounds: int
    edit_scenario: Callable[[dict, TestbedParams, np.random.Generator, list], None]


def _uniform(wind_mph: float):
    def edit(scenario, params, rng, links):
        scenario["wind_mph"] = wind_mph

    return edit


def _landfall(scenario, params, rng, links):
    """Coast on the east edge; the plant and its fuel source sit inland."""
    extent = params.grid_size * params.spacing_m
    strips = 10
    cells = []
    for k in range(strips):
        x0 = -extent if k == 0 else extent * k / strips
        x1 = 2 * extent if k == strips - 1 else extent * (k + 1) / strips
        mph = 80.0 + 45.0 * k / (strips - 1)
        cells.append([x0, -extent, x1, 2 * extent, mph])
    scenario["wind_mph"] = {"cells": cells}
    # Depth rises with distance toward the coast, with +-20% noise per link so
    # links reopen on many distinct hours; about a third start passable.
    noise = rng.uniform(0.8, 1.2, size=len(links))
    per_link = {}
    for (lid, xmid), u in zip(links, noise):
        per_link[lid] = round(1.0 + 36.0 * (xmid / extent) * u, 3)
    scenario["runoff_in"] = {"default": 0.0, "per_link": per_link}
    scenario["drainage_in_per_hr"] = 0.3
    scenario["fuel_sources"] = {"GEN0": [0.0, extent]}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quickstart-65", teams=12, min_reps=10, max_reps=200,
                 trace_rounds=6, edit_scenario=_uniform(65.0)),
        Workload("surge-115", teams=36, min_reps=2, max_reps=2,
                 trace_rounds=3, edit_scenario=_uniform(115.0)),
        Workload("landfall-gradient", teams=24, min_reps=2, max_reps=2,
                 trace_rounds=3, edit_scenario=_landfall),
    )
}


def _link_midpoints_x(roads_path: Path) -> list[tuple[str, float]]:
    xs: dict[str, float] = {}
    out = []
    with open(roads_path) as fh:
        for line in fh:
            toks = line.split()
            if not toks or toks[0].startswith("#"):
                continue
            if toks[0] == "intersection":
                xs[toks[1]] = float(toks[2])
            elif toks[0] == "link":
                out.append((toks[1], (xs[toks[2]] + xs[toks[3]]) / 2.0))
    return out


def make_inputs(
    workload: Workload, seed: int, out_dir: Path, smoke: bool = False
) -> dict[str, Path]:
    """Write the workload's four input files under ``out_dir``."""
    params = TestbedParams(**SMOKE_TESTBED) if smoke else TestbedParams()
    paths = generate_testbed(params, out_dir)
    scenario = json.loads(paths["scenario"].read_text())
    rng = np.random.default_rng([seed, 7])
    workload.edit_scenario(scenario, params, rng, _link_midpoints_x(paths["roads"]))
    with open(paths["scenario"], "w") as fh:
        json.dump(scenario, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return paths


def round_base_seed(workload: Workload, k: int) -> int:
    """First replication seed of experiment ``k``; blocks never overlap."""
    return k * workload.max_reps

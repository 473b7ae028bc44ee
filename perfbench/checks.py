"""Output checks for one stormgrid experiment, built apart from the program.

The checks parse the input files and the written outputs themselves and
recompute what they compare against: fragility probabilities, hour-0
service by breadth-first search, TRL and the stopping rule. The only things
taken from the program's in-memory result are what the output files do not
hold: the hourly crew counts and each replication's initial failure ids.

A replication counts as failed when any check on it fails. A check on a
strategy's aggregate (TRL, stopping rule) fails every replication of that
strategy, and the failure-count bound fails every replication of the
experiment.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist, fmean, stdev

import numpy as np

HARD_CAP_HOURS = 10_000
#: Rounding of the written quality columns (six decimals).
Q_EPS = 5e-7
#: Standard deviations allowed between the mean and expected failure count.
FAILURE_COUNT_Z = 5.0

# Crews per job in the package's default repair table (README, "Restoration").
DEFAULT_CREWS = {
    ("substation", "moderate"): 6,
    ("substation", "severe"): 14,
    ("substation", "complete"): 60,
    ("tower", None): 6,
    ("line", None): 4,
    ("pole", None): 1,
    ("conductor", None): 1,
}
LEVELS = ("moderate", "severe", "complete")
DEFAULT_SUBSTATION = {"moderate": (140.0, 0.2), "severe": (170.0, 0.2),
                      "complete": (200.0, 0.2)}
DEFAULT_LINE = (67.1, 134.2)


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _records(path: Path):
    with open(path) as fh:
        for raw in fh:
            toks = raw.split()
            if toks and not toks[0].startswith("#"):
                yield toks


class Reference:
    """Inputs of one workload, parsed independently of stormgrid."""

    def __init__(self, files: dict[str, Path]):
        self.comp_ids: list[str] = []
        self.kind: list[str] = []
        self.xy: list[tuple[float, float]] = []
        edges: list[tuple[str, str]] = []
        for toks in _records(files["power"]):
            if toks[0] == "component":
                self.comp_ids.append(toks[1])
                self.kind.append(toks[2])
                self.xy.append((float(toks[3]), float(toks[4])))
            else:
                edges.append((toks[1], toks[2]))
        self.pos = {cid: i for i, cid in enumerate(self.comp_ids)}
        self.adj: list[list[int]] = [[] for _ in self.comp_ids]
        for a, b in edges:
            self.adj[self.pos[a]].append(self.pos[b])
            self.adj[self.pos[b]].append(self.pos[a])
        self.plants = [i for i, k in enumerate(self.kind) if k == "plant"]

        self.nodes: dict[str, tuple[float, float]] = {}
        self.links: list[tuple[str, str, str]] = []
        for toks in _records(files["roads"]):
            if toks[0] == "intersection":
                self.nodes[toks[1]] = (float(toks[2]), float(toks[3]))
            else:
                self.links.append((toks[1], toks[2], toks[3]))

        self.hh_attach: list[int] = []
        fuel: dict[str, str] = {}
        for toks in _records(files["couplings"]):
            if toks[0] == "household":
                self.hh_attach.append(self.pos[toks[4]])
            elif toks[0] == "fuel":
                fuel[toks[1]] = toks[2]

        sc = json.loads(Path(files["scenario"]).read_text())
        if "repair_overrides" in sc:
            raise ValueError("the checks assume the default repair table")
        self.scenario = sc
        self.threshold = float(sc.get("passable_threshold_in", 2.0))
        self.fuel_dependence = bool(sc.get("fuel_dependence", True))
        self.fuel_node = {}
        for i in self.plants:
            pid = self.comp_ids[i]
            if pid in sc.get("fuel_sources", {}):
                self.fuel_node[i] = self._nearest_node(sc["fuel_sources"][pid])
            elif pid in fuel:
                self.fuel_node[i] = fuel[pid]
            else:
                self.fuel_node[i] = self._access_node(i)
        self.wind = np.array([self._wind_at(xy) for xy in self.xy])
        self.p_fail = np.array(
            [self._p_fail(k, x) for k, x in zip(self.kind, self.wind)]
        )
        self.p_level = {
            lv: np.array(
                [self._p_sub(x, lv) if k == "substation" else 0.0
                 for k, x in zip(self.kind, self.wind)]
            )
            for lv in LEVELS
        }
        self.base_crews = np.array(
            [DEFAULT_CREWS.get((k, "moderate" if k == "substation" else None), 0)
             for k in self.kind]
        )

    # -- hazard and fragility, from the README's formulas ---------------------

    def _wind_at(self, xy) -> float:
        w = self.scenario.get("wind_mph", 0.0)
        if isinstance(w, (int, float)):
            return float(w)
        for x0, y0, x1, y1, mph in w["cells"]:
            if x0 <= xy[0] <= x1 and y0 <= xy[1] <= y1:
                return float(mph)
        raise ValueError(f"no wind cell covers {xy}")

    def _p_sub(self, x: float, level: str) -> float:
        med, sd = self.scenario.get("substation_fragility", DEFAULT_SUBSTATION)[level]
        return 0.0 if x <= 0 else _phi(math.log(x / med) / sd)

    def _p_fail(self, kind: str, x: float) -> float:
        if kind == "plant":
            return 0.0
        if kind == "substation":
            return self._p_sub(x, "moderate")
        if kind == "tower":
            return min(2e-7 * math.exp(0.0834 * x), 1.0)
        if kind == "pole":
            return min(1e-4 * math.exp(0.0421 * x), 1.0)
        if kind == "conductor":
            return min(8e-12 * x**5.1731, 1.0)
        crit, coll = self.scenario.get("line_fragility", DEFAULT_LINE)
        if x < crit:
            return 0.01
        if x > coll:
            return 1.0
        return 0.01 + 0.99 * (x - crit) / (coll - crit)

    def expected_failures(self) -> tuple[float, float]:
        """Mean and variance of the failure count of one replication."""
        p = self.p_fail
        return float(p.sum()), float((p * (1.0 - p)).sum())

    def oversized_failure(self, seed: int, teams: int) -> bool:
        """Does this replication seed fail a component needing > teams crews?

        Follows the engine's documented draw: one uniform per component, in
        file order, from the failure substream ``[seed, 0]``; a substation
        takes the most severe level whose probability beats the draw.
        """
        r = np.random.default_rng([seed, 0]).random(len(self.comp_ids))
        demand = np.where(self.p_fail > r, self.base_crews, 0)
        for lv in LEVELS[1:]:
            crews = DEFAULT_CREWS[("substation", lv)]
            demand = np.where(self.p_level[lv] > r, crews, demand)
        return bool((demand > teams).any())

    # -- roads and hour-0 service ---------------------------------------------

    def _nearest_node(self, xy) -> str:
        best = min(
            enumerate(self.nodes.items()),
            key=lambda t: ((t[1][1][0] - xy[0]) ** 2 + (t[1][1][1] - xy[1]) ** 2, t[0]),
        )
        return best[1][0]

    def _access_node(self, comp: int) -> str:
        """Endpoint of the component's nearest-midpoint road link nearer to it."""
        cx, cy = self.xy[comp]

        def mid_d2(link):
            (ax, ay), (bx, by) = self.nodes[link[1]], self.nodes[link[2]]
            return ((ax + bx) / 2 - cx) ** 2 + ((ay + by) / 2 - cy) ** 2, link[0]

        _, a, b = min(self.links, key=mid_d2)
        a, b = sorted((a, b))
        da = (self.nodes[a][0] - cx) ** 2 + (self.nodes[a][1] - cy) ** 2
        db = (self.nodes[b][0] - cx) ** 2 + (self.nodes[b][1] - cy) ** 2
        return a if da <= db else b

    def _initial_depth(self, lid: str) -> float:
        runoff = self.scenario.get("runoff_in", 0.0)
        if isinstance(runoff, (int, float)):
            return float(runoff)
        return float(runoff.get("per_link", {}).get(lid, runoff.get("default", 0.0)))

    def fueled_plants_at_hour0(self) -> list[int]:
        if not self.fuel_dependence:
            return list(self.plants)
        road_adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for lid, a, b in self.links:
            if self._initial_depth(lid) <= self.threshold:
                road_adj[a].append(b)
                road_adj[b].append(a)
        live = []
        for i in self.plants:
            src, dst = self.fuel_node[i], self._access_node(i)
            seen, queue = {src}, deque([src])
            while queue:
                u = queue.popleft()
                for v in road_adj[u]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
            if dst in seen:
                live.append(i)
        return live

    def q_households_hour0(self, failed: list[str], live_plants: list[int]) -> float:
        blocked = {self.pos[c] for c in failed}
        seen = [False] * len(self.comp_ids)
        queue = deque()
        for p in live_plants:
            if p not in blocked:
                seen[p] = True
                queue.append(p)
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if not seen[v] and v not in blocked:
                    seen[v] = True
                    queue.append(v)
        if not self.hh_attach:
            return 1.0
        return sum(seen[a] for a in self.hh_attach) / len(self.hh_attach)


# ---------------------------------------------------------------------------
# Checks over one experiment's outputs


@dataclass
class Rows:
    hours: list[int] = field(default_factory=list)
    q_hh: list[float] = field(default_factory=list)
    q_tl: list[float] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)


def read_timeseries(path: Path) -> list[Rows]:
    reps: list[Rows] = []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            rep = int(row["replication"])
            while len(reps) <= rep:
                reps.append(Rows())
            r = reps[rep]
            r.hours.append(int(row["hour"]))
            r.q_hh.append(float(row["q_households"]))
            r.q_tl.append(float(row["q_traffic_lights"]))
            r.failed.append(int(row["failed_components"]))
    return reps


def _trl(rows: Rows) -> float:
    """Left-rectangle sum of 1 - Q up to the first hour at 100 %."""
    total = 0.0
    for q in rows.q_hh:
        if q >= 1.0:
            break
        total += 1.0 - q
    return total


def _halfwidth(stats: list[float], confidence: float) -> float:
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return z * stdev(stats) / math.sqrt(len(stats))


@dataclass
class CheckReport:
    attempted: int = 0
    failed: set = field(default_factory=set)
    messages: list[str] = field(default_factory=list)

    def fail(self, check: str, keys, detail: str) -> None:
        keys = list(keys)
        self.failed.update(keys)
        self.messages.append(f"{check}: {detail} ({len(keys)} replications)")

    def checks_failed(self) -> set[str]:
        return {m.split(":", 1)[0] for m in self.messages}


def check_experiment(
    ref: Reference,
    experiment,
    out_dir: Path,
    teams: int,
    live_plants: list[int],
) -> CheckReport:
    """Apply every output check to one experiment written under ``out_dir``.

    ``experiment`` is the program's ``ExperimentResult``; ``live_plants`` is
    ``ref.fueled_plants_at_hour0()``, computed once per workload.
    """
    report = CheckReport()
    mc_cfg = experiment.mc_config
    summary = json.loads((Path(out_dir) / "summary.json").read_text())
    strategies = [s.value for s in experiment.by_strategy]
    series = {
        name: read_timeseries(Path(out_dir) / f"timeseries_{name}.csv")
        for name in strategies
    }
    mem = {s.value: mc.replications for s, mc in experiment.by_strategy.items()}
    all_keys = [(name, i) for name in strategies for i in range(len(mem[name]))]
    report.attempted = len(all_keys)

    # Strategies whose CSV rows are malformed fail here and are left out of
    # the checks below, which assume whole series.
    valid = list(strategies)
    for name in strategies:
        reps = series[name]
        if len(reps) != len(mem[name]):
            valid.remove(name)
            report.fail("rows", [(name, i) for i in range(len(mem[name]))],
                        f"{name}: {len(reps)} replications in CSV, "
                        f"{len(mem[name])} run")
            continue
        for i, rows in enumerate(reps):
            key = [(name, i)]
            if not rows.hours or rows.hours != list(range(len(rows.hours))):
                report.fail("rows", key, f"{name} rep {i}: hours not 0, 1, 2, ...")
                if name in valid:
                    valid.remove(name)
                continue
            if not (rows.q_hh[-1] == 1.0 and rows.failed[-1] == 0
                    and rows.hours[-1] < HARD_CAP_HOURS):
                report.fail("end_state", key,
                            f"{name} rep {i}: ends at h{rows.hours[-1]} with "
                            f"q={rows.q_hh[-1]} and {rows.failed[-1]} failed")
            qs = rows.q_hh + rows.q_tl
            if min(qs) < 0.0 or max(qs) > 1.0:
                report.fail("quality_range", key, f"{name} rep {i}: Q outside [0, 1]")
            for col in (rows.q_hh, rows.q_tl):
                if any(b < a for a, b in zip(col, col[1:])):
                    report.fail("monotone", key, f"{name} rep {i}: Q falls")
                    break
            recs = mem[name][i].records
            if any(r.crews_available + r.crews_in_use != teams for r in recs):
                report.fail("crews", key, f"{name} rep {i}: crews not conserved")
            if rows.failed[0] != len(mem[name][i].initial_failures):
                report.fail("hour0_failures", key,
                            f"{name} rep {i}: hour-0 failed_components "
                            f"{rows.failed[0]} != {len(mem[name][i].initial_failures)}")

    # Paired seeds: replication i of every strategy shares one failure draw,
    # so its failure set and hour-0 service must agree across strategies.
    first = strategies[0]
    n_common = min(len(mem[name]) for name in strategies)
    for i in range(n_common):
        sets = {name: sorted(mem[name][i].initial_failures) for name in strategies}
        if any(s != sets[first] for s in sets.values()):
            report.fail("paired_failures", [(n, i) for n in strategies],
                        f"rep {i}: initial failures differ across strategies")
        q0 = ref.q_households_hour0(sets[first], live_plants)
        for name in valid:
            reps = series[name]
            if abs(reps[i].q_hh[0] - q0) > Q_EPS + 1e-9:
                report.fail("hour0_service", [(name, i)],
                            f"{name} rep {i}: hour-0 Q {reps[i].q_hh[0]} "
                            f"!= BFS {q0:.6f}")

    # Mean failure count against the fragility expectation, over distinct seeds.
    counts = [rows.failed[0] for rows in series[valid[0]]] if valid else []
    expect, var = ref.expected_failures()
    bound = FAILURE_COUNT_Z * math.sqrt(var / max(len(counts), 1)) + 1e-9
    if counts and abs(fmean(counts) - expect) > bound:
        report.fail("failure_count", all_keys,
                    f"mean failures {fmean(counts):.2f} vs expected "
                    f"{expect:.2f} +- {bound:.2f}")

    for name in valid:
        keys = [(name, i) for i in range(len(mem[name]))]
        reps = series[name]
        entry = summary["strategies"].get(name)
        if entry is None:
            report.fail("summary", keys, f"{name}: missing from outputs")
            continue
        trls = [_trl(rows) for rows in reps]
        tol = Q_EPS * max(len(rows.hours) for rows in reps) + 1e-6
        if abs(fmean(trls) - entry["mean_trl"]) > tol:
            report.fail("trl", keys, f"{name}: TRL from CSV {fmean(trls):.6f} != "
                        f"summary {entry['mean_trl']}")
        stats = [fmean(rows.q_hh) for rows in reps]
        if not _stopping_rule_holds(stats, entry, mc_cfg):
            report.fail("stopping_rule", keys, f"{name}: stopping rule violated "
                        f"at n={len(stats)}")
    return report


def _stopping_rule_holds(stats: list[float], entry: dict, cfg) -> bool:
    """The run stops at the first n >= min with half-width within target."""
    n = len(stats)
    tol = 1e-6
    if entry["replications"] != n or n < cfg.min_replications:
        return False

    def within(k: int, slack: float) -> bool:
        mean = fmean(stats[:k])
        return _halfwidth(stats[:k], cfg.confidence) <= (
            cfg.relative_halfwidth * mean + slack
        )

    if any(within(k, -tol) for k in range(cfg.min_replications, n)):
        return False
    if abs(_halfwidth(stats, cfg.confidence) - entry["ci_halfwidth"]) > 1e-5:
        return False
    if entry["converged"]:
        return within(n, tol)
    return n == cfg.max_replications and not within(n, -tol)

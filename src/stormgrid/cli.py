"""Command-line entry point, run configuration, and the scenario file schema.

Three subcommands: ``simulate`` (the default when flags are given directly),
``make-testbed``, and ``plot-data``. See the README for the scenario JSON
schema and the three network file formats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .engine import MonteCarloConfig, run_experiment
from .errors import (
    ConfigError,
    FormatError,
    FragilityParamError,
    RepairModelError,
    StormGridError,
)
from .fragility import (
    FragilityConfig,
    LineFragilityParams,
    RepairModel,
    RepairSpec,
    SubstationFragilityParams,
)
from .hazard import (
    DEFAULT_DRAINAGE_IN_PER_HR,
    DEFAULT_PASSABLE_THRESHOLD_IN,
    HazardScenario,
    WindCell,
)
from .network import ComponentKind, DamageLevel, load_networks
from .outputs import build_summaries, emit_outputs, plot_data
from .restoration import Strategy
from .testbed import TestbedParams, generate_testbed


# ---------------------------------------------------------------------------
# Scenario file


@dataclass
class ScenarioConfig:
    hazard: HazardScenario
    fragility: FragilityConfig
    repair: RepairModel


_SCENARIO_KEYS = {
    "wind_mph",
    "runoff_in",
    "drainage_in_per_hr",
    "passable_threshold_in",
    "fuel_dependence",
    "crew_access_dependence",
    "fuel_sources",
    "substation_fragility",
    "line_fragility",
    "repair_overrides",
}

_KIND_TOKENS = {k.value: k for k in ComponentKind}
_LEVEL_TOKENS = {lv.value: lv for lv in DamageLevel}


def _number(value, integral: bool = False) -> float | int:
    """A scenario number: a JSON number that is not a boolean.

    With ``integral`` the value must also be whole, and comes back as an int.
    Wrong values raise ``TypeError``/``ValueError``, which
    :func:`_scenario_value` reports with the file and key.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not integral:
        return float(value)
    if not float(value).is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _parse_wind(raw, path):
    if isinstance(raw, dict) and "cells" in raw:
        cells = []
        for cell in raw["cells"]:
            if len(cell) != 5:
                raise FormatError(path, 0, f"wind cell needs 5 values, got {cell}")
            cells.append(WindCell(*[_number(v) for v in cell]))
        return cells
    return _number(raw)


def _parse_repair_overrides(raw, path) -> RepairModel:
    rows = dict(RepairModel().rows)
    for key, triple in raw.items():
        parts = key.split(":")
        kind_tok = parts[0]
        if kind_tok not in _KIND_TOKENS:
            raise FormatError(path, 0, f"unknown component kind in repair row {key!r}")
        kind = _KIND_TOKENS[kind_tok]
        level = None
        if kind is ComponentKind.SUBSTATION:
            if len(parts) != 2 or parts[1] not in _LEVEL_TOKENS:
                raise FormatError(
                    path, 0, f"substation repair rows need a damage level: {key!r}"
                )
            level = _LEVEL_TOKENS[parts[1]]
        if not isinstance(triple, list) or len(triple) != 3:
            raise FormatError(path, 0, f"repair row {key!r} needs [mean, sd, crews]")
        try:
            rows[(kind, level)] = RepairSpec(
                _number(triple[0]),
                _number(triple[1]),
                _number(triple[2], integral=True),
            )
        except (TypeError, ValueError, RepairModelError) as exc:
            raise FormatError(path, 0, f"repair row {key!r}: {exc}") from exc
    return RepairModel(rows=rows)


@contextmanager
def _scenario_value(path: Path, key: str):
    """Report a wrong-typed, wrong-shaped or invalid value of ``key`` with the file."""
    try:
        yield
    except (
        ValueError, TypeError, LookupError, AttributeError, OverflowError,
        FragilityParamError,
    ) as exc:
        raise FormatError(path, 0, f"{key}: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario JSON file.

    Every bad value raises :class:`FormatError` naming the file.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc

    if not isinstance(raw, dict):
        raise FormatError(path, 0, "scenario must be a JSON object")
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise FormatError(path, 0, f"unknown scenario keys: {sorted(unknown)}")

    with _scenario_value(path, "runoff_in"):
        runoff = raw.get("runoff_in", 0.0)
        if isinstance(runoff, dict):
            initial_runoff = {
                str(k): _number(v) for k, v in runoff.get("per_link", {}).items()
            }
            runoff_default = _number(runoff.get("default", 0.0))
        else:
            initial_runoff, runoff_default = _number(runoff), 0.0

    with _scenario_value(path, "fuel_sources"):
        fuel_sources = {
            str(pid): (_number(x), _number(y))
            for pid, (x, y) in raw.get("fuel_sources", {}).items()
        }

    with _scenario_value(path, "drainage_in_per_hr"):
        drainage = _number(raw.get("drainage_in_per_hr", DEFAULT_DRAINAGE_IN_PER_HR))
    with _scenario_value(path, "passable_threshold_in"):
        threshold = _number(
            raw.get("passable_threshold_in", DEFAULT_PASSABLE_THRESHOLD_IN)
        )
    flags = {}
    for key in ("fuel_dependence", "crew_access_dependence"):
        flags[key] = raw.get(key, True)
        if not isinstance(flags[key], bool):
            raise FormatError(
                path, 0, f"{key} must be true or false, got {flags[key]!r}"
            )

    with _scenario_value(path, "wind_mph"):
        wind = _parse_wind(raw.get("wind_mph", 0.0), path)
    with _scenario_value(path, "hazard"):
        hazard = HazardScenario(
            wind_mph=wind,
            initial_runoff_in=initial_runoff,
            runoff_default_in=runoff_default,
            drainage_in_per_hr=drainage,
            passable_threshold_in=threshold,
            fuel_source_coords=fuel_sources,
            **flags,
        )

    with _scenario_value(path, "substation_fragility"):
        if "substation_fragility" not in raw:
            sub_params = SubstationFragilityParams.from_medians()
        else:
            spec = raw["substation_fragility"]
            medians, sigmas = {}, {}
            for lv in DamageLevel:
                if lv.value not in spec:
                    raise FormatError(
                        path, 0, f"substation_fragility missing level {lv.value!r}"
                    )
                med, sd = spec[lv.value]
                medians[lv] = _number(med)
                sigmas[lv] = _number(sd)
            sub_params = SubstationFragilityParams.from_medians(medians, sigmas)

    line_params = LineFragilityParams()
    if "line_fragility" in raw:
        with _scenario_value(path, "line_fragility"):
            crit, coll = raw["line_fragility"]
            line_params = LineFragilityParams(_number(crit), _number(coll))

    repair = RepairModel()
    if "repair_overrides" in raw:
        with _scenario_value(path, "repair_overrides"):
            repair = _parse_repair_overrides(raw["repair_overrides"], path)

    return ScenarioConfig(
        hazard=hazard,
        fragility=FragilityConfig(substation=sub_params, line=line_params),
        repair=repair,
    )


# ---------------------------------------------------------------------------
# Argument parsing


@dataclass
class RunConfig:
    command: str
    power: Path | None = None
    roads: Path | None = None
    couplings: Path | None = None
    scenario: Path | None = None
    strategies: list[Strategy] = field(default_factory=list)
    teams: int = 0
    seed: int = 0
    min_reps: int = 10
    max_reps: int = 200
    confidence: float = 0.90
    rel_halfwidth: float = 0.10
    out: Path = Path(".")
    no_crew_access_dependence: bool = False
    no_fuel_dependence: bool = False
    testbed: TestbedParams | None = None
    inputs: list[Path] = field(default_factory=list)


def _strategy_list(token: str) -> list[Strategy]:
    try:
        return [Strategy.from_name(part) for part in token.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stormgrid",
        description="Coupled power/road hurricane restoration simulator",
    )
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run the Monte Carlo simulation")
    sim.add_argument("--power", required=True, help="power network file")
    sim.add_argument("--roads", required=True, help="road network file")
    sim.add_argument("--couplings", required=True, help="coupling file")
    sim.add_argument("--scenario", required=True, help="scenario JSON")
    sim.add_argument(
        "--strategy",
        type=_strategy_list,
        default=list(Strategy),
        help="comma-separated subset of: component, distance, traffic-light "
        "(default: all three)",
    )
    sim.add_argument("--teams", type=int, required=True, help="restoration teams")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--min-reps", type=int, default=10)
    sim.add_argument("--max-reps", type=int, default=200)
    sim.add_argument("--confidence", type=float, default=0.90)
    sim.add_argument("--rel-halfwidth", type=float, default=0.10)
    sim.add_argument("--out", default="results")
    sim.add_argument("--no-crew-access-dependence", action="store_true")
    sim.add_argument("--no-fuel-dependence", action="store_true")

    tb = sub.add_parser("make-testbed", help="generate synthetic input files")
    tb.add_argument("--grid-size", type=int, default=TestbedParams.grid_size)
    tb.add_argument("--households", type=int, default=TestbedParams.households)
    tb.add_argument("--substations", type=int, default=TestbedParams.substations)
    tb.add_argument(
        "--lights-fraction", type=float, default=TestbedParams.lights_fraction
    )
    tb.add_argument("--seed", type=int, default=TestbedParams.seed)
    tb.add_argument("--wind-mph", type=float, default=TestbedParams.wind_mph)
    tb.add_argument("--runoff-in", type=float, default=TestbedParams.runoff_in)
    tb.add_argument("--out", default="testbed")

    pd = sub.add_parser("plot-data", help="reshape timeseries CSVs to mean curves")
    pd.add_argument("inputs", nargs="+", help="timeseries CSV files")
    pd.add_argument("--out", default="curves.csv")
    return parser


def parse_cli(argv: list[str]) -> RunConfig:
    """Parse and validate arguments into a run configuration.

    Bare flags (no subcommand) are treated as ``simulate`` flags.
    """
    if argv and argv[0].startswith("-"):
        argv = ["simulate"] + list(argv)
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.error("a subcommand is required: simulate, make-testbed, plot-data")

    if ns.command == "simulate":
        if not (0.0 < ns.confidence < 1.0):
            raise ConfigError(f"--confidence must be in (0, 1), got {ns.confidence}")
        if not 0 < ns.rel_halfwidth < math.inf:
            raise ConfigError(
                f"--rel-halfwidth must be finite and > 0, got {ns.rel_halfwidth}"
            )
        if ns.teams < 1:
            raise ConfigError("--teams must be >= 1")
        if ns.seed < 0:
            raise ConfigError("--seed must be >= 0")
        if ns.min_reps < 2 or ns.max_reps < ns.min_reps:
            raise ConfigError("need --min-reps >= 2 and --max-reps >= --min-reps")
        for flag in ("power", "roads", "couplings", "scenario"):
            p = Path(getattr(ns, flag))
            if not p.is_file():
                raise ConfigError(f"--{flag}: file not found: {p}")
        strategies: list[Strategy] = []
        for s in ns.strategy:
            if s not in strategies:
                strategies.append(s)
        return RunConfig(
            command="simulate",
            power=Path(ns.power),
            roads=Path(ns.roads),
            couplings=Path(ns.couplings),
            scenario=Path(ns.scenario),
            strategies=strategies,
            teams=ns.teams,
            seed=ns.seed,
            min_reps=ns.min_reps,
            max_reps=ns.max_reps,
            confidence=ns.confidence,
            rel_halfwidth=ns.rel_halfwidth,
            out=Path(ns.out),
            no_crew_access_dependence=ns.no_crew_access_dependence,
            no_fuel_dependence=ns.no_fuel_dependence,
        )

    if ns.command == "make-testbed":
        params = TestbedParams(
            grid_size=ns.grid_size,
            households=ns.households,
            substations=ns.substations,
            lights_fraction=ns.lights_fraction,
            seed=ns.seed,
            wind_mph=ns.wind_mph,
            runoff_in=ns.runoff_in,
        )
        return RunConfig(command="make-testbed", testbed=params, out=Path(ns.out))

    return RunConfig(
        command="plot-data",
        inputs=[Path(p) for p in ns.inputs],
        out=Path(ns.out),
    )


def _run_simulate(cfg: RunConfig) -> int:
    scenario_cfg = load_scenario(cfg.scenario)
    net, roads, households = load_networks(cfg.power, cfg.roads, cfg.couplings)
    hazard = scenario_cfg.hazard
    if cfg.no_crew_access_dependence:
        hazard.crew_access_dependence = False
    if cfg.no_fuel_dependence:
        hazard.fuel_dependence = False

    mc_config = MonteCarloConfig(
        confidence=cfg.confidence,
        relative_halfwidth=cfg.rel_halfwidth,
        min_replications=cfg.min_reps,
        max_replications=cfg.max_reps,
        base_seed=cfg.seed,
    )
    experiment = run_experiment(
        net,
        roads,
        households,
        hazard,
        scenario_cfg.fragility,
        scenario_cfg.repair,
        cfg.strategies,
        cfg.teams,
        mc_config,
    )
    written = emit_outputs(experiment, cfg.out)
    summaries = build_summaries(experiment)
    for strategy, summary in summaries.items():
        mc = experiment.by_strategy[strategy]
        flag = "" if mc.converged else " (not converged)"
        print(
            f"{strategy.value}: mean TRL {summary.trl:.2f} "
            f"(TRL/MPR {summary.trl_over_mpr_pct:.1f}%), "
            f"100% households at {summary.restoration_hours[1.0]:.0f} h, "
            f"{summary.replications} replications{flag}"
        )
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_cli(argv)
        if cfg.command == "simulate":
            return _run_simulate(cfg)
        if cfg.command == "make-testbed":
            paths = generate_testbed(cfg.testbed, cfg.out)
            for name, path in paths.items():
                print(f"wrote {name}: {path}")
            return 0
        out = plot_data(cfg.inputs, cfg.out)
        print(f"wrote {out}")
        return 0
    except StormGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

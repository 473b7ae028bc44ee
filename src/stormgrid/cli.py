"""Command-line entry point, argument checks, and the scenario file schema.

Three subcommands: ``simulate`` (the default when flags are given directly),
``make-testbed``, and ``plot-data``. See the README for the scenario JSON
schema and the three network file formats.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
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
    DEFAULT_LINE_COLLAPSE_MPH,
    DEFAULT_LINE_CRITICAL_MPH,
    DEFAULT_SUBSTATION_LOG_SD,
    DEFAULT_SUBSTATION_MEDIANS_MPH,
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
from .outputs import check_out_dir, emit_outputs, plot_data
from .restoration import Strategy
from .testbed import TestbedParams, generate_testbed


# ---------------------------------------------------------------------------
# Scenario file


@dataclass
class ScenarioConfig:
    hazard: HazardScenario
    fragility: FragilityConfig
    repair: RepairModel


def _number(value) -> float:
    """A scenario number: a JSON number that is not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _numbers(values, n: int, what: str) -> list[float]:
    """A list of exactly ``n`` scenario numbers."""
    if not isinstance(values, list) or len(values) != n:
        raise ValueError(f"{what} needs {n} numbers, got {values!r}")
    return [_number(v) for v in values]


def _object(raw, allowed, what: str) -> dict:
    """A JSON object, with no keys outside ``allowed`` unless that is None."""
    if not isinstance(raw, dict):
        raise TypeError(f"{what} must be a JSON object")
    if allowed is not None and (unknown := set(raw) - set(allowed)):
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return raw


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def _hazard(field: str, read=_number):
    """A reader of one HazardScenario field, checked alone by HazardScenario's
    own rules so that a bad value is reported under the key it came from."""

    def read_field(raw):
        value = read(raw)
        HazardScenario(**{field: value})
        return value

    return read_field


def _wind(raw) -> float | list[WindCell]:
    if not isinstance(raw, dict):
        return _number(raw)
    cells = _object(raw, {"cells"}, "wind_mph").get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError(f"cells must be a non-empty list, got {cells!r}")
    return [WindCell(*_numbers(cell, 5, "wind cell")) for cell in cells]


def _runoff(raw) -> tuple[float | dict[str, float], float]:
    """``(initial_runoff_in, runoff_default_in)`` of a HazardScenario."""
    if isinstance(raw, dict):
        _object(raw, {"default", "per_link"}, "runoff_in")
        per_link = _object(raw.get("per_link", {}), None, "per_link")
        runoff = {k: _number(v) for k, v in per_link.items()}
        default = _number(raw.get("default", 0.0))
    else:
        runoff, default = _number(raw), 0.0
    HazardScenario(initial_runoff_in=runoff, runoff_default_in=default)
    return runoff, default


def _fuel_sources(raw) -> dict[str, tuple[float, float]]:
    return {
        plant: tuple(_numbers(xy, 2, f"fuel source {plant!r}"))
        for plant, xy in _object(raw, None, "fuel_sources").items()
    }


def _substation(raw) -> SubstationFragilityParams:
    _object(raw, [lv.value for lv in DamageLevel], "substation_fragility")
    medians, sigmas = {}, {}
    for lv in DamageLevel:
        medians[lv], sigmas[lv] = _numbers(raw.get(lv.value), 2, f"level {lv.value!r}")
    return SubstationFragilityParams.from_medians(medians, sigmas)


def _repair(raw) -> RepairModel:
    """The default repair rows, with each one the file names replaced."""
    rows = RepairModel().rows
    for key, row in _object(raw, None, "repair_overrides").items():
        kind_token, sep, level_token = key.partition(":")
        kind = ComponentKind(kind_token)
        level = DamageLevel(level_token) if sep else None
        if (kind is ComponentKind.SUBSTATION) is (level is None):
            raise ValueError(f"{key!r} is neither <kind> nor substation:<level>")
        try:
            mean, sd, crews = _numbers(row, 3, "[mean, sd, crews]")
            if not crews.is_integer():
                raise ValueError(f"crews must be a whole number, got {crews}")
            rows[kind, level] = RepairSpec(mean, sd, int(crews))
        except (TypeError, ValueError, RepairModelError) as exc:
            raise ValueError(f"repair row {key!r}: {exc}") from exc
    return RepairModel(rows=rows)


#: Each scenario key: the reader of its value, and the value read when the
#: key is absent.
_SCENARIO = {
    "wind_mph": (_hazard("wind_mph", _wind), 0.0),
    "runoff_in": (_runoff, 0.0),
    "drainage_in_per_hr": (
        _hazard("drainage_in_per_hr"), DEFAULT_DRAINAGE_IN_PER_HR
    ),
    "passable_threshold_in": (
        _hazard("passable_threshold_in"), DEFAULT_PASSABLE_THRESHOLD_IN
    ),
    "fuel_dependence": (_flag, True),
    "crew_access_dependence": (_flag, True),
    "fuel_sources": (_hazard("fuel_source_coords", _fuel_sources), {}),
    "substation_fragility": (_substation, {
        lv.value: [median, DEFAULT_SUBSTATION_LOG_SD]
        for lv, median in DEFAULT_SUBSTATION_MEDIANS_MPH.items()
    }),
    "line_fragility": (
        lambda raw: LineFragilityParams(*_numbers(raw, 2, "[critical, collapse]")),
        [DEFAULT_LINE_CRITICAL_MPH, DEFAULT_LINE_COLLAPSE_MPH],
    ),
    "repair_overrides": (_repair, {}),
}


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario JSON file.

    Every bad value raises :class:`FormatError` naming the file and the key.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(path, 0, f"not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc

    where, value = "", {}
    try:
        _object(raw, _SCENARIO, "scenario")
        for key, (read, default) in _SCENARIO.items():
            where = f"{key}: "
            value[key] = read(raw.get(key, default))
    except (TypeError, ValueError, OverflowError, FragilityParamError) as exc:
        raise FormatError(path, 0, f"{where}{exc}") from exc

    hazard = HazardScenario(
        wind_mph=value["wind_mph"],
        initial_runoff_in=value["runoff_in"][0],
        runoff_default_in=value["runoff_in"][1],
        drainage_in_per_hr=value["drainage_in_per_hr"],
        passable_threshold_in=value["passable_threshold_in"],
        fuel_dependence=value["fuel_dependence"],
        crew_access_dependence=value["crew_access_dependence"],
        fuel_source_coords=value["fuel_sources"],
    )
    fragility = FragilityConfig(value["substation_fragility"], value["line_fragility"])
    return ScenarioConfig(hazard, fragility, value["repair_overrides"])


# ---------------------------------------------------------------------------
# Argument parsing


#: The TestbedParams fields that make-testbed takes as flags, each with the
#: type and default of its field.
_TESTBED_FLAGS = (
    "grid_size", "households", "substations", "lights_fraction", "seed",
    "wind_mph", "runoff_in",
)


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
        dest="strategies",
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
    for name in _TESTBED_FLAGS:
        default = getattr(TestbedParams, name)
        flag = "--" + name.replace("_", "-")
        tb.add_argument(flag, type=type(default), default=default)
    tb.add_argument("--out", default="testbed")

    pd = sub.add_parser("plot-data", help="reshape timeseries CSVs to mean curves")
    pd.add_argument("inputs", nargs="+", help="timeseries CSV files")
    pd.add_argument("--out", default="curves.csv")
    return parser


def parse_cli(argv: list[str]) -> argparse.Namespace:
    """Parse and validate arguments.

    Bare flags (no subcommand) are treated as ``simulate`` flags. A
    ``simulate`` namespace lists its strategies once each, in the order
    given and carries its Monte Carlo settings, checked by
    :class:`MonteCarloConfig`, as ``mc_config``; a ``make-testbed``
    namespace carries its parameters as ``testbed``.
    """
    if argv and argv[0].startswith("-"):
        argv = ["simulate"] + list(argv)
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.error("a subcommand is required: simulate, make-testbed, plot-data")

    if ns.command == "simulate":
        if ns.teams < 1:
            raise ConfigError("--teams must be >= 1")
        if ns.seed < 0:
            raise ConfigError("--seed must be >= 0")
        ns.mc_config = MonteCarloConfig(
            confidence=ns.confidence,
            relative_halfwidth=ns.rel_halfwidth,
            min_replications=ns.min_reps,
            max_replications=ns.max_reps,
            base_seed=ns.seed,
        )
        for flag in ("power", "roads", "couplings", "scenario"):
            p = Path(getattr(ns, flag))
            if not p.is_file():
                raise ConfigError(f"--{flag}: file not found: {p}")
        ns.strategies = list(dict.fromkeys(ns.strategies))
    elif ns.command == "make-testbed":
        ns.testbed = TestbedParams(**{n: getattr(ns, n) for n in _TESTBED_FLAGS})
    return ns


def _run_simulate(cfg: argparse.Namespace) -> int:
    check_out_dir(cfg.out)
    scenario_cfg = load_scenario(cfg.scenario)
    net, roads, households = load_networks(cfg.power, cfg.roads, cfg.couplings)
    hazard = replace(
        scenario_cfg.hazard,
        fuel_dependence=scenario_cfg.hazard.fuel_dependence
        and not cfg.no_fuel_dependence,
        crew_access_dependence=scenario_cfg.hazard.crew_access_dependence
        and not cfg.no_crew_access_dependence,
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
        cfg.mc_config,
    )
    written = emit_outputs(experiment, cfg.out)
    summary = json.loads((Path(cfg.out) / "summary.json").read_text())["strategies"]
    for strategy in experiment.by_strategy:
        s = summary[strategy.value]
        flag = "" if s["converged"] else " (not converged)"
        print(
            f"{strategy.value}: mean TRL {s['mean_trl']:.2f} "
            f"(TRL/MPR {s['trl_over_mpr_pct']:.1f}%), "
            f"100% households at {s['restoration_hours_households']['100']:.0f} h, "
            f"{s['replications']} replications{flag}"
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

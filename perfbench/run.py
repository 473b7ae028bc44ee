"""stormgrid benchmark: Monte Carlo throughput, set-up time and layer costs.

Usage, from the repository root:

    python3 perfbench/run.py --workload quickstart-65 --seed 1 --seconds 20 --trace 0

One run builds the workload's input files from the seed, pays import and
first-call costs on a tiny testbed, times several set-ups of the workload
(``load_networks`` + ``load_scenario`` + ``SimulationContext``) and then runs
whole experiments (``run_experiment`` for all three strategies, then
``emit_outputs``) until ``--seconds`` of experiment time have been measured.
Every experiment's outputs are checked (see ``checks.py``) outside the timed
section. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 1`` runs a
fixed number of experiments with spans around each layer and reports the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import os

# Hold numpy/scipy thread pools to one thread; must precede their import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
WORK_DIR = HERE / "_out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program():
    """Put the checkout's ``src`` first on the path and import stormgrid."""
    src = ROOT / "src"
    if not (src / "stormgrid" / "__init__.py").is_file():
        raise SystemExit(f"error: no stormgrid sources under {src}")
    sys.path.insert(0, str(src))
    import stormgrid

    if Path(stormgrid.__file__).resolve().parent != (src / "stormgrid").resolve():
        raise SystemExit(f"error: imported stormgrid from {stormgrid.__file__}")


def _experiment(ctx, cfg, workload, base_seed, out_dir, span):
    """One timed experiment; returns (result, written paths, seconds)."""
    from stormgrid.engine import MonteCarloConfig, run_experiment
    from stormgrid.outputs import emit_outputs
    from stormgrid.restoration import Strategy

    mc = MonteCarloConfig(
        min_replications=workload.min_reps,
        max_replications=workload.max_reps,
        base_seed=base_seed,
    )
    t0 = time.perf_counter()
    result = run_experiment(
        ctx.net, ctx.roads, ctx.households, cfg.hazard, cfg.fragility,
        cfg.repair, list(Strategy), workload.teams, mc, context=ctx,
    )
    with span("outputs.emit_outputs"):
        written = emit_outputs(result, out_dir)
    return result, written, time.perf_counter() - t0


def _setup(files, span):
    from stormgrid.cli import load_scenario
    from stormgrid.engine import SimulationContext
    from stormgrid.network import load_networks

    t0 = time.perf_counter()
    with span("network.load_networks"):
        net, roads, households = load_networks(
            files["power"], files["roads"], files["couplings"]
        )
    with span("cli.load_scenario"):
        cfg = load_scenario(files["scenario"])
    with span("engine.context_build"):
        ctx = SimulationContext(net, roads, households)
    return ctx, cfg, time.perf_counter() - t0


def _warm_up(workload, work: Path) -> None:
    """Pay import and first-call costs on a tiny testbed, untimed."""
    from workloads import make_inputs

    files = make_inputs(workload, 0, work / "warmup-inputs", smoke=True)
    ctx, cfg, _ = _setup(files, _no_span)
    small = dataclasses.replace(workload, min_reps=2, max_reps=2)
    _experiment(ctx, cfg, small, 0, work / "warmup-out", _no_span)


def _no_span(name, tag=None):
    return nullcontext()


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, work: Path | None = None) -> dict:
    """Run one workload and return the result object that is printed."""
    import checks
    import spans
    from stormgrid.errors import StormGridError
    from workloads import WORKLOADS, make_inputs, round_base_seed

    workload = WORKLOADS[workload_name]
    work = work or WORK_DIR / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        files = make_inputs(workload, seed, work / "inputs", smoke=smoke)
        ref = checks.Reference(files)
        live_plants = ref.fueled_plants_at_hour0()
        _warm_up(workload, work)

        tracer = spans.Tracer() if trace else None
        span = tracer.span if tracer else _no_span
        if tracer:
            tracer.install()
        try:
            setup_times = []
            for _ in range(1 if smoke else SETUPS):
                gc.collect()
                ctx, cfg, elapsed = _setup(files, span)
                setup_times.append(elapsed)
                print(f"set-up: {elapsed:.3f} s", file=sys.stderr)
            sim_start = len(tracer.spans) if tracer else 0
            counts_start = dict(tracer.counts) if tracer else {}

            rounds = []  # (seconds, replications, simulated hours, bytes)
            attempted = failed = incorrect = 0
            target = 1 if smoke else workload.trace_rounds if trace else None
            experiments, measured, k = 0, 0.0, 0
            while experiments < target if target else measured < seconds:
                base = round_base_seed(workload, k)
                k += 1
                seeds = range(base, base + workload.max_reps)
                if any(ref.oversized_failure(s, workload.teams) for s in seeds):
                    # Known fault: such a job never starts (see README).
                    print(f"skipped seeds {base}..{seeds[-1]}: a failed component "
                          "needs more crews than the pool", file=sys.stderr)
                    continue
                experiments += 1
                out_dir = work / f"round{k}"
                gc.collect()
                t0 = time.perf_counter()
                try:
                    result, written, elapsed = _experiment(
                        ctx, cfg, workload, base, out_dir, span
                    )
                except StormGridError as exc:
                    measured += time.perf_counter() - t0
                    lost = 3 * workload.min_reps
                    attempted += lost
                    failed += lost
                    print(f"experiment {k} failed: {exc}", file=sys.stderr)
                    continue
                measured += elapsed
                report = checks.check_experiment(
                    ref, result, out_dir, workload.teams, live_plants
                )
                for msg in report.messages[:5]:
                    print(f"check failed: {msg}", file=sys.stderr)
                attempted += report.attempted
                failed += len(report.failed)
                incorrect += len(report.failed)
                reps = sum(mc.n() for mc in result.by_strategy.values())
                hours = sum(
                    rep.horizon()
                    for mc in result.by_strategy.values()
                    for rep in mc.replications
                )
                nbytes = sum(p.stat().st_size for p in written)
                rounds.append((elapsed, reps, hours, nbytes))
                print(f"experiment {k}: {elapsed:.3f} s, {reps} replications, "
                      f"{hours} h", file=sys.stderr)
                del result
                shutil.rmtree(out_dir)
        finally:
            if tracer:
                tracer.uninstall()

        if not rounds:
            raise RuntimeError("every experiment failed")
        if trace:
            sim_spans = tracer.spans[sim_start:]
            counts = tracer.counts.copy()
            counts.subtract(counts_start)
            values = spans.setup_metrics(tracer.spans[:sim_start])
            values.update(spans.simulate_metrics(sim_spans, counts, sim_start))
            values["outputs.bytes_written"] = sum(r[3] for r in rounds)
            values["bench.traced_simulate_s"] = median(r[0] for r in rounds)
            tracer.write(work.parent / f"spans-{workload_name}-seed{seed}.jsonl")
            declared = BENCHMARK["per_layer"]
        else:
            # Rates divide the mean work of an experiment by the median
            # experiment time. Every run repeats the same experiments, whose
            # work differs, so a median of per-experiment rates would jump
            # between experiments under the machine's noise.
            simulate_s = median(r[0] for r in rounds)
            values = {
                "setup_s": median(setup_times),
                "simulate_s": simulate_s,
                "replications_per_s": fmean(r[1] for r in rounds) / simulate_s,
                "sim_hours_per_s": fmean(r[2] for r in rounds) / simulate_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            declared = BENCHMARK["end_to_end"]
        if set(values) != {m["name"] for m in declared}:
            raise RuntimeError("measured metrics differ from BENCHMARK.json")
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        }
        return {
            "correct": incorrect == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

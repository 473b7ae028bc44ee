"""The benchmark's hooks and checks still resolve against the package.

``perfbench/spans.py`` replaces stormgrid functions where their callers look
them up and counts calls at those boundaries. A refactor that renames,
inlines or re-signs one of them makes its traced metrics read zero or fail;
this runs one small replication per strategy under the tracer, and builds
one context under it.
``perfbench/checks.py`` reads result fields row by row; a smoke experiment
checks that it still finds what it reads.
"""

from pathlib import Path

import stormgrid.engine as engine
from stormgrid.cli import load_scenario
from stormgrid.fragility import FragilityConfig, RepairModel
from stormgrid.hazard import HazardScenario, WindCell
from stormgrid.network import load_networks
from stormgrid.outputs import emit_outputs
from stormgrid.restoration import Strategy

from .test_restoration import radial_net

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    net, roads, hh = radial_net(n_poles=6)
    # 160 mph east of the substation fails every conductor; 3 in of runoff
    # keeps the roads shut for the first two hours
    hazard = HazardScenario(
        wind_mph=[WindCell(-10, -10, 140, 10, 0.0), WindCell(140, -10, 800, 10, 160.0)],
        initial_runoff_in=3.0,
    )
    ctx = engine.SimulationContext(net, roads, hh)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for strategy in Strategy:
            # positional, as the tracer reads the strategy from argument 7
            engine.run_replication(
                ctx, hazard, FragilityConfig(), RepairModel(), 4, 0, strategy,
            )
    finally:
        tracer.uninstall()

    c = tracer.counts
    assert c["engine.replications"] == 3
    tags = {tag for name, *_, tag in tracer.spans if name == "engine.run_replication"}
    assert tags == {s.value for s in Strategy}
    assert c["fragility.failures_sampled"] > 0
    assert c["fragility.sample_repair_calls"] == c["restoration.jobs_started"] > 0
    assert 0 < c["coupling.component_accessible_true"] < c[
        "coupling.component_accessible_calls"
    ]
    assert c["restoration.order_entries"] == c["restoration.entries_offered"] > 0
    assert c["restoration.order_calls"] > 0
    assert c["restoration.complete_due_jobs_calls"] > 0
    assert c["coupling.labels_for_calls"] > 0
    assert c["network.powered_mask_calls"] > 0
    assert not hasattr(engine.run_replication, "__wrapped__")  # uninstalled


def test_context_build_traces_the_link_assignment(monkeypatch):
    # the traced set-up takes the median of this span's times, so the
    # context must look the function up on the network module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    net, roads, hh = radial_net()
    tracer = spans.Tracer()
    tracer.install()
    try:
        engine.SimulationContext(net, roads, hh)
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    assert names.count("network.assign_nearest_road_links") == 1


def test_benchmark_checks_read_results(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads

    workload = workloads.WORKLOADS["landfall-gradient"]
    files = workloads.make_inputs(workload, 1, tmp_path / "inputs", smoke=True)
    net, roads, households = load_networks(
        files["power"], files["roads"], files["couplings"]
    )
    cfg = load_scenario(files["scenario"])
    mc = engine.MonteCarloConfig(
        min_replications=workload.min_reps, max_replications=workload.max_reps
    )
    result = engine.run_experiment(
        net, roads, households, cfg.hazard, cfg.fragility, cfg.repair,
        list(Strategy), workload.teams, mc,
    )
    emit_outputs(result, tmp_path / "out")

    ref = checks.Reference(files)
    report = checks.check_experiment(
        ref, result, tmp_path / "out", workload.teams, ref.fueled_plants_at_hour0()
    )
    assert report.messages == []
    assert report.attempted == 3 * workload.min_reps
    horizons = [
        rep.horizon() for mc in result.by_strategy.values() for rep in mc.replications
    ]
    assert all(type(h) is int for h in horizons)

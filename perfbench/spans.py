"""In-memory spans and counts around stormgrid's layer calls.

Each traced function is replaced where its caller looks it up: a module
global for functions the engine or scheduler import by name, a class
attribute for methods. A span records its name, start, end, parent span and
an optional tag; counts are kept at the same boundaries. Nothing is written
until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import stormgrid.coupling as coupling
import stormgrid.engine as engine
import stormgrid.network as network
import stormgrid.restoration as restoration

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, tag)
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, tag))
        self._stack.append(idx)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, tag)

    def _wrap(self, owner, attr: str, name: str, after=None, tag=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, tag(args) if tag else None):
                result = original(*args, **kwargs)
            self.counts[name + "_calls"] += 1
            if after:
                after(args, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _count(self, owner, attr: str, name: str, true_name: str | None = None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            self.counts[name] += 1
            if true_name and result:
                self.counts[true_name] += 1
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, counted)

    def install(self) -> None:
        c = self.counts

        def after_replication(args, res):
            c["engine.replications"] += 1
            c["engine.sim_hours"] += res.horizon()

        def after_sample(args, failed):
            c["fragility.failures_sampled"] += len(failed)

        def after_order(args, order):
            c["restoration.order_entries"] += len(order)

        def after_start(args, started):
            c["restoration.entries_offered"] += len(args[1])
            c["restoration.jobs_started"] += len(started)

        self._wrap(network, "assign_nearest_road_links",
                   "network.assign_nearest_road_links")
        self._wrap(network.PowerIndex, "powered_mask", "network.powered_mask")
        self._wrap(engine, "run_replication", "engine.run_replication",
                   after_replication, tag=lambda a: a[6].value)
        self._wrap(engine, "sample_failures", "fragility.sample_failures",
                   after_sample)
        self._wrap(engine, "initial_flood", "hazard.initial_flood")
        self._wrap(engine, "drain_step", "hazard.drain_step")
        self._wrap(engine, "complete_due_jobs", "restoration.complete_due_jobs")
        self._wrap(engine, "start_pending_jobs", "restoration.start_pending_jobs",
                   after_start)
        self._wrap(restoration.Prioritizer, "order", "restoration.order", after_order)
        self._wrap(coupling.RoadIndex, "labels_for", "coupling.labels_for")
        self._wrap(coupling.RoadIndex, "distances_from", "coupling.distances_from")
        # Called hundreds of thousands of times per replication: counts only.
        self._count(restoration, "component_accessible",
                    "coupling.component_accessible_calls",
                    "coupling.component_accessible_true")
        self._count(restoration, "sample_repair", "fragility.sample_repair_calls")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, tag]) + "\n")


def _total(spans, name: str) -> float:
    return sum(end - start for n, start, end, _, _ in spans if n == name)


def setup_metrics(spans) -> dict[str, float]:
    """Median over the repeated set-ups of each set-up layer's span time."""
    out = {}
    for metric, name in (
        ("network.load_networks_s", "network.load_networks"),
        ("network.assign_nearest_road_links_s", "network.assign_nearest_road_links"),
        ("cli.load_scenario_s", "cli.load_scenario"),
        ("engine.context_build_s", "engine.context_build"),
    ):
        out[metric] = median(end - start for n, start, end, _, _ in spans if n == name)
    return out


def simulate_metrics(spans, counts: Counter, offset: int) -> dict[str, float]:
    """Per-layer totals over the traced experiments.

    ``spans`` is the slice of the span list recorded while simulating and
    ``offset`` its start index, so parent indexes can be resolved.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= offset:
            child_time[parent - offset] += end - start
    rep_self = sum(
        (end - start) - child_time[i]
        for i, (n, start, end, _, _) in enumerate(spans)
        if n == "engine.run_replication"
    )
    out = {
        "network.powered_mask_calls": counts["network.powered_mask_calls"],
        "network.powered_mask_s": _total(spans, "network.powered_mask"),
        "engine.replication_self_s": rep_self,
        "engine.replications": counts["engine.replications"],
        "engine.sim_hours": counts["engine.sim_hours"],
        "fragility.sample_failures_s": _total(spans, "fragility.sample_failures"),
        "fragility.failures_sampled": counts["fragility.failures_sampled"],
        "fragility.sample_repair_calls": counts["fragility.sample_repair_calls"],
        "restoration.order_calls": counts["restoration.order_calls"],
        "restoration.order_s": _total(spans, "restoration.order"),
        "restoration.order_entries": counts["restoration.order_entries"],
        "restoration.start_pending_jobs_calls":
            counts["restoration.start_pending_jobs_calls"],
        "restoration.start_pending_jobs_s":
            _total(spans, "restoration.start_pending_jobs"),
        "restoration.jobs_started": counts["restoration.jobs_started"],
        "restoration.jobs_started_per_entry": counts["restoration.jobs_started"]
        / max(counts["restoration.entries_offered"], 1),
        "restoration.complete_due_jobs_s": _total(spans, "restoration.complete_due_jobs"),
        "coupling.component_accessible_calls":
            counts["coupling.component_accessible_calls"],
        "coupling.accessible_share": counts["coupling.component_accessible_true"]
        / max(counts["coupling.component_accessible_calls"], 1),
        "coupling.labels_for_calls": counts["coupling.labels_for_calls"],
        "coupling.distances_from_calls": counts["coupling.distances_from_calls"],
        "coupling.distances_from_s": _total(spans, "coupling.distances_from"),
        "hazard.drain_step_s": _total(spans, "hazard.drain_step"),
        "hazard.initial_flood_s": _total(spans, "hazard.initial_flood"),
        "outputs.emit_outputs_s": _total(spans, "outputs.emit_outputs"),
    }
    for strategy in ("component", "distance", "traffic-light"):
        durations = [
            end - start
            for n, start, end, _, tag in spans
            if n == "engine.run_replication" and tag == strategy
        ]
        out[f"engine.replication_p50_s.{strategy}"] = median(durations) if durations else 0.0
    return out

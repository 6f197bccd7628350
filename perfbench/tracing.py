"""Span tracing for the benchmark's traced run.

Spans are recorded around calls into each layer, from outside the package:
the tracer replaces kuramoto_lock's functions at the names their callers look
up and restores them afterwards.  ``experiments`` binds its callees by name at
import, so those are patched as ``kuramoto_lock.experiments.<name>``; the
integrator looks the coupling up in ``model.COUPLING_FORMS`` on every run, so
the coupling is patched there.

A layer's self time is its spans' duration minus the time covered by the
spans they enclose.  Counts are exact.  The ``*_mb`` sizes are computed from
array shapes, not measured; persisted bytes are the sizes of the files
written.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import statistics
import time
import types
from collections import defaultdict

experiments = importlib.import_module("kuramoto_lock.experiments")
model = importlib.import_module("kuramoto_lock.model")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER_METRICS = (
    ("model.coupling.calls", "count"),
    ("model.coupling.us_per_call", "us"),
    ("integrate.record.self_s", "s"),
    ("integrate.steps", "count"),
    ("integrate.us_per_step", "us"),
    ("integrate.snapshots", "count"),
    ("integrate.record_mb", "MB"),
    ("integrate.collisions.self_s", "s"),
    ("integrate.collisions.pairs", "count"),
    ("integrate.collisions.events", "count"),
    ("integrate.collisions.yield", "ratio"),
    ("integrate.collisions.us_per_event", "us"),
    ("diagnostics.detect_locking.self_s", "s"),
    ("diagnostics.detect_locking.pair_gap_mb", "MB"),
    ("diagnostics.find_majority_cluster.calls", "count"),
    ("diagnostics.find_majority_cluster.self_s", "s"),
    ("diagnostics.potential.calls", "count"),
    ("diagnostics.potential.self_s", "s"),
    ("diagnostics.energy_value.self_s", "s"),
    ("experiments.compute_series.self_s", "s"),
    ("experiments.run_instance.p50_s", "s"),
    ("experiments.run_instance.p90_s", "s"),
    ("experiments.pool.efficiency", "ratio"),
    ("experiments.persist.self_s", "s"),
    ("experiments.persist.bytes", "bytes"),
    ("certify.check.self_s", "s"),
    ("certify.check.calls_per_instance", "count"),
    ("certify.accept_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def planned_steps(dt: float, t_end: float) -> int:
    """RK4 steps of a fixed-step run: full steps plus a trailing partial one.
    Mirrors the integrator's step plan."""
    n_full = int(math.floor(t_end / dt + 1e-9))
    rem = t_end - n_full * dt
    return n_full + (1 if rem > 1e-12 * max(1.0, t_end) else 0)


class _Layer:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Collects per-layer span time and counters for one traced call."""

    def __init__(self):
        self.layers: dict[str, _Layer] = defaultdict(_Layer)
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []

    def wrap(self, layer: str, fn, observe=None):
        """``fn`` with a span of ``layer`` around every call.  ``observe`` is
        called as ``observe(result, *args, **kwargs)`` after the span closes."""

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                child = self._child_s.pop()
                stats = self.layers[layer]
                stats.calls += 1
                stats.total_s += span
                stats.self_s += span - child
                if self._child_s:
                    self._child_s[-1] += span
            if observe is not None:
                observe(return_value, *args, **kwargs)
            return return_value

        return traced

    # -- observers: exact counts and computed sizes at the layer boundaries --

    def _on_record(self, record, params, state0, config):
        self.counts["integrate.steps"] += planned_steps(config.dt, config.t_end)
        self.counts["integrate.snapshots"] += record.n_snapshots
        nbytes = record.t.nbytes + record.theta.nbytes + record.omega.nbytes
        self.peak_bytes["integrate.record"] = max(self.peak_bytes["integrate.record"], nbytes)

    def _on_collisions(self, events, params, record, config):
        n = record.n
        self.counts["integrate.collisions.pairs"] += n * (n - 1) // 2
        self.counts["integrate.collisions.events"] += len(events)
        self.counts["integrate.collisions.pairs_hit"] += len({(ev.i, ev.j) for ev in events})

    def _on_lock(self, report, params, record, *rest, **options):
        n = record.n
        nbytes = record.n_snapshots * (n * (n - 1) // 2) * 8
        self.peak_bytes["diagnostics.pair_gaps"] = max(self.peak_bytes["diagnostics.pair_gaps"], nbytes)

    def _on_check(self, report, *args, **kwargs):
        self.counts["certify.passed"] += int(bool(report.passed))

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced names for the duration of the block."""
        saved: list[tuple[object, str, object]] = []

        def patch(owner, name, layer, observe=None):
            original = owner[name] if isinstance(owner, dict) else getattr(owner, name)
            saved.append((owner, name, original))
            wrapped = self.wrap(layer, original, observe)
            if isinstance(owner, dict):
                owner[name] = wrapped
            else:
                setattr(owner, name, wrapped)

        json_proxy = _JsonProxy("json")
        try:
            for form in list(model.COUPLING_FORMS):
                patch(model.COUPLING_FORMS, form, "model.coupling")
            ex = experiments
            patch(ex, "record_trajectory", "integrate.record", self._on_record)
            patch(ex, "collision_events_from_record", "integrate.collisions", self._on_collisions)
            patch(ex, "detect_locking", "diagnostics.detect_locking", self._on_lock)
            patch(ex, "find_majority_cluster", "diagnostics.find_majority_cluster")
            patch(ex, "potential", "diagnostics.potential")
            patch(ex, "energy_value", "diagnostics.energy_value")
            patch(ex, "compute_series", "experiments.compute_series")
            patch(ex, "run_instance", "experiments.run_instance")
            for name in ("check_simple", "check_n3", "check_first_order", "check_partial_locking"):
                patch(ex, name, "certify.check", self._on_check)
            patch(ex, "save_campaign", "experiments.persist")
            patch(ex.DiagnosticsSeries, "to_csv", "experiments.persist")
            json_proxy.dump = self.wrap("experiments.persist", json.dump)
            saved.append((ex, "json", ex.json))
            ex.json = json_proxy
            yield self
        finally:
            for owner, name, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[name] = original
                else:
                    setattr(owner, name, original)


class _JsonProxy(types.ModuleType):
    """Stand-in for the ``json`` module inside ``experiments``: ``dump`` is
    traced, everything else is the real module's."""

    def __getattr__(self, name):
        return getattr(json, name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(
    tracer: Tracer,
    instances: int,
    task_times: list[float],
    workers: int,
    serial_wall_s: float,
    pooled_wall_s: float,
    traced_wall_s: float,
    persisted_bytes: int,
) -> dict[str, dict]:
    """Per-layer metric values of one traced call.

    ``task_times`` are the per-instance ``run_instance`` durations of an
    untraced one-worker call that took ``serial_wall_s``; ``pooled_wall_s`` is
    the wall time of the same call with ``workers`` workers.  Pool efficiency
    is the serial task time over ``workers`` times the pooled wall time.
    """
    L = tracer.layers
    c = tracer.counts
    coupling = L["model.coupling"]
    record = L["integrate.record"]
    collisions = L["integrate.collisions"]
    checks = L["certify.check"]
    values = {
        "model.coupling.calls": coupling.calls,
        "model.coupling.us_per_call": 1e6 * _ratio(coupling.total_s, coupling.calls),
        "integrate.record.self_s": record.self_s,
        "integrate.steps": c["integrate.steps"],
        "integrate.us_per_step": 1e6 * _ratio(record.total_s, c["integrate.steps"]),
        "integrate.snapshots": c["integrate.snapshots"],
        "integrate.record_mb": tracer.peak_bytes["integrate.record"] / 1e6,
        "integrate.collisions.self_s": collisions.self_s,
        "integrate.collisions.pairs": c["integrate.collisions.pairs"],
        "integrate.collisions.events": c["integrate.collisions.events"],
        "integrate.collisions.yield": _ratio(
            c["integrate.collisions.pairs_hit"], c["integrate.collisions.pairs"]
        ),
        "integrate.collisions.us_per_event": 1e6 * _ratio(
            collisions.total_s, c["integrate.collisions.events"]
        ),
        "diagnostics.detect_locking.self_s": L["diagnostics.detect_locking"].self_s,
        "diagnostics.detect_locking.pair_gap_mb": tracer.peak_bytes["diagnostics.pair_gaps"] / 1e6,
        "diagnostics.find_majority_cluster.calls": L["diagnostics.find_majority_cluster"].calls,
        "diagnostics.find_majority_cluster.self_s": L["diagnostics.find_majority_cluster"].self_s,
        "diagnostics.potential.calls": L["diagnostics.potential"].calls,
        "diagnostics.potential.self_s": L["diagnostics.potential"].self_s,
        "diagnostics.energy_value.self_s": L["diagnostics.energy_value"].self_s,
        "experiments.compute_series.self_s": L["experiments.compute_series"].self_s,
        "experiments.run_instance.p50_s": _percentile(task_times, 50),
        "experiments.run_instance.p90_s": _percentile(task_times, 90),
        "experiments.pool.efficiency": _ratio(sum(task_times), workers * pooled_wall_s),
        "experiments.persist.self_s": L["experiments.persist"].self_s,
        "experiments.persist.bytes": persisted_bytes,
        "certify.check.self_s": checks.self_s,
        "certify.check.calls_per_instance": _ratio(checks.calls, instances),
        "certify.accept_ratio": _ratio(c["certify.passed"], checks.calls),
        "trace.overhead_frac": _ratio(traced_wall_s, serial_wall_s) - 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}


def layer_calls(tracer: Tracer) -> dict[str, int]:
    return {name: stats.calls for name, stats in tracer.layers.items() if stats.calls}

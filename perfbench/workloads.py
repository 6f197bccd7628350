"""The three benchmark workloads: scaled-down copies of the acceptance
workloads that cost the most, each driven through kuramoto_lock's public API.

A workload is a list of parts, each one top-level call of 0.3-2 s, so that a
run times many calls and its medians hold on a noisy shared host.

- ``campaign_simple``: criterion 9 with 4 instances (N=20, t_end=50, stride
  50; every instance locks by t ~ 11), persisted to a scratch outdir.  RK4
  stepping in ``integrate`` is most of the work; it is the only workload that
  exercises the pool and persistence.  It bypasses collision detection and
  the O(N^2) diagnostics cost.
- ``census_drift``: the ``collide`` census of eight incoherent N=40 ensembles
  (t_end=2.5, ~1200 events in all), one part each; eight draws instead of one
  keep the event count, and so the cost, within ~3 % (s.d.) across seeds.
  The lock window is shortened to 2 so that ``detect_locking`` still runs.
  The pair scan and bisection refinement dominate.  Single process: it
  bypasses the pool, persistence and large-N diagnostics.
- ``scenario_large_n``: one N=200 scenario (t_end=30, stride 10).
  ``detect_locking`` and ``compute_series`` dominate and peak RSS is ~0.4 GB
  from the S x N(N-1)/2 pair gaps; it is the only workload whose memory
  scales as N^2.  It bypasses collisions, persistence and the pool.

Known gaps; a change that targets one adds its workload first: criterion
11 (the N=3 campaign) is left out, as its layers (dense recording, collision
refinement, certification) are timed by the census and the simple campaign;
no workload exercises the ``dt <= 2.5*m`` step cap (it fires at none of
the simple campaign's instances at seeds 0-10), none runs the zero-inertia integrator,
and N=1000 is left out: at t_end=200 and stride 10, ``detect_locking`` would
hold 2001 x 499500 x 8 B, about 8 GB, of pair gaps (computed, not run).

The seed passed to the benchmark selects the instance family: seed n runs the
acceptance seed plus ``SEED_STRIDE * n``, so seed 0 is the acceptance seed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

# Import modules by full name: ``from kuramoto_lock import integrate`` yields
# the integrate *function* re-exported by the package, not the module.
experiments = importlib.import_module("kuramoto_lock.experiments")
model = importlib.import_module("kuramoto_lock.model")

SEED_STRIDE = 1000

# Layers that run on every workload; a traced run fails its self-check when
# one of a workload's layers records no calls.
COMMON_LAYERS = (
    "model.coupling",
    "integrate.record",
    "diagnostics.detect_locking",
    "diagnostics.find_majority_cluster",
    "diagnostics.potential",
    "diagnostics.energy_value",
    "experiments.compute_series",
    "experiments.run_instance",
    "certify.check",
)


@dataclass(frozen=True)
class Outcome:
    """Checked result of one top-level call."""

    attempted: int
    failed: int
    problems: tuple[str, ...]
    digest: str


@dataclass(frozen=True)
class Workload:
    name: str
    acceptance_seed: int
    # seed -> the inputs of each part; ``call`` and ``check`` take one part.
    build: Callable[[int], list]
    call: Callable[[Any, int, Path], Any]
    check: Callable[[Any, Any, Path], Outcome]
    layers: tuple[str, ...]
    pooled: bool
    # The calibration kernel most like the workload's work; see calibrate.py.
    kernel: str


def _sha256(doc: Any, outdir: Optional[Path] = None) -> str:
    """SHA-256 of the sorted-key JSON of ``doc`` plus, when given, every file
    persisted under ``outdir`` (by relative path, in sorted order)."""
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    if outdir is not None:
        for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(outdir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

def _build_simple(seed: int):
    cc = experiments.CampaignConfig(
        which="simple", n_instances=4, n=20, t_end=50.0, stride=50,
        eps_omega=1e-4, eps_theta=1e-3, seed=seed,
    )
    # Every campaign instance runs under a ScenarioConfig; validating one here
    # keeps the lazy jsonschema import in set-up for every workload.
    experiments.ScenarioConfig(n=cc.n, t_end=cc.t_end, stride=cc.stride)
    return [cc]


def _call_campaign(cc, workers: int, outdir: Path):
    return experiments.certify_campaign(cc, workers=workers, outdir=outdir)


def _check_campaign(report, cc, outdir: Path) -> Outcome:
    problems = []
    if len(report.results) != cc.n_instances:
        problems.append(f"{len(report.results)} results for {cc.n_instances} instances")
    failed = max(0, cc.n_instances - len(report.results))
    for row in report.results:
        bad = []
        if not row["ok"]:
            bad.append(row.get("reason") or "not ok")
        if not row["locked"]:
            bad.append("not locked")
        if bad:
            failed += 1
            problems.append(f"instance seed {row['seed']}: {', '.join(bad)}")
    if not report.all_ok and not failed:
        failed = 1
        problems.append("all_ok is false")
    for part in ("records", "series"):
        count = len(list((outdir / part).glob("run_*")))
        if count != cc.n_instances:
            failed = max(failed, 1)
            problems.append(f"{count} files in {part}/ for {cc.n_instances} instances")
    for name in ("campaign.json", "summary.csv", "config.json"):
        if not (outdir / name).is_file():
            failed = max(failed, 1)
            problems.append(f"{name} not written")
    digest = _sha256(report.to_json_dict(), outdir)
    return Outcome(cc.n_instances, failed, tuple(problems), digest)


# ---------------------------------------------------------------------------
# Collision census
# ---------------------------------------------------------------------------

CENSUS_PARTS = 8


def _build_census(seed: int):
    return [
        experiments.ScenarioConfig(
            n=40, m=1.0, kappa=1.0, d_v=2.0, d_omega0=1.0, t_end=2.5, window=2.0,
            seed=seed + k,
        )
        for k in range(CENSUS_PARTS)
    ]


def _call_census(config, workers: int, outdir: Path):
    return experiments.collision_census(config)


def _check_census(census, config, outdir: Path) -> Outcome:
    problems = []
    times = [ev.t_star for ev in census.events]
    if not all(math.isfinite(t) and 0.0 <= t <= config.t_end for t in times):
        problems.append("event time not finite or outside [0, t_end]")
    if any(b < a for a, b in zip(times, times[1:])):
        problems.append("events not sorted by time")
    if census.total != len(census.events) or sum(census.counts.values()) != census.total:
        problems.append("event total disagrees with the per-pair counts")
    if not census.tail_ok:
        problems.append(f"{len(census.tail_violations)} collisions in the lock tail")
    doc = census.to_json_dict()
    doc["events"] = [[ev.i, ev.j, ev.t_star, ev.branch] for ev in census.events]
    return Outcome(1, int(bool(problems)), tuple(problems), _sha256(doc))


# ---------------------------------------------------------------------------
# Large-N scenario
# ---------------------------------------------------------------------------

def _build_scenario(seed: int):
    return [
        experiments.ScenarioConfig(
            n=200, m=1.0, kappa=1.0, d_v=0.5, d_omega0=1.0, t_end=30.0, stride=10, seed=seed
        )
    ]


def _call_scenario(config, workers: int, outdir: Path):
    return experiments.run_scenario(config)


def _check_scenario(record, config, outdir: Path) -> Outcome:
    problems = []
    final = record.final_state
    mean = model.mean_closed_form(record.params, record.state0)
    theta_err = abs(float(final.theta.mean()) - float(mean.theta_c(final.t)))
    omega_err = abs(float(final.omega.mean()) - float(mean.omega_c(final.t)))
    if not theta_err <= 1e-6:
        problems.append(f"phase centroid off the closed form by {theta_err:.3g}")
    if not omega_err <= 1e-6:
        problems.append(f"frequency centroid off the closed form by {omega_err:.3g}")
    if abs(final.t - config.t_end) > 1e-9:
        problems.append(f"run ended at t={final.t}, not t_end={config.t_end}")
    if record.lock is None:
        problems.append("no lock report")
    return Outcome(1, int(bool(problems)), tuple(problems), _sha256(record.to_json_dict()))


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="campaign_simple",
            acceptance_seed=9090,
            build=_build_simple,
            call=_call_campaign,
            check=_check_campaign,
            layers=COMMON_LAYERS + ("experiments.persist",),
            pooled=True,
            kernel="rk4",
        ),
        Workload(
            name="census_drift",
            acceptance_seed=11,
            build=_build_census,
            call=_call_census,
            check=_check_census,
            layers=COMMON_LAYERS + ("integrate.collisions",),
            pooled=False,
            kernel="rk4",
        ),
        Workload(
            name="scenario_large_n",
            acceptance_seed=7,
            build=_build_scenario,
            call=_call_scenario,
            check=_check_scenario,
            layers=COMMON_LAYERS,
            pooled=False,
            kernel="arrays",
        ),
    )
}


def workload_seed(workload: Workload, seed: int) -> int:
    return workload.acceptance_seed + SEED_STRIDE * seed

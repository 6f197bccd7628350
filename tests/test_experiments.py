"""Experiments: seeded reproducibility, schema validation, sweeps, campaigns,
collision censuses, and persistence."""

import dataclasses
import gc
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from kuramoto_lock import CampaignConfig, ScenarioConfig, certify_campaign, run_scenario
from kuramoto_lock.integrate import IntegrationError, record_trajectory
from kuramoto_lock.experiments import (
    SCENARIO_SCHEMA,
    ConfigError,
    DiagnosticsSeries,
    collision_census,
    figure_sweep,
    sample_instance,
    save_run_record,
    _effective_dt,
)


def small_config(**kw):
    base = dict(n=8, m=0.5, kappa=1.0, d_v=0.2, d_omega0=0.3, seed=5,
                t_end=25.0, dt=0.01, stride=10, certify=False)
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Config and schema
# ---------------------------------------------------------------------------

def test_schema_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"N": 4, "bogus": 1})


def test_schema_rejects_bad_types():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"N": "ten"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"dt": -0.1})


def test_scenario_schema_is_valid():
    from jsonschema.validators import validator_for

    validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)


def test_zero_inertia_collisions_rejected():
    with pytest.raises(ConfigError, match="m > 0"):
        ScenarioConfig(m=0.0, collisions=True)
    with pytest.raises(ConfigError, match="m > 0"):
        ScenarioConfig.from_dict({"N": 4, "m": 0, "collisions": True})
    with pytest.raises(ConfigError, match="m > 0"):
        collision_census(small_config(m=0.0))


def test_config_roundtrip():
    cfg = small_config()
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


def test_effective_dt_guard():
    assert _effective_dt(0.01, 1.0) == 0.01
    assert _effective_dt(0.01, 0.0) == 0.01  # zero inertia path
    assert _effective_dt(0.01, 1e-3) == 2.5e-3


# ---------------------------------------------------------------------------
# Scenario runs
# ---------------------------------------------------------------------------

def test_degenerate_scenario_locks_trivially():
    cfg = small_config(d_v=0.0, d_omega0=0.0, t_end=40.0)
    rec = run_scenario(cfg)
    assert rec.lock.locked
    assert rec.series.r[-1] > 0.999


def test_seed_replay_is_byte_identical():
    cfg = small_config(certify=True)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    assert np.array_equal(a.series.r, b.series.r)


def test_large_spread_regime_fails_to_lock():
    cfg = ScenarioConfig(n=50, m=1.0, kappa=1.0, d_v=2.0, d_omega0=1.0, seed=2,
                         t_end=30.0, stride=10, certify=False)
    rec = run_scenario(cfg)
    assert not rec.lock.locked
    assert rec.series.r.min() < 0.35  # the amplitude keeps visiting low values


def test_kappa_zero_with_certify_rejected():
    with pytest.raises(ConfigError):
        run_scenario(small_config(kappa=0.0, certify=True))


def test_series_columns_and_csv(tmp_path):
    cfg = small_config(t_end=12.0)
    rec = run_scenario(cfg)
    assert DiagnosticsSeries.COLUMNS == (
        "t", "R", "phi", "Delta", "D_theta", "D_omega", "P", "E",
        "cluster_fraction", "cluster_arc",
    )
    path = tmp_path / "series.csv"
    rec.series.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,R,phi,Delta,D_theta,D_omega,P,E,cluster_fraction,cluster_arc"
    save_run_record(rec, tmp_path / "run")
    saved = json.loads((tmp_path / "run" / "run.json").read_text())
    assert saved["config"]["N"] == cfg.n
    assert saved["provenance"]["code_version"]


def test_sample_instance_distribution_bounds():
    cfg = small_config(n=200, d_v=0.8, d_omega0=1.6)
    params, state0 = sample_instance(cfg)
    assert params.nu.min() >= -0.4 and params.nu.max() <= 0.4
    assert state0.omega.min() >= -0.8 and state0.omega.max() <= 0.8
    assert state0.theta.min() >= 0.0 and state0.theta.max() <= 2 * np.pi


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_figure_sweep_frozen_sample():
    base = small_config(n=10, t_end=15.0)
    result = figure_sweep("m_kappa", [0.5, 1.0], base)
    assert [row["value"] for row in result.rows] == [0.5, 1.0]
    # Frozen unit draws: identical nu samples across the sweep values.
    nu0 = result.records[0].params.nu
    nu1 = result.records[1].params.nu
    assert np.array_equal(nu0, nu1)


def test_figure_sweep_lock_delay_grows_with_inertia():
    base = ScenarioConfig(n=12, kappa=1.0, d_v=0.25, d_omega0=0.5, seed=4,
                          t_end=120.0, stride=10, certify=False)
    result = figure_sweep("m_kappa", [0.25, 1.0, 4.0], base)
    locks = [row["t_lock"] for row in result.rows]
    assert all(row["locked"] for row in result.rows)
    assert locks[0] < locks[-1]


def test_figure_sweep_blowup_names_value():
    with pytest.raises(IntegrationError, match=r"sweep value 1e\+308: non-finite state"):
        figure_sweep("Dv_over_kappa", [0.5, 1e308], small_config(n=4, t_end=5.0))


def test_figure_sweep_rejects_bad_axis():
    with pytest.raises(ConfigError):
        figure_sweep("bogus", [1.0], small_config())
    with pytest.raises(ConfigError):
        figure_sweep("m_kappa", [-1.0], small_config())


def test_sweep_csv(tmp_path):
    base = small_config(n=6, t_end=12.0)
    result = figure_sweep("Dv_over_kappa", [0.2], base)
    path = tmp_path / "summary.csv"
    result.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("value,R_end,Delta_end,locked,t_lock")
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

def test_simple_campaign_small():
    cc = CampaignConfig(which="simple", n_instances=3, seed=42, n=12,
                        t_end=120.0, stride=50)
    report = certify_campaign(cc)
    assert report.all_ok
    assert len(report.results) == 3
    assert all(r["certified"] for r in report.results)
    assert all(r["locked"] for r in report.results)


def test_campaign_defect_reporting():
    # Impossible tolerance turns every instance into a reported defect with
    # its reproduction seed.
    cc = CampaignConfig(which="simple", n_instances=2, seed=7, n=10,
                        t_end=40.0, stride=25, eps_omega=1e-15)
    report = certify_campaign(cc)
    assert not report.all_ok
    assert len(report.defects) == 2
    assert all("seed" in d for d in report.defects)


def test_nonsync_family_not_certified():
    # Zero-centroid data: every locking certificate refuses, and the
    # simulation never locks, consistently.
    from kuramoto_lock import PhaseState, SystemParams, check_simple
    from kuramoto_lock.experiments import run_instance

    params = SystemParams(0.5, 1.0, np.array([0.4, 0.4, -0.4, -0.4]))
    state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.5, 0.5 + np.pi]), np.zeros(4))
    r0 = abs(np.exp(1j * state0.theta).mean())
    assert not check_simple(params, r0, 0.0).passed
    cfg = small_config(n=4, t_end=30.0, certify=False)
    rec = run_instance(cfg, params, state0)
    assert not rec.lock.locked


def test_campaign_partial_small():
    cc = CampaignConfig(which="partial", n_instances=2, seed=3, n=10,
                        t_end=120.0, stride=10, lam=0.7, ell=1.0, eta=2.0)
    report = certify_campaign(cc)
    assert report.all_ok
    for row in report.results:
        assert row["persist_max"] <= 1.0 + 1e-6
        assert row["tail_diameter"] <= row["tail_bound"] + 1e-3


def _persisted(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("which", ["simple", "n3", "first_order", "partial"])
def test_campaign_batched_matches_per_instance(tmp_path, monkeypatch, which):
    from kuramoto_lock import experiments
    from kuramoto_lock.experiments import run_instance

    cc = CampaignConfig(which=which, n_instances=3, seed=9, n=8, t_end=30.0, stride=25)
    report = certify_campaign(cc, outdir=tmp_path / "batched")
    files = _persisted(tmp_path / "batched")
    records = 0 if which == "partial" else cc.n_instances
    assert len(files) == 3 + 2 * records

    for row in report.results:
        attempt = row["index"]
        params, state0, cert, spec = experiments._campaign_instance(cc, attempt)
        config = experiments._campaign_scenario(cc, params)
        if which == "partial":
            cfg = experiments._integrator_config(config, params)
            alone = record_trajectory(params, state0, cfg)
            expected = experiments._verify_partial(cc, params, cert, spec, alone)
            assert json.dumps({**row, **expected}) == json.dumps(row)
            continue
        record = run_instance(config, params, state0)
        assert files[f"records/run_{attempt:05d}.json"] == (
            json.dumps(record.to_json_dict()) + "\n"
        ).encode()
        record.series.to_csv(tmp_path / "alone.csv")
        assert files[f"series/run_{attempt:05d}.csv"] == (tmp_path / "alone.csv").read_bytes()

    # A budget of two instances splits the group into batches of two and one.
    params = experiments._campaign_instance(cc, report.results[0]["index"])[0]
    cfg = experiments._integrator_config(experiments._campaign_scenario(cc, params), params)
    monkeypatch.setattr(experiments, "_BATCH_ELEMENTS", 2 * experiments._n_snapshots(cfg) * params.n)
    certify_campaign(cc, outdir=tmp_path / "split")
    assert _persisted(tmp_path / "split") == files


@pytest.mark.parametrize("which", ["simple", "partial"])
def test_campaign_samples_each_attempt_once(monkeypatch, which):
    from kuramoto_lock import experiments

    calls = Counter()
    sample = experiments._campaign_instance

    def counting(cc, attempt):
        calls[attempt] += 1
        return sample(cc, attempt)

    monkeypatch.setattr(experiments, "_campaign_instance", counting)
    cc = CampaignConfig(which=which, n_instances=2, seed=3, n=10, t_end=15.0, stride=10)
    report = certify_campaign(cc)
    assert len(report.results) == 2
    assert sorted(calls) == list(range(max(calls) + 1))
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("kind", ["campaign", "sweep"])
def test_one_batch_alive_at_a_time(monkeypatch, kind):
    from kuramoto_lock import experiments

    if kind == "campaign":
        cc = CampaignConfig(which="simple", n_instances=3, seed=9, n=8, t_end=30.0, stride=25)
        params = experiments._campaign_instance(cc, 0)[0]
        config = experiments._campaign_scenario(cc, params)
        run = lambda: certify_campaign(cc)
    else:
        config = small_config(n=6, t_end=12.0)
        run = lambda: figure_sweep("m_kappa", [0.5, 1.0, 2.0], config)
    cfg = experiments._integrator_config(config, sample_instance(config)[0])
    # One instance per batch: three batches.
    monkeypatch.setattr(experiments, "_BATCH_ELEMENTS", experiments._n_snapshots(cfg) * config.n)
    earlier = []
    record = experiments.record_trajectory

    def checking(*args):
        gc.collect()
        assert all(ref() is None for ref in earlier)
        rec = record(*args)
        earlier.extend([weakref.ref(rec.theta), weakref.ref(rec.omega)])
        return rec

    monkeypatch.setattr(experiments, "record_trajectory", checking)
    run()
    assert len(earlier) >= 2 * 3


# ---------------------------------------------------------------------------
# Collision census
# ---------------------------------------------------------------------------

def test_census_locked_has_empty_tail():
    cfg = ScenarioConfig(n=5, m=0.1, kappa=1.0, d_v=0.1, d_omega0=0.5, seed=6,
                         t_end=60.0, stride=10, certify=False)
    census = collision_census(cfg)
    assert census.m_kappa == pytest.approx(0.1)
    assert census.locked
    assert census.tail_ok
    assert not census.tail_violations


def test_census_nonsync_counts_grow_linearly():
    from kuramoto_lock import PhaseState, SystemParams
    from kuramoto_lock.experiments import run_instance

    def census_count(t_end):
        params = SystemParams(0.05, 0.2, np.array([1.0, 1.0, 2.0, 2.0]))
        state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
        cfg = small_config(n=4, m=0.05, kappa=0.2, t_end=t_end, collisions=True)
        rec = run_instance(cfg, params, state0)
        return len(rec.collisions)

    c20 = census_count(20.0)
    c40 = census_count(40.0)
    assert c40 >= 2 * c20 - 4
    assert c40 <= 2 * c20 + 4


def test_census_identical_pair_excluded():
    from kuramoto_lock import PhaseState, SystemParams
    from kuramoto_lock.experiments import run_instance

    params = SystemParams(0.1, 0.5, np.array([0.2, 0.2, -0.4]))
    state0 = PhaseState(0.0, np.array([1.0, 1.0, 3.0]), np.array([0.1, 0.1, 0.0]))
    cfg = small_config(n=3, m=0.1, kappa=0.5, t_end=30.0, collisions=True)
    rec = run_instance(cfg, params, state0)
    assert not any((ev.i, ev.j) == (0, 1) for ev in rec.collisions)

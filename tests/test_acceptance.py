"""Acceptance suite: every top-level criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
The numbered order matches the criteria list in the project README.
"""

import math
import time

import numpy as np
import pytest

from kuramoto_lock import (
    IntegratorConfig,
    PhaseState,
    ScenarioConfig,
    SystemParams,
    CampaignConfig,
    certify_campaign,
    check_simple,
    dilate_transform,
    f_lambda,
    f_max,
    galilean_transform,
    lemma_numeric_suite,
    mean_closed_form,
    nonsync_exact,
    phi_roots,
    record_trajectory,
    theta_star,
    xi,
)
from kuramoto_lock.certify import arrangement_budget, n3_threshold
from kuramoto_lock.experiments import (
    _campaign_instance,
    figure_sweep,
    sample_instance,
)

TWO_PI = 2.0 * np.pi


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] {status}  {label}{suffix}", flush=True)
    assert ok, f"criterion {num}: {label}{suffix}"


def test_01_exact_solution_oracle():
    t0 = time.perf_counter()
    params = SystemParams(1.0, 0.4, np.array([1.0, 1.0, 2.0, 2.0]))
    state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
    exact = nonsync_exact(params, state0, [[0, 1], [2, 3]])
    rec = record_trajectory(params, state0, IntegratorConfig(dt=0.01, t_end=30.0, observer_stride=1))
    sup_err = float(np.abs(rec.theta - exact.theta(rec.t)).max())
    r_max = float(np.abs(np.exp(1j * rec.theta).mean(axis=1)).max())
    elapsed = time.perf_counter() - t0
    report(
        1,
        "zero-centroid family: integrator vs closed form",
        sup_err < 1e-6 and r_max < 1e-6 and elapsed < 1.0,
        f"sup_err={sup_err:.2e}, max R={r_max:.2e}, {elapsed:.2f}s",
    )


def test_02_mean_conservation():
    cfg = ScenarioConfig(n=50, m=1.0, kappa=1.0, d_v=0.5, d_omega0=1.0, seed=2026,
                         t_end=30.0, certify=False)
    params, state0 = sample_instance(cfg)
    mt = mean_closed_form(params, state0)
    rec = record_trajectory(params, state0, IntegratorConfig(dt=0.01, t_end=30.0, observer_stride=1))
    err_theta = float(np.abs(rec.theta.mean(axis=1) - mt.theta_c(rec.t)).max())
    err_omega = float(np.abs(rec.omega.mean(axis=1) - mt.omega_c(rec.t)).max())
    report(
        2,
        "phase/frequency averages follow the closed form",
        err_theta < 1e-6 and err_omega < 1e-6,
        f"theta_c err={err_theta:.2e}, omega_c err={err_omega:.2e}",
    )


def test_03_symmetry_equivalence():
    cfg = IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=20)
    worst_shift = 0.0
    worst_dilate = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        params = SystemParams(1.0, 1.0, rng.uniform(-0.4, 0.4, 5))
        state0 = PhaseState(0.0, rng.uniform(0, TWO_PI, 5), rng.uniform(-0.5, 0.5, 5))
        shifts = tuple(rng.uniform(-0.5, 0.5, 3))
        pt, st_ = galilean_transform(params, state0, *shifts)
        rec = record_trajectory(params, state0, cfg)
        rec_t = record_trajectory(pt, st_, cfg)
        for k in range(rec.n_snapshots):
            _, mapped = galilean_transform(params, rec.state(k), *shifts)
            worst_shift = max(worst_shift, float(np.abs(mapped.theta - rec_t.theta[k]).max()))
            worst_shift = max(worst_shift, float(np.abs(mapped.omega - rec_t.omega[k]).max()))
        alpha = 2.0 if seed % 2 == 0 else 1.6
        pd, sd = dilate_transform(params, state0, alpha)
        rec_d = record_trajectory(
            pd, sd, IntegratorConfig(dt=0.01 / alpha, t_end=10.0 / alpha, observer_stride=20)
        )
        worst_dilate = max(worst_dilate, float(np.abs(rec.theta - rec_d.theta).max()))
        worst_dilate = max(
            worst_dilate, float(np.abs(alpha * rec.omega - rec_d.omega).max())
        )
    report(
        3,
        "frame-shift and dilation commute with integration",
        worst_shift < 1e-8 and worst_dilate < 1e-8,
        f"shift={worst_shift:.2e}, dilation={worst_dilate:.2e}",
    )


def _propagation_violation(params, state0, rec):
    e = np.exp(-rec.t / params.m)
    lo = e[:, None] * state0.omega[None, :] + (1 - e)[:, None] * (params.nu - params.kappa)[None, :]
    hi = e[:, None] * state0.omega[None, :] + (1 - e)[:, None] * (params.nu + params.kappa)[None, :]
    worst = max(float((lo - rec.omega).max()), float((rec.omega - hi).max()))
    iu, jv = np.triu_indices(params.n, 1)
    if iu.size:
        pair_gap = np.abs(rec.omega[:, iu] - rec.omega[:, jv])
        pair_bound = (
            e[:, None] * np.abs(state0.omega[iu] - state0.omega[jv])[None, :]
            + (1 - e)[:, None]
            * (np.abs(params.nu[iu] - params.nu[jv]) + 2 * params.kappa)[None, :]
        )
        worst = max(worst, float((pair_gap - pair_bound).max()))
    d_om = rec.omega.max(axis=1) - rec.omega.min(axis=1)
    d_bound = e * (state0.omega.max() - state0.omega.min()) + (1 - e) * (
        params.nu_diameter + 2 * params.kappa
    )
    return max(worst, float((d_om - d_bound).max()))


def test_04_propagation_bounds():
    worst = -math.inf
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(2, 31))
        params = SystemParams(
            float(rng.uniform(0.05, 2.0)),
            float(rng.uniform(0.2, 2.0)),
            rng.uniform(-1.0, 1.0, n),
        )
        state0 = PhaseState(0.0, rng.uniform(0, TWO_PI, n), rng.uniform(-1.0, 1.0, n))
        rec = record_trajectory(params, state0, IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=10))
        worst = max(worst, _propagation_violation(params, state0, rec))
    report(
        4,
        "finite-propagation-speed envelopes hold at every snapshot",
        worst < 1e-6,
        f"worst violation={worst:.2e}",
    )


@pytest.mark.slow
def test_05_quasi_monotonicity():
    cc = CampaignConfig(which="simple", n_instances=20, seed=5050, n=15)
    worst = math.inf
    checked = 0
    kept = 0
    attempt = 0
    while kept < 20:
        params, state0, cert, _ = _campaign_instance(cc, attempt)
        attempt += 1
        if not cert.passed:
            continue
        kept += 1
        eta = cert.details["eta"]
        d_om0 = float(state0.omega.max() - state0.omega.min())
        xi_eta = xi(params, d_om0, eta)
        dt = min(0.01, params.m / 3.0)
        rec = record_trajectory(
            params, state0, IntegratorConfig(dt=dt, t_end=20.0, observer_stride=1, coupling="mean_field")
        )
        z = np.exp(1j * rec.theta).mean(axis=1)
        r = np.abs(z)
        phi = np.angle(z)
        delta = np.mean(np.sin(rec.theta - phi[:, None]) ** 2, axis=1)
        h = rec.t[1] - rec.t[0]
        dr = (r[2:] - r[:-2]) / (2 * h)
        tk = rec.t[1:-1]
        rk, dk = r[1:-1], delta[1:-1]
        rhs = (
            params.kappa
            * np.sqrt(dk)
            * (1.0 - np.exp(-tk / params.m))
            * (rk * np.sqrt(dk) - xi_eta)
        )
        mask = tk >= eta * params.m
        slack = float((dr[mask] - rhs[mask]).min())
        worst = min(worst, slack)
        checked += int(mask.sum())
    report(
        5,
        "discrete amplitude growth inequality after the initial layer",
        worst >= -1e-3,
        f"min slack={worst:.2e} over {checked} snapshots, 20 certified instances",
    )


def test_06_figure_regime_reproduction():
    t0 = time.perf_counter()
    base = ScenarioConfig(n=50, m=1.0, kappa=1.0, d_v=1.0, d_omega0=1.0, seed=2026,
                          t_end=200.0, dt=0.01, stride=10, certify=False)
    values = [2.0, 0.5, 0.25, 0.125, 0.0625]
    result = figure_sweep("Dv_over_kappa", values, base)
    elapsed = time.perf_counter() - t0
    rows = result.rows
    lock_pattern_ok = (not rows[0]["locked"]) and all(r["locked"] for r in rows[1:])
    ratios = [r["ratio_one_minus_R30"] for r in rows[1:]]
    ratios_ok = all(0.40 <= rho <= 0.65 for rho in ratios)
    report(
        6,
        "spread sweep: lock fails only at D(nu)/kappa=2; limiting amplitude ratio",
        lock_pattern_ok and ratios_ok and elapsed < 30.0,
        f"ratios={[f'{r:.3f}' for r in ratios]}, {elapsed:.1f}s",
    )


def test_07_root_machinery_grid():
    worst_resid = 0.0
    ordering_ok = True
    phi1_bound_ok = True
    for lam in np.linspace(0.52, 1.0, 50):
        lam = float(lam)
        peak = theta_star(lam)
        top = f_max(lam)
        for frac in np.linspace(0.02, 0.98, 50):
            delta = float(frac) * top
            r1, r2 = phi_roots(lam, delta)
            worst_resid = max(
                worst_resid, abs(f_lambda(lam, r1) - delta), abs(f_lambda(lam, r2) - delta)
            )
            ordering_ok = ordering_ok and 0.0 < r1 < peak < r2 < 2 * math.acos((1 - lam) / lam)
            phi1_bound_ok = phi1_bound_ok and r1 < 3 * math.pi * delta / (4 * (2 * lam - 1))
    identity_worst = max(
        abs(f_lambda(float(lam), math.acos((1 - lam) / lam)) - arrangement_budget(float(lam)))
        for lam in np.linspace(0.52, 1.0, 50)
    )
    report(
        7,
        "root machinery on the 50x50 parameter grid",
        worst_resid <= 1e-12 and ordering_ok and phi1_bound_ok and identity_worst <= 1e-12,
        f"max |f(root)-level|={worst_resid:.2e}, identity gap={identity_worst:.2e}",
    )


def test_08_selection_constants():
    suite = lemma_numeric_suite(1000)
    named_ok = True
    for x, y, z in [(0.5, 0.015, 0.12), (0.3, 0.05, 0.76)]:
        r0 = 0.8
        r0sq = r0 * r0
        params = SystemParams(y * r0sq, 1.0, np.array([-0.5, 0.5]) * x * r0sq)
        named_ok = named_ok and check_simple(params, r0, z * r0sq).passed
    report(
        8,
        "selection constants: grid slacks, breakpoint continuity, named points",
        suite.all_ok
        and suite.stmt1_min_slack > 0
        and suite.stmt2_min_slack > 0
        and suite.stmt3_min_slack > 0
        and suite.breakpoint_lambda_gap <= 1e-12
        and suite.breakpoint_ell_gap <= 1e-12
        and named_ok,
        f"min slacks=({suite.stmt1_min_slack:.1e}, {suite.stmt2_min_slack:.1e}, "
        f"{suite.stmt3_min_slack:.1e})",
    )


@pytest.mark.slow
def test_09_certified_implies_locked():
    t0 = time.perf_counter()
    cc = CampaignConfig(which="simple", n_instances=100, seed=9090, n=20,
                        t_end=200.0, stride=50, eps_omega=1e-4, eps_theta=1e-3)
    rep = certify_campaign(cc)
    elapsed = time.perf_counter() - t0
    locked = sum(r["locked"] for r in rep.results)
    report(
        9,
        "100 certified instances all reach the locking criterion by t=200",
        rep.all_ok and locked == 100 and elapsed < 300.0,
        f"{locked}/100 locked, defects={len(rep.defects)}, {elapsed:.0f}s",
    )


def test_10_partial_locking_predictions():
    cc = CampaignConfig(which="partial", n_instances=20, seed=1010, n=10,
                        t_end=200.0, stride=10, lam=0.7, ell=1.0, eta=2.0)
    rep = certify_campaign(cc)
    persist_ok = all(r["persist_max"] <= cc.ell + 1e-6 for r in rep.results)
    tail_ok = all(r["tail_diameter"] <= r["tail_bound"] + 1e-3 for r in rep.results)
    gaps_ok = all(
        r["arrangement_lower_slack"] >= -1e-3 and r["arrangement_upper_slack"] >= -1e-3
        for r in rep.results
    )
    report(
        10,
        "20 certified clusters persist, shrink to the tail bound, and order by frequency",
        rep.all_ok and persist_ok and tail_ok and gaps_ok,
        f"defects={len(rep.defects)}",
    )


@pytest.mark.slow
def test_11_three_oscillator_certificate():
    threshold_ok = round(n3_threshold(), 6) == 0.123003
    cc = CampaignConfig(which="n3", n_instances=100, seed=1111, t_end=150.0, stride=50)
    rep = certify_campaign(cc)
    locked = sum(r["locked"] for r in rep.results)
    finite_ok = all(np.isfinite(r["collisions"]) for r in rep.results)
    tails_ok = all(r["tail_ok"] for r in rep.results)
    report(
        11,
        "100 adversarial three-oscillator instances: lock, finite collisions, clean tails",
        rep.all_ok and locked == 100 and finite_ok and tails_ok and threshold_ok,
        f"{locked}/100 locked, max collisions="
        f"{max(r['collisions'] for r in rep.results)}, threshold to 6 decimals",
    )


def test_12_first_order_threshold():
    cc = CampaignConfig(which="first_order", n_instances=50, seed=1212, n=15,
                        t_end=100.0, stride=25)
    rep = certify_campaign(cc)
    locked = sum(r["locked"] for r in rep.results)
    from kuramoto_lock import check_first_order

    boundary_ok = (
        check_first_order(SystemParams(0.0, 6.5, np.array([-0.5, 0.5])), 0.5).passed
        and not check_first_order(SystemParams(0.0, 6.0, np.array([-0.5, 0.5])), 0.5).passed
    )
    report(
        12,
        "50 zero-inertia instances above the coupling threshold all lock",
        rep.all_ok and locked == 50 and boundary_ok,
        f"{locked}/50 locked, 6.5/6.0 boundary behaves",
    )


def test_13_energy_dissipation():
    from kuramoto_lock import energy_dissipation_residual

    worst_resid = 0.0
    worst_increase = -math.inf
    for seed in range(10):
        rng = np.random.default_rng(1300 + seed)
        n = 10
        params = SystemParams(float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.5, 2.0)), np.zeros(n))
        state0 = PhaseState(0.0, rng.uniform(0, TWO_PI, n), rng.uniform(-0.5, 0.5, n))
        rec = record_trajectory(params, state0, IntegratorConfig(dt=0.01, t_end=20.0, observer_stride=1))
        bal = energy_dissipation_residual(params, rec)
        worst_resid = max(worst_resid, float(np.abs(bal.residual).max()))
        worst_increase = max(worst_increase, float(np.diff(bal.energy).max()))
    report(
        13,
        "identical frequencies: energy nonincreasing, dissipation residual small",
        worst_resid < 1e-3 and worst_increase <= 1e-8,
        f"max |residual|={worst_resid:.2e}, max energy step={worst_increase:.2e}",
    )

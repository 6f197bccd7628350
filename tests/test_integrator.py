"""Integrator: oracle comparisons, self-convergence order, propagation
bounds, collision detection, and determinism."""

import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest

from kuramoto_lock import (
    IntegrationError,
    IntegratorConfig,
    PhaseState,
    SystemParams,
    detect_collisions,
    integrate,
    mean_closed_form,
    nonsync_exact,
    record_trajectory,
    rhs_first_order,
)
from kuramoto_lock.experiments import (
    CampaignConfig,
    ScenarioConfig,
    _campaign_instance,
    _effective_dt,
    sample_instance,
)
from kuramoto_lock.integrate import (
    CollisionEvent,
    _certificate,
    _stepper,
    collision_events_from_record,
)
from kuramoto_lock.model import COUPLING_FORMS, coupling_mean_field

# The package re-exports the ``integrate`` function under the module's name.
integrate_module = importlib.import_module("kuramoto_lock.integrate")

TWO_PI = 2.0 * np.pi

# The bisection's fixed time tolerance, as the README states it.
_REFINE_TOL = 1e-12


def random_instance(rng, n=5, m=1.0, kappa=1.0, d_v=0.8, d_om=1.0):
    params = SystemParams(m, kappa, rng.uniform(-d_v / 2, d_v / 2, n))
    state = PhaseState(0.0, rng.uniform(0, TWO_PI, n), rng.uniform(-d_om / 2, d_om / 2, n))
    return params, state


# ---------------------------------------------------------------------------
# Reference steppers: RK4 on the phases and frequencies as two arrays, and a
# separate copy for zero inertia, in the operation order the stacked
# stepper must reproduce bit for bit.
# ---------------------------------------------------------------------------

def _reference_accel(params, coup, theta, omega):
    return (params.nu - omega + coup(theta, params.kappa)) / params.m


def _reference_rk4_step(params, coup, theta, omega, h, *, b1=None, phases_only=False):
    """``(theta_new, omega_new)``; with ``phases_only``, ``(theta_new, None)``."""
    if b1 is None:
        b1 = _reference_accel(params, coup, theta, omega)
    th2 = theta + (0.5 * h) * omega
    om2 = omega + (0.5 * h) * b1
    b2 = _reference_accel(params, coup, th2, om2)
    th3 = theta + (0.5 * h) * om2
    om3 = omega + (0.5 * h) * b2
    b3 = _reference_accel(params, coup, th3, om3)
    om4 = omega + h * b3
    theta_new = theta + (h / 6.0) * (omega + 2.0 * om2 + 2.0 * om3 + om4)
    if phases_only:
        return theta_new, None
    b4 = _reference_accel(params, coup, theta + h * om3, om4)
    return theta_new, omega + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)


def _reference_rk4_step_first_order(params, coup, theta, h):
    nu, kappa = params.nu, params.kappa

    def vel(th):
        return nu + coup(th, kappa)

    k1 = vel(theta)
    k2 = vel(theta + (0.5 * h) * k1)
    k3 = vel(theta + (0.5 * h) * k2)
    k4 = vel(theta + h * k3)
    return theta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage1_rate(params, coup, y):
    """Stage-1 rate of the stacked state ``y``, as the bisection computes it."""
    omega = y[1] if len(y) == 2 else None
    return integrate_module._rate(params, coup, y[0], omega, np.empty_like(y[0]))


def _rk4_step(params, coup, y, h, **kwargs):
    """One step of a stepper built for ``y`` alone."""
    return _stepper(params, coup, y.shape)(y, h, **kwargs)


def test_zero_coupling_zero_data_is_constant():
    p = SystemParams(1.0, 0.0, [0.0, 0.0, 0.0])
    s = PhaseState(0.0, [0.2, 1.0, 4.0], [0.0, 0.0, 0.0])
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=5.0, observer_stride=100))
    assert np.abs(rec.theta - s.theta).max() == 0.0
    assert np.abs(rec.omega).max() == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(observer_stride=0)
    # Every run steps the mean-field coupling; there is no option to choose.
    with pytest.raises(TypeError):
        IntegratorConfig(coupling="direct")


def test_nonsync_oracle_error():
    params = SystemParams(1.0, 0.4, np.array([1.0, 1.0, 2.0, 2.0]))
    state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
    exact = nonsync_exact(params, state0, [[0, 1], [2, 3]])
    rec = record_trajectory(params, state0, IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=10))
    assert np.abs(rec.theta - exact.theta(rec.t)).max() < 1e-6


def test_order_four_self_convergence(rng):
    p, s = random_instance(rng, n=5, m=0.9, kappa=1.2)
    t_end = 5.0

    def final_theta(dt):
        cfg = IntegratorConfig(dt=dt, t_end=t_end, observer_stride=10**9)
        return integrate(p, s, cfg).theta

    ref = final_theta(0.02 / 20.0)
    err_coarse = np.abs(final_theta(0.02) - ref).max()
    err_fine = np.abs(final_theta(0.01) - ref).max()
    ratio = err_coarse / err_fine
    assert 8.0 <= ratio <= 32.0


def test_first_order_identical_half_circle_monotone_r(rng):
    n = 12
    p = SystemParams(0.0, 1.0, np.zeros(n))
    theta0 = rng.uniform(-0.75 * np.pi / 2, 0.75 * np.pi / 2, n)
    s = PhaseState(0.0, theta0, np.zeros(n))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=15.0, observer_stride=10))
    r = np.abs(np.exp(1j * rec.theta).mean(axis=1))
    assert np.all(np.diff(r) > -1e-12)


def test_first_order_zero_coupling_linear_drift(rng):
    n = 6
    nu = rng.uniform(-1, 1, n)
    p = SystemParams(0.0, 0.0, nu)
    theta0 = rng.uniform(0, TWO_PI, n)
    s = PhaseState(0.0, theta0, np.zeros(n))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=7.0, observer_stride=100))
    expected = theta0[None, :] + nu[None, :] * rec.t[:, None]
    assert np.abs(rec.theta - expected).max() < 1e-12


def test_small_inertia_tracks_first_order(rng):
    n = 8
    p0, s0 = random_instance(rng, n=n, m=0.0, kappa=1.0, d_v=0.4, d_om=2.0)
    m = 1e-4  # m*kappa = 1e-4
    pm = SystemParams(m, p0.kappa, p0.nu)
    cfg1 = IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=10)
    base = record_trajectory(p0, s0, cfg1)
    cfgm = IntegratorConfig(dt=2e-4, t_end=10.0, observer_stride=500)
    rec = record_trajectory(pm, s0, cfgm)
    gaps = []
    for k, t in enumerate(base.t):
        if t < 1.0:
            continue
        kk = int(np.argmin(np.abs(rec.t - t)))
        assert abs(rec.t[kk] - t) < 1e-9
        gaps.append(np.abs(rec.theta[kk] - base.theta[k]).max())
    assert max(gaps) < 1e-3


def test_blowup_guard_raises():
    # dt far beyond the stability limit for 1/m makes the state explode.
    p = SystemParams(1e-4, 1.0, [0.1, -0.1])
    s = PhaseState(0.0, [0.0, 1.0], [5.0, -5.0])
    with pytest.raises(IntegrationError):
        integrate(p, s, IntegratorConfig(dt=0.05, t_end=10.0))


def test_blowup_guard_names_batch_row():
    ok = SystemParams(1.0, 1.0, [0.1, -0.1])
    stiff = SystemParams(1e-4, 1.0, [0.1, -0.1])
    s = PhaseState(0.0, [0.0, 1.0], [5.0, -5.0])
    with pytest.raises(IntegrationError, match="batch row 1: non-finite state") as info:
        record_trajectory([ok, stiff, ok], [s, s, s], IntegratorConfig(dt=0.05, t_end=10.0))
    assert info.value.row == 1


def test_blowup_guard_names_row_of_stacked_state():
    # Only the frequency half of batch row 2 is non-finite.
    y = np.zeros((2, 4, 3))
    y[1, 2, 1] = np.inf
    with pytest.raises(IntegrationError, match="batch row 2: non-finite state") as info:
        integrate_module._check_finite(y, 0.5)
    assert info.value.row == 2
    with pytest.raises(IntegrationError) as info:
        integrate_module._check_finite(y[:, 2], 0.5)
    assert info.value.row is None
    # Zero inertia: a natural frequency near the float limit overflows the
    # phases of batch row 1 in the first step.
    ok = SystemParams(0.0, 1.0, [0.1, -0.1])
    huge = SystemParams(0.0, 1.0, [1.5e308, -0.1])
    s = PhaseState(0.0, [0.0, 1.0], [0.0, 0.0])
    with pytest.raises(IntegrationError, match="batch row 1: non-finite state at t=0.01") as info:
        record_trajectory([ok, huge, ok], [s, s, s], IntegratorConfig(dt=0.01, t_end=1.0))
    assert info.value.row == 1


def test_batched_records_match_single_instances(rng):
    # Rows differ in m, kappa and nu; 100 full steps plus a partial one, and
    # a stride that divides neither.
    instances = [random_instance(rng, n=6, m=m, kappa=kappa) for m, kappa in
                 ((0.3, 1.0), (1.0, 0.5), (2.5, 2.0))]
    params = [p for p, _ in instances]
    states = [s for _, s in instances]
    # The zero-inertia rows are the same instances with m = 0.
    zero = [dataclasses.replace(p, m=0.0) for p in params]
    cfg = IntegratorConfig(dt=0.01, t_end=1.005, observer_stride=7)
    batch = record_trajectory(params, states, cfg)
    first = record_trajectory(zero, states, cfg)
    assert batch.theta.shape == first.omega.shape == (3, 16, 6)
    for b, (p, p0, s) in enumerate(zip(params, zero, states)):
        pairs = ((batch.instance(b), record_trajectory(p, s, cfg)),
                 (first.instance(b), record_trajectory(p0, s, cfg)))
        for got, want in pairs:
            for x, y in ((got.t, want.t), (got.theta, want.theta), (got.omega, want.omega)):
                assert x.shape == y.shape and np.array_equal(x, y)


def test_batch_mixing_models_raises(rng):
    inertial, s = random_instance(rng, n=4, m=0.5)
    zero = dataclasses.replace(inertial, m=0.0)
    cfg = IntegratorConfig(dt=0.01, t_end=0.1)
    for params in ([inertial, zero], [zero, inertial]):
        with pytest.raises(ValueError, match="cannot mix"):
            record_trajectory(params, [s, s], cfg)


def test_mean_matches_closed_form_along_run(rng):
    p, s = random_instance(rng, n=20, m=1.0, kappa=1.0, d_v=0.5)
    mt = mean_closed_form(p, s)
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=30.0, observer_stride=25))
    assert np.abs(rec.theta.mean(axis=1) - mt.theta_c(rec.t)).max() < 1e-6
    assert np.abs(rec.omega.mean(axis=1) - mt.omega_c(rec.t)).max() < 1e-6


def propagation_bound_violation(params, state0, rec):
    """Worst signed violation of the finite-propagation-speed envelopes."""
    m = params.m
    worst = 0.0
    e = np.exp(-rec.t / m)
    lo = e[:, None] * state0.omega[None, :] + (1 - e)[:, None] * (params.nu - params.kappa)[None, :]
    hi = e[:, None] * state0.omega[None, :] + (1 - e)[:, None] * (params.nu + params.kappa)[None, :]
    worst = max(worst, float((lo - rec.omega).max()), float((rec.omega - hi).max()))
    iu, jv = np.triu_indices(params.n, 1)
    if iu.size:
        pair_gap = np.abs(rec.omega[:, iu] - rec.omega[:, jv])
        pair_bound = (
            e[:, None] * np.abs(state0.omega[iu] - state0.omega[jv])[None, :]
            + (1 - e)[:, None] * (np.abs(params.nu[iu] - params.nu[jv]) + 2 * params.kappa)[None, :]
        )
        worst = max(worst, float((pair_gap - pair_bound).max()))
    d_om = rec.omega.max(axis=1) - rec.omega.min(axis=1)
    d_bound = e * (state0.omega.max() - state0.omega.min()) + (1 - e) * (
        params.nu_diameter + 2 * params.kappa
    )
    worst = max(worst, float((d_om - d_bound).max()))
    return worst


def test_propagation_bounds_hold(rng):
    for _ in range(5):
        p, s = random_instance(
            rng,
            n=int(rng.integers(2, 20)),
            m=float(rng.uniform(0.1, 2.0)),
            kappa=float(rng.uniform(0.2, 2.0)),
        )
        rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=20))
        assert propagation_bound_violation(p, s, rec) < 1e-6


def test_determinism():
    rng = np.random.default_rng(5)
    p, s = random_instance(rng, n=6)
    cfg = IntegratorConfig(dt=0.01, t_end=5.0, observer_stride=7)
    rec1 = record_trajectory(p, s, cfg)
    rec2 = record_trajectory(p, s, cfg)
    assert np.array_equal(rec1.theta, rec2.theta)
    assert np.array_equal(rec1.omega, rec2.omega)


def test_partial_final_step():
    p = SystemParams(1.0, 0.0, [1.0])
    s = PhaseState(0.0, [0.0], [1.0])
    final = integrate(p, s, IntegratorConfig(dt=0.01, t_end=1.005))
    assert abs(final.t - 1.005) < 1e-12


# ---------------------------------------------------------------------------
# Collisions
# ---------------------------------------------------------------------------

def test_collisions_nonsync_drift():
    m = 0.05
    params = SystemParams(m, 0.2, np.array([1.0, 1.0, 2.0, 2.0]))
    state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
    cfg = IntegratorConfig(dt=0.01, t_end=30.0)
    events = detect_collisions(params, state0, cfg)
    # Skip the shared starting collision; afterwards the relative drift rate
    # |nu_0 - nu_2| = 1 spaces collisions exactly 2*pi apart.
    pair = [ev for ev in events if (ev.i, ev.j) == (0, 2) and ev.t_star > 1.0]
    assert len(pair) >= 3
    spacings = np.diff([ev.t_star for ev in pair])
    assert np.abs(spacings - TWO_PI).max() < 1e-6
    # Exact crossing times solve growth(t) = 2*pi*k with growth = t - m + m*e^{-t/m}.
    for ev in pair:
        growth = ev.t_star - m + m * math.exp(-ev.t_star / m)
        k = round(growth / TWO_PI)
        assert k != 0
        assert abs(growth - k * TWO_PI) < 1e-5


def test_collision_refinement_tolerance():
    params = SystemParams(0.05, 0.2, np.array([1.0, 1.0, 2.0, 2.0]))
    state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
    cfg = IntegratorConfig(dt=0.01, t_end=15.0)
    dense = dataclasses.replace(cfg, observer_stride=1)
    rec = record_trajectory(params, state0, dense)
    events = collision_events_from_record(params, rec, cfg)
    assert events
    coup = COUPLING_FORMS["mean_field"]
    for ev in events:
        k = int(np.searchsorted(rec.t, ev.t_star, side="right")) - 1
        th, _ = _reference_rk4_step(params, coup, rec.theta[k], rec.omega[k], ev.t_star - rec.t[k])
        gap = th[ev.i] - th[ev.j] - TWO_PI * ev.branch
        assert abs(gap) < 1e-9


def test_collisions_identical_pair_excluded():
    params = SystemParams(0.1, 1.0, np.array([0.5, 0.5, -0.5]))
    state0 = PhaseState(0.0, np.array([1.0, 1.0 + TWO_PI, 3.0]), np.array([0.2, 0.2, 0.0]))
    events = detect_collisions(params, state0, IntegratorConfig(dt=0.01, t_end=10.0))
    assert not any((ev.i, ev.j) == (0, 1) for ev in events)


def test_collisions_refuse_records_of_another_plan():
    # Refinement probes one step from a bracket's left snapshot, so it needs
    # the dense record of its config's step plan.  A stride-5 record of the
    # same run used to give the same 17 events with six t_star off by up to
    # 4e-8; it, a record at another dt and one of another t_end now raise.
    rng = np.random.default_rng(5)
    params = SystemParams(0.2, 1.0, rng.uniform(-1.0, 1.0, 8))
    state0 = PhaseState(0.0, rng.uniform(0.0, TWO_PI, 8), np.zeros(8))
    cfg = IntegratorConfig(dt=0.01, t_end=8.0)
    events = detect_collisions(params, state0, cfg)
    assert len(events) == 17
    for other in ({"observer_stride": 5}, {"dt": 0.005}, {"dt": 0.02}, {"t_end": 7.99}):
        record = record_trajectory(params, state0, dataclasses.replace(cfg, **other))
        with pytest.raises(ValueError, match="needs the dense record of its step plan"):
            collision_events_from_record(params, record, cfg)
    # The dense record serves any observer stride of the same plan.
    dense = record_trajectory(params, state0, cfg)
    strided = dataclasses.replace(cfg, observer_stride=5)
    assert _bits(collision_events_from_record(params, dense, strided)) == _bits(events)


@pytest.mark.parametrize("t_end", [0.0, 0.004, 0.014, 0.02])
def test_collisions_accept_dense_records_of_short_plans(t_end):
    # No full step, one step shorter than dt, a full step plus a shorter
    # one, and two full steps: each plan's dense record is refined.
    params = SystemParams(1.0, 0.0, [1.0, 0.0])
    state0 = PhaseState(0.0, [-0.003, 0.0], [1.0, 0.0])
    cfg = IntegratorConfig(dt=0.01, t_end=t_end)
    record = record_trajectory(params, state0, cfg)
    events = collision_events_from_record(params, record, cfg)
    assert [(ev.i, ev.j) for ev in events] == ([(0, 1)] if t_end > 0.003 else [])


def test_integrator_config_is_the_step_plan():
    assert [f.name for f in dataclasses.fields(IntegratorConfig)] == ["dt", "t_end", "observer_stride"]
    assert integrate_module._REFINE_TOL == _REFINE_TOL


def test_snapshot_grid_at_a_given_spacing():
    # The rule as the lock window reads it is tested there; given the
    # spacing, the snapshots must be equally spaced at it.
    grid = integrate_module._snapshot_grid
    t = np.arange(11) * 0.1
    assert grid(t, 0.1) == grid(np.append(t, 1.05), 0.1) == (11, 0.1)
    for h in (0.05, 0.2):
        with pytest.raises(ValueError, match=f"equally spaced at {h}"):
            grid(t, h)


def test_collisions_need_inertia(rng):
    # Refinement steps the inertial system, which divides by m.
    params, state0 = random_instance(rng, n=8, m=0.0, d_v=2.0)
    cfg = IntegratorConfig(dt=0.01, t_end=3.0)
    record = record_trajectory(params, state0, cfg)
    with pytest.raises(ValueError, match="m > 0"):
        collision_events_from_record(params, record, cfg)
    with pytest.raises(ValueError, match="m > 0"):
        detect_collisions(params, state0, cfg)


# ---------------------------------------------------------------------------
# Collisions: batched bisection against the pair-by-pair reference scan
# ---------------------------------------------------------------------------

def _reference_indistinguishable(params, state0, i, j):
    if params.nu[i] != params.nu[j] or state0.omega[i] != state0.omega[j]:
        return False
    d = (state0.theta[i] - state0.theta[j]) % TWO_PI
    return min(d, TWO_PI - d) <= 1e-12


def _reference_refine_crossing(params, coup, record, k, i, j, refine_tol):
    t_lo = float(record.t[k])
    t_hi = float(record.t[k + 1])
    th0 = record.theta[k]
    om0 = record.omega[k]
    g_lo = math.sin(0.5 * (record.theta[k, i] - record.theta[k, j]))

    def gap_at(tau):
        th, _ = _reference_rk4_step(params, coup, th0, om0, tau - t_lo)
        return th[i] - th[j]

    lo, hi = t_lo, t_hi
    mids = []
    while hi - lo > refine_tol:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        g_mid = math.sin(0.5 * gap_at(mid))
        if g_mid == 0.0:
            lo = hi = mid
            break
        if (g_mid > 0) == (g_lo > 0):
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    return t_star, int(round(gap_at(t_star) / TWO_PI)), mids


def reference_collision_events(params, record, config):
    """The scalar scan: every pair in turn, every crossing bisected alone
    with one-dimensional RK4 probes."""
    coup = COUPLING_FORMS["mean_field"]
    state0 = record.state(0)
    t = record.t
    events = []
    for i in range(record.n):
        for j in range(i + 1, record.n):
            if _reference_indistinguishable(params, state0, i, j):
                continue
            gap = record.theta[:, i] - record.theta[:, j]
            g = np.sin(0.5 * gap)
            crossings = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
            exact = np.nonzero(g == 0.0)[0]
            for k in crossings:
                t_star, branch, _ = _reference_refine_crossing(
                    params, coup, record, int(k), i, j, _REFINE_TOL
                )
                events.append(CollisionEvent(i, j, t_star, branch))
            for k in exact:
                events.append(CollisionEvent(i, j, float(t[k]), int(round(gap[k] / TWO_PI))))
    events.sort(key=lambda ev: (ev.t_star, ev.i, ev.j))
    return events


def _bits(events):
    return [(ev.i, ev.j, float(ev.t_star).hex(), ev.branch) for ev in events]


def _dense(params, state0, cfg):
    cfg = dataclasses.replace(cfg, observer_stride=1)
    return params, record_trajectory(params, state0, cfg), cfg


def _census_case(seed, n=40, m=1.0, kappa=1.0):
    config = ScenarioConfig(
        n=n, m=m, kappa=kappa, d_v=2.0, d_omega0=1.0, t_end=2.5, window=2.0, seed=seed
    )
    params, state0 = sample_instance(config)
    return _dense(params, state0, IntegratorConfig(dt=0.01, t_end=2.5))


def _n3_case(attempt):
    params, state0, _, _ = _campaign_instance(CampaignConfig(which="n3", seed=1111), attempt)
    cfg = IntegratorConfig(dt=_effective_dt(0.01, params.m), t_end=20.0)
    return _dense(params, state0, cfg)


def _drift_case():
    params = SystemParams(0.05, 0.2, np.array([1.0, 1.0, 2.0, 2.0]))
    state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
    return _dense(params, state0, IntegratorConfig(dt=0.01, t_end=30.0))


def _identical_pair_case():
    params = SystemParams(0.1, 1.0, np.array([0.5, 0.5, -0.5]))
    state0 = PhaseState(0.0, np.array([1.0, 1.0 + TWO_PI, 3.0]), np.array([0.2, 0.2, 0.0]))
    return _dense(params, state0, IntegratorConfig(dt=0.01, t_end=10.0))


def _single_oscillator_case():
    params = SystemParams(1.0, 1.0, [0.3])
    return _dense(params, PhaseState(0.0, [0.5], [0.1]), IntegratorConfig(dt=0.01, t_end=2.0))


def _grazing_case():
    # Oscillators 0 and 1 drift together at a frequency gap of about 2e-4,
    # far below the certificate's bound D on the gap's slope change, and
    # cross near t = 3.4; oscillator 2 keeps every pair coupled.
    params = SystemParams(1.0, 0.05, [0.3 + 2e-4, 0.3, -0.4])
    state0 = PhaseState(0.0, [1.0 - 5e-4, 1.0, 2.5], [0.0, 0.0, 0.0])
    return _dense(params, state0, IntegratorConfig(dt=0.01, t_end=6.0))


def _no_crossing_case():
    params = SystemParams(1.0, 0.0, [0.2, 0.2])
    state0 = PhaseState(0.0, [0.0, 1.0], [0.0, 0.0])
    return _dense(params, state0, IntegratorConfig(dt=0.01, t_end=5.0))


COLLISION_CASES = {
    "census_101": lambda: _census_case(101),
    "census_202": lambda: _census_case(202),
    "census_stiff": lambda: _census_case(505, n=30, m=0.1, kappa=2.0),
    "grazing": _grazing_case,
    **{f"n3_{a}": (lambda a=a: _n3_case(a)) for a in range(4)},
    "nonsync_drift": _drift_case,
    "identical_pair": _identical_pair_case,
    "single_oscillator": _single_oscillator_case,
    "no_crossing": _no_crossing_case,
}


@pytest.mark.parametrize("case", sorted(COLLISION_CASES))
def test_batched_collisions_match_reference_scan(case):
    params, record, cfg = COLLISION_CASES[case]()
    events = collision_events_from_record(params, record, cfg)
    assert _bits(events) == _bits(reference_collision_events(params, record, cfg))
    assert all(type(ev.t_star) is float and type(ev.branch) is int for ev in events)
    if case == "nonsync_drift":
        assert any(ev.t_star == 0.0 for ev in events)
    if case in ("single_oscillator", "no_crossing"):
        assert events == []
    if case.startswith("census"):
        assert len(events) > 100
    if case in ("grazing", "census_stiff"):
        # Both mix certified rows with rows the certificate leaves to plain
        # bisection in the same batch: most grazing rows certify, and most
        # census_stiff rows do not.
        cert = _certificate(params, record, *_crossings(params, record))
        assert cert.ok.any() and not cert.ok.all()


def _crossings(params, record):
    """Snapshot and pair ``(k, i, j)`` of every crossing the scan brackets."""
    state0 = record.state(0)
    rows = []
    for i in range(record.n):
        for j in range(i + 1, record.n):
            if _reference_indistinguishable(params, state0, i, j):
                continue
            g = np.sign(np.sin(0.5 * (record.theta[:, i] - record.theta[:, j])))
            rows += [(k, i, j) for k in np.nonzero(g[:-1] * g[1:] < 0)[0]]
    return tuple(np.array(col, dtype=int) for col in zip(*rows))


def _probe_gaps(params, record, cfg, k, i, j, tau):
    """Float probe gaps of rows ``(k, i, j)`` at times ``tau`` (rows x
    points), computed as the bisection computes them."""
    coup = COUPLING_FORMS["mean_field"]
    points = tau.shape[1]
    kk, ii, jj = (np.repeat(x, points) for x in (k, i, j))
    y = np.stack((record.theta[kk], record.omega[kk]))
    h = (tau.ravel() - record.t[kk])[:, None]
    th = _rk4_step(params, coup, y, h, b1=_stage1_rate(params, coup, y), phases_only=True)
    r = np.arange(kk.size)
    return (th[r, ii] - th[r, jj]).reshape(tau.shape)


CERTIFIED_CASES = ("census_101", "census_202", "census_stiff", "grazing")


@pytest.mark.parametrize("case", CERTIFIED_CASES)
def test_certified_gap_is_monotone(case):
    # On a certified bracket the float gap, sampled at 257 points, is
    # monotone in the certified direction to within 2E and crosses the
    # certified multiple of 2*pi once.
    params, record, cfg = COLLISION_CASES[case]()
    k, i, j = _crossings(params, record)
    cert = _certificate(params, record, k, i, j)
    assert cert.ok.any()
    ok = np.flatnonzero(cert.ok)[:200]
    t = record.t
    tau = t[k[ok], None] + np.linspace(0.0, 1.0, 257) * (t[k[ok] + 1] - t[k[ok]])[:, None]
    y = _probe_gaps(params, record, cfg, k[ok], i[ok], j[ok], tau) - TWO_PI * cert.branch[ok, None]
    slope = np.where(cert.rising[ok], 1.0, -1.0)[:, None] * np.diff(y, axis=1)
    assert (slope >= -2.0 * cert.eps[ok, None]).all()
    assert (np.abs(y) < 0.5 * np.pi).all()
    assert (y[:, 0] * y[:, -1] < 0).all()
    guess = integrate_module._crossing_guess(record, k[ok], i[ok], j[ok], cert.branch[ok])
    assert (guess >= t[k[ok]]).all() and (guess <= t[k[ok] + 1]).all()


def test_probe_rounding_within_bound():
    # The float probe gap against the same phase-half step evaluated in
    # 40-digit arithmetic from the same inputs: the difference stays below
    # E/8, so E bounds the rounding with a wide margin.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    params, record, cfg = COLLISION_CASES["census_101"]()
    k, i, j = _crossings(params, record)
    cert = _certificate(params, record, k, i, j)
    rows = np.flatnonzero(cert.ok)[::8][:40]
    frac = np.array([0.0, 0.3, 0.5, 0.7, 1.0])
    t = record.t
    tau = t[k[rows], None] + frac * (t[k[rows] + 1] - t[k[rows]])[:, None]
    guess = integrate_module._crossing_guess(record, k[rows], i[rows], j[rows], cert.branch[rows])
    tau = np.hstack([tau, guess[:, None]])
    got = _probe_gaps(params, record, cfg, k[rows], i[rows], j[rows], tau)

    def exact_gap(r, tau_r):
        with mp.workprec(140):
            theta = [mp.mpf(float(x)) for x in record.theta[k[r]]]
            omega = [mp.mpf(float(x)) for x in record.omega[k[r]]]
            nu = [mp.mpf(float(x)) for x in params.nu]
            m, kappa, n = mp.mpf(params.m), mp.mpf(params.kappa), len(theta)

            def accel(th, om):
                s, c = mp.fsum(mp.sin(x) for x in th), mp.fsum(mp.cos(x) for x in th)
                return [
                    (nu[q] - om[q] + kappa * (mp.cos(th[q]) * s - mp.sin(th[q]) * c) / n) / m
                    for q in range(n)
                ]

            h = mp.mpf(float(tau_r - t[k[r]]))
            b1 = accel(theta, omega)
            om2 = [w + h / 2 * a for w, a in zip(omega, b1)]
            b2 = accel([x + h / 2 * w for x, w in zip(theta, omega)], om2)
            om3 = [w + h / 2 * a for w, a in zip(omega, b2)]
            b3 = accel([x + h / 2 * w for x, w in zip(theta, om2)], om3)
            new = [x + h * w + h * h / 6 * (p + q + u)
                   for x, w, p, q, u in zip(theta, omega, b1, b2, b3)]
            return new[i[r]] - new[j[r]]

    worst = 0.0
    for row, r in enumerate(rows):
        for col in range(tau.shape[1]):
            err = abs(mp.mpf(float(got[row, col])) - exact_gap(r, tau[row, col]))
            worst = max(worst, float(err / mp.mpf(float(cert.eps[r]))))
    assert got.size >= 100
    assert worst <= 1.0 / 8.0


def test_refinement_probes_a_third_of_plain_bisection(monkeypatch):
    # The coupling evaluates at most a third of the phase values that plain
    # bisection probes: two coupling calls of N phases per probe round.
    params, record, cfg = COLLISION_CASES["census_101"]()
    coup = COUPLING_FORMS["mean_field"]
    k, i, j = _crossings(params, record)
    rounds = sum(
        len(_reference_refine_crossing(params, coup, record, kk, ii, jj, _REFINE_TOL)[2])
        for kk, ii, jj in zip(k.tolist(), i.tolist(), j.tolist())
    )
    values = 0

    def counting(theta, kappa):
        nonlocal values
        values += theta.size
        return coup(theta, kappa)

    monkeypatch.setitem(COUPLING_FORMS, "mean_field", counting)
    collision_events_from_record(params, record, cfg)
    assert k.size > 100
    assert values <= 2 * record.n * rounds / 3


@pytest.mark.parametrize(
    "case", ["census_stiff", "nonsync_drift", "n3_0", "n3_1", "n3_2", "n3_3"]
)
def test_refinement_never_probes_more_than_plain_bisection(monkeypatch, case):
    # Where few or no rows certify, the refinement evaluates no more phase
    # values than plain bisection: 2N per midpoint, N per row for the
    # stage-1 acceleration, and 2N per uncertified row for its branch.
    params, record, cfg = COLLISION_CASES[case]()
    coup = COUPLING_FORMS["mean_field"]
    k, i, j = _crossings(params, record)
    mids = sum(
        len(_reference_refine_crossing(params, coup, record, kk, ii, jj, _REFINE_TOL)[2])
        for kk, ii, jj in zip(k.tolist(), i.tolist(), j.tolist())
    )
    loose = np.count_nonzero(~_certificate(params, record, k, i, j).ok)
    values = 0

    def counting(theta, kappa):
        nonlocal values
        values += theta.size
        return coup(theta, kappa)

    monkeypatch.setitem(COUPLING_FORMS, "mean_field", counting)
    collision_events_from_record(params, record, cfg)
    n = record.n
    assert k.size > 0
    assert values <= 2 * n * mids + n * k.size + 2 * n * loose


def test_pair_points_inside_the_margin_do_not_verify(monkeypatch):
    # A certified row whose narrow pair lands about E from the crossing,
    # inside the 2E verification margin: those points must fix no midpoint's
    # sign, so every plain-bisection midpoint between the wide pair is still
    # probed.  At the default width the narrow pair verifies and some of them
    # are skipped.  Either way t_star is the plain bisection's.
    params, record, cfg = COLLISION_CASES["census_101"]()
    coup = COUPLING_FORMS["mean_field"]
    k, i, j = _crossings(params, record)
    r = np.flatnonzero(_certificate(params, record, k, i, j).ok)[:1]
    t_ref, _, mids = _reference_refine_crossing(
        params, coup, record, int(k[r[0]]), int(i[r[0]]), int(j[r[0]]), _REFINE_TOL
    )
    t_lo = record.t[k[r[0]]]
    near = {mid - t_lo for mid in mids if abs(mid - t_ref) < 1e-7 * cfg.dt}
    default_width = integrate_module._NARROW_PAIR

    def probed(narrow_width):
        seen = set()

        def recording(params, coup, shape):
            def step(y, h, *, b1, phases_only):
                # Every probe is a phase half-step; take it with the reference.
                assert phases_only
                seen.update(np.ravel(h).tolist())
                return _reference_rk4_step(params, coup, *y, h, b1=b1, phases_only=True)[0]

            return step

        monkeypatch.setattr(integrate_module, "_NARROW_PAIR", narrow_width)
        monkeypatch.setattr(integrate_module, "_stepper", recording)
        t_star, _ = integrate_module._bisect(params, coup, record, k[r], i[r], j[r])
        assert t_star[0] == t_ref
        return near & seen

    assert len(near) >= 5
    assert probed(1.0) == near
    assert probed(default_width) < near


@pytest.mark.parametrize("coupling", sorted(COUPLING_FORMS))
def test_phases_only_step_matches_full_step(rng, coupling):
    # The refinement probes take the phase half of the step with a supplied
    # stage-1 acceleration; their phases must be the full step's, bit for bit.
    coup = COUPLING_FORMS[coupling]
    n = 150
    params, state = random_instance(rng, n=n)
    y = np.stack((state.theta, state.omega))
    full = _rk4_step(params, coup, y, 0.013)
    half = _rk4_step(params, coup, y, 0.013, b1=_stage1_rate(params, coup, y), phases_only=True)
    assert full.shape == (2, n) and half.shape == (n,) and np.array_equal(half, full[0])

    y = np.stack((rng.uniform(0, TWO_PI, (7, n)), rng.uniform(-0.5, 0.5, (7, n))))
    h = np.array([[0.0], [0.01], [1e-13], [0.005], [0.0], [0.0099999], [3e-7]])
    rows = integrate_module._coefficients([random_instance(rng, n=n)[0] for _ in range(7)])
    for p in (params, rows):
        b1 = _stage1_rate(p, coup, y)
        full = _rk4_step(p, coup, y, h)[0]
        assert np.array_equal(_rk4_step(p, coup, y, h, b1=b1, phases_only=True), full)

    # As in the bisection: stage-1 accelerations of a whole batch, indexed by
    # the active rows, are those of the active rows alone.
    b1 = _stage1_rate(params, coup, y)
    act = np.array([1, 4, 5])
    assert np.array_equal(b1[act], _stage1_rate(params, coup, y[:, act]))
    assert np.array_equal(
        _rk4_step(params, coup, y[:, act], h[act], b1=b1[act], phases_only=True),
        _rk4_step(params, coup, y, h)[0][act],
    )


def _oracle_step(params, coup, y, h):
    """The reference steppers' step of the stacked state ``y``."""
    if len(y) == 1:
        return _reference_rk4_step_first_order(params, coup, y[0], h)[None]
    return np.stack(_reference_rk4_step(params, coup, y[0], y[1], h))


@pytest.mark.parametrize("coupling", sorted(COUPLING_FORMS))
@pytest.mark.parametrize("inertial", [True, False], ids=["m>0", "m=0"])
def test_stacked_step_matches_reference_steppers(rng, coupling, inertial):
    # One stacked stepper for both models equals the two-array reference
    # steppers bit for bit: one state and a batch; shared parameters,
    # coefficient rows at the state's full shape and as (B, 1) columns; per-row
    # step sizes holding zeros; and a 200-step march on one stepper.
    coup = COUPLING_FORMS[coupling]
    n, b = 30, 6
    d = 2 if inertial else 1
    instances = [random_instance(rng, n=n, m=float(rng.uniform(0.2, 2.0)) if inertial else 0.0)
                 for _ in range(b)]
    params, state = instances[0]
    rows = integrate_module._coefficients([p for p, _ in instances])
    columns = integrate_module._Rows(rows.m[:, :1], rows.kappa[:, :1], rows.nu)
    single = integrate_module._coefficients(params)
    assert rows.m.shape == rows.kappa.shape == rows.nu.shape == (b, n)
    assert single.m.shape == single.kappa.shape == (n,)
    one = np.stack((state.theta, state.omega))[:d]
    batch = np.stack((rng.uniform(0, TWO_PI, (b, n)), rng.uniform(-0.5, 0.5, (b, n))))[:d]
    h = np.array([[0.0], [0.01], [1e-13], [0.0], [0.0099999], [3e-7]])
    cases = [(params, one, 0.013), (single, one, 0.013), (params, batch, 0.01),
             (params, batch, h), (rows, batch, h), (columns, batch, h), (rows, batch, 0.01)]
    for p, y, step in cases:
        got = _rk4_step(p, coup, y, step)
        assert got.shape == y.shape and np.array_equal(got, _oracle_step(p, coup, y, step))
        if inertial:
            want = _reference_rk4_step(p, coup, y[0], y[1], step)[0]
            half = _rk4_step(p, coup, y, step, b1=_stage1_rate(p, coup, y), phases_only=True)
            assert np.array_equal(half, want)

    # Stage-1 rates of a whole batch, indexed by the active rows, give the
    # step of those rows alone.
    act = np.array([0, 2, 5])
    b1 = _stage1_rate(params, coup, batch)[act]
    got = _rk4_step(params, coup, batch[:, act], h[act], b1=b1, phases_only=inertial)
    alone = _oracle_step(params, coup, batch[:, act], h[act])
    assert np.array_equal(got, alone[0] if inertial else alone)

    y = col = want = batch
    step, col_step = _stepper(rows, coup, batch.shape), _stepper(columns, coup, batch.shape)
    for _ in range(200):
        y, col, want = step(y, 0.01), col_step(col, 0.01), _oracle_step(rows, coup, want, 0.01)
    assert np.isfinite(y).all() and np.array_equal(y, want) and np.array_equal(col, want)


def _blowup_case(name, rng):
    """Coefficient rows, stacked state and step plan of a run that stops
    being finite.  ``stiff``: inertial rows with dt/m of 2 (stable), 3.2 and
    5 (unstable); row 2 overflows first, at step 270 of 400.  ``drift``:
    zero-inertia phases driven at nu near the float limit; row 1 overflows
    at step 180 of 200.  ``partial`` and ``partial_m0``: 100 steps plus a
    partial one; the phases of row 1 move at nu (= omega for inertia 1) near
    the float limit and overflow only in the partial step."""
    n = 4
    theta = rng.uniform(0, TWO_PI, (3, n))
    omega = rng.uniform(-0.5, 0.5, (3, n))
    if name == "stiff":
        params = [SystemParams(0.05 / r, 1.0, rng.uniform(-0.4, 0.4, n)) for r in (2.0, 3.2, 5.0)]
        cfg = IntegratorConfig(dt=0.05, t_end=20.0)
        y = np.stack((theta, omega))
    elif name == "drift":
        nu = [np.full(n, 0.1), np.full(n, 1e307), np.full(n, 1e306)]
        params = [SystemParams(0.0, 1.0, v) for v in nu]
        cfg = IntegratorConfig(dt=0.1, t_end=20.0)
        y = theta[None]
    else:
        m = 0.0 if name == "partial_m0" else 1.0
        nu = np.stack((np.zeros(n), np.full(n, 1.793e307)))
        params = [SystemParams(m, 1.0, v) for v in nu]
        cfg = IntegratorConfig(dt=0.1, t_end=10.05)
        y = np.stack((theta[:2], nu)) if m > 0 else theta[None, :2]
    return integrate_module._coefficients(params), y, cfg


def _per_step_checked_failure(coef, coup, y, t0, cfg):
    """The error of a march that checks every step of the reference steppers,
    and how many steps it took."""
    n_full, rem = integrate_module._step_plan(cfg.dt, cfg.t_end)
    plan = [(cfg.dt, t0 + (k + 1) * cfg.dt) for k in range(n_full)]
    plan += [(rem, t0 + cfg.t_end)] if rem > 0.0 else []
    with np.errstate(invalid="ignore", over="ignore"):
        for k, (h, t) in enumerate(plan, 1):
            y = _oracle_step(coef, coup, y, h)
            try:
                integrate_module._check_finite(y, t)
            except IntegrationError as exc:
                return exc, k
    raise AssertionError("the reference march stayed finite")


@pytest.mark.parametrize("stride", [1, 7, 50])
@pytest.mark.parametrize("name", ["stiff", "drift", "partial", "partial_m0"])
def test_march_checks_finiteness_like_every_step(rng, name, stride):
    # Finiteness is checked only before each observed snapshot and after the
    # last step; a failed check replays the steps since the last good state,
    # so the error names the time and row of the first non-finite step, and
    # no observer sees a non-finite state.
    coef, y, cfg = _blowup_case(name, rng)
    cfg = dataclasses.replace(cfg, observer_stride=stride)
    coup = COUPLING_FORMS["mean_field"]
    t0 = 3.0
    want, fail_step = _per_step_checked_failure(coef, coup, y, t0, cfg)
    n_full, rem = integrate_module._step_plan(cfg.dt, cfg.t_end)
    assert want.row > 0
    if name.startswith("partial"):
        assert rem > 0.0 and fail_step == n_full + 1
    elif stride > 1:
        assert fail_step % stride != 0 and fail_step < n_full
    seen = []

    def observe(t, yk):
        assert np.isfinite(yk).all()
        seen.append(t)

    with pytest.raises(IntegrationError) as info:
        integrate_module._march(coef, coup, y, t0, cfg, observe)
    assert str(info.value) == str(want) and info.value.row == want.row
    assert info.value.reason == want.reason
    assert len(seen) == (fail_step - 1) // stride + 1


def test_stepper_built_once_per_run(rng, monkeypatch):
    # One stepper per march, and four coupling calls per step: the counting
    # shim goes into COUPLING_FORMS after import, as the traced benchmark's
    # does, so the integrator must look the coupling up there on every run.
    built = []
    stepper = integrate_module._stepper

    def spy(params, coup, shape):
        built.append(shape)
        return stepper(params, coup, shape)

    calls = 0
    mean_field = COUPLING_FORMS["mean_field"]

    def counting(theta, kappa):
        nonlocal calls
        calls += 1
        return mean_field(theta, kappa)

    monkeypatch.setattr(integrate_module, "_stepper", spy)
    monkeypatch.setitem(COUPLING_FORMS, "mean_field", counting)
    instances = [random_instance(rng, n=5, m=0.5) for _ in range(3)]
    cfg = IntegratorConfig(dt=0.01, t_end=1.005, observer_stride=7)
    record_trajectory([p for p, _ in instances], [s for _, s in instances], cfg)
    assert built == [(2, 3, 5)] and calls == 4 * 101
    built.clear()
    integrate(*instances[0], cfg)
    assert built == [(2, 5)]


@pytest.mark.parametrize("t0", [0.0, 5000.0, 20000.0])
def test_collision_refinement_stops_at_float_spacing(t0):
    # Past t = 8192 adjacent doubles lie further apart than refine_tol = 1e-12;
    # the bisection must still stop, at the closest representable time.
    params = SystemParams(1.0, 0.0, [1.0, 0.0])
    state0 = PhaseState(t0, [-0.0051, 0.0], [1.0, 0.0])
    events = detect_collisions(params, state0, IntegratorConfig(dt=0.01, t_end=0.02))
    assert [(ev.i, ev.j, ev.branch) for ev in events] == [(0, 1, 0)]
    assert abs(events[0].t_star - (t0 + 0.0051)) <= 1e-12 + 4 * np.spacing(t0 + 0.0051)


def test_small_blocks_match_reference_scan(monkeypatch):
    # One pair per scan block and two rows per bisection batch: every block
    # and batch boundary is crossed many times.
    params, record, cfg = _census_case(303)
    reference = _bits(reference_collision_events(params, record, cfg))
    monkeypatch.setattr(integrate_module, "_BLOCK_ELEMENTS", 2 * record.n + 1)
    assert _bits(collision_events_from_record(params, record, cfg)) == reference


def test_refinement_coupling_calls_bounded_per_batch(monkeypatch):
    params, record, cfg = _census_case(404)
    calls = 0
    coupling = COUPLING_FORMS["mean_field"]

    def counting(theta, kappa):
        nonlocal calls
        calls += 1
        return coupling(theta, kappa)

    monkeypatch.setitem(COUPLING_FORMS, "mean_field", counting)
    events = collision_events_from_record(params, record, cfg)
    # Batches as ``_bisect`` forms them: up to three probes per row.
    rows = max(1, integrate_module._BLOCK_ELEMENTS // (3 * record.n))
    batches = -(-len(events) // rows)
    rounds = math.ceil(math.log2(cfg.dt / _REFINE_TOL)) + 2
    # A loop over events would make about 2 * rounds calls per event; a
    # batch makes one stage-1 call plus two per probe round.
    assert len(events) > 100
    assert calls <= (2 * rounds + 1) * batches


def test_refinement_probe_memory_bounded(monkeypatch):
    # A round probes up to three points per row, so a batch holds a third of
    # _BLOCK_ELEMENTS // N rows: with the mean-field coupling's (probes, N)
    # phasor temporaries, the whole refinement peaks below one phase-half
    # step over _BLOCK_ELEMENTS // N rows.
    config = ScenarioConfig(
        n=40, m=1.0, kappa=1.0, d_v=2.0, d_omega0=1.0, t_end=2.5, window=2.0, seed=101
    )
    params, record, cfg = _dense(*sample_instance(config), IntegratorConfig(dt=0.01, t_end=2.5))
    coup = COUPLING_FORMS["mean_field"]
    rows = 100
    monkeypatch.setattr(integrate_module, "_BLOCK_ELEMENTS", rows * record.n)
    y0 = np.stack((record.theta[:rows], record.omega[:rows]))
    b1 = _stage1_rate(params, coup, y0)
    h = np.full((rows, 1), 0.5 * cfg.dt)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _rk4_step(params, coup, y0, h, b1=b1, phases_only=True)
        one_step = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        events = collision_events_from_record(params, record, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(events) > rows
    assert peak <= one_step


def test_first_order_observer_cadence():
    # Zero inertia ignores the initial frequencies; the observed frequencies
    # are the phase velocities of the stepped mean-field coupling, and agree
    # with the reference right-hand side up to rounding.
    p = SystemParams(0.0, 0.7, [0.1, -0.1])
    seen = []
    final = integrate(
        p, PhaseState(0.0, [0.0, 1.0], [7.0, -7.0]),
        IntegratorConfig(dt=0.1, t_end=1.0, observer_stride=3),
        lambda t, state: seen.append(state),
    )
    assert [s.t for s in seen] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-12)
    assert seen[-1].t == final.t and np.array_equal(seen[-1].theta, final.theta)
    for state in seen + [final]:
        assert np.array_equal(state.omega, p.nu + coupling_mean_field(state.theta, p.kappa))
        assert np.abs(state.omega - rhs_first_order(p, state.theta)).max() < 1e-15

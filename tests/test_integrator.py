"""Integrator: oracle comparisons, self-convergence order, propagation
bounds, collision detection, and determinism."""

import dataclasses
import functools
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    _stepper,
    collision_events_from_record,
)
from kuramoto_lock.model import COUPLING_FORMS, coupling_direct, coupling_mean_field

# The package re-exports the ``integrate`` function under the module's name.
integrate_module = importlib.import_module("kuramoto_lock.integrate")

TWO_PI = 2.0 * np.pi

# Both coupling forms, which the stepper tests pass in directly: the
# integrator steps the mean-field form alone.
_FORMS = {"direct": coupling_direct, "mean_field": coupling_mean_field}


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


def _reference_rk4_step(params, coup, theta, omega, h):
    """``(theta_new, omega_new)``."""
    b1 = _reference_accel(params, coup, theta, omega)
    th2 = theta + (0.5 * h) * omega
    om2 = omega + (0.5 * h) * b1
    b2 = _reference_accel(params, coup, th2, om2)
    th3 = theta + (0.5 * h) * om2
    om3 = omega + (0.5 * h) * b2
    b3 = _reference_accel(params, coup, th3, om3)
    om4 = omega + h * b3
    theta_new = theta + (h / 6.0) * (omega + 2.0 * om2 + 2.0 * om3 + om4)
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


def _rk4_step(params, coup, y, h):
    """One step of a stepper built for ``y`` alone."""
    return _stepper(params, coup, y.shape)(y, h)


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
    assert list(COUPLING_FORMS) == ["mean_field"]


def test_integrator_counts_follow_the_integer_rule():
    # The observer stride and a record's subsample step are counts, read by
    # the integer rule: a fraction or a bool is refused naming the field, and
    # an integral float or a numpy integer runs as the int it equals.
    for bad in (2.5, True, np.True_, 0, -1, "2", None, math.nan):
        with pytest.raises(ValueError, match="^observer_stride must be an integer >= 1, got "):
            IntegratorConfig(observer_stride=bad)
    params, state0 = random_instance(np.random.default_rng(0), n=3)
    want = record_trajectory(params, state0, IntegratorConfig(t_end=0.5, observer_stride=5))
    for same in (5.0, np.int64(5), np.float32(5.0)):
        cfg = IntegratorConfig(t_end=0.5, observer_stride=same)
        assert type(cfg.observer_stride) is int and cfg.observer_stride == 5
        got = record_trajectory(params, state0, cfg)
        assert all(np.array_equal(getattr(got, f), getattr(want, f)) for f in ("t", "theta", "omega"))
    dense = record_trajectory(params, state0, IntegratorConfig(t_end=0.5))
    for bad in (2.5, True, 0, "2", None):
        with pytest.raises(ValueError, match="^step must be an integer >= 1, got "):
            dense.subsample(bad)
    for same in (5.0, np.int64(5)):
        assert np.array_equal(dense.subsample(same).t, want.t)


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


def _census_draw(seed):
    """One ``census_drift`` draw: N = 40, incoherent, with its step plan."""
    config = ScenarioConfig(n=40, m=1.0, kappa=1.0, d_v=2.0, d_omega0=1.0, t_end=2.5, seed=seed)
    return (*sample_instance(config), IntegratorConfig(dt=config.dt, t_end=config.t_end))


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_collisions_follow_reflection(seed):
    """Negating nu, theta0 and omega0 negates every phase gap: the same
    events, bit for bit, on negated branches."""
    params, state0, cfg = _census_draw(seed)
    events = detect_collisions(params, state0, cfg)
    reflected = detect_collisions(
        SystemParams(params.m, params.kappa, -params.nu),
        PhaseState(state0.t, -state0.theta, -state0.omega), cfg)
    assert len(events) > 100
    assert reflected == [dataclasses.replace(ev, branch=-ev.branch) for ev in events]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_collisions_follow_relabeling(seed):
    """Permuting the oscillators permutes the events: each event's pair maps
    back, its branch flips sign where the pair's order flips, and t_star
    agrees to 1e-12 (the centroid sums group differently)."""
    params, state0, cfg = _census_draw(seed)
    perm = np.random.default_rng(seed).permutation(params.n)
    events = detect_collisions(params, state0, cfg)
    relabeled = detect_collisions(
        SystemParams(params.m, params.kappa, params.nu[perm]),
        PhaseState(state0.t, state0.theta[perm], state0.omega[perm]), cfg)
    mapped = []
    for ev in relabeled:
        i, j = int(perm[ev.i]), int(perm[ev.j])
        mapped.append((min(i, j), max(i, j), ev.t_star, ev.branch if i < j else -ev.branch))
    mapped.sort(key=lambda e: (e[0], e[1], e[2]))
    want = sorted(((ev.i, ev.j, ev.t_star, ev.branch) for ev in events),
                  key=lambda e: (e[0], e[1], e[2]))
    assert [(i, j, b) for i, j, _, b in mapped] == [(i, j, b) for i, j, _, b in want]
    assert max(abs(a[2] - b[2]) for a, b in zip(mapped, want)) <= 1e-12


def test_collisions_refuse_records_of_another_plan():
    # A crossing's time interpolates the gap over one step of the plan, so
    # collision detection needs the dense record of its config's step plan.  A stride-5 record of the
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


def test_snapshot_grid_at_a_given_spacing():
    # The rule as the lock window reads it is tested there; given the
    # spacing, the snapshots must be equally spaced at it.
    grid = integrate_module._snapshot_grid
    t = np.arange(11) * 0.1
    assert grid(t, 0.1) == grid(np.append(t, 1.05), 0.1) == (11, 0.1)
    for h in (0.05, 0.2):
        with pytest.raises(ValueError, match=f"equally spaced at {h}"):
            grid(t, h)


def test_zero_inertia_events_are_the_small_inertia_limit():
    # One collision scan serves both models.  As m -> 0, with the initial
    # frequencies on the zero-inertia velocities (the slow manifold to
    # leading order), an inertial run's events tend to the m = 0 run's: the
    # same (i, j, branch) list in the same order, t_star within 10*m
    # (measured 6.7e-3 and 6.7e-4), falling at least 5x per decade.  At
    # m = 1e-2 the lists differ by one event.
    params, state0 = sample_instance(ScenarioConfig(n=12, m=0.0, d_v=2.0, seed=3))
    limit = detect_collisions(params, state0, IntegratorConfig(dt=0.01, t_end=8.0))
    start = PhaseState(0.0, state0.theta, rhs_first_order(params, state0.theta))
    assert len(limit) > 40
    shifts = []
    for m in (1e-3, 1e-4):
        cfg = IntegratorConfig(dt=_effective_dt(0.01, m), t_end=8.0)
        events = detect_collisions(SystemParams(m, params.kappa, params.nu), start, cfg)
        assert [(ev.i, ev.j, ev.branch) for ev in events] == [
            (ev.i, ev.j, ev.branch) for ev in limit
        ]
        shifts.append(max(abs(a.t_star - b.t_star) for a, b in zip(events, limit)))
        assert shifts[-1] <= 10 * m
    assert shifts[1] * 5 <= shifts[0]


def test_zero_inertia_pair_two_pi_k_apart_never_collides():
    # Two oscillators with one nu that start 2*pi*k apart move together for
    # all time.  At zero inertia their recorded velocities differ by
    # rounding, so the scan compares nu, from which the velocities follow:
    # the pair yields no event, while the others collide.
    params = SystemParams(0.0, 1.0, [0.3, 0.3, -0.4, 0.1])
    cfg = IntegratorConfig(dt=0.01, t_end=20.0)
    rounded = 0
    for k in (-1, 1, 2, 3):
        state0 = PhaseState(0.0, [0.2, 0.2 + k * TWO_PI, 1.5, -2.0], np.zeros(4))
        record = record_trajectory(params, state0, cfg)
        rounded += record.omega[0, 0] != record.omega[0, 1]
        events = collision_events_from_record(params, record, cfg)
        assert events and all((ev.i, ev.j) != (0, 1) for ev in events), k
    assert rounded  # the velocities do differ for some k


# ---------------------------------------------------------------------------
# Collisions: the batched cubic solve against a pair-by-pair reference scan
# and against a fine reference run
# ---------------------------------------------------------------------------

def _reference_indistinguishable(params, state0, i, j):
    # At zero inertia the frequencies follow from nu and the phases.
    omega = state0.omega if params.m > 0.0 else params.nu
    if params.nu[i] != params.nu[j] or omega[i] != omega[j]:
        return False
    d = (state0.theta[i] - state0.theta[j]) % TWO_PI
    return min(d, TWO_PI - d) <= 1e-12


def _reference_hermite_root(y0, y1, m0, m1):
    """One bracket's cubic solve in numpy float scalars: Newton from the
    secant's root, four iterations clipped to [0, 1], then, where the
    residual still exceeds 1e-12 of |y1 - y0|, 40 bisection halvings of the
    cubic on [0, 1]."""

    def cubic(s):
        u = 1.0 - s
        return u * u * (y0 * (1.0 + 2.0 * s) + m0 * s) + s * s * (y1 * (3.0 - 2.0 * s) - m1 * u)

    def slope(s):
        u = 1.0 - s
        return 6.0 * s * u * (y1 - y0) + m0 * u * (1.0 - 3.0 * s) + m1 * s * (3.0 * s - 2.0)

    y0, y1, m0, m1 = (np.float64(v) for v in (y0, y1, m0, m1))
    dy = y0 - y1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = y0 / dy
        for _ in range(4):
            s = min(max(s - cubic(s) / slope(s), 0.0), 1.0)
        if abs(cubic(s)) <= 1e-12 * abs(dy):
            return s
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        side = np.sign(cubic(mid)) * np.sign(y0)
        if side >= 0.0:
            lo = mid
        if side <= 0.0:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_crossing(record, k, i, j):
    """``(t_star, branch)`` of the crossing of pair ``(i, j)`` between
    snapshots ``k`` and ``k + 1``, alone."""
    t, theta, omega = record.t, record.theta, record.omega
    h = t[k + 1] - t[k]
    g0 = theta[k, i] - theta[k, j]
    g1 = theta[k + 1, i] - theta[k + 1, j]
    n = round((g0 + g1) / (2.0 * TWO_PI))
    s = _reference_hermite_root(
        g0 - n * TWO_PI,
        g1 - n * TWO_PI,
        h * (omega[k, i] - omega[k, j]),
        h * (omega[k + 1, i] - omega[k + 1, j]),
    )
    return float(t[k] + s * h), n


def reference_collision_events(params, record, config):
    """The scalar scan: every pair in turn, every crossing solved alone."""
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
                events.append(CollisionEvent(i, j, *_reference_crossing(record, int(k), i, j)))
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


def _zero_inertia_case(seed):
    config = ScenarioConfig(n=20, m=0.0, d_v=2.0, t_end=10.0, seed=seed)
    params, state0 = sample_instance(config)
    return _dense(params, state0, IntegratorConfig(dt=0.01, t_end=10.0))


def _n3_case(attempt):
    params, state0, _ = _campaign_instance(CampaignConfig(which="n3", seed=1111), attempt)
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
    # Oscillators 0 and 1 drift together at a frequency gap of about 2e-4
    # and graze across each other near t = 3.4; oscillator 2 keeps every
    # pair coupled.
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
    **{f"zero_inertia_{s}": (lambda s=s: _zero_inertia_case(s)) for s in range(4)},
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


# The largest distance of a case's t_star from those of the same instance
# run at dt/20 and solved the same way: the measured distance (in
# parentheses) with a margin of 2 to 4.
_FINE_REFERENCE_BOUND = {
    "census_101": 1e-9,  # (2.7e-10)
    "census_202": 5e-10,  # (1.1e-10)
    "census_stiff": 2e-7,  # (8.1e-8)
    "grazing": 1e-10,  # (4.4e-11)
    "identical_pair": 1e-9,  # (2.9e-10)
    "n3_0": 5e-8,  # (1.5e-8)
    "n3_1": 2e-7,  # (7.3e-8)
    "n3_2": 1e-8,  # (4.5e-9)
    "n3_3": 2e-9,  # (6.7e-10)
    "no_crossing": 0.0,
    "nonsync_drift": 1e-10,  # (2.2e-11)
    "single_oscillator": 0.0,
    "zero_inertia_0": 1e-9,  # (2.3e-10)
    "zero_inertia_1": 5e-10,  # (1.1e-10)
    "zero_inertia_2": 1e-9,  # (2.4e-10)
    "zero_inertia_3": 2e-9,  # (6.3e-10)
}


def _fine_reference(case):
    """Events of a case's instance run at dt/20, in pair order: by pair,
    then time.  The four n3 cases share their plan and run as one batch, as
    do the four zero-inertia cases."""
    family = case.rpartition("_")[0]
    batched = family in ("n3", "zero_inertia")
    names = tuple(f"{family}_{a}" for a in range(4)) if batched else (case,)
    return _fine_events(names)[names.index(case)]


@functools.cache
def _fine_events(names):
    cases = [COLLISION_CASES[name]() for name in names]
    fine = dataclasses.replace(cases[0][2], dt=cases[0][2].dt / 20)
    assert all(cfg == cases[0][2] for _, _, cfg in cases)
    records = record_trajectory([p for p, _, _ in cases], [r.state(0) for _, r, _ in cases], fine)
    return [
        _in_pair_order(collision_events_from_record(p, records.instance(b), fine))
        for b, (p, _, _) in enumerate(cases)
    ]


def _in_pair_order(events):
    return sorted(events, key=lambda ev: (ev.i, ev.j, ev.t_star))


@pytest.mark.parametrize("case", sorted(COLLISION_CASES))
def test_collision_times_match_fine_reference(case):
    # The step's cubic Hermite interpolant places each crossing about as
    # well as the trajectory itself: pair by pair, the same crossings and
    # branches in the same order as a run at dt/20, and t_star within the
    # case's bound.  (Across pairs, symmetric cases hold simultaneous
    # collisions, which rounding orders.)
    params, record, cfg = COLLISION_CASES[case]()
    events = _in_pair_order(collision_events_from_record(params, record, cfg))
    reference = _fine_reference(case)
    assert [(ev.i, ev.j, ev.branch) for ev in events] == [
        (ev.i, ev.j, ev.branch) for ev in reference
    ]
    worst = max((abs(a.t_star - b.t_star) for a, b in zip(events, reference)), default=0.0)
    assert worst <= _FINE_REFERENCE_BOUND[case]


_brackets = st.lists(
    st.tuples(
        st.floats(1e-9, 1.0), st.floats(1e-9, 1.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
        st.booleans(),
    ),
    min_size=1,
    max_size=20,
)


@given(_brackets)
@example([(0.5, 0.5, -2.0, 4.0, False), (0.2, 0.7, 0.0, 0.0, True), (1.0, 1.0, 3.0, 3.0, False)])
def test_cubic_solve_finds_a_root_in_the_bracket(brackets):
    # Values of opposite signs at both ends, with slopes of either sign and
    # up to thousands of times the bracket's rise: monotone and
    # non-monotone cubics.  Every row's root lies in [0, 1] and equals the
    # scalar solve's bit for bit.  Rows Newton leaves with a residual above
    # 1e-12 of |y1 - y0| take the bisection: the cubic changes sign across
    # their last bracket of width 2**-40.
    y0, y1, m0, m1 = (np.array(col) for col in zip(*((-a, b, c, d) for a, b, c, d, _ in brackets)))
    flip = np.array([f for *_, f in brackets])
    y0, y1 = np.where(flip, -y0, y0), np.where(flip, -y1, y1)
    s = integrate_module._hermite_root(y0, y1, m0, m1)
    assert ((s >= 0.0) & (s <= 1.0)).all()
    assert s.tolist() == [_reference_hermite_root(*row) for row in zip(y0, y1, m0, m1)]
    value = integrate_module._hermite(s, y0, y1, m0, m1)[0]
    loose = ~(np.abs(value) <= 1e-12 * np.abs(y1 - y0))
    lo, hi = s - 2.0**-41, s + 2.0**-41
    at_lo = integrate_module._hermite(lo, y0, y1, m0, m1)[0] * np.sign(y0)
    at_hi = integrate_module._hermite(hi, y0, y1, m0, m1)[0] * np.sign(y0)
    assert ((at_lo >= 0.0) & (at_hi <= 0.0))[loose].all()


def test_cubic_solve_bisects_unconverged_rows():
    # A cubic that falls from its first end before it rises steeply to the
    # second: four Newton iterations leave a residual of 1e-7, so the row is
    # bisected on the cubic, beside a monotone row Newton solves exactly.
    y0, y1 = np.array([-0.5, -0.5]), np.array([0.5, 0.5])
    m0, m1 = np.array([-2.0, 1.0]), np.array([4.0, 1.0])
    s = integrate_module._hermite_root(y0, y1, m0, m1)
    assert s[1] == 0.5
    assert (s[0] * 2.0**41) % 2.0 == 1.0  # the midpoint of a dyadic bracket
    assert abs(integrate_module._hermite(s, y0, y1, m0, m1)[0][0]) <= 1e-11


@pytest.mark.parametrize(
    "case", ["census_stiff", "nonsync_drift", "n3_0", "n3_1", "n3_2", "n3_3", "zero_inertia_0"]
)
def test_refinement_never_probes_more_than_plain_bisection(monkeypatch, case):
    # Crossing times are read off the record: the refinement evaluates the
    # coupling at no phase value, where plain bisection would step every
    # bracket at every midpoint.
    params, record, cfg = COLLISION_CASES[case]()
    values = 0

    def counting(theta, kappa, work=None):
        nonlocal values
        values += theta.size
        return coup(theta, kappa, work)

    coup = COUPLING_FORMS["mean_field"]
    monkeypatch.setitem(COUPLING_FORMS, "mean_field", counting)
    assert collision_events_from_record(params, record, cfg)
    assert values == 0


def _oracle_step(params, coup, y, h):
    """The reference steppers' step of the stacked state ``y``."""
    if len(y) == 1:
        return _reference_rk4_step_first_order(params, coup, y[0], h)[None]
    return np.stack(_reference_rk4_step(params, coup, y[0], y[1], h))


@pytest.mark.parametrize("coupling", sorted(_FORMS))
@pytest.mark.parametrize("inertial", [True, False], ids=["m>0", "m=0"])
def test_stacked_step_matches_reference_steppers(rng, coupling, inertial):
    # One stacked stepper for both models equals the two-array reference
    # steppers bit for bit: one state and a batch; shared parameters,
    # coefficient rows at the state's full shape and as (B, 1) columns; and a
    # 200-step march on one stepper.
    coup = _FORMS[coupling]
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
    cases = [(params, one, 0.013), (single, one, 0.013), (params, batch, 0.01),
             (rows, batch, 0.0099999), (columns, batch, 3e-7), (rows, batch, 0.0)]
    for p, y, step in cases:
        got = _rk4_step(p, coup, y, step)
        assert got.shape == y.shape and np.array_equal(got, _oracle_step(p, coup, y, step))

    y = col = want = batch
    step, col_step = _stepper(rows, coup, batch.shape), _stepper(columns, coup, batch.shape)
    for _ in range(200):
        y, col, want = step(y, 0.01), col_step(col, 0.01), _oracle_step(rows, coup, want, 0.01)
    assert np.isfinite(y).all() and np.array_equal(y, want) and np.array_equal(col, want)


@pytest.mark.parametrize(
    "shape", [(2, 200), (2, 4, 20), (2, 1000), (1, 200), (1, 4, 20), (1, 1000)]
)
def test_warmed_step_allocates_only_its_state(rng, shape):
    # The stage block, the scratch rows and the coupling's work arrays are
    # built with the stepper, so a step allocates its returned state and
    # numpy's per-call bookkeeping (under 2 KiB).  Numpy's iterator also
    # buffers the broadcast centroid (S, C) of the coupling's fused multiply
    # to 2N floats per row, the size of an inertial state and twice that of
    # zero-inertia phases; the peak holds the larger of the two.
    d, rows = shape[0], shape[1:]
    m = np.full(rows, 0.5 if d == 2 else 0.0)
    params = integrate_module._Rows(m, np.full(rows, 1.3), rng.uniform(-0.4, 0.4, rows))
    step = _stepper(params, COUPLING_FORMS["mean_field"], shape)
    y = rng.uniform(-3.0, 3.0, shape)
    step(y, 0.01)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        new = step(y, 0.01)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    buffer = 2 * math.prod(rows) * 8
    assert peak <= max(new.nbytes, buffer) + 2048


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

    def observe(t, yk, dy):
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

    def counting(theta, kappa, work=None):
        nonlocal calls
        calls += 1
        return mean_field(theta, kappa, work)

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
    # Past t = 8192 adjacent doubles lie further apart than 1e-12; the
    # crossing time is still the exact one to within a few of them.
    params = SystemParams(1.0, 0.0, [1.0, 0.0])
    state0 = PhaseState(t0, [-0.0051, 0.0], [1.0, 0.0])
    events = detect_collisions(params, state0, IntegratorConfig(dt=0.01, t_end=0.02))
    assert [(ev.i, ev.j, ev.branch) for ev in events] == [(0, 1, 0)]
    assert abs(events[0].t_star - (t0 + 0.0051)) <= 1e-12 + 4 * np.spacing(t0 + 0.0051)


def test_small_blocks_match_reference_scan(monkeypatch):
    # One pair per scan block: every block boundary is crossed many times.
    params, record, cfg = _census_case(303)
    reference = _bits(reference_collision_events(params, record, cfg))
    monkeypatch.setattr(integrate_module, "_BLOCK_ELEMENTS", 2 * record.n + 1)
    assert _bits(collision_events_from_record(params, record, cfg)) == reference


def test_refinement_coupling_calls_bounded_per_batch(monkeypatch):
    # A collision run makes the four coupling calls per step of its record
    # and no more: the refinement reads the record alone.
    params, record, cfg = _census_case(404)
    calls = 0
    coupling = COUPLING_FORMS["mean_field"]

    def counting(theta, kappa, work=None):
        nonlocal calls
        calls += 1
        return coupling(theta, kappa, work)

    monkeypatch.setitem(COUPLING_FORMS, "mean_field", counting)
    events = detect_collisions(params, record.state(0), cfg)
    assert len(events) > 100
    assert calls == 4 * (record.n_snapshots - 1)


def test_refinement_probe_memory_bounded(monkeypatch):
    # The pair scan holds a few blocks of _BLOCK_ELEMENTS gap values at a
    # time, never the whole snapshots x pairs array, and the crossing solve
    # a few arrays of one float per crossing: the whole collision pass
    # peaks within 8 blocks and 2 KiB per event (the events themselves).
    params, record, cfg = _census_case(101)
    block = 100 * record.n
    monkeypatch.setattr(integrate_module, "_BLOCK_ELEMENTS", block)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        events = collision_events_from_record(params, record, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    pairs = record.n * (record.n - 1) // 2
    assert len(events) > 100 and record.n_snapshots * pairs > 40 * block
    assert peak <= 8 * 8 * block + 2048 * len(events)


def test_zero_inertia_record_reuses_the_step_rate(monkeypatch):
    # A zero-inertia record's frequency rows are the phase velocities, which
    # the step from each snapshot computes as its stage-1 rate: a dense record
    # makes four coupling calls per step and one for its last snapshot, not a
    # fifth per step, and every row equals a coupling call of its own bit for
    # bit, at stride 1 and 7.
    calls = 0
    coupling = COUPLING_FORMS["mean_field"]

    def counting(theta, kappa, work=None):
        nonlocal calls
        calls += 1
        return coupling(theta, kappa, work)

    monkeypatch.setitem(COUPLING_FORMS, "mean_field", counting)
    cfg = IntegratorConfig(dt=0.01, t_end=10.0)
    steps = 1000
    for m in (0.0, 1.0):
        params, state0 = sample_instance(ScenarioConfig(n=10, m=m, seed=3))
        calls = 0
        assert detect_collisions(params, state0, cfg)
        assert calls <= 4 * steps + (m == 0.0)
    monkeypatch.setitem(COUPLING_FORMS, "mean_field", coupling)
    params, state0 = sample_instance(ScenarioConfig(n=10, m=0.0, seed=4))
    strided = IntegratorConfig(dt=0.01, t_end=1.005, observer_stride=7)
    record = record_trajectory(params, state0, strided)
    for theta, omega in zip(record.theta, record.omega):
        assert np.array_equal(omega, params.nu + coupling(theta, params.kappa))


class _CountingNumpy:
    """numpy, with a count of the values passed to ``sin``."""

    def __init__(self):
        self.sin_values = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, x, *args, **kwargs):
        self.sin_values += np.size(x)
        return np.sin(x, *args, **kwargs)


def test_collision_scan_evaluates_few_cells_of_a_census(monkeypatch):
    # The skip rule leaves about 4 % of a census's (snapshot, pair) cells
    # live; the scan evaluates sin on those alone.  A fallback to the full
    # scan evaluates every cell.
    params, record, cfg = COLLISION_CASES["census_101"]()
    counting = _CountingNumpy()
    monkeypatch.setattr(integrate_module, "np", counting)
    events = collision_events_from_record(params, record, cfg)
    cells = record.n_snapshots * record.n * (record.n - 1) // 2
    assert len(events) > 100
    assert 0 < counting.sin_values <= 0.10 * cells


_CHUNK_DEFAULT = integrate_module._CHUNK_STEPS


@pytest.mark.parametrize("case", sorted(COLLISION_CASES))
def test_collision_scan_chunk_length_invariance(monkeypatch, case):
    # The chunk length sets the scan's speed only: one step per chunk, a few,
    # the default, and one chunk for the whole record give the same events
    # as the unpruned reference scan, bit for bit.
    params, record, cfg = COLLISION_CASES[case]()
    reference = _bits(reference_collision_events(params, record, cfg))
    for steps in (1, 2, 7, _CHUNK_DEFAULT, record.n_snapshots):
        monkeypatch.setattr(integrate_module, "_CHUNK_STEPS", steps)
        assert _bits(collision_events_from_record(params, record, cfg)) == reference, steps


@pytest.mark.parametrize("case", ["census_101", "n3_0", "zero_inertia_0"])
def test_collision_scan_skips_only_cells_without_a_sign_change(case):
    # Soundness of the skip rule: in the unpruned sin scan, no cell that the
    # rule skips holds a sign change between its chunk's snapshots or an
    # exact zero on one of them.  The rule skips most cells of these cases.
    params, record, cfg = COLLISION_CASES[case]()
    iu, ju = np.triu_indices(record.n, 1)
    sign = np.sign(np.sin(0.5 * (record.theta[:, iu] - record.theta[:, ju])))
    starts, low, high = integrate_module._chunks(record.theta)
    live = integrate_module._live_cells(low, high, iu, ju)
    assert live.shape == (iu.size, starts.size) and live.mean() < 0.5
    last = record.n_snapshots - 1
    for c, start in enumerate(starts):
        seg = sign[start:min(start + _CHUNK_DEFAULT, last) + 1]
        found = (seg[:-1] * seg[1:] < 0).any(axis=0) | (seg == 0.0).any(axis=0)
        assert not (found & ~live[:, c]).any(), start


# Gaps of a hand-built record, as offsets from a multiple of fl(2*pi): at
# the float spacing of 2*pi*n and a little above, both signs, and values
# well inside an arc, repeated so that some chunks stay inside one arc.
_GAP_OFFSETS = [0.0, 1e-15, -1e-15, 4e-13, -4e-13, 1e-9, -1e-9, 2e-9, -2e-9] + [0.5, -2.0, 3.0] * 4


@st.composite
def _adversarial_records(draw):
    n = draw(st.integers(2, 4))
    s = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1.0, 1e2, 1e4]))
    base = np.cumsum(draw(st.lists(st.floats(-0.3, 0.3), min_size=s, max_size=s)))
    theta = np.empty((s, n))
    theta[:, 0] = draw(st.floats(-scale, scale)) + base
    for j in range(1, n):
        winding = draw(st.integers(-3, 3))
        offsets = draw(st.lists(st.sampled_from(_GAP_OFFSETS), min_size=s, max_size=s))
        theta[:, j] = theta[:, 0] - (winding * TWO_PI + np.array(offsets))
        if draw(st.booleans()):  # the other gap direction
            theta[:, [0, j]] = theta[:, [j, 0]]
    omega = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=s * n, max_size=s * n)))
    steps = draw(st.sampled_from([1, 2, 3, 5, 7]))
    return theta, omega.reshape(s, n), steps


@given(_adversarial_records())
@example((np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, -1.0], [0.0, 0.0]]),
          np.ones((5, 2)), 2))
def test_pruned_collision_scan_matches_reference_on_adversarial_records(data):
    # Hand-built dense records whose gaps sit within 1e-15 to 2e-9 of
    # fl(2*pi)*n on either side, or exactly on it, with phases up to 1e4 in
    # size, both gap directions, and exact zeros on snapshots two chunks
    # share (the example's zeros lie at snapshots 0, 2 and 4, with two steps
    # per chunk).  The pruned scan equals the unpruned reference bit for bit.
    theta, omega, steps = data
    s, n = theta.shape
    t = np.arange(s) * 0.125
    params = SystemParams(1.0, 1.0, np.arange(n, dtype=float))
    record = integrate_module.TrajectoryRecord(t, theta, omega)
    cfg = IntegratorConfig(dt=0.125, t_end=(s - 1) * 0.125)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrate_module, "_CHUNK_STEPS", steps)
        events = collision_events_from_record(params, record, cfg)
    assert _bits(events) == _bits(reference_collision_events(params, record, cfg))


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

"""Model layer: vector fields against brute-force oracles, symmetry
transforms against solve-then-transform runs, and the exact solution families."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kuramoto_lock import (
    IntegratorConfig,
    PhaseState,
    SystemParams,
    diameter,
    dilate_transform,
    galilean_transform,
    mean_closed_form,
    nonsync_exact,
    record_trajectory,
    rhs_first_order,
    rhs_inertial,
    run_scenario,
    ScenarioConfig,
)
from kuramoto_lock.model import (
    COUPLING_FORMS,
    _MeanFieldWork,
    centroid,
    centroid_phase,
    coupling_direct,
    coupling_mean_field,
    order_parameter,
)

TWO_PI = 2.0 * np.pi


def random_instance(rng, n=5, m=1.0, kappa=1.0, d_v=0.8, d_om=1.0):
    params = SystemParams(m, kappa, rng.uniform(-d_v / 2, d_v / 2, n))
    state = PhaseState(0.0, rng.uniform(0, TWO_PI, n), rng.uniform(-d_om / 2, d_om / 2, n))
    return params, state


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(-0.1, 1.0, [0.0])
    with pytest.raises(ValueError):
        SystemParams(1.0, -1.0, [0.0])
    with pytest.raises(ValueError):
        SystemParams(1.0, 1.0, [])
    with pytest.raises(ValueError):
        SystemParams(1.0, 1.0, [np.nan])
    p = SystemParams(0.5, 2.0, [1.0, 3.0])
    assert p.n == 2 and p.nu_c == 2.0 and p.nu_diameter == 2.0
    with pytest.raises(ValueError):
        p.nu[0] = 5.0  # frozen storage


def test_state_validation():
    with pytest.raises(ValueError):
        PhaseState(0.0, [0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        PhaseState(0.0, [np.inf], [0.0])
    s = PhaseState(1.5, [0.0, 2.0], [0.5, -0.5])
    assert s.theta_c == 1.0 and s.omega_c == 0.0


def test_variance_diameter_inequality(rng):
    for _ in range(100):
        x = rng.normal(size=rng.integers(1, 20))
        assert np.var(x) <= diameter(x) ** 2 / 4 + 1e-15


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
)
def test_diameter_triangle_inequality(a, b):
    n = min(len(a), len(b))
    a = np.asarray(a[:n])
    b = np.asarray(b[:n])
    assert abs(diameter(a) - diameter(b)) <= diameter(a - b) + 1e-9


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------

def test_rhs_inertial_trivial_identical():
    p = SystemParams(0.7, 3.0, [0.0, 0.0])
    s = PhaseState(0.0, [1.3, 1.3], [0.0, 0.0])
    _, domega = rhs_inertial(p, s)
    assert np.all(domega == 0.0)


def test_rhs_inertial_quarter_circle():
    p = SystemParams(1.0, 2.0, [0.0, 0.0])
    s = PhaseState(0.0, [0.0, np.pi / 2], [0.0, 0.0])
    dtheta, domega = rhs_inertial(p, s)
    assert np.allclose(dtheta, [0.0, 0.0])
    assert np.allclose(domega, [1.0, -1.0], atol=1e-15)


def test_rhs_matches_double_loop_oracle(rng):
    p, s = random_instance(rng, n=3, m=0.8, kappa=1.7)

    def oracle(i):
        total = 0.0
        for j in range(3):
            total += math.sin(s.theta[j] - s.theta[i])
        return (p.nu[i] - s.omega[i] + p.kappa / 3 * total) / p.m

    _, domega = rhs_inertial(p, s)
    expected = np.array([oracle(i) for i in range(3)])
    assert np.abs(domega - expected).max() < 1e-14


def test_rhs_inertial_rejects_zero_inertia():
    p = SystemParams(0.0, 1.0, [0.0])
    s = PhaseState(0.0, [0.0], [0.0])
    with pytest.raises(ValueError):
        rhs_inertial(p, s)


def test_rhs_first_order_trivial():
    p = SystemParams(0.0, 2.0, [0.0, 0.0, 0.0])
    assert np.all(rhs_first_order(p, [0.4, 0.4, 0.4]) == 0.0)


def test_rhs_first_order_single_oscillator():
    p = SystemParams(0.0, 5.0, [1.25])
    assert np.allclose(rhs_first_order(p, [2.0]), [1.25])


def test_rhs_first_order_mean_field_identity(rng):
    for _ in range(25):
        p, s = random_instance(rng, n=int(rng.integers(2, 30)))
        z = np.exp(1j * s.theta).mean()
        r, phi = abs(z), np.angle(z)
        if r <= 1e-9:
            continue
        mf = p.nu - p.kappa * r * np.sin(s.theta - phi)
        assert np.abs(rhs_first_order(p, s.theta) - mf).max() < 1e-12


def test_coupling_forms_agree(rng):
    for _ in range(25):
        theta = rng.uniform(-10, 10, int(rng.integers(1, 40)))
        a = coupling_direct(theta, 1.9)
        b = coupling_mean_field(theta, 1.9)
        assert np.abs(a - b).max() < 1e-12


def coupling_complex(theta, kappa, work=None):
    """The mean-field coupling as complex arithmetic, the form runs stepped
    before the real-arithmetic centroid rule: kappa * Im(mean(z) * conj(z)).
    ``work`` is ignored, as :func:`coupling_direct` ignores it."""
    th = np.asarray(theta, dtype=float)
    z = np.exp(1j * th)
    return kappa * (np.add.reduce(z, axis=-1, keepdims=True) / th.shape[-1] * np.conj(z)).imag


def test_centroid_rule_matches_complex_form(rng):
    # The real-arithmetic rule moves the coupling, R and phi of the complex
    # form by rounding only: within 2 eps * kappa, 2 eps and 4 eps.
    eps = np.finfo(float).eps
    for _ in range(300):
        n = int(rng.integers(1, 300))
        kappa = float(rng.uniform(0.0, 5.0))
        theta = rng.uniform(-50.0, 50.0, (int(rng.integers(1, 4)), n))
        got = coupling_mean_field(theta, kappa)
        assert np.abs(got - coupling_complex(theta, kappa)).max() <= 2 * eps * kappa
        z = np.exp(1j * theta).mean(axis=-1)
        cs = centroid(theta)
        assert cs.shape == theta.shape[:-1] + (2,)
        assert np.abs(order_parameter(cs) - np.abs(z)).max() <= 2 * eps
        for (c, s), zk in zip(cs.tolist(), z):
            assert abs(centroid_phase(c, s) - np.angle(zk)) <= 4 * eps


@pytest.mark.parametrize(
    "doc",
    [
        {"N": 200, "m": 1.0, "D_V": 0.5, "D_Omega0": 1.0, "t_end": 30.0, "stride": 10, "seed": 7},
        {"N": 30, "m": 0.0, "D_V": 0.5, "t_end": 30.0, "stride": 10, "seed": 2},
        {"N": 10, "m": 0.2, "D_V": 1.0, "D_Omega0": 2.0, "t_end": 20.0, "collisions": True,
         "seed": 4},
    ],
    ids=["N200", "m0", "collisions"],
)
def test_runs_match_complex_form(monkeypatch, doc):
    # A run stepped with the complex form follows the trajectory that runs
    # had before the centroid rule.  The rule moves it by rounding only:
    # equal lock verdicts and t_lock, collision events with equal (i, j,
    # branch) in equal order and t_star within 1e-12 (the crossing solve
    # reads the record, rounding differences included), series columns within
    # 1e-11 and final states within 1e-14.
    config = ScenarioConfig.from_dict(doc)
    new = run_scenario(config)
    monkeypatch.setitem(COUPLING_FORMS, "mean_field", coupling_complex)
    old = run_scenario(config)
    assert (new.lock.locked, new.lock.t_lock) == (old.lock.locked, old.lock.t_lock)
    assert (new.collisions is None) == (old.collisions is None)
    events = list(zip(new.collisions or (), old.collisions or (), strict=True))
    assert all((a.i, a.j, a.branch) == (b.i, b.j, b.branch) for a, b in events)
    assert max((abs(a.t_star - b.t_star) for a, b in events), default=0.0) <= 1e-12
    for field in dataclasses.fields(new.series):
        a, b = getattr(new.series, field.name), getattr(old.series, field.name)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.nanmax(np.abs(a - b), initial=0.0) <= 1e-11, field.name
    assert np.abs(new.final_state.theta - old.final_state.theta).max() <= 1e-14
    assert np.abs(new.final_state.omega - old.final_state.omega).max() <= 1e-14


@given(
    st.sampled_from([1, 3, 20, 40, 200]),
    st.integers(1, 6),
    st.floats(0.0, 5.0),
    st.integers(0, 2**32 - 1),
)
def test_coupling_forms_row_wise_match_one_dimensional(n, b, kappa, seed):
    # Batched records rely on every row of a (B, N) call being the
    # one-dimensional call, bit for bit.
    # One work reused across calls, as a stepper reuses its own, gives every
    # call the bits of a fresh call, and its centroid is centroid()'s.
    theta = np.random.default_rng(seed).uniform(-50.0, 50.0, (b, n))
    for form in (coupling_direct, coupling_mean_field):
        batch = form(theta, kappa)
        assert batch.shape == (b, n)
        row_work = _MeanFieldWork((n,))
        for row, out in zip(theta, batch):
            assert out.tobytes() == form(row, kappa).tobytes()
            assert form(row, kappa, row_work).tobytes() == out.tobytes()
        work = _MeanFieldWork(theta.shape)
        for th in (theta, theta[::-1], 0.5 * theta, theta):
            assert form(th, kappa, work).tobytes() == form(th, kappa).tobytes()
            if form is coupling_mean_field:
                assert work.cs.tobytes() == centroid(th).tobytes()


def test_coupling_antisymmetry_mean_acceleration(rng):
    # The pairwise sum cancels, so m*domega_c + omega_c = nu_c at RHS level.
    for _ in range(20):
        p, s = random_instance(rng, n=int(rng.integers(1, 25)), m=0.6, kappa=2.3)
        _, domega = rhs_inertial(p, s)
        resid = abs(p.m * domega.mean() + s.omega.mean() - p.nu_c)
        assert resid < 1e-13


def test_reflection_symmetry(rng):
    p, s = random_instance(rng, n=7)
    pr = SystemParams(p.m, p.kappa, -p.nu)
    sr = PhaseState(0.0, -s.theta, -s.omega)
    _, d1 = rhs_inertial(p, s)
    _, d2 = rhs_inertial(pr, sr)
    assert np.abs(d1 + d2).max() < 1e-13


def test_exchange_symmetry(rng):
    p, s = random_instance(rng, n=9)
    perm = rng.permutation(9)
    pp = SystemParams(p.m, p.kappa, p.nu[perm])
    sp = PhaseState(0.0, s.theta[perm], s.omega[perm])
    _, d1 = rhs_inertial(p, s)
    _, d2 = rhs_inertial(pp, sp)
    assert np.abs(d1[perm] - d2).max() < 1e-13


# ---------------------------------------------------------------------------
# Galilean transform
# ---------------------------------------------------------------------------

def test_galilean_identity_and_t0():
    rng = np.random.default_rng(1)
    p, s = random_instance(rng, n=4)
    p2, s2 = galilean_transform(p, s, 0.0, 0.0, 0.0)
    assert np.all(p2.nu == p.nu) and np.all(s2.theta == s.theta)
    p3, s3 = galilean_transform(p, s, 0.5, 0.2, -0.3)
    assert np.allclose(s3.theta, s.theta - 0.2)
    assert np.allclose(s3.omega, s.omega + 0.3)
    assert np.allclose(p3.nu, p.nu - 0.5)


def test_galilean_solve_transform_commutation(rng):
    cfg = IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=50)
    for seed in range(2):
        local = np.random.default_rng(seed)
        p, s = random_instance(local, n=5)
        shifts = (0.4, -0.6, 0.25)
        pt, st_ = galilean_transform(p, s, *shifts)
        rec = record_trajectory(p, s, cfg)
        rec_t = record_trajectory(pt, st_, cfg)
        worst = 0.0
        for k in range(rec.n_snapshots):
            _, mapped = galilean_transform(p, rec.state(k), *shifts)
            worst = max(worst, np.abs(mapped.theta - rec_t.theta[k]).max())
            worst = max(worst, np.abs(mapped.omega - rec_t.omega[k]).max())
        assert worst < 1e-8


# ---------------------------------------------------------------------------
# Dilation transform
# ---------------------------------------------------------------------------

def test_dilate_identity_and_invariants(rng):
    p, s = random_instance(rng, n=4)
    p1, s1 = dilate_transform(p, s, 1.0)
    assert np.all(p1.nu == p.nu) and np.all(s1.omega == s.omega)
    p2, _ = dilate_transform(p, s, 2.0)
    assert p2.m * p2.kappa == p.m * p.kappa  # exact for power-of-two alpha
    p3, s3 = dilate_transform(p, s, 1.7)
    for before, after in [
        (p.m * p.kappa, p3.m * p3.kappa),
        (p.nu_diameter / p.kappa, p3.nu_diameter / p3.kappa),
        (diameter(s.omega) / p.kappa, diameter(s3.omega) / p3.kappa),
    ]:
        assert abs(before - after) <= 1e-15 * max(1.0, abs(before))


def test_dilate_trajectory_equivalence(rng):
    p, s = random_instance(rng, n=4, m=0.9, kappa=1.1)
    alpha = 2.0
    pd, sd = dilate_transform(p, s, alpha)
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=8.0, observer_stride=100))
    rec_d = record_trajectory(
        pd, sd, IntegratorConfig(dt=0.01 / alpha, t_end=8.0 / alpha, observer_stride=100)
    )
    assert np.abs(rec.theta - rec_d.theta).max() < 1e-8
    assert np.abs(alpha * rec.omega - rec_d.omega).max() < 1e-8


# ---------------------------------------------------------------------------
# Mean closed form
# ---------------------------------------------------------------------------

def test_mean_closed_form_degenerate():
    p = SystemParams(0.8, 1.0, [0.3, -0.3])
    s = PhaseState(0.0, [1.0, 3.0], [0.4, -0.4])
    mt = mean_closed_form(p, s)
    # nu_c = 0 and omega_c0 = 0 freeze the mean.
    for t in (0.0, 1.0, 10.0, 100.0):
        assert abs(mt.theta_c(t) - 2.0) < 1e-14
    assert abs(mt.omega_c(1e6) - p.nu_c) < 1e-12


def test_mean_closed_form_limit():
    p = SystemParams(0.5, 1.0, [1.0, 2.0])
    s = PhaseState(0.0, [0.0, 0.0], [3.0, 1.0])
    mt = mean_closed_form(p, s)
    assert abs(mt.omega_c(0.0) - 2.0) < 1e-15
    assert abs(mt.omega_c(200.0) - 1.5) < 1e-12


def test_mean_closed_form_matches_integration(rng):
    p, s = random_instance(rng, n=10, m=0.7, kappa=1.4)
    mt = mean_closed_form(p, s)
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=20))
    assert np.abs(rec.theta.mean(axis=1) - mt.theta_c(rec.t)).max() < 1e-7
    assert np.abs(rec.omega.mean(axis=1) - mt.omega_c(rec.t)).max() < 1e-7


# ---------------------------------------------------------------------------
# Zero-centroid exact family
# ---------------------------------------------------------------------------

def nonsync_example(m=1.0, kappa=0.4):
    params = SystemParams(m, kappa, np.array([1.0, 1.0, 2.0, 2.0]))
    state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
    return params, state0, [[0, 1], [2, 3]]


def test_nonsync_exact_closed_form():
    params, state0, groups = nonsync_example()
    exact = nonsync_exact(params, state0, groups)
    m = params.m
    for t in np.linspace(0.0, 20.0, 41):
        growth = t - m + m * math.exp(-t / m)
        expected = state0.theta + params.nu * growth
        assert np.abs(exact.theta(t) - expected).max() < 1e-12


def test_nonsync_exact_zero_amplitude():
    params, state0, groups = nonsync_example()
    exact = nonsync_exact(params, state0, groups)
    for t in np.linspace(0.0, 30.0, 100):
        r = abs(np.exp(1j * exact.theta(t)).mean())
        assert r < 1e-12


def test_nonsync_integrator_keeps_zero_amplitude():
    params, state0, groups = nonsync_example()
    rec = record_trajectory(params, state0, IntegratorConfig(dt=0.01, t_end=10.0))
    r = np.abs(np.exp(1j * rec.theta).mean(axis=1))
    assert r.max() < 1e-6


def test_nonsync_exact_omega_and_state_match_integration():
    params, state0, groups = nonsync_example()
    exact = nonsync_exact(params, state0, groups)
    rec = record_trajectory(params, state0, IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=10))
    assert np.array_equal(exact.omega(0.0), state0.omega)
    assert np.abs(exact.omega(rec.t) - rec.omega).max() < 1e-6
    for k in (0, rec.n_snapshots // 2, rec.n_snapshots - 1):
        state = exact.state(rec.t[k])
        assert state.t == rec.t[k]
        assert np.abs(state.theta - rec.theta[k]).max() < 1e-6
        assert np.abs(state.omega - rec.omega[k]).max() < 1e-6
        # A scalar time reads the row of the same time in an array.
        assert np.array_equal(state.omega, exact.omega(rec.t)[k])
        assert np.array_equal(state.theta, exact.theta(rec.t)[k])


def test_nonsync_exact_rejects_bad_input():
    params, state0, _ = nonsync_example()
    with pytest.raises(ValueError):
        nonsync_exact(params, state0, [[0, 1], [2]])  # not a partition
    with pytest.raises(ValueError):
        nonsync_exact(params, state0, [[0, 2], [1, 3]])  # nonconstant nu in group
    bad_state = PhaseState(0.0, np.array([0.0, np.pi + 1e-3, 0.0, np.pi]), np.zeros(4))
    with pytest.raises(ValueError):
        nonsync_exact(params, bad_state, [[0, 1], [2, 3]])  # centroid off zero


def test_nonsync_exact_rejects_a_repeated_oscillator():
    # Listing oscillator 0 twice counts its phasor twice, so the centroid
    # check reads zero for a group whose centroid is 1; the closed form would
    # not solve the model.
    params = SystemParams(1.0, 1.0, np.zeros(4))
    theta0 = [0.0, np.pi, 2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0]
    state0 = PhaseState(0.0, theta0, np.zeros(4))
    with pytest.raises(ValueError, match="^group 0: initial phase centroid 1.000e"):
        nonsync_exact(params, state0, [[0, 1, 2, 3]])
    with pytest.raises(ValueError, match="^group 0 lists an oscillator twice$"):
        nonsync_exact(params, state0, [[0, 0, 1, 2, 3]])
    with pytest.raises(ValueError, match="^group 1 overlaps another group$"):
        nonsync_exact(*nonsync_example()[:2], [[0, 1], [1, 2, 3]])


# ---------------------------------------------------------------------------
# The index rule
# ---------------------------------------------------------------------------

def _index_readers():
    """(name, valid index list, the argument's name, call) for every reader
    of an index list; each call returns a value that compares with ==."""
    from kuramoto_lock import ClusterReport, TrajectoryRecord, arrangement_check, diameters
    from kuramoto_lock.certify import (
        check_partial_locking, check_partial_locking_initial, corollary_initial_budget,
    )

    x = [0.0, 1.0, 2.0, 10.0]
    p = SystemParams(0.01, 1.0, [0.0, 0.01, -0.01, 0.02])
    theta0 = [0.0, 0.1, -0.1, 0.5]
    rest = (0.0, 0.0, 0.7, 1.0, 2.0)
    ns_params, ns_state, _ = nonsync_example()
    tail = TrajectoryRecord(np.arange(3) * 0.1, np.outer(np.arange(1, 4), x), np.zeros((3, 4)))

    def cluster(idx):
        return ClusterReport(idx, (0, 0, 0), 0.0, 0.75)

    return [
        ("diameter", [0, 1, 2], "subset", lambda idx: diameter(x, idx)),
        ("diameters", [0, 1, 2], "subset", lambda idx: diameters(PhaseState(0.0, x, x), idx)),
        ("nonsync_exact", [0, 1], "group 0",
         lambda idx: nonsync_exact(ns_params, ns_state, [idx, [2, 3]]).theta(1.0).tolist()),
        ("check_partial_locking A", [0, 1, 2], "subset_a",
         lambda idx: check_partial_locking(p, idx, range(4), *rest, 0.02).to_json_dict()),
        ("check_partial_locking B", [0, 1, 2, 3], "subset_b",
         lambda idx: check_partial_locking(p, [0, 1, 2], idx, *rest, 0.02).to_json_dict()),
        ("corollary_initial_budget", [0, 1, 2], "subset_a",
         lambda idx: corollary_initial_budget(p, idx, 0.1, 1.0, 2.0)),
        ("check_partial_locking_initial A", [0, 1, 2], "subset_a",
         lambda idx: check_partial_locking_initial(p, theta0, idx, range(4), *rest).to_json_dict()),
        ("check_partial_locking_initial B", [0, 1, 2, 3], "subset_b",
         lambda idx: check_partial_locking_initial(p, theta0, [0, 1, 2], idx, *rest).to_json_dict()),
        ("arrangement_check", [0, 1, 2], "cluster indices",
         lambda idx: dataclasses.asdict(arrangement_check(tail, p, cluster(idx), 0.1, 0.7))),
        ("ClusterReport.translated", [0, 1, 2], "cluster indices",
         lambda idx: cluster(idx).translated(x).tolist()),
    ]


_BAD_ENTRIES = [2.7, True, np.True_, "1", -1, 4, 10**400, math.nan, [0], None]
# None as the whole value is left out: it is diameter's "no subset".
_BAD_VALUES = [np.array([True, False, True, True]), "012", b"\x00", [], 3, {0: 0, 1: 1}]


@pytest.mark.parametrize("reader", _index_readers(), ids=lambda r: r[0])
def test_every_index_reader_reads_indices_by_one_rule(reader):
    """Each index reader gives the same result for every valid form of an
    index list, and raises ValueError naming its argument for any other."""
    _, valid, name, call = reader
    want = call(list(valid))
    for form in (tuple(valid), range(len(valid)), np.array(valid, dtype=np.int64),
                 [np.uint16(i) for i in valid], [float(i) for i in valid]):
        assert call(form) == want, form
    for bad in [valid[:-1] + [entry] for entry in _BAD_ENTRIES] + _BAD_VALUES:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(bad)


def test_index_rule_keeps_order_and_repeats():
    from kuramoto_lock.model import _indices, _integer

    assert _indices((3, 0, 3), 4, "x").tolist() == [3, 0, 3]
    assert _indices(np.array([2, 1], dtype=np.uint8), 4, "x").dtype == np.dtype(int)
    assert all(_integer(v) for v in (0, np.int8(-1), 2.0, np.float32(3.0), 10**400))
    assert not any(_integer(v) for v in (True, np.True_, 2.5, math.inf, math.nan, "1", None))


# ---------------------------------------------------------------------------
# The size rule
# ---------------------------------------------------------------------------

def _size_readers():
    """(name, what disagreed, its size, the params' size, call) for every
    reader of a system together with phases, a state, a record or a config,
    each called with a size off by one."""
    from kuramoto_lock import (
        ClusterReport, arrangement_check, detect_locking, energy_dissipation_residual,
        energy_value, integrate, potential,
    )
    from kuramoto_lock.certify import check_partial_locking_initial
    from kuramoto_lock.experiments import compute_series, run_instance
    from kuramoto_lock.integrate import collision_events_from_record

    p3 = SystemParams(1.0, 1.0, [0.1, 0.0, -0.1])
    p4 = SystemParams(1.0, 1.0, [0.1, 0.0, -0.1, 0.05])
    s3 = PhaseState(0.0, [0.0, 0.2, -0.2], [0.0, 0.1, -0.1])
    s4 = PhaseState(0.0, [0.0, 0.2, -0.2, 0.3], [0.0, 0.1, -0.1, 0.0])
    cfg = IntegratorConfig(dt=0.01, t_end=1.0)
    rec3, rec4 = record_trajectory(p3, s3, cfg), record_trajectory(p4, s4, cfg)
    config3 = ScenarioConfig(n=3, m=1.0, kappa=1.0, t_end=1.0, stride=1, certify=False)
    cluster = ClusterReport((0, 1, 3), (0, 0, 0), 0.0, 0.75)
    return [
        ("integrate", "state0", 4, 3, lambda: integrate(p3, s4, cfg)),
        ("record_trajectory", "state0", 4, 3, lambda: record_trajectory(p3, s4, cfg)),
        ("record_trajectory batch", "state0", 3, 4,
         lambda: record_trajectory([p4, p4], [s3, s3], cfg)),
        ("potential", "theta", 4, 3, lambda: potential(p3, np.zeros(4))),
        ("check_partial_locking_initial", "theta0", 3, 4,
         lambda: check_partial_locking_initial(p4, np.zeros(3), [0, 1, 2], range(4),
                                               0.0, 0.0, 0.7, 1.0, 2.0)),
        ("detect_locking", "record", 4, 3, lambda: detect_locking(p3, rec4, window=0.5)),
        ("energy_dissipation_residual", "record", 4, 3,
         lambda: energy_dissipation_residual(SystemParams(1.0, 1.0, [0.0] * 3), rec4)),
        ("energy_value theta", "theta", 4, 3,
         lambda: energy_value(p3, np.zeros(4), np.zeros(3))),
        ("energy_value omega", "omega", 4, 3,
         lambda: energy_value(p3, np.zeros(3), np.zeros(4))),
        ("collision_events_from_record more", "record", 4, 3,
         lambda: collision_events_from_record(p3, rec4, cfg)),
        ("collision_events_from_record fewer", "record", 3, 4,
         lambda: collision_events_from_record(p4, rec3, cfg)),
        ("arrangement_check", "record_tail", 3, 4,
         lambda: arrangement_check(rec3, p4, cluster, 0.1, 0.7)),
        ("compute_series", "record", 4, 3, lambda: compute_series(p3, rec4, 0.6, 1.5)),
        ("run_instance state0", "state0", 4, 3, lambda: run_instance(config3, p3, s4)),
        ("run_instance config", "config", 4, 3,
         lambda: run_instance(dataclasses.replace(config3, n=4), p3, s3)),
        ("run_instance record", "record", 4, 3,
         lambda: run_instance(config3, p3, s3, record=rec4)),
        ("run_instance collision record", "record", 4, 3,
         lambda: run_instance(dataclasses.replace(config3, collisions=True), p3, s3, record=rec4)),
    ]


@pytest.mark.parametrize("reader", _size_readers(), ids=lambda r: r[0])
def test_every_size_reader_checks_sizes_by_one_rule(reader):
    """A system read together with data of another N raises ValueError
    naming what disagreed and both sizes, never a silent answer or a bare
    numpy error."""
    _, what, n, params_n, call = reader
    with pytest.raises(ValueError, match=f"^{what} has {n} oscillators but params have {params_n}$"):
        call()


def test_model_readers_check_sizes_by_the_same_rule():
    p3 = SystemParams(1.0, 1.0, [0.1, 0.0, -0.1])
    s4 = PhaseState(0.0, [0.0, 0.2, -0.2, 0.3], [0.0, 0.1, -0.1, 0.0])
    for what, call in [
        ("state", lambda: rhs_inertial(p3, s4)),
        ("theta", lambda: rhs_first_order(p3, s4.theta)),
        ("state", lambda: galilean_transform(p3, s4, 0.0, 0.0, 0.0)),
        ("state", lambda: dilate_transform(p3, s4, 2.0)),
        ("state0", lambda: mean_closed_form(p3, s4)),
        ("state0", lambda: nonsync_exact(p3, s4, [[0, 1, 2, 3]])),
    ]:
        with pytest.raises(ValueError, match=f"^{what} has 4 oscillators but params have 3$"):
            call()


def test_run_instance_config_must_describe_its_instance():
    """A run record's config carries the instance's m and kappa; a config
    of another m or kappa would persist them and take its lock tolerance
    from the config's kappa."""
    from kuramoto_lock.experiments import run_instance

    params = SystemParams(0.5, 2.0, [0.1, 0.0, -0.1])
    state0 = PhaseState(0.0, [0.0, 0.2, -0.2], [0.0, 0.1, -0.1])
    config = ScenarioConfig(n=3, m=0.5, kappa=2.0, t_end=1.0, stride=1, certify=False)
    run_instance(config, params, state0)
    for m, kappa in [(1.0, 1.0), (0.5, 1.0), (1.0, 2.0)]:
        other = dataclasses.replace(config, m=m, kappa=kappa)
        with pytest.raises(ValueError, match=(
                f"^config has m {m!r} and kappa {kappa!r} but params have m 0.5 and kappa 2.0$")):
            run_instance(other, params, state0)


def test_record_trajectory_batch_needs_one_state_per_instance():
    p3 = SystemParams(1.0, 1.0, [0.1, 0.0, -0.1])
    s3 = PhaseState(0.0, [0.0, 0.2, -0.2], [0.0, 0.1, -0.1])
    cfg = IntegratorConfig(dt=0.01, t_end=0.1)
    for params, states in [([p3, p3], [s3]), ([p3], [s3, s3]), (p3, [s3])]:
        with pytest.raises(ValueError, match="^a batch needs one state per instance$"):
            record_trajectory(params, states, cfg)


def test_record_trajectory_batch_names_the_state_of_another_size():
    """A batch whose states differ in N names the first state that does not
    match its instance, instead of numpy's bare error from stacking them."""
    p3 = SystemParams(1.0, 1.0, [0.1, 0.0, -0.1])
    s3 = PhaseState(0.0, [0.0, 0.2, -0.2], [0.0, 0.1, -0.1])
    s4 = PhaseState(0.0, [0.0, 0.2, -0.2, 0.3], [0.0, 0.1, -0.1, 0.0])
    cfg = IntegratorConfig(dt=0.01, t_end=0.1)
    for params, states, row in [([p3, p3], [s3, s4], 1), ([p3, p3], [s4, s3], 0), (p3, [s3, s4], 1)]:
        with pytest.raises(ValueError, match=rf"^state0\[{row}\] has 4 oscillators but params have 3$"):
            record_trajectory(params, states, cfg)


# ---------------------------------------------------------------------------
# The number rule
# ---------------------------------------------------------------------------

def _number_fields():
    """(field, a valid value, call) for every number a value type stores, and
    for dilate_transform's alpha; each call returns what the value became."""
    from kuramoto_lock import FreeParams, LockTolerances

    p = SystemParams(1.0, 1.0, [0.1, 0.0])
    s = PhaseState(1.0, [0.0, 0.2], [0.0, 0.1])
    return [
        ("m", 2, lambda v: SystemParams(v, 1.0, [0.0]).m),
        ("kappa", 2, lambda v: SystemParams(1.0, v, [0.0]).kappa),
        ("t", 2, lambda v: PhaseState(v, [0.0], [0.0]).t),
        ("dt", 2, lambda v: IntegratorConfig(dt=v).dt),
        ("t_end", 2, lambda v: IntegratorConfig(t_end=v).t_end),
        ("eps_omega", 2, lambda v: LockTolerances(v, 1e-3).eps_omega),
        ("eps_theta", 2, lambda v: LockTolerances(1e-4, v).eps_theta),
        ("eta", 2, lambda v: FreeParams(v, 0.5, 0.7, 1.0).eta),
        ("delta", 0.5, lambda v: FreeParams(1.0, v, 0.7, 1.0).delta),
        ("lam", 1, lambda v: FreeParams(1.0, 0.5, v, 1.0).lam),
        ("ell", 2, lambda v: FreeParams(1.0, 0.5, 0.7, v).ell),
        ("alpha", 2, lambda v: dilate_transform(p, s, v)[1].t),
    ]


_NOT_REAL = ["1", True, np.True_, 1 + 0j, np.complex128(1), None]
_NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400]


@pytest.mark.parametrize("field", _number_fields(), ids=lambda f: f[0])
def test_value_types_read_every_number_by_one_rule(field):
    """Each number field raises ValueError naming itself for a str, a bool,
    a complex, NaN, +-inf or an integer too large for a float, and stores a
    real number of any type as the plain float of it."""
    from decimal import Decimal
    from fractions import Fraction

    name, valid, call = field
    for bad in _NOT_REAL:
        with pytest.raises(ValueError, match=f"^{name} must be real, got "):
            call(bad)
    for bad in _NOT_FINITE:
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            call(bad)
    forms = [np.float32(valid), Fraction(valid), Decimal(valid)]
    if float(valid).is_integer():
        forms += [int(valid), np.int64(valid)]
    for form in forms:
        got = call(form)
        assert type(got) is float and got == call(float(form)), form


@pytest.mark.parametrize("field, call", [
    ("nu", lambda v: SystemParams(1.0, 1.0, v)),
    ("theta", lambda v: PhaseState(0.0, v, [0.0, 0.0])),
    ("omega", lambda v: PhaseState(0.0, [0.0, 0.0], v)),
])
def test_value_types_read_every_array_by_its_dtype(field, call):
    """An array numpy reads as strings, bools or complex numbers is no vector
    of reals.  An array numpy reads as objects is read entry by entry by the
    number rule: a str or a bool among its entries is no real number, and an
    entry too large for a float is not finite.  A ragged vector names the
    field too."""
    from fractions import Fraction

    for bad in (["0.1", "0.2"], [True, False], np.array([True, False]), [1 + 0j, 0j]):
        with pytest.raises(ValueError, match=f"^{field} must be real, got dtype "):
            call(bad)
    for bad, entry in (([Fraction(1), "1"], "'1'"), ([Fraction(1), True], "True")):
        with pytest.raises(ValueError, match=f"^{field} must be real, got {entry}$"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {10**400}$"):
        call([10**400, 0])
    for bad in ([1.0, [2.0]], [[1.0], [2.0]]):
        with pytest.raises(ValueError, match=f"^{field} must be a one-dimensional vector$"):
            call(bad)
    assert getattr(call([Fraction(1, 2), np.int8(1)]), field).tolist() == [0.5, 1.0]

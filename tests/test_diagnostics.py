"""Diagnostics: order-parameter identities, potential and energy balance,
cluster detection against a brute-force oracle, arrangement bounds, and the
numeric locking criterion."""

import dataclasses
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kuramoto_lock import (
    IntegratorConfig,
    PhaseState,
    SystemParams,
    detect_locking,
    diameters,
    energy_dissipation_residual,
    energy_value,
    find_majority_cluster,
    nonsync_exact,
    order_state,
    potential,
    record_trajectory,
    rhs_first_order,
)
from kuramoto_lock.diagnostics import (
    LockReport,
    LockTolerances,
    _lock_window,
    arrangement_check,
    arrangement_constant,
    ClusterReport,
    default_lock_tolerances,
)
from kuramoto_lock.experiments import (
    CampaignConfig,
    ScenarioConfig,
    _campaign_instance,
    _campaign_scenario,
    _integrator_config,
    run_scenario,
    sample_instance,
)
from kuramoto_lock.integrate import TrajectoryRecord

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Order parameters
# ---------------------------------------------------------------------------

def test_order_state_identical():
    o = order_state(np.full(7, 1.234))
    assert abs(o.r - 1.0) < 1e-15
    assert o.phi is not None and abs(o.phi - 1.234) < 1e-12
    assert o.delta < 1e-15


def test_order_state_bipolar():
    o = order_state(np.array([0.0, np.pi, 0.0, np.pi]))
    assert o.r < 1e-12
    assert o.phi is None
    assert 0.0 <= o.delta <= 1.0


def test_uniform_amplitude_expectation():
    # E[R^2] = 1/N for uniform phases; empirical mean over 1e4 draws.
    rng = np.random.default_rng(123)
    n = 50
    theta = rng.uniform(0.0, TWO_PI, size=(10_000, n))
    r2 = np.abs(np.exp(1j * theta).mean(axis=1)) ** 2
    assert abs(r2.mean() - 1.0 / n) < 0.2 / n


def test_order_identities(rng):
    for _ in range(50):
        theta = rng.uniform(-15, 15, int(rng.integers(1, 40)))
        o = order_state(theta)
        if o.phi is None:
            continue
        # Centroid reconstruction and phase balance.
        z = np.exp(1j * theta).mean()
        assert abs(o.r * np.exp(1j * o.phi) - z) < 1e-12
        assert abs(np.mean(np.sin(theta - o.phi))) < 1e-12
        # Double-sum form of the squared amplitude.
        r2 = np.cos(theta[:, None] - theta[None, :]).mean()
        assert abs(o.r**2 - r2) < 1e-12
        assert 0.0 <= o.delta <= 1.0 + 1e-15


# ---------------------------------------------------------------------------
# Diameters
# ---------------------------------------------------------------------------

def test_diameters_basic():
    s = PhaseState(0.0, [0.0, 1.0, 5.0], [0.5, 0.5, 0.5])
    d_theta, d_omega = diameters(s)
    assert d_theta == 5.0 and d_omega == 0.0
    d_theta_sub, _ = diameters(s, subset=[0, 1])
    assert d_theta_sub == 1.0
    with pytest.raises(ValueError):
        diameters(s, subset=[])
    # The subset is read once, so a one-pass iterator serves both diameters.
    s = PhaseState(0, [0, 0.1, 0.2], [0, 0, 0])
    assert diameters(s, iter([0, 1])) == diameters(s, [0, 1]) == (0.1, 0.0)


# ---------------------------------------------------------------------------
# Potential
# ---------------------------------------------------------------------------

def test_potential_trivial_cases():
    p = SystemParams(1.0, 1.0, [0.0, 0.0])
    assert potential(p, [0.7, 0.7]) == 0.0
    assert abs(potential(p, [0.0, np.pi]) - 2.0) < 1e-12


def test_potential_amplitude_identity(rng):
    for _ in range(20):
        n = int(rng.integers(1, 30))
        p = SystemParams(1.0, float(rng.uniform(0.1, 3)), rng.uniform(-1, 1, n))
        theta = rng.uniform(-7, 7, n)
        r2 = abs(np.exp(1j * theta).mean()) ** 2
        via_r = -(p.nu * theta).sum() + 0.5 * p.kappa * n * n * (1 - r2)
        assert abs(potential(p, theta) - via_r) < 1e-10 * max(1.0, abs(via_r))


def test_potential_finite_difference_gradient(rng):
    n = 6
    p = SystemParams(1.0, 1.3, rng.uniform(-1, 1, n))
    theta = rng.uniform(0, TWO_PI, n)
    h = 1e-6
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        grad = (potential(p, theta + e) - potential(p, theta - e)) / (2 * h)
        force = p.nu[i] + p.kappa * np.sin(theta - theta[i]).sum()
        assert abs(-grad - force) < 1e-6 * max(1.0, abs(force))


# ---------------------------------------------------------------------------
# Energy dissipation
# ---------------------------------------------------------------------------

def test_energy_residual_equilibrium():
    n = 5
    p = SystemParams(1.0, 1.0, np.zeros(n))
    theta = np.full(n, 0.3)
    t = np.arange(11) * 0.01
    rec = TrajectoryRecord(t, np.tile(theta, (11, 1)), np.zeros((11, n)))
    bal = energy_dissipation_residual(p, rec)
    assert np.abs(bal.residual).max() == 0.0


def test_energy_residual_identical_frequencies(rng):
    n = 10
    p = SystemParams(0.8, 1.2, np.zeros(n))
    s = PhaseState(0.0, rng.uniform(0, TWO_PI, n), rng.uniform(-0.5, 0.5, n))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=15.0, observer_stride=1))
    bal = energy_dissipation_residual(p, rec)
    assert np.abs(bal.residual).max() < 1e-3
    assert np.all(np.diff(bal.energy) <= 1e-8)


def test_energy_residual_reads_the_equally_spaced_snapshots(rng):
    # A record whose final step is shorter: the residual leaves that
    # snapshot out, as the lock window does, where it used to raise.
    n = 6
    p = SystemParams(0.8, 1.2, np.zeros(n))
    s = PhaseState(0.0, rng.uniform(0, TWO_PI, n), rng.uniform(-0.5, 0.5, n))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=1.005))
    bal = energy_dissipation_residual(p, rec)
    head = energy_dissipation_residual(p, TrajectoryRecord(rec.t[:-1], rec.theta[:-1], rec.omega[:-1]))
    assert bal.times.size == rec.n_snapshots - 1 == 101
    for f in dataclasses.fields(bal):
        assert getattr(bal, f.name).tobytes() == getattr(head, f.name).tobytes()
    # Two equally spaced snapshots and a shorter step hold no interior one.
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=0.015))
    with pytest.raises(ValueError, match="three equally spaced"):
        energy_dissipation_residual(p, rec)


def test_energy_residual_rejects_spread_frequencies():
    p = SystemParams(1.0, 1.0, [0.0, 0.1])
    t = np.arange(5) * 0.1
    rec = TrajectoryRecord(t, np.zeros((5, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        energy_dissipation_residual(p, rec)


# ---------------------------------------------------------------------------
# Majority clusters
# ---------------------------------------------------------------------------

def brute_force_cluster(theta, lam, ell):
    """Independent oracle: try every residue as the window start, with both
    inclusive wrap handling, and return the best (count, arc)."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    res = np.mod(theta, TWO_PI)
    best = None
    for start in res:
        shifted = np.mod(res - start, TWO_PI)
        inside = shifted <= ell + 1e-15
        count = int(inside.sum())
        arc = float(shifted[inside].max()) if count else 0.0
        if best is None or count > best[0] or (count == best[0] and arc < best[1]):
            best = (count, arc)
    if best[0] < math.ceil(lam * n):
        return None
    return best


def test_cluster_all_equal():
    rep = find_majority_cluster(np.full(6, 2.0), 0.9, 0.5)
    assert rep is not None
    assert rep.fraction == 1.0 and rep.arc_diameter == 0.0
    assert rep.indices == tuple(range(6))


def test_cluster_simple_example():
    rep = find_majority_cluster(np.array([0.0, 0.1, 0.2, np.pi]), 0.7, 0.5)
    assert rep is not None
    assert rep.indices == (0, 1, 2)
    assert abs(rep.arc_diameter - 0.2) < 1e-15
    assert rep.translations == (0, 0, 0)


def test_cluster_wraparound_translation():
    theta = np.array([6.2, 0.05, 0.1, 3.0])
    rep = find_majority_cluster(theta, 0.7, 0.3)
    assert rep is not None
    assert rep.indices == (0, 1, 2)
    k = dict(zip(rep.indices, rep.translations))
    assert k[0] == 1 and k[1] == 0 and k[2] == 0
    translated = rep.translated(theta)
    span = diameters(PhaseState(0.0, translated, np.zeros(3)))[0]
    assert abs(span - rep.arc_diameter) < 1e-12
    assert abs((6.2 - TWO_PI) - translated[0]) < 1e-15


def test_cluster_translations_are_one_integer_per_index():
    # Both readers of a cluster's translations take exactly one integer per
    # member; a fraction, a one-entry tuple that would broadcast, or a short
    # tuple is refused naming translations.  Integral floats and numpy
    # integers shift as the ints they equal.
    theta = np.array([6.2, 0.05, 0.1, 3.0])
    p = SystemParams(0.2, 1.0, np.zeros(4))
    tail = TrajectoryRecord(np.arange(3) * 0.1, np.tile(theta, (3, 1)), np.zeros((3, 4)))

    def readers(translations):
        cluster = ClusterReport((0, 1, 2), translations, 0.1, 0.75)
        return (lambda: cluster.translated(theta).tolist(),
                lambda: dataclasses.asdict(arrangement_check(tail, p, cluster, 0.1, 0.7)))

    want = [read() for read in readers((1, 0, 0))]
    assert want[0][0] == 6.2 - TWO_PI
    for same in ([1, 0, 0], (1.0, 0.0, 0.0), np.array([1, 0, 0]), (np.int64(1), 0, np.uint8(0))):
        assert [read() for read in readers(same)] == want
    for bad in (0.5, (1,), (1, 0), (1, 0, 0, 0), (0.5, 0, 0), (True, 0, 0), ("1", 0, 0),
                (1, 0, math.nan), "100", None, {0: 1, 1: 0, 2: 0}):
        for read in readers(bad):
            with pytest.raises(ValueError, match="^translations must be one integer per index, got "):
                read()


def test_cluster_translation_needs_a_finite_shift():
    # An integer too large for a float, or whose shift 2*pi*k is no finite
    # float, is refused naming translations by both readers, not with an
    # OverflowError or an infinite shift.
    p = SystemParams(0.2, 1.0, np.zeros(2))
    tail = TrajectoryRecord(np.arange(3) * 0.1, np.zeros((3, 2)), np.zeros((3, 2)))
    for k in (10**400, -(10**400), 1e308, np.float64(-1e308)):
        cluster = ClusterReport((0, 1), (k, 0), 0.1, 1.0)
        with pytest.raises(ValueError, match="^translations must be one integer per index, got "):
            cluster.translated([0.0, 1.0])
        with pytest.raises(ValueError, match="^translations must be one integer per index, got "):
            arrangement_check(tail, p, cluster, 0.1, 0.7)


def test_cluster_matches_brute_force(rng):
    for _ in range(200):
        n = int(rng.integers(2, 25))
        theta = rng.uniform(-10, 10, n)
        lam = float(rng.uniform(0.3, 1.0))
        ell = float(rng.uniform(0.05, 3.0))
        rep = find_majority_cluster(theta, lam, ell)
        oracle = brute_force_cluster(theta, lam, ell)
        if oracle is None:
            assert rep is None
        else:
            assert rep is not None
            assert len(rep.indices) == oracle[0]
            assert rep.arc_diameter <= oracle[1] + 1e-12
            # The reported translations realize the reported arc.
            translated = rep.translated(theta)
            assert abs((translated.max() - translated.min()) - rep.arc_diameter) < 1e-12
            assert translated.max() - translated.min() <= ell + 1e-12


def cluster_from_condensation(order, theta, lam, beta):
    """Oracle of the paper's condensation lemma: the cluster implied by a
    concentrated order parameter.

    If either gate
        r >= lam + (1-lam)*cos(beta)
    or
        2*lam + delta/(1-cos(beta)) <= 1 + r
    holds, the set {i : theta_i in (phi-beta, phi+beta) mod 2*pi} is returned;
    the lemma guarantees it at least ceil(lam*N) members, and a smaller set
    fails the oracle.  Returns ``None`` when neither gate holds or when
    ``phi`` is undefined.
    """
    assert 0.0 < lam <= 1.0 and 0.0 < beta < 0.5 * math.pi
    if order.phi is None:
        return None
    gate_r = order.r >= lam + (1.0 - lam) * math.cos(beta)
    gate_delta = 2.0 * lam + order.delta / (1.0 - math.cos(beta)) <= 1.0 + order.r
    if not (gate_r or gate_delta):
        return None
    th = np.asarray(theta, dtype=float)
    n = th.size
    d = np.mod(th - order.phi + np.pi, TWO_PI) - np.pi
    members = np.nonzero(np.abs(d) < beta)[0]
    assert members.size >= math.ceil(lam * n), "condensation gate held but the cluster is too small"
    ks = np.rint((th[members] - order.phi - d[members]) / TWO_PI).astype(int)
    arc = float(d[members].max() - d[members].min())
    return ClusterReport(tuple(members.tolist()), tuple(ks.tolist()), arc, members.size / n)


def test_condensation_trivial_and_bipolar():
    theta = np.full(8, 0.4)
    rep = cluster_from_condensation(order_state(theta), theta, 0.8, 0.7)
    assert rep is not None and rep.fraction == 1.0
    bipolar = np.array([0.0, np.pi] * 4)
    assert cluster_from_condensation(order_state(bipolar), bipolar, 0.8, 0.7) is None


def test_condensation_engineered_gate(rng):
    # Near-bipolar: 95% in a tight arc, 5% opposite; R ~ 0.9, Delta ~ 0.02.
    n = 40
    main = rng.normal(0.0, 0.10, 38)
    stragglers = np.pi + rng.normal(0.0, 0.05, 2)
    theta = np.concatenate([main, stragglers])
    o = order_state(theta)
    lam, beta = 0.7, 0.8
    gate = 2 * lam + o.delta / (1 - math.cos(beta)) <= 1 + o.r
    assert gate  # the defining inequality holds for this construction
    rep = cluster_from_condensation(o, theta, lam, beta)
    assert rep is not None
    assert len(rep.indices) >= math.ceil(lam * n)
    assert rep.arc_diameter < 2 * beta


@given(
    st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=30),
    st.lists(st.floats(0.0, TWO_PI), max_size=6),
    st.floats(-50.0, 50.0),
    st.floats(0.3, 1.0),
    st.floats(0.05, 1.5),
)
def test_majority_cluster_covers_condensation_cluster(offsets, stragglers, center, lam, beta):
    # The condensation cluster lies on an open arc of length 2*beta, so the
    # largest set on such an arc, widened by a rounding margin, holds at
    # least as many members.
    theta = np.array([center + o for o in offsets] + stragglers)
    implied = cluster_from_condensation(order_state(theta), theta, lam, beta)
    assume(implied is not None)
    found = find_majority_cluster(theta, lam, 2.0 * beta + 1e-9)
    assert found is not None and len(found.indices) >= len(implied.indices)


# ---------------------------------------------------------------------------
# Arrangement
# ---------------------------------------------------------------------------

def test_arrangement_constant_exceeds_one():
    for lam in np.linspace(0.51, 1.0, 25):
        for phi1 in np.linspace(0.01, np.pi / 2 - 0.01, 40):
            if lam * math.cos(phi1) - (1 - lam) <= 0:
                continue
            assert arrangement_constant(float(lam), float(phi1)) > 1.0


def _last_window(record, window):
    """The snapshots of a record's last lock window."""
    s, length = _lock_window(record.t, window)
    return TrajectoryRecord(*(a[s - length:s] for a in (record.t, record.theta, record.omega)))


def test_arrangement_identical_frequencies_gaps_vanish():
    n = 6
    p = SystemParams(0.2, 1.0, np.zeros(n))
    rng = np.random.default_rng(3)
    s = PhaseState(0.0, rng.uniform(-0.3, 0.3, n), rng.uniform(-0.1, 0.1, n))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=60.0, observer_stride=50))
    cluster = ClusterReport(tuple(range(n)), tuple([0] * n), 0.0, 1.0)
    report = arrangement_check(_last_window(rec, 10.0), p, cluster, 0.5, 0.9)
    for pair in report.pairs:
        assert pair.lower == 0.0 and pair.upper == 0.0
        assert abs(pair.gap) < 1e-6


def test_arrangement_certified_pair():
    eps = 0.02
    kappa = 1.0
    p = SystemParams(0.05, kappa, np.array([eps, -eps]))
    s = PhaseState(0.0, np.array([0.1, -0.1]), np.zeros(2))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=80.0, observer_stride=20))
    cluster = ClusterReport((0, 1), (0, 0), 0.2, 1.0)
    # lam = 1: both bounds live on the pair itself.
    report = arrangement_check(_last_window(rec, 10.0), p, cluster, 0.6, 1.0)
    (pair,) = report.pairs
    assert pair.lower == 2 * eps / kappa
    assert pair.lower - 1e-6 <= pair.gap <= pair.upper + 1e-6


# ---------------------------------------------------------------------------
# Locking
# ---------------------------------------------------------------------------

def _rolling_max(a: np.ndarray, length: int) -> np.ndarray:
    """Sliding-window maximum along axis 0 (window ``length``), via the
    two-pass block prefix/suffix scan; O(S*P) total."""
    s = a.shape[0]
    if length == 1:
        return a.copy()
    if length == s:
        return a.max(axis=0, keepdims=True)
    nb = -(-s // length)
    pad = nb * length - s
    if pad:
        fill = np.full((pad,) + a.shape[1:], -np.inf)
        ap = np.concatenate([a, fill], axis=0)
    else:
        ap = a
    blocks = ap.reshape((nb, length) + a.shape[1:])
    prefix = np.maximum.accumulate(blocks, axis=1).reshape((nb * length,) + a.shape[1:])
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1]
    suffix = suffix.reshape((nb * length,) + a.shape[1:])
    return np.maximum(suffix[: s - length + 1], prefix[length - 1 : s])


def test_rolling_max_matches_naive(rng):
    for _ in range(30):
        s = int(rng.integers(3, 40))
        length = int(rng.integers(1, s + 1))
        a = rng.normal(size=(s, 3))
        out = _rolling_max(a, length)
        naive = np.stack([a[k : k + length].max(axis=0) for k in range(s - length + 1)])
        assert np.array_equal(out, naive)


def test_rolling_max_every_length(rng):
    # length == S (one window, the exact pass on the last window alone) and
    # length == 1 take their own branches.
    for s in (1, 2, 7, 12):
        a = rng.normal(size=(s, 4))
        for length in range(1, s + 1):
            naive = np.stack([a[k : k + length].max(axis=0) for k in range(s - length + 1)])
            assert np.array_equal(_rolling_max(a, length), naive)


def test_locking_exact_equilibrium():
    n = 4
    p = SystemParams(1.0, 1.0, np.zeros(n))
    theta = np.full(n, 0.2)
    t = np.arange(0.0, 20.0 + 1e-9, 0.1)
    rec = TrajectoryRecord(t, np.tile(theta, (t.size, 1)), np.zeros((t.size, n)))
    report = detect_locking(p, rec, window=10.0)
    assert report.locked and report.t_lock == 0.0


def test_locking_rejects_nonsync_family():
    params = SystemParams(0.5, 0.4, np.array([1.0, 1.0, 2.0, 2.0]))
    state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
    rec = record_trajectory(params, state0, IntegratorConfig(dt=0.01, t_end=40.0, observer_stride=10))
    report = detect_locking(params, rec, window=10.0)
    assert not report.locked
    assert report.relative_phase_drift_final > 1.0


def test_locking_detects_synchronized_run():
    rng = np.random.default_rng(8)
    n = 10
    p = SystemParams(0.5, 1.0, rng.uniform(-0.05, 0.05, n))
    s = PhaseState(0.0, rng.uniform(-1.0, 1.0, n), rng.uniform(-0.2, 0.2, n))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=80.0, observer_stride=10))
    report = detect_locking(p, rec, LockTolerances(1e-4, 1e-3), window=10.0)
    assert report.locked
    assert 0.0 < report.t_lock < 60.0
    assert report.omega_spread_final < 1e-4


def test_lock_tolerances_take_the_schema_bound():
    """A tolerance that is NaN or not > 0 is refused, not read as a verdict:
    either would report this locking run as not locked."""
    p = SystemParams(1.0, 1.0, [0.0, 0.01, 0.02])
    s = PhaseState(0.0, [0.0, 0.1, 0.2], [0.0, 0.0, 0.0])
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=30.0, observer_stride=10))
    assert detect_locking(p, rec).locked
    for bad in (-1, 0, 0.0, -math.inf):
        with pytest.raises(ValueError, match="^eps_omega must be "):
            LockTolerances(bad, 1e-3)
        with pytest.raises(ValueError, match="^eps_theta must be "):
            LockTolerances(1e-4, bad)
    with pytest.raises(ValueError, match="^eps_omega must be finite, got nan$"):
        LockTolerances(math.nan, 1e-3)


def test_locking_requires_window_coverage():
    p = SystemParams(1.0, 1.0, [0.0, 0.0])
    t = np.arange(5) * 0.1
    rec = TrajectoryRecord(t, np.zeros((5, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        detect_locking(p, rec, window=10.0)


def test_lock_window_rule():
    # Equally spaced snapshots all count; a shorter final step is left out.
    t = np.arange(11) * 1.0
    assert _lock_window(t, 10.0) == (11, 11)
    assert _lock_window(t, 10.4) == (11, 11)
    assert _lock_window(t, 10.6) is None
    assert _lock_window(t, 0.0) is None
    assert _lock_window(t, 0.6) == (11, 2)
    short = np.append(np.arange(10) * 1.0, 9.95)
    assert _lock_window(short, 9.0) == (10, 10)
    assert _lock_window(short, 9.9) is None
    assert _lock_window(np.array([0.0, 0.05]), 0.01) is None
    assert _lock_window(np.array([0.0, 0.1, 0.15]), 0.12) == (2, 2)
    for bad in ([0.0], [0.0, 1.0, 2.5], [0.0, 1.0, 3.0, 4.0], [0.0, 2.0, 3.0, 3.5]):
        with pytest.raises(ValueError):
            _lock_window(np.array(bad), 1.0)


def test_locking_needs_two_snapshots_per_window():
    # A window shorter than half the snapshot spacing holds one snapshot,
    # over which no phase gap can drift: no verdict.
    p = SystemParams(1.0, 1.0, [0.0, 0.5])
    t = np.arange(5) * 0.1
    rec = TrajectoryRecord(t, np.outer(np.arange(5), [1.0, 2.0]), np.zeros((5, 2)))
    with pytest.raises(ValueError, match="at least two snapshots"):
        detect_locking(p, rec, window=0.04)
    assert detect_locking(p, rec, window=0.06).relative_phase_drift_final == 1.0


def test_locking_leaves_out_a_shorter_final_step():
    # t_end = 80.05 is not a multiple of the snapshot spacing 0.1, so the
    # record ends in a shorter step; the verdict reads the snapshots before it.
    rng = np.random.default_rng(8)
    n = 10
    p = SystemParams(0.5, 1.0, rng.uniform(-0.05, 0.05, n))
    s = PhaseState(0.0, rng.uniform(-1.0, 1.0, n), rng.uniform(-0.2, 0.2, n))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=80.05, observer_stride=10))
    assert rec.t[-1] - rec.t[-2] < rec.t[1] - rec.t[0]
    head = TrajectoryRecord(rec.t[:-1], rec.theta[:-1], rec.omega[:-1])
    verdicts = []
    for window in (0.1, 10.0, 80.0):
        for tol in (LockTolerances(1e-4, 1e-3), LockTolerances(1e-12, 1e-12)):
            got = detect_locking(p, rec, tol, window)
            assert got == detect_locking(p, head, tol, window)
            verdicts.append(got.locked)
    assert any(verdicts) and not all(verdicts)
    with pytest.raises(ValueError):
        detect_locking(p, rec, window=80.1)


def test_initial_layer_amplitude_floor():
    # Over [0, eta*m] the amplitude cannot drop below R0 - zeta(eta).
    from kuramoto_lock import zeta

    rng = np.random.default_rng(17)
    for _ in range(5):
        n = 12
        p = SystemParams(0.05, 1.0, rng.uniform(-0.2, 0.2, n))
        s = PhaseState(0.0, rng.uniform(-1.2, 1.2, n), rng.uniform(-0.5, 0.5, n))
        eta = 2.0
        rec = record_trajectory(
            p, s, IntegratorConfig(dt=p.m / 50, t_end=eta * p.m, observer_stride=1)
        )
        r = np.abs(np.exp(1j * rec.theta).mean(axis=1))
        r0 = r[0]
        d_om0 = float(s.omega.max() - s.omega.min())
        assert r.min() >= r0 - zeta(p, d_om0, eta) - 1e-6


def test_identity_suite_along_trajectory(rng):
    # Centroid identities hold on every snapshot of a run.
    n = 15
    p = SystemParams(0.7, 1.1, rng.uniform(-0.4, 0.4, n))
    s = PhaseState(0.0, rng.uniform(0, TWO_PI, n), rng.uniform(-0.5, 0.5, n))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=20))
    for k in range(rec.n_snapshots):
        theta = rec.theta[k]
        o = order_state(theta)
        assert o.phi is not None
        assert abs(np.mean(np.sin(theta - o.phi))) < 1e-10
        assert abs(o.r**2 - np.cos(theta[:, None] - theta[None, :]).mean()) < 1e-10
        mf = p.nu - p.kappa * o.r * np.sin(theta - o.phi)
        assert np.abs(rhs_first_order(p, theta) - mf).max() < 1e-10
        assert o.delta <= 1.0 + 1e-15
        omega = rec.omega[k]
        assert math.sqrt(np.var(omega)) <= (omega.max() - omega.min()) / 2 + 1e-15


def test_energy_value_consistency(rng):
    n = 8
    p = SystemParams(0.7, 1.4, np.zeros(n))
    theta = rng.uniform(0, TWO_PI, n)
    omega = rng.uniform(-1, 1, n)
    e = energy_value(p, theta, omega)
    r2 = abs(np.exp(1j * theta).mean()) ** 2
    expected = 0.5 * p.kappa * (1 - r2) + 0.5 * p.m * np.var(omega)
    assert abs(e - expected) < 1e-14


# ---------------------------------------------------------------------------
# Row-wise potential and energy
# ---------------------------------------------------------------------------

def test_potential_and_energy_rowwise_match_single_rows(rng):
    for n in (1, 2, 5, 40, 200):
        p = SystemParams(0.7, 1.3, rng.uniform(-1, 1, n))
        theta = rng.uniform(-20, 20, (31, n))
        omega = rng.uniform(-1, 1, (31, n))
        pot = potential(p, theta)
        energy = energy_value(p, theta, omega)
        assert pot.shape == energy.shape == (31,)
        for k in range(31):
            assert pot[k] == potential(p, theta[k])
            assert energy[k] == energy_value(p, theta[k], omega[k])


def _potential_double_sum(p, theta):
    pair = 1.0 - np.cos(theta[:, None] - theta[None, :])
    return -(p.nu * theta).sum() + 0.5 * p.kappa * pair.sum()


@pytest.mark.parametrize("spread", [1e-6, 1e-2, 1.0, 30.0])
def test_potential_matches_double_sum(rng, spread):
    for _ in range(20):
        n = int(rng.integers(1, 120))
        p = SystemParams(1.0, float(rng.uniform(0.1, 3)), rng.uniform(-1, 1, n))
        theta = float(rng.uniform(-50, 50)) + rng.uniform(-spread, spread, n)
        tol = 1e-12 * max(1.0, p.kappa * n * n)
        assert abs(potential(p, theta) - _potential_double_sum(p, theta)) <= tol


# ---------------------------------------------------------------------------
# Majority clusters against the per-start scan
# ---------------------------------------------------------------------------

def reference_majority_cluster(theta, lam, ell):
    """The per-window-start scan: one ``searchsorted`` per sorted residue."""
    th = np.asarray(theta, dtype=float)
    n = th.size
    wraps = np.floor(th / TWO_PI).astype(int)
    res = th - TWO_PI * wraps
    order = np.argsort(res, kind="stable")
    r_sorted = res[order]
    r_ext = np.concatenate([r_sorted, r_sorted + TWO_PI])

    best = None  # (count, arc, start_pos)
    for s in range(n):
        hi = np.searchsorted(r_ext, r_sorted[s] + ell, side="right")
        count = hi - s
        if count > n:
            count = n
            hi = s + n
        arc = r_ext[hi - 1] - r_sorted[s]
        if best is None or count > best[0] or (count == best[0] and arc < best[1]):
            best = (count, arc, s)
    count, arc, s = best
    if count < math.ceil(lam * n):
        return None
    members = []
    ks = []
    for k in range(count):
        pos = s + k
        idx = int(order[pos % n])
        bump = 1 if pos >= n else 0
        members.append(idx)
        ks.append(int(wraps[idx]) - bump)
    values, freqs = np.unique(ks, return_counts=True)
    mode = int(values[np.argmax(freqs)])
    ks = [k - mode for k in ks]
    pairs = sorted(zip(members, ks))
    indices = tuple(i for i, _ in pairs)
    translations = tuple(k for _, k in pairs)
    return ClusterReport(indices, translations, float(arc), float(count) / n)


def _cluster_fields(rep):
    if rep is None:
        return None
    return (rep.indices, rep.translations, rep.arc_diameter.hex(), rep.fraction.hex())


_SEAM = [0.0, 1e-12, -1e-12, TWO_PI - 1e-12, TWO_PI, -TWO_PI + 1e-9, 3 * TWO_PI + 1e-13]

_phase = st.one_of(
    st.floats(-40.0, 40.0, allow_nan=False),
    st.sampled_from(_SEAM),
    st.sampled_from([0.3, 0.3 + TWO_PI, 2.0, -1.0]),
)

_ell = st.one_of(
    st.floats(1e-6, TWO_PI, exclude_max=True),
    st.sampled_from([math.nextafter(TWO_PI, 0.0), TWO_PI - 1e-9, 1e-12]),
)


@given(
    theta=st.lists(_phase, min_size=1, max_size=30),
    lam=st.floats(1e-3, 1.0),
    ell=_ell,
)
def test_cluster_matches_per_start_scan(theta, lam, ell):
    theta = np.array(theta)
    expected = reference_majority_cluster(theta, lam, ell)
    assert _cluster_fields(find_majority_cluster(theta, lam, ell)) == _cluster_fields(expected)


def test_cluster_matches_per_start_scan_on_runs(rng):
    for n in (1, 2, 3, 20, 60):
        p = SystemParams(0.5, 1.0, rng.uniform(-0.3, 0.3, n))
        s = PhaseState(0.0, rng.uniform(0, TWO_PI, n), rng.uniform(-1, 1, n))
        rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=20.0, observer_stride=20))
        for theta in rec.theta:
            for lam, ell in ((0.6, 1.5), (0.9, 0.2), (1.0, TWO_PI - 1e-9)):
                got = find_majority_cluster(theta, lam, ell)
                assert _cluster_fields(got) == _cluster_fields(
                    reference_majority_cluster(theta, lam, ell)
                )


# ---------------------------------------------------------------------------
# Lock verdict against the all-pairs pass
# ---------------------------------------------------------------------------

def _reference_oscillation(theta, length):
    """Every window's largest pairwise phase-gap oscillation, from every pair
    gap of every snapshot held in one S x N(N-1)/2 array."""
    iu, jv = np.triu_indices(theta.shape[1], 1)
    if not iu.size:
        return np.zeros(theta.shape[0] - length + 1)
    gaps = theta[:, iu] - theta[:, jv]
    return (_rolling_max(gaps, length) + _rolling_max(-gaps, length)).max(axis=1)


def reference_detect_locking(params, record, tolerances=None, window=10.0):
    """The all-pairs lock verdict."""
    tol = tolerances or default_lock_tolerances(params.kappa)
    # Its own spacing check, independent of the rule it is checked against.
    steps = np.diff(record.t)
    assert np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12), "unequally spaced snapshots"
    length = int(round(window / steps[0])) + 1
    s = record.n_snapshots
    if length > s:
        raise ValueError("snapshots must cover at least one lock window")
    freq_dev = np.abs(record.omega - params.nu_c).max(axis=1)
    roll_freq = _rolling_max(freq_dev[:, None], length)[:, 0]
    osc = _reference_oscillation(record.theta, length)
    ok = (roll_freq < tol.eps_omega) & (osc < tol.eps_theta)
    locked = bool(ok[-1])
    t_lock = None
    if locked:
        trailing = np.logical_and.accumulate(ok[::-1])
        n_true = int(trailing.sum())
        t_lock = float(record.t[ok.size - n_true])
    return LockReport(
        locked=locked,
        t_lock=t_lock,
        omega_spread_final=float(roll_freq[-1]),
        relative_phase_drift_final=float(osc[-1]),
        eps_omega=tol.eps_omega,
        eps_theta=tol.eps_theta,
        window=window,
    )


def _drift_bound(theta, length):
    """The rounding bound detect_locking states for each window:
    8*spacing(max|theta| over the window)."""
    return 8.0 * np.spacing(_rolling_max(np.abs(theta).max(axis=1), length))


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def assert_lock_matches_reference(params, record, tolerances=None, window=10.0):
    """The lag pass against the all-pairs oracle: the frequency spread is
    bit-equal and the final drift within the stated rounding bound.  The
    verdict and t_lock are bit-equal unless some window's oscillation lies
    within that bound of eps_theta, where rounding may decide it."""
    got = detect_locking(params, record, tolerances, window)
    ref = reference_detect_locking(params, record, tolerances, window)
    length = int(round(window / (record.t[1] - record.t[0]))) + 1
    bound = _drift_bound(record.theta, length)
    drift_error = abs(got.relative_phase_drift_final - ref.relative_phase_drift_final)
    assert drift_error <= bound[-1], (drift_error, bound[-1])
    assert [_bits(v) for v in (got.omega_spread_final, got.eps_omega, got.eps_theta, got.window)] == [
        _bits(v) for v in (ref.omega_spread_final, ref.eps_omega, ref.eps_theta, ref.window)]
    if (got.locked, _bits(got.t_lock)) != (ref.locked, _bits(ref.t_lock)):
        osc = _reference_oscillation(record.theta, length)
        assert np.any(np.abs(osc - ref.eps_theta) <= bound), (got, ref)
    return got


def _existing_lock_cases():
    """The records of the four locking tests above, with their arguments."""
    cases = []
    n = 4
    p = SystemParams(1.0, 1.0, np.zeros(n))
    t = np.arange(0.0, 20.0 + 1e-9, 0.1)
    rec = TrajectoryRecord(t, np.tile(np.full(n, 0.2), (t.size, 1)), np.zeros((t.size, n)))
    cases.append((p, rec, None, 10.0))
    p = SystemParams(0.5, 0.4, np.array([1.0, 1.0, 2.0, 2.0]))
    s = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=40.0, observer_stride=10))
    cases.append((p, rec, None, 10.0))
    rng = np.random.default_rng(8)
    n = 10
    p = SystemParams(0.5, 1.0, rng.uniform(-0.05, 0.05, n))
    s = PhaseState(0.0, rng.uniform(-1.0, 1.0, n), rng.uniform(-0.2, 0.2, n))
    rec = record_trajectory(p, s, IntegratorConfig(dt=0.01, t_end=80.0, observer_stride=10))
    cases.append((p, rec, LockTolerances(1e-4, 1e-3), 10.0))
    return cases


def test_locking_matches_reference_on_existing_cases():
    verdicts = [assert_lock_matches_reference(*case).locked for case in _existing_lock_cases()]
    assert verdicts == [True, False, True]
    p = SystemParams(1.0, 1.0, [0.0, 0.0])
    t = np.arange(5) * 0.1
    rec = TrajectoryRecord(t, np.zeros((5, 2)), np.zeros((5, 2)))
    for fn in (detect_locking, reference_detect_locking):
        with pytest.raises(ValueError):
            fn(p, rec, window=10.0)


@functools.lru_cache(maxsize=None)
def _campaign_records():
    """Campaign-style records: the sampled instance integrated as a campaign
    run integrates it."""
    out = []
    for which in ("simple", "n3", "first_order"):
        cc = CampaignConfig(which, n=12, t_end=40.0, stride=50)
        for attempt in range(3):
            params, state0, _ = _campaign_instance(cc, attempt)
            # The step plan without the dense stride of the n3 collision scan.
            scenario = dataclasses.replace(_campaign_scenario(cc, params), collisions=False)
            cfg = _integrator_config(scenario, params)
            out.append((params, record_trajectory(params, state0, cfg)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _scenario_records():
    out = []
    for n in (1, 2, 3, 20, 60):
        for d_v in (0.2, 1.0):
            cfg = ScenarioConfig(n=n, d_v=d_v, seed=100 + n, t_end=40.0, stride=10)
            params, state0 = sample_instance(cfg)
            icfg = IntegratorConfig(dt=cfg.dt, t_end=cfg.t_end, observer_stride=cfg.stride)
            out.append((params, record_trajectory(params, state0, icfg)))
    return tuple(out)


_LOCK_ARGS = [(eps_theta, window) for eps_theta in (1e-3, 1e-9, 0.5) for window in (5.0, 10.0)]


def _check_records_against_reference(records):
    verdicts = []
    for params, rec in records:
        for eps_theta, window in _LOCK_ARGS:
            tol = LockTolerances(default_lock_tolerances(params.kappa).eps_omega, eps_theta)
            verdicts.append(assert_lock_matches_reference(params, rec, tol, window).locked)
    return verdicts


def test_locking_matches_reference_on_campaign_records():
    # Certified instances lock; eps_theta = 1e-9 moves t_lock late.
    assert all(_check_records_against_reference(_campaign_records()))


def test_locking_matches_reference_on_scenarios():
    verdicts = _check_records_against_reference(_scenario_records())
    assert any(verdicts) and not all(verdicts)


@given(
    n=st.integers(1, 9),
    s=st.integers(3, 40),
    scale=st.sampled_from([0.0, 1e-12, 1e-6, 1e-4, 1e-3, 1e-2]),
    offset=st.sampled_from([0.0, 1e3]),
    window_steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_locking_matches_reference_on_random_walks(n, s, scale, offset, window_steps, seed):
    # Phases and frequencies drifting by small random steps: windows mix
    # verdicts.  Near |theta| ~ 1e3 a phase ulp is 1.1e-13, so the two passes'
    # rounding shows in the drift, and at eps_theta = 1e-12 it can decide a
    # verdict.
    gen = np.random.default_rng(seed)
    t = np.arange(s) * 0.5
    steps = gen.normal(0.0, 1.0, (s, n)) * scale * gen.uniform(0.0, 2.0, (s, 1))
    theta = offset + gen.uniform(0, TWO_PI, n) + np.cumsum(steps, axis=0)
    omega = gen.normal(0.0, 1.0, (s, n)) * scale
    rec = TrajectoryRecord(t, theta, omega)
    params = SystemParams(1.0, 1.0, np.zeros(n))
    window = 0.5 * min(window_steps, s - 1)
    for eps_theta in (1e-12, 1e-4, 1e-3, 1e-2):
        assert_lock_matches_reference(params, rec, LockTolerances(1e-3, eps_theta), window)


def test_locking_matches_reference_on_locked_large_n():
    # Every window of this record locks.
    gen = np.random.default_rng(5)
    n, t = 200, np.arange(121) * 0.1
    theta = gen.uniform(0, TWO_PI, n) + 1e-7 * np.cumsum(gen.normal(0.0, 1.0, (t.size, n)), axis=0)
    omega = 1e-6 * gen.normal(0.0, 1.0, (t.size, n))
    rec = TrajectoryRecord(t, theta, omega)
    report = assert_lock_matches_reference(SystemParams(1.0, 1.0, np.zeros(n)), rec)
    assert report.locked and report.t_lock == 0.0


def _exact_final_drift(theta, length):
    """The last window's largest pairwise gap oscillation in exact arithmetic."""
    window = [[Fraction(v) for v in row] for row in theta[-length:].tolist()]
    n = len(window[0])
    best = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            gaps = [row[i] - row[j] for row in window]
            best = max(best, max(gaps) - min(gaps))
    return best


@given(
    n=st.integers(1, 6),
    s=st.integers(3, 12),
    scale=st.sampled_from([1e-13, 1e-9, 1e-3, 1.0]),
    offset=st.sampled_from([0.0, 1e3, -3e5]),
    window_steps=st.integers(1, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_lock_drift_within_rounding_bound_of_exact(n, s, scale, offset, window_steps, seed):
    # Either pass lies within 4*spacing(max|theta| over the window) of the
    # exact drift, so the two agree to the stated 8*spacing.
    gen = np.random.default_rng(seed)
    t = np.arange(s) * 0.5
    theta = offset + gen.uniform(0, TWO_PI, n) + scale * gen.normal(0.0, 1.0, (s, n))
    rec = TrajectoryRecord(t, theta, np.zeros((s, n)))
    params = SystemParams(1.0, 1.0, np.zeros(n))
    window = 0.5 * min(window_steps, s - 1)
    length = min(window_steps, s - 1) + 1
    exact = _exact_final_drift(theta, length)
    half_bound = Fraction(float(_drift_bound(theta, length)[-1] / 2))
    for fn in (detect_locking, reference_detect_locking):
        drift = fn(params, rec, window=window).relative_phase_drift_final
        assert abs(Fraction(drift) - exact) <= half_bound


def test_large_n_scenario_runs_in_bounded_memory():
    # The all-pairs gap array alone would take 201 x 499500 x 8 B = 803 MB.
    tracemalloc.start()
    try:
        record = run_scenario(ScenarioConfig(n=1000, d_v=0.5, t_end=20.0, stride=10, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.lock is not None
    assert peak < 100e6


def test_lock_pass_memory_is_linear_in_n():
    # S = 2001 snapshots of N = 1000 locked phases, window 10 at spacing 0.1
    # (L = 101).  The all-pairs gap array would take 2001 x 499500 x 8 B = 8 GB;
    # the lag pass holds the transposed phases and one lag's differences.
    gen = np.random.default_rng(7)
    s, n = 2001, 1000
    t = np.arange(s) * 0.1
    theta = gen.uniform(0, TWO_PI, n) + 1e-9 * gen.normal(0.0, 1.0, (s, n))
    rec = TrajectoryRecord(t, theta, np.zeros((s, n)))
    tracemalloc.start()
    try:
        report = detect_locking(SystemParams(1.0, 1.0, np.zeros(n)), rec, window=10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.locked and report.t_lock == 0.0
    assert peak <= 2.5 * theta.nbytes, peak

"""Certifier: dual-coded formula oracles, root machinery, framework and
selection checks, and symmetry invariance of verdicts."""

import math

import numpy as np
import pytest

from kuramoto_lock import (
    FreeParams,
    PhaseState,
    RootRangeError,
    SystemParams,
    check_first_order,
    check_framework,
    check_n3,
    check_partial_locking,
    check_simple,
    f_lambda,
    f_max,
    lemma_numeric_suite,
    phi_roots,
    sturm_picone_Tstar,
    theta_star,
    xi,
    xi_inf,
    zeta,
)
from kuramoto_lock.certify import (
    arrangement_budget,
    corollary_initial_budget,
    f_zero_upper,
    n3_threshold,
    select_ell,
    select_lambda,
)


def params_with(m=0.01, kappa=1.0, d_v=0.1, n=2):
    half = d_v / 2.0
    nu = np.linspace(-half, half, n) if n > 1 else np.array([0.0])
    return SystemParams(m, kappa, nu)


# ---------------------------------------------------------------------------
# zeta / xi
# ---------------------------------------------------------------------------

def zeta_oracle(m, kappa, d_v, d_om, eta):
    # Independent re-implementation, kept deliberately verbose.
    first = (m * (1 - math.exp(-eta)) / 2) * (d_om + d_v * eta)
    second = m * m * kappa * (1 - math.exp(-eta)) ** 3 * (
        (3.0 / 4.0) * d_om + (d_v + 2 * kappa) * eta
    )
    return first + second


def xi_oracle(m, kappa, d_v, d_om, eta):
    u = max(1.0, eta)
    return (
        (d_v + 2 * kappa) * m
        + d_om * m * u * math.exp(-u)
        + d_v / (2 * kappa)
        + (d_om / (2 * kappa)) * (math.exp(-eta) / (1 - math.exp(-eta)))
    )


def test_zeta_vanishes_with_inertia_and_eta():
    p0 = SystemParams(0.0, 1.0, [0.0, 0.5])
    assert zeta(p0, 0.7, 1.0) == 0.0
    p = params_with()
    assert zeta(p, 0.2, 1e-8) < 1e-8


def test_zeta_matches_oracle():
    p = params_with(m=0.01, kappa=1.0, d_v=0.1)
    got = zeta(p, 0.2, 1.0)
    want = zeta_oracle(0.01, 1.0, 0.1, 0.2, 1.0)
    assert abs(got - want) < 1e-14


def test_xi_trivial_and_hand_values():
    p0 = SystemParams(0.25, 1.0, [0.3, 0.3])  # d_v = 0
    assert abs(xi(p0, 0.0, 2.0) - 2 * 0.25 * 1.0) < 1e-15
    p = params_with(m=0.01, kappa=1.0, d_v=0.1)
    assert abs(xi_inf(p) - 0.071) < 1e-12
    got = xi(p, 0.2, 1.0)
    want = xi_oracle(0.01, 1.0, 0.1, 0.2, 1.0)
    assert abs(got - want) < 1e-14


def test_xi_monotone_decreasing_to_limit():
    p = params_with(m=0.02, kappa=1.3, d_v=0.3)
    etas = np.geomspace(0.05, 80.0, 60)
    vals = [xi(p, 0.4, float(e)) for e in etas]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - xi_inf(p)) < 1e-6


def test_xi_rejects_zero_coupling():
    p = SystemParams(0.1, 0.0, [0.0, 0.1])
    with pytest.raises(ValueError):
        xi(p, 0.1, 1.0)
    with pytest.raises(ValueError):
        xi_inf(p)


# ---------------------------------------------------------------------------
# Arc-stability function and roots
# ---------------------------------------------------------------------------

def test_f_lambda_zeros():
    for lam in (0.55, 0.7, 0.85, 1.0):
        assert f_lambda(lam, 0.0) == 0.0
        upper = f_zero_upper(lam)
        assert abs(f_lambda(lam, upper)) < 1e-12
        mids = np.linspace(1e-3, upper - 1e-3, 50)
        assert np.all(f_lambda(lam, mids) > 0.0)


def test_f_lambda_degenerate_single_cluster():
    assert abs(theta_star(1.0) - math.pi / 2) < 1e-12
    assert abs(f_max(1.0) - 1.0) < 1e-12
    grid = np.linspace(0.0, math.pi, 20)
    assert np.abs(f_lambda(1.0, grid) - np.sin(grid)).max() < 1e-15


def test_f_two_thirds_radical():
    # At lam = 2/3 the peak value has the closed radical form.
    lam = 2.0 / 3.0
    ell = 2.0 * math.acos((1.0 + math.sqrt(33.0)) / 8.0)
    assert abs(theta_star(lam) - ell) < 1e-12
    value = f_lambda(lam, ell)
    radical = 0.25 * math.sqrt((69.0 - 11.0 * math.sqrt(33.0)) / 6.0)
    assert abs(value - radical) < 1e-12
    assert abs(value - 0.246006) < 1e-6


def test_f_max_matches_radical_expression():
    for lam in np.linspace(0.51, 1.0, 30):
        lam = float(lam)
        s = math.sqrt(9 * lam * lam - 2 * lam + 1)
        radical = (
            (-3 * (1 - lam) + s)
            * math.sqrt(3 * lam * lam + 2 * lam - 1 - (1 - lam) * s)
            / (4 * math.sqrt(2) * lam)
        )
        assert abs(f_max(lam) - radical) < 1e-12


def test_phi_roots_continuity_to_zeros():
    lam = 0.8
    r1, r2 = phi_roots(lam, 1e-9)
    assert r1 < 1e-6
    assert abs(r2 - f_zero_upper(lam)) < 1e-6


def test_phi1_upper_estimate():
    for lam in np.linspace(0.55, 0.95, 9):
        for frac in np.linspace(0.05, 0.95, 9):
            delta = float(frac * f_max(float(lam)))
            r1, _ = phi_roots(float(lam), delta)
            assert r1 < 3 * math.pi * delta / (4 * (2 * lam - 1))


def test_half_zero_value_identity():
    # f at half the right zero equals the arrangement budget closed form.
    for lam in np.linspace(0.52, 1.0, 25):
        lam = float(lam)
        assert abs(f_lambda(lam, math.acos((1 - lam) / lam)) - arrangement_budget(lam)) < 1e-12


def test_phi_roots_error_above_max():
    with pytest.raises(RootRangeError):
        phi_roots(0.8, f_max(0.8) * 1.0001)
    with pytest.raises(RootRangeError):
        phi_roots(0.8, f_max(0.8))


# ---------------------------------------------------------------------------
# Framework
# ---------------------------------------------------------------------------

def test_framework_generous_all_pass():
    p = SystemParams(1e-6, 1.0, np.zeros(4))
    free = FreeParams(eta=1.0, delta=0.9, lam=0.8, ell=1.0)
    report = check_framework(p, 1.0, 0.0, free)
    assert report.passed
    assert all(c.satisfied for c in report.conditions)


def test_framework_bipolar_fails_first():
    p = SystemParams(0.01, 1.0, np.zeros(4))
    free = FreeParams(eta=1.0, delta=0.5, lam=0.8, ell=1.0)
    report = check_framework(p, 0.0, 0.1, free)
    assert not report.passed
    assert not report.condition("initial_order_parameter").satisfied


def test_framework_root_bracketing_when_drift_budget_holds(rng):
    # Whenever the drift-budget condition passes, the roots at level 2*xi
    # exist and bracket ell.
    for _ in range(40):
        lam = float(rng.uniform(0.55, 1.0))
        ell = float(rng.uniform(0.1, 0.95) * f_zero_upper(lam))
        p = params_with(
            m=float(rng.uniform(0.0, 0.05)),
            kappa=1.0,
            d_v=float(rng.uniform(0.0, 0.3)),
        )
        eta = float(rng.uniform(0.5, 5.0))
        d_om = float(rng.uniform(0.0, 0.3))
        free = FreeParams(eta=eta, delta=0.5, lam=lam, ell=ell)
        report = check_framework(p, 0.9, d_om, free)
        if report.condition("cluster_drift_budget").satisfied:
            x = xi(p, d_om, eta)
            r1, r2 = phi_roots(lam, 2 * x) if x > 0 else (0.0, f_zero_upper(lam))
            assert r1 < ell < r2


def simple_instance(x, y, z, r0=0.8, kappa=1.0):
    r0sq = r0 * r0
    params = SystemParams(y * r0sq / kappa, kappa, np.array([-0.5, 0.5]) * x * kappa * r0sq)
    return params, r0, z * kappa * r0sq


def test_check_simple_named_points():
    for x, y, z in [(0.5, 0.015, 0.12), (0.3, 0.05, 0.76)]:
        params, r0, d_om = simple_instance(x, y, z)
        report = check_simple(params, r0, d_om)
        assert report.passed, (x, y, z)
        assert report.condition("xyz_criterion").value < 1.0
        # Reduction invariant: the emitted free parameters pass the framework.
        fw = check_framework(params, r0, d_om, report.free_params)
        assert fw.passed


def test_check_simple_named_points_at_quoted_eta():
    # The named points satisfy the criterion already at their quoted layer
    # multipliers; the optimizer may do better.
    from kuramoto_lock.certify import _xyz_objective

    assert _xyz_objective(0.5, 0.015, 0.12, 1.0) < 1.0
    assert _xyz_objective(0.3, 0.05, 0.76, 3.0) < 1.0


def test_check_simple_failing_point():
    params, r0, d_om = simple_instance(2.0, 1.0, 1.0, r0=1.0)
    report = check_simple(params, r0, d_om)
    assert not report.passed
    cond = report.condition("xyz_criterion")
    assert not cond.satisfied
    assert cond.value == report.details["infimum"] > 1.0


def test_check_simple_zero_r0_reports_not_raises():
    params, _, d_om = simple_instance(0.5, 0.015, 0.12)
    report = check_simple(params, 0.0, d_om)
    assert not report.passed
    assert not report.condition("initial_order_parameter").satisfied


def test_check_simple_identical_everything_passes():
    params = SystemParams(0.0, 1.0, np.zeros(5))
    report = check_simple(params, 1.0, 0.0)
    assert report.passed


def test_verdict_invariance_under_symmetries(rng):
    params, r0, d_om = simple_instance(0.45, 0.012, 0.1, r0=0.7)
    base = check_simple(params, r0, d_om).passed
    # Dilation: kappa -> a*kappa, nu -> a*nu, m -> m/a, omega spread -> a*spread.
    for alpha in (0.5, 2.0, 3.7):
        scaled = SystemParams(params.m / alpha, alpha * params.kappa, alpha * params.nu)
        assert check_simple(scaled, r0, alpha * d_om).passed == base
    # Reflection flips nu; the diameters are unchanged.
    reflected = SystemParams(params.m, params.kappa, -params.nu)
    assert check_simple(reflected, r0, d_om).passed == base
    # Particle exchange permutes nu.
    perm = rng.permutation(params.n)
    exchanged = SystemParams(params.m, params.kappa, params.nu[perm])
    assert check_simple(exchanged, r0, d_om).passed == base
    # And the n3 verdict is likewise built from invariants.
    p3 = SystemParams(0.02, 1.0, np.array([-0.05, 0.0, 0.05]))
    v3 = check_n3(p3).passed
    for alpha in (0.5, 4.0):
        assert check_n3(SystemParams(p3.m / alpha, alpha, alpha * p3.nu)).passed == v3


# ---------------------------------------------------------------------------
# Partial locking
# ---------------------------------------------------------------------------

def test_partial_trivial_full_ensemble():
    n = 6
    p = SystemParams(0.0, 1.0, np.zeros(n))
    report = check_partial_locking(
        p, range(n), range(n), 0.0, 0.0, lam=0.8, ell=1.0, eta=1.0, t1=0.0
    )
    assert report.passed
    # All budgets collapse to 0 < f(ell)/2.
    assert report.condition("cluster_drift_budget").value == 0.0


def test_partial_predictions_payload():
    n = 10
    nu = np.concatenate([np.linspace(-0.03, 0.03, 7), [0.02, -0.02, 0.0]])
    p = SystemParams(0.01, 1.0, nu)
    report = check_partial_locking(
        p, range(7), range(n), 0.05, 0.08, lam=0.7, ell=1.0, eta=2.0, t1=0.02
    )
    assert report.passed
    preds = report.details["predictions"]
    assert preds["persistent_arc"] == 1.0
    assert 0.0 < preds["tail_diameter_bound"] < 1.0
    assert preds["arrangement_factor"] > 1.0
    assert preds["separation_lower_bound"] > 0.0


def test_partial_range_violations_raise():
    p = SystemParams(0.01, 1.0, np.zeros(4))
    with pytest.raises(ValueError):
        check_partial_locking(p, [0], [0, 1], 0.0, 0.0, 0.7, 1.0, 1.0, 1.0)  # |A| < lam*N
    with pytest.raises(ValueError):
        check_partial_locking(p, [0, 1, 2], [0, 1], 0.0, 0.0, 0.7, 1.0, 1.0, 1.0)  # A not in B
    with pytest.raises(ValueError):
        check_partial_locking(p, [0, 1, 2], range(4), 0.0, 0.0, 0.45, 1.0, 1.0, 1.0)  # lam
    with pytest.raises(ValueError):
        check_partial_locking(p, [0, 1, 2], range(4), 0.0, 0.0, 0.7, 9.0, 1.0, 1.0)  # ell
    with pytest.raises(ValueError):
        check_partial_locking(p, [0, 1, 2], range(4), 0.0, 0.0, 0.7, 1.0, 1.0, 0.0)  # t1<eta*m


@pytest.mark.parametrize("which", ["simple", "first_order", "framework"])
def test_every_r0_reader_keeps_r0_within_one(which):
    """Every certificate that reads R0 raises on R0 above 1 + 1e-12, takes
    R0 up to that bound, and fails R0 <= 0 as a condition, not an error."""
    params, _, d_om = simple_instance(0.45, 0.012, 0.1)
    free = FreeParams(eta=2.0, delta=0.5, lam=0.7, ell=1.0)
    check = {
        "simple": lambda r0: check_simple(params, r0, d_om),
        "first_order": lambda r0: check_first_order(params, r0),
        "framework": lambda r0: check_framework(params, r0, d_om, free),
    }[which]
    for r0 in (1.0 + 1e-11, 3.0, 100.0, math.inf):
        with pytest.raises(ValueError, match="^r0 cannot exceed 1$"):
            check(r0)
    assert check(1.0 + 1e-13).condition("initial_order_parameter").satisfied
    for r0 in (0.0, -0.5):
        report = check(r0)
        assert not report.passed and not report.condition("initial_order_parameter").satisfied


def test_partial_empty_subset_b_named():
    # An empty B must be named, not fail in numpy's reduction of it.
    p = SystemParams(0.01, 1.0, np.zeros(4))
    with pytest.raises(ValueError, match="^subset_b must be nonempty$"):
        check_partial_locking(p, [0, 1, 2], [], 0.0, 0.0, 0.7, 1.0, 1.0, 1.0)


def test_corollary_certificate_gates_on_initial_arc():
    from kuramoto_lock import check_partial_locking_initial

    n = 10
    nu = np.concatenate([np.linspace(-0.03, 0.03, 7), [0.02, -0.02, 0.0]])
    p = SystemParams(0.01, 1.0, nu)
    tight = np.concatenate([np.linspace(-0.1, 0.1, 7), [3.0, 3.1, 3.2]])
    report = check_partial_locking_initial(
        p, tight, range(7), range(n), 0.05, 0.08, lam=0.7, ell=1.0, eta=2.0
    )
    assert report.which == "corollary"
    assert report.passed
    assert report.condition("initial_cluster_arc").satisfied
    assert report.details["t1"] == 2.0 * 0.01
    # A wide initial arc fails the gate even when the budgets hold.
    wide = np.concatenate([np.linspace(-0.6, 0.6, 7), [3.0, 3.1, 3.2]])
    report = check_partial_locking_initial(
        p, wide, range(7), range(n), 0.05, 0.08, lam=0.7, ell=1.0, eta=2.0
    )
    assert not report.passed
    assert not report.condition("initial_cluster_arc").satisfied


def test_corollary_initial_budget_value():
    p = SystemParams(0.02, 1.0, np.array([-0.02, 0.0, 0.02, 0.5]))
    eta, ell = 2.0, 1.0
    budget = corollary_initial_budget(p, [0, 1, 2], 0.1, ell, eta)
    m = 0.02
    expected = (
        ell
        - m * (1 - math.exp(-eta)) * 0.1
        - (eta * m - m + m * math.exp(-eta)) * (0.04 + 2.0)
    )
    assert abs(budget - expected) < 1e-15
    assert budget > 0.9


# ---------------------------------------------------------------------------
# Small-system and first-order certificates
# ---------------------------------------------------------------------------

def test_n3_threshold_decimals():
    assert round(n3_threshold(), 6) == 0.123003


def test_n3_pass_and_fail_arithmetic():
    p_pass = SystemParams(0.01, 1.0, np.zeros(3))  # LHS = 0.02
    report = check_n3(p_pass)
    assert report.passed
    assert abs(report.conditions[0].value - 0.02) < 1e-15
    p_fail = SystemParams(0.1, 1.0, np.array([-0.025, 0.0, 0.025]))
    # LHS = 0.1*0.05 + 0.2 + 0.025 = 0.23
    report = check_n3(p_fail)
    assert not report.passed
    assert abs(report.conditions[0].value - 0.23) < 1e-15


def test_n3_value_is_xi_inf(rng):
    # The budget is m*D(nu) + 2*m*kappa + D(nu)/(2*kappa), the large-eta drift
    # budget, with the same operands in the same order: equal bit for bit.
    for _ in range(200):
        m, kappa = rng.uniform(0.0, 0.2), rng.uniform(0.05, 5.0)
        p = SystemParams(m, kappa, rng.uniform(-1.0, 1.0, 3) * rng.uniform(0.0, 0.5))
        value = check_n3(p).conditions[0].value
        dv = p.nu_diameter
        written = m * dv + 2.0 * m * kappa + dv / (2.0 * kappa)
        assert value.hex() == xi_inf(p).hex() == written.hex()


def test_n3_requires_three():
    with pytest.raises(ValueError):
        check_n3(SystemParams(0.01, 1.0, np.zeros(5)))


def test_first_order_threshold_examples():
    assert check_first_order(SystemParams(0.0, 0.5, np.zeros(4)), 0.3).passed
    p = SystemParams(0.0, 6.5, np.array([-0.5, 0.5]))
    assert check_first_order(p, 0.5).passed  # 6.5 * 0.25 = 1.625 > 1.6
    p = SystemParams(0.0, 6.0, np.array([-0.5, 0.5]))
    assert not check_first_order(p, 0.5).passed  # 1.5 < 1.6


# ---------------------------------------------------------------------------
# Positivity horizon
# ---------------------------------------------------------------------------

def test_tstar_nonoscillatory_branch():
    assert sturm_picone_Tstar(0.2, 1.0, 1.0) == math.inf  # 4ac = 0.8 <= 1
    assert sturm_picone_Tstar(0.25, 1.0, 1.0) == math.inf  # boundary 4ac = b^2


def test_tstar_closed_form():
    expected = math.pi / math.sqrt(3) + (2 / math.sqrt(3)) * (math.pi / 6)
    assert abs(sturm_picone_Tstar(1.0, 1.0, 1.0) - expected) < 1e-14
    assert abs(expected - 4 * math.pi / (3 * math.sqrt(3))) < 1e-14


def test_tstar_diverges_at_boundary():
    values = [sturm_picone_Tstar(1.0, 1.0, 0.25 + eps) for eps in (1e-2, 1e-4, 1e-6)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 1e2


def test_tstar_rejects_nonpositive():
    for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
        with pytest.raises(ValueError):
            sturm_picone_Tstar(*bad)


# ---------------------------------------------------------------------------
# Numeric lemma suite and selection
# ---------------------------------------------------------------------------

def test_lemma_numeric_suite():
    report = lemma_numeric_suite(500)
    assert report.all_ok
    assert report.stmt1_min_slack > 0
    assert report.stmt2_min_ratio >= 720.0 / 47.0**2 - 1e-12
    assert report.stmt3_min_ratio >= 0.7290
    assert report.breakpoint_lambda_gap <= 1e-12
    assert report.breakpoint_ell_gap <= 1e-12


def test_selection_breakpoint_continuity():
    lo, hi = select_lambda(0.94 - 1e-12), select_lambda(0.94 + 1e-12)
    assert abs(lo - hi) < 1e-9
    assert abs(select_ell(0.94 - 1e-12) - select_ell(0.94 + 1e-12)) < 1e-9


def test_certificate_quotients_read_their_limit():
    """A quotient whose denominator rounds to zero reads its limit, +inf over
    a positive numerator and 0 over zero, instead of ZeroDivisionError: R0^2
    underflows at R0 = 1e-200, 1 - exp(-eta) is 0 at eta = 1e-20, and
    1 - cos(ell/2) is 0 at ell = 1e-20."""
    from kuramoto_lock.certify import check_partial_locking_initial

    rep = check_simple(SystemParams(0.0096, 1.0, [-0.16, 0.16]), 1e-200, 0.0768)
    assert not rep.passed and rep.condition("xyz_criterion").value == math.inf
    p3 = SystemParams(0.001, 1.0, [-0.05, 0.0, 0.05])
    rep = check_framework(p3, 0.99, 0.04, FreeParams(eta=1e-20, delta=0.5, lam=0.7, ell=1.0))
    assert not rep.passed and rep.condition("cluster_drift_budget").value == math.inf
    rep = check_framework(p3, 0.99, 0.04, FreeParams(eta=2.0, delta=0.5, lam=0.7, ell=1e-20))
    assert not rep.passed
    assert rep.details["condensation_branches"]["deviation"]["value"] == math.inf
    p4 = SystemParams(0.01, 1.0, [0.0, 0.01, -0.01, 0.03])
    rest = (0.02, 0.05, 0.7, 1.0, 1e-20)
    for rep in (check_partial_locking(p4, [0, 1, 2], range(4), *rest, 0.05),
                check_partial_locking_initial(p4, [0.0, 0.05, -0.05, 3.0], [0, 1, 2], range(4),
                                              *rest)):
        assert not rep.passed and rep.condition("cluster_drift_budget").value == math.inf
    # Over a zero numerator the limit is 0: without an initial frequency
    # spread the layer term vanishes whatever eta.
    assert xi(p4, 0.0, 1e-20) == xi(p4, 0.0, 1.0)


def test_simple_criterion_reads_inf_over_a_zero_ratio():
    """With R0^2 underflowing, y = m*kappa/R0^2 is inf; without an initial
    frequency spread z is 0, and the objective's y*z would read NaN.  The
    criterion reads inf, as it does with a spread, at the same eta."""
    params = SystemParams(0.0096, 1.0, [-0.16, 0.16])
    for d_omega0 in (0.0, 0.0768):
        rep = check_simple(params, 1e-200, d_omega0)
        assert not rep.passed and rep.condition("xyz_criterion").value == math.inf
        assert rep.details["infimum"] == math.inf
        assert rep.details["eta"] == 0.001055875990178435

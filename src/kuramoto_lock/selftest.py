"""Embedded invariant suite behind the ``selftest`` subcommand.

Fast cross-checks of the identities, symmetry equivalences, and closed-form
oracles the package is built on.  Each check returns a row; the whole suite
runs in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .model import (
    PhaseState,
    SystemParams,
    centroid,
    coupling_direct,
    coupling_mean_field,
    dilate_transform,
    galilean_transform,
    mean_closed_form,
    nonsync_exact,
    order_parameter,
    rhs_first_order,
    rhs_inertial,
)
from .integrate import IntegratorConfig, record_trajectory
from .diagnostics import order_state, potential
from .certify import (
    f_lambda,
    f_max,
    lemma_numeric_suite,
    n3_threshold,
    phi_roots,
    sturm_picone_Tstar,
    theta_star,
    xi,
    xi_inf,
    zeta,
)

__all__ = ["SelfTestRow", "run_selftest"]


@dataclass(frozen=True)
class SelfTestRow:
    name: str
    ok: bool
    detail: str


def _row(name: str, ok: bool, detail: str) -> SelfTestRow:
    return SelfTestRow(name, bool(ok), detail)


def _random_instance(rng, n=12, m=0.8, kappa=1.3):
    params = SystemParams(m, kappa, rng.uniform(-0.4, 0.4, n))
    state = PhaseState(0.0, rng.uniform(0, 2 * np.pi, n), rng.uniform(-0.5, 0.5, n))
    return params, state


def run_selftest() -> list[SelfTestRow]:
    rng = np.random.default_rng(20240817)
    rows: list[SelfTestRow] = []

    params, state = _random_instance(rng)

    # Coupling antisymmetry: the pairwise sum cancels, so the mean follows
    # the damped-driven scalar dynamics exactly at the RHS level.
    _, domega = rhs_inertial(params, state)
    mean_resid = abs(params.m * domega.mean() + state.omega.mean() - params.nu_c)
    rows.append(_row("mean-acceleration identity", mean_resid < 1e-13, f"resid={mean_resid:.2e}"))

    gap = np.abs(
        coupling_direct(state.theta, params.kappa)
        - coupling_mean_field(state.theta, params.kappa)
    ).max()
    rows.append(_row("coupling forms agree", gap < 1e-12, f"gap={gap:.2e}"))

    order = order_state(state.theta)
    mf = params.nu - params.kappa * order.r * np.sin(state.theta - order.phi)
    gap = np.abs(rhs_first_order(params, state.theta) - mf).max()
    rows.append(_row("mean-field velocity identity", gap < 1e-12, f"gap={gap:.2e}"))

    th = state.theta
    r2_direct = np.cos(th[:, None] - th[None, :]).mean()
    rows.append(
        _row(
            "centroid amplitude identity",
            abs(order.r**2 - r2_direct) < 1e-12,
            f"gap={abs(order.r ** 2 - r2_direct):.2e}",
        )
    )
    sin_sum = abs(np.mean(np.sin(th - order.phi)))
    rows.append(_row("centroid phase balance", sin_sum < 1e-12, f"gap={sin_sum:.2e}"))

    # potential() uses the O(N) amplitude identity; check it against the
    # pairwise double sum.
    p_direct = -(params.nu * th).sum() + 0.5 * params.kappa * (
        1.0 - np.cos(th[:, None] - th[None, :])
    ).sum()
    p_closed = potential(params, th)
    rows.append(
        _row("potential identity", abs(p_direct - p_closed) < 1e-9, f"gap={abs(p_direct - p_closed):.2e}")
    )

    refl_params = SystemParams(params.m, params.kappa, -params.nu)
    refl_state = PhaseState(0.0, -state.theta, -state.omega)
    _, d2 = rhs_inertial(refl_params, refl_state)
    gap = np.abs(domega + d2).max()
    rows.append(_row("reflection symmetry", gap < 1e-13, f"gap={gap:.2e}"))

    perm = rng.permutation(params.n)
    perm_params = SystemParams(params.m, params.kappa, params.nu[perm])
    perm_state = PhaseState(0.0, state.theta[perm], state.omega[perm])
    _, d3 = rhs_inertial(perm_params, perm_state)
    gap = np.abs(domega[perm] - d3).max()
    rows.append(_row("exchange symmetry", gap < 1e-13, f"gap={gap:.2e}"))

    # Shift-then-solve equals solve-then-shift.
    small = IntegratorConfig(dt=0.01, t_end=5.0, observer_stride=100)
    p4, s4 = _random_instance(rng, n=4, m=1.0, kappa=0.8)
    shifts = (0.3, -0.7, 0.2)
    p4s, s4s = galilean_transform(p4, s4, *shifts)
    rec_orig = record_trajectory(p4, s4, small)
    rec_shift = record_trajectory(p4s, s4s, small)
    worst = 0.0
    for k in range(rec_orig.n_snapshots):
        _, transformed = galilean_transform(p4, rec_orig.state(k), *shifts)
        worst = max(worst, float(np.abs(transformed.theta - rec_shift.theta[k]).max()))
    rows.append(_row("frame-shift commutation", worst < 1e-8, f"gap={worst:.2e}"))

    pd, sd = dilate_transform(p4, s4, 2.0)
    rec_dil = record_trajectory(pd, sd, IntegratorConfig(dt=0.005, t_end=2.5, observer_stride=100))
    gap = float(np.abs(rec_dil.theta - rec_orig.theta).max())
    rows.append(_row("time-dilation equivalence", gap == 0.0 or gap < 1e-12, f"gap={gap:.2e}"))
    inv_gap = abs(pd.m * pd.kappa - p4.m * p4.kappa)
    rows.append(_row("dilation invariants", inv_gap < 1e-15, f"gap={inv_gap:.2e}"))

    # Exact zero-centroid family against the integrator.
    nsp = SystemParams(1.0, 0.4, np.array([1.0, 1.0, 2.0, 2.0]))
    nss = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
    exact = nonsync_exact(nsp, nss, [[0, 1], [2, 3]])
    rec = record_trajectory(nsp, nss, IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=10))
    sup = float(np.abs(rec.theta - exact.theta(rec.t)).max())
    r_max = float(order_parameter(centroid(rec.theta)).max())
    rows.append(_row("zero-centroid oracle", sup < 1e-6, f"sup={sup:.2e}"))
    rows.append(_row("zero-centroid amplitude", r_max < 1e-6, f"max R={r_max:.2e}"))

    mt = mean_closed_form(params, state)
    rec = record_trajectory(params, state, IntegratorConfig(dt=0.01, t_end=10.0, observer_stride=20))
    gap = float(np.abs(rec.theta.mean(axis=1) - mt.theta_c(rec.t)).max())
    rows.append(_row("mean closed form", gap < 1e-7, f"gap={gap:.2e}"))

    hand_params = SystemParams(0.01, 1.0, np.array([-0.05, 0.05]))
    xv = xi_inf(hand_params)
    rows.append(_row("drift budget limit", abs(xv - 0.071) < 1e-15, f"xi_inf={xv:.6f}"))
    zv = zeta(SystemParams(0.0, 1.0, np.array([0.0, 0.1])), 0.2, 1.0)
    rows.append(_row("layer budget vanishes with m", zv == 0.0, f"zeta={zv:.1e}"))
    xs = [xi(hand_params, 0.2, e) for e in (0.5, 1.0, 2.0, 5.0)]
    rows.append(_row("drift budget decreasing", all(a >= b for a, b in zip(xs, xs[1:])), "grid ok"))

    rows.append(
        _row(
            "arc function degenerate case",
            abs(f_lambda(1.0, math.pi / 2) - 1.0) < 1e-15
            and abs(theta_star(1.0) - math.pi / 2) < 1e-12
            and abs(f_max(1.0) - 1.0) < 1e-12,
            "lam=1",
        )
    )
    rows.append(
        _row(
            "three-oscillator threshold",
            abs(n3_threshold() - 0.123003) < 5e-7,
            f"value={n3_threshold():.6f}",
        )
    )
    ref = f_lambda(2.0 / 3.0, theta_star(2.0 / 3.0))
    radical = 0.25 * math.sqrt((69.0 - 11.0 * math.sqrt(33.0)) / 6.0)
    rows.append(_row("arc maximum radical", abs(ref - radical) < 1e-12, f"gap={abs(ref - radical):.2e}"))

    ok = True
    worst = 0.0
    for lam in (0.6, 0.75, 0.9, 1.0):
        for frac in (0.1, 0.5, 0.9):
            level = frac * f_max(lam)
            r1, r2 = phi_roots(lam, level)
            worst = max(worst, abs(f_lambda(lam, r1) - level), abs(f_lambda(lam, r2) - level))
            ok = ok and 0 < r1 < theta_star(lam) < r2
    rows.append(_row("arc-level roots", ok and worst < 1e-12, f"worst resid={worst:.2e}"))

    t_ref = math.pi / math.sqrt(3.0) + (2.0 / math.sqrt(3.0)) * (math.pi / 6.0)
    rows.append(
        _row(
            "positivity horizon closed form",
            abs(sturm_picone_Tstar(1.0, 1.0, 1.0) - t_ref) < 1e-14
            and sturm_picone_Tstar(1.0, 2.0, 1.0) == math.inf,
            "a=b=c=1",
        )
    )

    lem = lemma_numeric_suite(200)
    rows.append(_row("selection constants", lem.all_ok, f"min slack={lem.stmt2_min_slack:.2e}"))

    return rows

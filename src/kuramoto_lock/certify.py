"""Closed-form certificates for asymptotic and partial phase-locking.

Every check here is evaluated from system parameters and initial-data
diameters alone; simulation is never consulted.  The experiments module
cross-checks each certified prediction against integrated trajectories.

All radical constants are computed from their closed forms at full precision;
decimals appear only in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import SystemParams, _check_match, _indices, diameter
from .diagnostics import arrangement_constant

__all__ = [
    "RootRangeError",
    "FreeParams",
    "Condition",
    "CertificateReport",
    "zeta",
    "xi",
    "xi_inf",
    "f_lambda",
    "theta_star",
    "f_max",
    "f_zero_upper",
    "phi_roots",
    "select_lambda",
    "select_ell",
    "n3_threshold",
    "arrangement_budget",
    "check_framework",
    "check_simple",
    "check_partial_locking",
    "corollary_initial_budget",
    "check_partial_locking_initial",
    "check_n3",
    "check_first_order",
    "sturm_picone_Tstar",
    "lemma_numeric_suite",
    "LemmaNumericReport",
    "XYZ_COEFFICIENT",
]

# Coefficient under the square root of the simple-criterion objective.
XYZ_COEFFICIENT = 0.3259


class RootRangeError(ValueError):
    """The requested level sits at or above the maximum of the arc-stability
    function, so the two bracketing roots do not exist."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _ratio(num: float, den: float) -> float:
    """``num / den`` of a certificate quantity, whose numerator is >= 0; a
    denominator that rounds to zero gives the limit, +inf over a positive
    numerator and 0 over zero."""
    if den == 0.0:
        return math.inf if num > 0.0 else 0.0
    return num / den


# ---------------------------------------------------------------------------
# Dimensionless certificate quantities
# ---------------------------------------------------------------------------

def zeta(params: SystemParams, d_omega0: float, eta: float) -> float:
    """Order-parameter loss budget over the initial layer [0, eta*m].

    Vanishes with m and as eta -> 0.
    """
    _require(eta > 0.0, "eta must be positive")
    _require(d_omega0 >= 0.0, "d_omega0 must be >= 0")
    m, kappa, dv = params.m, params.kappa, params.nu_diameter
    e1 = 1.0 - math.exp(-eta)
    return (
        0.5 * m * e1 * (d_omega0 + dv * eta)
        + m * m * kappa * e1**3 * (0.75 * d_omega0 + (dv + 2.0 * kappa) * eta)
    )


def _xi_from_diameters(
    m: float, kappa: float, d_v: float, d_omega0: float, eta: Optional[float]
) -> float:
    """Drift budget from the diameters alone; ``eta=None`` gives the
    large-eta limit, in which ``d_omega0`` drops out."""
    if eta is None:
        return m * d_v + 2.0 * m * kappa + d_v / (2.0 * kappa)
    u = max(1.0, eta)
    return (
        (d_v + 2.0 * kappa) * m
        + d_omega0 * m * u * math.exp(-u)
        + d_v / (2.0 * kappa)
        + _ratio((d_omega0 / (2.0 * kappa)) * math.exp(-eta), 1.0 - math.exp(-eta))
    )


def xi(params: SystemParams, d_omega0: float, eta: float) -> float:
    """Anti-synchronization drift budget active after the initial layer.

    Decreasing in eta; diverges as eta -> 0 and tends to :func:`xi_inf` as
    eta -> infinity.  Requires kappa > 0.
    """
    _require(eta > 0.0, "eta must be positive")
    _require(d_omega0 >= 0.0, "d_omega0 must be >= 0")
    _require(params.kappa > 0.0, "xi requires kappa > 0")
    return _xi_from_diameters(params.m, params.kappa, params.nu_diameter, d_omega0, eta)


def xi_inf(params: SystemParams) -> float:
    """Large-eta limit of :func:`xi`: m*D(nu) + 2*m*kappa + D(nu)/(2*kappa)."""
    _require(params.kappa > 0.0, "xi_inf requires kappa > 0")
    return _xi_from_diameters(params.m, params.kappa, params.nu_diameter, 0.0, None)


# ---------------------------------------------------------------------------
# Arc-stability function and its roots
# ---------------------------------------------------------------------------

def _check_lambda(lam: float) -> None:
    _require(0.5 < lam <= 1.0, "lam must lie in (1/2, 1]")


def f_lambda(lam: float, theta) -> float:
    """Arc-stability margin lam*sin(theta) - 2*(1-lam)*sin(theta/2)."""
    _check_lambda(lam)
    th = np.asarray(theta, dtype=float)
    out = lam * np.sin(th) - 2.0 * (1.0 - lam) * np.sin(0.5 * th)
    return float(out) if out.ndim == 0 else out


def f_zero_upper(lam: float) -> float:
    """Right zero of the arc-stability function: 2*acos((1-lam)/lam)."""
    _check_lambda(lam)
    return 2.0 * math.acos((1.0 - lam) / lam)


def theta_star(lam: float) -> float:
    """Argmax of the arc-stability function on its positive hump:
    2*acos((1-lam+sqrt((1-lam)^2+8*lam^2))/(4*lam))."""
    _check_lambda(lam)
    s = 1.0 - lam
    return 2.0 * math.acos((s + math.sqrt(s * s + 8.0 * lam * lam)) / (4.0 * lam))


def f_max(lam: float) -> float:
    """Maximum of the arc-stability function, f_lambda(theta_star)."""
    return f_lambda(lam, theta_star(lam))


def phi_roots(lam: float, level: float) -> tuple[float, float]:
    """Two roots of f_lambda(theta) = level bracketing the stable arc sizes.

    Bisection on [0, theta_star] and [theta_star, right zero]; each returned
    root satisfies |f_lambda(root) - level| <= 1e-13 and the strict ordering
    0 < phi1 < theta_star < phi2 < right zero.

    Raises :class:`RootRangeError` when ``level >= f_max(lam)``.
    """
    _check_lambda(lam)
    _require(level > 0.0, "level must be positive")
    peak = theta_star(lam)
    top = f_max(lam)
    if level >= top:
        raise RootRangeError(
            f"level {level:.6g} is not below the maximum {top:.6g}; no roots"
        )
    upper = f_zero_upper(lam)

    def bisect(lo: float, hi: float, increasing: bool) -> float:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = f_lambda(lam, mid) - level
            if abs(fm) <= 1e-14 or (hi - lo) <= 1e-16 * max(1.0, hi):
                return mid
            below = fm < 0.0
            if below == increasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    phi1 = bisect(0.0, peak, increasing=True)
    phi2 = bisect(peak, upper, increasing=False)
    if not (0.0 < phi1 < peak < phi2 < upper):
        raise RuntimeError("root ordering violated; bisection failed")
    return phi1, phi2


# ---------------------------------------------------------------------------
# Derived constants
# ---------------------------------------------------------------------------

def n3_threshold() -> float:
    """Three-oscillator certificate threshold (1/8)*sqrt((69-11*sqrt(33))/6)."""
    return 0.125 * math.sqrt((69.0 - 11.0 * math.sqrt(33.0)) / 6.0)


def arrangement_budget(lam: float) -> float:
    """Arc-stability value at half the right zero,
    ((2*lam-1)^(3/2)/sqrt(2*lam)) * (2-lam)/(sqrt(lam/2)+(1-lam)); the strict
    budget under which a cluster arranges itself by natural frequency."""
    _check_lambda(lam)
    return ((2.0 * lam - 1.0) ** 1.5 / math.sqrt(2.0 * lam)) * (
        (2.0 - lam) / (math.sqrt(0.5 * lam) + (1.0 - lam))
    )


def select_lambda(delta_r0: float) -> float:
    """Cluster-fraction selection as a function of delta*R0 in (0, 1]."""
    _require(0.0 < delta_r0 <= 1.0, "delta_r0 must lie in (0, 1]")
    if delta_r0 <= 0.94:
        return 0.5 + (35.0 / 94.0) * delta_r0
    return 2.5 * delta_r0 - 1.5


def select_ell(delta_r0: float) -> float:
    """Arc-length selection as a function of delta*R0 in (0, 1]."""
    _require(0.0 < delta_r0 <= 1.0, "delta_r0 must lie in (0, 1]")
    if delta_r0 <= 0.94:
        return 2.0 * math.acos(1.0 - (20.0 / 47.0) * delta_r0)
    return 2.0 * math.acos(0.6)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeParams:
    """Free certificate parameters: initial-layer multiplier ``eta``,
    order-parameter retention ``delta``, cluster fraction ``lam``, and arc
    length ``ell`` (whose admissible range depends on ``lam``)."""

    eta: float
    delta: float
    lam: float
    ell: float

    def __post_init__(self):
        _require(self.eta > 0.0, "eta must be positive")
        _require(0.0 < self.delta < 1.0, "delta must lie in (0, 1)")
        _check_lambda(self.lam)
        _require(
            0.0 < self.ell < f_zero_upper(self.lam),
            "ell must lie in (0, 2*acos(1/lam - 1))",
        )


@dataclass(frozen=True)
class Condition:
    """One certificate inequality: ``margin`` is the signed slack (positive
    is good); ``strict`` records whether equality fails the condition."""

    name: str
    value: float
    bound: float
    margin: float
    strict: bool
    satisfied: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "bound": self.bound,
            "margin": self.margin,
            "strict": self.strict,
            "satisfied": self.satisfied,
        }


def _cond_le(name: str, value: float, bound: float, strict: bool) -> Condition:
    margin = bound - value
    sat = value < bound if strict else value <= bound
    return Condition(name, value, bound, margin, strict, sat)


def _cond_ge(name: str, value: float, bound: float, strict: bool) -> Condition:
    margin = value - bound
    sat = value > bound if strict else value >= bound
    return Condition(name, value, bound, margin, strict, sat)


def _initial_order(r0: float) -> Condition:
    """The condition R0 > 0 of every certificate that reads the initial
    order parameter, which cannot exceed 1: an R0 above 1 + 1e-12 is an
    error, while R0 <= 0 only fails the condition."""
    _require(not r0 > 1.0 + 1e-12, "r0 cannot exceed 1")
    return _cond_ge("initial_order_parameter", r0, 0.0, strict=True)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate check: per-condition values, bounds and
    margins, the selected free parameters when applicable, and extra details
    (chosen eta, predictions, ...)."""

    which: str
    passed: bool
    conditions: tuple[Condition, ...]
    free_params: Optional[FreeParams] = None
    details: dict = field(default_factory=dict)

    def condition(self, name: str) -> Condition:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        fp = None
        if self.free_params is not None:
            fp = {
                "eta": self.free_params.eta,
                "delta": self.free_params.delta,
                "lambda": self.free_params.lam,
                "ell": self.free_params.ell,
            }
        return {
            "which": self.which,
            "pass": self.passed,
            "conditions": [c.to_json_dict() for c in self.conditions],
            "free_params": fp,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# Framework check
# ---------------------------------------------------------------------------

def check_framework(
    params: SystemParams, r0: float, d_omega0: float, free: FreeParams
) -> CertificateReport:
    """Evaluate the four-part sufficient framework for the given instance and
    free parameters.  All four conditions passing certifies asymptotic
    phase-locking with a persistent majority cluster arranged by natural
    frequency."""
    _require(params.kappa > 0.0, "framework check requires kappa > 0")
    eta, delta, lam, ell = free.eta, free.delta, free.lam, free.ell
    z = zeta(params, d_omega0, eta)
    x = xi(params, d_omega0, eta)
    half = 0.5 * ell
    conds = [_initial_order(r0)]
    conds.append(
        _cond_le("initial_layer_retention", z, (1.0 - delta) * r0, strict=False)
    )
    # Condensation gate: either branch suffices.
    b1 = _cond_ge(
        "condensation_direct", delta * r0, lam + (1.0 - lam) * math.cos(half), strict=False
    )
    if r0 > 0.0:
        try:
            b2_value = 2.0 * lam + _ratio((x / (delta * r0)) ** 2, 1.0 - math.cos(half))
        except OverflowError:
            b2_value = math.inf
    else:
        b2_value = math.inf
    b2 = _cond_le("condensation_deviation", b2_value, 1.0 + delta * r0, strict=False)
    gate = Condition(
        "condensation_gate",
        value=max(b1.margin, b2.margin),
        bound=0.0,
        margin=max(b1.margin, b2.margin),
        strict=False,
        satisfied=b1.satisfied or b2.satisfied,
    )
    conds.append(gate)
    conds.append(
        _cond_le("cluster_drift_budget", x, math.sin(half) * (lam * math.cos(half) - (1.0 - lam)), strict=True)
    )
    lhs4 = params.nu_diameter / params.kappa + 4.0 * params.m * params.kappa + 2.0 * params.m * params.nu_diameter
    conds.append(_cond_le("arrangement_budget", lhs4, arrangement_budget(lam), strict=True))
    passed = all(c.satisfied for c in conds)
    return CertificateReport(
        which="framework",
        passed=passed,
        conditions=tuple(conds),
        free_params=free,
        details={
            "zeta": z,
            "xi": x,
            "condensation_branches": {
                "direct": b1.to_json_dict(),
                "deviation": b2.to_json_dict(),
            },
        },
    )


# ---------------------------------------------------------------------------
# Simple criterion with automatic free-parameter selection
# ---------------------------------------------------------------------------

def _zeta_tilde(x: float, y: float, z: float, eta: float) -> float:
    e1 = 1.0 - math.exp(-eta)
    return 0.5 * e1 * (y * z + eta * x * y) + e1**3 * y * y * (0.75 * z + eta * x + 2.0 * eta)


def _xi_tilde(x: float, y: float, z: float, eta: float) -> float:
    u = max(1.0, eta)
    return (
        y * (x + 2.0)
        + u * math.exp(-u) * y * z
        + 0.5 * x
        + 0.5 * z * math.exp(-eta) / (1.0 - math.exp(-eta))
    )


def _xyz_objective(x: float, y: float, z: float, eta: float) -> float:
    return _zeta_tilde(x, y, z, eta) + math.sqrt(_xi_tilde(x, y, z, eta) / XYZ_COEFFICIENT)


def _minimize_eta(x: float, y: float, z: float) -> tuple[float, float]:
    """Log grid over [1e-3, 50] (200 points) then golden-section refinement
    on the bracketing interval around the best grid point."""
    # Python floats: np.geomspace's power kernel rounds differently at
    # different x86-64 SIMD levels, and eta enters the run record.
    grid = [1e-3 * (50.0 / 1e-3) ** (k / 199) for k in range(200)]
    values = [_xyz_objective(x, y, z, e) for e in grid]
    k = int(np.argmin(values))
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    inv_gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_gr * (b - a)
    d = a + inv_gr * (b - a)
    fc = _xyz_objective(x, y, z, c)
    fd = _xyz_objective(x, y, z, d)
    for _ in range(120):
        if b - a <= 1e-12 * max(1.0, b):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_gr * (b - a)
            fc = _xyz_objective(x, y, z, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_gr * (b - a)
            fd = _xyz_objective(x, y, z, d)
    eta = 0.5 * (a + b)
    best = _xyz_objective(x, y, z, eta)
    if values[k] < best:
        eta, best = grid[k], values[k]
    return eta, best


def check_simple(params: SystemParams, r0: float, d_omega0: float) -> CertificateReport:
    """One-line sufficient certificate from the three dimensionless ratios.

    Computes x = D(nu)/(kappa*R0^2), y = m*kappa/R0^2, z = D(omega0)/(kappa*R0^2),
    minimizes the selection objective over the layer multiplier eta, and on
    success derives (eta, delta, lam, ell) and delegates to
    :func:`check_framework`.
    """
    _require(params.kappa > 0.0, "check_simple requires kappa > 0")
    _require(d_omega0 >= 0.0, "d_omega0 must be >= 0")

    def refused(conditions, details) -> CertificateReport:
        return CertificateReport("simple", False, conditions, details=details)

    r0_cond = _initial_order(r0)
    if not r0_cond.satisfied:
        return refused((r0_cond,), {"reason": "initial order parameter is not positive"})
    r0 = min(r0, 1.0)
    r0sq = r0 * r0
    x = _ratio(params.nu_diameter, params.kappa * r0sq)
    y = _ratio(params.m * params.kappa, r0sq)
    z = _ratio(d_omega0, params.kappa * r0sq)
    eta, infimum = _minimize_eta(x, y, z)
    crit = _cond_le("xyz_criterion", infimum, 1.0, strict=True)
    details = {
        "x": x,
        "y": y,
        "z": z,
        "eta": eta,
        "infimum": infimum,
        "coefficient": XYZ_COEFFICIENT,
    }
    if not crit.satisfied:
        return refused((r0_cond, crit), details)
    zt = _zeta_tilde(x, y, z, eta)
    xt = _xi_tilde(x, y, z, eta)
    delta_hi = 1.0 - zt
    delta_lo = math.sqrt(xt / XYZ_COEFFICIENT)
    # Largest feasible delta, backed off one notch so every margin stays
    # strictly positive in the degenerate all-zero case.
    delta = delta_hi * (1.0 - 1e-9)
    if delta < delta_lo:
        delta = 0.5 * (delta_lo + delta_hi)
    if not (0.0 < delta < 1.0):
        return refused((r0_cond, crit), {**details, "reason": "no admissible retention fraction"})
    dr0 = delta * r0
    lam = select_lambda(dr0)
    if not (0.5 < lam <= 1.0):
        return refused(
            (r0_cond, crit), {**details, "reason": "degenerate cluster-fraction selection"}
        )
    free = FreeParams(eta=eta, delta=delta, lam=lam, ell=select_ell(dr0))
    framework = check_framework(params, r0, d_omega0, free)
    details.update({"delta": delta, "delta_r0": dr0, "framework": framework.to_json_dict()})
    fw_conds = tuple(c for c in framework.conditions if c.name != "initial_order_parameter")
    return CertificateReport(
        which="simple",
        passed=crit.satisfied and framework.passed,
        conditions=(r0_cond, crit) + fw_conds,
        free_params=free,
        details=details,
    )


# ---------------------------------------------------------------------------
# Partial locking
# ---------------------------------------------------------------------------

def check_partial_locking(
    params: SystemParams,
    subset_a: Sequence[int],
    subset_b: Sequence[int],
    d_omega0_a: float,
    d_omega0_b: float,
    lam: float,
    ell: float,
    eta: float,
    t1: float,
) -> CertificateReport:
    """Certificate that a majority cluster, once confined to an arc of length
    ``ell`` at some time ``t1 >= eta*m``, persists and pins down the rest.

    ``subset_a`` is the prospective cluster (|A| >= lam*N), ``subset_b`` a
    superset whose members get confined by A; both are read as sets by the
    index rule :func:`model._indices`.  On pass, ``details``
    carries the checkable predictions: persistence of the arc bound from
    ``t1`` on, the tail diameter bound, the arrangement interval factor, and
    the separation gap for members of B that never join the maximal cluster.
    """
    _check_lambda(lam)
    _require(params.kappa > 0.0, "check_partial_locking requires kappa > 0")
    _require(0.0 < ell < f_zero_upper(lam), "ell outside the admissible arc range")
    _require(eta > 0.0, "eta must be positive")
    _require(t1 >= eta * params.m - 1e-12, "t1 must be >= eta*m")
    a = np.unique(_indices(subset_a, params.n, "subset_a"))
    b = np.unique(_indices(subset_b, params.n, "subset_b"))
    _require(np.isin(a, b).all(), "subset_a must be contained in subset_b")
    _require(a.size >= lam * params.n, "subset_a is smaller than lam*N")
    _require(d_omega0_a >= 0.0 and d_omega0_b >= 0.0, "frequency diameters must be >= 0")

    m, kappa = params.m, params.kappa
    dv_a = diameter(params.nu, a)
    dv_b = diameter(params.nu, b)
    half_f = 0.5 * f_lambda(lam, ell)
    xi_a = _xi_from_diameters(m, kappa, dv_a, d_omega0_a, eta)
    xi_b_inf = _xi_from_diameters(m, kappa, dv_b, d_omega0_b, None)
    arr_a = 2.0 * m * dv_a + 4.0 * m * kappa + dv_a / kappa
    arr_b = 2.0 * m * dv_b + 4.0 * m * kappa + dv_b / kappa

    conds = (
        _cond_le("cluster_drift_budget", xi_a, half_f, strict=True),
        _cond_le("ensemble_drift_budget", xi_b_inf, half_f, strict=True),
        _cond_le("arrangement_budget", arr_a, arrangement_budget(lam), strict=True),
    )
    passed = all(c.satisfied for c in conds)
    details: dict = {
        "xi_subset": xi_a,
        "xi_superset_limit": xi_b_inf,
        "t1": t1,
        "lambda": lam,
        "ell": ell,
    }
    if passed:
        phi1_a = phi_roots(lam, arr_a)[0] if arr_a > 0 else 0.0
        phi1_b, phi2_b = (phi_roots(lam, arr_b) if arr_b > 0 else (0.0, f_zero_upper(lam)))
        details["predictions"] = {
            "persistent_arc": ell,
            "from_time": t1,
            "tail_diameter_bound": phi1_a,
            "arrangement_factor": arrangement_constant(lam, phi1_a) if phi1_a > 0 else 1.0,
            "max_cluster_tail_bound": phi1_b,
            "separation_lower_bound": phi2_b - phi1_b,
        }
    return CertificateReport(
        which="partial",
        passed=passed,
        conditions=conds,
        free_params=None,
        details=details,
    )


def corollary_initial_budget(
    params: SystemParams,
    subset_a: Sequence[int],
    d_omega0_a: float,
    ell: float,
    eta: float,
) -> float:
    """Largest admissible initial arc for the cluster so that, after the
    initial layer, it still fits in an arc of length ``ell`` (the finite
    propagation speed eats the difference); with this gate, t1 = eta*m."""
    _require(eta > 0.0, "eta must be positive")
    dv_a = diameter(params.nu, _indices(subset_a, params.n, "subset_a"))
    m = params.m
    e = math.exp(-eta)
    return ell - m * (1.0 - e) * d_omega0_a - (eta * m - m + m * e) * (dv_a + 2.0 * params.kappa)


def check_partial_locking_initial(
    params: SystemParams,
    theta0,
    subset_a: Sequence[int],
    subset_b: Sequence[int],
    d_omega0_a: float,
    d_omega0_b: float,
    lam: float,
    ell: float,
    eta: float,
) -> CertificateReport:
    """Partial-locking certificate gated on the *initial* cluster arc.

    Requires, beyond :func:`check_partial_locking`, that the cluster's initial
    arc fits the :func:`corollary_initial_budget`; the conclusions then hold
    from t1 = eta*m on.
    """
    th = np.asarray(theta0, dtype=float)
    _check_match(params, th.size, "theta0")
    subset_a = _indices(subset_a, params.n, "subset_a")
    t1 = eta * params.m
    partial = check_partial_locking(
        params, subset_a, subset_b, d_omega0_a, d_omega0_b, lam, ell, eta, t1
    )
    budget = corollary_initial_budget(params, subset_a, d_omega0_a, ell, eta)
    arc0 = diameter(th, subset_a)
    gate = _cond_le("initial_cluster_arc", arc0, budget, strict=False)
    return CertificateReport(
        which="corollary",
        passed=partial.passed and gate.satisfied,
        conditions=(gate,) + partial.conditions,
        free_params=None,
        details={**partial.details, "initial_arc_budget": budget, "t1": t1},
    )


# ---------------------------------------------------------------------------
# Small-system and first-order certificates
# ---------------------------------------------------------------------------

def check_n3(params: SystemParams) -> CertificateReport:
    """Three-oscillator certificate: phase-locking for every initial state."""
    if params.n != 3:
        raise ValueError("check_n3 requires exactly three oscillators")
    _require(params.kappa > 0.0, "check_n3 requires kappa > 0")
    threshold = n3_threshold()
    cond = _cond_le("inertia_frequency_budget", xi_inf(params), threshold, strict=True)
    return CertificateReport(
        which="n3",
        passed=cond.satisfied,
        conditions=(cond,),
        details={"threshold": threshold, "m_kappa": params.m * params.kappa},
    )


def check_first_order(params: SystemParams, r0: float) -> CertificateReport:
    """Zero-inertia certificate: kappa * R0^2 > 1.6 * D(nu), strictly."""
    r0_cond = _initial_order(r0)
    cond = _cond_ge(
        "coupling_margin", params.kappa * r0 * r0, 1.6 * params.nu_diameter, strict=True
    )
    return CertificateReport(
        which="first_order",
        passed=r0_cond.satisfied and cond.satisfied,
        conditions=(r0_cond, cond),
        details={"kappa_r0_sq": params.kappa * r0 * r0, "nu_diameter": params.nu_diameter},
    )


def sturm_picone_Tstar(a: float, b: float, c: float) -> float:
    """Positivity horizon of the damped linear oscillator a*y'' + b*y' + c*y.

    Infinite when 4*a*c <= b^2 (no oscillation); otherwise
    pi*a/sqrt(4ac-b^2) + (2a/sqrt(4ac-b^2)) * asin(b/(2*sqrt(ac))).
    """
    _require(a > 0.0 and b > 0.0 and c > 0.0, "a, b, c must all be positive")
    disc = 4.0 * a * c - b * b
    if disc <= 0.0:
        return math.inf
    root = math.sqrt(disc)
    return math.pi * a / root + (2.0 * a / root) * math.asin(b / (2.0 * math.sqrt(a * c)))


# ---------------------------------------------------------------------------
# Numeric lemma suite for the selection constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaNumericReport:
    """Grid verification of the three inequality families behind the
    free-parameter selection, plus breakpoint continuity at delta*R0 = 0.94."""

    grid_size: int
    stmt1_min_slack: float
    stmt1_equality_error: float
    stmt2_min_slack: float
    stmt2_min_ratio: float
    stmt3_min_slack: float
    stmt3_min_ratio: float
    breakpoint_lambda_gap: float
    breakpoint_ell_gap: float
    breakpoint_gate_gap: float
    all_ok: bool


def lemma_numeric_suite(grid_size: int = 1000) -> LemmaNumericReport:
    """Check the selection inequalities on a dense delta*R0 grid over (0, 1]."""
    ds = np.linspace(1.0 / grid_size, 1.0, grid_size)
    slack1 = math.inf
    eq1 = 0.0
    slack2 = math.inf
    ratio2 = math.inf
    slack3 = math.inf
    ratio3 = math.inf
    for d in ds:
        d = float(d)
        lam = select_lambda(d)
        ell = select_ell(d)
        half = 0.5 * ell
        gate = lam + (1.0 - lam) * math.cos(half)
        if d <= 0.94:
            lhs1 = d * math.sqrt(1.0 - math.cos(half)) * math.sqrt(1.0 + d - 2.0 * lam)
            slack1 = min(slack1, lhs1 - 0.3296 * d * d)
        else:
            eq1 = max(eq1, abs(d - gate))
        lhs2 = math.sin(half) * (lam * math.cos(half) - (1.0 - lam))
        slack2 = min(slack2, lhs2 - XYZ_COEFFICIENT * d * d)
        ratio2 = min(ratio2, lhs2 / (d * d))
        lhs3 = arrangement_budget(lam)
        slack3 = min(slack3, lhs3 - 0.729 * d * d)
        ratio3 = min(ratio3, lhs3 / (d * d))
    bp = 0.94
    lam_lo, lam_hi = select_lambda(bp), 2.5 * bp - 1.5
    ell_lo, ell_hi = select_ell(bp), 2.0 * math.acos(0.6)
    lam_gap = abs(lam_lo - lam_hi)
    ell_gap = abs(ell_lo - ell_hi)
    gate_lo = lam_lo + (1.0 - lam_lo) * math.cos(0.5 * ell_lo)
    gate_hi = lam_hi + (1.0 - lam_hi) * math.cos(0.5 * ell_hi)
    gate_gap = abs(gate_lo - gate_hi)
    all_ok = (
        slack1 > 0.0
        and eq1 <= 1e-12
        and slack2 > 0.0
        and slack3 > 0.0
        and lam_gap <= 1e-12
        and ell_gap <= 1e-12
        and gate_gap <= 1e-12
    )
    return LemmaNumericReport(
        grid_size=grid_size,
        stmt1_min_slack=slack1,
        stmt1_equality_error=eq1,
        stmt2_min_slack=slack2,
        stmt2_min_ratio=ratio2,
        stmt3_min_slack=slack3,
        stmt3_min_ratio=ratio3,
        breakpoint_lambda_gap=lam_gap,
        breakpoint_ell_gap=ell_gap,
        breakpoint_gate_gap=gate_gap,
        all_ok=all_ok,
    )

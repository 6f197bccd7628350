"""Scalar functionals and structural reports over phase configurations and
trajectory snapshots: order parameters, diameters, the interaction potential,
the energy balance, modular clusters, linear arrangement, and numeric
phase-locking detection.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    TWO_PI, PhaseState, SystemParams, _check_match, _indices, _integer, centroid, centroid_phase,
    diameter, order_parameter,
)
from .integrate import TrajectoryRecord, _snapshot_grid

__all__ = [
    "R_PHASE_THRESHOLD",
    "OrderState",
    "ClusterReport",
    "LockTolerances",
    "LockReport",
    "EnergyBalance",
    "PairGap",
    "ArrangementReport",
    "order_state",
    "diameters",
    "potential",
    "energy_value",
    "energy_dissipation_residual",
    "find_majority_cluster",
    "arrangement_check",
    "arrangement_constant",
    "default_lock_tolerances",
    "detect_locking",
]

# Below this amplitude the centroid phase is treated as undefined.
R_PHASE_THRESHOLD = 1e-12
_FALLBACK_GRID = 64


@dataclass(frozen=True)
class OrderState:
    """Amplitude order parameter ``r``, centroid phase ``phi`` (``None`` when
    the centroid is too small to define one), and mean-square deviation
    ``delta``: about ``phi``, or, when ``phi`` is ``None``, the least over a
    grid of phases, for reporting only."""

    r: float
    phi: Optional[float]
    delta: float


def order_state(theta) -> OrderState:
    """Polar decomposition of the phase centroid (:func:`model.centroid`)
    plus the mean-square deviation (1/N) sum sin^2(theta_k - phi)."""
    th = np.asarray(theta, dtype=float)
    cs = centroid(th)
    r = float(order_parameter(cs))
    if r < R_PHASE_THRESHOLD:
        # No usable centroid direction: report the best grid phase instead.
        grid = np.linspace(0.0, TWO_PI, _FALLBACK_GRID, endpoint=False)
        deltas = np.mean(np.sin(th[None, :] - grid[:, None]) ** 2, axis=1)
        return OrderState(r, None, float(deltas.min()))
    phi = centroid_phase(*cs.tolist())
    delta = float(np.mean(np.sin(th - phi) ** 2))
    return OrderState(r, phi, delta)


def diameters(state: PhaseState, subset=None) -> tuple[float, float]:
    """Phase and frequency diameters, optionally over a subset of indices."""
    subset = None if subset is None else _indices(subset, state.n, "subset")
    return diameter(state.theta, subset), diameter(state.omega, subset)


def potential(params: SystemParams, theta):
    """Interaction potential
    ``-sum_k nu_k theta_k + (kappa/2) sum_kl (1 - cos(theta_k - theta_l))``
    of one configuration ``(N,)`` (a float) or of every row of ``(..., N)``.

    The pair sum is N^2 - |sum_k exp(i theta_k)|^2, evaluated in O(N) without
    cancellation: with d_k = theta_k - theta_0, C = sum_k cos d_k and
    S = sum_k sin d_k it is (N - C)(N + C) - S^2, where N - C is summed as
    sum_k 2 sin^2(d_k / 2) and N + C = 2N - (N - C).  Equal phases give
    exactly 0.
    """
    th = np.asarray(theta, dtype=float)
    n = th.shape[-1]
    _check_match(params, n, "theta")
    d = th - th[..., :1]
    half = np.sin(0.5 * d)
    n_minus_c = 2.0 * (half * half).sum(axis=-1)
    s = np.sin(d).sum(axis=-1)
    pair = n_minus_c * (2.0 * n - n_minus_c) - s * s
    value = -(params.nu * th).sum(axis=-1) + 0.5 * params.kappa * pair
    return float(value) if value.ndim == 0 else value


def energy_value(params: SystemParams, theta, omega):
    """Energy functional kappa*(1-R^2)/2 + (m/2)*Var(omega) of one state
    ``(N,)`` (a float) or of every row of ``(..., N)``, with R the
    :func:`model.order_parameter`.

    Along solutions with identical natural frequencies its time derivative is
    exactly -Var(omega), so it is nonincreasing.
    """
    th = np.asarray(theta, dtype=float)
    om = np.asarray(omega, dtype=float)
    _check_match(params, th.shape[-1], "theta")
    _check_match(params, om.shape[-1], "omega")
    r = order_parameter(centroid(th))
    var = np.mean((om - om.mean(axis=-1, keepdims=True)) ** 2, axis=-1)
    value = 0.5 * params.kappa * (1.0 - r * r) + 0.5 * params.m * var
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class EnergyBalance:
    """Energy series plus the centered-difference residual of the dissipation
    identity, d/dt[energy] + Var(omega), on interior snapshots."""

    times: np.ndarray
    energy: np.ndarray
    t_interior: np.ndarray
    residual: np.ndarray


def energy_dissipation_residual(
    params: SystemParams, record: TrajectoryRecord
) -> EnergyBalance:
    """Residual of the exact energy-dissipation identity along a run.

    Requires identical natural frequencies (to 1e-12) and at least three
    equally spaced snapshots, which it reads alone: a shorter final step is
    left out (see :func:`integrate._snapshot_grid`).  The residual is
    O(spacing^2) plus integrator error.
    """
    _check_match(params, record.n, "record")
    if params.nu_diameter > 1e-12:
        raise ValueError("energy dissipation requires identical natural frequencies")
    s, h = _snapshot_grid(record.t)
    if s < 3:
        raise ValueError("need at least three equally spaced snapshots")
    t, omega = record.t[:s], record.omega[:s]
    energy = energy_value(params, record.theta[:s], omega)
    var = np.mean((omega - omega.mean(axis=1, keepdims=True)) ** 2, axis=1)
    dedt = (energy[2:] - energy[:-2]) / (2.0 * h)
    residual = dedt + var[1:-1]
    return EnergyBalance(t.copy(), energy, t[1:-1].copy(), residual)


@dataclass(frozen=True)
class ClusterReport:
    """A set of oscillators confined, modulo 2*pi, to a common arc.

    ``translations`` holds the integer k_i with theta_i - 2*pi*k_i inside the
    arc; ``arc_diameter`` is the diameter of the translated subvector.
    """

    indices: tuple[int, ...]
    translations: tuple[int, ...]
    arc_diameter: float
    fraction: float

    def translated(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        idx, shift = _members(self, th.size)
        return th[idx] - shift


def _members(cluster: ClusterReport, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The member indices of ``cluster`` (:func:`model._indices`) and their
    shifts 2*pi*k_i, from exactly one integer translation k_i per index, each
    with a finite shift."""
    idx = _indices(cluster.indices, n, "cluster indices")
    given = cluster.translations
    try:
        ks = None if isinstance(given, (str, bytes, dict)) else list(given)
        shifts = [TWO_PI * float(k) for k in ks if _integer(k)]
    except (TypeError, OverflowError):  # not iterable, or an integer too large for a float
        ks = shifts = []
    if len(ks) != idx.size or len(shifts) != idx.size or not all(map(math.isfinite, shifts)):
        raise ValueError(f"translations must be one integer per index, got {given!r}")
    return idx, np.array(shifts)


def find_majority_cluster(theta, lam: float, ell: float) -> Optional[ClusterReport]:
    """Largest set of oscillators within a circular arc of length ``ell``.

    Phases are reduced mod 2*pi, residues sorted, and a circular window of
    width ``ell`` slides over them.  Returns the best window's set (largest
    cardinality, ties by smaller arc diameter then earliest window) when it
    reaches ceil(lam*N) members, else ``None``.
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must lie in (0, 1]")
    if not (0.0 < ell < TWO_PI):
        raise ValueError("ell must lie in (0, 2*pi)")
    th = np.asarray(theta, dtype=float)
    n = th.size
    wraps = np.floor(th / TWO_PI).astype(int)
    res = th - TWO_PI * wraps
    order = np.argsort(res, kind="stable")
    r_sorted = res[order]
    r_ext = np.concatenate([r_sorted, r_sorted + TWO_PI])

    # Every window start at once: the window from sorted position s holds
    # positions s .. hi-1, at most n of them.
    starts = np.arange(n)
    hi = np.minimum(np.searchsorted(r_ext, r_sorted + ell, side="right"), starts + n)
    counts = hi - starts
    arcs = r_ext[hi - 1] - r_sorted
    best = counts == counts.max()
    best &= arcs == arcs[best].min()
    s = int(np.argmax(best))
    count = int(counts[s])
    if count < math.ceil(lam * n):
        return None
    # Members past the 2*pi seam (sorted position wrapped around) translate up.
    pos = s + np.arange(count)
    members = order[pos % n]
    ks = wraps[members] - (pos >= n)
    # Translation vectors are unique up to a common shift; normalize so the
    # most common translation is zero (ties toward the smaller value).
    values, freqs = np.unique(ks, return_counts=True)
    ks = ks - values[np.argmax(freqs)]
    by_index = np.argsort(members)
    return ClusterReport(
        tuple(members[by_index].tolist()),
        tuple(ks[by_index].tolist()),
        float(arcs[s]),
        count / n,
    )


def arrangement_constant(lam: float, phi1: float) -> float:
    """Upper-bound factor phi1 / (2 sin(phi1/2) (lam cos(phi1) - (1-lam)))
    for tail phase gaps relative to (nu_i - nu_j)/kappa."""
    denom = 2.0 * math.sin(0.5 * phi1) * (lam * math.cos(phi1) - (1.0 - lam))
    if denom <= 0.0:
        raise ValueError("arrangement constant undefined: lam*cos(phi1) <= 1-lam")
    return phi1 / denom


@dataclass(frozen=True)
class PairGap:
    i: int
    j: int
    gap: float
    lower: float
    upper: float


@dataclass(frozen=True)
class ArrangementReport:
    """Tail-averaged pairwise gaps of a cluster against the linear-arrangement
    interval [ (nu_i-nu_j)/kappa, c*(nu_i-nu_j)/kappa ].  Slacks are signed;
    negative means a violation at zero tolerance."""

    c: float
    pairs: tuple[PairGap, ...]
    worst_lower_slack: float
    worst_upper_slack: float

    def ok(self, tol: float) -> bool:
        return self.worst_lower_slack >= -tol and self.worst_upper_slack >= -tol


def arrangement_check(
    record_tail: TrajectoryRecord,
    params: SystemParams,
    cluster: ClusterReport,
    phi1: float,
    lam: float,
) -> ArrangementReport:
    """Check that cluster members order themselves by natural frequency.

    For every member pair with nu_i >= nu_j the tail-averaged translated gap
    theta_i - theta_j is compared against the lower bound (nu_i - nu_j)/kappa
    and the upper bound c*(nu_i - nu_j)/kappa.
    """
    _check_match(params, record_tail.n, "record_tail")
    c = arrangement_constant(lam, phi1)
    idx, shift = _members(cluster, params.n)
    shifted = record_tail.theta[:, idx] - shift[None, :]
    mean_theta = shifted.mean(axis=0)
    nu = params.nu[idx]
    pairs = []
    worst_lo = math.inf
    worst_hi = math.inf
    for a in range(idx.size):
        for b in range(a + 1, idx.size):
            hi_, lo_ = (a, b) if nu[a] >= nu[b] else (b, a)
            gap = float(mean_theta[hi_] - mean_theta[lo_])
            lower = (nu[hi_] - nu[lo_]) / params.kappa
            upper = c * lower
            pairs.append(PairGap(int(idx[hi_]), int(idx[lo_]), gap, lower, upper))
            worst_lo = min(worst_lo, gap - lower)
            worst_hi = min(worst_hi, upper - gap)
    return ArrangementReport(c, tuple(pairs), worst_lo, worst_hi)


@dataclass(frozen=True)
class LockTolerances:
    eps_omega: float
    eps_theta: float


def default_lock_tolerances(kappa: float) -> LockTolerances:
    return LockTolerances(1e-4 * max(1.0, kappa), 1e-3)


@dataclass(frozen=True)
class LockReport:
    """Numeric phase-locking verdict over the trailing window.

    ``locked`` holds iff, over the trailing window, max_i |omega_i - nu_c|
    stays below eps_omega and the oscillation of every pairwise phase gap
    stays below eps_theta.  ``t_lock`` is the earliest window start after
    which the criterion never fails.
    """

    locked: bool
    t_lock: Optional[float]
    omega_spread_final: float
    relative_phase_drift_final: float
    eps_omega: float
    eps_theta: float
    window: float


def _lock_window(t: np.ndarray, window: float) -> Optional[tuple[int, int]]:
    """Which snapshots at times ``t`` a lock window of duration ``window``
    reads: ``(s, length)``, where the first ``s`` snapshots are the equally
    spaced ones of :func:`integrate._snapshot_grid`, at h, and a window holds
    ``length = round(window / h) + 1`` of them, or ``None`` when no window
    fits (``length > s``) or a window holds fewer than two snapshots
    (``length < 2``), whose phases cannot drift.  The last window reads
    snapshots ``s - length`` to ``s - 1``.
    """
    s, h = _snapshot_grid(t)
    length = int(round(window / h)) + 1
    return (s, length) if 2 <= length <= s else None


def detect_locking(
    params: SystemParams,
    record: TrajectoryRecord,
    tolerances: Optional[LockTolerances] = None,
    window: float = 10.0,
) -> LockReport:
    """Numeric surrogate for asymptotic phase-locking on a snapshot record.

    The window reads the equally spaced snapshots (a shorter final step is
    left out) and holds L >= 2 of them; ``ValueError`` when they hold no
    window or the window holds fewer than two snapshots.

    A window's largest pairwise phase-gap oscillation,
    max_ij (max_t - min_s)(theta_i - theta_j), equals the largest phase
    diameter of theta(t) - theta(s) over its snapshot pairs (t, s).  One pass
    over the lags 1 .. L-1 takes the diameters of theta(t + lag) - theta(t)
    and folds them, with the frequency deviations, into every window:
    O(S*L*N) time and O(S*N) memory for S snapshots, with no pair gap ever
    formed.

    The all-pairs pass rounds differently: both evaluate each (pair, t, s)
    term as the rounded difference of two rounded differences of phases
    bounded by M = max|theta| over the window, so each lies within
    4*spacing(M) of the exact value, and the two passes' window oscillations
    (``relative_phase_drift_final`` among them) agree to 8*spacing(M).
    """
    _check_match(params, record.n, "record")
    tol = tolerances or default_lock_tolerances(params.kappa)
    fit = _lock_window(record.t, window)
    if fit is None:
        raise ValueError("snapshots must cover one lock window of at least two snapshots")
    s, length = fit
    freq = np.abs(record.omega[:s] - params.nu_c).max(axis=1)
    # Oscillators along axis 0: a row diameter is then elementwise maxima and
    # minima over N vectors of snapshots, fast also for small N.  Every lag's
    # differences share one buffer.
    n = record.n
    theta = np.ascontiguousarray(record.theta[:s].T)
    buf = np.empty(n * s)
    # After lag k, freq[w] is the largest deviation in w .. w+k and osc[w] the
    # largest diameter over the snapshot pairs in w .. w+k: the pairs in
    # w .. w+k-1, in w+1 .. w+k, and (w, w+k).
    osc = np.zeros(s)
    for lag in range(1, length):
        freq = np.maximum(freq[:-1], freq[1:])
        d = buf[: n * (s - lag)].reshape(n, s - lag)
        np.subtract(theta[:, lag:], theta[:, :-lag], out=d)
        osc = np.maximum(np.maximum(osc[:-1], osc[1:]), d.max(axis=0) - d.min(axis=0))
    ok = (freq < tol.eps_omega) & (osc < tol.eps_theta)
    locked = bool(ok[-1])
    t_lock = None
    if locked:
        trailing = np.logical_and.accumulate(ok[::-1])
        n_true = int(trailing.sum())
        t_lock = float(record.t[ok.size - n_true])
    return LockReport(
        locked=locked,
        t_lock=t_lock,
        omega_spread_final=float(freq[-1]),
        relative_phase_drift_final=float(osc[-1]),
        eps_omega=tol.eps_omega,
        eps_theta=tol.eps_theta,
        window=window,
    )

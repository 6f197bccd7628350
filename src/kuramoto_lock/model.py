"""Core model layer: parameter/state types, vector fields, symmetry transforms,
and exact closed-form solutions used as oracles by the test suite.

Phases live unwrapped on the real line; nothing in this module reduces modulo
2*pi.  Modular arithmetic is confined to the cluster and collision diagnostics.
All values are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "TWO_PI",
    "SystemParams",
    "PhaseState",
    "MeanTrajectory",
    "ExactUncoupledTrajectory",
    "diameter",
    "coupling_direct",
    "coupling_mean_field",
    "COUPLING_FORMS",
    "rhs_inertial",
    "rhs_first_order",
    "galilean_transform",
    "dilate_transform",
    "mean_closed_form",
    "nonsync_exact",
]


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)  # always copies
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def diameter(x, subset=None) -> float:
    """Max pairwise spread max_ij |x_i - x_j|, computed as max(x) - min(x).

    ``subset`` optionally restricts to the given indices; it must be nonempty.
    """
    arr = np.asarray(x, dtype=float)
    if subset is not None:
        idx = np.asarray(subset, dtype=int)
        if idx.size == 0:
            raise ValueError("subset must be nonempty")
        arr = arr[idx]
    if arr.size == 0:
        raise ValueError("cannot take the diameter of an empty vector")
    return float(arr.max() - arr.min())


@dataclass(frozen=True)
class SystemParams:
    """Model constants: uniform inertia ``m``, coupling ``kappa``, and the
    vector ``nu`` of natural frequencies (one per oscillator)."""

    m: float
    kappa: float
    nu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "nu", _frozen_array(self.nu, "nu"))
        if not (np.isfinite(self.m) and self.m >= 0.0):
            raise ValueError("inertia m must be finite and >= 0")
        if not (np.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError("coupling kappa must be finite and >= 0")

    @property
    def n(self) -> int:
        return self.nu.size

    @property
    def nu_c(self) -> float:
        """Mean natural frequency."""
        return float(self.nu.mean())

    @property
    def nu_diameter(self) -> float:
        return diameter(self.nu)

    @property
    def nu_var(self) -> float:
        """Population variance of the natural frequencies."""
        return float(np.mean((self.nu - self.nu.mean()) ** 2))


@dataclass(frozen=True)
class PhaseState:
    """Dynamical state at time ``t``: unwrapped phases and frequencies."""

    t: float
    theta: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "theta", _frozen_array(self.theta, "theta"))
        object.__setattr__(self, "omega", _frozen_array(self.omega, "omega"))
        if not np.isfinite(self.t):
            raise ValueError("t must be finite")
        if self.theta.size != self.omega.size:
            raise ValueError("theta and omega must have the same length")

    @property
    def n(self) -> int:
        return self.theta.size

    @property
    def theta_c(self) -> float:
        return float(self.theta.mean())

    @property
    def omega_c(self) -> float:
        return float(self.omega.mean())


def _check_match(params: SystemParams, n: int) -> None:
    if params.n != n:
        raise ValueError(f"state has {n} oscillators but params have {params.n}")


@dataclass(frozen=True)
class MeanTrajectory:
    """Closed-form evolution of the phase and frequency averages.

    The averages decouple from the interaction exactly, so they follow the
    scalar linear dynamics of a single damped-driven oscillator.
    """

    m: float
    theta_c0: float
    omega_c0: float
    nu_c: float

    def omega_c(self, t):
        e = np.exp(-np.asarray(t, dtype=float) / self.m)
        return self.omega_c0 * e + self.nu_c * (1.0 - e)

    def theta_c(self, t):
        t = np.asarray(t, dtype=float)
        e = np.exp(-t / self.m)
        return (
            self.m * self.omega_c0 * (1.0 - e)
            + self.nu_c * (t - self.m + self.m * e)
            + self.theta_c0
        )


def coupling_direct(theta: np.ndarray, kappa: float) -> np.ndarray:
    """Coupling (kappa/N) sum_j sin(theta_j - theta_i) via the full pairwise
    sum.  O(N^2); this is the reference evaluation.

    ``theta`` is one state ``(N,)`` or a batch ``(B, N)``; each row is
    evaluated exactly as the one-dimensional call would evaluate it."""
    th = np.asarray(theta, dtype=float)
    return (kappa / th.shape[-1]) * np.sin(th[..., None, :] - th[..., :, None]).sum(axis=-1)


def coupling_mean_field(theta: np.ndarray, kappa: float) -> np.ndarray:
    """Same coupling through the phase centroid.  O(N); agrees with
    :func:`coupling_direct` up to rounding.  Row-wise on ``(B, N)`` input,
    like :func:`coupling_direct`."""
    th = np.asarray(theta, dtype=float)
    z = np.exp(1j * th)
    return kappa * (np.add.reduce(z, axis=-1, keepdims=True) / th.shape[-1] * np.conj(z)).imag


COUPLING_FORMS: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "direct": coupling_direct,
    "mean_field": coupling_mean_field,
}


def rhs_inertial(
    params: SystemParams, state: PhaseState, form: str = "direct"
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the first-order reduction of the inertial model.

    Returns ``(dtheta, domega)`` with ``dtheta = omega`` and
    ``domega_i = (nu_i - omega_i + (kappa/N) sum_j sin(theta_j - theta_i)) / m``.

    Zero inertia is rejected; use :func:`rhs_first_order` for that model.
    """
    _check_match(params, state.n)
    if params.m <= 0.0:
        raise ValueError("rhs_inertial requires m > 0; use rhs_first_order for m = 0")
    coup = COUPLING_FORMS[form](state.theta, params.kappa)
    domega = (params.nu - state.omega + coup) / params.m
    return state.omega.copy(), domega


def rhs_first_order(
    params: SystemParams, theta: np.ndarray, form: str = "direct"
) -> np.ndarray:
    """Phase velocity of the zero-inertia model:
    ``nu_i + (kappa/N) sum_j sin(theta_j - theta_i)``.  Inertia is ignored."""
    th = np.asarray(theta, dtype=float)
    _check_match(params, th.size)
    return params.nu + COUPLING_FORMS[form](th, params.kappa)


def galilean_transform(
    params: SystemParams,
    state: PhaseState,
    nu_shift: float,
    theta_shift: float,
    omega_shift: float,
) -> tuple[SystemParams, PhaseState]:
    """Shift frequencies and phases into a co-moving frame.

    Maps solutions to solutions: a trajectory of the original system,
    transformed pointwise at its own time ``state.t``, is a trajectory of the
    shifted system.  With the mean shifts, phase-locked states become
    equilibria of the transformed variables.
    """
    _check_match(params, state.n)
    if params.m <= 0.0:
        raise ValueError("galilean_transform requires m > 0")
    m = params.m
    t = state.t
    e = np.exp(-t / m)
    theta_new = (
        state.theta
        - theta_shift
        - m * omega_shift * (1.0 - e)
        - nu_shift * (t - m + m * e)
    )
    omega_new = state.omega - omega_shift * e - nu_shift * (1.0 - e)
    new_params = SystemParams(m, params.kappa, params.nu - nu_shift)
    return new_params, PhaseState(t, theta_new, omega_new)


def dilate_transform(
    params: SystemParams, state: PhaseState, alpha: float
) -> tuple[SystemParams, PhaseState]:
    """Time-dilation symmetry: ``kappa -> alpha*kappa``, ``nu -> alpha*nu``,
    ``m -> m/alpha``, frequencies scaled by ``alpha``, phases unchanged.

    A state at time t on the original trajectory corresponds to the dilated
    trajectory at time t/alpha.  The dimensionless triple
    (m*kappa, D(nu)/kappa, D(omega)/kappa) is invariant.
    """
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    _check_match(params, state.n)
    new_params = SystemParams(params.m / alpha, alpha * params.kappa, alpha * params.nu)
    new_state = PhaseState(state.t / alpha, state.theta, alpha * state.omega)
    return new_params, new_state


def mean_closed_form(params: SystemParams, state0: PhaseState) -> MeanTrajectory:
    """Exact trajectory of the phase/frequency averages from the initial state."""
    _check_match(params, state0.n)
    if params.m <= 0.0:
        raise ValueError("mean_closed_form requires m > 0")
    return MeanTrajectory(
        m=params.m,
        theta_c0=state0.theta_c,
        omega_c0=state0.omega_c,
        nu_c=params.nu_c,
    )


@dataclass(frozen=True)
class ExactUncoupledTrajectory:
    """Exact solution of the inertial model on the zero-centroid manifold.

    When the phase centroid vanishes for all time, the coupling term is
    identically zero and every oscillator follows its own damped-driven
    linear dynamics.  ``theta`` and ``omega`` accept a scalar time or a
    one-dimensional array of times.
    """

    params: SystemParams
    theta0: np.ndarray
    omega0: np.ndarray

    def theta(self, t):
        t = np.asarray(t, dtype=float)
        m = self.params.m
        e = np.exp(-t / m)
        growth = t - m + m * e
        if t.ndim == 0:
            return self.theta0 + m * self.omega0 * (1.0 - e) + self.params.nu * growth
        return (
            self.theta0[None, :]
            + m * self.omega0[None, :] * (1.0 - e)[:, None]
            + self.params.nu[None, :] * growth[:, None]
        )

    def omega(self, t):
        t = np.asarray(t, dtype=float)
        e = np.exp(-t / self.params.m)
        if t.ndim == 0:
            return self.omega0 * e + self.params.nu * (1.0 - e)
        return self.omega0[None, :] * e[:, None] + self.params.nu[None, :] * (1.0 - e)[:, None]

    def state(self, t: float) -> PhaseState:
        return PhaseState(float(t), self.theta(float(t)), self.omega(float(t)))


def nonsync_exact(
    params: SystemParams,
    state0: PhaseState,
    groups: Sequence[Sequence[int]],
    tol: float = 1e-12,
) -> ExactUncoupledTrajectory:
    """Validate a zero-centroid group structure and return the exact trajectory.

    ``groups`` must partition ``range(N)``.  Within each group the natural
    frequency and the initial frequency must be constant (to ``tol``), and the
    group's initial phases must have vanishing centroid: |sum exp(i*theta0)|
    <= ``tol``.  Under these conditions the total phase centroid is zero for
    all time and the returned closed form solves the model exactly.
    """
    _check_match(params, state0.n)
    if params.m <= 0.0:
        raise ValueError("nonsync_exact requires m > 0")
    n = params.n
    seen = np.zeros(n, dtype=bool)
    for g_no, group in enumerate(groups):
        idx = np.asarray(list(group), dtype=int)
        if idx.size == 0:
            raise ValueError(f"group {g_no} is empty")
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError(f"group {g_no} has indices outside range({n})")
        if seen[idx].any():
            raise ValueError(f"group {g_no} overlaps another group")
        seen[idx] = True
        if diameter(params.nu, idx) > tol:
            raise ValueError(f"group {g_no}: natural frequencies are not constant")
        if diameter(state0.omega, idx) > tol:
            raise ValueError(f"group {g_no}: initial frequencies are not constant")
        centroid = np.exp(1j * state0.theta[idx]).sum()
        if abs(centroid) > tol:
            raise ValueError(
                f"group {g_no}: initial phase centroid {abs(centroid):.3e} exceeds {tol:.1e}"
            )
    if not seen.all():
        raise ValueError("groups do not cover every oscillator")
    return ExactUncoupledTrajectory(params, state0.theta, state0.omega)

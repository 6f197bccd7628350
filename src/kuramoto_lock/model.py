"""Core model layer: parameter/state types, vector fields, symmetry transforms,
and exact closed-form solutions used as oracles by the test suite.

Phases live unwrapped on the real line; nothing in this module reduces modulo
2*pi.  Modular arithmetic is confined to the cluster and collision diagnostics.
All values are immutable and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "TWO_PI",
    "SystemParams",
    "PhaseState",
    "MeanTrajectory",
    "ExactUncoupledTrajectory",
    "diameter",
    "centroid",
    "order_parameter",
    "centroid_phase",
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


def _real(value, name: Optional[str] = None) -> float:
    """The number rule of every document and value type: a real number other
    than a bool whose float is finite, returned as that float.  Else ValueError
    names ``name``; without a name, a value that is no real number raises TypeError."""
    if not isinstance(value, numbers.Number) or isinstance(value, (bool, complex, np.complexfloating)):
        if name is None:
            raise TypeError(f"{value!r} is not a real number")
        raise ValueError(f"{name} must be real, got {value!r}")
    with contextlib.suppress(OverflowError, ValueError):  # too large, or Decimal('sNaN')
        if math.isfinite(x := float(value)):
            return x
    raise ValueError(f"{name} must be finite, got {value!r}")


def _frozen_array(values, name: str) -> np.ndarray:
    """The array rule of every vector a value type stores, read by numpy's
    dtype; an object array reads each entry by the number rule (:func:`_real`)."""
    try:
        raw = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise ValueError(f"{name} must be a one-dimensional vector") from None
    if raw.dtype.kind not in "iufO":
        raise ValueError(f"{name} must be real, got dtype {raw.dtype}")
    if raw.dtype.kind == "O":
        raw = np.array([_real(v, name) for v in raw.flat]).reshape(raw.shape)
    arr = np.array(raw, dtype=float)  # always copies
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _integer(v) -> bool:
    """The integer rule of every reader of an index or a count: an int or a
    numpy integer other than a bool, or an integral float."""
    if isinstance(v, (int, np.integer)):
        return not isinstance(v, bool)
    return isinstance(v, (float, np.floating)) and float(v).is_integer()


def _indices(values, n: int, name: str) -> np.ndarray:
    """The index rule of every reader of a subset or a group: a nonempty
    iterable, other than a str, bytes or dict, of integers (:func:`_integer`)
    in range(n), returned as an int array in the given order, repeats kept.
    Any other value raises ValueError naming ``name``."""
    try:
        items = None if isinstance(values, (str, bytes, dict)) else list(values)
    except TypeError:
        items = None
    if items == []:
        raise ValueError(f"{name} must be nonempty")
    if items is None or not all(_integer(i) and 0 <= i < n for i in items):
        raise ValueError(f"{name} must be a list of integers in range({n}), got {values!r}")
    return np.array([int(i) for i in items], dtype=int)


def diameter(x, subset=None) -> float:
    """Max pairwise spread max_ij |x_i - x_j|, computed as max(x) - min(x).

    ``subset`` optionally restricts to the given indices, read by
    :func:`_indices`.
    """
    arr = np.asarray(x, dtype=float)
    if subset is not None:
        arr = arr[_indices(subset, arr.size, "subset")]
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
        object.__setattr__(self, "m", _real(self.m, "m"))
        object.__setattr__(self, "kappa", _real(self.kappa, "kappa"))
        object.__setattr__(self, "nu", _frozen_array(self.nu, "nu"))
        if not self.m >= 0.0:
            raise ValueError("inertia m must be finite and >= 0")
        if not self.kappa >= 0.0:
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
        object.__setattr__(self, "t", _real(self.t, "t"))
        object.__setattr__(self, "theta", _frozen_array(self.theta, "theta"))
        object.__setattr__(self, "omega", _frozen_array(self.omega, "omega"))
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


def _check_match(params: SystemParams, n: int, what: str) -> None:
    """The size rule of every reader of a system together with its phases, a
    state, a record or a config: ``what`` holds ``n`` oscillators, as many
    as ``params``, or ValueError names ``what`` and both sizes."""
    if params.n != n:
        raise ValueError(f"{what} has {n} oscillators but params have {params.n}")


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


class _MeanFieldWork:
    """Work arrays of the mean-field coupling of phases of ``shape``, one
    configuration ``(N,)`` or rows ``(..., N)``, made once and overwritten
    by every call given them:

    - ``arg``, the phasors' argument i*theta (its real part stays zero);
    - ``z = exp(arg)``, the unit phasors, and ``pairs``, its float view
      ``(..., N, 2)`` of (cos, sin) pairs;
    - ``c``, the complex centroid column ``(..., 1)``, its float view ``cs``
      ``(..., 2)`` of ``(C, S)``, and ``sc``, the reversed view ``(S, C)``
      spread over the oscillator axis;
    - ``cos_s`` and ``sin_c``, views of the pairs' two columns, which hold
      cos*S and sin*C once the coupling has multiplied the pairs by
      ``(S, C)`` in place, and ``out``, the coupling."""

    def __init__(self, shape: tuple):
        shape = tuple(shape)
        self.n = shape[-1]
        self.arg = np.zeros(shape, dtype=complex)
        self.phase = self.arg.imag
        self.z = np.empty(shape, dtype=complex)
        self.pairs = self.z.view(float).reshape(shape + (2,))
        self.c = np.empty(shape[:-1] + (1,), dtype=complex)
        self.cs = self.c.view(float)
        self.sc = self.cs.reshape(shape[:-1] + (1, 2))[..., ::-1]
        self.cos_s, self.sin_c = self.pairs[..., 0], self.pairs[..., 1]
        self.out = np.empty(shape)


def _centroid(th: np.ndarray, work: _MeanFieldWork) -> np.ndarray:
    """Write the phasors and the centroid of ``th`` into ``work`` and return
    the centroid ``work.cs``.

    ``z`` is the exponential of an argument whose real part is zero and whose
    imaginary part is ``th``, so no complex multiply enters.  The centroid is
    the complex row sum, whose terms group as in a complex mean, read as two
    floats and divided by N."""
    np.copyto(work.phase, th)
    np.exp(work.arg, work.z)
    np.add.reduce(work.z, -1, None, work.c, True)
    np.divide(work.cs, work.n, work.cs)
    return work.cs


def centroid(theta) -> np.ndarray:
    """The phase centroid C + iS of one configuration ``(N,)``, or of every
    row of ``(..., N)``: the means ``(C, S)`` of cos(theta) and sin(theta) on
    a last axis of length 2.

    This is the one centroid rule, read only through real arithmetic: the
    mean-field coupling, :func:`order_parameter` and :func:`centroid_phase`.
    A complex multiply, ``np.abs`` and ``np.angle`` would give bits that
    depend on the SIMD kernels numpy dispatches to on x86-64."""
    th = np.asarray(theta, dtype=float)
    return _centroid(th, _MeanFieldWork(th.shape))


def order_parameter(cs: np.ndarray) -> np.ndarray:
    """Amplitude R = sqrt(C^2 + S^2) of every centroid ``(C, S)`` in ``cs``,
    from :func:`centroid`."""
    c, s = cs[..., 0], cs[..., 1]
    return np.sqrt(c * c + s * s)


def centroid_phase(c: float, s: float) -> float:
    """Phase atan2(S, C) of one centroid C + iS."""
    return math.atan2(s, c)


def coupling_direct(theta: np.ndarray, kappa: float, work=None) -> np.ndarray:
    """Coupling (kappa/N) sum_j sin(theta_j - theta_i) via the full pairwise
    sum.  O(N^2); this is the reference evaluation.  ``work`` is ignored.

    ``theta`` is one state ``(N,)`` or a batch ``(B, N)``; each row is
    evaluated exactly as the one-dimensional call would evaluate it."""
    th = np.asarray(theta, dtype=float)
    return (kappa / th.shape[-1]) * np.sin(th[..., None, :] - th[..., :, None]).sum(axis=-1)


def coupling_mean_field(
    theta: np.ndarray, kappa: float, work: Optional[_MeanFieldWork] = None
) -> np.ndarray:
    """Same coupling through the phase centroid (see :func:`centroid`):
    kappa*(S cos(theta_i) - C sin(theta_i)).  O(N); agrees with
    :func:`coupling_direct` up to rounding.  Row-wise on ``(B, N)`` input,
    like :func:`coupling_direct`.  Every integrator run steps this form.

    ``work``, a :class:`_MeanFieldWork` at the shape of ``theta``, holds
    every array the call writes, so the call makes none; the returned
    ``work.out`` is overwritten by the next call on that work.  Without it
    the call makes a fresh one."""
    th = np.asarray(theta, dtype=float)
    if work is None:
        work = _MeanFieldWork(th.shape)
    _centroid(th, work)
    np.multiply(work.pairs, work.sc, work.pairs)
    np.subtract(work.cos_s, work.sin_c, work.out)
    np.multiply(work.out, kappa, work.out)
    return work.out


# The integrator reads the mean-field form here on every run and calls it
# once per RK4 stage as ``form(theta, kappa, work)``, with one work per
# stepper (see :func:`coupling_mean_field`), so a caller can wrap it (to
# count or time calls) after import.  A form takes ``(theta, kappa,
# work=None)``; a returned ``work.out`` is overwritten by the next call on
# that work.
COUPLING_FORMS: dict[str, Callable[..., np.ndarray]] = {"mean_field": coupling_mean_field}


def rhs_inertial(params: SystemParams, state: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the first-order reduction of the inertial model,
    with the reference coupling :func:`coupling_direct`.

    Returns ``(dtheta, domega)`` with ``dtheta = omega`` and
    ``domega_i = (nu_i - omega_i + (kappa/N) sum_j sin(theta_j - theta_i)) / m``.

    Zero inertia is rejected; use :func:`rhs_first_order` for that model.
    """
    _check_match(params, state.n, "state")
    if params.m <= 0.0:
        raise ValueError("rhs_inertial requires m > 0; use rhs_first_order for m = 0")
    coup = coupling_direct(state.theta, params.kappa)
    domega = (params.nu - state.omega + coup) / params.m
    return state.omega.copy(), domega


def rhs_first_order(params: SystemParams, theta: np.ndarray) -> np.ndarray:
    """Phase velocity of the zero-inertia model:
    ``nu_i + (kappa/N) sum_j sin(theta_j - theta_i)``, with the reference
    coupling :func:`coupling_direct`.  Inertia is ignored."""
    th = np.asarray(theta, dtype=float)
    _check_match(params, th.size, "theta")
    return params.nu + coupling_direct(th, params.kappa)


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
    _check_match(params, state.n, "state")
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
    if not (alpha := _real(alpha, "alpha")) > 0.0:
        raise ValueError("alpha must be positive and finite")
    _check_match(params, state.n, "state")
    new_params = SystemParams(params.m / alpha, alpha * params.kappa, alpha * params.nu)
    new_state = PhaseState(state.t / alpha, state.theta, alpha * state.omega)
    return new_params, new_state


def mean_closed_form(params: SystemParams, state0: PhaseState) -> MeanTrajectory:
    """Exact trajectory of the phase/frequency averages from the initial state."""
    _check_match(params, state0.n, "state0")
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
        e = np.exp(-t / m)[..., None]
        growth = t[..., None] - m + m * e
        return self.theta0 + m * self.omega0 * (1.0 - e) + self.params.nu * growth

    def omega(self, t):
        e = np.exp(-np.asarray(t, dtype=float) / self.params.m)[..., None]
        return self.omega0 * e + self.params.nu * (1.0 - e)

    def state(self, t: float) -> PhaseState:
        return PhaseState(float(t), self.theta(float(t)), self.omega(float(t)))


def nonsync_exact(
    params: SystemParams,
    state0: PhaseState,
    groups: Sequence[Sequence[int]],
    tol: float = 1e-12,
) -> ExactUncoupledTrajectory:
    """Validate a zero-centroid group structure and return the exact trajectory.

    ``groups`` must partition ``range(N)``: each group is read by
    :func:`_indices`, and every oscillator appears exactly once across all
    groups.  Within each group the natural frequency and the initial
    frequency must be constant (to ``tol``), and the group's initial phases
    must have vanishing centroid: |sum exp(i*theta0)|, the group's size
    times its :func:`order_parameter`, is at most ``tol``.
    Under these conditions the total phase centroid is zero for all time and
    the returned closed form solves the model exactly.
    """
    _check_match(params, state0.n, "state0")
    if params.m <= 0.0:
        raise ValueError("nonsync_exact requires m > 0")
    n = params.n
    seen = np.zeros(n, dtype=bool)
    for g_no, group in enumerate(groups):
        idx = _indices(group, n, f"group {g_no}")
        if np.unique(idx).size < idx.size:
            raise ValueError(f"group {g_no} lists an oscillator twice")
        if seen[idx].any():
            raise ValueError(f"group {g_no} overlaps another group")
        seen[idx] = True
        if diameter(params.nu, idx) > tol:
            raise ValueError(f"group {g_no}: natural frequencies are not constant")
        if diameter(state0.omega, idx) > tol:
            raise ValueError(f"group {g_no}: initial frequencies are not constant")
        amplitude = idx.size * float(order_parameter(centroid(state0.theta[idx])))
        if amplitude > tol:
            raise ValueError(
                f"group {g_no}: initial phase centroid {amplitude:.3e} exceeds {tol:.1e}"
            )
    if not seen.all():
        raise ValueError("groups do not cover every oscillator")
    return ExactUncoupledTrajectory(params, state0.theta, state0.omega)

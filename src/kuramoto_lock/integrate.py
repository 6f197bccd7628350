"""Fixed-step fourth-order Runge-Kutta integration with snapshot observers,
trajectory recording, and pairwise collision detection with bisection
refinement on the dense trajectory."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import (
    TWO_PI,
    COUPLING_FORMS,
    PhaseState,
    SystemParams,
)

__all__ = [
    "IntegrationError",
    "IntegratorConfig",
    "TrajectoryRecord",
    "CollisionEvent",
    "integrate",
    "integrate_first_order",
    "record_trajectory",
    "record_trajectory_first_order",
    "detect_collisions",
    "collision_events_from_record",
]


class IntegrationError(RuntimeError):
    """Raised when the state stops being finite mid-run.

    The model is globally well-posed, so this only flags an implementation
    fault or a step size far too large for the stiffness 1/m.
    """


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01
    t_end: float = 30.0
    observer_stride: int = 1
    refine_tol: float = 1e-12
    coupling: str = "direct"

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be >= 0 and finite")
        if self.observer_stride < 1:
            raise ValueError("observer_stride must be >= 1")
        if not (self.refine_tol > 0.0):
            raise ValueError("refine_tol must be positive")
        if self.coupling not in COUPLING_FORMS:
            raise ValueError(f"unknown coupling form {self.coupling!r}")

    def reference(self) -> "IntegratorConfig":
        """High-accuracy variant (dt/20) used for oracle comparisons."""
        return dataclasses.replace(self, dt=self.dt / 20.0)


def _step_plan(dt: float, t_end: float) -> tuple[int, float]:
    """Number of full steps and the trailing partial step (0 if none)."""
    n_full = int(math.floor(t_end / dt + 1e-9))
    rem = t_end - n_full * dt
    if rem <= 1e-12 * max(1.0, t_end):
        rem = 0.0
    return n_full, rem


def _check_finite(theta: np.ndarray, omega: Optional[np.ndarray], t: float) -> None:
    ok = bool(np.isfinite(theta).all())
    if ok and omega is not None:
        ok = bool(np.isfinite(omega).all())
    if not ok:
        raise IntegrationError(f"non-finite state at t={t:.6g}; check dt against 1/m")


def _rk4_step(
    params: SystemParams,
    coup: Callable[[np.ndarray, float], np.ndarray],
    theta: np.ndarray,
    omega: np.ndarray,
    h,
) -> tuple[np.ndarray, np.ndarray]:
    """One classic RK4 step of the inertial system.

    ``theta`` and ``omega`` hold one state ``(N,)`` or a batch ``(B, N)`` of
    states sharing ``params``; ``h`` is a scalar or a ``(B, 1)`` column of
    per-row step sizes.  Every row gets exactly the arithmetic of the
    one-dimensional call.
    """
    nu, kappa, m = params.nu, params.kappa, params.m

    def accel(th, om):
        return (nu - om + coup(th, kappa)) / m

    b1 = accel(theta, omega)
    th2 = theta + (0.5 * h) * omega
    om2 = omega + (0.5 * h) * b1
    b2 = accel(th2, om2)
    th3 = theta + (0.5 * h) * om2
    om3 = omega + (0.5 * h) * b2
    b3 = accel(th3, om3)
    th4 = theta + h * om3
    om4 = omega + h * b3
    b4 = accel(th4, om4)
    return (
        theta + (h / 6.0) * (omega + 2.0 * om2 + 2.0 * om3 + om4),
        omega + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
    )


def integrate(
    params: SystemParams,
    state0: PhaseState,
    config: IntegratorConfig,
    observer: Optional[Callable[[float, PhaseState], None]] = None,
) -> PhaseState:
    """Classic RK4 on the 2N-dimensional system.

    The observer, when given, is invoked with ``(t, state)`` at step 0, every
    ``observer_stride`` steps thereafter, and at the final step.  The run is
    deterministic given its inputs.
    """
    if params.m <= 0.0:
        raise ValueError("integrate requires m > 0; use integrate_first_order")
    if params.n != state0.n:
        raise ValueError("state/params size mismatch")
    coup = COUPLING_FORMS[config.coupling]
    dt = config.dt
    stride = config.observer_stride
    n_full, rem = _step_plan(dt, config.t_end)

    th = state0.theta.copy()
    om = state0.omega.copy()
    t0 = state0.t

    last_observed = -1
    # Blow-up is detected by the explicit finiteness check; silence the
    # transient inf/nan arithmetic warnings it would otherwise emit.
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_full):
            if observer is not None and k % stride == 0:
                observer(t0 + k * dt, PhaseState(t0 + k * dt, th, om))
                last_observed = k
            th, om = _rk4_step(params, coup, th, om, dt)
            _check_finite(th, om, t0 + (k + 1) * dt)
        t_last = t0 + n_full * dt
        if rem > 0.0:
            if observer is not None and n_full % stride == 0:
                observer(t_last, PhaseState(t_last, th, om))
                last_observed = n_full
            th, om = _rk4_step(params, coup, th, om, rem)
            _check_finite(th, om, t0 + config.t_end)
            t_last = t0 + config.t_end
            final_step = n_full + 1
        else:
            final_step = n_full
    final = PhaseState(t_last, th, om)
    if observer is not None and last_observed != final_step:
        observer(t_last, final)
    return final


def integrate_first_order(
    params: SystemParams,
    theta0: np.ndarray,
    config: IntegratorConfig,
    observer: Optional[Callable[[float, np.ndarray], None]] = None,
) -> np.ndarray:
    """Classic RK4 on the N-dimensional zero-inertia system.

    The observer receives ``(t, theta)`` with the same cadence as
    :func:`integrate`.  Inertia in ``params`` is ignored.
    """
    th = np.asarray(theta0, dtype=float).copy()
    if params.n != th.size:
        raise ValueError("state/params size mismatch")
    coup = COUPLING_FORMS[config.coupling]
    nu, kappa = params.nu, params.kappa
    dt = config.dt
    stride = config.observer_stride
    n_full, rem = _step_plan(dt, config.t_end)

    def vel(theta):
        return nu + coup(theta, kappa)

    def rk4(theta, h):
        k1 = vel(theta)
        k2 = vel(theta + (0.5 * h) * k1)
        k3 = vel(theta + (0.5 * h) * k2)
        k4 = vel(theta + h * k3)
        return theta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    last_observed = -1
    for k in range(n_full):
        if observer is not None and k % stride == 0:
            observer(k * dt, th.copy())
            last_observed = k
        th = rk4(th, dt)
        _check_finite(th, None, (k + 1) * dt)
    t_last = n_full * dt
    if rem > 0.0:
        if observer is not None and n_full % stride == 0:
            observer(t_last, th.copy())
            last_observed = n_full
        th = rk4(th, rem)
        _check_finite(th, None, config.t_end)
        t_last = config.t_end
        final_step = n_full + 1
    else:
        final_step = n_full
    if observer is not None and last_observed != final_step:
        observer(t_last, th.copy())
    return th


@dataclass(frozen=True)
class TrajectoryRecord:
    """Equally indexed snapshots of a run: times plus (S, N) phase and
    frequency arrays.  For first-order runs the frequency rows hold the
    instantaneous phase velocities."""

    t: np.ndarray
    theta: np.ndarray
    omega: np.ndarray

    @property
    def n_snapshots(self) -> int:
        return self.t.size

    @property
    def n(self) -> int:
        return self.theta.shape[1]

    def state(self, k: int) -> PhaseState:
        return PhaseState(float(self.t[k]), self.theta[k], self.omega[k])

    def subsample(self, step: int) -> "TrajectoryRecord":
        """Every ``step``-th snapshot, always keeping the last one."""
        if step < 1:
            raise ValueError("step must be >= 1")
        idx = list(range(0, self.t.size, step))
        if idx[-1] != self.t.size - 1:
            idx.append(self.t.size - 1)
        sel = np.asarray(idx, dtype=int)
        return TrajectoryRecord(self.t[sel], self.theta[sel], self.omega[sel])

    def tail(self, duration: float) -> "TrajectoryRecord":
        """Snapshots in the trailing window of the given duration."""
        cut = self.t[-1] - duration
        sel = self.t >= cut - 1e-12
        return TrajectoryRecord(self.t[sel], self.theta[sel], self.omega[sel])


def record_trajectory(
    params: SystemParams, state0: PhaseState, config: IntegratorConfig
) -> TrajectoryRecord:
    """Integrate the inertial system and collect observer snapshots."""
    ts: list[float] = []
    ths: list[np.ndarray] = []
    oms: list[np.ndarray] = []

    def obs(t: float, state: PhaseState) -> None:
        ts.append(t)
        ths.append(state.theta.copy())
        oms.append(state.omega.copy())

    integrate(params, state0, config, obs)
    return TrajectoryRecord(np.asarray(ts), np.stack(ths), np.stack(oms))


def record_trajectory_first_order(
    params: SystemParams, theta0: np.ndarray, config: IntegratorConfig
) -> TrajectoryRecord:
    """Integrate the zero-inertia system; frequency rows are the phase
    velocities evaluated on each snapshot."""
    ts: list[float] = []
    ths: list[np.ndarray] = []

    def obs(t: float, theta: np.ndarray) -> None:
        ts.append(t)
        ths.append(theta)

    integrate_first_order(params, theta0, config, obs)
    theta = np.stack(ths)
    coup = COUPLING_FORMS[config.coupling]
    omega = np.stack([params.nu + coup(row, params.kappa) for row in theta])
    return TrajectoryRecord(np.asarray(ts), theta, omega)


@dataclass(frozen=True)
class CollisionEvent:
    """Two distinguishable oscillators coinciding modulo 2*pi at an isolated
    time.  ``branch`` is the integer k with theta_i - theta_j crossing
    2*pi*k."""

    i: int
    j: int
    t_star: float
    branch: int

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError("collision events are stored with i < j")


# Float64 elements in one block of the pair scan (snapshots x pairs) and in
# one batch of bisection probes (rows x N).  Bounds the scratch memory of
# :func:`collision_events_from_record` whatever N and the event count.
_BLOCK_ELEMENTS = 1 << 15


def _distinguishable(params: SystemParams, theta0, omega0, i, j) -> np.ndarray:
    """Mask over the pairs ``(i[k], j[k])``: False where both oscillators
    share nu and the initial frequency and start at the same phase mod 2*pi,
    so that they stay together for all time."""
    d = (theta0[i] - theta0[j]) % TWO_PI
    same = (
        (params.nu[i] == params.nu[j])
        & (omega0[i] == omega0[j])
        & (np.minimum(d, TWO_PI - d) <= 1e-12)
    )
    return ~same


def _bisect(
    params: SystemParams,
    coup,
    record: TrajectoryRecord,
    k: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    refine_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Refine the crossings of pairs ``(i, j)`` bracketed by ``[t[k], t[k+1]]``.

    Rows are bisected together, in batches of at most ``_BLOCK_ELEMENTS // N``
    rows; each round re-integrates the still-active rows from their bracket's
    left snapshot with one batched RK4 step.  Per row the rule is the scalar
    one: stop once ``hi - lo <= refine_tol``, an exact zero of the crossing
    function ends the row at that midpoint, and the branch is read from the
    gap at ``t_star``.  A row whose bracket is two adjacent doubles stops
    there too, where the scalar rule would loop forever.  Returns
    ``(t_star, branch)``.
    """
    t = record.t
    t_star = np.empty(k.size)
    branch = np.empty(k.size, dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // record.n)
    for start in range(0, k.size, rows):
        batch = slice(start, start + rows)
        kb, ib, jb = k[batch], i[batch], j[batch]
        th0, om0, t_lo = record.theta[kb], record.omega[kb], t[kb]
        # Sign of the crossing function at the bracket's left end.
        pos = np.sin(0.5 * (record.theta[kb, ib] - record.theta[kb, jb])) > 0

        def gap_at(act, tau):
            th, _ = _rk4_step(params, coup, th0[act], om0[act], (tau - t_lo[act])[:, None])
            r = np.arange(act.size)
            return th[r, ib[act]] - th[r, jb[act]]

        lo, hi = t_lo.copy(), t[kb + 1]
        act = np.flatnonzero(hi - lo > refine_tol)
        while act.size:
            width = hi[act] - lo[act]
            mid = 0.5 * (lo[act] + hi[act])
            g_mid = np.sin(0.5 * gap_at(act, mid))
            zero = g_mid == 0.0
            same = (g_mid > 0) == pos[act]
            lo[act] = np.where(zero | same, mid, lo[act])
            hi[act] = np.where(zero | ~same, mid, hi[act])
            # A row also stops when its bracket no longer shrinks: past
            # t = 8192 adjacent doubles lie more than 1e-12 apart.
            new_width = hi[act] - lo[act]
            act = act[(new_width > refine_tol) & (new_width < width)]
        ts = 0.5 * (lo + hi)
        t_star[batch] = ts
        branch[batch] = np.rint(gap_at(np.arange(kb.size), ts) / TWO_PI)
    return t_star, branch


def collision_events_from_record(
    params: SystemParams,
    record: TrajectoryRecord,
    config: IntegratorConfig,
) -> list[CollisionEvent]:
    """Locate and refine collisions on a dense (stride-1) trajectory record.

    The crossing function sin((theta_i - theta_j)/2) vanishes exactly on the
    collision set and is smooth, so plain sign-change bracketing applies.
    Pairs are scanned in blocks of at most ``_BLOCK_ELEMENTS`` gap values;
    every bracketed crossing of the record is then bisected in one batched
    sweep (batches of at most ``_BLOCK_ELEMENTS // N`` rows) that
    re-integrates the bracketing step down to a time uncertainty of
    ``config.refine_tol``.  A snapshot where the crossing function is exactly
    zero is an event at that snapshot.  Double roots inside one step are a
    known blind spot of the bracketing; the reference (dt/20) mode shrinks it.
    Events are sorted by ``(t_star, i, j)``.
    """
    coup = COUPLING_FORMS[config.coupling]
    t, theta = record.t, record.theta
    iu, ju = np.triu_indices(record.n, 1)
    keep = _distinguishable(params, theta[0], record.omega[0], iu, ju)
    iu, ju = iu[keep], ju[keep]
    if iu.size == 0:
        return []
    width = max(1, _BLOCK_ELEMENTS // record.n_snapshots)
    cross_p, cross_k, zero_p, zero_k = [], [], [], []
    for start in range(0, iu.size, width):
        g = np.sin(0.5 * (theta[:, iu[start:start + width]] - theta[:, ju[start:start + width]]))
        sg = np.sign(g)
        k, p = np.nonzero(sg[:-1] * sg[1:] < 0)
        cross_p.append(p + start)
        cross_k.append(k)
        k, p = np.nonzero(g == 0.0)
        zero_p.append(p + start)
        zero_k.append(k)
    cp, ck = np.concatenate(cross_p), np.concatenate(cross_k)
    zp, zk = np.concatenate(zero_p), np.concatenate(zero_k)
    t_cross, b_cross = _bisect(params, coup, record, ck, iu[cp], ju[cp], config.refine_tol)
    b_zero = np.rint((theta[zk, iu[zp]] - theta[zk, ju[zp]]) / TWO_PI).astype(np.int64)

    # Within a pair, crossings come in time order and before exact zeros, as
    # in a pair-by-pair scan, so the stable sort reproduces that scan's order
    # even on tied keys.
    p = np.concatenate([cp, zp])
    events = [
        CollisionEvent(i, j, t_star, branch)
        for i, j, t_star, branch in zip(
            iu[p].tolist(),
            ju[p].tolist(),
            np.concatenate([t_cross, t[zk]]).tolist(),
            np.concatenate([b_cross, b_zero]).tolist(),
        )
    ]
    events.sort(key=lambda ev: (ev.t_star, ev.i, ev.j))
    return events


def detect_collisions(
    params: SystemParams, state0: PhaseState, config: IntegratorConfig
) -> list[CollisionEvent]:
    """Integrate densely (one snapshot per step) and report every refined
    collision event; indistinguishable pairs are excluded."""
    dense = dataclasses.replace(config, observer_stride=1)
    record = record_trajectory(params, state0, dense)
    return collision_events_from_record(params, record, config)

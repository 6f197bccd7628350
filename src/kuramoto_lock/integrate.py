"""Fixed-step fourth-order Runge-Kutta integration with snapshot observers,
trajectory recording, and pairwise collision detection with bisection
refinement on the dense trajectory.

One entry point serves both models: inertia m > 0 integrates the inertial
system, and m = 0 the zero-inertia system, its m -> 0 limit, whose state is
the phases alone.  Collision refinement needs m > 0."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import (
    TWO_PI,
    COUPLING_FORMS,
    PhaseState,
    _MeanFieldWork,
    SystemParams,
    _check_match,
    _integer,
    _real,
)

__all__ = [
    "IntegrationError",
    "IntegratorConfig",
    "TrajectoryRecord",
    "CollisionEvent",
    "integrate",
    "record_trajectory",
    "detect_collisions",
    "collision_events_from_record",
]


class IntegrationError(RuntimeError):
    """Raised when the state stops being finite mid-run.

    The model is globally well-posed, so this only flags an implementation
    fault or a step size far too large for the stiffness 1/m.  ``reason``
    says what went wrong; for a batch, ``row`` is the first row that stopped
    being finite (``None`` for a single instance) and the message names it.
    """

    def __init__(self, reason: str, row: Optional[int] = None):
        super().__init__(reason if row is None else f"batch row {row}: {reason}")
        self.reason = reason
        self.row = row


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01
    t_end: float = 30.0
    observer_stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "dt", _real(self.dt, "dt"))
        object.__setattr__(self, "t_end", _real(self.t_end, "t_end"))
        if not self.dt > 0.0:
            raise ValueError("dt must be positive and finite")
        if not self.t_end >= 0.0:
            raise ValueError("t_end must be >= 0 and finite")
        if not (_integer(self.observer_stride) and self.observer_stride >= 1):
            raise ValueError(
                f"observer_stride must be an integer >= 1, got {self.observer_stride!r}"
            )
        object.__setattr__(self, "observer_stride", int(self.observer_stride))


def _step_plan(dt: float, t_end: float) -> tuple[int, float]:
    """Number of full steps and the trailing partial step (0 if none)."""
    n_full = int(math.floor(t_end / dt + 1e-9))
    rem = t_end - n_full * dt
    if rem <= 1e-12 * max(1.0, t_end):
        rem = 0.0
    return n_full, rem


def _snapshot_grid(t: np.ndarray, h: Optional[float] = None) -> tuple[int, float]:
    """The one rule for which snapshots at times ``t`` a reader of a record
    takes: ``(s, h)``, where the first ``s`` snapshots, every one or all but
    a last one after a shorter final step (see :func:`_step_plan`), are
    equally spaced at ``h`` (the first step unless given) to 1e-9 relative
    and 1e-12 absolute.  Any other spacing, or fewer than two snapshots,
    raises ``ValueError``."""
    if t.size < 2:
        raise ValueError("need at least two snapshots")
    steps = np.diff(t)
    h = float(steps[0]) if h is None else h
    even = np.isclose(steps, h, rtol=1e-9, atol=1e-12)
    s = t.size
    if not even.all():
        if not (s > 2 and even[:-1].all() and steps[-1] < h):
            raise ValueError(f"snapshots must be equally spaced at {h!r}")
        s -= 1
    return s, h


def _n_snapshots(config: IntegratorConfig) -> int:
    """Snapshots a run records: one before every ``observer_stride``-th step
    and one after the last step."""
    n_full, rem = _step_plan(config.dt, config.t_end)
    steps = n_full + (rem > 0.0)
    return -(-steps // config.observer_stride) + 1


def _check_finite(y: np.ndarray, t: float) -> None:
    """Raise :class:`IntegrationError` unless the stacked state ``y`` is
    finite; for a batch ``(d, B, N)`` it names the first row that is not."""
    if not np.isfinite(y).all():
        row = None
        if y.ndim == 3:
            row = int(np.argmin(np.isfinite(y).all(axis=(0, 2))))
        raise IntegrationError(f"non-finite state at t={t:.6g}; check dt against 1/m", row)


class _Rows(NamedTuple):
    """The fields of :class:`SystemParams` that a step reads, one entry per
    oscillator at the state's shape: ``(N,)`` for one instance, ``(B, N)``
    for a batch."""

    m: np.ndarray
    kappa: np.ndarray
    nu: np.ndarray

    @property
    def n(self) -> int:
        return self.nu.shape[-1]


def _rate(
    params, coup, theta: np.ndarray, omega: Optional[np.ndarray], out: np.ndarray, work=None
) -> np.ndarray:
    """Write the rate of a state into ``out`` and return it: the acceleration
    (nu - omega + coupling)/m of an inertial state ``(theta, omega)``, or the
    phase velocity nu + coupling of zero-inertia phases (``omega`` None).
    ``work`` is passed on to the coupling."""
    if omega is not None:
        np.subtract(params.nu, omega, out=out)
        out += coup(theta, params.kappa, work)
        out /= params.m
    else:
        np.add(params.nu, coup(theta, params.kappa, work), out=out)
    return out


def _stepper(params, coup: Callable[..., np.ndarray], shape: tuple):
    """Classic RK4 of either model on stacked states of ``shape``, built once.

    A state ``y`` stacks its rows on a leading axis of length d:
    ``(theta, omega)`` (d = 2) steps the inertial system, ``(theta,)``
    (d = 1) the zero-inertia phases.  Each row holds one state ``(N,)`` or a
    batch ``(B, N)`` of states; ``params`` is one :class:`SystemParams`
    shared by every row, or :class:`_Rows` at the state's shape.  Every row
    gets exactly the arithmetic of the one-dimensional step.

    Stage ``s`` fills one block ``w[s]`` with its state (stage 1's is ``y``
    itself), then its rate, so the stage derivative is the view
    ``w[s, 1:]``: (omega, acceleration) for the inertial model, the phase
    velocity for zero inertia.  The blocks, every view into them, the
    scratch rows and the coupling's work arrays (one
    :class:`~kuramoto_lock.model._MeanFieldWork`, passed to every stage's
    coupling call) are made here, once.

    Returns ``step(y, h, b1=None, phases_only=False)``, which returns the new
    state as a fresh array.  ``h`` is a scalar or a ``(B, 1)`` column of
    per-row step sizes.  ``b1``, when given, is the stage-1 rate at ``y``,
    which does not depend on ``h``.  ``phases_only`` (inertial states only)
    returns the new phases alone and skips the stage-4 phases and rate,
    which only the new frequencies read.  Neither changes an operation on
    the values still computed, so the new phases equal those of the full
    step bit for bit.
    """
    d = shape[0]
    w = np.empty((4, d + 1) + shape[1:])
    acc, tmp = np.empty(shape), np.empty(shape)
    x = [w[s, :d] for s in range(4)]  # stage states; stage 1's is y
    k = [w[s, 1:] for s in range(4)]  # stage derivatives
    th = [w[s, 0] for s in range(4)]
    om = [w[s, 1] if d == 2 else None for s in range(4)]
    r = [w[s, d] for s in range(4)]
    work = _MeanFieldWork(shape[1:])

    def step(y, h, b1=None, phases_only=False):
        if d == 2:
            np.copyto(om[0], y[1])  # stage 1's derivative: the frequencies, then the rate
        if b1 is None:
            _rate(params, coup, y[0], om[0], r[0], work)
        else:
            np.copyto(r[0], b1)
        half = 0.5 * h
        for s in (1, 2):
            np.add(y, np.multiply(half, k[s - 1], out=tmp), out=x[s])
            _rate(params, coup, th[s], om[s], r[s], work)
        if phases_only:
            np.add(y[1], np.multiply(h, r[2], out=tmp[1]), out=om[3])
            y, kk, a, t = y[0], om, acc[0], tmp[0]
        else:
            np.add(y, np.multiply(h, k[2], out=tmp), out=x[3])
            _rate(params, coup, th[3], om[3], r[3], work)
            kk, a, t = k, acc, tmp
        np.add(kk[0], np.multiply(2.0, kk[1], out=a), out=a)
        np.add(a, np.multiply(2.0, kk[2], out=t), out=a)
        np.add(a, kk[3], out=a)
        return y + np.multiply(h / 6.0, a, out=a)

    return step


def _march(
    params,
    coup,
    y: np.ndarray,
    t0: float,
    config: IntegratorConfig,
    observe: Callable[[float, np.ndarray], None],
) -> tuple[float, np.ndarray]:
    """Advance the stacked state ``y`` over the step plan of ``config`` with
    one :func:`_stepper` and return the final ``(t, y)``.

    ``observe(t, y)`` is called before step 0, before every
    ``observer_stride``-th step thereafter, and after the last step.  The
    state is checked for finiteness before each of these calls.  A failed
    check replays the steps since the last finite check one at a time,
    checking each, so :class:`IntegrationError` names the first non-finite
    step's time and row, as a check after every step would: NaN and inf
    never turn finite again under the step's operations.
    """
    dt = config.dt
    stride = config.observer_stride
    n_full, rem = _step_plan(dt, config.t_end)
    step = _stepper(params, coup, y.shape)
    t_end = t0 + config.t_end
    # The last state checked finite, and how many steps it follows.
    good = (0, y)

    def check(k, y):
        nonlocal good
        if not np.isfinite(y).all():
            done, yj = good
            for j in range(done + 1, k):
                yj = step(yj, dt)
                _check_finite(yj, t0 + j * dt)
            _check_finite(y, t0 + k * dt if k <= n_full else t_end)
        good = (k, y)

    # Blow-up is detected by the explicit finiteness check; silence the
    # transient inf/nan arithmetic warnings it would otherwise emit.
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_full):
            if k % stride == 0:
                check(k, y)
                observe(t0 + k * dt, y)
            y = step(y, dt)
        t_last = t0 + n_full * dt
        if rem > 0.0:
            if n_full % stride == 0:
                check(n_full, y)
                observe(t_last, y)
            y = step(y, rem)
            t_last = t_end
        check(n_full + (rem > 0.0), y)
    observe(t_last, y)
    return t_last, y


def _model(coef, coup, theta: np.ndarray, omega: np.ndarray):
    """Stacked state ``y`` and ``omega_of`` of the model that the inertia
    selects, for :func:`_march` and :func:`_record`.  Every m > 0 steps the
    inertial state ``y = (theta, omega)``; every m = 0 steps the zero-inertia
    phases ``y = (theta,)`` alone, ignores ``omega``, and gives the phase
    velocities as frequency rows.  A batch that mixes the two raises
    ``ValueError``."""
    inertial = coef.m > 0.0
    if inertial.all():
        y, omega_of = np.stack((theta, omega)), lambda y: y[1]
    elif inertial.any():
        raise ValueError("a batch cannot mix inertial (m > 0) and zero-inertia (m = 0) instances")
    else:
        y, omega_of = theta[None], lambda y: coef.nu + coup(y[0], coef.kappa)
    return y, omega_of


def integrate(
    params: SystemParams,
    state0: PhaseState,
    config: IntegratorConfig,
    observer: Optional[Callable[[float, PhaseState], None]] = None,
) -> PhaseState:
    """Classic RK4 on the inertial system (m > 0) or the zero-inertia system
    (m = 0, where ``state0.omega`` is ignored and a state's frequencies are
    its phase velocities).

    The observer, when given, is invoked with ``(t, state)`` at step 0, every
    ``observer_stride`` steps thereafter, and at the final step.  The run is
    deterministic given its inputs.
    """
    _check_match(params, state0.n, "state0")
    coef = _coefficients(params)
    coup = COUPLING_FORMS["mean_field"]
    y, omega_of = _model(coef, coup, state0.theta, state0.omega)

    def observe(t, y):
        if observer is not None:
            observer(t, PhaseState(t, y[0], omega_of(y)))

    t, y = _march(coef, coup, y, state0.t, config, observe)
    return PhaseState(t, y[0], omega_of(y))


@dataclass(frozen=True)
class TrajectoryRecord:
    """Equally indexed snapshots of a run: times ``t`` (S,) plus phase and
    frequency arrays of shape (S, N).  A batch of B instances recorded
    together holds (B, S, N) arrays; :meth:`instance` gives one instance's
    record.  For zero-inertia runs (m = 0) the frequency rows hold the
    instantaneous phase velocities."""

    t: np.ndarray
    theta: np.ndarray
    omega: np.ndarray

    @property
    def n_snapshots(self) -> int:
        return self.t.size

    @property
    def n(self) -> int:
        return self.theta.shape[-1]

    def instance(self, b: int) -> "TrajectoryRecord":
        """Record of instance ``b`` of a batch, as a view."""
        return TrajectoryRecord(self.t, self.theta[b], self.omega[b])

    def state(self, k: int) -> PhaseState:
        return PhaseState(float(self.t[k]), self.theta[k], self.omega[k])

    def subsample(self, step: int) -> "TrajectoryRecord":
        """Every ``step``-th snapshot, always keeping the last one."""
        if not (_integer(step) and step >= 1):
            raise ValueError(f"step must be an integer >= 1, got {step!r}")
        idx = list(range(0, self.t.size, int(step)))
        if idx[-1] != self.t.size - 1:
            idx.append(self.t.size - 1)
        sel = np.asarray(idx, dtype=int)
        return TrajectoryRecord(self.t[sel], self.theta[sel], self.omega[sel])


def _coefficients(params):
    """:class:`_Rows` of one :class:`SystemParams`, ``(N,)``, or of a
    sequence of them sharing N, ``(B, N)``: m and kappa repeated over each
    row's oscillators, so every operation of a step meets operands of one
    shape."""
    if isinstance(params, SystemParams):
        n = params.n
        return _Rows(np.full(n, params.m), np.full(n, params.kappa), params.nu)
    params = list(params)
    if not params or len({p.n for p in params}) != 1:
        raise ValueError("a batch needs at least one instance, all of one size N")
    nu = np.stack([p.nu for p in params])
    return _Rows(
        np.repeat([[p.m] for p in params], nu.shape[1], axis=1),
        np.repeat([[p.kappa] for p in params], nu.shape[1], axis=1),
        nu,
    )


def _record(params, coup, y, omega_of, t0: float, config: IntegratorConfig) -> TrajectoryRecord:
    """Run :func:`_march` into a record allocated up front: ``(S, N)``
    arrays, or ``(B, S, N)`` for a batch.  ``omega_of(y)`` gives the
    frequency rows of a snapshot."""
    s = _n_snapshots(config)
    t = np.empty(s)
    theta = np.empty(y[0].shape[:-1] + (s, y[0].shape[-1]))
    omega = np.empty_like(theta)
    k = 0

    def observe(tk, yk):
        nonlocal k
        t[k] = tk
        theta[..., k, :] = yk[0]
        omega[..., k, :] = omega_of(yk)
        k += 1

    _march(params, coup, y, t0, config, observe)
    return TrajectoryRecord(t, theta, omega)


def record_trajectory(params, state0, config: IntegratorConfig) -> TrajectoryRecord:
    """Integrate and collect observer snapshots, of the inertial system for
    m > 0 and of the zero-inertia system for m = 0 (see :func:`integrate`).

    ``params`` and ``state0`` are one :class:`SystemParams` and
    :class:`PhaseState`, or equal-length sequences of them sharing N, the
    start time and the model.  A batch is stepped as one ``(B, N)`` array and
    recorded with a leading instance axis; every instance's record equals its
    single-instance record bit for bit.  A blow-up raises
    :class:`IntegrationError` naming the first non-finite row of a batch.
    """
    coef = _coefficients(params)
    if isinstance(state0, PhaseState):
        theta, omega, t0 = state0.theta, state0.omega, state0.t
    else:
        states = list(state0)
        if len({s.t for s in states}) > 1:
            raise ValueError("a batch must share its start time")
        if len({s.n for s in states}) > 1:
            for b, s in enumerate(states):
                _check_match(coef, s.n, f"state0[{b}]")
        theta = np.stack([s.theta for s in states])
        omega = np.stack([s.omega for s in states])
        t0 = states[0].t
    if coef.nu.shape[:-1] != theta.shape[:-1]:
        raise ValueError("a batch needs one state per instance")
    _check_match(coef, theta.shape[-1], "state0")
    coup = COUPLING_FORMS["mean_field"]
    return _record(coef, coup, *_model(coef, coup, theta, omega), t0, config)


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
# one call of bisection probes (probes x N).  A round probes at most three
# points per row, so a batch holds ``_BLOCK_ELEMENTS // (3 N)`` rows.  This
# bounds the scratch memory of :func:`collision_events_from_record` whatever
# N and the event count.
_BLOCK_ELEMENTS = 1 << 15

# Bisection stops once a bracket is no wider than this.
_REFINE_TOL = 1e-12

# The rounding bound E on a probe's gap, in ulps of the phase magnitude.
# Measured against 40-digit arithmetic, the error stays below E/25.
_ROUNDING_ULPS = 24.0
# Half-widths of the two verification pairs of a certified row: the wide
# pair around the Hermite estimate, as a fraction of the bracket, and the
# narrow pair around the wide pair's regula-falsi point, in units of E over
# the slope.
_WIDE_PAIR = 1e-6
_NARROW_PAIR = 4.0


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


class _Certificate(NamedTuple):
    """What the record alone tells about the probe gap of each bracket."""

    ok: np.ndarray       # strictly monotone, crossing one multiple of 2*pi
    branch: np.ndarray   # that multiple n, as a float
    rising: np.ndarray   # whether the gap increases
    eps: np.ndarray      # rounding bound E on a probe's gap


def _certificate(params: SystemParams, record: TrajectoryRecord, k, i, j) -> _Certificate:
    """Monotonicity certificate of the probe gap g(h) = theta_i - theta_j
    after the phase half of one RK4 step of size h from snapshot ``k``.

    That half is exactly theta + h*omega + (h^2/6)(b1 + b2 + b3), so
    g'(h) = dw + (h/3) sum_k db_k + (h^2/6)(db2' + db3'), where dw is the
    pair's frequency gap.  On a bracket of width H, with m > H/2, every stage
    acceleration is at most B = (max|nu| + max|omega| + kappa)/(m - H/2) and
    the stage derivatives at most B2' = (B/2 + kappa*max|omega|)/m and
    B3' = (B/2 + (H/2)B2' + kappa*(max|omega| + H*B))/m, so g' stays within
    D = 2HB + (H^2/3)(B2' + B3') of dw.  A row is certified when
    |dw| > 2D and H(|dw| + D) < pi/2, and the record straddles the multiple
    of 2*pi nearest the mean of its two gaps: then the exact gap is strictly
    monotone and stays within pi/2 of that one multiple on the bracket.
    """
    t, theta, omega = record.t, record.theta, record.omega
    h = t[k + 1] - t[k]
    om_max = np.abs(omega[k]).max(axis=1)
    dw = omega[k, i] - omega[k, j]
    bounded = params.m > 0.5 * h
    b = (np.abs(params.nu).max() + om_max + params.kappa) / np.where(
        bounded, params.m - 0.5 * h, 1.0
    )
    b2 = (0.5 * b + params.kappa * om_max) / params.m
    b3 = (0.5 * b + 0.5 * h * b2 + params.kappa * (om_max + h * b)) / params.m
    d = 2.0 * h * b + (h * h / 3.0) * (b2 + b3)
    g0 = theta[k, i] - theta[k, j]
    g1 = theta[k + 1, i] - theta[k + 1, j]
    n = np.rint((g0 + g1) / (2.0 * TWO_PI))
    ok = bounded & (np.abs(dw) > 2.0 * d) & (h * (np.abs(dw) + d) < 0.5 * np.pi)
    ok &= (g0 - n * TWO_PI) * (g1 - n * TWO_PI) < 0
    mag = np.maximum(np.abs(theta[k, i]), np.abs(theta[k, j])) + h * (om_max + h * b)
    return _Certificate(ok, n, dw > 0, _ROUNDING_ULPS * np.spacing(mag))


def _crossing_guess(record: TrajectoryRecord, k, i, j, n) -> np.ndarray:
    """Estimated time at which the gap theta_i - theta_j crosses 2*pi*n
    between snapshots ``k`` and ``k + 1``, which must straddle it: Newton on
    the cubic Hermite interpolant of the gap through both snapshots, in
    s = (t - t[k]) / H, from the secant's root."""
    t, theta, omega = record.t, record.theta, record.omega
    h = t[k + 1] - t[k]
    y0 = theta[k, i] - theta[k, j] - n * TWO_PI
    y1 = theta[k + 1, i] - theta[k + 1, j] - n * TWO_PI
    m0 = h * (omega[k, i] - omega[k, j])
    m1 = h * (omega[k + 1, i] - omega[k + 1, j])
    dy = y0 - y1
    s = y0 / dy
    for _ in range(3):
        p = y0 * (1 - s) ** 2 * (1 + 2 * s) + m0 * s * (1 - s) ** 2 + y1 * s * s * (3 - 2 * s) \
            + m1 * s * s * (s - 1)
        dp = 6 * s * (s - 1) * dy + m0 * (1 - s) * (1 - 3 * s) + m1 * s * (3 * s - 2)
        s = np.clip(s - p / dp, 0.0, 1.0)
    return t[k] + s * h


def _bisect(
    params: SystemParams,
    coup,
    record: TrajectoryRecord,
    k: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Refine the crossings of pairs ``(i, j)`` bracketed by ``[t[k], t[k+1]]``.

    Every row replays the scalar bisection: stop once ``hi - lo <=
    _REFINE_TOL``, an exact zero of the crossing function ends the row at that
    midpoint, and a row whose bracket no longer shrinks (two adjacent
    doubles, past t = 8192) stops there too.  A probe re-integrates the row
    from its bracket's left snapshot with the phase half of one RK4 step,
    reusing the stage-1 acceleration; all probes of a round go in one batched
    call, in batches of at most ``_BLOCK_ELEMENTS // (3 N)`` rows.

    Only midpoints whose computed sign is in doubt are probed.  A row that
    :func:`_certificate` certifies has a strictly monotone exact gap, and a
    probe's float gap lies within E of it.  A probed point whose gap is more
    than 2E from the crossing multiple is *verified*: every midpoint on its
    far side from the crossing gets the decision made there, so a row probes
    only the midpoints between the two verified points nearest the crossing.
    Before the first round, certified rows probe a wide pair of points around
    the Hermite estimate of the crossing; in round 1, beside their midpoint,
    a narrow pair ``_NARROW_PAIR * E / slope`` about the wide pair's
    regula-falsi point.  A point that fails to verify fixes no midpoint; a
    row never verified, or never certified, probes every midpoint as plain
    bisection does.  The branch of a certified row is its crossing multiple;
    other rows read it from a probe at ``t_star``.
    Returns ``(t_star, branch)``, bit for bit those of plain bisection.
    """
    t = record.t
    t_star = np.empty(k.size)
    branch = np.empty(k.size, dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // (3 * record.n))
    for start in range(0, k.size, rows):
        batch = slice(start, start + rows)
        kb, ib, jb = k[batch], i[batch], j[batch]
        t_lo, t_hi = t[kb], t[kb + 1]
        # Each row's state at its bracket's left end, then its stage-1 rate.
        w0 = np.empty((3, kb.size, record.n))
        w0[0], w0[1] = record.theta[kb], record.omega[kb]
        _rate(params, coup, w0[0], w0[1], w0[2])
        # Sign of the crossing function at the bracket's left end.
        sgn = np.sign(np.sin(0.5 * (record.theta[kb, ib] - record.theta[kb, jb])))
        cert = _certificate(params, record, kb, ib, jb)

        def gap_at(act, tau):
            w = np.take(w0, act, axis=1)
            step = _stepper(params, coup, w[:2].shape)
            th = step(w[:2], (tau - t_lo[act])[:, None], b1=w[2], phases_only=True)
            r = np.arange(act.size)
            return th[r, ib[act]] - th[r, jb[act]]

        lo, hi = t_lo.copy(), t_hi.copy()
        act = np.flatnonzero(hi - lo > _REFINE_TOL)
        # The verified points nearest the crossing before (a) and after (b)
        # it, and the crossing function's side there.  The infinite
        # sentinels only meet comparisons, which they never pass.
        a, b = np.full(kb.size, -np.inf), np.full(kb.size, np.inf)
        side_a, side_b = np.zeros(kb.size), np.zeros(kb.size)

        def verify(rows, pair, g):
            """Keep the verified points of a pair probed on ``rows``; return
            the pair's offsets from the crossing and whether both points
            verify on either side of it."""
            d = g - cert.branch[rows] * TWO_PI
            verified = np.abs(d) > 2.0 * cert.eps[rows]
            past = (d > 0) == cert.rising[rows]
            side = np.sin(0.5 * g) * sgn[rows]
            for tau, ok, beyond, dec in zip(pair, verified, past, side):
                up = ok & ~beyond & (tau > a[rows])
                a[rows[up]], side_a[rows[up]] = tau[up], dec[up]
                up = ok & beyond & (tau < b[rows])
                b[rows[up]], side_b[rows[up]] = tau[up], dec[up]
            return d, verified.all(axis=0) & (past[0] != past[1])

        # Certified rows probe a wide pair now.  Those whose wide pair
        # straddles the crossing probe a narrow pair about its regula-falsi
        # point beside their first midpoint: rows ``pr`` at times ``pair``.
        pr = act[cert.ok[act]]
        guess = _crossing_guess(record, kb[pr], ib[pr], jb[pr], cert.branch[pr])
        half = _WIDE_PAIR * (t_hi[pr] - t_lo[pr])
        pair = np.clip([guess - half, guess + half], t_lo[pr], t_hi[pr])
        g = gap_at(np.concatenate([pr, pr]), pair.ravel()).reshape(2, -1)
        d, keep = verify(pr, pair, g)
        pr, d, pair = pr[keep], d[:, keep], pair[:, keep]
        slope = (d[1] - d[0]) / (pair[1] - pair[0])
        root = pair[0] - d[0] / slope
        half = _NARROW_PAIR * cert.eps[pr] / np.abs(slope)
        pair = np.clip([root - half, root + half], t_lo[pr], t_hi[pr])
        while act.size:
            width = hi[act] - lo[act]
            mid = 0.5 * (lo[act] + hi[act])
            # The crossing function's side of each midpoint, relative to the
            # left end's: positive sets lo = mid, negative sets hi = mid, and
            # an exact zero sets both.  A midpoint beyond a verified point
            # takes the side found there unprobed; only certified rows verify.
            before, after = mid <= a[act], mid >= b[act]
            probe, side = ~(before | after), np.where(before, side_a[act], side_b[act])
            p_rows = act[probe]
            if p_rows.size or pr.size:
                g = gap_at(np.concatenate([p_rows, pr, pr]), np.concatenate([mid[probe], *pair]))
                side[probe] = np.sin(0.5 * g[:p_rows.size]) * sgn[p_rows]
            lo[act] = np.where(side >= 0.0, mid, lo[act])
            hi[act] = np.where(side <= 0.0, mid, hi[act])
            # A row also stops when its bracket no longer shrinks: past
            # t = 8192 adjacent doubles lie more than 1e-12 apart.
            new_width = hi[act] - lo[act]
            act = act[(new_width > _REFINE_TOL) & (new_width < width)]
            if pr.size:
                verify(pr, pair, g[p_rows.size:].reshape(2, -1))
                pr, pair = pr[:0], pair[:, :0]
        t_star[batch] = ts = 0.5 * (lo + hi)
        branch[batch] = cert.branch
        loose = np.flatnonzero(~cert.ok)
        if loose.size:
            branch[start + loose] = np.rint(gap_at(loose, ts[loose]) / TWO_PI)
    return t_star, branch


def collision_events_from_record(
    params: SystemParams,
    record: TrajectoryRecord,
    config: IntegratorConfig,
) -> list[CollisionEvent]:
    """Locate and refine collisions on the dense record of ``config``'s step
    plan: one snapshot per step, spaced at ``config.dt`` by
    :func:`_snapshot_grid`.  A strided record, or one of another plan,
    raises ``ValueError``: one-step probes would misplace its events.

    The crossing function sin((theta_i - theta_j)/2) vanishes exactly on the
    collision set and is smooth, so plain sign-change bracketing applies.
    Pairs are scanned in blocks of at most ``_BLOCK_ELEMENTS`` gap values;
    every bracketed crossing of the record is then bisected in one batched
    sweep (batches of at most ``_BLOCK_ELEMENTS // (3 N)`` rows) whose probes
    re-integrate the phase half of the bracketing step down to a time
    uncertainty of 1e-12 (``_REFINE_TOL``); times and branches equal plain
    bisection's bit for bit (see :func:`_bisect`).  A snapshot where the
    crossing function is exactly zero is an event at that snapshot.  Double
    roots inside one step are a known blind spot of the bracketing.  Events
    are sorted by ``(t_star, i, j)``.  Zero inertia (m = 0) raises
    ``ValueError``: the refinement steps the inertial system.
    """
    _check_match(params, record.n, "record")
    if params.m == 0.0:
        raise ValueError("collision refinement needs inertia m > 0")
    n_full, rem = _step_plan(config.dt, config.t_end)
    size = n_full + 1 + (rem > 0.0)
    if record.n_snapshots != size or (n_full and _snapshot_grid(record.t, config.dt)[0] <= n_full):
        raise ValueError(
            f"collision refinement needs the dense record of its step plan (dt={config.dt!r}, "
            f"t_end={config.t_end!r}): {size} snapshots, one per step"
        )
    coup = COUPLING_FORMS["mean_field"]
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
        # Flat indices of the (snapshot, pair) block, in the row-major order
        # of a two-dimensional nonzero.
        k, p = np.divmod(np.flatnonzero(sg[:-1] * sg[1:] < 0), g.shape[1])
        cross_p.append(p + start)
        cross_k.append(k)
        k, p = np.divmod(np.flatnonzero(g == 0.0), g.shape[1])
        zero_p.append(p + start)
        zero_k.append(k)
    del g, sg  # the refinement below does not hold the last scan block
    cp, ck = np.concatenate(cross_p), np.concatenate(cross_k)
    zp, zk = np.concatenate(zero_p), np.concatenate(zero_k)
    t_cross, b_cross = _bisect(params, coup, record, ck, iu[cp], ju[cp])
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
    collision event; indistinguishable pairs are excluded.  Zero inertia
    raises ``ValueError``, as in :func:`collision_events_from_record`."""
    dense = dataclasses.replace(config, observer_stride=1)
    record = record_trajectory(params, state0, dense)
    return collision_events_from_record(params, record, config)

"""Fixed-step fourth-order Runge-Kutta integration with snapshot observers,
trajectory recording, and pairwise collision detection on the dense
trajectory, with crossing times from each step's cubic Hermite interpolant.

One entry point serves both models: inertia m > 0 integrates the inertial
system, and m = 0 the zero-inertia system, its m -> 0 limit, whose state is
the phases alone."""

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
    params, coup, theta: np.ndarray, omega: Optional[np.ndarray], out: np.ndarray, work
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

    Returns ``step(y, h)``, which returns the state one step of size ``h``
    after ``y`` as a fresh array; its view ``frequencies``, ``w[0, 1]``, then
    holds y's omega (phase velocity at m = 0) until the next step, and
    ``step.rate(y)`` fills stage 1 from ``y`` alone and returns that view.
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

    def rate(y):
        if d == 2:
            np.copyto(om[0], y[1])  # stage 1's derivative: the frequencies, then the rate
        _rate(params, coup, y[0], om[0], r[0], work)
        return w[0, 1]

    def step(y, h):
        rate(y)
        half = 0.5 * h
        for s in (1, 2):
            np.add(y, np.multiply(half, k[s - 1], out=tmp), out=x[s])
            _rate(params, coup, th[s], om[s], r[s], work)
        np.add(y, np.multiply(h, k[2], out=tmp), out=x[3])
        _rate(params, coup, th[3], om[3], r[3], work)
        np.add(k[0], np.multiply(2.0, k[1], out=acc), out=acc)
        np.add(acc, np.multiply(2.0, k[2], out=tmp), out=acc)
        np.add(acc, k[3], out=acc)
        return y + np.multiply(h / 6.0, acc, out=acc)

    step.frequencies, step.rate = w[0, 1], rate
    return step


def _march(
    params,
    coup,
    theta: np.ndarray,
    omega: np.ndarray,
    t0: float,
    config: IntegratorConfig,
    observe: Callable[[float, np.ndarray, np.ndarray], None],
) -> tuple[float, np.ndarray, np.ndarray]:
    """Run the model that the inertia selects from ``(theta, omega)`` at
    ``t0`` over the step plan of ``config`` with one :func:`_stepper`, and
    return the final ``(t, theta, omega)``.  Every m > 0 steps the inertial
    state; every m = 0 steps the phases alone, ignoring ``omega``.  A batch
    that mixes the two raises ``ValueError``.

    ``observe(t, theta, omega)`` gets a finished snapshot, as views valid
    until it returns, before step 0, before every ``observer_stride``-th
    step thereafter, and after the last step: the frequencies are the
    stepper's ``frequencies`` from the step's stage 1, and after the last
    step omega, or at m = 0 ``step.rate`` of the final phases.  The state is
    checked for finiteness before each call.  A failed check replays the
    steps since the last finite check one at a time, checking each, so
    :class:`IntegrationError` names the first non-finite step's time and
    row, as a check after every step would: NaN and inf never turn finite
    again under the step's operations.
    """
    inertial = params.m > 0.0
    if inertial.any() != inertial.all():
        raise ValueError("a batch cannot mix inertial (m > 0) and zero-inertia (m = 0) instances")
    y = np.stack((theta, omega)) if inertial.all() else theta[None]
    dt, stride = config.dt, config.observer_stride
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

    def advance(k, y, h, t):
        # The step goes first, so that the observer gets its frequencies at y.
        y_next = step(y, h)
        if k % stride == 0:
            check(k, y)
            observe(t, y[0], step.frequencies)
        return y_next

    # Blow-up is detected by the explicit finiteness check; silence the
    # transient inf/nan arithmetic warnings it would otherwise emit.
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_full):
            y = advance(k, y, dt, t0 + k * dt)
        t_last = t0 + n_full * dt
        if rem > 0.0:
            y = advance(n_full, y, rem, t_last)
            t_last = t_end
        check(n_full + (rem > 0.0), y)
    omega = y[1] if inertial.all() else step.rate(y)
    observe(t_last, y[0], omega)
    return t_last, y[0], omega


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

    def observe(t, theta, omega):
        if observer is not None:
            observer(t, PhaseState(t, theta, omega))

    coef, coup = _coefficients(params), COUPLING_FORMS["mean_field"]
    return PhaseState(*_march(coef, coup, state0.theta, state0.omega, state0.t, config, observe))


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
        if self.theta.ndim != 3:
            raise ValueError("instance() needs a batch record, theta of shape (B, S, N)")
        return TrajectoryRecord(self.t, self.theta[b], self.omega[b])

    def state(self, k: int) -> PhaseState:
        """Snapshot ``k`` of a single-instance record."""
        _check_single(self)
        return PhaseState(float(self.t[k]), self.theta[k], self.omega[k])

    def subsample(self, step: int) -> "TrajectoryRecord":
        """Every ``step``-th snapshot of a single or batch record, and the last."""
        if not (_integer(step) and step >= 1):
            raise ValueError(f"step must be an integer >= 1, got {step!r}")
        sel = np.unique(np.append(np.arange(0, self.t.size, int(step)), self.t.size - 1))
        return TrajectoryRecord(self.t[sel], self.theta[..., sel, :], self.omega[..., sel, :])


def _check_single(record: TrajectoryRecord, what: str = "record") -> None:
    """The shape rule of every reader of one instance's record: ``(S, N)``
    arrays, or ValueError says how many instances the batch ``what`` holds."""
    if record.theta.ndim != 2:
        raise ValueError(f"{what} holds a batch of {record.theta.shape[0]} instances; "
                         f"pass {what}.instance(b), of shape (S, N)")


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
    t = np.empty(_n_snapshots(config))
    rec_theta = np.empty(theta.shape[:-1] + (t.size, theta.shape[-1]))
    rec_omega, slots = np.empty_like(rec_theta), iter(range(t.size))

    def observe(tk, theta_k, omega_k):
        k = next(slots)
        t[k], rec_theta[..., k, :], rec_omega[..., k, :] = tk, theta_k, omega_k

    _march(coef, COUPLING_FORMS["mean_field"], theta, omega, t0, config, observe)
    return TrajectoryRecord(t, rec_theta, rec_omega)


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


# Float64 elements in one block of the pair scan (snapshots x pairs).  This
# bounds the scan's scratch memory whatever N and the record's length.
_BLOCK_ELEMENTS = 1 << 15

# Steps per chunk of the pair scan's skip rule (see :func:`_live_cells`).  It
# sets the scan's speed only: every value gives the same events.
_CHUNK_STEPS = 32


def _distinguishable(params: SystemParams, theta0, omega0, i, j) -> np.ndarray:
    """Mask over the pairs ``(i[k], j[k])``: False where both oscillators
    share nu and the initial frequency and start at the same phase mod 2*pi,
    so that they stay together for all time.  At zero inertia nu stands in
    for the recorded frequencies, which follow from nu and the phases and
    differ by rounding for phases 2*pi*k apart."""
    d = (theta0[i] - theta0[j]) % TWO_PI
    omega0 = omega0 if params.m > 0.0 else params.nu
    same = (params.nu[i] == params.nu[j]) & (omega0[i] == omega0[j])
    return ~(same & (np.minimum(d, TWO_PI - d) <= 1e-12))


def _chunks(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each chunk's first snapshot, and each oscillator's least and greatest
    phase over each chunk, (N, chunks), of the phases ``theta`` (S, N).  A
    chunk spans ``_CHUNK_STEPS`` steps and shares its last snapshot with the
    next chunk's first, so every bracket lies in exactly one chunk."""
    s = theta.shape[0]
    starts = np.arange(0, max(s - 1, 1), _CHUNK_STEPS)
    ends = np.minimum(starts + _CHUNK_STEPS, s - 1)
    low = np.minimum(np.minimum.reduceat(theta, starts), theta[ends])
    high = np.maximum(np.maximum.reduceat(theta, starts), theta[ends])
    return starts, np.ascontiguousarray(low.T), np.ascontiguousarray(high.T)


def _live_cells(low, high, i, j) -> np.ndarray:
    """The pair scan's skip rule, a (pairs, chunks) mask over the pairs
    ``(i[p], j[p])`` and the chunk bounds of :func:`_chunks`: False where
    sin((theta_i - theta_j)/2) keeps one nonzero sign over the chunk.
    Rounding is monotone, so each computed gap of the chunk lies in [lo, hi]
    = [fl(low_i - high_j), fl(high_i - low_j)]; the cell is skipped when that
    lies inside (2*pi*n + d, 2*pi*(n + 1) - d), n = floor(lo/2*pi), with a
    margin d far above the rounding of 2*pi*n and of the sine."""
    lo = low[i] - high[j]
    hi = high[i] - low[j]
    n = np.floor(lo / TWO_PI)
    d = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return ~((lo > n * TWO_PI + d) & (hi < (n + 1.0) * TWO_PI - d))


def _scan(theta: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> tuple[np.ndarray, ...]:
    """Pairs and first snapshots of the brackets where sin((theta_i -
    theta_j)/2) changes sign, then pairs and snapshots where it is exactly
    zero, each in (pair, snapshot) order, from the live cells of
    :func:`_live_cells`.  A block of pairs' cells, and a tile of live cells'
    gaps, hold at most ``_BLOCK_ELEMENTS`` values."""
    last = theta.shape[0] - 1
    starts, low, high = _chunks(theta)
    span = np.arange(_CHUNK_STEPS + 1)  # a chunk's snapshots, from its first
    width = max(1, _BLOCK_ELEMENTS // starts.size)
    tile = max(1, _BLOCK_ELEMENTS // span.size)
    cross_p, cross_k, zero_p, zero_k = found = [], [], [], []
    for first in range(0, iu.size, width):
        p, c = np.nonzero(_live_cells(low, high, iu[first:first + width], ju[first:first + width]))
        p += first
        for a in range(0, p.size, tile):
            cp, k = p[a:a + tile, None], starts[c[a:a + tile], None] + span
            rows = np.minimum(k, last)  # a short last chunk repeats the last snapshot
            g = np.sin(0.5 * (theta[rows, iu[cp]] - theta[rows, ju[cp]]))
            sg = np.sign(g)
            r, b = np.nonzero(sg[:, :-1] * sg[:, 1:] < 0)
            cross_p.append(cp[r, 0])
            cross_k.append(k[r, b])
            # A chunk's last snapshot is the next chunk's first, which owns
            # its zero; the record's last snapshot belongs to the last chunk.
            r, b = np.nonzero((g == 0.0) & (((k < last) & (span < _CHUNK_STEPS)) | (k == last)))
            zero_p.append(cp[r, 0])
            zero_k.append(k[r, b])
    return tuple(np.concatenate(f) if f else np.zeros(0, dtype=np.intp) for f in found)


def _hermite(s, y0, y1, m0, m1):
    """Value and derivative at ``s`` in [0, 1] of the cubic Hermite
    interpolant with values ``y0``, ``y1`` and slopes ``m0``, ``m1`` at 0 and 1."""
    u = 1.0 - s
    p = u * u * (y0 * (1.0 + 2.0 * s) + m0 * s) + s * s * (y1 * (3.0 - 2.0 * s) - m1 * u)
    dp = 6.0 * s * u * (y1 - y0) + m0 * u * (1.0 - 3.0 * s) + m1 * s * (3.0 * s - 2.0)
    return p, dp


def _hermite_root(y0, y1, m0, m1) -> np.ndarray:
    """A root in [0, 1] of the cubic of :func:`_hermite`, where ``y0`` and
    ``y1`` are of opposite signs: Newton from the secant's root, four
    iterations clipped to [0, 1].  A row whose residual then exceeds 1e-12
    of ``|y1 - y0|`` (a grazing crossing can make the cubic non-monotone, and
    a zero slope stops Newton) is bisected on the cubic instead, 40 halvings
    of [0, 1]."""
    dy = y0 - y1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = y0 / dy
        for _ in range(4):
            p, dp = _hermite(s, y0, y1, m0, m1)
            s = np.clip(s - p / dp, 0.0, 1.0)
        loose = np.flatnonzero(~(np.abs(_hermite(s, y0, y1, m0, m1)[0]) <= 1e-12 * np.abs(dy)))
    if loose.size:
        coef = y0[loose], y1[loose], m0[loose], m1[loose]
        lo, hi = np.zeros(loose.size), np.ones(loose.size)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            # The cubic's side of each midpoint, relative to its value at 0:
            # positive sets lo = mid, negative hi = mid, a zero both.
            side = np.sign(_hermite(mid, *coef)[0]) * np.sign(coef[0])
            lo = np.where(side >= 0.0, mid, lo)
            hi = np.where(side <= 0.0, mid, hi)
        s[loose] = 0.5 * (lo + hi)
    return s


def _crossing_times(record: TrajectoryRecord, k, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Times and branches of the crossings of the pairs ``(i, j)`` bracketed
    by snapshots ``k`` and ``k + 1``.  The branch n is the multiple of 2*pi
    nearest the mean of the gap theta_i - theta_j at both snapshots; the time
    is the root of the cubic Hermite interpolant of g = theta_i - theta_j -
    2*pi*n through both snapshots, with slopes from the recorded frequencies,
    in s = (t - t[k]) / H for the bracket's width H (:func:`_hermite_root`)."""
    t, theta, omega = record.t, record.theta, record.omega
    h = t[k + 1] - t[k]
    g0 = theta[k, i] - theta[k, j]
    g1 = theta[k + 1, i] - theta[k + 1, j]
    n = np.rint((g0 + g1) / (2.0 * TWO_PI))
    s = _hermite_root(
        g0 - n * TWO_PI,
        g1 - n * TWO_PI,
        h * (omega[k, i] - omega[k, j]),
        h * (omega[k + 1, i] - omega[k + 1, j]),
    )
    return t[k] + s * h, n.astype(np.int64)


def collision_events_from_record(
    params: SystemParams,
    record: TrajectoryRecord,
    config: IntegratorConfig,
) -> list[CollisionEvent]:
    """Locate collisions on the dense record of ``config``'s step plan: one
    snapshot per step, spaced at ``config.dt`` by :func:`_snapshot_grid`.  A
    strided record, or one of another plan, raises ``ValueError``: the
    interpolant of a bracket wider than one step would misplace its events.

    The crossing function sin((theta_i - theta_j)/2) vanishes exactly on the
    collision set and is smooth, so plain sign-change bracketing applies.
    The scan (:func:`_scan`) evaluates it only on the cells that the skip
    rule of :func:`_live_cells` leaves live, and finds the events of a scan
    of every pair at every snapshot.  Each bracketed crossing's time is the
    root of the cubic Hermite interpolant of the pair's gap over its step,
    read from the record alone (dense-output event location; see
    :func:`_crossing_times`), and its branch the multiple of 2*pi that the
    gap crosses there.  A snapshot where the crossing function is exactly
    zero is an event at that snapshot.  Double roots inside one step are a
    known blind spot of the bracketing.  Events are sorted by
    ``(t_star, i, j)``.
    """
    _check_match(params, record.n, "record")
    _check_single(record)
    n_full, rem = _step_plan(config.dt, config.t_end)
    size = n_full + 1 + (rem > 0.0)
    if record.n_snapshots != size or (n_full and _snapshot_grid(record.t, config.dt)[0] <= n_full):
        raise ValueError(
            f"collision refinement needs the dense record of its step plan (dt={config.dt!r}, "
            f"t_end={config.t_end!r}): {size} snapshots, one per step"
        )
    t, theta = record.t, record.theta
    iu, ju = np.triu_indices(record.n, 1)
    keep = _distinguishable(params, theta[0], record.omega[0], iu, ju)
    iu, ju = iu[keep], ju[keep]
    cp, ck, zp, zk = _scan(theta, iu, ju)
    t_cross, b_cross = _crossing_times(record, ck, iu[cp], ju[cp])
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

"""Config-driven scenario runner: seeded instance generation, certificate
evaluation, integration with diagnostics series, figure-reproduction sweeps,
certify-then-simulate campaigns, collision censuses, and persistence.

Randomness comes from numpy's PCG64 generator; instance k of a seeded family
uses ``PCG64(seed + k)``, so replays survive across processes and platforms.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
import operator
import pprint
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .model import (
    TWO_PI,
    PhaseState,
    SystemParams,
    _check_match,
    _indices,
    _integer,
    _real,
    centroid,
    centroid_phase,
    diameter,
    order_parameter,
)
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    TrajectoryRecord,
    CollisionEvent,
    collision_events_from_record,
    record_trajectory,
    _check_single,
)
from .diagnostics import (
    R_PHASE_THRESHOLD,
    ArrangementReport,
    LockReport,
    LockTolerances,
    arrangement_check,
    ClusterReport,
    default_lock_tolerances,
    detect_locking,
    energy_value,
    find_majority_cluster,
    order_state,
    potential,
    _lock_window,
)
from .certify import (
    CertificateReport,
    check_first_order,
    check_n3,
    check_partial_locking,  # unused here, but perfbench's tracer patches this name
    check_partial_locking_initial,
    check_simple,
    n3_threshold,
    _xi_from_diameters,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SCENARIO_SCHEMA",
    "DiagnosticsSeries",
    "RunRecord",
    "sample_instance",
    "run_scenario",
    "run_instance",
    "SweepResult",
    "figure_sweep",
    "CampaignConfig",
    "CampaignReport",
    "certify_campaign",
    "CensusReport",
    "collision_census",
    "save_run_record",
    "save_campaign",
]


class ConfigError(ValueError):
    """Invalid input from outside the program: a config or a document."""


# Stability guard for the explicit scheme: the damping mode has rate 1/m, and
# the classic fourth-order stability interval ends near 2.785/m.
_DT_OVER_M = 2.5


def _effective_dt(dt: float, m: float) -> float:
    if m <= 0.0:
        return dt
    return min(dt, _DT_OVER_M * m)


SCENARIO_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ScenarioConfig",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "N": {"type": "integer", "minimum": 1},
        "m": {"type": "number", "minimum": 0},
        "kappa": {"type": "number", "minimum": 0},
        "D_V": {"type": "number", "minimum": 0},
        "D_Omega0": {"type": "number", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "t_end": {"type": "number", "exclusiveMinimum": 0},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "stride": {"type": "integer", "minimum": 1},
        "window": {"type": "number", "exclusiveMinimum": 0},
        "eps_omega": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "eps_theta": {"type": "number", "exclusiveMinimum": 0},
        "distribution": {"type": "string", "enum": ["uniform"]},
        "certify": {"type": "boolean"},
        "collisions": {"type": "boolean"},
        "cluster_lambda": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "cluster_ell": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 2 * math.pi},
    },
}

# Config field names are the schema's keys in lower case, in the schema's order.
_FIELD_TO_KEY = {key.lower(): key for key in SCENARIO_SCHEMA["properties"]}
_INTEGER_FIELDS = {
    key.lower() for key, rules in SCENARIO_SCHEMA["properties"].items()
    if rules["type"] == "integer"
}


# jsonschema's Draft 2020-12 type rules for the types the schema names: a
# bool is no number, an integral float is an integer, and any numbers.Number
# (numpy scalars, Decimal, Fraction, complex) is a number.
_SCHEMA_TYPES = {
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "object": lambda v: isinstance(v, dict),
}
# Each bound keyword: the comparison that fails a number, and jsonschema's words.
_SCHEMA_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}


def _schema_errors(doc, rules: dict = SCENARIO_SCHEMA, path: tuple = ()) -> list[tuple]:
    """Every error jsonschema's validator yields for ``doc`` against
    ``rules``, in its order, as (path, keyword, message, rules, doc).  Every
    bound is compared, so one that raises does so here."""
    names = [rules["type"]] if isinstance(rules["type"], str) else rules["type"]
    mismatch = not any(_SCHEMA_TYPES[name](doc) for name in names)
    is_object, is_number = isinstance(doc, dict), _SCHEMA_TYPES["number"](doc)
    errors = []
    for keyword, arg in rules.items():
        message = None
        if keyword == "type" and mismatch:
            message = f"{doc!r} is not of type {', '.join(map(repr, names))}"
        elif keyword == "enum" and not any(each == doc for each in arg):
            message = f"{doc!r} is not one of {arg!r}"  # string enums: jsonschema uses ==
        elif keyword in _SCHEMA_BOUNDS and is_number and _SCHEMA_BOUNDS[keyword][0](doc, arg):
            message = f"{doc!r} {_SCHEMA_BOUNDS[keyword][1]} {arg!r}"
        elif keyword == "additionalProperties" and is_object:
            extras = sorted({key for key in doc if key not in rules["properties"]}, key=str)
            if extras:
                listed, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({listed} {verb} unexpected)"
        elif keyword == "properties" and is_object:
            for key, subschema in arg.items():
                if key in doc:
                    errors += _schema_errors(doc[key], subschema, (*path, key))
        if message is not None:
            errors.append((path, keyword, message, rules, doc))
    return errors


def _pretty(thing) -> str:
    return textwrap.indent(pprint.pformat(thing, width=72, sort_dicts=False), 16 * " ").lstrip()


def _validate_scenario(doc) -> None:
    """Reject ``doc`` as ``jsonschema.validate`` would against
    ``SCENARIO_SCHEMA``, worded as its ``best_match`` error prints; then
    reject the numbers that pass the bounds but not :func:`_real`: complex
    ones (numpy orders them by their real part) and non-finite ones."""
    try:
        errors = _schema_errors(doc)
    except Exception as exc:  # noqa: BLE001 - e.g. a complex value against a bound
        raise ConfigError(f"invalid scenario config: {exc}") from None
    if errors:
        # best_match: the shallowest error, then the greatest path, then the
        # first; its type-mismatch rank is one per path in this flat schema.
        path, keyword, message, rules, value = max(errors, key=lambda e: (-len(e[0]), e[0]))
        schema_at = "".join(f"['properties'][{key!r}]" for key in path)
        instance_at = "".join(f"[{key!r}]" for key in path)
        # The layout of ValidationError.__str__, dedent included: it shifts
        # every line when a repr spans lines.
        raise ConfigError("invalid scenario config: " + textwrap.dedent(f"""\
            {message}

            Failed validating {keyword!r} in schema{schema_at}:
                {_pretty(rules)}

            On instance{instance_at}:
                {_pretty(value)}
            """.rstrip()))
    for key, value in doc.items():
        if _SCHEMA_TYPES["number"](value):
            _real_field(value, f"invalid scenario config: {key}")


def _real_field(value, name: str) -> float:
    """:func:`_real` of ``value``, a breach raised as a ConfigError on ``name``."""
    try:
        return _real(value, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _store_plain_numbers(config, integer_fields) -> None:
    """Store every number field of the frozen dataclass ``config`` as a plain
    ``int`` (Integral values and ``integer_fields``) or ``float``, as JSON
    holds numbers: numpy scalars, Fraction and Decimal become int or float."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, numbers.Number) and not isinstance(value, bool):
            integral = f.name in integer_fields or isinstance(value, numbers.Integral)
            object.__setattr__(config, f.name, int(value) if integral else float(value))


@dataclass(frozen=True)
class ScenarioConfig:
    """One seeded scenario: the seed fully determines the instance.

    Phases are drawn uniformly on [0, 2*pi], natural frequencies uniformly on
    [-D_V/2, D_V/2], and initial frequencies uniformly on
    [-D_Omega0/2, D_Omega0/2].
    """

    n: int = 50
    m: float = 1.0
    kappa: float = 1.0
    d_v: float = 1.0
    d_omega0: float = 1.0
    seed: int = 0
    t_end: float = 30.0
    dt: float = 0.01
    stride: int = 10
    window: float = 10.0
    eps_omega: Optional[float] = None
    eps_theta: float = 1e-3
    distribution: str = "uniform"
    certify: bool = True
    collisions: bool = False
    cluster_lambda: float = 0.6
    cluster_ell: float = 1.5

    def __post_init__(self):
        _validate_scenario(self.to_dict())
        # The schema's integers include 5.0.
        _store_plain_numbers(self, _INTEGER_FIELDS)

    def to_dict(self) -> dict:
        return {key: getattr(self, attr) for attr, key in _FIELD_TO_KEY.items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        """Config from a schema document.  ``__post_init__`` validates the
        known keys; a document that is not an object or holds any other key
        is rejected by the schema itself, so its error reads the same."""
        if not isinstance(doc, dict) or not doc.keys() <= SCENARIO_SCHEMA["properties"].keys():
            _validate_scenario(doc)
        kwargs = {attr: doc[key] for attr, key in _FIELD_TO_KEY.items() if key in doc}
        return cls(**kwargs)

    def lock_tolerances(self) -> LockTolerances:
        eps_w = self.eps_omega
        if eps_w is None:
            eps_w = default_lock_tolerances(self.kappa).eps_omega
        return LockTolerances(eps_w, self.eps_theta)


def _unit_draws(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-scale draws (phases, nu, omega) behind every seeded instance.

    Draw order is fixed: phases, then natural frequencies, then initial
    frequencies; sweeps reuse the same unit draws and rescale.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    u_theta = rng.uniform(0.0, TWO_PI, n)
    u_nu = rng.uniform(-0.5, 0.5, n)
    u_omega = rng.uniform(-0.5, 0.5, n)
    return u_theta, u_nu, u_omega


def _instance_from_draws(
    config: ScenarioConfig, draws: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[SystemParams, PhaseState]:
    u_theta, u_nu, u_omega = draws
    params = SystemParams(config.m, config.kappa, config.d_v * u_nu)
    state0 = PhaseState(0.0, u_theta, config.d_omega0 * u_omega)
    return params, state0


def sample_instance(config: ScenarioConfig) -> tuple[SystemParams, PhaseState]:
    """Deterministic instance for the config's seed."""
    return _instance_from_draws(config, _unit_draws(config.n, config.seed))


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Per-snapshot diagnostic columns.  Serialized CSV columns are
    t, R, phi, Delta, D_theta, D_omega, P, E, cluster_fraction, cluster_arc."""

    t: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    delta: np.ndarray
    d_theta: np.ndarray
    d_omega: np.ndarray
    p: np.ndarray
    e: np.ndarray
    cluster_fraction: np.ndarray
    cluster_arc: np.ndarray

    COLUMNS = ("t", "R", "phi", "Delta", "D_theta", "D_omega", "P", "E",
               "cluster_fraction", "cluster_arc")

    def to_csv(self, path) -> None:
        cols = [getattr(self, f.name) for f in dataclasses.fields(self)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for k in range(self.t.size):
                writer.writerow([repr(float(c[k])) for c in cols])


def compute_series(
    params: SystemParams,
    record: TrajectoryRecord,
    cluster_lambda: float,
    cluster_ell: float,
) -> DiagnosticsSeries:
    """Evaluate the diagnostic columns on every snapshot of a record.

    The centroid phase column is unwrapped by continuity across snapshots,
    seeded at the first snapshot.
    """
    _check_match(params, record.n, "record")
    _check_single(record)
    s = record.n_snapshots
    cs = centroid(record.theta)
    r = order_parameter(cs)
    phi = np.full(s, np.nan)
    defined = r >= R_PHASE_THRESHOLD
    c_bar, s_bar = cs.T.tolist()
    prev = None
    for k in np.flatnonzero(defined).tolist():
        phi[k] = centroid_phase(c_bar[k], s_bar[k])
        if prev is not None:
            phi[k] += TWO_PI * round((phi[prev] - phi[k]) / TWO_PI)
        prev = k
    delta = np.mean(np.sin(record.theta - phi[:, None]) ** 2, axis=1)
    for k in np.flatnonzero(~defined):
        delta[k] = order_state(record.theta[k]).delta
    d_theta = record.theta.max(axis=1) - record.theta.min(axis=1)
    d_omega = record.omega.max(axis=1) - record.omega.min(axis=1)
    p = potential(params, record.theta)
    e = energy_value(params, record.theta, record.omega)
    frac = np.zeros(s)
    arc = np.full(s, np.nan)
    for k in range(s):
        rep = find_majority_cluster(record.theta[k], cluster_lambda, cluster_ell)
        if rep is not None:
            frac[k] = rep.fraction
            arc[k] = rep.arc_diameter
    return DiagnosticsSeries(record.t.copy(), r, phi, delta, d_theta, d_omega, p, e, frac, arc)


@dataclass(frozen=True)
class RunRecord:
    """Everything one scenario run produced.  Byte-identical reproducible
    from (config, code version); provenance carries the code version only."""

    config: ScenarioConfig
    params: SystemParams
    state0: PhaseState
    r0: float
    d_omega0: float
    effective_dt: float
    certificates: dict
    series: DiagnosticsSeries
    lock: Optional[LockReport]
    collisions: Optional[tuple[CollisionEvent, ...]]
    final_state: PhaseState
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        lock = None if self.lock is None else dataclasses.asdict(self.lock)
        collisions = None
        if self.collisions is not None:
            collisions = [dataclasses.asdict(ev) for ev in self.collisions]
        return {
            "config": self.config.to_dict(),
            "instance": {
                "nu": self.params.nu.tolist(),
                "theta0": self.state0.theta.tolist(),
                "omega0": self.state0.omega.tolist(),
            },
            "R0": self.r0,
            "D_Omega0_actual": self.d_omega0,
            "effective_dt": self.effective_dt,
            "certificates": {k: v.to_json_dict() for k, v in self.certificates.items()},
            "lock": lock,
            "collisions": collisions,
            "final": {
                "t": self.final_state.t,
                "theta": self.final_state.theta.tolist(),
                "omega": self.final_state.omega.tolist(),
            },
            "provenance": dict(self.provenance),
        }


def _integrator_config(config: ScenarioConfig, params: SystemParams) -> IntegratorConfig:
    """Step plan of an instance.  The collision scan needs every step; its
    record is thinned afterwards."""
    return IntegratorConfig(
        dt=_effective_dt(config.dt, params.m),
        t_end=config.t_end,
        observer_stride=1 if config.collisions else config.stride,
    )


def run_instance(
    config: ScenarioConfig,
    params: SystemParams,
    state0: PhaseState,
    record: Optional[TrajectoryRecord] = None,
) -> RunRecord:
    """Certify, integrate, and attach diagnostics for an explicit instance.

    ``record``, when given, is the instance's trajectory as this function
    would record it (every step when ``config.collisions`` is set), for
    example one instance of a batch; it is not integrated again.  ``config``
    must hold the N, m and kappa of ``params``, and ``state0`` and ``record``
    its N oscillators (:func:`model._check_match`), else ``ValueError``.
    """
    _check_match(params, state0.n, "state0")
    _check_match(params, config.n, "config")
    if (config.m, config.kappa) != (params.m, params.kappa):
        raise ValueError(f"config has m {config.m!r} and kappa {config.kappa!r} but params "
                         f"have m {params.m!r} and kappa {params.kappa!r}")
    if config.certify and config.kappa <= 0.0:
        raise ConfigError("certification requested but kappa is zero")
    r0 = order_state(state0.theta).r
    d_om0 = diameter(state0.omega)
    certificates: dict[str, CertificateReport] = {}
    if config.certify:
        if params.m > 0.0:
            certificates["simple"] = check_simple(params, r0, d_om0)
            if params.n == 3:
                certificates["n3"] = check_n3(params)
        else:
            certificates["first_order"] = check_first_order(params, r0)

    cfg = _integrator_config(config, params)
    if record is None:
        record = record_trajectory(params, state0, cfg)
    collisions: Optional[tuple[CollisionEvent, ...]] = None
    if config.collisions:
        collisions = tuple(collision_events_from_record(params, record, cfg))
        record = record.subsample(config.stride)

    series = compute_series(params, record, config.cluster_lambda, config.cluster_ell)
    lock = None
    if _lock_window(record.t, config.window) is not None:
        lock = detect_locking(params, record, config.lock_tolerances(), config.window)
    final = record.state(record.n_snapshots - 1)
    return RunRecord(
        config=config,
        params=params,
        state0=state0,
        r0=r0,
        d_omega0=d_om0,
        effective_dt=cfg.dt,
        certificates=certificates,
        series=series,
        lock=lock,
        collisions=collisions,
        final_state=final,
        provenance={"code_version": __version__},
    )


def run_scenario(config: ScenarioConfig) -> RunRecord:
    """Generate the seeded instance and run it; a blow-up names the seed."""
    params, state0 = sample_instance(config)
    try:
        return run_instance(config, params, state0)
    except IntegrationError as exc:
        raise IntegrationError(f"scenario seed {config.seed}: {exc.reason}") from None


# ---------------------------------------------------------------------------
# Batched integration
# ---------------------------------------------------------------------------

# Float64 elements of one batch's phase record (instances x snapshots x N);
# the frequency record is as large.  Bounds the memory of a campaign or sweep
# whatever its number of instances: a batch is dropped before the next one is
# recorded, so one is alive at a time.
_BATCH_ELEMENTS = 1 << 20


def _recorded(
    jobs: Sequence[tuple[ScenarioConfig, SystemParams, PhaseState]],
    labels: Sequence[str],
    run: Callable[[int, TrajectoryRecord], object],
) -> list:
    """``run(k, record)`` for every job ``k``, in job order, where ``record``
    is the trajectory ``run_instance`` would record for job ``k``.

    Jobs that share a step plan (effective dt, t_end, stride), N and the
    model (inertial or zero-inertia, which a batch cannot mix) are integrated
    together, in consecutive batches of at most ``_BATCH_ELEMENTS`` phase
    values; a batch's records are handed out, and the batch dropped, before
    the next batch is integrated, so ``run`` must not keep its record.  A
    blow-up is re-raised naming the job by its label.
    """
    results: list = [None] * len(jobs)
    groups: dict[tuple, list[int]] = {}
    for k, (config, params, state0) in enumerate(jobs):
        key = (_integrator_config(config, params), params.m > 0.0, params.n)
        groups.setdefault(key, []).append(k)
    for (cfg, _, n), members in groups.items():
        rows = max(1, _BATCH_ELEMENTS // (cfg.n_snapshots * n))
        for start in range(0, len(members), rows):
            batch = members[start:start + rows]
            try:
                record = record_trajectory(
                    [jobs[k][1] for k in batch], [jobs[k][2] for k in batch], cfg
                )
            except IntegrationError as exc:
                raise IntegrationError(f"{labels[batch[exc.row]]}: {exc.reason}") from None
            for b, k in enumerate(batch):
                results[k] = run(k, record.instance(b))
            del record
    return results


# ---------------------------------------------------------------------------
# Figure sweeps
# ---------------------------------------------------------------------------

_SWEEP_AXES = ("Dv_over_kappa", "m_kappa", "DOmega_over_kappa")


def _sweep_config(base: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    if axis == "Dv_over_kappa":
        return dataclasses.replace(base, d_v=value * base.kappa)
    if axis == "m_kappa":
        return dataclasses.replace(base, m=value / base.kappa)
    return dataclasses.replace(base, d_omega0=value * base.kappa)


def _sweep_row(value: float, record: RunRecord) -> dict:
    series = record.series
    row = {
        "value": value,
        "R_end": float(series.r[-1]),
        "Delta_end": float(series.delta[-1]),
        "locked": bool(record.lock.locked) if record.lock else False,
        "t_lock": record.lock.t_lock if record.lock and record.lock.locked else None,
    }
    if series.t[-1] >= 30.0 - 1e-9:
        r30 = float(series.r[np.argmin(np.abs(series.t - 30.0))])  # the snapshot nearest t = 30
        var_nu = record.params.nu_var
        row["R_30"] = r30
        row["ratio_one_minus_R30"] = (
            (1.0 - r30) * record.config.kappa**2 / var_nu if var_nu > 0 else math.nan
        )
    else:
        row["R_30"] = math.nan
        row["ratio_one_minus_R30"] = math.nan
    return row


@dataclass
class SweepResult:
    axis: str
    values: tuple[float, ...]
    rows: list[dict]
    records: list[RunRecord]

    def to_csv(self, path) -> None:
        _write_table(path, self.rows)


def figure_sweep(
    axis: str,
    values: Sequence[float],
    base_config: ScenarioConfig,
    fresh_samples: bool = False,
) -> SweepResult:
    """One run per axis value with a shared frozen sample.

    By default the unit draws behind phases/frequencies are made once from the
    base seed and rescaled per value; ``fresh_samples`` draws per-value
    substreams instead.  The runs are integrated as batches in this process.
    """
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {_SWEEP_AXES}")
    if axis == "m_kappa" and not base_config.kappa > 0:
        raise ConfigError(
            f"sweep axis 'm_kappa' sets m = value / kappa, so kappa must be positive, "
            f"got {base_config.kappa!r}"
        )
    try:
        values = [_real(value) for value in values]
    except TypeError as exc:
        raise ConfigError(f"sweep value {exc}") from None
    except ValueError:
        raise ConfigError("sweep values must be positive and finite") from None
    if not values:
        raise ConfigError("sweep values must be nonempty")
    if not all(v > 0 for v in values):
        raise ConfigError("sweep values must be positive and finite")
    labels = [f"sweep value {value!r}" for value in values]
    jobs = []
    for k, value in enumerate(values):
        try:
            config = _sweep_config(base_config, axis, value)
        except ConfigError as exc:
            raise ConfigError(f"{labels[k]}: {exc}") from None
        seed = base_config.seed + k if fresh_samples else base_config.seed
        jobs.append((config, *_instance_from_draws(config, _unit_draws(config.n, seed))))
    records = _recorded(
        jobs, labels, lambda k, trajectory: run_instance(*jobs[k], record=trajectory))
    return SweepResult(
        axis=axis,
        values=tuple(values),
        rows=[_sweep_row(value, record) for value, record in zip(values, records)],
        records=records,
    )


# ---------------------------------------------------------------------------
# Certify-then-simulate campaigns
# ---------------------------------------------------------------------------

CAMPAIGN_KINDS = ("simple", "n3", "first_order", "partial")


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign over seeded instances of one certificate family.

    For ``partial`` campaigns, ``lam``/``ell``/``eta`` configure the cluster
    certificate and ``n`` the ensemble size.
    """

    which: str
    n_instances: int = 20
    seed: int = 0
    n: int = 20
    kappa: float = 1.0
    t_end: float = 200.0
    dt: float = 0.01
    stride: int = 50
    window: float = 10.0
    eps_omega: Optional[float] = None
    eps_theta: float = 1e-3
    lam: float = 0.7
    ell: float = 1.0
    eta: float = 2.0
    max_attempts_factor: int = 200

    def __post_init__(self):
        if self.which not in CAMPAIGN_KINDS:
            raise ConfigError(f"unknown campaign kind {self.which!r}")
        # The fields every instance's ScenarioConfig receives, read by its rules.
        _validate_scenario({_FIELD_TO_KEY[attr]: getattr(self, attr) for attr in (
            "n", "kappa", "t_end", "dt", "stride", "window", "eps_omega", "eps_theta")})
        for attr in ("n_instances", "max_attempts_factor"):
            value = getattr(self, attr)
            if not _integer(value):
                raise ConfigError(f"{attr} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{attr} must be >= 1")
        if not (_integer(self.seed) and self.seed >= 0):
            raise ConfigError(f"campaign seed must be a non-negative integer, got {self.seed!r}")
        if not self.kappa > 0:
            raise ConfigError(f"campaign kappa must be > 0 to certify, got {self.kappa!r}")
        # The certificate's own numbers; the others were read as scenario fields.
        for attr in ("lam", "ell", "eta"):
            _real_field(getattr(self, attr), f"invalid campaign config: {attr}")
        # Plain numbers, as ScenarioConfig stores them, so that save_campaign
        # can write config.json.
        _store_plain_numbers(self, {"n", "stride", "n_instances", "max_attempts_factor", "seed"})


def _sample_simple(cc: CampaignConfig, rng: np.random.Generator):
    """Instance inside the simple-certificate region.

    Phases are drawn on a sub-arc so the initial order parameter is bounded
    away from zero; the inertia ratio is kept away from zero so the default
    step size stays well inside the stability region.
    """
    width = rng.uniform(1.0, math.pi)
    theta0 = rng.uniform(-0.5 * width, 0.5 * width, cc.n)
    r0 = order_state(theta0).r
    x = rng.uniform(0.05, 1.0) * 0.5
    y = rng.uniform(0.55, 1.0) * 0.015
    z = rng.uniform(0.05, 1.0) * 0.12
    r0sq = r0 * r0
    d_v = x * cc.kappa * r0sq
    m = y * r0sq / cc.kappa
    d_om = z * cc.kappa * r0sq
    nu = rng.uniform(-0.5 * d_v, 0.5 * d_v, cc.n)
    omega0 = rng.uniform(-0.5 * d_om, 0.5 * d_om, cc.n)
    params = SystemParams(m, cc.kappa, nu)
    state0 = PhaseState(0.0, theta0, omega0)
    report = check_simple(params, r0, diameter(omega0))
    return params, state0, report


def _sample_n3(cc: CampaignConfig, rng: np.random.Generator):
    """N=3 instance inside the all-initial-data certificate, with adversarial
    initial phases (uniform, near-bipolar, near-splay) and large initial
    frequency spreads."""
    kappa = cc.kappa
    threshold = n3_threshold()
    while True:
        mk = rng.uniform(0.004, 0.05)
        dv_over_k = rng.uniform(0.0, 0.2)
        m = mk / kappa
        d_v = dv_over_k * kappa
        if _xi_from_diameters(m, kappa, d_v, 0.0, None) < 0.97 * threshold:
            break
    mode = rng.integers(0, 3)
    if mode == 0:
        theta0 = rng.uniform(0.0, TWO_PI, 3)
    elif mode == 1:
        eps = rng.uniform(1e-3, 0.1)
        theta0 = np.array([0.0, math.pi + eps, rng.uniform(-0.3, 0.3)])
    else:
        theta0 = np.array([0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0]) + rng.uniform(
            -0.2, 0.2, 3
        )
    d_om = rng.uniform(0.0, 5.0) * kappa
    omega0 = rng.uniform(-0.5 * d_om, 0.5 * d_om, 3)
    nu = rng.uniform(-0.5 * d_v, 0.5 * d_v, 3)
    params = SystemParams(m, kappa, nu)
    state0 = PhaseState(0.0, theta0, omega0)
    return params, state0, check_n3(params)


def _sample_first_order(cc: CampaignConfig, rng: np.random.Generator):
    width = rng.uniform(0.8, TWO_PI)
    theta0 = rng.uniform(-0.5 * width, 0.5 * width, cc.n)
    r0 = order_state(theta0).r
    if r0 < 1e-3:
        theta0 = rng.uniform(-0.4, 0.4, cc.n)
        r0 = order_state(theta0).r
    margin = rng.uniform(0.2, 0.95)
    d_v = margin * cc.kappa * r0 * r0 / 1.6
    nu = rng.uniform(-0.5 * d_v, 0.5 * d_v, cc.n)
    params = SystemParams(0.0, cc.kappa, nu)
    state0 = PhaseState(0.0, theta0, np.zeros(cc.n))
    return params, state0, check_first_order(params, r0)


def _partial_cluster(cc: CampaignConfig) -> tuple[int, ...]:
    """The cluster of every partial-locking instance: the first ceil(lam*N)
    oscillators."""
    return tuple(range(math.ceil(cc.lam * cc.n)))


def _sample_partial(cc: CampaignConfig, rng: np.random.Generator):
    """Constructed ensemble: a tight majority cluster plus stragglers on the
    far side, with budgets sized so the partial-locking certificate and its
    initial-arc gate both pass."""
    n = cc.n
    subset_a = _partial_cluster(cc)
    a_count = len(subset_a)
    subset_b = tuple(range(n))
    kappa = cc.kappa
    for _ in range(200):
        mk = rng.uniform(0.005, 0.02)
        m = mk / kappa
        d_v = rng.uniform(0.02, 0.1) * kappa
        nu = rng.uniform(-0.5 * d_v, 0.5 * d_v, n)
        theta_a = rng.uniform(-0.15, 0.15, a_count)
        theta_out = math.pi + rng.uniform(-0.5, 0.5, n - a_count)
        theta0 = np.concatenate([theta_a, theta_out])
        omega0 = rng.uniform(-0.05, 0.05, n) * kappa
        params = SystemParams(m, kappa, nu)
        state0 = PhaseState(0.0, theta0, omega0)
        report = check_partial_locking_initial(
            params, theta0, subset_a, subset_b, diameter(omega0, subset_a),
            diameter(omega0), cc.lam, cc.ell, cc.eta,
        )
        if report.passed:
            return params, state0, report
    raise ConfigError("could not construct a certified partial-locking instance")


_SAMPLERS = {
    "simple": _sample_simple,
    "n3": _sample_n3,
    "first_order": _sample_first_order,
    "partial": _sample_partial,
}


def _campaign_instance(cc: CampaignConfig, attempt: int):
    rng = np.random.Generator(np.random.PCG64(cc.seed + attempt))
    return _SAMPLERS[cc.which](cc, rng)


def _campaign_scenario(cc: CampaignConfig, params: SystemParams) -> ScenarioConfig:
    return ScenarioConfig(
        n=cc.n if cc.which != "n3" else 3,
        m=params.m,
        kappa=cc.kappa,
        d_v=1.0,
        d_omega0=1.0,
        seed=0,
        t_end=cc.t_end,
        dt=cc.dt,
        stride=cc.stride,
        window=cc.window,
        eps_omega=cc.eps_omega,
        eps_theta=cc.eps_theta,
        certify=False,
        collisions=(cc.which == "n3"),
    )


def _lock_tail(record: RunRecord) -> tuple[Optional[float], tuple[CollisionEvent, ...]]:
    """The no-late-collision rule: when the run locked and m*kappa <= 1/4,
    the start of the lock tail (the midpoint of [t_lock, t_end]) and the
    collisions at or after it; otherwise ``(None, ())``."""
    lock, params = record.lock, record.params
    if not (lock and lock.locked and params.m * params.kappa <= 0.25):
        return None, ()
    start = 0.5 * (lock.t_lock + record.config.t_end)
    return start, tuple(ev for ev in record.collisions or () if ev.t_star >= start)


def _campaign_result(
    cc: CampaignConfig,
    attempt: int,
    instance: tuple,
    trajectory: TrajectoryRecord,
    outdir: Optional[Path],
) -> dict:
    """Check one recorded campaign instance and persist its run record."""
    params, state0, report = instance
    result = {
        "index": attempt,
        "seed": cc.seed + attempt,
        "certified": report.passed,
    }
    if cc.which == "partial":
        result.update(_verify_partial(cc, params, report, trajectory))
        return result
    config = _campaign_scenario(cc, params)
    record = run_instance(config, params, state0, record=trajectory)
    if outdir is not None:
        _write_json(outdir / "records" / f"run_{attempt:05d}.json", record.to_json_dict())
        record.series.to_csv(outdir / "series" / f"run_{attempt:05d}.csv")
    locked = bool(record.lock and record.lock.locked)
    result.update(
        {
            "locked": locked,
            "t_lock": record.lock.t_lock if record.lock else None,
            "ok": locked,
            "reason": "" if locked else "no lock by t_end",
        }
    )
    if cc.which == "n3":
        tail_start, late = _lock_tail(record)
        tail_ok = not late
        result.update(
            {
                "collisions": len(record.collisions or ()),
                "tail_start": math.nan if tail_start is None else tail_start,
                "tail_ok": tail_ok,
                "ok": locked and tail_ok,
                "reason": result["reason"] or ("" if tail_ok else "collision in lock tail"),
            }
        )
    return result


# The tolerance of a partial instance's tail diameter and arrangement
# interval, and that of its persistent arc.
_PREDICTION_SLACK, _ARC_SLACK = 1e-3, 1e-6


def _verify_partial(
    cc: CampaignConfig,
    params: SystemParams,
    report: CertificateReport,
    record: TrajectoryRecord,
) -> dict:
    """Check the three predictions of a certified partial-locking instance on
    its recorded trajectory: arc persistence from t1, and on the snapshots of
    the last lock window (see :func:`diagnostics._lock_window`) the tail
    diameter bound and the pairwise arrangement interval.  When no snapshot
    lies at or after t1, or no lock window fits the record, the check fails,
    named as such, and its values are NaN."""
    preds = report.details["predictions"]
    t1 = report.details["t1"]
    subset_a = _partial_cluster(cc)
    sub = record.theta[:, _indices(subset_a, params.n, "subset_a")]
    diam = sub.max(axis=1) - sub.min(axis=1)
    after = record.t >= t1 - 1e-12
    reasons = []
    if not after.any():
        persist_max = math.nan
        reasons.append(f"no snapshot at or after t1 = {t1!r}")
    else:
        persist_max = float(diam[after].max())
        if not persist_max <= cc.ell + _ARC_SLACK:
            reasons.append(f"arc {persist_max:.4f} exceeded {cc.ell}")
    tail_bound = preds["tail_diameter_bound"]
    fit = _lock_window(record.t, cc.window)
    if fit is None:
        reasons.append(f"no lock window of {cc.window!r} fits the snapshots")
        tail_diam, arrangement = math.nan, ArrangementReport(math.nan, (), math.nan, math.nan)
    else:
        tail = slice(fit[0] - fit[1], fit[0])
        tail_diam = float(diam[tail].max())
        if not tail_diam <= tail_bound + _PREDICTION_SLACK:
            reasons.append(f"tail diameter {tail_diam:.4f} above bound {tail_bound:.4f}")
        cluster = ClusterReport(
            indices=subset_a,
            translations=tuple(0 for _ in subset_a),
            arc_diameter=float(diam[-1]),
            fraction=len(subset_a) / params.n,
        )
        arrangement = arrangement_check(
            TrajectoryRecord(record.t[tail], record.theta[tail], record.omega[tail]),
            params, cluster, tail_bound, cc.lam,
        )
        if not arrangement.ok(_PREDICTION_SLACK):
            reasons.append("arrangement interval violated")
    return {
        "ok": not reasons,
        "reason": "; ".join(reasons),
        "persist_max": persist_max,
        "tail_diameter": tail_diam,
        "tail_bound": tail_bound,
        "arrangement_c": arrangement.c,
        "arrangement_lower_slack": arrangement.worst_lower_slack,
        "arrangement_upper_slack": arrangement.worst_upper_slack,
    }


@dataclass
class CampaignReport:
    which: str
    n_instances: int
    results: list[dict]
    defects: list[dict]
    all_ok: bool

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def certify_campaign(
    cc: CampaignConfig,
    workers: Optional[int] = None,
    outdir: Optional[Path] = None,
) -> CampaignReport:
    """Sample certified instances, simulate each, and assert the certified
    prediction.  Any certified-but-failed instance is reported as a defect
    with its reproduction seed.

    The instances are integrated as batches in this process; ``workers`` has
    no effect.  A blow-up is raised naming the attempt and its seed.
    """
    kept: list[tuple[int, tuple]] = []
    attempt = 0
    limit = cc.n_instances * cc.max_attempts_factor
    while len(kept) < cc.n_instances:
        if attempt >= limit:
            raise ConfigError(
                f"sampler produced only {len(kept)} certified instances in {limit} attempts"
            )
        params, state0, report = _campaign_instance(cc, attempt)
        if report.passed:
            kept.append((attempt, (params, state0, report)))
        attempt += 1
    if outdir is not None:
        outdir = Path(outdir)
        if cc.which != "partial":  # a partial instance writes no run record
            (outdir / "records").mkdir(parents=True, exist_ok=True)
            (outdir / "series").mkdir(parents=True, exist_ok=True)
    jobs = [(_campaign_scenario(cc, params), params, state0) for _, (params, state0, _) in kept]
    labels = [f"campaign attempt {attempt} (seed {cc.seed + attempt})" for attempt, _ in kept]
    results = _recorded(
        jobs, labels, lambda k, trajectory: _campaign_result(cc, *kept[k], trajectory, outdir))
    defects = [row for row in results if not row["ok"]]
    report = CampaignReport(cc.which, cc.n_instances, results, defects, not defects)
    if outdir is not None:
        save_campaign(report, cc, outdir)
    return report


# ---------------------------------------------------------------------------
# Collision census
# ---------------------------------------------------------------------------

@dataclass
class CensusReport:
    """Per-pair collision counts over a run, with the no-late-collision check
    applied when the inertia ratio is small and the run locked."""

    counts: dict
    events: tuple[CollisionEvent, ...]
    total: int
    m_kappa: float
    locked: bool
    t_lock: Optional[float]
    tail_start: Optional[float]
    tail_violations: tuple[CollisionEvent, ...]
    tail_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "counts": {f"{i}-{j}": c for (i, j), c in sorted(self.counts.items())},
            "total": self.total,
            "m_kappa": self.m_kappa,
            "locked": self.locked,
            "t_lock": self.t_lock,
            "tail_start": self.tail_start,
            "tail_violations": [dataclasses.asdict(ev) for ev in self.tail_violations],
            "tail_ok": self.tail_ok,
        }


def collision_census(config: ScenarioConfig) -> CensusReport:
    """Count per-pair collisions over the run.

    When m*kappa <= 1/4 and the run locked, no collision may occur in the
    trailing half of the locked span [t_lock, t_end]; violations are listed.
    """
    record = run_scenario(dataclasses.replace(config, collisions=True))
    events = record.collisions or ()
    counts: dict[tuple[int, int], int] = {}
    for ev in events:
        counts[(ev.i, ev.j)] = counts.get((ev.i, ev.j), 0) + 1
    tail_start, violations = _lock_tail(record)
    return CensusReport(
        counts=counts,
        events=events,
        total=len(events),
        m_kappa=record.params.m * record.params.kappa,
        locked=bool(record.lock and record.lock.locked),
        t_lock=record.lock.t_lock if record.lock else None,
        tail_start=tail_start,
        tail_violations=violations,
        tail_ok=not violations,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _write_json(path, doc, indent=None) -> None:
    """Write ``doc`` to ``path`` as JSON, then a newline: every JSON file the
    package writes."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


def _write_table(path, rows: Sequence[dict]) -> None:
    """Write ``rows`` to ``path`` as CSV under one header, the union of the
    rows' keys in first-seen order; a row lacking a key leaves it empty."""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def save_run_record(record: RunRecord, outdir, name: str = "run") -> None:
    """Write ``<name>.json`` (record without the series) and
    ``<name>_series.csv`` (diagnostic columns) into ``outdir``."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / f"{name}.json", record.to_json_dict(), indent=2)
    record.series.to_csv(out / f"{name}_series.csv")


def save_campaign(report: CampaignReport, cc: CampaignConfig, outdir: Path) -> None:
    """Campaign layout: config.json, summary.csv, campaign.json."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", dataclasses.asdict(cc), indent=2)
    _write_json(out / "campaign.json", report.to_json_dict(), indent=2)
    _write_table(out / "summary.csv", report.results)

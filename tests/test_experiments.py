"""Experiments: seeded reproducibility, schema validation, sweeps, campaigns,
collision censuses, and persistence."""

import dataclasses
import gc
import importlib.util
import json
import math
import numbers
import os
import platform
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

import kuramoto_lock
from kuramoto_lock import CampaignConfig, ScenarioConfig, certify_campaign, run_scenario
from kuramoto_lock import SystemParams, order_state
from kuramoto_lock.diagnostics import R_PHASE_THRESHOLD
from kuramoto_lock.model import centroid, centroid_phase, order_parameter
from kuramoto_lock.integrate import IntegrationError, record_trajectory
from kuramoto_lock.experiments import (
    SCENARIO_SCHEMA,
    ConfigError,
    DiagnosticsSeries,
    collision_census,
    compute_series,
    figure_sweep,
    sample_instance,
    save_run_record,
    _effective_dt,
    _integrator_config,
    _FIELD_TO_KEY,
    _SCHEMA_BOUNDS,
    _SCHEMA_TYPES,
    _validate_scenario,
)


def small_config(**kw):
    base = dict(n=8, m=0.5, kappa=1.0, d_v=0.2, d_omega0=0.3, seed=5,
                t_end=25.0, dt=0.01, stride=10, certify=False)
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Config and schema
# ---------------------------------------------------------------------------

def test_schema_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"N": 4, "bogus": 1})


def test_schema_rejects_bad_types():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"N": "ten"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"dt": -0.1})


def test_scenario_schema_is_valid():
    from jsonschema.validators import validator_for

    validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)


@pytest.mark.parametrize("seed", range(3))
def test_zero_inertia_census_is_tail_free(seed):
    # The zero-inertia model runs the same collision scan as the inertial
    # one, and m*kappa = 0 puts it under the no-late-collision rule: a
    # locked run collides early, then never in its lock tail.
    census = collision_census(
        ScenarioConfig(n=10, m=0.0, kappa=2.0, d_v=0.5, t_end=60.0, seed=seed)
    )
    assert census.m_kappa == 0.0 and census.locked and census.tail_start is not None
    assert census.total > 0 and census.tail_ok and census.tail_violations == ()
    assert ScenarioConfig.from_dict({"N": 4, "m": 0, "collisions": True}).collisions


@pytest.mark.parametrize("kappa, eps_omega", [(0.5, 1e-4), (1.0, 1e-4), (3.0, 1e-4 * 3.0)])
def test_default_lock_tolerances_follow_the_stated_rule(kappa, eps_omega):
    # README's rule: eps_omega = 1e-4 * max(1, kappa) unless given, and
    # eps_theta = 1e-3.
    tol = ScenarioConfig(kappa=kappa).lock_tolerances()
    assert (tol.eps_omega, tol.eps_theta) == (eps_omega, 1e-3)
    assert ScenarioConfig(kappa=kappa, eps_omega=2e-3).lock_tolerances().eps_omega == 2e-3


def test_config_roundtrip():
    cfg = small_config()
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    assert list(_FIELD_TO_KEY) == [f.name for f in dataclasses.fields(ScenarioConfig)]


def test_effective_dt_guard():
    assert _effective_dt(0.01, 1.0) == 0.01
    assert _effective_dt(0.01, 0.0) == 0.01  # zero inertia path
    assert _effective_dt(0.01, 1e-3) == 2.5e-3


_PROPERTIES = SCENARIO_SCHEMA["properties"]


def _type_names(rules):
    return [rules["type"]] if isinstance(rules["type"], str) else rules["type"]


_NUMBER_KEYS = [key for key, rules in _PROPERTIES.items() if "number" in _type_names(rules)]


def _reference_validator():
    from jsonschema import Draft202012Validator

    return Draft202012Validator(SCENARIO_SCHEMA)


class _DictSubclass(dict):
    pass


def _oracle(doc):
    """What the config boundary says of ``doc`` by jsonschema's reading:
    None to accept, else the ConfigError text.  ``best_match`` words a
    rejection, an exception raised while validating is wrapped, and only an
    accepted document is checked for complex and non-finite numbers."""
    try:
        error = best_match(_reference_validator().iter_errors(doc))
    except Exception as exc:  # noqa: BLE001
        return f"invalid scenario config: {exc}"
    if error is not None:
        return f"invalid scenario config: {error}"
    for key, value in doc.items():
        if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
            return f"invalid scenario config: {key} must be real, got {value!r}"
        if isinstance(value, numbers.Number) and not isinstance(value, numbers.Integral):
            if not math.isfinite(value):
                return f"invalid scenario config: {key} must be finite, got {value!r}"
    return None


def _verdict(doc):
    """None when the package's reader accepts ``doc``, else its message."""
    try:
        _validate_scenario(doc)
    except ConfigError as exc:
        return str(exc)
    return None


def test_fast_check_understands_every_schema_keyword():
    assert SCENARIO_SCHEMA.keys() <= {"$schema", "title", "type", "additionalProperties", "properties"}
    assert SCENARIO_SCHEMA["type"] == "object"
    assert SCENARIO_SCHEMA["additionalProperties"] is False
    for rules in _PROPERTIES.values():
        assert rules.keys() <= {"type", "enum", *_SCHEMA_BOUNDS}
        assert set(_type_names(rules)) <= _SCHEMA_TYPES.keys()
        # jsonschema compares enum members with == only when they are strings.
        assert all(isinstance(each, str) for each in rules.get("enum", []))
    # Default and JSON-typed documents are accepted.
    assert _verdict(ScenarioConfig().to_dict()) is None
    assert _verdict({"N": 5, "m": 1, "eps_omega": 0.5, "seed": 2**64 - 1}) is None


# One document per class the reader must word as jsonschema does: numpy
# ints, floats, bools and complex; integral floats; Decimal (NaN, overflow);
# Fraction; complex; an array against the enum; multi-line reprs; several
# and non-string unknown keys; dict subclasses; non-dict top levels.
@pytest.mark.parametrize(
    "doc",
    [
        {"N": np.int64(5)},
        {"N": 5.0},
        {"m": True},
        {"m": float("nan")},
        {"t_end": np.float64("inf")},
        {"distribution": "uniform "},
        {"bogus": 1},
        _DictSubclass(N=5),
        [("N", 5)],
        {"m": np.int64(-3), "seed": np.uint8(2)},
        {"N": 5.0, "seed": 2.0**70},
        {"N": np.float64(0.0)},
        {"m": np.float32(-0.5)},
        {"certify": np.bool_(True)},
        {"m": Decimal("-1.5"), "D_V": Decimal("2")},
        {"m": Decimal("NaN")},
        {"t_end": Decimal("1e400")},
        {"m": Fraction(-1, 3)},
        {"kappa": Fraction(1, 3)},
        {"m": 1j},
        {"eps_omega": np.complex128(-1)},
        {"distribution": np.arange(4)},
        {"N": np.arange(30.0).reshape(3, 10)},
        {"zeta": 1, "alpha": 2, "N": 0.5, 3: 1},
        {1: 2, (0, "x"): 3, None: 4},
        {"m": 1j, "bogus": 1},
        {"N": 0, "t_end": -1.0, "dt": "x"},
        {"eps_omega": "x"},
        _DictSubclass(N=0, extra=1),
        None,
        "N=5",
        np.arange(30.0).reshape(3, 10),
        {"m": np.complex128(0.5 + 1j)},
        {"eps_omega": np.complex64(1e-4 + 0j), "window": np.complex128(5)},
    ],
)
def test_fast_check_leaves_other_documents_to_jsonschema(doc):
    """The classes jsonschema once read for the package are read by the
    package itself, to the same verdict and the same words."""
    assert _verdict(doc) == _oracle(doc)


_NOISE = st.one_of(
    st.integers(-2, 2**65),
    st.floats(-1e3, 1e3),
    st.sampled_from([float("nan"), math.inf, -math.inf, -0.0, 0, 2**64, 2 * math.pi, True, False]),
    st.floats(-1e3, 1e3).map(np.float64),
    st.floats(-1e3, 1e3, width=32).map(np.float32),
    st.integers(-5, 50).map(np.int64),
    st.booleans().map(np.bool_),
    st.decimals(allow_nan=True, allow_infinity=True, places=3),
    st.fractions(-10, 10, max_denominator=7),
    st.complex_numbers(max_magnitude=10, allow_nan=False),
    st.complex_numbers(max_magnitude=10, allow_nan=False).map(np.complex128),
    st.none(),
    st.sampled_from(["uniform", "normal", ""]),
)
# Keys the schema does not know, strings and others.
_UNKNOWN_KEYS = st.one_of(
    st.sampled_from(["bogus", "n", "Seed", ""]), st.integers(-2, 2), st.none(),
    st.tuples(st.integers(0, 2)),
)


def _valid_values(rules):
    """Values the schema accepts for one key, drawn from its own keywords."""
    names = _type_names(rules)
    options = []
    if "null" in names:
        options.append(st.none())
    if "boolean" in names:
        options.append(st.booleans())
    if "string" in names:
        options.append(st.sampled_from(rules["enum"]))
    if "integer" in names or "number" in names:
        open_low, open_high = "exclusiveMinimum" in rules, "exclusiveMaximum" in rules
        low = rules.get("minimum", rules.get("exclusiveMinimum"))
        high = rules.get("maximum", rules.get("exclusiveMaximum", 1e6))
        options.append(st.integers(math.ceil(low) + open_low, math.floor(high) - open_high))
        if "number" in names:
            floats = st.floats(low, high, exclude_min=open_low, exclude_max=open_high)
            options += [floats, floats.map(np.float64)]
    return st.one_of(options)


def _recast(value, to):
    try:
        return to(value)
    except (TypeError, ValueError, OverflowError):
        return value


def _near_misses(rules):
    """A valid value recast to another numeric type, or a value at, just
    past or mirrored about one of the key's bounds."""
    casts = st.sampled_from([np.int64, np.float64, float, int, bool])
    recast = st.tuples(_valid_values(rules), casts)
    bounds = [rules[keyword] for keyword in _SCHEMA_BOUNDS if keyword in rules] or [0]
    edges = st.sampled_from(bounds).flatmap(
        lambda b: st.sampled_from(
            [b, -b, float(b), np.float64(b), math.nextafter(b, -math.inf),
             math.nextafter(b, math.inf)]
        )
    )
    return st.one_of(recast.map(lambda pair: _recast(*pair)), edges)


_VALID_DOCUMENTS = st.fixed_dictionaries(
    {}, optional={key: _valid_values(rules) for key, rules in _PROPERTIES.items()}
)


@st.composite
def _documents(draw):
    """A valid document with up to two keys replaced by a near miss or by
    noise and up to three unknown keys added, as a dict or a dict subclass;
    or, one time in four, not a dict."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(_NOISE, st.lists(st.integers(), max_size=2),
                              st.tuples(st.sampled_from([*_PROPERTIES]), _NOISE)))
    doc = draw(_VALID_DOCUMENTS)
    for key in draw(st.lists(st.sampled_from([*_PROPERTIES]), max_size=2)):
        near = draw(st.booleans())
        doc[key] = draw(_near_misses(_PROPERTIES[key]) if near else _NOISE)
    for key in draw(st.lists(_UNKNOWN_KEYS, max_size=3)):
        doc[key] = draw(_NOISE)
    return draw(st.sampled_from([doc, _DictSubclass(doc)]))


@settings(max_examples=400)
@given(doc=_documents())
def test_fast_check_agrees_with_jsonschema(doc):
    assert _verdict(doc) == _oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"N": 4, "bogus": 1},
        {"N": "ten"},
        {"m": -0.5},
        {"dt": 0.0},
        {"distribution": "normal"},
        [1, 2],
        {"N": 0, "t_end": -1.0},
        {"seed": np.int64(3)},
    ],
)
def test_rejections_are_worded_by_jsonschema(doc):
    expected = best_match(_reference_validator().iter_errors(doc))
    with pytest.raises(ConfigError) as excinfo:
        ScenarioConfig.from_dict(doc)
    assert str(excinfo.value) == f"invalid scenario config: {expected}"


@pytest.mark.parametrize("key", _NUMBER_KEYS)
def test_non_finite_numbers_rejected(key):
    with pytest.raises(ConfigError, match=f"{key} must be finite, got nan"):
        ScenarioConfig.from_dict({key: float("nan")})
    for value in (math.inf, -math.inf):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({key: value})
    attr = next(attr for attr, k in _FIELD_TO_KEY.items() if k == key)
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        ScenarioConfig(**{attr: np.float64("nan")})


@pytest.mark.parametrize("key", _NUMBER_KEYS)
def test_complex_numbers_rejected(key):
    # numpy orders complex scalars by their real part, so 0.5 + 1j passes
    # every bound of the schema.
    with pytest.raises(ConfigError, match=rf"^invalid scenario config: {key} must be real, got "):
        ScenarioConfig.from_dict({key: np.complex128(0.5 + 1j)})


def _package_env():
    src = Path(kuramoto_lock.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_valid_configs_do_not_import_jsonschema():
    code = """
import dataclasses, sys
import kuramoto_lock
from kuramoto_lock import CampaignConfig, ScenarioConfig, certify_campaign
from kuramoto_lock.experiments import ConfigError
ScenarioConfig()
ScenarioConfig.from_dict({"N": 5, "m": 0.5, "kappa": 2.0, "t_end": 1.5, "eps_omega": 1e-4})
certify_campaign(CampaignConfig(which="simple", n_instances=1, n=5, t_end=1.0, stride=10))
dataclasses.replace(ScenarioConfig(n=10, t_end=1.0), collisions=True)
for doc in ({"N": 0}, {"m": 1j}, {"bogus": 1}, [1], {"m": float("nan")}):
    try:
        ScenarioConfig.from_dict(doc)
    except ConfigError:
        pass
    else:
        raise AssertionError(f"accepted {doc!r}")
assert "jsonschema" not in sys.modules, "validating a config imported jsonschema"
"""
    subprocess.run([sys.executable, "-c", code], env=_package_env(), check=True)


# One document per rejection class, as source that this process and a
# subprocess without jsonschema both evaluate.
_REJECTED_SOURCE = """[
    {"N": 4, "bogus": 1},
    {"zeta": 1, 3: 2, "N": 0},
    {"N": "ten"},
    {"m": -0.5},
    {"dt": 0.0},
    {"cluster_ell": 7},
    {"distribution": "normal"},
    {"eps_omega": "x"},
    [1, 2],
    {"N": 0, "t_end": -1.0},
    {"seed": np.int64(3)},
    {"N": 0.5},
    {"m": np.bool_(True)},
    {"m": Decimal("-1")},
    {"m": Decimal("NaN")},
    {"m": Fraction(-1, 2)},
    {"m": 1j},
    {"m": np.complex128(0.5 + 1j)},
    {"eps_omega": float("nan")},
    {"t_end": np.float64("inf")},
    {"N": np.arange(30.0).reshape(3, 10)},
    Sub(N=0),
]"""
_REJECTED_CLI_DOC = {"N": 0, "t_end": -1.0}


def test_runtime_without_jsonschema(tmp_path):
    """With jsonschema blocked, valid configs construct, every rejection
    class reads as jsonschema words it, and the CLI exits 1 with it."""
    namespace = {"np": np, "Decimal": Decimal, "Fraction": Fraction, "Sub": _DictSubclass}
    expected = [_oracle(doc) for doc in eval(_REJECTED_SOURCE, namespace)]
    assert None not in expected
    code = f"""
import json, sys
sys.modules["jsonschema"] = None
from decimal import Decimal
from fractions import Fraction
import numpy as np
from kuramoto_lock import CampaignConfig, ScenarioConfig, certify_campaign
from kuramoto_lock.cli import main
from kuramoto_lock.experiments import ConfigError

class Sub(dict):
    pass

ScenarioConfig()
ScenarioConfig.from_dict({{"N": 5.0, "m": 0.5, "kappa": 2.0, "t_end": 1.5, "eps_omega": 1e-4}})
certify_campaign(CampaignConfig(which="simple", n_instances=1, n=5, t_end=1.0, stride=10))
for doc, message in zip({_REJECTED_SOURCE}, json.loads(sys.stdin.read())):
    try:
        ScenarioConfig.from_dict(doc)
    except ConfigError as exc:
        assert str(exc) == message, (str(exc), message)
    else:
        raise AssertionError(f"accepted {{doc!r}}")
sys.exit(main(["simulate", "--config", sys.argv[1]]))
"""
    config = tmp_path / "rejected.json"
    config.write_text(json.dumps(_REJECTED_CLI_DOC))
    run = subprocess.run(
        [sys.executable, "-c", code, str(config)], env=_package_env(),
        input=json.dumps(expected), capture_output=True, text=True,
    )
    assert run.returncode == 1, run.stderr
    assert run.stderr == f"error: {_oracle(_REJECTED_CLI_DOC)}\n"


@pytest.mark.parametrize(
    "doc",
    [{"N": 5.0}, {"seed": 3.0}, {"stride": 2.0}, {"N": np.float64(5.0), "seed": np.float64(3.0)}],
)
def test_integral_floats_on_integer_keys_run_as_ints(doc):
    base = {"N": 5, "seed": 3, "stride": 2, "t_end": 1.0}
    config = ScenarioConfig.from_dict({**base, **doc})
    assert all(type(value) is int for value in (config.n, config.seed, config.stride))
    assert config == ScenarioConfig.from_dict(base)
    as_json = json.dumps(run_scenario(config).to_json_dict())
    assert as_json == json.dumps(run_scenario(ScenarioConfig.from_dict(base)).to_json_dict())


@pytest.mark.parametrize(
    "doc, plain",
    [
        ({"m": Fraction(1, 2)}, {"m": 0.5}),
        ({"m": Decimal("0.5")}, {"m": 0.5}),
        ({"m": np.float32(0.5)}, {"m": 0.5}),
        ({"kappa": np.int64(2), "D_V": np.uint8(1)}, {"kappa": 2, "D_V": 1}),
        ({"t_end": Fraction(3, 2), "window": np.float64(1.0)}, {"t_end": 1.5, "window": 1.0}),
    ],
)
def test_numbers_run_as_plain_json_numbers(doc, plain):
    base = {"N": 4, "t_end": 1.0, "window": 0.5, "certify": False}
    config = ScenarioConfig.from_dict({**base, **doc})
    assert config == ScenarioConfig.from_dict({**base, **plain})
    assert all(type(value) in (int, float) for value in config.to_dict().values()
               if isinstance(value, numbers.Number) and not isinstance(value, bool))
    as_json = json.dumps(run_scenario(config).to_json_dict())
    assert as_json == json.dumps(run_scenario(ScenarioConfig.from_dict({**base, **plain})).to_json_dict())


# ---------------------------------------------------------------------------
# Scenario runs
# ---------------------------------------------------------------------------

def test_degenerate_scenario_locks_trivially():
    cfg = small_config(d_v=0.0, d_omega0=0.0, t_end=40.0)
    rec = run_scenario(cfg)
    assert rec.lock.locked
    assert rec.series.r[-1] > 0.999


# Valid configs whose lock window the span gate and the snapshot count once
# judged differently.  The first window does not fit the equally spaced
# snapshots (the last step is shorter); the second holds one snapshot, too
# few for a verdict, and the third two.
LOCK_WINDOW_CONFIGS = [
    ({"N": 5, "t_end": 9.95, "stride": 100, "window": 9.9}, False),
    ({"N": 5, "t_end": 0.05, "window": 0.01}, False),
    ({"N": 5, "t_end": 0.15, "window": 0.12}, True),
]


@pytest.mark.parametrize("doc, has_lock", LOCK_WINDOW_CONFIGS)
def test_lock_window_configs_run(doc, has_lock):
    assert (run_scenario(ScenarioConfig.from_dict(doc)).lock is not None) == has_lock


def _phi_delta_per_snapshot(record):
    """The centroid-phase and Delta columns, one snapshot at a time, with
    the one centroid rule of ``model``."""
    s = record.n_snapshots
    phi = np.full(s, np.nan)
    delta = np.empty(s)
    prev = None
    for k in range(s):
        cs = centroid(record.theta[k])
        if order_parameter(cs) >= R_PHASE_THRESHOLD:
            phi[k] = centroid_phase(*cs.tolist())
            if prev is not None:
                phi[k] += 2.0 * np.pi * round((prev - phi[k]) / (2.0 * np.pi))
            prev = phi[k]
            delta[k] = np.mean(np.sin(record.theta[k] - phi[k]) ** 2)
        else:
            delta[k] = order_state(record.theta[k]).delta
    return phi, delta


def test_series_phi_delta_match_per_snapshot_loop():
    # A rotating run (the centroid phase wraps many times) with splay rows
    # spliced in, first row included: their centroid is zero, so phi is
    # undefined there and Delta takes the grid value.
    cfg = small_config(n=7, t_end=20.0)
    params, state0 = sample_instance(cfg)
    params = SystemParams(params.m, params.kappa, params.nu + 3.0)
    record = record_trajectory(params, state0, _integrator_config(cfg, params))
    splay = np.arange(7) * (2.0 * np.pi / 7)
    for k, shift in ((0, 0.3), (57, -40.0), (58, 11.0), (150, 100.0)):
        record.theta[k] = splay + shift
    series = compute_series(params, record, cfg.cluster_lambda, cfg.cluster_ell)
    phi, delta = _phi_delta_per_snapshot(record)
    assert np.isnan(series.phi).sum() == 4
    assert np.nanmax(series.phi) > 50.0
    assert series.phi.tobytes() == phi.tobytes()
    assert series.delta.tobytes() == delta.tobytes()


def test_seed_replay_is_byte_identical():
    cfg = small_config(certify=True)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    assert np.array_equal(a.series.r, b.series.r)


# The canonical outputs, their digest, and the host it was computed on.
_GOLDEN = Path(__file__).with_name("golden")


def _x86_levels():
    """The numpy build's dispatchable x86-64 levels, highest first."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return [level for level in ("X86_V4", "X86_V3") if level in __cpu_dispatch__]


def test_outputs_are_byte_identical_at_every_simd_level():
    # Run records, series, campaign files and collision events must not
    # depend on the SIMD kernels numpy dispatches to: the canonical outputs
    # get one digest natively, with X86_V4 disabled, and with X86_V3 disabled
    # too.  NPY_DISABLE_CPU_FEATURES only acts on the build's dispatch list
    # (another name only raises an ImportWarning), so the levels are read
    # from it.  On a host that lacks a level, disabling it changes nothing
    # and that level goes untested: a host without AVX-512 compares only its
    # native X86_V3 kernels against the baseline ones, and one without AVX2
    # compares nothing.  Other architectures are not covered.
    #
    # The native digests must also equal the committed ones of
    # ``golden/canonical.json`` when this host has its numpy version and
    # machine; elsewhere that comparison is skipped, with a warning.  A
    # failure names the outputs whose digests differ.
    levels = _x86_levels()
    if not levels:
        pytest.skip("numpy dispatches no x86-64 levels on this build")
    disabled = [""] + [" ".join(levels[:k]) for k in range(1, len(levels) + 1)]
    runs = [
        subprocess.Popen(
            [sys.executable, str(_GOLDEN / "canonical.py")],
            env={**_package_env(), "NPY_DISABLE_CPU_FEATURES": features},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for features in disabled
    ]
    digests = {}
    for features, run in zip(disabled, runs):
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        digests[features or "native"] = json.loads(out)

    def differing(a, b):
        return sorted(name for name in a["outputs"].keys() | b["outputs"].keys()
                      if a["outputs"].get(name) != b["outputs"].get(name))

    native = digests["native"]
    levels = {level: differing(native, d) for level, d in digests.items() if differing(native, d)}
    assert not levels, f"outputs that differ from the native ones: {levels}"
    golden = json.loads((_GOLDEN / "canonical.json").read_text())
    host = {"numpy": np.__version__, "machine": platform.machine()}
    if host == {key: golden[key] for key in host}:
        moved = differing(native, golden)
        assert not moved, f"outputs that differ from golden/canonical.json: {moved}"
        assert native["sha256"] == golden["sha256"]
    else:
        warnings.warn(f"golden digest not compared: it was computed on {golden}, this is {host}")


def test_collision_events_match_golden_summary():
    # The collision events of the canonical outputs, compared where digests
    # cannot be (another numpy version or machine): pairs, branches and
    # order exactly, t_star within 1e-12 of ``golden/events.json``.
    spec = importlib.util.spec_from_file_location("canonical", _GOLDEN / "canonical.py")
    canonical = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(canonical)
    got = canonical.events()
    want = json.loads((_GOLDEN / "events.json").read_text())
    assert got.keys() == want.keys() and got["campaign_n3"].keys() == want["campaign_n3"].keys()
    names = ("scenario_collisions", "census", "census_first_order")
    lists = [(name, got[name], want[name]) for name in names]
    lists += [(f"campaign_n3 {run}", got["campaign_n3"][run], events)
              for run, events in want["campaign_n3"].items()]
    assert sum(len(events) for _, _, events in lists) > 50
    for name, a, b in lists:
        assert [row[:3] for row in a] == [row[:3] for row in b], name
        shift = max((abs(float.fromhex(x[3]) - float.fromhex(y[3])) for x, y in zip(a, b)), default=0.0)
        assert shift <= 1e-12, name


def test_large_spread_regime_fails_to_lock():
    cfg = ScenarioConfig(n=50, m=1.0, kappa=1.0, d_v=2.0, d_omega0=1.0, seed=2,
                         t_end=30.0, stride=10, certify=False)
    rec = run_scenario(cfg)
    assert not rec.lock.locked
    assert rec.series.r.min() < 0.35  # the amplitude keeps visiting low values


def test_kappa_zero_with_certify_rejected():
    with pytest.raises(ConfigError):
        run_scenario(small_config(kappa=0.0, certify=True))


def test_series_columns_and_csv(tmp_path):
    cfg = small_config(t_end=12.0)
    rec = run_scenario(cfg)
    assert DiagnosticsSeries.COLUMNS == (
        "t", "R", "phi", "Delta", "D_theta", "D_omega", "P", "E",
        "cluster_fraction", "cluster_arc",
    )
    path = tmp_path / "series.csv"
    rec.series.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,R,phi,Delta,D_theta,D_omega,P,E,cluster_fraction,cluster_arc"
    save_run_record(rec, tmp_path / "run")
    saved = json.loads((tmp_path / "run" / "run.json").read_text())
    assert saved["config"]["N"] == cfg.n
    assert saved["provenance"]["code_version"]


def test_sample_instance_distribution_bounds():
    cfg = small_config(n=200, d_v=0.8, d_omega0=1.6)
    params, state0 = sample_instance(cfg)
    assert params.nu.min() >= -0.4 and params.nu.max() <= 0.4
    assert state0.omega.min() >= -0.8 and state0.omega.max() <= 0.8
    assert state0.theta.min() >= 0.0 and state0.theta.max() <= 2 * np.pi


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_figure_sweep_frozen_sample():
    base = small_config(n=10, t_end=15.0)
    result = figure_sweep("m_kappa", [0.5, 1.0], base)
    assert [row["value"] for row in result.rows] == [0.5, 1.0]
    # Frozen unit draws: identical nu samples across the sweep values.
    nu0 = result.records[0].params.nu
    nu1 = result.records[1].params.nu
    assert np.array_equal(nu0, nu1)


def test_figure_sweep_lock_delay_grows_with_inertia():
    base = ScenarioConfig(n=12, kappa=1.0, d_v=0.25, d_omega0=0.5, seed=4,
                          t_end=120.0, stride=10, certify=False)
    result = figure_sweep("m_kappa", [0.25, 1.0, 4.0], base)
    locks = [row["t_lock"] for row in result.rows]
    assert all(row["locked"] for row in result.rows)
    assert locks[0] < locks[-1]


def test_figure_sweep_blowup_names_value():
    with pytest.raises(IntegrationError, match=r"sweep value 1e\+308: non-finite state"):
        figure_sweep("Dv_over_kappa", [0.5, 1e308], small_config(n=4, t_end=5.0))


def test_scenario_blowup_names_seed():
    # One scenario names its seed, as campaigns and sweeps name theirs; a
    # census runs one scenario too.
    config = ScenarioConfig(n=4, kappa=1e308, t_end=0.1, certify=False, seed=3)
    want = "^scenario seed 3: non-finite state at t=0.03; check dt against 1/m$"
    for call in (run_scenario, collision_census):
        with pytest.raises(IntegrationError, match=want) as info:
            call(config)
        assert info.value.row is None


def test_figure_sweep_rejects_bad_axis():
    with pytest.raises(ConfigError):
        figure_sweep("bogus", [1.0], small_config())
    with pytest.raises(ConfigError):
        figure_sweep("m_kappa", [-1.0], small_config())


def test_figure_sweep_m_kappa_needs_positive_kappa():
    with pytest.raises(ConfigError, match=r"sweep axis 'm_kappa' .* kappa must be positive, got 0\.0"):
        figure_sweep("m_kappa", [0.5], small_config(kappa=0.0))


def test_figure_sweep_config_error_names_value():
    # kappa * 1e308 overflows to inf, which the scenario config rejects.
    with pytest.raises(
        ConfigError,
        match=r"^sweep value 1e\+308: invalid scenario config: D_V must be finite, got inf$",
    ):
        figure_sweep("Dv_over_kappa", [0.5, 1e308], small_config(kappa=2.0))


def test_figure_sweep_needs_a_value():
    # The CLI refuses an empty values list before it calls the library; the
    # library refuses it too, instead of returning a sweep with no rows.
    for values in ([], ()):
        with pytest.raises(ConfigError, match="^sweep values must be nonempty$"):
            figure_sweep("m_kappa", values, ScenarioConfig(n=4, t_end=1.0))


def test_figure_sweep_domega_axis_scales_initial_frequencies():
    # DOmega_over_kappa sets D_Omega0 = value * kappa on the shared unit
    # draws, and each value's record is that config's scenario run.
    base = small_config(n=6, kappa=2.0, t_end=5.0)
    result = figure_sweep("DOmega_over_kappa", [0.25, 1.5], base)
    for value, record in zip(result.values, result.records):
        config = dataclasses.replace(base, d_omega0=value * base.kappa)
        assert record.config == config
        assert json.dumps(record.to_json_dict()) == json.dumps(run_scenario(config).to_json_dict())
    low, high = (record.state0 for record in result.records)
    assert np.array_equal(low.theta, high.theta)
    assert np.array_equal(6.0 * low.omega, high.omega)  # D_Omega0 0.5 and 3.0, one rounding


def test_sweep_csv(tmp_path):
    base = small_config(n=6, t_end=12.0)
    result = figure_sweep("Dv_over_kappa", [0.2], base)
    path = tmp_path / "summary.csv"
    result.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("value,R_end,Delta_end,locked,t_lock")
    assert len(lines) == 2


def test_certified_three_oscillator_scenario_records_simple_and_n3():
    from kuramoto_lock.certify import check_n3, check_simple

    record = run_scenario(small_config(n=3, m=0.02, d_v=0.1, t_end=5.0, certify=True))
    assert list(record.certificates) == ["simple", "n3"]
    assert list(record.to_json_dict()["certificates"]) == ["simple", "n3"]
    simple = check_simple(record.params, record.r0, record.d_omega0)
    assert record.certificates["simple"].to_json_dict() == simple.to_json_dict()
    n3 = record.certificates["n3"]
    assert n3.passed and n3.to_json_dict() == check_n3(record.params).to_json_dict()


def test_collision_run_thins_its_record_to_the_plain_run():
    # A collision run records every step, then keeps every stride-th snapshot
    # and the last one: at stride 7 the 800 steps to t_end = 8 end off the
    # stride.  The series equal those of the run that records at stride 7,
    # bit for bit.
    plain = small_config(n=5, m=0.2, d_v=1.0, t_end=8.0, stride=7)
    thinned = run_scenario(dataclasses.replace(plain, collisions=True))
    assert thinned.collisions
    want = run_scenario(plain).series
    assert list(thinned.series.t[-2:]) == [7.98, 8.0]
    for f in dataclasses.fields(want):
        assert getattr(thinned.series, f.name).tobytes() == getattr(want, f.name).tobytes()


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

def _scenario_message(**fields):
    with pytest.raises(ConfigError) as excinfo:
        ScenarioConfig(**fields)
    return str(excinfo.value)


@pytest.mark.parametrize(
    "fields, expected",
    [
        ({"seed": -1}, "campaign seed must be a non-negative integer, got -1"),
        ({"seed": 2.5}, "campaign seed must be a non-negative integer, got 2.5"),
        ({"kappa": 0.0}, "campaign kappa must be > 0 to certify, got 0.0"),
        ({"kappa": -1.0}, None),
        ({"t_end": -1.0}, None),
        ({"dt": 0.0}, None),
        ({"n": 5.5}, None),
        ({"n": 0}, None),
        ({"n": "five"}, None),
        ({"n_instances": 0}, "n_instances must be >= 1"),
        ({"stride": 0}, None),
        ({"window": math.inf}, None),
        ({"eps_omega": -1e-4}, None),
        ({"eps_theta": "tight"}, None),
        ({"n_instances": "2"}, "n_instances must be an integer, got '2'"),
        ({"n_instances": 2.5}, "n_instances must be an integer, got 2.5"),
        ({"n_instances": True}, "n_instances must be an integer, got True"),
        ({"max_attempts_factor": 0}, "max_attempts_factor must be >= 1"),
        ({"max_attempts_factor": 1.5}, "max_attempts_factor must be an integer, got 1.5"),
        ({"max_attempts_factor": "3"}, "max_attempts_factor must be an integer, got '3'"),
        ({"lam": 0.7 + 0j}, "invalid campaign config: lam must be real, got (0.7+0j)"),
        ({"eta": np.complex128(2)}, "invalid campaign config: eta must be real, got "
                                    f"{np.complex128(2)!r}"),
        ({"kappa": 1 + 0j}, None),
        ({"lam": True}, "invalid campaign config: lam must be real, got True"),
        ({"lam": "0.7"}, "invalid campaign config: lam must be real, got '0.7'"),
        ({"lam": math.nan}, "invalid campaign config: lam must be finite, got nan"),
        ({"ell": -math.inf}, "invalid campaign config: ell must be finite, got -inf"),
        pytest.param({"eta": 10**400}, f"invalid campaign config: eta must be finite, got {10**400!r}",
                     id="eta-401-digits"),
        ({"eta": None}, "invalid campaign config: eta must be real, got None"),
        pytest.param({"seed": True}, "campaign seed must be a non-negative integer, got True",
                     id="seed-bool"),
    ],
)
def test_campaign_config_rejects_bad_fields(fields, expected):
    """Construction rejects each field by name; a field forwarded to every
    instance's ScenarioConfig is worded as the scenario words it."""
    if expected is None:
        expected = _scenario_message(**fields)
    with pytest.raises(ConfigError) as excinfo:
        CampaignConfig(**{"which": "simple", "n_instances": 100, **fields})
    assert str(excinfo.value) == expected


def test_campaign_config_integral_floats_run_as_ints():
    floats = CampaignConfig(which="simple", n_instances=5.0, seed=3.0, n=5.0, t_end=1.0,
                            stride=10.0, max_attempts_factor=np.uint16(200))
    ints = CampaignConfig(which="simple", n_instances=5, seed=3, n=5, t_end=1.0, stride=10)
    assert all(type(getattr(floats, attr)) is int
               for attr in ("n", "stride", "n_instances", "max_attempts_factor", "seed"))
    assert type(CampaignConfig(which="simple", n_instances=np.int64(1)).n_instances) is int
    assert certify_campaign(floats).to_json_dict() == certify_campaign(ints).to_json_dict()


@pytest.mark.parametrize(
    "fields, plain",
    [
        ({"kappa": Fraction(1)}, {"kappa": 1.0}),
        ({"seed": np.int64(3)}, {"seed": 3}),
        ({"lam": np.float32(0.7)}, {"lam": float(np.float32(0.7))}),
        ({"ell": Decimal("1.25"), "t_end": np.float64(1.0)}, {"ell": 1.25, "t_end": 1.0}),
    ],
    ids=["fraction", "int64", "float32", "decimal"],
)
def test_campaign_config_numbers_are_json_plain(tmp_path, fields, plain):
    """Numeric fields are stored as plain int or float, as ScenarioConfig
    stores them, so save_campaign writes config.json; the campaign's files
    equal those of the config written with plain numbers."""
    base = {"which": "simple", "n_instances": 1, "n": 5, "t_end": 1.0, "stride": 10}
    cc = CampaignConfig(**{**base, **fields})
    assert {key: getattr(cc, key) for key in plain} == plain
    assert all(type(getattr(cc, key)) is type(value) for key, value in plain.items())
    certify_campaign(cc, outdir=tmp_path / "given")
    certify_campaign(CampaignConfig(**{**base, **plain}), outdir=tmp_path / "plain")
    files = _persisted(tmp_path / "given")
    assert "config.json" in files and files == _persisted(tmp_path / "plain")


def test_simple_campaign_small():
    cc = CampaignConfig(which="simple", n_instances=3, seed=42, n=12,
                        t_end=120.0, stride=50)
    report = certify_campaign(cc)
    assert report.all_ok
    assert len(report.results) == 3
    assert all(r["certified"] for r in report.results)
    assert all(r["locked"] for r in report.results)


def test_campaign_defect_reporting():
    # Impossible tolerance turns every instance into a reported defect with
    # its reproduction seed.
    cc = CampaignConfig(which="simple", n_instances=2, seed=7, n=10,
                        t_end=40.0, stride=25, eps_omega=1e-15)
    report = certify_campaign(cc)
    assert not report.all_ok
    assert len(report.defects) == 2
    assert all("seed" in d for d in report.defects)


def test_nonsync_family_not_certified():
    # Zero-centroid data: every locking certificate refuses, and the
    # simulation never locks, consistently.
    from kuramoto_lock import PhaseState, SystemParams, check_simple
    from kuramoto_lock.experiments import run_instance

    params = SystemParams(0.5, 1.0, np.array([0.4, 0.4, -0.4, -0.4]))
    state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.5, 0.5 + np.pi]), np.zeros(4))
    r0 = abs(np.exp(1j * state0.theta).mean())
    assert not check_simple(params, r0, 0.0).passed
    cfg = small_config(n=4, t_end=30.0, certify=False)
    rec = run_instance(cfg, params, state0)
    assert not rec.lock.locked


def test_campaign_partial_small():
    cc = CampaignConfig(which="partial", n_instances=2, seed=3, n=10,
                        t_end=120.0, stride=10, lam=0.7, ell=1.0, eta=2.0)
    report = certify_campaign(cc)
    assert report.all_ok
    for row in report.results:
        assert row["persist_max"] <= 1.0 + 1e-6
        assert row["tail_diameter"] <= row["tail_bound"] + 1e-3


# Partial plans where the former tail rule, every snapshot at or after
# t_end - window, read other snapshots than the last lock window: at stride 7
# (h = 0.07) and window 9.9 it held one more, and at t_end = 15 it ended on
# the shorter final step, which the lock window leaves out.
@pytest.mark.parametrize("t_end, window", [(200.0, 9.9), (15.0, 10.0)])
def test_partial_tail_reads_the_lock_window(t_end, window):
    from kuramoto_lock import experiments
    from kuramoto_lock.diagnostics import ClusterReport, _lock_window, arrangement_check
    from kuramoto_lock.integrate import TrajectoryRecord

    cc = CampaignConfig(which="partial", n_instances=2, seed=3, n=10, t_end=t_end, stride=7,
                        window=window)
    report = certify_campaign(cc)
    assert report.all_ok
    subset_a = experiments._partial_cluster(cc)
    for row in report.results:
        params, state0, _ = experiments._campaign_instance(cc, row["index"])
        cfg = experiments._integrator_config(experiments._campaign_scenario(cc, params), params)
        record = record_trajectory(params, state0, cfg)
        s, length = _lock_window(record.t, window)
        former = np.flatnonzero(record.t >= record.t[-1] - window - 1e-12)
        assert (former[0], former[-1] + 1) != (s - length, s)
        tail = record.theta[s - length:s][:, list(subset_a)]
        assert row["tail_diameter"] == float((tail.max(axis=1) - tail.min(axis=1)).max())
        # The tail-averaged gaps read the same snapshots.
        cluster = ClusterReport(subset_a, (0,) * len(subset_a), 0.0, 0.7)
        window_record = TrajectoryRecord(*(a[s - length:s] for a in (record.t, record.theta, record.omega)))
        arrangement = arrangement_check(window_record, params, cluster, row["tail_bound"], cc.lam)
        assert (row["arrangement_lower_slack"], row["arrangement_upper_slack"]) == (
            arrangement.worst_lower_slack, arrangement.worst_upper_slack)


def test_partial_campaign_without_a_lock_window_fails_named():
    # As a scenario run records lock: null, an instance whose lock window
    # fits no snapshots fails its tail checks by name, with NaN values.
    cc = CampaignConfig(which="partial", n_instances=2, seed=3, n=10, t_end=5.0, stride=10,
                        window=10.0)
    report = certify_campaign(cc)
    assert not report.all_ok and len(report.defects) == 2
    for row in report.results:
        assert row["reason"] == "no lock window of 10.0 fits the snapshots"
        assert row["persist_max"] <= 1.0 and row["tail_bound"] > 0.0
        for key in ("tail_diameter", "arrangement_c", "arrangement_lower_slack",
                    "arrangement_upper_slack"):
            assert math.isnan(row[key])


def test_partial_campaign_ending_before_t1_fails_named():
    # A record that ends before t1 = eta*m holds no snapshot to check arc
    # persistence on: the instance fails by name with a NaN persist_max.
    cc = CampaignConfig(which="partial", n_instances=1, n=10, t_end=0.01, stride=1, window=0.005)
    (row,) = certify_campaign(cc).results
    assert row["certified"] and not row["ok"]
    assert row["reason"].startswith("no snapshot at or after t1 = ")
    assert math.isnan(row["persist_max"])


def test_dense_records_refine_to_the_same_events():
    # The one dense record of a collision run, however it was made: alone,
    # through run_instance, and as rows of a batch.
    from kuramoto_lock import experiments
    from kuramoto_lock.experiments import run_instance
    from kuramoto_lock.integrate import collision_events_from_record, detect_collisions

    config = small_config(m=0.2, d_v=2.0, d_omega0=2.0, t_end=8.0, collisions=True)
    params, state0 = sample_instance(config)
    cfg = _integrator_config(config, params)
    want = detect_collisions(params, state0, cfg)
    assert len(want) > 5
    assert list(run_instance(config, params, state0).collisions) == want
    seen = experiments._recorded(
        [(config, params, state0)] * 3, ["a", "b", "c"],
        lambda k, record: collision_events_from_record(params, record, cfg),
    )
    assert seen == [want] * 3


def _persisted(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("which", ["simple", "n3", "first_order", "partial"])
def test_campaign_batched_matches_per_instance(tmp_path, monkeypatch, which):
    from kuramoto_lock import experiments
    from kuramoto_lock.experiments import run_instance

    cc = CampaignConfig(which=which, n_instances=3, seed=9, n=8, t_end=30.0, stride=25)
    report = certify_campaign(cc, outdir=tmp_path / "batched")
    files = _persisted(tmp_path / "batched")
    records = 0 if which == "partial" else cc.n_instances
    assert len(files) == 3 + 2 * records

    for row in report.results:
        attempt = row["index"]
        params, state0, cert = experiments._campaign_instance(cc, attempt)
        config = experiments._campaign_scenario(cc, params)
        if which == "partial":
            cfg = experiments._integrator_config(config, params)
            alone = record_trajectory(params, state0, cfg)
            expected = experiments._verify_partial(cc, params, cert, alone)
            assert json.dumps({**row, **expected}) == json.dumps(row)
            continue
        record = run_instance(config, params, state0)
        assert files[f"records/run_{attempt:05d}.json"] == (
            json.dumps(record.to_json_dict()) + "\n"
        ).encode()
        record.series.to_csv(tmp_path / "alone.csv")
        assert files[f"series/run_{attempt:05d}.csv"] == (tmp_path / "alone.csv").read_bytes()

    # A budget of two instances splits the group into batches of two and one.
    params = experiments._campaign_instance(cc, report.results[0]["index"])[0]
    cfg = experiments._integrator_config(experiments._campaign_scenario(cc, params), params)
    monkeypatch.setattr(experiments, "_BATCH_ELEMENTS", 2 * experiments._n_snapshots(cfg) * params.n)
    certify_campaign(cc, outdir=tmp_path / "split")
    assert _persisted(tmp_path / "split") == files


@pytest.mark.parametrize("which", ["simple", "n3", "first_order"])
def test_persisted_campaign_record_replays_from_its_own_file(tmp_path, which):
    """A campaign's run record holds all that run_instance needs: its config
    and instance, which agree, rerun to the file's bytes and its series."""
    from kuramoto_lock import PhaseState
    from kuramoto_lock.experiments import _write_json, run_instance

    cc = CampaignConfig(which=which, n_instances=2, seed=9090, n=6, t_end=20.0, stride=10)
    out = tmp_path / "campaign"
    certify_campaign(cc, outdir=out)
    paths = sorted((out / "records").glob("run_*.json"))
    assert len(paths) == cc.n_instances
    for path in paths:
        doc = json.loads(path.read_text())
        config, inst = ScenarioConfig.from_dict(doc["config"]), doc["instance"]
        params = SystemParams(config.m, config.kappa, inst["nu"])
        record = run_instance(config, params, PhaseState(0.0, inst["theta0"], inst["omega0"]))
        _write_json(tmp_path / "replay.json", record.to_json_dict())
        assert (tmp_path / "replay.json").read_bytes() == path.read_bytes()
        record.series.to_csv(tmp_path / "replay.csv")
        assert (tmp_path / "replay.csv").read_bytes() == (
            out / "series" / f"{path.stem}.csv").read_bytes()


def test_partial_campaign_outdir_holds_only_its_tables(tmp_path):
    # A partial instance writes no run record, so no records/ or series/.
    cc = CampaignConfig(which="partial", n_instances=1, seed=3333, n=10, t_end=5.0, stride=10)
    certify_campaign(cc, outdir=tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "campaign.json", "config.json", "summary.csv"]


@pytest.mark.parametrize("which", ["simple", "partial"])
def test_campaign_samples_each_attempt_once(monkeypatch, which):
    from kuramoto_lock import experiments

    calls = Counter()
    sample = experiments._campaign_instance

    def counting(cc, attempt):
        calls[attempt] += 1
        return sample(cc, attempt)

    monkeypatch.setattr(experiments, "_campaign_instance", counting)
    cc = CampaignConfig(which=which, n_instances=2, seed=3, n=10, t_end=15.0, stride=10)
    report = certify_campaign(cc)
    assert len(report.results) == 2
    assert sorted(calls) == list(range(max(calls) + 1))
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("kind", ["campaign", "sweep"])
def test_one_batch_alive_at_a_time(monkeypatch, kind):
    from kuramoto_lock import experiments

    if kind == "campaign":
        cc = CampaignConfig(which="simple", n_instances=3, seed=9, n=8, t_end=30.0, stride=25)
        params = experiments._campaign_instance(cc, 0)[0]
        config = experiments._campaign_scenario(cc, params)
        run = lambda: certify_campaign(cc)
    else:
        config = small_config(n=6, t_end=12.0)
        run = lambda: figure_sweep("m_kappa", [0.5, 1.0, 2.0], config)
    cfg = experiments._integrator_config(config, sample_instance(config)[0])
    # One instance per batch: three batches.
    monkeypatch.setattr(experiments, "_BATCH_ELEMENTS", experiments._n_snapshots(cfg) * config.n)
    earlier = []
    record = experiments.record_trajectory

    def checking(*args):
        gc.collect()
        assert all(ref() is None for ref in earlier)
        rec = record(*args)
        earlier.extend([weakref.ref(rec.theta), weakref.ref(rec.omega)])
        return rec

    monkeypatch.setattr(experiments, "record_trajectory", checking)
    run()
    assert len(earlier) >= 2 * 3


# ---------------------------------------------------------------------------
# Collision census
# ---------------------------------------------------------------------------

def test_census_locked_has_empty_tail():
    cfg = ScenarioConfig(n=5, m=0.1, kappa=1.0, d_v=0.1, d_omega0=0.5, seed=6,
                         t_end=60.0, stride=10, certify=False)
    census = collision_census(cfg)
    assert census.m_kappa == pytest.approx(0.1)
    assert census.locked
    assert census.tail_ok
    assert not census.tail_violations


def test_census_nonsync_counts_grow_linearly():
    from kuramoto_lock import PhaseState, SystemParams
    from kuramoto_lock.experiments import run_instance

    def census_count(t_end):
        params = SystemParams(0.05, 0.2, np.array([1.0, 1.0, 2.0, 2.0]))
        state0 = PhaseState(0.0, np.array([0.0, np.pi, 0.0, np.pi]), np.zeros(4))
        cfg = small_config(n=4, m=0.05, kappa=0.2, t_end=t_end, collisions=True)
        rec = run_instance(cfg, params, state0)
        return len(rec.collisions)

    c20 = census_count(20.0)
    c40 = census_count(40.0)
    assert c40 >= 2 * c20 - 4
    assert c40 <= 2 * c20 + 4


def test_census_identical_pair_excluded():
    from kuramoto_lock import PhaseState, SystemParams
    from kuramoto_lock.experiments import run_instance

    params = SystemParams(0.1, 0.5, np.array([0.2, 0.2, -0.4]))
    state0 = PhaseState(0.0, np.array([1.0, 1.0, 3.0]), np.array([0.1, 0.1, 0.0]))
    cfg = small_config(n=3, m=0.1, kappa=0.5, t_end=30.0, collisions=True)
    rec = run_instance(cfg, params, state0)
    assert not any((ev.i, ev.j) == (0, 1) for ev in rec.collisions)

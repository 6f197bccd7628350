"""CLI surface: exit codes, config validation, overrides, JSON output."""

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kuramoto_lock import SystemParams, diameter, order_state
from kuramoto_lock.certify import (
    CertificateReport,
    FreeParams,
    check_first_order,
    check_framework,
    check_n3,
    check_partial_locking,
    check_partial_locking_initial,
    check_simple,
)
from kuramoto_lock.cli import _CERT_KEYS, _run_certifier, main
from kuramoto_lock.experiments import ConfigError


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def sim_config(tmp_path):
    return write(
        tmp_path / "sim.json",
        {"N": 6, "m": 0.5, "kappa": 1.0, "D_V": 0.2, "D_Omega0": 0.2,
         "seed": 3, "t_end": 15.0, "stride": 10},
    )


def test_simulate_success(tmp_path, sim_config, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--config", sim_config, "--out", str(out), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["R0"] > 0
    assert (out / "run.json").exists()
    assert (out / "run_series.csv").exists()


def test_simulate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"N": 5,,}')
    code = main(["simulate", "--config", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.json" in err and "line" in err


def test_simulate_unknown_field(tmp_path):
    cfg = write(tmp_path / "c.json", {"N": 5, "wat": 1})
    assert main(["simulate", "--config", cfg]) == 1


def test_simulate_kappa_zero_with_certifier(tmp_path):
    cfg = write(tmp_path / "c.json", {"N": 5, "kappa": 0.0, "t_end": 5.0, "certify": True})
    assert main(["simulate", "--config", cfg]) == 1


def test_simulate_overrides(tmp_path, sim_config, capsys):
    out = tmp_path / "out2"
    code = main(
        ["simulate", "--config", sim_config, "--out", str(out), "--json",
         "--set", "t_end=10.0", "--seed", "9"]
    )
    assert code == 0
    saved = json.loads((out / "run.json").read_text())
    assert saved["config"]["t_end"] == 10.0
    assert saved["config"]["seed"] == 9
    assert "override applied" in capsys.readouterr().err


def test_simulate_override_type_checked(tmp_path, sim_config):
    assert main(["simulate", "--config", sim_config, "--set", "t_end=soon"]) == 1


def test_simulate_numeric_abort(tmp_path, capsys):
    # Natural frequencies near the float limit overflow in the first step.
    cfg = write(tmp_path / "c.json", {"N": 4, "D_V": 1e308, "t_end": 20, "certify": False})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric abort: scenario seed 0: non-finite state at t=0.01")


def test_collide_numeric_abort_names_seed(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", {"N": 4, "kappa": 1e308, "t_end": 0.1, "certify": False})
    assert main(["collide", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "numeric abort: scenario seed 3: non-finite state at t=0.03; check dt against 1/m\n"
    )


def test_simulate_rejects_nan_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"N": 5, "t_end": 20.0, "kappa": 2.0, "eps_omega": NaN}')
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "eps_omega must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_integral_float_config(tmp_path):
    """An integral float on an integer key runs as the int config does."""
    for name, n in (("int", 5), ("float", 5.0)):
        cfg = write(tmp_path / f"{name}.json", {"N": n, "t_end": 1.0})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    for file in ("run.json", "run_series.csv"):
        assert (tmp_path / "float" / file).read_bytes() == (tmp_path / "int" / file).read_bytes()


def test_certify_pass_and_json(tmp_path, capsys):
    cfg = write(
        tmp_path / "cert.json",
        {"which": "simple",
         "params": {"m": 0.0096, "kappa": 1.0, "nu": [-0.16, 0.16]},
         "R0": 0.8, "D_omega0": 0.0768},
    )
    code = main(["certify", "--config", cfg, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["free_params"]["lambda"] > 0.5
    assert any(c["name"] == "xyz_criterion" for c in payload["conditions"])


def test_certify_bipolar_not_certified(tmp_path, capsys):
    # Bipolar phases: the centroid vanishes and certification must refuse.
    cfg = write(
        tmp_path / "cert.json",
        {"which": "simple",
         "params": {"m": 0.01, "kappa": 1.0, "nu": [0.0, 0.0, 0.0, 0.0]},
         "theta0": [0.0, math.pi, 1.0, 1.0 + math.pi],
         "D_omega0": 0.0},
    )
    code = main(["certify", "--config", cfg, "--json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    # With an exact zero the refusal is pinned on the order parameter itself.
    cfg = write(
        tmp_path / "cert0.json",
        {"which": "simple",
         "params": {"m": 0.01, "kappa": 1.0, "nu": [0.0, 0.0, 0.0, 0.0]},
         "R0": 0.0, "D_omega0": 0.0},
    )
    code = main(["certify", "--config", cfg, "--json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    front = [c for c in payload["conditions"] if c["name"] == "initial_order_parameter"]
    assert front and not front[0]["satisfied"]


def test_certify_corollary_gates_on_initial_arc(tmp_path, capsys):
    doc = {
        "which": "corollary",
        "params": {"m": 0.01, "kappa": 1.0,
                   "nu": np.concatenate([np.linspace(-0.03, 0.03, 7), [0.02, -0.02, 0.0]]).tolist()},
        "theta0": np.concatenate([np.linspace(-0.1, 0.1, 7), [3.0, 3.1, 3.2]]).tolist(),
        "D_omega0": 0.05,
        "subset_a": list(range(7)),
        "lambda": 0.7, "ell": 1.0, "eta": 2.0,
    }
    assert main(["certify", "--config", write(tmp_path / "tight.json", doc), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["which"] == "corollary" and payload["pass"] is True
    # A wide initial cluster arc fails the gate while the budgets still hold.
    doc["theta0"] = np.concatenate([np.linspace(-0.6, 0.6, 7), [3.0, 3.1, 3.2]]).tolist()
    assert main(["certify", "--config", write(tmp_path / "wide.json", doc), "--json"]) == 2
    conditions = json.loads(capsys.readouterr().out)["conditions"]
    assert [c["name"] for c in conditions if not c["satisfied"]] == ["initial_cluster_arc"]


def test_certify_n3_wrong_size(tmp_path):
    cfg = write(
        tmp_path / "cert.json",
        {"which": "n3", "params": {"m": 0.01, "kappa": 1.0, "nu": [0, 0, 0, 0, 0]}},
    )
    assert main(["certify", "--config", cfg]) == 1


def test_certify_n3_pass(tmp_path):
    cfg = write(
        tmp_path / "cert.json",
        {"which": "n3", "params": {"m": 0.01, "kappa": 1.0, "nu": [0.0, 0.0, 0.0]}},
    )
    assert main(["certify", "--config", cfg]) == 0


def test_certify_first_order_boundary(tmp_path):
    base = {"which": "first_order", "R0": 0.5, "D_omega0": 0.0}
    cfg = write(
        tmp_path / "a.json",
        {**base, "params": {"m": 0.0, "kappa": 6.5, "nu": [-0.5, 0.5]}},
    )
    assert main(["certify", "--config", cfg]) == 0
    cfg = write(
        tmp_path / "b.json",
        {**base, "params": {"m": 0.0, "kappa": 6.0, "nu": [-0.5, 0.5]}},
    )
    assert main(["certify", "--config", cfg]) == 2


def test_sweep_command(tmp_path, capsys):
    cfg = write(
        tmp_path / "sweep.json",
        {"axis": "Dv_over_kappa", "values": [0.2],
         "base": {"N": 6, "m": 0.5, "kappa": 1.0, "D_Omega0": 0.2, "seed": 1,
                  "t_end": 12.0, "stride": 10, "certify": False}},
    )
    out = tmp_path / "sweep_out"
    code = main(["sweep", "--config", cfg, "--out", str(out), "--json"])
    assert code == 0
    assert (out / "summary.csv").exists()
    payload = json.loads(capsys.readouterr().out)
    assert payload["axis"] == "Dv_over_kappa"


def test_sweep_numeric_abort_names_value(tmp_path, capsys):
    cfg = write(
        tmp_path / "sweep.json",
        {"axis": "Dv_over_kappa", "values": [0.5, 1e308],
         "base": {"N": 4, "t_end": 5.0, "certify": False}},
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "numeric abort: sweep value 1e+308: non-finite state" in capsys.readouterr().err


def test_sweep_rejects_zero_kappa_on_m_axis(tmp_path, capsys):
    cfg = write(
        tmp_path / "sweep.json",
        {"axis": "m_kappa", "values": [0.5],
         "base": {"N": 4, "t_end": 1.0, "kappa": 0, "certify": False}},
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: sweep axis 'm_kappa'" in err and "kappa must be positive" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


_SWEEP_M = {"axis": "m_kappa", "values": [0.5], "base": {"N": 4, "t_end": 1.0, "certify": False}}


@pytest.mark.parametrize(
    "doc, named",
    [
        ({**_SWEEP_M, "values": [None]}, "sweep value None "),
        ({**_SWEEP_M, "values": [0.5, [0.5]]}, "sweep value [0.5] "),
        ({**_SWEEP_M, "values": [{"v": 0.5}]}, "sweep value {'v': 0.5} "),
        ({**_SWEEP_M, "values": [True]}, "sweep value True "),
        ({**_SWEEP_M, "values": ["0.5"]}, "sweep value '0.5' "),
        ({**_SWEEP_M, "fresh_samples": "false"}, "'fresh_samples' must be true or false, got 'false'"),
        ({**_SWEEP_M, "fresh_samples": 1}, "'fresh_samples' must be true or false, got 1"),
        ({**_SWEEP_M, "fresh_sample": True}, "unknown sweep config key(s) 'fresh_sample'"),
    ],
)
def test_sweep_documents_read_strictly(tmp_path, capsys, doc, named):
    # Values follow the scenario reader's number rule (real numbers, no
    # bools or strings), fresh_samples is a JSON boolean, and no other key
    # is read.
    cfg = write(tmp_path / "sweep.json", doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("simulate", {"N": 4, "t_end": 1.0, "m": 10**400}, "m must be finite"),
        ("sweep", {**_SWEEP_M, "values": [0.5, 10**400]}, "sweep values must be positive and finite"),
        ("simulate", {"N": 4, "t_end": 1.0, "dt": 1e-320}, "t_end=1.0 over dt=1e-320"),
        ("simulate", {"N": 4, "t_end": 1.0, "m": 1e-320}, "t_end=1.0 over dt=2.5e-320"),
        ("simulate", {"N": 4, "t_end": 1e308, "dt": 1e-3}, "t_end=1e+308 over dt=0.001"),
    ],
    ids=["simulate", "sweep", "step_count_tiny_dt", "step_count_tiny_m", "step_count_huge_t_end"],
)
def test_numbers_too_large_for_a_float_are_input_errors(tmp_path, capsys, command, doc, named):
    # A 401-digit integer passes the schema's bounds but converts to no float,
    # and so does the step count t_end/dt of a tiny dt (or m, which caps dt
    # at 2.5 m) or a huge t_end.
    cfg = write(tmp_path / "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"N": 4, "t_end": 1e13, "dt": 1e-3, "stride": 1000000000000},
        {"N": 4, "t_end": 1e300, "dt": 1e-3},
    ],
    ids=["long_stride", "huge_t_end"],
)
def test_plans_of_2_53_steps_are_input_errors(tmp_path, capsys, doc):
    # Schema-valid documents whose plan float64 cannot time: refused when
    # the run's config is made, naming t_end, dt and the stride, instead of
    # marching for years or failing in numpy's allocation.
    cfg = write(tmp_path / "c.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: IntegratorConfig(dt={doc['dt']!r}, t_end={doc['t_end']!r}, "
                          f"observer_stride={doc.get('stride', 10)}) plans ")
    assert "2**53 steps" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_fresh_samples_boolean(tmp_path):
    cfg = write(tmp_path / "sweep.json", {**_SWEEP_M, "values": [0.5, 2], "fresh_samples": True})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_dotted_overrides_set_nested_values(tmp_path, capsys):
    # A dotted --set path sets a key inside an object of the config, and
    # creates the object when the config holds none; either sweep equals the
    # one whose config holds the values.
    want = tmp_path / "want"
    doc = {**_SWEEP_M, "base": {**_SWEEP_M["base"], "N": 6}}
    assert main(["sweep", "--config", write(tmp_path / "want.json", doc), "--out", str(want)]) == 0
    capsys.readouterr()
    cases = [
        ("inside", _SWEEP_M, ["base.N=6"], ["base.N = 6"]),
        ("created", {"axis": "m_kappa", "values": [0.5]},
         ["base.N=6", "base.t_end=1.0", "base.certify=false"],
         ["base.N = 6", "base.t_end = 1.0", "base.certify = False"]),
    ]
    for name, doc, sets, applied in cases:
        out = tmp_path / name
        argv = ["sweep", "--config", write(tmp_path / f"{name}.json", doc), "--out", str(out)]
        assert main(argv + [arg for item in sets for arg in ("--set", item)]) == 0
        assert capsys.readouterr().err.splitlines() == [f"override applied: {a}" for a in applied]
        for file in ("summary.csv", "series_0.5.csv"):
            assert (out / file).read_bytes() == (want / file).read_bytes()


def test_certify_partial_empty_subset_b(tmp_path, capsys):
    doc = {
        "which": "partial",
        "params": {"m": 0.01, "kappa": 1.0, "nu": [0.0, 0.0, 0.0, 0.0]},
        "R0": 0.9, "D_omega0": 0.0,
        "subset_a": [0, 1, 2], "subset_b": [],
        "lambda": 0.7, "ell": 1.0, "eta": 2.0,
    }
    assert main(["certify", "--config", write(tmp_path / "cert.json", doc)]) == 1
    assert capsys.readouterr().err == "error: subset_b must be nonempty\n"


@pytest.mark.parametrize("which", ["first_order", "framework"])
def test_certify_rejects_r0_above_one(tmp_path, capsys, which):
    doc = {"which": which, "params": {"m": 0, "kappa": 0.1, "nu": [-0.5, 0.5]},
           "R0": 100, "D_omega0": 0.0}
    if which == "framework":
        doc.update(R0=3.0, free={"eta": 2.0, "delta": 0.5, "lambda": 0.7, "ell": 1.0})
    assert main(["certify", "--config", write(tmp_path / "cert.json", doc)]) == 1
    assert capsys.readouterr().err == "error: r0 cannot exceed 1\n"


@pytest.mark.parametrize("command", ["sweep", "figures"])
def test_sweep_rejects_values_sharing_a_series_file(tmp_path, capsys, command):
    # series_{value:g}.csv keeps six significant digits: two values that
    # agree to six digits would write one file.
    cfg = write(
        tmp_path / "sweep.json",
        {"axis": "Dv_over_kappa", "values": [0.5, 0.25, 0.5000001],
         "base": {"N": 4, "t_end": 1.0, "certify": False}},
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: sweep values 0.5 and 0.5000001 share the series file series_0.5.csv\n"
    assert not (tmp_path / "out").exists()


def test_figures_command(tmp_path):
    cfg = write(
        tmp_path / "sweep.json",
        {"axis": "m_kappa", "values": [0.5],
         "base": {"N": 6, "m": 1.0, "kappa": 1.0, "D_V": 0.2, "D_Omega0": 0.2,
                  "seed": 1, "t_end": 12.0, "stride": 10, "certify": False}},
    )
    out = tmp_path / "figs"
    assert main(["figures", "--config", cfg, "--out", str(out)]) == 0
    svg = (out / "R.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert (out / "Delta.svg").exists()


def test_figures_plot_each_curve_on_its_own_times(tmp_path):
    # Under the dt <= 2.5 m cap the m = 0.001 run records 81 snapshots at
    # dt 0.0025 and the m = 1 run 21: each curve keeps all its finite points
    # and ends at t_end, the right end of the time axis.
    cfg = write(tmp_path / "sweep.json", {"axis": "m_kappa", "values": [1.0, 0.001],
                                          "base": {"N": 6, "t_end": 2.0, "certify": False}})
    out = tmp_path / "figs"
    assert main(["figures", "--config", cfg, "--out", str(out)]) == 0
    series = [np.genfromtxt(out / f"series_{value:g}.csv", delimiter=",", names=True)
              for value in (1.0, 0.001)]
    assert [len(s) for s in series] == [21, 81]
    for chart, column in (("R.svg", "R"), ("Delta.svg", "Delta")):
        points = re.findall(r'points="([^"]*)"', (out / chart).read_text())
        assert len(points) == len(series)
        for pts, s in zip(points, series):
            xy = [pair.split(",") for pair in pts.split()]
            assert len(xy) == np.isfinite(s[column]).sum()
            assert s["t"][-1] == 2.0 and xy[-1][0] == "670.00"  # width 720 less padding 50


def test_collide_command(tmp_path, capsys):
    cfg = write(
        tmp_path / "col.json",
        {"N": 4, "m": 0.1, "kappa": 0.5, "D_V": 1.5, "D_Omega0": 0.5,
         "seed": 2, "t_end": 20.0, "stride": 10, "certify": False},
    )
    code = main(["collide", "--config", cfg, "--json", "--out", str(tmp_path / "census")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "counts" in payload and "tail_ok" in payload
    assert (tmp_path / "census" / "census.json").exists()


def test_collide_prints_totals_and_pairs(tmp_path, capsys):
    # Without --json, collide prints the totals line, then one line per pair.
    from kuramoto_lock import ScenarioConfig, collision_census

    doc = {"N": 4, "m": 0.1, "kappa": 0.5, "D_V": 1.5, "D_Omega0": 0.5,
           "seed": 2, "t_end": 20.0, "stride": 10, "certify": False}
    assert main(["collide", "--config", write(tmp_path / "col.json", doc)]) == 0
    census = collision_census(ScenarioConfig.from_dict(doc))
    assert len(census.counts) > 1
    lines = [f"collisions: {census.total} events, locked={census.locked}, tail_ok={census.tail_ok}"]
    lines += [f"  pair {pair}: {count}" for pair, count in sorted(census.counts.items())]
    assert capsys.readouterr().out.splitlines() == lines


def test_collide_zero_inertia_exits_zero(tmp_path, capsys):
    # A locked zero-inertia census: collisions, none in the lock tail.
    doc = {"N": 10, "m": 0, "kappa": 2.0, "D_V": 0.5, "t_end": 60.0}
    assert main(["collide", "--config", write(tmp_path / "col.json", doc), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["locked"] is True and payload["tail_ok"] is True and payload["total"] > 0


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_selftest_perturbed_fails(monkeypatch):
    # Negative control: a threshold off by 1e-3 fails the harness.
    from kuramoto_lock import certify, selftest

    monkeypatch.setattr(selftest, "n3_threshold", lambda: certify.n3_threshold() + 1e-3)
    assert main(["selftest"]) != 0


def test_selftest_json(capsys):
    assert main(["selftest", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert len(payload["checks"]) >= 20


def test_unknown_flag_is_input_error():
    assert main(["simulate", "--nope"]) == 1


@pytest.mark.parametrize(
    "doc, has_lock",
    [
        ({"N": 5, "t_end": 9.95, "stride": 100, "window": 9.9}, False),
        ({"N": 5, "t_end": 0.05, "window": 0.01}, False),
        ({"N": 5, "t_end": 0.15, "window": 0.12}, True),
    ],
)
def test_simulate_lock_window_configs(tmp_path, capsys, doc, has_lock):
    # A window that fits no equally spaced snapshots, or holds only one,
    # reports no verdict.
    cfg = write(tmp_path / "c.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--json"]) == 0
    assert (json.loads(capsys.readouterr().out)["locked"] is not None) == has_lock


_N3 = {"which": "n3"}
_SIMPLE = {"which": "simple", "params": {"m": 0.01, "kappa": 1.0, "nu": [0.0, 0.0, 0.0]}}
_SWEEP_LIST_BASE = {"axis": "Dv_over_kappa", "values": [0.2], "base": [1]}


@pytest.mark.parametrize(
    "command, doc, extra",
    [
        ("certify", _N3, []),
        ("certify", {**_N3, "params": {"m": 0.01, "kappa": 1.0}}, []),
        ("certify", {**_N3, "params": [0.01, 1.0, [0, 0, 0]]}, []),
        ("certify", [], []),
        ("certify", {**_SIMPLE, "theta0": {"0": 1.0}, "D_omega0": 0.1}, []),
        ("certify", {**_SIMPLE, "R0": [0.5], "omega0": [0.0, 0.0, 0.0]}, []),
        ("sweep", [1, 2], []),
        ("figures", [1, 2], []),
        ("collide", [1, 2], []),
        ("simulate", [1, 2], ["--seed", "3"]),
        ("sweep", [1, 2], ["--seed", "3"]),
        ("sweep", _SWEEP_LIST_BASE, ["--seed", "3"]),
        ("sweep", _SWEEP_LIST_BASE, []),
        ("simulate", [1, 2], ["--set", "N=3"]),
        ("simulate", "N=5", []),
    ],
)
def test_malformed_documents_are_input_errors(tmp_path, capsys, command, doc, extra):
    cfg = write(tmp_path / "doc.json", doc)
    assert main([command, "--config", cfg, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if not isinstance(doc, dict):
        assert "doc.json" in err


# ---------------------------------------------------------------------------
# The certify reader against the reader it replaced
# ---------------------------------------------------------------------------

def _oracle_params(doc: dict) -> SystemParams:
    try:
        p = doc["params"]
        return SystemParams(float(p["m"]), float(p["kappa"]), np.asarray(p["nu"], dtype=float))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"certify config needs params.m/.kappa/.nu: {exc}") from None


def _oracle_instance(doc: dict) -> tuple[SystemParams, float, float]:
    params = _oracle_params(doc)
    try:
        if "theta0" in doc:
            theta0 = np.asarray(doc["theta0"], dtype=float)
            if theta0.size != params.n:
                raise ConfigError("theta0 length does not match nu")
            r0 = order_state(theta0).r
        elif "R0" in doc:
            r0 = float(doc["R0"])
        else:
            raise ConfigError("certify config needs either theta0 or R0")
        if "omega0" in doc:
            omega0 = np.asarray(doc["omega0"], dtype=float)
            if omega0.size != params.n:
                raise ConfigError("omega0 length does not match nu")
            d_om = diameter(omega0)
        elif "D_omega0" in doc:
            d_om = float(doc["D_omega0"])
        else:
            raise ConfigError("certify config needs either omega0 or D_omega0")
    except TypeError as exc:
        raise ConfigError(f"certify config initial data invalid: {exc}") from None
    return params, r0, d_om


def _oracle_certifier(doc: dict) -> CertificateReport:
    """The certify reader before the number rule: bare float() and int()."""
    which = doc.get("which", "simple")
    if which == "n3":
        params = _oracle_params(doc)
        if params.n != 3:
            raise ConfigError("the n3 certificate requires exactly 3 oscillators")
        return check_n3(params)
    params, r0, d_om = _oracle_instance(doc)
    if which == "simple":
        return check_simple(params, r0, d_om)
    if which == "first_order":
        return check_first_order(params, r0)
    if which == "framework":
        try:
            f = doc["free"]
            free = FreeParams(float(f["eta"]), float(f["delta"]), float(f["lambda"]), float(f["ell"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"framework certify needs free.eta/delta/lambda/ell: {exc}") from None
        return check_framework(params, r0, d_om, free)
    if which in ("partial", "corollary"):
        try:
            subset_a = [int(i) for i in doc["subset_a"]]
            subset_b = [int(i) for i in doc.get("subset_b", range(params.n))]
            lam = float(doc["lambda"])
            ell = float(doc["ell"])
            eta = float(doc["eta"])
            t1 = float(doc.get("t1", eta * params.m))
            d_om_a = float(doc.get("D_omega0_A", d_om))
            d_om_b = float(doc.get("D_omega0_B", d_om))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{which} certify config invalid: {exc}") from None
        if which == "corollary":
            if "theta0" not in doc:
                raise ConfigError("the corollary certificate needs explicit theta0")
            return check_partial_locking_initial(
                params, np.asarray(doc["theta0"], dtype=float), subset_a, subset_b,
                d_om_a, d_om_b, lam, ell, eta,
            )
        return check_partial_locking(
            params, subset_a, subset_b, d_om_a, d_om_b, lam, ell, eta, t1
        )
    raise ConfigError(f"unknown certifier {which!r}")


def _num(lo, hi):
    """A number in [lo, hi], as a JSON int (where one fits) or float."""
    if math.ceil(lo) > math.floor(hi):
        return st.floats(lo, hi)
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


@st.composite
def _cert_docs(draw, which):
    """A valid certify document of kind ``which``, optional keys present or
    absent, numbers drawn as ints or floats and indices as ints or integral
    floats."""
    n = 3 if which == "n3" else draw(st.integers(2, 8))
    numbers = lambda lo, hi: st.lists(_num(lo, hi), min_size=n, max_size=n)  # noqa: E731
    doc = {"which": which, "params": {"m": draw(_num(0.0, 0.05)), "kappa": draw(_num(0.5, 3.0)),
                                      "nu": draw(numbers(-0.2, 0.2))}}
    if which == "n3":
        return doc
    if which == "corollary" or draw(st.booleans()):
        doc["theta0"] = draw(numbers(-0.3, 0.3))
    else:
        doc["R0"] = draw(_num(0.0, 1.0))
    if draw(st.booleans()):
        doc["omega0"] = draw(numbers(-0.2, 0.2))
    else:
        doc["D_omega0"] = draw(_num(0.0, 0.5))
    if which == "framework":
        doc["free"] = {"eta": draw(_num(0.5, 4.0)), "delta": draw(_num(0.1, 0.9)),
                       "lambda": draw(_num(0.55, 1.0)), "ell": draw(_num(0.1, 1.2))}
    if which in ("partial", "corollary"):
        lam, index = draw(_num(0.55, 1.0)), draw(st.sampled_from([int, float]))
        subset_a = draw(st.permutations(range(n)))[:draw(st.integers(math.ceil(lam * n), n))]
        doc.update({"subset_a": [index(i) for i in subset_a], "lambda": lam,
                    "ell": draw(_num(0.1, 1.2)), "eta": draw(_num(0.5, 4.0))})
        if draw(st.booleans()):
            extra = draw(st.lists(st.integers(0, n - 1), max_size=3))
            doc["subset_b"] = [index(i) for i in subset_a + extra]
        for key in ("D_omega0_A", "D_omega0_B"):
            if draw(st.booleans()):
                doc[key] = draw(_num(0.0, 0.5))
        if which == "partial" and draw(st.booleans()):
            doc["t1"] = float(doc["eta"]) * float(doc["params"]["m"]) + draw(st.floats(0.0, 5.0))
    return doc


@pytest.mark.parametrize("which", sorted(_CERT_KEYS))
@given(data=st.data())
def test_certify_reader_matches_the_reader_it_replaced(which, data):
    doc = data.draw(_cert_docs(which))
    got, want = _run_certifier(doc), _oracle_certifier(doc)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


_CERT_DOCS = json.loads((Path(__file__).parent / "golden" / "certify_docs.json").read_text())
_BAD_NUMBERS = [True, False, "0.5", math.nan, math.inf, -math.inf, 10**400, [0.5], None, {"x": 1}]
_BAD_INDICES = [2.7, True, "1", -1, 4, 10**400, math.nan, [0], None]


def _mutations(doc: dict, path: tuple = ()):
    """(path, name, bad values) for every value a certify document reads:
    its numbers, its lists and their entries, and its indices."""
    for key, value in doc.items():
        at, name = (*path, key), ".".join(map(str, (*path, key)))
        if isinstance(value, dict):
            yield from _mutations(value, at)
        elif key in ("subset_a", "subset_b"):
            yield (*at, 0), name, _BAD_INDICES
        elif isinstance(value, list):
            short = [] if key == "nu" else [value[:-1]]  # nu sets N, theta0 and omega0 match it
            yield at, name, [*short, [value], 0.5, None, True]
            yield (*at, len(value) - 1), name, _BAD_NUMBERS
        elif key != "which":
            yield at, name, _BAD_NUMBERS


@pytest.mark.parametrize(
    "which, path, name, bad",
    [(which, path, name, bad) for which, doc in _CERT_DOCS.items()
     for path, name, bad in _mutations(doc)],
)
def test_certify_rejects_each_bad_value_by_name(tmp_path, capsys, which, path, name, bad):
    # The base document is valid; each value it reads, broken, is an input
    # error (exit 1) that names the key, never a traceback or a verdict.
    assert main(["certify", "--config", write(tmp_path / "ok.json", _CERT_DOCS[which])]) in (0, 2)
    capsys.readouterr()
    for value in bad:
        doc = copy.deepcopy(_CERT_DOCS[which])
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert main(["certify", "--config", write(tmp_path / "bad.json", doc)]) == 1, value
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err, (value, err)


@pytest.mark.parametrize(
    "which, path, value, failing",
    [("simple", ("R0",), 1e-200, "xyz_criterion"),
     ("framework", ("free", "eta"), 1e-20, "cluster_drift_budget"),
     ("partial", ("eta",), 1e-20, "cluster_drift_budget"),
     ("corollary", ("eta",), 1e-20, "cluster_drift_budget"),
     ("framework", ("free", "ell"), 1e-20, "condensation_deviation")],
)
def test_certify_quotients_read_their_limit(tmp_path, capsys, which, path, value, failing):
    # A valid document whose quotient has a denominator that rounds to zero
    # is not certified (exit 2), its failing condition reading inf.
    doc = copy.deepcopy(_CERT_DOCS[which])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert main(["certify", "--config", write(tmp_path / "c.json", doc), "--json"]) == 2
    out, err = capsys.readouterr()
    assert f'"name": "{failing}", "value": Infinity' in out and not err


def test_certify_simple_without_spread_reads_inf_not_nan(tmp_path, capsys):
    # R0^2 underflows and D_omega0 is 0: the criterion still reads inf.
    doc = {**_CERT_DOCS["simple"], "R0": 1e-200, "D_omega0": 0.0}
    assert main(["certify", "--config", write(tmp_path / "c.json", doc), "--json"]) == 2
    out, err = capsys.readouterr()
    assert '"name": "xyz_criterion", "value": Infinity' in out and "NaN" not in out and not err


@pytest.mark.parametrize("which", sorted(_CERT_DOCS))
@pytest.mark.parametrize("where, key", [((), "D_omega0_a"), (("params",), "mass")])
def test_certify_rejects_unknown_keys(tmp_path, capsys, which, where, key):
    doc = copy.deepcopy(_CERT_DOCS[which])
    node = doc
    for part in where:
        node = node[part]
    node[key] = 9.0
    assert main(["certify", "--config", write(tmp_path / "c.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown ") and repr(key) in err


@pytest.mark.parametrize(
    "which, extra",
    [("framework", {"free": {"eta": 2.0, "delta": 0.5, "lambda": 0.7, "ell": 1.0, "Eta": 2.0}}),
     ("simple", {"lambda": 0.7}),
     ("corollary", {"t1": 0.02}),
     ("n3", {"R0": 0.5}),
     ("simple", {"theta0": [0.0, 0.1]}),
     ("corollary", {"R0": 0.5})],
    ids=["free", "simple_lambda", "corollary_t1", "n3_R0", "theta0_and_R0", "corollary_R0"],
)
def test_certify_reads_only_the_keys_of_its_certificate(tmp_path, capsys, which, extra):
    # A key the named certificate does not read, and initial data given twice,
    # are input errors rather than ignored.
    doc = {**copy.deepcopy(_CERT_DOCS[which]), **extra}
    assert main(["certify", "--config", write(tmp_path / "c.json", doc)]) == 1
    assert capsys.readouterr().err.startswith("error: ")

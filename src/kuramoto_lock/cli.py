"""Command-line surface: simulate / certify / sweep / figures / collide /
selftest, with machine-readable output.

Exit codes: 0 success (or certified), 1 input/validation error, 2 not
certified (or selftest failure), 3 numeric abort.  Sweeps run in this
process, every value's instance integrated in one batch.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path
from typing import Optional

import click
import numpy as np

from .model import SystemParams, diameter
from .integrate import IntegrationError
from .diagnostics import order_state
from .certify import (
    CertificateReport,
    FreeParams,
    check_first_order,
    check_framework,
    check_n3,
    check_partial_locking,
    check_partial_locking_initial,
    check_simple,
)
from .experiments import (
    ConfigError,
    ScenarioConfig,
    SweepResult,
    collision_census,
    figure_sweep,
    run_scenario,
    save_run_record,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CERTIFIED = 2
EXIT_NUMERIC = 3


class CliInputError(Exception):
    pass


def _require_object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise CliInputError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return _require_object(doc, f"config {path}")


def _parse_override(item: str) -> tuple[list[str], object]:
    if "=" not in item:
        raise CliInputError(f"override {item!r} is not KEY=VALUE")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_overrides(doc: dict, overrides: tuple[str, ...]) -> dict:
    for item in overrides:
        path, value = _parse_override(item)
        node = doc
        for part in path[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[path[-1]] = value
        click.echo(f"override applied: {'.'.join(path)} = {value!r}", err=True)
    return doc


def _exit_codes(command):
    """Map input errors to exit 1 and numeric aborts to exit 3, with the
    message on stderr."""

    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except (CliInputError, ConfigError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            return EXIT_INPUT
        except IntegrationError as exc:
            click.echo(f"numeric abort: {exc}", err=True)
            return EXIT_NUMERIC

    return run


def _scenario_from_doc(doc: dict, seed: Optional[int]) -> ScenarioConfig:
    if seed is not None:
        doc = {**doc, "seed": seed}
    return ScenarioConfig.from_dict(doc)


@click.group()
def cli() -> None:
    """Inertial-oscillator phase-locking toolbox."""


@cli.command()
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", default="out", type=str)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--seed", type=int, default=None)
@click.option("--set", "overrides", multiple=True)
@_exit_codes
def simulate(config_path, out_dir, as_json, seed, overrides) -> int:
    """Run one seeded scenario and persist the run record."""
    doc = _apply_overrides(_load_config(config_path), overrides)
    record = run_scenario(_scenario_from_doc(doc, seed))
    save_run_record(record, out_dir)
    summary = {
        "out": str(Path(out_dir)),
        "R0": record.r0,
        "locked": bool(record.lock.locked) if record.lock else None,
        "t_lock": record.lock.t_lock if record.lock else None,
        "certified": {k: v.passed for k, v in record.certificates.items()},
    }
    if as_json:
        click.echo(json.dumps(summary))
    else:
        click.echo(f"run complete; records in {out_dir}")
        for key, value in summary.items():
            click.echo(f"  {key}: {value}")
    return EXIT_OK


def _params_from_cert_doc(doc: dict) -> SystemParams:
    try:
        p = doc["params"]
        return SystemParams(float(p["m"]), float(p["kappa"]), np.asarray(p["nu"], dtype=float))
    except (KeyError, TypeError) as exc:
        raise CliInputError(f"certify config needs params.m/.kappa/.nu: {exc}") from None


def _instance_from_cert_doc(doc: dict) -> tuple[SystemParams, float, float]:
    params = _params_from_cert_doc(doc)
    try:
        if "theta0" in doc:
            theta0 = np.asarray(doc["theta0"], dtype=float)
            if theta0.size != params.n:
                raise CliInputError("theta0 length does not match nu")
            r0 = order_state(theta0).r
        elif "R0" in doc:
            r0 = float(doc["R0"])
        else:
            raise CliInputError("certify config needs either theta0 or R0")
        if "omega0" in doc:
            omega0 = np.asarray(doc["omega0"], dtype=float)
            if omega0.size != params.n:
                raise CliInputError("omega0 length does not match nu")
            d_om = diameter(omega0)
        elif "D_omega0" in doc:
            d_om = float(doc["D_omega0"])
        else:
            raise CliInputError("certify config needs either omega0 or D_omega0")
    except TypeError as exc:
        raise CliInputError(f"certify config initial data invalid: {exc}") from None
    return params, r0, d_om


def _run_certifier(doc: dict) -> CertificateReport:
    which = doc.get("which", "simple")
    if which == "n3":
        params = _params_from_cert_doc(doc)
        if params.n != 3:
            raise CliInputError("the n3 certificate requires exactly 3 oscillators")
        return check_n3(params)
    params, r0, d_om = _instance_from_cert_doc(doc)
    if which == "simple":
        return check_simple(params, r0, d_om)
    if which == "first_order":
        return check_first_order(params, r0)
    if which == "framework":
        try:
            f = doc["free"]
            free = FreeParams(float(f["eta"]), float(f["delta"]), float(f["lambda"]), float(f["ell"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise CliInputError(f"framework certify needs free.eta/delta/lambda/ell: {exc}") from None
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
            raise CliInputError(f"{which} certify config invalid: {exc}") from None
        if which == "corollary":
            if "theta0" not in doc:
                raise CliInputError("the corollary certificate needs explicit theta0")
            return check_partial_locking_initial(
                params, np.asarray(doc["theta0"], dtype=float), subset_a, subset_b,
                d_om_a, d_om_b, lam, ell, eta,
            )
        return check_partial_locking(
            params, subset_a, subset_b, d_om_a, d_om_b, lam, ell, eta, t1
        )
    raise CliInputError(f"unknown certifier {which!r}")


@cli.command()
@click.option("--config", "config_path", required=True, type=str)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--set", "overrides", multiple=True)
@_exit_codes
def certify(config_path, as_json, overrides) -> int:
    """Evaluate a closed-form certificate; exit 0 iff it passes."""
    report = _run_certifier(_apply_overrides(_load_config(config_path), overrides))
    if as_json:
        click.echo(json.dumps(report.to_json_dict()))
    else:
        click.echo(f"certificate: {report.which}  pass: {report.passed}")
        for cond in report.conditions:
            mark = "ok " if cond.satisfied else "FAIL"
            click.echo(
                f"  [{mark}] {cond.name}: value={cond.value:.6g} bound={cond.bound:.6g} "
                f"margin={cond.margin:.3g}"
            )
        if report.free_params is not None:
            fp = report.free_params
            click.echo(
                f"  free params: eta={fp.eta:.4g} delta={fp.delta:.4g} "
                f"lambda={fp.lam:.4g} ell={fp.ell:.4g}"
            )
    return EXIT_OK if report.passed else EXIT_NOT_CERTIFIED


def _svg_chart(path: Path, t: np.ndarray, series: list[tuple[str, np.ndarray]], title: str) -> None:
    """Minimal polyline SVG chart (one curve per series)."""
    width, height, pad = 720, 420, 50
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    finite_vals = np.concatenate([v[np.isfinite(v)] for _, v in series if np.isfinite(v).any()])
    lo = float(finite_vals.min()) if finite_vals.size else 0.0
    hi = float(finite_vals.max()) if finite_vals.size else 1.0
    if hi - lo < 1e-12:
        hi = lo + 1.0
    t0, t1 = float(t[0]), float(t[-1])

    def sx(x):
        return pad + (x - t0) / (t1 - t0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - lo) / (hi - lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 20}" font-size="12">{t0:.3g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 20}" text-anchor="end" font-size="12">{t1:.3g}</text>',
        f'<text x="{pad - 6}" y="{height - pad}" text-anchor="end" font-size="12">{lo:.3g}</text>',
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end" font-size="12">{hi:.3g}</text>',
    ]
    for k, (label, values) in enumerate(series):
        color = colors[k % len(colors)]
        pts = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
            for x, y in zip(t, values)
            if math.isfinite(float(y))
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width - pad - 4}" y="{pad + 16 * (k + 1)}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def _run_sweep(doc: dict, seed: Optional[int], out: Path) -> SweepResult:
    """Run the sweep a config describes and write ``summary.csv`` and one
    ``series_<value>.csv`` per value into ``out``.  The config holds
    ``axis``, ``values`` and optionally ``base`` and ``fresh_samples`` (a
    JSON boolean), and no other key."""
    unknown = sorted(set(doc) - {"axis", "values", "base", "fresh_samples"})
    if unknown:
        raise CliInputError(
            f"unknown sweep config key(s) {', '.join(map(repr, unknown))}; "
            "expected 'axis', 'values', 'base' and 'fresh_samples'"
        )
    axis = doc.get("axis")
    values = doc.get("values")
    if axis is None or not isinstance(values, list) or not values:
        raise CliInputError("sweep config needs 'axis' and a nonempty 'values' list")
    fresh_samples = doc.get("fresh_samples", False)
    if not isinstance(fresh_samples, bool):
        raise CliInputError(f"sweep 'fresh_samples' must be true or false, got {fresh_samples!r}")
    base = _scenario_from_doc(_require_object(doc.get("base", {}), "sweep 'base'"), seed)
    result = figure_sweep(axis, values, base, fresh_samples=fresh_samples)
    names = [f"series_{value:g}.csv" for value in result.values]
    for k, name in enumerate(names):
        first = names.index(name)
        if first < k:
            raise CliInputError(
                f"sweep values {result.values[first]!r} and {result.values[k]!r} "
                f"share the series file {name}"
            )
    out.mkdir(parents=True, exist_ok=True)
    result.to_csv(out / "summary.csv")
    for name, record in zip(names, result.records):
        record.series.to_csv(out / name)
    return result


@cli.command()
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", default="out", type=str)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--seed", type=int, default=None)
@click.option("--set", "overrides", multiple=True)
@_exit_codes
def sweep(config_path, out_dir, as_json, seed, overrides) -> int:
    """Parameter sweep with a shared frozen sample; writes summary.csv."""
    out = Path(out_dir)
    result = _run_sweep(_apply_overrides(_load_config(config_path), overrides), seed, out)
    if as_json:
        click.echo(json.dumps({"axis": result.axis, "rows": result.rows}))
    else:
        click.echo(f"sweep over {result.axis}: results in {out}")
        for row in result.rows:
            click.echo(f"  {row}")
    return EXIT_OK


@cli.command()
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", default="figures", type=str)
@click.option("--seed", type=int, default=None)
@click.option("--set", "overrides", multiple=True)
@_exit_codes
def figures(config_path, out_dir, seed, overrides) -> int:
    """Sweep and emit SVG line charts of R(t) and Delta(t) plus CSVs."""
    out = Path(out_dir)
    result = _run_sweep(_apply_overrides(_load_config(config_path), overrides), seed, out)
    labels = [f"{result.axis}={value:g}" for value in result.values]
    r_series = [(label, record.series.r) for label, record in zip(labels, result.records)]
    d_series = [(label, record.series.delta) for label, record in zip(labels, result.records)]
    t = result.records[0].series.t
    _svg_chart(out / "R.svg", t, r_series, "order parameter R(t)")
    _svg_chart(out / "Delta.svg", t, d_series, "mean-square deviation Delta(t)")
    click.echo(f"figures written to {out}")
    return EXIT_OK


@cli.command()
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", default=None, type=str)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--seed", type=int, default=None)
@click.option("--set", "overrides", multiple=True)
@_exit_codes
def collide(config_path, out_dir, as_json, seed, overrides) -> int:
    """Collision census of one scenario run."""
    doc = _apply_overrides(_load_config(config_path), overrides)
    census = collision_census(_scenario_from_doc(doc, seed))
    payload = census.to_json_dict()
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "census.json", "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if as_json:
        click.echo(json.dumps(payload))
    else:
        click.echo(
            f"collisions: {census.total} events, locked={census.locked}, "
            f"tail_ok={census.tail_ok}"
        )
        for key, count in sorted(census.counts.items()):
            click.echo(f"  pair {key}: {count}")
    return EXIT_OK


@cli.command()
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--perturb", is_flag=True, default=False, hidden=True)
def selftest(as_json, perturb) -> int:
    """Run the embedded invariant suite; exit 0 iff everything passes."""
    rows = run_selftest(perturb=perturb)
    ok = all(row.ok for row in rows)
    if as_json:
        click.echo(
            json.dumps(
                {
                    "pass": ok,
                    "checks": [
                        {"name": r.name, "pass": r.ok, "detail": r.detail} for r in rows
                    ],
                }
            )
        )
    else:
        for row in rows:
            click.echo(f"[{'PASS' if row.ok else 'FAIL'}] {row.name:32s} {row.detail}")
        click.echo(f"selftest: {'PASS' if ok else 'FAIL'} ({sum(r.ok for r in rows)}/{len(rows)})")
    return EXIT_OK if ok else EXIT_NOT_CERTIFIED


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point returning the exit code (console script exits with it)."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return int(rv) if isinstance(rv, int) else EXIT_OK
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_INPUT
    except click.ClickException as exc:
        exc.show()
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

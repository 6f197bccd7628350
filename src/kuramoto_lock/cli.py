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
    _SCHEMA_TYPES,
    ConfigError,
    ScenarioConfig,
    SweepResult,
    collision_census,
    figure_sweep,
    run_scenario,
    save_run_record,
    _real_field,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CERTIFIED = 2
EXIT_NUMERIC = 3


def _require_object(doc, what: str, keys: Optional[tuple] = None) -> dict:
    """``doc`` as a JSON object, holding no key but ``keys`` when they are given."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(doc if keys is None else keys))
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                          f"expected {', '.join(map(repr, keys))}")
    return doc


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return _require_object(doc, f"config {path}")


def _parse_override(item: str) -> tuple[list[str], object]:
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not KEY=VALUE")
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
        except ValueError as exc:  # ConfigError included
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


# The keys each certificate reads, and those it needs.
_INITIAL = ("which", "params", "R0", "theta0", "D_omega0", "omega0")
_CLUSTER = (*_INITIAL, "subset_a", "subset_b", "lambda", "ell", "eta", "D_omega0_A", "D_omega0_B")
_CERT_KEYS = {"n3": ("which", "params"), "simple": _INITIAL, "first_order": _INITIAL,
              "framework": (*_INITIAL, "free"), "partial": (*_CLUSTER, "t1"), "corollary": _CLUSTER}
_CERT_NEEDS = {"partial": ("subset_a", "lambda", "ell", "eta"),
               "corollary": ("theta0", "subset_a", "lambda", "ell", "eta")}
_PARAMS_KEYS, _FREE_KEYS = ("m", "kappa", "nu"), ("eta", "delta", "lambda", "ell")


def _cert_values(node, prefix: str, keys: tuple, needs: tuple, n: Optional[int] = None) -> dict:
    """Every value of a certify document object that holds no key but
    ``keys`` and every key of ``needs``, read by its key's rule: ``nu``,
    ``theta0`` and ``omega0`` are lists of numbers (``n`` of them when
    given), ``subset_a`` and ``subset_b`` lists of integers in range(n) by
    the scenario reader's integer rule, and any other value but an object or
    ``which`` a number.  ``prefix`` names the object."""
    _require_object(node, "certify config" + (f" {prefix[:-1]!r}" if prefix else ""), keys)
    for key in needs:
        if key not in node:
            raise ConfigError(f"certify config needs {prefix}{key}")
    values = {}
    for key, value in node.items():
        name = f"certify config {prefix}{key}"
        if key in ("nu", "theta0", "omega0"):
            if not isinstance(value, list) or n not in (None, len(value)):
                raise ConfigError(f"{name} must be a list of {n or 'N'} numbers, got {value!r}")
            values[key] = [_real_field(v, f"{name}[{k}]") for k, v in enumerate(value)]
        elif key in ("subset_a", "subset_b"):
            if not isinstance(value, list) or not all(
                    _SCHEMA_TYPES["integer"](i) and 0 <= i < n for i in value):
                raise ConfigError(f"{name} must be a list of indices in range({n}), "
                                  f"got {value!r}")
            values[key] = [int(i) for i in value]
        elif key not in ("which", "params", "free"):
            values[key] = _real_field(value, name)
    return values


def _run_certifier(doc: dict) -> CertificateReport:
    """Evaluate the certificate a certify document names.  The document holds
    ``which``, ``params`` and only keys that certificate reads."""
    which = doc.get("which", "simple")
    if not isinstance(which, str) or which not in _CERT_KEYS:
        raise ConfigError(f"unknown certifier {which!r}")
    p = _cert_values(doc.get("params", {}), "params.", _PARAMS_KEYS, _PARAMS_KEYS)
    params = SystemParams(p["m"], p["kappa"], p["nu"])
    v = _cert_values(doc, "", _CERT_KEYS[which], _CERT_NEEDS.get(which, ()), params.n)
    if which == "n3":
        return check_n3(params)
    for given, summary in (("theta0", "R0"), ("omega0", "D_omega0")):
        if (given in doc) == (summary in doc):
            raise ConfigError(f"certify config needs exactly one of {given} and {summary}")
    r0 = order_state(v["theta0"]).r if "theta0" in v else v["R0"]
    d_om = diameter(v["omega0"]) if "omega0" in v else v["D_omega0"]
    if which == "simple":
        return check_simple(params, r0, d_om)
    if which == "first_order":
        return check_first_order(params, r0)
    if which == "framework":
        f = _cert_values(doc.get("free", {}), "free.", _FREE_KEYS, _FREE_KEYS)
        return check_framework(params, r0, d_om, FreeParams(*(f[key] for key in _FREE_KEYS)))
    subsets = v["subset_a"], v.get("subset_b", list(range(params.n)))
    rest = v.get("D_omega0_A", d_om), v.get("D_omega0_B", d_om), v["lambda"], v["ell"], v["eta"]
    if which == "partial":
        return check_partial_locking(params, *subsets, *rest, v.get("t1", v["eta"] * params.m))
    return check_partial_locking_initial(params, v["theta0"], *subsets, *rest)


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


def _svg_chart(path: Path, series: list[tuple[str, np.ndarray, np.ndarray]], title: str) -> None:
    """Minimal polyline SVG chart: one curve per (label, times, values)."""
    width, height, pad = 720, 420, 50
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    finite_vals = np.concatenate([v[np.isfinite(v)] for _, _, v in series])
    lo = float(finite_vals.min()) if finite_vals.size else 0.0
    hi = float(finite_vals.max()) if finite_vals.size else 1.0
    if hi - lo < 1e-12:
        hi = lo + 1.0
    t0, t1 = min(float(t[0]) for _, t, _ in series), max(float(t[-1]) for _, t, _ in series)

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
    for k, (label, t, values) in enumerate(series):
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
    _require_object(doc, "sweep config", ("axis", "values", "base", "fresh_samples"))
    axis = doc.get("axis")
    values = doc.get("values")
    if axis is None or not isinstance(values, list) or not values:
        raise ConfigError("sweep config needs 'axis' and a nonempty 'values' list")
    fresh_samples = doc.get("fresh_samples", False)
    if not isinstance(fresh_samples, bool):
        raise ConfigError(f"sweep 'fresh_samples' must be true or false, got {fresh_samples!r}")
    base = _scenario_from_doc(_require_object(doc.get("base", {}), "sweep 'base'"), seed)
    result = figure_sweep(axis, values, base, fresh_samples=fresh_samples)
    names = [f"series_{value:g}.csv" for value in result.values]
    for k, name in enumerate(names):
        first = names.index(name)
        if first < k:
            raise ConfigError(
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
    series = [(f"{result.axis}={value:g}", record.series)
              for value, record in zip(result.values, result.records)]
    _svg_chart(out / "R.svg", [(label, s.t, s.r) for label, s in series], "order parameter R(t)")
    _svg_chart(out / "Delta.svg", [(label, s.t, s.delta) for label, s in series],
               "mean-square deviation Delta(t)")
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

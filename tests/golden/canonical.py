"""The canonical outputs behind the committed golden digests.

Each named output gets its own SHA-256: three scenarios with their series
(m > 0, m = 0, and a collision run), ``simple``, ``n3``, ``first_order`` and
``partial`` campaigns of four instances with their persisted files, a sweep, a
collision census, the energy-dissipation residual of a stride-1 run with
identical natural frequencies, the ``certify --json`` report of one valid
document per certificate (``certify_docs.json`` beside this file), and the
``selftest --json`` report.  A combined digest covers the names and digests in
order.  ``canonical.json`` beside this file holds them with the numpy version
and machine they were computed on: the outputs are the same at every x86-64
SIMD level, but nothing promises them across numpy versions or architectures.

Print the digests as JSON, or rewrite ``canonical.json`` (only for a change
that means to move an output, and say which moved)::

    PYTHONPATH=src python tests/golden/canonical.py
    PYTHONPATH=src python tests/golden/canonical.py --write
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from kuramoto_lock import (
    CampaignConfig,
    IntegratorConfig,
    PhaseState,
    ScenarioConfig,
    SystemParams,
    certify_campaign,
    collision_census,
    energy_dissipation_residual,
    figure_sweep,
    record_trajectory,
    run_scenario,
)
from kuramoto_lock.cli import main

MANIFEST = Path(__file__).with_name("canonical.json")
CERTIFY_DOCS = Path(__file__).with_name("certify_docs.json")


def host() -> dict:
    """What the digests are keyed on."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def _cli(argv: list) -> bytes:
    """Exit code and stdout of an in-process ``kuramoto-lock`` call."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return f"{code}\n{out.getvalue()}".encode()


def digests() -> dict:
    """The SHA-256 of each named output, in a fixed order."""
    hashes: dict = {}

    def add(name, doc):
        hashes.setdefault(name, hashlib.sha256()).update(json.dumps(doc, sort_keys=True).encode())

    def add_bytes(name, data):
        hashes.setdefault(name, hashlib.sha256()).update(data)

    def add_record(name, rec):
        add(name, rec.to_json_dict())
        for f in dataclasses.fields(rec.series):
            add_bytes(name, np.ascontiguousarray(getattr(rec.series, f.name)).tobytes())

    for name, doc in (("scenario_inertial", {"N": 12, "m": 0.5, "t_end": 15.0, "stride": 5}),
                      ("scenario_first_order", {"N": 12, "m": 0.0, "t_end": 15.0, "stride": 5}),
                      ("scenario_collisions", {"N": 8, "m": 0.2, "D_V": 1.0, "D_Omega0": 2.0,
                                               "t_end": 8.0, "collisions": True})):
        add_record(name, run_scenario(ScenarioConfig.from_dict({**doc, "seed": 4})))
    for cc in (CampaignConfig(which="simple", n_instances=4, n=12, t_end=30.0, stride=50, seed=9090),
               CampaignConfig(which="n3", n_instances=4, t_end=10.0, seed=1111),
               CampaignConfig(which="first_order", n_instances=4, n=12, t_end=30.0, stride=50,
                              seed=2222),
               CampaignConfig(which="partial", n_instances=4, n=10, t_end=30.0, stride=10,
                              seed=3333)):
        name = f"campaign_{cc.which}"
        with tempfile.TemporaryDirectory() as out:
            add(name, certify_campaign(cc, outdir=Path(out)).to_json_dict())
            for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
                add_bytes(name, str(path.relative_to(out)).encode() + path.read_bytes())
    base = ScenarioConfig(n=12, m=0.5, t_end=15.0, stride=5, seed=3)
    for rec in figure_sweep("m_kappa", [0.1, 1.0], base).records:
        add_record("sweep", rec)
    census = collision_census(ScenarioConfig(n=12, m=0.1, kappa=2.0, d_v=2.0, t_end=5.0, seed=5))
    add("census", [census.to_json_dict(), [(e.i, e.j, e.t_star.hex(), e.branch) for e in census.events]])
    rng = np.random.Generator(np.random.PCG64(6))
    params = SystemParams(0.8, 1.2, np.zeros(10))
    state0 = PhaseState(0.0, rng.uniform(0.0, 2.0 * np.pi, 10), rng.uniform(-0.5, 0.5, 10))
    record = record_trajectory(params, state0, IntegratorConfig(dt=0.01, t_end=5.0))
    for f in dataclasses.fields(balance := energy_dissipation_residual(params, record)):
        add_bytes("energy_residual", getattr(balance, f.name).tobytes())
    with tempfile.TemporaryDirectory() as out:
        for which, doc in json.loads(CERTIFY_DOCS.read_text()).items():
            path = Path(out) / f"{which}.json"
            path.write_text(json.dumps(doc))
            add_bytes(f"certify_{which}", _cli(["certify", "--config", str(path), "--json"]))
    add_bytes("selftest", _cli(["selftest", "--json"]))
    return {name: h.hexdigest() for name, h in hashes.items()}


def combined(outputs: dict) -> str:
    """One digest over the named digests, in their order."""
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in outputs.items()).encode()).hexdigest()


if __name__ == "__main__":
    outputs = digests()
    doc = {"sha256": combined(outputs), "outputs": outputs}
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(json.dumps({**host(), **doc}, indent=2) + "\n")
    print(json.dumps(doc))

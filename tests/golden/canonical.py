"""The canonical outputs behind the committed golden digest.

One SHA-256 covers three scenarios with their series (m > 0, m = 0, and a
collision run), ``simple``, ``n3``, ``first_order`` and ``partial`` campaigns
of four instances with their persisted files, a sweep, a collision census,
and the energy-dissipation residual of a stride-1 run with identical natural
frequencies.  ``canonical.json`` beside this file holds the digest with the
numpy version and machine it was computed on: the outputs are the same at
every x86-64 SIMD level, but nothing promises them across numpy versions or
architectures.

Print the digest, or rewrite ``canonical.json`` (only for a change that means
to move an output, and say which moved)::

    PYTHONPATH=src python tests/golden/canonical.py
    PYTHONPATH=src python tests/golden/canonical.py --write
"""

import dataclasses
import hashlib
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

MANIFEST = Path(__file__).with_name("canonical.json")


def host() -> dict:
    """What the digest is keyed on."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def digest() -> str:
    h = hashlib.sha256()

    def add(doc):
        h.update(json.dumps(doc, sort_keys=True).encode())

    def add_record(rec):
        add(rec.to_json_dict())
        for f in dataclasses.fields(rec.series):
            h.update(np.ascontiguousarray(getattr(rec.series, f.name)).tobytes())

    for doc in ({"N": 12, "m": 0.5, "t_end": 15.0, "stride": 5},
                {"N": 12, "m": 0.0, "t_end": 15.0, "stride": 5},
                {"N": 8, "m": 0.2, "D_V": 1.0, "D_Omega0": 2.0, "t_end": 8.0, "collisions": True}):
        add_record(run_scenario(ScenarioConfig.from_dict({**doc, "seed": 4})))
    for cc in (CampaignConfig(which="simple", n_instances=4, n=12, t_end=30.0, stride=50, seed=9090),
               CampaignConfig(which="n3", n_instances=4, t_end=10.0, seed=1111),
               CampaignConfig(which="first_order", n_instances=4, n=12, t_end=30.0, stride=50,
                              seed=2222),
               CampaignConfig(which="partial", n_instances=4, n=10, t_end=30.0, stride=10,
                              seed=3333)):
        with tempfile.TemporaryDirectory() as out:
            add(certify_campaign(cc, outdir=Path(out)).to_json_dict())
            for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
                h.update(str(path.relative_to(out)).encode() + path.read_bytes())
    base = ScenarioConfig(n=12, m=0.5, t_end=15.0, stride=5, seed=3)
    for rec in figure_sweep("m_kappa", [0.1, 1.0], base).records:
        add_record(rec)
    census = collision_census(ScenarioConfig(n=12, m=0.1, kappa=2.0, d_v=2.0, t_end=5.0, seed=5))
    add([census.to_json_dict(), [(e.i, e.j, e.t_star.hex(), e.branch) for e in census.events]])
    rng = np.random.Generator(np.random.PCG64(6))
    params = SystemParams(0.8, 1.2, np.zeros(10))
    state0 = PhaseState(0.0, rng.uniform(0.0, 2.0 * np.pi, 10), rng.uniform(-0.5, 0.5, 10))
    record = record_trajectory(params, state0, IntegratorConfig(dt=0.01, t_end=5.0))
    for f in dataclasses.fields(balance := energy_dissipation_residual(params, record)):
        h.update(getattr(balance, f.name).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    value = digest()
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(json.dumps({**host(), "sha256": value}, indent=2) + "\n")
    print(value)

"""Measuring process of the benchmark: runs one workload in a fresh
interpreter and prints one JSON object as its last line of output.

Started by ``perfbench/run.py`` with ``src`` of the checkout on
``PYTHONPATH``; ``--setup-only`` stops after import and config validation,
which is what the set-up timing measures.

Untraced mode makes one warm-up call, then calls the workload's parts in
turn for ``--seconds`` seconds (at least once each) and reports, summed over
the parts, the median wall and CPU time of each part's calls, each call's
times rescaled by the workload's calibration kernel timed before and after
it (see ``perfbench/calibrate.py``; the raw medians go to the provenance).
Traced mode calls every part once untraced and once traced with a single
worker, plus, for a pooled workload, once untraced with the pool.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"


def _import_checkout_package():
    import kuramoto_lock

    where = Path(kuramoto_lock.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"kuramoto_lock imported from {where}, not from {SRC}")
    return kuramoto_lock


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children
    (the pool workers); ``ru_maxrss`` is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kuramoto_lock").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _timed_call(wl, parts, part: int, workers: int):
    """One top-level call of a part; the output check runs after the clock
    stops."""
    outdir = Path(tempfile.mkdtemp(prefix="out-", dir=SCRATCH))
    try:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        out = wl.call(parts[part], workers, outdir)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        outcome = wl.check(out, parts[part], outdir)
        persisted = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {"part": part, "wall_s": wall, "cpu_s": cpu, "outcome": outcome,
            "persisted_bytes": persisted}


def _every_part(wl, parts, workers: int) -> tuple[list[dict], dict]:
    """Each part called once; the calls and their summed wall time, attempted
    instances and persisted bytes."""
    calls = [_timed_call(wl, parts, k, workers) for k in range(len(parts))]
    total = {
        "wall_s": sum(c["wall_s"] for c in calls),
        "attempted": sum(c["outcome"].attempted for c in calls),
        "persisted_bytes": sum(c["persisted_bytes"] for c in calls),
    }
    return calls, total


def _summed_medians(calls: list[dict], key: str) -> float:
    """Per part, the median of ``key`` over its timed calls; summed."""
    by_part: dict[int, list[float]] = {}
    for c in calls:
        if not c.get("warmup"):
            by_part.setdefault(c["part"], []).append(c[key])
    return sum(statistics.median(v) for v in by_part.values())


class _TaskTimer:
    """Records the duration of every ``run_instance`` call made in this
    process while active."""

    def __init__(self, experiments):
        self.experiments = experiments
        self.times: list[float] = []

    def __enter__(self):
        original = self.original = self.experiments.run_instance

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.times.append(time.perf_counter() - t0)

        self.experiments.run_instance = timed
        return self

    def __exit__(self, *exc):
        self.experiments.run_instance = self.original


def _reference_digest(wl_name: str, part_input, call: dict) -> str:
    """Record digest that an earlier run of the same source on the same part
    input stored, else this call's own, which is stored."""
    key = hashlib.sha256(f"{_src_sha256()}{part_input!r}".encode()).hexdigest()[:24]
    cache = SCRATCH / "digests" / f"{wl_name}-{key}.sha256"
    cache.parent.mkdir(parents=True, exist_ok=True)
    if cache.is_file():
        return cache.read_text().strip()
    cache.write_text(call["outcome"].digest + "\n")
    return call["outcome"].digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = _import_checkout_package()
    import calibrate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    seed = workloads.workload_seed(wl, args.seed)
    parts = wl.build(seed)
    if args.setup_only:
        return 0

    import numpy

    nproc = len(os.sched_getaffinity(0))
    pool_workers = min(2, nproc) if wl.pooled else 1
    SCRATCH.mkdir(parents=True, exist_ok=True)
    provenance = {
        "workload": wl.name,
        "seed": args.seed,
        "workload_seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kuramoto_lock": package.__version__,
        "src_sha256": _src_sha256(),
        "nproc": nproc,
        "workers": pool_workers,
        "trace": args.trace,
    }
    problems: list[str] = []

    if args.trace:
        import tracing

        # Untraced and traced calls both run with one worker, so every span
        # lands in this process and the two wall times compare like for like.
        with _TaskTimer(workloads.experiments) as timer:
            calls, serial = _every_part(wl, parts, 1)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_calls, traced = _every_part(wl, parts, 1)
        calls += traced_calls
        pooled = serial
        if pool_workers > 1:
            pooled_calls, pooled = _every_part(wl, parts, pool_workers)
            calls += pooled_calls
        for layer in wl.layers:
            if not tracer.layers[layer].calls:
                problems.append(f"layer {layer} recorded no calls")
        metrics = tracing.layer_metrics(
            tracer,
            instances=traced["attempted"],
            task_times=timer.times,
            workers=pool_workers,
            serial_wall_s=serial["wall_s"],
            pooled_wall_s=pooled["wall_s"],
            traced_wall_s=traced["wall_s"],
            persisted_bytes=traced["persisted_bytes"],
        )
        provenance["traced_workers"] = 1
        provenance["layer_calls"] = tracing.layer_calls(tracer)
    else:
        # The calls and the calibrations between them run on the cores the
        # work uses: one for a single-process workload, one per pool worker.
        cpus = sorted(os.sched_getaffinity(0))[:pool_workers]
        with calibrate.pinned(cpus):
            calls = [_timed_call(wl, parts, 0, pool_workers) | {"warmup": True}]
            kernel_s = calibrate.kernel_seconds(wl.kernel, cpus)
            start = time.perf_counter()
            while True:
                call = _timed_call(wl, parts, (len(calls) - 1) % len(parts), pool_workers)
                kernel_after = calibrate.kernel_seconds(wl.kernel, cpus)
                call["scale"] = calibrate.scale(wl.kernel, kernel_s, kernel_after)
                call["kernel_s"] = kernel_s
                kernel_s = kernel_after
                call["wall_ref_s"] = call["wall_s"] * call["scale"]
                call["cpu_ref_s"] = call["cpu_s"] * call["scale"]
                calls.append(call)
                timed = len(calls) - 1
                elapsed = time.perf_counter() - start
                if timed >= len(parts) and elapsed * (timed + 1) / timed > args.seconds:
                    break
        provenance["cpus"] = cpus
        provenance["kernel"] = wl.kernel
        provenance["kernel_s_end"] = kernel_s
        provenance["raw_wall_s"] = _summed_medians(calls, "wall_s")
        provenance["raw_cpu_s"] = _summed_medians(calls, "cpu_s")
        metrics = {
            "wall_s": {"value": _summed_medians(calls, "wall_ref_s"), "unit": "s"},
            "cpu_s": {"value": _summed_medians(calls, "cpu_ref_s"), "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }

    failed = 0
    for k, c in enumerate(calls):
        outcome = c["outcome"]
        problems.extend(outcome.problems)
        reference = _reference_digest(wl.name, parts[c["part"]], c)
        if outcome.digest != reference:
            # A record that differs between repeats fails the whole call.
            problems.append(f"call {k}: record digest {outcome.digest[:12]} != {reference[:12]}")
            failed += outcome.attempted
        else:
            failed += outcome.failed
    provenance["calls"] = [
        {key: c[key] for key in ("part", "warmup", "wall_s", "cpu_s", "scale", "kernel_s")
         if key in c} | {"digest": c["outcome"].digest}
        for c in calls
    ]
    print(json.dumps({
        "attempted": sum(c["outcome"].attempted for c in calls),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "provenance": provenance,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

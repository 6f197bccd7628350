"""kuramoto-lock benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign_simple --seed 0 --seconds 35 --trace 0

Workloads are defined in ``perfbench/workloads.py``.  With ``--trace 0`` the
run reports the end-to-end metrics (``wall_s``, ``cpu_s``, ``peak_rss_mb``,
``setup_s``, ``ok_rate``); with ``--trace 1`` it reports the per-layer metrics
of ``perfbench/tracing.py``.  Set-up time is measured in fresh interpreters;
it and the workload's times are rescaled to a reference host by the kernels
of ``perfbench/calibrate.py``, timed between the measured calls.  The
workload runs in one more fresh process, so peak RSS and CPU time cover
only the workload and its pool workers.  ``KURAMOTO_LOCK_THREADS`` is removed
from the environment, so an inherited value cannot change the pool size.

Progress, provenance and any failed check go to standard error and to the
lines before the last; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program exits non-zero without a result when the checkout holds no
``src/kuramoto_lock`` or the measuring process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MEASURE = BENCH_DIR / "measure.py"
SETUP_SAMPLES = 7
# Interpreter start-up slows with the host like passes over large arrays do.
SETUP_KERNEL = "arrays"
# Every run must end within 180 s, processes started by it included.
DEADLINE_S = 170.0


def _environment(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("KURAMOTO_LOCK_THREADS", None)
    env["PYTHONPATH"] = str(src)
    return env


def _run(cmd: list[str], env: dict, deadline: float, stdout) -> str:
    """Run ``cmd`` to completion and return its standard output.

    The child runs in its own session, which is killed at ``deadline`` (pool
    workers included).  The wait blocks instead of polling, so the time
    around this call is not rounded to a polling interval.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, text=True, start_new_session=True)

    def kill():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def _setup_seconds(args, env, deadline: float) -> list[dict]:
    """Wall time from a fresh interpreter to the package imported and the
    workload's configs validated, raw and with its calibration scale.  The
    interpreters run on one core, calibrated between them."""
    import calibrate

    cmd = [sys.executable, str(MEASURE), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    cpus = sorted(os.sched_getaffinity(0))[:1]
    samples = []
    with calibrate.pinned(cpus):
        kernel_s = calibrate.kernel_seconds(SETUP_KERNEL, cpus)
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            _run(cmd, env, deadline, subprocess.DEVNULL)
            raw = time.perf_counter() - t0
            kernel_after = calibrate.kernel_seconds(SETUP_KERNEL, cpus)
            samples.append({"raw_s": raw,
                            "scale": calibrate.scale(SETUP_KERNEL, kernel_s, kernel_after)})
            kernel_s = kernel_after
    return samples


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kuramoto-lock benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the acceptance seed; see perfbench/workloads.py")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "kuramoto_lock" / "__init__.py").is_file():
        print(f"error: {src}/kuramoto_lock not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = _environment(src)

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setup = [] if args.trace else _setup_seconds(args, env, deadline)
        out = _run([sys.executable, str(MEASURE), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)], env, deadline, subprocess.PIPE)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    provenance = result["provenance"]
    provenance["git_sha"] = _git_sha(root)
    if setup:
        provenance["setup_s_samples"] = setup
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    attempted, failed = result["attempted"], result["failed"]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(x["raw_s"] * x["scale"] for x in setup), "unit": "s"
        }
        provenance["raw_setup_s"] = statistics.median(x["raw_s"] for x in setup)
        # ok_rate = 1 - fail_rate: a metric that can read 0 has no relative bound.
        metrics["ok_rate"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
    print(json.dumps({"provenance": provenance}))
    print(f"fail_rate {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

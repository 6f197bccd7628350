"""Run the benchmark over several seeds and write one summary file.

From the root of a checkout:

    python3 perfbench/collect.py --seeds 1-10 --trace-seeds 0 --out BENCH_x.json

Each run is a separate ``perfbench/run.py`` process.  For every workload and
metric the summary holds the values of all runs, their median, quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  Runs execute one after another, so
they never compete with each other for cores.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = next(
        (json.loads(line)["provenance"] for line in lines if line.startswith('{"provenance"')), None
    )
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": time.perf_counter() - t0, "result": result, "provenance": provenance}


def _summary(runs: list[dict]) -> dict:
    out: dict = {}
    for run in runs:
        key = f"{run['workload']}/trace{run['trace']}"
        for name, metric in run["result"]["metrics"].items():
            entry = out.setdefault(key, {}).setdefault(name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])
    for metrics in out.values():
        for entry in metrics.values():
            values = entry["values"]
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["q1"], entry["q3"] = q1, q3
                entry["spread"] = (q3 - q1) / entry["median"] if entry["median"] else None
    return out


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="untraced runs, e.g. 1-10 or 1,4,7")
    parser.add_argument("--trace-seeds", default="0", help="traced runs; empty for none")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads.split(","):
        for trace, seeds in ((0, _seeds(args.seeds)), (1, _seeds(args.trace_seeds))):
            for seed in seeds:
                run = _run(workload, seed, args.seconds, trace)
                runs.append(run)
                res = run["result"]
                print(f"{workload} seed={seed} trace={trace} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {run['elapsed_s']:.1f}s",
                      file=sys.stderr)
    doc = {
        "hardware": {"cpu": _cpu_model(), "nproc": runs[0]["provenance"]["nproc"] if runs else None,
                     "machine": platform.machine()},
        "run_seconds": args.seconds,
        "correct": all(run["result"]["correct"] for run in runs),
        "summary": _summary(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

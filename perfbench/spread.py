"""Run-to-run spread of the end-to-end metrics, as the acceptance rule sees it.

Usage (from the repository root):

    python3 perfbench/spread.py --runs 10 [--workloads wide_scan,wss_all] [--out FILE]

Runs ``run.py --trace 0`` once per seed (1..runs) for each workload and
prints, per metric, the median and the quartile spread (q3 - q1) / median
from ``statistics.quantiles(values, n=4)``, next to a third of the metric's
bound in BENCHMARK.json.  ``--out`` also writes the raw values and the
machine (nproc, Python, multiprocessing start method, git commit) as JSON;
perfbench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out")
    ns = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "start_method": multiprocessing.get_start_method(),
            "git_commit": _git_commit(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    ok = True
    for name in ns.workloads.split(","):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(1, ns.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        summary = {"rows_attempted": attempted, "rows_failed": failed}
        print(f"{name:<10} rows failed {failed} of {attempted}")
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "" if spread < bounds[key] / 3 else "  <-- above bound/3"
            print(f"{name:<10} {key:<12} median {med:<12.6g} spread {spread:.4f}  bound/3 {bounds[key] / 3:.4f}{flag}")
        report["workloads"][name] = summary
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change pairs of the benchmark harness, saved as BENCH_<pr>.json.

Usage (from the repository root):

    python3 tools/pairs.py --parent HEAD~1 --out BENCH_16.json --workload wss_all --pairs 10
    python3 tools/pairs.py --check BENCH_16.json

The parent is the committed tree of ``--parent``, unpacked by
``git archive`` into a temporary directory; the change is the working
tree this script sits in.  Each side runs its own
``perfbench/run.py --workload W --trace 0`` (with ``--seconds`` and
``--seed`` passed on), alternately: odd pairs run the parent first,
even pairs the change first.  Every run must print ``"correct": true``;
the first one that does not stops the script with exit 1 and no file.

Per end-to-end metric of ``BENCHMARK.json`` the file holds both sides'
medians and quartiles over the pairs, the parent's IQR, and the number
of pairs in which the change was better.  Runs of another workload
already in the file are kept, so workloads can be paired one at a time.
Nothing here gates on a win: ``--check`` only validates the schema and
that every recorded run was correct.  The script reads ``perfbench/``
and changes nothing in it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
STATS = ("median", "q1", "q3")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _unpack(rev: str, dest: str) -> None:
    """Write the committed files of ``rev`` under ``dest``."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    # Pythons without extraction filters take no filter argument.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)


def _directions() -> dict[str, str]:
    """End-to-end metric name -> "lower" or "higher", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def _run(root: str, workload: str, seconds: int, seed: int | None) -> dict:
    """The JSON result line of one harness run from the tree at ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0", "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False}
    except ValueError:
        return {"correct": False}


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return dict.fromkeys(STATS, values[0])
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list[dict], directions: dict[str, str]) -> dict[str, dict]:
    """Per metric: both sides' quartiles, the parent's IQR and the change's wins."""
    pairs = len(runs) // 2
    out = {}
    for name, better in directions.items():
        values = {side: [r["metrics"][name] for r in runs if r["side"] == side] for side in SIDES}
        by_pair = zip(values["parent"], values["change"])
        wins = sum(c < p if better == "lower" else c > p for p, c in by_pair)
        parent, change = _quartiles(values["parent"]), _quartiles(values["change"])
        out[name] = {
            "better": better,
            "parent": parent,
            "change": change,
            "parent_iqr": parent["q3"] - parent["q1"],
            "wins": wins,
            "pairs": pairs,
        }
    return out


def pair_workload(parent_root: str, workload: str, pairs: int, seconds: int, seed: int | None) -> list[dict]:
    """2 * ``pairs`` alternating runs; exits 1 at the first incorrect one."""
    roots = {"parent": parent_root, "change": ROOT}
    runs = []
    for i in range(1, pairs + 1):
        for side in SIDES if i % 2 else SIDES[::-1]:
            result = _run(roots[side], workload, seconds, seed)
            if result.get("correct") is not True:
                sys.exit(f"error: {workload} pair {i} ({side}) is not correct: {json.dumps(result)}")
            metrics = {k: m["value"] for k, m in result["metrics"].items()}
            runs.append({"pair": i, "side": side, "correct": True, "metrics": metrics})
            print(f"{workload} pair {i} {side:<6} wall_s {metrics['wall_s']:.4f}", file=sys.stderr)
    return runs


def check(doc: dict) -> list[str]:
    """What is wrong with a BENCH file; empty when it is well formed and every run was correct."""
    problems = []
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return ["no workloads"]
    for name, w in workloads.items():
        missing = [k for k in ("parent", "change", "pairs", "seconds", "runs", "metrics") if k not in w]
        if missing:
            problems.append(f"{name}: no {', '.join(missing)}")
            continue
        runs, pairs = w["runs"], w["pairs"]
        if not isinstance(pairs, int) or pairs < 1 or len(runs) != 2 * pairs:
            problems.append(f"{name}: {len(runs)} runs for {pairs} pairs")
        for r in runs:
            if r.get("correct") is not True or r.get("side") not in SIDES:
                problems.append(f"{name}: run {r} is not a correct parent or change run")
        for metric, m in w["metrics"].items():
            sides_ok = all(isinstance(m.get(s), dict) and set(m[s]) == set(STATS) for s in SIDES)
            counts_ok = isinstance(m.get("wins"), int) and 0 <= m["wins"] <= pairs == m.get("pairs")
            if not (sides_ok and counts_ok and m.get("better") in ("lower", "higher") and "parent_iqr" in m):
                problems.append(f"{name}: metric {metric} is malformed")
    return problems


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="validate a BENCH file and exit")
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent (default HEAD~1)")
    parser.add_argument("--out", help="the BENCH_<pr>.json file to write")
    parser.add_argument("--workload", action="append", help="repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30, help="passed to perfbench/run.py")
    parser.add_argument("--seed", type=int, help="passed to perfbench/run.py")
    ns = parser.parse_args(argv)
    if ns.check:
        problems = check(_load(ns.check))
        for line in problems:
            print(f"{ns.check}: {line}", file=sys.stderr)
        return 1 if problems else 0
    if not ns.workload or ns.pairs < 1 or not ns.out:
        parser.error("give --out, --workload and --pairs >= 1")
    directions = _directions()
    parent = _git("rev-parse", "--verify", f"{ns.parent}^{{commit}}")
    change = _git("rev-parse", "HEAD") + ("+dirty" if _git("status", "--porcelain", "--untracked-files=no") else "")
    doc = _load(ns.out) if os.path.exists(ns.out) else {}
    doc["host"] = {"python": platform.python_version(), "cpus": os.cpu_count(), "machine": platform.machine()}
    doc.setdefault("workloads", {})
    with tempfile.TemporaryDirectory() as tmp:
        _unpack(parent, tmp)
        for workload in ns.workload:
            runs = pair_workload(tmp, workload, ns.pairs, ns.seconds, ns.seed)
            doc["workloads"][workload] = {
                "parent": parent,
                "change": change,
                "pairs": ns.pairs,
                "seconds": ns.seconds,
                "seed": ns.seed,
                "metrics": summarize(runs, directions),
                "runs": runs,
            }
    with open(ns.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload in ns.workload:
        wall = doc["workloads"][workload]["metrics"]["wall_s"]
        print(
            f"{workload}: wall_s median {wall['parent']['median']:.4f} -> {wall['change']['median']:.4f} s, "
            f"parent IQR {wall['parent_iqr']:.4f}, change better in {wall['wins']} of {wall['pairs']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

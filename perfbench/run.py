"""fibmod benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload wide_scan --seed 42 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):

  wide_scan  fibmod scan over 11 checks, primes to 10^4, --jobs 2
  t2_all_m   scan(T2_MAIN, T2_CAT, p <= 300, every small m + 50 seeded m)
  wss_all    fibmod wss --limit 10^6, every record kept, fresh checkpoint

Each repetition runs in a fresh interpreter (child.py) with ``src`` on
PYTHONPATH; repetitions are started until ``--seconds`` have passed and
medians are reported.  Every output file is checked: against its pinned
sha256 in golden.json where the bytes are fixed (wide_scan and wss_all
always, t2_all_m at the default seed), otherwise by status (no FAIL row,
SKIP only where p divides m).  A mismatch, a nonzero exit or a missing
file counts every row of that repetition as failed.

--trace 0 prints the end-to-end metrics: wall_s (around the entry-point
call, excluding interpreter start and import), rows_per_s, cpu_s (user
plus system, pool children included), peak_rss_mb and setup_s (fresh
interpreter until ``import fibmod`` is done, median of several launches).
error_frac is printed on the text lines and carried by attempted/failed.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of tracer.py plus trace_overhead_frac.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_LAUNCHES = 11
CHILD_TIMEOUT_S = 60
# No repetition starts that could end after this many seconds of the run,
# so one run always exits well inside three minutes.
RUN_LIMIT_S = 160
UNITS = {
    "wall_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _load_json(name: str):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Failure(Exception):
    """The benchmark cannot run here; no result is printed."""


def _launch(spec: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run child.py once in a new session and return its JSON line."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    spec = dict(spec, t0=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # Kill the whole session, pool workers included.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"exit_code": "timeout"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        return {"exit_code": proc.returncode or "no output"}
    result = json.loads(lines[-1])
    if not result["fibmod"].startswith(SRC + os.sep):
        raise Failure(f"imported fibmod from {result['fibmod']}, not from {SRC}")
    return result


def _setup_sample() -> float:
    sample = _launch({"mode": "setup"})
    if "setup_s" not in sample:
        raise Failure("fibmod does not import")
    return sample["setup_s"]


def verify(name: str, path: str, seed: int, golden: dict) -> tuple[int, int, str]:
    """(rows attempted, rows failed, sha256) for one output file."""
    expected = golden[name]["rows"]
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return expected, expected, ""
    digest = hashlib.sha256(data).hexdigest()
    if name != "t2_all_m" or seed == workloads.DEFAULT_SEED:
        return expected, 0 if digest == golden[name]["sha256"] else expected, digest
    try:
        lines = data.decode("ascii").splitlines()
        head = json.loads(lines[0])
        rows = [json.loads(line) for line in lines[1:-1]]
        if head["sample_seed"] != str(seed) or "summary" not in json.loads(lines[-1]):
            return expected, expected, digest
        failed = sum(
            1
            for r in rows
            if r["status"] not in ("PASS", "SKIP") or (r["status"] == "SKIP" and r["m"] % r["p"])
        )
    except (UnicodeDecodeError, ValueError, IndexError, KeyError, TypeError):
        return expected, expected, digest
    if len(rows) != expected:
        return expected, expected, digest
    return expected, failed, digest


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_benchmark(name: str, seed: int, seconds: int, trace: bool, scale: str = "full") -> dict:
    if not os.path.isfile(os.path.join(SRC, "fibmod", "__init__.py")):
        raise Failure(f"no fibmod sources under {SRC}")
    begun = time.monotonic()
    golden = _load_json("golden.json")[scale]
    size = workloads.SIZES[scale][name]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    out = os.path.join(WORK, "report.out")
    ckpt = os.path.join(WORK, "wss.ckpt")
    trace_dir = os.path.join(WORK, "trace")

    # The first import writes bytecode caches; it is not a sample.
    _setup_sample()
    # setup_s samples: a batch up front, then one before each untraced
    # repetition so they see the same machine as the run.
    setups = [_setup_sample() for _ in range(0 if trace else SETUP_LAUNCHES)]

    reps: list[dict] = []
    attempted = failed = 0
    digest = ""
    start = time.monotonic()
    while True:
        for traced in ((False, True) if trace else (False,)):
            for path in (out, ckpt):
                if os.path.exists(path):
                    os.remove(path)
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            if not trace:
                setups.append(_setup_sample())
            t0 = time.monotonic()
            rep = _launch(
                {"mode": "run", "workload": name, "size": size, "seed": seed, "out": out,
                 "ckpt": ckpt, "trace": traced, "trace_dir": trace_dir},
                timeout=max(1.0, RUN_LIMIT_S - (t0 - begun)),
            )
            n, bad, digest = verify(name, out, seed, golden)
            if rep.get("exit_code") != 0:
                bad = n
            attempted += n
            failed += bad
            reps.append(dict(rep, traced=traced, rows=n, took=time.monotonic() - t0))
        now = time.monotonic()
        if now - start >= seconds or now - begun + max(r["took"] for r in reps) * (1 + trace) > RUN_LIMIT_S:
            break
    shutil.rmtree(WORK, ignore_errors=True)

    timed = [r for r in reps if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    metrics: dict[str, dict] = {}
    text = [f"workload {name}  scale {scale}  seed {seed}  repetitions {len(reps)}"]
    if not trace:
        samples = {
            "wall_s": [r["wall_s"] for r in plain],
            "rows_per_s": [r["rows"] / r["wall_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "setup_s": setups,
        }
        for key, values in samples.items():
            if not values:
                continue
            q1, med, q3 = _quartiles(values)
            metrics[key] = {"value": med, "unit": UNITS[key]}
            text.append(f"  {key:<14} {med:.6g} {UNITS[key]}  (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")
    else:
        traced = [r["layers"] for r in timed if r["traced"]]
        if traced and plain:
            for key in traced[0]:
                unit = _layer_unit(key)
                pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
                metrics[key] = {"value": pick(t[key] for t in traced), "unit": unit}
            overhead = statistics.median(r["wall_s"] for r in timed if r["traced"]) / statistics.median(
                r["wall_s"] for r in plain
            ) - 1
            metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
            for key, m in metrics.items():
                text.append(f"  {key:<30} {m['value']:.6g} {m['unit']}")
    text.append(f"  error_frac     {failed / attempted if attempted else 1:.6g} ratio  ({failed} of {attempted} rows failed)")
    text.append(f"  last output    sha256 {digest or '-'}  ({golden[name]['rows']} rows expected)")
    return {
        "text": text,
        "result": {
            "correct": failed == 0 and bool(metrics),
            "attempted": max(attempted, 1),
            "failed": failed if attempted else 1,
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        outcome = run_benchmark(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in outcome["text"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark repetition in a fresh interpreter.

Usage: child.py SPEC_JSON, where SPEC_JSON holds the launch time ``t0``
(``time.monotonic`` in the parent just before the launch) and either
``"mode": "setup"`` or a workload to run.  Prints one JSON object.

Every repetition gets its own interpreter: ``modarith.is_prime`` keeps a
process-wide cache, and ``ru_maxrss`` only ever rises, so in-process
repeats would flatter later runs.
"""

import time

import fibmod

SETUP_DONE = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import fibmod.cli  # noqa: E402,F401
import workloads  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    spec = json.loads(sys.argv[1])
    out = {"setup_s": SETUP_DONE - spec["t0"], "fibmod": fibmod.__file__}
    if spec["mode"] == "setup":
        print(json.dumps(out))
        return
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["trace_dir"])
        tracer.install(fibmod)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    w0 = time.perf_counter()
    code = workloads.run(fibmod, spec["workload"], spec["size"], spec["seed"], spec["out"], spec["ckpt"])
    wall = time.perf_counter() - w0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    out.update(
        exit_code=code,
        wall_s=wall,
        cpu_s=_cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        peak_rss_mb=max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
    )
    if tracer is not None:
        out["layers"] = tracer.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""Outside-in tracer: per-layer time and counts without touching fibmod.

``install`` replaces chosen module-level functions with timing wrappers
in every fibmod namespace that holds them (``checks`` imports ``jacobi``
and ``_cb_vu`` by name, ``scanner`` imports ``run_check`` and
``_fib_pair_mod``, the package re-exports ``scan``), so calls made
through any of those names are seen.

Spans (group, start, end, parent) are kept in memory and aggregated once
at the end; a span's self time is its duration minus that of its child
spans.  Pool workers are forked with the wrappers in place, but
``Pool.__exit__`` terminates them without running ``atexit``, so each
worker appends one aggregate line per ``_prime_worker`` task to a
per-pid file that ``summary`` merges.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# group -> (module, function names).  A group's time is the self time of
# its functions, or their outermost duration where it has no wrapped
# children worth separating.
GROUPS = {
    "table": ("binomsums", ("_inv_table", "_cb_vu", "_residues_from_vu", "_h2_prefix")),
    "kernel": ("binomsums", ("_sum_with_power",)),
    "aux": ("binomsums", ("alternating_harmonic", "power_over_square_sum")),
    "run_check": ("checks", ("run_check",)),
    "compare": ("checks", ("_compare",)),
    "jacobi": ("modarith", ("jacobi",)),
    "lucas": ("sequences", ("lucas_uv_mod", "fibonacci_mod", "fibonacci_quotient",
                            "fermat_quotient", "_fib_pair_mod")),
    "sieve": ("scanner", ("sieve_primes",)),
    "prime_worker": ("scanner", ("_prime_worker",)),
    "scan": ("scanner", ("scan",)),
    "render": ("scanner", ("render_csv", "render_jsonl", "render_wss_csv")),
    "checkpoint": ("scanner", ("_write_checkpoint",)),
    "parse": ("cli", ("parse_args",)),
    "write": ("cli", ("_write_or_print",)),
}
GROUP_NAMES = tuple(GROUPS)
_GID = {g: i for i, g in enumerate(GROUP_NAMES)}
COUNTS = ("tables_built", "table_entries", "kernel_terms", "report_bytes", "checkpoint_bytes")

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


def _cache_arg(args, kwargs):
    cache = args[2] if len(args) > 2 else kwargs.get("cache")
    return cache if isinstance(cache, dict) else None


def _cache_size(cache):
    if cache is None:
        return 0, 0
    return len(cache), sum(len(v) for v in cache.values())


class Tracer:
    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.root_pid = os.getpid()
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.jobs: list[int] = []

    # -- wrapping ---------------------------------------------------------

    def install(self, fibmod) -> None:
        for group, (module, names) in GROUPS.items():
            mod = getattr(fibmod, module)
            for name in names:
                original = getattr(mod, name)
                wrapper = self._wrap(original, _GID[group], name)
                for ns in [m for k, m in sys.modules.items() if k == "fibmod" or k.startswith("fibmod.")]:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def _wrap(self, fn, gid: int, name: str):
        if name == "_prime_worker":
            return self._wrap_worker(fn, gid)
        before = after = None
        if name == "run_check":
            def before(args, kwargs):
                return _cache_size(_cache_arg(args, kwargs))

            def after(token, args, kwargs, result):
                keys, entries = _cache_size(_cache_arg(args, kwargs))
                self.counts["tables_built"] += keys - token[0]
                self.counts["table_entries"] += entries - token[1]
        elif name == "_sum_with_power":
            def after(token, args, kwargs, result):
                self.counts["kernel_terms"] += args[1] + 1
        elif name.startswith("render_"):
            def after(token, args, kwargs, result):
                self.counts["report_bytes"] += len(result) if result is not None else 0
        elif name == "_write_checkpoint":
            def after(token, args, kwargs, result):
                if os.path.exists(args[0]):
                    self.counts["checkpoint_bytes"] += os.path.getsize(args[0])
        elif name == "scan":
            def before(args, kwargs):
                self.jobs.append(args[0].jobs)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            stack = self.stack
            spans = self.spans
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (gid, t0, t1, parent)
                if after:
                    after(token, args, kwargs, result)

        return wrapper

    def _wrap_worker(self, fn, gid: int):
        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() == self.root_pid:  # jobs=1: runs inside the scan span
                parent = self.stack[-1] if self.stack else -1
                idx = len(self.spans)
                self.spans.append(None)
                self.stack.append(idx)
                t0 = clock()
                try:
                    return fn(task)
                finally:
                    t1 = clock()
                    self.stack.pop()
                    self.spans[idx] = (gid, t0, t1, parent)
            # Forked pool worker: trace this task on its own, then flush.
            pid = os.getpid()
            self.spans = [None]
            self.stack = [0]
            self.counts = dict.fromkeys(COUNTS, 0)
            t0 = clock()
            try:
                return fn(task)
            finally:
                t1 = clock()
                self.spans[0] = (gid, t0, t1, -1)
                line = {
                    "pid": pid,
                    "start": t0,
                    "end": t1,
                    "groups": _aggregate(self.spans),
                    "counts": self.counts,
                }
                path = os.path.join(self.trace_dir, f"worker-{pid}.jsonl")
                with open(path, "a", encoding="ascii") as fh:
                    fh.write(json.dumps(line) + "\n")

        return wrapper

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics for everything traced since ``install``."""
        groups = _aggregate(self.spans)
        counts = dict(self.counts)
        tasks = [(self.root_pid, s[1], s[2]) for s in self.spans if s[0] == _GID["prime_worker"]]
        for fname in sorted(os.listdir(self.trace_dir)):
            if not fname.startswith("worker-"):
                continue
            with open(os.path.join(self.trace_dir, fname), encoding="ascii") as fh:
                for raw in fh:
                    rec = json.loads(raw)
                    tasks.append((rec["pid"], rec["start"], rec["end"]))
                    for g, vals in rec["groups"].items():
                        groups[g] = [a + b for a, b in zip(groups[g], vals)]
                    for k, v in rec["counts"].items():
                        counts[k] += v

        scans = [(s[1], s[2]) for s in self.spans if s[0] == _GID["scan"]]
        scan_wall = sum(t1 - t0 for t0, t1 in scans)
        busy = sum(t1 - t0 for _, t0, t1 in tasks)
        pooled = any(pid != self.root_pid for pid, _, _ in tasks)
        jobs = max(self.jobs) if pooled and self.jobs else 1
        last_end: dict[int, float] = {}
        for pid, _, t1 in tasks:
            last_end[pid] = max(t1, last_end.get(pid, t1))
        merge = 0.0
        for t0, t1 in scans:
            sieve = sum(s[2] - s[1] for s in self.spans
                        if s[0] == _GID["sieve"] and t0 <= s[1] and s[2] <= t1)
            covered = _union_within([(a, b) for _, a, b in tasks], t0, t1)
            merge += (t1 - t0) - sieve - covered

        def self_s(g):
            return groups[g][0]

        def total_s(g):
            return groups[g][1]

        def calls(g):
            return groups[g][2]

        return {
            "binomsums.table_s": self_s("table"),
            "binomsums.tables_built": counts["tables_built"],
            "binomsums.table_entries": counts["table_entries"],
            "binomsums.kernel_s": self_s("kernel"),
            "binomsums.kernel_calls": calls("kernel"),
            "binomsums.kernel_terms": counts["kernel_terms"],
            "binomsums.aux_s": self_s("aux"),
            "checks.run_check_calls": calls("run_check"),
            "checks.run_check_self_s": self_s("run_check"),
            "checks.compare_s": self_s("compare"),
            "modarith.jacobi_s": self_s("jacobi"),
            "modarith.jacobi_calls": calls("jacobi"),
            "sequences.lucas_s": self_s("lucas"),
            "sequences.lucas_calls": calls("lucas"),
            "scanner.sieve_s": total_s("sieve"),
            "scanner.prime_worker_s": busy,
            "scanner.prime_worker_max_s": max((t1 - t0 for _, t0, t1 in tasks), default=0.0),
            "scanner.pool_busy_frac": busy / (jobs * scan_wall) if scan_wall else 0.0,
            "scanner.pool_tail_s": max(last_end.values()) - min(last_end.values()) if last_end else 0.0,
            "scanner.merge_s": merge,
            "scanner.render_s": total_s("render"),
            "scanner.report_bytes": counts["report_bytes"],
            "scanner.checkpoint_s": total_s("checkpoint"),
            "scanner.checkpoint_writes": calls("checkpoint"),
            "scanner.checkpoint_bytes": counts["checkpoint_bytes"],
            "cli.parse_s": total_s("parse"),
            "cli.write_s": total_s("write"),
        }


def _aggregate(spans) -> dict[str, list]:
    """group -> [self time, outermost time, outermost calls].

    A call is outermost when its parent span belongs to another group, so
    a Lucas helper calling ``_fib_pair_mod`` counts once.
    """
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = [[0.0, 0.0, 0] for _ in GROUP_NAMES]
    for i, (gid, t0, t1, parent) in enumerate(spans):
        acc = out[gid]
        acc[0] += (t1 - t0) - child[i]
        if parent < 0 or spans[parent][0] != gid:
            acc[1] += t1 - t0
            acc[2] += 1
    return dict(zip(GROUP_NAMES, out))


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total

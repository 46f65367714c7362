"""Batch execution of checks over prime ranges, and the Wall-Sun-Sun search.

Work is partitioned by prime: all checks at one prime share one
``PrimeTables`` store (the central-binomial residue tables and inverse
tables at each exponent), and per-prime row lists are merged in
ascending prime order, so reports are byte-identical regardless of the
worker count.  ``binomsums`` has three sum evaluators: the walk plus
Horner's rule for one sum, the tree for one base at many primes, and the
transform for many bases at one prime.  Before the primes are handed
out, the tree gives every constant-base sum side, central binomial and
alternating harmonic side at all of them, one task per group of side
records that share a ``batch`` call, run on the same worker pool as the
primes.  Each prime's store starts with those values in its ``sides``,
keyed by the row that reads them.
The store also holds the prime's m list, so its first sum over base m
gives that sum at every m by the transform.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii as _json_str
from math import isqrt
from operator import le, lt
from typing import NamedTuple

from ._version import __version__
from .binomsums import PrimeTables
from .checks import (
    DEFAULT_TERM_BUDGET,
    BudgetExceeded,
    CheckError,
    CheckParams,
    Verdict,
    evaluates,
    get_check,
    run_check,
)
from .modarith import _MR_BASES, MODULUS_BOUND, is_prime
from .sequences import DomainError, fibonacci_quotients


class CheckpointCorrupt(Exception):
    """A resume file does not match the checkpoint format."""


# ---------------------------------------------------------------------------
# Prime generation.
# ---------------------------------------------------------------------------


_SEGMENT = 1 << 17


def sieve_primes(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending, by a segmented sieve.

    Memory stays O(sqrt(hi) + segment) no matter how wide the range is.
    The base primes to sqrt(hi) come from the same sieve.
    """
    if hi < 2 or hi < lo:
        return []
    base = sieve_primes(2, isqrt(hi))
    out: list[int] = []
    lo = max(lo, 2)
    for low in range(lo, hi + 1, _SEGMENT):
        high = min(low + _SEGMENT, hi + 1)
        out.extend(compress(range(low, high), _segment_mask(low, high, base)))
    return out


def _primes_down(lo: int, hi: int):
    """The primes in [lo, hi] for lo >= 2, descending, sieved one segment
    at a time, so a caller that stops early sieves no further."""
    base = sieve_primes(2, isqrt(hi)) if hi >= lo else []
    while hi >= lo:
        low = max(lo, hi + 1 - _SEGMENT)
        yield from reversed(list(compress(range(low, hi + 1), _segment_mask(low, hi + 1, base))))
        hi = low - 1


def _segment_mask(low: int, high: int, base: list[int]) -> bytearray:
    """1 at each n in [low, high) that no prime q in ``base`` with q*q <= n divides."""
    mask = bytearray([1]) * (high - low)
    for q in base:
        start = max(q * q, (low + q - 1) // q * q)
        if start < high:
            mask[start - low :: q] = bytes((high - start + q - 1) // q)
    return mask


# ---------------------------------------------------------------------------
# Scan requests and reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllSmall:
    """m runs over 1..p-1."""


@dataclass(frozen=True)
class Sample:
    """count seeded draws of m from [p, p^2), coprime to p, distinct."""

    count: int
    seed: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"a sample must draw at least one m, got count {self.count}")


@dataclass(frozen=True)
class MList:
    """An explicit list of m values."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("an m list must hold at least one value")


MPolicy = AllSmall | Sample | MList


@dataclass(frozen=True)
class ScanRequest:
    """One deterministic batch of checks.

    Identical requests (seed included) produce byte-identical reports no
    matter how many workers run them.  A request no scan can run is
    refused on construction: ``UnknownCheckId`` for an unknown id, and
    ``ValueError`` for no ids, an n-indexed id (a scan never sets n, so
    every one of its rows would be a SKIP), ``p_min > p_max``, no m
    policy, ``a_max``, ``jobs`` or ``budget`` below 1, or an id that
    ``evaluates`` at some odd prime of the range and a <= ``a_max`` where
    its modulus p^e reaches the ``Modulus`` bound.  The policies refuse
    themselves when they select no m.
    """

    check_ids: tuple[str, ...]
    p_min: int
    p_max: int
    a_max: int = 1
    m_policy: tuple[MPolicy, ...] = (AllSmall(),)
    jobs: int = 1
    budget: int = DEFAULT_TERM_BUDGET
    force: bool = False

    def __post_init__(self) -> None:
        if not self.check_ids:
            raise ValueError("a scan must name at least one check")
        for cid in self.check_ids:
            if get_check(cid).index == "n":
                raise ValueError(
                    f"{cid} is indexed by n, which a scan does not set; "
                    "use check --n or run_conj11n_range"
                )
        if self.p_min > self.p_max:
            raise ValueError(f"p_min {self.p_min} exceeds p_max {self.p_max}")
        if not self.m_policy:
            raise ValueError("a scan must name at least one m policy")
        for name in ("a_max", "jobs", "budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for cid in self.check_ids:
            spec = get_check(cid)
            # m = 1 stands in for every m: that domain asks only gcd(m, p) = 1.
            m = 1 if spec.index == "m" else None
            for a in range(1, self.a_max + 1):
                e = spec.exponent(CheckParams(p=self.p_max, a=a))
                if self.p_max**e < MODULUS_BOUND:
                    continue
                for p in _primes_down(max(self.p_min, 3), self.p_max):
                    if p**e < MODULUS_BOUND:
                        break
                    if evaluates(spec, CheckParams(p, a, m, force=self.force, budget=self.budget)):
                        raise ValueError(
                            f"{cid} needs p^e = {p}^{e} at a = {a}, past the 2^62 modulus bound"
                        )


class Row(NamedTuple):
    """One report row.  A tuple, not a frozen dataclass, because a scan
    builds one per row; a row equals the plain tuple of its fields."""

    check_id: str
    p: int
    a: int
    m: int | None
    exponent: int | None
    lhs: int | None
    rhs: int | None
    defect_valuation: int | None
    status: str


@dataclass
class Report:
    request: ScanRequest
    rows: list[Row]
    summary: dict[str, dict[str, int]] = field(default_factory=dict)


def _sample_values(pol: Sample, p: int) -> list[int]:
    # Seeded per prime so draws do not depend on scan order or workers.
    rng = random.Random(f"{pol.seed}:{p}")
    want = min(pol.count, (p - 1) * (p - 1))
    values: set[int] = set()
    while len(values) < want:
        v = rng.randrange(p, p * p)
        if v % p:
            values.add(v)
    return sorted(values)


def _m_values(p: int, policies: tuple[MPolicy, ...]) -> list[int]:
    values: set[int] = set()
    for pol in policies:
        if isinstance(pol, AllSmall):
            values.update(range(1, p))
        elif isinstance(pol, Sample):
            values.update(_sample_values(pol, p))
        else:
            values.update(pol.values)
    return sorted(values)


def verdict_row(check_id: str, p: int, a: int, m: int | None, verdict: Verdict | None) -> Row:
    """The report row of one check run; no verdict makes a SKIP row."""
    if verdict is None:
        return Row(check_id, p, a, m, None, None, None, None, "SKIP")
    return Row(
        check_id,
        p,
        a,
        m,
        verdict.modulus.e,
        verdict.lhs,
        verdict.rhs,
        verdict.defect_valuation,
        "PASS" if verdict.passed else "FAIL",
    )


def _batch_groups(ids: tuple[str, ...]) -> list[list[tuple[str, str]]]:
    """(check id, "lhs" or "rhs") of each side of ``ids`` that ``scan``
    evaluates over all its primes at once: a side record whose
    ``batches`` holds.  The others, custom sides among them, stay on the
    per-prime walk.  The sides are split into the groups that share one
    ``batch`` call: the sides whose records differ only in their upper."""
    groups: dict[object, list[tuple[str, str]]] = {}
    for cid in ids:
        for name in ("lhs", "rhs"):
            side = getattr(get_check(cid), name)
            if getattr(side, "batches", False):
                groups.setdefault(replace(side, upper=None), []).append((cid, name))
    return list(groups.values())


def _batch_group(task) -> dict[tuple[str, str], list[int | None]]:
    """Per member (check id, "lhs" or "rhs") of one batch group, its value
    at a = 1 at each prime, or None.

    ``task`` is (members, primes, force, budget).  A side is evaluated
    only at the primes where ``run_check`` reads it (in the domain unless
    forced, and within the budget), and the whole group is one ``batch``
    call.  None marks a value that its row evaluates itself, or one
    ``run_check`` never reads.  A scan runs each group as a task of its
    pool, so the task builds its own entries and returns only the values.
    """
    members, primes, force, budget = task
    entries: list[tuple[int, int, int]] = []
    keys: list[tuple[int, tuple[str, str]]] = []  # per entry, its prime's index and its member
    for member in members:
        spec = get_check(member[0])
        upper = getattr(spec, member[1]).upper
        for i, p in enumerate(primes):
            pr = CheckParams(p=p, force=force, budget=budget)
            if evaluates(spec, pr):
                keys.append((i, member))
                entries.append((p, upper(pr), spec.exponent(pr)))
    cid, name = members[0]
    values = replace(getattr(get_check(cid), name), upper=None).batch(entries)
    columns = {member: [None] * len(primes) for member in members}
    for (i, member), s in zip(keys, values):
        columns[member][i] = s
    return columns


def _prime_worker(task) -> list[Row]:
    p, request, given = task
    ids = sorted(set(request.check_ids))
    ms = _m_values(p, request.m_policy) if any(get_check(cid).index == "m" for cid in ids) else []
    tables = PrimeTables(m for m in ms if m % p)
    force, budget = request.force, request.budget
    pr = CheckParams(p=p, force=force, budget=budget)
    for (cid, name), s in given.items():
        tables.sides[cid, name, pr] = s
    rows: list[Row] = []
    for cid in ids:
        spec = get_check(cid)
        m_list = ms if spec.index == "m" else [None]
        for a in range(1, request.a_max + 1):
            for m in m_list:
                # Positional: a NamedTuple built by keyword costs more per row.
                params = CheckParams(p, a, m, None, None, None, force, budget)
                try:
                    v = run_check(cid, params, tables)
                except (DomainError, BudgetExceeded):
                    v = None
                except CheckError:
                    # Broken arithmetic is only expected where forced.
                    if not request.force:
                        raise
                    v = None
                rows.append(verdict_row(cid, p, a, m, v))
    return rows


def scan(request: ScanRequest) -> Report:
    """Run every requested check over every odd prime in range.

    Out-of-domain and over-budget combinations become SKIP rows, never
    errors; rows are ordered by (p, check_id, a, m).  A ``CheckError``
    (arithmetic that breaks) propagates, unless the request is forced,
    where it becomes a SKIP row too.

    The batch groups run first, as tasks of the same pool as the primes
    when there is one, and each prime's task carries its values.
    """
    ids = tuple(sorted(set(request.check_ids)))
    primes = [p for p in sieve_primes(request.p_min, request.p_max) if p > 2]
    group_tasks = [(members, primes, request.force, request.budget) for members in _batch_groups(ids)]

    def prime_tasks(columns: list[dict[tuple[str, str], list[int | None]]]) -> list[tuple]:
        # Each prime's task carries a dict of only the values the groups gave it.
        return [
            (p, request, {k: c[i] for group in columns for k, c in group.items() if c[i] is not None})
            for i, p in enumerate(primes)
        ]

    rows: list[Row] = []
    if request.jobs > 1 and len(primes) > 1:
        # Imported here, since only a pool needs it: wss and check never fork.
        import multiprocessing

        jobs = min(request.jobs, len(primes))
        with multiprocessing.Pool(processes=jobs) as pool:
            columns = pool.map(_batch_group, group_tasks, chunksize=1)
            # The dearest primes go first, so the pool's tail is made of cheap
            # ones; about 8 chunks per worker keep the parent's handling small.
            tasks = prime_tasks(columns)[::-1]
            chunks = pool.map(_prime_worker, tasks, chunksize=max(1, len(tasks) // (8 * jobs)))
            for chunk in reversed(chunks):
                rows.extend(chunk)
    else:
        for task in prime_tasks([_batch_group(task) for task in group_tasks]):
            rows.extend(_prime_worker(task))
    summary: dict[str, dict[str, int]] = {
        cid: {"pass": 0, "fail": 0, "skip": 0} for cid in ids
    }
    for row in rows:
        summary[row.check_id][row.status.lower()] += 1
    return Report(request=request, rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# Report rendering.  The CSV column set and order are fixed; JSON carries
# one object per line with identical field names.
# ---------------------------------------------------------------------------

_ROW_FIELDS = Row._fields
CSV_COLUMNS = ",".join(_ROW_FIELDS)
_CSV_ROW = ",".join(["%s"] * len(_ROW_FIELDS)) + "\n"
# The bytes json.dumps gives a dict of a row's fields, with one %s per value.
_JSONL_ROW = "{" + ", ".join(f"{json.dumps(k)}: %s" for k in _ROW_FIELDS) + "}\n"
_SLICE = 4096  # rows or records per slice of a report or CSV, each slice one % format


def _lines(rows: Iterable[tuple], line: str, text: dict | None = None, quote=None) -> Iterator[str]:
    """``line`` % the values of each of ``rows``, as one str per ``_SLICE``
    rows, so no str per row outlives its slice; ``line`` has one % field
    per value.

    A value that ``text`` holds is replaced by its entry first.  With
    ``quote``, the first and last value of each row (a ``Row``'s only
    strs, its check id and status) enter ``text`` as their ``quote``.
    """
    width = line.count("%")
    it = iter(rows)
    while flat := tuple(chain.from_iterable(islice(it, _SLICE))):
        if quote:
            text.update({s: quote(s) for s in {*flat[::width], *flat[width - 1 :: width]}})
        if text:
            flat = tuple(map(text.get, flat, flat))
        yield line * (len(flat) // width) % flat


def _policy_text(policies: tuple[MPolicy, ...]) -> str:
    parts = []
    for pol in policies:
        if isinstance(pol, AllSmall):
            parts.append("all")
        elif isinstance(pol, Sample):
            parts.append(f"sample:{pol.count}:{pol.seed}")
        else:
            parts.append("list:" + ",".join(str(v) for v in pol.values))
    return "+".join(parts)


def _policy_from_text(text: str) -> tuple[MPolicy, ...]:
    """The inverse of ``_policy_text``; ``ValueError`` for text it never renders."""
    return tuple(_one_policy(part) for part in text.split("+"))


def _one_policy(text: str) -> MPolicy:
    if text == "all":
        return AllSmall()
    if text.startswith("sample:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad m-policy {text!r}: expected sample:<count>:<seed>")
        try:
            count, seed = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"bad m-policy {text!r}: count and seed must be integers") from None
        return Sample(count, seed)
    if text.startswith("list:"):
        try:
            return MList(tuple(int(v) for v in text.removeprefix("list:").split(",")))
        except ValueError:
            raise ValueError(f"bad m-policy {text!r}: values must be integers") from None
    raise ValueError(f"bad m-policy {text!r}: expected all, sample:<n>:<seed> or list:<v,...>")


def _sample_seed(request: ScanRequest) -> str:
    seeds = [str(pol.seed) for pol in request.m_policy if isinstance(pol, Sample)]
    return ",".join(seeds) if seeds else "none"


def _request_fields(r: ScanRequest) -> dict:
    # jobs is deliberately omitted: it cannot affect the rows, and the
    # report must be byte-identical across worker counts.
    return {
        "ids": sorted(set(r.check_ids)),
        "pmin": r.p_min,
        "pmax": r.p_max,
        "amax": r.a_max,
        "m_policy": _policy_text(r.m_policy),
        "budget": r.budget,
        "force": r.force,
    }


def _field_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ",".join(value)
    return str(value)


def _header_lines(report: Report) -> list[str]:
    fields = _request_fields(report.request)
    return [
        f"# fibmod {__version__} scan report",
        "# request: " + " ".join(f"{k}={_field_text(v)}" for k, v in fields.items()),
        f"# sample_seed: {_sample_seed(report.request)}",
    ]


def csv_row(row: Row) -> str:
    """One report row in ``CSV_COLUMNS`` order; absent values are empty."""
    return ",".join(["" if v is None else str(v) for v in row])


def render_csv(report: Report) -> str:
    head = "\n".join([*_header_lines(report), CSV_COLUMNS]) + "\n"
    tail = [
        f"# summary: {cid} pass={s['pass']} fail={s['fail']} skip={s['skip']}\n"
        for cid, s in sorted(report.summary.items())
    ]
    return "".join([head, *_lines(report.rows, _CSV_ROW, {None: ""}), *tail])


def render_jsonl(report: Report) -> str:
    head = {
        "tool": "fibmod",
        "version": __version__,
        "request": _request_fields(report.request),
        "sample_seed": _sample_seed(report.request),
    }
    summary = {"summary": {cid: report.summary[cid] for cid in sorted(report.summary)}}
    # A row holds only str, int and None, so its values are spliced into
    # one template; no dict is built and dumped per row.
    rows = _lines(report.rows, _JSONL_ROW, {None: "null"}, _json_str)
    return "".join([json.dumps(head) + "\n", *rows, json.dumps(summary) + "\n"])


# ---------------------------------------------------------------------------
# Wall-Sun-Sun search.
# ---------------------------------------------------------------------------


class WssRecord(NamedTuple):
    """One prime with the signed Fibonacci quotient F_{p-(p/5)}/p mod p.

    The quotient is reported in (-p/2, p/2], the near-miss convention;
    it is zero exactly when p is a Wall-Sun-Sun prime.  A tuple, not a
    frozen dataclass, because a search to 10^6 builds 78,495 of them;
    a record equals the plain tuple ``(p, quotient)``.
    """

    p: int
    quotient: int


CHECKPOINT_MAGIC = "wss-checkpoint v3"
CHECKPOINT_EVERY = 10_000
_COMMIT = re.compile(r"commit last_prime=([0-9]+) records=([0-9]+)\n")
_RECORD = re.compile(r"[0-9]+,-?[0-9]+")
_NO_DIGITS = str.maketrans("", "", "0123456789")


def _write_checkpoint(
    path: str, end: int | None, near: str, ps: array, qs: array, committed: int, last_prime: int
) -> int:
    """Commit the records ``(ps[i], qs[i])`` from ``committed`` on and ``last_prime`` to ``path``.

    Returns the file's new length.  ``end`` is the length of the file up
    to its last commit line.  The file is cut back to it, which drops a
    torn tail, and the new records and a commit line are appended in one
    write, so each record is written once.  With ``end`` None (no file
    yet, so ``committed`` is 0) the whole file is written to a temporary
    file and moved over ``path``.
    """
    text = "".join(_lines(zip(ps[committed:], qs[committed:]), "%d,%d\n"))
    text += f"commit last_prime={last_prime} records={len(ps)}\n"
    if end is None:
        text = f"{CHECKPOINT_MAGIC}\nnear={near}\n{text}"
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
        return len(text)
    os.truncate(path, end)
    with open(path, "a", encoding="ascii") as fh:
        fh.write(text)
    return end + len(text)


def _read_checkpoint(path: str) -> tuple[int, str, array, array, int]:
    """(last_prime, near, ps, qs, end) of a checkpoint; record i is ``(ps[i], qs[i])``.

    ``end`` is the length of the file up to its last commit line, or up
    to its header when it has none, which resumes from p = 7.  Records
    after that line are the torn tail of a killed run and are left out.
    Each record must pass ``_parse_records``, have a prime p and stay
    within the last_prime of the commit that covers it.  ps and qs are
    int64 columns, like ``_wss_columns``'s.  A file whose
    first line is not ``CHECKPOINT_MAGIC`` is refused.
    """
    try:
        with open(path, encoding="ascii", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint {path}: {exc}") from exc
    start = text.find("\n") + 1  # 0 when the file has one line
    header = text[: start - 1] if start else text
    if header != CHECKPOINT_MAGIC:
        raise CheckpointCorrupt(f"{path}: header {header[:40]!r} is not {CHECKPOINT_MAGIC!r}")
    stop = text.find("\n", start)
    near = _near_line(path, text[start:stop] if stop > 0 else "")
    end = start = stop + 1
    tail = text.rfind("\n") + 1  # after it: nothing, or a line cut short
    last_prime = floor = 6
    committed = 0
    ps, qs = array("q"), array("q")
    while start < tail:
        stop = text.find("\ncommit", start - 1, tail) + 1 or tail  # the next commit line
        run_ps, run_qs = _parse_records(path, text, start, stop, floor, near)
        ps += run_ps
        qs += run_qs
        floor = ps[-1] if run_ps else floor
        if stop == tail:
            break
        commit = _COMMIT.match(text, stop, tail)
        if commit is None:
            line = text[stop : text.find("\n", stop)]
            raise _corrupt(path, text, stop, 0, f"bad record {line!r}")
        prime, count = int(commit[1]), int(commit[2])
        if prime <= last_prime or floor > prime or count != len(ps):
            why = (
                f"{commit[0][:-1]!r} disagrees with the {len(ps)} records "
                f"and last_prime={last_prime} before it"
            )
            raise _corrupt(path, text, stop, 0, why)
        last_prime = floor = prime
        committed = count
        end = start = commit.end()
    _refuse_composites(path, ps)
    del ps[committed:], qs[committed:]
    return last_prime, near, ps, qs, end


def _near_line(path: str, line: str) -> str:
    near = line.removeprefix("near=")
    if near == line or not (near == "all" or near.isdigit()):
        raise CheckpointCorrupt(f"{path}: missing or bad near line")
    return near


def _parse_records(
    path: str, text: str, start: int, stop: int, floor: int, near: str
) -> tuple[array, array]:
    """(ps, qs), as int64 columns, of the "p,q" record lines that make up ``text[start:stop]``.

    The run is checked and converted as a whole, not by one call per
    line.  Each number must fit an int64, each p rise above ``floor`` (so
    the first is 7 or more) and each quotient lie in (-p/2, p/2] and,
    under a numeric ``near``, within it.  ``_refuse_composites`` checks p.
    """
    body = text[start:stop]
    try:
        # Without its digits a record line reads ",\n" or ",-\n", and int()
        # then refuses an empty field or a minus anywhere but first in q.
        if body.translate(_NO_DIGITS).replace(",-\n", ",\n") != ",\n" * body.count("\n"):
            raise ValueError
        nums = list(map(int, body.replace("\n", ",").split(",")[:-1]))
    except ValueError:
        lines = body.split("\n")
        i = next(i for i, line in enumerate(lines) if not _RECORD.fullmatch(line))
        raise _corrupt(path, text, start, i, f"bad record {lines[i]!r}") from None
    try:
        ps, qs = array("q", nums[::2]), array("q", nums[1::2])
    except OverflowError:
        i = next(i for i, n in enumerate(nums) if not -(1 << 63) <= n < 1 << 63) // 2
        why = f"record {nums[2 * i]},{nums[2 * i + 1]} does not fit an int64"
        raise _corrupt(path, text, start, i, why) from None
    rising = list(map(lt, [floor, *ps], ps))
    if not all(rising):
        i = rising.index(False)
        below = ps[i - 1] if i else floor
        raise _corrupt(path, text, start, i, f"record p={ps[i]} is not above {below}")
    cap = None if near == "all" else int(near)
    bounds = [p // 2 for p in ps] if cap is None else [min(p // 2, cap) for p in ps]
    fits = list(map(le, map(abs, qs), bounds))
    if not all(fits):
        i = fits.index(False)
        why = f"quotient {qs[i]} out of range, p={ps[i]}, near={near}"
        raise _corrupt(path, text, start, i, why)
    return ps, qs


def _corrupt(path: str, text: str, start: int, i: int, why: str) -> CheckpointCorrupt:
    """A refusal for ``why`` that names line i of the lines from ``start``, a line start."""
    lineno = text.count("\n", 0, start) + 1 + i
    return CheckpointCorrupt(f"{path}:{lineno}: {why}")


def _refuse_composites(path: str, ps: array) -> None:
    """Raise ``CheckpointCorrupt`` if a record's p in ``ps`` is not prime.

    The records rise, so one sieve segment checks every record in it.  The
    sieve costs a step per base prime to the root of the segment's last
    record, and ``is_prime`` about one squaring per bit and witness per
    record; a segment takes the cheaper of the two.  So a dense resume is
    sieved, and records that are few and far apart are tested one by one.
    The base primes stop at ``_SEGMENT``, and a record past its square
    (up to 2^63 in a forged file) is always tested, so none costs a sieve
    to its root.
    """
    base = sieve_primes(2, min(isqrt(ps[-1]), _SEGMENT)) if ps else []
    i = 0
    while i < len(ps):
        low, j = ps[i], bisect_left(ps, ps[i] + _SEGMENT, i)
        root = isqrt(ps[j - 1])
        roots = bisect_right(base, root)
        if root <= _SEGMENT and (j - i) * len(_MR_BASES) * ps[j - 1].bit_length() > roots:
            mask = _segment_mask(low, ps[j - 1] + 1, base[:roots])
            composite = [p for p in ps[i:j] if not mask[p - low]]
        else:
            composite = [p for p in ps[i:j] if not is_prime(p)]
        if composite:
            raise CheckpointCorrupt(f"{path}: record p={composite[0]} is not prime")
        i = j


def wss_search(
    limit: int,
    near_threshold: int | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = CHECKPOINT_EVERY,
) -> list[WssRecord]:
    """Scan primes 7 <= p <= limit for Wall-Sun-Sun primes and near misses.

    Computes F_{p-(p/5)} mod p^2 by ``fibonacci_quotients``: one L_{2k}
    ladder per block of primes, modulo the product of their squares,
    then a step of small exact Fibonacci numbers from each prime's index
    to the next.  Keeps records with |quotient| <= near_threshold (at
    least 0; all records when the threshold is None).  When
    ``checkpoint_path`` is given, the records found since the last
    commit are appended to the file with a new commit line every
    ``checkpoint_every`` primes (at least 1) and at the end, and the
    search resumes from the file's last commit if it already exists.  A
    file written under another threshold raises ``CheckpointCorrupt``:
    its records would mix two selections.
    """
    ps, qs = _wss_columns(limit, near_threshold, checkpoint_path, checkpoint_every)
    # tuple.__new__ skips WssRecord's Python-level __new__, a call per record.
    # Each record is a tracked tuple subclass, and every full collection
    # would rescan the growing list; records of ints form no cycle, so the
    # collector is paused while they are built.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(map(tuple.__new__, repeat(WssRecord), zip(ps, qs)))
    finally:
        if enabled:
            gc.enable()


def check_wss_request(limit: int, near_threshold: int | None) -> None:
    """Refuse with ``ValueError`` a search that ``wss_search`` cannot run:
    a limit below 7 or a negative near-miss threshold."""
    if limit < 7:
        raise ValueError("limit must be at least 7")
    if near_threshold is not None and near_threshold < 0:
        raise ValueError(f"near_threshold must be >= 0, got {near_threshold}")


def _wss_columns(
    limit: int,
    near_threshold: int | None,
    checkpoint_path: str | None,
    checkpoint_every: int = CHECKPOINT_EVERY,
) -> tuple[array, array]:
    """``wss_search``'s records as two int64 columns: record i is ``(ps[i], qs[i])``.

    The primes are sieved one ``_SEGMENT`` of the range at a time, so the
    search holds 16 bytes per kept record plus one segment, however wide
    the range is.
    """
    check_wss_request(limit, near_threshold)
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    start = 7
    near = "all" if near_threshold is None else str(near_threshold)
    ps, qs = array("q"), array("q")
    end = None  # length of the file up to its last commit; None: no file yet
    if checkpoint_path and os.path.exists(checkpoint_path):
        last_prime, recorded, ps, qs, end = _read_checkpoint(checkpoint_path)
        if recorded != near:
            raise CheckpointCorrupt(
                f"{checkpoint_path}: written with near={recorded}, resumed with near={near}"
            )
        # A checkpoint written under a larger limit may hold records past
        # this one; the file keeps them, the result does not.
        kept = bisect_right(ps, limit)
        del ps[kept:], qs[kept:]
        start = max(last_prime + 1, 7)
    committed = len(ps)
    pending = 0
    for low in range(start, limit + 1, _SEGMENT):
        primes = sieve_primes(low, min(low + _SEGMENT - 1, limit))
        for p, q in zip(primes, fibonacci_quotients(primes)):
            signed = q - p if q > p // 2 else q
            if near_threshold is None or abs(signed) <= near_threshold:
                ps.append(p)
                qs.append(signed)
            pending += 1
            if checkpoint_path and pending == checkpoint_every:
                end = _write_checkpoint(checkpoint_path, end, near, ps, qs, committed, p)
                committed, pending = len(ps), 0
    if checkpoint_path and pending:
        _write_checkpoint(checkpoint_path, end, near, ps, qs, committed, p)
    return ps, qs


def render_wss_csv(records: Iterable[tuple[int, int]]) -> str:
    """The ``wss`` CSV of any iterable of (p, quotient) pairs, ``WssRecord`` included.

    The lines are formatted a slice at a time, so no str per record
    outlives its slice.
    """
    return "".join(["p,quotient\n", *_lines(records, "%d,%d\n")])

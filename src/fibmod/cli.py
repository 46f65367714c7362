"""Command-line front end: check, scan, wss, list-checks.

Exit codes: 0 when everything passes (conjecture counterexample
candidates only warn), 1 when a theorem/lemma/auxiliary check fails or
its arithmetic breaks (a forced evaluation dividing by p), 2 on usage
errors and on a WSS checkpoint that cannot be resumed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from ._version import __version__
from .checks import (
    DEFAULT_TERM_BUDGET,
    BudgetExceeded,
    CheckError,
    CheckKind,
    CheckParams,
    UnknownCheckId,
    get_check,
    list_checks,
    run_check,
)
from .modarith import is_prime
from .scanner import (
    CSV_COLUMNS,
    AllSmall,
    CheckpointCorrupt,
    MList,
    MPolicy,
    Report,
    Sample,
    ScanRequest,
    _policy_text,
    csv_row,
    render_csv,
    render_jsonl,
    render_wss_csv,
    scan,
    verdict_row,
    wss_search,
)
from .sequences import DomainError


class UsageError(Exception):
    """Bad command line; rendered on stderr with exit code 2."""


@dataclass(frozen=True)
class CheckCommand:
    id: str
    p: int
    a: int = 1
    m: int | None = None
    n: int | None = None
    A: int | None = None
    B: int | None = None
    force: bool = False


@dataclass(frozen=True)
class ScanCommand:
    request: ScanRequest
    out: str | None = None
    format: str = "csv"


@dataclass(frozen=True)
class WssCommand:
    limit: int
    near: int | None = None
    checkpoint: str | None = None
    out: str | None = None


@dataclass(frozen=True)
class ListChecksCommand:
    pass


Command = CheckCommand | ScanCommand | WssCommand | ListChecksCommand


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # strict: no partial parses, no exits here
        raise UsageError(message)


def _parse_m_policy(text: str) -> tuple[MPolicy, ...]:
    """Policies joined by ``+``, the form ``_policy_text`` renders."""
    return tuple(_parse_one_policy(part) for part in text.split("+"))


def _parse_one_policy(text: str) -> MPolicy:
    if text == "all":
        return AllSmall()
    if text.startswith("sample:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad m-policy {text!r}: expected sample:<count>:<seed>")
        try:
            return Sample(int(parts[1]), int(parts[2]))
        except ValueError:
            raise UsageError(f"bad m-policy {text!r}: count and seed must be integers")
    if text.startswith("list:"):
        try:
            values = tuple(int(v) for v in text.removeprefix("list:").split(","))
        except ValueError:
            raise UsageError(f"bad m-policy {text!r}: values must be integers")
        if not values:
            raise UsageError("m-policy list must not be empty")
        return MList(values)
    raise UsageError(f"bad m-policy {text!r}: expected all, sample:<n>:<seed> or list:<v,...>")


def _build_parser() -> _Parser:
    parser = _Parser(prog="fibmod", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fibmod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one check at one parameter point")
    p_check.add_argument("--id", required=True)
    p_check.add_argument("--p", type=int, default=3)
    p_check.add_argument("--a", type=int, default=1)
    p_check.add_argument("--m", type=int)
    p_check.add_argument("--n", type=int)
    p_check.add_argument("--A", type=int)
    p_check.add_argument("--B", type=int)
    p_check.add_argument("--force", action="store_true")

    p_scan = sub.add_parser("scan", help="run checks across a prime range")
    p_scan.add_argument("--ids", required=True, help="comma-separated check ids")
    p_scan.add_argument("--pmin", type=int, required=True)
    p_scan.add_argument("--pmax", type=int, required=True)
    p_scan.add_argument("--amax", type=int, default=1)
    p_scan.add_argument(
        "--m-policy",
        default="all",
        help="all | sample:<count>:<seed> | list:<v1,v2,...>, several joined by +",
    )
    p_scan.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_scan.add_argument("--budget", type=int, default=DEFAULT_TERM_BUDGET)
    p_scan.add_argument("--out")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--force", action="store_true")

    p_wss = sub.add_parser("wss", help="Wall-Sun-Sun prime search with near misses")
    p_wss.add_argument("--limit", type=int, required=True)
    p_wss.add_argument("--near", type=int, help="near-miss threshold; omit for all records")
    p_wss.add_argument("--checkpoint", help="checkpoint file to write and resume from")
    p_wss.add_argument("--out")

    sub.add_parser("list-checks", help="print the check registry")
    return parser


def parse_args(argv: list[str]) -> Command:
    """Strict parse of an argv list into a Command."""
    ns = _build_parser().parse_args(argv)
    if ns.command == "check":
        try:
            spec = get_check(ns.id)
        except UnknownCheckId as exc:
            raise UsageError(str(exc)) from exc
        if ns.p < 3 or not is_prime(ns.p):
            raise UsageError(f"--p must be an odd prime, got {ns.p}")
        if ns.a < 1:
            raise UsageError(f"--a must be >= 1, got {ns.a}")
        if ns.n is not None and ns.n < 0:
            raise UsageError(f"--n must be >= 0, got {ns.n}")
        if spec.uses_m and ns.m is None:
            raise UsageError(f"check {ns.id} requires --m")
        if spec.uses_n and ns.n is None:
            raise UsageError(f"check {ns.id} requires --n")
        return CheckCommand(ns.id, ns.p, ns.a, ns.m, ns.n, ns.A, ns.B, ns.force)
    if ns.command == "scan":
        ids = tuple(s for s in ns.ids.split(",") if s)
        if not ids:
            raise UsageError("--ids must name at least one check")
        for cid in ids:
            try:
                get_check(cid)
            except UnknownCheckId as exc:
                raise UsageError(str(exc)) from exc
        if ns.pmin > ns.pmax:
            raise UsageError(f"--pmin {ns.pmin} exceeds --pmax {ns.pmax}")
        if ns.amax < 1:
            raise UsageError(f"--amax must be >= 1, got {ns.amax}")
        if ns.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {ns.jobs}")
        if ns.budget < 1:
            raise UsageError(f"--budget must be >= 1, got {ns.budget}")
        request = ScanRequest(
            check_ids=ids,
            p_min=ns.pmin,
            p_max=ns.pmax,
            a_max=ns.amax,
            m_policy=_parse_m_policy(getattr(ns, "m_policy")),
            jobs=ns.jobs,
            budget=ns.budget,
            force=ns.force,
        )
        return ScanCommand(request, ns.out, ns.format)
    if ns.command == "wss":
        if ns.limit < 7:
            raise UsageError(f"--limit must be >= 7, got {ns.limit}")
        if ns.near is not None and ns.near < 0:
            raise UsageError(f"--near must be >= 0, got {ns.near}")
        return WssCommand(ns.limit, ns.near, ns.checkpoint, ns.out)
    return ListChecksCommand()


def render_args(cmd: Command) -> list[str]:
    """The argv list that parses back to this command (round-trip identity)."""
    if isinstance(cmd, CheckCommand):
        argv = ["check", "--id", cmd.id, "--p", str(cmd.p), "--a", str(cmd.a)]
        for flag, value in (("--m", cmd.m), ("--n", cmd.n), ("--A", cmd.A), ("--B", cmd.B)):
            if value is not None:
                argv += [flag, str(value)]
        if cmd.force:
            argv.append("--force")
        return argv
    if isinstance(cmd, ScanCommand):
        r = cmd.request
        argv = [
            "scan",
            "--ids", ",".join(r.check_ids),
            "--pmin", str(r.p_min),
            "--pmax", str(r.p_max),
            "--amax", str(r.a_max),
            "--m-policy", _policy_text(r.m_policy),
            "--jobs", str(r.jobs),
            "--budget", str(r.budget),
        ]
        if r.force:
            argv.append("--force")
        if cmd.out:
            argv += ["--out", cmd.out]
        argv += ["--format", cmd.format]
        return argv
    if isinstance(cmd, WssCommand):
        argv = ["wss", "--limit", str(cmd.limit)]
        if cmd.near is not None:
            argv += ["--near", str(cmd.near)]
        if cmd.checkpoint:
            argv += ["--checkpoint", cmd.checkpoint]
        if cmd.out:
            argv += ["--out", cmd.out]
        return argv
    return ["list-checks"]


def _execute_check(cmd: CheckCommand) -> int:
    spec = get_check(cmd.id)
    params = CheckParams(
        p=cmd.p, a=cmd.a, m=cmd.m, n=cmd.n, A=cmd.A, B=cmd.B, force=cmd.force
    )
    # The m column renders the check's free parameter: m, or n for the
    # n-indexed conjecture.
    m_col = cmd.m if spec.uses_m else (cmd.n if spec.uses_n else None)
    # The header goes out only with its row: a CheckError prints neither.
    try:
        v = run_check(cmd.id, params)
    except (DomainError, BudgetExceeded) as exc:
        v = None
        print(f"skipped: {exc}", file=sys.stderr)
    print(CSV_COLUMNS)
    print(csv_row(verdict_row(cmd.id, cmd.p, cmd.a, m_col, v)))
    if v is None or v.passed:
        return 0
    if spec.kind is CheckKind.CONJECTURE:
        print("warning: conjecture counterexample candidate", file=sys.stderr)
        return 0
    return 1


def _scan_exit_code(report: Report) -> int:
    hard_fail = False
    conjecture_fail = False
    for row in report.rows:
        if row.status != "FAIL":
            continue
        if get_check(row.check_id).kind is CheckKind.CONJECTURE:
            conjecture_fail = True
        else:
            hard_fail = True
    if hard_fail:
        return 1
    if conjecture_fail:
        print(
            "warning: conjecture counterexample candidates found (exit stays 0)",
            file=sys.stderr,
        )
    return 0


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _execute_scan(cmd: ScanCommand) -> int:
    report = scan(cmd.request)
    text = render_csv(report) if cmd.format == "csv" else render_jsonl(report)
    _write_or_print(text, cmd.out)
    return _scan_exit_code(report)


def _execute_wss(cmd: WssCommand) -> int:
    records = wss_search(cmd.limit, cmd.near, cmd.checkpoint)
    _write_or_print(render_wss_csv(records), cmd.out)
    hits = [rec for rec in records if rec.quotient == 0]
    if hits:
        print(f"Wall-Sun-Sun prime(s) found: {[rec.p for rec in hits]}", file=sys.stderr)
    return 0


def _execute_list_checks() -> int:
    print("id,kind,exponent,domain,description")
    for spec in list_checks():
        print(
            f"{spec.id},{spec.kind.value},{spec.exponent_label},"
            f'"{spec.domain_label}","{spec.description}"'
        )
    return 0


def execute(cmd: Command) -> int:
    if isinstance(cmd, CheckCommand):
        return _execute_check(cmd)
    if isinstance(cmd, ScanCommand):
        return _execute_scan(cmd)
    if isinstance(cmd, WssCommand):
        return _execute_wss(cmd)
    return _execute_list_checks()


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        cmd = parse_args(args)
        return execute(cmd)
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, CheckpointCorrupt) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

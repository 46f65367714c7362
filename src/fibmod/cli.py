"""Command-line front end: check, scan, wss, list-checks.

Exit codes: 0 when everything passes (conjecture counterexample
candidates only warn), 1 when a theorem/lemma/auxiliary check fails or
its arithmetic breaks (a forced evaluation dividing by p), 2 on usage
errors, on a WSS checkpoint that cannot be resumed and on an OSError,
such as an output or checkpoint file that cannot be written.  An output
or checkpoint path in a missing directory is refused before any work
starts.
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
    check_request,
    get_check,
    list_checks,
    run_check,
)
from .scanner import (
    CSV_COLUMNS,
    CheckpointCorrupt,
    ScanRequest,
    _policy_from_text,
    _wss_columns,
    check_wss_request,
    csv_row,
    render_csv,
    render_jsonl,
    render_wss_csv,
    scan,
    verdict_row,
)
from .sequences import DomainError


class UsageError(Exception):
    """Bad command line; rendered on stderr with exit code 2."""


@dataclass(frozen=True)
class CheckCommand:
    id: str
    params: CheckParams


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
    """Strict parse of an argv list into a Command.

    ``check``, ``scan`` and ``wss`` map their flags onto ``CheckParams``,
    ``ScanRequest`` and ``check_wss_request``, whose own refusals become
    usage errors.
    """
    ns = _build_parser().parse_args(argv)
    try:
        if ns.command == "check":
            params = CheckParams(p=ns.p, a=ns.a, m=ns.m, n=ns.n, A=ns.A, B=ns.B, force=ns.force)
            check_request(ns.id, params)
            return CheckCommand(ns.id, params)
        if ns.command == "scan":
            request = ScanRequest(
                check_ids=tuple(s for s in ns.ids.split(",") if s),
                p_min=ns.pmin,
                p_max=ns.pmax,
                a_max=ns.amax,
                m_policy=_policy_from_text(ns.m_policy),
                jobs=ns.jobs,
                budget=ns.budget,
                force=ns.force,
            )
            return ScanCommand(request, ns.out, ns.format)
        if ns.command == "wss":
            check_wss_request(ns.limit, ns.near)
            return WssCommand(ns.limit, ns.near, ns.checkpoint, ns.out)
    except (UnknownCheckId, DomainError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    return ListChecksCommand()


def _exit_code(failed_ids: set[str]) -> int:
    """1 if a check other than a conjecture failed; failed conjectures only warn."""
    if any(get_check(cid).kind is not CheckKind.CONJECTURE for cid in failed_ids):
        return 1
    if failed_ids:
        print("warning: conjecture counterexample candidate found (exit stays 0)", file=sys.stderr)
    return 0


def _execute_check(cmd: CheckCommand) -> int:
    spec = get_check(cmd.id)
    params = cmd.params
    # The m column renders the parameter the check is indexed by: m, or n
    # for the n-indexed conjecture.
    m_col = getattr(params, spec.index) if spec.index else None
    # The header goes out only with its row: a CheckError prints neither.
    try:
        v = run_check(cmd.id, params)
    except (DomainError, BudgetExceeded) as exc:
        v = None
        print(f"skipped: {exc}", file=sys.stderr)
    print(CSV_COLUMNS)
    print(csv_row(verdict_row(cmd.id, params.p, params.a, m_col, v)))
    return _exit_code(set() if v is None or v.passed else {cmd.id})


def _check_output_path(flag: str, path: str | None) -> None:
    """Refuse a file path whose directory is missing, before any work starts.

    The file itself is not opened, so an existing ``--out`` keeps its
    bytes until the run is done.
    """
    if path:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise UsageError(f"{flag} {path}: no directory {parent}")
        if os.path.isdir(path):
            raise UsageError(f"{flag} {path} is a directory")


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _execute_scan(cmd: ScanCommand) -> int:
    _check_output_path("--out", cmd.out)
    report = scan(cmd.request)
    text = render_csv(report) if cmd.format == "csv" else render_jsonl(report)
    _write_or_print(text, cmd.out)
    return _exit_code({row.check_id for row in report.rows if row.status == "FAIL"})


def _execute_wss(cmd: WssCommand) -> int:
    _check_output_path("--out", cmd.out)
    _check_output_path("--checkpoint", cmd.checkpoint)
    # The columns go to the CSV as they are, with no WssRecord per record.
    ps, qs = _wss_columns(cmd.limit, cmd.near, cmd.checkpoint)
    _write_or_print(render_wss_csv(zip(ps, qs)), cmd.out)
    hits = [p for p, q in zip(ps, qs) if q == 0]
    if hits:
        print(f"Wall-Sun-Sun prime(s) found: {hits}", file=sys.stderr)
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
    except (UsageError, CheckpointCorrupt, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

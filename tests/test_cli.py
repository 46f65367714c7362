import json
import tracemalloc
from array import array
from functools import partial

import pytest

from fibmod import cli
from fibmod.checks import BudgetExceeded, CheckParams, run_check
from fibmod.cli import (
    CheckCommand,
    ListChecksCommand,
    ScanCommand,
    UsageError,
    WssCommand,
    execute,
    main,
    parse_args,
)
from fibmod.scanner import AllSmall, MList, Sample, ScanRequest, scan, wss_search
from fibmod.sequences import DomainError


def test_parse_check():
    cmd = parse_args(["check", "--id", "T1_1", "--p", "7", "--a", "1"])
    assert cmd == CheckCommand("T1_1", CheckParams(7, 1))
    cmd = parse_args(["check", "--id", "T2_MAIN", "--p", "11", "--m", "-16", "--force"])
    assert cmd == CheckCommand("T2_MAIN", CheckParams(11, 1, m=-16, force=True))


def test_parse_scan():
    cmd = parse_args(
        [
            "scan",
            "--ids", "T1_1,C1_1_8",
            "--pmin", "3",
            "--pmax", "10000",
            "--jobs", "8",
            "--out", "r.csv",
        ]
    )
    assert isinstance(cmd, ScanCommand)
    assert cmd.request.check_ids == ("T1_1", "C1_1_8")
    assert (cmd.request.p_min, cmd.request.p_max, cmd.request.jobs) == (3, 10000, 8)
    assert cmd.request.m_policy == (AllSmall(),)
    assert cmd.out == "r.csv"
    assert cmd.format == "csv"


def test_parse_m_policy_variants():
    cmd = parse_args(
        ["scan", "--ids", "BASIC_P", "--pmin", "3", "--pmax", "5", "--m-policy", "sample:50:42"]
    )
    assert cmd.request.m_policy == (Sample(50, 42),)
    cmd = parse_args(
        ["scan", "--ids", "BASIC_P", "--pmin", "3", "--pmax", "5", "--m-policy", "list:-1,-2,7"]
    )
    assert cmd.request.m_policy == (MList((-1, -2, 7)),)


def test_parse_wss_and_list():
    cmd = parse_args(["wss", "--limit", "100", "--near", "0", "--checkpoint", "c.txt"])
    assert cmd == WssCommand(100, 0, "c.txt", None)
    assert parse_args(["list-checks"]) == ListChecksCommand()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--id", "NOPE", "--p", "7"],
        ["check", "--id", "T1_1", "--p", "4"],
        ["check", "--id", "T1_1", "--p", "7", "--bogus"],
        ["scan", "--ids", "T1_1", "--pmin", "10", "--pmax", "5"],
        ["scan", "--ids", "", "--pmin", "3", "--pmax", "5"],
        ["scan", "--ids", "T1_1", "--pmin", "3", "--pmax", "5", "--m-policy", "what"],
        ["scan", "--ids", "T1_1", "--pmin", "3", "--pmax", "5", "--format", "xml"],
        ["wss", "--limit", "5"],
        ["frobnicate"],
        [],
        ["check", "--id", "T1_1", "--p", "9"],
        ["check", "--id", "CONJ1_1N", "--n", "-1"],
        ["check", "--id", "T2_MAIN", "--p", "7"],  # no --m
        ["check", "--id", "CONJ1_1N"],  # no --n
        ["scan", "--ids", "T1_1", "--pmin", "3", "--pmax", "5", "--m-policy", "list:"],
        ["scan", "--ids", "T1_1", "--pmin", "3", "--pmax", "5", "--m-policy", "sample:5"],
        ["scan", "--ids", "T1_1", "--pmin", "3", "--pmax", "5", "--m-policy", "sample:x:1"],
        ["wss", "--limit", "100", "--near", "-1"],
    ],
)
def test_usage_errors(argv):
    with pytest.raises(UsageError):
        parse_args(argv)
    assert main(argv) == 2


_T1_1_SCAN = ["scan", "--ids", "T1_1", "--pmin", "3", "--pmax", "13"]
_T2_SCAN = ["scan", "--ids", "T2_MAIN", "--pmin", "3", "--pmax", "7"]
# psi_12, the least strong pseudoprime to the first twelve primes (OEIS A014233).
_PSI_12 = 318665857834031151167461


@pytest.mark.parametrize(
    "library_call, error, argv",
    [
        (partial(ScanRequest, ("T1_1",), 3, 13, budget=0), ValueError, _T1_1_SCAN + ["--budget", "0"]),
        (partial(ScanRequest, ("T1_1",), 3, 13, a_max=0), ValueError, _T1_1_SCAN + ["--amax", "0"]),
        (partial(ScanRequest, ("T1_1",), 3, 13, jobs=0), ValueError, _T1_1_SCAN + ["--jobs", "0"]),
        (partial(ScanRequest, ("T1_1",), 13, 3), ValueError, _T1_1_SCAN + ["--pmin", "13", "--pmax", "3"]),
        (partial(ScanRequest, (), 3, 13), ValueError, ["scan", "--ids", "", "--pmin", "3", "--pmax", "13"]),
        (
            partial(run_check, "T1_1", CheckParams(p=7, n=-1)),
            DomainError,
            ["check", "--id", "T1_1", "--p", "7", "--n", "-1"],
        ),
        (partial(Sample, 0, 1), ValueError, _T2_SCAN + ["--m-policy", "sample:0:1"]),
        (partial(MList, ()), ValueError, _T2_SCAN + ["--m-policy", "list:"]),
        (
            partial(ScanRequest, ("T2_MAIN",), 3, 7, m_policy=()),
            ValueError,
            _T2_SCAN + ["--m-policy", ""],
        ),
        # p^e past the 2^62 bound of Modulus where a row would evaluate:
        # in the domain and within the budget, or forced.
        (
            partial(run_check, "L2_2B", CheckParams(p=46349)),
            DomainError,
            ["check", "--id", "L2_2B", "--p", "46349"],
        ),
        (
            partial(run_check, "T2_MAIN", CheckParams(p=3037000507, m=3, force=True)),
            DomainError,
            ["check", "--id", "T2_MAIN", "--p", "3037000507", "--m", "3", "--force"],
        ),
        (
            partial(ScanRequest, ("L2_2B",), 46300, 46400),
            ValueError,
            ["scan", "--ids", "L2_2B", "--pmin", "46300", "--pmax", "46400"],
        ),
        (
            partial(ScanRequest, ("P4_1A",), 46300, 46400, a_max=3, force=True),
            ValueError,
            ["scan", "--ids", "P4_1A", "--pmin", "46300", "--pmax", "46400", "--amax", "3", "--force"],
        ),
        (
            partial(run_check, "T1_1", CheckParams(p=_PSI_12)),
            DomainError,
            ["check", "--id", "T1_1", "--p", str(_PSI_12)],
        ),
        (partial(wss_search, 5), ValueError, ["wss", "--limit", "5"]),
        (partial(wss_search, 100, -1), ValueError, ["wss", "--limit", "100", "--near", "-1"]),
    ],
    ids=[
        "budget=0", "a_max=0", "jobs=0", "pmin>pmax", "no-ids", "n<0",
        "sample-count<1", "empty-m-list", "no-m-policy",
        "check-modulus-bound", "check-modulus-bound-forced-over-budget", "scan-modulus-bound",
        "scan-modulus-bound-forced-at-a-max", "p-past-is-prime-range", "wss-limit<7", "wss-near<0",
    ],
)
def test_library_and_cli_refuse_the_same_requests(library_call, error, argv, capsys):
    with pytest.raises(error):
        library_call()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_the_modulus_bound_is_read_at_the_largest_prime_and_a_max():
    assert run_check("L2_2B", CheckParams(p=46337)).passed  # 46337^4 < 2^62 <= 46349^4
    with pytest.raises(ValueError, match="46349\\^4"):
        ScanRequest(("L2_2B",), 46300, 46349)
    ScanRequest(("L2_2B",), 46300, 46348)  # no prime in 46338..46348
    ScanRequest(("L2_2B",), 46341, 46348)  # no prime at all
    ScanRequest(("P4_1A",), 46300, 46400, a_max=2)  # p^(a+1) = p^3


def test_the_modulus_bound_refuses_only_rows_that_evaluate(capsys):
    # Past the bound, a domain or budget SKIP stays a SKIP and builds no
    # Modulus (which would raise); forced, the request is refused.
    with pytest.raises(DomainError, match="outside the domain"):
        run_check("CONJ1_1A", CheckParams(p=10007))
    with pytest.raises(BudgetExceeded):
        run_check("T2_MAIN", CheckParams(p=3037000507, m=3))
    assert main(["check", "--id", "CONJ1_1A", "--p", "10007"]) == 0
    assert capsys.readouterr().out.endswith("\nCONJ1_1A,10007,1,,,,,,SKIP\n")
    assert main(["check", "--id", "CONJ1_1A", "--p", "10007", "--force"]) == 2
    assert main(["scan", "--ids", "CONJ1_1A", "--pmin", "3", "--pmax", "10000", "--jobs", "1"]) == 0
    assert capsys.readouterr().out.endswith("# summary: CONJ1_1A pass=1 fail=0 skip=1227\n")
    # The rows of at most 1,000 terms pass; the others are budget SKIPs,
    # p^(a+1) past the bound at a >= 11 among them.
    p4 = partial(ScanRequest, ("P4_1A",), 3, 50, a_max=12, m_policy=(MList((2,)),), budget=1000)
    assert scan(p4()).summary == {"P4_1A": {"pass": 35, "fail": 0, "skip": 133}}
    with pytest.raises(ValueError, match="47\\^12 at a = 11"):
        p4(force=True)


def test_stray_value_error_is_not_a_usage_error(monkeypatch):
    def broken_scan(request):
        raise ValueError("stray")

    monkeypatch.setattr(cli, "scan", broken_scan)
    with pytest.raises(ValueError, match="stray"):
        main(_T1_1_SCAN + ["--jobs", "1"])


def test_round_trip_identity():
    commands = [
        (["check", "--id", "T1_1", "--p", "7", "--a", "1"], CheckCommand("T1_1", CheckParams(7, 1))),
        (
            ["check", "--id", "T2_MAIN", "--p", "11", "--a", "2", "--m", "-16", "--force"],
            CheckCommand("T2_MAIN", CheckParams(11, 2, m=-16, force=True)),
        ),
        (
            ["check", "--id", "CONJ1_1N", "--p", "3", "--a", "1", "--n", "17"],
            CheckCommand("CONJ1_1N", CheckParams(3, 1, n=17)),
        ),
        (
            ["check", "--id", "L3_2", "--p", "7", "--a", "1", "--A", "3", "--B", "2"],
            CheckCommand("L3_2", CheckParams(7, 1, A=3, B=2)),
        ),
        (
            ["scan", "--ids", "T1_1,C1_1_8", "--pmin", "3", "--pmax", "97", "--amax", "2",
             "--m-policy", "sample:5:9", "--jobs", "2", "--budget", str(1 << 20), "--force",
             "--out", "r.csv", "--format", "json"],
            ScanCommand(
                ScanRequest(
                    check_ids=("T1_1", "C1_1_8"),
                    p_min=3,
                    p_max=97,
                    a_max=2,
                    m_policy=(Sample(5, 9),),
                    jobs=2,
                    budget=1 << 20,
                    force=True,
                ),
                out="r.csv",
                format="json",
            ),
        ),
        (
            ["scan", "--ids", "T2_MAIN", "--pmin", "3", "--pmax", "300",
             "--m-policy", "all+sample:50:42", "--jobs", "1"],
            ScanCommand(
                ScanRequest(("T2_MAIN",), 3, 300, m_policy=(AllSmall(), Sample(50, 42)), jobs=1)
            ),
        ),
        (
            ["wss", "--limit", "100", "--near", "3", "--checkpoint", "c.txt", "--out", "w.csv"],
            WssCommand(100, 3, "c.txt", "w.csv"),
        ),
        (["wss", "--limit", str(10**6)], WssCommand(10**6)),
        (["list-checks"], ListChecksCommand()),
    ]
    for argv, cmd in commands:
        assert parse_args(argv) == cmd, argv


def test_check_pass_exit_zero(capsys):
    code = main(["check", "--id", "T1_1", "--p", "7", "--a", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "check_id,p,a,m,exponent,lhs,rhs,defect_valuation,status"
    assert out[1] == "T1_1,7,1,,3,160,160,3,PASS"


@pytest.mark.parametrize(
    "argv",
    [
        ["--id", "WILLIAMS", "--p", "5", "--force"],
        ["--id", "L2_3A", "--p", "5", "--force"],
        ["--id", "L3_2", "--p", "7", "--A", "2", "--B", "7", "--force"],
    ],
)
def test_forced_side_domain_refusal_exits_one(argv, capsys):
    assert main(["check", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[1]} at p={argv[3]}: ")


def test_check_out_of_domain_is_skip(capsys):
    for argv in (["--id", "T1_1", "--p", "5"], ["--id", "L3_2", "--p", "5", "--B", "5"]):
        code = main(["check", *argv])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines()[1].endswith("SKIP")


def test_scan_of_n_indexed_check_is_usage_error(capsys):
    code = main(["scan", "--ids", "CONJ1_1N", "--pmin", "3", "--pmax", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "indexed by n" in captured.err


def test_check_arithmetic_failure_exits_one_without_output(capsys):
    # Forced past its domain, T2_MAIN must invert m = 14 mod 7^2.
    code = main(["check", "--id", "T2_MAIN", "--p", "7", "--m", "14", "--force"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: T2_MAIN at p=7")


def test_forced_c1_2_at_3_is_an_error_not_a_crash(tmp_path, capsys):
    code = main(["check", "--id", "C1_2", "--p", "3", "--force"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: C1_2 at p=3")
    for jobs in ("1", "2"):
        out = tmp_path / f"r{jobs}.csv"
        argv = ["scan", "--ids", "C1_2", "--pmin", "3", "--pmax", "7", "--force", "--jobs", jobs]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text().splitlines()[4] == "C1_2,3,1,,,,,,SKIP"


def test_check_header_comes_with_its_row(capsys):
    for argv in (
        ["check", "--id", "T1_1", "--p", "7"],  # PASS
        ["check", "--id", "T1_1", "--p", "5"],  # SKIP
        ["check", "--id", "L2_3A", "--p", "3", "--force"],  # FAIL
    ):
        main(argv)
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[0] == "check_id,p,a,m,exponent,lhs,rhs,defect_valuation,status"


def test_check_forced_anomaly_exit_one(capsys):
    code = main(["check", "--id", "L2_3A", "--p", "3", "--force"])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[1].endswith("FAIL")


def test_check_forced_conjecture_warns_but_exits_zero(capsys):
    code = main(["check", "--id", "ADAMCHUK", "--p", "5", "--force"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[1].endswith("FAIL")
    assert "counterexample" in captured.err


def test_check_n_indexed(capsys):
    code = main(["check", "--id", "CONJ1_1N", "--n", "17"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    # the m column carries n for the n-indexed check
    assert out[1].split(",")[3] == "17"
    # and nothing for a check indexed by neither m nor n
    main(["check", "--id", "T1_1", "--p", "7", "--m", "5"])
    assert capsys.readouterr().out.splitlines()[1].split(",")[3] == ""


def test_scan_to_csv_file(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        ["scan", "--ids", "T1_1", "--pmin", "3", "--pmax", "13", "--jobs", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[3] == "check_id,p,a,m,exponent,lhs,rhs,defect_valuation,status"
    assert sum(1 for l in lines if l.endswith("PASS")) == 4
    assert sum(1 for l in lines if l.endswith("SKIP")) == 1


def test_scan_forced_anomaly_exit_one(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        [
            "scan",
            "--ids", "L2_3A",
            "--pmin", "3",
            "--pmax", "3",
            "--force",
            "--jobs", "1",
            "--out", str(out),
        ]
    )
    assert code == 1


def test_scan_json_format(tmp_path):
    out = tmp_path / "r.jsonl"
    code = main(
        [
            "scan",
            "--ids", "MORLEY",
            "--pmin", "5",
            "--pmax", "5",
            "--jobs", "1",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[0]["tool"] == "fibmod"
    assert lines[1]["check_id"] == "MORLEY"
    assert (lines[1]["lhs"], lines[1]["rhs"], lines[1]["status"]) == (6, 6, "PASS")
    assert "summary" in lines[-1]


def test_list_checks(capsys):
    code = main(["list-checks"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) >= 31  # header plus at least 30 checks
    assert any(line.startswith("T1_1,THEOREM") for line in out)
    assert any(line.startswith("CONJ1_2_I,CONJECTURE") for line in out)


def test_wss_cli(tmp_path, capsys):
    out = tmp_path / "w.csv"
    code = main(["wss", "--limit", "100", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,quotient"
    assert "7,3" in lines
    assert "11,5" in lines
    code = main(["wss", "--limit", "100", "--near", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "p,quotient\n"


def test_wss_cli_memory_per_record(tmp_path):
    # With every record kept, the run holds each record as 16 bytes of two
    # int64 columns and its CSV line, formatted a slice at a time.  A
    # WssRecord and a str per record take about 238 traced bytes each here.
    out = tmp_path / "w.csv"
    tracemalloc.start()
    try:
        assert main(["wss", "--limit", "300000", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    records = out.read_text().count("\n") - 1
    assert records == 25_994
    assert peak / records < 100


def test_wss_cli_names_a_wall_sun_sun_prime(monkeypatch, capsys):
    # No Wall-Sun-Sun prime is known, so the search is replaced by one
    # that reports a quotient of 0.
    monkeypatch.setattr(cli, "_wss_columns", lambda *args: (array("q", [7, 11]), array("q", [3, 0])))
    assert main(["wss", "--limit", "100"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "p,quotient\n7,3\n11,0\n"
    assert "Wall-Sun-Sun prime(s) found: [11]" in captured.err


def test_wss_bad_checkpoint_is_a_usage_error(tmp_path, capsys):
    ckpt = tmp_path / "garbage.ckpt"
    ckpt.write_bytes(b"\x00\xffnot a checkpoint\n")
    out = tmp_path / "w.csv"
    code = main(["wss", "--limit", "100", "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    ckpt.write_text("wss-checkpoint v3\nnear=0\ncommit last_prime=97 records=0\n")
    code = main(["wss", "--limit", "200", "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 2
    assert "near=0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["wss", "--limit", "100", "--out", "w.csv", "--checkpoint"],
        ["scan", "--ids", "T1_1", "--pmin", "3", "--pmax", "13", "--out"],
    ],
)
def test_unwritable_file_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "missing/f"]) == 2  # no directory "missing"
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, work",
    [
        (["scan", "--ids", "T1_1", "--pmin", "3", "--pmax", "13", "--out", "missing/o.csv"], "scan"),
        (["scan", "--ids", "T1_1", "--pmin", "3", "--pmax", "13", "--out", "."], "scan"),
        (["wss", "--limit", "100", "--out", "missing/o.csv"], "_wss_columns"),
        (["wss", "--limit", "100", "--checkpoint", "missing/c.ckpt"], "_wss_columns"),
        (["wss", "--limit", "100", "--out", "o.csv", "--checkpoint", "missing/c"], "_wss_columns"),
    ],
)
def test_a_bad_output_path_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, work):
    monkeypatch.chdir(tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, work, no_work)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("missing" in err or "directory" in err)
    assert list(tmp_path.iterdir()) == []


def test_a_bad_checkpoint_path_leaves_an_existing_out_file_alone(tmp_path, capsys):
    out = tmp_path / "o.csv"
    out.write_text("earlier report\n")
    argv = ["wss", "--limit", "100", "--out", str(out), "--checkpoint", str(tmp_path / "no" / "c")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --checkpoint ")
    assert out.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv"]

import pytest

from dataclasses import replace

import fibmod.checks as checks
from fibmod.checks import CheckError, UnknownCheckId, get_check
from fibmod.scanner import (
    AllSmall,
    CheckpointCorrupt,
    MList,
    Sample,
    ScanRequest,
    _read_checkpoint,
    _sample_values,
    render_csv,
    render_jsonl,
    render_wss_csv,
    scan,
    sieve_primes,
    wss_search,
)
from fibmod import scanner
from fibmod.sequences import NotDivisible, fibonacci_quotient


def test_sieve_examples():
    assert sieve_primes(1, 20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert sieve_primes(90, 100) == [97]
    assert sieve_primes(14, 16) == []
    assert sieve_primes(2, 2) == [2]
    assert sieve_primes(10, 5) == []


def test_sieve_against_simple():
    def simple(n):
        flags = bytearray([1]) * (n + 1)
        flags[0] = flags[1] = 0
        for i in range(2, int(n**0.5) + 1):
            if flags[i]:
                flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
        return [i for i in range(n + 1) if flags[i]]

    assert sieve_primes(1, 10**4) == simple(10**4)
    # segment-boundary crossing window
    lo, hi = (1 << 17) - 50, (1 << 17) + 50
    assert sieve_primes(lo, hi) == [p for p in simple(hi) if p >= lo]


def test_scan_t1_1_rows():
    report = scan(ScanRequest(check_ids=("T1_1",), p_min=3, p_max=13))
    assert [(r.p, r.status) for r in report.rows] == [
        (3, "PASS"),
        (5, "SKIP"),
        (7, "PASS"),
        (11, "PASS"),
        (13, "PASS"),
    ]
    spot = report.rows[2]
    assert (spot.lhs, spot.rhs, spot.exponent, spot.defect_valuation) == (160, 160, 3, 3)
    assert report.summary["T1_1"] == {"pass": 4, "fail": 0, "skip": 1}


def test_scan_morley_spot():
    report = scan(ScanRequest(check_ids=("MORLEY",), p_min=5, p_max=5))
    (row,) = report.rows
    assert (row.status, row.lhs, row.rhs) == ("PASS", 6, 6)


def test_scan_forced_anomaly():
    report = scan(ScanRequest(check_ids=("L2_3A",), p_min=3, p_max=3, force=True))
    (row,) = report.rows
    assert row.status == "FAIL"
    assert row.defect_valuation == 0


def test_scan_unknown_id():
    with pytest.raises(UnknownCheckId):
        scan(ScanRequest(check_ids=("NOPE",), p_min=3, p_max=5))


def test_scan_over_budget_is_skip():
    report = scan(ScanRequest(check_ids=("T1_1",), p_min=101, p_max=101, budget=10))
    (row,) = report.rows
    assert row.status == "SKIP"


def test_scan_rows_ordered_and_complete():
    report = scan(
        ScanRequest(
            check_ids=("T1_1", "C1_1_8"),
            p_min=3,
            p_max=30,
            a_max=2,
        )
    )
    keys = [(r.p, r.check_id, r.a, r.m if r.m is not None else 0) for r in report.rows]
    assert keys == sorted(keys)
    primes = [p for p in sieve_primes(3, 30)]
    # one row group per prime, no prime skipped or duplicated
    assert sorted({r.p for r in report.rows}) == primes
    assert len(report.rows) == len(primes) * 2 * 2


def test_scan_m_policies():
    report = scan(
        ScanRequest(
            check_ids=("BASIC_P",),
            p_min=7,
            p_max=7,
            m_policy=(AllSmall(), MList((-3, 14)), Sample(4, 11)),
        )
    )
    ms = [r.m for r in report.rows]
    assert ms == sorted(ms)
    assert set(range(1, 7)) <= set(ms)
    assert -3 in ms
    # 14 = 2*7 is out of domain: recorded as SKIP, not an error
    skip = [r for r in report.rows if r.m == 14]
    assert [r.status for r in skip] == ["SKIP"]
    samples = [m for m in ms if 7 <= m < 49 and m != 14]
    assert len(samples) == 4
    assert all(m % 7 for m in samples)


def test_sample_values_deterministic():
    a = _sample_values(Sample(50, 42), 101)
    b = _sample_values(Sample(50, 42), 101)
    assert a == b
    assert len(a) == 50
    assert all(101 <= m < 101 * 101 and m % 101 for m in a)
    assert _sample_values(Sample(50, 43), 101) != a
    # small prime: the pool is only (p-1)^2 values
    assert len(_sample_values(Sample(50, 42), 3)) == 4


def test_scan_deterministic_across_jobs():
    request = dict(
        check_ids=("T1_1", "T2_MAIN", "C1_2"),
        p_min=3,
        p_max=60,
        a_max=1,
        m_policy=(Sample(3, 7), MList((-1, 2))),
    )
    r1 = scan(ScanRequest(jobs=1, **request))
    r4 = scan(ScanRequest(jobs=4, **request))
    assert render_csv(r1) == render_csv(r4)
    assert render_jsonl(r1) == render_jsonl(r4)


def test_render_csv_shape():
    report = scan(ScanRequest(check_ids=("T1_1",), p_min=3, p_max=13))
    text = render_csv(report)
    lines = text.splitlines()
    assert lines[0].startswith("# fibmod ")
    assert lines[1].startswith("# request: ")
    assert lines[2] == "# sample_seed: none"
    assert lines[3] == "check_id,p,a,m,exponent,lhs,rhs,defect_valuation,status"
    assert lines[4] == "T1_1,3,1,,3,11,11,3,PASS"
    assert lines[5] == "T1_1,5,1,,,,,,SKIP"
    assert lines[-1] == "# summary: T1_1 pass=4 fail=0 skip=1"


def test_csv_and_jsonl_carry_identical_rows():
    import json

    report = scan(
        ScanRequest(check_ids=("T1_1", "C1_1_8"), p_min=3, p_max=20, m_policy=(AllSmall(),))
    )
    csv_rows = []
    for line in render_csv(report).splitlines():
        if line.startswith("#") or line.startswith("check_id,"):
            continue
        cells = line.split(",")
        csv_rows.append(tuple(c if c else None for c in cells))
    json_rows = []
    for line in render_jsonl(report).splitlines():
        obj = json.loads(line)
        if "check_id" not in obj:
            continue
        json_rows.append(
            tuple(
                None if obj[k] is None else str(obj[k])
                for k in (
                    "check_id",
                    "p",
                    "a",
                    "m",
                    "exponent",
                    "lhs",
                    "rhs",
                    "defect_valuation",
                    "status",
                )
            )
        )
    assert csv_rows == json_rows


def test_wss_examples():
    records = wss_search(100)
    by_p = {rec.p: rec.quotient for rec in records}
    assert by_p[7] == 3  # F_8 = 21 = 3 * 7
    assert by_p[11] == 5  # F_10 = 55 = 5 * 11
    assert sorted(by_p) == [p for p in sieve_primes(7, 100)]
    assert wss_search(100, near_threshold=0) == []


def test_wss_signed_representative():
    # module cross-check: the scanner and the quotient map agree to 10^4
    for rec in wss_search(10_000):
        assert -rec.p // 2 < rec.quotient <= rec.p // 2
        assert rec.quotient % rec.p == fibonacci_quotient(rec.p, 1)


def test_wss_threshold_filters():
    all_records = wss_search(3000)
    near = wss_search(3000, near_threshold=10)
    assert near == [rec for rec in all_records if abs(rec.quotient) <= 10]


def test_wss_limit_validation():
    with pytest.raises(ValueError):
        wss_search(5)


def test_wss_refuses_a_quotient_p_does_not_divide(monkeypatch):
    monkeypatch.setattr(scanner, "_fib_pair_mod", lambda n, m: (1, 1))
    with pytest.raises(NotDivisible):
        wss_search(100)


def test_scan_refuses_n_indexed_checks():
    with pytest.raises(ValueError, match="CONJ1_1N"):
        scan(ScanRequest(("T1_1", "CONJ1_1N"), 3, 7))


def test_wss_checkpoint_resume_identical(tmp_path):
    ckpt = tmp_path / "wss.ckpt"
    fresh = wss_search(50_000)
    partial = wss_search(23_000, checkpoint_path=str(ckpt), checkpoint_every=500)
    assert ckpt.exists()
    resumed = wss_search(50_000, checkpoint_path=str(ckpt), checkpoint_every=500)
    assert render_wss_csv(resumed) == render_wss_csv(fresh)
    assert partial == fresh[: len(partial)]
    # resuming a completed run is a no-op
    again = wss_search(50_000, checkpoint_path=str(ckpt))
    assert again == fresh


def test_wss_resume_clips_to_the_limit(tmp_path):
    ckpt = tmp_path / "wss.ckpt"
    wss_search(1000, checkpoint_path=str(ckpt))
    before = ckpt.read_text()
    resumed = wss_search(100, checkpoint_path=str(ckpt))
    assert resumed == wss_search(100)
    assert max(rec.p for rec in resumed) == 97
    assert ckpt.read_text() == before  # the longer run's file is kept


def test_checkpoint_format(tmp_path):
    ckpt = tmp_path / "wss.ckpt"
    wss_search(1000, checkpoint_path=str(ckpt), checkpoint_every=10)
    lines = ckpt.read_text().splitlines()
    assert lines[0] == "wss-checkpoint v2"
    assert lines[1].startswith("last_prime=")
    assert lines[2] == "near=all"
    for line in lines[3:]:
        p, q = line.split(",")
        int(p), int(q)


@pytest.mark.parametrize(
    "content",
    [
        "",
        "wrong header\nlast_prime=11\n",
        "wss-checkpoint v1\n",
        "wss-checkpoint v1\nlast_prime=abc\n",
        "wss-checkpoint v1\nlast_prime=11\n7,3\n11,\n",
        "wss-checkpoint v1\nlast_prime=11\n7,3,9\n",
        "wss-checkpoint v1\nlast_prime=11\n13,4\n",  # record past last_prime
        "wss-checkpoint v2\nlast_prime=11\n7,3\n",  # no near line
        "wss-checkpoint v2\nlast_prime=11\nnear=-1\n7,3\n",
        "wss-checkpoint v2\nlast_prime=11\nnear=\n",
        "wss-checkpoint v3\nlast_prime=11\nnear=all\n",
    ],
)
def test_checkpoint_corrupt(tmp_path, content):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text(content)
    with pytest.raises(CheckpointCorrupt):
        _read_checkpoint(str(ckpt))
    with pytest.raises(CheckpointCorrupt):
        wss_search(100, checkpoint_path=str(ckpt))


def test_checkpoint_records_its_threshold(tmp_path):
    ckpt = tmp_path / "wss.ckpt"
    wss_search(2000, near_threshold=0, checkpoint_path=str(ckpt))
    assert ckpt.read_text().splitlines()[2] == "near=0"
    before = ckpt.read_text()
    # Resuming with another threshold would mix two record selections.
    for near in (None, 1):
        with pytest.raises(CheckpointCorrupt, match="near"):
            wss_search(3000, near_threshold=near, checkpoint_path=str(ckpt))
    assert ckpt.read_text() == before
    resumed = wss_search(3000, near_threshold=0, checkpoint_path=str(ckpt))
    assert resumed == wss_search(3000, near_threshold=0)


def test_checkpoint_v1_still_resumes(tmp_path):
    ckpt = tmp_path / "wss.ckpt"
    wss_search(2000, checkpoint_path=str(ckpt))
    lines = ckpt.read_text().splitlines()
    assert lines[2] == "near=all"
    ckpt.write_text("\n".join(["wss-checkpoint v1", lines[1]] + lines[3:]) + "\n")
    assert _read_checkpoint(str(ckpt))[1] is None
    assert wss_search(3000, checkpoint_path=str(ckpt)) == wss_search(3000)
    assert ckpt.read_text().splitlines()[:3] == ["wss-checkpoint v2", "last_prime=2999", "near=all"]


def test_unforced_check_error_is_not_a_skip(monkeypatch, capsys):
    from fibmod.cli import main

    def broken(pr, md, tables):
        raise NotDivisible("injected")

    spec = get_check("MORLEY")
    monkeypatch.setitem(checks._REGISTRY_BY_ID, "MORLEY", replace(spec, rhs=broken))
    request = ScanRequest(("MORLEY",), 5, 13)
    with pytest.raises(CheckError, match="injected"):
        scan(request)
    assert main(["scan", "--ids", "MORLEY", "--pmin", "5", "--pmax", "13", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: MORLEY at p=5: injected")
    # Under force, broken arithmetic is expected and stays a SKIP.
    forced = scan(replace(request, force=True))
    assert [row.status for row in forced.rows] == ["SKIP"] * 4

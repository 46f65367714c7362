import gc
import os
from array import array

import pytest

from dataclasses import replace

import fibmod.checks as checks
from fibmod.checks import CheckError, UnknownCheckId, get_check
from fibmod.scanner import (
    CSV_COLUMNS,
    AllSmall,
    CheckpointCorrupt,
    MList,
    Report,
    Row,
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
import fibmod
from fibmod import binomsums, scanner, sequences
from fibmod.modarith import is_prime
from fibmod.sequences import NotDivisible, fibonacci_quotient


def test_sieve_examples():
    assert sieve_primes(1, 20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert sieve_primes(90, 100) == [97]
    assert sieve_primes(14, 16) == []
    assert sieve_primes(2, 2) == [2]
    assert sieve_primes(10, 5) == []


def simple(n):
    """The primes to n by a plain sieve, independent of the code under test."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if flags[i]]


def test_sieve_against_simple():
    assert sieve_primes(1, 10**4) == simple(10**4)
    # segment-boundary crossing window
    lo, hi = (1 << 17) - 50, (1 << 17) + 50
    assert sieve_primes(lo, hi) == [p for p in simple(hi) if p >= lo]


@pytest.mark.parametrize(
    "lo, hi",
    [
        (3, (1 << 17) + 100),  # crosses from the first segment into the second
        (100_003, 2 * (1 << 17) + 500),  # lo inside a segment, two boundaries
        (-5, 50),
        (0, 2),
        (2, 3),
        (50, 10),
    ],
)
def test_sieve_matches_small_primes(lo, hi):
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


def test_scan_starts_no_more_workers_than_primes(monkeypatch):
    import multiprocessing

    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks, chunksize=None):
            return list(map(func, tasks))

        def imap(self, func, tasks, chunksize=1):
            return map(func, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    alone = scan(ScanRequest(check_ids=("T1_1",), p_min=3, p_max=7)).rows
    for jobs, processes in ((64, 3), (2, 2)):
        assert scan(ScanRequest(check_ids=("T1_1",), p_min=3, p_max=7, jobs=jobs)).rows == alone
        assert started.pop() == processes


# The checks of the benchmark's wide scan.
WIDE_IDS = tuple("T1_2,C1_1_8,C1_1_16,C1_2,WILLIAMS,ADAMCHUK,E4_4,E4_5,E4_6,E4_7,MORLEY".split(","))


def test_scan_runs_the_batch_prefill_in_the_workers(monkeypatch):
    # With a pool, each batch group is a task of that pool: the side
    # records' tree never runs in the parent, and the rows do not change.
    want = scan(ScanRequest(WIDE_IDS, 3, 400)).rows
    parent = os.getpid()
    tree = binomsums._tree

    def tree_outside_the_parent(*args):
        if os.getpid() == parent:
            raise AssertionError("the batch tree ran in the parent")
        return tree(*args)

    monkeypatch.setattr(binomsums, "_tree", tree_outside_the_parent)
    with pytest.raises(AssertionError, match="ran in the parent"):
        scan(ScanRequest(WIDE_IDS, 3, 400))
    assert scan(ScanRequest(WIDE_IDS, 3, 400, jobs=2)).rows == want


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


@pytest.mark.parametrize("enabled", [True, False])
def test_wss_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert wss_search(100)[:2] == [(7, 3), (11, 5)]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_wss_signed_representative():
    # module cross-check: the scanner and the quotient map agree to 10^4
    for rec in wss_search(10_000):
        assert -rec.p // 2 < rec.quotient <= rec.p // 2
        assert rec.quotient % rec.p == fibonacci_quotient(rec.p, 1)


def test_wss_threshold_filters():
    all_records = wss_search(3000)
    near = wss_search(3000, near_threshold=10)
    assert near == [rec for rec in all_records if abs(rec.quotient) <= 10]


@pytest.mark.parametrize("n", [0, 1, 2 * scanner._SLICE + 1])
def test_render_wss_csv_takes_any_iterable(n):
    # The same bytes from a WssRecord list, a one-pass generator and two
    # int64 columns, also past a whole number of slices.
    records = wss_search(100_000)[:n]
    assert len(records) == n
    want = "p,quotient\n" + "".join(f"{p},{q}\n" for p, q in records)
    assert render_wss_csv(records) == want
    assert render_wss_csv(rec for rec in records) == want
    ps, qs = array("q", [rec.p for rec in records]), array("q", [rec.quotient for rec in records])
    assert render_wss_csv(zip(ps, qs)) == want


@pytest.mark.parametrize("resumed", [False, True])
def test_wss_sieves_one_segment_at_a_time(tmp_path, monkeypatch, resumed):
    # The search asks the sieve for ranges at most _SEGMENT wide that tile
    # what is left of [7, limit], never for the whole range at once.
    limit = 300_000
    ckpt = str(tmp_path / "wss.ckpt")
    start = 7
    if resumed:
        wss_search(100_000, checkpoint_path=ckpt)
        start = _read_checkpoint(ckpt)[0] + 1
    sieve = scanner.sieve_primes
    asked = []

    def recording(lo, hi):
        if lo != 2:  # sieve_primes(2, ...) gives the base primes to a square root
            asked.append((lo, hi))
        return sieve(lo, hi)

    monkeypatch.setattr(scanner, "sieve_primes", recording)
    records = wss_search(limit, checkpoint_path=ckpt)
    assert [rec.p for rec in records] == sieve(7, limit)
    assert asked[0][0] == start and asked[-1][1] == limit
    assert all(lo <= hi < lo + scanner._SEGMENT for lo, hi in asked)
    assert all(b[0] == a[1] + 1 for a, b in zip(asked, asked[1:]))
    assert len(asked) == -(-(limit + 1 - start) // scanner._SEGMENT)


def test_wss_limit_validation(tmp_path):
    with pytest.raises(ValueError):
        wss_search(5)
    for every in (0, -1):
        with pytest.raises(ValueError, match="checkpoint_every"):
            wss_search(100, checkpoint_every=every)
    # A negative threshold is refused before a file its resume would refuse is written.
    ckpt = tmp_path / "wss.ckpt"
    with pytest.raises(ValueError, match="near_threshold"):
        wss_search(100, near_threshold=-1, checkpoint_path=str(ckpt))
    assert not ckpt.exists()


def test_wss_refuses_a_quotient_p_does_not_divide(monkeypatch):
    monkeypatch.setattr(sequences, "_fib_pair_mod", lambda n, m: (1, 1))
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
    before = ckpt.read_bytes()
    again = wss_search(50_000, checkpoint_path=str(ckpt))
    assert again == fresh
    assert ckpt.read_bytes() == before


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
    assert lines[0] == "wss-checkpoint v3"
    assert lines[1] == "near=all"
    for line in lines[2:]:
        if not line.startswith("commit "):
            p, q = line.split(",")
            int(p), int(q)
    assert lines[-1] == f"commit last_prime=997 records={len(wss_search(1000))}"


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
        "wss-checkpoint v1\nlast_prime=11\n5,1\n",  # p < 7
        "wss-checkpoint v1\nlast_prime=11\n11,5\n7,3\n",
        "wss-checkpoint v2\nlast_prime=11\nnear=all\n11,1\n7,3\n7,3\n",
        "wss-checkpoint v2\nlast_prime=11\nnear=all\n7,3\n7,3\n",
        "wss-checkpoint v3\nnear=all\n7,3\ncommit last_prime=11 records=2\n",
        "wss-checkpoint v3\nnear=all\n7,3\ncommit last_prime=11 records=1\ncommit last_prime=7 records=1\n",
        "wss-checkpoint v3\nnear=all\n7,3\n13,4\ncommit last_prime=11 records=2\n",
        "wss-checkpoint v3\nnear=all\n7,3\ncommit last_prime=11 records=1\n11,5\n",  # record within a committed range
        "wss-checkpoint v3\nnear=all\n3,1\ncommit last_prime=7 records=1\n",
        "wss-checkpoint v3\n7,3\ncommit last_prime=7 records=1\n",  # no near line
        "wss-checkpoint v3\nnear=all\n7,3\ncommit last_prime=7\n",
        "wss-checkpoint v3\nnear=all",  # header cut short
        "wss-checkpoint v3\nnear=all\n9,0\ncommit last_prime=11 records=1\n",  # 9 is not prime
        "wss-checkpoint v3\nnear=all\n7,999\ncommit last_prime=7 records=1\n",  # |q| > p/2
        "wss-checkpoint v3\nnear=3\n11,4\ncommit last_prime=11 records=1\n",  # |q| > near
        "wss-checkpoint v1\nlast_prime=11\n9,0\n",
        "wss-checkpoint v1\nlast_prime=53\n7,3\n49,0\n",  # 7 * 7
        "wss-checkpoint v1\nlast_prime=1000003\n7,3\n1000001,0\n",  # 101 * 9901, a later segment
        "wss-checkpoint v1\nlast_prime=11\n7,-4\n",
        "wss-checkpoint v2\nlast_prime=11\nnear=3\n11,4\n",
        # The defects of the v1 and v2 inputs above, in v3 files.
        "wss-checkpoint v3\n",  # no near line
        "wss-checkpoint v3\nnear=all\n7,3\ncommit last_prime=abc records=1\n",
        "wss-checkpoint v3\nnear=all\n7,3\n11,\ncommit last_prime=11 records=2\n",  # empty quotient
        "wss-checkpoint v3\nnear=all\n7,3,9\ncommit last_prime=7 records=1\n",  # three fields
        "wss-checkpoint v3\nnear=-1\n7,3\ncommit last_prime=7 records=1\n",
        "wss-checkpoint v3\nnear=\n",
        "wss-checkpoint v3\nnear=all\n5,1\ncommit last_prime=7 records=1\n",  # p < 7
        "wss-checkpoint v3\nnear=all\n11,5\n7,3\ncommit last_prime=11 records=2\n",  # a falling pair
        "wss-checkpoint v3\nnear=all\n11,1\n7,3\n7,3\ncommit last_prime=11 records=3\n",
        "wss-checkpoint v3\nnear=all\n7,3\n7,3\ncommit last_prime=7 records=2\n",  # a duplicate
        "wss-checkpoint v3\nnear=all\n7,3\n49,0\ncommit last_prime=53 records=2\n",  # 7 * 7
        # 101 * 9901, in a later sieve segment than 7
        "wss-checkpoint v3\nnear=all\n7,3\n1000001,0\ncommit last_prime=1000003 records=2\n",
        "wss-checkpoint v3\nnear=all\n7,-4\ncommit last_prime=7 records=1\n",  # |q| > p/2
    ],
)
def test_checkpoint_corrupt(tmp_path, content):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text(content)
    with pytest.raises(CheckpointCorrupt):
        _read_checkpoint(str(ckpt))
    with pytest.raises(CheckpointCorrupt):
        wss_search(100, checkpoint_path=str(ckpt))


def _no_sieve_past_one_segment(monkeypatch):
    # A sieve's base primes to the root of a record near 2^63 would take
    # several GB; here any sieve past one segment raises instead.
    sieve = scanner.sieve_primes

    def bounded(lo, hi):
        assert hi <= scanner._SEGMENT, f"sieve_primes({lo}, {hi})"
        return sieve(lo, hi)

    monkeypatch.setattr(scanner, "sieve_primes", bounded)


@pytest.mark.parametrize("p, prime", [(9223372036854775783, True), (9223372036854775781, False)])
def test_a_huge_record_costs_one_test(tmp_path, monkeypatch, p, prime):
    # The largest prime below 2^63, and a composite beside it, each with a
    # matching commit line.
    _no_sieve_past_one_segment(monkeypatch)
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_text(f"wss-checkpoint v3\nnear=all\n{p},0\ncommit last_prime={p} records=1\n")
    if prime:
        assert list(_read_checkpoint(str(ckpt))[2]) == [p]
        assert wss_search(100, checkpoint_path=str(ckpt)) == []
    else:
        with pytest.raises(CheckpointCorrupt, match=f"record p={p} is not prime"):
            wss_search(100, checkpoint_path=str(ckpt))


def test_refuse_composites_agrees_with_is_prime(monkeypatch):
    # Dense runs (sieved), lone records (tested one by one), and a run past
    # 2^34, the square of the sieve's reach, with a composite whose least
    # factor is past that reach, each with a composite put in or not.
    _no_sieve_past_one_segment(monkeypatch)
    dense = sieve_primes(10**6, 10**6 + 3000) + sieve_primes(10**7, 10**7 + 3000)
    lone = [10**7 + 2 * 10**5 + 7, 10**9 + 7, 10**12 + 39]
    qr = 185371 * 185401  # two primes past 2^17 = 131072
    far = [n for n in range(qr, qr + 1500) if is_prime(n)]
    for ps, composites in [
        (dense, (10**6 + 1, 10**7 + 2001)),
        (lone, (10**7 + 2 * 10**5 + 1, 10**9 + 11, 10**12 + 37)),
        (far, (qr,)),
    ]:
        assert all(map(is_prime, ps)) and not any(map(is_prime, composites))
        scanner._refuse_composites("ok", array("q", ps))
        for c in composites:
            with pytest.raises(CheckpointCorrupt, match=f"record p={c} is not prime"):
                scanner._refuse_composites("bad", array("q", sorted([*ps, c])))


def test_checkpoint_records_its_threshold(tmp_path):
    ckpt = tmp_path / "wss.ckpt"
    wss_search(2000, near_threshold=0, checkpoint_path=str(ckpt))
    assert ckpt.read_text().splitlines()[1] == "near=0"
    before = ckpt.read_text()
    # Resuming with another threshold would mix two record selections.
    for near in (None, 1):
        with pytest.raises(CheckpointCorrupt, match="near"):
            wss_search(3000, near_threshold=near, checkpoint_path=str(ckpt))
    assert ckpt.read_text() == before
    resumed = wss_search(3000, near_threshold=0, checkpoint_path=str(ckpt))
    assert resumed == wss_search(3000, near_threshold=0)


@pytest.mark.parametrize("header", ["wss-checkpoint v1", "wss-checkpoint v2"])
def test_checkpoint_v1_and_v2_are_refused(tmp_path, capsys, header):
    from fibmod.cli import main

    ckpt = tmp_path / "old.ckpt"
    near = "near=all\n" if header.endswith("v2") else ""
    old = f"{header}\nlast_prime=1999\n{near}" + "".join(
        f"{rec.p},{rec.quotient}\n" for rec in wss_search(2000)
    )
    ckpt.write_text(old)
    named = f"old.ckpt: header '{header}' is not 'wss-checkpoint v3'"
    with pytest.raises(CheckpointCorrupt, match=named):
        _read_checkpoint(str(ckpt))
    with pytest.raises(CheckpointCorrupt, match=named):
        wss_search(3000, checkpoint_path=str(ckpt))
    out = tmp_path / "w.csv"
    assert main(["wss", "--limit", "3000", "--checkpoint", str(ckpt), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
    assert ckpt.read_text() == old


def _assert_v3_holds(text, records, last_prime):
    """text is a whole v3 checkpoint of ``records``: each once, in commits
    whose records= counts the record lines above them."""
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[:2] == ["wss-checkpoint v3", "near=all"]
    body = []
    for line in lines[2:]:
        if line.startswith("commit "):
            assert line.endswith(f" records={len(body)}")
        else:
            body.append(line)
    assert body == [f"{rec.p},{rec.quotient}" for rec in records]
    assert lines[-1] == f"commit last_prime={last_prime} records={len(records)}"


def test_checkpoint_appends_each_record_once(tmp_path, monkeypatch):
    ckpt = tmp_path / "wss.ckpt"
    write = scanner._write_checkpoint
    sizes = []

    def appending(path, *args):
        before = ckpt.read_text() if ckpt.exists() else ""
        size = write(path, *args)
        assert ckpt.read_text().startswith(before)
        sizes.append(size)
        return size

    monkeypatch.setattr(scanner, "_write_checkpoint", appending)
    fresh = wss_search(3000)
    assert wss_search(3000, checkpoint_path=str(ckpt), checkpoint_every=100) == fresh
    assert not (tmp_path / "wss.ckpt.tmp").exists()
    text = ckpt.read_text()
    # one commit per 100 primes and one for the rest
    assert len(sizes) == -(-len(fresh) // 100) == text.count("commit ")
    assert sizes[-1] == len(text)
    _assert_v3_holds(text, fresh, 2999)


@pytest.mark.parametrize(
    "tail",
    [
        "3001,7\n",  # a whole record with no commit
        "3001,7",  # a line cut short
        "3001,7\n3011,-4\ncommit last_prime=30",
    ],
)
@pytest.mark.parametrize("first_limit", [3000, None])
def test_checkpoint_torn_tail_is_dropped(tmp_path, tail, first_limit):
    ckpt = tmp_path / "wss.ckpt"
    if first_limit is None:
        ckpt.write_text("wss-checkpoint v3\nnear=all\n")  # no commit: resumes from 7
        tail = "7,3\n" + tail
        committed, last_prime = [], 6
    else:
        committed = wss_search(first_limit, checkpoint_path=str(ckpt), checkpoint_every=50)
        last_prime = 2999
    before = ckpt.read_text()
    with open(ckpt, "a") as fh:
        fh.write(tail)
    read_last_prime, _, read_ps, read_qs, _ = _read_checkpoint(str(ckpt))
    assert (read_last_prime, list(zip(read_ps, read_qs))) == (last_prime, committed)
    fresh = wss_search(5000)
    assert wss_search(5000, checkpoint_path=str(ckpt), checkpoint_every=50) == fresh
    text = ckpt.read_text()
    assert text.startswith(before)
    _assert_v3_holds(text, fresh, 4999)


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


def test_render_jsonl_rows_match_json_dumps():
    import json

    odd = 'T"2\\_é'  # a quote, a backslash and a non-ASCII letter
    rows = [
        Row("T1_1", 3, 1, None, None, None, None, None, "SKIP"),
        Row("T2_MAIN", 7, 2, -16, 2, 0, 48, 0, "FAIL"),
        Row(odd, 2**60 - 93, 1, -(2**59) - 1, 3, 2**60 - 1, -1, 3, odd + "\U0001F600"),
        Row("C1_2", 11, 1, 5, None, 12, None, 2, "PASS"),
    ]
    request = ScanRequest(check_ids=("T1_1",), p_min=3, p_max=3)
    lines = render_jsonl(Report(request, rows, {"T1_1": {"pass": 0, "fail": 0, "skip": 1}}))
    body = lines.splitlines()[1:-1]
    assert body == [json.dumps({k: getattr(row, k) for k in Row._fields}) for row in rows]


def _report_rows(n):
    """n rows of every status, SKIPs with None fields among them; a check
    id that needs JSON escapes first shows up in the second slice."""
    odd = 'T"2\\_é'
    rows = []
    for i in range(n):
        cid = odd if i == scanner._SLICE else ("T1_1", "T2_MAIN", "C1_2")[i % 3]
        if i % 5 == 0:
            rows.append(Row(cid, 3 + 2 * i, 1, None, None, None, None, None, "SKIP"))
        else:
            m = None if i % 3 else i - 7
            rows.append(Row(cid, 3 + 2 * i, 1 + i % 2, m, 2, i * i, -i, i % 3, ("PASS", "FAIL")[i % 2]))
    return rows


@pytest.mark.parametrize("n", [0, 1, scanner._SLICE, scanner._SLICE + 1])
def test_renderers_give_the_row_by_row_bytes(n):
    # The bytes of a row at a time: csv_row per line, and json.dumps of a
    # dict per line, around the same header and summary lines.
    import json

    request = ScanRequest(check_ids=("T1_1", "T2_MAIN"), p_min=3, p_max=7)
    summary = {"T2_MAIN": {"pass": 1, "fail": 2, "skip": 3}, "T1_1": {"pass": 4, "fail": 0, "skip": 0}}
    report = Report(request, _report_rows(n), summary)
    lines = scanner._header_lines(report) + [CSV_COLUMNS]
    lines += [",".join("" if v is None else str(v) for v in row) for row in report.rows]
    lines += [f"# summary: {c} pass={s['pass']} fail={s['fail']} skip={s['skip']}" for c, s in sorted(summary.items())]
    assert render_csv(report) == "\n".join(lines) + "\n"
    head = {
        "tool": "fibmod",
        "version": fibmod.__version__,
        "request": scanner._request_fields(request),
        "sample_seed": "none",
    }
    lines = [json.dumps(head)] + [json.dumps(row._asdict()) for row in report.rows]
    lines.append(json.dumps({"summary": {c: summary[c] for c in sorted(summary)}}))
    assert render_jsonl(report) == "\n".join(lines) + "\n"


def test_rows_are_immutable_tuples():
    row = Row("T1_1", 3, 1, None, 3, 11, 11, 3, "PASS")
    with pytest.raises(AttributeError):
        row.status = "FAIL"
    assert row == ("T1_1", 3, 1, None, 3, 11, 11, 3, "PASS")
    assert ",".join(Row._fields) == CSV_COLUMNS
    assert CSV_COLUMNS == "check_id,p,a,m,exponent,lhs,rhs,defect_valuation,status"


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("7,3\n11,+1\ncommit last_prime=11 records=2\n", 4),  # only what the writer writes
        ("7,3\ncommit last_prime=7 records=1\n11, 1\n", 5),
        ("7,3\n11,1-\n", 4),
        ("7,3\n11,-\n", 4),
        ("7,3\n11,1,\n,13\n", 4),  # commas that still pair up overall
        ("7,3\ncommit last_prime=7 records=1\n11,1\n13,1\n13,2\n", 7),
        ("7,3\ncommit last_prime=7 records=1\n11,-6\n", 5),
        ("7,3\ncommit last_prime=7 records=1\ncommit last_prime=7 records=1\n", 5),
        ("7,3\n9223372036854775837,0\ncommit last_prime=9223372036854775837 records=2\n", 4),  # past int64
    ],
)
def test_checkpoint_refusal_names_its_line(tmp_path, body, lineno):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text("wss-checkpoint v3\nnear=all\n" + body)
    with pytest.raises(CheckpointCorrupt, match=f"bad.ckpt:{lineno}: "):
        _read_checkpoint(str(ckpt))

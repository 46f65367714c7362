"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Congruence checks are exact; a verdict either passes or fails, so every
assertion here is equality at the stated modulus, never a tolerance.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.
"""

import time
from math import comb

import pytest

from fibmod.checks import (
    CheckKind,
    CheckParams,
    list_checks,
    run_check,
    run_conj11n_range,
)
from fibmod.modarith import LucasParams, Modulus
from fibmod.scanner import (
    AllSmall,
    MList,
    Report,
    Sample,
    ScanRequest,
    _m_values,
    render_csv,
    render_wss_csv,
    scan,
    sieve_primes,
    wss_search,
)
from fibmod.sequences import DomainError, lucas_uv_mod
from oracles import exact_identity_41, exact_lagrange, padic_normalize

JOBS = 2
SEED = 20110911


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} {detail}")
    assert ok, f"{name}: {detail}"


def _no_failures(report: Report, allowed_skips=None):
    """(ok, detail): no FAIL rows; SKIP rows only where the predicate allows."""
    fails = [r for r in report.rows if r.status == "FAIL"]
    bad_skips = []
    for r in report.rows:
        if r.status == "SKIP" and (allowed_skips is None or not allowed_skips(r)):
            bad_skips.append(r)
    ok = not fails and not bad_skips
    detail = ""
    if fails:
        detail += f" first_fail={fails[0]}"
    if bad_skips:
        detail += f" first_bad_skip={bad_skips[0]}"
    return ok, detail


class _Shared:
    """The wide a=1 scans, run once and sliced by several criteria."""

    report_10k: Report | None = None

    @classmethod
    def wide(cls) -> Report:
        if cls.report_10k is None:
            cls.report_10k = scan(
                ScanRequest(
                    check_ids=(
                        "T1_2",
                        "C1_1_8",
                        "C1_1_16",
                        "C1_2",
                        "WILLIAMS",
                        "ADAMCHUK",
                        "E4_4",
                        "E4_5",
                        "E4_6",
                        "E4_7",
                        "MORLEY",
                    ),
                    p_min=3,
                    p_max=10_000,
                    jobs=JOBS,
                )
            )
        return cls.report_10k

    @classmethod
    def slice(cls, check_id: str) -> list:
        return [r for r in cls.wide().rows if r.check_id == check_id]


def test_criterion_01_t1_1():
    t0 = time.perf_counter()
    report = scan(ScanRequest(check_ids=("T1_1",), p_min=3, p_max=10_000, jobs=1))
    elapsed = time.perf_counter() - t0
    ok, detail = _no_failures(report, allowed_skips=lambda r: r.p == 5)
    for p in sieve_primes(3, 100):
        if p == 5:
            continue
        ok = ok and run_check("T1_1", CheckParams(p=p, a=2)).passed
    for p in sieve_primes(3, 21):
        if p == 5:
            continue
        ok = ok and run_check("T1_1", CheckParams(p=p, a=3)).passed
    _report("01 T1_1 mod p^3", ok, f"a=1 single-threaded {elapsed:.1f}s{detail}")
    assert elapsed < 30.0, f"a=1 scan took {elapsed:.1f}s, expected well under 30s"


def test_criterion_02_t1_2():
    rows = _Shared.slice("T1_2")
    fails = [r for r in rows if r.status == "FAIL"]
    bad_skips = [r for r in rows if r.status == "SKIP" and r.p != 3]
    ok = not fails and not bad_skips and len(rows) == len(sieve_primes(3, 10_000))
    for p in sieve_primes(5, 100):
        ok = ok and run_check("T1_2", CheckParams(p=p, a=2)).passed
    _report("02 T1_2 mod p^3", ok)


def test_criterion_03_t2():
    policies = (AllSmall(), Sample(50, SEED), MList(tuple(range(-1, -21, -1))))
    report = scan(
        ScanRequest(
            check_ids=("T2_MAIN", "T2_CAT"),
            p_min=3,
            p_max=300,
            m_policy=policies,
            jobs=JOBS,
        )
    )
    # negative list entries divisible by p are legitimately out of domain
    ok, detail = _no_failures(report, allowed_skips=lambda r: r.m is not None and r.m % r.p == 0)
    checked = 0
    for p in sieve_primes(3, 50):
        for m in _m_values(p, policies):
            if m % p == 0:
                continue
            for cid in ("T2_MAIN", "T2_CAT"):
                v = run_check(cid, CheckParams(p=p, a=2, m=m))
                ok = ok and v.passed
                checked += 1
    _report("03 T2_MAIN/T2_CAT mod p^2", ok, f"a=2 combos={checked}{detail}")


def test_criterion_04_c1_1():
    ok = True
    for cid in ("C1_1_8", "C1_1_16"):
        rows = _Shared.slice(cid)
        ok = ok and all(r.status == "PASS" for r in rows)
        ok = ok and len(rows) == len(sieve_primes(3, 10_000))
        for p in sieve_primes(3, 100):
            ok = ok and run_check(cid, CheckParams(p=p, a=2)).passed
    _report("04 C1_1_8/C1_1_16 mod p^2", ok)


def test_criterion_05_c1_2():
    rows = _Shared.slice("C1_2")
    fails = [r for r in rows if r.status == "FAIL"]
    bad_skips = [r for r in rows if r.status == "SKIP" and r.p != 3]
    # A pass means the sum matched BOTH the closed form and the mod-12
    # case table, which also forces the two forms to agree.
    ok = not fails and not bad_skips
    _report("05 C1_2 both forms mod p^2", ok)


def test_criterion_06_section1():
    ok = True
    rows = _Shared.slice("WILLIAMS")
    ok = ok and all(r.status == "PASS" for r in rows if r.p != 5)
    ok = ok and all(r.status == "SKIP" for r in rows if r.p == 5)
    pansun = scan(ScanRequest(check_ids=("PANSUN",), p_min=3, p_max=3000, jobs=JOBS))
    ok2, detail = _no_failures(pansun, allowed_skips=lambda r: r.p == 5)
    ok = ok and ok2
    for p in sieve_primes(3, 60):
        if p == 5:
            continue
        ok = ok and run_check("PANSUN", CheckParams(p=p, a=2)).passed
    rows = _Shared.slice("ADAMCHUK")
    ok = ok and all(r.status == ("PASS" if r.p % 3 == 1 else "SKIP") for r in rows)
    basic = scan(ScanRequest(check_ids=("BASIC_P",), p_min=3, p_max=500, jobs=JOBS))
    ok3, detail3 = _no_failures(basic)
    ok = ok and ok3
    _report("06 WILLIAMS/PANSUN/ADAMCHUK/BASIC_P", ok, detail + detail3)


def test_criterion_07_lemmas():
    ok = True
    # L2_1, every k, a = 1 then a = 2.
    for p in sieve_primes(3, 200):
        ok = ok and run_check("L2_1", CheckParams(p=p)).passed
    for p in sieve_primes(3, 20):
        ok = ok and run_check("L2_1", CheckParams(p=p, a=2)).passed
    report = scan(
        ScanRequest(
            check_ids=(
                "L2_2A",
                "L2_2B",
                "L2_3A",
                "L2_3B",
                "MT_26",
                "MT_27",
                "AUX_GRANVILLE",
                "AUX_S08",
                "AUX_ST",
                "AUX_SS",
            ),
            p_min=3,
            p_max=1000,
            jobs=JOBS,
        )
    )
    ok2, detail = _no_failures(report, allowed_skips=lambda r: r.p in (3, 5))
    ok = ok and ok2
    # The regression-pinned anomaly: forced evaluation at p = 3 fails flat.
    anomaly = run_check("L2_3A", CheckParams(p=3, force=True))
    ok = ok and not anomaly.passed and anomaly.defect_valuation == 0
    # Lucas-parameter grids.
    grid = [(A, B) for A in range(-10, 11) for B in range(-10, 11)]
    for p in sieve_primes(3, 200):
        for A, B in grid:
            if (2 * B * (A * A - 4 * B)) % p == 0:
                continue
            ok = ok and run_check("L3_2", CheckParams(p=p, A=A, B=B)).passed
    for p in sieve_primes(3, 500):
        for A, B in grid:
            ok = ok and run_check("V_CONG_A", CheckParams(p=p, A=A, B=B)).passed
    l33 = scan(ScanRequest(check_ids=("L3_3",), p_min=3, p_max=500, jobs=JOBS))
    ok3, detail3 = _no_failures(l33)
    ok = ok and ok3
    for p in sieve_primes(3, 50):
        for m in range(1, p):
            ok = ok and run_check("L3_3", CheckParams(p=p, a=2, m=m)).passed
    _report("07 lemmas incl. pinned p=3 anomaly", ok, detail + detail3)


def test_criterion_08_section4():
    a1 = scan(
        ScanRequest(
            check_ids=("P4_1A", "P4_1B"),
            p_min=3,
            p_max=500,
            m_policy=(Sample(10, SEED), MList((1, 2, 3, -1, -2))),
            jobs=JOBS,
        )
    )
    skip_ok = lambda r: r.m is not None and r.m % r.p == 0
    ok, detail = _no_failures(a1, allowed_skips=skip_ok)
    a2 = scan(
        ScanRequest(
            check_ids=("P4_1A", "P4_1B"),
            p_min=3,
            p_max=500,
            a_max=2,
            m_policy=(Sample(1, SEED), MList((2,))),
            jobs=JOBS,
        )
    )
    ok2, detail2 = _no_failures(a2, allowed_skips=skip_ok)
    ok = ok and ok2
    for cid in ("E4_4", "E4_5", "E4_6", "E4_7", "MORLEY"):
        rows = _Shared.slice(cid)
        ok = ok and all(r.status == ("SKIP" if r.p == 3 else "PASS") for r in rows)
    _report("08 P4_1A/P4_1B mod p^(a+1), E4_4..E4_7, MORLEY", ok, detail + detail2)


def test_criterion_09_exact_identities():
    ok = True
    for A in range(-10, 11):
        for B in range(-10, 11):
            params = LucasParams(A, B)
            u_prev, u = 0, 1
            for n in range(201):
                if exact_lagrange(params, n) != u:
                    ok = False
                    break
                u_prev, u = u, A * u - B * u_prev
    count = 0
    for m in range(-32, 33):
        if m == 0:
            continue
        for n in range(101):
            lhs, rhs = exact_identity_41(m, n)
            ok = ok and lhs == rhs
            count += 1
    _report("09 exact telescoping identities", ok, f"grid points={count}")


def test_criterion_10_conjectures():
    verdicts = run_conj11n_range(5000)
    ok = all(v.passed for v in verdicts) and len(verdicts) == 5001
    spot = run_check("CONJ1_1N", CheckParams(p=3, n=1))
    ok = ok and spot.passed and spot.lhs // 9 * pow(2, -1, 9) % 9 == 4
    for n in range(0, 2500, 97):  # per-n evaluator agrees with the bulk pass
        single = run_check("CONJ1_1N", CheckParams(p=3, n=n))
        ok = ok and single.passed == verdicts[n].passed
        ok = ok and single.lhs == verdicts[n].lhs
        ok = ok and single.rhs == verdicts[n].rhs
    for a in range(1, 8):
        ok = ok and run_check("CONJ1_1A", CheckParams(p=3, a=a)).passed
    spot_a = run_check("CONJ1_1A", CheckParams(p=3, a=1))
    ok = ok and spot_a.lhs // 9 % 27 == 17  # -10 mod 27
    conj_ids = (
        "CONJ1_2_I",
        "CONJ1_2_II_45",
        "CONJ1_2_II_35",
        "CONJ1_2_III_710",
        "CONJ1_2_III_910",
    )
    report = scan(ScanRequest(check_ids=conj_ids, p_min=3, p_max=2000, jobs=JOBS))
    ok2, detail = _no_failures(report, allowed_skips=lambda r: True)
    ok = ok and ok2
    ran = 0
    for p in sieve_primes(3, 60):
        for cid in conj_ids:
            try:
                v = run_check(cid, CheckParams(p=p, a=2))
            except DomainError:
                continue
            ok = ok and v.passed
            ran += 1
    ok = ok and ran > 0
    _report("10 conjecture scans, no counterexamples", ok, f"a=2 combos={ran}{detail}")


def test_criterion_11_wss(tmp_path):
    t0 = time.perf_counter()
    hits = wss_search(1_000_000, near_threshold=0)
    elapsed = time.perf_counter() - t0
    ok = hits == []
    fresh = wss_search(1_000_000)
    ckpt = tmp_path / "wss.ckpt"
    wss_search(400_000, checkpoint_path=str(ckpt))  # interrupted run
    resumed = wss_search(1_000_000, checkpoint_path=str(ckpt))
    ok = ok and render_wss_csv(resumed) == render_wss_csv(fresh)
    _report(
        "11 Wall-Sun-Sun search to 10^6",
        ok,
        f"threshold-0 scan {elapsed:.1f}s, resume byte-identical",
    )
    assert elapsed < 60.0, f"threshold-0 scan took {elapsed:.1f}s, expected under 60s"


def test_criterion_12_oracle_equivalence():
    from fibmod.binomsums import central_binomial_stream

    ok = True
    mismatches = 0
    for p in (3, 5, 7, 13):
        for e in (1, 2, 3, 4):
            md = Modulus(p, e)
            for k, term in enumerate(central_binomial_stream(md, 500)):
                if term != padic_normalize(comb(2 * k, k), md):
                    mismatches += 1
    ok = ok and mismatches == 0
    for A, B in [(1, -1), (4, 8), (4, 16), (3, 1), (2, 1), (5, 3)]:
        params = LucasParams(A, B)
        for md in (Modulus(3, 4), Modulus(7, 3), Modulus(101, 2), Modulus(9973, 1), Modulus(13, 5)):
            u0, u1 = 0, 1 % md.m
            v0, v1 = 2 % md.m, A % md.m
            for n in range(2001):
                if lucas_uv_mod(params, n, md) != (u0, v0):
                    mismatches += 1
                    break
                u0, u1 = u1, (A * u1 - B * u0) % md.m
                v0, v1 = v1, (A * v1 - B * v0) % md.m
    ok = ok and mismatches == 0
    _report("12 oracle equivalence (stream, Lucas)", ok, f"mismatches={mismatches}")


def test_criterion_13_determinism():
    theorem_ids = tuple(s.id for s in list_checks() if s.kind is CheckKind.THEOREM)
    base = dict(
        check_ids=theorem_ids,
        p_min=3,
        p_max=500,
        m_policy=(Sample(5, 424243), MList((-1, 2))),
    )
    csv_1 = render_csv(scan(ScanRequest(jobs=1, **base)))
    csv_8 = render_csv(scan(ScanRequest(jobs=8, **base)))
    ok = csv_1 == csv_8
    _report("13 byte-identical reports across jobs", ok, f"ids={len(theorem_ids)}")

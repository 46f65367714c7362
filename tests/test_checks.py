from dataclasses import replace

import pytest

import fibmod.checks as checks
from fibmod.binomsums import PrimeTables, central_sum
from fibmod.checks import (
    BudgetExceeded,
    CheckError,
    CheckKind,
    CheckParams,
    UnknownCheckId,
    get_check,
    list_checks,
    run_check,
    run_conj11n_range,
)
from fibmod.modarith import LucasParams, Modulus, NotInvertible, jacobi
from fibmod.scanner import AllSmall, Sample, _m_values, sieve_primes
from fibmod.sequences import DomainError, entry_index, fibonacci_mod, lucas_uv_mod
from oracles import l2_2a_displayed_rhs, mbar


def test_registry_contents():
    specs = list_checks()
    assert len(specs) >= 30
    by_id = {s.id: s for s in specs}
    assert by_id["T1_1"].kind is CheckKind.THEOREM
    assert by_id["CONJ1_2_I"].kind is CheckKind.CONJECTURE
    assert by_id["L2_1"].kind is CheckKind.LEMMA
    assert by_id["MORLEY"].kind is CheckKind.AUXILIARY
    # Stable order and stable ids: pinned prefix.
    assert [s.id for s in specs[:7]] == [
        "T1_1",
        "T1_2",
        "T2_MAIN",
        "T2_CAT",
        "C1_1_8",
        "C1_1_16",
        "C1_2",
    ]
    assert list_checks() == specs


def test_unknown_id():
    with pytest.raises(UnknownCheckId):
        get_check("NOPE")
    with pytest.raises(UnknownCheckId):
        run_check("NOPE", CheckParams(p=7))


def test_t1_1_spot():
    v = run_check("T1_1", CheckParams(p=7))
    assert (v.lhs, v.rhs) == (160, 160)
    assert v.passed and v.defect_valuation == 3
    assert v.modulus == Modulus(7, 3)


def test_pansun_spot():
    v = run_check("PANSUN", CheckParams(p=3))
    assert (v.lhs, v.rhs) == (5, 5)
    assert v.passed


def test_l2_3a_anomaly_pinned():
    # Out of the declared domain; forced evaluation shows the mismatch.
    with pytest.raises(DomainError):
        run_check("L2_3A", CheckParams(p=3))
    v = run_check("L2_3A", CheckParams(p=3, force=True))
    assert (v.lhs, v.rhs) == (1, 2)
    assert not v.passed
    assert v.defect_valuation == 0


def test_c1_1_8_spot():
    v = run_check("C1_1_8", CheckParams(p=5))
    assert (v.lhs, v.rhs) == (24, 24)  # (2/5) = -1 = 24 (mod 25)
    assert v.passed


def test_l2_2a_corrected_vs_displayed():
    v = run_check("L2_2A", CheckParams(p=5))
    assert (v.lhs, v.rhs) == (91, 91)
    assert v.passed
    # The uncorrected closed form disagrees with direct computation.
    assert l2_2a_displayed_rhs(5) == 78


def test_mbar_examples():
    assert mbar(4, 11, 1) == 1
    assert mbar(3, 11, 1) == 2  # (1/11) = 1
    assert mbar(8, 7, 2) == 37  # (-4/7) = -1, 2/8 = 37 (mod 49)
    assert type(mbar(8, 7, 2)) is int
    with pytest.raises(NotInvertible):
        mbar(22, 11, 1)


def test_domain_errors():
    with pytest.raises(DomainError):
        run_check("T1_1", CheckParams(p=5))
    with pytest.raises(DomainError):
        run_check("T1_2", CheckParams(p=3))
    with pytest.raises(DomainError):
        run_check("T2_MAIN", CheckParams(p=7))  # m missing
    with pytest.raises(DomainError):
        run_check("CONJ1_1N", CheckParams(p=3))  # n missing
    with pytest.raises(DomainError):
        run_check("CONJ1_1N", CheckParams(p=3, n=-1, force=True))
    with pytest.raises(DomainError):
        run_check("T1_1", CheckParams(p=9))  # not prime
    with pytest.raises(DomainError):
        run_check("T1_1", CheckParams(p=7, a=0))
    with pytest.raises(DomainError, match="n must be >= 0"):
        run_conj11n_range(-1)


def test_budget():
    with pytest.raises(BudgetExceeded):
        run_check("T1_1", CheckParams(p=101, budget=10))
    # force overrides the budget gate
    assert run_check("T1_1", CheckParams(p=101, budget=10, force=True)).passed
    with pytest.raises(BudgetExceeded):
        run_conj11n_range(10, budget=5)


def test_check_error_wraps_arithmetic():
    # T1_2 forced at p = 3 divides by 6.
    with pytest.raises(CheckError):
        run_check("T1_2", CheckParams(p=3, force=True))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("a", [1, 2])
def test_every_forced_check_gives_a_verdict_or_a_known_error(p, a):
    # A forced evaluation outside a domain may break, but only as an error
    # the scanner turns into a SKIP row, never as a bare KeyError or the like.
    for spec in list_checks():
        for m, n in [(1, 0), (2, 1), (4, 3), (6, 4), (p, 9), (p + 4, 12), (-3, 2)]:
            params = CheckParams(p=p, a=a, m=m, n=n, force=True)
            try:
                verdict = run_check(spec.id, params)
            except (CheckError, DomainError, BudgetExceeded):
                continue
            assert verdict.check_id == spec.id


# Forced checks whose side refuses its own domain: a Fibonacci quotient at
# p = 5 (WILLIAMS, L2_3A) and an entry index at p | 2B (L3_2).
_FORCED_SIDE_REFUSALS = [
    ("WILLIAMS", CheckParams(p=5, force=True), "Fibonacci quotient"),
    ("L2_3A", CheckParams(p=5, force=True), "Fibonacci quotient"),
    ("L3_2", CheckParams(p=7, A=2, B=7, force=True), "divides 2B"),
]


@pytest.mark.parametrize("check_id, params, match", _FORCED_SIDE_REFUSALS)
def test_a_side_domain_refusal_is_a_check_error(check_id, params, match):
    with pytest.raises(CheckError, match=match):
        run_check(check_id, params)
    # Unforced, the same point is a domain refusal before any side runs.
    with pytest.raises(DomainError):
        run_check(check_id, params._replace(force=False))


def test_forced_c1_2_at_3_is_a_check_error():
    # p = 3 has no row in C1_2's mod-12 case table.
    with pytest.raises(CheckError, match="mod-12"):
        run_check("C1_2", CheckParams(p=3, force=True))


def test_forced_conjecture_candidate():
    v = run_check("ADAMCHUK", CheckParams(p=5, force=True))
    assert not v.passed
    assert (v.lhs, v.rhs) == (3, 0)


def test_downward_consistency():
    cases = [
        ("T1_1", CheckParams(p=13)),
        ("T1_2", CheckParams(p=13)),
        ("T2_MAIN", CheckParams(p=11, m=7)),
        ("PANSUN", CheckParams(p=7, a=2)),
        ("L2_2B", CheckParams(p=13)),
        ("MORLEY", CheckParams(p=11)),
        ("L2_1", CheckParams(p=11)),
    ]
    # One store serves every case and every exponent, as in a scan.
    tables = PrimeTables()
    for cid, params in cases:
        spec = get_check(cid)
        assert run_check(cid, params, tables).passed
        for e in range(1, spec.exponent(params)):
            md = Modulus(params.p, e)
            lhs = spec.lhs(params, md, tables)
            assert lhs == spec.rhs(params, md, tables), (cid, e)


def test_mutation_of_rhs_fails(monkeypatch):
    spec = get_check("T1_1")
    corrupted = replace(spec, rhs=lambda pr, md, cache: (spec.rhs(pr, md, cache) + 1) % md.m)
    monkeypatch.setitem(checks._REGISTRY_BY_ID, "T1_1", corrupted)
    v = run_check("T1_1", CheckParams(p=7))
    assert not v.passed
    assert v.defect_valuation == 0


def test_defect_valuation_grading(monkeypatch):
    # Shift the closed form by p^2: the defect valuation must report 2.
    spec = get_check("T1_1")
    shifted = replace(
        spec, rhs=lambda pr, md, cache: (spec.rhs(pr, md, cache) + pr.p**2) % md.m
    )
    monkeypatch.setitem(checks._REGISTRY_BY_ID, "T1_1", shifted)
    v = run_check("T1_1", CheckParams(p=7))
    assert not v.passed
    assert v.defect_valuation == 2


def test_compare_broadcasts_a_scalar_side():
    # An int side meets every entry of a list side, as the repeated list would.
    md = Modulus(7, 2)
    for scalar, side in [(3, [3, 10, 3]), (5, [5, 5]), (1, [2, 8]), (4, [4])]:
        repeated = [scalar] * len(side)
        assert checks._compare(scalar, side, md) == checks._compare(repeated, side, md)
        assert checks._compare(side, scalar, md) == checks._compare(side, repeated, md)
    assert checks._compare(3, [3, 10, 3], md) == (1, 3, 10)
    for lhs, rhs in [([1, 2], [1, 2, 3]), ([1, 2, 3], [1, 2])]:
        with pytest.raises(CheckError, match="arity"):
            checks._compare(lhs, rhs, md)


def test_c1_2_forms_agree():
    for p in sieve_primes(5, 300):
        v = run_check("C1_2", CheckParams(p=p))
        assert v.passed, p  # both the closed form and the case table


def test_t1_1_cross_checks_h2_relation():
    # For a = 1 the half-range sum minus F_p is -(5/8)(p/5) F^2 mod p^3.
    from fibmod.modarith import jacobi

    for p in sieve_primes(3, 200):
        if p == 5:
            continue
        md = Modulus(p, 3)
        s = central_sum(-16, (p - 1) // 2, md)
        sign = jacobi(p, 5)
        f_p = fibonacci_mod(p, md.m)
        f_entry = fibonacci_mod(p - sign, md.m)
        rhs = (f_p - 5 * sign * pow(8, -1, md.m) * f_entry % md.m * f_entry) % md.m
        assert s == rhs, p
        assert run_check("T1_1", CheckParams(p=p)).passed


def test_lucas_parameterized_checks():
    v = run_check("L3_2", CheckParams(p=7, A=3, B=2))
    assert v.passed and v.lhs == 29
    v = run_check("V_CONG_A", CheckParams(p=11, A=-6, B=9))
    assert v.passed and v.lhs == 5
    # Defaults are the Fibonacci parameters.
    assert run_check("V_CONG_A", CheckParams(p=11)).passed
    with pytest.raises(DomainError):
        run_check("L3_2", CheckParams(p=5, A=1, B=5))  # p | 2B


def test_conj11n_spot_value():
    # n = 1: ratio is 1/16 = 4 (mod 9), so sum = 18 * 4 = 72 (mod 81).
    v = run_check("CONJ1_1N", CheckParams(p=3, n=1))
    assert v.passed
    assert v.modulus == Modulus(3, 4)
    assert v.lhs == 72
    q = v.lhs // 9 * pow(2, -1, 9) % 9
    assert q == 4


def test_conj11a_spot_value():
    # a = 1: sum/9 = 1/8 = 17 = -10 (mod 27).
    v = run_check("CONJ1_1A", CheckParams(p=3, a=1))
    assert v.passed
    assert v.lhs == 153  # 9 * 17 (mod 3^5)
    assert v.lhs // 9 % 27 == 17


def test_conj11n_range_agrees_with_run_check():
    verdicts = run_conj11n_range(150)
    assert len(verdicts) == 151
    for n in range(0, 151, 7):
        single = run_check("CONJ1_1N", CheckParams(p=3, n=n))
        bulk = verdicts[n]
        assert bulk.passed == single.passed
        assert bulk.modulus == single.modulus
        assert bulk.lhs == single.lhs
        assert bulk.rhs == single.rhs


def test_a_shared_prime_tables_store_is_consistent():
    cache = PrimeTables()
    ids = [s.id for s in list_checks()]
    for p in (7, 13):
        for cid in ids:
            for m in (None, 1, 3, -16):
                try:
                    with_cache = run_check(cid, CheckParams(p=p, m=m, n=4), cache)
                    fresh = run_check(cid, CheckParams(p=p, m=m, n=4))
                except (DomainError, BudgetExceeded, CheckError):
                    continue
                assert with_cache.lhs == fresh.lhs, (cid, p, m)
                assert with_cache.rhs == fresh.rhs, (cid, p, m)


def _t2_m_values(p):
    """Every m in 1..p-1 and ten seeded m in [p, p^2) coprime to p, as a scan draws them."""
    return _m_values(p, (AllSmall(), Sample(10, 7)))


def test_sum_memo_keeps_verdicts():
    # T2_CAT's rhs and T2_MAIN's lhs ask for the same plain sum; with one
    # store per prime the second reads the first's from the memo.
    ids = ("T2_CAT", "T2_MAIN", "BASIC_P")
    for p in sieve_primes(3, 61):
        shared = PrimeTables()
        for m in _t2_m_values(p):
            for cid in ids:
                params = CheckParams(p=p, m=m)
                assert run_check(cid, params, shared) == run_check(cid, params, PrimeTables())
        # Per m: the Catalan and the plain sum mod p^2, the latter shared by
        # T2_CAT and T2_MAIN, and BASIC_P's plain sum mod p.
        assert len(shared.sums) == 3 * len(_t2_m_values(p))


def test_sum_memo_keeps_keys_apart():
    md = Modulus(7, 2)
    shared = PrimeTables()
    for base in (2, 3, -16, 5):
        for upper in (2, 3):
            for signed in (False, True):
                got = central_sum(base, upper, md, signed=signed, tables=shared)
                assert got == central_sum(base, upper, md, signed=signed)
    assert len(shared.sums) == 4 * 2 * 2
    # The keys must matter: signed and unsigned differ here, and so do the uppers.
    sums = {key[2:]: value for key, value in shared.sums.items()}
    assert sums[3, 3, False] != sums[3, 3, True]
    assert sums[3, 3, False] != sums[3, 2, False]


def test_sum_memo_does_not_keep_failures():
    tables = PrimeTables()
    for _ in range(2):
        with pytest.raises(NotInvertible):
            central_sum(14, 3, Modulus(7, 2), tables=tables)
        with pytest.raises(CheckError):
            run_check("T2_MAIN", CheckParams(p=7, m=14, force=True), tables)
    assert not tables.sums


def test_records_are_immutable_tuples():
    params = CheckParams(p=7, m=3)
    verdict = run_check("T2_MAIN", params)
    for record, name in ((params, "m"), (verdict, "passed")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert record == tuple(record)
    assert CheckParams._field_defaults == {
        "a": 1,
        "m": None,
        "n": None,
        "A": None,
        "B": None,
        "force": False,
        "budget": checks.DEFAULT_TERM_BUDGET,
    }
    assert CheckParams(p=7) == (7, 1, None, None, None, None, False, 1 << 22)
    assert verdict.params is params and verdict.passed


M_IDS = ("T2_MAIN", "T2_CAT", "BASIC_P", "L3_3", "P4_1A", "P4_1B")


@pytest.mark.parametrize("cid", M_IDS)
def test_forced_m_divisible_by_p_keeps_its_error(cid):
    # The sum side raises first, so no closed form is reached at p | m.
    for p in (3, 5, 7, 13):
        for m in (p, 2 * p, p * p, 7 * p):
            for a in (1, 2):
                with pytest.raises(CheckError) as info:
                    run_check(cid, CheckParams(p=p, a=a, m=m, force=True))
                assert str(info.value) == f"{cid} at p={p}: base {m} is divisible by p = {p}"


def test_t2_closed_forms_match_their_symbols():
    # Each symbol of the T2 closed forms taken straight from jacobi.
    for p in sieve_primes(3, 60):
        for e in (1, 2, 3):
            md, pe, tables = Modulus(p, e), p**e, PrimeTables()
            for m in [*range(-5, 3 * p), p * p - 4, p * p + 4, 2 * p * p - 1]:
                if m % p == 0:
                    continue
                ab = LucasParams(4, m)
                u, _ = lucas_uv_mod(ab, entry_index(ab, p), md)
                j = jacobi(m * (m - 4), p)
                for a in (1, 2):
                    s = central_sum(m, (p**a - 1) // 2, md, tables=tables)
                    pr = CheckParams(p=p, a=a, m=m)
                    want = (j**a + jacobi(-m, p) * j ** (a - 1) * mbar(m, p, e) * u) % pe
                    assert checks._t2_main_rhs(pr, md, PrimeTables()) == want
                    delta = 2 * p * jacobi(-m, p) if a == 1 else 0
                    want = ((4 - m) * pow(2, -1, pe) * s + m * pow(2, -1, pe) - delta) % pe
                    assert checks._t2_cat_rhs(pr, md, tables) == want


def _loop_compare(lhs, rhs, md):
    """The worst (min(v_p(l - r), e), l, r) over the positions, the first
    one at that valuation, or the last pair when every position agrees."""
    n = len(lhs) if isinstance(lhs, list) else len(rhs) if isinstance(rhs, list) else 1
    ls = lhs if isinstance(lhs, list) else [lhs] * n
    rs = rhs if isinstance(rhs, list) else [rhs] * n
    vals = []
    for l, r in zip(ls, rs):
        v, d = 0, l - r
        while v < md.e and d % md.p == 0:
            d //= md.p
            v += 1
        vals.append(v)
    worst = min(vals)
    i = vals.index(worst) if worst < md.e else n - 1
    return worst, ls[i], rs[i]


def test_compare_gives_the_loops_result():
    import random

    rng = random.Random(29)
    for p, e in [(3, 1), (3, 5), (7, 2), (11, 3), (101, 2)]:
        md = Modulus(p, e)
        pe = p**e
        for _ in range(300):
            lhs = rng.randrange(-2 * pe, 2 * pe)
            # Equal mod p^e, equal mod a lower power only, and unrelated.
            v = rng.randrange(e + 1)
            for rhs in (lhs + rng.randrange(-3, 4) * pe, lhs + p**v * rng.randrange(1, p), rng.randrange(pe)):
                assert checks._compare(lhs, rhs, md) == _loop_compare(lhs, rhs, md), (p, e, lhs, rhs)
            side = [rng.choice((lhs, lhs + pe, rng.randrange(pe))) for _ in range(rng.randrange(1, 6))]
            for pair in ((side, lhs), (lhs, side), (side, side[::-1]), (side, list(side))):
                assert checks._compare(*pair, md) == _loop_compare(*pair, md), (p, e, pair)


def _outcome(cid, params, tables):
    """The verdict of ``run_check``, or the type of what it raised."""
    try:
        return run_check(cid, params, tables)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("p", sieve_primes(3, 31))
def test_a_shared_request_store_gives_fresh_verdicts(p):
    # Every id at every (a, m, n, force, budget) through one store per
    # prime, as a scan runs it, against a fresh store per call.  m = None
    # comes first and again after the m rows; a refused request (a SKIP,
    # or m = None at an m-indexed id) comes once per m.  a = 3 stops at
    # p = 13: a fresh store walks (p^3 - 1)/2 terms per call, and p = 17
    # to 31 would add about 50 s to tier-1.
    shared = PrimeTables()
    for a in (1, 2, 3) if p <= 13 else (1, 2):
        for spec in list_checks():
            for n in (None, 0, 5):
                for force in (False, True):
                    for budget in (1, checks.DEFAULT_TERM_BUDGET):
                        for m in (None, 1, 3, 4, p, p + 1, 29, None):
                            params = CheckParams(p, a, m, n, force=force, budget=budget)
                            got = _outcome(spec.id, params, shared)
                            assert got == _outcome(spec.id, params, None), (spec.id, params)

"""An exact oracle for both sides of the checks.

For every one of the 39 ids, both sides are evaluated here from the
formulas in the registry's descriptions, with no ``PrimeTables`` and no
fibmod arithmetic: sums as a ``Fraction`` with ``math.comb`` (the
H_k^(2), 1/k^2 and termwise sums of L2_1, L2_3A, L2_3B, MT_26, MT_27,
AUX_GRANVILLE and AUX_S08 too), Fibonacci, Lucas and u(4, m) numbers
from their integer recurrences, u_n(A, B) by ``exact_lagrange``,
Fibonacci and Fermat quotients by exact division by p, and Legendre
symbols by Euler's criterion.  Both are reduced mod p^e and compared,
as values and not only as a PASS, with ``run_check`` on a fresh store
and (but for the n-indexed CONJ1_1N) with the rows of a scan, whose
store the batch tree (constant bases) or the transform over every m in
1..p-1 (m-indexed ids) seeds.  So a wrong sum that the closed form
happens to share, or a wrong closed form that the sum happens to match,
shows here.
"""

from fractions import Fraction
from math import comb

import pytest

from fibmod.binomsums import PrimeTables
from fibmod.checks import CheckParams, get_check, run_check, run_conj11n_range
from fibmod.modarith import LucasParams, Modulus
from fibmod.scanner import AllSmall, MList, ScanRequest, scan, sieve_primes
from oracles import exact_lagrange, residue

# (p, a) points: odd p <= 41 at a = 1, odd p <= 13 at a = 2, odd p <= 7
# at a = 3 and odd p <= 5 at a = 4.
POINTS = (
    [(p, 1) for p in sieve_primes(3, 41)]
    + [(p, 2) for p in sieve_primes(3, 13)]
    + [(p, 3) for p in sieve_primes(3, 7)]
    + [(p, 4) for p in sieve_primes(3, 5)]
)


def legendre(q: int, p: int) -> int:
    """(q/p) for an odd prime p, by Euler's criterion."""
    r = pow(q % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def fib(n: int) -> int:
    f, g = 0, 1
    for _ in range(n):
        f, g = g, f + g
    return f


def lucas_v(A: int, B: int, n: int) -> int:
    """v_n(A, B): v_0 = 2, v_1 = A, v_{k+1} = A v_k - B v_{k-1}; L_n at (1, -1)."""
    v, w = 2, A
    for _ in range(n):
        v, w = w, A * w - B * v
    return v


def lucas_u(A: int, B: int, n: int) -> int:
    """u_n(A, B) for n >= 1, as the Lagrange sum for u_n."""
    return exact_lagrange(LucasParams(A, B), n - 1)


def quotient(x: int, p: int) -> int:
    """x / p, which must be exact."""
    assert x % p == 0, (x, p)
    return x // p


def central(base: int, upper: int, weight=lambda k: 1, signed: bool = False) -> Fraction:
    """sum_{k<=upper} weight(k) C(2k,k) x^k, x = base if signed else 1/base."""
    x = Fraction(base) if signed else Fraction(1, base)
    return sum((weight(k) * comb(2 * k, k) * x**k for k in range(upper + 1)), Fraction(0))


def _linear(k: int) -> int:
    return k


def _t1_1(p, a):
    q, s = p**a, legendre(p, 5) ** a
    return central(-16, (q - 1) // 2), s * (1 + Fraction(fib(q - s), 2))


def _t1_2(p, a):
    q = p**a
    t = 2 ** (q - 1) - 1
    return central(-32, (q - 1) // 2), legendre(2, p) ** a * (1 + Fraction(t, 6) - Fraction(t * t, 8))


def _pansun(p, a):
    q, s = p**a, legendre(p, 5) ** a
    return central(-1, q - 1, signed=True), s * (1 - 2 * fib(q - s))


def _c1_2(p, a):
    # Both right sides must agree; a passing row shows the last pair, whose
    # rhs is the mod-12 case table's.
    lhs = central(16, (p - 1) // 2, lambda k: Fraction(1, (2 * k - 1) ** 2))
    closed = legendre(-1, p) * Fraction(3 * legendre(p, 3) + 1, 4)
    table = {1: 1, 5: Fraction(-1, 2), 7: -1, 11: Fraction(1, 2)}[p % 12]
    assert residue(closed, p * p) == residue(table, p * p), p
    return lhs, table


def _adamchuk(p, a):
    return sum(comb(2 * k, k) for k in range(1, 2 * p // 3 + 1)), 0


def _williams(p, a):
    harmonic = sum((Fraction((-1) ** k, k) for k in range(1, 4 * p // 5 + 1)), Fraction(0))
    return quotient(fib(p - legendre(p, 5)), p), Fraction(2, 5) * harmonic


def _l2_2a(p, a):
    q = p**a
    t = 2 ** (q - 1) - 1
    rhs = legendre(2, p) ** a * Fraction(2**q + 1, 3 * 2 ** ((q - 1) // 2))
    return 1 + Fraction(t, 6) + Fraction(t * t, 24), rhs


def _l2_2b(p, a):
    q, s = p**a, legendre(p**a, 5)
    return Fraction(lucas_v(1, -1, q) - 1, 5) - s * fib(q) + 1, Fraction(-fib(q - s) ** 2, 2)


def _v_cong_a(p, a, A=1, B=-1):
    return lucas_v(A, B, p), A


def _l3_2(p, a, A=1, B=-1):
    s = legendre(A * A - 4 * B, p)
    b = 1 if s == 1 else Fraction(1, B)
    rhs = Fraction(A, 2) * b * lucas_u(A, B, p - s) + s * Fraction(B ** (p - 1) + 1, 2)
    return lucas_u(A, B, p), rhs


def _l2_1_terms(p, a):
    """L2_1's two termwise lists for k = 0..(p^a-1)/2: binom(n+k, 2k) -
    C(2k,k)/(-16)^k, and (-1)^(k-1) (-1/p^a) binom(p^a-1-2k, n-k) T_k with
    T_k = sum_{0<j<=k} p^(2a)/(2j-1)^2."""
    q = p**a
    n = (q - 1) // 2
    lhs = [comb(n + k, 2 * k) - Fraction(comb(2 * k, k), (-16) ** k) for k in range(n + 1)]
    rhs, tail = [], Fraction(0)
    for k in range(n + 1):
        if k:
            tail += Fraction(q * q, (2 * k - 1) ** 2)
        rhs.append(-((-1) ** k) * legendre(-1, p) ** a * comb(q - 1 - 2 * k, n - k) * tail)
    return lhs, rhs


def _l2_1(p, a):
    """L2_1's pair at k = (p^a-1)/2.  The lemma holds at every k, which is
    asserted here, so a correct row shows the last pair."""
    lhs, rhs = _l2_1_terms(p, a)
    assert [residue(x, p**3) for x in lhs] == [residue(x, p**3) for x in rhs], (p, a)
    return lhs[-1], rhs[-1]


def h2_sum(x: int, p: int) -> Fraction:
    """sum_{k<p} x^k C(2k,k) H_k^(2), H_k^(2) = sum_{0<j<=k} 1/j^2."""
    total, h = Fraction(0), Fraction(0)
    for k in range(p):
        if k:
            h += Fraction(1, k * k)
        total += x**k * comb(2 * k, k) * h
    return total


def over_squares(term, p: int) -> Fraction:
    """sum_{k=1}^{p-1} term(k) / k^2."""
    return sum((Fraction(term(k)) / (k * k) for k in range(1, p)), Fraction(0))


def fib_quotient(p: int) -> int:
    return quotient(fib(p - legendre(p, 5)), p)


def fermat_quotient_2(p: int) -> int:
    return quotient(2 ** (p - 1) - 1, p)


def _l2_3a(p, a):
    return h2_sum(-1, p), legendre(p, 5) * Fraction(5, 2) * fib_quotient(p) ** 2


def _mt_27(p, a):
    u = lambda k: Fraction(2 * (2**k - Fraction(1, 2**k)), 3)  # noqa: E731
    return h2_sum(-2, p), -2 * over_squares(u, p)


# id -> (exponent e, both sides at (p, a) as exact rationals).
SIDES = {
    "T1_1": (3, _t1_1),
    "T1_2": (3, _t1_2),
    "C1_1_8": (2, lambda p, a: (central(8, (p**a - 1) // 2), legendre(2, p) ** a)),
    "C1_1_16": (2, lambda p, a: (central(16, (p**a - 1) // 2), legendre(3, p) ** a)),
    "C1_2": (2, _c1_2),
    "PANSUN": (3, _pansun),
    "ADAMCHUK": (2, _adamchuk),
    "E4_4": (2, lambda p, a: (central(2, p - 1, _linear), p - legendre(-1, p))),
    "E4_5": (2, lambda p, a: (central(3, p - 1, _linear), 2 * p - 2 * legendre(p, 3))),
    "E4_6": (
        2,
        lambda p, a: (
            central(8, (p - 1) // 2, _linear),
            legendre(2, p) * Fraction(1 - legendre(-1, p) * p, 2),
        ),
    ),
    "E4_7": (
        2,
        lambda p, a: (
            central(16, (p - 1) // 2, _linear),
            Fraction(legendre(3, p) - legendre(-1, p) * p, 6),
        ),
    ),
    "CONJ1_2_I": (2, lambda p, a: (central(16, 5 * p**a // 6), legendre(3, p) ** a)),
    "CONJ1_2_II_45": (
        2,
        lambda p, a: (central(-1, 4 * p**a // 5, signed=True), legendre(5, p) ** a),
    ),
    "CONJ1_2_II_35": (
        2,
        lambda p, a: (central(-1, 3 * p**a // 5, signed=True), legendre(5, p) ** a),
    ),
    "CONJ1_2_III_710": (2, lambda p, a: (central(-16, 7 * p**a // 10), legendre(5, p) ** a)),
    "CONJ1_2_III_910": (2, lambda p, a: (central(-16, 9 * p**a // 10), legendre(5, p) ** a)),
    "WILLIAMS": (1, _williams),
    "L2_2A": (3, _l2_2a),
    "L2_2B": (4, _l2_2b),
    "AUX_ST": (2, lambda p, a: (2 * (lucas_v(1, -1, p) - 1), 5 * fib(p - legendre(p, 5)))),
    "AUX_SS": (2, lambda p, a: (lucas_v(1, -1, p - legendre(5, p)), 2 * legendre(p, 5))),
    "V_CONG_A": (1, _v_cong_a),
    "L3_2": (2, _l3_2),
    "MORLEY": (
        3,
        lambda p, a: (comb(p - 1, (p - 1) // 2), (-1) ** ((p - 1) // 2) * 4 ** (p - 1)),
    ),
    "L2_1": (3, _l2_1),
    "L2_3A": (1, _l2_3a),
    "L2_3B": (1, lambda p, a: (h2_sum(-2, p), Fraction(2, 3) * fermat_quotient_2(p) ** 2)),
    "MT_26": (1, lambda p, a: (h2_sum(-1, p), -2 * over_squares(lambda k: fib(2 * k), p))),
    "MT_27": (1, _mt_27),
    "AUX_GRANVILLE": (
        1,
        lambda p, a: (over_squares(lambda k: 2**k, p), -(fermat_quotient_2(p) ** 2)),
    ),
    "AUX_S08": (
        1,
        lambda p, a: (
            over_squares(lambda k: Fraction(1, 2**k), p),
            -Fraction(fermat_quotient_2(p) ** 2, 2),
        ),
    ),
}


def oracle(cid: str, p: int, a: int) -> tuple[int, int, int]:
    """(e, lhs mod p^e, rhs mod p^e) of ``cid`` at (p, a)."""
    e, sides = SIDES[cid]
    lhs, rhs = sides(p, a)
    return e, residue(lhs, p**e), residue(rhs, p**e)


def _in_domain(cid: str, p: int, a: int) -> bool:
    return get_check(cid).domain(CheckParams(p=p, a=a))


@pytest.mark.parametrize("cid", list(SIDES))
def test_run_check_matches_the_oracle(cid):
    seen = 0
    for p, a in POINTS:
        if not _in_domain(cid, p, a):
            continue
        v = run_check(cid, CheckParams(p=p, a=a))
        assert (v.modulus.e, v.lhs, v.rhs) == oracle(cid, p, a), (p, a)
        seen += 1
    assert seen >= 5


@pytest.mark.parametrize("p_max, a_max", [(41, 1), (13, 2), (7, 3), (5, 4)])
def test_scan_rows_match_the_oracle(p_max, a_max):
    rows = scan(ScanRequest(tuple(SIDES), 3, p_max, a_max=a_max)).rows
    assert len(rows) == len(SIDES) * len(sieve_primes(3, p_max)) * a_max
    for row in rows:
        if not _in_domain(row.check_id, row.p, row.a):
            assert row.status == "SKIP", row
            continue
        got = (row.exponent, row.lhs, row.rhs)
        assert got == oracle(row.check_id, row.p, row.a), row


def test_l2_1_terms_match_the_oracle():
    # run_check shows one pair of L2_1's lists; here every term is compared.
    spec = get_check("L2_1")
    for p, a in POINTS:
        pr = CheckParams(p=p, a=a)
        md = Modulus(p, 3)
        want = [[residue(x, p**3) for x in side] for side in _l2_1_terms(p, a)]
        assert [spec.lhs(pr, md, PrimeTables()), spec.rhs(pr, md, PrimeTables())] == want, (p, a)


def test_l2_3a_anomaly_at_3_matches_the_oracle():
    # Forced at p = 3, L2_3A's sides are 1 and 2 mod 3: a FAIL whose values
    # the oracle gives too.
    e, lhs, rhs = oracle("L2_3A", 3, 1)
    assert (e, lhs, rhs) == (1, 1, 2)
    v = run_check("L2_3A", CheckParams(p=3, force=True))
    assert (v.modulus.e, v.lhs, v.rhs, v.passed) == (e, lhs, rhs, False)
    row = scan(ScanRequest(("L2_3A",), 3, 7, force=True)).rows[0]
    assert (row.p, row.exponent, row.lhs, row.rhs, row.status) == (3, e, lhs, rhs, "FAIL")


# The m-indexed ids: odd p <= 23 at a = 1, odd p <= 11 at a = 2, and the
# points at a = 3 and 4 above, at every m in 1..p-1 and at these, some
# past p and some negative.
M_POINTS = (
    [(p, 1) for p in sieve_primes(3, 23)]
    + [(p, 2) for p in sieve_primes(3, 11)]
    + [(p, a) for p, a in POINTS if a >= 3]
)
M_EXTRA = (-16, -5, -1, 4, 25, 29, 30, 100)


def lucas_u4(m: int, n: int) -> int:
    """u_n(4, m): u_0 = 0, u_1 = 1, u_{k+1} = 4 u_k - m u_{k-1}."""
    u, w = 0, 1
    for _ in range(n):
        u, w = w, 4 * w - m * u
    return u


def _t2_main(p, a, m):
    j, s4 = legendre(m * (m - 4), p), legendre(4 - m, p)
    mbar = 1 if s4 == 0 else 2 if s4 == 1 else Fraction(2, m)
    rhs = j**a + legendre(-m, p) * j ** (a - 1) * mbar * lucas_u4(m, p - s4)
    return central(m, (p**a - 1) // 2), rhs


def _t2_cat(p, a, m):
    half = (p**a - 1) // 2
    delta = 2 * p * legendre(-m, p) if a == 1 else 0
    rhs = Fraction(4 - m, 2) * central(m, half) + Fraction(m, 2) - delta
    return central(m, half, lambda k: Fraction(1, k + 1)), rhs


def _l3_3(p, a, m):
    half = (p**a - 1) // 2
    lhs = sum((Fraction(comb(2 * k, k + 1), m**k) for k in range(half + 1)), Fraction(0))
    delta = 2 * p * legendre(-m, p) if a == 1 else 0
    return lhs, Fraction(m - 2, 2) * central(m, half) - Fraction(m, 2) + delta


def _p4_1a(p, a, m):
    half = (p**a - 1) // 2
    lhs = Fraction(m - 4, 2) * central(m, half, _linear)
    return lhs, central(m, half) - p**a * legendre(-m, p) ** a


def _p4_1b(p, a, m):
    full = p**a - 1
    return Fraction(m - 4, 2) * central(m, full, _linear), central(m, full) - p**a


# id -> (exponent e at a, both sides at (p, a, m) as exact rationals).
M_SIDES = {
    "T2_MAIN": (lambda a: 2, _t2_main),
    "T2_CAT": (lambda a: 2, _t2_cat),
    "BASIC_P": (
        lambda a: 1,
        lambda p, a, m: (central(m, (p**a - 1) // 2), legendre(m * (m - 4), p) ** a),
    ),
    "L3_3": (lambda a: 2, _l3_3),
    "P4_1A": (lambda a: a + 1, _p4_1a),
    "P4_1B": (lambda a: a + 1, _p4_1b),
}


def m_oracle(cid: str, p: int, a: int, m: int) -> tuple[int, int, int]:
    """(e, lhs mod p^e, rhs mod p^e) of the m-indexed ``cid`` at (p, a, m)."""
    exponent, sides = M_SIDES[cid]
    e = exponent(a)
    lhs, rhs = sides(p, a, m)
    return e, residue(lhs, p**e), residue(rhs, p**e)


@pytest.mark.parametrize("cid", list(M_SIDES))
def test_m_indexed_run_check_matches_the_oracle(cid):
    seen = 0
    for p, a in M_POINTS:
        for m in [*range(1, p), *M_EXTRA]:
            if m % p == 0:
                continue
            v = run_check(cid, CheckParams(p=p, a=a, m=m))
            assert (v.modulus.e, v.lhs, v.rhs) == m_oracle(cid, p, a, m), (p, a, m)
            seen += 1
    assert seen >= 100


@pytest.mark.parametrize("p_max, a_max", [(23, 1), (11, 2), (7, 3), (5, 4)])
def test_m_indexed_scan_rows_match_the_oracle(p_max, a_max):
    request = ScanRequest(
        tuple(M_SIDES), 3, p_max, a_max=a_max, m_policy=(AllSmall(), MList(M_EXTRA))
    )
    rows = scan(request).rows
    assert {row.m for row in rows if row.p == p_max} == {*range(1, p_max), *M_EXTRA}
    for row in rows:
        if row.m % row.p == 0:
            assert row.status == "SKIP", row
            continue
        got = (row.exponent, row.lhs, row.rhs)
        assert got == m_oracle(row.check_id, row.p, row.a, row.m), row


# (A, B) pairs with delta = A^2 - 4B a square, a non-square and 0 mod
# various p, and B = 0 (outside L3_2's domain, inside V_CONG_A's).
AB = ((1, -1), (2, 1), (3, 1), (2, -1), (5, 2), (-3, 7), (6, -5), (4, 0))


@pytest.mark.parametrize("cid", ["V_CONG_A", "L3_2"])
def test_lucas_ids_match_the_oracle_at_several_ab(cid):
    e, sides = SIDES[cid]
    seen = 0
    for p in sieve_primes(3, 41):
        for A, B in AB:
            params = CheckParams(p=p, A=A, B=B)
            if not get_check(cid).domain(params):
                continue
            v = run_check(cid, params)
            lhs, rhs = sides(p, 1, A, B)
            want = (e, residue(lhs, p**e), residue(rhs, p**e))
            assert (v.modulus.e, v.lhs, v.rhs) == want, (p, A, B)
            seen += 1
    assert seen >= 60


def _conj1_1a(a):
    """(e, lhs, rhs) of CONJ1_1A at p = 3."""
    e = 2 * a + 3
    lhs = central(16, (3**a - 1) // 2)
    return e, residue(lhs, 3**e), residue(9**a * (-1) ** a * 10, 3**e)


def test_conj1_1a_matches_the_oracle():
    for a in range(1, 6):
        v = run_check("CONJ1_1A", CheckParams(p=3, a=a))
        assert (v.modulus.e, v.lhs, v.rhs) == _conj1_1a(a), a
    rows = scan(ScanRequest(("CONJ1_1A",), 3, 7, a_max=5)).rows
    assert [(row.exponent, row.lhs, row.rhs) for row in rows if row.p == 3] == [
        _conj1_1a(a) for a in range(1, 6)
    ]


def v3(x: int) -> int:
    v = 0
    while x % 3 == 0:
        x //= 3
        v += 1
    return v


def _conj1_1n(n):
    """(e, lhs, rhs) of CONJ1_1N at n: e is v_3 of (2n+1)^2 C(2n,n), plus 2."""
    closed = (2 * n + 1) ** 2 * comb(2 * n, n)
    e = v3(closed) + 2
    rhs = closed * (1 if n % 3 == 0 else 4)
    return e, residue(central(16, n), 3**e), residue(rhs, 3**e)


def test_conj1_1n_matches_the_oracle():
    want = [_conj1_1n(n) for n in range(61)]
    for n in range(61):
        v = run_check("CONJ1_1N", CheckParams(p=3, n=n))
        assert (v.modulus.e, v.lhs, v.rhs) == want[n], n
    assert [(v.modulus.e, v.lhs, v.rhs) for v in run_conj11n_range(60)] == want

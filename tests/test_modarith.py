import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmod.checks import BudgetExceeded, CheckError, CheckParams, list_checks, run_check
from fibmod.modarith import BadDenominator, Modulus, is_prime, jacobi
from fibmod.sequences import DomainError
from oracles import padic_normalize

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 101, 9973]


def test_modulus_validation():
    md = Modulus(3, 3)
    assert (md.p, md.e, md.m) == (3, 3, 27)
    with pytest.raises(ValueError):
        Modulus(9, 2)  # composite
    with pytest.raises(ValueError):
        Modulus(2, 5)  # even
    with pytest.raises(ValueError):
        Modulus(4871, 6)  # 4871^6 > 2^62
    with pytest.raises(ValueError):
        Modulus(5, 0)
    # Exponents above 6 are allowed while p^e stays below the bound.
    assert Modulus(3, 17).m == 3**17


def test_modulus_hash_and_repr():
    md = Modulus(7, 3)
    assert hash(md) == hash(Modulus(7, 3))
    assert {md: "x"}[Modulus(7, 3)] == "x"
    assert repr(md) == "Modulus(7^3)"


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_is_prime_refuses_past_its_exact_range():
    # psi_11 passes the first eleven witnesses and fails 37; psi_12 and
    # psi_13 pass all twelve (OEIS A014233), so is_prime cannot decide them.
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461 - 1)  # the last n it decides
    for n in (318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(ValueError, match="exact only below"):
            is_prime(n)


def test_jacobi_examples():
    assert jacobi(2, 7) == 1  # 3^2 = 9 = 2 (mod 7)
    assert jacobi(3, 5) == -1  # squares mod 5 are {1, 4}
    assert jacobi(5, 5) == 0
    assert jacobi(2, 9) == 1  # (2/3)^2
    assert jacobi(123456, 1) == 1  # empty-product convention
    with pytest.raises(BadDenominator):
        jacobi(3, 10)
    with pytest.raises(BadDenominator):
        jacobi(3, -5)


def test_jacobi_matches_euler_criterion():
    for p in ODD_PRIMES:
        for n in range(-30, 30):
            expected = pow(n % p, (p - 1) // 2, p) if n % p else 0
            if expected == p - 1:
                expected = -1
            assert jacobi(n, p) == expected, (n, p)


@settings(max_examples=200)
@given(
    a=st.integers(min_value=-(10**6), max_value=10**6),
    b=st.integers(min_value=-(10**6), max_value=10**6),
    d=st.sampled_from([3, 5, 7, 9, 15, 21, 45, 105, 343, 9973]),
)
def test_jacobi_multiplicative_in_numerator(a, b, d):
    assert jacobi(a * b, d) == jacobi(a, d) * jacobi(b, d)


@settings(max_examples=200)
@given(
    n=st.integers(min_value=-(10**6), max_value=10**6),
    d1=st.sampled_from([3, 5, 7, 9, 15, 343]),
    d2=st.sampled_from([3, 5, 11, 21, 25, 9973]),
)
def test_jacobi_multiplicative_in_denominator(n, d1, d2):
    assert jacobi(n, d1 * d2) == jacobi(n, d1) * jacobi(n, d2)


def test_jacobi_prime_power_convention():
    for p in (3, 5, 7, 11, 13):
        for a in (1, 2, 3, 4):
            for n in range(-20, 20):
                assert jacobi(n, p**a) == jacobi(n, p) ** a


def test_padic_normalize_examples():
    assert padic_normalize(1, Modulus(11, 2)) == (0, 1)
    assert padic_normalize(21, Modulus(7, 2)) == (1, 3)
    assert padic_normalize(252, Modulus(3, 3)) == (2, 1)  # 252 = 9 * 28, 28 = 1 (mod 27)
    with pytest.raises(ValueError):
        padic_normalize(0, Modulus(3, 3))


def test_padic_roundtrip():
    moduli = [Modulus(3, 3), Modulus(7, 2), Modulus(13, 4)]
    rng = random.Random(20250808)
    values = list(range(1, 20001)) + [rng.randrange(1, 10**6) for _ in range(2000)]
    for md in moduli:
        for n in values:
            for signed in (n, -n):
                v, u = padic_normalize(signed, md)
                assert u % md.p != 0
                assert u * md.p**v % md.m == signed % md.m


def test_padic_normalize_is_multiplicative():
    # 10^4 seeded random pairs per modulus.
    rng = random.Random(1234)
    for md in (Modulus(3, 4), Modulus(7, 3)):
        for _ in range(10**4):
            a = rng.randrange(1, 10**7)
            b = rng.randrange(1, 10**7)
            (va, ua), (vb, ub) = padic_normalize(a, md), padic_normalize(b, md)
            assert padic_normalize(a * b, md) == (va + vb, ua * ub % md.m)


def test_residue_arithmetic_is_closed():
    # Every side reaches its verdict as a plain int, reduced into [0, p^e).
    for spec in list_checks():
        for p in (3, 5, 7, 13):
            for a in (1, 2):
                for m, n in [(1, 0), (2, 1), (p + 4, 12)]:
                    params = CheckParams(p=p, a=a, m=m, n=n, force=True)
                    try:
                        v = run_check(spec.id, params)
                    except (CheckError, DomainError, BudgetExceeded):
                        continue
                    assert type(v.lhs) is int and type(v.rhs) is int
                    assert 0 <= v.lhs < v.modulus.m and 0 <= v.rhs < v.modulus.m

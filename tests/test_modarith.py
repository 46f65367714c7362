import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmod.modarith import (
    BadDenominator,
    Modulus,
    NegativeValuation,
    NotInvertible,
    PadicFactored,
    ResidueClass,
    ZeroInput,
    inv_mod,
    is_prime,
    jacobi,
    padic_normalize,
    pow_mod,
)

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


def test_pow_mod_examples():
    assert pow_mod(2, 4, Modulus(5, 3)).value == 16
    assert pow_mod(2, 0, Modulus(7, 3)).value == 1
    assert pow_mod(2, 6, Modulus(7, 3)).value == 64


def test_inv_mod_examples():
    assert inv_mod(1, Modulus(11, 2)).value == 1
    assert inv_mod(8, Modulus(3, 3)).value == 17
    assert 8 * 17 % 27 == 1
    assert inv_mod(16, Modulus(7, 3)).value == 193
    assert 16 * 193 % 343 == 1
    with pytest.raises(NotInvertible):
        inv_mod(7, Modulus(7, 2))


@settings(max_examples=200)
@given(
    x=st.integers(min_value=-(10**9), max_value=10**9),
    pe=st.sampled_from([(3, 3), (7, 2), (13, 4), (101, 1), (9973, 3)]),
)
def test_inverse_property(x, pe):
    p, e = pe
    md = Modulus(p, e)
    if x % p == 0:
        with pytest.raises(NotInvertible):
            inv_mod(x, md)
    else:
        assert inv_mod(x, md).value * x % md.m == 1


def test_euler_theorem():
    for p, e in [(3, 4), (7, 3), (31, 2), (9973, 1)]:
        md = Modulus(p, e)
        order = p ** (e - 1) * (p - 1)
        for x in (2, 5, 12, 1234567):
            if x % p:
                assert pow_mod(x, order, md).value == 1


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
    assert padic_normalize(1, Modulus(11, 2)) == PadicFactored(Modulus(11, 2), 0, 1)
    got = padic_normalize(21, Modulus(7, 2))
    assert (got.valuation, got.unit) == (1, 3)
    got = padic_normalize(252, Modulus(3, 3))
    assert (got.valuation, got.unit) == (2, 1)  # 252 = 9 * 28, 28 = 1 (mod 27)
    with pytest.raises(ZeroInput):
        padic_normalize(0, Modulus(3, 3))


def test_padic_roundtrip():
    moduli = [Modulus(3, 3), Modulus(7, 2), Modulus(13, 4)]
    rng = random.Random(20250808)
    values = list(range(1, 20001)) + [rng.randrange(1, 10**6) for _ in range(2000)]
    for md in moduli:
        for n in values:
            for signed in (n, -n):
                assert padic_normalize(signed, md).to_residue().value == signed % md.m


def test_padic_normalize_is_multiplicative():
    # 10^4 seeded random pairs per modulus.
    rng = random.Random(1234)
    for md in (Modulus(3, 4), Modulus(7, 3)):
        for _ in range(10**4):
            a = rng.randrange(1, 10**7)
            b = rng.randrange(1, 10**7)
            lhs = padic_normalize(a * b, md)
            rhs = padic_normalize(a, md) * padic_normalize(b, md)
            assert lhs == rhs


def test_padic_mul_div_examples():
    md = Modulus(7, 2)
    prod = PadicFactored(md, 1, 3) * PadicFactored(md, 1, 3)
    assert (prod.valuation, prod.unit) == (2, 9)
    md = Modulus(3, 3)
    quot = PadicFactored(md, 2, 1) / PadicFactored(md, 1, 5)
    assert (quot.valuation, quot.unit) == (1, 11)  # 5 * 11 = 55 = 1 (mod 27)
    with pytest.raises(NegativeValuation):
        PadicFactored(md, 0, 2) / PadicFactored(md, 1, 1)


def test_padic_unit_must_be_coprime():
    with pytest.raises(ValueError):
        PadicFactored(Modulus(3, 3), 0, 6)


def test_padic_to_residue_saturates_at_exponent():
    md = Modulus(5, 2)
    assert PadicFactored(md, 2, 1).to_residue().value == 0
    assert PadicFactored(md, 1, 3).to_residue().value == 15


@settings(max_examples=200)
@given(
    x=st.integers(min_value=-(10**9), max_value=10**9),
    y=st.integers(min_value=-(10**9), max_value=10**9),
)
def test_residue_arithmetic_is_closed(x, y):
    md = Modulus(13, 3)
    a, b = ResidueClass(md, x), ResidueClass(md, y)
    for r in (a + b, a - b, a * b, -a, a + 5, 3 * b, 2 - a):
        assert 0 <= r.value < md.m
    assert (a + b).value == (x + y) % md.m
    assert (a * b).value == (x * y) % md.m


def test_residue_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        ResidueClass(Modulus(3, 2), 1) + ResidueClass(Modulus(5, 2), 1)

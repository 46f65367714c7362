import random
from fractions import Fraction
from math import comb

import pytest

from fibmod.binomsums import (
    _RATIOS,
    PrimeTables,
    WeightDomain,
    WeightKind,
    _h2_prefix,
    _inv_table,
    _residues_from_vu,
    _walk,
    alternating_harmonic,
    central_binomial_stream,
    central_sum,
    power_over_square_sum,
)
from fibmod.checks import CheckParams, HarmonicSide, _floor_of
from fibmod.modarith import LucasParams, Modulus, NegativeValuation, NotInvertible
from oracles import exact_identity_41, exact_lagrange, padic_normalize, weight_of


def test_stream_examples():
    md = Modulus(5, 3)
    assert next(central_binomial_stream(md, 0)) == (0, 1)
    assert list(central_binomial_stream(md, 3))[3] == (1, 4)  # C(6,3) = 20 = 5 * 4
    md = Modulus(3, 3)
    assert list(central_binomial_stream(md, 5))[5] == (2, 1)  # C(10,5) = 252 = 9 * 28


def test_stream_matches_exact_binomials():
    for p in (3, 5, 7, 13):
        for e in (1, 2, 3, 4):
            md = Modulus(p, e)
            for k, term in enumerate(central_binomial_stream(md, 500)):
                assert term == padic_normalize(comb(2 * k, k), md), (p, e, k)


def test_vanishing_tail():
    # Every C(2k,k) with (p^a+1)/2 <= k < p^a is divisible by p.
    for p, a in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (13, 1)]:
        pa = p**a
        md = Modulus(p, 2)
        terms = list(central_binomial_stream(md, pa - 1))
        for k in range((pa + 1) // 2, pa):
            assert terms[k][0] >= 1, (p, a, k)


def test_central_sum_examples():
    got = central_sum(-16, 1, Modulus(3, 3))
    assert got == 11  # 1 - 2/16 = 1 - 2*17 (mod 27)
    got = central_sum(8, 2, Modulus(5, 2))
    assert got == 24
    got = central_sum(123456, 0, Modulus(7, 2))
    assert got == 1  # single term, base never inverted
    got = central_sum(7, 0, Modulus(7, 2))
    assert got == 1  # even a base divisible by p
    got = central_sum(16, 1, Modulus(3, 2), WeightKind.CATALAN)
    assert got == 5  # 1 + inv(16) = 1 + 4 (mod 9)
    got = central_sum(16, 2, Modulus(5, 2), WeightKind.INV_2KM1_SQ)
    assert got == 12
    got = central_sum(2, 4, Modulus(5, 2), WeightKind.LINEAR_K)
    assert got == 4  # exact sum 29 = 4 (mod 25)


def test_central_sum_brute_force():
    # Against exact rational arithmetic cleared by base^upper.
    rng = random.Random(7)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11, 13])
        e = rng.choice([1, 2, 3])
        md = Modulus(p, e)
        upper = rng.randrange(0, 40)
        base = rng.choice([m for m in range(-20, 21) if m and m % p])
        exact = sum(comb(2 * k, k) * base ** (upper - k) for k in range(upper + 1))
        expected = exact * pow(pow(base, upper, md.m), -1, md.m) % md.m
        got = central_sum(base, upper, md)
        assert got == expected, (p, e, upper, base)


def test_catalan_weight_handles_p_dividing_k_plus_1():
    # k + 1 a multiple of p exercises the factored division.
    for p in (3, 5):
        md = Modulus(p, 2)
        upper = 3 * p
        exact = sum(comb(2 * k, k) // (k + 1) * 2 ** (upper - k) for k in range(upper + 1))
        expected = exact * pow(pow(2, upper, md.m), -1, md.m) % md.m
        got = central_sum(2, upper, md, WeightKind.CATALAN)
        assert got == expected


def test_central_sum_errors():
    with pytest.raises(NotInvertible):
        central_sum(10, 3, Modulus(5, 2))
    with pytest.raises(WeightDomain):
        central_sum(16, 6, Modulus(7, 2), WeightKind.INV_2KM1_SQ)
    with pytest.raises(WeightDomain):
        central_sum(16, 7, Modulus(7, 1), WeightKind.H2)
    for signed in (False, True):
        with pytest.raises(ValueError, match="nonnegative"):
            central_sum(3, -1, Modulus(7, 2), signed=signed)


def test_signed_sum_examples():
    got = central_sum(-1, 2, Modulus(3, 3), signed=True)
    assert got == 5  # 1 - 2 + 6
    got = central_sum(-1, 2, Modulus(3, 1), WeightKind.H2, signed=True)
    assert got == 1  # 0 - 2*1 + 6*H_2 = -2 (mod 3)
    got = central_sum(-2, 4, Modulus(5, 1), WeightKind.H2, signed=True)
    assert got == 1  # matches (2/3) q_5(2)^2 = 4 * 4 = 1 (mod 5)


def test_signed_sum_accepts_base_divisible_by_p():
    got = central_sum(5, 4, Modulus(5, 2), signed=True)
    exact = sum(comb(2 * k, k) * 5**k for k in range(5))
    assert got == exact % 25


def test_alternating_harmonic():
    assert alternating_harmonic(2, Modulus(3, 1)) == 1  # -1 + inv(2)
    assert alternating_harmonic(5, Modulus(7, 1)) == 4
    assert alternating_harmonic(0, Modulus(11, 2)) == 0
    assert type(alternating_harmonic(5, Modulus(7, 1))) is int
    with pytest.raises(NotInvertible):
        alternating_harmonic(7, Modulus(7, 1))


def test_alternating_harmonic_refuses_a_negative_bound():
    for bound in (-1, -3):
        with pytest.raises(ValueError):
            alternating_harmonic(bound, Modulus(7, 1))
        with pytest.raises(ValueError):
            alternating_harmonic(bound, Modulus(7, 1), PrimeTables())
        # The batch leaves a negative bound to the side's own call, which raises.
        side = HarmonicSide(lambda pr: bound, 1, 1)
        assert side.batch([(11, 5, 1), (7, bound, 1)])[1] is None
        with pytest.raises(ValueError):
            side(CheckParams(7), Modulus(7, 1), PrimeTables())


def test_inv_table_refuses_n_at_or_past_p():
    # The table stops at p - 1: 1/7 has no inverse mod 49.
    with pytest.raises(ValueError):
        _inv_table(7, 49, 7, PrimeTables())


def test_power_over_square_sum():
    assert power_over_square_sum(2, 1, Modulus(3, 1)) == 0
    assert power_over_square_sum(1, 1, Modulus(5, 1)) == 0
    # Fermat-quotient square relation at p = 7:
    # sum 2^k/k^2 = -q_7(2)^2 = -4 = 3 (mod 7).
    assert power_over_square_sum(2, 1, Modulus(7, 1)) == 3
    assert type(power_over_square_sum(2, 1, Modulus(7, 1))) is int
    with pytest.raises(NotInvertible):
        power_over_square_sum(1, 7, Modulus(7, 1))


def test_h2_prefix_vanishes_at_p_minus_1():
    from fibmod.scanner import sieve_primes

    for p in sieve_primes(5, 500):
        md = Modulus(p, 1)
        table = _h2_prefix(md, p - 1, PrimeTables())
        assert table[p - 1] == 0, p


def test_exact_lagrange_examples():
    assert exact_lagrange(LucasParams(1, -1), 9) == 55  # F_10
    assert exact_lagrange(LucasParams(2, 1), 4) == 5  # u_5(2,1)
    assert exact_lagrange(LucasParams(-7, 10), 0) == 1  # u_1


def test_exact_lagrange_matches_recurrence_sample():
    rng = random.Random(11)
    for _ in range(40):
        A = rng.randrange(-10, 11)
        B = rng.randrange(-10, 11)
        u0, u1 = 0, 1
        for n in range(60):
            assert exact_lagrange(LucasParams(A, B), n) == u1, (A, B, n)
            u0, u1 = u1, A * u1 - B * u0


def test_exact_identity_41():
    assert exact_identity_41(2, 1) == (12, 12)
    assert exact_identity_41(16, 1) == (12, 12)
    assert exact_identity_41(-9, 0) == (2, 2)
    for m in (-5, -1, 1, 2, 7, 16):
        for n in range(0, 25):
            lhs, rhs = exact_identity_41(m, n)
            assert lhs == rhs, (m, n)
    with pytest.raises(ValueError):
        exact_identity_41(0, 3)


def test_binomial_reduction_mod_p():
    # C(2k,k)/(-4)^k = binom((p^a-1)/2, k) (mod p) for k up to (p^a-1)/2.
    from fibmod.scanner import sieve_primes

    for p in sieve_primes(3, 50):
        for a in (1, 2):
            n = (p**a - 1) // 2
            md = Modulus(p, 1)
            inv4 = pow(-4 % p, -1, p)
            x = 1
            for k, (v, u) in enumerate(central_binomial_stream(md, n)):
                assert (u if v == 0 else 0) * x % p == comb(n, k) % p, (p, a, k)
                x = x * inv4 % p


def test_floor_of_is_exact_integer_division():
    assert _floor_of(5, 6)(CheckParams(7, 2)) == 40
    assert _floor_of(4, 5)(CheckParams(11, 2)) == 96
    assert _floor_of(9, 10)(CheckParams(3, 3)) == 24
    for num, den in ((5, 6), (4, 5), (3, 5), (7, 10), (9, 10)):
        for p in (3, 5, 7, 11, 13, 101, 9973):
            for a in (1, 2, 3):
                assert _floor_of(num, den)(CheckParams(p, a)) == (num * p**a) // den


def _walked_term(kind: WeightKind):
    """The term ``kind`` walks, as an exact function of k, beside its ratio in _RATIOS."""
    return lambda k: weight_of(kind, k) * comb(2 * k, k)


def _fraction_vu(t: Fraction, md: Modulus) -> tuple[int, int]:
    """(valuation, unit mod p^e) of a nonzero fraction."""
    (vn, un), (vd, ud) = (padic_normalize(x, md) for x in (t.numerator, t.denominator))
    return vn - vd, un * pow(ud, -1, md.m) % md.m


def _assert_walk_is_exact(md, ratio, k_lo, k_hi, vu, term):
    """The walk from (v, u) at k_lo - 1 gives term(k) for k_lo..k_hi, and
    raises NegativeValuation exactly at the first term that is not p-integral."""
    want = [_fraction_vu(term(k), md) for k in range(k_lo, k_hi + 1)]
    got = []
    try:
        for v, us in _walk(md, ratio, k_lo, k_hi, *vu):
            got.extend((v, u) for u in us)
    except NegativeValuation:
        assert want[len(got)][0] < 0, (md, k_lo + len(got))
    else:
        assert len(got) == len(want)
    assert got == want[: len(got)], md


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_walk_matches_exact_terms(p, e):
    # Past 2p + 3 the runs cross multiples of p and the denominators pass p.
    md = Modulus(p, e)
    for weight, (head, ratio) in _RATIOS.items():
        term = _walked_term(weight)
        assert [term(k) for k in range(len(head))] == list(head)
        _assert_walk_is_exact(md, ratio, len(head), 2 * p + 3, (0, head[-1]), term)
    # L2_1's binom(n+k, 2k), n = (p^a-1)/2, to n >= 2p + 3.
    n = next(n for n in ((p**a - 1) // 2 for a in range(2, 5)) if n >= 2 * p + 3)
    ratio = (((1, n), (-1, n + 1)), ((2, 0), (2, -1)))
    _assert_walk_is_exact(md, ratio, 1, n, (0, 1), lambda k: Fraction(comb(n + k, 2 * k)))


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_walk_resumed_from_a_stored_end_matches_exact_terms(p, e):
    md = Modulus(p, e)
    for weight, (head, ratio) in _RATIOS.items():
        tables = PrimeTables()
        # The 1/(2k-1)^2 table stops at (p-1)/2; the others resume past p.
        upto = (p - 1) // 2 if weight is WeightKind.INV_2KM1_SQ else p + 1
        _residues_from_vu(md, upto, tables, weight)
        vu = tables.walk_ends[weight, md.m]
        assert vu == _fraction_vu(_walked_term(weight)(upto), md)
        _assert_walk_is_exact(md, ratio, upto + 1, 2 * p + 3, vu, _walked_term(weight))


@pytest.mark.parametrize("weight", [WeightKind.NONE, WeightKind.INV_2KM1_SQ])
def test_a_walked_table_builds_no_inverse_table(weight):
    tables = PrimeTables()
    for p in (3, 13, 101):
        _residues_from_vu(Modulus(p, 2), (p - 1) // 2, tables, weight)
    assert tables and not any(kind == "inv" for kind, _ in tables)

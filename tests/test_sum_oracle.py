"""Every weighted sum against an exact oracle that shares no tables.

The oracle sums weight(k) C(2k,k) x^k as a ``Fraction`` with
``math.comb`` and reduces the result mod p^e only at the end.  Inside
each weight's domain every denominator is a unit mod p: Catalan numbers
are integers, 2k - 1 <= p - 2 for the 1/(2k-1)^2 weight, and j <= p - 1
for H_k^(2).
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmod.binomsums import PrimeTables, WeightKind, _residues_from_vu, _sum_with_power, central_sum
from fibmod.modarith import Modulus, NotInvertible
from oracles import residue, weight_of

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _max_upper(kind: WeightKind, p: int) -> int:
    """The largest upper bound in the weight's domain; 3p where it has none."""
    if kind in (WeightKind.NONE, WeightKind.CATALAN, WeightKind.LINEAR_K):
        return 3 * p
    if kind is WeightKind.INV_2KM1_SQ:
        return (p - 1) // 2
    return p - 1


def oracle(kind: WeightKind, x: Fraction, upper: int, md: Modulus) -> int:
    total = sum(
        (weight_of(kind, k) * comb(2 * k, k) * x**k for k in range(upper + 1)),
        Fraction(0),
    )
    assert total.denominator % md.p, "oracle denominator must be a unit"
    return residue(total, md.m)


@st.composite
def sum_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    e = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(list(WeightKind)))
    upper = draw(st.integers(0, _max_upper(kind, p)))
    return Modulus(p, e), kind, upper


@settings(max_examples=300, deadline=None)
@given(sum_cases(), st.integers(-60, 60))
def test_central_sum_matches_oracle(case, base):
    md, kind, upper = case
    if upper > 0 and base % md.p == 0:
        with pytest.raises(NotInvertible):
            central_sum(base, upper, md, kind)
        return
    x = Fraction(1, base) if upper > 0 else Fraction(1)
    assert central_sum(base, upper, md, kind) == oracle(kind, x, upper, md)


@settings(max_examples=300, deadline=None)
@given(sum_cases(), st.integers(-60, 60), st.booleans())
def test_signed_sum_matches_oracle(case, s, multiple_of_p):
    md, kind, upper = case
    if multiple_of_p:
        s *= md.p  # s = 0 (mod p): no inversion is ever needed
    got = central_sum(s, upper, md, kind, signed=True)
    assert got == oracle(kind, Fraction(s), upper, md)


@settings(max_examples=100, deadline=None)
@given(
    sum_cases(),
    st.integers(-60, 60).filter(lambda b: b != 0),
    st.lists(st.integers(0, 1 << 16), min_size=1, max_size=6),
)
def test_a_shared_prime_tables_store_matches_a_fresh_one(case, base, fractions):
    # A cached table built for a long sum must be sliced, not reused
    # whole, by a shorter sum; so feed bounds long-to-short, then back.
    md, kind, top = case
    if base % md.p == 0:
        base += 1
    uppers = sorted({top * f >> 16 for f in fractions} | {top}, reverse=True)
    cache = PrimeTables()
    for upper in uppers + uppers[::-1]:
        shared = central_sum(base, upper, md, kind, tables=cache)
        assert shared == central_sum(base, upper, md, kind, tables=PrimeTables())
        shared = central_sum(base, upper, md, kind, signed=True, tables=cache)
        assert shared == central_sum(base, upper, md, kind, signed=True, tables=PrimeTables())


def _uppers_at_one(kind: WeightKind, p: int) -> list[int]:
    """0, p - 1, floor(2p/3), the uppers (p^2-1)/2 and floor(2p^2/3) of a
    = 2, and (p-1)/2, each where the weight's domain allows."""
    uppers = {0, (p - 1) // 2, p - 1, 2 * p // 3, (p * p - 1) // 2, 2 * p * p // 3}
    if kind is WeightKind.INV_2KM1_SQ:
        return sorted(u for u in uppers if u <= (p - 1) // 2)
    if kind is WeightKind.H2:
        return sorted(u for u in uppers if u <= p - 1)
    return sorted(uppers)


def test_sum_at_one_matches_horner_and_the_oracle():
    # At x = 1 the kernel adds the table's terms instead of running
    # Horner's rule.  Bases 1 (signed and unsigned) and 1 + p^e all reduce
    # to x = 1; a store walked to the largest upper first must still be
    # read only to each upper.
    for p in PRIMES + [41]:
        for kind in WeightKind:
            uppers = _uppers_at_one(kind, p)
            exact, total = {}, Fraction(0)
            for k in range(uppers[-1] + 1):
                total += weight_of(kind, k) * comb(2 * k, k)
                if k in uppers:
                    exact[k] = total
            for e in (1, 2, 3):
                md = Modulus(p, e)
                pe = md.m
                walked = PrimeTables()
                _residues_from_vu(md, uppers[-1], walked, kind)
                for upper in uppers:
                    want = residue(exact[upper], pe)
                    terms = _residues_from_vu(md, upper, PrimeTables(), kind)[: upper + 1]
                    horner, x = 0, 1
                    for t in reversed(terms):
                        horner = (horner * x + t) % pe
                    assert horner == want, (p, e, kind, upper)
                    for tables in (PrimeTables(), walked):
                        assert _sum_with_power(1, upper, md, kind, tables) == want, (p, e, kind, upper)
                    for base, signed in ((1, True), (1, False), (1 + pe, True), (1 + pe, False)):
                        for tables in (PrimeTables(), walked):
                            got = central_sum(base, upper, md, kind, signed=signed, tables=tables)
                            assert got == want, (p, e, kind, upper, base, signed)

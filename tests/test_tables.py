"""The weighted C(2k,k) residue tables and their (v, u) stream against
exact oracles.

Every table but H2's, the factored stream and L2_1's binomial come from
one segment walk in ``binomsums``; these tests compare each with
``math.comb`` and ``Fraction`` values computed from scratch.  Upper
bounds reach p^3 for p <= 7 where the weight allows it, so they cross
many multiples of p: the valuation dips at p | k, the runs where v >= e
and the table is zero, and the units past k >= p.  The 1/(2k-1)^2 weight
stops at (p-1)/2, its domain.
"""

from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmod.binomsums import (
    _RATIOS,
    PrimeTables,
    WeightKind,
    _cb_vu,
    _residues_from_vu,
    alternating_harmonic,
    central_binomial_stream,
)
from fibmod.checks import CheckParams, _l2_1_lhs
from fibmod.modarith import Modulus
from oracles import padic_normalize, residue, weight_of

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
WALKED = (
    WeightKind.NONE,
    WeightKind.CATALAN,
    WeightKind.LINEAR_K,
    WeightKind.INV_2KM1_SQ,
)


def _max_upper(p: int, weight: WeightKind = WeightKind.NONE) -> int:
    if weight is WeightKind.INV_2KM1_SQ:
        return (p - 1) // 2
    return p**3 if p <= 7 else 4 * p


@cache
def _exact(p: int, weight: WeightKind) -> tuple[Fraction, ...]:
    """weight(k) C(2k,k) for k up to the weight's bound at p."""
    return tuple(weight_of(weight, k) * comb(2 * k, k) for k in range(_max_upper(p, weight) + 1))


def _residues(p: int, pe: int, upper: int, weight: WeightKind) -> list[int]:
    return [residue(t, pe) for t in _exact(p, weight)[: min(upper, _max_upper(p, weight)) + 1]]


def _factored(md: Modulus, upper: int) -> list[tuple[int, int]]:
    return [padic_normalize(int(t), md) for t in _exact(md.p, WeightKind.NONE)[: upper + 1]]


@st.composite
def prime_and_bound(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(st.integers(1, 4)), draw(st.integers(0, _max_upper(p)))


@settings(max_examples=80, deadline=None)
@given(prime_and_bound())
def test_tables_in_one_call(case):
    p, e, upper = case
    md = Modulus(p, e)
    for weight in WALKED:
        bound = min(upper, _max_upper(p, weight))
        got = _residues_from_vu(md, bound, PrimeTables(), weight)
        # LINEAR_K's table starts with both head terms, even at bound 0.
        want = max(bound, len(_RATIOS[weight][0]) - 1)
        assert got == _residues(p, md.m, want, weight), (p, e, bound, weight)
    want = _factored(md, upper)
    assert _cb_vu(md, upper) == want
    assert list(central_binomial_stream(md, upper)) == want


@st.composite
def prime_and_pieces(draw):
    """A prime and growing bounds, each at its own exponent."""
    p = draw(st.sampled_from(PRIMES))
    pieces = draw(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, _max_upper(p))),
            min_size=2,
            max_size=6,
        )
    )
    return p, sorted(pieces, key=lambda piece: piece[1])


@settings(max_examples=80, deadline=None)
@given(prime_and_pieces())
def test_tables_extended_through_one_prime_tables_store(case):
    p, pieces = case
    shared = PrimeTables()
    for e, upper in pieces:
        md = Modulus(p, e)
        for weight in WALKED:
            bound = min(upper, _max_upper(p, weight))
            got = _residues_from_vu(md, bound, shared, weight)
            assert got[: bound + 1] == _residues(p, md.m, bound, weight), (p, pieces, weight)
        assert _cb_vu(md, upper) == _factored(md, upper)
    # After every extension the tables equal ones built in a single call.
    for e, upper in pieces:
        md = Modulus(p, e)
        for weight in WALKED:
            table = _residues_from_vu(md, min(upper, _max_upper(p, weight)), shared, weight)
            assert table == _residues_from_vu(md, len(table) - 1, PrimeTables(), weight)


@st.composite
def prime_and_harmonic_bound(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(st.integers(1, 4)), draw(st.integers(0, p - 1))


@settings(max_examples=80, deadline=None)
@given(prime_and_harmonic_bound())
def test_alternating_harmonic(case):
    p, e, bound = case
    md = Modulus(p, e)
    exact = sum((Fraction((-1) ** k, k) for k in range(1, bound + 1)), Fraction(0))
    want = residue(exact, md.m)
    assert alternating_harmonic(bound, md) == want


@pytest.mark.parametrize("a", [1, 2])
@pytest.mark.parametrize("p", PRIMES)
def test_l2_1_lhs_walks_its_binomial(p, a):
    md = Modulus(p, 3)
    n = (p**a - 1) // 2
    want = [
        residue(comb(n + k, 2 * k) - Fraction(comb(2 * k, k), (-16) ** k), md.m) for k in range(n + 1)
    ]
    assert _l2_1_lhs(CheckParams(p=p, a=a), md, PrimeTables()) == want

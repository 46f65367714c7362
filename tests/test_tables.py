"""The C(2k,k) residue tables and their (v, u) stream against exact oracles.

The plain and Catalan tables and the factored stream all come from one
segment walk in ``binomsums``; these tests compare each with
``math.comb`` and ``Fraction`` values computed from scratch.  Upper
bounds reach p^3 for p <= 7, so they cross many multiples of p: the
valuation dips at p | k, the runs where v >= e and the table is zero,
and the units past k >= p.
"""

from fractions import Fraction
from functools import cache
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from fibmod.binomsums import (
    PrimeTables,
    WeightKind,
    _cb_vu,
    _residues_from_vu,
    alternating_harmonic,
    central_binomial_stream,
)
from fibmod.modarith import Modulus

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
WALKED = (WeightKind.NONE, WeightKind.CATALAN)


def _max_upper(p: int) -> int:
    return p**3 if p <= 7 else 4 * p


@cache
def _exact(p: int, weight: WeightKind) -> tuple[int, ...]:
    """C(2k,k), or the Catalan number C(2k,k)/(k+1), for k up to the bound."""
    out = []
    for k in range(_max_upper(p) + 1):
        term = Fraction(comb(2 * k, k), k + 1 if weight is WeightKind.CATALAN else 1)
        assert term.denominator == 1
        out.append(term.numerator)
    return tuple(out)


def _residues(p: int, pe: int, upper: int, weight: WeightKind) -> list[int]:
    return [t % pe for t in _exact(p, weight)[: upper + 1]]


def _factored(p: int, pe: int, upper: int) -> list[tuple[int, int]]:
    out = []
    for t in _exact(p, WeightKind.NONE)[: upper + 1]:
        v = 0
        while t % p == 0:
            t //= p
            v += 1
        out.append((v, t % pe))
    return out


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
        got = _residues_from_vu(md, upper, PrimeTables(), weight)
        assert got == _residues(p, md.m, upper, weight), (p, e, upper, weight)
    want = _factored(p, md.m, upper)
    assert _cb_vu(md, upper, PrimeTables()) == want
    assert [(t.valuation, t.unit) for t in central_binomial_stream(md, upper)] == want


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
def test_tables_extended_through_one_cache(case):
    p, pieces = case
    shared = PrimeTables()
    for e, upper in pieces:
        md = Modulus(p, e)
        for weight in WALKED:
            got = _residues_from_vu(md, upper, shared, weight)
            assert got[: upper + 1] == _residues(p, md.m, upper, weight), (p, pieces, weight)
        assert _cb_vu(md, upper, shared) == _factored(p, md.m, upper)
    # After every extension the tables equal ones built in a single call.
    for e, upper in pieces:
        md = Modulus(p, e)
        for weight in WALKED:
            table = _residues_from_vu(md, upper, shared, weight)
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
    want = exact.numerator * pow(exact.denominator, -1, md.m) % md.m
    assert alternating_harmonic(bound, md) == want

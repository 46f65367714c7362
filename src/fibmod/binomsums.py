"""Finite sums of central binomial and Catalan terms modulo prime powers.

The workhorse is a segment walk over a hypergeometric term t_k =
p^v * unit whose ratio t_k / t_{k-1} is a product of linear factors
a*k + b over another, such as (4k-2)/k for C(2k,k).  The ratio is a
p-adic unit except where p divides a factor, so between those indices
the valuation is fixed and a run of units is one comprehension; only
the special indices strip p-parts.  Every term is exact even past
k = p/2, where the binomials pick up positive p-valuation.  Each weight
but H2 is walked as its own term weight(k) C(2k,k) into a table of
residues in a ``PrimeTables`` store, which every sum at that prime
shares, and a sum runs Horner's rule over a prefix of it; the base
costs one inversion total, and the store keeps the sum for any other
check at that prime that asks for it.

Two identities are also provided in exact arbitrary-precision form, as
independent oracles for the modular machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb, prod
from typing import Iterator

from .modarith import (
    LucasParams,
    Modulus,
    NegativeValuation,
    NotInvertible,
    PadicFactored,
    ResidueClass,
    ZeroInput,
)


class WeightDomain(Exception):
    """The requested weight is undefined on the requested summation range."""


class WeightKind(Enum):
    """Per-term weights appearing in the checked congruences.

    NONE -> 1; CATALAN -> 1/(k+1); LINEAR_K -> k; INV_2KM1 -> 1/(2k-1);
    INV_2KM1_SQ -> 1/(2k-1)^2; H2 -> H_k^(2) = sum_{0<j<=k} 1/j^2.
    """

    NONE = "none"
    CATALAN = "catalan"
    LINEAR_K = "linear_k"
    INV_2KM1 = "inv_2km1"
    INV_2KM1_SQ = "inv_2km1_sq"
    H2 = "h2"


@dataclass(frozen=True)
class SumSpec:
    """A weighted sum  sum_{k=0}^{upper} weight(k) C(2k,k) / base^k  mod p^e."""

    base: int
    upper: int
    weight: WeightKind
    modulus: Modulus

    def __post_init__(self) -> None:
        if self.upper < 0:
            raise ValueError("upper bound must be nonnegative")


# ---------------------------------------------------------------------------
# Internal tables.
# ---------------------------------------------------------------------------


class PrimeTables(dict):
    """Every residue table shared by the sums at one prime.

    Each item maps ``(kind, p^e)`` to a list that only grows: ``kind`` is
    a ``WeightKind`` for the tables of weight(k) C(2k,k), ``"inv"`` for
    the inverses of 1..n and ``"h2"`` for the H_k^(2) prefix.  A prime
    power fixes its prime, so one store may also serve several primes.
    ``walk_ends`` keeps the walk's (v, unit) at the end of each walked
    table, so a longer request resumes the walk there.  ``sums`` keeps
    each finished sum under (weight, p^e, base as given, upper, signed),
    so checks at one prime that share a sum compute it once.
    """

    def __init__(self) -> None:
        super().__init__()
        self.walk_ends: dict[tuple[WeightKind, int], tuple[int, int]] = {}
        self.sums: dict[tuple[WeightKind, int, int, int, bool], int] = {}

    def table(self, kind, pe: int, head: tuple[int, ...] = ()) -> list[int]:
        """The table of ``kind`` mod ``pe``, started with ``head`` when new."""
        return self.setdefault((kind, pe), list(head))


def _inv_table(p: int, pe: int, n: int, tables: PrimeTables) -> list[int]:
    """Inverses of 1..n mod pe, n < p.

    Uses inv[i] = -(pe // i) * inv[pe mod i]: for 1 < i < p the remainder
    pe mod i is nonzero and smaller than i, so the recurrence is well
    founded and every entry is a unit.
    """
    if n >= p:
        raise ValueError("inverse table only covers arguments below p")
    tab = tables.table("inv", pe, (0, 1 % pe))
    for i in range(len(tab), n + 1):
        tab.append(-(pe // i) * tab[pe % i] % pe)
    return tab


# Each walked term t_k = weight(k) C(2k,k): its head terms t_0.., then the ratio
# t_k / t_{k-1} as the linear factors (a, b) = a*k + b of numerator and denominator.
_RATIOS = {
    WeightKind.NONE: ((1,), (((4, -2),), ((1, 0),))),  # (4k-2)/k
    WeightKind.CATALAN: ((1,), (((4, -2),), ((1, 1),))),  # (4k-2)/(k+1)
    WeightKind.LINEAR_K: ((0, 2), (((4, -2),), ((1, -1),))),  # (4k-2)/(k-1)
    WeightKind.INV_2KM1: ((-1,), (((4, -6),), ((1, 0),))),  # (4k-6)/k
    # (4k-6)(2k-3) / (k(2k-1))
    WeightKind.INV_2KM1_SQ: ((1,), (((4, -6), (2, -3)), ((1, 0), (2, -1)))),
}


def _walk(
    modulus: Modulus, ratio: tuple, k_lo: int, k_hi: int, v: int, u: int, tables: PrimeTables
) -> Iterator[tuple[int, list[int]]]:
    """Runs (v, units) of a hypergeometric term t_k = p^v * unit for k_lo..k_hi.

    Each term is the previous one, ``(v, u)`` at k_lo - 1, times the
    ratio: ``ratio`` is (numerator factors, denominator factors), each a
    tuple of (a, b) for a*k + b; over k_lo..k_hi the numerator factors
    are nonzero and the denominator factors positive.  The ratio is a
    p-adic unit except where p divides a factor, so between those special
    indices the valuation is fixed and a run of units is one
    comprehension.  Only a special index strips p-parts and moves v.
    Units stay exact for every k, also past p and while v >= e, so the
    walk can resume anywhere.
    """
    p, pe = modulus.p, modulus.m
    nums, dens = ratio
    # Only denominators below p are read from the inverse table.
    inv = _inv_table(p, pe, min(max(a * k_hi + b for a, b in dens), p - 1), tables)
    roots = {-b * pow(a, -1, p) % p for a, b in nums + dens}  # p | a*k + b iff k = root mod p
    special = sorted({s for r in roots for s in range(k_lo + (r - k_lo) % p, k_hi + 1, p)})
    k = k_lo
    for s in special + [k_hi + 1]:
        if s > k:
            ns = _product([range(a * k + b, a * s + b, a) for a, b in nums])
            if all(a * (s - 1) + b < p for a, b in dens):
                invs = _product([inv[a * k + b : a * s + b : a] for a, b in dens])
            else:
                ds = _product([range(a * k + b, a * s + b, a) for a, b in dens])
                invs = [pow(d, -1, pe) for d in ds]
            yield v, [(u := u * n * i % pe) for n, i in zip(ns, invs)]
        if s > k_hi:
            return
        num, den = (prod([a * s + b for a, b in factors]) for factors in ratio)
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        if v < 0:
            raise NegativeValuation(f"walk term {s} went p-adically negative")
        u = u * num * pow(den, -1, pe) % pe
        yield v, [u]
        k = s + 1


def _product(columns: list) -> list[int] | range:
    """The entrywise product of equal-length columns; one column as is."""
    first, *rest = columns
    for col in rest:
        first = [x * y for x, y in zip(first, col)]
    return first


def _cb_vu(modulus: Modulus, upto: int, tables: PrimeTables) -> list[tuple[int, int]]:
    """Factored central binomials: (v_p, unit) of C(2k,k) for k = 0..upto."""
    vu = [(0, 1)]
    for v, us in _walk(modulus, _RATIOS[WeightKind.NONE][1], 1, upto, 0, 1, tables):
        vu.extend([(v, x) for x in us])
    return vu


def _residues_from_vu(
    modulus: Modulus, upto: int, tables: PrimeTables, weight: WeightKind = WeightKind.NONE
) -> list[int]:
    """Residues of weight(k) C(2k,k) mod p^e for k = 0..upto."""
    p, e, pe = modulus.p, modulus.e, modulus.m
    _check_weight_domain(weight, upto, p)
    res = tables.table(weight, pe)
    if len(res) > upto:
        return res
    if weight is WeightKind.H2:
        start = len(res)
        cb = _residues_from_vu(modulus, upto, tables)[start : upto + 1]
        w = _h2_prefix(modulus, upto, tables)[start : upto + 1]
        res.extend([c * x % pe for c, x in zip(cb, w)])
        return res
    head, ratio = _RATIOS[weight]
    ends = tables.walk_ends
    if not res:
        res.extend([t % pe for t in head])
        ends[weight, pe] = (0, head[-1] % pe)
    for v, us in _walk(modulus, ratio, len(res), upto, *ends[weight, pe], tables):
        if v == 0:
            res.extend(us)
        elif v < e:
            pv = p**v
            res.extend([x * pv % pe for x in us])
        else:
            res.extend([0] * len(us))
        ends[weight, pe] = (v, us[-1])
    return res


def _h2_prefix(modulus: Modulus, upto: int, tables: PrimeTables) -> list[int]:
    """H_k^(2) mod p^e for k = 0..upto (upto <= p-1, so no 1/p^2 term)."""
    p, pe = modulus.p, modulus.m
    h2 = tables.table("h2", pe, (0,))
    if len(h2) <= upto:
        tab = _inv_table(p, pe, upto, tables)
        h = h2[-1]
        h2.extend([(h := (h + x * x) % pe) for x in tab[len(h2) : upto + 1]])
    return h2


def _check_weight_domain(weight: WeightKind, upper: int, p: int) -> None:
    if weight in (WeightKind.INV_2KM1, WeightKind.INV_2KM1_SQ):
        if upper > (p - 1) // 2:
            raise WeightDomain(
                f"1/(2k-1) weights need upper <= (p-1)/2, got {upper} at p = {p}"
            )
    elif weight is WeightKind.H2:
        if upper > p - 1:
            raise WeightDomain(f"H2 weight needs upper <= p-1, got {upper} at p = {p}")


def _sum_with_power(
    x: int, upper: int, modulus: Modulus, weight: WeightKind, tables: PrimeTables
) -> int:
    """sum_{k=0}^{upper} weight(k) C(2k,k) x^k mod p^e by Horner's rule, x reduced."""
    pe = modulus.m
    acc = 0
    # Cached tables may extend past ``upper``; always slice to the range.
    for t in reversed(_residues_from_vu(modulus, upper, tables, weight)[: upper + 1]):
        acc = (acc * x + t) % pe
    return acc


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def central_binomial_stream(modulus: Modulus, max_k: int) -> Iterator[PadicFactored]:
    """Yield C(2k,k) in factored form for k = 0..max_k."""
    for v, u in _cb_vu(modulus, max_k, PrimeTables()):
        yield PadicFactored(modulus, v, u)


def _central_sum(
    base: int,
    upper: int,
    modulus: Modulus,
    weight: WeightKind,
    tables: PrimeTables | None,
    signed: bool = False,
) -> int:
    """sum_{k=0}^{upper} weight(k) C(2k,k) x^k mod p^e, where x is the
    base when ``signed`` and its inverse otherwise.

    The base is inverted once and applied by Horner's rule.  A single
    term never inverts, so the base may then be anything; otherwise an
    unsigned sum raises ``NotInvertible`` when p divides the base.  The
    store's ``sums`` answers a sum it has seen; failures are not kept.
    """
    p, pe = modulus.p, modulus.m
    tables = PrimeTables() if tables is None else tables
    key = (weight, pe, base, upper, signed)
    s = tables.sums.get(key)
    if s is None:
        x = base
        if not signed and upper:
            if base % p == 0:
                raise NotInvertible(f"base {base} is divisible by p = {p}")
            x = pow(base, -1, pe)
        s = tables.sums[key] = _sum_with_power(x % pe, upper, modulus, weight, tables)
    return s


def evaluate_sum(spec: SumSpec, tables: PrimeTables | None = None) -> ResidueClass:
    """Evaluate  sum_{k=0}^{upper} weight(k) C(2k,k) inv(base)^k  mod p^e.

    Sums that share ``tables`` share their residue tables.
    """
    md = spec.modulus
    return ResidueClass(md, _central_sum(spec.base, spec.upper, md, spec.weight, tables))


def signed_central_sum(
    s: int,
    upper: int,
    modulus: Modulus,
    weight: WeightKind = WeightKind.NONE,
    tables: PrimeTables | None = None,
) -> ResidueClass:
    """sum_{k=0}^{upper} s^k weight(k) C(2k,k) mod p^e.

    The positive-power twin of ``evaluate_sum``: s^k needs no inversion,
    so s may be divisible by p.
    """
    return ResidueClass(modulus, _central_sum(s, upper, modulus, weight, tables, signed=True))


def alternating_harmonic(bound: int, modulus: Modulus, tables: PrimeTables | None = None) -> int:
    """sum_{k=1}^{bound} (-1)^k / k mod p^e, for bound < p."""
    p, pe = modulus.p, modulus.m
    if bound >= p:
        raise NotInvertible(f"bound {bound} reaches a multiple of p = {p}")
    tab = _inv_table(p, pe, bound, PrimeTables() if tables is None else tables)
    return (sum(tab[2 : bound + 1 : 2]) - sum(tab[1 : bound + 1 : 2])) % pe


def power_over_square_sum(
    base_num: int, base_den: int, modulus: Modulus, tables: PrimeTables | None = None
) -> int:
    """sum_{k=1}^{p-1} (base_num/base_den)^k / k^2 mod p^e."""
    p, pe = modulus.p, modulus.m
    if base_den % p == 0:
        raise NotInvertible(f"denominator {base_den} is divisible by p = {p}")
    x = base_num * pow(base_den % pe, -1, pe) % pe
    tab = _inv_table(p, pe, p - 1, PrimeTables() if tables is None else tables)
    acc = 0
    xk = 1
    for k in range(1, p):
        xk = xk * x % pe
        acc = (acc + xk * tab[k] % pe * tab[k]) % pe
    return acc


def exact_lagrange(params: LucasParams, n: int) -> int:
    """sum_{k=0}^{floor(n/2)} C(n-k,k) A^(n-2k) (-B)^k, exactly.

    Equals u_{n+1}(A, B); evaluated in arbitrary precision so it can
    serve as an oracle for the modular Lucas machinery.
    """
    A, B = params.A, params.B
    return sum(
        comb(n - k, k) * A ** (n - 2 * k) * (-B) ** k for k in range(n // 2 + 1)
    )


def exact_identity_41(m: int, n: int) -> tuple[int, int]:
    """Both sides of the telescoping central-binomial identity, cleared
    of denominators by 2 * m^n:

        lhs = sum_{k=0}^{n} (2 - (m-4) k) C(2k,k) m^(n-k)
        rhs = 2 (2n+1) C(2n,n)

    The contract is lhs == rhs for every nonzero m and every n >= 0.
    """
    if m == 0:
        raise ZeroInput("base must be nonzero")
    lhs = sum((2 - (m - 4) * k) * comb(2 * k, k) * m ** (n - k) for k in range(n + 1))
    rhs = 2 * (2 * n + 1) * comb(2 * n, n)
    return lhs, rhs


def floor_multiple(num: int, den: int, value: int) -> int:
    """floor(num/den * value) by integer division, never via floats."""
    return num * value // den

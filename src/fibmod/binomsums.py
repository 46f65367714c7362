"""Finite sums of central binomial and Catalan terms modulo prime powers.

The workhorse is a segment walk over a hypergeometric term t_k =
p^v * unit whose ratio t_k / t_{k-1} is a product of linear factors
a*k + b over another, such as (4k-2)/k for C(2k,k).  The ratio is a
p-adic unit except where p divides a factor, so between those indices
the valuation is fixed and a run of units costs one inversion, of the
product of its denominators; only the special indices strip p-parts.
Every term is exact even past k = p/2, where the binomials pick up
positive p-valuation.  Each weight but H2 is walked as its own term
weight(k) C(2k,k) into a table of residues in a ``PrimeTables`` store,
which every sum at that prime shares, and the store keeps each sum for
any other check at that prime.  The walk reads no inverse table: the
store's inverses of 1..n serve only the H2 prefix,
``alternating_harmonic``, ``power_over_square_sum`` and MT_26's closed
form in ``checks``.
A sum has three evaluators: for one sum, Horner's rule over a prefix of
the walked table, at one inversion of the base (at x = 1, the prefix's
plain sum); for one base at many primes, ``_tree``, a remainder tree
over 2x2 matrix products, which its side records call (the same tree
gives C(2k,k) and the alternating harmonic sum); for many
bases at one prime, ``sums_at_bases``, a chirp-z transform over the
Teichmüller points mod p^e.  A scan uses the last two where it can.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat
from math import comb, prod
from operator import mul
from typing import Callable, Iterable, Iterator

from .modarith import Modulus, NegativeValuation, NotInvertible


class WeightDomain(Exception):
    """The requested weight is undefined on the requested summation range."""


class WeightKind(Enum):
    """Per-term weights appearing in the checked congruences.

    NONE -> 1; CATALAN -> 1/(k+1); LINEAR_K -> k; INV_2KM1_SQ -> 1/(2k-1)^2;
    H2 -> H_k^(2) = sum_{0<j<=k} 1/j^2.
    """

    NONE = "none"
    CATALAN = "catalan"
    LINEAR_K = "linear_k"
    INV_2KM1_SQ = "inv_2km1_sq"
    H2 = "h2"

    # A member is part of every table and sum key; Enum.__hash__ hashes
    # its name in Python on each lookup.  Members are singletons (also
    # when unpickled), so identity is their equality and their hash.
    __hash__ = object.__hash__


# ---------------------------------------------------------------------------
# Internal tables.
# ---------------------------------------------------------------------------


class PrimeTables(dict):
    """Every residue table shared by the sums at one prime.

    Each item maps ``(kind, p^e)`` to a list that only grows: ``kind`` is
    a ``WeightKind`` for the tables of weight(k) C(2k,k), ``"inv"`` for
    the inverses of 1..n (built only for the H2 prefix,
    ``alternating_harmonic``, ``power_over_square_sum`` and MT_26's closed
    form; the walk needs none) and ``"h2"`` for the H_k^(2) prefix.  A prime
    power fixes its prime, so one store may also serve several primes.
    ``walk_ends`` keeps the walk's (v, unit) at the end of each walked
    table, so a longer request resumes the walk there.  ``sums`` keeps
    each finished sum under (weight, p^e, base as given, upper, signed),
    so checks at one prime that share a sum compute it once.  ``sides``
    holds the side values a scan gives before the rows run, under (check
    id, ``"lhs"`` or ``"rhs"``, ``CheckParams``); ``run_check`` reads a
    side there first.  ``bases`` are the bases, prime to p, whose sums a
    scan at one prime asks for, and ``points`` keeps ``sums_at_bases``'
    setup over them at each p^e.  ``requests`` is ``run_check``'s: the
    spec and ``Modulus`` of each request that evaluated, under the check
    id and the fields of its ``CheckParams`` but m.
    """

    def __init__(self, bases: Iterable[int] = ()) -> None:
        super().__init__()
        self.walk_ends: dict[tuple[WeightKind, int], tuple[int, int]] = {}
        self.sums: dict[tuple, int] = {}
        self.sides: dict[tuple, int] = {}
        self.bases = frozenset(bases)
        self.points: dict[int, tuple] = {}
        self.requests: dict[tuple, tuple] = {}

    def table(self, kind, pe: int, head: tuple[int, ...] = ()) -> list[int]:
        """The table of ``kind`` mod ``pe``, started with ``head`` when new."""
        return self.setdefault((kind, pe), list(head))


def _inv_table(p: int, pe: int, n: int, tables: PrimeTables) -> list[int]:
    """Inverses of 1..n mod pe, n < p, for the sums whose terms are 1/k or
    1/k^2: the H2 prefix, ``alternating_harmonic``, ``power_over_square_sum``
    and MT_26's closed form in ``checks``.  ``_walk`` does not read it.

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
    # (4k-6)(2k-3) / (k(2k-1))
    WeightKind.INV_2KM1_SQ: ((1,), (((4, -6), (2, -3)), ((1, 0), (2, -1)))),
}

# t_k = 1/k, for the alternating harmonic sum: head terms t_0 = 0 and t_1 = 1,
# then the ratio (k-1)/k.
_HARMONIC = ((0, 1), (((1, -1),), ((1, 0),)))


def _walk(
    modulus: Modulus, ratio: tuple, k_lo: int, k_hi: int, v: int, u: int
) -> Iterator[tuple[int, list[int]]]:
    """Runs (v, units) of a hypergeometric term t_k = p^v * unit for k_lo..k_hi.

    Each term is the previous one, ``(v, u)`` at k_lo - 1, times the
    ratio: ``ratio`` is (numerator factors, denominator factors), each a
    tuple of (a, b) for a*k + b; over k_lo..k_hi the numerator factors
    are nonzero and the denominator factors positive.  The ratio is a
    p-adic unit except where p divides a factor, so between those special
    indices the valuation is fixed and a run of units is two
    comprehensions with one inversion (Montgomery, Math. Comp. 48 (1987)):
    with n_i and d_i the run's numerators and denominators and D the
    product of all d_i, the i-th unit is (u/D) n_1..n_i d_{i+1}..d_last.
    So the walk reads no inverse table; ``_inv_table`` serves the 1/k and
    1/k^2 sums alone.  Only a special index strips p-parts and moves v.
    Units stay exact for every k, also past p and while v >= e, so the
    walk can resume anywhere.
    """
    p, pe = modulus.p, modulus.m
    nums, dens = ratio
    roots = {-b * pow(a, -1, p) % p for a, b in nums + dens}  # p | a*k + b iff k = root mod p
    special = sorted({s for r in roots for s in range(k_lo + (r - k_lo) % p, k_hi + 1, p)})
    k = k_lo
    for s in special + [k_hi + 1]:
        if s > k:
            ns = _product([range(a * k + b, a * s + b, a) for a, b in nums])
            ds = _product([range(a * k + b, a * s + b, a) for a, b in dens])
            d = 1
            suffix = [d] + [(d := d * x % pe) for x in ds[:0:-1]]  # d_{i+1}..d_last, reversed
            u = u * pow(d * ds[0], -1, pe) % pe
            # The last suffix is 1, so u ends as the run's last unit.
            yield v, [(u := u * n % pe) * x % pe for n, x in zip(ns, reversed(suffix))]
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


def _cb_vu(modulus: Modulus, upto: int) -> list[tuple[int, int]]:
    """Factored central binomials: (v_p, unit) of C(2k,k) for k = 0..upto."""
    vu = [(0, 1)]
    for v, us in _walk(modulus, _RATIOS[WeightKind.NONE][1], 1, upto, 0, 1):
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
    for v, us in _walk(modulus, ratio, len(res), upto, *ends[weight, pe]):
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
    if weight is WeightKind.INV_2KM1_SQ:
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
    """sum_{k=0}^{upper} weight(k) C(2k,k) x^k mod p^e by Horner's rule, x
    reduced; at x = 1 the plain sum of the terms."""
    pe = modulus.m
    # Cached tables may extend past ``upper``; always slice to the range.
    terms = _residues_from_vu(modulus, upper, tables, weight)[: upper + 1]
    if x == 1:
        return sum(terms) % pe
    acc = 0
    for t in reversed(terms):
        acc = (acc * x + t) % pe
    return acc


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def central_binomial_stream(modulus: Modulus, max_k: int) -> Iterator[tuple[int, int]]:
    """Yield C(2k,k) as (v_p, unit mod p^e) for k = 0..max_k."""
    yield from _cb_vu(modulus, max_k)


def central_sum(
    base: int,
    upper: int,
    modulus: Modulus,
    weight: WeightKind = WeightKind.NONE,
    *,
    signed: bool = False,
    tables: PrimeTables | None = None,
) -> int:
    """sum_{k=0}^{upper} weight(k) C(2k,k) x^k mod p^e, a residue in
    [0, p^e), where x is the base when ``signed`` and its inverse otherwise.

    A negative upper raises ``ValueError``.  An unsigned base is inverted
    once, so p dividing it raises ``NotInvertible`` unless upper is 0; a
    signed base is not inverted, so p may divide it.  x is applied by
    Horner's rule, or not at all where it is 1 mod p^e.  Sums that share
    ``tables`` share their residue tables, and the store's ``sums``
    answers a sum it has seen; failures are not kept.
    An unsigned sum over one of the store's ``bases`` is instead given at
    all of them by ``sums_at_bases`` when there are at least p - 1: the
    transform computes all p - 1 points, and to p = 10^4 costs under half
    as many Horner passes but up to 400 times one.
    """
    if upper < 0:
        raise ValueError(f"upper bound must be nonnegative, got {upper}")
    p, pe = modulus.p, modulus.m
    tables = PrimeTables() if tables is None else tables
    key = weight, pe, base, upper, signed
    s = tables.sums.get(key)
    if s is None and not signed and base in tables.bases and len(tables.bases) >= p - 1:
        for b, v in sums_at_bases(modulus, upper, weight, tables).items():
            tables.sums[weight, pe, b, upper, False] = v
        s = tables.sums.get(key)
    if s is None:
        x = base
        if not signed and upper:
            if base % p == 0:
                raise NotInvertible(f"base {base} is divisible by p = {p}")
            x = pow(base, -1, pe)
        s = tables.sums[key] = _sum_with_power(x % pe, upper, modulus, weight, tables)
    return s


def _tree(
    term: tuple, xn: int, xd: int, entries: list[tuple[int, int, int]]
) -> list[tuple[int, int] | None]:
    """(S, t_upper x^upper) mod p^e for each (p, upper, e) of ``entries`` at
    once, by an accumulating remainder tree; None where Q is not a unit.

    S = sum_{k<=upper} t_k x^k for the term t_k given as in ``_RATIOS``,
    (head terms, ratio N(k)/D(k)), and x = xn/xd.
    The scaled state (S_k Q_k, t_k x^k Q_k), Q_k = xd^(h-1) prod_{h<=j<=k}
    D(j) xd, moves by the row-vector step [[D xd, 0], [N xn, N xn]] from
    the h head terms on.  One product tree runs over the blocks of k
    between consecutive uppers and one over the moduli; the descent hands
    each node its incoming state reduced mod the product of its moduli,
    so every entry costs its share of quasi-linear big-int work instead
    of O(p) (Costa, Gerbicz & Harvey, Math. Comp. 83 (2014)).  An entry
    is left out where the upper is below h, p divides xd, or p divides
    D(k) for some h <= k <= upper.
    """
    head, (nums, dens) = term
    h = len(head)

    def left_out(p: int, upper: int) -> bool:
        if upper < h or xd % p == 0:
            return True
        # a*k + b = 0 (mod p) at k = -b/a; the ratios' a are 1, 2 and 4.
        return any(h + (-b * pow(a, -1, p) - h) % p <= upper for a, b in dens)

    def step(lo: int, hi: int) -> tuple[int, int, int]:
        """The product of the steps k = lo..hi-1 as (a, b, c) = [[a, 0], [b, c]],
        split in halves above 16 steps so the big factors meet last."""
        if hi - lo > 16:
            mid = (lo + hi) // 2
            return mul(step(lo, mid), step(mid, hi))
        a, b, c = 1, 0, 1
        for k in range(lo, hi):
            d = prod([s * k + t for s, t in dens]) * xd
            n = prod([s * k + t for s, t in nums]) * xn
            a, b, c = a * d, b * d + c * n, c * n
        return a, b, c

    def mul(l: tuple[int, int, int], r: tuple[int, int, int]) -> tuple[int, int, int]:
        return l[0] * r[0], l[1] * r[0] + l[2] * r[1], l[2] * r[2]

    def moduli(lo: int, hi: int) -> tuple:
        """The product tree of the moduli of blocks lo..hi-1, as (product, left, right)."""
        if hi - lo == 1:
            return (mods[lo],)
        mid = (lo + hi) // 2
        left, right = moduli(lo, mid), moduli(mid, hi)
        return (left[0] * right[0], left, right)

    def descend(node: tuple, lo: int, hi: int, state: tuple[int, int, int], need: bool):
        """Record the entries at blocks lo..hi-1 from ``state`` = (S Q, t x^k Q, Q)
        before block lo; return the product of their steps when ``need``."""
        m = node[0]
        sq, tq, q = (v % m for v in state)
        if hi - lo == 1:
            a, b, c = step(starts[lo], starts[lo + 1])
            am = a % m
            inv = pow(q * am, -1, m)
            out[order[lo]] = ((sq * am + tq * (b % m)) * inv % m, tq * (c % m) * inv % m)
            return (a, b, c) if need else None
        mid = (lo + hi) // 2
        left = descend(node[1], lo, mid, (sq, tq, q), True)
        right = descend(node[2], mid, hi, (sq * left[0] + tq * left[1], tq * left[2], q * left[0]), need)
        return mul(left, right) if need else None

    out: list[tuple[int, int] | None] = [None] * len(entries)
    order = sorted(
        (i for i, (p, upper, _) in enumerate(entries) if not left_out(p, upper)),
        key=lambda i: entries[i][1],
    )
    if order:
        mods = [entries[i][0] ** entries[i][2] for i in order]
        starts = [h] + [entries[i][1] + 1 for i in order]
        state = (
            sum(t * xn**k * xd ** (h - 1 - k) for k, t in enumerate(head)),
            head[-1] * xn ** (h - 1),
            xd ** (h - 1),
        )
        descend(moduli(0, len(order)), 0, len(order), state, False)
    return out


# A side below is a frozen record of one side of a check, which ``scan``
# evaluates over all its primes at once where ``batches`` holds: ``batch``
# gives its value at each (p, upper, e) of a list (None where it is left to
# the per-prime call), and the scan hands each value to its row in
# ``PrimeTables.sides``.
# ``upper`` and a callable ``base`` take the check's parameters, and
# ``checks._spec`` takes ``upper`` as the check's length.


@dataclass(frozen=True, slots=True)
class SumSide:
    """The side  sum_{k<=upper} weight(k) C(2k,k) / base^k,  or with
    base^k when ``signed`` (then p may divide the base).

    ``base`` is a constant, batched over primes with a walked weight, or
    m (``checks._m``), whose unsigned sums a scan gives at all m of a prime.
    """

    base: int | Callable[..., int]
    upper: Callable[..., int]
    weight: WeightKind = WeightKind.NONE
    signed: bool = False

    @property
    def batches(self) -> bool:
        return isinstance(self.base, int) and self.weight is not WeightKind.H2

    def __call__(self, pr, md, tables):
        b = self.base(pr) if callable(self.base) else self.base
        return central_sum(b, self.upper(pr), md, self.weight, signed=self.signed, tables=tables)

    def batch(self, entries):
        xn, xd = (self.base, 1) if self.signed else (1, self.base)
        return [None if r is None else r[0] for r in _tree(_RATIOS[self.weight], xn, xd, entries)]


@dataclass(frozen=True, slots=True)
class CentralBinomialSide:
    """The side C(2k,k) at k = upper."""

    upper: Callable[..., int]
    batches = True

    def __call__(self, pr, md, tables):
        k = self.upper(pr)
        return _residues_from_vu(md, k, tables)[k]

    def batch(self, entries):
        # The last term of the walk of C(2k,k) at x = 1.
        return [None if r is None else r[1] for r in _tree(_RATIOS[WeightKind.NONE], 1, 1, entries)]


@dataclass(frozen=True, slots=True)
class HarmonicSide:
    """The side  (num/den) sum_{k=1}^{upper} (-1)^k / k."""

    upper: Callable[..., int]
    num: int
    den: int
    batches = True

    def __call__(self, pr, md, tables):
        pe = md.m
        h = alternating_harmonic(self.upper(pr), md, tables)
        return self.num * pow(self.den, -1, pe) * h % pe

    def batch(self, entries):
        # None also where p divides den, so that row's own call raises.
        return [
            None if r is None or self.den % p == 0 else self.num * pow(self.den, -1, pe) * r[0] % pe
            for (p, _, e), r in zip(entries, _tree(_HARMONIC, -1, 1, entries))
            for pe in [p**e]
        ]


def sums_at_bases(
    modulus: Modulus, upper: int, weight: WeightKind, tables: PrimeTables
) -> dict[int, int]:
    """{b: sum_{k=0}^{upper} weight(k) C(2k,k) / b^k mod p^e} for each b of
    ``tables.bases`` prime to p, by one transform; these are T(x) = sum t_k
    x^k at x = 1/b.  The table and its errors are the walk's.

    With g a primitive root mod p, w = g^(p^(e-1)) (its Teichmüller lift)
    has order N = p - 1 mod p^e, and each unit is x = w^j (1 + eps) with
    g^j = x (mod p) and p | eps, so T(x) = sum_{i<e} eps^i D_i(w^j) mod p^e,
    D_i(y) = sum_k C(k, i) t_k y^k.  The N values D_i(w^j) are a chirp-z
    transform (Bluestein, 1970): by jk = C(j+k, 2) - C(j, 2) - C(k, 2), a
    correlation with the chirp w^C(s, 2), done as one product of
    Kronecker-packed big ints (Harvey, J. Symbolic Comput. 44 (2009)).
    The points and the chirp depend only on p^e and the bases, so the
    store keeps them for its other sums.
    """
    p, e, pe = modulus.p, modulus.e, modulus.m
    n = p - 1
    t = _residues_from_vu(modulus, upper, tables, weight)[: upper + 1]
    if pe not in tables.points:
        divisors = [q for q in range(2, p) if n % q == 0]
        g = next(g for g in range(2, p + 1) if all(pow(g, n // q, p) != 1 for q in divisors))
        lift = pow(g, p ** (e - 1), pe)
        w = list(accumulate(repeat(lift, n - 1), lambda x, y: x * y % pe, initial=1))  # w^j
        log = {x % p: j for j, x in enumerate(w)}
        points = []  # per base: (b, j, [eps^i for i < e])
        for b, x in ((b, pow(b, -1, pe)) for b in tables.bases if b % p):
            eps = (x * w[-log[x % p]] - 1) % pe
            points.append((b, log[x % p], [eps**i % pe for i in range(e)]))
        width = (n * pe * pe).bit_length() // 8 + 1  # bytes per slot, which sums n products
        chirp = b"".join(
            w[k * (k - 1) // 2 % n].to_bytes(width, "little") for k in range(2 * n - 1)
        )
        unchirp = [w[-(k * (k - 1) // 2) % n] for k in range(n)]  # w^-C(k, 2)
        tables.points[pe] = (points, width, int.from_bytes(chirp, "little"), unchirp)
    points, width, chirp, unchirp = tables.points[pe]
    rows = []  # per i, D_i(w^j) for j < N
    for i in range(e):
        a = [0] * n  # w^N = 1, so the coefficients fold mod N
        for k, c in enumerate(t):
            a[k % n] += comb(k, i) * c
        packed = b"".join(
            (c * u % pe).to_bytes(width, "little") for c, u in zip(a[::-1], unchirp[::-1])
        )
        buf = (int.from_bytes(packed, "little") * chirp).to_bytes((3 * n - 1) * width, "little")
        rows.append([
            int.from_bytes(buf[(n - 1 + j) * width : (n + j) * width], "little") * u % pe
            for j, u in enumerate(unchirp)
        ])
    d = list(zip(*rows))
    return {b: sum(map(mul, d[j], eps)) % pe for b, j, eps in points}


def alternating_harmonic(bound: int, modulus: Modulus, tables: PrimeTables | None = None) -> int:
    """sum_{k=1}^{bound} (-1)^k / k mod p^e, for 0 <= bound < p, by two
    slice sums over the store's inverse table."""
    p, pe = modulus.p, modulus.m
    if bound < 0:
        raise ValueError(f"alternating harmonic bound must be nonnegative, got {bound}")
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

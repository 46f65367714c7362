"""Residue arithmetic modulo odd prime powers.

Everything in this module is exact integer arithmetic: the modulus p^e
and Jacobi symbols.  Residues are plain ints in [0, p^e), and a factored
term p^v * u is the int pair (v, u).  All values are immutable after
construction and all operations are pure, so they can be shared freely
across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class ModArithError(Exception):
    """Base class for arithmetic errors raised by this package."""


class NotInvertible(ModArithError):
    """No inverse exists modulo p^e (the prime divides the operand)."""


class BadDenominator(ModArithError):
    """Jacobi symbol requested with an even or nonpositive denominator."""


class NegativeValuation(ModArithError):
    """Exact division would drop the p-valuation below zero.

    This always signals a broken integrality assumption in the caller:
    every quantity divided in this package is an integer by construction.
    """


# Any product of two canonical residues must fit a double-width machine
# word; Python ints never overflow, so the bound is purely contractual.
MODULUS_BOUND = 1 << 62

# Deterministic Miller-Rabin witness set, exact for n < _MR_EXACT_BELOW:
# psi_12 = 399165290221 * 798330580441 is the least strong pseudoprime to
# all twelve witnesses (OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n below ``_MR_EXACT_BELOW`` (about
    3.2 * 10^23); ``ValueError`` from there on, where it would not be exact."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(n: int) -> bool:
    """Whether n is an odd prime; ``is_prime``'s ``ValueError`` past its exact range."""
    return n > 2 and n % 2 == 1 and is_prime(n)


class Modulus:
    """An odd prime power p^e, the ambient ring of all residue arithmetic.

    The exponent is unbounded as long as p^e stays below 2^62; exponents
    above 6 only occur in the 3-adic conjecture checks.
    """

    __slots__ = ("p", "e", "m")

    def __init__(self, p: int, e: int) -> None:
        if not is_odd_prime(p):
            raise ValueError(f"modulus base must be an odd prime, got {p}")
        if e < 1:
            raise ValueError(f"modulus exponent must be >= 1, got {e}")
        m = p**e
        if m >= MODULUS_BOUND:
            raise ValueError(f"p^e = {m} exceeds the 2^62 modulus bound")
        self.p = p
        self.e = e
        self.m = m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Modulus) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))

    def __repr__(self) -> str:
        return f"Modulus({self.p}^{self.e})"


@dataclass(frozen=True)
class LucasParams:
    """Parameters (A, B) of the Lucas recurrence x_{n+1} = A*x_n - B*x_{n-1}."""

    A: int
    B: int

    @property
    def delta(self) -> int:
        # Recomputed on demand so it can never go stale.
        return self.A * self.A - 4 * self.B


def jacobi(n: int, d: int) -> int:
    """The Jacobi symbol (n/d) for odd d >= 1.

    jacobi(n, 1) = 1 by the empty-product convention, and the result is 0
    exactly when gcd(n, d) > 1.  Negative numerators are fine: the symbol
    depends only on n mod d.
    """
    if d <= 0 or d % 2 == 0:
        raise BadDenominator(f"denominator must be odd and positive, got {d}")
    n %= d
    result = 1
    while n:
        while n % 2 == 0:
            n //= 2
            if d % 8 in (3, 5):
                result = -result
        n, d = d, n
        if n % 4 == 3 and d % 4 == 3:
            result = -result
        n %= d
    return result if d == 1 else 0

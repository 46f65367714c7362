"""Lucas sequences modulo prime powers, via fast doubling and ladders.

u_n and v_n satisfy x_{n+1} = A*x_n - B*x_{n-1} with u_0 = 0, u_1 = 1 and
v_0 = 2, v_1 = A.  Fibonacci and Lucas numbers are the (A, B) = (1, -1)
instance.  The quotient maps (Fibonacci quotient, Fermat quotient) divide
a provably p-divisible value by p exactly, working at one extra exponent
of precision so no big-integer arithmetic is ever needed.  Over a run of
primes, ``fibonacci_quotients`` shares one ladder among a block of them.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import prod

from .modarith import LucasParams, Modulus, NotInvertible, jacobi


class DomainError(Exception):
    """Parameters fall outside the stated domain of an operation."""


class NotDivisible(Exception):
    """An allegedly p-divisible value was not; signals an arithmetic bug."""


def lucas_uv_mod(params: LucasParams, n: int, modulus: Modulus) -> tuple[int, int]:
    """(u_n, v_n) mod p^e, in O(log n) ring operations.

    Fast doubling: from (u_j, v_j, B^j) the index is doubled via

        u_{2j} = u_j * v_j
        v_{2j} = v_j^2 - 2 B^j

    and advanced by one via 2 u_{j+1} = A u_j + v_j and
    2 v_{j+1} = delta u_j + A v_j (the modulus is odd, so halving is a
    multiplication by inv(2)).  Bits of n are consumed most significant
    first.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    m = modulus.m
    A = params.A % m
    B = params.B % m
    delta = (A * A - 4 * B) % m
    inv2 = (m + 1) // 2
    u, v, bn = 0, 2 % m, 1
    if n:
        for bit in bin(n)[2:]:
            u, v, bn = u * v % m, (v * v - 2 * bn) % m, bn * bn % m
            if bit == "1":
                u, v, bn = (
                    (A * u + v) * inv2 % m,
                    (delta * u + A * v) * inv2 % m,
                    bn * B % m,
                )
    return u, v


def _fib_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) mod m, by a ladder on L_{2k}, k = n // 2.

    V_j(3, 1) = L_{2j} satisfies V_{2j} = V_j^2 - 2 and
    V_{2j+1} = V_j V_{j+1} - 3, so the pair (V_j, V_{j+1}) walks the
    bits of k with two multiplications per bit.  It is kept mod 5m,
    where 5 F_{2k} = 2 L_{2k+2} - 3 L_{2k} and
    5 F_{2k+2} = 3 L_{2k+2} - 2 L_{2k} are read off by exact division
    by 5; no inverse of 5 is needed, so m may be any positive integer.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    M = 5 * m
    x, y = 2, 3
    for bit in bin(n >> 1)[2:]:
        if bit == "1":
            x, y = (x * y - 3) % M, (y * y - 2) % M
        else:
            x, y = (x * x - 2) % M, (x * y - 3) % M
    f0 = (2 * y - 3 * x) % M // 5
    f2 = (3 * y - 2 * x) % M // 5
    f1 = (f2 - f0) % m
    return (f1, f2) if n & 1 else (f0, f1)


def fibonacci_mod(n: int, m: int) -> int:
    """F_n mod m; n must be nonnegative."""
    return _fib_pair_mod(n, m)[0]


def entry_index(params: LucasParams, p: int) -> int:
    """The index p - (delta/p), at which u vanishes mod p."""
    if (2 * params.B) % p == 0:
        raise DomainError(f"p = {p} divides 2B, the entry statement does not apply")
    return p - jacobi(params.delta, p)


# The Legendre symbol (p/5) indexed by p mod 5: the squares mod 5 are 1 and 4.
_LEGENDRE_MOD5 = (0, 1, -1, -1, 1)


def fibonacci_quotient(p: int, e: int) -> int:
    """The integer F_{p - (p/5)} / p, reduced mod p^e, for e >= 1.

    (p/5) is looked up from p mod 5.  F is computed mod p^(e+1),
    divisibility by p is asserted, and the quotient is reduced to p^e.
    """
    if p in (2, 5):
        raise DomainError("Fibonacci quotient is undefined for p in {2, 5}")
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    idx = p - _LEGENDRE_MOD5[p % 5]
    f = _fib_pair_mod(idx, p ** (e + 1))[0]
    if f % p:
        raise NotDivisible(f"F_{idx} is not divisible by {p}")
    return f // p


# Primes per ladder in ``fibonacci_quotients``.  Each step reduces mod the
# product of the block's squares, so a larger block makes every step
# dearer: 8 to 16 primes per block measured flat, 64 or more lost.
_WSS_BLOCK = 12


def fibonacci_quotients(ps: Sequence[int]) -> Iterator[int]:
    """Yield ``fibonacci_quotient(p, 1)`` for each p of rising primes ``ps``, p >= 7.

    The primes are taken ``_WSS_BLOCK`` at a time, with P the product of
    their squares.  One ladder gives (a, b) = (F_n, F_{n+1}) mod P at the
    first index n; each next index n + g (g >= 0) is reached by

        (F_{n+g}, F_{n+g+1}) = (F_{g-1} a + F_g b, F_g a + F_{g+1} b)

    with small exact Fibonacci numbers, and F_n mod p^2 is a % p^2.
    Divisibility by p is asserted for every prime, as in
    ``fibonacci_quotient``.
    """
    if ps and ps[0] < 7:
        raise ValueError(f"primes must be >= 7, got {ps[0]}")
    fib = [0, 1, 1]  # F_0, F_1, ... extended as wider gaps appear
    for i in range(0, len(ps), _WSS_BLOCK):
        block = ps[i : i + _WSS_BLOCK]
        squares = [p * p for p in block]
        P = prod(squares)
        n = block[0] - _LEGENDRE_MOD5[block[0] % 5]
        a, b = _fib_pair_mod(n, P)
        for p, p2 in zip(block, squares):
            idx = p - _LEGENDRE_MOD5[p % 5]
            g = idx - n
            if g:
                if g < 0:
                    raise ValueError(f"primes must rise: {p} has index {idx}, below {n}")
                while len(fib) <= g + 1:
                    fib.append(fib[-1] + fib[-2])
                f0, f1, f2 = fib[g - 1], fib[g], fib[g + 1]
                a, b = (f0 * a + f1 * b) % P, (f1 * a + f2 * b) % P
                n = idx
            f = a % p2
            if f % p:
                raise NotDivisible(f"F_{idx} is not divisible by {p}")
            yield f // p


def fermat_quotient(b: int, p: int, e: int) -> int:
    """The Fermat quotient (b^(p-1) - 1) / p, reduced mod p^e, for e >= 1."""
    if b % p == 0:
        raise NotInvertible(f"p = {p} divides the base {b}")
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    hi = p ** (e + 1)
    t = (pow(b % hi, p - 1, hi) - 1) % hi
    if t % p:
        raise NotDivisible(f"{b}^{p - 1} - 1 is not divisible by {p}")
    return t // p

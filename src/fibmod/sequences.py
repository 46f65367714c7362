"""Lucas sequences modulo prime powers, via fast doubling.

u_n and v_n satisfy x_{n+1} = A*x_n - B*x_{n-1} with u_0 = 0, u_1 = 1 and
v_0 = 2, v_1 = A.  Fibonacci and Lucas numbers are the (A, B) = (1, -1)
instance.  The quotient maps (Fibonacci quotient, Fermat quotient) divide
a provably p-divisible value by p exactly, working at one extra exponent
of precision so no big-integer arithmetic is ever needed.
"""

from __future__ import annotations

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
    delta = params.delta % m
    inv2 = pow(2, -1, m)
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
    """(F_n, F_{n+1}) mod m, by the specialized Fibonacci doubling."""
    a, b = 0, 1 % m
    if n:
        for bit in bin(n)[2:]:
            c = a * ((2 * b - a) % m) % m
            d = (a * a + b * b) % m
            if bit == "1":
                a, b = d, (c + d) % m
            else:
                a, b = c, d
    return a, b


def fibonacci_mod(n: int, m: int) -> int:
    """F_n mod m."""
    return _fib_pair_mod(n, m)[0]


def entry_index(params: LucasParams, p: int) -> int:
    """The index p - (delta/p), at which u vanishes mod p."""
    if (2 * params.B) % p == 0:
        raise DomainError(f"p = {p} divides 2B, the entry statement does not apply")
    return p - jacobi(params.delta, p)


def fibonacci_quotient(p: int, e: int) -> int:
    """The integer F_{p - (p/5)} / p, reduced mod p^e.

    F is computed mod p^(e+1) by fast doubling, divisibility by p is
    asserted, and the quotient is reduced to p^e.
    """
    if p in (2, 5):
        raise DomainError("Fibonacci quotient is undefined for p in {2, 5}")
    idx = p - jacobi(p, 5)
    f = _fib_pair_mod(idx, p ** (e + 1))[0]
    if f % p:
        raise NotDivisible(f"F_{idx} is not divisible by {p}")
    return f // p


def fermat_quotient(b: int, p: int, e: int) -> int:
    """The Fermat quotient (b^(p-1) - 1) / p, reduced mod p^e."""
    if b % p == 0:
        raise NotInvertible(f"p = {p} divides the base {b}")
    hi = p ** (e + 1)
    t = (pow(b % hi, p - 1, hi) - 1) % hi
    if t % p:
        raise NotDivisible(f"{b}^{p - 1} - 1 is not divisible by {p}")
    return t // p

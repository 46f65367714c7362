"""Exact reference values that only the tests read.

Each helper here is an independent oracle for the modular machinery in
``fibmod``: exact arbitrary-precision sums, the weights of the central
binomial sums as fractions, the residue of a fraction, the split of an
integer into p^v times a unit, the unit of the base-m family's Lucas
term, and the uncorrected L2_2A closed form that the registry does not
use.
"""

from fractions import Fraction
from math import comb

from fibmod.binomsums import WeightKind
from fibmod.modarith import LucasParams, Modulus, NotInvertible, jacobi


def residue(x, pe: int) -> int:
    """An int or ``Fraction`` mod pe; its denominator must be a unit."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, pe) % pe


def weight_of(kind: WeightKind, k: int) -> Fraction:
    """The factor ``kind`` puts on C(2k,k) in a sum, exactly."""
    if kind is WeightKind.NONE:
        return Fraction(1)
    if kind is WeightKind.CATALAN:
        return Fraction(1, k + 1)
    if kind is WeightKind.LINEAR_K:
        return Fraction(k)
    if kind is WeightKind.INV_2KM1_SQ:
        return Fraction(1, (2 * k - 1) ** 2)
    return sum((Fraction(1, j * j) for j in range(1, k + 1)), Fraction(0))  # H_k^(2)


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
        raise ValueError("base must be nonzero")
    lhs = sum((2 - (m - 4) * k) * comb(2 * k, k) * m ** (n - k) for k in range(n + 1))
    rhs = 2 * (2 * n + 1) * comb(2 * n, n)
    return lhs, rhs


def padic_normalize(n: int, modulus: Modulus) -> tuple[int, int]:
    """Split a nonzero integer into p^v times a unit: (v, unit mod p^e)."""
    if n == 0:
        raise ValueError("cannot factor zero")
    p = modulus.p
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n % modulus.m


def mbar(m: int, p: int, e: int) -> int:
    """The unit attached to the Lucas term of the base-m sum family, mod
    p^e: 1 when m = 4 (mod p), 2 when (4-m/p) = 1, and 2/m when (4-m/p) = -1.
    """
    if m % p == 0:
        raise NotInvertible(f"p = {p} divides m = {m}")
    if (m - 4) % p == 0:
        return 1
    if pow(4 - m, (p - 1) // 2, p) == 1:  # Euler's criterion
        return 2
    return 2 * pow(m, -1, p**e) % p**e


def l2_2a_displayed_rhs(p: int, a: int = 1, e: int = 3) -> int:
    """The uncorrected closed form with numerator 2^(p^a+1).

    Kept for documentation: it disagrees with both the corrected form and
    direct computation (already at p = 5, where it gives 78, not 91), so
    the registry uses the 2^(p^a)+1 numerator instead.
    """
    md = Modulus(p, e)
    pa, pe = p**a, md.m
    s2 = jacobi(2, p) ** a
    denom = 3 * pow(2, (pa - 1) // 2, pe) % pe
    return s2 * pow(2, pa + 1, pe) * pow(denom, -1, pe) % pe

import random

import pytest

from fibmod.modarith import LucasParams, Modulus, NotInvertible, jacobi
from fibmod.scanner import sieve_primes, wss_search
from fibmod.sequences import (
    _WSS_BLOCK,
    DomainError,
    NotDivisible,
    _fib_pair_mod,
    entry_index,
    fermat_quotient,
    fibonacci_mod,
    fibonacci_quotient,
    fibonacci_quotients,
    lucas_uv_mod,
)

PARAM_SET = [(1, -1), (4, 8), (4, 16), (3, 1), (2, 1), (5, 3)]

BIG = Modulus(1000003, 1)  # larger than every small value under test


def naive_uv(A, B, n, m):
    """Two-term recurrence oracle for (u_n, v_n) mod m."""
    u0, u1 = 0, 1 % m
    v0, v1 = 2 % m, A % m
    for _ in range(n):
        u0, u1 = u1, (A * u1 - B * u0) % m
        v0, v1 = v1, (A * v1 - B * v0) % m
    return u0, v0


def test_initial_values():
    for A, B in PARAM_SET:
        assert lucas_uv_mod(LucasParams(A, B), 0, BIG) == (0, 2)
        assert lucas_uv_mod(LucasParams(A, B), 1, BIG) == (1, A % BIG.m)


def test_fibonacci_lucas_values():
    u, v = lucas_uv_mod(LucasParams(1, -1), 10, BIG)
    assert (u, v) == (55, 123)
    assert type(u) is int and type(v) is int


def test_vanishing_instances():
    # x^2 - 4x + 8 has roots 2(1 +- i): u_4(4, 8) = 0 and v_4 = -128.
    assert lucas_uv_mod(LucasParams(4, 8), 4, BIG) == (0, -128 % BIG.m)
    # x^2 - 4x + 16 has roots -4w, -4w^2: u_3(4, 16) = 0.
    assert lucas_uv_mod(LucasParams(4, 16), 3, BIG)[0] == 0


def test_fast_doubling_matches_recurrence():
    rng = random.Random(99)
    moduli = [Modulus(*pe) for pe in [(3, 4), (7, 3), (101, 2), (9973, 1), (13, 5)]]
    for A, B in PARAM_SET:
        params = LucasParams(A, B)
        for md in moduli:
            u0, u1 = 0, 1 % md.m
            v0, v1 = 2 % md.m, A % md.m
            for n in range(301):
                assert lucas_uv_mod(params, n, md) == (u0, v0), (A, B, n, md)
                u0, u1 = u1, (A * u1 - B * u0) % md.m
                v0, v1 = v1, (A * v1 - B * v0) % md.m
            # A few random large indices against a fresh naive run.
            for n in (rng.randrange(500, 2000) for _ in range(3)):
                assert lucas_uv_mod(params, n, md) == naive_uv(A, B, n, md.m)


def test_pair_identity():
    # v_n^2 - delta u_n^2 = 4 B^n.
    for A, B in PARAM_SET:
        params = LucasParams(A, B)
        for md in (Modulus(7, 3), Modulus(13, 2)):
            for n in range(0, 120, 7):
                u, v = lucas_uv_mod(params, n, md)
                lhs = (v**2 - params.delta * u**2) % md.m
                assert lhs == 4 * pow(B % md.m, n, md.m) % md.m


def test_entry_divisibility():
    # u_p = (delta/p) and u_{p - (delta/p)} = 0 (mod p); v_p = A (mod p).
    for A, B in PARAM_SET:
        params = LucasParams(A, B)
        for p in sieve_primes(3, 2000):
            if (2 * B) % p == 0:
                continue
            md = Modulus(p, 1)
            u_p, v_p = lucas_uv_mod(params, p, md)
            assert u_p == jacobi(params.delta, p) % p
            idx = entry_index(params, p)
            assert idx == p - jacobi(params.delta, p)
            assert lucas_uv_mod(params, idx, md)[0] == 0
            assert v_p == A % p


def test_addition_rule():
    # A u_n + eps v_n = 2 B^((1-eps)/2) u_{n+eps}.
    md = Modulus(10007, 1)
    for A, B in PARAM_SET:
        params = LucasParams(A, B)
        u, v = zip(*(lucas_uv_mod(params, n, md) for n in range(1002)))
        for n in range(1, 1001):
            assert (A * u[n] + v[n]) % md.m == 2 * u[n + 1] % md.m
            assert (A * u[n] - v[n]) % md.m == 2 * B % md.m * u[n - 1] % md.m


def test_lucas_doubling_identity():
    # L_{2n} = 5 F_n^2 + 2(-1)^n = L_n^2 - 2(-1)^n.
    md = Modulus(99991, 1)
    fib = LucasParams(1, -1)
    for n in range(0, 2001, 13):
        f_n, l_n = lucas_uv_mod(fib, n, md)
        l_2n = lucas_uv_mod(fib, 2 * n, md)[1]
        sign = 1 if n % 2 == 0 else -1
        assert l_2n == (5 * f_n**2 + 2 * sign) % md.m
        assert l_2n == (l_n**2 - 2 * sign) % md.m


def test_entry_index_examples():
    assert entry_index(LucasParams(1, -1), 7) == 8  # F_8 = 21
    assert entry_index(LucasParams(1, -1), 11) == 10  # F_10 = 55
    assert entry_index(LucasParams(1, -1), 5) == 5  # (5/5) = 0
    with pytest.raises(DomainError):
        entry_index(LucasParams(3, 5), 5)  # p | 2B


def test_fibonacci_quotient_examples():
    assert fibonacci_quotient(7, 1) == 3  # F_8 = 21 = 3 * 7
    assert fibonacci_quotient(11, 1) == 5  # F_10 = 55 = 5 * 11
    assert fibonacci_quotient(3, 1) == 1  # F_4 = 3
    assert type(fibonacci_quotient(7, 1)) is int
    with pytest.raises(DomainError):
        fibonacci_quotient(5, 1)


def test_fibonacci_quotient_consistency_at_higher_precision():
    for p in (7, 11, 13, 101, 9973):
        q1 = fibonacci_quotient(p, 1)
        q3 = fibonacci_quotient(p, 3)
        assert 0 <= q3 < p**3
        assert q3 % p == q1


def test_fermat_quotient_examples():
    assert fermat_quotient(2, 3, 1) == 1
    assert fermat_quotient(2, 7, 1) == 2  # 63/7 = 9
    assert fermat_quotient(2, 5, 1) == 3  # 15/5
    assert type(fermat_quotient(2, 7, 1)) is int
    with pytest.raises(NotInvertible):
        fermat_quotient(14, 7, 1)


def test_fibonacci_mod_agrees_with_lucas():
    md = Modulus(9973, 2)
    for n in (0, 1, 2, 89, 10**6 + 7):
        assert fibonacci_mod(n, md.m) == lucas_uv_mod(LucasParams(1, -1), n, md)[0]


def test_negative_index_is_refused():
    # F_{-2} = -1, which the ladder on |n| would answer as F_2 = 1.
    for call in (
        lambda: fibonacci_mod(-2, 7),
        lambda: _fib_pair_mod(-1, 7),
        lambda: lucas_uv_mod(LucasParams(1, -1), -1, BIG),
    ):
        with pytest.raises(ValueError):
            call()


def test_quotients_assert_divisibility():
    # At the composite 9, F_8 = 21 and 2^8 - 1 = 255 are not multiples of 9.
    with pytest.raises(NotDivisible):
        fibonacci_quotient(9, 1)
    with pytest.raises(NotDivisible):
        fermat_quotient(2, 9, 1)


def test_exponent_below_one_is_refused():
    for call in (lambda: fibonacci_quotient(7, 0), lambda: fermat_quotient(2, 7, 0)):
        with pytest.raises(ValueError):
            call()


def _exact_fibonacci(n):
    fib = [0, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    return fib


def test_fib_pair_matches_exact_recurrence():
    # 5 | m exercises the exact division by 5 of the L_{2k} ladder mod 5m.
    fib = _exact_fibonacci(401)
    for m in (1, 2, 5, 10, 25, 125, 343, 9973**2, 5 * 9973**3, 999983**2):
        for n in range(401):
            assert _fib_pair_mod(n, m) == (fib[n] % m, fib[n + 1] % m), (n, m)


def test_fibonacci_quotient_matches_exact_value():
    fib = _exact_fibonacci(3001)
    for p in sieve_primes(7, 2999):
        exact = fib[p - jacobi(p, 5)] // p
        for e in (1, 2, 3):
            assert fibonacci_quotient(p, e) == exact % p**e, (p, e)


def test_wss_quotients_match_exact_values():
    fib = _exact_fibonacci(10**4 + 1)
    records = wss_search(10**4)
    assert [rec.p for rec in records] == list(sieve_primes(7, 10**4))
    for rec in records:
        exact = fib[rec.p - jacobi(rec.p, 5)] // rec.p % rec.p
        assert rec.quotient % rec.p == exact and abs(rec.quotient) <= rec.p // 2, rec


def test_fibonacci_quotients_match_the_per_prime_map():
    ps = sieve_primes(7, 2 * 10**5)
    assert list(fibonacci_quotients(ps)) == [fibonacci_quotient(p, 1) for p in ps]


@pytest.mark.parametrize("length", [1, _WSS_BLOCK - 1, _WSS_BLOCK, _WSS_BLOCK + 1, 3 * _WSS_BLOCK + 5])
@pytest.mark.parametrize("first", [0, 1, 7, 1000, 9000])
def test_fibonacci_quotients_of_any_length_from_any_start(first, length):
    # A resume hands over the primes from the one after its last commit.
    ps = sieve_primes(7, 10**5)[first : first + length]
    assert list(fibonacci_quotients(ps)) == [fibonacci_quotient(p, 1) for p in ps]


def test_fibonacci_quotients_at_a_twin_pair_with_one_index():
    # 17 and 19 both have index 18, and F_18 = 2584 = 17 * 152 = 19 * 136.
    assert 17 - jacobi(17, 5) == 19 - jacobi(19, 5) == 18
    assert list(fibonacci_quotients([17, 19])) == [152 % 17, 136 % 19]
    assert list(fibonacci_quotients([7, 11, 13, 17, 19, 23])) == [
        fibonacci_quotient(p, 1) for p in (7, 11, 13, 17, 19, 23)
    ]


def test_fibonacci_quotients_assert_every_prime():
    # 15 is not prime and F_15 = 610 is not divisible by it; it sits
    # inside the first block, after three primes that pass.
    quotients = fibonacci_quotients([7, 11, 13, 15, 17])
    assert [next(quotients) for _ in range(3)] == [3, 5, fibonacci_quotient(13, 1)]
    with pytest.raises(NotDivisible, match="by 15$"):
        next(quotients)


def test_fibonacci_quotients_refuse_small_or_falling_primes():
    assert list(fibonacci_quotients([])) == []
    for ps in ([5, 7], [3]):
        with pytest.raises(ValueError, match=">= 7"):
            list(fibonacci_quotients(ps))
    with pytest.raises(ValueError, match="rise"):
        list(fibonacci_quotients([11, 7]))

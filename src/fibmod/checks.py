"""The check registry: every verified congruence as a named verdict-producer.

Each check evaluates its two sides independently (the sum side through
``binomsums``/``sequences``, the closed-form side from its own formula) at
a declared modulus exponent, and reports a ``Verdict`` with an exact
defect valuation.  Check ids are a stable public contract; renaming one
is a breaking change.

A ``PrimeTables`` store may be passed to ``run_check`` when many checks
run at one prime; it shares the central-binomial residue tables and the
inverse tables between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Callable, NamedTuple

from .binomsums import (
    CentralBinomialSide,
    HarmonicSide,
    PrimeTables,
    SumSide,
    WeightDomain,
    WeightKind,
    _inv_table,
    _residues_from_vu,
    _walk,
    power_over_square_sum,
)
from .modarith import (
    MODULUS_BOUND,
    LucasParams,
    Modulus,
    NegativeValuation,
    NotInvertible,
    is_prime,
    jacobi,
)
from .sequences import (
    DomainError,
    NotDivisible,
    entry_index,
    fermat_quotient,
    fibonacci_mod,
    fibonacci_quotient,
    lucas_uv_mod,
)

DEFAULT_TERM_BUDGET = 1 << 22

FIB = LucasParams(1, -1)


class BudgetExceeded(Exception):
    """The check's main sum is longer than the allowed term budget."""


class CheckError(Exception):
    """An arithmetic error surfaced while evaluating a check."""


class UnknownCheckId(Exception):
    """The requested check id is not in the registry."""


class CheckKind(Enum):
    THEOREM = "THEOREM"
    LEMMA = "LEMMA"
    AUXILIARY = "AUXILIARY"
    CONJECTURE = "CONJECTURE"


class CheckParams(NamedTuple):
    """Parameters of one check evaluation.

    ``m`` parameterizes the base-m sum family, ``n`` the index of the
    3-adic Catalan-ratio conjecture, and (A, B) the Lucas-sequence
    checks (defaulting to the Fibonacci instance).  ``force`` evaluates
    outside the declared domain; ``budget`` caps the sum length.  A
    tuple, not a frozen dataclass, because a scan builds one per row.
    """

    p: int
    a: int = 1
    m: int | None = None
    n: int | None = None
    A: int | None = None
    B: int | None = None
    force: bool = False
    budget: int = DEFAULT_TERM_BUDGET


class Verdict(NamedTuple):
    """Outcome of one check: both sides, and how badly they disagree.

    ``lhs`` and ``rhs`` are ints in [0, p^e), taken at the worst position
    of a termwise check.  ``defect_valuation`` is min(v_p(lhs - rhs), e);
    the check passes exactly when it equals the modulus exponent e.  A
    tuple, like ``CheckParams``; it compares equal to the plain tuple of
    its fields.
    """

    check_id: str
    params: CheckParams
    modulus: Modulus
    lhs: int
    rhs: int
    defect_valuation: int
    passed: bool


Side = Callable[[CheckParams, Modulus, PrimeTables], "int | list[int]"]


@dataclass(frozen=True)
class CheckSpec:
    """Registry entry binding a check id to its statement and domain."""

    id: str
    kind: CheckKind
    description: str
    exponent: Callable[[CheckParams], int]
    exponent_label: str
    domain: Callable[[CheckParams], bool]
    domain_label: str
    lhs: Side
    rhs: Side
    length: Callable[[CheckParams], int]
    index: str | None = None  # "m" or "n": the parameter the check is indexed by


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _half(pr: CheckParams) -> int:
    return (pr.p**pr.a - 1) // 2


def _full(pr: CheckParams) -> int:
    return pr.p**pr.a - 1


def _p_half(pr: CheckParams) -> int:
    return (pr.p - 1) // 2


def _p_full(pr: CheckParams) -> int:
    return pr.p - 1


def _floor_of(num: int, den: int) -> Callable[[CheckParams], int]:
    return lambda pr: num * pr.p**pr.a // den


def _m(pr: CheckParams) -> int:
    return pr.m


def _ab(pr: CheckParams) -> LucasParams:
    return LucasParams(pr.A if pr.A is not None else 1, pr.B if pr.B is not None else -1)


def _fib_sign(pr: CheckParams) -> int:
    # (p^a / 5) as a Jacobi symbol; 0 only at p = 5, which every user of
    # this helper excludes from its domain.
    return jacobi(pr.p, 5) ** pr.a


def _s3(x: int) -> int:
    s = 0
    while x:
        s += x % 3
        x //= 3
    return s


def _v3(x: int) -> int:
    v = 0
    while x % 3 == 0:
        x //= 3
        v += 1
    return v


def _conj11n_valuation(n: int) -> int:
    """v_3 of (2n+1)^2 C(2n,n), via digit sums (no big integers)."""
    carries = (2 * _s3(n) - _s3(2 * n)) // 2
    return 2 * _v3(2 * n + 1) + carries


# ---------------------------------------------------------------------------
# Side evaluators.  Each lhs is a sum computed by the stream machinery;
# each rhs is its closed form.  Neither side is derived from the other.
# ---------------------------------------------------------------------------


# Sums over the free parameter m, shared by several checks and closed forms.
_m_half_sum = SumSide(_m, _half)
_m_half_cat_sum = SumSide(_m, _half, WeightKind.CATALAN)
_m_full_sum = SumSide(_m, _full)

# sum (-1)^k C(2k,k) H_k^(2) and sum (-2)^k C(2k,k) H_k^(2) over k < p.
_h2_alt_sum = SumSide(-1, _p_full, WeightKind.H2, signed=True)
_h2_neg2_sum = SumSide(-2, _p_full, WeightKind.H2, signed=True)

_adamchuk_sum = SumSide(1, lambda pr: 2 * pr.p // 3, signed=True)


def _t1_1_rhs(pr, md, tables):
    sign = _fib_sign(pr)
    f = fibonacci_mod(pr.p**pr.a - sign, md.m)
    return sign * (1 + f * pow(2, -1, md.m)) % md.m


def _t1_2_rhs(pr, md, tables):
    pe = md.m
    t = (pow(2, pr.p**pr.a - 1, pe) - 1) % pe
    s2 = jacobi(2, pr.p) ** pr.a
    return s2 * (1 + t * pow(6, -1, pe) - t * t % pe * pow(8, -1, pe)) % pe


def _t2_main_rhs(pr, md, tables):
    # Every symbol from (m/p) and ((m-4)/p), with (-1/p) = (-1)^((p-1)/2):
    # (m(m-4)/p), (-m/p), and (4-m/p) = (16-4m/p), which picks the entry
    # index p - (delta/p) of u(4, m) and the unit mbar.
    m, p, pe = pr.m, pr.p, md.m
    jm, jm4, j1 = jacobi(m, p), jacobi(m - 4, p), (-1) ** (p // 2)
    j, s4 = jm * jm4, j1 * jm4
    u, _ = lucas_uv_mod(LucasParams(4, m), p - s4, md)
    # mbar is the unit attached to the Lucas term of the base-m sum family,
    # mod pe, from the Legendre symbol s4 = (4-m/p): 1 when s4 = 0
    # (p | m - 4), 2 when s4 = 1, and 2/m when s4 = -1.
    mbar = 1 if s4 == 0 else 2 if s4 == 1 else 2 * pow(m, -1, pe) % pe
    return (j**pr.a + j1 * jm * j ** (pr.a - 1) * mbar % pe * u) % pe


def _t2_cat_rhs(pr, md, tables):
    m, pe = pr.m, md.m
    s = _m_half_sum(pr, md, tables)
    inv2 = (pe + 1) // 2
    delta = 2 * pr.p * (-1) ** (pr.p // 2) * jacobi(m, pr.p) if pr.a == 1 else 0
    return ((4 - m) * inv2 % pe * s + m * inv2 - delta) % pe


def _symbol_rhs(q: int) -> Side:
    """The closed form (q/p^a) = (q/p)^a, a Jacobi symbol."""
    return lambda pr, md, tables: jacobi(q, pr.p) ** pr.a % md.m


def _c1_2_rhs(pr, md, tables):
    p, pe = pr.p, md.m
    closed = jacobi(-1, p) * (3 * jacobi(p, 3) + 1) % pe * pow(4, -1, pe) % pe
    inv2 = pow(2, -1, pe)
    table = {1: 1 % pe, 5: -inv2 % pe, 7: pe - 1, 11: inv2}
    if p % 12 not in table:
        # Only p = 3, outside the domain: (p/3) = 0 there.
        raise ValueError(f"the mod-12 case table has no entry for p = {p}")
    return [closed, table[p % 12]]


def _basic_p_rhs(pr, md, tables):
    return jacobi(pr.m * (pr.m - 4), pr.p) ** pr.a % md.m


def _williams_lhs(pr, md, tables):
    return fibonacci_quotient(pr.p, md.e)


def _pansun_rhs(pr, md, tables):
    sign = _fib_sign(pr)
    f = fibonacci_mod(pr.p**pr.a - sign, md.m)
    return sign * (1 - 2 * f) % md.m


def _adamchuk_lhs(pr, md, tables):
    # The conjectured sum starts at k = 1; drop the k = 0 term.
    return (_adamchuk_sum(pr, md, tables) - 1) % md.m


def _adamchuk_rhs(pr, md, tables):
    return 0


def _l2_1_lhs(pr, md, tables):
    """binom((p^a-1)/2 + k, 2k) - C(2k,k)/(-16)^k for every k, as a list."""
    p, e, pe = pr.p, md.e, md.m
    n = _half(pr)
    cb = _residues_from_vu(md, n, tables)
    x = pow(-16 % pe, -1, pe)
    out = [0]  # both binomials are 1 at k = 0
    xk = 1
    # binom(n+k, 2k) = binom(n+k-1, 2k-2) (k+n)(n+1-k) / ((2k)(2k-1)).
    for v, us in _walk(md, (((1, n), (-1, n + 1)), ((2, 0), (2, -1))), 1, n, 0, 1):
        pv = p**v if v < e else 0
        for u in us:
            xk = xk * x % pe
            out.append((u * pv - cb[len(out)] * xk) % pe)
    return out


def _l2_1_rhs(pr, md, tables):
    """(-1)^(k-1) (-1/p^a) binom(p^a-1-2k, (p^a-1)/2-k) T_k with
    T_k = sum_{0<j<=k} p^(2a)/(2j-1)^2; the second binomial is the
    central binomial at index (p^a-1)/2 - k."""
    p, e, pe = pr.p, md.e, md.m
    a = pr.a
    n = _half(pr)
    cb = _residues_from_vu(md, n, tables)
    sgn = jacobi(-1, p) ** a
    out = [0] * (n + 1)
    t_acc = 0
    for k in range(1, n + 1):
        # Accumulate p^(2a)/(2k-1)^2 exactly: strip p from 2k-1 first.
        odd = 2 * k - 1
        w = 0
        while odd % p == 0:
            odd //= p
            w += 1
        vterm = 2 * a - 2 * w
        if vterm < e:
            inv_sq = pow(odd % pe, -2, pe)
            t_acc = (t_acc + p**vterm * inv_sq) % pe
        rb = cb[n - k]
        val = sgn * rb % pe * t_acc % pe
        out[k] = val if k % 2 else (-val) % pe
    return out


def _l2_2a_lhs(pr, md, tables):
    pe = md.m
    t = (pow(2, pr.p**pr.a - 1, pe) - 1) % pe
    return (1 + t * pow(6, -1, pe) + t * t % pe * pow(24, -1, pe)) % pe


def _l2_2a_rhs(pr, md, tables):
    pa, pe = pr.p**pr.a, md.m
    s2 = jacobi(2, pr.p) ** pr.a
    denom = 3 * pow(2, (pa - 1) // 2, pe) % pe
    return s2 * (pow(2, pa, pe) + 1) % pe * pow(denom, -1, pe) % pe


def _l2_2b_lhs(pr, md, tables):
    pe = md.m
    f, lu = lucas_uv_mod(FIB, pr.p**pr.a, md)
    return ((lu - 1) * pow(5, -1, pe) - _fib_sign(pr) * f + 1) % pe


def _l2_2b_rhs(pr, md, tables):
    pe = md.m
    f = fibonacci_mod(pr.p**pr.a - _fib_sign(pr), pe)
    return -f * f % pe * pow(2, -1, pe) % pe


def _l2_3a_rhs(pr, md, tables):
    pe = md.m
    q = fibonacci_quotient(pr.p, md.e)
    return jacobi(pr.p, 5) * 5 % pe * pow(2, -1, pe) % pe * q % pe * q % pe


def _fermat_square_rhs(num: int, den: int) -> Side:
    """The closed form (num/den) q_p(2)^2, q_p(2) the Fermat quotient of 2."""
    return lambda pr, md, tables: (
        num * pow(den, -1, md.m) * fermat_quotient(2, pr.p, md.e) ** 2 % md.m
    )


def _mt_26_rhs(pr, md, tables):
    p, pe = pr.p, md.m
    inv = _inv_table(p, pe, p - 1, tables)
    acc = 0
    f, g = 0, 1  # (F_{2k}, F_{2k+1})
    for k in range(1, p):
        f, g = g, f + g
        f, g = g % pe, (f + g) % pe
        acc = (acc + f * inv[k] % pe * inv[k]) % pe
    return -2 * acc % pe


def _mt_27_rhs(pr, md, tables):
    # -2 sum u_k/k^2 with u_k = 2(2^k - 2^-k)/3, split into two power sums.
    pe = md.m
    s2 = power_over_square_sum(2, 1, md, tables)
    s_half = power_over_square_sum(1, 2, md, tables)
    return -4 * pow(3, -1, pe) * (s2 - s_half) % pe


def _over_squares(num: int, den: int) -> Side:
    """The side sum_{0<k<p} (num/den)^k / k^2."""
    return lambda pr, md, tables: power_over_square_sum(num, den, md, tables)


def _aux_st_lhs(pr, md, tables):
    return 2 * (lucas_uv_mod(FIB, pr.p, md)[1] - 1) % md.m


def _aux_st_rhs(pr, md, tables):
    return 5 * fibonacci_mod(pr.p - jacobi(pr.p, 5), md.m) % md.m


def _aux_ss_lhs(pr, md, tables):
    return lucas_uv_mod(FIB, pr.p - jacobi(5, pr.p), md)[1]


def _aux_ss_rhs(pr, md, tables):
    return 2 * jacobi(pr.p, 5) % md.m


def _v_cong_a_lhs(pr, md, tables):
    return lucas_uv_mod(_ab(pr), pr.p, md)[1]


def _v_cong_a_rhs(pr, md, tables):
    return _ab(pr).A % md.m


def _l3_2_lhs(pr, md, tables):
    return lucas_uv_mod(_ab(pr), pr.p, md)[0]


def _l3_2_rhs(pr, md, tables):
    ab = _ab(pr)
    p, pe = pr.p, md.m
    jd = jacobi(ab.delta, p)
    un, _ = lucas_uv_mod(ab, entry_index(ab, p), md)
    bpow = 1 if jd == 1 else pow(ab.B % pe, -1, pe)
    inv2 = pow(2, -1, pe)
    return (ab.A * inv2 % pe * bpow % pe * un + jd * (pow(ab.B % pe, p - 1, pe) + 1) * inv2) % pe


def _l3_3_lhs(pr, md, tables):
    # C(2k, k+1) = C(2k,k) - C_k termwise.
    return (_m_half_sum(pr, md, tables) - _m_half_cat_sum(pr, md, tables)) % md.m


def _l3_3_rhs(pr, md, tables):
    m, pe = pr.m, md.m
    s = _m_half_sum(pr, md, tables)
    inv2 = pow(2, -1, pe)
    delta = 2 * pr.p * jacobi(-m, pr.p) if pr.a == 1 else 0
    return ((m - 2) * inv2 % pe * s - m * inv2 + delta) % pe


def _p4_1_lhs(k_sum: SumSide) -> Side:
    """The side (m - 4)/2 times the k-weighted sum ``k_sum``."""
    return lambda pr, md, tables: (pr.m - 4) * pow(2, -1, md.m) * k_sum(pr, md, tables) % md.m


def _p4_1a_rhs(pr, md, tables):
    return (
        _m_half_sum(pr, md, tables)
        - pr.p**pr.a * jacobi(-pr.m, pr.p) ** pr.a
    ) % md.m


def _p4_1b_rhs(pr, md, tables):
    return (_m_full_sum(pr, md, tables) - pr.p**pr.a) % md.m


def _e4_4_rhs(pr, md, tables):
    return (pr.p - jacobi(-1, pr.p)) % md.m


def _e4_5_rhs(pr, md, tables):
    return (2 * pr.p - 2 * jacobi(pr.p, 3)) % md.m


def _e4_6_rhs(pr, md, tables):
    pe = md.m
    return jacobi(2, pr.p) * (1 - jacobi(-1, pr.p) * pr.p) % pe * pow(2, -1, pe) % pe


def _e4_7_rhs(pr, md, tables):
    pe = md.m
    return (jacobi(3, pr.p) - jacobi(-1, pr.p) * pr.p) % pe * pow(6, -1, pe) % pe


def _morley_rhs(pr, md, tables):
    return jacobi(-1, pr.p) * pow(4, pr.p - 1, md.m) % md.m


def _conj11n_rhs(pr, md, tables):
    # Independent arbitrary-precision route for the closed side.
    n = pr.n
    target = 1 if n % 3 == 0 else 4
    return (2 * n + 1) ** 2 * comb(2 * n, n) % md.m * target % md.m


def _conj11a_rhs(pr, md, tables):
    return 9**pr.a * ((-1) ** pr.a * 10) % md.m


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------


def _spec(
    id: str,
    kind: CheckKind,
    description: str,
    lhs: Side,
    rhs: Side,
    *,
    e: int | None = None,
    exponent: Callable[[CheckParams], int] | None = None,
    exponent_label: str | None = None,
    domain: Callable[[CheckParams], bool] | None = None,
    domain_label: str = "odd p",
    length: Callable[[CheckParams], int] | None = None,
    index: str | None = None,
) -> CheckSpec:
    if exponent is None:
        exponent = lambda pr, _e=e: _e
        exponent_label = exponent_label or str(e)
    return CheckSpec(
        id=id,
        kind=kind,
        description=description,
        exponent=exponent,
        exponent_label=exponent_label or "",
        domain=domain or (lambda pr: True),
        domain_label=domain_label,
        lhs=lhs,
        rhs=rhs,
        length=length or getattr(lhs, "upper", None) or getattr(rhs, "upper", lambda pr: 0),
        index=index,
    )


# Domains shared by several checks, each with its label; splat into _spec.
_COPRIME_M = {
    "domain": lambda pr: pr.m is not None and pr.m % pr.p != 0,
    "domain_label": "gcd(m, p) = 1",
    "index": "m",
}
_P_GT_3_A1 = {"domain": lambda pr: pr.p > 3 and pr.a == 1, "domain_label": "p > 3, a = 1"}
_P_GT_5_A1 = {"domain": lambda pr: pr.p > 5 and pr.a == 1, "domain_label": "p > 5, a = 1"}
_P_NOT_5 = {"domain": lambda pr: pr.p != 5, "domain_label": "p not in {2, 5}"}
_P_NOT_5_A1 = {
    "domain": lambda pr: pr.p != 5 and pr.a == 1,
    "domain_label": "p not in {2, 5}, a = 1",
}


_REGISTRY: tuple[CheckSpec, ...] = (
    _spec(
        "T1_1",
        CheckKind.THEOREM,
        "half-range sum of C(2k,k)/(-16)^k determines the Fibonacci entry term mod p^3",
        SumSide(-16, _half),
        _t1_1_rhs,
        e=3,
        **_P_NOT_5,
    ),
    _spec(
        "T1_2",
        CheckKind.THEOREM,
        "half-range sum of C(2k,k)/(-32)^k against a Fermat-quotient polynomial mod p^3",
        SumSide(-32, _half),
        _t1_2_rhs,
        e=3,
        domain=lambda pr: pr.p != 3,
        domain_label="p != 3",
    ),
    _spec(
        "T2_MAIN",
        CheckKind.THEOREM,
        "half-range sum of C(2k,k)/m^k via the Lucas sequence u(4,m) mod p^2",
        _m_half_sum,
        _t2_main_rhs,
        e=2,
        **_COPRIME_M,
    ),
    _spec(
        "T2_CAT",
        CheckKind.THEOREM,
        "half-range Catalan sum C_k/m^k reduced to the plain sum mod p^2",
        _m_half_cat_sum,
        _t2_cat_rhs,
        e=2,
        **_COPRIME_M,
    ),
    _spec(
        "C1_1_8",
        CheckKind.THEOREM,
        "half-range sum of C(2k,k)/8^k equals the Jacobi symbol (2/p^a) mod p^2",
        SumSide(8, _half),
        _symbol_rhs(2),
        e=2,
    ),
    _spec(
        "C1_1_16",
        CheckKind.THEOREM,
        "half-range sum of C(2k,k)/16^k equals the Jacobi symbol (3/p^a) mod p^2",
        SumSide(16, _half),
        _symbol_rhs(3),
        e=2,
    ),
    _spec(
        "C1_2",
        CheckKind.THEOREM,
        "sum of C(2k,k)/((2k-1)^2 16^k) equals (-1/p)(3(p/3)+1)/4 mod p^2, "
        "cross-checked against the mod-12 case table",
        SumSide(16, _p_half, WeightKind.INV_2KM1_SQ),
        _c1_2_rhs,
        e=2,
        **_P_GT_3_A1,
    ),
    _spec(
        "BASIC_P",
        CheckKind.AUXILIARY,
        "half-range sum of C(2k,k)/m^k reduces to the Jacobi symbol (m(m-4)/p^a) mod p",
        _m_half_sum,
        _basic_p_rhs,
        e=1,
        **_COPRIME_M,
    ),
    _spec(
        "WILLIAMS",
        CheckKind.AUXILIARY,
        "Fibonacci quotient as (2/5) times the alternating harmonic sum to floor(4p/5) mod p",
        _williams_lhs,
        HarmonicSide(lambda pr: 4 * pr.p // 5, 2, 5),
        e=1,
        **_P_NOT_5_A1,
    ),
    _spec(
        "PANSUN",
        CheckKind.AUXILIARY,
        "full-range alternating sum of C(2k,k) determines the Fibonacci entry term mod p^3",
        SumSide(-1, _full, signed=True),
        _pansun_rhs,
        e=3,
        **_P_NOT_5,
    ),
    _spec(
        "ADAMCHUK",
        CheckKind.CONJECTURE,
        "sum of C(2k,k) for 1 <= k <= floor(2p/3) vanishes mod p^2 when p = 1 (mod 3)",
        _adamchuk_lhs,
        _adamchuk_rhs,
        e=2,
        domain=lambda pr: pr.p % 3 == 1 and pr.a == 1,
        domain_label="p = 1 (mod 3), a = 1",
        length=_adamchuk_sum.upper,
    ),
    _spec(
        "L2_1",
        CheckKind.LEMMA,
        "termwise: binom((p^a-1)/2+k, 2k) - C(2k,k)/(-16)^k against the odd-square "
        "tail sum, for every k, mod p^3",
        _l2_1_lhs,
        _l2_1_rhs,
        e=3,
        length=_half,
    ),
    _spec(
        "L2_2A",
        CheckKind.LEMMA,
        "quadratic in 2^(p^a-1)-1 equals (2/p^a)(2^(p^a)+1)/(3*2^((p^a-1)/2)) mod p^3 "
        "(corrected numerator: 2^(p^a+1) disagrees with direct computation)",
        _l2_2a_lhs,
        _l2_2a_rhs,
        e=3,
        domain=lambda pr: pr.p > 3,
        domain_label="p > 3",
    ),
    _spec(
        "L2_2B",
        CheckKind.LEMMA,
        "Lucas/Fibonacci expression equals -F^2/2 at the entry index mod p^4",
        _l2_2b_lhs,
        _l2_2b_rhs,
        e=4,
        **_P_NOT_5,
    ),
    _spec(
        "L2_3A",
        CheckKind.LEMMA,
        "alternating C(2k,k) H_k^(2) sum equals (p/5)(5/2)q^2 mod p, q the Fibonacci quotient",
        _h2_alt_sum,
        _l2_3a_rhs,
        e=1,
        # The suite runs p > 5 only: direct evaluation at p = 3 gives
        # lhs = 1, rhs = 2 (mod 3), a pinned anomaly reachable via force.
        **_P_GT_5_A1,
    ),
    _spec(
        "L2_3B",
        CheckKind.LEMMA,
        "(-2)^k C(2k,k) H_k^(2) sum equals (2/3) q_p(2)^2 mod p",
        _h2_neg2_sum,
        _fermat_square_rhs(2, 3),
        e=1,
        **_P_GT_3_A1,
    ),
    _spec(
        "MT_26",
        CheckKind.AUXILIARY,
        "alternating C(2k,k) H_k^(2) sum equals -2 sum F_{2k}/k^2 mod p",
        _h2_alt_sum,
        _mt_26_rhs,
        e=1,
        **_P_GT_5_A1,
    ),
    _spec(
        "MT_27",
        CheckKind.AUXILIARY,
        "(-2)^k C(2k,k) H_k^(2) sum equals -2 sum of (2(2^k - 2^-k)/3)/k^2 mod p",
        _h2_neg2_sum,
        _mt_27_rhs,
        e=1,
        **_P_GT_3_A1,
    ),
    _spec(
        "AUX_GRANVILLE",
        CheckKind.AUXILIARY,
        "sum 2^k/k^2 equals -q_p(2)^2 mod p",
        _over_squares(2, 1),
        _fermat_square_rhs(-1, 1),
        e=1,
        **_P_GT_3_A1,
        length=_p_full,
    ),
    _spec(
        "AUX_S08",
        CheckKind.AUXILIARY,
        "sum 1/(k^2 2^k) equals -q_p(2)^2/2 mod p",
        _over_squares(1, 2),
        _fermat_square_rhs(-1, 2),
        e=1,
        **_P_GT_3_A1,
        length=_p_full,
    ),
    _spec(
        "AUX_ST",
        CheckKind.AUXILIARY,
        "2(L_p - 1) equals 5 F_{p-(p/5)} mod p^2",
        _aux_st_lhs,
        _aux_st_rhs,
        e=2,
        **_P_NOT_5_A1,
    ),
    _spec(
        "AUX_SS",
        CheckKind.AUXILIARY,
        "L_{p-(5/p)} equals 2(p/5) mod p^2",
        _aux_ss_lhs,
        _aux_ss_rhs,
        e=2,
        **_P_NOT_5_A1,
    ),
    _spec(
        "V_CONG_A",
        CheckKind.AUXILIARY,
        "companion value v_p(A,B) is congruent to A mod p",
        _v_cong_a_lhs,
        _v_cong_a_rhs,
        e=1,
        domain=lambda pr: pr.a == 1,
        domain_label="odd p, a = 1; any (A, B)",
    ),
    _spec(
        "L3_2",
        CheckKind.LEMMA,
        "u_p(A,B) from the entry term plus (delta/p)(B^(p-1)+1)/2 mod p^2",
        _l3_2_lhs,
        _l3_2_rhs,
        e=2,
        domain=lambda pr: pr.a == 1
        and (2 * _ab(pr).B * _ab(pr).delta) % pr.p != 0,
        domain_label="p does not divide 2 B delta, a = 1",
    ),
    _spec(
        "L3_3",
        CheckKind.LEMMA,
        "sum of C(2k,k+1)/m^k reduced to the plain sum mod p^2",
        _l3_3_lhs,
        _l3_3_rhs,
        e=2,
        **_COPRIME_M,
        length=_half,
    ),
    _spec(
        "P4_1A",
        CheckKind.THEOREM,
        "half-range k-weighted sum against the plain sum minus p^a (-m/p^a), mod p^(a+1)",
        _p4_1_lhs(SumSide(_m, _half, WeightKind.LINEAR_K)),
        _p4_1a_rhs,
        exponent=lambda pr: pr.a + 1,
        exponent_label="a+1",
        **_COPRIME_M,
        length=_half,
    ),
    _spec(
        "P4_1B",
        CheckKind.THEOREM,
        "full-range k-weighted sum against the plain sum minus p^a, mod p^(a+1)",
        _p4_1_lhs(SumSide(_m, _full, WeightKind.LINEAR_K)),
        _p4_1b_rhs,
        exponent=lambda pr: pr.a + 1,
        exponent_label="a+1",
        **_COPRIME_M,
        length=_full,
    ),
    _spec(
        "E4_4",
        CheckKind.THEOREM,
        "full-range sum k C(2k,k)/2^k equals p - (-1/p) mod p^2",
        SumSide(2, _p_full, WeightKind.LINEAR_K),
        _e4_4_rhs,
        e=2,
        **_P_GT_3_A1,
    ),
    _spec(
        "E4_5",
        CheckKind.THEOREM,
        "full-range sum k C(2k,k)/3^k equals 2p - 2(p/3) mod p^2",
        SumSide(3, _p_full, WeightKind.LINEAR_K),
        _e4_5_rhs,
        e=2,
        **_P_GT_3_A1,
    ),
    _spec(
        "E4_6",
        CheckKind.THEOREM,
        "half-range sum k C(2k,k)/8^k equals (2/p)(1 - (-1/p) p)/2 mod p^2",
        SumSide(8, _p_half, WeightKind.LINEAR_K),
        _e4_6_rhs,
        e=2,
        **_P_GT_3_A1,
    ),
    _spec(
        "E4_7",
        CheckKind.THEOREM,
        "half-range sum k C(2k,k)/16^k equals ((3/p) - (-1/p) p)/6 mod p^2",
        SumSide(16, _p_half, WeightKind.LINEAR_K),
        _e4_7_rhs,
        e=2,
        **_P_GT_3_A1,
    ),
    _spec(
        "MORLEY",
        CheckKind.AUXILIARY,
        "Morley's congruence: C(p-1,(p-1)/2) equals (-1)^((p-1)/2) 4^(p-1) mod p^3",
        CentralBinomialSide(_p_half),
        _morley_rhs,
        e=3,
        **_P_GT_3_A1,
    ),
    _spec(
        "CONJ1_1N",
        CheckKind.CONJECTURE,
        "sum_{k<=n} C(2k,k)/16^k equals (2n+1)^2 C(2n,n) times (1 or 4 per 3|n), "
        "compared 3-adically at exponent v+2",
        SumSide(16, lambda pr: pr.n),
        _conj11n_rhs,
        exponent=lambda pr: _conj11n_valuation(pr.n) + 2,
        exponent_label="v+2",
        domain=lambda pr: pr.p == 3 and pr.n is not None,
        domain_label="p = 3, indexed by n",
        index="n",
    ),
    _spec(
        "CONJ1_1A",
        CheckKind.CONJECTURE,
        "sum to (3^a-1)/2 of C(2k,k)/16^k equals 9^a (-1)^a 10 mod 3^(2a+3)",
        SumSide(16, lambda pr: (3**pr.a - 1) // 2),
        _conj11a_rhs,
        exponent=lambda pr: 2 * pr.a + 3,
        exponent_label="2a+3",
        domain=lambda pr: pr.p == 3,
        domain_label="p = 3, indexed by a",
    ),
    _spec(
        "CONJ1_2_I",
        CheckKind.CONJECTURE,
        "sum to floor(5 p^a/6) of C(2k,k)/16^k equals (3/p^a) mod p^2",
        SumSide(16, _floor_of(5, 6)),
        _symbol_rhs(3),
        e=2,
        domain=lambda pr: pr.p % 3 == 1 or pr.a > 1,
        domain_label="p = 1 (mod 3) or a > 1",
    ),
    _spec(
        "CONJ1_2_II_45",
        CheckKind.CONJECTURE,
        "alternating C(2k,k) sum to floor(4 p^a/5) equals (5/p^a) mod p^2",
        SumSide(-1, _floor_of(4, 5), signed=True),
        _symbol_rhs(5),
        e=2,
        # p = 5 is excluded: there the Jacobi symbol vanishes and the sum
        # does not (already at a = 2), so the stated a > 1 branch cannot
        # be meant to include it.
        domain=lambda pr: pr.p != 5
        and (pr.p**pr.a % 5 in (1, 2) or (pr.a > 1 and pr.p % 5 != 3)),
        domain_label="p^a = 1,2 (mod 5), or a > 1 and p != 3 (mod 5); p != 5",
    ),
    _spec(
        "CONJ1_2_II_35",
        CheckKind.CONJECTURE,
        "alternating C(2k,k) sum to floor(3 p^a/5) equals (5/p^a) mod p^2",
        SumSide(-1, _floor_of(3, 5), signed=True),
        _symbol_rhs(5),
        e=2,
        domain=lambda pr: pr.p != 5
        and (pr.p**pr.a % 5 in (1, 3) or (pr.a > 1 and pr.p % 5 != 2)),
        domain_label="p^a = 1,3 (mod 5), or a > 1 and p != 2 (mod 5); p != 5",
    ),
    _spec(
        "CONJ1_2_III_710",
        CheckKind.CONJECTURE,
        "sum to floor(7 p^a/10) of C(2k,k)/(-16)^k equals (5/p^a) mod p^2",
        SumSide(-16, _floor_of(7, 10)),
        _symbol_rhs(5),
        e=2,
        domain=lambda pr: pr.p % 10 in (1, 7) or pr.a > 2,
        domain_label="p = 1,7 (mod 10) or a > 2",
    ),
    _spec(
        "CONJ1_2_III_910",
        CheckKind.CONJECTURE,
        "sum to floor(9 p^a/10) of C(2k,k)/(-16)^k equals (5/p^a) mod p^2",
        SumSide(-16, _floor_of(9, 10)),
        _symbol_rhs(5),
        e=2,
        domain=lambda pr: pr.p % 10 in (1, 3) or pr.a > 2,
        domain_label="p = 1,3 (mod 10) or a > 2",
    ),
)

_REGISTRY_BY_ID = {spec.id: spec for spec in _REGISTRY}


def list_checks() -> tuple[CheckSpec, ...]:
    """The full registry, in stable order with stable ids."""
    return _REGISTRY


def get_check(check_id: str) -> CheckSpec:
    try:
        return _REGISTRY_BY_ID[check_id]
    except KeyError:
        raise UnknownCheckId(f"no check registered under id {check_id!r}") from None


# ---------------------------------------------------------------------------
# Running checks.
# ---------------------------------------------------------------------------


def _compare(lhs, rhs, md: Modulus) -> tuple[int, int, int]:
    """Defect valuation plus the (lhs, rhs) pair at the worst position.

    A side is an int or a list of ints; an int is compared with every
    entry of a list on the other side.  Two ints that agree, the common
    row, return at once with what the loop would give.
    """
    p, e, pe = md.p, md.e, md.m
    if type(lhs) is int and type(rhs) is int and (lhs - rhs) % pe == 0:
        return e, lhs, rhs
    lhs_list = lhs if isinstance(lhs, list) else [lhs] * (len(rhs) if isinstance(rhs, list) else 1)
    rhs_list = rhs if isinstance(rhs, list) else [rhs] * len(lhs_list)
    if len(lhs_list) != len(rhs_list):
        raise CheckError("side evaluators disagree on arity")
    worst = e
    worst_pair = (lhs_list[-1], rhs_list[-1])
    for l, r in zip(lhs_list, rhs_list):
        d = (l - r) % pe
        if d == 0:
            continue
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        if v < worst:
            worst = v
            worst_pair = (l, r)
            if worst == 0:
                break
    return worst, worst_pair[0], worst_pair[1]


def _verdict(check_id: str, params: CheckParams, md: Modulus, lhs, rhs) -> Verdict:
    defect, l, r = _compare(lhs, rhs, md)
    return Verdict(check_id, params, md, l % md.m, r % md.m, defect, defect == md.e)


def check_request(check_id: str, params: CheckParams) -> CheckSpec:
    """The spec of ``check_id`` once the request is well formed.

    Raises ``UnknownCheckId`` for an id not in the registry, and
    ``DomainError`` when p is not an odd prime that ``is_prime`` decides,
    a < 1, n < 0, or the parameter the check is indexed by is missing: no
    check runs there, forced or not.  It also raises ``DomainError`` when
    p^e reaches the ``Modulus`` bound at a request that ``evaluates``;
    elsewhere the request is a SKIP, and its sides are never evaluated.
    """
    spec = get_check(check_id)
    p = params.p
    try:
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise DomainError(f"p must be an odd prime, got {p}")
    except ValueError as exc:  # p past the range where is_prime is exact
        raise DomainError(str(exc)) from None
    if params.a < 1:
        raise DomainError(f"a must be >= 1, got {params.a}")
    if params.n is not None and params.n < 0:
        raise DomainError(f"n must be >= 0, got {params.n}")
    if spec.index is not None and getattr(params, spec.index) is None:
        raise DomainError(f"check {check_id} requires parameter {spec.index}")
    e = spec.exponent(params)
    if p**e >= MODULUS_BOUND and evaluates(spec, params):
        raise DomainError(f"{check_id} needs p^e = {p}^{e}, past the 2^62 modulus bound")
    return spec


def evaluates(spec: CheckSpec, params: CheckParams) -> bool:
    """Whether ``run_check`` evaluates the sides of ``spec`` at ``params``:
    where forced, or in the domain and within the budget."""
    return params.force or (spec.domain(params) and spec.length(params) <= params.budget)


def run_check(
    check_id: str,
    params: CheckParams,
    tables: PrimeTables | None = None,
) -> Verdict:
    """Evaluate both sides of a registered check and compare them.

    Raises what ``check_request`` raises for a malformed request, then
    ``DomainError`` when the parameters fall outside the check's
    declared domain (unless ``force`` is set), ``BudgetExceeded`` when the
    sum is longer than the term budget, and ``CheckError`` when a side
    cannot be evaluated (for example a forced evaluation that divides by
    p, or a forced Fibonacci quotient at p = 5).  Checks run with one
    ``tables`` store share their residue tables; without one, the check
    gets a fresh store.  A side that the store's ``sides`` holds for this
    check and ``params`` is read from there instead of evaluated.

    Nothing but the domain, the budget and the sides depends on m, so the
    store's ``requests`` keeps the spec and ``Modulus`` of each request
    that evaluated, under the check id and every field of ``params`` but
    m; the rows of one (check, p, a) at other m validate only what
    depends on m.  A refused request is never kept.
    """
    p, a, m, n, A, B, force, budget = params
    tables = PrimeTables() if tables is None else tables
    key = (check_id, p, a, n, A, B, force, budget)
    request = tables.requests.get(key)
    if request is None:
        spec = check_request(check_id, params)
    else:
        spec, md = request
        if m is None and spec.index == "m":
            check_request(check_id, params)  # raises its "requires parameter m"
    if not evaluates(spec, params):
        if not spec.domain(params):
            raise DomainError(
                f"params (p={p}, a={a}, m={m}, n={n}) are outside "
                f"the domain of {check_id} [{spec.domain_label}]"
            )
        raise BudgetExceeded(
            f"{check_id} at p={p}, a={a} needs {spec.length(params)} terms, budget is {budget}"
        )
    if request is None:
        md = Modulus(p, spec.exponent(params))
        tables.requests[key] = spec, md
    given = tables.sides
    try:
        lhs = given.get((check_id, "lhs", params)) if given else None
        if lhs is None:
            lhs = spec.lhs(params, md, tables)
        rhs = given.get((check_id, "rhs", params)) if given else None
        if rhs is None:
            rhs = spec.rhs(params, md, tables)
    except (
        DomainError,
        NotInvertible,
        NegativeValuation,
        NotDivisible,
        WeightDomain,
        ValueError,  # a raw pow(x, -1, m) or a missing case on a forced evaluation
    ) as exc:
        raise CheckError(f"{check_id} at p={p}: {exc}") from exc
    return _verdict(check_id, params, md, lhs, rhs)


def run_conj11n_range(n_max: int, budget: int = DEFAULT_TERM_BUDGET) -> list[Verdict]:
    """Verdicts of CONJ1_1N for every n in 0..n_max, in one stream pass.

    All sums share a single accumulation at the largest needed 3-adic
    precision; each n is then compared at its own exponent.  The closed
    side takes C(2n,n) exactly, as C(2n-2,n-1) (4n-2)/n, not from the
    sum's stream.  Agreement with per-n ``run_check`` calls is pinned by
    tests.  A negative ``n_max`` is refused as ``check_request`` refuses
    a negative n.
    """
    check_request("CONJ1_1N", CheckParams(p=3, n=n_max, budget=budget))
    if n_max > budget:
        raise BudgetExceeded(f"n_max = {n_max} exceeds budget {budget}")
    e_top = max(_conj11n_valuation(n) + 2 for n in range(n_max + 1))
    top = Modulus(3, e_top)
    pe_top = top.m
    inv16 = pow(16, -1, pe_top)
    verdicts = []
    s = 0
    xk = 1
    c = 1
    for n, t in enumerate(_residues_from_vu(top, n_max, PrimeTables())):
        s = (s + t * xk) % pe_top
        xk = xk * inv16 % pe_top
        c = c * (4 * n - 2) // n if n else 1
        md = Modulus(3, _conj11n_valuation(n) + 2)
        rhs = (2 * n + 1) ** 2 * c % md.m * (1 if n % 3 == 0 else 4) % md.m
        verdicts.append(_verdict("CONJ1_1N", CheckParams(p=3, n=n, budget=budget), md, s, rhs))
    return verdicts

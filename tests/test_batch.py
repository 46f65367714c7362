"""The scan's batched values against the per-prime walk and an exact oracle.

A constant-base ``SumSide``'s ``batch`` evaluates its sum at many primes
at once by a remainder tree.  Every value it gives must equal
``central_sum`` with a store of its own, and every entry it leaves out
must be one of the cases that stay on the walk; the same holds for the
tree's central binomials and alternating harmonic sums.
``sums_at_bases`` evaluates the sums over many bases m at one prime by a
transform, and must equal ``central_sum`` at every base prime to p.  A
scan whose stores give these values must give the rows each check gives
alone.
"""

import pickle
from fractions import Fraction
from math import comb

import pytest

from fibmod import binomsums
from fibmod.binomsums import (
    _RATIOS,
    PrimeTables,
    WeightDomain,
    WeightKind,
    _residues_from_vu,
    alternating_harmonic,
    central_sum,
    sums_at_bases,
)
from fibmod.checks import (
    BudgetExceeded,
    CentralBinomialSide,
    CheckError,
    CheckParams,
    HarmonicSide,
    SumSide,
    evaluates,
    get_check,
    list_checks,
    run_check,
)
from fibmod.modarith import ModArithError, Modulus, NegativeValuation
from fibmod.scanner import (
    AllSmall,
    MList,
    Sample,
    ScanRequest,
    _batch_groups,
    _m_values,
    scan,
    sieve_primes,
    verdict_row,
)
from fibmod.sequences import DomainError
from oracles import residue
from test_sum_oracle import oracle

PRIMES = sieve_primes(3, 3000)
BASES = (-35, 6)  # negative, and multiples of 2, 3, 5 and 7

# The first k >= 1 at which p divides a denominator factor of the ratio.
_FIRST_BAD_K = {
    WeightKind.NONE: lambda p: p,  # k
    WeightKind.CATALAN: lambda p: p - 1,  # k + 1
    WeightKind.LINEAR_K: lambda p: p + 1,  # k - 1
    WeightKind.INV_2KM1_SQ: lambda p: (p + 1) // 2,  # k (2k - 1)
}


def _left_out(weight, base, signed, p, upper):
    if upper < len(_RATIOS[weight][0]) or (not signed and base % p == 0):
        return True
    if weight is WeightKind.INV_2KM1_SQ and upper > (p - 1) // 2:
        return True
    return upper >= _FIRST_BAD_K[weight](p)


def _entries(primes):
    # Mixed exponents and three uppers per prime, so one tree holds several
    # moduli of one prime and uppers that are not sorted by prime.
    return [
        (p, upper, 1 + p % 3)
        for p in primes
        for upper in ((p - 1) // 2, p - 1, 2 * p // 3)
    ]


@pytest.mark.parametrize("weight", list(_RATIOS))
def test_batch_matches_the_walk(weight):
    entries = _entries(PRIMES)
    stores = {}  # one store per (p, e) that no batch has touched
    batched = 0
    for signed in (False, True):
        for base in BASES:
            got = SumSide(base, None, weight, signed).batch(entries)
            assert len(got) == len(entries)
            for (p, upper, e), value in zip(entries, got):
                if _left_out(weight, base, signed, p, upper):
                    assert value is None, (base, signed, p, upper)
                    continue
                tables = stores.setdefault((p, e), PrimeTables())
                want = central_sum(base, upper, Modulus(p, e), weight, signed=signed, tables=tables)
                assert value == want, (base, signed, p, upper, e)
                batched += 1
    assert batched > len(entries)


@pytest.mark.parametrize("weight", list(_RATIOS))
def test_batch_matches_the_fraction_oracle(weight):
    entries = _entries(sieve_primes(3, 41)) + [(5, 0, 2), (7, 1, 3), (3, 2, 4)]
    for signed in (False, True):
        for base in BASES + (-16, -1, 1, 105):
            got = SumSide(base, None, weight, signed).batch(entries)
            for (p, upper, e), value in zip(entries, got):
                if _left_out(weight, base, signed, p, upper):
                    assert value is None
                    continue
                x = Fraction(base) if signed else Fraction(1, base)
                assert value == oracle(weight, x, upper, Modulus(p, e)), (base, signed, p, upper)


def test_batch_of_nothing():
    assert SumSide(16, None).batch([]) == []
    assert SumSide(3, None).batch([(3, 1, 2)]) == [None]
    assert CentralBinomialSide(None).batch([]) == HarmonicSide(None, 1, 1).batch([]) == []


def test_central_binomials_match_the_walk():
    # MORLEY's C(p-1, (p-1)/2) mod p^3, mixed with other k and exponents.
    entries = [(p, (p - 1) // 2, 3) for p in PRIMES] + [(p, p - 1, 1 + p % 3) for p in PRIMES]
    got = CentralBinomialSide(None).batch(entries)
    for (p, k, e), value in zip(entries, got):
        assert value == _residues_from_vu(Modulus(p, e), k, PrimeTables())[k], (p, k, e)
    assert CentralBinomialSide(None).batch([(7, 0, 2), (7, 7, 2), (7, 12, 1)]) == [None] * 3


def test_alternating_harmonic_matches_the_walk():
    # WILLIAMS's sum to floor(4p/5) mod p, mixed with other bounds and exponents.
    entries = [(p, 4 * p // 5, 1) for p in PRIMES] + [(p, p - 1, 1 + p % 3) for p in PRIMES]
    got = HarmonicSide(None, 1, 1).batch(entries)
    for (p, bound, e), value in zip(entries, got):
        assert value == alternating_harmonic(bound, Modulus(p, e)), (p, bound, e)
    assert HarmonicSide(None, 1, 1).batch([(7, 0, 1), (7, 1, 1), (7, 7, 1)]) == [None] * 3


def test_tree_values_match_the_exact_oracle():
    primes = sieve_primes(3, 41)
    for e in (1, 2, 3):
        binomials = CentralBinomialSide(None).batch([(p, k, e) for p in primes for k in range(1, p)])
        sums = HarmonicSide(None, 1, 1).batch([(p, b, e) for p in primes for b in range(2, p)])
        want_binomials = [comb(2 * k, k) % p**e for p in primes for k in range(1, p)]
        want_sums = [
            residue(sum(Fraction((-1) ** k, k) for k in range(1, b + 1)), p**e)
            for p in primes
            for b in range(2, p)
        ]
        assert binomials == want_binomials
        assert sums == want_sums


# Every id with a batched side, plus ADAMCHUK, whose custom side stays on the walk.
SCAN_IDS = (
    "T1_1", "T1_2", "C1_1_8", "C1_1_16", "PANSUN", "E4_4", "E4_5", "E4_6", "E4_7",
    "C1_2", "ADAMCHUK", "MORLEY", "WILLIAMS",
)


def _alone(cid, p, a, force):
    """The row of one check run with a fresh store, as ``_prime_worker`` makes it."""
    try:
        verdict = run_check(cid, CheckParams(p=p, a=a, force=force), PrimeTables())
    except (DomainError, BudgetExceeded, CheckError):
        verdict = None
    return verdict_row(cid, p, a, None, verdict)


@pytest.mark.parametrize(
    "p_min, p_max, a_max, force",
    [
        (3, 1500, 1, False),
        (3, 60, 2, False),
        (3, 400, 1, True),
        (3, 40, 2, True),
        (9900, 10100, 1, False),
    ],
)
def test_batched_scan_rows_equal_rows_alone(p_min, p_max, a_max, force):
    want = [
        _alone(cid, p, a, force)
        for p in sieve_primes(p_min, p_max)
        for cid in sorted(SCAN_IDS)
        for a in range(1, a_max + 1)
    ]
    for jobs in (1, 2):
        request = ScanRequest(SCAN_IDS, p_min, p_max, a_max=a_max, jobs=jobs, force=force)
        assert scan(request).rows == want


def test_batched_sides_skip_the_kernel(monkeypatch):
    # Every sum of these checks at a = 1 comes from the batch; the stores
    # must hold it in PrimeTables.sides under (check id, side, CheckParams),
    # the key run_check reads, or the kernel would run.
    def kernel(*args):
        raise AssertionError("a batched sum reached the kernel")

    monkeypatch.setattr(binomsums, "_sum_with_power", kernel)
    ids = ("T1_1", "T1_2", "C1_1_8", "C1_1_16", "C1_2", "PANSUN", "E4_4", "E4_5", "E4_6", "E4_7")
    report = scan(ScanRequest(ids, 7, 300))
    assert {row.status for row in report.rows} == {"PASS"}


def test_batched_values_skip_the_tables(monkeypatch):
    # MORLEY's binomial and WILLIAMS's sum come from the batch; the stores
    # must hold them in PrimeTables.sides under (check id, side,
    # CheckParams), the key run_check reads, or a table would be built.
    def table(*args):
        raise AssertionError("a batched value reached a table")

    monkeypatch.setattr(binomsums, "_residues_from_vu", table)
    monkeypatch.setattr(binomsums, "_inv_table", table)
    report = scan(ScanRequest(("MORLEY", "WILLIAMS"), 7, 300))
    assert len(report.rows) == 2 * len(sieve_primes(7, 300))
    assert {row.status for row in report.rows} == {"PASS"}


def test_morley_binomials_skip_the_walk(monkeypatch):
    # Each MORLEY row compares the binomial its batch gave, not one it
    # walks itself: with every batched binomial off by one, every row fails.
    batch = CentralBinomialSide.batch

    def off_by_one(self, entries):
        return [None if s is None else s + 1 for s in batch(self, entries)]

    monkeypatch.setattr(CentralBinomialSide, "batch", off_by_one)
    report = scan(ScanRequest(("MORLEY",), 7, 300))
    assert {row.status for row in report.rows} == {"FAIL"}


def test_batch_gives_the_side_value():
    # A batched side's value is its own per-prime value with a fresh store,
    # or None, and None wherever that per-prime call raises.
    ids = tuple(spec.id for spec in list_checks() if spec.index != "n")
    for cid, name in [side for group in _batch_groups(ids) for side in group]:
        spec = get_check(cid)
        side = getattr(spec, name)
        params = [CheckParams(p=p) for p in sieve_primes(3, 200)]
        params = [pr for pr in params if evaluates(spec, pr)]
        params += [CheckParams(p=3, force=True), CheckParams(p=5, force=True)]
        entries = [(pr.p, side.upper(pr), spec.exponent(pr)) for pr in params]
        values = side.batch(entries)
        assert any(value is not None for value in values), (cid, name)
        for pr, (p, _, e), value in zip(params, entries, values):
            try:
                want = side(pr, Modulus(p, e), PrimeTables())
            except (ModArithError, WeightDomain, ValueError):
                want = None
            assert value is None or value == want, (cid, name, pr)


def test_a_given_side_is_read_only_by_its_row():
    tables = PrimeTables()
    tables.sides["T1_1", "lhs", CheckParams(p=7)] = 5
    assert run_check("T1_1", CheckParams(p=7), tables).lhs == 5
    for params in (CheckParams(p=7, a=2), CheckParams(p=11), CheckParams(p=7, force=True)):
        assert run_check("T1_1", params, tables) == run_check("T1_1", params, PrimeTables())


def test_batched_sides_are_the_constant_base_records():
    # scan reads each side's own ``batches``: a constant-base SumSide with a
    # walked weight, a CentralBinomialSide or a HarmonicSide, and nothing else.
    ids = tuple(spec.id for spec in list_checks())
    want = {
        (cid, name)
        for cid in ids
        for name in ("lhs", "rhs")
        if isinstance(side := getattr(get_check(cid), name), (CentralBinomialSide, HarmonicSide))
        or (isinstance(side, SumSide) and isinstance(side.base, int) and side.weight in _RATIOS)
    }
    assert {side for group in _batch_groups(ids) for side in group} == want
    assert ("L2_3A", "lhs") not in want and ("T2_MAIN", "lhs") not in want  # H2, base m
    assert ("MORLEY", "lhs") in want and ("WILLIAMS", "rhs") in want
    assert ("C1_2", "lhs") in want and ("ADAMCHUK", "lhs") not in want  # ADAMCHUK: custom


def test_weight_kind_hash_is_identity():
    for kind in WeightKind:
        assert hash(kind) == object.__hash__(kind)
        assert pickle.loads(pickle.dumps(kind)) is kind
        assert {kind: 1}[WeightKind(kind.value)] == 1


M_WEIGHTS = [WeightKind.NONE, WeightKind.CATALAN, WeightKind.LINEAR_K]


@pytest.mark.parametrize("p", sieve_primes(3, 61))
def test_sums_at_bases_match_the_walk(p):
    # Every base to 2p^2 at small p; past that a stride of p + 2, which
    # still meets every residue class mod p, the multiples of p among them.
    bases = list(range(-3, 2 * p * p + 1, 1 if p < 14 else p + 2))
    # One store per exponent, so the later sums reuse the kept setup.
    for e in (1, 2, 3):
        md = Modulus(p, e)
        tables, walk = PrimeTables(bases), PrimeTables()
        for upper in sorted({0, 1, (p - 1) // 2, p - 1, (p * p - 1) // 2, p * p - 1}):
            for weight in M_WEIGHTS:
                sums = sums_at_bases(md, upper, weight, tables)
                assert sorted(sums) == [b for b in bases if b % p]
                for b, s in sums.items():
                    assert s == central_sum(b, upper, md, weight, tables=walk), (p, e, upper, weight, b)


def test_sums_at_bases_share_the_store():
    # The transform reads the tables a walk would build, and builds no other.
    p, md = 31, Modulus(31, 2)
    tables, walk = PrimeTables([1, 2, 3]), PrimeTables()
    for weight in M_WEIGHTS:
        sums_at_bases(md, p - 1, weight, tables)
    central_sum(2, p - 1, md, WeightKind.NONE, tables=walk)
    central_sum(2, p - 1, md, WeightKind.CATALAN, tables=walk)
    central_sum(2, p - 1, md, WeightKind.LINEAR_K, tables=walk)
    assert tables == walk and not tables.sums


M_IDS = ("T2_MAIN", "T2_CAT", "BASIC_P", "L3_3", "P4_1A", "P4_1B")


def _m_alone(cid, p, a, m, force):
    """The row of one m-indexed check run with a fresh store."""
    try:
        verdict = run_check(cid, CheckParams(p=p, a=a, m=m, force=force), PrimeTables())
    except (DomainError, BudgetExceeded, CheckError):
        verdict = None
    return verdict_row(cid, p, a, m, verdict)


@pytest.mark.parametrize("force", [False, True])
def test_m_scan_rows_equal_rows_alone(force):
    # Multiples of p come from the list: 3, 5, 7, 9, 14 and 25.
    policy = (AllSmall(), Sample(5, 1), MList((3, 5, 7, 9, 14, 25)))
    want = [
        _m_alone(cid, p, a, m, force)
        for p in sieve_primes(3, 30)
        for cid in sorted(M_IDS)
        for a in (1, 2)
        for m in _m_values(p, policy)
    ]
    for jobs in (1, 2):
        request = ScanRequest(M_IDS, 3, 30, a_max=2, m_policy=policy, jobs=jobs, force=force)
        assert scan(request).rows == want


def test_m_scan_skips_the_kernel(monkeypatch):
    # Every sum over base m, those read inside closed forms and custom sides
    # included, comes from the transform; the kernel would raise.
    def kernel(*args):
        raise AssertionError("an m-indexed sum reached the kernel")

    monkeypatch.setattr(binomsums, "_sum_with_power", kernel)
    report = scan(ScanRequest(M_IDS, 3, 200, m_policy=(AllSmall(), Sample(5, 1))))
    assert report.rows and {row.status for row in report.rows} == {"PASS"}


def test_a_sparse_m_scan_keeps_horner(monkeypatch):
    # With fewer m than p - 1 at a prime, the transform would cost more than
    # the Horner passes it replaces, so the rows keep Horner's rule.
    def transform(*args):
        raise AssertionError("a sparse m list reached the transform")

    monkeypatch.setattr(binomsums, "sums_at_bases", transform)
    policy = (Sample(5, 1), MList((3, 5, 7, 9, 14, 25)))
    report = scan(ScanRequest(M_IDS, 17, 60, a_max=2, m_policy=policy))
    assert report.rows == [
        _m_alone(cid, p, a, m, False)
        for p in sieve_primes(17, 60)
        for cid in sorted(M_IDS)
        for a in (1, 2)
        for m in _m_values(p, policy)
    ]


def test_a_walk_that_raises_leaves_its_rows_to_raise(monkeypatch):
    # The transform walks the table first, so a walk that raises makes its
    # rows raise as they do alone: SKIP where forced, an error where not.
    walk = binomsums._residues_from_vu

    def catalan_raises(modulus, upto, tables, weight=WeightKind.NONE):
        if weight is WeightKind.CATALAN:
            raise NegativeValuation("walk term went p-adically negative")
        return walk(modulus, upto, tables, weight)

    monkeypatch.setattr(binomsums, "_residues_from_vu", catalan_raises)
    ids = ("T2_MAIN", "T2_CAT")
    rows = scan(ScanRequest(ids, 3, 40, force=True)).rows
    assert rows == [
        _m_alone(cid, p, 1, m, True)
        for p in sieve_primes(3, 40)
        for cid in sorted(ids)
        for m in range(1, p)
    ]
    assert {row.status for row in rows if row.check_id == "T2_CAT"} == {"SKIP"}
    assert {row.status for row in rows if row.check_id == "T2_MAIN"} == {"PASS"}
    with pytest.raises(CheckError):
        scan(ScanRequest(ids, 3, 40))

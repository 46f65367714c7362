"""Mutation gate: every listed mutant of src must make tier-1 fail.

Usage (from the repository root):

    python3 tools/mutants.py

Each mutant names a file, an old text that occurs exactly once in it, a
new text and the reason it is wrong.  For each, the committed tree of
HEAD is unpacked by ``git archive`` into a temporary directory, as
``tools/pairs.py`` does, the old text is replaced by the new one, and
tier-1 runs there with ``-x -q``, but for ``tests/test_mutants.py``.  A
mutant is caught when pytest reports a failing test; the script prints
that test and the mutant's time.  Before the mutants, the same command
runs once on the unmutated tree; if that fails, no failure could be
credited to a mutant, and the script exits 1 without running them.  It
exits 1 if a mutant survives or times out, or if its old text does not
occur exactly once.
``tests/test_mutants.py`` checks the old texts in the working tree
without running pytest per mutant.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from pairs import ROOT, _unpack  # noqa: E402  (tools/ is not a package)

TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str


_B = "src/fibmod/binomsums.py"
_C = "src/fibmod/checks.py"
_M = "src/fibmod/modarith.py"
_S = "src/fibmod/sequences.py"
_SC = "src/fibmod/scanner.py"

MUTANTS = (
    # The walked terms' heads and ratios.
    Mutant(
        "linear_k_head",
        _B,
        "WeightKind.LINEAR_K: ((0, 2),",
        "WeightKind.LINEAR_K: ((0, 3),",
        "k C(2k,k) is 2 at k = 1, not 3",
    ),
    Mutant(
        "inv_sq_num_minus_5",
        _B,
        "((1,), (((4, -6), (2, -3)), ((1, 0), (2, -1))))",
        "((1,), (((4, -6), (2, -5)), ((1, 0), (2, -1))))",
        "the 1/(2k-1)^2 ratio's numerator factor is 2k-3",
    ),
    Mutant(
        "inv_sq_num_minus_1",
        _B,
        "((1,), (((4, -6), (2, -3)), ((1, 0), (2, -1))))",
        "((1,), (((4, -6), (2, -1)), ((1, 0), (2, -1))))",
        "gives -1/(2k-1), equal to C1_2's sum mod p^2 but not as a table",
    ),
    Mutant(
        "inv_sq_den_plus_1",
        _B,
        "((1,), (((4, -6), (2, -3)), ((1, 0), (2, -1))))",
        "((1,), (((4, -6), (2, -3)), ((1, 0), (2, 1))))",
        "the 1/(2k-1)^2 ratio's denominator factor is 2k-1",
    ),
    Mutant(
        "inv_sq_head",
        _B,
        "WeightKind.INV_2KM1_SQ: ((1,),",
        "WeightKind.INV_2KM1_SQ: ((2,),",
        "C(0,0)/(-1)^2 is 1",
    ),
    # The x = 1 kernel.
    Mutant(
        "sum_at_one_whole_table",
        _B,
        "        return sum(terms) % pe",
        "        return sum(_residues_from_vu(modulus, upper, tables, weight)) % pe",
        "a store's table may run past the upper; the sum at x = 1 reads only its prefix",
    ),
    # The H2 and 1/k^2 sums.
    Mutant(
        "h2_prefix_not_squared",
        _B,
        "h2.extend([(h := (h + x * x) % pe)",
        "h2.extend([(h := (h + x) % pe)",
        "H_k^(2) adds 1/j^2, not 1/j",
    ),
    Mutant(
        "power_over_square_short",
        _B,
        "    for k in range(1, p):\n        xk = xk * x % pe",
        "    for k in range(1, p - 1):\n        xk = xk * x % pe",
        "the 1/k^2 power sums run to k = p - 1",
    ),
    # The side records' batches.
    Mutant(
        "sum_batch_reads_last_term",
        _B,
        "return [None if r is None else r[0] for r in _tree(_RATIOS[self.weight], xn, xd, entries)]",
        "return [None if r is None else r[1] for r in _tree(_RATIOS[self.weight], xn, xd, entries)]",
        "a SumSide's batch gives the sum r[0], not the last term r[1]",
    ),
    Mutant(
        "harmonic_batch_unscaled",
        _B,
        "None if r is None or self.den % p == 0 else self.num * pow(self.den, -1, pe) * r[0] % pe",
        "None if r is None or self.den % p == 0 else r[0] % pe",
        "a HarmonicSide's batch keeps its num/den scale",
    ),
    Mutant(
        "central_binomial_call_off_by_one",
        _B,
        "return _residues_from_vu(md, k, tables)[k]",
        "return _residues_from_vu(md, k, tables)[k - 1]",
        "MORLEY's lhs outside a scan is C(2k,k) at k, not k - 1",
    ),
    # Closed forms and custom sides.
    Mutant(
        "t2_main_mbar_3_over_m",
        _C,
        "2 * pow(m, -1, pe)",
        "3 * pow(m, -1, pe)",
        "T2_MAIN's unit is 2/m where (4-m/p) = -1",
    ),
    Mutant(
        "pansun_plus_p2",
        _C,
        "return sign * (1 - 2 * f) % md.m",
        "return (sign * (1 - 2 * f) + pr.p**2) % md.m",
        "PANSUN's rhs is exact mod p^3",
    ),
    Mutant(
        "c1_2_table_5_flipped",
        _C,
        "5: -inv2 % pe",
        "5: inv2",
        "C1_2's value for p = 5 (mod 12) is -1/2",
    ),
    Mutant(
        "adamchuk_keeps_k0",
        _C,
        "return (_adamchuk_sum(pr, md, tables) - 1) % md.m",
        "return _adamchuk_sum(pr, md, tables) % md.m",
        "ADAMCHUK's sum starts at k = 1",
    ),
    Mutant(
        "p4_1a_symbol_not_powered",
        _C,
        "- pr.p**pr.a * jacobi(-pr.m, pr.p) ** pr.a",
        "- pr.p**pr.a * jacobi(-pr.m, pr.p)",
        "P4_1A's symbol is (-m/p^a)",
    ),
    Mutant(
        "basic_p_symbol_not_powered",
        _C,
        "return jacobi(pr.m * (pr.m - 4), pr.p) ** pr.a % md.m",
        "return jacobi(pr.m * (pr.m - 4), pr.p) % md.m",
        "BASIC_P's symbol is (m(m-4)/p^a)",
    ),
    Mutant(
        "l3_3_delta_at_every_a",
        _C,
        "delta = 2 * pr.p * jacobi(-m, pr.p) if pr.a == 1 else 0",
        "delta = 2 * pr.p * jacobi(-m, pr.p)",
        "L3_3's 2p(-m/p) term is there at a = 1 only",
    ),
    Mutant(
        "l3_3_delta_at_odd_a",
        _C,
        "jacobi(-m, pr.p) if pr.a == 1 else 0",
        "jacobi(-m, pr.p) if pr.a % 2 == 1 else 0",
        "L3_3's 2p(-m/p) term is there at a = 1 only, not at a = 3",
    ),
    Mutant(
        "t2_cat_delta_at_odd_a",
        _C,
        "jacobi(m, pr.p) if pr.a == 1 else 0",
        "jacobi(m, pr.p) if pr.a % 2 == 1 else 0",
        "T2_CAT's 2p(-m/p) term is there at a = 1 only, not at a = 3",
    ),
    Mutant(
        "mt_26_sign",
        _C,
        "return -2 * acc % pe",
        "return 2 * acc % pe",
        "MT_26's rhs is -2 sum F_{2k}/k^2",
    ),
    Mutant(
        "l2_1_not_alternating",
        _C,
        "out[k] = val if k % 2 else (-val) % pe",
        "out[k] = val",
        "L2_1's rhs carries (-1)^(k-1)",
    ),
    Mutant(
        "l2_1_lhs_base_16",
        _C,
        "x = pow(-16 % pe, -1, pe)",
        "x = pow(16, -1, pe)",
        "L2_1's lhs divides C(2k,k) by (-16)^k",
    ),
    Mutant(
        "l2_1_tail_valuation",
        _C,
        "vterm = 2 * a - 2 * w",
        "vterm = 2 * a - w",
        "p^(2a)/(2j-1)^2 loses p^2 per p in 2j-1, which shows at a = 2",
    ),
    Mutant(
        "l2_3a_rhs_unsigned",
        _C,
        "return jacobi(pr.p, 5) * 5 % pe",
        "return 5 % pe",
        "L2_3A's rhs carries (p/5)",
    ),
    Mutant(
        "l2_3b_rhs_one_third",
        _C,
        "_fermat_square_rhs(2, 3)",
        "_fermat_square_rhs(1, 3)",
        "L2_3B's rhs is (2/3) q^2",
    ),
    Mutant(
        "mt_27_sum_not_difference",
        _C,
        "(s2 - s_half)",
        "(s2 + s_half)",
        "MT_27's u_k is 2(2^k - 2^-k)/3",
    ),
    Mutant(
        "aux_granville_unsigned",
        _C,
        "_fermat_square_rhs(-1, 1)",
        "_fermat_square_rhs(1, 1)",
        "AUX_GRANVILLE's rhs is -q_p(2)^2",
    ),
    Mutant(
        "aux_s08_base_2",
        _C,
        "_over_squares(1, 2)",
        "_over_squares(2, 1)",
        "AUX_S08's sum is over 1/(k^2 2^k)",
    ),
    Mutant(
        "symbol_rhs_not_powered",
        _C,
        "jacobi(q, pr.p) ** pr.a % md.m",
        "jacobi(q, pr.p) % md.m",
        "the closed form (q/p^a) is (q/p) to the power a",
    ),
    Mutant(
        "p4_1_lhs_m_minus_2",
        _C,
        "(pr.m - 4) * pow(2, -1, md.m)",
        "(pr.m - 2) * pow(2, -1, md.m)",
        "P4_1's k-weighted sum is scaled by (m - 4)/2",
    ),
    Mutant(
        "williams_sign",
        _C,
        "HarmonicSide(lambda pr: 4 * pr.p // 5, 2, 5)",
        "HarmonicSide(lambda pr: 4 * pr.p // 5, -2, 5)",
        "WILLIAMS's scale is 2/5",
    ),
    Mutant(
        "l2_2a_t2_over_12",
        _C,
        "t * t % pe * pow(24, -1, pe)",
        "t * t % pe * pow(12, -1, pe)",
        "L2_2A's quadratic term is t^2/24, visible mod p^3 at non-Wieferich p",
    ),
    Mutant(
        "l2_2b_unsigned_f",
        _C,
        "- _fib_sign(pr) * f + 1",
        "- f + 1",
        "L2_2B's lhs takes (p^a/5) F_{p^a}",
    ),
    Mutant(
        "aux_st_index_plus",
        _C,
        "5 * fibonacci_mod(pr.p - jacobi(pr.p, 5), md.m)",
        "5 * fibonacci_mod(pr.p + jacobi(pr.p, 5), md.m)",
        "AUX_ST's rhs is F_{p-(p/5)}",
    ),
    Mutant(
        "aux_ss_unsigned",
        _C,
        "return 2 * jacobi(pr.p, 5) % md.m",
        "return 2 % md.m",
        "AUX_SS's rhs is 2(p/5)",
    ),
    Mutant(
        "v_cong_a_reads_u",
        _C,
        "return lucas_uv_mod(_ab(pr), pr.p, md)[1]",
        "return lucas_uv_mod(_ab(pr), pr.p, md)[0]",
        "V_CONG_A's lhs is v_p, not u_p",
    ),
    Mutant(
        "l3_2_no_inverse_b",
        _C,
        "bpow = 1 if jd == 1 else pow(ab.B % pe, -1, pe)",
        "bpow = 1",
        "L3_2's entry term is scaled by 1/B where (delta/p) = -1",
    ),
    Mutant(
        "conj1_1a_unsigned",
        _C,
        "return 9**pr.a * ((-1) ** pr.a * 10) % md.m",
        "return 9**pr.a * -10 % md.m",
        "CONJ1_1A's rhs carries (-1)^a",
    ),
    Mutant(
        "conj1_1n_valuation",
        _C,
        "return 2 * _v3(2 * n + 1) + carries",
        "return _v3(2 * n + 1) + carries",
        "CONJ1_1N's exponent counts v_3 of (2n+1)^2",
    ),
    # Primality.
    Mutant(
        "is_prime_past_its_exact_range",
        _M,
        "    if n >= _MR_EXACT_BELOW:\n        raise ValueError(",
        "    if False:\n        raise ValueError(",
        "from psi_12 on a strong pseudoprime to all twelve witnesses would pass as prime",
    ),
    # The Wall-Sun-Sun block step.
    Mutant(
        "wss_step_f_g",
        _S,
        "f0, f1, f2 = fib[g - 1], fib[g], fib[g + 1]",
        "f0, f1, f2 = fib[g], fib[g], fib[g + 1]",
        "the step to n + g takes F_{g-1}",
    ),
    Mutant(
        "wss_divisibility_first_prime_only",
        _S,
        "            f = a % p2\n            if f % p:",
        "            f = a % p2\n            if p == block[0] and f % p:",
        "divisibility by p is asserted at every prime of a block",
    ),
    # The Wall-Sun-Sun search's segments, columns and CSV slices.
    Mutant(
        "wss_segments_skip_the_last_partial_one",
        _SC,
        "for low in range(start, limit + 1, _SEGMENT):",
        "for low in range(start, limit + 1 - _SEGMENT, _SEGMENT):",
        "the sieve segments tile the range up to the limit",
    ),
    Mutant(
        "wss_segments_overlap_by_one",
        _SC,
        "sieve_primes(low, min(low + _SEGMENT - 1, limit))",
        "sieve_primes(low, min(low + _SEGMENT, limit))",
        "a segment ends where the next begins, or a prime at the seam is searched twice",
    ),
    Mutant(
        "slices_drop_the_last_partial_one",
        _SC,
        "while flat := tuple(chain.from_iterable(islice(it, _SLICE))):",
        "while len(flat := tuple(chain.from_iterable(islice(it, _SLICE)))) == width * _SLICE:",
        "the rows or records after the last whole slice are lines too",
    ),
    Mutant(
        "wss_commit_counts_only_new_records",
        _SC,
        'records={len(ps)}\\n"',
        'records={len(ps) - committed}\\n"',
        "a commit line counts every record above it",
    ),
    Mutant(
        "wss_int64_overflow_not_refused",
        _SC,
        "except OverflowError:",
        "except ValueError:",
        "a resumed record past int64 is a CheckpointCorrupt, not a traceback",
    ),
    Mutant(
        "composites_sieved_past_the_base",
        _SC,
        "if root <= _SEGMENT and (j - i)",
        "if (j - i)",
        "the base primes stop at one segment, so a record past its square is tested",
    ),
    # The per-row path of run_check.
    Mutant(
        "request_key_without_a",
        _C,
        "key = (check_id, p, a, n, A, B, force, budget)",
        "key = (check_id, p, n, A, B, force, budget)",
        "the exponent, and so the Modulus, depends on a",
    ),
    Mutant(
        "early_compare_without_equality",
        _C,
        "if type(lhs) is int and type(rhs) is int and (lhs - rhs) % pe == 0:",
        "if type(lhs) is int and type(rhs) is int:",
        "only two ints that agree mod p^e skip the loop",
    ),
    Mutant(
        "modulus_built_before_evaluates",
        _C,
        "        spec = check_request(check_id, params)\n    else:",
        "        spec = check_request(check_id, params)\n        md = Modulus(p, spec.exponent(params))\n    else:",
        "a row past the modulus bound that does not evaluate is a SKIP, not a ValueError",
    ),
    # The pool's order.
    Mutant(
        "scan_pool_rows_not_reversed",
        _SC,
        "for chunk in reversed(chunks):",
        "for chunk in chunks:",
        "the pool runs the primes in descending order; the rows rise",
    ),
)


def occurrences(root: str, mutant: Mutant) -> int:
    with open(os.path.join(root, mutant.file), encoding="utf-8") as fh:
        return fh.read().count(mutant.old)


def _apply(root: str, mutant: Mutant) -> None:
    path = os.path.join(root, mutant.file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def _env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    return env


def run(mutant: Mutant | None, rev: str) -> tuple[str, float]:
    """(outcome, seconds) of tier-1 on ``rev`` with ``mutant`` applied.

    The outcome is "caught: <first failing test>", "passed", or why
    neither.  With ``mutant`` None the tree runs unmutated.
    """
    with tempfile.TemporaryDirectory() as tmp:
        _unpack(rev, tmp)
        if mutant is not None:
            count = occurrences(tmp, mutant)
            if count != 1:
                return f"error: the old text occurs {count} times at {rev[:12]}", 0.0
            _apply(tmp, mutant)
        # An installed fibmod must not shadow the unpacked one.
        where = subprocess.run(
            [sys.executable, "-c", "import fibmod; print(fibmod.__file__)"],
            cwd=tmp, env=_env(tmp), capture_output=True, text=True,
        ).stdout.strip()
        if not os.path.realpath(where or "/").startswith(os.path.realpath(tmp)):
            return f"error: fibmod imports from {where or 'nowhere'}, not the unpacked tree", 0.0
        # test_mutants.py fails on every mutated tree, whose old text is gone.
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=_env(tmp), capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timeout after {TIMEOUT_S} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if failed:
        return f"caught: {failed[0]}", seconds
    if proc.returncode == 0:
        return "passed", seconds
    return f"no failing test, pytest exit {proc.returncode}", seconds


def main() -> int:
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    outcome, seconds = run(None, rev)
    print(f"{'(unmutated HEAD)':<36} {seconds:7.1f} s  {outcome}", flush=True)
    if outcome != "passed":
        print("tier-1 does not pass on the unmutated tree; no mutant was run")
        return 1
    survived = 0
    total = 0.0
    for m in MUTANTS:
        outcome, seconds = run(m, rev)
        total += seconds
        caught = outcome.startswith("caught")
        survived += not caught
        print(f"{m.name:<36} {seconds:7.1f} s  {outcome if caught else 'SURVIVED: ' + outcome}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught in {total:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

"""The library's refusals: each call, its exact message, and no work before it.

GUARDED rows are (function, args, message), and each call must raise
ValueError with exactly that message under conftest.py's no_work.  This is
the one place where a library refusal is tested.  Every function refuses at
the call, the walks that make rows lazily included.
"""

import pytest

from yflattice import core, fstat, macdonald, primes, residues

NEGATIVE = "rank must be nonnegative"
K0 = "modulus exponent must be at least 1, got 0"
DP = "exceeds the guard of 274877906944"  # residues.DP_MAX_WORK, 2^38
PSP = 318665857834031151167461  # primes._WITNESS_BOUND

GUARDED = [
    (core.parse_word, ("21x1",), "invalid digit 'x' at position 3: words use only digits 1 and 2"),
    (core.parse_word, ("203",), "invalid digit '0' at position 2: words use only digits 1 and 2"),
    (core.enumerate_rank, (-1,), NEGATIVE),
    (core.enumerate_rank, (25,), "rank 25 exceeds the guard of 24"),  # 121393 words
    (fstat.f_recursive, ("2" * 13,), "rank 26 exceeds the guard of 24"),
    (fstat.f_recursive, ("1" * 499,), "rank 499 exceeds the guard of 24"),
    (fstat.f_mod, ("21", 1), "modulus must be at least 2, got 1"),
    (fstat.f_mod, ("21", 0), "modulus must be at least 2, got 0"),
    (fstat.f_row, (25,), "rank 25 exceeds the guard of 24"),
    (fstat.f_blocks, (25,), "rank 25 exceeds the guard of 24"),
    (fstat.verify_oracle, (25,), "rank 25 exceeds the guard of 24"),
    (macdonald.tree_rows, (31,), "rank 31 exceeds the guard of 30"),
    (macdonald.tree_rows, (-1,), NEGATIVE),
    (macdonald.build_tree, (31,), "rank 31 exceeds the guard of 30"),
    (macdonald.build_tree, (41,), "rank 41 exceeds the guard of 30"),
    (macdonald.build_tree, (-1,), NEGATIVE),
    (macdonald.macdonald_children, ("21",), "21 is not an odd word"),
    (macdonald.f_valued_rows, (41,), "rank 41 exceeds the guard of 40"),
    (macdonald.f_valued_rows, (-1,), NEGATIVE),
    (macdonald.f_valued_row, (41,), "rank 41 exceeds the guard of 40"),
    (macdonald.verify_pi_row, (41,), "rank 41 exceeds the guard of 40"),
    # histograms mod 2^k: the modulus exponent first, then the rank and the DP's work
    (residues.residue_histogram_enum, (41, 3), "rank 41 exceeds the guard of 40"),
    (residues.residue_histogram_enum, (41, 0), K0),
    (residues.residue_histogram_enum, (4, 0), K0),
    (residues.residue_histogram_enum, (4, 21), "modulus exponent 21 exceeds the guard of 20"),
    (residues.residue_histogram_dp, (4, 0), K0),
    (residues.residue_histogram_dp, (4, 21), "modulus exponent 21 exceeds the guard of 20"),
    (residues.residue_histogram_dp, (-1, 3), NEGATIVE),
    (residues.residue_histogram_dp, (10**9, 3), f"DP work {10**18} for rows 1000000000..1000000000 mod 2^3 {DP}"),
    (residues.verify_main_theorem, (0, 2), K0),
    (residues.verify_main_theorem, (3, -1), "n_extra must be nonnegative"),
    (residues.verify_main_theorem, (15, 0), f"DP work 1099780079616 for rows 16386..16386 mod 2^15 {DP}"),
    (residues.verify_main_theorem, (14, 1 << 13), f"DP work 14311569235968 for rows 8194..16386 mod 2^14 {DP}"),
    (residues.verify_one_step, (21, 2), "modulus exponent 21 exceeds the guard of 20"),
    (residues.verify_one_step, (3, -1), "n_max must be nonnegative"),
    (residues.verify_one_step, (1, 1 << 21), f"DP work 25563657011200 for rows 0..2097153 mod 2^1 {DP}"),
    (residues.pi_rows, (41,), "rank 41 exceeds the guard of 40"),
    (residues.pi_rows, (-1,), NEGATIVE),
    (residues.pi_multiset, (-1,), NEGATIVE),
    (residues.pi_multiset, (41,), "rank 41 exceeds the guard of 40"),
    # primes, and the counts over them
    # 399165290221 * 798330580441, a strong pseudoprime to every witness
    (primes.is_prime, (PSP,), f"{PSP} is at or above {PSP}, the bound of the deterministic primality test"),
    (primes.is_coprime_direct, ("21", 4), "4 is not prime"),
    (primes.is_coprime_structural, ("21", 4), "4 is not prime"),
    (primes.is_coprime_structural, ("22", 9), "9 is not prime"),
    (primes.coprime_count, (4, 3), "4 is not prime"),
    (primes.coprime_count, (3, -1), NEGATIVE),
    (primes.coprime_count, (3, (1 << 18) + 1), "rank 262145 exceeds the guard of 262144"),
    (primes.residue_distribution_mod_p, (3, 6), "6 is not prime"),
    (primes.residue_distribution_mod_p, (3, 2), "p must be an odd prime; modulus 2 is covered by the power-of-two histograms"),
    (primes.residue_distribution_mod_p, (3, 1000003), "modulus 1000003 needs 1000002 buckets, over the guard of 524288"),
    (primes.residue_distribution_mod_p, (25, 3), "rank 25 exceeds the guard of 24"),
    # verify_coprime: the rank, then the price of its heads and tails (3562 per prime at 24), then every prime
    (primes.verify_coprime, (25, (4,)), "rank 25 exceeds the guard of 24"),
    (primes.verify_coprime, (24, range(2, 1180)), "1178 primes over rows 0..24 read 4196036 heads and tails, over the guard of 4194304"),
    (primes.verify_coprime, (3, (3, 4)), "4 is not prime"),
]


def _shown(arg):
    """repr(arg), but a long run of one digit as the expression that makes it, so no id grows with a rank."""
    if isinstance(arg, str) and len(arg) > 16 and len(set(arg)) == 1:
        return f"{arg[0]!r} * {len(arg)}"
    return repr(arg)


@pytest.mark.parametrize(
    ("function", "args", "message"), GUARDED, ids=[f"{f.__name__}({', '.join(map(_shown, args))})" for f, args, _ in GUARDED]
)
def test_refused_before_any_work(no_work, function, args, message):
    with pytest.raises(ValueError) as refusal:
        function(*args)
    assert str(refusal.value) == message


WALKS = [(residues.pi_rows, residues, "_doubled"), (macdonald.f_valued_rows, macdonald, "_grown")]


@pytest.mark.parametrize(("walk", "module", "step"), WALKS, ids=[walk.__name__ for walk, _, _ in WALKS])
def test_walks_guard_at_the_call_and_work_when_read(monkeypatch, walk, module, step):
    """The guard is eager and the rows are lazy: row 0 is the walk's seed, and row 1 is the first step."""

    def stepped(*args):
        raise AssertionError(f"{step} ran")

    monkeypatch.setattr(module, step, stepped)
    rows = walk(6)
    assert next(rows) == (0, {1: 1})
    with pytest.raises(AssertionError, match=f"{step} ran"):
        next(rows)

"""Coprimality of chain counts to a prime p, and counting by rank.

A word's chain count is coprime to p exactly when the word splits into a
prefix of rank n mod p followed by segments of rank exactly p, with every
segment boundary falling between digits.  Every word of rank at most p
qualifies, since its product factors all lie in 1..p-1, so the count C_p(n)
of such words is a product of row sizes.

The rule factors at any digit boundary: head + tail of rank n splits iff
the head splits from cut n mod p and the tail on its own, as the tail's
cuts at rank(tail) mod p + jp are the same absolute positions.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Any, Iterable

from .core import MODULUS_MAX_POW, ROW_MAX_RANK, Word, check_rank, rank, row_size
from .fstat import f_blocks, f_mod

# is_coprime_direct is left out and no CLI route calls it: it stays only
# because perfbench/tracer.py wraps it by module path.
__all__ = ["coprime_count", "is_coprime_structural", "is_prime", "residue_distribution_mod_p", "verify_coprime"]

# Miller-Rabin with these witnesses is deterministic below _WITNESS_BOUND =
# 399165290221 * 798330580441, the smallest strong pseudoprime to all twelve
# of them (Sorenson & Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_WITNESS_BOUND = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Deterministic primality test; refuses p at or above _WITNESS_BOUND."""
    if p < 2:
        return False
    if p >= _WITNESS_BOUND:
        raise ValueError(f"{p} is at or above {_WITNESS_BOUND}, the bound of the deterministic primality test")
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d = p - 1
    s = ((d & -d)).bit_length() - 1
    d >>= s
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# Cached, so a row scan tests its prime once and not once per word; a
# refusal raises and is never cached.
@lru_cache(maxsize=64)
def check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def is_coprime_direct(w: Word, p: int) -> bool:
    """True iff the chain count of w is not a multiple of p."""
    check_prime(p)
    return f_mod(w, p) != 0


def splits(w: Word, cut: int, p: int) -> bool:
    """True iff no 2 of w straddles a cut at rank cut, cut + p, ...: one pointer walks the cuts."""
    acc = 0
    for x in w:
        if acc == cut:
            cut += p
        if x == "2":
            acc += 2
            if acc > cut:  # the 2 straddles the cut
                return False
        else:
            acc += 1  # a 1 never straddles a cut
    return True


def is_coprime_structural(w: Word, p: int) -> bool:
    """Coprimality read off the digits, no arithmetic on chain counts.

    Every cut at rank n mod p, n mod p + p, ..., n must land on a digit
    boundary: only the prefix before the first cut has rank below p.
    """
    check_prime(p)
    return splits(w, rank(w) % p, p)


# coprime_count's row sizes and result are ints of about 0.7*n bits, built in
# up to n additions: every call measured at n <= 2^18 took at most 1.3 s, where
# coprime_count(3, 10**8) took 33 s (2-core x86-64 VM).
COUNT_MAX_RANK = 1 << 18


def coprime_count(p: int, n: int) -> int:
    """Number of rank-n words whose chain count is coprime to p, in closed form.

    |row p|^m * |row r| with n = p*m + r, from the row sizes alone, up to
    rank COUNT_MAX_RANK; its check is verify_coprime's count of f % p != 0
    over row n by blocks (each tail's f % p, each head's g % p).
    """
    check_prime(p)
    check_rank(n, COUNT_MAX_RANK)
    m, r = divmod(n, p)
    # |row p| only when needed: p may be far beyond any rank asked for
    return row_size(p) ** m * row_size(r) if m else row_size(r)


def residue_distribution_mod_p(n: int, p: int) -> dict[int, int]:
    """Histogram of the nonzero chain-count residues mod an odd prime over rank n.

    Counts only: unlike the power-of-two case these need not flatten out.
    The CLI's verdict on them is is_equidistributed over the p - 1 nonzero
    residues.
    """
    check_prime(p)
    if p == 2:
        raise ValueError("p must be an odd prime; modulus 2 is covered by the power-of-two histograms")
    if p - 1 > (buckets := 1 << (MODULUS_MAX_POW - 1)):  # as many as the largest histogram mod 2^k
        raise ValueError(f"modulus {p} needs {p - 1} buckets, over the guard of {buckets}")
    _, fs, blocks = f_blocks(n)
    tally = Counter(g * f % p for _, g, t in blocks for f in fs[t])
    return {r: tally[r] for r in range(1, p)}


# verify_coprime is priced at the heads and tails it reads per distinct prime,
# sum over n <= max_n of row_size(n - n//2 + 1) + row_size(n//2 + 1): 3562 at
# max_n 24, against 196417 words.  A prime costs 3-4 ms there (2-core x86-64
# VM), so the guard admits up to 1177 distinct primes at max_n 24, 3.1-3.5 s.
COPRIME_MAX_HEADS_AND_TAILS = 1 << 22


def verify_coprime(max_n: int, primes: Iterable[int] | None = None) -> list[dict[str, Any]]:
    """Per prime (default 2, 3, 5, 7) and row: the count of f % p != 0, its closed form, and is_coprime_structural, read by blocks.

    A word head + tail (fstat.f_blocks) is prime to p iff g % p and f(tail) % p are, and splits iff its head
    splits from cut n mod p and its tail does, so a block costs one g % p and one head check; predicates_agree
    stays exact per word.  The rank, the price and every prime are checked before the first row.
    """
    # read off their modules at the call: fstat's f_blocks is the row source,
    # and core's row_size prices the run (this module's is coprime_count's work)
    from . import core, fstat

    check_rank(max_n, ROW_MAX_RANK)
    primes = list(dict.fromkeys([2, 3, 5, 7] if primes is None else primes))  # a repeated prime counts once
    plan = sum(core.row_size(n - n // 2 + 1) + core.row_size(n // 2 + 1) for n in range(max_n + 1))
    if (reads := len(primes) * plan) > (limit := COPRIME_MAX_HEADS_AND_TAILS):
        raise ValueError(f"{len(primes)} primes over rows 0..{max_n} read {reads} heads and tails, over the guard of {limit}")
    for p in primes:
        check_prime(p)  # every prime before the first row, not at its own first row
    rows = [fstat.f_blocks(n) for n in range(max_n + 1)]  # O(F(n/2)) each, read by every prime

    def check(p: int, n: int) -> dict[str, Any]:
        tails, fs, blocks = rows[n]
        direct = [[f % p != 0 for f in row_fs] for row_fs in fs]
        structural = [[is_coprime_structural(w, p) for w in row] for row in tails]
        flags = [(sum(d), sum(s), d == s) for d, s in zip(direct, structural)]  # per tails row
        count, predicates, cut = 0, True, n % p
        for head, g, t in blocks:
            direct_count, structural_count, same = flags[t]
            by_g, by_head = g % p != 0, splits(head, cut, p)
            count += direct_count if by_g else 0
            predicates &= same if by_g and by_head else not (by_g and direct_count or by_head and structural_count)
        closed = coprime_count(p, n)
        agree = count == closed
        return {
            "check": "coprime",
            "p": p,
            "n": n,
            "count": count,
            "closed_form_count": closed,
            "agree": agree,
            "predicates_agree": predicates,
            "ok": agree and predicates,
        }

    return [check(p, n) for p in primes for n in range(max_n + 1)]

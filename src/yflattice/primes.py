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

from .core import MODULUS_MAX_POW, Word, check_rank, rank, row_size
from .fstat import f_blocks, f_mod
from .residues import ResidueHistogram

# is_coprime_direct is left out and no CLI route calls it: it stays only
# because perfbench/tracer.py wraps it by module path.
__all__ = ["coprime_count", "is_coprime_structural", "is_prime", "residue_distribution_mod_p"]

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
    rank COUNT_MAX_RANK; its check is verify coprime's count of f % p != 0
    over row n by blocks (cli._suite_coprime: each tail's f % p, each
    head's g % p).
    """
    check_prime(p)
    check_rank(n, COUNT_MAX_RANK)
    m, r = divmod(n, p)
    # |row p| only when needed: p may be far beyond any rank asked for
    return row_size(p) ** m * row_size(r) if m else row_size(r)


def residue_distribution_mod_p(n: int, p: int) -> ResidueHistogram:
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
    return ResidueHistogram(p, {r: tally[r] for r in range(1, p)})

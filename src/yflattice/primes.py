"""Coprimality of chain counts to a prime p, and counting by rank.

A word's chain count is coprime to p exactly when the word splits into a
prefix of rank n mod p followed by segments of rank exactly p, with every
segment boundary falling between digits.  Every word of rank at most p
qualifies, since its product factors all lie in 1..p-1, so the count C_p(n)
of such words is a product of row sizes.
"""

from __future__ import annotations

from .core import Word, check_rank, enumerate_rank, rank
from .fstat import f_mod
from .residues import MODULUS_MAX_POW

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


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def is_coprime_direct(w: Word, p: int) -> bool:
    """True iff the chain count of w is not a multiple of p."""
    _check_prime(p)
    return f_mod(w, p) != 0


def is_coprime_structural(w: Word, p: int) -> bool:
    """Coprimality read off the digits, no arithmetic on chain counts.

    Requires cut points at cumulative ranks n mod p, n mod p + p, ..., n;
    each must land on a digit boundary (a 2 straddling a cut kills the
    split).  The prefix before the first cut is the only part allowed a
    rank below p.
    """
    _check_prime(p)
    n = rank(w)
    boundaries = {0}
    acc = 0
    for x in w:
        acc += x
        boundaries.add(acc)
    return all(c in boundaries for c in range(n % p, n + 1, p))


def _row_size(n: int) -> int:
    """Number of words of rank n: 1, 1, 2, 3, 5, ... (Fibonacci)."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# coprime_count's row sizes and result are ints of about 0.7*n bits, built in
# up to n additions: every call measured at n <= 2^18 took at most 1.3 s, where
# coprime_count(3, 10**8) took 33 s (2-core x86-64 VM).
COUNT_MAX_RANK = 1 << 18


def coprime_count(p: int, n: int) -> int:
    """Number of rank-n words whose chain count is coprime to p, in closed form.

    |row p|^m * |row r| with n = p*m + r, from the row sizes alone, up to
    rank COUNT_MAX_RANK; enumerate_rank(n) filtered by is_coprime_direct is
    its check.
    """
    _check_prime(p)
    check_rank(n, COUNT_MAX_RANK)
    m, r = divmod(n, p)
    # |row p| only when needed: p may be far beyond any rank asked for
    return _row_size(p) ** m * _row_size(r) if m else _row_size(r)


def residue_distribution_mod_p(n: int, p: int) -> dict[int, int]:
    """Counts of nonzero chain-count residues mod an odd prime over rank n.

    Reporting only: unlike the power-of-two case these need not flatten
    out, and no verdict is attached.
    """
    _check_prime(p)
    if p == 2:
        raise ValueError("p must be an odd prime; modulus 2 is covered by the power-of-two histograms")
    if p - 1 > (buckets := 1 << (MODULUS_MAX_POW - 1)):  # as many as the largest histogram mod 2^k
        raise ValueError(f"modulus {p} needs {p - 1} buckets, over the guard of {buckets}")
    counts = dict.fromkeys(range(1, p), 0)
    for w in enumerate_rank(n):
        r = f_mod(w, p)
        if r:
            counts[r] += 1
    return counts

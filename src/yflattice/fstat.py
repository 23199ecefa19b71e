"""The f-statistic: number of saturated chains from the empty word.

Two independent routes are kept side by side.  f_recursive follows the
defining recursion (sum over the covered words) and serves as the oracle;
f_product is the O(length) production path, a hook-length analog with one
factor per 2 in the word.  f_mod evaluates the product form modulo m with
every intermediate reduced, so huge rows never touch big integers.

f_recursive recurses once per rank through one memo per process, shared by
every call, so each word's chain count is computed once.  It refuses ranks
above ROW_MAX_RANK up front, which also bounds the memo: at most the 196417
words of rank <= 24, 74 MiB at the peak of verify oracle --max-rank 24.
"""

from __future__ import annotations

from functools import cache

from .core import ROW_MAX_RANK, Word, check_rank, covers_down, rank


@cache
def _chains(u: Word) -> int:
    return sum(map(_chains, covers_down(u))) if u else 1


def f_recursive(w: Word) -> int:
    """Chain count by the downward recursion over the lower covers."""
    check_rank(rank(w), ROW_MAX_RANK)
    return _chains(w)


def f_product(w: Word) -> int:
    """Chain count by the product form.

    One factor per 2: the digit sum from that 2 through the end of the
    word, minus one.  The empty product is 1.
    """
    suffix = 0
    f = 1
    for x in reversed(w):
        suffix += x
        if x == 2:
            f *= suffix - 1
    return f


def f_mod(w: Word, m: int) -> int:
    """f_product(w) reduced modulo m, with all intermediates reduced."""
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    suffix = 0
    f = 1
    for x in reversed(w):
        suffix += x
        if x == 2:
            f = f * (suffix - 1) % m
    return f

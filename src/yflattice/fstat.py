"""The f-statistic: number of saturated chains from the empty word.

Two independent routes are kept side by side.  f_recursive follows the
defining recursion (sum over the covered words) and serves as the oracle;
f_product is the O(length) per-word path, a hook-length analog with one
factor per 2 in the word; f_mod is f_product reduced mod m.  _factor is the
one loop over a word's 2s.

Whole rows take the block walk, f_blocks and f_row: a head followed by a
tail of rank s has the count g * f(tail), where the head factor g has one
factor per 2 of the head, its suffix rank within the head plus s, minus one.
Each block costs one head factor, each of the two tails rows one f_product
per tail, and each word one multiplication.

f_recursive recurses once per rank through one memo per process, shared by
every call, so each word's chain count is computed once.  It refuses ranks
above ROW_MAX_RANK up front, which also bounds the memo: at most the 196417
words of rank <= 24, 44 MiB at the peak of verify oracle --max-rank 24.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .core import ROW_MAX_RANK, Word, check_rank, covers_down, enumerate_rank, rank

# f_mod is left out and no CLI route calls it: it stays only because
# perfbench/tracer.py wraps it by module path.
__all__ = ["f_blocks", "f_product", "f_recursive", "f_row"]


@cache
def _chains(u: Word) -> int:
    return sum(map(_chains, covers_down(u))) if u else 1


def f_recursive(w: Word) -> int:
    """Chain count by the downward recursion over the lower covers."""
    check_rank(rank(w), ROW_MAX_RANK)
    return _chains(w)


def _factor(w: Word, suffix: int) -> int:
    """The product over the 2s of w of (digit sum from that 2 on, plus suffix, minus one)."""
    f = 1
    for x in reversed(w):
        if x == "2":
            f *= suffix + 1  # (suffix + 2) - 1: the digit sum from this 2 on, minus one
            suffix += 2
        else:
            suffix += 1
    return f


def f_product(w: Word) -> int:
    """Chain count by the product form.

    One factor per 2: the digit sum from that 2 through the end of the
    word, minus one.  The empty product is 1.
    """
    return _factor(w, 0)


def f_blocks(n: int) -> tuple[tuple[list[Word], list[Word]], tuple[list[int], list[int]], list[tuple[Word, int, int]]]:
    """Row n as (tails, fs, blocks) for the block walk.

    tails are rows h and h - 1 (h = n // 2), fs[t] the f_product of each
    word of tails[t], and block (head, g, t) the words head + tails[t][i]
    with chain counts g * fs[t][i].  Rank guard of enumerate_rank, at the call.
    """
    row = enumerate_rank(n)
    fs = tuple([f_product(w) for w in tails] for tails in row.tails)
    return row.tails, fs, [(head, _factor(head, n // 2 - t), t) for head, t in row.blocks]


def f_row(n: int) -> Iterator[tuple[Word, int]]:
    """(word, chain count) for every word of rank n, in row order; the rank guard runs at the call."""
    tails, fs, blocks = f_blocks(n)
    return ((head + w, g * f) for head, g, t in blocks for w, f in zip(tails[t], fs[t]))


def f_mod(w: Word, m: int) -> int:
    """f_product(w) reduced mod m, for m at least 2."""
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    return f_product(w) % m

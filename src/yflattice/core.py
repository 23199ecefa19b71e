"""Word model for the Young-Fibonacci lattice.

Elements are finite words over the digit alphabet {1, 2}, graded by digit
sum.  Going down one rank, either a 2 with no 1 anywhere to its left turns
into a 1, or the leftmost 1 is deleted; going up is the exact inverse.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

__all__ = ["EMPTY_WORD", "Word", "covers_down", "covers_up", "enumerate_rank", "parse_word", "rank", "word_text"]

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

# Empty-word token that parse_word reads and that tables, CSV and DOT print,
# where a genuinely empty string is awkward.  JSON output uses "" instead.
EMPTY_TOKEN = "e"

# Rank guards, kept apart because they bound different work.  SUBSET_MAX_RANK
# bounds the routes over a row of odd words: pi_rows forms its 2^(n//2) subset
# products, but residue_histogram_enum folds at most 2^(k-1) residues per
# factor and f_valued_rows folds distinct values, so for those two it is an
# edge kept, not a price.  ROW_MAX_RANK bounds the F(n+1) words of a whole row.
SUBSET_MAX_RANK = 40
# A row is made as it is read, so the row guard bounds time and output, not
# memory.  At rank 24, by the block walk (2-core x86-64 VM, 15 MiB peaks):
# enumerate writes its 75025 words in 0.1-0.25 s, verify coprime takes
# 0.08-0.09 s, residues -p 13 0.07 s, and verify oracle 0.9 s (72 MiB).
ROW_MAX_RANK = 24
# The tree guard bounds output and time: about 3 * 2^(n//2) nodes, and rank 30
# writes 70 MB of JSON in 0.25 s (30 MiB peak) or 11 MB of DOT in 0.17 s
# (27 MiB; 2-core x86-64 VM).
TREE_MAX_RANK = 30
# A histogram mod 2^k holds 2^(k-1) buckets: residues -n 10 -k 20 peaks at
# 102 MiB as a table, CSV or JSON, and verify one-step -k 20 --max-n 2, the
# last run the DP guard accepts at k = 20, at 142 MiB in 0.83 s (2-core x86-64
# VM, median of 3); each further step of k doubles that.
MODULUS_MAX_POW = 20


def check_rank(n: int, limit: int | None = None) -> None:
    """Refuse a negative rank, and a rank above `limit` when one is given."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if limit is not None and n > limit:
        raise ValueError(f"rank {n} exceeds the guard of {limit}")


def parse_word(text: str) -> Word:
    """Parse a digit string such as "211" into a word.

    The token "e" (and the empty string) denotes the empty word.  Any
    character other than '1' or '2' is rejected with its 1-based position.
    """
    if text == EMPTY_TOKEN or text == "":
        return EMPTY_WORD
    for pos, ch in enumerate(text, start=1):
        if ch not in "12":
            raise ValueError(f"invalid digit {ch!r} at position {pos}: words use only digits 1 and 2")
    return tuple(int(ch) for ch in text)


_DIGITS = bytes.maketrans(b"\1\2", b"12")


def word_text(w: Word, empty: str = EMPTY_TOKEN) -> str:
    """Render a word as a digit string; the empty word renders as `empty`.

    The digits go through `bytes` and one translate: 0.28 against 2.5 us
    for joining str(d) per digit of a 30-digit word (Python 3.11, x86-64).
    """
    return bytes(w).translate(_DIGITS).decode() if w else empty


def rank(w: Word) -> int:
    """Digit sum of the word; the grading of the lattice."""
    return sum(w)


def _leading_twos(w: Word) -> int:
    a = 0
    while a < len(w) and w[a] == 2:
        a += 1
    return a


def covers_down(w: Word) -> set[Word]:
    """The set of words covered by w, one rank down.

    One result per 2 in the maximal leading run of 2s (that 2 lowered to a
    1), plus, when w contains a 1, the word with the leftmost 1 deleted.
    The empty word covers nothing.
    """
    a = _leading_twos(w)
    below = {w[:i] + (1,) + w[i + 1 :] for i in range(a)}
    if a < len(w):
        below.add(w[:a] + w[a + 1 :])
    return below


def covers_up(w: Word) -> set[Word]:
    """The set of words covering w, one rank up; exact inverse of covers_down.

    Writing w = 2^a t with t empty or starting in 1: a 1 may be inserted at
    any of the a+1 positions within or adjacent to the leading 2-run, and,
    when w contains a 1, the leftmost 1 may be raised to a 2.
    """
    a = _leading_twos(w)
    above = {w[:i] + (1,) + w[i:] for i in range(a + 1)}
    if a < len(w):
        above.add(w[:a] + (2,) + w[a + 1 :])
    return above


def row_size(n: int) -> int:
    """Number of words of rank n: 1, 1, 2, 3, 5, ... (Fibonacci)."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _rows(n: int) -> tuple[list[Word], list[Word]]:
    """Rows n and n - 1 as lists, by the Fibonacci recurrence; row -1 is empty."""
    below: list[Word] = []
    row = [EMPTY_WORD]
    for _ in range(n):
        # 1-prefixed extensions of the row sort before 2-prefixed ones of
        # the row below, so lexicographic order is preserved by construction.
        below, row = row, [(1,) + w for w in row] + [(2,) + w for w in below]
    return row, below


class Row:
    """The words of one rank, in lexicographic order, made as they are read.

    Split at h = n // 2: every word of rank n is a head, a word of rank
    n - h or one of rank n - h - 1 followed by a 2, then a tail of rank h
    or h - 1 to make up n.  The heads are prefix-free, so taking them in
    sorted order, each followed by every tail of its row in order, walks
    the row lexicographically.  Only `tails`, rows h and h - 1, and
    `blocks`, the (head, t) pairs in row order with t indexing `tails`, are
    kept: O(F(n/2)) words.  Each word read costs one tuple concatenation.
    """

    __slots__ = ("tails", "blocks", "_size")

    def __init__(self, n: int) -> None:
        h = n // 2
        heads, short_heads = _rows(n - h)
        self.tails = _rows(h)
        self.blocks = sorted([(w, 0) for w in heads] + [(w + (2,), 1) for w in short_heads])
        self._size = row_size(n)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Word]:
        return chain.from_iterable(map(head.__add__, self.tails[t]) for head, t in self.blocks)


def enumerate_rank(n: int) -> Row:
    """All words of rank n, exactly once, in lexicographic order (1 < 2).

    The guard runs here, at the call: ranks above ROW_MAX_RANK are refused
    before any word exists.  The row is lazy and can be walked any number
    of times; len() is its size, |F(n)| = |F(n-1)| + |F(n-2)| with
    |F(0)| = |F(1)| = 1.
    """
    check_rank(n, ROW_MAX_RANK)
    return Row(n)

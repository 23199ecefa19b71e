"""Word model for the Young-Fibonacci lattice.

Elements are finite words over the digit alphabet {1, 2}, graded by digit
sum.  Going down one rank, either a 2 with no 1 anywhere to its left turns
into a 1, or the leftmost 1 is deleted; going up is the exact inverse.
"""

from __future__ import annotations

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

# Empty-word token used on the command line and in DOT output, where a
# genuinely empty string is awkward.  JSON output uses "" instead.
EMPTY_TOKEN = "e"

# Rank guards, kept apart because they bound different work: 2^(n//2) subset
# products over a row of odd words, F(n+1) materialized words in a whole row.
SUBSET_MAX_RANK = 40
ROW_MAX_RANK = 24
TREE_MAX_RANK = 30  # about 3 * 2^(n//2) nodes: rank 30 peaks at 100 MiB as DOT, 281 MiB as JSON


def check_rank(n: int, limit: int | None = None) -> None:
    """Refuse a negative rank, and a rank above `limit` when one is given."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if limit is not None and n > limit:
        raise ValueError(f"rank {n} exceeds the enumeration guard of {limit}")


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


def word_text(w: Word, empty: str = EMPTY_TOKEN) -> str:
    """Render a word as a digit string; the empty word renders as `empty`."""
    return "".join(map(str, w)) if w else empty


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


def enumerate_rank(n: int) -> list[Word]:
    """All words of rank n, exactly once, in lexicographic order (1 < 2).

    Row sizes obey the Fibonacci recurrence |F(n)| = |F(n-1)| + |F(n-2)|
    with |F(0)| = |F(1)| = 1.  Ranks above ROW_MAX_RANK are refused.
    """
    check_rank(n, ROW_MAX_RANK)
    below: list[Word] = []  # row -1 is empty
    row = [EMPTY_WORD]
    for _ in range(n):
        # 1-prefixed extensions of the row sort before 2-prefixed ones of
        # the row below, so lexicographic order is preserved by construction.
        below, row = row, [(1,) + w for w in row] + [(2,) + w for w in below]
    return row

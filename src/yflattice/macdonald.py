"""Odd words and the Macdonald tree of the Young-Fibonacci lattice.

A word is odd when its chain count is odd, exactly when it splits into
blocks 2 / 11 after an optional leading 1 (present exactly at odd rank):
the split rule of primes.is_coprime_structural at p = 2.  The odd words
induce a binary tree: an even-rank node has the single child 1w, an
odd-rank node w = 1v has the two children 11v and 2v.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import accumulate
from typing import Iterator, NamedTuple

from .core import EMPTY_WORD, SUBSET_MAX_RANK, TREE_MAX_RANK, Word, check_rank, rank
from .primes import is_coprime_structural

# MacdonaldNode, MacdonaldTree, build_tree and f_valued_row are left out and
# no CLI route calls them: they stay only because perfbench/tracer.py wraps
# build_tree, MacdonaldTree.rows and f_valued_row by module path.
__all__ = ["f_valued_rows", "is_odd_word", "macdonald_children", "tree_rows"]


def is_odd_word(w: Word) -> bool:
    """True iff the chain count of w is odd: the coprime split rule at p = 2."""
    return is_coprime_structural(w, 2)


def _branch(row: list[tuple[Word, int]], r: int) -> list[tuple[Word, int]]:
    """Row r + 1 of the tree from row r, by the branching rule on (word, count) pairs.

    Even r: each w has the single child 1w with the same chain count.  Odd
    r: each w = 1v has the children 11v = 1w, keeping the count, and 2v,
    the count times r.  Children follow their parents' order, so node i of
    row r has its children at index i of row r + 1 (even r), or at 2i and
    2i + 1 (odd r).  f_valued_rows folds the same rule on the counts alone,
    as verify pi-row's second route.
    """
    if r % 2 == 0:
        return [("1" + w, f) for w, f in row]
    return [child for w, f in row for child in (("1" + w, f), ("2" + w[1:], f * r))]


def macdonald_children(w: Word) -> list[Word]:
    """The odd upper covers of an odd word, in tree order: `_branch` on w alone."""
    if not is_odd_word(w):
        raise ValueError(f"{w} is not an odd word")  # the empty word is odd
    return [child for child, _ in _branch([(w, 1)], rank(w))]


def tree_rows(max_rank: int) -> Iterator[list[tuple[Word, int]]]:
    """Rows 0..max_rank of the Macdonald tree, as (word, chain count) pairs.

    Row n holds the 2^(n//2) odd words of rank n in layout order (see
    `_branch`); each row is built from the one before, when it is asked
    for.  The rank guard runs at the call, before the first row.
    """
    check_rank(max_rank, TREE_MAX_RANK)
    return accumulate(range(max_rank), _branch, initial=[(EMPTY_WORD, 1)])


class MacdonaldNode(NamedTuple):
    word: Word
    f: int
    children: list["MacdonaldNode"]


class MacdonaldTree(NamedTuple):
    root: MacdonaldNode
    max_rank: int

    def rows(self) -> list[list[MacdonaldNode]]:
        """Nodes grouped by rank, each row in breadth-first layout order."""
        rows = [[self.root]]
        while len(rows) <= self.max_rank:
            rows.append([child for node in rows[-1] for child in node.children])
        return rows


def build_tree(max_rank: int) -> MacdonaldTree:
    """Materialize the Macdonald tree of odd words up to the given rank.

    One node per pair of `tree_rows`, made in one pass from the top row
    down to the root: each node takes as its children its slice of the row
    above, one node per parent below an even rank, two below an odd rank.
    """
    above: list[MacdonaldNode] = []
    for r, row in reversed(list(enumerate(tree_rows(max_rank)))):
        width = 1 + r % 2
        above = [MacdonaldNode(w, f, above[width * i : width * (i + 1)]) for i, (w, f) in enumerate(row)]
    return MacdonaldTree(above[0], max_rank)


def f_valued_rows(last: int) -> Iterator[tuple[int, Counter[int]]]:
    """Rows 0 through last with their multisets of chain counts, in one pass.

    Folds in the tree's branching rule, one distinct value per key: at each
    odd rank r every label is kept (11v) and label * r is added (2v), once
    on the way up.  Even ranks add nothing, so rows 2m and 2m+1 are the
    same Counter.  The guard runs before the first fold.
    """
    check_rank(last, SUBSET_MAX_RANK)
    row = Counter({1: 1})
    for n in range(last + 1):
        if n % 2 == 0 and n:
            r = n - 1
            grown = Counter(row)
            get = grown.get  # not +=, which calls Counter's __missing__ at every new key
            for f, count in row.items():
                g = f * r
                grown[g] = get(g, 0) + count
            row = grown
        yield n, row


def f_valued_row(n: int) -> Counter[int]:
    """Multiset of chain counts over the odd words of rank n: the last row of f_valued_rows(n)."""
    return deque(f_valued_rows(n), maxlen=1)[0][1]  # the walk's guard runs here, at the call

"""Odd words and the Macdonald tree of the Young-Fibonacci lattice.

A word is odd when its chain count is odd; equivalently, every 2 in it has
an even number of 1s to its right, so the word splits uniquely into blocks
2 / 11 after an optional leading 1 (present exactly at odd rank).  The odd
words induce a binary tree: an even-rank node has the single child 1w, an
odd-rank node w = 1v has the two children 11v and 2v.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .core import SUBSET_MAX_RANK, TREE_MAX_RANK, Word, check_rank, rank, word_text

TWO: Word = (2,)
ONE_ONE: Word = (1, 1)


def is_odd_word(w: Word) -> bool:
    """True iff the chain count of w is odd.

    Checked structurally: every 2 must see an even number of 1s to its
    right, which makes every factor of the product form odd.
    """
    ones = 0
    for x in reversed(w):
        if x == 1:
            ones += 1
        elif ones % 2:
            return False
    return True


def macdonald_children(w: Word) -> list[Word]:
    """The odd upper covers of an odd word, in tree order.

    Even rank: the single child 1w.  Odd rank: w = 1v, children [11v, 2v];
    the 11v branch keeps the parent's chain count, 2v scales it by rank(w).
    """
    if not is_odd_word(w):
        raise ValueError(f"{word_text(w)} is not an odd word")
    if rank(w) % 2 == 0:
        return [(1,) + w]
    v = w[1:]  # odd words of odd rank start with 1
    return [(1, 1) + v, (2,) + v]


@dataclass
class MacdonaldNode:
    word: Word
    f: int
    children: list["MacdonaldNode"] = field(default_factory=list)


@dataclass
class MacdonaldTree:
    root: MacdonaldNode
    max_rank: int

    def rows(self) -> list[list[MacdonaldNode]]:
        """Nodes grouped by rank, each row in breadth-first layout order."""
        rows = [[self.root]]
        while len(rows) <= self.max_rank:
            rows.append([child for node in rows[-1] for child in node.children])
        return rows

    def find(self, w: Word) -> MacdonaldNode:
        for row in self.rows():
            for node in row:
                if node.word == w:
                    return node
        raise ValueError(f"{word_text(w)} is not a node of this tree (odd words up to rank {self.max_rank})")


def build_tree(max_rank: int) -> MacdonaldTree:
    """Materialize the Macdonald tree of odd words up to the given rank.

    Breadth-first from the empty word; row n holds 2^(n//2) nodes, each
    carrying its chain count.  A child's count comes from its parent's: the
    same for 1w and 11v, times the parent's rank for 2v.
    """
    check_rank(max_rank, TREE_MAX_RANK)
    root = MacdonaldNode((), 1)
    frontier = [root]
    for r in range(max_rank):
        grown: list[MacdonaldNode] = []
        for node in frontier:
            for cw in macdonald_children(node.word):
                child = MacdonaldNode(cw, node.f * r if cw[0] == 2 else node.f)
                node.children.append(child)
                grown.append(child)
        frontier = grown
    return MacdonaldTree(root, max_rank)


def f_valued_row(n: int) -> Counter[int]:
    """Multiset of chain counts over the odd words of rank n.

    Folds in the tree's branching rule, one distinct value per key: at each
    odd rank r < n every label is kept (11v) and label * r is added (2v).
    Even ranks add nothing, so rows 2m and 2m+1 agree.
    """
    check_rank(n, SUBSET_MAX_RANK)
    row = Counter({1: 1})
    for r in range(1, n, 2):
        grown = Counter(row)
        for f, count in row.items():
            grown[f * r] += count
        row = grown
    return row


def verify_subtree_self_similarity(tree: MacdonaldTree, w: Word) -> bool:
    """Check the recursive self-similarity of the tree below w, rank(w) = 2m.

    To the depth the tree affords: w has the single child 1w and 1w's first
    child is 11w, both with chain count f_w; and 1w's two branches mirror
    the depth-truncated Macdonald tree, node for node, under v -> v·11w and
    v -> v·2w, every label in the 2w branch (2m+1) times its mirror in the
    11w branch.  Rejects non-odd or odd-rank roots.
    """
    if not is_odd_word(w):
        raise ValueError(f"{word_text(w)} is not an odd word")
    if rank(w) % 2:
        raise ValueError(f"{word_text(w)} has odd rank; self-similarity roots at even rank")
    node = tree.find(w)
    if tree.max_rank < rank(w) + 1:
        return True  # nothing below w to compare
    if len(node.children) != 1:
        return False
    child = node.children[0]
    if child.word != (1,) + w or child.f != node.f:
        return False
    if tree.max_rank < rank(w) + 2:
        return True
    if len(child.children) != 2 or child.children[0].f != node.f:
        return False
    scale = rank(w) + 1

    def mirrored(ref: MacdonaldNode, left: MacdonaldNode, right: MacdonaldNode) -> bool:
        return (
            left.word == ref.word + ONE_ONE + w
            and right.word == ref.word + TWO + w
            and right.f == scale * left.f
            and len(left.children) == len(right.children) == len(ref.children)
            and all(map(mirrored, ref.children, left.children, right.children))
        )

    return mirrored(build_tree(tree.max_rank - rank(w) - 2).root, *child.children)

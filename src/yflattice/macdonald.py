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


def _violating_two(w: Word) -> int:
    """1-based position of the rightmost 2 with oddly many 1s to its right, or 0."""
    ones = 0
    for i, x in enumerate(reversed(w)):
        if x == 1:
            ones += 1
        elif ones % 2:
            return len(w) - i
    return 0


def is_odd_word(w: Word) -> bool:
    """True iff the chain count of w is odd.

    Checked structurally: every 2 must see an even number of 1s to its
    right, which makes every factor of the product form odd.
    """
    return not _violating_two(w)


@dataclass(frozen=True)
class BlockForm:
    """Decomposition of an odd word: optional leading 1, then 2/11 blocks.

    Blocks are indexed right to left, so blocks[0] is the rightmost block;
    the chain count is the product of 2i+1 over the 2-block indices i.
    """

    leading_one: bool
    blocks: tuple[Word, ...]

    def reassemble(self) -> Word:
        word: Word = (1,) if self.leading_one else ()
        for block in reversed(self.blocks):
            word += block
        return word


def block_decompose(w: Word) -> BlockForm:
    """Split an odd word into its unique block form.

    The leading 1 is forced by rank parity and the block boundaries are
    forced left to right.  Non-odd words are rejected, naming a 2 with an
    odd number of 1s to its right.
    """
    if pos := _violating_two(w):
        raise ValueError(
            f"{word_text(w)} is not an odd word: the 2 at position {pos} has an odd number of 1s to its right"
        )
    i = rank(w) % 2
    blocks: list[Word] = []
    while i < len(w):
        if w[i] == 2:
            blocks.append(TWO)
            i += 1
        else:
            blocks.append(ONE_ONE)
            i += 2
    blocks.reverse()
    return BlockForm(rank(w) % 2 == 1, tuple(blocks))


def f_odd_product(form: BlockForm) -> int:
    """Chain count of an odd word from its block form.

    One factor 2i+1 per 2-block at right-to-left index i; 11-blocks and the
    leading 1 contribute nothing.
    """
    f = 1
    for i, block in enumerate(form.blocks):
        if block == TWO:
            f *= 2 * i + 1
    return f


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


def odd_row_words(n: int) -> list[Word]:
    """All odd words of rank n (there are 2^(n//2)), in lexicographic order."""
    check_rank(n, SUBSET_MAX_RANK)
    words: list[Word] = [(1,) if n % 2 else ()]
    for _ in range(n // 2):
        # appending 11 before 2 preserves lexicographic order
        words = [w + block for w in words for block in (ONE_ONE, TWO)]
    return words


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

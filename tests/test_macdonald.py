from collections import Counter

from hypothesis import given, settings, strategies as st
import pytest

from yflattice import macdonald, residues
from yflattice import (
    covers_up,
    enumerate_rank,
    f_product,
    f_recursive,
    is_odd_word,
    macdonald_children,
    rank,
    tree_rows,
    word_text,
)
from yflattice.macdonald import build_tree, f_valued_row

words = st.lists(st.sampled_from([1, 2]), max_size=12).map(tuple)


@st.composite
def odd_words(draw, max_blocks=7):
    lead = draw(st.booleans())
    blocks = draw(st.lists(st.sampled_from([(2,), (1, 1)]), max_size=max_blocks))
    word = (1,) if lead else ()
    for b in blocks:
        word += b
    return word


def test_is_odd_word_known():
    assert is_odd_word(())
    assert not is_odd_word((2, 1))
    assert is_odd_word((2, 1, 1, 2))
    assert not is_odd_word((1, 2, 1))
    assert not is_odd_word((2, 1, 1, 2, 1))


@given(words)
def test_is_odd_word_matches_parity(w):
    assert is_odd_word(w) == (f_recursive(w) % 2 == 1)


def test_macdonald_children_known():
    assert macdonald_children(()) == [(1,)]
    assert macdonald_children((1, 1)) == [(1, 1, 1)]
    assert macdonald_children((1, 1, 1)) == [(1, 1, 1, 1), (2, 1, 1)]


@given(odd_words())
def test_macdonald_children_are_odd_upper_covers(w):
    kids = macdonald_children(w)
    assert len(kids) == (1 if rank(w) % 2 == 0 else 2)
    ups = covers_up(w)
    for child in kids:
        assert child in ups
        assert is_odd_word(child)
    # and they are the only odd words among the upper covers
    assert sum(1 for u in ups if is_odd_word(u)) == len(kids)


@given(odd_words(max_blocks=5))
def test_children_chain_counts(w):
    if rank(w) % 2 == 1:
        a, b = (f_product(c) for c in macdonald_children(w))
        assert sorted([a, b]) == sorted([f_product(w), rank(w) * f_product(w)])
    else:
        (child,) = macdonald_children(w)
        assert f_product(child) == f_product(w)


def test_build_tree_row_sizes():
    tree = build_tree(7)
    assert [len(row) for row in tree.rows()] == [1, 1, 2, 2, 4, 4, 8, 8]


def test_build_tree_layout_rank_seven():
    tree = build_tree(7)
    top = [word_text(node.word) for node in tree.rows()[7]]
    assert top == ["1111111", "121111", "111211", "12211", "111112", "12112", "11122", "1222"]


def test_build_tree_rank_six_nodes():
    tree = build_tree(6)
    row = tree.rows()[6]
    assert {word_text(node.word) for node in row} == {
        "111111", "21111", "11211", "2211", "11112", "2112", "1122", "222",
    }
    assert Counter(node.f for node in row) == Counter({1: 2, 3: 2, 5: 2, 15: 2})


def test_build_tree_edges_are_lattice_edges():
    tree = build_tree(8)
    for row in tree.rows():
        for node in row:
            for child in node.children:
                assert child.word in covers_up(node.word)


def test_build_tree_labels_are_chain_counts():
    for row in build_tree(16).rows():
        for node in row:
            assert node.f == f_product(node.word)


def test_tree_labels_are_chain_counts_to_the_tree_guard():
    # every rank tree_rows accepts: each label against its word, each row against pi_rows
    for (n, products), row in zip(residues.pi_rows(30), tree_rows(30)):
        for word, f in row:
            assert f == f_product(word) and f % 2 == 1, (n, word)
        assert Counter(f for _, f in row) == products, n
    assert n == 30


def test_build_tree_rows_are_the_odd_rows():
    for n, row in enumerate(build_tree(16).rows()):
        assert sorted(node.word for node in row) == [w for w in enumerate_rank(n) if is_odd_word(w)]


def test_build_tree_trivial():
    tree = build_tree(0)
    assert tree.root.word == ()
    assert tree.root.f == 1
    assert tree.root.children == []


@pytest.mark.parametrize("max_rank", range(13))
def test_tree_rows_are_the_build_tree_rows(max_rank):
    built = build_tree(max_rank).rows()
    assert list(tree_rows(max_rank)) == [[(node.word, node.f) for node in row] for row in built]
    assert all(node.children == [] for node in built[-1])


def test_tree_rows_as_text_are_the_word_rows():
    # one branching rule: the digit-string walk is the word walk through word_text(w, "")
    for n in range(23):
        assert list(tree_rows(n, root="")) == [[(word_text(w, ""), f) for w, f in row] for row in tree_rows(n)]


def test_f_valued_row_known():
    assert f_valued_row(0) == Counter({1: 1})
    assert f_valued_row(4) == Counter({1: 2, 3: 2})
    assert f_valued_row(6) == Counter({1: 2, 3: 2, 5: 2, 15: 2})
    assert f_valued_row(7) == f_valued_row(6)


def test_f_valued_row_matches_word_enumeration():
    for n in range(13):
        expected = Counter(f_product(w) for w in enumerate_rank(n) if is_odd_word(w))
        assert f_valued_row(n) == expected


@given(st.integers(min_value=0, max_value=15))
def test_f_valued_row_pairs(m):
    assert f_valued_row(2 * m + 1) == f_valued_row(2 * m)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=24))
def test_f_valued_rows_are_fresh_rows(last):
    # read one row at a time, as the walk asks; the tree's rows are the reference
    n = -1
    for (n, row), nodes in zip(macdonald.f_valued_rows(last), tree_rows(last), strict=True):
        assert row == f_valued_row(n) == Counter(f for _, f in nodes)
        assert 0 not in row.values()
    assert n == last


def _levels(node):
    """The subtree below node, level by level in layout order."""
    levels = [[node]]
    while levels[-1][0].children:
        levels.append([child for x in levels[-1] for child in x.children])
    return levels


def test_self_similarity_holds_at_even_roots():
    # below an even-rank w: the single child 1w, then 11w and 2w, whose
    # subtrees are the Macdonald tree under v -> v·11w and v -> v·2w, the
    # 2w side labelled rank(w) + 1 times its mirror
    tree = build_tree(9)
    for n in (0, 2, 4, 6):
        ref = build_tree(9 - n - 2).rows()
        for node in tree.rows()[n]:
            w = node.word
            (child,) = node.children
            assert child.word == (1,) + w and child.f == node.f
            left, right = child.children
            assert left.f == node.f
            lefts, rights = _levels(left), _levels(right)
            assert len(lefts) == len(rights) == len(ref)
            for ref_row, left_row, right_row in zip(ref, lefts, rights):
                assert [x.word for x in left_row] == [x.word + (1, 1) + w for x in ref_row]
                assert [x.word for x in right_row] == [x.word + (2,) + w for x in ref_row]
                assert [x.f for x in right_row] == [(n + 1) * x.f for x in left_row]


def test_self_similarity_scaled_branch():
    # below the word 2 the right-hand branch runs at three times the left
    (node,) = [x for x in build_tree(6).rows()[3] if x.word == (1, 2)]
    left, right = node.children
    assert left.word == (1, 1, 2) and right.word == (2, 2)
    for left_row, right_row in zip(_levels(left), _levels(right)):
        assert [x.f for x in right_row] == [3 * x.f for x in left_row]

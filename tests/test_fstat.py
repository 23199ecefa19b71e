from hypothesis import example, given, settings, strategies as st
import pytest

from yflattice import covers_down, enumerate_rank, f_blocks, f_product, f_recursive, f_row, parse_word, rank, word_text
from yflattice.fstat import f_mod

words = st.text(alphabet="12", max_size=12)

KNOWN = {
    "": 1,
    "1": 1,
    "2": 1,
    "12": 1,
    "21": 2,
    "22": 3,
    "121": 2,
    "211": 3,
    "212": 4,
    "221": 8,
    "222": 15,
    "1122": 3,
    "1221": 8,
    "2112": 5,
    "2121": 10,
    "2211": 15,
    "222222222222": 316234143225,  # 23!!, one factor per 2
}


@pytest.mark.parametrize("text,expected", sorted(KNOWN.items()))
def test_known_values_product(text, expected):
    assert f_product(parse_word(text)) == expected


@pytest.mark.parametrize("text,expected", sorted(KNOWN.items()))
def test_known_values_recursive(text, expected):
    assert f_recursive(parse_word(text)) == expected


def test_rank_six_row():
    got = {w: f_product(w) for w in enumerate_rank(6)}
    assert got == {
        "111111": 1,
        "11112": 1,
        "11121": 2,
        "11211": 3,
        "1122": 3,
        "12111": 4,
        "1212": 4,
        "1221": 8,
        "21111": 5,
        "2112": 5,
        "2121": 10,
        "2211": 15,
        "222": 15,
    }


@given(words)
def test_product_and_recursion_agree(w):
    assert f_product(w) == f_recursive(w)


@given(words)
def test_chain_count_sums_over_lower_covers(w):
    if w:
        assert f_product(w) == sum(f_product(v) for v in covers_down(w))


@given(words)
def test_prefix_rules(w):
    # a leading 1 changes nothing; a leading 2 multiplies by rank+1
    assert f_product("1" + w) == f_product(w)
    assert f_product("2" + w) == (rank(w) + 1) * f_product(w)


@given(words, st.sampled_from([2, 3, 4, 8, 16, 101]))
def test_f_mod_matches_full_value(w, m):
    assert f_mod(w, m) == f_recursive(w) % m


def _per_word(n):
    return [(w, f_product(w)) for w in enumerate_rank(n)]


def test_block_walk_is_the_per_word_row():
    for n in range(21):
        assert list(f_row(n)) == _per_word(n)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 24))
@example(24)
def test_block_walk_is_the_per_word_row_to_the_guard(n):
    assert list(f_row(n)) == _per_word(n)


def test_block_texts_are_the_word_texts():
    for n in range(21):
        tails, fs, blocks = f_blocks(n)
        assert fs == tuple([f_product(w) for w in row] for row in tails)
        texts = [word_text(head, "") + word_text(tail, "") for head, _, t in blocks for tail in tails[t]]
        assert texts == [word_text(w, "") for w in enumerate_rank(n)]

import tracemalloc

from hypothesis import given, strategies as st

from yflattice import (
    covers_down,
    covers_up,
    enumerate_rank,
    parse_word,
    rank,
    word_text,
)
from yflattice.core import ROW_MAX_RANK

words = st.lists(st.sampled_from([1, 2]), max_size=12).map(tuple)


def test_parse_word_basic():
    assert parse_word("2112") == (2, 1, 1, 2)
    assert parse_word("1") == (1,)
    assert parse_word("e") == ()
    assert parse_word("") == ()


@given(words)
def test_parse_round_trip(w):
    assert parse_word(word_text(w)) == w


def test_word_text_empty_token():
    assert word_text(()) == "e"
    assert word_text((), empty="") == ""
    assert word_text((1, 2)) == "12"


def test_rank_is_digit_sum():
    assert rank(()) == 0
    assert rank((2, 1, 1, 2)) == 6


def test_covers_down_known():
    assert covers_down(()) == set()
    assert covers_down((1,)) == {()}
    assert covers_down((2, 1)) == {(1, 1), (2,)}
    assert covers_down((2, 2, 1)) == {(1, 2, 1), (2, 1, 1), (2, 2)}


def test_covers_up_known():
    assert covers_up(()) == {(1,)}
    assert covers_up((2, 2)) == {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
    assert covers_up((1,)) == {(2,), (1, 1)}


@given(words)
def test_cover_duality(w):
    for u in covers_up(w):
        assert w in covers_down(u)
    for v in covers_down(w):
        assert w in covers_up(v)


@given(words)
def test_covers_shift_rank_by_one(w):
    assert all(rank(u) == rank(w) + 1 for u in covers_up(w))
    assert all(rank(v) == rank(w) - 1 for v in covers_down(w))


@given(words)
def test_one_more_upper_cover_than_lower(w):
    assert len(covers_up(w)) == len(covers_down(w)) + 1


def _reference_rows(max_rank):
    """Rows 0..max_rank as lists, by the Fibonacci recurrence on whole rows."""
    below, row = [], [()]
    for _ in range(max_rank + 1):
        yield row
        below, row = row, [(1,) + w for w in row] + [(2,) + w for w in below]


def test_enumerate_rank_sizes_are_fibonacci():
    sizes = [sum(1 for _ in enumerate_rank(n)) for n in range(12)]
    assert sizes == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert [len(enumerate_rank(n)) for n in range(12)] == sizes


def test_enumerate_rank_is_the_reference_row():
    for n, expected in enumerate(_reference_rows(ROW_MAX_RANK)):
        row = enumerate_rank(n)
        assert list(row) == expected
        assert list(row) == expected  # a second walk of the same row
        assert len(row) == len(expected)


def test_row_blocks_index_its_two_tails_rows():
    rows = list(_reference_rows(ROW_MAX_RANK))
    for n in range(2, ROW_MAX_RANK + 1):
        h, row = n // 2, enumerate_rank(n)
        assert row.tails == (rows[h], rows[h - 1])
        heads = [head for head, _ in row.blocks]
        assert all(a < b for a, b in zip(heads, heads[1:]))  # strictly increasing
        for head, t in row.blocks:
            assert t in (0, 1)
            assert rank(head) + h - t == n


def test_enumerate_rank_drains_in_small_memory():
    tracemalloc.start()
    try:
        for _ in enumerate_rank(22):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the list of row 22 alone held 10.4 MiB
    assert peak < 1 << 20


def test_enumerate_rank_known_row():
    assert [word_text(w) for w in enumerate_rank(4)] == ["1111", "112", "121", "211", "22"]


def test_enumerate_rank_sorted_and_unique():
    for n in range(9):
        row = enumerate_rank(n)
        assert list(row) == sorted(set(row))
        assert all(rank(w) == n for w in row)


def test_enumerate_rank_closed_under_covers():
    rows = [set(enumerate_rank(n)) for n in range(9)]
    for n in range(1, 9):
        for w in rows[n]:
            assert covers_down(w) <= rows[n - 1]

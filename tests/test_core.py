import tracemalloc

from hypothesis import given, settings, strategies as st

from yflattice import (
    covers_down,
    covers_up,
    enumerate_rank,
    f_product,
    is_coprime_structural,
    parse_word,
    rank,
    word_text,
)
from yflattice.core import ROW_MAX_RANK

words = st.text(alphabet="12", max_size=12)


def test_parse_word_basic():
    assert parse_word("2112") == "2112"
    assert parse_word("1") == "1"
    assert parse_word("e") == ""
    assert parse_word("") == ""


@given(words)
def test_parse_round_trip(w):
    assert parse_word(word_text(w)) == w


def test_word_text_empty_token():
    assert word_text("") == "e"
    assert word_text("", empty="") == ""
    assert word_text("12") == "12"


def test_rank_is_digit_sum():
    assert rank("") == 0
    assert rank("2112") == 6


def test_covers_down_known():
    assert covers_down("") == set()
    assert covers_down("1") == {""}
    assert covers_down("21") == {"11", "2"}
    assert covers_down("221") == {"121", "211", "22"}


def test_covers_up_known():
    assert covers_up("") == {"1"}
    assert covers_up("22") == {"122", "212", "221"}
    assert covers_up("1") == {"2", "11"}


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


# References on digit tuples, run on tuple(map(int, w)): the word model's
# formulas read as digit sums, apart from any string method.
def _tuple_leading_twos(t):
    a = 0
    while a < len(t) and t[a] == 2:
        a += 1
    return a


def _tuple_covers_down(t):
    a = _tuple_leading_twos(t)
    below = {t[:i] + (1,) + t[i + 1 :] for i in range(a)}
    if a < len(t):
        below.add(t[:a] + t[a + 1 :])
    return below


def _tuple_covers_up(t):
    a = _tuple_leading_twos(t)
    above = {t[:i] + (1,) + t[i:] for i in range(a + 1)}
    if a < len(t):
        above.add(t[:a] + (2,) + t[a + 1 :])
    return above


def _tuple_f_product(t):
    f, suffix = 1, 0
    for x in reversed(t):
        suffix += x
        if x == 2:
            f *= suffix - 1
    return f


def _tuple_coprime(t, p):
    acc, cut = 0, sum(t) % p
    for x in t:
        if acc == cut:
            cut += p
        acc += x
        if acc > cut:
            return False
    return True


def _digits(w):
    return tuple(map(int, w))


@settings(max_examples=500)
@given(st.text(alphabet="12", max_size=30))
def test_string_words_match_the_tuple_formulas(w):
    t = _digits(w)
    assert rank(w) == sum(t)
    assert set(map(_digits, covers_down(w))) == _tuple_covers_down(t)
    assert set(map(_digits, covers_up(w))) == _tuple_covers_up(t)
    assert f_product(w) == _tuple_f_product(t)
    for p in (2, 3, 5, 7):
        assert is_coprime_structural(w, p) == _tuple_coprime(t, p), p


def _reference_rows(max_rank):
    """Rows 0..max_rank as lists, by the Fibonacci recurrence on whole rows."""
    below, row = [], [""]
    for _ in range(max_rank + 1):
        yield row
        below, row = row, ["1" + w for w in row] + ["2" + w for w in below]


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

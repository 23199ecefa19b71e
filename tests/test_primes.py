from collections import Counter
from unittest import mock

from hypothesis import given, settings, strategies as st
import pytest

from yflattice import (
    coprime_count,
    enumerate_rank,
    f_blocks,
    f_product,
    f_row,
    is_coprime_structural,
    is_odd_word,
    is_prime,
    residue_distribution_mod_p,
)
from yflattice import primes
from yflattice.primes import is_coprime_direct

words = st.text(alphabet="12", max_size=14)
small_primes = st.sampled_from([2, 3, 5, 7, 11])


def test_is_prime_small_range():
    got = [p for p in range(60) if is_prime(p)]
    assert got == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 + 1)
    assert is_prime(10**18 + 9)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_is_coprime_direct_known():
    assert not is_coprime_direct("22", 3)
    assert is_coprime_direct("21", 3)
    assert is_coprime_direct("", 7)


def test_is_coprime_structural_known():
    assert is_coprime_structural("121", 3)
    assert not is_coprime_structural("211", 3)
    assert is_coprime_structural("22", 5)


@given(words, small_primes)
def test_structural_equals_direct(w, p):
    assert is_coprime_structural(w, p) == is_coprime_direct(w, p)


@given(st.text(alphabet="12", max_size=60), st.sampled_from([2, 3, 5, 7, 11, 13, 31, 61]))
def test_structural_pointer_walk_equals_direct_on_long_words(w, p):
    assert is_coprime_structural(w, p) == is_coprime_direct(w, p)


@given(st.sampled_from([p for p in range(32) if is_prime(p)]), st.integers(0, 18))
def test_structural_factors_at_the_seam(p, n):
    # the seam rule verify coprime reads rows by: a word head + tail of row n
    # splits iff the head splits from cut n mod p and the tail splits on its own
    tails, _, blocks = f_blocks(n)
    for head, _, t in blocks:
        head_splits = primes.splits(head, n % p, p)
        for tail in tails[t]:
            assert is_coprime_structural(head + tail, p) == (head_splits and is_coprime_structural(tail, p))


def test_each_prime_is_tested_once_per_scan(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return is_prime(p)

    primes.check_prime.cache_clear()
    monkeypatch.setattr(primes, "is_prime", counted)
    for n in range(11):
        for w in enumerate_rank(n):
            assert is_coprime_structural(w, 3) == is_coprime_direct(w, 3)
    assert calls == [3]
    for _ in range(2):  # a refusal is never cached
        with pytest.raises(ValueError, match="^9 is not prime$"):
            is_coprime_direct("2", 9)
        with pytest.raises(ValueError, match="^9 is not prime$"):
            is_coprime_structural("2", 9)
    assert calls == [3, 9, 9, 9, 9]
    primes.check_prime.cache_clear()


def test_structural_at_two_is_oddness():
    # every word of ranks 0..20, 28656 of them, against the block walk's counts
    for n in range(21):
        for w, f in f_row(n):
            assert is_odd_word(w) == is_coprime_structural(w, 2) == (f % 2 == 1)


def _enumerated_count(p, n):
    return sum(is_coprime_direct(w, p) for w in enumerate_rank(n))


def test_coprime_count_known_sequence():
    got = [coprime_count(3, n) for n in range(13)]
    assert got == [1, 1, 2, 3, 3, 6, 9, 9, 18, 27, 27, 54, 81]
    assert type(got[0]) is int


def test_coprime_count_modes_agree():
    for p in (2, 3, 5, 7):
        for n in range(16):
            assert coprime_count(p, n) == _enumerated_count(p, n)


def test_coprime_count_closed_form_reaches_far():
    assert coprime_count(3, 100) == coprime_count(3, 3) ** 33 * 1
    assert coprime_count(2, 60) == 2**30
    assert coprime_count(3, 2**18) == 3 ** (2**18 // 3)  # the last rank accepted: 2^18 = 3m + 1, |row 1| = 1


def test_coprime_count_at_two_counts_odd_words():
    for n in range(15):
        assert _enumerated_count(2, n) == coprime_count(2, n) == 1 << (n // 2)


def test_coprime_count_closed_needs_no_enumeration(monkeypatch):
    expected = {(p, n): _enumerated_count(p, n) for p in (2, 3, 5, 7, 11) for n in range(15)}

    def refuse(n):
        raise AssertionError("closed route enumerated a row")

    monkeypatch.setattr("yflattice.primes.f_blocks", refuse)
    monkeypatch.setattr("yflattice.fstat.enumerate_rank", refuse)
    for (p, n), count in expected.items():
        assert coprime_count(p, n) == count
    # |row 29| = F(30) = 832040, |row 2| = 2
    assert coprime_count(29, 60) == 832040**2 * 2


def test_residue_distribution_known():
    assert residue_distribution_mod_p(3, 3) == {1: 2, 2: 1}
    assert residue_distribution_mod_p(0, 5) == {1: 1, 2: 0, 3: 0, 4: 0}
    assert sum(residue_distribution_mod_p(3, 524287).values()) == 3  # the largest p accepted


def test_residue_distribution_not_flat_witnesses():
    for n in (3, 6):
        counts = residue_distribution_mod_p(n, 3)
        assert len(set(counts.values())) > 1
    assert residue_distribution_mod_p(6, 3) == {1: 5, 2: 4}


def test_residue_distribution_counts_coprime_words():
    # every bucket against one f_product per word
    for n in range(17):
        fs = [f_product(w) for w in enumerate_rank(n)]
        for p in (3, 5, 7, 11, 13, 29):
            tally = Counter(f % p for f in fs)
            assert residue_distribution_mod_p(n, p) == {r: tally[r] for r in range(1, p)}, (n, p)
        assert 0 not in tally  # at p = 29 every factor is below p: no word lands in bucket 0


@given(st.integers(min_value=0, max_value=24), st.sampled_from([3, 5, 7, 11, 13]))
@settings(max_examples=40, deadline=None)
def test_residue_distribution_keys_and_mass(n, p):
    # a plain dict over the nonzero residues in order, whose mass is the closed-form coprime count
    h = residue_distribution_mod_p(n, p)
    assert list(h) == list(range(1, p))
    assert sum(h.values()) == coprime_count(p, n)


def test_verify_coprime_default_primes_only_for_none():
    # None selects 2, 3, 5, 7; an empty list, as an empty iterator, selects no prime
    assert [r["p"] for r in primes.verify_coprime(2)] == [2, 2, 2, 3, 3, 3, 5, 5, 5, 7, 7, 7]
    assert primes.verify_coprime(2, []) == primes.verify_coprime(2, iter([])) == []


@given(st.integers(0, 12), st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=6, unique=True))
@settings(max_examples=40, deadline=None)
def test_verify_coprime_price_is_the_heads_and_tails_it_reads(max_n, ps):
    # every head goes through splits once and every tail through is_coprime_structural, which calls splits
    calls = Counter()
    splits, structural = primes.splits, primes.is_coprime_structural

    def counted_splits(w, cut, p):
        calls["splits"] += 1
        return splits(w, cut, p)

    def counted_structural(w, p):
        calls["tails"] += 1
        return structural(w, p)

    with mock.patch.object(primes, "splits", counted_splits):
        with mock.patch.object(primes, "is_coprime_structural", counted_structural):
            primes.verify_coprime(max_n, ps)
    tails = sum(primes.row_size(n // 2 + 1) for n in range(max_n + 1))
    heads = sum(primes.row_size(n - n // 2 + 1) for n in range(max_n + 1))
    assert (calls["tails"], calls["splits"] - calls["tails"]) == (len(ps) * tails, len(ps) * heads)
    # the guard prices exactly that count: one under it is refused, naming it
    read = calls["splits"]
    with mock.patch.object(primes, "COPRIME_MAX_HEADS_AND_TAILS", read - 1):
        with pytest.raises(ValueError, match=f" read {read} heads and tails, over the guard of {read - 1}$"):
            primes.verify_coprime(max_n, ps)
    with mock.patch.object(primes, "COPRIME_MAX_HEADS_AND_TAILS", read):
        assert len(primes.verify_coprime(max_n, ps)) == len(ps) * (max_n + 1)

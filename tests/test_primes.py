from hypothesis import given, settings, strategies as st
import pytest

from yflattice import (
    coprime_count,
    enumerate_rank,
    f_product,
    is_coprime_direct,
    is_coprime_structural,
    is_odd_word,
    is_prime,
    residue_distribution_mod_p,
)

words = st.lists(st.sampled_from([1, 2]), max_size=14).map(tuple)
small_primes = st.sampled_from([2, 3, 5, 7, 11])


def test_is_prime_small_range():
    got = [p for p in range(60) if is_prime(p)]
    assert got == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 + 1)
    assert is_prime(10**18 + 9)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_is_prime_refuses_past_witness_bound():
    # 399165290221 * 798330580441, a strong pseudoprime to every witness
    with pytest.raises(ValueError, match="318665857834031151167461"):
        is_prime(318665857834031151167461)


def test_is_coprime_direct_known():
    assert not is_coprime_direct((2, 2), 3)
    assert is_coprime_direct((2, 1), 3)
    assert is_coprime_direct((), 7)
    with pytest.raises(ValueError):
        is_coprime_direct((2, 1), 4)


def test_is_coprime_structural_known():
    assert is_coprime_structural((1, 2, 1), 3)
    assert not is_coprime_structural((2, 1, 1), 3)
    assert is_coprime_structural((2, 2), 5)
    with pytest.raises(ValueError):
        is_coprime_structural((2, 2), 9)


@given(words, small_primes)
def test_structural_equals_direct(w, p):
    assert is_coprime_structural(w, p) == is_coprime_direct(w, p)


@given(words)
def test_structural_at_two_is_oddness(w):
    assert is_coprime_structural(w, 2) == is_odd_word(w)


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


def test_coprime_count_at_two_counts_odd_words():
    for n in range(15):
        assert _enumerated_count(2, n) == coprime_count(2, n) == 1 << (n // 2)


def test_coprime_count_closed_needs_no_enumeration(monkeypatch):
    expected = {(p, n): _enumerated_count(p, n) for p in (2, 3, 5, 7, 11) for n in range(15)}

    def refuse(n):
        raise AssertionError("closed route enumerated a row")

    monkeypatch.setattr("yflattice.primes.enumerate_rank", refuse)
    for (p, n), count in expected.items():
        assert coprime_count(p, n) == count
    # |row 29| = F(30) = 832040, |row 2| = 2
    assert coprime_count(29, 60) == 832040**2 * 2


def test_coprime_count_guards():
    with pytest.raises(ValueError):
        coprime_count(4, 3)
    with pytest.raises(ValueError):
        coprime_count(3, -1)
    with pytest.raises(ValueError, match="guard of 262144"):
        coprime_count(3, 2**18 + 1)
    assert coprime_count(3, 2**18) == 3 ** (2**18 // 3)  # 2^18 = 3m + 1, |row 1| = 1


def test_residue_distribution_known():
    assert residue_distribution_mod_p(3, 3) == {1: 2, 2: 1}
    assert residue_distribution_mod_p(0, 5) == {1: 1, 2: 0, 3: 0, 4: 0}


def test_residue_distribution_not_flat_witnesses():
    for n in (3, 6):
        counts = residue_distribution_mod_p(n, 3)
        assert len(set(counts.values())) > 1
    assert residue_distribution_mod_p(6, 3) == {1: 5, 2: 4}


def test_residue_distribution_counts_coprime_words():
    for n in range(9):
        counts = residue_distribution_mod_p(n, 5)
        expected = sum(1 for w in enumerate_rank(n) if f_product(w) % 5)
        assert sum(counts.values()) == expected


def test_residue_distribution_guards():
    with pytest.raises(ValueError):
        residue_distribution_mod_p(3, 2)
    with pytest.raises(ValueError):
        residue_distribution_mod_p(3, 6)
    with pytest.raises(ValueError):
        residue_distribution_mod_p(25, 3)
    with pytest.raises(ValueError, match="guard of 524288"):
        residue_distribution_mod_p(3, 1000003)
    assert sum(residue_distribution_mod_p(3, 524287).values()) == 3

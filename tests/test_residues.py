from collections import Counter

from hypothesis import given, settings, strategies as st
import pytest

from yflattice import residues
from yflattice import (
    ResidueHistogram,
    enumerate_rank,
    f_mod,
    f_valued_row,
    is_equidistributed,
    is_odd_word,
    multiplicative_shift,
    pi_multiset,
    residue_histogram_dp,
    residue_histogram_enum,
    verify_main_theorem,
    verify_one_step,
)


def test_enum_known_histograms():
    assert residue_histogram_enum(6, 3).counts == {1: 2, 3: 2, 5: 2, 7: 2}
    assert residue_histogram_enum(5, 3).counts == {1: 2, 3: 2, 5: 0, 7: 0}
    assert residue_histogram_enum(0, 2).counts == {1: 1, 3: 0}


def test_dp_known_histograms():
    assert residue_histogram_dp(6, 3).counts == {1: 2, 3: 2, 5: 2, 7: 2}
    assert residue_histogram_dp(4, 2).counts == {1: 2, 3: 2}
    assert residue_histogram_dp(1, 1).counts == {1: 1}


def test_histogram_guards():
    with pytest.raises(ValueError):
        residue_histogram_enum(41, 3)
    with pytest.raises(ValueError):
        residue_histogram_enum(4, 0)
    with pytest.raises(ValueError):
        residue_histogram_dp(4, 0)
    with pytest.raises(ValueError):
        residue_histogram_dp(-1, 3)
    with pytest.raises(ValueError, match="guard of 20"):
        residue_histogram_dp(4, 21)
    with pytest.raises(ValueError, match="guard of 20"):
        residue_histogram_enum(4, 21)


@given(st.integers(min_value=0, max_value=24), st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_dp_equals_enum(n, k):
    assert residue_histogram_dp(n, k) == residue_histogram_enum(n, k)


def test_dlog_is_a_bijection_onto_odd_residues():
    for k in range(1, 13):
        m = 1 << k
        size = max(1, m >> 2)
        dlog = residues._dlog(k)
        assert len(dlog) == m >> 1
        assert len(set(dlog)) == len(dlog)
        for i, code in enumerate(dlog):
            s, e = divmod(code, size)
            assert e < size and s in ((0,) if k == 1 else (0, 1))
            assert 2 * i + 1 == (-1) ** s * pow(5, e, m) % m


def test_dp_equals_enum_where_factors_wrap():
    # factors past 2^k wrap around, and 2^k - 1 is -1 (s = 1, e = 0)
    for k in range(1, 5):
        for n in range((1 << k) + 7):
            assert residue_histogram_dp(n, k) == residue_histogram_enum(n, k), (n, k)


@given(st.integers(min_value=0, max_value=24), st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_histogram_shape(n, k):
    h = residue_histogram_dp(n, k)
    assert h.modulus == 1 << k
    assert list(h.counts) == list(range(1, h.modulus, 2))
    assert sum(h.counts.values()) == 1 << (n // 2)


def test_histogram_matches_word_enumeration():
    for n in range(11):
        for k in (1, 2, 3):
            m = 1 << k
            oracle = Counter(f_mod(w, m) for w in enumerate_rank(n) if is_odd_word(w))
            got = residue_histogram_enum(n, k).counts
            assert {r: c for r, c in got.items() if c} == dict(oracle)


def test_is_equidistributed():
    assert is_equidistributed(ResidueHistogram(8, {1: 2, 3: 2, 5: 2, 7: 2}))
    assert not is_equidistributed(ResidueHistogram(8, {1: 2, 3: 2, 5: 0, 7: 0}))
    assert is_equidistributed(ResidueHistogram(2, {1: 1}))


def test_multiplicative_shift():
    h = residue_histogram_enum(5, 3)
    assert multiplicative_shift(h, 5).counts == {1: 0, 3: 0, 5: 2, 7: 2}
    assert multiplicative_shift(h, 1).counts == h.counts
    with pytest.raises(ValueError):
        multiplicative_shift(h, 4)


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=40))
@settings(max_examples=40)
def test_shift_preserves_mass(n, k, c):
    h = residue_histogram_dp(n, k)
    shifted = multiplicative_shift(h, 2 * c + 1)
    assert sum(shifted.counts.values()) == sum(h.counts.values())


def test_verify_main_theorem_known():
    assert [(v["n"], v["ok"]) for v in verify_main_theorem(3, 2)] == [(6, True), (7, True), (8, True)]
    assert [(v["n"], v["ok"]) for v in verify_main_theorem(2, 4)] == [(n, True) for n in range(4, 9)]
    assert all(v["ok"] for v in verify_main_theorem(1, 3))


def test_verify_main_theorem_guards():
    with pytest.raises(ValueError, match="at least 1"):
        verify_main_theorem(0, 2)
    with pytest.raises(ValueError):
        verify_main_theorem(3, -1)


def test_dp_work_guard(monkeypatch):
    def no_fold(*args):
        raise AssertionError("folded before the guard")

    monkeypatch.setattr(residues, "_fold", no_fold)
    for refused in (
        lambda: residue_histogram_dp(1_000_000_000, 3),
        lambda: verify_main_theorem(15, 0),
        lambda: verify_main_theorem(14, 1 << 13),
        lambda: verify_one_step(1, 1 << 21),
    ):
        with pytest.raises(ValueError, match="guard of"):
            refused()
    # the threshold row stays accepted up to k = 14 (about 4 s, not run here)
    for k in range(1, 15):
        residues._check_dp_work((1 << (k - 1)) + 2, k)
    residues._check_dp_work(1 << 20, 1)


def test_verify_one_step_scan():
    verdicts = verify_one_step(3, 12)
    assert len(verdicts) == 13
    assert all(v["ok"] for v in verdicts)
    by_n = {v["n"]: v for v in verdicts}
    # rows 5 and 6: not flat yet at 5, flat from 6 on
    assert not by_n[5]["flat_n"]
    assert by_n[6]["flat_n"] and by_n[6]["flat_next"]


def test_verify_one_step_walks_rows_once(monkeypatch):
    calls = Counter()
    fold, dlog = residues._fold, residues._dlog
    monkeypatch.setattr(residues, "_fold", lambda *a: calls.update(["fold"]) or fold(*a))
    monkeypatch.setattr(residues, "_dlog", lambda k: calls.update(["dlog"]) or dlog(k))
    # the last rows walked, 30 and 31, hold 15 factors each: every one folds once
    assert all(v["ok"] for v in verify_main_theorem(4, 20))
    assert calls == {"fold": 15, "dlog": 1}
    calls.clear()
    assert all(v["ok"] for v in verify_one_step(4, 30))
    assert calls == {"fold": 15, "dlog": 1}


def test_walk_matches_dp_row_by_row():
    for k in range(1, 7):
        for start in (0, 5, (1 << (k - 1)) + 2):
            rows = list(residues._walk(k, start, start + 39))
            assert [n for n, _ in rows] == list(range(start, start + 40))
            assert all(h == residue_histogram_dp(n, k) for n, h in rows)


def test_verify_one_step_flags_match_dp():
    for k in range(1, 7):
        for v in verify_one_step(k, 40):
            assert v["flat_next"] == is_equidistributed(residue_histogram_dp(v["n"] + 1, k))


def test_verify_one_step_catches_wrong_shift(monkeypatch):
    shift = residues.multiplicative_shift
    monkeypatch.setattr(residues, "multiplicative_shift", lambda h, c: shift(h, c + 2))
    assert not all(v["step_identity"] for v in verify_one_step(3, 12))


def test_verify_one_step_flags_lost_flatness(monkeypatch):
    # mutation: only rows of 8 odd words (n = 6, 7) read flat, so flatness is lost from 7 to 8
    monkeypatch.setattr(residues, "is_equidistributed", lambda h: sum(h.counts.values()) == 8)
    failing = [v for v in verify_one_step(3, 9) if not v["ok"]]
    assert failing == [
        {"check": "step", "k": 3, "n": 7, "flat_n": True, "flat_next": False, "step_identity": True, "ok": False}
    ]


def test_one_step_even_identity():
    assert residue_histogram_dp(7, 3) == residue_histogram_dp(6, 3)


def test_one_step_odd_decomposition():
    before = residue_histogram_enum(5, 3)
    shifted = multiplicative_shift(before, 5)
    combined = {r: before.counts[r] + shifted.counts[r] for r in before.counts}
    assert combined == residue_histogram_enum(6, 3).counts


def test_pi_multiset_known():
    assert pi_multiset(6) == Counter({1: 2, 3: 2, 5: 2, 15: 2})
    assert pi_multiset(0) == Counter({1: 1})
    assert pi_multiset(2) == Counter({1: 2})


def test_pi_multiset_matches_row():
    for n in range(17):
        products = pi_multiset(n)
        assert products == f_valued_row(n)
        assert sum(products.values()) == 1 << (n // 2)


def test_pi_multiset_strict_reading_breaks_at_odd_ranks(monkeypatch):
    # mutation: every odd integer up to n as the factor set
    monkeypatch.setattr(residues, "_row_factors", lambda n: range(1, n + 1, 2))
    strict = pi_multiset(7)
    assert sum(strict.values()) == 16
    assert strict != f_valued_row(7)
    # at even ranks the two readings coincide
    assert pi_multiset(6) == f_valued_row(6)


def test_pi_multiset_guards():
    with pytest.raises(ValueError):
        pi_multiset(-1)
    with pytest.raises(ValueError):
        pi_multiset(41)

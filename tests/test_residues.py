from collections import Counter
from itertools import combinations, repeat
from math import prod
from operator import add, lshift, rshift, sub
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import pytest

from yflattice import residues
from yflattice import (
    ResidueHistogram,
    enumerate_rank,
    is_equidistributed,
    is_odd_word,
    residue_histogram_dp,
    residue_histogram_enum,
    verify_main_theorem,
    verify_one_step,
)
from yflattice.fstat import f_mod
from yflattice.macdonald import f_valued_row
from yflattice.residues import pi_multiset


def test_enum_known_histograms():
    assert residue_histogram_enum(6, 3).counts == {1: 2, 3: 2, 5: 2, 7: 2}
    assert residue_histogram_enum(5, 3).counts == {1: 2, 3: 2, 5: 0, 7: 0}
    assert residue_histogram_enum(0, 2).counts == {1: 1, 3: 0}


@given(st.integers(min_value=0, max_value=16), st.integers(min_value=1, max_value=6))
def test_enum_is_the_tally_of_every_subset_product(n, k):
    # the definition, one product per subset of the row's factors, reduced mod 2^k
    m = 1 << k
    factors = residues._row_factors(n)
    tally = Counter(prod(s) % m for size in range(len(factors) + 1) for s in combinations(factors, size))
    assert residue_histogram_enum(n, k) == ResidueHistogram(m, {r: tally[r] for r in range(1, m, 2)})


def test_dp_known_histograms():
    assert residue_histogram_dp(6, 3).counts == {1: 2, 3: 2, 5: 2, 7: 2}
    assert residue_histogram_dp(4, 2).counts == {1: 2, 3: 2}
    assert residue_histogram_dp(1, 1).counts == {1: 1}


@given(st.integers(min_value=0, max_value=24), st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_dp_equals_enum(n, k):
    assert residue_histogram_dp(n, k) == residue_histogram_enum(n, k)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_dp_equals_enum_up_to_the_subset_guard(n, k):
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
    # equal counts that are distinct objects: the verdict is by value, not by identity
    big = [int("9" * 40) for _ in range(4)]
    assert big[0] is not big[1] and is_equidistributed(ResidueHistogram(8, dict(zip((1, 3, 5, 7), big))))
    # one bucket off, last or first: the scan reads every count
    assert not is_equidistributed(ResidueHistogram(8, {1: 2, 3: 2, 5: 2, 7: 3}))
    assert not is_equidistributed(ResidueHistogram(8, {1: 3, 3: 2, 5: 2, 7: 2}))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=12), st.booleans())
def test_is_equidistributed_matches_set(values, fresh):
    if fresh:  # each count a distinct object, equal counts included
        values = [int(str(10**40 + v)) for v in values]
    h = ResidueHistogram(2 * len(values), dict(zip(range(1, 2 * len(values), 2), values)))
    assert is_equidistributed(h) == (len(set(values)) == 1)


def test_multiplicative_shift():
    # an odd step adds the row shifted by n: row 5 mod 8 is {1: 2, 3: 2}, and 5 sends 1, 3 to 5, 7
    h = residue_histogram_enum(5, 3)
    added = {r: c - h.counts[r] for r, c in residues._stepped(h, 5).counts.items()}
    assert added == {1: 0, 3: 0, 5: 2, 7: 2}
    assert residues._stepped(h, 1).counts == {r: 2 * c for r, c in h.counts.items()}


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=40))
@settings(max_examples=40)
def test_shift_preserves_mass(n, k, c):
    # the shift an odd step adds is nonnegative and carries the row's whole mass
    h = residue_histogram_dp(n, k)
    added = {r: s - h.counts[r] for r, s in residues._stepped(h, 2 * c + 1).counts.items()}
    assert min(added.values()) >= 0
    assert sum(added.values()) == sum(h.counts.values())


@given(st.integers(1, 8), st.integers(0, 300), st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_stepped_is_the_push_forward_added(k, row, n):
    """Any row's histogram, stepped by any n: the pull-back by n^-1 is the push-forward by n."""
    h = residue_histogram_dp(row, k)
    stepped = residues._stepped(h, n)
    if n % 2 == 0:
        assert stepped is h
        return
    m = h.modulus
    shifted = {r * n % m: c for r, c in h.counts.items()}
    assert stepped == ResidueHistogram(m, {r: c + shifted[r] for r, c in h.counts.items()})
    assert sum(stepped.counts.values()) == 2 * sum(h.counts.values())


def test_verify_main_theorem_known():
    assert [(v["n"], v["ok"]) for v in verify_main_theorem(3, 2)] == [(6, True), (7, True), (8, True)]
    assert [(v["n"], v["ok"]) for v in verify_main_theorem(2, 4)] == [(n, True) for n in range(4, 9)]
    assert all(v["ok"] for v in verify_main_theorem(1, 3))


def test_dp_work_guard():
    # the threshold row stays accepted up to k = 14 (test_k14_threshold_row runs it)
    for k in range(1, 15):
        residues._check_dp_work((1 << (k - 1)) + 2, k, 1)
    # a single row at k <= 2 is priced at least 4 * half^2: row 524289 is the last accepted
    for k in (1, 2):
        residues._check_dp_work(524289, k, 1)
        with pytest.raises(ValueError, match="guard of"):
            residues._check_dp_work(524290, k, 1)


def test_dp_work_guard_prices_every_row_read_back(monkeypatch):
    class Folded(Exception):
        pass

    def fold(*args):
        raise Folded

    monkeypatch.setattr(residues, "_fold", fold)
    # one row apart on each side of W = 2^38, W = (half * (half + 9*more) + more * 2^17)
    # * 2^(k-1) + more * 2^21 with half = last//2 and more rows past the first;
    # the last-row price alone, half^2 * 2^(k-1), accepts every refused run
    for accepted, refused in (
        (lambda: verify_main_theorem(1, 101429), lambda: verify_main_theorem(1, 101430)),
        (lambda: verify_one_step(2, 86428), lambda: verify_one_step(2, 86429)),
        (lambda: verify_main_theorem(14, 97), lambda: verify_main_theorem(14, 98)),
    ):
        with pytest.raises(Folded):
            accepted()
        with pytest.raises(ValueError, match="guard of 274877906944"):
            refused()
    # the CASES row verify main -k 14 --n-extra 2 and the benchmark's verify runs
    residues._check_dp_work(8196, 14, 3)
    residues._check_dp_work(4110, 13, 13)
    residues._check_dp_work(205, 8, 206)
    # the README's one-step edges, -k 4 up to --max-n 53195 and -k 14 up to --max-n 252
    residues._check_dp_work(53196, 4, 53197)
    residues._check_dp_work(253, 14, 254)
    # the MODULUS_MAX_POW comment's example, verify one-step -k 20 --max-n 2
    # (rows 0..3), is the last run accepted at k = 20
    residues._check_dp_work(3, 20, 4)
    with pytest.raises(ValueError, match="guard of 274877906944"):
        residues._check_dp_work(4, 20, 5)


@st.composite
def _walks(draw):
    last = draw(st.integers(0, 1 << 21))
    return last, draw(st.integers(1, 20)), draw(st.integers(1, last + 1))


@given(_walks())
@example((524289, 1, 1)).via("the largest single row accepted at k = 1, half = 2^18")
@example((524290, 1, 1)).via("the smallest single row refused at k = 1")
@example((524289, 2, 1)).via("the largest single row accepted at k = 2")
@example((524290, 2, 1)).via("the smallest single row refused at k = 2")
@example((8196, 14, 1)).via("the k = 14 threshold row")
@example((605398, 1, 605396)).via("verify main -k 1 --n-extra 605395, first refused by the read-back price")
@example((428080, 2, 428081)).via("verify one-step -k 2 --max-n 428079, likewise")
@example((9957, 14, 1764)).via("verify main -k 14 --n-extra 1763, likewise")
def test_dp_work_guard_refuses_what_the_read_back_price_refused(walk):
    """Every walk priced over 2^38 by (last//2) * (last//2 + rows - 1) * 2^(k-1) is
    still refused, and a single row has the price (last//2)^2 * 2^max(k-1, 2)."""
    last, k, rows = walk
    half = last // 2

    def refused(rows):
        try:
            residues._check_dp_work(last, k, rows)
        except ValueError:
            return True
        return False

    if half * (half + rows - 1) << (k - 1) > residues.DP_MAX_WORK:
        assert refused(rows)
    assert refused(1) == (half * half << max(k - 1, 2) > residues.DP_MAX_WORK)


def test_k14_threshold_row(k14_threshold):
    (_, _, flat), (_, _, before) = k14_threshold(8194), k14_threshold(8193)
    assert is_equidistributed(flat) and not is_equidistributed(before)
    assert (sum(flat.counts.values()), sum(before.counts.values())) == (1 << 4097, 1 << 4096)


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
    fold, dlog, flat, read_back = residues._fold, residues._dlog, residues.is_equidistributed, residues._read_back
    monkeypatch.setattr(residues, "_fold", lambda *a: calls.update(["fold"]) or fold(*a))
    monkeypatch.setattr(residues, "_dlog", lambda k: calls.update(["dlog"]) or dlog(k))
    monkeypatch.setattr(residues, "is_equidistributed", lambda h: calls.update(["flat"]) or flat(h))
    monkeypatch.setattr(residues, "_read_back", lambda *a: calls.update(["read_back"]) or read_back(*a))
    # the last rows walked, 30 and 31, hold 15 factors each: every one folds once, and every
    # row walked (21 rows from 10, 32 from 0) is tested for flatness once; only the first row
    # and the rows that fold (the even ones after it) are read back
    assert all(v["ok"] for v in verify_main_theorem(4, 20))
    assert calls == {"fold": 15, "dlog": 1, "flat": 21, "read_back": 11}
    calls.clear()
    assert all(v["ok"] for v in verify_one_step(4, 30))
    assert calls == {"fold": 15, "dlog": 1, "flat": 32, "read_back": 16}


def _odd_row_factors(n):
    """A mutant row definition whose new factor arrives at odd rows: row n holds row n + 1's factors."""
    return range(1, 2 * ((n + 1) // 2), 2)


def test_walk_reuses_a_row_exactly_when_it_folds_nothing(monkeypatch):
    # reuse keyed on the row's parity would hand back row n - 1 at the odd rows that fold here
    monkeypatch.setattr(residues, "_row_factors", _odd_row_factors)
    for k in range(1, 7):
        rows = list(residues._walk(k, 0, 40))
        assert all(h == residue_histogram_dp(n, k) for n, h in rows), k
        for (n, h), (_, before) in zip(rows[1:], rows):
            assert (h is before) == (len(_odd_row_factors(n)) == len(_odd_row_factors(n - 1))), (k, n)


def test_verify_one_step_catches_factors_that_arrive_at_odd_rows(monkeypatch):
    # with the mutant, walk row n is true row n + 1: row n + 1 is row n where the step law adds the
    # shift by n (odd n), and adds a factor where the step law adds none (even n), so every step fails
    monkeypatch.setattr(residues, "_row_factors", _odd_row_factors)
    for k in range(1, 6):
        assert not any(v["step_identity"] for v in verify_one_step(k, 20)), k


def test_walk_matches_dp_row_by_row():
    for k in range(1, 7):
        for start in (0, 5, (1 << (k - 1)) + 2):
            rows = list(residues._walk(k, start, start + 39))
            assert [n for n, _ in rows] == list(range(start, start + 40))
            assert all(h == residue_histogram_dp(n, k) for n, h in rows)


def _bucket_fold(buckets, c, dlog):
    """Reference fold in the bucket basis: taking c = (-1)^s * 5^e sends bucket (t, j) to (t ^ s, j + e)."""
    plus, minus = buckets
    s, e = divmod(dlog[(c >> 1) % len(dlog)], len(plus))
    cut = len(plus) - e
    taken = plus[cut:] + plus[:cut], minus[cut:] + minus[:cut]
    if s:
        taken = taken[::-1]
    return list(map(add, plus, taken[0])), list(map(add, minus, taken[1]))


def _bucket_walk(k, n, last):
    """Reference walk: rows n..last mod 2^k from 2^(k-1) buckets, one rotation per factor."""
    dlog = residues._dlog(k)
    size = max(1, len(dlog) // 2)
    buckets = [1] + [0] * (size - 1), [0] * size
    folded = 0
    for row in range(n, last + 1):
        factors = range(1, 2 * (row // 2), 2)
        for c in factors[folded:]:
            buckets = _bucket_fold(buckets, c, dlog)
        folded = len(factors)
        flat = buckets[0] + buckets[1]
        yield row, ResidueHistogram(1 << k, {2 * i + 1: flat[code] for i, code in enumerate(dlog)})


def _bucket_read_back(state, size):
    """Reference read-back: each half widened to all L = size buckets, level by level, before the halves meet."""
    halves = []
    for y in (0, 1):
        a = state.get((y, 0, 1), [0])
        for j in range(size.bit_length() - 1):
            v = state.get((y, 1, 1 << j))
            if v is None:
                a = a * 2
            else:
                v = list(map(lshift, v, repeat(j)))
                a = [*map(add, a, v), *map(sub, a, v)]
        halves.append(a)
    shift = repeat(size.bit_length())
    return [*map(rshift, map(add, *halves), shift), *map(rshift, map(sub, *halves), shift)]


@given(st.integers(1, 10), st.data())
@settings(max_examples=200, deadline=None)
def test_read_back_matches_bucket_reference(k, data):
    """Any set of live components, on either half and at any level, dead levels below a live one
    included, with signed coefficients: the walks reach only the kill patterns the fold order makes."""
    size = 1 << max(0, k - 2)
    keys = [(y, t, d) for y in (0, 1) for t, d in [(0, 1)] + [(1, 1 << j) for j in range(size.bit_length() - 1)]]
    live, rng = data.draw(st.lists(st.sampled_from(keys), unique=True)), data.draw(st.randoms(use_true_random=False))
    state = {key: [rng.randint(-(1 << 80), 1 << 80) for _ in range(key[2])] for key in live}
    assert residues._read_back(state, size) == _bucket_read_back(state, size)


def test_walk_matches_bucket_reference():
    for k in range(1, 10):
        for start in (0, 7):
            last = (1 << (k - 1)) + 40
            for (n, got), (m, want) in zip(residues._walk(k, start, last), _bucket_walk(k, start, last), strict=True):
                assert (n, list(got.counts.items())) == (m, list(want.counts.items())), (k, n)


@given(st.integers(1, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_walk_from_any_row_matches_bucket_reference(k, data):
    """The first row folds 2^i +- 1 first; the reference folds 1, 3, 5, ... in order."""
    n = data.draw(st.integers(0, (1 << k) + 40))
    last = n + data.draw(st.integers(0, 3))
    for (m, got), (r, want) in zip(residues._walk(k, n, last), _bucket_walk(k, n, last), strict=True):
        assert (m, list(got.counts.items())) == (r, list(want.counts.items())), (k, m)


def test_threshold_row_folds_widest_component_first(monkeypatch):
    """Summed over the folds, the live components of the threshold row hold at most 3 * 2^(k-1)
    coefficients: the folds 2^i +- 1 kill every nontrivial component within 2(k-2) folds."""
    fold, live = residues._fold, []
    monkeypatch.setattr(residues, "_fold", lambda state, *a: live.extend(map(len, state.values())) or fold(state, *a))
    for k in range(1, 15):
        live.clear()
        assert is_equidistributed(residue_histogram_dp((1 << (k - 1)) + 2, k))
        assert sum(live) <= 3 << (k - 1), (k, sum(live))


def test_walk_rows_are_nonnegative_with_full_mass():
    for k in range(1, 11):
        for n, h in residues._walk(k, 0, (1 << (k - 1)) + 40):
            assert min(h.counts.values()) >= 0, (k, n)
            assert sum(h.counts.values()) == 1 << (n // 2), (k, n)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_main_theorem_peak_memory():
    # the bucket DP peaked at 0.36 MiB here (Python 3.10-3.12), the component fold at 0.23-0.24,
    # and 0.13 since flat rows are read back widened last
    records, peak = _traced_peak(verify_main_theorem, 11, 4)
    assert all(r["ok"] for r in records)
    assert peak < 0.30 * 2**20


def test_threshold_rows_are_read_back_by_reference():
    """A flat row is one live component: its 2^(k-1) counts are references to at most two ints."""
    for k in range(3, 13):
        counts = residue_histogram_dp((1 << (k - 1)) + 2, k).counts.values()
        assert len(set(map(id, counts))) <= 2, k
    # row 4098 mod 2^13 peaked at 1.72 MiB when each count was built afresh, 0.55 by reference
    h, peak = _traced_peak(residue_histogram_dp, 4098, 13)
    assert is_equidistributed(h) and len(set(map(id, h.counts.values()))) <= 2
    assert peak < 1 * 2**20


def test_non_flat_read_back_peak_memory():
    # the row before the threshold keeps its widest component alive: 0.236-0.237 MiB with the
    # full-width read-back, and no more than 5 % above that with the widening moved last
    h, peak = _traced_peak(residue_histogram_dp, 1025, 11)
    assert not is_equidistributed(h)
    assert peak < 0.248 * 2**20


def test_verify_one_step_peak_memory():
    # the step law built a pushed-forward dict and a summed one per odd step: 2.21 MiB here (Python
    # 3.11); one pulled-back dict peaks at 1.68, and the bound leaves 13 % above that
    records, peak = _traced_peak(verify_one_step, 14, 20)
    assert all(r["ok"] for r in records)
    assert peak < 1.9 * 2**20


def test_verify_one_step_flags_match_dp():
    for k in range(1, 7):
        for v in verify_one_step(k, 40):
            assert v["flat_next"] == is_equidistributed(residue_histogram_dp(v["n"] + 1, k))


def test_verify_one_step_catches_wrong_shift(monkeypatch):
    stepped = residues._stepped
    monkeypatch.setattr(residues, "_stepped", lambda h, n: stepped(h, n + 2))
    assert [v["n"] for v in verify_one_step(3, 12) if not v["step_identity"]] == [1, 3]


def test_verify_one_step_catches_a_pull_back_by_n(monkeypatch):
    # mutation: pull back by n, not n^-1; every odd n is its own inverse mod 8, so only k >= 4 tells
    def pulled_by_n(h, n):
        m, counts = h.modulus, h.counts
        return h if n % 2 == 0 else ResidueHistogram(m, {r: c + counts[r * n % m] for r, c in counts.items()})

    monkeypatch.setattr(residues, "_stepped", pulled_by_n)
    assert all(v["step_identity"] for v in verify_one_step(3, 40))
    assert [v["n"] for v in verify_one_step(4, 40) if not v["step_identity"]] == [3, 5]


def test_verify_one_step_catches_wrong_row_factors(run, monkeypatch):
    # mutation: from row 6 on, each row takes one odd factor too many (row 6 holds 1, 3, 5, 7); the
    # walk folds what _row_factors adds, the step law adds the shift by n, so the two routes part
    true_rows = residues._row_factors
    monkeypatch.setattr(residues, "_row_factors", lambda n: range(1, 2 * (n // 2) + 2, 2) if n >= 6 else true_rows(n))
    assert [v["n"] for v in verify_one_step(3, 12) if not v["step_identity"]] == [5]
    assert [v["n"] for v in verify_one_step(5, 20) if not v["step_identity"]] == [5, 7, 9, 11, 13, 15]
    code, _, err = run("verify", "one-step", "-k", "3")
    assert (code, err) == (1, "FAIL: suite one-step\n")


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
    assert residues._stepped(residue_histogram_enum(5, 3), 5).counts == residue_histogram_enum(6, 3).counts


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


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=24))
def test_pi_rows_are_fresh_rows(last):
    # read one row at a time, as the walk asks; every subset's product, one by one, is the reference
    n = -1
    for n, products in residues.pi_rows(last):
        factors = range(1, 2 * (n // 2), 2)
        assert products == pi_multiset(n) == Counter(prod(s) for r in range(len(factors) + 1) for s in combinations(factors, r))
        assert 0 not in products.values()
    assert n == last

"""Acceptance suite: one pass/fail line per criterion (run with -s to see them)."""

import json
from collections import Counter
from itertools import combinations
from math import prod
from time import perf_counter

from yflattice import (
    coprime_count,
    covers_down,
    covers_up,
    enumerate_rank,
    f_product,
    f_recursive,
    is_coprime_structural,
    is_odd_word,
    rank,
    residue_distribution_mod_p,
    residue_histogram_dp,
    residue_histogram_enum,
    verify_main_theorem,
    verify_one_step,
)
from yflattice.cli import main
from yflattice.macdonald import build_tree, f_valued_row
from yflattice.primes import is_coprime_direct
from yflattice.residues import pi_multiset


def _report(num: int, name: str, ok: bool, elapsed: float, bound: float | None = None) -> None:
    budget = f", bound {bound:.0f}s" if bound is not None else ""
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s{budget}]")
    assert ok, f"criterion {num} ({name})"


def test_criterion_1_formula_equivalence():
    start = perf_counter()
    words = [w for n in range(13) for w in enumerate_rank(n)]
    ok = len(words) == 609 and all(f_product(w) == f_recursive(w) for w in words)
    elapsed = perf_counter() - start
    _report(1, "recursive and product chain counts agree to rank 12", ok and elapsed < 1.0, elapsed, 1.0)


def test_criterion_2_reference_layout(tmp_path):
    start = perf_counter()
    out = tmp_path / "tree.json"
    ok = main(["tree", "--max-rank", "7", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    rows, frontier = [], [doc["root"]]
    while frontier:
        rows.append({node["word"] for node in frontier})
        frontier = [child for node in frontier for child in node["children"]]
    expected = [
        {""},
        {"1"},
        {"11", "2"},
        {"111", "12"},
        {"1111", "211", "112", "22"},
        {"11111", "1211", "1112", "122"},
        {"111111", "21111", "11211", "2211", "11112", "2112", "1122", "222"},
        {"1111111", "121111", "111211", "12211", "111112", "12112", "11122", "1222"},
    ]
    ok = ok and rows == expected
    pair_low = Counter({1: 2, 3: 2})
    pair_high = Counter({1: 2, 3: 2, 5: 2, 15: 2})
    ok = ok and f_valued_row(4) == pair_low and f_valued_row(5) == pair_low
    ok = ok and f_valued_row(6) == pair_high and f_valued_row(7) == pair_high
    elapsed = perf_counter() - start
    _report(2, "tree export matches the reference rows and value multisets", ok and elapsed < 1.0, elapsed, 1.0)


def test_criterion_3_odd_row_counts():
    start = perf_counter()
    ok = [len(r) for r in build_tree(24).rows()] == [1 << (n // 2) for n in range(25)]
    ok = ok and all(
        sum(1 for w in enumerate_rank(n) if is_odd_word(w)) == 1 << (n // 2) for n in range(17)
    )
    _report(3, "odd rows number 2^(n//2)", ok, perf_counter() - start)


def test_criterion_4_flat_rows_past_threshold():
    start = perf_counter()
    ok = all(v["ok"] for k in range(1, 13) for v in verify_main_theorem(k, 10))
    ok = ok and all(
        residue_histogram_dp(n, k) == residue_histogram_enum(n, k)
        for n in range(21)
        for k in range(1, 7)
    )
    elapsed = perf_counter() - start
    _report(4, "histograms flat from row 2^(k-1)+2 on, dp = enum", ok and elapsed < 30.0, elapsed, 30.0)


def test_criterion_5_row_product_identity():
    start = perf_counter()
    ok = True
    tree_rows = build_tree(20).rows()
    for n in range(21):
        source = enumerate_rank(n) if n <= 16 else [node.word for node in tree_rows[n]]
        oracle = Counter(f_product(w) for w in source if is_odd_word(w))
        products = pi_multiset(n)
        ok = ok and products == f_valued_row(n) == oracle
        ok = ok and sum(products.values()) == 1 << (n // 2)
    # negative control: every odd integer up to n is one factor too many at odd n
    strict = Counter(prod(s) for r in range(5) for s in combinations(range(1, 8, 2), r))
    ok = ok and sum(strict.values()) == 16 and strict != f_valued_row(7)
    _report(5, "subset products equal the odd-row value multiset", ok, perf_counter() - start)


def test_criterion_6_one_step_law():
    start = perf_counter()
    ok = all(v["ok"] for k in range(1, 7) for v in verify_one_step(k, 40))
    _report(6, "flatness persists and the step identities hold to row 40", ok, perf_counter() - start)


def test_criterion_7_prime_coprimality():
    start = perf_counter()
    ok = all(
        is_coprime_structural(w, p) == is_coprime_direct(w, p)
        for p in (2, 3, 5, 7)
        for n in range(13)
        for w in enumerate_rank(n)
    )
    enumerated = {
        (p, n): sum(is_coprime_direct(w, p) for w in enumerate_rank(n)) for p in (2, 3, 5, 7) for n in range(19)
    }
    ok = ok and all(coprime_count(p, n) == count for (p, n), count in enumerated.items())
    ok = ok and all(enumerated[2, n] == 1 << (n // 2) for n in range(19))
    for n in (3, 6):
        ok = ok and len(set(residue_distribution_mod_p(n, 3).counts.values())) > 1
    elapsed = perf_counter() - start
    _report(7, "coprimality split rule, counting identity, mod-3 non-flat witnesses", ok and elapsed < 30.0, elapsed, 30.0)


def test_criterion_8_differential_covers():
    start = perf_counter()
    ok = True
    for n in range(11):
        for w in enumerate_rank(n):
            ups = covers_up(w)
            downs = covers_down(w)
            ok = ok and len(ups) == len(downs) + 1
            ok = ok and all(w in covers_down(u) and rank(u) == n + 1 for u in ups)
            ok = ok and all(w in covers_up(v) and rank(v) == n - 1 for v in downs)
    _report(8, "one extra upper cover everywhere, covers dual to rank 10", ok, perf_counter() - start)

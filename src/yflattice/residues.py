"""Residue statistics of odd-row chain counts modulo powers of two.

The chain counts over the odd words of rank n form the multiset of subset
products of {1, 3, ..., 2*(n//2) - 1}.  This module builds their histograms
mod 2^k two ways (per-subset enumeration and a bucket convolution), decides
flatness, and returns the row-threshold and one-step verdicts as the very
records `yflattice verify main`/`one-step` print.

The convolution indexes its buckets by discrete log: every odd residue mod
2^k is (-1)^s * 5^e, so the (n//2) folds are each a rotation of two bucket
lists plus 2^(k-1) C-level adds.  One walk over consecutive rows, _walk,
makes every fold: it serves the single histogram, the threshold scan and
the step law alike.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
from operator import add
from typing import Any, Iterable, Iterator

from .core import SUBSET_MAX_RANK, check_rank


def _row_factors(n: int) -> range:
    """The odd factors available in row n: 1, 3, ..., 2*(n//2) - 1."""
    return range(1, 2 * (n // 2), 2)


def _subset_products(factors: Iterable[int], m: int | None = None) -> list[int]:
    """The product of every subset of factors, empty product included.

    Doubles the list once per factor.  With a modulus m every product is
    reduced as it is formed, so the integers stay small.
    """
    prods = [1]
    for c in factors:
        prods += [p * c % m for p in prods] if m else [p * c for p in prods]
    return prods


# A histogram mod 2^k holds 2^(k-1) buckets: residues -n 10 -k 20 peaks at
# about 97 MiB as a table or CSV and 141-143 MiB as JSON, verify one-step -k 20
# --max-n 4 at about 183 MiB (2-core x86-64 VM), and each further step of k
# doubles that.
MODULUS_MAX_POW = 20


def _check_modulus_pow(k: int) -> None:
    if k < 1:
        raise ValueError(f"modulus exponent must be at least 1, got {k}")
    if k > MODULUS_MAX_POW:
        raise ValueError(f"modulus exponent {k} exceeds the guard of {MODULUS_MAX_POW}")


@dataclass
class ResidueHistogram:
    """Counts of residues mod `modulus`: the odd ones mod 2^k, the nonzero ones mod a prime."""

    modulus: int
    counts: dict[int, int]


def residue_histogram_enum(n: int, k: int) -> ResidueHistogram:
    """Histogram mod 2^k of row n's chain counts, one subset at a time.

    Walks all 2^(n//2) block-tag subsets and reduces each product as it
    goes; the slow reference path for residue_histogram_dp.
    """
    _check_modulus_pow(k)
    check_rank(n, SUBSET_MAX_RANK)
    m = 1 << k
    tally = Counter(_subset_products(_row_factors(n), m))
    return ResidueHistogram(m, {r: tally.get(r, 0) for r in range(1, m, 2)})


# The bucket DP for row n mod 2^k folds n//2 factors into 2^(k-1) buckets
# whose counts grow to about n//2 bits, so its work is W = (n//2)^2 * 2^(k-1).
# On a 2-core x86-64 VM the threshold row 2^(k-1)+2 took 0.7-0.8 s at k = 13
# (W ~ 2^34), 4.0-5.0 s at k = 14 (2^37) and 29-37 s at k = 15 (2^40).
DP_MAX_WORK = 1 << 38


def _check_dp_work(n: int, k: int) -> None:
    work = (n // 2) ** 2 << (k - 1)
    if work > DP_MAX_WORK:
        raise ValueError(
            f"bucket DP work (n//2)^2 * 2^(k-1) = {work} for row {n} mod 2^{k} "
            f"exceeds the guard of {DP_MAX_WORK}"
        )


Buckets = tuple[list[int], list[int]]


def _dlog(k: int) -> list[int]:
    """Discrete logs of the odd residues mod 2^k, by base -1 and 5.

    Entry r >> 1 is s * L + e, where r = (-1)^s * 5^e mod 2^k, e < L = 2^(k-2)
    (L = 1 for k <= 2) and s is 0 or 1 (only 0 at k = 1, where -1 = 1).  Ints,
    not (s, e) tuples, so that the table stays small beside the counts.
    """
    m = 1 << k
    size = max(1, m >> 2)
    dlog = [0] * (m >> 1)
    r = 1
    for e in range(size):
        dlog[(m - r) >> 1] = size + e
        dlog[r >> 1] = e  # after m - r, so that 1 keeps s = 0 at k = 1
        r = r * 5 % m
    return dlog


def _fold(buckets: Buckets, c: int, dlog: list[int]) -> Buckets:
    """Fold one factor c = (-1)^s * 5^e: each subset skips c or takes it.

    Taking c sends bucket (t, j) to (t ^ s, j + e), so both lists rotate by
    e and swap when s = 1.
    """
    plus, minus = buckets
    s, e = divmod(dlog[(c >> 1) % len(dlog)], len(plus))  # (c mod 2^k) >> 1
    cut = len(plus) - e
    taken = plus[cut:] + plus[:cut], minus[cut:] + minus[:cut]
    if s:
        taken = taken[::-1]
    return list(map(add, plus, taken[0])), list(map(add, minus, taken[1]))


def _walk(k: int, n: int, last: int) -> Iterator[tuple[int, ResidueHistogram]]:
    """Rows n through last with their histograms mod 2^k, in one pass.

    Every guard runs before the first fold, the last row bounding the DP
    work.  Row n folds its own factors into the unit buckets; each later row
    folds in only the factors the row before it lacks.  All rows share one
    discrete-log table and one list of residue keys.
    """
    _check_modulus_pow(k)
    check_rank(n)
    _check_dp_work(last, k)
    dlog = _dlog(k)
    keys = list(range(1, 1 << k, 2))
    size = max(1, len(dlog) // 2)
    buckets = [1] + [0] * (size - 1), [0] * size  # the empty product: residue 1 = 5^0
    folded = 0
    for row in range(n, last + 1):
        factors = _row_factors(row)
        for c in factors[folded:]:
            buckets = _fold(buckets, c, dlog)
        folded = len(factors)
        flat = buckets[0] + buckets[1]
        yield row, ResidueHistogram(1 << k, dict(zip(keys, map(flat.__getitem__, dlog))))


def residue_histogram_dp(n: int, k: int) -> ResidueHistogram:
    """Same histogram as residue_histogram_enum, by bucket convolution.

    Makes (n//2) folds, each a rotation of the discrete-log bucket lists
    plus 2^(k-1) C-level adds, instead of walking 2^(n//2) subsets.  Refused
    above DP_MAX_WORK before any fold.
    """
    return next(_walk(k, n, n))[1]


def is_equidistributed(h: ResidueHistogram) -> bool:
    """True iff every residue class in the histogram has the same count."""
    return len(set(h.counts.values())) == 1


def multiplicative_shift(h: ResidueHistogram, c: int) -> ResidueHistogram:
    """Push the histogram forward along residue -> residue * c."""
    if c % 2 == 0:
        raise ValueError(f"shift factor must be odd, got {c}")
    m = h.modulus
    shifted = dict.fromkeys(range(1, m, 2), 0)
    for r, count in h.counts.items():
        shifted[r * c % m] += count
    return ResidueHistogram(m, shifted)


def _stepped(h: ResidueHistogram, n: int) -> ResidueHistogram:
    """Histogram of row n+1 from the histogram of row n, by the step law.

    Even n adds no factor; odd n adds to the histogram its own shift by n.
    """
    if n % 2 == 0:
        return h
    shifted = multiplicative_shift(h, n).counts
    return ResidueHistogram(h.modulus, {r: count + shifted[r] for r, count in h.counts.items()})


def verify_main_theorem(k: int, n_extra: int) -> list[dict[str, Any]]:
    """Flatness records mod 2^k for rows 2^(k-1)+2 through 2^(k-1)+2+n_extra.

    The rows come from one _walk starting at the threshold row.  Every
    record, {"check": "flat-row", "k", "n", "ok"}, must have ok true.
    """
    _check_modulus_pow(k)
    if n_extra < 0:
        raise ValueError("n_extra must be nonnegative")
    start = (1 << (k - 1)) + 2
    return [
        {"check": "flat-row", "k": k, "n": n, "ok": is_equidistributed(h)}
        for n, h in _walk(k, start, start + n_extra)
    ]


def verify_one_step(k: int, n_max: int) -> list[dict[str, Any]]:
    """Step records mod 2^k for every step n -> n+1 with n up to n_max.

    One _walk over rows 0..n_max+1 gives each row n+1 by folding; the step
    law, stepped from row n through multiplicative_shift, must give the
    same histogram (step_identity).  A record is ok when that holds and
    flatness at n carries over to n+1.
    """
    _check_modulus_pow(k)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    records = []
    for (n, h), (_, succ) in pairwise(_walk(k, 0, n_max + 1)):
        flat_n, flat_next, step = is_equidistributed(h), is_equidistributed(succ), succ == _stepped(h, n)
        ok = (flat_next or not flat_n) and step
        records.append(
            {"check": "step", "k": k, "n": n, "flat_n": flat_n, "flat_next": flat_next, "step_identity": step, "ok": ok}
        )
    return records


def pi_multiset(n: int) -> Counter[int]:
    """Multiset of products of distinct odd factors attached to row n.

    The factors are 1, 3, ..., 2*(n//2) - 1, one subset per product, empty
    product included; as a multiset this equals f_valued_row(n).
    """
    check_rank(n, SUBSET_MAX_RANK)
    return Counter(_subset_products(_row_factors(n)))

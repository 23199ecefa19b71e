"""Residue statistics of odd-row chain counts modulo powers of two.

The chain counts over the odd words of rank n form the multiset of subset
products of {1, 3, ..., 2*(n//2) - 1}.  This module builds their histograms
mod 2^k two ways (per-subset enumeration and a bucket convolution), decides
flatness, and packages the row-threshold and one-step verdicts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice, pairwise
from typing import Iterable, Iterator

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
# about 190 MiB, and each further step of k doubles that.
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


def _fold(h: ResidueHistogram, c: int) -> ResidueHistogram:
    """Fold one factor c into the histogram: each subset skips c or takes it."""
    m = h.modulus
    counts = dict(h.counts)
    for r, count in h.counts.items():
        counts[r * c % m] += count
    return ResidueHistogram(m, counts)


def residue_histogram_dp(n: int, k: int) -> ResidueHistogram:
    """Same histogram as residue_histogram_enum, by bucket convolution.

    Folds in one factor at a time over the 2^(k-1) odd-residue buckets, so
    the cost is (n//2) * 2^(k-1) instead of 2^(n//2).
    """
    _check_modulus_pow(k)
    check_rank(n)
    m = 1 << k
    h = ResidueHistogram(m, {r: int(r == 1) for r in range(1, m, 2)})
    for c in _row_factors(n):
        h = _fold(h, c)
    return h


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


@dataclass(frozen=True)
class RowVerdict:
    n: int
    k: int
    flat: bool


def _walk(k: int, n: int) -> Iterator[tuple[int, ResidueHistogram]]:
    """Rows n, n+1, ... with their histograms mod 2^k, in one pass.

    Row n comes from residue_histogram_dp; each later row folds in the
    factors the row before it lacks.
    """
    h = residue_histogram_dp(n, k)
    while True:
        yield n, h
        n += 1
        for c in _row_factors(n)[len(_row_factors(n - 1)) :]:
            h = _fold(h, c)


def verify_main_theorem(k: int, n_extra: int) -> list[RowVerdict]:
    """Flatness verdicts mod 2^k for rows 2^(k-1)+2 through 2^(k-1)+2+n_extra.

    The rows come from one _walk starting at the threshold row.  Every
    verdict in the report must be flat.
    """
    _check_modulus_pow(k)
    if n_extra < 0:
        raise ValueError("n_extra must be nonnegative")
    start = (1 << (k - 1)) + 2
    return [RowVerdict(n, k, is_equidistributed(h)) for n, h in islice(_walk(k, start), n_extra + 1)]


@dataclass(frozen=True)
class StepVerdict:
    """One n -> n+1 comparison: flatness on both sides plus the step law.

    step_identity records whether the (n+1)-histogram equals the stepped
    n-histogram: unchanged after even n, the sum of itself and its n-shift
    after odd n.
    """

    n: int
    k: int
    flat_before: bool
    flat_after: bool
    step_identity: bool

    @property
    def implication_ok(self) -> bool:
        return self.flat_after or not self.flat_before

    @property
    def ok(self) -> bool:
        return self.implication_ok and self.step_identity


def verify_one_step(k: int, n_max: int) -> list[StepVerdict]:
    """Check every step n -> n+1 for n up to n_max, mod 2^k.

    One _walk over rows 0..n_max+1 gives each row n+1 by folding; the step
    law, stepped from row n through multiplicative_shift, must give the
    same histogram.
    """
    _check_modulus_pow(k)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [
        StepVerdict(n, k, is_equidistributed(h), is_equidistributed(succ), succ == _stepped(h, n))
        for (n, h), (_, succ) in pairwise(islice(_walk(k, 0), n_max + 2))
    ]


def pi_multiset(n: int, strict: bool = False) -> Counter[int]:
    """Multiset of products of distinct odd factors attached to row n.

    The factors are 1, 3, ..., 2*(n//2) - 1, one subset per product, empty
    product included; as a multiset this equals f_valued_row(n).  With
    strict=True the factors are instead every odd integer <= n, a variant
    kept only for comparison: at odd n it has one factor too many and the
    row identity breaks.
    """
    check_rank(n, SUBSET_MAX_RANK)
    return Counter(_subset_products(range(1, n + 1, 2) if strict else _row_factors(n)))

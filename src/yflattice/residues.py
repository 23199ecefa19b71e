"""Residue statistics of odd-row chain counts modulo powers of two.

The chain counts over the odd words of rank n form the multiset of subset
products of {1, 3, ..., 2*(n//2) - 1}.  This module builds their histograms
mod 2^k two ways (a fold over the distinct residues a row reaches, and a
convolution), decides flatness, and returns the row-threshold and one-step
verdicts as the very records `yflattice verify main`/`one-step` print.

Every odd residue mod 2^k is (-1)^s * 5^e, so a histogram is an element of
the group ring Z[C2 x C_L], L = 2^(k-2), and folding in a factor c
multiplies it by 1 + c.  The convolution folds in the ring's components
rather than in the 2^(k-1) buckets: the sign splits each histogram into two
halves, x^L - 1 = (x - 1)(x + 1)(x^2 + 1)...(x^(L/2) + 1) splits each half
into Z and the rings Z[x]/(x^D + 1), and there a factor is a (nega)cyclic
rotation plus one C-level add per coefficient.  A component that the factor
sends to 0 stays 0 and is dropped, and outside the trivial component (the
row size) the coefficients stay near 200 bits at k = 13, where the bucket
counts reach 2038.  One walk over consecutive rows, _walk, serves the single
histogram, the threshold scan and the step law: each row folds what
_row_factors adds to the row before, 2^i + 1 and 2^i - 1 (i = k-1 down to 2)
first, which kill the widest components first (the ring is commutative: only
the cost changes, and no fold is skipped), so the step law stays a route of
its own.  Every row that folds is read back exactly and widened to 2^(k-1)
counts last, since the levels above its last live one only duplicate.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain, filterfalse, pairwise, repeat, starmap
from operator import add, eq, lshift, mul, rshift, sub
from typing import Any, Iterator, NamedTuple

from .core import MODULUS_MAX_POW, SUBSET_MAX_RANK, check_rank

# pi_multiset is left out and no CLI route calls it: it stays only because
# perfbench/tracer.py wraps it by module path.
__all__ = [
    "ResidueHistogram",
    "is_equidistributed",
    "pi_rows",
    "residue_histogram_dp",
    "residue_histogram_enum",
    "verify_main_theorem",
    "verify_one_step",
]


def _row_factors(n: int) -> range:
    """The odd factors available in row n: 1, 3, ..., 2*(n//2) - 1."""
    return range(1, 2 * (n // 2), 2)


def _check_modulus_pow(k: int) -> None:
    if k < 1:
        raise ValueError(f"modulus exponent must be at least 1, got {k}")
    if k > MODULUS_MAX_POW:
        raise ValueError(f"modulus exponent {k} exceeds the guard of {MODULUS_MAX_POW}")


class ResidueHistogram(NamedTuple):
    """Counts of residues mod `modulus`: the odd ones mod 2^k, the nonzero ones mod a prime."""

    modulus: int
    counts: dict[int, int]


def residue_histogram_enum(n: int, k: int) -> ResidueHistogram:
    """Histogram mod 2^k of row n's chain counts, by a fold over distinct residues.

    Starts from the empty product, {1: 1}, and folds in each factor c of
    the row: every subset skips c or takes it, so the tally gains its own
    image under r -> r * c mod 2^k.  c is a unit, so that image has no two
    keys alike and one dict comprehension adds it exactly.  Each fold costs
    the residues reached so far, at most 2^(k-1), not the 2^(n//2) subsets.
    residue_histogram_dp's second route: the two share no code.
    """
    _check_modulus_pow(k)
    check_rank(n, SUBSET_MAX_RANK)
    m = 1 << k
    tally = {1: 1}
    get = tally.get
    for c in _row_factors(n):
        tally |= {s: get(s, 0) + count for s, count in zip([r * c % m for r in tally], tally.values())}
    return ResidueHistogram(m, {r: get(r, 0) for r in range(1, m, 2)})


# The guard prices a walk over `rows` rows ending at row `last` mod 2^k.  With
# half = last//2 and more = rows - 1 rows past the first, the price is
#   W = (half * (half + 9*more) + more * 2^17) * 2^(k-1) + more * 2^21,
# and at least 4 * half^2.  half^2 * 2^(k-1) bounds the last row's folds (half
# folds over 2^(k-1) counts of up to half bits; the component fold makes fewer
# adds, on coefficients of a few hundred bits) and one read-back; at k <= 2 the
# coefficients are the whole counts, so a single row costs more, hence the
# floor.  Each further row pays its read-back and checks: 9 per bit of each
# count (adds and shifts of counts up to half bits), 2^17 per count (the
# read-back's dict, the flatness scan and one-step's step law) and 2^21 per
# row; since the checks hash no count, these terms over-charge them.  On a
# 2-core x86-64 VM the threshold row 2^(k-1)+2 takes 0.07-0.10 s at k = 13
# (W ~ 2^34), 0.08-0.12 s at k = 14 (2^37) and 0.13 s at k = 15 (2^40,
# refused).  The last runs accepted for k from 1 to 14 take 0.2-2.9 s: the
# last single row at k = 1 and 2, row 524289, 2.8-2.9 s and 1.6-1.7 s.
DP_MAX_WORK = 1 << 38


def _check_dp_work(last: int, k: int, rows: int) -> None:
    half, more = last // 2, rows - 1
    work = max(((half * (half + 9 * more) + (more << 17)) << (k - 1)) + (more << 21), half * half << 2)
    if work > DP_MAX_WORK:
        raise ValueError(f"DP work {work} for rows {last - rows + 1}..{last} mod 2^{k} exceeds the guard of {DP_MAX_WORK}")


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


# A histogram in components: key (y, t, d) holds, as d coefficients, its image
# in Z[x]/(x^d - (-1)^t) on the half where the sign -1 acts as (-1)^y.  A
# component missing from the dict is 0.
Components = dict[tuple[int, int, int], list[int]]


def _unit(size: int) -> Components:
    """The empty product, residue 1 = 5^0, in every component.

    Each half splits by x^L - 1 = (x - 1)(x + 1)(x^2 + 1)...(x^(L/2) + 1).
    """
    rings = [(0, 1)] + [(1, 1 << j) for j in range(size.bit_length() - 1)]
    return {(y, t, d): [1] + [0] * (d - 1) for y in (0, 1) for t, d in rings}


def _fold(state: Components, s: int, e: int) -> Components:
    """Fold one factor c = (-1)^s * 5^e: each subset skips c or takes it.

    In component (y, t, d) that multiplies by 1 + (-1)^(s*y) x^e, and x^e is
    x^(e mod d) up to a sign: a (nega)cyclic rotation and one C-level add or
    sub per coefficient.  Where the factor reduces to 1 - x^0 the component
    is 0 from then on and leaves the dict.
    """
    folded = {}
    for (y, t, d), a in state.items():
        r = e % d
        neg = (s & y) ^ (t & (e // d))  # x^e = (-1)^(t * (e // d)) x^r in this ring
        if r == 0 and neg:
            continue
        keep, wrap = (sub if neg else add), (sub if neg ^ t else add)
        folded[y, t, d] = [*map(wrap, a[:r], a[d - r :]), *map(keep, a[r:], a[: d - r])]
    return folded


def _read_back(state: Components, size: int) -> list[int]:
    """The counts of the histogram in state, exactly, indexed by discrete log.

    Each half comes back up the factorization of x^L - 1, L = size, by the
    butterfly (u, v) -> (u + v, u - v), the level-j part v shifted left by j
    so that nothing is halved, up to the last level live in either half; the
    halves meet in one more butterfly and one exact right shift.  Each level
    above only duplicates, which commutes with both, so each result is
    widened to L entries last: a flat row is 2L references to two ints.
    """
    live = max((d.bit_length() for _, t, d in state if t), default=0)
    halves = []
    for y in (0, 1):
        a = state.get((y, 0, 1), [0])
        for j in range(live):
            v = state.get((y, 1, 1 << j))
            if v is None:  # a dead component: v = 0, so both halves are u
                a = a * 2
            else:
                v = list(map(lshift, v, repeat(j)))
                a = [*map(add, a, v), *map(sub, a, v)]
        halves.append(a)
    shift, wide = repeat(size.bit_length()), size >> live
    plus, minus = map(rshift, map(add, *halves), shift), map(rshift, map(sub, *halves), shift)
    return [*plus, *minus] if wide == 1 else [*plus] * wide + [*minus] * wide  # list * 1 would copy


def _walk(k: int, n: int, last: int) -> Iterator[tuple[int, ResidueHistogram]]:
    """Rows n through last with their histograms mod 2^k, in one pass.

    Every guard runs before the first fold, the DP work priced by the last
    row's folds and every row read back.  Each row folds what _row_factors
    adds to the row before, 2^i + 1 and 2^i - 1 first so that the widest
    components die first (the ring is commutative: only the cost changes).
    A row that folds is read back; one that folds nothing is the row before,
    the same object: callers must not mutate a yielded histogram.
    """
    _check_modulus_pow(k)
    check_rank(n)
    _check_dp_work(last, k, last - n + 1)
    dlog = _dlog(k)
    keys = list(range(1, 1 << k, 2))
    size = max(1, len(dlog) // 2)
    lead = dict.fromkeys(c for i in range(k - 1, 1, -1) for c in (2**i + 1, 2**i - 1))
    state, h, folded = _unit(size), None, 0
    for row in range(n, last + 1):
        factors = _row_factors(row)
        new, folded = factors[folded:], len(factors)
        for c in chain(filter(new.__contains__, lead), filterfalse(lead.__contains__, new)):
            h = None  # before the fold, so that the stale row is not held through it
            state = _fold(state, *divmod(dlog[(c >> 1) % len(dlog)], size))  # (c mod 2^k) >> 1
        if h is None:
            h = ResidueHistogram(1 << k, dict(zip(keys, map(_read_back(state, size).__getitem__, dlog))))
        yield row, h


def residue_histogram_dp(n: int, k: int) -> ResidueHistogram:
    """Same histogram as residue_histogram_enum, by convolution in components.

    Makes (n//2) folds, each at most 2^(k-1) C-level adds over the live
    components, and one exact read-back, instead of walking 2^(n//2)
    subsets.  Refused above DP_MAX_WORK before any fold.
    """
    return next(_walk(k, n, n))[1]


def is_equidistributed(h: ResidueHistogram) -> bool:
    """True iff every residue class in the histogram has the same count.

    One C-level scan that stops at the first count unlike the first, and
    hashes nothing; int == returns at once for the same object, so a flat
    row read back by reference is compared mostly by pointer.
    """
    values = iter(h.counts.values())
    return all(map(eq, values, repeat(next(values))))


def _stepped(h: ResidueHistogram, n: int) -> ResidueHistogram:
    """Histogram of row n+1 from the histogram of row n, by the step law.

    Even n adds no factor; odd n adds to the histogram its own shift by n,
    pulled back: the shift's count at r is the count at r * n^-1 mod 2^k.
    """
    if n % 2 == 0:
        return h
    m, counts = h.modulus, h.counts
    inv = pow(n, -1, m)
    return ResidueHistogram(m, {r: c + counts[r * inv % m] for r, c in counts.items()})


def verify_main_theorem(k: int, n_extra: int) -> list[dict[str, Any]]:
    """Flatness records mod 2^k for rows 2^(k-1)+2 through 2^(k-1)+2+n_extra.

    The rows come from one _walk starting at the threshold row, through
    starmap so that no row's histogram is still held while the next is read
    back.  Every record, {"check": "flat-row", "k", "n", "ok"}, must have ok
    true.
    """
    _check_modulus_pow(k)
    if n_extra < 0:
        raise ValueError("n_extra must be nonnegative")
    start = (1 << (k - 1)) + 2

    def record(n: int, h: ResidueHistogram) -> dict[str, Any]:
        return {"check": "flat-row", "k": k, "n": n, "ok": is_equidistributed(h)}

    return list(starmap(record, _walk(k, start, start + n_extra)))


def verify_one_step(k: int, n_max: int) -> list[dict[str, Any]]:
    """Step records mod 2^k for every step n -> n+1 with n up to n_max.

    One _walk over rows 0..n_max+1 gives each row n+1 by folding; the step
    law, stepped from row n alone by _stepped, must give the same histogram
    (step_identity).  A record is ok when that holds and flatness at n
    carries over to n+1.  Each row is tested for flatness once, as the walk
    yields it, and the flag serves both steps it is in.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows = ((n, h, is_equidistributed(h)) for n, h in _walk(k, 0, n_max + 1))
    records = []
    for (n, h, flat_n), (_, succ, flat_next) in pairwise(rows):
        step = succ == _stepped(h, n)
        ok = (flat_next or not flat_n) and step
        records.append(
            {"check": "step", "k": k, "n": n, "flat_n": flat_n, "flat_next": flat_next, "step_identity": step, "ok": ok}
        )
    return records


def pi_rows(last: int) -> Iterator[tuple[int, Counter[int]]]:
    """Rows 0 through last with their multisets of subset products, in one pass.

    The product list doubles once per factor a row adds to the row before
    it, and only the new products are tallied, so rows 2j and 2j + 1 share
    their work.  The last row's last factor is only tallied: no later row
    reads its products.  The guard runs before the first product.  Each
    row yields the one tally, which the next row grows in place: read a
    row before asking for the next.
    """
    check_rank(last, SUBSET_MAX_RANK)
    top = max(_row_factors(last), default=None)
    prods, tally, folded = [1], Counter({1: 1}), 0
    for n in range(last + 1):
        factors = _row_factors(n)
        for c in factors[folded:]:
            new = map(mul, prods, repeat(c))
            if c != top:
                new = list(new)
                prods += new
            tally.update(new)
        folded = len(factors)
        yield n, tally


def pi_multiset(n: int) -> Counter[int]:
    """Multiset of products of distinct odd factors attached to row n.

    The factors are 1, 3, ..., 2*(n//2) - 1, one subset per product, empty
    product included; as a multiset this equals f_valued_row(n).  The last
    row of pi_rows(n).
    """
    return deque(pi_rows(n), maxlen=1)[0][1]  # the walk's guard runs here, at the call

"""Exact-arithmetic toolkit for the Young-Fibonacci lattice.

Words over {1, 2} graded by digit sum, their saturated-chain counts, the
binary tree of odd words, and residue statistics of chain counts modulo
prime powers.  Everything is computed in exact integer arithmetic.
"""

from .core import (
    EMPTY_WORD,
    Word,
    covers_down,
    covers_up,
    enumerate_rank,
    parse_word,
    rank,
    word_text,
)
from .fstat import f_mod, f_product, f_recursive
from .macdonald import (
    BlockForm,
    MacdonaldNode,
    MacdonaldTree,
    block_decompose,
    build_tree,
    f_odd_product,
    f_valued_row,
    is_odd_word,
    macdonald_children,
    odd_row_words,
    verify_subtree_self_similarity,
)
from .primes import (
    coprime_count,
    is_coprime_direct,
    is_coprime_structural,
    is_prime,
    residue_distribution_mod_p,
)
from .residues import (
    ResidueHistogram,
    is_equidistributed,
    multiplicative_shift,
    pi_multiset,
    residue_histogram_dp,
    residue_histogram_enum,
    verify_main_theorem,
    verify_one_step,
)

__all__ = [
    "EMPTY_WORD",
    "Word",
    "covers_down",
    "covers_up",
    "enumerate_rank",
    "parse_word",
    "rank",
    "word_text",
    "f_mod",
    "f_product",
    "f_recursive",
    "BlockForm",
    "MacdonaldNode",
    "MacdonaldTree",
    "block_decompose",
    "build_tree",
    "f_odd_product",
    "f_valued_row",
    "is_odd_word",
    "macdonald_children",
    "odd_row_words",
    "verify_subtree_self_similarity",
    "coprime_count",
    "is_coprime_direct",
    "is_coprime_structural",
    "is_prime",
    "residue_distribution_mod_p",
    "ResidueHistogram",
    "is_equidistributed",
    "multiplicative_shift",
    "pi_multiset",
    "residue_histogram_dp",
    "residue_histogram_enum",
    "verify_main_theorem",
    "verify_one_step",
]

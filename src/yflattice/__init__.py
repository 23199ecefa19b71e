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
from .fstat import f_blocks, f_mod, f_product, f_recursive, f_row
from .macdonald import (
    MacdonaldNode,
    MacdonaldTree,
    build_tree,
    f_valued_row,
    is_odd_word,
    macdonald_children,
    tree_rows,
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
    "f_blocks",
    "f_mod",
    "f_product",
    "f_recursive",
    "f_row",
    "MacdonaldNode",
    "MacdonaldTree",
    "build_tree",
    "f_valued_row",
    "is_odd_word",
    "macdonald_children",
    "tree_rows",
    "coprime_count",
    "is_coprime_direct",
    "is_coprime_structural",
    "is_prime",
    "residue_distribution_mod_p",
    "ResidueHistogram",
    "is_equidistributed",
    "pi_multiset",
    "residue_histogram_dp",
    "residue_histogram_enum",
    "verify_main_theorem",
    "verify_one_step",
]

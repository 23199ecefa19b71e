"""Exact-arithmetic toolkit for the Young-Fibonacci lattice.

Words over {1, 2} graded by digit sum, their saturated-chain counts, the
binary tree of odd words, and residue statistics of chain counts modulo
prime powers.  Everything is computed in exact integer arithmetic.
"""

from . import core, fstat, macdonald, primes, residues
from .core import *
from .fstat import *
from .macdonald import *
from .primes import *
from .residues import *

__all__ = core.__all__ + fstat.__all__ + macdonald.__all__ + primes.__all__ + residues.__all__

"""Exact symbolic computation in the graded bialgebra of free-group
algebras: reduced words, rank-splitting homomorphisms, the direct-sum
comultiplication, coset permutation representations, and claim probes."""

from . import algebra, bialgebra, morphisms, reps, scalars, text, words
from .algebra import *
from .bialgebra import *
from .morphisms import *
from .reps import *
from .scalars import *
from .text import *
from .words import *

# each module's __all__ is the one list of its public names; corpus (the
# seeded random inputs of `verify`) and cli are tools, not the algebra's API
__all__ = [
    *scalars.__all__, *words.__all__, *algebra.__all__, *bialgebra.__all__,
    *reps.__all__, *morphisms.__all__, *text.__all__,
]

__version__ = "0.1.0"

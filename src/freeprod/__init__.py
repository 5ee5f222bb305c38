"""Subgroup graphs, membership and Kurosh decompositions for free products
of finite groups.

The package exports what a caller needs to state a problem and read its
answers; everything else is imported from its module (``freeprod.lgraph``,
``freeprod.words``, ...)."""

from .fingroup import (
    CapExceededError,
    FactorPair,
    FiniteGroup,
    GroupValidationError,
    from_presentation,
    from_table,
    make_cyclic,
)
from .kurosh import decompose, presentation, verify
from .lgraph import InvariantError, components
from .precover import contains, index_if_finite, subgroup_graph
from .words import WordSyntaxError, parse_word

__version__ = "0.1.0"

"""Subgroup graphs, membership and Kurosh decompositions for free products
of finite groups."""

from .fingroup import (
    CapExceededError,
    DEFAULT_CAP,
    FactorPair,
    FiniteGroup,
    GroupValidationError,
    Presentation,
    cayley_graph,
    coset_graph,
    from_presentation,
    from_table,
    make_cyclic,
    reidemeister_schreier,
    schreier_stabilizer,
)
from .kurosh import (
    ConjugatedFactor,
    KuroshDecomposition,
    basic_step,
    decompose,
    free_basis,
    mcc,
    presentation,
    verify,
)
from .lgraph import (
    InvariantError,
    LabeledGraph,
    MonoComponent,
    SpanningTree,
    Trace,
    bouquet,
    components,
    cut_hairs,
    dump,
    fold_all,
    pointed_iso,
    spanning_tree,
    to_dot,
    trace,
)
from .precover import (
    SubgroupGraph,
    Verdict,
    component_is_cover,
    contains,
    index_if_finite,
    is_precover,
    is_reduced_precover,
    prune_redundant,
    saturate,
    subgroup_graph,
)
from .words import (
    Letter,
    NormalWord,
    Word,
    WordSyntaxError,
    format_symbol_word,
    free_reduce,
    inverse_word,
    letter_key,
    normal_to_word,
    normalize,
    parse_word,
    render_word,
)

__version__ = "0.1.0"

"""Exact computation with separated graphs and their Leavitt path algebras.

The package is organized around five layers:

* :mod:`sepgraph.graphs` -- finite separated graphs, skew products, quotients,
  morphisms and isomorphism checking.
* :mod:`sepgraph.groups` -- concrete group arithmetic (free words, integers,
  residues, products), edge labelings, graph actions, and the constructive
  recovery of a free action as a skew product over its quotient.
* :mod:`sepgraph.algebra` -- normal-form arithmetic in the Leavitt path
  algebra L(E,C) over the Gaussian rationals, gradings induced by labelings,
  and automorphisms induced by graph actions.
* :mod:`sepgraph.expectation` -- the canonical conditional expectation onto
  the span of the vertex projections, with exact rational values.
* :mod:`sepgraph.crossed` -- the algebraic crossed product by the grading of
  a labeling, the skew-product isomorphism on basis elements, and its
  verification for finite groups.

All values are immutable and all operations are pure; everything is computed
with exact rational arithmetic.
"""

from .scalars import GaussianRational
from .graphs import (
    Edge,
    GraphError,
    GraphMorphism,
    GraphPath,
    SeparatedGraph,
    SignedEdge,
    SkewProduct,
    check_isomorphism,
    forward_path,
    graph_from_json,
    graph_to_json,
    quotient_graph,
    skew_path,
    skew_product,
    validate,
)
from .groups import (
    CyclicGroup,
    FreeGroup,
    GraphAction,
    GroupElement,
    GroupError,
    IntegerGroup,
    Labeling,
    ProductGroup,
    cayley_separated_graph,
    check_action,
    free_labeling,
    gross_tucker,
    is_free,
    translation_action,
)
from .algebra import (
    AlgebraElement,
    AlgebraError,
    LeavittContext,
    NormalWord,
    component,
    decompose,
    edge_element,
    element_literal,
    from_word,
    induced_automorphism,
    is_normal,
    parse_element,
    rebase,
    reduce_word,
    vertex_element,
    word_degree,
    zero,
)
from .expectation import beta_element, expect, n_mu, phi_ordinary
from .crossed import (
    CrossedElement,
    CrossedWord,
    crossed_mul,
    crossed_star,
    phi_map,
    psi_on_generators,
    verify_iso,
)

__all__ = [name for name in dir() if not name.startswith("_")]

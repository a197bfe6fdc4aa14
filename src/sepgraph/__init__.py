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
  a labeling, the lift of base words to the skew product, the isomorphism on
  basis elements, and its verification for finite groups.

The library is used through these submodules; the package itself exports
nothing.

Elements, words, groups, and the records of graphs, labelings and actions
never change once built.  A context memoizes ``expect_cache``, N of each
term's word, bounded at ``expectation.MEMO_ENTRIES`` words with the oldest
dropped first, and ``compatible_with``; a graph memoizes its step table.
All arithmetic is exact.
"""

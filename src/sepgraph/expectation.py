"""The canonical conditional expectation onto the span of vertex projections.

On a composable word w the expectation is ``N(w) P_{s(w)}`` for a rational
N(w).  L(E,C) is the free product of its cells' graph algebras amalgamated
over the vertex span, and the expectation is the free-product one: a product
of expectation-zero elements from consecutively distinct cells has
expectation zero.

N(w) is read off one left-to-right weighted pushdown.  The product of the
letters read so far is kept as a weighted sum of stacks of symbols: letters,
and kernel pieces ``k_e = e e* - (1/|X|) P_v`` for an edge e of a cell X at v.
Each letter is rewritten against the top of a stack only, by exact identities
in L(E,C):

* top ``e*`` meets ``e``: pop; meets another edge of e's cell: kill;
* top ``e`` meets ``e*``: pop if the cell is a singleton, else branch into a
  pop with weight ``1/|X|`` and a top replaced by ``k_e`` with weight 1;
* top ``k_e`` meets an edge f of e's cell: replace the top by f, with weight
  ``[f = e] - 1/|X|``;
* anything else, an empty stack included, pushes.

The letter-against-letter cases are :func:`sepgraph.algebra.junction` with
every edge of the word chosen: SPLIT is the branching ``e e*``.  A symbol under
``k_e`` is never a star letter of e's cell, so a replaced top never meets the
symbol below it.  A stack still nonempty at the end is a product of maximal
same-cell runs, each of shape ``mu (k_e)? nu*``, whose expectation in the
cell's graph algebra (see :func:`n_mu`) is zero; by freeness so is the
product's.  So N(w) is the total weight that ends on the empty stack.

The stacks are never listed.  A slot's life runs from the letter that pushes
it to the letter that pops it; meanwhile its symbol may be replaced and other
slots live above it, but what it reads does not depend on what lies below.  So
the table keeps, after each letter, the weight of every live top slot by (push
time, symbol), and per push time the weights of the tops it was pushed onto,
which a pop resumes.  There are O(n) slots per time, so a word of length n
costs O(n^3) at worst.  Weights stay integers: each letter read weighs
``scale``, the lcm of the word's cell sizes, and the end divides by
``scale**n``.

The memo (``LeavittContext.expect_cache``) maps a term's own word to N and is
asked first; it keeps at most :data:`MEMO_ENTRIES` words, dropping the oldest.
A word whose free label is nontrivial has N = 0 and skips the table.

For an ordinary (trivially separated) row-finite graph the expectation has the
closed form ``n_mu P_{s(mu)}`` with ``n_mu`` the inverse product of the
out-degrees along the path; :func:`phi_ordinary` computes that directly and
serves as an independent oracle for the pushdown.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (
    APPEND,
    CANCEL,
    SPLIT,
    AlgebraElement,
    AlgebraError,
    LeavittContext,
    NormalWord,
    accumulate,
    from_word,
    junction,
    vertex_element,
    zero,
)
from .graphs import GraphError, SeparatedGraph, SignedEdge


# the most words a context's expectation memo keeps
MEMO_ENTRIES = 1 << 14


def _free_label_is_trivial(steps: tuple) -> bool:
    stack = []
    for s in steps:
        sign = -1 if s.star else 1
        if stack and stack[-1] == (s.edge, -sign):
            stack.pop()
        else:
            stack.append((s.edge, sign))
    return not stack


def _pushdown(table: dict, steps: tuple) -> Fraction:
    """N of a composable word: the weight the pushdown ends with on the empty
    stack.  A top slot is keyed (push time, symbol); the empty stack is
    ``(0, None)`` and a kernel piece ``k_e`` is the edge id e.  A KILL moves
    nothing: that stack is zero."""
    chosen = {step.edge for step in steps}
    scale = math.lcm(*(len(table[step][3]) for step in steps))
    tops = {(0, None): 1}
    # under[t]: the tops that the letter read at time t was pushed onto
    under = [None]
    for t, a in enumerate(steps, 1):
        part = scale // len(table[a][3])
        pushed, moves = {}, []
        for (born, top), w in tops.items():
            if top is None:
                rule = APPEND
            elif type(top) is str:
                if not a.star and table[a][2] == table[SignedEdge(top)][2]:
                    moves.append(((born, a), w * ((a.edge == top) * scale - part)))
                    continue
                rule = APPEND
            else:
                rule = junction(table, chosen, top, a)
            if rule == APPEND:
                pushed[born, top] = w * scale
            elif rule == CANCEL:
                moves.extend((key, v * w * scale) for key, v in under[born].items())
            elif rule == SPLIT:
                moves.extend((key, v * w * part) for key, v in under[born].items())
                moves.append(((born, a.edge), w * scale))
        if pushed:
            moves.append(((t, a), 1))
        under.append(pushed)
        tops = accumulate({}, moves)
    return Fraction(tops.get((0, None), 0), scale ** len(steps))


def _n_value(ctx: LeavittContext, steps: tuple) -> Fraction:
    """The rational N with P(S_w) = N * P_{s(w)} for a composable word w."""
    cache = ctx.expect_cache
    cached = cache.get(steps)
    if cached is not None:
        return cached
    if not _free_label_is_trivial(steps):
        return Fraction(0)
    value = cache[steps] = _pushdown(ctx.graph.step_table(), steps)
    if len(cache) > MEMO_ENTRIES:
        cache.popitem(last=False)
    return value


def expect(x: AlgebraElement) -> AlgebraElement:
    """The conditional expectation, extended linearly over basis words.

    The result is supported on vertex projections, with coefficients in Q(i)
    whose rational parts come from the N values (imaginary parts only enter
    through the input coefficients).
    """
    ctx = x.ctx
    table = ctx.graph.step_table()

    def vertex_terms():
        for word, coeff in x.terms.items():
            if word.is_vertex:
                yield word, coeff
            else:
                n = _n_value(ctx, word.steps)
                if n:
                    yield NormalWord.of_vertex(table[word.steps[0]][0]), coeff * n

    return AlgebraElement(ctx, accumulate({}, vertex_terms()))


# -- the ordinary-graph oracle ---------------------------------------------------


def _require_forward(graph: SeparatedGraph, path: NormalWord) -> None:
    """Raise unless a word is a forward path: composable, with no star letter."""
    if any(step.star for step in path.steps):
        raise GraphError("malformed path: the closed form takes forward paths")
    for a, b in zip(path.steps, path.steps[1:]):
        if graph.range(a) != graph.source(b):
            raise GraphError("malformed path: steps do not compose")


def n_mu(graph: SeparatedGraph, mu: NormalWord) -> Fraction:
    """The inverse product of out-degrees along a forward path (1 if empty)."""
    _require_forward(graph, mu)
    value = Fraction(1)
    for step in mu.steps:
        value /= len(graph.out_edges(graph.source(step)))
    return value


def phi_ordinary(ctx: LeavittContext, mu: NormalWord, nu: NormalWord) -> AlgebraElement:
    """The closed-form expectation of S_mu S_nu* for forward paths mu and nu on
    a trivially separated graph."""
    graph = ctx.graph
    for v in graph.vertices:
        if len(graph.cells(v)) > 1:
            raise AlgebraError(f"graph is not trivially separated: vertex {v!r} has several cells")
    for path in (mu, nu):
        _require_forward(graph, path)
    if mu.range(graph) != nu.range(graph):
        raise GraphError("malformed paths: ranges differ")
    if mu != nu:
        return zero(ctx)
    return vertex_element(ctx, mu.source(graph)).scale(n_mu(graph, mu))


def cell_subgraph(graph: SeparatedGraph, v: str, index: int) -> SeparatedGraph:
    """The trivially separated subgraph on one cell (all vertices kept)."""
    cell = graph.cell_edges(v, index)
    edges = [graph.edge(eid) for eid in cell]
    return SeparatedGraph(graph.vertices, edges, {v: [list(cell)]})


def beta_element(ctx: LeavittContext, edge_id: str) -> AlgebraElement:
    """The kernel element S_e S_e* - (1/|X|) P_v of the cell expectation."""
    v, _, _, cell = ctx.graph.step_table()[SignedEdge(edge_id)]
    word = NormalWord.of_steps((SignedEdge(edge_id), SignedEdge(edge_id, True)))
    return from_word(ctx, word) - vertex_element(ctx, v).scale(Fraction(1, len(cell)))

"""The canonical conditional expectation onto the span of vertex projections.

On a composable word w the expectation is ``N(w) P_{s(w)}`` for a rational
N(w).  A word is first weakly reduced with the choice-independent rules
(``e* e`` drops, ``e* f`` with ``e != f`` in one cell kills, ``e e*`` drops for
a singleton cell); a word whose free label is nontrivial has N = 0.
Otherwise every ``e e*`` occurrence is split as
``S_e S_e* = (1/|X|) P_v + (S_e S_e* - (1/|X|) P_v)`` with X the cell of e.
Products of kernel pieces from consecutively distinct cells have expectation
zero, so the term keeping every kernel piece drops and

    N(w) = sum over nonempty sets D of occurrences deleted from w of
           (-1)^(|D|+1) / prod_{e e* in D} |X_e| * N(w without D).

All occurrences are expanded at once: the cross terms between occurrences need
not vanish, so expanding one occurrence at a time is not sound.

The sum is not enumerated set by set.  N of a shortened word depends only on
its weak reduction, a left-to-right stack fold whose rules fire only at the
junction with the next letter: they are :func:`sepgraph.algebra.junction` with
no chosen edge.  So the word is walked once, carrying the weakly reduced
prefixes of the choices that deleted some occurrence so far, each holding the
summed coefficient of every choice that leads to it; choices with equal
prefixes merge.  At an occurrence each prefix branches into keeping the pair
and deleting it (coefficient times ``-1/|X|``), and the choice that has kept
every pair so far (the word's own prefix) adds its deletion.  The 2^t choices
for t occurrences collapse onto far fewer prefixes wherever deletions let
neighbouring letters cancel, as on the alternating products ``(p q)^k`` of
projections from two cells; each final prefix recurses on a strictly shorter
word, memoized per context.  Where deletions expose no cancellation (blocks
``x (b b*) x*`` with x alternating between two cells) the prefixes stay
distinct, and the walk is exponential in t like the expansion it replaces,
only with a smaller base.

The memo (``LeavittContext.expect_cache``) maps weakly reduced words to N.
It is asked for a term's own word before that word is weakly reduced: N of a
word is N of its weak reduction, so any hit is right, and a normal word is
already weakly reduced (each weak rule's pair is forbidden in it), so a
repeated normal term hits.  It keeps at most :data:`MEMO_ENTRIES` words,
dropping the oldest.

For an ordinary (trivially separated) row-finite graph the expectation has the
closed form ``n_mu P_{s(mu)}`` with ``n_mu`` the inverse product of the
out-degrees along the path; :func:`phi_ordinary` computes that directly and
serves as an independent oracle for the walk.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    APPEND,
    CANCEL,
    KILL,
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
from .graphs import GraphError, GraphPath, SeparatedGraph, SignedEdge


# the most words a context's expectation memo keeps
MEMO_ENTRIES = 1 << 14


class _Prefixes:
    """The weakly reduced prefixes met while reading one word, hash-consed.

    A prefix is a node: node 0 is the empty prefix and every other node is its
    parent followed by one signed edge.  A weak rule only ever fires at the
    junction with the new letter, so pushing a letter is O(1), where a tuple
    prefix would be copied and rehashed.  Each node memoizes its pushes: the
    walk pushes the same letters onto the same nodes many times.
    """

    def __init__(self, table: dict):
        self.table = table
        self._parent = [0]
        self._last = [None]
        self._next = [{}]

    def push(self, node: int, step: SignedEdge) -> Optional[int]:
        """The prefix followed by one letter; ``None`` means zero."""
        known = self._next[node]
        out = known.get(step, -1)
        if out == -1:
            top = self._last[node]
            rule = APPEND if top is None else junction(self.table, (), top, step)
            if rule == CANCEL:
                out = self._parent[node]
            elif rule == KILL:
                out = None
            else:
                out = len(self._last)
                self._parent.append(node)
                self._last.append(step)
                self._next.append({})
            known[step] = out
        return out

    def extend(self, node: int, steps: Sequence[SignedEdge]) -> Optional[int]:
        for step in steps:
            node = self.push(node, step)
            if node is None:
                return None
        return node

    def word(self, node: int) -> tuple:
        letters = []
        while node:
            letters.append(self._last[node])
            node = self._parent[node]
        return tuple(reversed(letters))


def weakly_reduce(graph: SeparatedGraph, steps: Sequence[SignedEdge]) -> Optional[tuple]:
    """Normalize with the choice-independent rules only; ``None`` means zero.

    The result is a weakly reduced word (or the empty tuple for a vertex).
    """
    table = graph.step_table()
    stack = []
    for step in steps:
        rule = junction(table, (), stack[-1], step) if stack else APPEND
        if rule == KILL:
            return None
        if rule == CANCEL:
            stack.pop()
        else:
            stack.append(step)
    return tuple(stack)


def _free_label_is_trivial(steps: Sequence[SignedEdge]) -> bool:
    stack = []
    for s in steps:
        sign = -1 if s.star else 1
        if stack and stack[-1] == (s.edge, -sign):
            stack.pop()
        else:
            stack.append((s.edge, sign))
    return not stack


def _pair_occurrences(steps: tuple) -> list:
    return [
        i
        for i in range(len(steps) - 1)
        if not steps[i].star and steps[i + 1].star and steps[i].edge == steps[i + 1].edge
    ]


def _n_value(ctx: LeavittContext, steps: tuple) -> Fraction:
    """The rational N with P(S_w) = N * P_{s(w)} for a composable word w.

    The memo is asked for w before w is weakly reduced: N(w) is N of w's weak
    reduction, so a hit is sound even when w is not weakly reduced.
    """
    cached = ctx.expect_cache.get(steps)
    if cached is not None:
        return cached
    reduced = weakly_reduce(ctx.graph, steps)
    if reduced is None:
        return Fraction(0)
    return _n_reduced(ctx, reduced)


def _walk_moves(prefixes: _Prefixes, states: dict, chunk: tuple, size: int, pair: bool):
    """The (node, coefficient) moves of one walk step: each node reads the chunk
    on (a kept pair scales by |X|) and, at a pair, also deletes it (sign -1)."""
    for node, coeff in states.items():
        kept = prefixes.extend(node, chunk)
        if kept is not None:
            yield kept, coeff * size
        if pair:
            yield node, -coeff


def _n_reduced(ctx: LeavittContext, steps: tuple) -> Fraction:
    """N of a weakly reduced word, by the merged left-to-right walk."""
    if not steps:
        return Fraction(1)
    cached = ctx.expect_cache.get(steps)
    if cached is not None:
        return cached
    # a nontrivial free label gives zero; so does a word without an e e* pair,
    # an alternating product of cell-kernel pieces
    pairs = set(_pair_occurrences(steps)) if _free_label_is_trivial(steps) else set()
    total = Fraction(0)
    if pairs:
        table = ctx.graph.step_table()
        prefixes = _Prefixes(table)
        # the choice that keeps every pair reads the word as it stands, which
        # is weakly reduced: its node is that of steps[:seen]; it only seeds the
        # deletions, since its own term drops
        original = seen = 0
        # every other prefix node carries the summed coefficient prod -1/|X|
        # over its deleted pairs, kept as an int scaled by the product of the
        # cell sizes read so far: a kept pair multiplies it by |X|, a deleted
        # one by -1
        states = {}
        scale = 1
        i = min(pairs)
        while i < len(steps):
            pair = i in pairs
            chunk = steps[i : i + 2] if pair else steps[i : i + 1]
            size = len(table[steps[i]][3]) if pair else 1
            following = accumulate({}, _walk_moves(prefixes, states, chunk, size, pair))
            if pair:
                original = prefixes.extend(original, steps[seen:i])
                seen = i
                accumulate(following, ((original, -scale),))
            states = following
            scale *= size
            i += len(chunk)
        # the expansion's sign is (-1)^(d+1) for d deleted pairs
        for node, coeff in states.items():
            if coeff:
                total -= coeff * _n_reduced(ctx, prefixes.word(node))
        total /= scale
    cache = ctx.expect_cache
    cache[steps] = total
    if len(cache) > MEMO_ENTRIES:
        cache.popitem(last=False)
    return total


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


def _require_ordinary(graph: SeparatedGraph) -> None:
    for v in graph.vertices:
        if len(graph.cells(v)) > 1:
            raise AlgebraError(
                f"graph is not trivially separated: vertex {v!r} has several cells"
            )


def n_mu(graph: SeparatedGraph, mu: GraphPath) -> Fraction:
    """The inverse product of out-degrees along a forward path (1 if empty)."""
    if not mu.is_forward():
        raise GraphError("malformed path: n_mu is defined on forward paths")
    value = Fraction(1)
    for step in mu.steps:
        value /= len(graph.out_edges(graph.source(step)))
    return value


def phi_ordinary(ctx: LeavittContext, mu: GraphPath, nu: GraphPath) -> AlgebraElement:
    """The closed-form expectation of S_mu S_nu* on a trivially separated graph."""
    graph = ctx.graph
    _require_ordinary(graph)
    for path in (mu, nu):
        if not path.is_forward():
            raise GraphError("malformed path: phi_ordinary takes forward paths")
        for a, b in zip(path.steps, path.steps[1:]):
            if graph.range(a) != graph.source(b):
                raise GraphError("malformed path: steps do not compose")
    if mu.range(graph) != nu.range(graph):
        raise GraphError("malformed paths: ranges differ")
    if mu.steps != nu.steps or mu.source(graph) != nu.source(graph):
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

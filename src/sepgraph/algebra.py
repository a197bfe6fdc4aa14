"""Exact arithmetic in the Leavitt path algebra L(E,C) of a separated graph.

Elements are finite Q(i)-linear combinations of *normal words*: composable
words over the extended edge alphabet that contain neither a subword ``e* f``
with ``e, f`` in one separation cell, nor a subword ``e_X e_X*`` for the
chosen edge ``e_X`` of a cell.  Those words are a linear basis, so equality of
elements is equality of coefficient maps.

Arbitrary generator words are rewritten to that basis by a confluent system:

* (R0) a non-composable junction kills the word;
* (R1) ``e* e``  ->  drop the pair (a vertex remains if the word empties);
* (R2) ``e* f`` with ``e != f`` in one cell  ->  zero;
* (R3) ``e_X e_X*``  ->  branch into the dropped pair (coefficient +1) and,
  for every other edge ``f`` of the cell, the spliced pair ``f f*``
  (coefficient -1).

Every branch strictly decreases (word length, number of R3 redexes), so
rewriting terminates; results are memoized per context and strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import scalars
from .graphs import SeparatedGraph, SignedEdge
from .groups import GraphAction, GroupElement, Labeling
from .scalars import GaussianRational, parse_scalar


class AlgebraError(Exception):
    pass


@dataclass(frozen=True)
class NormalWord:
    """Either a vertex projection or a basis word over the extended alphabet."""

    vertex: Optional[str]
    steps: tuple

    def __post_init__(self):
        if (self.vertex is None) == (not self.steps):
            raise AlgebraError("a word is either a vertex or a nonempty step sequence")

    @staticmethod
    def of_vertex(v: str) -> "NormalWord":
        return NormalWord(v, ())

    @staticmethod
    def of_steps(steps: Sequence[SignedEdge]) -> "NormalWord":
        return NormalWord(None, tuple(steps))

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def adjoint(self) -> "NormalWord":
        """The word reversed with orientations flipped; a vertex is its own."""
        if self.is_vertex:
            return self
        return NormalWord.of_steps(tuple(s.reverse() for s in reversed(self.steps)))

    def literal(self) -> str:
        if self.is_vertex:
            return f"@{self.vertex}"
        return " ".join(step.literal() for step in self.steps)


class LeavittContext:
    """A validated graph plus a chosen edge ``e_X`` per separation cell.

    The choice parameterizes the basis; the default is the lexicographically
    smallest edge id in each cell.  Rewriting results are cached here, so share
    one context across computations on the same graph.
    """

    __slots__ = ("graph", "ex_choice", "_chosen", "_cache", "expect_cache")

    def __init__(self, graph: SeparatedGraph, ex_choice: Optional[dict] = None):
        graph.require_valid()
        self.graph = graph
        choice = dict(default_ex_choice(graph))
        if ex_choice:
            choice.update(ex_choice)
        self._chosen = set()
        for (v, i), eid in choice.items():
            cell = graph.cell_edges(v, i)
            if eid not in cell:
                raise AlgebraError(
                    f"chosen edge {eid!r} is not in cell {i} at vertex {v!r}"
                )
            self._chosen.add(eid)
        self.ex_choice = choice
        self._cache = {}
        self.expect_cache = {}

    def same_context(self, other: "LeavittContext") -> bool:
        return self is other or (self.graph == other.graph and self.ex_choice == other.ex_choice)

    def chosen(self, v: str, index: int) -> str:
        return self.ex_choice[(v, index)]

    def __repr__(self):
        return f"LeavittContext({self.graph!r})"


def default_ex_choice(graph: SeparatedGraph) -> dict:
    return {
        (v, i): min(cell)
        for v in graph.vertices
        for i, cell in enumerate(graph.cells(v))
    }


def _require_context(ctx: LeavittContext, x: "AlgebraElement") -> None:
    if not ctx.same_context(x.ctx):
        raise AlgebraError("elements live over different graph/choice contexts")


def is_normal(ctx: LeavittContext, steps: Sequence[SignedEdge]) -> bool:
    """True iff the word is composable and avoids both forbidden subwords."""
    steps = tuple(steps)
    graph = ctx.graph
    for a, b in zip(steps, steps[1:]):
        if graph.range(a) != graph.source(b):
            return False
        if a.star and not b.star and graph.cell_of(a.edge) == graph.cell_of(b.edge):
            return False
        if not a.star and b.star and a.edge == b.edge and a.edge in ctx._chosen:
            return False
    return True


def _word_source(ctx: LeavittContext, word: NormalWord) -> str:
    return word.vertex if word.is_vertex else ctx.graph.source(word.steps[0])


def _word_range(ctx: LeavittContext, word: NormalWord) -> str:
    return word.vertex if word.is_vertex else ctx.graph.range(word.steps[-1])


def _reduce(ctx: LeavittContext, steps: tuple, strategy: str) -> dict:
    """Rewrite a composable word to normal form; returns {NormalWord: +/-1}."""
    key = (strategy, steps)
    cached = ctx._cache.get(key)
    if cached is not None:
        return cached
    graph = ctx.graph
    n = len(steps)
    indices = range(n - 1) if strategy == "leftmost" else range(n - 2, -1, -1)
    result = None
    for i in indices:
        a, b = steps[i], steps[i + 1]
        if a.star and not b.star:
            if graph.cell_of(a.edge) != graph.cell_of(b.edge):
                continue
            if a.edge == b.edge:
                result = _reduce_splice(ctx, steps, steps[:i] + steps[i + 2 :], strategy)
            else:
                result = {}
            break
        if (not a.star) and b.star and a.edge == b.edge and a.edge in ctx._chosen:
            v, k = graph.cell_of(a.edge)
            acc = dict(_reduce_splice(ctx, steps, steps[:i] + steps[i + 2 :], strategy))
            for other in graph.cell_edges(v, k):
                if other == a.edge:
                    continue
                branch = steps[:i] + (SignedEdge(other), SignedEdge(other, True)) + steps[i + 2 :]
                for word, sign in _reduce(ctx, branch, strategy).items():
                    acc[word] = acc.get(word, 0) - sign
            result = {word: sign for word, sign in acc.items() if sign}
            break
    if result is None:
        result = {NormalWord.of_steps(steps): 1}
    ctx._cache[key] = result
    return result


def _reduce_splice(ctx, original: tuple, spliced: tuple, strategy: str) -> dict:
    if spliced:
        return _reduce(ctx, spliced, strategy)
    return {NormalWord.of_vertex(ctx.graph.source(original[0])): 1}


def reduce_word(
    ctx: LeavittContext,
    steps: Sequence[SignedEdge],
    coeff: GaussianRational = scalars.ONE,
    base: Optional[str] = None,
    strategy: str = "leftmost",
) -> "AlgebraElement":
    """The element represented by ``coeff`` times a raw generator word.

    A word with a non-composable junction is zero.  An empty step sequence
    needs ``base`` and denotes the vertex projection there.
    """
    steps = tuple(steps)
    if not steps:
        if base is None:
            raise AlgebraError("an empty word needs its base vertex")
        ctx.graph.require_vertex(base)
        return AlgebraElement(ctx, {NormalWord.of_vertex(base): coeff})
    graph = ctx.graph
    for step in steps:
        graph.edge(step.edge)  # unknown ids are context errors, not zero
    for a, b in zip(steps, steps[1:]):
        if graph.range(a) != graph.source(b):
            return AlgebraElement(ctx, {})
    terms = {}
    for word, sign in _reduce(ctx, steps, strategy).items():
        terms[word] = coeff if sign == 1 else coeff * sign
    return AlgebraElement(ctx, terms)


def accumulate(acc: dict, pairs) -> dict:
    """Add (basis key, coefficient) pairs into ``acc`` in place; returns it.

    The one linear-combination step of both element types.  Zero sums stay in
    the dict; the element constructors drop them.
    """
    for key, c in pairs:
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c
    return acc


def sum_of(ctx: LeavittContext, elements) -> "AlgebraElement":
    """The sum of elements over ``ctx`` in one pass, linear in the terms read;
    a summand over another context raises :class:`AlgebraError` as ``+`` does."""
    acc = {}
    for x in elements:
        _require_context(ctx, x)
        accumulate(acc, x.terms.items())
    return AlgebraElement(ctx, acc)


class AlgebraElement:
    """A finite linear combination of normal words with Q(i) coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: LeavittContext, terms: dict):
        self.ctx = ctx
        self.terms = {w: c for w, c in terms.items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.ctx.same_context(other.ctx)
            and self.terms == other.terms
        )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return sum_of(self.ctx, (self, other))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.ctx, {w: -c for w, c in self.terms.items()})

    def scale(self, factor) -> "AlgebraElement":
        if isinstance(factor, (int, Fraction)):
            factor = GaussianRational.of(factor)
        return AlgebraElement(self.ctx, {w: c * factor for w, c in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_context(self.ctx, other)
        ctx = self.ctx
        # the hottest loop of every product, so accumulate() is written out
        # here: no generator per term pair, and a +1 sign costs no multiply
        acc = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                c = c1 * c2
                for word, sign in _concat_reduce(ctx, w1, w2).items():
                    prev = acc.get(word, scalars.ZERO)
                    acc[word] = prev + (c if sign == 1 else c * sign)
        return AlgebraElement(ctx, acc)

    def star(self) -> "AlgebraElement":
        """The adjoint: words reversed with orientations flipped, coefficients
        conjugated.  Normal words are closed under this, so no rewriting runs;
        reversal is injective on words, so no two terms meet."""
        terms = {w.adjoint(): c.conjugate() for w, c in self.terms.items()}
        return AlgebraElement(self.ctx, terms)

    def __repr__(self) -> str:
        return f"<{element_literal(self)}>"


def _concat_reduce(ctx: LeavittContext, w1: NormalWord, w2: NormalWord) -> dict:
    if w1.is_vertex:
        if w1.vertex == _word_source(ctx, w2):
            return {w2: 1}
        return {}
    if w2.is_vertex:
        if w2.vertex == _word_range(ctx, w1):
            return {w1: 1}
        return {}
    if ctx.graph.range(w1.steps[-1]) != ctx.graph.source(w2.steps[0]):
        return {}
    return _reduce(ctx, w1.steps + w2.steps, "leftmost")


def zero(ctx: LeavittContext) -> AlgebraElement:
    return AlgebraElement(ctx, {})


def vertex_element(ctx: LeavittContext, v: str) -> AlgebraElement:
    ctx.graph.require_vertex(v)
    return AlgebraElement(ctx, {NormalWord.of_vertex(v): scalars.ONE})


def edge_element(ctx: LeavittContext, edge_id: str, star: bool = False) -> AlgebraElement:
    ctx.graph.edge(edge_id)
    return AlgebraElement(ctx, {NormalWord.of_steps((SignedEdge(edge_id, star),)): scalars.ONE})


def from_word(ctx: LeavittContext, word: NormalWord, coeff=scalars.ONE) -> AlgebraElement:
    if not word.is_vertex and not is_normal(ctx, word.steps):
        return reduce_word(ctx, word.steps, coeff)
    return AlgebraElement(ctx, {word: coeff})


def rebase(x: AlgebraElement, ctx: LeavittContext) -> AlgebraElement:
    """Re-express an element in the basis of another choice over the same graph."""
    if x.ctx.graph != ctx.graph:
        raise AlgebraError("rebase requires the same underlying graph")
    return sum_of(ctx, (reduce_word(ctx, w.steps, c, base=w.vertex) for w, c in x.terms.items()))


# -- gradings ------------------------------------------------------------------


def word_degree(word: NormalWord, labeling: Labeling) -> GroupElement:
    """The label of a basis word; vertex projections sit in the unit fiber."""
    if word.is_vertex:
        return labeling.group.identity()
    return labeling.of_word(word.steps)


def component(x: AlgebraElement, g: GroupElement, labeling: Labeling) -> AlgebraElement:
    """The spectral projection onto the degree-``g`` part."""
    return AlgebraElement(
        x.ctx, {w: c for w, c in x.terms.items() if word_degree(w, labeling) == g}
    )


def decompose(x: AlgebraElement, labeling: Labeling) -> dict:
    """Partition an element into its homogeneous components (zero parts absent)."""
    parts = {}
    for w, c in x.terms.items():
        g = word_degree(w, labeling)
        parts.setdefault(g, {})[w] = c
    return {g: AlgebraElement(x.ctx, terms) for g, terms in parts.items()}


def is_homogeneous(x: AlgebraElement, labeling: Labeling) -> bool:
    return len(decompose(x, labeling)) <= 1


# -- induced automorphisms ------------------------------------------------------


def induced_automorphism(
    action: GraphAction, g: GroupElement, x: AlgebraElement
) -> AlgebraElement:
    """The algebra automorphism over a graph automorphism: relabel every vertex
    and edge, then renormalize (the image of a chosen edge need not be chosen)."""
    f = action.morphism(g)
    ctx = x.ctx
    images = []
    for w, c in x.terms.items():
        if w.is_vertex:
            try:
                moved = f.vmap[w.vertex]
            except KeyError:
                raise AlgebraError(f"action does not cover vertex {w.vertex!r}") from None
            images.append(AlgebraElement(ctx, {NormalWord.of_vertex(moved): c}))
        else:
            try:
                steps = tuple(SignedEdge(f.emap[s.edge], s.star) for s in w.steps)
            except KeyError as exc:
                raise AlgebraError(f"action does not cover edge {exc}") from None
            images.append(reduce_word(ctx, steps, c))
    return sum_of(ctx, images)


# -- literals -------------------------------------------------------------------


def element_literal(x: AlgebraElement) -> str:
    """Canonical text form: terms sorted by word literal, ``0`` when empty."""
    if x.is_zero:
        return "0"
    parts = []
    for word in sorted(x.terms, key=lambda w: w.literal()):
        parts.append(f"{x.terms[word]} * {word.literal()}")
    return " + ".join(parts)


def _parse_factor(ctx: LeavittContext, token: str) -> AlgebraElement:
    if token.startswith("@"):
        return vertex_element(ctx, token[1:])
    if token.endswith("*"):
        return edge_element(ctx, token[:-1], star=True)
    return edge_element(ctx, token)


def parse_element(ctx: LeavittContext, text: str) -> AlgebraElement:
    """Parse the element literal syntax.

    Whitespace-separated tokens; ``e`` for the edge generator, ``e*`` for its
    adjoint, ``@v`` for a vertex projection.  Terms are separated by standalone
    ``+`` or ``-`` tokens and may carry a leading scalar: ``3/2+1/2i * a b*``.
    """
    tokens = text.split()
    if not tokens:
        raise AlgebraError("empty element literal")
    if tokens == ["0"]:
        return zero(ctx)
    terms = [[]]
    signs = [1]
    for tok in tokens:
        if tok in ("+", "-") and terms[-1]:
            terms.append([])
            signs.append(1 if tok == "+" else -1)
        else:
            terms[-1].append(tok)
    values = []
    for sign, term in zip(signs, terms):
        if not term:
            raise AlgebraError(f"dangling sign in element literal {text!r}")
        coeff = scalars.ONE
        if len(term) >= 2 and term[1] == "*":
            try:
                coeff = parse_scalar(term[0])
            except scalars.ScalarError as exc:
                raise AlgebraError(str(exc)) from None
            term = term[2:]
            if not term:
                raise AlgebraError(f"coefficient without a word in {text!r}")
        value = None
        for tok in term:
            factor = _parse_factor(ctx, tok)
            value = factor if value is None else value * factor
        values.append(value.scale(coeff * sign))
    return sum_of(ctx, values)

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
rewriting terminates.  It runs as one stack pass over the word per branch,
without recursion, so cancellation is linear in the word length.

Every rule reads two adjacent letters, so R1-R3 are one rule, :func:`junction`,
which every fold reads; the expectation's pushdown reads it with every edge of
its word chosen.  Two normal words meet in one new adjacent pair, the
*junction*, so a product's term pair is normal unless its junction is
forbidden, and only then is it folded.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import scalars
from .graphs import GraphMorphism, SeparatedGraph, SignedEdge, quote
from .groups import GroupElement, Labeling
from .scalars import GaussianRational, parse_scalar


class AlgebraError(Exception):
    pass


class _Word(NamedTuple):
    vertex: Optional[str]
    steps: tuple


class NormalWord(_Word):
    """Either a vertex projection or a basis word over the extended alphabet.
    A path of the graph is a word too: the vertex word when it is empty.

    A plain tuple underneath, so words hash and compare without a
    Python-level call; only construction checks the shape.
    """

    __slots__ = ()

    def __new__(cls, vertex: Optional[str], steps: tuple):
        if (vertex is None) == (not steps):
            raise AlgebraError("a word is either a vertex or a nonempty step sequence")
        return tuple.__new__(cls, (vertex, steps))

    @staticmethod
    def of_vertex(v: str) -> "NormalWord":
        return NormalWord(v, ())

    @staticmethod
    def of_steps(steps: Sequence[SignedEdge]) -> "NormalWord":
        return NormalWord(None, tuple(steps))

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def source(self, graph: SeparatedGraph) -> str:
        return self.vertex if self.is_vertex else graph.source(self.steps[0])

    def range(self, graph: SeparatedGraph) -> str:
        return self.vertex if self.is_vertex else graph.range(self.steps[-1])

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
    """A separated graph plus a chosen edge ``e_X`` per separation cell.

    The choice parameterizes the basis; the default is the lexicographically
    smallest edge id in each cell.  The graph's step table is shared by every
    context over it; a context adds only its set of chosen edges, the
    expectation's memo from a term's word to its N (bounded: past
    ``expectation.MEMO_ENTRIES`` words it drops its oldest) and the fiberwise
    choices it passed.
    """

    __slots__ = ("graph", "ex_choice", "_chosen", "expect_cache", "compatible_with")

    def __init__(self, graph: SeparatedGraph, ex_choice: Optional[dict] = None):
        self.graph = graph
        choice = dict(default_ex_choice(graph))
        if ex_choice:
            choice.update(ex_choice)
        self._chosen = set()
        for (v, i), eid in choice.items():
            cells = graph.cells(v)
            if type(i) is not int or not 0 <= i < len(cells) or eid not in cells[i]:
                raise AlgebraError(
                    f"chosen edge {eid!r} is not in cell {i!r} at vertex {v!r}"
                )
            self._chosen.add(eid)
        self.ex_choice = choice
        self.expect_cache = OrderedDict()
        # base context -> the SkewProduct this context's choice was checked
        # against fiberwise (crossed.phi_map); only passed checks are kept
        self.compatible_with = {}

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


APPEND, CANCEL, KILL, SPLIT = range(4)


def junction(table: dict, chosen, a: SignedEdge, b: SignedEdge) -> int:
    """The rewriting of the adjacent letters ``a b``: ``e* e`` cancels (R1),
    ``e* f`` for distinct edges of one cell kills (R2), and ``e e*`` cancels
    for a singleton cell and splits (R3) if ``e`` is in ``chosen``; any other
    pair appends ``b``."""
    if a.star:
        if not b.star and table[a][2] == table[b][2]:
            return CANCEL if a.edge == b.edge else KILL
    elif b.star and a.edge == b.edge:
        if len(table[a][3]) == 1:
            return CANCEL
        return SPLIT if a.edge in chosen else APPEND
    return APPEND


def forbidden_pair(ctx: LeavittContext, a: SignedEdge, b: SignedEdge) -> bool:
    """True iff ``a b`` is a forbidden subword: ``e* f`` with ``e, f`` in one
    cell, or ``e_X e_X*`` for a chosen edge ``e_X``."""
    return junction(ctx.graph.step_table(), ctx._chosen, a, b) != APPEND


def is_normal(ctx: LeavittContext, steps: Sequence[SignedEdge]) -> bool:
    """True iff the word is composable and avoids both forbidden subwords."""
    steps = tuple(steps)
    table = ctx.graph.step_table()
    return all(
        table[a][1] == table[b][0] and junction(table, ctx._chosen, a, b) == APPEND
        for a, b in zip(steps, steps[1:])
    )


def _fold(ctx: LeavittContext, steps: tuple) -> dict:
    """Rewrite a composable word to normal form; returns {NormalWord: +/-1}.

    One stack pass per branch, leftmost redex first.  A normal word comes back
    unchanged, so this is also the one way into the basis for a word not known
    to be normal.

    The stack holds a normal prefix, so a rule can only fire between its top
    and the next letter, as :func:`junction` says: KILL ends the branch, CANCEL
    pops, and SPLIT pops ``e_X`` and queues, for every other ``f`` of the cell,
    a copy of the stack with ``f f*`` pending before the rest of the input and
    the sign negated.

    A product of two normal words comes here only when its junction is a
    :func:`forbidden_pair`; any other junction leaves the concatenation normal.
    """
    table, chosen = ctx.graph.step_table(), ctx._chosen
    n = len(steps)
    stack, pending, i, sign = [steps[0]], (), 1, 1
    fired = False
    work = []
    out = {}
    while True:
        while pending or i < n:
            if pending:
                b, pending = pending[0], pending[1:]
            else:
                b = steps[i]
                i += 1
            rule = junction(table, chosen, stack[-1], b) if stack else APPEND
            if rule == APPEND:
                stack.append(b)
                continue
            fired = True
            if rule == KILL:
                sign = 0
                break
            a = stack.pop()
            if rule == SPLIT:
                for f in reversed(table[a][3]):  # queued to run in cell order
                    if f != a.edge:
                        branch = (SignedEdge(f), SignedEdge(f, True)) + pending
                        work.append((stack[:], branch, i, -sign))
        if not fired:  # the word is normal as it stands
            return {NormalWord(None, steps): 1}
        if sign:
            word = NormalWord(None, tuple(stack)) if stack else NormalWord(table[steps[0]][0], ())
            out[word] = out.get(word, 0) + sign
        if not work:
            return {word: sign for word, sign in out.items() if sign}
        stack, pending, i, sign = work.pop()


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

    ``strategy="rightmost"``, for confluence checks, folds the adjoint word and
    reads each result back through :meth:`NormalWord.adjoint`: the rules are
    adjoint-invariant, so this fires the rightmost redex first.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise AlgebraError(f"unknown strategy {strategy!r}: expected 'leftmost' or 'rightmost'")
    steps = tuple(steps)
    if not steps:
        if base is None:
            raise AlgebraError("an empty word needs its base vertex")
        ctx.graph.require_vertex(base)
        return AlgebraElement(ctx, {NormalWord.of_vertex(base): coeff})
    table = ctx.graph.step_table()
    ends = [table[step] for step in steps]  # unknown ids are context errors, not zero
    for a, b in zip(ends, ends[1:]):
        if a[1] != b[0]:
            return AlgebraElement(ctx, {})
    if strategy == "leftmost":
        signs = _fold(ctx, steps).items()
    else:
        adjoint = NormalWord(None, steps).adjoint().steps
        signs = ((word.adjoint(), sign) for word, sign in _fold(ctx, adjoint).items())
    terms = {}
    for word, sign in signs:
        terms[word] = coeff if sign == 1 else coeff * sign
    return AlgebraElement(ctx, terms)


def accumulate(acc: dict, pairs) -> dict:
    """Add (basis key, coefficient) pairs into ``acc`` in place; returns it.

    The one linear-combination step of both element types.  A key whose sum
    cancels is deleted, so nonzero pairs added to a dict without zeros leave
    it without zeros.
    """
    for key, c in pairs:
        prev = acc.get(key)
        if prev is None:
            acc[key] = c
        elif total := prev + c:
            acc[key] = total
        else:
            del acc[key]
    return acc


def sum_of(ctx: LeavittContext, elements) -> "LinearCombination":
    """The sum of elements of one type over ``ctx`` in one pass, linear in the
    terms read; a summand ``+`` would reject raises :class:`AlgebraError`, and
    an empty sum is the zero of L(E,C)."""
    acc = {}
    empty = None  # the zero of the summands' type over ctx
    for x in elements:
        if empty is None:
            empty = x._like(ctx, {})
        empty._require_same_context(x)
        accumulate(acc, x.terms.items())
    return AlgebraElement(ctx, acc) if empty is None else empty._like(ctx, acc)


class LinearCombination:
    """A finite Q(i)-linear combination of basis keys over one context; zero
    coefficients are dropped on construction.  A subclass adds ``_like(ctx,
    terms)``, a combination of its type over ``ctx``, and its context rule
    ``_context_mismatch(other)``: why ``other`` is not over the same context,
    or None.  ``==``, ``+``, :func:`sum_of` and the products all apply it."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: LeavittContext, terms: dict):
        self.ctx = ctx
        self.terms = {w: c for w, c in terms.items() if c}

    def _require_same_context(self, other) -> None:
        reason = self._context_mismatch(other)
        if reason is not None:
            raise AlgebraError(reason)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return self._context_mismatch(other) is None and self.terms == other.terms

    def __add__(self, other):
        return sum_of(self.ctx, (self, other))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like(self.ctx, {w: -c for w, c in self.terms.items()})

    def scale(self, factor):
        if isinstance(factor, (int, Fraction)):
            factor = GaussianRational.of(factor)
        return self._like(self.ctx, {w: c * factor for w, c in self.terms.items()})

    def __repr__(self) -> str:
        return f"<{element_literal(self)}>"


class AlgebraElement(LinearCombination):
    """A finite linear combination of normal words with Q(i) coefficients."""

    __slots__ = ()

    def _context_mismatch(self, other) -> Optional[str]:
        same = isinstance(other, AlgebraElement) and self.ctx.same_context(other.ctx)
        return None if same else "elements live over different graph/choice contexts"

    def _like(self, ctx: LeavittContext, terms: dict) -> "AlgebraElement":
        return AlgebraElement(ctx, terms)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_context(other)
        ctx = self.ctx
        table, chosen = ctx.graph.step_table(), ctx._chosen
        # a term pair composes iff the left word's range is the right word's
        # source, so bucket the right terms by source and pair each left term
        # with its range's bucket only: n + m endpoint lookups, not 2nm
        by_source = {}
        for w2, c2 in other.terms.items():
            start = w2.vertex if w2.vertex is not None else table[w2.steps[0]][0]
            by_source.setdefault(start, []).append((w2, c2))
        # the hottest loop of every product: the term pairs are listed and
        # added in one accumulate() call, whose dict holds no zero, since a
        # product of nonzero coefficients is nonzero; so it is the result
        pairs = []
        for w1, c1 in self.terms.items():
            left = w1.steps
            end = w1.vertex if w1.vertex is not None else table[left[-1]][1]
            for w2, c2 in by_source.get(end, ()):
                c = c1 * c2
                if w1.vertex is not None:  # a vertex projection fixes what leaves it
                    pairs.append((w2, c))
                elif w2.vertex is not None:
                    pairs.append((w1, c))
                elif junction(table, chosen, left[-1], w2.steps[0]) == APPEND:
                    pairs.append((NormalWord(None, left + w2.steps), c))
                else:
                    for word, sign in _fold(ctx, left + w2.steps).items():
                        pairs.append((word, c if sign == 1 else c * sign))
        return _owned(ctx, accumulate({}, pairs))

    def star(self) -> "AlgebraElement":
        """The adjoint: words reversed with orientations flipped, coefficients
        conjugated.  Normal words are closed under this, so no rewriting runs;
        reversal is injective on words, so no two terms meet."""
        return _owned(self.ctx, {w.adjoint(): c.conjugate() for w, c in self.terms.items()})


def _owned(ctx: LeavittContext, terms: dict) -> AlgebraElement:
    """An element over ``terms`` as it is, without the constructor's copy and
    filter: the caller hands over a dict of its own that holds no zero."""
    x = object.__new__(AlgebraElement)
    x.ctx, x.terms = ctx, terms
    return x


def zero(ctx: LeavittContext) -> AlgebraElement:
    return AlgebraElement(ctx, {})


def vertex_element(ctx: LeavittContext, v: str) -> AlgebraElement:
    ctx.graph.require_vertex(v)
    return AlgebraElement(ctx, {NormalWord.of_vertex(v): scalars.ONE})


def edge_element(ctx: LeavittContext, edge_id: str, star: bool = False) -> AlgebraElement:
    ctx.graph.edge(edge_id)
    return AlgebraElement(ctx, {NormalWord.of_steps((SignedEdge(edge_id, star),)): scalars.ONE})


def from_word(ctx: LeavittContext, word: NormalWord, coeff=scalars.ONE) -> AlgebraElement:
    return reduce_word(ctx, word.steps, coeff, base=word.vertex)


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


# -- induced automorphisms ------------------------------------------------------


def induced_automorphism(f: GraphMorphism, x: AlgebraElement) -> AlgebraElement:
    """The algebra automorphism over a graph automorphism ``f``: relabel every
    vertex and edge, then renormalize (the image of a chosen edge need not be chosen)."""
    ctx = x.ctx
    images = []
    for w, c in x.terms.items():
        if w.is_vertex:
            try:
                moved = f.vmap[w.vertex]
            except KeyError:
                raise AlgebraError(f"automorphism does not cover vertex {w.vertex!r}") from None
            images.append(AlgebraElement(ctx, {NormalWord.of_vertex(moved): c}))
        else:
            try:
                steps = tuple(SignedEdge(f.emap[s.edge], s.star) for s in w.steps)
            except KeyError as exc:
                raise AlgebraError(f"automorphism does not cover edge {exc}") from None
            images.append(reduce_word(ctx, steps, c))
    return sum_of(ctx, images)


# -- literals -------------------------------------------------------------------


def element_literal(x: LinearCombination) -> str:
    """Canonical text form: terms sorted by basis-key literal, ``0`` when empty."""
    if x.is_zero:
        return "0"
    parts = []
    for word in sorted(x.terms, key=lambda w: w.literal()):
        parts.append(f"{x.terms[word]} * {word.literal()}")
    return " + ".join(parts)


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
            raise AlgebraError(f"dangling sign in element literal {quote(text)}")
        coeff = scalars.ONE
        if len(term) >= 2 and term[1] == "*":
            try:
                coeff = parse_scalar(term[0])
            except scalars.ScalarError as exc:
                raise AlgebraError(str(exc)) from None
            term = term[2:]
            if not term:
                raise AlgebraError(f"coefficient without a word in {quote(text)}")
        values.append(_parse_term(ctx, term, coeff * sign))
    return sum_of(ctx, values)


def _parse_term(ctx: LeavittContext, tokens: list, coeff: GaussianRational) -> AlgebraElement:
    """The product of one term's factors as one raw word, rewritten once.

    An ``@v`` factor adds no letter: it only requires the word to pass through
    ``v`` there.  Every token is checked left to right, also after a
    non-composable junction, so an unknown id is reported whatever the value.
    """
    table = ctx.graph.step_table()
    steps = []
    at = None  # the vertex reached so far; None before the first factor
    composable = True
    for tok in tokens:
        if tok.startswith("@"):
            start = end = tok[1:]
            ctx.graph.require_vertex(start)
        else:
            step = SignedEdge(tok[:-1], True) if tok.endswith("*") else SignedEdge(tok)
            start, end = table[step][:2]
            steps.append(step)
        composable = composable and at in (None, start)
        at = end
    if not composable:
        return zero(ctx)
    return reduce_word(ctx, steps, coeff, base=at)

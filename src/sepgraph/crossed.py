"""The algebraic crossed product of L(E,C) by the grading of a labeling.

A crossed word is a pair (b, h): a homogeneous basis word of the base algebra
next to a group slot, in the normal order with the slot on the right.  The
covariance rule pins the multiplication down to a single delta condition:

    (b, h) . (b', h')  =  [h == deg(b') h']  (b b', h')

and the involution to (b, h)* = (b*, deg(b) h).

The skew-product algebra is carried onto this crossed product word-by-word:
a basis word of the skew product starting in the ``g`` fiber and projecting to
the base word ``s`` maps to (s, (g c(s))^-1).  That is a bijection of bases
under the choice of a :class:`SkewContext`, whose chosen edges are the pairs
(e_X, g); multiplicativity is verified by :func:`verify_iso`, never assumed.
The group slot sums inverting the map need a finite group, and only then.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import scalars
from .algebra import (
    AlgebraElement,
    AlgebraError,
    LeavittContext,
    LinearCombination,
    NormalWord,
    _owned,
    accumulate,
    edge_element,
    from_word,
    induced_automorphism,
    vertex_element,
)
from .graphs import GraphError, SignedEdge, SkewProduct, skew_product
from .groups import GroupElement, Labeling, translation_action
from .sampling import random_normal_word

MAX_SAMPLES = 10**5  # about 0.1 ms a sample: 10 s, inside the 30 s budget README states
# the largest group order verify-crossed-iso takes: its fixed part grows about as the
# square of the order, and at 1,000 a run of MAX_SAMPLES samples stays inside the same budget
MAX_GROUP_ORDER = 1000


class CrossedWord(NamedTuple):
    word: NormalWord
    slot: GroupElement

    def literal(self) -> str:
        return f"({self.word.literal()} ; {self.slot})"


class CrossedContext(NamedTuple):
    """The context of a crossed element: the base context and the labeling whose
    coaction the crossed product crosses by."""

    base: LeavittContext
    labeling: Labeling

    def same_context(self, other: "CrossedContext") -> bool:
        # labelings compare as tuples: the groups first, then by_edge
        return self is other or (self.base.same_context(other.base) and self.labeling == other.labeling)


class CrossedElement(LinearCombination):
    """A finite linear combination of crossed words over a :class:`CrossedContext`."""

    __slots__ = ()


def crossed_mul(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    """The covariance product, bilinear over crossed words."""
    x._require_same_context(y)
    base, labeling = x.ctx
    by_slot = {}  # deg(b') h' -> the right terms (b', h') with it, as (h', b' as an element)
    for cw2, c2 in y.terms.items():
        shifted = labeling.of_word(cw2.word.steps) * cw2.slot
        by_slot.setdefault(shifted, []).append((cw2.slot, _owned(base, {cw2.word: c2})))
    acc = {}
    for cw1, c1 in x.terms.items():
        left = _owned(base, {cw1.word: c1})
        for slot, right in by_slot.get(cw1.slot, ()):
            # crossed words hold normal words, so they multiply as they are
            accumulate(acc, ((CrossedWord(w, slot), c) for w, c in (left * right).terms.items()))
    return _owned(x.ctx, acc, CrossedElement)


def crossed_star(x: CrossedElement) -> CrossedElement:
    """The conjugate-linear involution (b, h) -> (b*, deg(b) h).  The adjoint is a
    bijection of normal words, so no two terms meet."""
    labeling = x.ctx.labeling
    out = {
        CrossedWord(cw.word.adjoint(), labeling.of_word(cw.word.steps) * cw.slot): c.conjugate()
        for cw, c in x.terms.items()
    }
    return _owned(x.ctx, out, CrossedElement)


# -- the skew-product isomorphism on basis elements ------------------------------


class SkewContext(LeavittContext):
    """A context over a skew product whose choice is the fiber copy of a base
    context's: the chosen edge of the cell X x {g} is (e_X, g).  It is the one
    context :func:`phi_map` accepts, and it carries the skew product, the base
    context, the :class:`CrossedContext` of φ's images and the map's two tables:
    each skew letter's base letter, and each skew vertex (v, g)'s image (v, g^-1)."""

    __slots__ = ("skew", "base", "crossed", "_letter", "_end")

    def __init__(self, skew: SkewProduct, base: LeavittContext):
        if base.graph != skew.base:
            raise AlgebraError("the base context does not live over the skew product's base graph")
        choice, letter, end = {}, {}, {}
        for (v, g), name in skew.vertex_name.items():
            end[name] = CrossedWord(NormalWord.of_vertex(v), g.inverse())
            for i in range(len(skew.base.cells(v))):
                choice[(name, i)] = skew.edge_name[(base.chosen(v, i), g)]
        for name, (e, _) in skew.edge_pair.items():
            letter[SignedEdge(name)], letter[SignedEdge(name, True)] = SignedEdge(e), SignedEdge(e, True)
        super().__init__(skew.graph, choice)
        self.skew, self.base, self._letter, self._end = skew, base, letter, end
        self.crossed = CrossedContext(base, skew.labeling)


def phi_map(x: AlgebraElement) -> CrossedElement:
    """Carry a skew-product algebra element onto the crossed product.

    A basis word projecting to the base word s runs from the fiber g to the fiber
    g c(s), and goes to (s, (g c(s))^-1), the inverse of the fiber of its range.  This
    is a linear bijection of bases under the fiberwise choice, so ``x`` must live over
    a :class:`SkewContext`.
    """
    ctx = x.ctx
    if not isinstance(ctx, SkewContext):
        raise AlgebraError("phi_map needs an element over a SkewContext")
    table, letter, end = ctx.graph.step_table(), ctx._letter, ctx._end
    terms = {}
    for w, c in x.terms.items():
        if w.vertex is not None:
            terms[end[w.vertex]] = c
        else:
            slot = end[table[w.steps[-1]][1]].slot
            terms[CrossedWord(NormalWord(None, tuple(map(letter.__getitem__, w.steps))), slot)] = c
    return _owned(ctx.crossed, terms, CrossedElement)


def skew_path(skew: SkewProduct, word: NormalWord, g: GroupElement) -> NormalWord:
    """The lift of a base word to the skew product that starts in the ``g`` fiber.

    A letter x moves the fiber from h to h c(x), where c(e*) = c(e)^-1: e lifts
    to the edge (e, h) and e* to the reverse of the edge (e, h c(e)^-1).  So the
    lift of w runs from (s(w), g) to (r(w), g c(w)).  Raises GraphError on an
    unknown vertex or edge, or on a word whose steps do not compose.
    """
    base = skew.base
    at = word.source(base)
    base.require_vertex(at)
    steps = []
    for s in word.steps:
        if base.source(s) != at:
            raise GraphError(f"malformed path: {s.literal()} leaves {base.source(s)!r}, not {at!r}")
        at = base.range(s)
        h = g * skew.labeling.of_word((s,))
        steps.append(SignedEdge(skew.edge_name[(s.edge, h if s.star else g)], s.star))
        g = h
    return NormalWord.of_steps(steps) if steps else NormalWord.of_vertex(skew.vertex_name[(at, g)])


def phi_inverse_word(cw: CrossedWord, skew: SkewProduct) -> NormalWord:
    """The unique skew-product basis word mapping to a crossed word (b, h): the
    lift of b that starts in the fiber (deg(b) h)^-1."""
    g = skew.labeling.of_word(cw.word.steps) * cw.slot
    return skew_path(skew, cw.word, g.inverse())


# -- the inverse covariant pair (finite groups only) ------------------------------


class PsiGenerators(NamedTuple):
    """Images of the base generators and of the slot indicators inside the
    skew-product algebra: vertex sums over all fibers."""

    vertex_image: dict  # v -> sum_g P_(v,g)
    edge_image: dict  # e -> sum_g S_(e,g)
    chi_image: dict  # GroupElement g -> sum_v P_(v, g^-1)


def psi_on_generators(skew_ctx: SkewContext) -> PsiGenerators:
    skew = skew_ctx.skew
    elements = skew.group.elements()

    def total(words):  # distinct basis words, each with coefficient 1
        return _owned(skew_ctx, dict.fromkeys(words, scalars.ONE))

    vertex_image = {
        v: total(NormalWord.of_vertex(skew.vertex_name[(v, g)]) for g in elements)
        for v in skew.base.vertices
    }
    edge_image = {
        e.id: total(NormalWord.of_steps((SignedEdge(skew.edge_name[(e.id, g)]),)) for g in elements)
        for e in skew.base.edges
    }
    chi_image = {
        g: total(NormalWord.of_vertex(skew.vertex_name[(v, g.inverse())]) for v in skew.base.vertices)
        for g in elements
    }
    return PsiGenerators(vertex_image, edge_image, chi_image)


def psi_apply(gens: PsiGenerators, x: CrossedElement, skew_ctx: LeavittContext) -> AlgebraElement:
    """Evaluate the inverse covariant pair on a crossed element."""
    acc = {}
    for cw, coeff in x.terms.items():
        if cw.word.is_vertex:
            value = gens.vertex_image[cw.word.vertex]
        else:
            value = None
            for s in cw.word.steps:
                factor = gens.edge_image[s.edge]
                if s.star:
                    factor = factor.star()
                value = factor if value is None else value * factor
        accumulate(acc, ((w, c * coeff) for w, c in (value * gens.chi_image[cw.slot]).terms.items()))
    return _owned(skew_ctx, acc)


def slot_translate(x: CrossedElement, z: GroupElement) -> CrossedElement:
    """The dual translation on slots, (b, h) -> (b, h z^-1)."""
    zinv = z.inverse()
    return CrossedElement(x.ctx, {CrossedWord(cw.word, cw.slot * zinv): c for cw, c in x.terms.items()})


# -- verification -----------------------------------------------------------------


class IsoReport:
    __slots__ = ("generator_checks", "sample_checks", "failures")

    def __init__(self, generator_checks: int = 0, sample_checks: int = 0, failures=None):
        self.generator_checks, self.sample_checks = generator_checks, sample_checks
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"{status}: {self.generator_checks} generator identities, "
            f"{self.sample_checks} sampled identities"
        ]
        lines.extend(f"  counterexample: {f}" for f in self.failures)
        return "\n".join(lines)


def verify_iso(
    graph,
    labeling: Labeling,
    sample_count: int = 100,
    seed: int = 0,
) -> IsoReport:
    """Check the skew-product/crossed-product dictionary exhaustively on
    generators and on random basis pairs.

    (a) mapping a skew generator to the crossed product and back via the slot
    sums is the identity; (b) the word map is multiplicative and star
    preserving on sampled pairs; (c) the translation automorphisms correspond
    to slot translation.
    """
    if sample_count < 0:
        raise ValueError(f"the sample count must be at least 0, got {sample_count}")
    elements = labeling.group.elements()  # refuses an infinite group before anything is built
    skew = skew_product(graph, labeling)
    ctx = SkewContext(skew, LeavittContext(graph))
    gens = psi_on_generators(ctx)
    report = IsoReport()

    def check_roundtrip(x: AlgebraElement, name: str, item: str, g: GroupElement):
        back = psi_apply(gens, phi_map(x), ctx)
        report.generator_checks += 1
        if back != x:
            report.failures.append(f"psi(phi({name}_({item},{g}))) != {name}_({item},{g})")

    for v in graph.vertices:
        for g in elements:
            check_roundtrip(vertex_element(ctx, skew.vertex_name[(v, g)]), "P", v, g)
    for e in graph.edges:
        for g in elements:
            check_roundtrip(edge_element(ctx, skew.edge_name[(e.id, g)]), "S", e.id, g)

    rng = random.Random(seed)
    translation = translation_action(skew).morphisms() if sample_count else None
    for _ in range(sample_count):
        w1 = random_normal_word(rng, ctx, max_len=4)
        w2 = random_normal_word(rng, ctx, max_len=4)
        x = from_word(ctx, w1)
        y = from_word(ctx, w2)
        phi_x = phi_map(x)  # shared by all three identities
        lhs = phi_map(x * y)
        rhs = crossed_mul(phi_x, phi_map(y))
        report.sample_checks += 1
        if lhs != rhs:
            report.failures.append(
                f"phi not multiplicative on {w1.literal()} , {w2.literal()}"
            )
        star_lhs = phi_map(x.star())
        star_rhs = crossed_star(phi_x)
        report.sample_checks += 1
        if star_lhs != star_rhs:
            report.failures.append(f"phi not star-preserving on {w1.literal()}")
        z = rng.choice(elements)
        moved = phi_map(induced_automorphism(translation[z], x))
        expected = slot_translate(phi_x, z)
        report.sample_checks += 1
        if moved != expected:
            report.failures.append(
                f"translation by {z} does not match slot translation on {w1.literal()}"
            )
    return report

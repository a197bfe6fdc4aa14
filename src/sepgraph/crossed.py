"""The algebraic crossed product of L(E,C) by the grading of a labeling.

A crossed word is a pair (b, h): a homogeneous basis word of the base algebra
next to a group slot, in the normal order with the slot on the right.  The
covariance rule pins the multiplication down to a single delta condition:

    (b, h) . (b', h')  =  [h == deg(b') h']  (b b', h')

and the involution to (b, h)* = (b*, deg(b) h).

The skew-product algebra is carried onto this crossed product word-by-word:
a basis word of the skew product starting in the ``g`` fiber and projecting to
the base word ``s`` maps to (s, (g c(s))^-1).  Provided the skew product's
chosen edges are the pairs (e_X, g), that assignment is a bijection of bases;
multiplicativity is verified by :func:`verify_iso`, never assumed.  The group
slot sums inverting the map need a finite group, and only then.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import scalars
from .algebra import (
    AlgebraElement,
    AlgebraError,
    LeavittContext,
    NormalWord,
    accumulate,
    edge_element,
    from_word,
    induced_automorphism,
    sum_of,
    vertex_element,
    word_degree,
)
from .graphs import SignedEdge, SkewProduct
from .groups import GroupElement, GroupError, Labeling, translation_action


@dataclass(frozen=True)
class CrossedWord:
    word: NormalWord
    slot: GroupElement

    def literal(self) -> str:
        return f"({self.word.literal()} ; {self.slot})"


class CrossedElement:
    """A finite linear combination of crossed words over one base context."""

    __slots__ = ("ctx", "labeling", "terms")

    def __init__(self, ctx: LeavittContext, labeling: Labeling, terms: dict):
        self.ctx = ctx
        self.labeling = labeling
        self.terms = {w: c for w, c in terms.items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CrossedElement)
            and self.ctx.same_context(other.ctx)
            and self.labeling.group == other.labeling.group
            and self.terms == other.terms
        )

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        _same_crossed_context(self, other)
        terms = accumulate(dict(self.terms), other.terms.items())
        return CrossedElement(self.ctx, self.labeling, terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return "<0>"
        parts = sorted(f"{c} * {w.literal()}" for w, c in self.terms.items())
        return "<" + " + ".join(parts) + ">"


def _same_crossed_context(x: CrossedElement, y: CrossedElement) -> None:
    if not x.ctx.same_context(y.ctx) or x.labeling.group != y.labeling.group:
        raise AlgebraError("crossed elements live over different contexts")
    if x.labeling.by_edge != y.labeling.by_edge:
        raise AlgebraError("crossed elements carry different labelings")


def crossed_element(
    ctx: LeavittContext, labeling: Labeling, word: NormalWord, slot: GroupElement
) -> CrossedElement:
    return CrossedElement(ctx, labeling, {CrossedWord(word, slot): scalars.ONE})


def crossed_mul(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    """The covariance product, bilinear over crossed words."""
    _same_crossed_context(x, y)
    ctx = x.ctx
    labeling = x.labeling
    acc = {}
    for cw1, c1 in x.terms.items():
        for cw2, c2 in y.terms.items():
            if cw1.slot != word_degree(cw2.word, labeling) * cw2.slot:
                continue
            product = from_word(ctx, cw1.word, c1 * c2) * from_word(ctx, cw2.word)
            accumulate(acc, ((CrossedWord(w, cw2.slot), c) for w, c in product.terms.items()))
    return CrossedElement(ctx, labeling, acc)


def crossed_star(x: CrossedElement) -> CrossedElement:
    """The conjugate-linear involution (b, h) -> (b*, deg(b) h)."""
    ctx = x.ctx
    out = {}
    for cw, c in x.terms.items():
        starred = from_word(ctx, cw.word, c).star()
        slot = word_degree(cw.word, x.labeling) * cw.slot
        accumulate(out, ((CrossedWord(w, slot), sc) for w, sc in starred.terms.items()))
    return CrossedElement(ctx, x.labeling, out)


# -- the skew-product isomorphism on basis elements ------------------------------


def compatible_ex_choice(skew: SkewProduct, base_ctx: LeavittContext) -> dict:
    """The choice on the skew product matching the base choice fiberwise:
    the chosen edge of the cell X x {g} is (e_X, g)."""
    choice = {}
    for (v, g), name in skew.vertex_name.items():
        for i in range(len(skew.base.cells(v))):
            choice[(name, i)] = skew.edge_name[(base_ctx.chosen(v, i), g)]
    return choice


def skew_context(skew: SkewProduct, base_ctx: LeavittContext) -> LeavittContext:
    return LeavittContext(skew.graph, compatible_ex_choice(skew, base_ctx))


def _check_compatible(skew: SkewProduct, skew_ctx: LeavittContext, base_ctx: LeavittContext):
    compatible = compatible_ex_choice(skew, base_ctx)
    for (name, i), chosen in skew_ctx.ex_choice.items():
        expected = compatible[(name, i)]
        if chosen != expected:
            raise AlgebraError(
                "incompatible choice on the skew product: cell "
                f"{i} at {name!r} chooses {chosen!r}, not the fiber copy of the "
                f"base choice {expected!r}"
            )


def phi_map(
    x: AlgebraElement, skew: SkewProduct, base_ctx: LeavittContext
) -> CrossedElement:
    """Carry a skew-product algebra element onto the crossed product.

    A basis word starting at the fiber vertex (v, g) and projecting to the
    base word s goes to (s, (g c(s))^-1); this is a linear bijection of bases
    under the fiberwise-compatible choice (checked here).
    """
    if x.ctx.graph != skew.graph:
        raise AlgebraError("element does not live over the given skew product")
    _check_compatible(skew, x.ctx, base_ctx)
    labeling = skew.labeling

    def crossed_word(word: NormalWord) -> CrossedWord:
        if word.is_vertex:
            v, g = skew.vertex_pair[word.vertex]
            return CrossedWord(NormalWord.of_vertex(v), g.inverse())
        _, g = skew.vertex_pair[skew.graph.source(word.steps[0])]
        steps = tuple(SignedEdge(skew.edge_pair[s.edge][0], s.star) for s in word.steps)
        return CrossedWord(NormalWord.of_steps(steps), (g * labeling.of_word(steps)).inverse())

    terms = accumulate({}, ((crossed_word(w), c) for w, c in x.terms.items()))
    return CrossedElement(base_ctx, labeling, terms)


def phi_inverse_word(
    cw: CrossedWord, skew: SkewProduct, skew_ctx: LeavittContext
) -> NormalWord:
    """The unique skew-product basis word mapping to a crossed word."""
    g = (word_degree(cw.word, skew.labeling) * cw.slot).inverse()
    if cw.word.is_vertex:
        return NormalWord.of_vertex(skew.vertex_name[(cw.word.vertex, g)])
    steps = []
    h = g
    for s in cw.word.steps:
        if s.star:
            h = h * skew.labeling.of(s.edge).inverse()
            steps.append(SignedEdge(skew.edge_name[(s.edge, h)], True))
        else:
            steps.append(SignedEdge(skew.edge_name[(s.edge, h)]))
            h = h * skew.labeling.of(s.edge)
    return NormalWord.of_steps(tuple(steps))


# -- the inverse covariant pair (finite groups only) ------------------------------


@dataclass
class PsiGenerators:
    """Images of the base generators and of the slot indicators inside the
    skew-product algebra: vertex sums over all fibers."""

    vertex_image: dict  # v -> sum_g P_(v,g)
    edge_image: dict  # e -> sum_g S_(e,g)
    chi_image: dict  # GroupElement g -> sum_v P_(v, g^-1)


def psi_on_generators(skew: SkewProduct, skew_ctx: LeavittContext) -> PsiGenerators:
    group = skew.group
    if not group.is_finite:
        raise GroupError(f"slot sums need a finite group, got {group}")
    elements = group.elements()

    def total(make, names):
        return sum_of(skew_ctx, (make(skew_ctx, name) for name in names))

    vertex_image = {
        v: total(vertex_element, (skew.vertex_name[(v, g)] for g in elements))
        for v in skew.base.vertices
    }
    edge_image = {
        e.id: total(edge_element, (skew.edge_name[(e.id, g)] for g in elements))
        for e in skew.base.edges
    }
    chi_image = {
        g: total(vertex_element, (skew.vertex_name[(v, g.inverse())] for v in skew.base.vertices))
        for g in elements
    }
    return PsiGenerators(vertex_image, edge_image, chi_image)


def psi_apply(gens: PsiGenerators, x: CrossedElement, skew_ctx: LeavittContext) -> AlgebraElement:
    """Evaluate the inverse covariant pair on a crossed element."""
    images = []
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
        images.append((value * gens.chi_image[cw.slot]).scale(coeff))
    return sum_of(skew_ctx, images)


def slot_translate(x: CrossedElement, z: GroupElement) -> CrossedElement:
    """The dual translation on slots, (b, h) -> (b, h z^-1)."""
    zinv = z.inverse()
    return CrossedElement(
        x.ctx,
        x.labeling,
        {CrossedWord(cw.word, cw.slot * zinv): c for cw, c in x.terms.items()},
    )


# -- verification -----------------------------------------------------------------


@dataclass
class IsoReport:
    generator_checks: int = 0
    sample_checks: int = 0
    failures: list = field(default_factory=list)

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
    base_ctx: Optional[LeavittContext] = None,
) -> IsoReport:
    """Check the skew-product/crossed-product dictionary exhaustively on
    generators and on random basis pairs.

    (a) mapping a skew generator to the crossed product and back via the slot
    sums is the identity; (b) the word map is multiplicative and star
    preserving on sampled pairs; (c) the translation automorphisms correspond
    to slot translation.
    """
    from .graphs import skew_product
    from .sampling import random_normal_word

    group = labeling.group
    if not group.is_finite:
        raise GroupError(f"verification needs a finite group, got {group}")
    if base_ctx is None:
        base_ctx = LeavittContext(graph)
    skew = skew_product(graph, labeling)
    ctx = skew_context(skew, base_ctx)
    gens = psi_on_generators(skew, ctx)
    report = IsoReport()

    def check_roundtrip(x: AlgebraElement, label: str):
        back = psi_apply(gens, phi_map(x, skew, base_ctx), ctx)
        report.generator_checks += 1
        if back != x:
            report.failures.append(f"psi(phi({label})) != {label}")

    for v in graph.vertices:
        for g in group.elements():
            check_roundtrip(vertex_element(ctx, skew.vertex_name[(v, g)]), f"P_({v},{g})")
    for e in graph.edges:
        for g in group.elements():
            check_roundtrip(edge_element(ctx, skew.edge_name[(e.id, g)]), f"S_({e.id},{g})")

    rng = random.Random(seed)
    translation = translation_action(skew)
    elements = group.elements()
    for _ in range(sample_count):
        w1 = random_normal_word(rng, ctx, max_len=4)
        w2 = random_normal_word(rng, ctx, max_len=4)
        x = from_word(ctx, w1)
        y = from_word(ctx, w2)
        lhs = phi_map(x * y, skew, base_ctx)
        rhs = crossed_mul(phi_map(x, skew, base_ctx), phi_map(y, skew, base_ctx))
        report.sample_checks += 1
        if lhs != rhs:
            report.failures.append(
                f"phi not multiplicative on {w1.literal()} , {w2.literal()}"
            )
        star_lhs = phi_map(x.star(), skew, base_ctx)
        star_rhs = crossed_star(phi_map(x, skew, base_ctx))
        report.sample_checks += 1
        if star_lhs != star_rhs:
            report.failures.append(f"phi not star-preserving on {w1.literal()}")
        z = rng.choice(elements)
        moved = phi_map(induced_automorphism(translation, z, x), skew, base_ctx)
        expected = slot_translate(phi_map(x, skew, base_ctx), z)
        report.sample_checks += 1
        if moved != expected:
            report.failures.append(
                f"translation by {z} does not match slot translation on {w1.literal()}"
            )
    return report

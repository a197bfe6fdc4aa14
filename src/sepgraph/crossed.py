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
from typing import NamedTuple, Optional

from . import scalars
from .algebra import (
    AlgebraElement,
    AlgebraError,
    LeavittContext,
    LinearCombination,
    NormalWord,
    accumulate,
    edge_element,
    from_word,
    induced_automorphism,
    sum_of,
    vertex_element,
    word_degree,
)
from .graphs import GraphError, SignedEdge, SkewProduct, skew_product
from .groups import GroupElement, Labeling, translation_action
from .sampling import random_normal_word

MAX_SAMPLES = 10**5  # about 0.2 ms a sample: 20 s, inside the 30 s budget README states
# the largest group order verify-crossed-iso takes: its fixed part grows about as the
# square of the order, and at 1,000 a run of MAX_SAMPLES samples stays inside the same budget
MAX_GROUP_ORDER = 1000


class CrossedWord(NamedTuple):
    word: NormalWord
    slot: GroupElement

    def literal(self) -> str:
        return f"({self.word.literal()} ; {self.slot})"


class CrossedElement(LinearCombination):
    """A finite linear combination of crossed words over one base context."""

    __slots__ = ("labeling",)

    def __init__(self, ctx: LeavittContext, labeling: Labeling, terms: dict):
        super().__init__(ctx, terms)
        self.labeling = labeling

    def _context_mismatch(self, other) -> Optional[str]:
        if not (
            isinstance(other, CrossedElement)
            and self.ctx.same_context(other.ctx)
            and self.labeling.group == other.labeling.group
        ):
            return "crossed elements live over different contexts"
        if self.labeling is not other.labeling and self.labeling.by_edge != other.labeling.by_edge:
            return "crossed elements carry different labelings"
        return None

    def _like(self, ctx: LeavittContext, terms: dict) -> "CrossedElement":
        return CrossedElement(ctx, self.labeling, terms)


def crossed_mul(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    """The covariance product, bilinear over crossed words."""
    x._require_same_context(y)
    ctx = x.ctx
    labeling = x.labeling
    acc = {}
    for cw1, c1 in x.terms.items():
        for cw2, c2 in y.terms.items():
            if cw1.slot != word_degree(cw2.word, labeling) * cw2.slot:
                continue
            # crossed words hold normal words, so they multiply as they are
            left = AlgebraElement(ctx, {cw1.word: c1 * c2})
            product = left * AlgebraElement(ctx, {cw2.word: scalars.ONE})
            accumulate(acc, ((CrossedWord(w, cw2.slot), c) for w, c in product.terms.items()))
    return CrossedElement(ctx, labeling, acc)


def crossed_star(x: CrossedElement) -> CrossedElement:
    """The conjugate-linear involution (b, h) -> (b*, deg(b) h)."""
    ctx = x.ctx
    out = {}
    for cw, c in x.terms.items():
        starred = AlgebraElement(ctx, {cw.word: c}).star()
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
    under the fiberwise-compatible choice.  That choice is checked once per
    (skew context, base context): a passed check is remembered on the skew
    context for this ``skew`` object, a failed one is not.
    """
    if x.ctx.graph != skew.graph:
        raise AlgebraError("element does not live over the given skew product")
    if x.ctx.compatible_with.get(base_ctx) is not skew:
        _check_compatible(skew, x.ctx, base_ctx)
        x.ctx.compatible_with[base_ctx] = skew
    labeling = skew.labeling
    group = labeling.group
    table = skew.graph.step_table()

    def crossed_word(word: NormalWord) -> CrossedWord:
        if word.is_vertex:
            v, g = skew.vertex_pair[word.vertex]
            return CrossedWord(NormalWord.of_vertex(v), g.inverse())
        _, g = skew.vertex_pair[table[word.steps[0]][0]]
        steps = tuple(SignedEdge(skew.edge_pair[s.edge][0], s.star) for s in word.steps)
        # (g c(s))^-1 on raw values
        slot = group._inv(group._mul(g.value, labeling.of_word(steps).value))
        return CrossedWord(NormalWord.of_steps(steps), GroupElement(group, slot))

    return CrossedElement(base_ctx, labeling, {crossed_word(w): c for w, c in x.terms.items()})


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
    g = word_degree(cw.word, skew.labeling) * cw.slot
    return skew_path(skew, cw.word, g.inverse())


# -- the inverse covariant pair (finite groups only) ------------------------------


class PsiGenerators(NamedTuple):
    """Images of the base generators and of the slot indicators inside the
    skew-product algebra: vertex sums over all fibers."""

    vertex_image: dict  # v -> sum_g P_(v,g)
    edge_image: dict  # e -> sum_g S_(e,g)
    chi_image: dict  # GroupElement g -> sum_v P_(v, g^-1)


def psi_on_generators(skew: SkewProduct, skew_ctx: LeavittContext) -> PsiGenerators:
    elements = skew.group.elements()

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
    return x._like(x.ctx, {CrossedWord(cw.word, cw.slot * zinv): c for cw, c in x.terms.items()})


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
        for g in elements:
            check_roundtrip(vertex_element(ctx, skew.vertex_name[(v, g)]), f"P_({v},{g})")
    for e in graph.edges:
        for g in elements:
            check_roundtrip(edge_element(ctx, skew.edge_name[(e.id, g)]), f"S_({e.id},{g})")

    rng = random.Random(seed)
    translation = translation_action(skew).morphisms()
    for _ in range(sample_count):
        w1 = random_normal_word(rng, ctx, max_len=4)
        w2 = random_normal_word(rng, ctx, max_len=4)
        x = from_word(ctx, w1)
        y = from_word(ctx, w2)
        phi_x = phi_map(x, skew, base_ctx)  # shared by all three identities
        lhs = phi_map(x * y, skew, base_ctx)
        rhs = crossed_mul(phi_x, phi_map(y, skew, base_ctx))
        report.sample_checks += 1
        if lhs != rhs:
            report.failures.append(
                f"phi not multiplicative on {w1.literal()} , {w2.literal()}"
            )
        star_lhs = phi_map(x.star(), skew, base_ctx)
        star_rhs = crossed_star(phi_x)
        report.sample_checks += 1
        if star_lhs != star_rhs:
            report.failures.append(f"phi not star-preserving on {w1.literal()}")
        z = rng.choice(elements)
        moved = phi_map(induced_automorphism(translation[z], x), skew, base_ctx)
        expected = slot_translate(phi_x, z)
        report.sample_checks += 1
        if moved != expected:
            report.failures.append(
                f"translation by {z} does not match slot translation on {w1.literal()}"
            )
    return report

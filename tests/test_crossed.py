import operator
import random

import pytest

from sepgraph import algebra, scalars
from sepgraph.algebra import (
    AlgebraElement,
    AlgebraError,
    LeavittContext,
    NormalWord,
    edge_element,
    from_word,
    sum_of,
    vertex_element,
)
from sepgraph.crossed import (
    CrossedContext,
    CrossedElement,
    CrossedWord,
    SkewContext,
    crossed_mul,
    crossed_star,
    phi_inverse_word,
    phi_map,
    psi_apply,
    psi_on_generators,
    slot_translate,
    verify_iso,
)
from sepgraph.graphs import SeparatedGraph, SignedEdge, skew_product
from sepgraph.groups import (
    CyclicGroup,
    GraphAction,
    Group,
    GroupElement,
    GroupError,
    IntegerGroup,
    Labeling,
    ProductGroup,
    bouquet_graph,
)
from sepgraph.sampling import random_normal_word

from nonabelian import S3

Z2 = CyclicGroup(2)
Z3 = CyclicGroup(3)

LOOP = SeparatedGraph(["v"], [("a", "v", "v")], {"v": [["a"]]})
FOUR = SeparatedGraph(
    ["v"],
    [("x1", "v", "v"), ("x2", "v", "v"), ("y1", "v", "v"), ("y2", "v", "v")],
    {"v": [["x1", "x2"], ["y1", "y2"]]},
)
FIG5 = SeparatedGraph(
    ["v", "w1", "w2", "w3"],
    [("al1", "v", "w1"), ("al2", "v", "w2"), ("be1", "v", "w1"), ("be2", "v", "w3")],
    {"v": [["al1", "al2"], ["be1", "be2"]]},
)


def crossed_element(
    ctx: LeavittContext, labeling: Labeling, word: NormalWord, slot: GroupElement
) -> CrossedElement:
    return CrossedElement(CrossedContext(ctx, labeling), {CrossedWord(word, slot): scalars.ONE})


def loop_setup(n=2):
    group = CyclicGroup(n)
    labeling = Labeling(group, {"a": group.element(1)})
    ctx = LeavittContext(LOOP)
    skew = skew_product(LOOP, labeling)
    return group, labeling, ctx, skew


def vert(ctx, v, h, labeling):
    return crossed_element(ctx, labeling, NormalWord.of_vertex(v), h)


# -- the covariance product -------------------------------------------------------


def test_vertex_slots_multiply_by_delta():
    group, labeling, ctx, _ = loop_setup()
    h0, h1 = group.element(0), group.element(1)
    p0 = vert(ctx, "v", h0, labeling)
    p1 = vert(ctx, "v", h1, labeling)
    assert crossed_mul(p0, p0) == p0
    assert crossed_mul(p0, p1).is_zero


def test_vertex_word_absorbs_matching_slot():
    group, labeling, ctx, _ = loop_setup()
    h = group.element(1)
    s = crossed_element(ctx, labeling, NormalWord.of_steps((SignedEdge("a"),)), h)
    p = vert(ctx, "v", h, labeling)
    assert crossed_mul(s, p) == s


def test_slot_mismatch_kills_products():
    group, labeling, ctx, _ = loop_setup(3)
    word = NormalWord.of_steps((SignedEdge("a"),))  # degree 1
    x = crossed_element(ctx, labeling, word, group.element(0))
    y = crossed_element(ctx, labeling, word, group.element(2))
    # x.y needs slot(x) == deg(y) * slot(y) = 1 + 2 = 0: matches
    assert not crossed_mul(x, y).is_zero
    y_bad = crossed_element(ctx, labeling, word, group.element(1))
    assert crossed_mul(x, y_bad).is_zero


def test_crossed_basis_words_are_not_rewritten_again(monkeypatch):
    group, labeling, ctx, _ = loop_setup(3)
    fold = algebra._fold
    calls = []

    def counting(*args):
        calls.append(args[1])
        return fold(*args)

    monkeypatch.setattr(algebra, "_fold", counting)
    word = NormalWord.of_steps((SignedEdge("a"),))  # degree 1
    x = crossed_element(ctx, labeling, word, group.element(0))
    y = crossed_element(ctx, labeling, word, group.element(2))
    product = crossed_mul(x, y)  # slots match: 0 == 1 + 2
    assert calls == []  # a a has a normal junction, so nothing is folded
    calls.clear()
    starred = crossed_star(x)
    assert calls == []
    two = NormalWord.of_steps((SignedEdge("a"), SignedEdge("a")))
    assert product == crossed_element(ctx, labeling, two, group.element(2))
    assert starred == crossed_element(ctx, labeling, word.adjoint(), group.element(1))


def test_adding_crossed_elements_with_different_labelings_is_rejected():
    group, labeling, ctx, _ = loop_setup()
    other = Labeling(group, {"a": group.element(0)})
    x = vert(ctx, "v", group.element(0), labeling)
    y = vert(ctx, "v", group.element(0), other)
    assert x + x == CrossedElement(x.ctx, {cw: 2 * c for cw, c in x.terms.items()})
    with pytest.raises(AlgebraError, match="different contexts"):
        x + y


def test_crossed_elements_with_different_labelings_are_unequal():
    graph = SeparatedGraph(["v"], [("a", "v", "v"), ("b", "v", "v")], {"v": [["a"], ["b"]]})
    ctx = LeavittContext(graph)
    one, zero = Z2.element(1), Z2.element(0)
    first = Labeling(Z2, {"a": one, "b": zero})
    second = Labeling(Z2, {"a": zero, "b": one})
    x = vert(ctx, "v", zero, first)
    assert x != vert(ctx, "v", zero, second)
    assert x == vert(ctx, "v", zero, Labeling(Z2, dict(first.by_edge)))


def _other_side(variant):
    """(ctx, labeling, other ctx, other labeling) for one way two elements differ."""
    ctx = LeavittContext(FOUR)
    labeling = Labeling(Z2, {e.id: Z2.element(1) for e in FOUR.edges})
    other_ctx, other_labeling = ctx, labeling
    if variant == "equal":  # equal but distinct context and labeling
        other_ctx, other_labeling = LeavittContext(FOUR), Labeling(Z2, dict(labeling.by_edge))
    elif variant == "by_edge":
        other_labeling = Labeling(Z2, {**labeling.by_edge, "y2": Z2.element(0)})
    elif variant == "group":
        other_labeling = Labeling(Z3, {eid: Z3.element(1) for eid in labeling.by_edge})
    elif variant == "choice":
        other_ctx = LeavittContext(FOUR, {("v", 0): "x2"})
    elif variant == "graph":
        other_ctx = LeavittContext(LOOP)
    return ctx, labeling, other_ctx, other_labeling


@pytest.mark.parametrize(
    "kind,variant,accepted",
    [
        ("algebra", "same", True),
        ("algebra", "equal", True),
        ("algebra", "by_edge", True),
        ("algebra", "group", True),
        ("algebra", "choice", False),
        ("algebra", "graph", False),
        ("crossed", "same", True),
        ("crossed", "equal", True),
        ("crossed", "by_edge", False),
        ("crossed", "group", False),
        ("crossed", "choice", False),
        ("crossed", "graph", False),
        ("mixed", "same", False),
    ],
)
def test_eq_add_sum_and_products_accept_the_same_pairs(kind, variant, accepted):
    ctx, labeling, other_ctx, other_labeling = _other_side(variant)
    word = NormalWord.of_steps((SignedEdge("x1"),))
    x = crossed_element(ctx, labeling, word, Z2.element(1))
    y = CrossedElement(CrossedContext(other_ctx, other_labeling), dict(x.terms))  # the same terms
    if kind != "crossed":
        x = edge_element(ctx, "x1")
        if kind == "algebra":
            y = AlgebraElement(other_ctx, dict(x.terms))
    assert (x == y) is accepted and (y == x) is accepted

    def product(a, b):
        return a * b if isinstance(a, AlgebraElement) else crossed_mul(a, b)

    for op in (operator.add, lambda a, b: sum_of(a.ctx, (a, b)), product):
        for a, b in ((x, y), (y, x)):
            if accepted:
                op(a, b)
            else:
                with pytest.raises(AlgebraError, match="different"):
                    op(a, b)


def test_crossed_elements_share_the_linear_operations():
    group, labeling, ctx, _ = loop_setup(3)
    word = NormalWord.of_steps((SignedEdge("a"),))
    x = crossed_element(ctx, labeling, word, group.element(1))
    y = crossed_element(ctx, labeling, word, group.element(2))
    assert (x + y - x) == y and (-x + x).is_zero
    assert x.scale(2) == x + x
    assert repr(y + x) == "<1 * (a ; 1) + 1 * (a ; 2)>"
    assert repr(x - x) == "<0>"


def test_crossed_elements_over_an_infinite_group_never_enumerate_it(monkeypatch):
    # only psi's slot sums need a finite group: products, the involution, sums
    # and equality read the slots term by term
    def refuse(self):
        raise AssertionError("elements called")

    monkeypatch.setattr(Group, "elements", refuse)
    group = IntegerGroup()
    labeling = Labeling(group, {"a": group.element(1)})
    ctx = LeavittContext(LOOP)
    a, aa = NormalWord.of_steps((SignedEdge("a"),)), NormalWord.of_steps((SignedEdge("a"),) * 2)
    x = crossed_element(ctx, labeling, a, group.element(5))
    y = crossed_element(ctx, labeling, a, group.element(4))
    # x.y needs slot(x) == deg(a) + slot(y) = 1 + 4; y.x would need 4 == 1 + 5
    assert crossed_mul(x, y) == crossed_element(ctx, labeling, aa, group.element(4))
    assert crossed_mul(y, x).is_zero
    assert crossed_star(x) == crossed_element(ctx, labeling, a.adjoint(), group.element(6))
    assert crossed_star(crossed_star(x)) == x
    assert (x + y) - y == x and x + y != x


def test_crossed_words_are_values():
    group, _, _, _ = loop_setup()
    word = NormalWord.of_steps((SignedEdge("a"),))
    cw = CrossedWord(NormalWord.of_steps((SignedEdge("a"),)), group.element(1))
    assert cw == CrossedWord(word, CyclicGroup(2).element(3))
    assert hash(cw) == hash(CrossedWord(word, CyclicGroup(2).element(3)))
    assert cw != CrossedWord(word, CyclicGroup(4).element(1))


def test_crossed_mul_is_associative_on_samples():
    group, labeling, ctx, skew = loop_setup(3)
    rng = random.Random(3)
    elements = group.elements()
    for _ in range(30):
        words = [random_normal_word(rng, ctx, max_len=3) for _ in range(3)]
        xs = [
            crossed_element(ctx, labeling, w, rng.choice(elements)) for w in words
        ]
        assert crossed_mul(crossed_mul(xs[0], xs[1]), xs[2]) == crossed_mul(
            xs[0], crossed_mul(xs[1], xs[2])
        )


# -- the involution ------------------------------------------------------------------


def test_vertex_words_are_self_adjoint():
    group, labeling, ctx, _ = loop_setup()
    p = vert(ctx, "v", group.element(1), labeling)
    assert crossed_star(p) == p


def test_star_is_an_involution():
    group, labeling, ctx, _ = loop_setup(3)
    s = crossed_element(ctx, labeling, NormalWord.of_steps((SignedEdge("a"),)), group.element(2))
    assert crossed_star(crossed_star(s)) == s


def test_star_is_an_antihomomorphism_on_samples():
    group, labeling, ctx, _ = loop_setup(3)
    rng = random.Random(5)
    elements = group.elements()
    for _ in range(30):
        x = crossed_element(
            ctx, labeling, random_normal_word(rng, ctx, max_len=3), rng.choice(elements)
        )
        y = crossed_element(
            ctx, labeling, random_normal_word(rng, ctx, max_len=3), rng.choice(elements)
        )
        assert crossed_star(crossed_mul(x, y)) == crossed_mul(
            crossed_star(y), crossed_star(x)
        )


# -- the word map ---------------------------------------------------------------------


def test_phi_on_vertex_generators():
    group, labeling, ctx, skew = loop_setup()
    sctx = SkewContext(skew, ctx)
    for g in group.elements():
        x = vertex_element(sctx, skew.vertex_name[("v", g)])
        assert phi_map(x) == vert(ctx, "v", g.inverse(), labeling)


def test_phi_on_edge_generators():
    group, labeling, ctx, skew = loop_setup(3)
    sctx = SkewContext(skew, ctx)
    for g in group.elements():
        x = edge_element(sctx, skew.edge_name[("a", g)])
        expected = crossed_element(
            ctx,
            labeling,
            NormalWord.of_steps((SignedEdge("a"),)),
            (g * labeling.of("a")).inverse(),
        )
        assert phi_map(x) == expected


def test_phi_with_trivial_group_reindexes():
    group = CyclicGroup(1)
    labeling = Labeling(group, {"a": group.identity()})
    ctx = LeavittContext(LOOP)
    skew = skew_product(LOOP, labeling)
    sctx = SkewContext(skew, ctx)
    ident = group.identity()
    x = edge_element(sctx, skew.edge_name[("a", ident)])
    image = phi_map(x)
    assert image == crossed_element(
        ctx, labeling, NormalWord.of_steps((SignedEdge("a"),)), ident
    )


def test_phi_is_a_bijection_of_basis_words():
    group = Z3
    labeling = Labeling(group, {e.id: group.element(i) for i, e in enumerate(FOUR.edges)})
    ctx = LeavittContext(FOUR)
    skew = skew_product(FOUR, labeling)
    sctx = SkewContext(skew, ctx)
    rng = random.Random(7)
    for _ in range(50):
        word = random_normal_word(rng, sctx, max_len=4)
        image = phi_map(from_word(sctx, word))
        (crossed_word,) = image.terms
        assert phi_inverse_word(crossed_word, skew) == word


def four_z3_off_default():
    """FOUR x Z/3 under the base choice x2, y2, which is not the default x1, y1."""
    labeling = Labeling(Z3, {e.id: Z3.element(i) for i, e in enumerate(FOUR.edges)})
    base_ctx = LeavittContext(FOUR, {("v", 0): "x2", ("v", 1): "y2"})
    skew = skew_product(FOUR, labeling)
    return labeling, base_ctx, skew, SkewContext(skew, base_ctx)


def test_phi_needs_a_skew_context():
    labeling, base_ctx, skew, sctx = four_z3_off_default()
    for g in Z3.elements():  # the chosen edge of the cell X x {g} is (e_X, g)
        for i in range(len(FOUR.cells("v"))):
            chosen = sctx.chosen(skew.vertex_name[("v", g)], i)
            assert skew.edge_pair[chosen] == (base_ctx.chosen("v", i), g)
    name = skew.vertex_name[("v", Z3.identity())]
    plain = LeavittContext(skew.graph, sctx.ex_choice)
    flipped = dict(sctx.ex_choice)
    flipped[(name, 0)] = skew.edge_name[("x1", Z3.identity())]
    assert plain.ex_choice == sctx.ex_choice and flipped != sctx.ex_choice
    for x in (
        vertex_element(plain, name),
        vertex_element(LeavittContext(skew.graph, flipped), name),
        vertex_element(base_ctx, "v"),
    ):
        with pytest.raises(AlgebraError, match="phi_map needs an element over a SkewContext"):
            phi_map(x)
    assert phi_map(vertex_element(sctx, name)) == vert(base_ctx, "v", Z3.identity(), labeling)


def test_a_skew_context_and_a_plain_one_never_mix():
    # the same graph and choice, so only the context's type tells them apart:
    # sums, products and equality refuse the pair in either order
    graph = bouquet_graph(2)
    skew = skew_product(graph, Labeling(Z2, {"a1": Z2.element(1), "a2": Z2.element(0)}))
    sctx = SkewContext(skew, LeavittContext(graph))
    plain = LeavittContext(skew.graph, sctx.ex_choice)
    assert not sctx.same_context(plain) and not plain.same_context(sctx)
    skew_side, plain_side = vertex_element(sctx, "v@0"), vertex_element(plain, "v@0")
    for a, b in ((skew_side, plain_side), (plain_side, skew_side)):
        assert a != b
        for op in (operator.add, operator.mul, lambda p, q: sum_of(p.ctx, (p, q))):
            with pytest.raises(AlgebraError, match="different"):
                op(a, b)
    assert phi_map(skew_side + vertex_element(sctx, "v@1")) == vert(
        sctx.base, "v", Z2.element(0), skew.labeling
    ) + vert(sctx.base, "v", Z2.element(1), skew.labeling)


def test_skew_context_refuses_a_base_context_over_another_graph():
    # same vertex and edge ids, but the edges run v -> w: phi of x * x over it
    # would disagree with the crossed product of phi(x) with itself
    loops = SeparatedGraph(["v"], [("e1", "v", "v"), ("e2", "v", "v")], {"v": [["e1", "e2"]]})
    other = SeparatedGraph(
        ["v", "w"], [("e1", "v", "w"), ("e2", "v", "w")], {"v": [["e1", "e2"]], "w": []}
    )
    skew = skew_product(loops, Labeling(Z2, {"e1": Z2.element(1), "e2": Z2.element(0)}))
    with pytest.raises(AlgebraError, match="base context does not live over"):
        SkewContext(skew, LeavittContext(other))


def test_dictionary_over_a_non_default_base_choice():
    _, _, _, sctx = four_z3_off_default()
    rng = random.Random(17)
    for _ in range(200):
        x = from_word(sctx, random_normal_word(rng, sctx, max_len=4))
        y = from_word(sctx, random_normal_word(rng, sctx, max_len=4))
        phi_x = phi_map(x)
        assert phi_map(x * y) == crossed_mul(phi_x, phi_map(y))
        assert phi_map(x.star()) == crossed_star(phi_x)


def normal_words(ctx: LeavittContext, max_len: int) -> list:
    """Every normal word of at most ``max_len`` letters, vertex words included."""
    graph = ctx.graph
    words = [NormalWord.of_vertex(v) for v in graph.vertices]
    layer = [(s,) for v in graph.vertices for s in graph.moves(v)]
    for _ in range(max_len):
        words += map(NormalWord.of_steps, layer)
        layer = [
            w + (s,)
            for w in layer
            for s in graph.moves(graph.range(w[-1]))
            if not algebra.forbidden_pair(ctx, w[-1], s)
        ]
    return words


def phi_oracle(skew, word: NormalWord) -> CrossedWord:
    """phi on one basis word by the map's definition: the base word s and the slot
    (g c(s))^-1, with g the fiber the word starts in and c(s) its label."""
    if word.is_vertex:
        v, g = skew.vertex_pair[word.vertex]
        return CrossedWord(NormalWord.of_vertex(v), g.inverse())
    _, g = skew.vertex_pair[skew.graph.source(word.steps[0])]
    steps = tuple(SignedEdge(skew.edge_pair[s.edge][0], s.star) for s in word.steps)
    return CrossedWord(NormalWord.of_steps(steps), (g * skew.labeling.of_word(steps)).inverse())


def fig5_s3():
    group = S3()
    t, r = group.generating_set()
    return FIG5, Labeling(group, {"al1": t, "al2": r, "be1": r, "be2": t})


def four_z3():
    return FOUR, Labeling(Z3, {e.id: Z3.element(i) for i, e in enumerate(FOUR.edges, start=1)})


@pytest.mark.parametrize("case", [fig5_s3, four_z3], ids=["fig5-s3", "four-z3"])
def test_phi_reads_the_slot_at_the_end_fiber(case):
    graph, labeling = case()
    skew = skew_product(graph, labeling)
    sctx = SkewContext(skew, LeavittContext(graph))
    words = normal_words(sctx, 3)
    assert sum(not w.is_vertex and any(s.star for s in w.steps) for w in words) > 0
    two = scalars.GaussianRational.of(2)
    for word in words:
        image = phi_map(from_word(sctx, word, two))
        assert image.terms == {phi_oracle(skew, word): two}, word.literal()


# -- the inverse pair -------------------------------------------------------------------


def test_psi_images_for_the_trivial_group():
    group = CyclicGroup(1)
    labeling = Labeling(group, {"a": group.identity()})
    ctx = LeavittContext(LOOP)
    skew = skew_product(LOOP, labeling)
    sctx = SkewContext(skew, ctx)
    gens = psi_on_generators(sctx)
    ident = group.identity()
    assert gens.edge_image["a"] == edge_element(sctx, skew.edge_name[("a", ident)])


def test_psi_vertex_image_sums_fibers():
    group, labeling, ctx, skew = loop_setup()
    sctx = SkewContext(skew, ctx)
    gens = psi_on_generators(sctx)
    expected = vertex_element(sctx, "v@0") + vertex_element(sctx, "v@1")
    assert gens.vertex_image["v"] == expected


def test_psi_slot_indicators_are_orthogonal():
    group, labeling, ctx, skew = loop_setup()
    sctx = SkewContext(skew, ctx)
    gens = psi_on_generators(sctx)
    h0, h1 = group.elements()
    assert (gens.chi_image[h0] * gens.chi_image[h1]).is_zero
    assert gens.chi_image[h0] * gens.chi_image[h0] == gens.chi_image[h0]


def test_psi_needs_a_finite_group():
    group = IntegerGroup()
    labeling = Labeling(group, {"a": group.element(1)})
    with pytest.raises(GroupError, match="finite"):
        verify_iso(LOOP, labeling, sample_count=1, seed=0)


def test_psi_inverts_phi_on_generators():
    group, labeling, ctx, skew = loop_setup(3)
    sctx = SkewContext(skew, ctx)
    gens = psi_on_generators(sctx)
    for g in group.elements():
        for build, name in (
            (vertex_element, skew.vertex_name[("v", g)]),
            (edge_element, skew.edge_name[("a", g)]),
        ):
            x = build(sctx, name)
            assert psi_apply(gens, phi_map(x), sctx) == x


def test_psi_inverts_phi_on_starred_edges():
    # psi_apply's star branch: every S_(e,g)* of the Fig.-5 graph x Z/3 comes back
    labels = {"al1": 1, "al2": 0, "be1": 1, "be2": 2}
    labeling = Labeling(Z3, {eid: Z3.element(k) for eid, k in labels.items()})
    ctx = LeavittContext(FIG5)
    skew = skew_product(FIG5, labeling)
    sctx = SkewContext(skew, ctx)
    gens = psi_on_generators(sctx)
    starred = [edge_element(sctx, name, star=True) for name in skew.edge_pair]
    assert len(starred) == 12
    assert all(psi_apply(gens, phi_map(x), sctx) == x for x in starred)


# -- results built without the constructor's filter ------------------------------------


def random_coefficient(rng):
    return rng.choice(
        [scalars.ONE, -scalars.ONE, scalars.GaussianRational.of(2), scalars.GaussianRational.of(0, 1)]
    )


def reference_mul(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    """The covariance product term pair by term pair, through the public constructors."""
    base, labeling = x.ctx
    out = CrossedElement(x.ctx, {})
    for cw1, c1 in x.terms.items():
        for cw2, c2 in y.terms.items():
            if cw1.slot == labeling.of_word(cw2.word.steps) * cw2.slot:
                product = AlgebraElement(base, {cw1.word: c1}) * AlgebraElement(base, {cw2.word: c2})
                terms = {CrossedWord(w, cw2.slot): c for w, c in product.terms.items()}
                out = out + CrossedElement(x.ctx, terms)
    return out


def reference_star(x: CrossedElement) -> CrossedElement:
    base, labeling = x.ctx
    out = CrossedElement(x.ctx, {})
    for cw, c in x.terms.items():
        slot = labeling.of_word(cw.word.steps) * cw.slot
        starred = AlgebraElement(base, {cw.word: c}).star().terms
        out = out + CrossedElement(x.ctx, {CrossedWord(w, slot): sc for w, sc in starred.items()})
    return out


def reference_psi(gens, x: CrossedElement, sctx: SkewContext) -> AlgebraElement:
    images = []
    for cw, coeff in x.terms.items():
        value = gens.vertex_image[cw.word.vertex] if cw.word.is_vertex else None
        for s in cw.word.steps:
            factor = gens.edge_image[s.edge].star() if s.star else gens.edge_image[s.edge]
            value = factor if value is None else value * factor
        images.append((value * gens.chi_image[cw.slot]).scale(coeff))
    return sum_of(sctx, images)


def test_owned_results_match_the_public_constructors():
    labeling, base_ctx, skew, sctx = four_z3_off_default()
    gens = psi_on_generators(sctx)
    # each image is the sum of its generators, built one by one
    elements = Z3.elements()
    for v in FOUR.vertices:
        names = [skew.vertex_name[(v, g)] for g in elements]
        assert gens.vertex_image[v] == sum_of(sctx, [vertex_element(sctx, name) for name in names])
    for e in FOUR.edges:
        names = [skew.edge_name[(e.id, g)] for g in elements]
        assert gens.edge_image[e.id] == sum_of(sctx, [edge_element(sctx, name) for name in names])
    for g in elements:
        names = [skew.vertex_name[(v, g.inverse())] for v in FOUR.vertices]
        assert gens.chi_image[g] == sum_of(sctx, [vertex_element(sctx, name) for name in names])
    rng = random.Random(29)
    # equal to phi's context sctx.crossed, but a distinct object
    crossed_ctx = CrossedContext(base_ctx, labeling)
    assert crossed_ctx is not sctx.crossed

    def crossed_sum(count):
        return sum_of(crossed_ctx, [
            CrossedElement(crossed_ctx, {
                CrossedWord(random_normal_word(rng, base_ctx, max_len=3), rng.choice(elements)):
                random_coefficient(rng)
            })
            for _ in range(count)
        ])

    for _ in range(150):
        x = sum_of(sctx, [
            from_word(sctx, random_normal_word(rng, sctx, max_len=4), random_coefficient(rng))
            for _ in range(rng.randint(1, 4))
        ])
        crossed = [crossed_sum(rng.randint(1, 4)) for _ in range(2)]
        phi_x = phi_map(x)
        reference = sum_of(crossed_ctx, [
            CrossedElement(crossed_ctx, {phi_oracle(skew, w): c}) for w, c in x.terms.items()
        ])
        for result, expected in (
            (phi_x, reference),
            (crossed_mul(*crossed), reference_mul(*crossed)),
            (crossed_star(crossed[0]), reference_star(crossed[0])),
            (psi_apply(gens, crossed[0], sctx), reference_psi(gens, crossed[0], sctx)),
        ):
            assert all(result.terms.values()), result
            assert result == expected
        assert psi_apply(gens, phi_x, sctx) == x


def test_crossed_mul_of_cancelling_term_pairs_is_empty():
    # (a, 1)(a, 0) = (a a, 0) and (a a, 0)(@v, 0) = (a a, 0) cancel; the two
    # other pairs fail the slot condition
    group, labeling, ctx, _ = loop_setup(3)
    a, aa = NormalWord.of_steps((SignedEdge("a"),)), NormalWord.of_steps((SignedEdge("a"),) * 2)
    zero, one = group.element(0), group.element(1)
    x = crossed_element(ctx, labeling, a, one) - crossed_element(ctx, labeling, aa, zero)
    right = [crossed_element(ctx, labeling, a, zero), vert(ctx, "v", zero, labeling)]
    assert all(not crossed_mul(x, r).is_zero for r in right)
    assert crossed_mul(x, right[0] + right[1]).terms == {}


# -- slot translation ---------------------------------------------------------------------


def test_slot_translation_matches_the_graph_translation():
    group, labeling, ctx, skew = loop_setup(3)
    sctx = SkewContext(skew, ctx)
    from sepgraph.algebra import induced_automorphism
    from sepgraph.groups import translation_action

    morphisms = translation_action(skew).morphisms()
    rng = random.Random(11)
    for _ in range(20):
        word = random_normal_word(rng, sctx, max_len=3)
        x = from_word(sctx, word)
        z = rng.choice(group.elements())
        lhs = phi_map(induced_automorphism(morphisms[z], x))
        rhs = slot_translate(phi_map(x), z)
        assert lhs == rhs


def test_phi_pushes_the_free_label_forward():
    # the free label of a skew basis word maps onto the free label of its
    # projection under the generator renaming (e, g) -> e
    group = Z3
    labeling = Labeling(group, {e.id: group.element(i) for i, e in enumerate(FOUR.edges)})
    ctx = LeavittContext(FOUR)
    skew = skew_product(FOUR, labeling)
    sctx = SkewContext(skew, ctx)
    from sepgraph.groups import free_labeling

    skew_free = free_labeling(skew.graph)
    base_free = free_labeling(FOUR)
    rng = random.Random(13)
    for _ in range(30):
        word = random_normal_word(rng, sctx, max_len=4)
        image = phi_map(from_word(sctx, word))
        (crossed_word,) = image.terms
        lifted = skew_free.of_word(word.steps)
        projected = base_free.group.element(
            [(skew.edge_pair[gen][0], sign) for gen, sign in lifted.value]
        )
        assert projected == base_free.of_word(crossed_word.word.steps)


# -- full verification ----------------------------------------------------------------------


def test_verify_iso_trivial_group():
    group = CyclicGroup(1)
    labeling = Labeling(group, {"a": group.identity()})
    report = verify_iso(LOOP, labeling, sample_count=20, seed=1)
    assert report.ok


def test_verify_iso_rejects_a_negative_sample_count():
    labeling = Labeling(Z2, {"a": Z2.element(1)})
    with pytest.raises(ValueError, match="at least 0"):
        verify_iso(LOOP, labeling, sample_count=-1)
    assert verify_iso(LOOP, labeling, sample_count=0).sample_checks == 0


def test_no_samples_build_no_translation_morphisms(monkeypatch):
    def refuse(self):
        raise AssertionError("morphisms called")

    monkeypatch.setattr(GraphAction, "morphisms", refuse)
    z6 = CyclicGroup(6)
    labels = {"al1": 1, "al2": 0, "be1": 1, "be2": 5}
    labeling = Labeling(z6, {eid: z6.element(k) for eid, k in labels.items()})
    report = verify_iso(FIG5, labeling, sample_count=0, seed=1)
    assert report.ok and (report.generator_checks, report.sample_checks) == (48, 0)
    with pytest.raises(AssertionError, match="morphisms called"):
        verify_iso(FIG5, labeling, sample_count=1, seed=1)


def test_verify_iso_loop_z2():
    labeling = Labeling(Z2, {"a": Z2.element(1)})
    report = verify_iso(LOOP, labeling, sample_count=50, seed=2)
    assert report.ok
    assert report.generator_checks == 4


def test_verify_iso_two_cell_graph_z3():
    labeling = Labeling(Z3, {e.id: Z3.element(i) for i, e in enumerate(FOUR.edges, start=1)})
    report = verify_iso(FOUR, labeling, sample_count=200, seed=3)
    assert report.ok


def test_verify_iso_two_separated_loops_z3():
    graph = SeparatedGraph(
        ["v"], [("a", "v", "v"), ("b", "v", "v")], {"v": [["a"], ["b"]]}
    )
    labeling = Labeling(Z3, {"a": Z3.element(1), "b": Z3.element(2)})
    report = verify_iso(graph, labeling, sample_count=200, seed=5)
    assert report.ok


@pytest.mark.parametrize(
    "group",
    [CyclicGroup(4), CyclicGroup(6), ProductGroup((CyclicGroup(2), CyclicGroup(2))), S3()],
    ids=["z4", "z6", "z2xz2", "s3"],
)
def test_generator_roundtrip_for_groups_up_to_order_six(group):
    labeling = Labeling(group, {"a": group.elements()[1]})
    report = verify_iso(LOOP, labeling, sample_count=10, seed=4)
    assert report.ok


@pytest.mark.parametrize("seed", [6, 7])
def test_verify_iso_with_nonabelian_labels(seed):
    """Two loops labelled by S3's generators, which do not commute, so a slot
    or degree taken in the wrong order breaks an identity."""
    group = S3()
    t, r = group.generating_set()
    for graph, labels in [
        (SeparatedGraph(["v"], [("a", "v", "v"), ("b", "v", "v")], {"v": [["a"], ["b"]]}),
         {"a": t, "b": r}),
        (FOUR, dict(zip((e.id for e in FOUR.edges), [t, r, r * t, t]))),
    ]:
        report = verify_iso(graph, Labeling(group, labels), sample_count=40, seed=seed)
        assert report.ok, report.summary()

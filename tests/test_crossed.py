import operator
import random

import pytest

from sepgraph import algebra, crossed, scalars
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
    CrossedElement,
    CrossedWord,
    compatible_ex_choice,
    crossed_mul,
    crossed_star,
    phi_inverse_word,
    phi_map,
    psi_apply,
    psi_on_generators,
    skew_context,
    slot_translate,
    verify_iso,
)
from sepgraph.graphs import SeparatedGraph, SignedEdge, skew_product
from sepgraph.groups import CyclicGroup, GroupElement, GroupError, Labeling, ProductGroup
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


def crossed_element(
    ctx: LeavittContext, labeling: Labeling, word: NormalWord, slot: GroupElement
) -> CrossedElement:
    return CrossedElement(ctx, labeling, {CrossedWord(word, slot): scalars.ONE})


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
    assert x + x == CrossedElement(ctx, labeling, {cw: 2 * c for cw, c in x.terms.items()})
    with pytest.raises(AlgebraError, match="different labelings"):
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
    y = CrossedElement(other_ctx, other_labeling, dict(x.terms))  # the same terms
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
    sctx = skew_context(skew, ctx)
    for g in group.elements():
        x = vertex_element(sctx, skew.vertex_name[("v", g)])
        assert phi_map(x, skew, ctx) == vert(ctx, "v", g.inverse(), labeling)


def test_phi_on_edge_generators():
    group, labeling, ctx, skew = loop_setup(3)
    sctx = skew_context(skew, ctx)
    for g in group.elements():
        x = edge_element(sctx, skew.edge_name[("a", g)])
        expected = crossed_element(
            ctx,
            labeling,
            NormalWord.of_steps((SignedEdge("a"),)),
            (g * labeling.of("a")).inverse(),
        )
        assert phi_map(x, skew, ctx) == expected


def test_phi_with_trivial_group_reindexes():
    group = CyclicGroup(1)
    labeling = Labeling(group, {"a": group.identity()})
    ctx = LeavittContext(LOOP)
    skew = skew_product(LOOP, labeling)
    sctx = skew_context(skew, ctx)
    ident = group.identity()
    x = edge_element(sctx, skew.edge_name[("a", ident)])
    image = phi_map(x, skew, ctx)
    assert image == crossed_element(
        ctx, labeling, NormalWord.of_steps((SignedEdge("a"),)), ident
    )


def test_phi_is_a_bijection_of_basis_words():
    group = Z3
    labeling = Labeling(group, {e.id: group.element(i) for i, e in enumerate(FOUR.edges)})
    ctx = LeavittContext(FOUR)
    skew = skew_product(FOUR, labeling)
    sctx = skew_context(skew, ctx)
    rng = random.Random(7)
    for _ in range(50):
        word = random_normal_word(rng, sctx, max_len=4)
        image = phi_map(from_word(sctx, word), skew, ctx)
        (crossed_word,) = image.terms
        assert phi_inverse_word(crossed_word, skew) == word


def test_phi_requires_the_compatible_choice():
    group, labeling, ctx, _ = loop_setup()
    graph = SeparatedGraph(
        ["v"], [("e1", "v", "v"), ("e2", "v", "v")], {"v": [["e1", "e2"]]}
    )
    base_ctx = LeavittContext(graph)
    labeling = Labeling(Z2, {"e1": Z2.element(1), "e2": Z2.element(0)})
    skew = skew_product(graph, labeling)
    bad_choice = dict(compatible_ex_choice(skew, base_ctx))
    name = skew.vertex_name[("v", Z2.element(0))]
    bad_choice[(name, 0)] = skew.edge_name[("e2", Z2.element(0))]
    bad_ctx = LeavittContext(skew.graph, bad_choice)
    x = vertex_element(bad_ctx, name)
    with pytest.raises(Exception, match="incompatible"):
        phi_map(x, skew, base_ctx)


def test_phi_compatibility_memo_is_scoped_to_the_contexts(monkeypatch):
    graph = SeparatedGraph(
        ["v"], [("e1", "v", "v"), ("e2", "v", "v")], {"v": [["e1", "e2"]]}
    )
    base_ctx = LeavittContext(graph)
    labeling = Labeling(Z2, {"e1": Z2.element(1), "e2": Z2.element(0)})
    skew = skew_product(graph, labeling)
    checks = []
    full_check = crossed._check_compatible

    def counted(*args):
        checks.append(args)
        return full_check(*args)

    monkeypatch.setattr(crossed, "_check_compatible", counted)
    name = skew.vertex_name[("v", Z2.element(0))]
    good_ctx = skew_context(skew, base_ctx)
    x = vertex_element(good_ctx, name)
    assert phi_map(x, skew, base_ctx) == phi_map(x, skew, base_ctx)
    assert len(checks) == 1
    # an equal skew product that is another object gets the full check
    twin = skew_product(graph, labeling)
    assert twin.graph == skew.graph and twin is not skew
    phi_map(x, twin, base_ctx)
    assert len(checks) == 2
    # a fresh context over the same graph with one cell's choice flipped
    bad_choice = dict(good_ctx.ex_choice)
    flipped = bad_choice[(name, 0)] = skew.edge_name[("e2", Z2.element(0))]
    bad_ctx = LeavittContext(skew.graph, bad_choice)
    message = (
        f"incompatible choice on the skew product: cell 0 at {name!r} chooses "
        f"{flipped!r}, not the fiber copy of the base choice {good_ctx.ex_choice[(name, 0)]!r}"
    )
    for _ in range(2):  # a failed check is not remembered
        with pytest.raises(AlgebraError) as err:
            phi_map(vertex_element(bad_ctx, name), skew, base_ctx)
        assert str(err.value) == message
    assert len(checks) == 4


# -- the inverse pair -------------------------------------------------------------------


def test_psi_images_for_the_trivial_group():
    group = CyclicGroup(1)
    labeling = Labeling(group, {"a": group.identity()})
    ctx = LeavittContext(LOOP)
    skew = skew_product(LOOP, labeling)
    sctx = skew_context(skew, ctx)
    gens = psi_on_generators(skew, sctx)
    ident = group.identity()
    assert gens.edge_image["a"] == edge_element(sctx, skew.edge_name[("a", ident)])


def test_psi_vertex_image_sums_fibers():
    group, labeling, ctx, skew = loop_setup()
    sctx = skew_context(skew, ctx)
    gens = psi_on_generators(skew, sctx)
    expected = vertex_element(sctx, "v@0") + vertex_element(sctx, "v@1")
    assert gens.vertex_image["v"] == expected


def test_psi_slot_indicators_are_orthogonal():
    group, labeling, ctx, skew = loop_setup()
    sctx = skew_context(skew, ctx)
    gens = psi_on_generators(skew, sctx)
    h0, h1 = group.elements()
    assert (gens.chi_image[h0] * gens.chi_image[h1]).is_zero
    assert gens.chi_image[h0] * gens.chi_image[h0] == gens.chi_image[h0]


def test_psi_needs_a_finite_group():
    from sepgraph.groups import IntegerGroup

    group = IntegerGroup()
    labeling = Labeling(group, {"a": group.element(1)})
    with pytest.raises(GroupError, match="finite"):
        verify_iso(LOOP, labeling, sample_count=1, seed=0)


def test_psi_inverts_phi_on_generators():
    group, labeling, ctx, skew = loop_setup(3)
    sctx = skew_context(skew, ctx)
    gens = psi_on_generators(skew, sctx)
    for g in group.elements():
        for build, name in (
            (vertex_element, skew.vertex_name[("v", g)]),
            (edge_element, skew.edge_name[("a", g)]),
        ):
            x = build(sctx, name)
            assert psi_apply(gens, phi_map(x, skew, ctx), sctx) == x


def test_psi_inverts_phi_on_starred_edges():
    # psi_apply's star branch: every S_(e,g)* of the Fig.-5 graph x Z/3 comes back
    fig5 = SeparatedGraph(
        ["v", "w1", "w2", "w3"],
        [("al1", "v", "w1"), ("al2", "v", "w2"), ("be1", "v", "w1"), ("be2", "v", "w3")],
        {"v": [["al1", "al2"], ["be1", "be2"]]},
    )
    labels = {"al1": 1, "al2": 0, "be1": 1, "be2": 2}
    labeling = Labeling(Z3, {eid: Z3.element(k) for eid, k in labels.items()})
    ctx = LeavittContext(fig5)
    skew = skew_product(fig5, labeling)
    sctx = skew_context(skew, ctx)
    gens = psi_on_generators(skew, sctx)
    starred = [edge_element(sctx, name, star=True) for name in skew.edge_pair]
    assert len(starred) == 12
    assert all(psi_apply(gens, phi_map(x, skew, ctx), sctx) == x for x in starred)


# -- slot translation ---------------------------------------------------------------------


def test_slot_translation_matches_the_graph_translation():
    group, labeling, ctx, skew = loop_setup(3)
    sctx = skew_context(skew, ctx)
    from sepgraph.algebra import induced_automorphism
    from sepgraph.groups import translation_action

    morphisms = translation_action(skew).morphisms()
    rng = random.Random(11)
    for _ in range(20):
        word = random_normal_word(rng, sctx, max_len=3)
        x = from_word(sctx, word)
        z = rng.choice(group.elements())
        lhs = phi_map(induced_automorphism(morphisms[z], x), skew, ctx)
        rhs = slot_translate(phi_map(x, skew, ctx), z)
        assert lhs == rhs


def test_phi_pushes_the_free_label_forward():
    # the free label of a skew basis word maps onto the free label of its
    # projection under the generator renaming (e, g) -> e
    group = Z3
    labeling = Labeling(group, {e.id: group.element(i) for i, e in enumerate(FOUR.edges)})
    ctx = LeavittContext(FOUR)
    skew = skew_product(FOUR, labeling)
    sctx = skew_context(skew, ctx)
    from sepgraph.algebra import word_degree
    from sepgraph.groups import free_labeling

    skew_free = free_labeling(skew.graph)
    base_free = free_labeling(FOUR)
    rng = random.Random(13)
    for _ in range(30):
        word = random_normal_word(rng, sctx, max_len=4)
        image = phi_map(from_word(sctx, word), skew, ctx)
        (crossed_word,) = image.terms
        lifted = word_degree(word, skew_free)
        projected = base_free.group.element(
            [(skew.edge_pair[gen][0], sign) for gen, sign in lifted.value]
        )
        assert projected == word_degree(crossed_word.word, base_free)


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

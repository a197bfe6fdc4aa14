import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepgraph.algebra import (
    AlgebraError,
    LeavittContext,
    NormalWord,
    component,
    decompose,
    edge_element,
    element_literal,
    from_word,
    induced_automorphism,
    is_homogeneous,
    is_normal,
    parse_element,
    rebase,
    reduce_word,
    sum_of,
    vertex_element,
    word_degree,
    zero,
)
from sepgraph.graphs import Edge, SeparatedGraph, SignedEdge, skew_product
from sepgraph.groups import (
    CyclicGroup,
    GraphAction,
    GraphMorphism,
    Labeling,
    free_labeling,
    translation_action,
)
from sepgraph.sampling import (
    random_composable_word,
    random_element,
    random_normal_word,
    random_separated_graph,
)


def bouquet(n):
    edges = [Edge(f"a{i}", "v", "v") for i in range(1, n + 1)]
    return SeparatedGraph(["v"], edges, {"v": [[e.id] for e in edges]})


PAIR = SeparatedGraph(["v"], [("e1", "v", "v"), ("e2", "v", "v")], {"v": [["e1", "e2"]]})


def fwd(e):
    return SignedEdge(e)


def bwd(e):
    return SignedEdge(e, True)


# -- normality ---------------------------------------------------------------


def test_star_then_distinct_same_cell_edge_is_not_normal():
    ctx = LeavittContext(PAIR)
    assert not is_normal(ctx, (bwd("e1"), fwd("e2")))


def test_forward_then_star_of_distinct_edges_is_normal():
    ctx = LeavittContext(PAIR)
    assert is_normal(ctx, (fwd("e1"), bwd("e2")))


def test_chosen_pair_is_not_normal():
    ctx = LeavittContext(PAIR)   # default choice picks e1
    assert not is_normal(ctx, (fwd("e1"), bwd("e1")))
    assert is_normal(ctx, (fwd("e2"), bwd("e2")))


def test_non_composable_is_not_normal():
    graph = SeparatedGraph(
        ["v", "w", "u"],
        [("a", "v", "w"), ("b", "u", "v")],
        {"v": [["a"]], "u": [["b"]]},
    )
    ctx = LeavittContext(graph)
    assert not is_normal(ctx, (fwd("a"), fwd("b")))


# -- rewriting ----------------------------------------------------------------


def test_star_edge_cancels_to_range_vertex():
    ctx = LeavittContext(PAIR)
    assert reduce_word(ctx, (bwd("e1"), fwd("e1"))) == vertex_element(ctx, "v")


def test_chosen_pair_expands_through_the_cell_relation():
    ctx = LeavittContext(PAIR)
    result = reduce_word(ctx, (fwd("e1"), bwd("e1")))
    expected = vertex_element(ctx, "v") - from_word(
        ctx, NormalWord.of_steps((fwd("e2"), bwd("e2")))
    )
    assert result == expected


def test_singleton_cell_pair_collapses_to_vertex():
    ctx = LeavittContext(bouquet(2))
    assert reduce_word(ctx, (fwd("a1"), bwd("a1"))) == vertex_element(ctx, "v")


def test_distinct_same_cell_star_product_is_zero():
    ctx = LeavittContext(PAIR)
    assert reduce_word(ctx, (bwd("e1"), fwd("e2"))).is_zero


def test_non_composable_word_is_zero():
    graph = SeparatedGraph(
        ["v", "w", "u"],
        [("a", "v", "w"), ("b", "u", "v")],
        {"v": [["a"]], "u": [["b"]]},
    )
    ctx = LeavittContext(graph)
    assert reduce_word(ctx, (fwd("a"), fwd("b"))).is_zero


def test_unknown_edge_is_a_context_error():
    ctx = LeavittContext(PAIR)
    with pytest.raises(Exception, match="unknown edge"):
        reduce_word(ctx, (fwd("nope"),))


def test_vertex_absorption_and_orthogonality():
    graph = SeparatedGraph(
        ["v", "w"], [("a", "v", "w")], {"v": [["a"]], "w": []}
    )
    ctx = LeavittContext(graph)
    pv, pw = vertex_element(ctx, "v"), vertex_element(ctx, "w")
    s = edge_element(ctx, "a")
    assert pv * pv == pv
    assert (pv * pw).is_zero
    assert pv * s == s
    assert s * pw == s
    assert (pw * s).is_zero


def test_defining_cell_sum_collapses():
    ctx = LeavittContext(PAIR)
    total = zero(ctx)
    for e in ("e1", "e2"):
        total = total + reduce_word(ctx, (fwd(e), bwd(e)))
    assert total == vertex_element(ctx, "v")


# -- products, star, literals ----------------------------------------------------


def test_two_loop_words_multiply_like_free_words():
    ctx = LeavittContext(bouquet(2))
    x = parse_element(ctx, "a1 a2*")
    y = parse_element(ctx, "a2 a1*")
    assert x * y == vertex_element(ctx, "v")


def test_star_is_an_involution_and_antihomomorphism():
    rng = random.Random(2)
    graph = random_separated_graph(rng)
    ctx = LeavittContext(graph)
    for _ in range(25):
        x = random_element(rng, ctx)
        y = random_element(rng, ctx)
        assert x.star().star() == x
        assert (x * y).star() == y.star() * x.star()


def test_mul_is_associative_on_samples():
    rng = random.Random(7)
    graph = random_separated_graph(rng)
    ctx = LeavittContext(graph)
    for _ in range(15):
        x, y, z = (random_element(rng, ctx, max_terms=2, max_len=4) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_context_mismatch_is_rejected():
    ctx1 = LeavittContext(PAIR)
    ctx2 = LeavittContext(PAIR, {("v", 0): "e2"})
    with pytest.raises(AlgebraError, match="context"):
        vertex_element(ctx1, "v") * vertex_element(ctx2, "v")


@pytest.mark.parametrize("seed", range(25))
def test_sum_of_is_the_left_fold_of_add(seed):
    rng = random.Random(seed)
    ctx = LeavittContext(random_separated_graph(rng, max_vertices=3, max_edges=6))
    xs = [random_element(rng, ctx, max_terms=4, max_len=4) for _ in range(rng.randint(0, 6))]
    xs += [-x for x in rng.sample(xs, rng.randint(0, len(xs)))]  # some summands cancel
    rng.shuffle(xs)
    folded = zero(ctx)
    for x in xs:
        folded = folded + x
    total = sum_of(ctx, xs)
    assert total == folded
    assert all(total.terms.values())
    assert sum_of(ctx, xs + [-x for x in xs]).is_zero
    foreign = LeavittContext(PAIR, {("v", 0): "e2"})
    with pytest.raises(AlgebraError, match="context"):
        sum_of(ctx, xs + [vertex_element(foreign, "v")])


def test_literal_roundtrip():
    ctx = LeavittContext(PAIR)
    for text in ["0", "1 * @v", "1/2+1/2i * e1 e2* + -2 * e2 e2*"]:
        x = parse_element(ctx, text)
        assert parse_element(ctx, element_literal(x)) == x


def test_literal_products_fold_projections():
    ctx = LeavittContext(PAIR)
    assert parse_element(ctx, "@v e1") == edge_element(ctx, "e1")
    assert parse_element(ctx, "e1* e1") == vertex_element(ctx, "v")


# -- confluence --------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_reduction_is_strategy_independent(seed):
    rng = random.Random(seed)
    graph = random_separated_graph(rng)
    ctx = LeavittContext(graph)
    steps = random_composable_word(rng, graph, max_len=8)
    assert reduce_word(ctx, steps, strategy="leftmost") == reduce_word(
        ctx, steps, strategy="rightmost"
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_change_of_basis_roundtrip(seed):
    rng = random.Random(seed)
    graph = random_separated_graph(rng)
    ctx_a = LeavittContext(graph)
    ctx_b = LeavittContext(
        graph,
        {
            (v, i): max(cell)
            for v in graph.vertices
            for i, cell in enumerate(graph.cells(v))
        },
    )
    x = random_element(rng, ctx_a)
    assert rebase(rebase(x, ctx_b), ctx_a) == x


def test_reduction_result_is_normal():
    rng = random.Random(11)
    graph = random_separated_graph(rng)
    ctx = LeavittContext(graph)
    for _ in range(40):
        steps = random_composable_word(rng, graph, max_len=9)
        for word in reduce_word(ctx, steps).terms:
            assert word.is_vertex or is_normal(ctx, word.steps)


# -- degrees and components ---------------------------------------------------------


def test_vertex_degree_is_identity():
    ctx = LeavittContext(bouquet(2))
    labeling = free_labeling(ctx.graph)
    assert word_degree(NormalWord.of_vertex("v"), labeling).is_identity


def test_free_label_degree_of_mixed_word():
    ctx = LeavittContext(bouquet(2))
    labeling = free_labeling(ctx.graph)
    word = NormalWord.of_steps((fwd("a1"), bwd("a2")))
    assert word_degree(word, labeling) == labeling.group.element([("a1", 1), ("a2", -1)])


def test_cyclic_degree_sums_labels():
    z3 = CyclicGroup(3)
    ctx = LeavittContext(bouquet(2))
    labeling = Labeling(z3, {"a1": z3.element(1), "a2": z3.element(1)})
    word = NormalWord.of_steps((fwd("a1"), fwd("a1"), bwd("a2")))
    assert word_degree(word, labeling) == z3.element(1)


def test_component_keeps_exactly_the_degree():
    ctx = LeavittContext(bouquet(2))
    labeling = free_labeling(ctx.graph)
    x = parse_element(ctx, "a1 + a2 + 2 * @v")
    a1_deg = labeling.group.generator("a1")
    assert component(x, a1_deg, labeling) == parse_element(ctx, "a1")
    assert component(vertex_element(ctx, "v"), a1_deg, labeling).is_zero
    parts = decompose(x, labeling)
    total = zero(ctx)
    for part in parts.values():
        assert is_homogeneous(part, labeling)
        total = total + part
    assert total == x


def test_star_inverts_degree():
    rng = random.Random(41)
    z3 = CyclicGroup(3)
    graph = random_separated_graph(rng)
    ctx = LeavittContext(graph)
    labeling = Labeling(z3, {e.id: z3.element(rng.randint(0, 2)) for e in graph.edges})
    for _ in range(20):
        word = random_normal_word(rng, ctx, max_len=5)
        g = word_degree(word, labeling)
        for starred in from_word(ctx, word).star().terms:
            assert word_degree(starred, labeling) == g.inverse()


def test_rewriting_preserves_degree():
    rng = random.Random(23)
    z3 = CyclicGroup(3)
    for _ in range(10):
        graph = random_separated_graph(rng)
        ctx = LeavittContext(graph)
        labeling = Labeling(z3, {e.id: z3.element(rng.randint(0, 2)) for e in graph.edges})
        steps = random_composable_word(rng, graph, max_len=8)
        target = labeling.of_word(steps)
        for word in reduce_word(ctx, steps).terms:
            assert word_degree(word, labeling) == target


# -- induced automorphisms -----------------------------------------------------------


def swap_graph_action():
    z2 = CyclicGroup(2)
    graph = SeparatedGraph(
        ["v"], [("e1", "v", "v"), ("e2", "v", "v")], {"v": [["e1", "e2"]]}
    )
    ident = GraphMorphism({"v": "v"}, {"e1": "e1", "e2": "e2"})
    swap = GraphMorphism({"v": "v"}, {"e1": "e2", "e2": "e1"})
    return graph, GraphAction(z2, {z2.element(0): ident, z2.element(1): swap})


def test_identity_acts_trivially():
    graph, action = swap_graph_action()
    ctx = LeavittContext(graph)
    x = parse_element(ctx, "e1 e2* + 1/2 * @v")
    assert induced_automorphism(action, action.group.element(0), x) == x


def test_action_renormalizes_moved_chosen_edges():
    graph, action = swap_graph_action()
    ctx = LeavittContext(graph)   # chosen edge of the cell is e1
    x = from_word(ctx, NormalWord.of_steps((fwd("e2"), bwd("e2"))))
    moved = induced_automorphism(action, action.group.element(1), x)
    # e2 e2* maps to e1 e1*, which re-expands through the cell relation
    assert moved == vertex_element(ctx, "v") - x


def test_translation_action_shifts_vertex_fibers():
    z2 = CyclicGroup(2)
    base = bouquet(1)
    labeling = Labeling(z2, {"a1": z2.element(1)})
    skew = skew_product(base, labeling)
    ctx = LeavittContext(skew.graph)
    action = translation_action(skew)
    h = z2.element(1)
    for g in z2.elements():
        source = vertex_element(ctx, skew.vertex_name[("v", g)])
        target = vertex_element(ctx, skew.vertex_name[("v", h * g)])
        assert induced_automorphism(action, h, source) == target


def test_action_is_multiplicative_on_samples():
    graph, action = swap_graph_action()
    ctx = LeavittContext(graph)
    rng = random.Random(5)
    g = action.group.element(1)
    for _ in range(20):
        x = random_element(rng, ctx, max_terms=2, max_len=4)
        y = random_element(rng, ctx, max_terms=2, max_len=4)
        assert induced_automorphism(action, g, x * y) == induced_automorphism(
            action, g, x
        ) * induced_automorphism(action, g, y)


# -- the basis bijection on singleton-cell graphs -------------------------------------


def test_singleton_cell_words_biject_with_reduced_free_words():
    ctx = LeavittContext(bouquet(2))
    # every reduced word over a1,a2 and their stars is normal, and no rewriting fires
    words = [
        (fwd("a1"), fwd("a2")),
        (fwd("a1"), bwd("a2")),
        (bwd("a1"), fwd("a2")),
        (fwd("a1"), fwd("a1"), bwd("a2")),
    ]
    for steps in words:
        assert is_normal(ctx, steps)
        element = reduce_word(ctx, steps)
        assert list(element.terms) == [NormalWord.of_steps(steps)]

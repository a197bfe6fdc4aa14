import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepgraph import algebra
from sepgraph.algebra import (
    AlgebraError,
    LeavittContext,
    NormalWord,
    component,
    decompose,
    edge_element,
    element_literal,
    forbidden_pair,
    from_word,
    induced_automorphism,
    parse_element,
    rebase,
    reduce_word,
    sum_of,
    vertex_element,
    zero,
)
from sepgraph.graphs import Edge, GraphError, SeparatedGraph, SignedEdge, skew_product
from sepgraph.groups import (
    CyclicGroup,
    bouquet_graph,
    GraphAction,
    GraphMorphism,
    Labeling,
    free_labeling,
    translation_action,
)
from sepgraph.sampling import (
    random_coefficient,
    random_composable_word,
    random_element,
    random_normal_word,
    random_separated_graph,
)

from nonabelian import S3
from words import is_normal


def bouquet(n):
    edges = [Edge(f"a{i}", "v", "v") for i in range(1, n + 1)]
    return SeparatedGraph(["v"], edges, {"v": [[e.id] for e in edges]})


PAIR = SeparatedGraph(["v"], [("e1", "v", "v"), ("e2", "v", "v")], {"v": [["e1", "e2"]]})
TWO_VERTICES = SeparatedGraph(["u", "w"], [("b", "u", "w")], {"u": [["b"]], "w": []})


def fwd(e):
    return SignedEdge(e)


def bwd(e):
    return SignedEdge(e, True)


def test_normal_words_are_values():
    word = NormalWord.of_steps((fwd("e1"), bwd("e2")))
    assert word == NormalWord.of_steps([fwd("e1"), bwd("e2")])
    assert hash(word) == hash(NormalWord.of_steps([fwd("e1"), bwd("e2")]))
    assert hash(NormalWord.of_vertex("v")) == hash(NormalWord.of_vertex("v"))
    assert word.adjoint() == NormalWord.of_steps((fwd("e2"), bwd("e1")))
    assert word.adjoint().adjoint() == word
    assert NormalWord.of_vertex("v").adjoint() == NormalWord.of_vertex("v")
    for vertex, steps in ((None, ()), ("v", (fwd("e1"),))):
        with pytest.raises(AlgebraError, match="either a vertex"):
            NormalWord(vertex, steps)
    with pytest.raises(AlgebraError, match="either a vertex"):
        NormalWord.of_steps(())


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


@pytest.mark.parametrize("strategy", ["rightmots", "left", ""])
def test_an_unknown_fold_strategy_is_rejected(strategy):
    # a typo must not silently fold leftmost or rightmost and pass a confluence check
    ctx = LeavittContext(bouquet_graph(2))
    with pytest.raises(AlgebraError, match="unknown strategy"):
        reduce_word(ctx, (fwd("a1"), bwd("a1")), strategy=strategy)


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_deep_cancellation_reduces_without_recursion(strategy):
    n = 10**5
    ctx = LeavittContext(bouquet_graph(2))
    steps = (bwd("a1"),) * n + (fwd("a1"),) * n
    assert reduce_word(ctx, steps, strategy=strategy) == vertex_element(ctx, "v")


def test_reducing_distinct_words_retains_no_memory_in_the_context():
    rng = random.Random(3)
    ctx = LeavittContext(PAIR)
    letters = [fwd("e1"), fwd("e2"), bwd("e1"), bwd("e2")]
    words = set()
    while len(words) < 2000:
        words.add(tuple(rng.choice(letters) for _ in range(rng.randint(2, 12))))
    reduce_word(ctx, (fwd("e1"),))  # the graph's step table is built before the count
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for steps in words:
            for strategy in ("leftmost", "rightmost"):
                reduce_word(ctx, steps, strategy=strategy)
        x = edge_element(ctx, "e1")
        for steps in words:
            from_word(ctx, NormalWord.of_steps(steps[:2])) * x
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 32 * 1024


def test_contexts_share_the_graph_table_but_rewrite_by_their_own_choice():
    # e1 is chosen in one context and e2 in the other; each is asked in turn,
    # so a choice stored in the shared table would leak into the other
    first = LeavittContext(PAIR)
    second = LeavittContext(PAIR, {("v", 0): "e2"})
    assert first.graph.step_table() is second.graph.step_table()
    pair1, pair2 = (fwd("e1"), bwd("e1")), (fwd("e2"), bwd("e2"))
    for _ in range(2):
        for ctx, chosen, other in ((first, pair1, pair2), (second, pair2, pair1)):
            assert not is_normal(ctx, chosen) and is_normal(ctx, other)
            for strategy in ("leftmost", "rightmost"):
                expanded = vertex_element(ctx, "v") - from_word(ctx, NormalWord.of_steps(other))
                assert reduce_word(ctx, chosen, strategy=strategy) == expanded
                assert reduce_word(ctx, other, strategy=strategy) == from_word(
                    ctx, NormalWord.of_steps(other)
                )
            x = edge_element(ctx, chosen[0].edge)
            assert x * x.star() == vertex_element(ctx, "v") - from_word(
                ctx, NormalWord.of_steps(other)
            )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_each_context_fires_r3_on_its_own_chosen_edges_only(seed):
    rng = random.Random(seed)
    graph = random_separated_graph(rng)
    choices = [
        {(v, i): rng.choice(cell) for v in graph.vertices for i, cell in enumerate(graph.cells(v))}
        for _ in range(2)
    ]
    contexts = [LeavittContext(graph, choice) for choice in choices]
    for ctx in contexts + contexts[::-1]:
        chosen = set(ctx.ex_choice.values())
        for e in graph.edges:
            word = (fwd(e.id), bwd(e.id))
            assert is_normal(ctx, word) == (e.id not in chosen)
            for strategy in ("leftmost", "rightmost"):
                terms = reduce_word(ctx, word, strategy=strategy).terms
                assert (set(terms) == {NormalWord.of_steps(word)}) == (e.id not in chosen)


@pytest.mark.parametrize("seed", range(10))
def test_forbidden_pairs_are_exactly_the_two_letter_redexes(seed):
    # the rewriter is the oracle: a composable pair is forbidden iff
    # rewriting does not return it unchanged
    rng = random.Random(seed)
    graph = random_separated_graph(rng, max_vertices=4, max_edges=8)
    ctx = LeavittContext(graph)
    for v in graph.vertices:
        for a in graph.moves(v):
            for b in graph.moves(graph.range(a)):
                unchanged = set(reduce_word(ctx, (a, b)).terms) == {NormalWord.of_steps((a, b))}
                assert forbidden_pair(ctx, a, b) == (not unchanged)
                assert is_normal(ctx, (a, b)) == unchanged


@pytest.mark.parametrize("seed", range(10))
def test_forbidden_pairs_match_their_definition_under_every_choice(seed):
    # the definition read off the separation and the choice, not the step table:
    # e* f with e, f in one cell, or e_X e_X* for the chosen edge e_X
    rng = random.Random(seed)
    graph = random_separated_graph(rng, max_vertices=4, max_edges=8)
    cells = {(v, i): cell for v, cells in graph.separation.items() for i, cell in enumerate(cells)}
    cell_of = {eid: key for key, cell in cells.items() for eid in cell}
    largest = {key: max(cell) for key, cell in cells.items()}  # the default takes min
    for ctx in (LeavittContext(graph), LeavittContext(graph, largest)):
        for v in graph.vertices:
            for a in graph.moves(v):
                for b in graph.moves(graph.range(a)):
                    cell = cell_of[a.edge]
                    kills_or_cancels = a.star and not b.star and cell == cell_of[b.edge]
                    splits = not a.star and b.star and a.edge == b.edge == ctx.ex_choice[cell]
                    assert forbidden_pair(ctx, a, b) == (kills_or_cancels or splits), (a, b)


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


def junction_kind(ctx, a, b):
    """Which rule the pair ``a b`` starts, by the rules' own definitions."""
    cell = ctx.graph.cell_of
    if a.star and not b.star and cell(a.edge) == cell(b.edge):
        return "R1" if a.edge == b.edge else "R2"
    if not a.star and b.star and a.edge == b.edge and a.edge in ctx.ex_choice.values():
        return "R3" if len(ctx.graph.cell_edges(*cell(a.edge))) == 1 else "R3 spliced"
    return "normal"


def test_products_of_normal_words_are_their_rightmost_reductions():
    # every junction kind, and R3 both with and without spliced branches;
    # the reference folds the whole concatenation from the right, in a
    # context of its own, and a non-composable pair multiplies to zero
    seen = {"normal": 0, "R1": 0, "R2": 0, "R3": 0, "R3 spliced": 0, "non_composable": 0}
    for seed in range(90):
        rng = random.Random(seed)
        graph = bouquet_graph(2) if seed % 9 == 0 else random_separated_graph(rng, max_vertices=2)
        ctx, ref_ctx = LeavittContext(graph), LeavittContext(graph)
        words = [random_normal_word(rng, ctx, max_len=4, min_len=0) for _ in range(12)]
        for w1 in words:
            for w2 in words:
                product = from_word(ctx, w1) * from_word(ctx, w2)
                start = w1.vertex or graph.source(w1.steps[0])
                meets = w1.vertex or graph.range(w1.steps[-1])
                if meets != (w2.vertex or graph.source(w2.steps[0])):
                    seen["non_composable"] += 1
                    assert product.is_zero
                    continue
                if w1.steps and w2.steps:
                    seen[junction_kind(ctx, w1.steps[-1], w2.steps[0])] += 1
                steps = w1.steps + w2.steps
                assert product == reduce_word(ref_ctx, steps, base=start, strategy="rightmost")
        # p = e e* is idempotent, so p (v - p) = 0; with e chosen in a cell of
        # several edges p has several terms, and the product's sums cancel
        for e in graph.edges:
            p = reduce_word(ctx, (fwd(e.id), bwd(e.id)))
            q = vertex_element(ctx, e.src) - p
            assert p * p == p
            assert (p * q).terms == {} and (q * p).terms == {}
    assert min(seen.values()) >= 20, seen


def test_mul_is_the_sum_of_composable_term_pair_reductions():
    # vertex terms and non-composable pairs on purpose: the reference reduces
    # every term pair by the other strategy in its own context, and a pair
    # whose junction does not compose contributes zero
    seen = {"vertex": 0, "non_composable": 0}
    for seed in range(40):
        rng = random.Random(seed)
        graph = random_separated_graph(rng, max_vertices=3, max_edges=6)
        ctx, ref_ctx = LeavittContext(graph), LeavittContext(graph)

        def sample():
            x = random_element(rng, ctx, max_terms=4, max_len=3)
            v = rng.choice(graph.vertices)
            return x + vertex_element(ctx, v).scale(random_coefficient(rng))

        def ends(w):
            if w.is_vertex:
                return w.vertex, w.vertex
            return graph.source(w.steps[0]), graph.range(w.steps[-1])

        x, y = sample(), sample()
        pairs = []
        for w1, c1 in x.terms.items():
            for w2, c2 in y.terms.items():
                seen["vertex"] += w1.is_vertex or w2.is_vertex
                if ends(w1)[1] != ends(w2)[0]:
                    seen["non_composable"] += 1
                    continue
                steps, c = w1.steps + w2.steps, c1 * c2
                pairs.append(reduce_word(ref_ctx, steps, c, base=w1.vertex, strategy="rightmost"))
        assert x * y == sum_of(ref_ctx, pairs)
    assert seen["vertex"] and seen["non_composable"]


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


@pytest.mark.parametrize("k", [1, 2, 9, 60])
def test_a_literal_term_is_rewritten_once(monkeypatch, k):
    ctx = LeavittContext(PAIR)
    fold = algebra._fold
    calls = []

    def counting(*args):
        calls.append(args[1])
        return fold(*args)

    monkeypatch.setattr(algebra, "_fold", counting)
    letters = ["e1", "e2", "e1*", "e2*", "@v"]
    tokens = [letters[i % 5] for i in range(k)]
    parse_element(ctx, "2 * " + " ".join(tokens))
    assert len(calls) == 1
    calls.clear()
    parse_element(ctx, " ".join(tokens) + " - e2* " + " ".join(tokens))
    assert len(calls) == 2


@pytest.mark.parametrize("seed", range(40))
def test_literal_terms_are_the_products_of_their_factors(seed):
    rng = random.Random(seed)
    graph = random_separated_graph(rng, max_vertices=3, max_edges=5)
    ctx = LeavittContext(graph)
    factors = {f"@{v}": vertex_element(ctx, v) for v in graph.vertices}
    for e in graph.edges:
        factors[e.id] = edge_element(ctx, e.id)
        factors[f"{e.id}*"] = edge_element(ctx, e.id, star=True)
    tokens = sorted(factors)
    parts, expected = [], []
    for _ in range(rng.randint(1, 3)):
        coeff = random_coefficient(rng)
        term = [rng.choice(tokens) for _ in range(rng.randint(1, 7))]
        parts.append(f"{coeff} * {' '.join(term)}")
        value = factors[term[0]]
        for tok in term[1:]:
            value = value * factors[tok]
        expected.append(value.scale(coeff))
    assert parse_element(ctx, " + ".join(parts)) == sum_of(ctx, expected)


@pytest.mark.parametrize(
    "text,message",
    [
        ("e1 @w e2", "unknown vertex id 'w'"),
        ("e3 @w", "unknown edge id 'e3'"),
        ("@w e3", "unknown vertex id 'w'"),
        ("@v e1 e3*", "unknown edge id 'e3'"),
        ("e1 + e2 @v @x", "unknown vertex id 'x'"),
        ("e1 e2 *", "unknown edge id ''"),
    ],
)
def test_literal_ids_are_checked_left_to_right(text, message):
    ctx = LeavittContext(PAIR)
    with pytest.raises(GraphError, match=message):
        parse_element(ctx, text)


def test_unknown_ids_after_a_non_composable_junction_still_raise():
    ctx = LeavittContext(TWO_VERTICES)
    assert parse_element(ctx, "@u @w").is_zero
    assert parse_element(ctx, "b b").is_zero
    with pytest.raises(GraphError, match="unknown edge id 'c'"):
        parse_element(ctx, "b b c")
    with pytest.raises(GraphError, match="unknown vertex id 'x'"):
        parse_element(ctx, "@w b @x")


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


def test_rightmost_folds_the_adjoint_word(monkeypatch):
    ctx = LeavittContext(PAIR)
    fold = algebra._fold
    calls = []

    def recording(ctx, steps):
        calls.append(steps)
        return fold(ctx, steps)

    monkeypatch.setattr(algebra, "_fold", recording)
    steps = (fwd("e1"), bwd("e1"), fwd("e1"), bwd("e2"))  # e1 e1* e1 e2* = e1 e2*
    left = reduce_word(ctx, steps, strategy="leftmost")
    right = reduce_word(ctx, steps, strategy="rightmost")
    assert calls == [steps, NormalWord.of_steps(steps).adjoint().steps]
    assert left == right == from_word(ctx, NormalWord.of_steps((fwd("e1"), bwd("e2"))))


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
    assert NormalWord.of_vertex("v").steps == () and labeling.of_word(()).is_identity


def test_free_label_degree_of_mixed_word():
    ctx = LeavittContext(bouquet(2))
    labeling = free_labeling(ctx.graph)
    word = NormalWord.of_steps((fwd("a1"), bwd("a2")))
    assert labeling.of_word(word.steps) == labeling.group.element([("a1", 1), ("a2", -1)])


def test_cyclic_degree_sums_labels():
    z3 = CyclicGroup(3)
    ctx = LeavittContext(bouquet(2))
    labeling = Labeling(z3, {"a1": z3.element(1), "a2": z3.element(1)})
    word = NormalWord.of_steps((fwd("a1"), fwd("a1"), bwd("a2")))
    assert labeling.of_word(word.steps) == z3.element(1)


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
        assert len(decompose(part, labeling)) == 1
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
        g = labeling.of_word(word.steps)
        for starred in from_word(ctx, word).star().terms:
            assert labeling.of_word(starred.steps) == g.inverse()


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
            assert labeling.of_word(word.steps) == target


@pytest.mark.parametrize("seed", range(4))
def test_degrees_multiply_in_order_under_nonabelian_labels(seed):
    """A_g A_h lies in A_gh, not A_hg, the adjoint of A_g in A_g^-1, and rewriting
    keeps the degree, for S3 labels, where gh and hg differ."""
    rng = random.Random(seed)
    group = S3()
    graph = random_separated_graph(rng)
    ctx = LeavittContext(graph)
    labeling = Labeling(group, {e.id: rng.choice(group.elements()) for e in graph.edges})
    for _ in range(10):
        steps = random_composable_word(rng, graph, max_len=8, min_len=2)
        k = rng.randint(1, len(steps) - 1)
        left, right = reduce_word(ctx, steps[:k]), reduce_word(ctx, steps[k:])
        g, h = labeling.of_word(steps[:k]), labeling.of_word(steps[k:])
        for word in (left * right).terms:
            assert labeling.of_word(word.steps) == g * h
        for word in left.star().terms:
            assert labeling.of_word(word.steps) == g.inverse()


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
    assert induced_automorphism(action.table[action.group.element(0)], x) == x


def test_action_renormalizes_moved_chosen_edges():
    graph, action = swap_graph_action()
    ctx = LeavittContext(graph)   # chosen edge of the cell is e1
    x = from_word(ctx, NormalWord.of_steps((fwd("e2"), bwd("e2"))))
    moved = induced_automorphism(action.table[action.group.element(1)], x)
    # e2 e2* maps to e1 e1*, which re-expands through the cell relation
    assert moved == vertex_element(ctx, "v") - x


def test_translation_action_shifts_vertex_fibers():
    z2 = CyclicGroup(2)
    base = bouquet(1)
    labeling = Labeling(z2, {"a1": z2.element(1)})
    skew = skew_product(base, labeling)
    ctx = LeavittContext(skew.graph)
    h = z2.element(1)
    shift = translation_action(skew).table[h]
    for g in z2.elements():
        source = vertex_element(ctx, skew.vertex_name[("v", g)])
        target = vertex_element(ctx, skew.vertex_name[("v", h * g)])
        assert induced_automorphism(shift, source) == target


def test_action_is_multiplicative_on_samples():
    graph, action = swap_graph_action()
    ctx = LeavittContext(graph)
    rng = random.Random(5)
    swap = action.table[action.group.element(1)]
    for _ in range(20):
        x = random_element(rng, ctx, max_terms=2, max_len=4)
        y = random_element(rng, ctx, max_terms=2, max_len=4)
        assert induced_automorphism(swap, x * y) == induced_automorphism(swap, x) * induced_automorphism(swap, y)


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

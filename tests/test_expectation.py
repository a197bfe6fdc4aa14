import random
from fractions import Fraction

import pytest

from sepgraph import expectation
from sepgraph.algebra import (
    AlgebraElement,
    LeavittContext,
    NormalWord,
    component,
    from_word,
    induced_automorphism,
    parse_element,
    reduce_word,
    vertex_element,
)
from sepgraph.expectation import (
    _n_value,
    beta_element,
    cell_subgraph,
    expect,
    n_mu,
    phi_ordinary,
)
from sepgraph.graphs import (
    Edge,
    GraphError,
    SeparatedGraph,
    SignedEdge,
    skew_product,
)
from sepgraph.groups import CyclicGroup, free_labeling, translation_action
from sepgraph.sampling import (
    random_element,
    random_forward_path,
    random_labeling,
    random_normal_word,
    random_ordinary_graph,
    random_reduced_free_word,
    random_separated_graph,
)
from sepgraph.scalars import ONE


def bouquet(n):
    edges = [Edge(f"a{i}", "v", "v") for i in range(1, n + 1)]
    return SeparatedGraph(["v"], edges, {"v": [[e.id] for e in edges]})


def fig5():
    return SeparatedGraph(
        ["v", "w1", "w2", "w3"],
        [("al1", "v", "w1"), ("al2", "v", "w2"), ("be1", "v", "w1"), ("be2", "v", "w3")],
        {"v": [["al1", "al2"], ["be1", "be2"]]},
    )


def fwd(e):
    return SignedEdge(e)


def bwd(e):
    return SignedEdge(e, True)


# -- direct values ---------------------------------------------------------------


def test_vertex_projection_is_fixed():
    ctx = LeavittContext(bouquet(2))
    p = vertex_element(ctx, "v")
    assert expect(p) == p


def test_nonempty_reduced_words_have_zero_expectation():
    ctx = LeavittContext(bouquet(3))
    rng = random.Random(1)
    for _ in range(100):
        letters = random_reduced_free_word(rng, ("a1", "a2", "a3"), max_len=6)
        steps = tuple(SignedEdge(gen, sign < 0) for gen, sign in letters)
        assert expect(from_word(ctx, NormalWord.of_steps(steps))).is_zero


def test_half_value_on_the_two_cell_graph():
    ctx = LeavittContext(fig5())
    value = expect(parse_element(ctx, "be1 be1*"))
    assert value == vertex_element(ctx, "v").scale(Fraction(1, 2))


def test_cell_of_size_three_gives_a_third():
    graph = SeparatedGraph(
        ["v"],
        [("e1", "v", "v"), ("e2", "v", "v"), ("e3", "v", "v")],
        {"v": [["e1", "e2", "e3"]]},
    )
    ctx = LeavittContext(graph)
    value = expect(reduce_word(ctx, (fwd("e2"), bwd("e2"))))
    assert value == vertex_element(ctx, "v").scale(Fraction(1, 3))


def test_alternating_projection_sandwich():
    # with p = x1 x1* and q = y1 y1* in different cells of size two, expanding
    # p = 1/2 + b and q = 1/2 + c with centered kernel parts gives
    # P(pqp) = 1/8 + P(b^2)/2 = 1/8 + 1/8 = 1/4 (b^2 = 1/4 since p^2 = p)
    graph = SeparatedGraph(
        ["v"],
        [("x1", "v", "v"), ("x2", "v", "v"), ("y1", "v", "v"), ("y2", "v", "v")],
        {"v": [["x1", "x2"], ["y1", "y2"]]},
    )
    ctx = LeavittContext(graph)
    p = parse_element(ctx, "x1 x1*")
    q = parse_element(ctx, "y1 y1*")
    assert expect(p * q * p) == vertex_element(ctx, "v").scale(Fraction(1, 4))
    assert expect(p * q) == vertex_element(ctx, "v").scale(Fraction(1, 4))
    # deeper alternation: only the all-scalar term and the two aligned
    # kernel-square terms survive, 1/16 + 1/16 + 1/16
    assert expect(q * p * q * p) == vertex_element(ctx, "v").scale(Fraction(3, 16))


def test_expectation_is_vertex_supported_and_linear():
    ctx = LeavittContext(fig5())
    x = parse_element(ctx, "2 * be1 be1* + i * al1 al1*")
    value = expect(x)
    assert all(w.is_vertex for w in value.terms)
    assert value == parse_element(ctx, "1+1/2i * @v")


# -- the choice-independent rules ---------------------------------------------------


def test_weak_reduction_cancels_star_then_edge():
    ctx = LeavittContext(fig5())
    assert _n_value(ctx, (bwd("al1"), fwd("al1"))) == 1


def test_weak_reduction_kills_same_cell_mismatch():
    # the free label is trivial, so only the kill of al1* al2 gives zero
    ctx = LeavittContext(fig5())
    assert _n_value(ctx, (bwd("al1"), fwd("al2"), bwd("al2"), fwd("al1"))) == 0


def test_weak_reduction_keeps_large_cell_pairs():
    ctx = LeavittContext(fig5())
    assert _n_value(ctx, (fwd("al1"), bwd("al1"))) == Fraction(1, 2)


def test_weak_reduction_drops_singleton_pairs():
    graph = SeparatedGraph(
        ["v"], [("a", "v", "v"), ("b", "v", "v")], {"v": [["a"], ["b"]]}
    )
    ctx = LeavittContext(graph)
    assert _n_value(ctx, (fwd("b"), fwd("a"), bwd("a"), bwd("b"))) == 1


# -- the block family ------------------------------------------------------------------


def three_cells():
    ids = ("a1", "a2", "c1", "c2", "b1", "b2")
    return SeparatedGraph(
        ["v"], [(e, "v", "v") for e in ids], {"v": [["a1", "a2"], ["c1", "c2"], ["b1", "b2"]]}
    )


def blocks(count):
    """Blocks ``x b2 b2* x*`` with x alternating a1, c1.  Deleting a ``b2 b2*``
    pair lets no letters cancel, so an expansion over deleted pairs cannot
    merge its terms here."""
    word = ()
    for i in range(count):
        x = "c1" if i % 2 else "a1"
        word += (fwd(x), fwd("b2"), bwd("b2"), bwd(x))
    return word


def test_block_family_values():
    # the values of the merged prefix walk this module used before
    pinned = {
        4: Fraction(7, 256),
        6: Fraction(29, 2048),
        8: Fraction(523, 65536),
        10: Fraction(2483, 524288),
    }
    for count, value in pinned.items():
        assert _n_value(LeavittContext(three_cells()), blocks(count)) == value, count


def test_block_family_work_grows_polynomially(monkeypatch):
    # the prefix walk's work grew 4x for every two blocks; the pushdown's
    # junction count must grow less than 4.5x per doubling
    calls = []
    real = expectation.junction

    def counting(table, chosen, a, b):
        calls.append(None)
        return real(table, chosen, a, b)

    monkeypatch.setattr(expectation, "junction", counting)
    counts = []
    for count in (10, 20, 40, 80):
        calls.clear()
        _n_value(LeavittContext(three_cells()), blocks(count))
        counts.append(len(calls))
    assert all(b < 4.5 * a for a, b in zip(counts, counts[1:])), counts


# -- the ordinary-graph oracle -------------------------------------------------------


def chain_graph():
    # out-degrees 2 at u and 3 at w
    return SeparatedGraph(
        ["u", "w", "t"],
        [
            ("e1", "u", "w"),
            ("e2", "u", "w"),
            ("f1", "w", "t"),
            ("f2", "w", "t"),
            ("f3", "w", "t"),
        ],
        {"u": [["e1", "e2"]], "w": [["f1", "f2", "f3"]], "t": []},
    )


def forward(*edge_ids):
    """The forward path along the given edges, as a word."""
    return NormalWord.of_steps(tuple(map(SignedEdge, edge_ids)))


def test_n_mu_of_empty_path_is_one():
    graph = chain_graph()
    assert n_mu(graph, NormalWord.of_vertex("u")) == 1


def test_n_mu_multiplies_inverse_out_degrees():
    graph = chain_graph()
    assert n_mu(graph, forward("e1", "f2")) == Fraction(1, 6)


def test_phi_ordinary_on_equal_paths():
    graph = chain_graph()
    ctx = LeavittContext(graph)
    mu = forward("e1", "f2")
    assert phi_ordinary(ctx, mu, mu) == vertex_element(ctx, "u").scale(Fraction(1, 6))


def test_phi_ordinary_on_distinct_paths_is_zero():
    graph = chain_graph()
    ctx = LeavittContext(graph)
    mu = forward("e1", "f2")
    nu = forward("e2", "f2")
    assert phi_ordinary(ctx, mu, nu).is_zero


def test_phi_ordinary_on_empty_paths():
    graph = chain_graph()
    ctx = LeavittContext(graph)
    empty = NormalWord.of_vertex("w")
    assert phi_ordinary(ctx, empty, empty) == vertex_element(ctx, "w")


def test_phi_ordinary_rejects_separated_graphs():
    ctx = LeavittContext(fig5())
    with pytest.raises(Exception, match="trivially separated"):
        phi_ordinary(ctx, NormalWord.of_vertex("v"), NormalWord.of_vertex("v"))


def test_phi_ordinary_rejects_range_mismatch():
    graph = chain_graph()
    ctx = LeavittContext(graph)
    with pytest.raises(GraphError):
        phi_ordinary(ctx, forward("e1"), NormalWord.of_vertex("u"))


def test_expectation_agrees_with_oracle_on_random_graphs():
    rng = random.Random(9)
    for _ in range(25):
        graph = random_ordinary_graph(rng)
        ctx = LeavittContext(graph)
        mu = random_forward_path(rng, graph, max_len=4)
        nu = None
        for _ in range(30):
            candidate = random_forward_path(rng, graph, max_len=4)
            if candidate.range(graph) == mu.range(graph):
                nu = candidate
                break
        if nu is None:
            nu = mu
        steps = mu.steps + tuple(s.reverse() for s in reversed(nu.steps))
        word = reduce_word(ctx, steps, base=mu.source(graph))
        assert expect(word) == phi_ordinary(ctx, mu, nu)


def test_expectation_agrees_with_oracle_inside_one_cell():
    graph = SeparatedGraph(
        ["v"],
        [("x1", "v", "v"), ("x2", "v", "v"), ("y1", "v", "v")],
        {"v": [["x1", "x2"], ["y1"]]},
    )
    ctx = LeavittContext(graph)
    sub = cell_subgraph(graph, "v", 0)
    sub_ctx = LeavittContext(sub)
    mu = forward("x1", "x2")
    steps = mu.steps + tuple(s.reverse() for s in reversed(mu.steps))
    inside = expect(reduce_word(ctx, steps))
    oracle = phi_ordinary(sub_ctx, mu, mu)
    assert inside.terms[NormalWord.of_vertex("v")] == oracle.terms[NormalWord.of_vertex("v")]


# -- structural properties ------------------------------------------------------------


def test_bimodule_property():
    rng = random.Random(17)
    graph = random_separated_graph(rng)
    ctx = LeavittContext(graph)
    for _ in range(20):
        x = random_element(rng, ctx)
        v = rng.choice(graph.vertices)
        w = rng.choice(graph.vertices)
        pv, pw = vertex_element(ctx, v), vertex_element(ctx, w)
        assert expect(pv * x * pw) == pv * expect(x) * pw


def test_expectation_vanishes_off_the_unit_fiber():
    rng = random.Random(19)
    z3 = CyclicGroup(3)
    for _ in range(8):
        graph = random_separated_graph(rng)
        ctx = LeavittContext(graph)
        for labeling in (free_labeling(graph), random_labeling(rng, graph, z3)):
            x = random_element(rng, ctx)
            unit = labeling.group.identity()
            total = expect(component(x, unit, labeling))
            for word in x.terms:
                g = labeling.of_word(word.steps)
                if not g.is_identity:
                    assert expect(component(x, g, labeling)).is_zero
            assert expect(x) == total


def test_action_invariance():
    rng = random.Random(23)
    z2 = CyclicGroup(2)
    graph = random_separated_graph(rng)
    labeling = random_labeling(rng, graph, z2)
    skew = skew_product(graph, labeling)
    morphisms = translation_action(skew).morphisms()
    ctx = LeavittContext(skew.graph)
    for _ in range(25):
        x = random_element(rng, ctx, max_terms=2, max_len=5)
        f = morphisms[rng.choice(z2.elements())]
        assert expect(induced_automorphism(f, x)) == induced_automorphism(f, expect(x))


def test_star_symmetry():
    rng = random.Random(29)
    graph = random_separated_graph(rng)
    ctx = LeavittContext(graph)
    for _ in range(20):
        x = random_element(rng, ctx)
        assert expect(x.star()) == expect(x).star()


def test_alternating_kernel_products_vanish():
    ctx = LeavittContext(fig5())
    cells = (["al1", "al2"], ["be1", "be2"])
    rng = random.Random(31)
    for _ in range(40):
        cell = rng.randint(0, 1)
        product = None
        for _ in range(rng.randint(1, 4)):
            factor = beta_element(ctx, rng.choice(cells[cell]))
            product = factor if product is None else product * factor
            cell = 1 - cell
        assert expect(product).is_zero


def test_expectation_is_idempotent():
    rng = random.Random(37)
    graph = random_separated_graph(rng)
    ctx = LeavittContext(graph)
    for _ in range(15):
        x = random_element(rng, ctx)
        value = expect(x)
        assert expect(value) == value


# -- the memo -------------------------------------------------------------------------


def _count_pushdowns(monkeypatch):
    calls = []
    real = expectation._pushdown

    def counting(table, steps):
        calls.append(steps)
        return real(table, steps)

    monkeypatch.setattr(expectation, "_pushdown", counting)
    return calls


def test_a_warm_expect_computes_no_term(monkeypatch):
    calls = _count_pushdowns(monkeypatch)
    ctx = LeavittContext(fig5())
    words = [
        (fwd("al2"), bwd("al2")),
        (fwd("be2"), bwd("be2")),
        (fwd("al2"), bwd("al2"), fwd("be2"), bwd("be2")),
    ]
    x = AlgebraElement(ctx, {NormalWord.of_steps(w): ONE for w in words})
    cold = expect(x)
    assert calls == words  # one per distinct term
    calls.clear()
    assert expect(x) == cold
    assert calls == []


def test_a_warm_expect_on_random_elements_computes_nothing(monkeypatch):
    calls = _count_pushdowns(monkeypatch)
    rng = random.Random(43)
    for _ in range(10):
        ctx = LeavittContext(random_separated_graph(rng))
        for _ in range(10):
            x = random_element(rng, ctx, max_terms=4, max_len=8)
            cold = expect(x)
            calls.clear()
            assert expect(x) == cold
            assert calls == []


def test_the_memo_keeps_at_most_its_bound(monkeypatch):
    monkeypatch.setattr(expectation, "MEMO_ENTRIES", 64)
    rng = random.Random(47)
    graph = fig5()
    ctx = LeavittContext(graph)
    for _ in range(2000):
        word = random_normal_word(rng, ctx, max_len=8)
        x = from_word(ctx, word)
        y = x * x.star()
        value = expect(y)
        assert len(ctx.expect_cache) <= 64
        fresh = LeavittContext(graph)
        assert value == expect(AlgebraElement(fresh, y.terms))
    assert len(ctx.expect_cache) == 64  # the bound was reached, so words were dropped

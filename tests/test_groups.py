import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepgraph.graphs import (
    GraphMorphism,
    GraphPath,
    SeparatedGraph,
    SignedEdge,
    check_isomorphism,
    skew_product,
)
from sepgraph.groups import (
    CyclicGroup,
    FreeGroup,
    GraphAction,
    GroupError,
    IntegerGroup,
    Labeling,
    ProductGroup,
    action_from_json,
    action_to_json,
    cayley_separated_graph,
    check_action,
    free_labeling,
    gross_tucker,
    group_from_json,
    group_to_json,
    is_equivariant_iso,
    is_free,
    labeling_from_json,
    labeling_to_json,
    translation_action,
)
from sepgraph.sampling import random_labeling, random_separated_graph

F2 = FreeGroup(("a", "b"))
Z3 = CyclicGroup(3)


# -- element arithmetic ---------------------------------------------------------


def test_free_word_cancellation():
    a = F2.generator("a")
    assert (a * a.inverse()).is_identity


def test_residue_arithmetic():
    two = Z3.element(2)
    assert two * two == Z3.element(1)


def test_free_word_partial_cancellation():
    x = F2.element([("a", 1), ("b", 1)])
    y = F2.element([("b", -1), ("a", 1)])
    assert x * y == F2.element([("a", 2)])


def test_mixed_groups_raise():
    with pytest.raises(GroupError):
        Z3.element(1) * CyclicGroup(4).element(1)


def test_identity_element():
    assert Z3.identity() == Z3.element(0)
    assert F2.identity().value == ()


def test_product_group_componentwise():
    z22 = ProductGroup((CyclicGroup(2), CyclicGroup(2)))
    g = z22.element((1, 0))
    h = z22.element((1, 1))
    assert g * h == z22.element((0, 1))
    assert len(z22.elements()) == 4


@settings(max_examples=50)
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1])), max_size=8),
    st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1])), max_size=8),
)
def test_free_group_axioms(raw1, raw2):
    x, y = F2.element(raw1), F2.element(raw2)
    assert (x * y) * y.inverse() == x
    assert (x * y).inverse() == y.inverse() * x.inverse()


def test_element_literal_roundtrips():
    for group, el in [
        (Z3, Z3.element(2)),
        (IntegerGroup(), IntegerGroup().element(-4)),
        (F2, F2.element([("a", 1), ("b", -2)])),
        (ProductGroup((Z3, F2)), ProductGroup((Z3, F2)).element((1, (("a", 1),)))),
    ]:
        assert group.parse(str(el)) == el
        assert group.from_literal(group.to_literal(el)) == el


def test_group_spec_json_roundtrip():
    for group in [Z3, F2, IntegerGroup(), ProductGroup((CyclicGroup(2), CyclicGroup(2)))]:
        assert group_from_json(group_to_json(group)) == group


# -- labelings -------------------------------------------------------------------


GRAPH = SeparatedGraph(
    ["v", "w"], [("e", "v", "w"), ("f", "v", "w")], {"v": [["e"], ["f"]], "w": []}
)


def test_label_of_empty_path_is_identity():
    labeling = Labeling(Z3, {"e": Z3.element(1), "f": Z3.element(2)})
    assert labeling.of_word(GraphPath("v").steps).is_identity


def test_label_of_edge_then_reverse_is_identity():
    labeling = Labeling(Z3, {"e": Z3.element(1), "f": Z3.element(2)})
    path = GraphPath("v", (SignedEdge("e"), SignedEdge("e", True)))
    assert labeling.of_word(path.steps).is_identity


def test_free_label_on_mixed_word():
    labeling = free_labeling(GRAPH)
    word = (SignedEdge("e"), SignedEdge("f", True))
    assert labeling.of_word(word) == labeling.group.element([("e", 1), ("f", -1)])


def test_label_is_multiplicative_and_star_compatible():
    rng = random.Random(3)
    graph = random_separated_graph(rng)
    labeling = random_labeling(rng, graph, Z3)
    from sepgraph.sampling import random_composable_word

    for _ in range(20):
        steps = random_composable_word(rng, graph, max_len=6)
        cut = rng.randint(0, len(steps))
        whole = labeling.of_word(steps)
        assert whole == labeling.of_word(steps[:cut]) * labeling.of_word(steps[cut:])
        reverse = tuple(s.reverse() for s in reversed(steps))
        assert labeling.of_word(reverse) == whole.inverse()


def test_missing_label_raises():
    labeling = Labeling(Z3, {"e": Z3.element(1)})
    with pytest.raises(GroupError, match="missing label"):
        labeling.of_word((SignedEdge("f"),))


@pytest.mark.parametrize("modulus", [0, -3])
def test_cyclic_group_needs_a_positive_modulus(modulus):
    with pytest.raises(GroupError, match="positive modulus"):
        CyclicGroup(modulus)
    with pytest.raises(GroupError, match="positive modulus"):
        group_from_json({"type": "zmod", "n": modulus})


@pytest.mark.parametrize(
    "data",
    [
        [1, 2],
        {"e": [1, 2]},
        {"e": {"n": 1}},
        {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]},
    ],
)
def test_malformed_labeling_json_is_a_group_error(data):
    with pytest.raises(GroupError):
        labeling_from_json(Z3, data)


# -- actions ---------------------------------------------------------------------


def swap_action():
    z2 = CyclicGroup(2)
    two_cycle = SeparatedGraph(
        ["v", "w"], [("a", "v", "w"), ("b", "w", "v")], {"v": [["a"]], "w": [["b"]]}
    )
    ident = GraphMorphism({"v": "v", "w": "w"}, {"a": "a", "b": "b"})
    swap = GraphMorphism({"v": "w", "w": "v"}, {"a": "b", "b": "a"})
    return two_cycle, GraphAction(z2, {z2.element(0): ident, z2.element(1): swap})


def test_trivial_action_is_free():
    graph = GRAPH
    one = CyclicGroup(1)
    ident = GraphMorphism({v: v for v in graph.vertices}, {e.id: e.id for e in graph.edges})
    action = GraphAction(one, {one.identity(): ident})
    assert check_action(action, graph) == []
    assert is_free(action, graph)


def test_translation_action_is_free():
    z3 = CyclicGroup(3)
    cayley = cayley_separated_graph(z3, [z3.element(1)])
    action = translation_action(cayley)
    assert check_action(action, cayley.graph) == []
    assert is_free(action, cayley.graph)


def test_homomorphism_violation_is_caught():
    graph, action = swap_action()
    z2 = action.group
    broken = GraphAction(
        z2,
        {
            z2.element(0): action.table[z2.element(1)],
            z2.element(1): action.table[z2.element(1)],
        },
    )
    assert check_action(broken, graph)


def test_emn_admits_no_free_action():
    # all edges run v -> w, so no automorphism can move v; nontrivial groups
    # act with fixed points and a vertex swap is not even an automorphism
    emn = SeparatedGraph(
        ["v", "w"],
        [("e1", "v", "w"), ("e2", "v", "w"), ("f1", "v", "w")],
        {"v": [["e1", "e2"], ["f1"]], "w": []},
    )
    z2 = CyclicGroup(2)
    ident = GraphMorphism({"v": "v", "w": "w"}, {e.id: e.id for e in emn.edges})
    swap_vertices = GraphMorphism({"v": "w", "w": "v"}, {e.id: e.id for e in emn.edges})
    assert check_action(GraphAction(z2, {z2.element(0): ident, z2.element(1): swap_vertices}), emn)
    swap_edges = GraphMorphism({"v": "v", "w": "w"}, {"e1": "e2", "e2": "e1", "f1": "f1"})
    action = GraphAction(z2, {z2.element(0): ident, z2.element(1): swap_edges})
    assert check_action(action, emn) == []
    assert not is_free(action, emn)


def test_orbits_have_group_size_under_free_action():
    graph, action = swap_action()
    for v in graph.vertices:
        orbit = {action.apply_vertex(g, v) for g in action.group.elements()}
        assert len(orbit) == action.group.order


def test_action_json_roundtrip():
    graph, action = swap_action()
    data = action_to_json(action)
    back = action_from_json(data)
    assert back.group == action.group
    for g in action.group.elements():
        assert back.table[g].vmap == action.table[g].vmap
        assert back.table[g].emap == action.table[g].emap


def test_labeling_json_roundtrip():
    labeling = Labeling(Z3, {"e": Z3.element(1), "f": Z3.element(2)})
    assert labeling_from_json(Z3, labeling_to_json(labeling)).by_edge == labeling.by_edge


# -- reconstruction of free actions ----------------------------------------------


def test_gross_tucker_trivial_group():
    graph = GRAPH
    one = CyclicGroup(1)
    ident = GraphMorphism({v: v for v in graph.vertices}, {e.id: e.id for e in graph.edges})
    result = gross_tucker(graph, GraphAction(one, {one.identity(): ident}))
    assert result.quotient == graph
    assert all(g.is_identity for g in result.labeling.by_edge.values())
    assert check_isomorphism(result.iso, result.skew.graph, graph)


def test_gross_tucker_swap_example():
    graph, action = swap_action()
    result = gross_tucker(graph, action)
    assert result.quotient.vertices == ("v",)
    assert [(e.src, e.dst) for e in result.quotient.edges] == [("v", "v")]
    (label,) = result.labeling.by_edge.values()
    assert not label.is_identity
    assert check_isomorphism(result.iso, result.skew.graph, graph)
    assert is_equivariant_iso(result, action)
    assert result.iso.vmap == {"v@0": "v", "v@1": "w"}
    assert result.iso.emap == {"a@0": "a", "a@1": "b"}


def test_gross_tucker_on_cayley_graph():
    z3 = CyclicGroup(3)
    cayley = cayley_separated_graph(z3, [z3.element(1)])
    result = gross_tucker(cayley.graph, translation_action(cayley))
    assert len(result.quotient.vertices) == 1
    assert len(result.quotient.edges) == 1
    (label,) = result.labeling.by_edge.values()
    assert label == z3.element(1)
    assert check_isomorphism(result.iso, result.skew.graph, cayley.graph)


def test_gross_tucker_rejects_non_free_actions():
    emn = SeparatedGraph(
        ["v", "w"],
        [("e1", "v", "w"), ("e2", "v", "w")],
        {"v": [["e1", "e2"]], "w": []},
    )
    z2 = CyclicGroup(2)
    ident = GraphMorphism({"v": "v", "w": "w"}, {"e1": "e1", "e2": "e2"})
    swap_edges = GraphMorphism({"v": "v", "w": "w"}, {"e1": "e2", "e2": "e1"})
    action = GraphAction(z2, {z2.element(0): ident, z2.element(1): swap_edges})
    with pytest.raises(GroupError, match="fixes vertex"):
        gross_tucker(emn, action)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3]))
def test_gross_tucker_roundtrip_on_random_skew_products(seed, order):
    rng = random.Random(seed)
    graph = random_separated_graph(rng, max_vertices=3, max_edges=5)
    group = CyclicGroup(order)
    skew = skew_product(graph, random_labeling(rng, graph, group))
    action = translation_action(skew)
    result = gross_tucker(skew.graph, action)
    assert check_isomorphism(result.iso, result.skew.graph, skew.graph)
    assert is_equivariant_iso(result, action)

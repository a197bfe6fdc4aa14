import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepgraph.graphs import (
    Edge,
    GraphError,
    GraphMorphism,
    GraphPath,
    SeparatedGraph,
    SignedEdge,
    check_isomorphism,
    check_path,
    concat_paths,
    forward_path,
    graph_from_json,
    graph_to_json,
    quotient_graph,
    skew_path,
    skew_product,
    validate,
)
from sepgraph.groups import (
    CyclicGroup,
    GraphAction,
    Labeling,
    cayley_separated_graph,
    translation_action,
)
from sepgraph.sampling import random_separated_graph


def cuntz_graph(n):
    edges = [Edge(f"a{i}", "v", "v") for i in range(1, n + 1)]
    return SeparatedGraph(["v"], edges, {"v": [[e.id] for e in edges]})


TWO_CYCLE = SeparatedGraph(
    ["v", "w"], [("a", "v", "w"), ("b", "w", "v")], {"v": [["a"]], "w": [["b"]]}
)


# -- validation ---------------------------------------------------------------


def test_cuntz_graph_is_valid():
    assert validate(cuntz_graph(4)) == []


def test_empty_graph_is_valid():
    assert validate(SeparatedGraph([], [], {})) == []


def test_uncovered_edge_is_reported():
    graph = SeparatedGraph(["v"], [("a", "v", "v"), ("b", "v", "v")], {"v": [["a"]]})
    problems = validate(graph)
    assert any("uncovered" in p and "'b'" in p for p in problems)


def test_overlapping_cells_are_reported():
    graph = SeparatedGraph(["v"], [("a", "v", "v")], {"v": [["a"], ["a"]]})
    assert any("more than one" in p for p in validate(graph))


def test_foreign_edge_in_cell_is_reported():
    graph = SeparatedGraph(
        ["v", "w"], [("a", "v", "w")], {"v": [], "w": [["a"]]}
    )
    problems = validate(graph)
    assert any("its source is" in p for p in problems)


def test_sinks_get_empty_cell_lists():
    graph = SeparatedGraph(["v", "w"], [("a", "v", "w")], {"v": [["a"]]})
    assert graph.separation["w"] == ()
    assert validate(graph) == []


def test_operations_refuse_invalid_graphs():
    broken = SeparatedGraph(["v"], [("a", "v", "v")], {"v": []})
    with pytest.raises(GraphError):
        broken.require_valid()


# -- paths ---------------------------------------------------------------------


def test_path_source_and_range():
    path = forward_path(TWO_CYCLE, ["a", "b"])
    assert path.source(TWO_CYCLE) == "v"
    assert path.range(TWO_CYCLE) == "v"


def test_empty_path_is_its_vertex():
    path = GraphPath("v")
    assert path.source(TWO_CYCLE) == path.range(TWO_CYCLE) == "v"


def test_star_steps_reverse_endpoints():
    star = SignedEdge("a", True)
    assert TWO_CYCLE.source(star) == "w"
    assert TWO_CYCLE.range(star) == "v"


def test_signed_edge_value_semantics():
    e, e_star = SignedEdge("a"), SignedEdge("a", True)
    assert e.star is False and e == SignedEdge("a", False)
    assert e != e_star and e != SignedEdge("b")
    assert hash(e) == hash(SignedEdge("a", False))
    assert len({e, e_star, SignedEdge("a"), SignedEdge("a", True)}) == 2
    assert e.reverse() == e_star and e_star.reverse() == e
    assert e.literal() == "a" and e_star.literal() == "a*"
    assert {(e, e_star): 1}[(SignedEdge("a"), SignedEdge("a", True))] == 1


def test_malformed_path_raises():
    with pytest.raises(GraphError):
        check_path(TWO_CYCLE, GraphPath("v", (SignedEdge("a"), SignedEdge("a"))))


# -- skew products ---------------------------------------------------------------


def test_one_loop_skew_by_z2():
    graph = cuntz_graph(1)
    z2 = CyclicGroup(2)
    skew = skew_product(graph, Labeling(z2, {"a1": z2.element(1)}))
    assert set(skew.graph.vertices) == {"v@0", "v@1"}
    by_id = {e.id: e for e in skew.graph.edges}
    assert by_id["a1@0"].src == "v@0" and by_id["a1@0"].dst == "v@1"
    assert by_id["a1@1"].src == "v@1" and by_id["a1@1"].dst == "v@0"


def test_trivial_group_skew_is_isomorphic_to_input():
    graph = TWO_CYCLE
    one = CyclicGroup(1)
    skew = skew_product(graph, Labeling(one, {"a": one.identity(), "b": one.identity()}))
    iso = GraphMorphism(
        {name: pair[0] for name, pair in skew.vertex_pair.items()},
        {name: pair[0] for name, pair in skew.edge_pair.items()},
    )
    assert check_isomorphism(iso, skew.graph, graph)


def test_skew_preserves_out_degrees():
    rng = random.Random(5)
    graph = random_separated_graph(rng)
    z3 = CyclicGroup(3)
    skew = skew_product(graph, Labeling(z3, {e.id: z3.element(1) for e in graph.edges}))
    for (v, g), name in skew.vertex_name.items():
        assert len(skew.graph.out_edges(name)) == len(graph.out_edges(v))


def test_cuntz_skew_is_cayley():
    z3 = CyclicGroup(3)
    cayley = cayley_separated_graph(z3, [z3.element(1), z3.element(2)])
    graph = cuntz_graph(2)
    labeling = Labeling(z3, {"a1": z3.element(1), "a2": z3.element(2)})
    skew = skew_product(graph, labeling)
    assert skew.graph == cayley.graph


def test_skew_requires_finite_group():
    from sepgraph.groups import IntegerGroup

    graph = cuntz_graph(1)
    with pytest.raises(GraphError, match="not finite"):
        skew_product(graph, Labeling(IntegerGroup(), {"a1": IntegerGroup().element(1)}))


# -- skew paths -------------------------------------------------------------------


def z3_two_cycle_skew():
    z3 = CyclicGroup(3)
    labeling = Labeling(z3, {"a": z3.element(1), "b": z3.element(0)})
    return skew_product(TWO_CYCLE, labeling), z3


def test_skew_path_empty():
    skew, z3 = z3_two_cycle_skew()
    lifted = skew_path(skew, GraphPath("v"), z3.element(2))
    assert lifted.base == "v@2" and lifted.steps == ()


def test_skew_path_single_edge():
    skew, z3 = z3_two_cycle_skew()
    lifted = skew_path(skew, forward_path(TWO_CYCLE, ["a"]), z3.element(1))
    assert [s.edge for s in lifted.steps] == ["a@1"]


def test_skew_path_two_steps_twists_by_label():
    skew, z3 = z3_two_cycle_skew()
    lifted = skew_path(skew, forward_path(TWO_CYCLE, ["a", "b"]), z3.element(0))
    assert [s.edge for s in lifted.steps] == ["a@0", "b@1"]


def test_skew_path_respects_concatenation():
    skew, z3 = z3_two_cycle_skew()
    mu = forward_path(TWO_CYCLE, ["a"])
    nu = forward_path(TWO_CYCLE, ["b", "a"])
    g = z3.element(2)
    whole = skew_path(skew, concat_paths(TWO_CYCLE, mu, nu), g)
    first = skew_path(skew, mu, g)
    second = skew_path(skew, nu, g * skew.labeling.of_word(mu.steps))
    assert whole.steps == first.steps + second.steps


def test_skew_path_rejects_star_steps():
    skew, z3 = z3_two_cycle_skew()
    path = GraphPath("w", (SignedEdge("a", True),))
    with pytest.raises(GraphError, match="forward"):
        skew_path(skew, path, z3.element(0))


# -- quotients ---------------------------------------------------------------------


def identity_action(graph, group):
    ident = GraphMorphism(
        {v: v for v in graph.vertices}, {e.id: e.id for e in graph.edges}
    )
    return GraphAction(group, {g: ident for g in group.elements()})


def test_trivial_action_quotient_is_input():
    graph = TWO_CYCLE
    quotient = quotient_graph(graph, identity_action(graph, CyclicGroup(1)))
    iso = GraphMorphism(
        {v: quotient.vertex_class[v] for v in graph.vertices},
        {e.id: quotient.edge_class[e.id] for e in graph.edges},
    )
    assert check_isomorphism(iso, graph, quotient.graph)


def test_swap_action_quotient_is_one_loop():
    z2 = CyclicGroup(2)
    ident = GraphMorphism({"v": "v", "w": "w"}, {"a": "a", "b": "b"})
    swap = GraphMorphism({"v": "w", "w": "v"}, {"a": "b", "b": "a"})
    action = GraphAction(z2, {z2.element(0): ident, z2.element(1): swap})
    quotient = quotient_graph(TWO_CYCLE, action)
    assert quotient.graph.vertices == ("v",)
    assert [(e.src, e.dst) for e in quotient.graph.edges] == [("v", "v")]
    assert quotient.graph.separation["v"] == (("a",),)


def test_cayley_quotient_by_translation_is_bouquet():
    z2 = CyclicGroup(2)
    cayley = cayley_separated_graph(z2, [z2.element(1)])
    quotient = quotient_graph(cayley.graph, translation_action(cayley))
    assert len(quotient.graph.vertices) == 1
    assert len(quotient.graph.edges) == 1
    (v,) = quotient.graph.vertices
    assert quotient.graph.separation[v] == ((quotient.graph.edges[0].id,),)


def test_quotient_of_skew_by_translation_is_isomorphic_to_base():
    rng = random.Random(12)
    for _ in range(5):
        graph = random_separated_graph(rng)
        z2 = CyclicGroup(2)
        labeling = Labeling(
            z2, {e.id: z2.element(rng.randint(0, 1)) for e in graph.edges}
        )
        skew = skew_product(graph, labeling)
        quotient = quotient_graph(skew.graph, translation_action(skew))
        ident = z2.identity()
        iso = GraphMorphism(
            {v: quotient.vertex_class[skew.vertex_name[(v, ident)]] for v in graph.vertices},
            {
                e.id: quotient.edge_class[skew.edge_name[(e.id, ident)]]
                for e in graph.edges
            },
        )
        assert check_isomorphism(iso, graph, quotient.graph)


# -- isomorphism checking --------------------------------------------------------


def test_identity_is_isomorphism():
    graph = cuntz_graph(3)
    ident = GraphMorphism(
        {v: v for v in graph.vertices}, {e.id: e.id for e in graph.edges}
    )
    assert check_isomorphism(ident, graph, graph)


def test_partial_edge_map_is_rejected():
    graph = cuntz_graph(2)
    f = GraphMorphism({"v": "v"}, {"a1": "a1"})
    assert not check_isomorphism(f, graph, graph)


def test_cell_mixing_map_is_rejected():
    source = SeparatedGraph(
        ["v"], [("a", "v", "v"), ("b", "v", "v")], {"v": [["a"], ["b"]]}
    )
    target = SeparatedGraph(
        ["v"], [("a", "v", "v"), ("b", "v", "v")], {"v": [["a", "b"]]}
    )
    f = GraphMorphism({"v": "v"}, {"a": "a", "b": "b"})
    assert not check_isomorphism(f, source, target)


# -- serialization ----------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_graph_json_roundtrip(seed):
    graph = random_separated_graph(random.Random(seed))
    data = json.loads(json.dumps(graph_to_json(graph)))
    assert graph_from_json(data) == graph


def test_loader_rejects_invalid_graphs():
    data = {"vertices": ["v"], "edges": [{"id": "a", "src": "v", "dst": "v"}], "separation": {}}
    with pytest.raises(GraphError):
        graph_from_json(data)

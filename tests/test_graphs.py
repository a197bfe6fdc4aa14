import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepgraph import graphs
from sepgraph.algebra import LeavittContext, NormalWord
from sepgraph.crossed import skew_path
from sepgraph.graphs import (
    Edge,
    GraphError,
    GraphMorphism,
    SeparatedGraph,
    SignedEdge,
    check_isomorphism,
    graph_from_json,
    graph_to_json,
    quotient_graph,
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
from sepgraph.sampling import random_labeling, random_normal_word, random_separated_graph

from nonabelian import S3


def cuntz_graph(n):
    edges = [Edge(f"a{i}", "v", "v") for i in range(1, n + 1)]
    return SeparatedGraph(["v"], edges, {"v": [[e.id] for e in edges]})


TWO_CYCLE = SeparatedGraph(
    ["v", "w"], [("a", "v", "w"), ("b", "w", "v")], {"v": [["a"]], "w": [["b"]]}
)


# -- validation ---------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def assert_rejected(parts, problems):
    """``validate`` finds exactly these problems in the parts, and building a
    graph from them raises all of them, in the same order."""
    assert validate(*parts) == problems
    with pytest.raises(GraphError) as caught:
        SeparatedGraph(*parts)
    assert str(caught.value) == "invalid separated graph: " + "; ".join(problems)


# invalid parts (vertices, edges, separation) -> every problem, in report order
INVALID = {
    "misplaced": (
        (
            ["v", "w"],
            [Edge("a", "v", "w"), Edge("b", "v", "w"), Edge("c", "w", "v")],
            {"v": [["a", "b"], ["x"]], "w": [["a"]]},
        ),
        [
            "separation cell at 'v' names unknown edge 'x'",
            "edge 'a' listed at 'w' but its source is 'v'",
            "edge 'a' appears in more than one separation cell",
            "uncovered edge 'c': missing from every cell at 'w'",
        ],
    ),
    "duplicate ids": (
        (["v", "v"], [Edge("a", "v", "v"), Edge("a", "u", "v")], {"v": [["a"]]}),
        ["duplicate vertex id 'v'", "duplicate edge id 'a'", "edge 'a' has unknown source 'u'"],
    ),
    "golden": (
        graphs.read_graph_json(json.loads((GOLDEN / "invalid.json").read_text())),
        [
            "duplicate vertex id 'v'",
            "edge 'a' has unknown range 'x'",
            "separation listed at unknown vertex 'u'",
            "empty separation cell at vertex 'v' (index 1)",
            "uncovered edge 'b': missing from every cell at 'v'",
        ],
    ),
}


@pytest.mark.parametrize("name", INVALID)
def test_construction_raises_the_whole_report_of_validate(name):
    assert_rejected(*INVALID[name])


def test_cuntz_graph_is_valid():
    graph = cuntz_graph(4)
    assert validate(graph.vertices, graph.edges, graph.separation) == []


def test_empty_graph_is_valid():
    assert validate([], [], {}) == []
    assert SeparatedGraph([], [], {}).separation == {}


def test_uncovered_edge_is_reported():
    parts = (["v"], [Edge("a", "v", "v"), Edge("b", "v", "v")], {"v": [["a"]]})
    assert_rejected(parts, ["uncovered edge 'b': missing from every cell at 'v'"])


def test_overlapping_cells_are_reported():
    parts = (["v"], [Edge("a", "v", "v")], {"v": [["a"], ["a"]]})
    assert_rejected(parts, ["edge 'a' appears in more than one separation cell"])


def test_foreign_edge_in_cell_is_reported():
    parts = (["v", "w"], [Edge("a", "v", "w")], {"v": [], "w": [["a"]]})
    assert_rejected(parts, ["edge 'a' listed at 'w' but its source is 'v'"])


def test_sinks_get_empty_cell_lists():
    parts = (["v", "w"], [Edge("a", "v", "w")], {"v": [["a"]]})
    assert validate(*parts) == []
    assert SeparatedGraph(*parts).separation == {"v": (("a",),), "w": ()}


def test_operations_refuse_invalid_graphs():
    # no operation can meet an invalid graph: building one raises
    with pytest.raises(GraphError, match="^invalid separated graph: uncovered edge 'a'"):
        SeparatedGraph(["v"], [("a", "v", "v")], {"v": []})


def test_a_graph_is_validated_once_when_it_is_built(monkeypatch):
    check = graphs.validate
    calls = []

    def counting(vertices, edges, separation):
        calls.append(vertices)
        return check(vertices, edges, separation)

    monkeypatch.setattr(graphs, "validate", counting)
    graph = graph_from_json(graph_to_json(TWO_CYCLE))
    LeavittContext(graph)
    z2 = CyclicGroup(2)
    quotient = quotient_graph(graph, identity_action(graph, z2))
    skew = skew_product(graph, Labeling(z2, {e.id: z2.element(1) for e in graph.edges}))
    built = [graph, quotient.graph, skew.graph]
    assert len(calls) == len(built) and all(v is g.vertices for v, g in zip(calls, built))


# -- paths ---------------------------------------------------------------------


def forward(*edge_ids):
    """The forward path along the given edges, as a word."""
    return NormalWord.of_steps(tuple(map(SignedEdge, edge_ids)))


def test_path_source_and_range():
    path = forward("a", "b")
    assert path.source(TWO_CYCLE) == "v"
    assert path.range(TWO_CYCLE) == "v"


def test_empty_path_is_its_vertex():
    path = NormalWord.of_vertex("v")
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


@pytest.mark.parametrize("seed", range(20))
def test_step_table_agrees_with_the_edges_and_cells(seed):
    graph = random_separated_graph(random.Random(seed), max_vertices=5, max_edges=10)
    table = graph.step_table()
    assert table is graph.step_table()
    assert len(table) == 2 * len(graph.edges)
    for e in graph.edges:
        (cell,) = [
            (v, i) for v, cells in graph.separation.items() for i, c in enumerate(cells) if e.id in c
        ]
        assert graph.cell_of(e.id) == cell
        assert table[SignedEdge(e.id)] == (e.src, e.dst, cell, graph.cell_edges(*cell))
        assert table[SignedEdge(e.id, True)] == (e.dst, e.src, cell, graph.cell_edges(*cell))
    for v in graph.vertices:
        out = [SignedEdge(eid) for eid in graph.out_edges(v)]
        into = [SignedEdge(e.id, True) for e in graph.edges if e.dst == v]
        assert graph.moves(v) == tuple(out + into)
    with pytest.raises(GraphError, match="unknown edge id 'nope'"):
        table[SignedEdge("nope")]
    with pytest.raises(GraphError, match="unknown edge id 'nope'"):
        graph.cell_of("nope")
    with pytest.raises(GraphError, match="unknown vertex id 'nope'"):
        graph.moves("nope")


def test_quote_cuts_a_string_only_past_the_limit():
    whole = "x" * graphs.QUOTE_LIMIT
    assert graphs.quote(whole) == repr(whole)
    assert graphs.quote(whole + "y") == f"{whole!r}... ({len(whole) + 1:,} characters)"
    assert graphs.quote(["y" * 100]) == repr(["y" * 100])


def test_malformed_path_raises():
    skew, z3 = z3_two_cycle_skew()
    with pytest.raises(GraphError, match="malformed path"):
        skew_path(skew, forward("a", "a"), z3.element(0))
    with pytest.raises(GraphError, match="unknown edge id 'c'"):
        skew_path(skew, NormalWord.of_steps((SignedEdge("c", True),)), z3.element(0))
    with pytest.raises(GraphError, match="unknown vertex id 'u'"):
        skew_path(skew, NormalWord.of_vertex("u"), z3.element(0))


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
    from sepgraph.groups import GroupError, IntegerGroup

    graph = cuntz_graph(1)
    with pytest.raises(GroupError, match="'z' is not finite; cannot enumerate its elements"):
        skew_product(graph, Labeling(IntegerGroup(), {"a1": IntegerGroup().element(1)}))


# -- skew paths -------------------------------------------------------------------


def z3_two_cycle_skew():
    z3 = CyclicGroup(3)
    labeling = Labeling(z3, {"a": z3.element(1), "b": z3.element(0)})
    return skew_product(TWO_CYCLE, labeling), z3


def test_skew_path_empty():
    skew, z3 = z3_two_cycle_skew()
    lifted = skew_path(skew, NormalWord.of_vertex("v"), z3.element(2))
    assert lifted == NormalWord.of_vertex("v@2")


def test_skew_path_single_edge():
    skew, z3 = z3_two_cycle_skew()
    lifted = skew_path(skew, forward("a"), z3.element(1))
    assert [s.edge for s in lifted.steps] == ["a@1"]


def test_skew_path_two_steps_twists_by_label():
    skew, z3 = z3_two_cycle_skew()
    lifted = skew_path(skew, forward("a", "b"), z3.element(0))
    assert [s.edge for s in lifted.steps] == ["a@0", "b@1"]


def test_skew_path_respects_concatenation():
    skew, z3 = z3_two_cycle_skew()
    mu = forward("a")
    nu = forward("b", "a")
    g = z3.element(2)
    whole = skew_path(skew, NormalWord.of_steps(mu.steps + nu.steps), g)
    first = skew_path(skew, mu, g)
    second = skew_path(skew, nu, g * skew.labeling.of_word(mu.steps))
    assert whole.steps == first.steps + second.steps


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_skew_path_of_the_adjoint_is_the_adjoint_of_the_lift(seed):
    """Star letters lift backwards: the adjoint of w, lifted from the fiber
    where the lift of w ends, is the lift of w read backwards."""
    rng = random.Random(seed)
    graph = random_separated_graph(rng, max_vertices=3, max_edges=6)
    group = S3() if seed % 2 else CyclicGroup(3)
    skew = skew_product(graph, random_labeling(rng, graph, group))
    word = random_normal_word(rng, LeavittContext(graph), max_len=6, min_len=0)
    g = rng.choice(group.elements())
    end = g * skew.labeling.of_word(word.steps)
    lifted = skew_path(skew, word, g)
    assert lifted.source(skew.graph) == skew.vertex_name[(word.source(graph), g)]
    assert lifted.range(skew.graph) == skew.vertex_name[(word.range(graph), end)]
    assert skew_path(skew, word.adjoint(), end) == lifted.adjoint()


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

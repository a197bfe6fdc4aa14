import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepgraph import groups
from sepgraph.algebra import NormalWord
from sepgraph.graphs import (
    GraphMorphism,
    SeparatedGraph,
    SignedEdge,
    check_isomorphism,
    isomorphism_violations,
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

from nonabelian import S3, exponents

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


def test_a_free_word_past_max_order_letters_is_rejected():
    with pytest.raises(GroupError, match=f"more than {groups.MAX_ORDER} letters"):
        F2.parse(f"a^{groups.MAX_ORDER + 1}")


@pytest.mark.parametrize(
    "literal, ok",
    [("a^5", True), ("a^-3.b^2", True), ("a^6", False), ("a^-6", False), ("a^3.b^-3", False),
     ([("a", 3), ("a", -3)], False)],
)
def test_a_free_word_is_bounded_by_its_letters_before_it_is_built(monkeypatch, literal, ok):
    monkeypatch.setattr(groups, "MAX_ORDER", 5)
    if ok:
        assert F2.from_literal(literal).value
    else:
        with pytest.raises(GroupError, match="more than 5 letters"):
            F2.from_literal(literal)


def test_mixed_groups_raise():
    with pytest.raises(GroupError):
        Z3.element(1) * CyclicGroup(4).element(1)


def test_group_elements_are_values():
    z2, z4 = CyclicGroup(2), CyclicGroup(4)
    assert z2.element(1) == CyclicGroup(2).element(3)
    assert hash(z2.element(1)) == hash(CyclicGroup(2).element(3))
    assert z2.element(1) != z4.element(1)
    with pytest.raises(GroupError, match="different groups"):
        z2.element(1) * z4.element(1)
    assert {F2.generator("a") * F2.generator("b"): 1} == {F2.parse("a.b"): 1}


class Relabeled(CyclicGroup):
    """A group class with CyclicGroup's slot: equal slots, but another group."""


@pytest.mark.parametrize(
    "make,other",
    [
        (lambda: CyclicGroup(2), ProductGroup((CyclicGroup(2),))),
        (lambda: IntegerGroup(), CyclicGroup(1)),
        (lambda: FreeGroup(("a", "b")), FreeGroup(("b", "a"))),
        (lambda: ProductGroup((Z3, IntegerGroup())), ProductGroup((IntegerGroup(), Z3))),
        (lambda: Relabeled(2), CyclicGroup(2)),
    ],
    ids=["zmod", "z", "free", "product", "subclass"],
)
def test_groups_are_immutable_values(make, other):
    group, twin = make(), make()
    assert group is not twin and group == twin and hash(group) == hash(twin)
    assert group != other and other != group
    assert pickle.loads(pickle.dumps(group)) == group and eval(repr(group)) == group
    with pytest.raises(AttributeError):
        group.modulus = 3
    with pytest.raises(AttributeError):
        del group.modulus


def test_product_group_needs_a_factor():
    with pytest.raises(GroupError, match="needs a factor"):
        ProductGroup(())
    with pytest.raises(GroupError, match="needs a factor"):
        group_from_json({"type": "product", "factors": []})


def test_groups_too_large_to_enumerate_are_rejected_before_any_allocation():
    huge = CyclicGroup(10**12)
    square = ProductGroup((CyclicGroup(10**6), CyclicGroup(10**6)))
    assert huge.order == square.order == 10**12
    for group in (huge, square):
        with pytest.raises(GroupError, match=f"has more than {groups.MAX_ORDER} elements"):
            group.elements()


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


@settings(max_examples=50)
@given(
    st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=3, unique=True),
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=6),
)
def test_accepted_free_generator_names_read_back(names, raw):
    try:
        group = FreeGroup(tuple(names))
    except GroupError:
        return  # rejected names are tested separately
    x = group.element([(names[i % len(names)], sign) for i, sign in raw])
    assert group.parse(str(x)) == x


@pytest.mark.parametrize(
    "names", [("",), ("a", "a"), ("a.b",), ("a^2",), ("1",), (" a",), ("a\n",)]
)
def test_free_generator_names_that_would_not_read_back_are_rejected(names):
    with pytest.raises(GroupError, match="free generator name"):
        FreeGroup(names)
    with pytest.raises(GroupError, match="free generator name"):
        group_from_json({"type": "free", "generators": list(names)})


def test_group_spec_json_roundtrip():
    for group in [Z3, F2, IntegerGroup(), ProductGroup((CyclicGroup(2), CyclicGroup(2)))]:
        assert group_from_json(group_to_json(group)) == group


# -- labelings -------------------------------------------------------------------


GRAPH = SeparatedGraph(
    ["v", "w"], [("e", "v", "w"), ("f", "v", "w")], {"v": [["e"], ["f"]], "w": []}
)


@pytest.mark.parametrize(
    "group, literal",
    [(FreeGroup(("a",)), "x" * 5000),
     (ProductGroup((Z3, Z3)), "x" * 5000),
     (ProductGroup((Z3, Z3)), "(" + "0," * 3000 + "0)")],
    ids=["free-generator", "product-parentheses", "product-components"],
)
def test_a_long_literal_is_quoted_in_a_short_message(group, literal):
    with pytest.raises(GroupError, match=r"\.\.\. \([\d,]+ characters\)") as info:
        group.from_literal(literal)
    assert len(str(info.value)) < 200


def test_label_of_empty_path_is_identity():
    labeling = Labeling(Z3, {"e": Z3.element(1), "f": Z3.element(2)})
    assert labeling.of_word(NormalWord.of_vertex("v").steps).is_identity


def test_label_of_edge_then_reverse_is_identity():
    labeling = Labeling(Z3, {"e": Z3.element(1), "f": Z3.element(2)})
    path = NormalWord.of_steps((SignedEdge("e"), SignedEdge("e", True)))
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


@pytest.mark.parametrize(
    "group,literal",
    [
        (Z3, 2.5),
        (Z3, True),
        (Z3, 1.0),
        (IntegerGroup(), 2.5),
        (IntegerGroup(), False),
        (F2, [["a", 1.7]]),
        (F2, [["a", True]]),
        (ProductGroup((Z3, F2)), [1.5, "a"]),
        (ProductGroup((Z3, Z3)), [1, 0, 1]),
    ],
)
def test_json_group_values_are_ints_not_bools_or_floats(group, literal):
    with pytest.raises(GroupError):
        group.from_literal(literal)
    with pytest.raises(GroupError):
        labeling_from_json(group, {"e": literal})


@pytest.mark.parametrize("modulus", [2.5, True, "3"])
def test_zmod_spec_needs_an_int_modulus(modulus):
    with pytest.raises(GroupError, match="positive modulus"):
        group_from_json({"type": "zmod", "n": modulus})


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "zmod"},
        {"type": "free", "generators": 3},
        {"type": "product", "factors": 3},
        {"type": "product", "factors": [{"type": "zmod"}]},
        {"type": "free", "generators": "ab"},
        {"type": "free", "generators": ["a", 1]},
    ],
)
def test_group_spec_missing_or_mistyped_fields_are_group_errors(spec):
    with pytest.raises(GroupError, match="malformed group spec"):
        group_from_json(spec)


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
        orbit = {action.table[g].vmap[v] for g in action.group.elements()}
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


def test_gross_tucker_on_a_nonabelian_cayley_graph():
    group = S3()
    cayley = cayley_separated_graph(group, group.generating_set())
    action = translation_action(cayley)
    assert check_action(action, cayley.graph) == []
    result = gross_tucker(cayley.graph, action)
    assert sorted(result.labeling.by_edge.values(), key=str) == sorted(group.generating_set(), key=str)
    assert check_isomorphism(result.iso, result.skew.graph, cayley.graph)
    assert is_equivariant_iso(result, action)


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


def test_gross_tucker_checks_the_table_once(monkeypatch):
    calls = []
    walk = groups.walk_orbits

    def counted(points, steps, group):
        calls.append(tuple(points))
        return walk(points, steps, group)

    monkeypatch.setattr(groups, "walk_orbits", counted)
    graph, action = swap_action()
    gross_tucker(graph, action)
    assert calls == [("v", "w"), ("a", "b")]  # one walk of the vertices, one of the edges


def test_is_equivariant_iso_reads_every_generator():
    # over Z/2 x Z/2, an action that moves by one factor only agrees with the
    # translation on the other factor's generator alone
    group = ProductGroup((CyclicGroup(2), CyclicGroup(2)))
    cayley = cayley_separated_graph(group, group.generating_set())
    action = translation_action(cayley)
    result = gross_tucker(cayley.graph, action)
    assert is_equivariant_iso(result, action)
    ident = GraphMorphism({v: v for v in cayley.graph.vertices}, {e.id: e.id for e in cayley.graph.edges})
    for s in group.generating_set():
        one_factor = GraphAction(group, {**action.table, s: ident})
        assert check_action(one_factor, cayley.graph) == []
        assert not is_equivariant_iso(result, one_factor)


def test_generators_whose_maps_break_a_relation_are_caught():
    # over Z/2, a 4-cycle gives carriers 0, 1, 0, 1 that never clash, yet squares
    # to no identity; over Z/3, a 2-cycle clashes at once
    cycle = SeparatedGraph("abcd", [], {})
    four = GraphMorphism(dict(zip("abcd", "bcda")), {})
    assert check_action(GraphAction(CyclicGroup(2), {CyclicGroup(2).element(1): four}), cycle)
    two = GraphMorphism(dict(zip("abcd", "badc")), {})
    assert check_action(GraphAction(CyclicGroup(3), {CyclicGroup(3).element(1): two}), cycle)
    assert check_action(GraphAction(CyclicGroup(4), {CyclicGroup(4).element(1): two}), cycle) == []


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(
        [CyclicGroup(1), CyclicGroup(2), CyclicGroup(3), ProductGroup((CyclicGroup(2),) * 2), S3()]
    ),
)
def test_gross_tucker_roundtrip_on_random_skew_products(seed, group):
    rng = random.Random(seed)
    graph = random_separated_graph(rng, max_vertices=3, max_edges=5)
    skew = skew_product(graph, random_labeling(rng, graph, group))
    action = translation_action(skew)
    result = gross_tucker(skew.graph, action)
    assert check_isomorphism(result.iso, result.skew.graph, skew.graph)
    assert is_equivariant_iso(result, action)


# -- the generator check against an all-pairs oracle -------------------------------

ACTION_GROUPS = [
    CyclicGroup(1),
    CyclicGroup(2),
    CyclicGroup(3),
    CyclicGroup(4),
    CyclicGroup(6),
    ProductGroup((CyclicGroup(2), CyclicGroup(2))),
    ProductGroup((CyclicGroup(2), ProductGroup((CyclicGroup(3), CyclicGroup(1))))),
    S3(),  # nonabelian: tells table(g)∘table(s) = table(gs) from table(sg)
]


def all_pairs_oracle(action, graph):
    """Is the table an action, read off the definition: every entry an
    automorphism, and every pair composed.  A table of the generators alone is
    first completed, each missing element's entry the product of the entries on
    a breadth-first walk of the group; it is an action iff its completion is."""
    group, table = action.group, dict(action.table)
    elements = group.elements()
    one = group.identity()
    ident = GraphMorphism({v: v for v in graph.vertices}, {e.id: e.id for e in graph.edges})
    table.setdefault(one, ident)
    reached = [one]
    for g in reached:
        for s in group.generating_set():
            if s * g not in reached:
                reached.append(s * g)
                if s * g not in table:
                    table[s * g] = table[s].compose(table[g])
    return (
        set(table) == set(elements)
        and table[one] == ident
        and all(not isomorphism_violations(table[g], graph, graph) for g in elements)
        and all(table[g].compose(table[h]) == table[g * h] for g in elements for h in elements)
    )


def leaf_values(group, value):
    """The components of a value along the cyclic factors of nested products,
    or S3's exponents of its generators."""
    if isinstance(group, S3):
        return exponents(value)
    if isinstance(group, ProductGroup):
        return [x for f, v in zip(group.factors, value) for x in leaf_values(f, v)]
    return [value]


def fibre_map(skew, image):
    """(x, h) -> (x, image[h]) on vertices and edges: an automorphism when every
    label is the identity, or when ``image`` is a left translation."""
    return GraphMorphism(
        {name: skew.vertex_name[(x, image[h])] for name, (x, h) in skew.vertex_pair.items()},
        {name: skew.edge_name[(e, image[h])] for name, (e, h) in skew.edge_pair.items()},
    )


def random_skew(rng, group, kind):
    elements = group.elements()
    if kind == "cayley":
        generators = rng.sample(elements, rng.randint(1, min(2, len(elements))))
        return cayley_separated_graph(group, generators)
    base = random_separated_graph(rng, max_vertices=2, max_edges=3)
    if kind == "copies":  # |G| disjoint copies of the base, permuted by any fibre map
        return skew_product(base, Labeling(group, {e.id: group.identity() for e in base.edges}))
    return skew_product(base, random_labeling(rng, base, group))


def random_table(rng, skew, kind):
    group = skew.group
    elements = group.elements()
    table = translation_action(skew).morphisms()
    pool = [rng.choice(list(table.values()))]
    for _ in range(2):
        pool.append(fibre_map(skew, dict(zip(elements, rng.sample(elements, len(elements))))))
    ident = table[group.identity()]
    if kind in ("word", "generators"):  # g -> product of A_i^(g_i) in a random factor order
        count = len(leaf_values(group, group._identity()))
        images = [rng.choice(pool) for _ in range(count)]
        order = rng.sample(range(count), count)
        for g in elements:
            powers = leaf_values(group, g.value)
            f = ident
            for i in order:
                for _ in range(powers[i]):
                    f = f.compose(images[i])
            table[g] = f
        if kind == "generators":  # only the generators' entries: an action iff they satisfy the relations
            table = {s: table[s] for s in group.generating_set()}
    elif kind == "translation generators":  # the table translation_action holds
        table = translation_action(skew).table
    elif kind == "mutated generators":  # one generator's entry replaced
        table = {s: table[s] for s in group.generating_set()}
        table[rng.choice(group.generating_set())] = rng.choice(pool)
    elif kind == "shuffled":  # automorphisms entry by entry, rarely a homomorphism
        table = {g: ident if g.is_identity else rng.choice(pool) for g in elements}
    elif kind == "identity":
        table[group.identity()] = rng.choice(pool)
    elif kind in ("partial", "extra key"):
        g = rng.choice(elements)
        vmap, emap = dict(table[g].vmap), dict(table[g].emap)
        target = rng.choice([vmap, emap] if emap else [vmap])
        if kind == "partial":
            del target[rng.choice(sorted(target))]
        else:
            target["zz"] = rng.choice(sorted(target.values()))
        table[g] = GraphMorphism(vmap, emap)
    elif kind == "foreign entry":
        table[CyclicGroup(7).element(1)] = ident
    return table


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ACTION_GROUPS),
    st.sampled_from(["cayley", "copies", "skew"]),
    st.sampled_from(
        ["translation", "word", "generators", "translation generators", "mutated generators", "shuffled",
         "identity", "partial", "extra key", "foreign entry"]
    ),
    st.integers(min_value=0, max_value=10**6),
)
def test_generator_check_agrees_with_the_all_pairs_oracle(group, graph_kind, table_kind, seed):
    rng = random.Random(seed)
    skew = random_skew(rng, group, graph_kind)
    action = GraphAction(group, random_table(rng, skew, table_kind))
    assert (check_action(action, skew.graph) == []) == all_pairs_oracle(action, skew.graph)


def test_the_free_action_round_trip_costs_linear_work_in_the_group_order(monkeypatch):
    # group multiplications plus compositions, from the translation action to the
    # equivariance check: a doubling of the order may double them, not square them
    base = SeparatedGraph(
        ["v", "w"], [("a", "v", "w"), ("b", "w", "v")], {"v": [["a"]], "w": [["b"]]}
    )
    count = [0]
    mul, compose = groups.GroupElement.__mul__, GraphMorphism.compose

    def counted_mul(self, other):
        count[0] += 1
        return mul(self, other)

    def counted_compose(self, inner):
        count[0] += 1
        return compose(self, inner)

    def work(order):
        group = CyclicGroup(order)
        skew = skew_product(base, Labeling(group, {"a": group.element(1), "b": group.element(3)}))
        monkeypatch.setattr(groups.GroupElement, "__mul__", counted_mul)
        monkeypatch.setattr(GraphMorphism, "compose", counted_compose)
        count[0] = 0
        action = translation_action(skew)
        assert is_equivariant_iso(gross_tucker(skew.graph, action), action)
        monkeypatch.undo()
        return count[0]

    assert work(128) <= 2.2 * work(64)


def test_a_trivial_action_on_many_orbits_costs_linear_work(monkeypatch):
    # N one-point orbits of Z/N, each with the subgroup H = Z/N: H is closed once, not N times
    count = [0]
    mul = groups.GroupElement.__mul__

    def counted_mul(self, other):
        count[0] += 1
        return mul(self, other)

    def work(order):
        group = CyclicGroup(order)
        points = [f"v{i}" for i in range(order)]
        action = GraphAction(group, {group.element(1): GraphMorphism({v: v for v in points}, {})})
        graph = SeparatedGraph(points, [], {})
        monkeypatch.setattr(groups.GroupElement, "__mul__", counted_mul)
        count[0] = 0
        assert check_action(action, graph) == []
        monkeypatch.undo()
        return count[0]

    assert work(200) <= 2.2 * work(100)
    assert work(400) <= 2.2 * work(200)


def test_an_infinite_group_is_refused_by_elements_alone():
    graph, action = swap_action()
    z = IntegerGroup()
    infinite = GraphAction(z, {z.element(1): action.table[CyclicGroup(2).element(1)]})
    calls = [z.generating_set, infinite.morphisms, lambda: action_to_json(infinite),
             lambda: check_action(infinite, graph), lambda: cayley_separated_graph(F2, [F2.generator("a")])]
    for call in calls:
        with pytest.raises(GroupError, match=r"^'(z|free\(a,b\))' is not finite; cannot enumerate its elements"):
            call()


def test_a_long_list_of_missing_entries_is_cut():
    group = ProductGroup((CyclicGroup(2),) * 8)  # eight generators, none in the table
    shown = ", ".join(repr("(" + ",".join("1" if j == i else "0" for j in range(8)) + ")") for i in range(5))
    problems = check_action(GraphAction(group, {}), GRAPH)
    assert problems == [f"action table is missing entries for [{shown}] and 3 more"]


NESTED = ProductGroup((CyclicGroup(5), ProductGroup((CyclicGroup(4), CyclicGroup(3))), CyclicGroup(2)))


@pytest.mark.parametrize("group", [*ACTION_GROUPS, NESTED], ids=str)
def test_generating_set_generates_the_group(group):
    generators = group.generating_set()
    assert all(s.group == group for s in generators)
    reached, frontier = {group.identity()}, [group.identity()]
    while frontier:
        frontier = {g * s for g in frontier for s in generators} - reached
        reached |= frontier
    assert reached == set(group.elements())

"""The acceptance suite: ten self-contained criteria over the whole stack.

Each criterion builds its own inputs from a seed, checks exact identities
(all comparisons are equality; the arithmetic is exact), and reports a
result with its wall-clock time.  ``run_all`` drives the suite; the CLI
``selftest`` command and the pytest acceptance module both call into here.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    LeavittContext,
    NormalWord,
    component,
    decompose,
    element_literal,
    from_word,
    induced_automorphism,
    reduce_word,
    rebase,
    vertex_element,
    word_degree,
    sum_of,
)
from .expectation import beta_element, cell_subgraph, expect, n_mu, phi_ordinary
from .graphs import (
    GraphMorphism,
    SeparatedGraph,
    SignedEdge,
    check_isomorphism,
    forward_path,
    quotient_graph,
    skew_product,
)
from .groups import (
    CyclicGroup,
    Labeling,
    ProductGroup,
    bouquet_graph,
    cayley_separated_graph,
    free_labeling,
    gross_tucker,
    is_equivariant_iso,
    translation_action,
)
from .crossed import verify_iso
from .sampling import (
    random_composable_word,
    random_element,
    random_forward_path,
    random_labeling,
    random_ordinary_graph,
    random_reduced_free_word,
    random_separated_graph,
)

DEFAULT_SEED = 271828


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" -- {self.detail}" if self.detail and not self.passed else ""
        return f"{status} criterion {self.number} ({self.name}) [{self.seconds:.2f}s]{extra}"


def _criterion(number, name):
    def wrap(fn):
        def run(seed: int = DEFAULT_SEED) -> CriterionResult:
            start = time.perf_counter()
            try:
                detail = fn(random.Random(seed * 1009 + number))
                passed, detail = True, detail or ""
            except AssertionError as exc:
                passed, detail = False, str(exc)
            return CriterionResult(number, name, passed, time.perf_counter() - start, detail)

        run.number = number
        run.criterion_name = name
        return run

    return wrap


def _fig5_graph() -> SeparatedGraph:
    return SeparatedGraph(
        ["v", "w1", "w2", "w3"],
        [("al1", "v", "w1"), ("al2", "v", "w2"), ("be1", "v", "w1"), ("be2", "v", "w3")],
        {"v": [["al1", "al2"], ["be1", "be2"]]},
    )


def _bouquet_context(n: int) -> LeavittContext:
    return LeavittContext(bouquet_graph(n))


def _word_to_element(ctx: LeavittContext, letters, vertex="v") -> AlgebraElement:
    if not letters:
        return vertex_element(ctx, vertex)
    steps = tuple(SignedEdge(gen, sign < 0) for gen, sign in letters)
    return from_word(ctx, NormalWord.of_steps(steps))


def _free_concat(w1, w2):
    word = list(w1)
    for letter in w2:
        if word and word[-1] == (letter[0], -letter[1]):
            word.pop()
        else:
            word.append(letter)
    return tuple(word)


@_criterion(1, "free-group model on the two-loop singleton graph")
def criterion_1(rng) -> str:
    ctx = _bouquet_context(2)
    letters = ("a1", "a2")
    words = [()]
    frontier = [()]
    for _ in range(4):
        frontier = [
            w + ((gen, sign),)
            for w in frontier
            for gen in letters
            for sign in (1, -1)
            if not w or w[-1] != (gen, -sign)
        ]
        words.extend(frontier)
    elements = {w: _word_to_element(ctx, w) for w in words}
    checked = 0
    for w1 in words:
        x = elements[w1]
        for w2 in words:
            product = x * elements[w2]
            expected = _word_to_element(ctx, _free_concat(w1, w2))
            assert product == expected, (
                f"product of {w1} and {w2} is {element_literal(product)}"
            )
            checked += 1
    return f"{checked} products match the free group"


@_criterion(2, "trace on the three-loop singleton graph")
def criterion_2(rng) -> str:
    ctx = _bouquet_context(3)
    p = vertex_element(ctx, "v")
    assert expect(p) == p, "expectation does not fix the vertex projection"
    for _ in range(500):
        w = random_reduced_free_word(rng, ("a1", "a2", "a3"), max_len=8)
        value = expect(_word_to_element(ctx, w))
        assert value.is_zero, f"expectation of reduced word {w} is {element_literal(value)}"
    return "500 reduced words have zero expectation"


@_criterion(3, "ordinary-graph oracle")
def criterion_3(rng) -> str:
    checked = 0
    for _ in range(50):
        graph = random_ordinary_graph(rng, max_vertices=5, max_edges=8)
        ctx = LeavittContext(graph)
        for _ in range(6):
            mu = random_forward_path(rng, graph, max_len=4)
            # draw nu with the same range so the comparison is not vacuous
            for _ in range(40):
                nu = random_forward_path(rng, graph, max_len=4)
                if nu.range(graph) == mu.range(graph):
                    break
            else:
                nu = mu
            steps = mu.steps + tuple(s.reverse() for s in reversed(nu.steps))
            word = reduce_word(ctx, steps, base=mu.source(graph))
            lhs = expect(word)
            rhs = phi_ordinary(ctx, mu, nu)
            assert lhs == rhs, (
                f"expectation disagrees with the oracle on mu={mu} nu={nu}: "
                f"{element_literal(lhs)} vs {element_literal(rhs)}"
            )
            checked += 1
    return f"{checked} path pairs agree with the closed form"


@_criterion(4, "confluence and change of basis")
def criterion_4(rng) -> str:
    checked = 0
    for _ in range(10):
        graph = random_separated_graph(rng, max_vertices=4, max_edges=8)
        ctx_a = LeavittContext(graph)
        other = {
            (v, i): max(cell)
            for v in graph.vertices
            for i, cell in enumerate(graph.cells(v))
        }
        ctx_b = LeavittContext(graph, other)
        for _ in range(50):
            steps = random_composable_word(rng, graph, max_len=10)
            left = reduce_word(ctx_a, steps, strategy="leftmost")
            right = reduce_word(ctx_a, steps, strategy="rightmost")
            assert left == right, f"strategies disagree on {[s.literal() for s in steps]}"
            via_b = rebase(left, ctx_b)
            direct_b = reduce_word(ctx_b, steps)
            assert via_b == direct_b, "change of basis disagrees with direct reduction"
            assert rebase(via_b, ctx_a) == left, "round trip through the other basis moved"
            checked += 1
    return f"{checked} words confluent and basis-stable"


_GT_GROUPS = [CyclicGroup(2), CyclicGroup(3), ProductGroup((CyclicGroup(2), CyclicGroup(2)))]


def _random_skew_actions(rng, count):
    """Random skew products with their translation actions (used twice)."""
    out = []
    for i in range(count):
        group = _GT_GROUPS[i % len(_GT_GROUPS)]
        graph = random_separated_graph(rng, max_vertices=3, max_edges=5)
        labeling = random_labeling(rng, graph, group)
        skew = skew_product(graph, labeling)
        out.append((skew, translation_action(skew)))
    return out


@_criterion(5, "free-action reconstruction round trip")
def criterion_5(rng) -> str:
    count = 0
    for skew, action in _random_skew_actions(rng, 20):
        result = gross_tucker(skew.graph, action)
        assert check_isomorphism(result.iso, result.skew.graph, skew.graph), (
            "rebuilt skew product is not isomorphic to the original"
        )
        assert is_equivariant_iso(result, action), "isomorphism is not equivariant"
        count += 1
    return f"{count} reconstructions verified pointwise"


@_criterion(6, "skew-product/crossed-product dictionary")
def criterion_6(rng) -> str:
    graphs = [
        SeparatedGraph(
            ["v"],
            [("x1", "v", "v"), ("x2", "v", "v"), ("y1", "v", "v"), ("y2", "v", "v")],
            {"v": [["x1", "x2"], ["y1", "y2"]]},
        ),
        SeparatedGraph(
            ["v", "w"],
            [("e1", "v", "w"), ("e2", "v", "w"), ("f1", "v", "w")],
            {"v": [["e1", "e2"], ["f1"]], "w": []},
        ),
        bouquet_graph(2),
        _fig5_graph(),
        SeparatedGraph(
            ["v"],
            [("a1", "v", "v"), ("a2", "v", "v"), ("b1", "v", "v")],
            {"v": [["a1", "a2"], ["b1"]]},
        ),
    ]
    runs = 0
    for graph in graphs:
        for n in (2, 3):
            group = CyclicGroup(n)
            labeling = Labeling(
                group, {e.id: group.element(i) for i, e in enumerate(graph.edges, start=1)}
            )
            report = verify_iso(graph, labeling, sample_count=200, seed=rng.randrange(10**9))
            assert report.ok, report.summary()
            runs += 1
    return f"{runs} graph/group pairs verified"


@_criterion(7, "grading suite")
def criterion_7(rng) -> str:
    z3 = CyclicGroup(3)
    samples = 0
    for _ in range(10):
        graph = random_separated_graph(rng, max_vertices=3, max_edges=6)
        ctx = LeavittContext(graph)
        for labeling in (free_labeling(graph), random_labeling(rng, graph, z3)):
            for _ in range(10):
                x = random_element(rng, ctx, max_terms=3, max_len=5)
                parts = decompose(x, labeling)
                assert sum_of(ctx, parts.values()) == x, "components do not sum back"
                degrees = list(parts)
                for g in degrees:
                    assert component(parts[g], g, labeling) == parts[g], "not idempotent"
                    for h in degrees:
                        if h != g:
                            assert component(parts[g], h, labeling).is_zero, "not orthogonal"
                    if not g.is_identity:
                        assert expect(parts[g]).is_zero, (
                            f"expectation does not vanish on the degree-{g} part"
                        )
                if len(degrees) >= 2:
                    g, h = degrees[0], degrees[1]
                    product = parts[g] * parts[h]
                    for word in product.terms:
                        assert word_degree(word, labeling) == g * h, "degrees not additive"
                samples += 1
    return f"{samples} samples passed the grading identities"


@_criterion(8, "action invariance of the expectation")
def criterion_8(rng) -> str:
    checked = 0
    pairs = _random_skew_actions(rng, 10)
    while checked < 200:
        skew, action = pairs[checked % len(pairs)]
        ctx = LeavittContext(skew.graph)
        x = random_element(rng, ctx, max_terms=2, max_len=4)
        g = rng.choice(action.group.elements())
        lhs = expect(induced_automorphism(action, g, x))
        rhs = induced_automorphism(action, g, expect(x))
        assert lhs == rhs, f"expectation not invariant under {g}"
        checked += 1
    return f"{checked} elements invariant under the sampled actions"


@_criterion(9, "freeness condition on kernel products")
def criterion_9(rng) -> str:
    ctx = LeavittContext(_fig5_graph())
    cells = {0: ["al1", "al2"], 1: ["be1", "be2"]}
    for _ in range(100):
        length = rng.randint(1, 4)
        cell = rng.randint(0, 1)
        product = None
        for _ in range(length):
            factor = beta_element(ctx, rng.choice(cells[cell])).scale(
                Fraction(rng.randint(1, 3), rng.randint(1, 3))
            )
            product = factor if product is None else product * factor
            cell = 1 - cell
        value = expect(product)
        assert value.is_zero, f"kernel product has expectation {element_literal(value)}"
    return "100 alternating kernel products vanish"


@_criterion(10, "spot values and example identifications")
def criterion_10(rng) -> str:
    # the half value on the two-cell graph of a partial isometry
    graph = _fig5_graph()
    ctx = LeavittContext(graph)
    word = reduce_word(ctx, (SignedEdge("be1"), SignedEdge("be1", True)))
    value = expect(word)
    assert value == vertex_element(ctx, "v").scale(Fraction(1, 2)), element_literal(value)
    sub = cell_subgraph(graph, "v", 1)
    sub_ctx = LeavittContext(sub)
    mu = forward_path(sub, ["be1"])
    oracle = phi_ordinary(sub_ctx, mu, mu)
    assert n_mu(sub, mu) == Fraction(1, 2)
    assert oracle == vertex_element(sub_ctx, "v").scale(Fraction(1, 2)), "oracle disagrees"

    # Cayley graph of zmod 3: quotient by translation is the one-loop bouquet
    z3 = CyclicGroup(3)
    cayley = cayley_separated_graph(z3, [z3.element(1)])
    quot = quotient_graph(cayley.graph, translation_action(cayley))
    loop = bouquet_graph(1)
    iso = GraphMorphism({quot.graph.vertices[0]: "v"}, {quot.graph.edges[0].id: "a1"})
    assert check_isomorphism(iso, quot.graph, loop), "Cayley quotient is not the one-loop graph"

    # reconstruction of the Cayley translation action recovers the bouquet
    result = gross_tucker(cayley.graph, translation_action(cayley))
    iso2 = GraphMorphism(
        {result.quotient.vertices[0]: "v"}, {result.quotient.edges[0].id: "a1"}
    )
    assert check_isomorphism(iso2, result.quotient, loop)
    assert check_isomorphism(result.iso, result.skew.graph, cayley.graph)

    # a trivial group leaves any graph unchanged up to the naming map
    one = CyclicGroup(1)
    base = random_separated_graph(rng, max_vertices=3, max_edges=5)
    labeling = Labeling(one, {e.id: one.identity() for e in base.edges})
    skew = skew_product(base, labeling)
    iso3 = GraphMorphism(
        {name: pair[0] for name, pair in skew.vertex_pair.items()},
        {name: pair[0] for name, pair in skew.edge_pair.items()},
    )
    assert check_isomorphism(iso3, skew.graph, base), "trivial skew product moved the graph"
    return "spot values and identifications reproduced"


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]

TIME_BUDGETS = {1: 5, 2: 5, 3: 10, 4: 20, 5: 10, 6: 30, 7: 15, 8: 10, 9: 5, 10: 5}


def run_all(seed: int = DEFAULT_SEED) -> list:
    return [criterion(seed) for criterion in CRITERIA]

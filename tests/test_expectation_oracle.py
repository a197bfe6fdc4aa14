"""The pushdown of ``expectation`` against the subset expansion.

``subset_n_value`` below is the direct 2^t expansion of the expectation: it
first drops ``e* e`` and singleton ``e e*`` pairs and kills on ``e* f`` in one
cell, then, for the remaining word with t ``e e*`` occurrences, sums over every
proper subset of kept occurrences, deleting the others.  It shares no code with
``sepgraph.expectation`` (only graph queries), so it is an independent oracle
for the one-pass pushdown (``_n_value``, which the ``walk`` tests call); its
cost is exponential in t, which limits it to t <= 10 here.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sepgraph.algebra import AlgebraElement, LeavittContext, NormalWord, from_word, vertex_element
from sepgraph.expectation import _n_value, expect
from sepgraph.graphs import SeparatedGraph, SignedEdge
from sepgraph.sampling import random_composable_word, random_separated_graph
from sepgraph.scalars import ONE

MAX_OCCURRENCES = 10


# -- the oracle: the subset expansion ------------------------------------------------


def subset_weakly_reduce(graph, steps):
    work = list(steps)
    i = 0
    while i + 1 < len(work):
        a, b = work[i], work[i + 1]
        if a.star and not b.star and graph.cell_of(a.edge) == graph.cell_of(b.edge):
            if a.edge != b.edge:
                return None
            del work[i : i + 2]
            i = max(i - 1, 0)
            continue
        if not a.star and b.star and a.edge == b.edge:
            v, k = graph.cell_of(a.edge)
            if len(graph.cell_edges(v, k)) == 1:
                del work[i : i + 2]
                i = max(i - 1, 0)
                continue
        i += 1
    return tuple(work)


def _free_label_is_trivial(steps):
    stack = []
    for s in steps:
        sign = -1 if s.star else 1
        if stack and stack[-1] == (s.edge, -sign):
            stack.pop()
        else:
            stack.append((s.edge, sign))
    return not stack


def pair_occurrences(steps):
    return [
        i
        for i in range(len(steps) - 1)
        if not steps[i].star and steps[i + 1].star and steps[i].edge == steps[i + 1].edge
    ]


def subset_n_value(graph, steps, memo):
    reduced = subset_weakly_reduce(graph, steps)
    if reduced is None:
        return Fraction(0)
    return _subset_n_reduced(graph, reduced, memo)


def _subset_n_reduced(graph, steps, memo):
    if not steps:
        return Fraction(1)
    cached = memo.get(steps)
    if cached is not None:
        return cached
    if not _free_label_is_trivial(steps):
        memo[steps] = Fraction(0)
        return Fraction(0)
    occurrences = pair_occurrences(steps)
    t = len(occurrences)
    if t == 0:
        # alternating product of cell-kernel pieces: expectation zero
        memo[steps] = Fraction(0)
        return Fraction(0)
    sizes = []
    for i in occurrences:
        v, k = graph.cell_of(steps[i].edge)
        sizes.append(len(graph.cell_edges(v, k)))
    total = Fraction(0)
    # proper subsets of the occurrence set: kept occurrences stay as e e*,
    # the others are deleted; sign (-1)^(deleted+1), weight 1/|X| per deletion
    for mask in range((1 << t) - 1):
        deleted = [j for j in range(t) if not (mask >> j) & 1]
        weight = Fraction(1)
        for j in deleted:
            weight /= sizes[j]
        drop = set()
        for j in deleted:
            drop.add(occurrences[j])
            drop.add(occurrences[j] + 1)
        shorter = tuple(s for idx, s in enumerate(steps) if idx not in drop)
        sign = 1 if len(deleted) % 2 == 1 else -1
        total += sign * weight * subset_n_value(graph, shorter, memo)
    memo[steps] = total
    return total


# -- inputs ------------------------------------------------------------------------


def _moves(graph, vertex):
    moves = [SignedEdge(eid) for eid in graph.out_edges(vertex)]
    moves.extend(SignedEdge(e.id, True) for e in graph.edges if e.dst == vertex)
    return moves


def backtracking_word(rng, graph, max_len):
    """A composable word with trivial free label: a random walk over the extended
    graph that often steps back along its last step, closed by retracing the rest
    of the walk.  Its ``e* f`` junctions often kill it."""
    vertex = rng.choice(graph.vertices)
    walk, word = [], []
    for _ in range(rng.randint(1, max_len)):
        if walk and rng.random() < 0.5:
            step = walk.pop().reverse()
        else:
            step = rng.choice(_moves(graph, vertex))
            walk.append(step)
        word.append(step)
        vertex = graph.range(step)
    word.extend(s.reverse() for s in reversed(walk))
    return tuple(word)


def alternating_word(rng, graph, vertex, budget):
    """Nested blocks ``e [inner] e*`` whose neighbouring blocks come from distinct
    cells, like the Fig.-5 family: many ``e e*`` occurrences survive weak reduction."""
    word, last_cell = [], None
    while budget >= 2 and rng.random() < 0.9:
        edges = [eid for eid in graph.out_edges(vertex) if graph.cell_of(eid) != last_cell]
        if not edges:
            break
        eid = rng.choice(edges)
        inner_budget = rng.randint(0, min(budget - 2, 6))
        inner = alternating_word(rng, graph, graph.edge(eid).dst, inner_budget)
        word += [SignedEdge(eid), *inner, SignedEdge(eid, True)]
        budget -= 2 + len(inner)
        last_cell = graph.cell_of(eid)
    return word


def sample_word(rng, graph):
    roll = rng.random()
    if roll < 0.1:
        return random_composable_word(rng, graph, max_len=12)
    if roll < 0.3:
        return backtracking_word(rng, graph, max_len=12)
    vertex = rng.choice(graph.vertices)
    return tuple(alternating_word(rng, graph, vertex, 20)) or (rng.choice(_moves(graph, vertex)),)


def within_oracle_reach(graph, steps):
    reduced = subset_weakly_reduce(graph, steps)
    return reduced is None or len(pair_occurrences(reduced)) <= MAX_OCCURRENCES


def assert_walk_matches_oracle(graph, steps):
    ctx = LeavittContext(graph)
    assert _n_value(ctx, steps) == subset_n_value(graph, steps, {}), steps


# -- tests -------------------------------------------------------------------------


def test_walk_agrees_with_subset_expansion_on_random_words():
    rng = random.Random(5)
    checked = nonzero = deep = 0
    for _ in range(40):
        graph = random_separated_graph(rng, max_vertices=3)
        ctx = LeavittContext(graph)
        memo = {}
        for _ in range(16):
            steps = sample_word(rng, graph)
            if not within_oracle_reach(graph, steps):
                continue
            value = _n_value(ctx, steps)
            assert value == subset_n_value(graph, steps, memo), steps
            checked += 1
            if value:
                nonzero += 1
                deep += len(pair_occurrences(subset_weakly_reduce(graph, steps))) >= 5
    # the inputs must exercise the expansion, not only its zero shortcuts
    assert checked >= 600 and nonzero >= 400 and deep >= 10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_walk_agrees_with_subset_expansion(seed):
    rng = random.Random(seed)
    graph = random_separated_graph(rng, max_vertices=3)
    steps = sample_word(rng, graph)
    if within_oracle_reach(graph, steps):
        assert_walk_matches_oracle(graph, steps)


def fig5():
    return SeparatedGraph(
        ["v", "w1", "w2", "w3"],
        [("al1", "v", "w1"), ("al2", "v", "w2"), ("be1", "v", "w1"), ("be2", "v", "w3")],
        {"v": [["al1", "al2"], ["be1", "be2"]]},
    )


def test_fig5_family_matches_the_free_projection_moments():
    # (be2 be2* al2 al2*)^k is (pq)^k for two free projections of trace 1/2,
    # whose moments are C(2k,k)/2^(2k+1); k = 12 has t = 24 occurrences
    graph = fig5()
    block = (
        SignedEdge("be2"),
        SignedEdge("be2", True),
        SignedEdge("al2"),
        SignedEdge("al2", True),
    )
    for k in range(1, 13):
        ctx = LeavittContext(graph)
        value = expect(from_word(ctx, NormalWord.of_steps(block * k)))
        closed = Fraction(math.comb(2 * k, k), 2 ** (2 * k + 1))
        assert value == vertex_element(ctx, "v").scale(closed), k
        if 2 * k <= MAX_OCCURRENCES:
            assert_walk_matches_oracle(graph, block * k)


def assert_cold_and_warm_match_oracle(ctx, steps):
    """``expect`` of the one-term element on ``steps``, built without reducing
    it, twice over one context, against the oracle."""
    graph = ctx.graph
    x = AlgebraElement(ctx, {NormalWord.of_steps(steps): ONE})
    value = subset_n_value(graph, steps, {})
    oracle = vertex_element(ctx, graph.source(steps[0])).scale(value)
    assert expect(x) == oracle, steps  # cold
    assert expect(x) == oracle, steps  # warm


def test_terms_that_are_not_weakly_reduced_match_the_oracle():
    # v has the cells {a, b} and {c}: a* a cancels, a* b kills, the singleton
    # pair c c* cancels, and a a* and b b* stay
    graph = SeparatedGraph(
        ["v"],
        [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")],
        {"v": [["a", "b"], ["c"]]},
    )
    ctx = LeavittContext(graph)
    for text in ["a* a b", "a* a b b*", "a* b b* a", "a c c* a*", "b b* a a*", "c c* b b*"]:
        steps = tuple(SignedEdge(t.rstrip("*"), t.endswith("*")) for t in text.split())
        assert subset_weakly_reduce(graph, steps) != steps
        assert_cold_and_warm_match_oracle(ctx, steps)


def test_random_unreduced_terms_match_the_oracle_cold_and_warm():
    rng = random.Random(11)
    unreduced = 0
    for _ in range(20):
        graph = random_separated_graph(rng, max_vertices=3)
        ctx = LeavittContext(graph)
        for _ in range(10):
            steps = backtracking_word(rng, graph, max_len=10)
            if within_oracle_reach(graph, steps):
                assert_cold_and_warm_match_oracle(ctx, steps)
                unreduced += subset_weakly_reduce(graph, steps) != steps
    assert unreduced >= 100

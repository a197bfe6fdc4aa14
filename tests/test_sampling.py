"""Random generators: pinned streams and edge cases."""

import json
import random
from pathlib import Path

import pytest

from sepgraph.algebra import LeavittContext, NormalWord, is_normal
from sepgraph.graphs import SeparatedGraph
from sepgraph.groups import bouquet_graph
from sepgraph.sampling import (
    random_composable_word,
    random_forward_path,
    random_normal_word,
    random_separated_graph,
)

# The first 40 draws of random_normal_word(random.Random(2024), ctx, max_len=6)
# per graph, as word literals.  Seeded runs (selftest, verify-crossed-iso, the
# property suites) depend on this stream, so it must not change.
DRAWS = Path(__file__).resolve().parent / "golden" / "normal_word_draws.json"
# The same for the walks random_composable_word and random_forward_path, as the
# literals their words would have (``@v`` for the empty path at v).
WALKS = DRAWS.with_name("walk_draws.json")


def walk_literal(graph, kind, rng):
    if kind == "composable":
        return " ".join(s.literal() for s in random_composable_word(rng, graph, max_len=6))
    path = random_forward_path(rng, graph, max_len=6)
    return " ".join(s.literal() for s in path.steps) or f"@{path.source(graph)}"


def pinned_graphs():
    return {
        "fig5": SeparatedGraph(
            ["v", "w1", "w2", "w3"],
            [("al1", "v", "w1"), ("al2", "v", "w2"), ("be1", "v", "w1"), ("be2", "v", "w3")],
            {"v": [["al1", "al2"], ["be1", "be2"]]},
        ),
        "two_cells": SeparatedGraph(
            ["v"],
            [("x1", "v", "v"), ("x2", "v", "v"), ("y1", "v", "v"), ("y2", "v", "v")],
            {"v": [["x1", "x2"], ["y1", "y2"]]},
        ),
        "random": random_separated_graph(random.Random(11), max_vertices=4, max_edges=8),
    }


@pytest.mark.parametrize("name", ["fig5", "two_cells", "random"])
def test_normal_word_stream_is_pinned(name):
    ctx = LeavittContext(pinned_graphs()[name])
    rng = random.Random(2024)
    draws = [random_normal_word(rng, ctx, max_len=6).literal() for _ in range(40)]
    assert draws == json.loads(DRAWS.read_text())[name]


@pytest.mark.parametrize("kind", ["composable", "forward"])
@pytest.mark.parametrize("name", ["fig5", "two_cells", "random"])
def test_walk_stream_is_pinned(name, kind):
    graph = pinned_graphs()[name]
    rng = random.Random(2024)
    draws = [walk_literal(graph, kind, rng) for _ in range(40)]
    assert draws == json.loads(WALKS.read_text())[kind][name]


def test_length_zero_draw_is_a_vertex_word():
    ctx = LeavittContext(bouquet_graph(2))
    rng = random.Random(0)
    words = [random_normal_word(rng, ctx, max_len=2, min_len=0) for _ in range(5)]
    assert words[4] == NormalWord.of_vertex("v")
    # an isolated vertex dead-ends every walk at length 0
    isolated = LeavittContext(SeparatedGraph(["v", "w"], [("a", "v", "v")], {"v": [["a"]]}))
    for context in (ctx, isolated):
        for _ in range(200):
            word = random_normal_word(rng, context, max_len=2, min_len=0)
            assert word.is_vertex or is_normal(context, word.steps)

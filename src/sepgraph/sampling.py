"""Random generators for graphs, words and elements, used by the property
suites and the self test.  Everything takes an explicit ``random.Random`` so
runs are reproducible from a seed."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .algebra import AlgebraElement, LeavittContext, NormalWord, from_word, is_normal, sum_of
from .graphs import Edge, GraphPath, SeparatedGraph, SignedEdge
from .groups import Group, Labeling
from .scalars import GaussianRational


def random_separated_graph(
    rng: random.Random,
    max_vertices: int = 4,
    max_edges: int = 8,
    ordinary: bool = False,
) -> SeparatedGraph:
    """A random valid separated graph; every vertex emits at least one edge, so
    long composable words always exist."""
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(1, nv + 1)]
    ne = rng.randint(nv, max_edges) if max_edges >= nv else nv
    edges = []
    for i in range(1, ne + 1):
        src = vertices[(i - 1) % nv] if i <= nv else rng.choice(vertices)
        dst = rng.choice(vertices)
        edges.append(Edge(f"e{i}", src, dst))
    separation = {}
    for v in vertices:
        out = [e.id for e in edges if e.src == v]
        rng.shuffle(out)
        cells = []
        while out:
            size = len(out) if ordinary else rng.randint(1, len(out))
            cells.append(out[:size])
            out = out[size:]
        separation[v] = cells
    return SeparatedGraph(vertices, edges, separation)


def random_ordinary_graph(
    rng: random.Random, max_vertices: int = 5, max_edges: int = 8
) -> SeparatedGraph:
    return random_separated_graph(rng, max_vertices, max_edges, ordinary=True)


def _moves(graph: SeparatedGraph, vertex: str) -> list:
    moves = [SignedEdge(eid) for eid in graph.out_edges(vertex)]
    moves.extend(SignedEdge(e.id, True) for e in graph.edges if e.dst == vertex)
    return moves


def random_composable_word(
    rng: random.Random, graph: SeparatedGraph, max_len: int, min_len: int = 1
) -> tuple:
    """A random walk over the extended graph, as a tuple of signed edges."""
    for _ in range(50):
        vertex = rng.choice(graph.vertices)
        target = rng.randint(min_len, max_len)
        steps = []
        while len(steps) < target:
            moves = _moves(graph, vertex)
            if not moves:
                break
            step = rng.choice(moves)
            steps.append(step)
            vertex = graph.range(step)
        if len(steps) >= min_len:
            return tuple(steps)
    raise ValueError("graph admits no composable words of the requested length")


def random_normal_word(
    rng: random.Random, ctx: LeavittContext, max_len: int, min_len: int = 1
) -> NormalWord:
    """A random basis word: each step is drawn among the extensions that keep
    the word normal.  Falls back to a vertex word when a walk dead-ends."""
    graph = ctx.graph
    for _ in range(50):
        vertex = rng.choice(graph.vertices)
        target = rng.randint(min_len, max_len)
        steps = []
        while len(steps) < target:
            candidates = [
                m
                for m in _moves(graph, vertex)
                if is_normal(ctx, (steps[-1], m) if steps else (m,))
            ]
            if not candidates:
                break
            step = rng.choice(candidates)
            steps.append(step)
            vertex = graph.range(step)
        if len(steps) >= min_len:
            return NormalWord.of_steps(tuple(steps))
    return NormalWord.of_vertex(rng.choice(graph.vertices))


def random_coefficient(rng: random.Random, with_imaginary: bool = True) -> GaussianRational:
    def rat():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    re = rat()
    im = rat() if with_imaginary and rng.random() < 0.4 else Fraction(0)
    if not re and not im:
        re = Fraction(1)
    return GaussianRational(re, im)


def random_element(
    rng: random.Random,
    ctx: LeavittContext,
    max_terms: int = 3,
    max_len: int = 5,
) -> AlgebraElement:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        word = random_normal_word(rng, ctx, max_len)
        terms.append(from_word(ctx, word, random_coefficient(rng)))
    return sum_of(ctx, terms)


def random_forward_path(
    rng: random.Random,
    graph: SeparatedGraph,
    max_len: int,
    start: Optional[str] = None,
) -> GraphPath:
    vertex = start if start is not None else rng.choice(graph.vertices)
    target = rng.randint(0, max_len)
    steps = []
    while len(steps) < target:
        out = graph.out_edges(vertex)
        if not out:
            break
        eid = rng.choice(out)
        steps.append(SignedEdge(eid))
        vertex = graph.range(steps[-1])
    base = graph.source(steps[0]) if steps else vertex
    return GraphPath(base, tuple(steps))


def random_labeling(rng: random.Random, graph: SeparatedGraph, group: Group) -> Labeling:
    values = group.elements()
    return Labeling(group, {e.id: rng.choice(values) for e in graph.edges})


def random_reduced_free_word(rng: random.Random, letters, max_len: int, min_len: int = 1) -> tuple:
    """A reduced word over formal letters and their inverses, as (letter, sign)."""
    word = []
    target = rng.randint(min_len, max_len)
    while len(word) < target:
        options = [
            (a, s)
            for a in letters
            for s in (1, -1)
            if not word or word[-1] != (a, -s)
        ]
        word.append(rng.choice(options))
    return tuple(word)

"""Time the two element-building paths that sum many terms.

Builds a seeded literal of N terms over one vertex with loops a1, a2 in one
cell and b1 in another (random normal words of length at most 12, random Q(i)
coefficients), then times ``parse_element`` of that literal and ``rebase`` of
the parsed element onto the choice that picks ``a2``.  A sum that copies the
accumulated dict per term grows about 4x per doubling of N; a linear one about
2x.  Prints one row per size in SIZES, best of REPEAT runs.  Run with:

    python scripts/sum_timing.py
"""

import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sepgraph.algebra import LeavittContext, parse_element, rebase
from sepgraph.graphs import SeparatedGraph
from sepgraph.sampling import random_coefficient, random_normal_word

SIZES = (1000, 2000, 4000)
REPEAT = 3
SEED = 11


def build_graph():
    return SeparatedGraph(
        ["v"],
        [("a1", "v", "v"), ("a2", "v", "v"), ("b1", "v", "v")],
        {"v": [["a1", "a2"], ["b1"]]},
    )


def literal(ctx, n: int) -> str:
    rng = random.Random(SEED)
    terms = []
    for _ in range(n):
        word = random_normal_word(rng, ctx, max_len=12)
        terms.append(f"{random_coefficient(rng)} * {word.literal()}")
    return " + ".join(terms)


def best_of(fn):
    best = None
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main():
    graph = build_graph()
    print("terms".rjust(6), "distinct".rjust(9), "parse_element_s".rjust(16), "rebase_s".rjust(10))
    for n in SIZES:
        ctx = LeavittContext(graph)
        text = literal(ctx, n)
        parse_s, x = best_of(lambda: parse_element(ctx, text))
        target = LeavittContext(graph, {("v", 0): "a2"})
        rebase_s, _ = best_of(lambda: rebase(x, target))
        print(str(n).rjust(6), str(len(x.terms)).rjust(9), f"{parse_s:16.3f}", f"{rebase_s:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

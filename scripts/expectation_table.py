"""Tabulate exact expectation values on the two-cell partial-isometry graph.

Prints the rational value of the conditional expectation on a family of words
built from s = be1 al1* (powers of s and s*, and projections s^k s^{*k}),
cross-checking the single-cell cases against the ordinary-graph closed form,
and the family (be2 be2* al2 al2*)^k, the moments (pq)^k of two free
projections of trace 1/2, against their closed form C(2k,k)/2^(2k+1).  Exits
1 if any row disagrees.  Run with:

    python scripts/expectation_table.py [--max-power K]
"""

import argparse
import math
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sepgraph.algebra import LeavittContext, NormalWord, element_literal, parse_element, vertex_element
from sepgraph.expectation import cell_subgraph, expect, n_mu, phi_ordinary
from sepgraph.graphs import SeparatedGraph, SignedEdge


def build_graph():
    return SeparatedGraph(
        ["v", "w1", "w2", "w3"],
        [("al1", "v", "w1"), ("al2", "v", "w2"), ("be1", "v", "w1"), ("be2", "v", "w3")],
        {"v": [["al1", "al2"], ["be1", "be2"]]},
    )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-power", type=int, default=4)
    args = parser.parse_args()

    graph = build_graph()
    ctx = LeavittContext(graph)

    print("word".ljust(40), "expectation")
    s_word = "be1 al1*"
    s_star = "al1 be1*"
    for k in range(1, args.max_power + 1):
        power = " ".join([s_word] * k)
        print(f"s^{k}".ljust(40), element_literal(expect(parse_element(ctx, power))))
        projection = " ".join([s_word] * k + [s_star] * k)
        print(f"s^{k} (s*)^{k}".ljust(40), element_literal(expect(parse_element(ctx, projection))))

    print()
    print("single-cell words against the closed form:")
    failures = 0
    for cell_index, edge in ((0, "al1"), (1, "be1")):
        sub = cell_subgraph(graph, "v", cell_index)
        sub_ctx = LeavittContext(sub)
        mu = NormalWord.of_steps((SignedEdge(edge),))
        oracle = phi_ordinary(sub_ctx, mu, mu)
        direct = expect(parse_element(ctx, f"{edge} {edge}*"))
        status = "ok" if element_literal(direct) == element_literal(oracle) else "MISMATCH"
        failures += status != "ok"
        print(
            f"  {edge} {edge}*: recursive={element_literal(direct)}  "
            f"closed-form n={n_mu(sub, mu)}  [{status}]"
        )

    print()
    print("(be2 be2* al2 al2*)^k against C(2k,k)/2^(2k+1):")
    for k in range(1, args.max_power + 1):
        value = expect(parse_element(ctx, " ".join(["be2 be2* al2 al2*"] * k)))
        closed = Fraction(math.comb(2 * k, k), 2 ** (2 * k + 1))
        status = "ok" if value == vertex_element(ctx, "v").scale(closed) else "MISMATCH"
        failures += status != "ok"
        print(
            f"  k={k}".ljust(8),
            element_literal(value).ljust(30),
            f"closed form {closed}".ljust(36),
            f"[{status}]",
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

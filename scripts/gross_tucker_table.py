"""Time the free-action reconstruction on Z/N skew products of one base graph.

The base graph has vertices v, w; edges a1, a2: v -> w, b1: v -> v and
c1: w -> v; separation v: [[a1, a2], [b1]], w: [[c1]]; and labels a1 -> 1,
a2 -> 2, b1 -> 0, c1 -> 3 in Z/N.  For N = 2, 4, 8, ... up to --max-order,
builds the skew product and its translation action, then prints the size of
the skew product and the seconds taken by ``quotient_graph`` and by
``gross_tucker`` on it.  Each round trip is checked: the rebuilt isomorphism
must pass ``check_isomorphism`` onto the skew product and intertwine the two
actions (``is_equivariant_iso``).  Exits 1 if any round trip fails.  Run with:

    python scripts/gross_tucker_table.py [--max-order N]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sepgraph.graphs import SeparatedGraph, check_isomorphism, quotient_graph, skew_product
from sepgraph.groups import (
    CyclicGroup,
    Labeling,
    gross_tucker,
    is_equivariant_iso,
    translation_action,
)

LABELS = {"a1": 1, "a2": 2, "b1": 0, "c1": 3}


def build_graph():
    return SeparatedGraph(
        ["v", "w"],
        [("a1", "v", "w"), ("a2", "v", "w"), ("b1", "v", "v"), ("c1", "w", "v")],
        {"v": [["a1", "a2"], ["b1"]], "w": [["c1"]]},
    )


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-order", type=int, default=64)
    args = parser.parse_args()

    base = build_graph()
    print("N".rjust(6), "vertices".rjust(9), "edges".rjust(7), "quotient_s".rjust(11),
          "gross_tucker_s".rjust(15), "ratio".rjust(6), " round trip")
    failures = 0
    order = 2
    while order <= args.max_order:
        group = CyclicGroup(order)
        labeling = Labeling(group, {eid: group.element(c) for eid, c in LABELS.items()})
        skew = skew_product(base, labeling)
        action = translation_action(skew)
        _, quotient_s = timed(quotient_graph, skew.graph, action)
        result, gross_tucker_s = timed(gross_tucker, skew.graph, action)
        ok = check_isomorphism(result.iso, result.skew.graph, skew.graph) and is_equivariant_iso(
            result, action
        )
        failures += not ok
        print(
            str(order).rjust(6),
            str(len(skew.graph.vertices)).rjust(9),
            str(len(skew.graph.edges)).rjust(7),
            f"{quotient_s:.3f}".rjust(11),
            f"{gross_tucker_s:.3f}".rjust(15),
            f"{gross_tucker_s / quotient_s:.2f}".rjust(6),
            " ok" if ok else " FAILED",
        )
        order *= 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

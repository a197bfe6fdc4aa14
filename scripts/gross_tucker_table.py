"""Time the free-action reconstruction on Z/N skew products of one base graph.

The base graph has vertices v, w; edges a1, a2: v -> w, b1: v -> v and
c1: w -> v; separation v: [[a1, a2], [b1]], w: [[c1]]; and labels a1 -> 1,
a2 -> 2, b1 -> 0, c1 -> 3 in Z/N.  For N = 2, 4, 8, ... up to --max-order,
builds the skew product, then prints its size and the seconds taken by
``translation_action`` on it, by ``quotient_graph`` and by ``gross_tucker`` on
that action, and by the round-trip check: the rebuilt isomorphism must pass
``check_isomorphism`` onto the skew product and intertwine the two actions
(``is_equivariant_iso``).  Each time is the best of REPEAT runs.  Exits 1 if
any round trip fails.  Run with:

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
REPEAT = 3  # each stage is timed as the best of this many runs: single runs of milliseconds are noisy


def build_graph():
    return SeparatedGraph(
        ["v", "w"],
        [("a1", "v", "w"), ("a2", "v", "w"), ("b1", "v", "v"), ("c1", "w", "v")],
        {"v": [["a1", "a2"], ["b1"]], "w": [["c1"]]},
    )


def timed(fn, *args):
    best = None
    for _ in range(REPEAT):
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return out, best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-order", type=int, default=64)
    args = parser.parse_args()

    base = build_graph()
    print("N".rjust(6), "vertices".rjust(9), "edges".rjust(7), "translation_s".rjust(14),
          "quotient_s".rjust(11), "gross_tucker_s".rjust(15), "ratio".rjust(6), "roundtrip_s".rjust(12),
          " round trip")
    failures = 0
    order = 2
    while order <= args.max_order:
        group = CyclicGroup(order)
        labeling = Labeling(group, {eid: group.element(c) for eid, c in LABELS.items()})
        skew = skew_product(base, labeling)
        action, translation_s = timed(translation_action, skew)
        _, quotient_s = timed(quotient_graph, skew.graph, action)
        result, gross_tucker_s = timed(gross_tucker, skew.graph, action)
        ok, roundtrip_s = timed(
            lambda: check_isomorphism(result.iso, result.skew.graph, skew.graph)
            and is_equivariant_iso(result, action)
        )
        failures += not ok
        print(
            str(order).rjust(6),
            str(len(skew.graph.vertices)).rjust(9),
            str(len(skew.graph.edges)).rjust(7),
            f"{translation_s:.3f}".rjust(14),
            f"{quotient_s:.3f}".rjust(11),
            f"{gross_tucker_s:.3f}".rjust(15),
            f"{gross_tucker_s / quotient_s:.2f}".rjust(6),
            f"{roundtrip_s:.3f}".rjust(12),
            " ok" if ok else " FAILED",
        )
        order *= 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

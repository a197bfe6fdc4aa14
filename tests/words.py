"""Word helpers shared by the test modules."""

from sepgraph.algebra import LeavittContext, forbidden_pair


def is_normal(ctx: LeavittContext, steps) -> bool:
    """True iff the word is composable and avoids both forbidden subwords."""
    steps = tuple(steps)
    graph = ctx.graph
    return all(
        graph.range(a) == graph.source(b) and not forbidden_pair(ctx, a, b)
        for a, b in zip(steps, steps[1:])
    )

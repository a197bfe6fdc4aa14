"""Command-line surface: file parsing, canonical output, verification reports.

Exit codes: 0 on success, 1 when a verification fails (an invalid graph, a
failed isomorphism report, a failed self test) or when the reader of stdout
closes the pipe early (``| head``), 2 on an input error.  Output
is canonical: JSON with sorted keys, elements in the sorted literal syntax,
so identical inputs and seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import (
    AlgebraError,
    LeavittContext,
    decompose,
    element_literal,
    induced_automorphism,
    parse_element,
)
from .expectation import expect
from .graphs import (
    GraphError,
    graph_from_json,
    graph_to_json,
    quotient_graph,
    read_graph_json,
    skew_product,
    validate,
)
from .groups import (
    CyclicGroup,
    FreeGroup,
    GroupError,
    IntegerGroup,
    Labeling,
    action_from_json,
    cayley_separated_graph,
    gross_tucker,
    group_from_json,
    labeling_from_json,
    labeling_to_json,
    split_top_level,
)
from .crossed import verify_iso
from .scalars import ScalarError
from .selftest import DEFAULT_SEED, TIME_BUDGETS, run_all


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def _dump(data) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _load_graph(path: str):
    return graph_from_json(_load_json(path))


def _load_group(spec: str):
    """A group spec: inline shorthand (z, zmod:3, free:a,b), a JSON literal,
    or a path to a JSON file."""
    spec = spec.strip()
    if spec.startswith("{"):
        return group_from_json(json.loads(spec))
    if os.path.exists(spec):
        return group_from_json(_load_json(spec))
    if spec == "z":
        return IntegerGroup()
    if spec.startswith("zmod:"):
        return CyclicGroup(int(spec.split(":", 1)[1]))
    if spec.startswith("free:"):
        return FreeGroup(tuple(spec.split(":", 1)[1].split(",")))
    raise InputError(f"unrecognized group spec {spec!r}")


def _load_labeling(group, path: str) -> Labeling:
    return labeling_from_json(group, _load_json(path))


def _context(args) -> LeavittContext:
    graph = _load_graph(args.graph)
    choice = None
    if getattr(args, "ex_choice", None):
        raw = _load_json(args.ex_choice)
        if not isinstance(raw, dict) or not all(
            isinstance(picks, list) and all(isinstance(eid, str) for eid in picks)
            for picks in raw.values()
        ):
            raise InputError(
                f"{args.ex_choice}: --ex-choice must map each vertex to a list of edge ids"
            )
        choice = {}
        for v, picks in raw.items():
            for i, eid in enumerate(picks):
                choice[(v, i)] = eid
    return LeavittContext(graph, choice)


def cmd_validate(args) -> int:
    data = _load_json(args.graph)
    if isinstance(data, dict):  # missing vertices or edges read as none
        data = {"vertices": [], "edges": [], **data}
    problems = validate(read_graph_json(data))
    _dump({"valid": not problems, "violations": problems})
    return 0 if not problems else 1


def cmd_skew(args) -> int:
    graph = _load_graph(args.graph)
    group = _load_group(args.group)
    labeling = _load_labeling(group, args.label)
    skew = skew_product(graph, labeling)
    _dump(
        {
            "graph": graph_to_json(skew.graph),
            "vertex_map": {name: [pair[0], str(pair[1])] for name, pair in skew.vertex_pair.items()},
            "edge_map": {name: [pair[0], str(pair[1])] for name, pair in skew.edge_pair.items()},
        }
    )
    return 0


def cmd_quotient(args) -> int:
    graph = _load_graph(args.graph)
    action = action_from_json(_load_json(args.action))
    quotient = quotient_graph(graph, action)
    _dump(
        {
            "graph": graph_to_json(quotient.graph),
            "vertex_class": quotient.vertex_class,
            "edge_class": quotient.edge_class,
        }
    )
    return 0


def cmd_gross_tucker(args) -> int:
    graph = _load_graph(args.graph)
    action = action_from_json(_load_json(args.action))
    result = gross_tucker(graph, action)
    _dump(
        {
            "quotient": graph_to_json(result.quotient),
            "label": labeling_to_json(result.labeling),
            "iso": {"vertices": result.iso.vmap, "edges": result.iso.emap},
        }
    )
    return 0


def cmd_cayley(args) -> int:
    group = _load_group(args.group)
    parts = [p.strip() for p in split_top_level(args.generators)]
    generators = [group.parse(p) for p in parts if p]
    if not generators:
        raise InputError("cayley needs at least one generator")
    skew = cayley_separated_graph(group, generators)
    _dump(graph_to_json(skew.graph))
    return 0


def cmd_reduce(args) -> int:
    ctx = _context(args)
    print(element_literal(parse_element(ctx, args.element)))
    return 0


def cmd_mul(args) -> int:
    ctx = _context(args)
    x = parse_element(ctx, args.left)
    y = parse_element(ctx, args.right)
    print(element_literal(x * y))
    return 0


def cmd_star(args) -> int:
    ctx = _context(args)
    print(element_literal(parse_element(ctx, args.element).star()))
    return 0


def cmd_expect(args) -> int:
    ctx = _context(args)
    print(element_literal(expect(parse_element(ctx, args.element))))
    return 0


def cmd_grade(args) -> int:
    ctx = _context(args)
    group = _load_group(args.group)
    labeling = _load_labeling(group, args.label)
    x = parse_element(ctx, args.element)
    parts = decompose(x, labeling)
    _dump({str(g): element_literal(part) for g, part in parts.items()})
    return 0


def cmd_act(args) -> int:
    ctx = _context(args)
    action = action_from_json(_load_json(args.action))
    g = action.group.parse(args.g)
    x = parse_element(ctx, args.element)
    print(element_literal(induced_automorphism(action, g, x)))
    return 0


def cmd_verify_crossed_iso(args) -> int:
    graph = _load_graph(args.graph)
    group = _load_group(args.group)
    labeling = _load_labeling(group, args.label)
    report = verify_iso(graph, labeling, sample_count=args.samples, seed=args.seed)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_selftest(args) -> int:
    results = run_all(args.seed)
    failed = 0
    for result in results:
        over = result.seconds > TIME_BUDGETS[result.number]
        line = result.line()
        if over:
            line += f" [over {TIME_BUDGETS[result.number]}s budget]"
        print(line)
        if not result.passed or over:
            failed += 1
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepgraph",
        description="exact computation with separated graphs and their path algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_flag(p, required=True):
        p.add_argument("--graph", required=required, help="path to a graph JSON file")

    def choice_flag(p):
        p.add_argument(
            "--ex-choice",
            dest="ex_choice",
            help="JSON file mapping vertex -> [chosen edge per cell]",
        )

    p = sub.add_parser("validate", help="report every broken graph invariant")
    graph_flag(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("skew", help="skew product by a labeling into a finite group")
    graph_flag(p)
    p.add_argument("--label", required=True)
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_skew)

    p = sub.add_parser("quotient", help="orbit graph of a group action")
    graph_flag(p)
    p.add_argument("--action", required=True)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser(
        "gross-tucker", help="present a free action as a skew product over its quotient"
    )
    graph_flag(p)
    p.add_argument("--action", required=True)
    p.set_defaults(fn=cmd_gross_tucker)

    p = sub.add_parser("cayley", help="Cayley separated graph of a finite group")
    p.add_argument("--group", required=True)
    p.add_argument("--generators", required=True, help="comma-separated element literals")
    p.set_defaults(fn=cmd_cayley)

    p = sub.add_parser("reduce", help="rewrite an element literal to normal form")
    graph_flag(p)
    choice_flag(p)
    p.add_argument("element")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("mul", help="multiply two element literals")
    graph_flag(p)
    choice_flag(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("star", help="adjoint of an element literal")
    graph_flag(p)
    choice_flag(p)
    p.add_argument("element")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("expect", help="conditional expectation onto the vertex span")
    graph_flag(p)
    choice_flag(p)
    p.add_argument("element")
    p.set_defaults(fn=cmd_expect)

    p = sub.add_parser("grade", help="decompose an element by a labeling")
    graph_flag(p)
    choice_flag(p)
    p.add_argument("--label", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("element")
    p.set_defaults(fn=cmd_grade)

    p = sub.add_parser("act", help="apply an induced automorphism to an element")
    graph_flag(p)
    choice_flag(p)
    p.add_argument("--action", required=True)
    p.add_argument("g", help="group element literal")
    p.add_argument("element")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser(
        "verify-crossed-iso",
        help="verify the skew-product/crossed-product dictionary",
    )
    graph_flag(p)
    p.add_argument("--label", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_verify_crossed_iso)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here when the output was buffered
        return code
    except BrokenPipeError:
        # stdout is gone: point it at devnull so the interpreter's final flush
        # stays silent too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (InputError, GraphError, GroupError, AlgebraError, ScalarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

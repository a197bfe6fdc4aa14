"""Command-line surface: file parsing, canonical output, verification reports.

Each ``cmd_*`` handler returns ``(output, exit code)``; :func:`main` alone
writes it: a string (elements in the sorted literal syntax) as it is, any other
value as JSON with sorted keys, so identical inputs and seeds give
byte-identical output.  Exit codes: 0 on success, 1 when a verification fails
(an invalid graph, a failed isomorphism report, a failed self test) or when
the reader of stdout closes the pipe early (``| head``), 2 on an input error.
"""

from __future__ import annotations

import argparse
import functools
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
    QUOTE_LIMIT,
    GraphError,
    check_json,
    graph_from_json,
    graph_to_json,
    isomorphism_violations,
    quote,
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
    action_from_json,
    cayley_separated_graph,
    gross_tucker,
    group_from_json,
    labeling_from_json,
    labeling_to_json,
    split_top_level,
)
from .crossed import MAX_GROUP_ORDER, MAX_SAMPLES, verify_iso
from .scalars import ScalarError


class InputError(Exception):
    pass


def _decode_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InputError(f"{where}: JSON nested too deeply") from None
    except ValueError:  # the one left is an int past Python's int-string limit
        raise InputError(f"{where}: a number has more than {sys.get_int_max_str_digits()} digits") from None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path, or bytes not UTF-8
        if isinstance(exc, OSError) and len(path) > QUOTE_LIMIT:  # its text would repeat the whole path
            path, exc = quote(path), exc.strerror
        raise InputError(f"cannot read {path}: {exc}") from None
    return _decode_json(text, path)


def _load_group(spec: str):
    """A group spec, tried in this order: an inline shorthand (z, zmod:3,
    free:a,b), a JSON literal, a path to a JSON file."""
    spec = spec.strip()
    if spec == "z":
        return IntegerGroup()
    if spec.startswith("zmod:"):
        try:
            return CyclicGroup(int(spec[5:]))
        except ValueError:
            limit = sys.get_int_max_str_digits()
            if 0 < limit < sum(map(str.isdigit, spec)):  # past Python's int-string limit
                raise InputError(f"group spec zmod: the modulus has more than {limit} digits") from None
            raise InputError(f"group spec {quote(spec)} needs an integer modulus") from None
    if spec.startswith("free:"):
        return FreeGroup(tuple(spec.split(":", 1)[1].split(",")))
    if spec.startswith("{"):
        return group_from_json(_decode_json(spec, "--group"))
    if os.path.exists(spec):
        return group_from_json(_load_json(spec))
    raise InputError(f"unrecognized group spec {quote(spec)}")


def _graph(args):
    return graph_from_json(_load_json(args.graph))


def _labeling(args):
    return labeling_from_json(_load_group(args.group), _load_json(args.label))


def _context(args) -> LeavittContext:
    graph = _graph(args)
    choice = None
    if getattr(args, "ex_choice", None):
        raw = _load_json(args.ex_choice)
        check_json(raw, {str: [str]}, f"{args.ex_choice}: --ex-choice", InputError)
        choice = {(v, i): eid for v, picks in raw.items() for i, eid in enumerate(picks)}
    return LeavittContext(graph, choice)


def cmd_validate(args):
    data = _load_json(args.graph)
    if isinstance(data, dict):  # missing vertices or edges read as none
        data = {"vertices": [], "edges": [], **data}
    problems = validate(*read_graph_json(data))
    return {"valid": not problems, "violations": problems}, 0 if not problems else 1


def cmd_skew(args):
    graph = _graph(args)
    skew = skew_product(graph, _labeling(args))
    return {
        "graph": graph_to_json(skew.graph),
        "vertex_map": {name: [pair[0], str(pair[1])] for name, pair in skew.vertex_pair.items()},
        "edge_map": {name: [pair[0], str(pair[1])] for name, pair in skew.edge_pair.items()},
    }, 0


def cmd_quotient(args):
    graph = _graph(args)
    action = action_from_json(_load_json(args.action))
    quotient = quotient_graph(graph, action)
    return {
        "graph": graph_to_json(quotient.graph),
        "vertex_class": quotient.vertex_class,
        "edge_class": quotient.edge_class,
    }, 0


def cmd_gross_tucker(args):
    graph = _graph(args)
    action = action_from_json(_load_json(args.action))
    result = gross_tucker(graph, action)
    return {
        "quotient": graph_to_json(result.quotient),
        "label": labeling_to_json(result.labeling),
        "iso": {"vertices": result.iso.vmap, "edges": result.iso.emap},
    }, 0


def cmd_cayley(args):
    group = _load_group(args.group)
    parts = [p.strip() for p in split_top_level(args.generators)]
    generators = [group.from_literal(p) for p in parts if p]
    if not generators:
        raise InputError("cayley needs at least one generator")
    skew = cayley_separated_graph(group, generators)
    return graph_to_json(skew.graph), 0


def cmd_reduce(args):
    return element_literal(parse_element(_context(args), args.element)), 0


def cmd_mul(args):
    ctx = _context(args)
    x = parse_element(ctx, args.left)
    y = parse_element(ctx, args.right)
    return element_literal(x * y), 0


def cmd_star(args):
    return element_literal(parse_element(_context(args), args.element).star()), 0


def cmd_expect(args):
    return element_literal(expect(parse_element(_context(args), args.element))), 0


def cmd_grade(args):
    ctx = _context(args)
    labeling = _labeling(args)
    x = parse_element(ctx, args.element)
    parts = decompose(x, labeling)
    return {str(g): element_literal(part) for g, part in parts.items()}, 0


def cmd_act(args):
    ctx = _context(args)
    action = action_from_json(_load_json(args.action))
    g = action.group.from_literal(args.g)
    if g not in action.table:  # only an infinite group's table may miss an element
        raise InputError(f"action table has no entry for {g}")
    # only the entry applied is checked: O(n), where the whole table costs O(|G|·n)
    bad = isomorphism_violations(action.table[g], ctx.graph, ctx.graph)
    if bad:
        raise InputError(f"entry for {g} is not an automorphism: " + "; ".join(bad))
    x = parse_element(ctx, args.element)
    return element_literal(induced_automorphism(action.table[g], x)), 0


def cmd_verify_crossed_iso(args):
    graph = _graph(args)
    labeling = _labeling(args)
    got = str(args.samples)
    if args.samples < 0:
        got = got if len(got) <= QUOTE_LIMIT else quote(got)
        raise InputError(f"--samples must be at least 0, got {got}")
    if args.samples > MAX_SAMPLES:
        raise InputError(f"--samples must be at most {MAX_SAMPLES}, got {quote(got)}")
    if labeling.group.is_finite and labeling.group.order > MAX_GROUP_ORDER:  # before anything is built
        raise InputError(f"verify-crossed-iso takes a group of at most {MAX_GROUP_ORDER} elements")
    report = verify_iso(graph, labeling, sample_count=args.samples, seed=args.seed)
    return report.summary(), 0 if report.ok else 1


def cmd_selftest(args):
    from .selftest import DEFAULT_SEED, run_all
    results = run_all(DEFAULT_SEED if args.seed is None else args.seed)
    return "\n".join(result.line() for result in results), 0 if all(result.ok for result in results) else 1


# name: (handler, help line, arguments in parser order; a bracketed flag is optional)
COMMANDS = {
    "validate": (cmd_validate, "report every broken graph invariant", "--graph"),
    "skew": (cmd_skew, "skew product by a labeling into a finite group", "--graph --label --group"),
    "quotient": (cmd_quotient, "orbit graph of a group action", "--graph --action"),
    "gross-tucker": (
        cmd_gross_tucker, "present a free action as a skew product over its quotient", "--graph --action"
    ),
    "cayley": (cmd_cayley, "Cayley separated graph of a finite group", "--group --generators"),
    "reduce": (cmd_reduce, "rewrite an element literal to normal form", "--graph [--ex-choice] element"),
    "mul": (cmd_mul, "multiply two element literals", "--graph [--ex-choice] left right"),
    "star": (cmd_star, "adjoint of an element literal", "--graph [--ex-choice] element"),
    "expect": (
        cmd_expect, "conditional expectation onto the vertex span", "--graph [--ex-choice] element"
    ),
    "grade": (
        cmd_grade, "decompose an element by a labeling", "--graph [--ex-choice] --label --group element"
    ),
    "act": (
        cmd_act, "apply an induced automorphism to an element", "--graph [--ex-choice] --action g element"
    ),
    "verify-crossed-iso": (
        cmd_verify_crossed_iso,
        "verify the skew-product/crossed-product dictionary",
        "--graph --label --group [--samples] --seed",
    ),
    "selftest": (cmd_selftest, "run the acceptance criteria", "[--seed]"),
}


def _int(text: str) -> int:  # argparse's own message for int would repeat a long value whole
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quote(text)}") from None


# the spec of every argument that has one, shared by each command that takes it
ARGUMENTS = {
    "--graph": {"help": "path to a graph JSON file"},
    "--ex-choice": {"help": "JSON file mapping vertex -> [chosen edge per cell]"},
    "--generators": {"help": "comma-separated element literals"},
    "--samples": {"type": _int, "default": 100},
    "--seed": {"type": _int},
    "g": {"help": "group element literal"},
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``sepgraph`` parser, or, given a subcommand's name, a cheaper one for it.

    Each argparse parser and argument costs tens of microseconds to build, so
    with ``command`` naming a subcommand only that subcommand's parser is
    built: it parses every argument list that starts with ``command`` as the
    full parser does, usage lines and messages included.  Any other
    ``command`` gives the full parser.  Each is built on first use and then
    shared for the rest of the process, so it must not be mutated.
    """
    return _parser(command if command in COMMANDS else None)


@functools.cache  # keyed by a subcommand's name or None: at most len(COMMANDS) + 1 parsers
def _parser(command) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepgraph",
        description="exact computation with separated graphs and their path algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, summary, arguments) in COMMANDS.items():
        if command is None or command == name:
            p = sub.add_parser(name, help=summary)
            p.set_defaults(fn=fn)
            for argument in arguments.split():
                flag = argument.strip("[]")
                required = {"required": flag == argument} if flag.startswith("-") else {}
                p.add_argument(flag, **ARGUMENTS.get(flag, {}), **required)
    if command is not None:
        # the usage line an extra argument prints names every command, as the full parser's does
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    return parser


def main(argv=None) -> int:
    """Run one command, write its output and return its exit code (see the module docstring).

    May be called repeatedly in one process: each subcommand's parser is built
    on first use and kept for the process, at most 14 of them; nothing else
    outlives a call.  An argparse usage error, and ``--help``, raise
    ``SystemExit`` (2 for a usage error) instead of returning.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        output, code = args.fn(args)
        text = output if isinstance(output, str) else json.dumps(output, sort_keys=True, indent=2)
        print(text, flush=True)  # a closed pipe surfaces here when the output was buffered
        return code
    except BrokenPipeError:
        # stdout is gone: point it at devnull so the interpreter's final flush
        # stays silent too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (InputError, GraphError, GroupError, AlgebraError, ScalarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

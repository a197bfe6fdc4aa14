"""Per-layer tracing from outside the program.

The tracer wraps the public entry points of every sepgraph module and records,
per boundary, the number of calls and the self time: a span's duration minus
the time its child spans cover.  Calls that are too small to span without the
trace mostly measuring itself (scalar and group-element arithmetic) are only
counted.

Installing rebinds every reference to an entry point that a sepgraph module
or class holds: module attributes, names other modules imported with
``from .x import y``, and every class attribute that aliases a wrapped method
(``__rmul__`` is ``__mul__`` on ``GaussianRational``).  A reference held
anywhere else would escape the trace, so ``REQUIRED`` names the boundaries
each workload must reach, and ``missing_calls`` reports those that recorded
no call instead of letting them read as zero.

Spans record only while ``active`` is set, which the benchmark does around
each timed operation; calls made by the output checks are not counted.
"""

from __future__ import annotations

import functools
import sys
import time

MODULES = ("cli", "graphs", "groups", "scalars", "algebra", "sampling", "expectation", "crossed")

# metric name -> (module, attribute); "Class.method" names a method
SPANS = {
    "cli.main": ("cli", "main"),
    "graphs.graph_from_json": ("graphs", "graph_from_json"),
    "graphs.graph_to_json": ("graphs", "graph_to_json"),
    "graphs.validate": ("graphs", "validate"),
    "graphs.skew_product": ("graphs", "skew_product"),
    "graphs.quotient_graph": ("graphs", "quotient_graph"),
    "graphs.check_isomorphism": ("graphs", "check_isomorphism"),
    "groups.gross_tucker": ("groups", "gross_tucker"),
    "groups.cayley_separated_graph": ("groups", "cayley_separated_graph"),
    "groups.translation_action": ("groups", "translation_action"),
    "groups.of_word": ("groups", "Labeling.of_word"),
    "scalars.parse_scalar": ("scalars", "parse_scalar"),
    "algebra.context": ("algebra", "LeavittContext.__init__"),
    "algebra.parse_element": ("algebra", "parse_element"),
    "algebra.element_literal": ("algebra", "element_literal"),
    "algebra.reduce_word": ("algebra", "reduce_word"),
    "algebra.from_word": ("algebra", "from_word"),
    "algebra.mul": ("algebra", "AlgebraElement.__mul__"),
    "algebra.star": ("algebra", "AlgebraElement.star"),
    "algebra.decompose": ("algebra", "decompose"),
    "algebra.induced_automorphism": ("algebra", "induced_automorphism"),
    "sampling.random_normal_word": ("sampling", "random_normal_word"),
    "expectation.expect": ("expectation", "expect"),
    "crossed.verify_iso": ("crossed", "verify_iso"),
    "crossed.phi_map": ("crossed", "phi_map"),
    "crossed.crossed_mul": ("crossed", "crossed_mul"),
    "crossed.crossed_star": ("crossed", "crossed_star"),
    "crossed.psi_on_generators": ("crossed", "psi_on_generators"),
    "crossed.psi_apply": ("crossed", "psi_apply"),
    "crossed.slot_translate": ("crossed", "slot_translate"),
}

COUNTS = {
    "scalars.mul": ("scalars", "GaussianRational.__mul__"),
    "scalars.add": ("scalars", "GaussianRational.__add__"),
    "groups.element_mul": ("groups", "GroupElement.__mul__"),
}

# Boundaries each workload's timed operations must reach at least once.
REQUIRED = {
    "products": ["algebra.mul", "scalars.mul", "scalars.add"],
    "expectation": ["expectation.expect", "scalars.mul"],
    "dictionary": [
        "crossed.verify_iso",
        "crossed.phi_map",
        "crossed.crossed_mul",
        "crossed.crossed_star",
        "crossed.psi_on_generators",
        "crossed.psi_apply",
        "crossed.slot_translate",
        "groups.of_word",
        "groups.element_mul",
        "groups.translation_action",
        "sampling.random_normal_word",
        "algebra.mul",
        "algebra.star",
        "algebra.context",
        "algebra.from_word",
        "algebra.induced_automorphism",
        "graphs.skew_product",
        "graphs.validate",
    ],
    "cli": [
        "cli.main",
        "graphs.graph_from_json",
        "graphs.graph_to_json",
        "graphs.validate",
        "graphs.skew_product",
        "graphs.quotient_graph",
        "groups.gross_tucker",
        "groups.cayley_separated_graph",
        "scalars.parse_scalar",
        "algebra.context",
        "algebra.parse_element",
        "algebra.element_literal",
        "algebra.mul",
        "algebra.star",
        "algebra.decompose",
        "algebra.induced_automorphism",
        "expectation.expect",
        "crossed.verify_iso",
    ],
}


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in output order."""
    names = []
    for span in SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [f"{name}.calls" for name in COUNTS]
    for layer in MODULES:
        names += [f"{layer}.self_s", f"{layer}.self_share"]
    names += [
        "algebra.mul.terms_out",
        "algebra.mul.pair_repeat_ratio",
        "expectation.expect.words_in",
        "trace.overhead_ratio",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for a boundary."""
    owner = sys.modules[f"sepgraph.{module}"]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Span and count bookkeeping for one traced round at a time."""

    def __init__(self):
        self.active = False
        self.installed = []  # (owner, attribute, original)
        # wrappers hold these three objects, so reset() clears them in place
        self.spans = {name: [0, 0.0] for name in SPANS}  # calls, self seconds
        self.counts = {name: 0 for name in COUNTS}
        self.stack = []  # child seconds of each open span
        self.reset()

    def reset(self) -> None:
        for stats in self.spans.values():
            stats[:] = [0, 0.0]
        for name in self.counts:
            self.counts[name] = 0
        self.stack.clear()
        self.terms_out = 0
        self.pairs = 0
        self.repeated_pairs = 0
        self.words_in = 0
        self.seen_pairs = {}  # LeavittContext -> set of (word, word); keeps contexts alive

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        stats = self.spans[name]
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stats[0] += 1
            child = [0.0]
            stack.append(child)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                stats[1] += duration - child[0]
                if observe is not None and result is not None:
                    observe(args, result)
                    duration = clock() - start  # bookkeeping is nobody's self time
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_mul(self, args, result) -> None:
        x, y = args[0], args[1]
        seen = self.seen_pairs.setdefault(x.ctx, set())
        for w1 in x.terms:
            for w2 in y.terms:
                self.pairs += 1
                key = (w1, w2)
                if key in seen:
                    self.repeated_pairs += 1
                else:
                    seen.add(key)
        self.terms_out += len(result.terms)

    def _observe_expect(self, args, result) -> None:
        self.words_in += len(args[0].terms)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        observers = {"algebra.mul": self._observe_mul, "expectation.expect": self._observe_expect}
        replacements = {}  # id(original) -> (original, wrapper)
        for name, (module, attr) in SPANS.items():
            owner, attr = _resolve(module, attr)
            original = vars(owner)[attr]
            replacements[id(original)] = (original, self._span(name, original, observers.get(name)))
        for name, (module, attr) in COUNTS.items():
            owner, attr = _resolve(module, attr)
            original = vars(owner)[attr]
            replacements[id(original)] = (original, self._count(name, original))
        for owner in self._namespaces():
            for attr, value in list(vars(owner).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self.installed.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    def _namespaces(self) -> list:
        """Every sepgraph module and every class defined in one."""
        out = []
        for name, module in list(sys.modules.items()):
            if name != "sepgraph" and not name.startswith("sepgraph."):
                continue
            out.append(module)
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    out.append(value)
        return out

    # -- results ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters and self times of the round traced since the last reset."""
        out = {}
        for name, (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name, calls in self.counts.items():
            out[f"{name}.calls"] = calls
        out["algebra.mul.terms_out"] = self.terms_out
        out["algebra.mul.pair_repeat_ratio"] = self.repeated_pairs / self.pairs if self.pairs else 0.0
        out["expectation.expect.words_in"] = self.words_in
        return out


def layer_totals(snapshot: dict) -> dict:
    """Per-module self time and its share of all traced self time."""
    totals = {layer: 0.0 for layer in MODULES}
    for name in SPANS:
        totals[name.split(".")[0]] += snapshot[f"{name}.self_s"]
    whole = sum(totals.values())
    out = {}
    for layer, self_s in totals.items():
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_share"] = self_s / whole if whole else 0.0
    return out


def missing_calls(workload: str, snapshot: dict) -> list:
    """Required boundaries of a workload that recorded no call."""
    return [name for name in REQUIRED[workload] if not snapshot[f"{name}.calls"]]

"""Concrete group arithmetic, edge labelings, graph actions, and the
constructive reconstruction of free actions as skew products.

Supported groups: free groups on named generators, the integers, residues
mod n, and finite direct products.  Elements carry their group, so mixing
elements of different groups is a type error rather than a silent bug.
Only finite groups can be enumerated; skew products, actions and the
crossed-product machinery require that.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple, Sequence

from .graphs import (
    Edge,
    GraphMorphism,
    SeparatedGraph,
    SignedEdge,
    SkewProduct,
    check_json,
    isomorphism_violations,
    quote,
    quotient_graph,
    skew_product,
    walk_orbits,
)


class GroupError(Exception):
    pass


MAX_ORDER = 10**6  # elements() rejects a larger group before building anything
MAX_NESTING = 64  # group_from_json rejects products nested deeper: their methods recurse


class GroupElement:
    """A value of a group.  Equal means equal value in an equal group; the
    hash is the value's, computed once at construction."""

    __slots__ = ("group", "value", "_hash")

    def __init__(self, group: "Group", value):
        self.group = group
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.value == other.value and (
            self.group is other.group or self.group == other.group
        )

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        group = self.group
        if other.group is not group and other.group != group:
            raise GroupError(f"elements of different groups: {group} vs {other.group}")
        return GroupElement(group, group._mul(self.value, other.value))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group._inv(self.value))

    @property
    def is_identity(self) -> bool:
        return self.value == self.group._identity()

    def __str__(self) -> str:
        return self.group.format_value(self.value)

    def __repr__(self) -> str:
        return f"<{self}>"


def _require_int(raw, what: str) -> int:
    """``raw`` itself if it is an int; a bool or a float is no group value."""
    if type(raw) is not int:
        raise GroupError(f"{what} must be an int, got {raw!r}")
    return raw


class Group:
    """Immutable group values; concrete groups implement the ``_``-prefixed hooks."""

    __slots__ = ()
    is_finite = False

    def __reduce__(self):  # the class and the slots: all that equality and hashing read
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Group) and self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.__reduce__()[1]))})"

    def identity(self) -> GroupElement:
        return GroupElement(self, self._identity())

    def element(self, raw) -> GroupElement:
        return GroupElement(self, self._normalize(raw))

    def elements(self) -> list:
        if not self.is_finite:
            raise GroupError(f"{quote(str(self))} is not finite; cannot enumerate its elements")
        if self.order > MAX_ORDER:  # the order itself may have too many digits to print
            raise GroupError(f"{quote(str(self))} has more than {MAX_ORDER} elements, too many to enumerate")
        return [GroupElement(self, v) for v in self._values()]

    def generating_set(self) -> list:  # every element: so elements() alone decides finiteness
        return self.elements()

    def parse(self, text: str) -> GroupElement:
        return GroupElement(self, self._parse(text.strip()))

    def format_value(self, value) -> str:
        return str(value)

    def _to_json(self, value):
        return value

    def from_literal(self, literal) -> GroupElement:
        """The element a JSON literal names: a string literal, or a raw value as
        :meth:`element` takes it (int, list of pairs, or list); else a GroupError."""
        try:
            return self.parse(literal) if isinstance(literal, str) else self.element(literal)
        except (TypeError, ValueError):  # int() of a non-integer, or a raw value of the wrong shape
            raise GroupError(f"{quote(literal)} is not an element of {quote(str(self))}") from None

    def to_literal(self, el: GroupElement):
        return self._to_json(el.value)


class FreeGroup(Group):
    """The free group on named generators; values are reduced letter tuples."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple):
        object.__setattr__(self, "generators", generators)
        # format_value writes 'a.b^-1', and '1' for the identity; parse strips the text
        for name in self.generators:
            if not name or name == "1" or "." in name or "^" in name or name != name.strip():
                raise GroupError(
                    f"free generator name {name!r} is empty, '1', padded, or has '.' or '^'"
                )
        if len(set(self.generators)) != len(self.generators):
            raise GroupError(f"free generator names repeat in {list(self.generators)!r}")

    def _identity(self):
        return ()

    def _mul(self, a, b):
        word = list(a)
        for letter in b:
            if word and word[-1][0] == letter[0] and word[-1][1] == -letter[1]:
                word.pop()
            else:
                word.append(letter)
        return tuple(word)

    def _inv(self, a):
        return tuple((gen, -sign) for gen, sign in reversed(a))

    def _normalize(self, raw):
        letters = []
        for gen, exp in raw:
            if gen not in self.generators:
                raise GroupError(f"unknown generator {quote(gen)}")
            _require_int(exp, "exponent")
            if len(letters) + abs(exp) > MAX_ORDER:  # checked before the letters are built
                raise GroupError(f"free word of more than {MAX_ORDER} letters at {quote(f'{gen}^{exp}')}")
            sign = 1 if exp > 0 else -1
            letters.extend([(gen, sign)] * abs(exp))
        return self._mul((), tuple(letters))

    def format_value(self, value) -> str:
        if not value:
            return "1"
        return ".".join(gen if sign > 0 else f"{gen}^-1" for gen, sign in value)

    def _parse(self, text):
        if text == "1":
            return ()
        raw = []
        for token in text.split("."):
            if "^" in token:
                gen, _, exp = token.partition("^")
                raw.append((gen, int(exp)))
            else:
                raw.append((token, 1))
        return self._normalize(raw)

    def _to_json(self, value):
        return self.format_value(value)

    def generator(self, name: str) -> GroupElement:
        return self.element([(name, 1)])

    def __str__(self):
        return f"free({','.join(self.generators)})"


class IntegerGroup(Group):
    __slots__ = ()

    def _identity(self):
        return 0

    def _mul(self, a, b):
        return a + b

    def _inv(self, a):
        return -a

    def _normalize(self, raw):
        return _require_int(raw, "integer group element")

    def _parse(self, text):
        return int(text)

    def __str__(self):
        return "z"


class CyclicGroup(Group):
    __slots__ = ("modulus",)
    is_finite = True

    def __init__(self, modulus: int):
        if type(modulus) is not int or modulus <= 0:  # bool and float are out
            raise GroupError(f"a cyclic group needs a positive modulus, got {modulus!r}")
        object.__setattr__(self, "modulus", modulus)

    def _identity(self):
        return 0

    def _mul(self, a, b):
        return (a + b) % self.modulus

    def _inv(self, a):
        return (-a) % self.modulus

    def _normalize(self, raw):
        return _require_int(raw, "residue") % self.modulus

    @property
    def order(self) -> int:
        return self.modulus

    def _values(self):
        return list(range(self.modulus))

    def generating_set(self) -> list:
        return [self.element(1)]

    def _parse(self, text):
        return int(text) % self.modulus

    def __str__(self):
        return f"zmod:{self.modulus}"


def split_top_level(text: str) -> list:
    """Split at the commas outside parentheses."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


class ProductGroup(Group):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        if not factors:  # its one element would print as '()', which parse rejects
            raise GroupError("a product group needs a factor; zmod:1 is the trivial group")
        object.__setattr__(self, "factors", factors)

    @property
    def is_finite(self):  # type: ignore[override]
        return all(f.is_finite for f in self.factors)

    def _identity(self):
        return tuple(f._identity() for f in self.factors)

    def _mul(self, a, b):
        return tuple(f._mul(x, y) for f, x, y in zip(self.factors, a, b))

    def _inv(self, a):
        return tuple(f._inv(x) for f, x in zip(self.factors, a))

    def _normalize(self, raw):
        raw = tuple(raw)
        if len(raw) != len(self.factors):
            raise GroupError(f"expected {len(self.factors)} components, got {len(raw)}")
        return tuple(f.from_literal(x).value for f, x in zip(self.factors, raw))

    @property
    def order(self) -> int:
        return math.prod(f.order for f in self.factors)

    def _values(self):
        return [tuple(v) for v in itertools.product(*(f._values() for f in self.factors))]

    def generating_set(self) -> list:  # each factor's generators, the identity elsewhere
        one = self._identity()
        return [GroupElement(self, one[:i] + (s.value,) + one[i + 1:])
                for i, f in enumerate(self.factors) for s in f.generating_set()]

    def format_value(self, value) -> str:
        return "(" + ",".join(f.format_value(x) for f, x in zip(self.factors, value)) + ")"

    def _parse(self, text):
        if not (text.startswith("(") and text.endswith(")")):
            raise GroupError(f"product element literal must be parenthesized: {quote(text)}")
        parts = split_top_level(text[1:-1])
        if len(parts) != len(self.factors):
            raise GroupError(f"expected {len(self.factors)} components in {quote(text)}")
        return tuple(f._parse(p.strip()) for f, p in zip(self.factors, parts))

    def _to_json(self, value):
        return [f._to_json(x) for f, x in zip(self.factors, value)]

    def __str__(self):
        return "x".join(str(f) for f in self.factors)


# -- JSON group specs ---------------------------------------------------------


def group_to_json(group: Group) -> dict:
    if isinstance(group, FreeGroup):
        return {"type": "free", "generators": list(group.generators)}
    if isinstance(group, IntegerGroup):
        return {"type": "z"}
    if isinstance(group, CyclicGroup):
        return {"type": "zmod", "n": group.modulus}
    if isinstance(group, ProductGroup):
        return {"type": "product", "factors": [group_to_json(f) for f in group.factors]}
    raise GroupError(f"cannot serialize group {group!r}")


def group_from_json(data: dict, _depth: int = 0, _where: str = "malformed group spec") -> Group:
    """The group a JSON spec names; ``_depth`` counts enclosing products, ``_where`` names the spec."""
    check_json(data, {"type": str}, _where, GroupError)
    kind = data["type"]
    shape = {"free": {"generators": [str]}, "zmod": {"n": object}, "product": {"factors": [object]}}
    check_json(data, shape.get(kind, {}), _where, GroupError)
    if kind == "free":
        return FreeGroup(tuple(data["generators"]))
    if kind == "z":
        return IntegerGroup()
    if kind == "zmod":
        return CyclicGroup(data["n"])
    if kind == "product":
        if _depth >= MAX_NESTING:
            raise GroupError(f"product groups nested more than {MAX_NESTING} deep")
        return ProductGroup(tuple(
            group_from_json(f, _depth + 1, f"{_where}.factors[{i}]")
            for i, f in enumerate(data["factors"])
        ))
    raise GroupError(f"{_where}.type: expected 'free', 'z', 'zmod' or 'product', got {kind!r}")


# -- labelings ----------------------------------------------------------------


class Labeling(NamedTuple):
    """An assignment of a group element to every edge, extended to paths
    multiplicatively and to reversed edges by inversion."""

    group: Group
    by_edge: dict

    def of(self, edge_id: str) -> GroupElement:
        try:
            return self.by_edge[edge_id]
        except KeyError:
            raise GroupError(f"missing label for edge {edge_id!r}") from None

    def of_word(self, steps: Iterable[SignedEdge]) -> GroupElement:
        """The label of a word: raw values folded, one element made at the end."""
        group = self.group
        out = group._identity()
        for step in steps:
            label = self.of(step.edge)
            if label.group is not group and label.group != group:
                raise GroupError(f"elements of different groups: {group} vs {label.group}")
            out = group._mul(out, group._inv(label.value) if step.star else label.value)
        return GroupElement(group, out)


def free_labeling(graph: SeparatedGraph) -> Labeling:
    """The universal labeling into the free group on the edge set."""
    group = FreeGroup(tuple(e.id for e in graph.edges))
    return Labeling(group, {e.id: group.generator(e.id) for e in graph.edges})


def labeling_to_json(labeling: Labeling) -> dict:
    return {eid: labeling.group.to_literal(el) for eid, el in sorted(labeling.by_edge.items())}


def labeling_from_json(group: Group, data: dict) -> Labeling:
    check_json(data, {str: object}, "malformed labeling JSON", GroupError)
    by_edge = {}
    for eid, lit in data.items():
        try:
            by_edge[eid] = group.from_literal(lit)
        except GroupError as exc:
            raise GroupError(f"label of edge {eid!r}: {exc}") from None
    return Labeling(group, by_edge)


# -- actions ------------------------------------------------------------------


class GraphAction(NamedTuple):
    """A finite group acting by separated-graph automorphisms, held by the entries
    of ``group.generating_set()``; a table may hold more, as an action file lists
    every element.  The action is verified (:meth:`walk`), never assumed."""

    group: Group
    table: dict  # GroupElement -> GraphMorphism

    def morphisms(self) -> dict:
        """Every element's morphism, composed from the generators' entries along a
        breadth-first walk of the group: |G| compositions, for callers that need all."""
        steps = [(s, self.table[s]) for s in self.group.generating_set()]
        out = dict(steps)
        queue = list(out)  # products of generators reach every element, 1 = s^|s| included
        for g in queue:  # the list grows as the walk reaches new elements
            for s, f in steps:
                if s * g not in out:
                    out[s * g] = f.compose(out[g])
                    queue.append(s * g)
        return out

    def walk(self, graph: SeparatedGraph) -> tuple:
        """(problems, vertex classes, vertex carriers, edge classes) from one
        :func:`~sepgraph.graphs.walk_orbits` of the vertices and one of the edges.
        No problems iff the table is an action: the generators' entries are
        automorphisms acting as the group on every orbit, and any other entry is
        its element's product of them (:meth:`morphisms`)."""
        group, table = self.group, self.table
        generators = dict.fromkeys(group.generating_set())  # trivial factors each give the identity
        if missing := [s for s in generators if s not in table]:
            return [_missing_entries(missing)], {}, {}, {}
        problems = [f"entry for {s} is not an automorphism: " + "; ".join(bad)
                    for s in generators if (bad := isomorphism_violations(table[s], graph, graph))]
        if problems:
            return problems, {}, {}, {}
        vmaps, emaps = [(s, table[s].vmap) for s in generators], [(s, table[s].emap) for s in generators]
        vertex_class, carrier, broken = walk_orbits(graph.vertices, vmaps, group)
        edge_class, _, broken_edges = walk_orbits([e.id for e in graph.edges], emaps, group)
        if broken or broken_edges:
            root = quote((broken or broken_edges)[0])
            problems.append(f"the generators' entries do not act as {quote(str(group))} on the orbit of {root}")
        elif len(table) > len(generators):
            composed = self.morphisms()
            differ = [str(g) for g, f in table.items() if f != composed.get(g)]  # or outside the group
            if differ:
                problems.append(f"the entries for {differ} are not products of the generators' entries")
        return problems, vertex_class, carrier, edge_class


def translation_action(skew: SkewProduct) -> GraphAction:
    """The free action of the group on its own skew product, g.(x,h) = (x,gh),
    held by the entries of the group's generators."""
    group = skew.group
    table = {}
    for s in group.generating_set():
        vmap = {name: skew.vertex_name[(v, s * h)] for name, (v, h) in skew.vertex_pair.items()}
        emap = {name: skew.edge_name[(e, s * h)] for name, (e, h) in skew.edge_pair.items()}
        table[s] = GraphMorphism(vmap, emap)
    return GraphAction(group, table)


def action_to_json(action: GraphAction) -> dict:
    """The JSON form of an action: every element's entry (:meth:`GraphAction.morphisms`)."""
    table = {}
    for g, f in action.morphisms().items():
        table[str(g)] = {"vertices": dict(sorted(f.vmap.items())), "edges": dict(sorted(f.emap.items()))}
    return {"group": group_to_json(action.group), "table": dict(sorted(table.items()))}


def action_from_json(data: dict) -> GraphAction:
    """An action from its JSON form, whose table lists every element of a finite group."""
    entry = {"vertices": {str: str}, "edges": {str: str}}
    check_json(data, {"group": object, "table": {str: entry}}, "malformed action JSON", GroupError)
    group = group_from_json(data["group"], _where="malformed action JSON.group")
    table, keys = {}, {}
    for key, maps in data["table"].items():
        g = group.from_literal(key)
        if keys.setdefault(g, key) != key:
            raise GroupError(f"action table keys {keys[g]!r} and {key!r} both name {g}")
        table[g] = GraphMorphism(dict(maps["vertices"]), dict(maps["edges"]))
    if group.is_finite and len(table) < group.order:
        raise GroupError(_missing_entries([g for g in group.elements() if g not in table]))
    return GraphAction(group, table)


def _missing_entries(missing: list) -> str:
    """The message for the elements an action table lacks: the first five, then a
    count.  The five share 90 characters, so long element texts give a short line."""
    shown = ", ".join(quote(str(g), 90 // min(len(missing), 5)) for g in missing[:5])
    more = f" and {len(missing) - 5:,} more" if len(missing) > 5 else ""
    return f"action table is missing entries for [{shown}]{more}"


# -- reconstruction of free actions ------------------------------------------


class GrossTuckerResult(NamedTuple):
    """A free action presented as a skew product over its quotient graph.

    ``iso`` maps the rebuilt skew product onto the original graph; it passes
    :func:`~sepgraph.graphs.check_isomorphism` and intertwines the translation
    action with the given one.
    """

    quotient: SeparatedGraph
    labeling: Labeling
    skew: SkewProduct
    iso: GraphMorphism


def gross_tucker(graph: SeparatedGraph, action: GraphAction) -> GrossTuckerResult:
    """Reconstruct a free action as a skew product over the quotient graph.

    :func:`~sepgraph.graphs.quotient_graph` checks the action and finds its
    orbits in one walk.  The action is free iff every vertex orbit has |G|
    members.  The base vertex x of a vertex orbit is its class id, and the
    walk's carrier of a vertex y is then the one g with y = g.x: y has the orbit
    coordinates (x, g).  An edge orbit has exactly one member starting at a base
    vertex (if f and k.f both did, k would fix that vertex), and the carrier of
    its range is the label of the orbit.  The isomorphism sends (x, g) to g.x,
    and (orbit, g) to the member of the orbit that starts at g.x.
    """
    base, vertex_class, edge_class, carrier = quotient_graph(graph, action)
    if len(base.vertices) * action.group.order != len(graph.vertices):
        for v in graph.vertices:  # an orbit short of |G| members has a step its carriers do not follow
            for s in action.group.generating_set():
                k = carrier[action.table[s].vmap[v]].inverse() * s * carrier[v]
                if not k.is_identity:  # k fixes the class id of v (graphs.walk_orbits)
                    raise GroupError(f"action is not free: {k} fixes vertex {vertex_class[v]!r}")
    label = {edge_class[e.id]: carrier[e.dst] for e in graph.edges if vertex_class[e.src] == e.src}
    labeling = Labeling(action.group, label)
    skew = skew_product(base, labeling)
    iso = GraphMorphism(
        {skew.vertex_name[(vertex_class[v], carrier[v])]: v for v in graph.vertices},
        {skew.edge_name[(edge_class[e.id], carrier[e.src])]: e.id for e in graph.edges},
    )
    return GrossTuckerResult(base, labeling, skew, iso)


def is_equivariant_iso(result: GrossTuckerResult, action: GraphAction) -> bool:
    """Check that the rebuilt isomorphism intertwines the translation action on
    the skew product with the original action, iso∘t(s) = a(s)∘iso, on the
    generators s: both sides are actions, so the generators carry the rest."""
    translation, iso = translation_action(result.skew).table, result.iso
    return all(iso.compose(t) == action.table[s].compose(iso) for s, t in translation.items())


# -- Cayley separated graphs ---------------------------------------------------


def bouquet_graph(n: int) -> SeparatedGraph:
    """One vertex ``v`` with n loops ``a1 .. an``, each loop its own singleton cell."""
    edges = [Edge(f"a{i}", "v", "v") for i in range(1, n + 1)]
    return SeparatedGraph(["v"], edges, {"v": [[e.id] for e in edges]})


def cayley_separated_graph(group: Group, generators: Sequence[GroupElement]) -> SkewProduct:
    """The Cayley separated graph of a finite group with chosen generators.

    Built as the skew product of the n-loop bouquet by the labeling that sends
    the i-th loop to the i-th generator, which is the same graph: vertices are
    the group elements and the edge (h, g_i) runs from h to h*g_i, each edge in
    its own cell.
    """
    base = bouquet_graph(len(generators))
    labeling = Labeling(
        group, {f"a{i}": g for i, g in enumerate(generators, start=1)}
    )
    return skew_product(base, labeling)

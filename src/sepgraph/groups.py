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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import (
    Edge,
    GraphMorphism,
    SeparatedGraph,
    SignedEdge,
    SkewProduct,
    isomorphism_violations,
    quotient_graph,
    skew_product,
)


class GroupError(Exception):
    pass


@dataclass(frozen=True)
class GroupElement:
    group: "Group"
    value: object

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.group != self.group:
            raise GroupError(f"elements of different groups: {self.group} vs {other.group}")
        return GroupElement(self.group, self.group._mul(self.value, other.value))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group._inv(self.value))

    @property
    def is_identity(self) -> bool:
        return self.value == self.group._identity()

    def __str__(self) -> str:
        return self.group.format_value(self.value)

    def __repr__(self) -> str:
        return f"<{self}>"


class Group:
    """Shared behaviour; concrete groups implement the ``_``-prefixed hooks."""

    is_finite = False

    def identity(self) -> GroupElement:
        return GroupElement(self, self._identity())

    def element(self, raw) -> GroupElement:
        return GroupElement(self, self._normalize(raw))

    def elements(self) -> list:
        if not self.is_finite:
            raise GroupError(f"{self} is not finite; cannot enumerate its elements")
        return [GroupElement(self, v) for v in self._values()]

    @property
    def order(self) -> int:
        return len(self._values())

    def parse(self, text: str) -> GroupElement:
        return GroupElement(self, self._parse(text.strip()))

    def format_value(self, value) -> str:
        raise NotImplementedError

    def from_literal(self, literal) -> GroupElement:
        """Accept the JSON form of an element (int, string, or list)."""
        if isinstance(literal, str):
            return self.parse(literal)
        return self.element(self._from_json(literal))

    def to_literal(self, el: GroupElement):
        return self._to_json(el.value)


@dataclass(frozen=True)
class FreeGroup(Group):
    """The free group on named generators; values are reduced letter tuples."""

    generators: tuple

    is_finite = False

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
                raise GroupError(f"unknown generator {gen!r}")
            if exp == 0:
                continue
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

    def _from_json(self, literal):
        return [(gen, int(exp)) for gen, exp in literal]

    def _to_json(self, value):
        return self.format_value(value)

    def generator(self, name: str) -> GroupElement:
        return self.element([(name, 1)])

    def __str__(self):
        return f"free({','.join(self.generators)})"


@dataclass(frozen=True)
class IntegerGroup(Group):
    is_finite = False

    def _identity(self):
        return 0

    def _mul(self, a, b):
        return a + b

    def _inv(self, a):
        return -a

    def _normalize(self, raw):
        if not isinstance(raw, int):
            raise GroupError(f"integer group element must be an int, got {raw!r}")
        return raw

    def format_value(self, value) -> str:
        return str(value)

    def _parse(self, text):
        return int(text)

    def _from_json(self, literal):
        return int(literal)

    def _to_json(self, value):
        return value

    def __str__(self):
        return "z"


@dataclass(frozen=True)
class CyclicGroup(Group):
    modulus: int

    is_finite = True

    def __post_init__(self):
        if not isinstance(self.modulus, int) or self.modulus <= 0:
            raise GroupError(f"a cyclic group needs a positive modulus, got {self.modulus!r}")

    def _identity(self):
        return 0

    def _mul(self, a, b):
        return (a + b) % self.modulus

    def _inv(self, a):
        return (-a) % self.modulus

    def _normalize(self, raw):
        if not isinstance(raw, int):
            raise GroupError(f"residue must be an int, got {raw!r}")
        return raw % self.modulus

    def _values(self):
        return list(range(self.modulus))

    def format_value(self, value) -> str:
        return str(value)

    def _parse(self, text):
        return int(text) % self.modulus

    def _from_json(self, literal):
        return int(literal)

    def _to_json(self, value):
        return value

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


@dataclass(frozen=True)
class ProductGroup(Group):
    factors: tuple

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
        return tuple(f._normalize(x) for f, x in zip(self.factors, raw))

    def _values(self):
        return [tuple(v) for v in itertools.product(*(f._values() for f in self.factors))]

    def format_value(self, value) -> str:
        return "(" + ",".join(f.format_value(x) for f, x in zip(self.factors, value)) + ")"

    def _parse(self, text):
        if not (text.startswith("(") and text.endswith(")")):
            raise GroupError(f"product element literal must be parenthesized: {text!r}")
        parts = split_top_level(text[1:-1])
        if len(parts) != len(self.factors):
            raise GroupError(f"expected {len(self.factors)} components in {text!r}")
        return tuple(f._parse(p.strip()) for f, p in zip(self.factors, parts))

    def _from_json(self, literal):
        return tuple(
            f.from_literal(part).value for f, part in zip(self.factors, literal)
        )

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


def group_from_json(data: dict) -> Group:
    try:
        kind = data["type"]
    except (KeyError, TypeError) as exc:
        raise GroupError(f"malformed group spec: {exc}") from None
    if kind == "free":
        return FreeGroup(tuple(data["generators"]))
    if kind == "z":
        return IntegerGroup()
    if kind == "zmod":
        return CyclicGroup(int(data["n"]))
    if kind == "product":
        return ProductGroup(tuple(group_from_json(f) for f in data["factors"]))
    raise GroupError(f"unknown group type {kind!r}")


# -- labelings ----------------------------------------------------------------


@dataclass
class Labeling:
    """An assignment of a group element to every edge, extended to paths
    multiplicatively and to reversed edges by inversion."""

    group: Group
    by_edge: dict

    def of(self, edge_id: str) -> GroupElement:
        try:
            return self.by_edge[edge_id]
        except KeyError:
            raise GroupError(f"missing label for edge {edge_id!r}") from None

    def of_step(self, step: SignedEdge) -> GroupElement:
        value = self.of(step.edge)
        return value.inverse() if step.star else value

    def of_word(self, steps: Iterable[SignedEdge]) -> GroupElement:
        out = self.group.identity()
        for step in steps:
            out = out * self.of_step(step)
        return out


def free_labeling(graph: SeparatedGraph) -> Labeling:
    """The universal labeling into the free group on the edge set."""
    group = FreeGroup(tuple(e.id for e in graph.edges))
    return Labeling(group, {e.id: group.generator(e.id) for e in graph.edges})


def labeling_to_json(labeling: Labeling) -> dict:
    return {eid: labeling.group.to_literal(el) for eid, el in sorted(labeling.by_edge.items())}


def labeling_from_json(group: Group, data: dict) -> Labeling:
    if not isinstance(data, dict):
        raise GroupError("a labeling must be a JSON object mapping edge ids to elements")
    by_edge = {}
    for eid, lit in data.items():
        try:
            by_edge[eid] = group.from_literal(lit)
        except (TypeError, ValueError):
            raise GroupError(
                f"label of edge {eid!r} is not an element of {group}: {lit!r}"
            ) from None
    return Labeling(group, by_edge)


# -- actions ------------------------------------------------------------------


@dataclass
class GraphAction:
    """A finite group acting by separated-graph automorphisms, given by a
    full permutation table; the homomorphism property is verified, never
    assumed."""

    group: Group
    table: dict  # GroupElement -> GraphMorphism

    def morphism(self, g: GroupElement) -> GraphMorphism:
        try:
            return self.table[g]
        except KeyError:
            raise GroupError(f"action table has no entry for {g}") from None

    def apply_vertex(self, g: GroupElement, v: str) -> str:
        return self.morphism(g).vmap[v]

    def apply_edge(self, g: GroupElement, e: str) -> str:
        return self.morphism(g).emap[e]

    def violations(self, graph: SeparatedGraph) -> list:
        return check_action(self, graph)


def check_action(action: GraphAction, graph: SeparatedGraph) -> list:
    """Everything wrong with an action table (empty report iff valid)."""
    problems = []
    group = action.group
    if not group.is_finite:
        return [f"unsupported group for actions: {group} is not finite"]
    elements = group.elements()
    missing = [g for g in elements if g not in action.table]
    if missing:
        return [f"action table is missing entries for {[str(g) for g in missing]}"]
    extra = [g for g in action.table if g not in set(elements)]
    if extra:
        problems.append(f"action table has entries outside the group: {[str(g) for g in extra]}")
    for g in elements:
        f = action.table[g]
        bad = isomorphism_violations(f, graph, graph)
        if bad:
            problems.append(f"entry for {g} is not an automorphism: " + "; ".join(bad))
    if problems:
        return problems
    ident = action.table[group.identity()]
    if any(ident.vmap[v] != v for v in graph.vertices) or any(
        ident.emap[e.id] != e.id for e in graph.edges
    ):
        problems.append("identity element does not act as the identity")
    for g in elements:
        for h in elements:
            composed = action.table[g].compose(action.table[h])
            target = action.table[g * h]
            if composed.vmap != target.vmap or composed.emap != target.emap:
                problems.append(f"table({g})∘table({h}) differs from table({g}{h})")
    return problems


def _fixed_vertex(action: GraphAction, graph: SeparatedGraph):
    """The first (nontrivial g, vertex it fixes), or ``None`` for a free action."""
    for g in action.group.elements():
        if g.is_identity:
            continue
        vmap = action.morphism(g).vmap
        for v in graph.vertices:
            if vmap[v] == v:
                return g, v
    return None


def is_free(action: GraphAction, graph: SeparatedGraph) -> bool:
    """True iff no nontrivial group element fixes a vertex."""
    return _fixed_vertex(action, graph) is None


def translation_action(skew: SkewProduct) -> GraphAction:
    """The free action of the group on its own skew product: g.(x,h) = (x,gh)."""
    group = skew.group
    table = {}
    for g in group.elements():
        vmap = {name: skew.vertex_name[(v, g * h)] for name, (v, h) in skew.vertex_pair.items()}
        emap = {name: skew.edge_name[(e, g * h)] for name, (e, h) in skew.edge_pair.items()}
        table[g] = GraphMorphism(vmap, emap)
    return GraphAction(group, table)


def action_to_json(action: GraphAction) -> dict:
    table = {}
    for g, f in action.table.items():
        table[str(g)] = {"vertices": dict(sorted(f.vmap.items())), "edges": dict(sorted(f.emap.items()))}
    return {"group": group_to_json(action.group), "table": dict(sorted(table.items()))}


def action_from_json(data: dict) -> GraphAction:
    try:
        group = group_from_json(data["group"])
        table = {}
        for key, maps in data["table"].items():
            table[group.parse(key)] = GraphMorphism(dict(maps["vertices"]), dict(maps["edges"]))
    except (KeyError, TypeError, AttributeError) as exc:  # AttributeError: a table that is no object
        raise GroupError(f"malformed action JSON: {exc}") from None
    return GraphAction(group, table)


# -- reconstruction of free actions ------------------------------------------


@dataclass
class GrossTuckerResult:
    """A free action presented as a skew product over its quotient graph.

    ``iso`` maps the rebuilt skew product onto the original graph; it passes
    :func:`~sepgraph.graphs.check_isomorphism` and intertwines the translation
    action with the given one.
    """

    quotient: SeparatedGraph
    vertex_class: dict
    edge_class: dict
    labeling: Labeling
    skew: SkewProduct
    iso: GraphMorphism


def gross_tucker(graph: SeparatedGraph, action: GraphAction) -> GrossTuckerResult:
    """Reconstruct a free action as a skew product over the quotient graph.

    Per vertex orbit the base vertex is the lexicographically smallest member
    (which is also the orbit's class id).  Each edge orbit has a unique
    representative starting at its base vertex; the group element carrying the
    base vertex of the range orbit to the representative's range defines the
    quotient labeling.
    """
    problems = check_action(action, graph)
    if problems:
        raise GroupError("invalid action: " + "; ".join(problems))
    fixed = _fixed_vertex(action, graph)
    if fixed is not None:
        g, v = fixed
        raise GroupError(f"action is not free: {g} fixes vertex {v!r}")
    quotient = quotient_graph(graph, action)
    group = action.group
    elements = group.elements()

    # the class id is the lex-smallest orbit member, hence also the base vertex
    rep_edge = {}
    label = {}
    for e in quotient.graph.edges:
        candidates = [
            orig.id
            for orig in graph.edges
            if quotient.edge_class[orig.id] == e.id and orig.src == e.src
        ]
        if len(candidates) != 1:
            raise GroupError(
                f"edge orbit {e.id!r} has {len(candidates)} representatives at its base vertex"
            )
        rep = graph.edge(candidates[0])
        rep_edge[e.id] = rep.id
        carriers = [g for g in elements if action.apply_vertex(g, e.dst) == rep.dst]
        if len(carriers) != 1:
            raise GroupError(f"freeness failure while labeling edge orbit {e.id!r}")
        label[e.id] = carriers[0]

    labeling = Labeling(group, label)
    skew = skew_product(quotient.graph, labeling)
    vmap = {
        name: action.apply_vertex(g, x) for name, (x, g) in skew.vertex_pair.items()
    }
    emap = {
        name: action.apply_edge(g, rep_edge[y]) for name, (y, g) in skew.edge_pair.items()
    }
    iso = GraphMorphism(vmap, emap)
    return GrossTuckerResult(
        quotient=quotient.graph,
        vertex_class=quotient.vertex_class,
        edge_class=quotient.edge_class,
        labeling=labeling,
        skew=skew,
        iso=iso,
    )


def is_equivariant_iso(result: GrossTuckerResult, action: GraphAction) -> bool:
    """Pointwise check that the rebuilt isomorphism intertwines the translation
    action on the skew product with the original action."""
    translation = translation_action(result.skew)
    for z in action.group.elements():
        t = translation.morphism(z)
        a = action.morphism(z)
        for name in result.skew.vertex_pair:
            if result.iso.vmap[t.vmap[name]] != a.vmap[result.iso.vmap[name]]:
                return False
        for name in result.skew.edge_pair:
            if result.iso.emap[t.emap[name]] != a.emap[result.iso.emap[name]]:
                return False
    return True


# -- Cayley separated graphs ---------------------------------------------------


def bouquet_graph(n: int, vertex: str = "v", prefix: str = "a") -> SeparatedGraph:
    """One vertex with n loops, each loop its own singleton cell."""
    edges = [Edge(f"{prefix}{i}", vertex, vertex) for i in range(1, n + 1)]
    return SeparatedGraph([vertex], edges, {vertex: [[e.id] for e in edges]})


def cayley_separated_graph(group: Group, generators: Sequence[GroupElement]) -> SkewProduct:
    """The Cayley separated graph of a finite group with chosen generators.

    Built as the skew product of the n-loop bouquet by the labeling that sends
    the i-th loop to the i-th generator, which is the same graph: vertices are
    the group elements and the edge (h, g_i) runs from h to h*g_i, each edge in
    its own cell.
    """
    if not group.is_finite:
        raise GroupError(f"unsupported group for Cayley graphs: {group} is not finite")
    base = bouquet_graph(len(generators))
    labeling = Labeling(
        group, {f"a{i}": g for i, g in enumerate(generators, start=1)}
    )
    return skew_product(base, labeling)

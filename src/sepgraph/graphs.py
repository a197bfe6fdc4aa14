"""Finite separated graphs: validation, skew products, quotients, and
isomorphism checking.

A separated graph is a finite directed graph together with, at each vertex, an
ordered partition of the outgoing edges into nonempty cells.  The cell order
and the edge order inside each cell are preserved from the input; downstream
code relies on that stability to make representative choices deterministic.
A :class:`SeparatedGraph` is checked when it is built, so every one is valid;
:func:`validate` reports the problems of raw parts without building anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .groups import GraphAction, Labeling


class GraphError(Exception):
    """Inconsistent graph data, or an operation applied outside its domain."""


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


class SignedEdge(NamedTuple):
    """An edge of the extended graph: ``e`` itself, or its formal reverse ``e*``.

    The reverse travels the edge backwards: its source is the range of ``e``
    and its range is the source of ``e``.  A plain tuple underneath, so words
    (tuples of steps) hash and compare without a Python-level call per step.
    """

    edge: str
    star: bool = False

    def reverse(self) -> "SignedEdge":
        return SignedEdge(self.edge, not self.star)

    def literal(self) -> str:
        return self.edge + "*" if self.star else self.edge


class _StepTable(dict):
    """A graph's step table: a missing signed edge is an unknown edge id."""

    __slots__ = ()

    def __missing__(self, step):
        raise GraphError(f"unknown edge id {quote(step[0])}")


class SeparatedGraph:
    """A finite separated graph: a directed graph with an ordered partition of
    the out-edges of each vertex into nonempty cells.

    Construction validates: parts that break an invariant raise a
    :class:`GraphError` listing every problem :func:`validate` finds, so every
    object is a separated graph.  Vertices missing from ``separation`` get an
    empty cell list (the canonical representation for sinks).
    """

    __slots__ = ("vertices", "edges", "separation", "_edge_by_id", "_out", "_steps", "_moves")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable,
        separation: Mapping[str, Sequence[Sequence[str]]],
    ):
        self.vertices = tuple(vertices)
        self.edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        sep = {v: tuple(tuple(cell) for cell in cells) for v, cells in separation.items()}
        problems = validate(self.vertices, self.edges, sep)
        if problems:
            raise GraphError("invalid separated graph: " + "; ".join(problems))
        for v in self.vertices:
            sep.setdefault(v, ())
        self.separation = sep
        self._edge_by_id = {e.id: e for e in self.edges}
        self._out = {v: [] for v in self.vertices}
        for e in self.edges:
            self._out[e.src].append(e.id)
        self._steps = self._moves = None  # built on first use, then shared by every context

    # -- lookups -----------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge id {quote(edge_id)}") from None

    def require_vertex(self, v: str) -> None:
        if v not in self._out:
            raise GraphError(f"unknown vertex id {quote(v)}")

    def out_edges(self, v: str) -> tuple:
        self.require_vertex(v)
        return tuple(self._out[v])

    def cells(self, v: str) -> tuple:
        self.require_vertex(v)
        return self.separation[v]

    def cell_of(self, edge_id: str) -> tuple:
        """The (vertex, cell index) of the partition cell containing the edge."""
        return self.step_table()[SignedEdge(edge_id)][2]

    def cell_edges(self, v: str, index: int) -> tuple:
        return self.cells(v)[index]

    def step_table(self) -> dict:
        """Signed edge -> (source, range, cell, cell edges) for both orientations
        of every edge."""
        if self._steps is None:
            self._steps = steps = _StepTable()
            for v, cells in self.separation.items():
                for i, cell in enumerate(cells):
                    for eid in cell:
                        dst = self._edge_by_id[eid].dst
                        steps[SignedEdge(eid)] = (v, dst, (v, i), cell)
                        steps[SignedEdge(eid, True)] = (dst, v, (v, i), cell)
        return self._steps

    def moves(self, v: str) -> tuple:
        """The signed edges leaving ``v`` in the extended graph: its out-edges,
        then the reverses of the edges into it, each in edge order."""
        self.require_vertex(v)
        if self._moves is None:
            into = {u: [] for u in self._out}
            for e in self.edges:
                into[e.dst].append(SignedEdge(e.id, True))
            self._moves = {u: (*map(SignedEdge, self._out[u]), *into[u]) for u in into}
        return self._moves[v]

    def source(self, step: SignedEdge) -> str:
        return self.step_table()[step][0]

    def range(self, step: SignedEdge) -> str:
        return self.step_table()[step][1]

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, SeparatedGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.separation == other.separation
        )

    def __hash__(self):
        return hash((self.vertices, self.edges, tuple(sorted(self.separation.items()))))

    def __repr__(self) -> str:
        return f"SeparatedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def validate(vertices: Sequence[str], edges: Sequence[Edge], separation: Mapping) -> list:
    """Every broken separated-graph invariant of the parts, with the offending ids.

    Empty list iff :class:`SeparatedGraph` accepts the parts.
    """
    report = []
    vertex_set = set()
    for v in vertices:
        if v in vertex_set:
            report.append(f"duplicate vertex id {v!r}")
        vertex_set.add(v)
    by_id = {}
    for e in edges:
        if e.id in by_id:
            report.append(f"duplicate edge id {e.id!r}")
        else:
            by_id[e.id] = e
        if e.src not in vertex_set:
            report.append(f"edge {e.id!r} has unknown source {e.src!r}")
        if e.dst not in vertex_set:
            report.append(f"edge {e.id!r} has unknown range {e.dst!r}")
    covered = set()
    for v, cells in separation.items():
        if v not in vertex_set:
            report.append(f"separation listed at unknown vertex {v!r}")
            continue
        for i, cell in enumerate(cells):
            if not cell:
                report.append(f"empty separation cell at vertex {v!r} (index {i})")
            for eid in cell:
                if eid not in by_id:
                    report.append(f"separation cell at {v!r} names unknown edge {eid!r}")
                    continue
                if by_id[eid].src != v:
                    report.append(
                        f"edge {eid!r} listed at {v!r} but its source is {by_id[eid].src!r}"
                    )
                if eid in covered:
                    report.append(f"edge {eid!r} appears in more than one separation cell")
                covered.add(eid)
    for e in edges:
        if e.id not in covered and e.src in vertex_set:
            report.append(f"uncovered edge {e.id!r}: missing from every cell at {e.src!r}")
    return report


# -- morphisms ---------------------------------------------------------------


class GraphMorphism(NamedTuple):
    """A pair of maps on vertex and edge ids commuting with source and range."""

    vmap: dict
    emap: dict

    def compose(self, inner: "GraphMorphism") -> "GraphMorphism":
        return GraphMorphism(
            {v: self.vmap[w] for v, w in inner.vmap.items()},
            {e: self.emap[f] for e, f in inner.emap.items()},
        )


def isomorphism_violations(
    f: GraphMorphism, src: SeparatedGraph, dst: SeparatedGraph
) -> list:
    """Why ``f`` fails to be an isomorphism of separated graphs (empty if it is).

    Checked: totality, bijectivity on vertices and edges, compatibility with
    source and range, and that every separation cell maps onto a cell.
    """
    problems = []
    if set(f.vmap) != set(src.vertices):
        problems.append("vertex map is not defined on exactly the source vertices")
    if set(f.emap) != {e.id for e in src.edges}:
        problems.append("edge map is not defined on exactly the source edges")
    if problems:
        return problems
    if set(f.vmap.values()) != set(dst.vertices) or len(set(f.vmap.values())) != len(f.vmap):
        problems.append("vertex map is not a bijection onto the target vertices")
    dst_edge_ids = {e.id for e in dst.edges}
    if set(f.emap.values()) != dst_edge_ids or len(set(f.emap.values())) != len(f.emap):
        problems.append("edge map is not a bijection onto the target edges")
    if problems:
        return problems
    for e in src.edges:
        image = dst.edge(f.emap[e.id])
        if image.src != f.vmap[e.src]:
            problems.append(f"source of {e.id!r} is not respected")
        if image.dst != f.vmap[e.dst]:
            problems.append(f"range of {e.id!r} is not respected")
    for v in src.vertices:
        dst_cells = [frozenset(cell) for cell in dst.cells(f.vmap[v])]
        for cell in src.cells(v):
            if frozenset(f.emap[eid] for eid in cell) not in dst_cells:
                problems.append(
                    f"separation cell {tuple(cell)} at {v!r} does not map onto a cell"
                )
    return problems


def check_isomorphism(f: GraphMorphism, src: SeparatedGraph, dst: SeparatedGraph) -> bool:
    """True iff ``f`` is a bijective morphism mapping cells onto cells."""
    return not isomorphism_violations(f, src, dst)


# -- skew products -----------------------------------------------------------


class SkewProduct(NamedTuple):
    """A skew product graph plus the naming maps for its (item, group) pairs.

    Vertices are pairs (v, g) named ``v@g``; the edge (e, g) runs from
    (src e, g) to (dst e, g*c(e)); each cell X at v yields the cell
    X x {g} at (v, g).
    """

    graph: SeparatedGraph
    base: SeparatedGraph
    labeling: "Labeling"
    vertex_name: dict  # (v, GroupElement) -> str
    edge_name: dict  # (e, GroupElement) -> str
    vertex_pair: dict  # str -> (v, GroupElement)
    edge_pair: dict  # str -> (e, GroupElement)

    @property
    def group(self):
        return self.labeling.group


def skew_product(graph: SeparatedGraph, labeling: "Labeling") -> SkewProduct:
    """The skew product of a separated graph by an edge labeling into a finite group."""
    group = labeling.group
    elements = group.elements()  # raises on an infinite group
    for e in graph.edges:
        labeling.of(e.id)  # raises on a missing label
    vertex_name = {}
    edge_name = {}
    vertices = []
    edges = []
    for v in graph.vertices:
        for g in elements:
            name = f"{v}@{g}"
            vertex_name[(v, g)] = name
            vertices.append(name)
    for e in graph.edges:
        for g in elements:
            name = f"{e.id}@{g}"
            edge_name[(e.id, g)] = name
            edges.append(
                Edge(name, vertex_name[(e.src, g)], vertex_name[(e.dst, g * labeling.of(e.id))])
            )
    separation = {}
    for v in graph.vertices:
        for g in elements:
            separation[vertex_name[(v, g)]] = [
                [edge_name[(eid, g)] for eid in cell] for cell in graph.cells(v)
            ]
    product = SeparatedGraph(vertices, edges, separation)
    return SkewProduct(
        graph=product,
        base=graph,
        labeling=labeling,
        vertex_name=vertex_name,
        edge_name=edge_name,
        vertex_pair={name: pair for pair, name in vertex_name.items()},
        edge_pair={name: pair for pair, name in edge_name.items()},
    )


# -- quotients ---------------------------------------------------------------


class Quotient(NamedTuple):
    """A quotient separated graph together with the orbit maps."""

    graph: SeparatedGraph
    vertex_class: dict  # original vertex -> class id
    edge_class: dict  # original edge -> class id
    carrier: dict  # original vertex -> a group element g with vertex = g.(class id)


def walk_orbits(points: Sequence[str], steps: list, group) -> tuple:
    """One breadth-first walk per orbit of the maps in ``steps``, pairs (s, map) of
    the generators s of a finite group G and bijections of ``points``: (root,
    carrier, broken).  A point's root r is the least member of its orbit O, its
    carrier c the product of the generators walked from r, so it is c.r, and
    ``broken`` lists the roots of the orbits on which the maps do not act as G.

    No relation of G is needed.  Each step b -> s.b gives k = c(s.b)^-1 s c(b),
    1 on the walk's tree; the maps act on O iff |O|·|H| = |G|, for H the
    subgroup the ks generate.  As c(s.b)H = s c(b)H, b -> c(b)H carries each map
    to a left multiplication on G/H, onto it as generators reach all of G; if
    |O| = |G/H| it is a bijection, and carries G's action on G/H back to one on
    O by the maps.  In an action each k fixes r, so |O| <= |G/H|; free means H = 1.
    """
    root, carrier, broken, orders = {}, {}, [], {}  # orders: |H| by its set of ks, each closed once
    one = group.identity()
    for r in sorted(points):
        if r in root:
            continue
        root[r], carrier[r] = r, one
        orbit, off_tree = [r], set()
        for b in orbit:  # the list grows as the walk reaches new points
            for s, image in steps:
                b2, c = image[b], s * carrier[b]
                if b2 not in root:
                    root[b2], carrier[b2] = r, c
                    orbit.append(b2)
                elif carrier[b2] != c:
                    off_tree.add(carrier[b2].inverse() * c)
        if (ks := frozenset(off_tree)) not in orders:
            subgroup, frontier = {one}, {one}
            while frontier:
                frontier = {h * k for h in frontier for k in ks} - subgroup
                subgroup |= frontier
            orders[ks] = len(subgroup)
        if len(orbit) * orders[ks] != group.order:
            broken.append(r)
    return root, carrier, broken


def quotient_graph(graph: SeparatedGraph, action: "GraphAction") -> Quotient:
    """The orbit graph of an action, separation cells pushed to classes; the
    action is checked in the walk that finds its orbits (``action.walk``).

    Class ids are the least orbit members.  Cells are read off at each class
    representative; duplicate cells (which arise when the action glues two
    cells at one vertex) are merged.
    """
    problems, vertex_class, carrier, edge_class = action.walk(graph)
    if problems:
        raise GraphError("action invariant violation: " + "; ".join(problems))
    vertices = sorted(set(vertex_class.values()))
    edge_reps = sorted(set(edge_class.values()))
    edges = [
        Edge(eid, vertex_class[graph.edge(eid).src], vertex_class[graph.edge(eid).dst])
        for eid in edge_reps
    ]
    separation = {}
    for rep in vertices:
        cells = {}  # each cell's image once, keyed by its set of classes, in first-seen order
        for cell in graph.cells(rep):
            image = list(dict.fromkeys(edge_class[eid] for eid in cell))
            cells.setdefault(frozenset(image), image)
        separation[rep] = list(cells.values())
    return Quotient(SeparatedGraph(vertices, edges, separation), vertex_class, edge_class, carrier)


# -- JSON ---------------------------------------------------------------------


def graph_to_json(graph: SeparatedGraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in graph.edges],
        "separation": {v: [list(cell) for cell in graph.separation[v]] for v in graph.vertices},
    }


def graph_from_json(data) -> SeparatedGraph:
    """Build a graph from its JSON form, rejecting anything invalid."""
    return SeparatedGraph(*read_graph_json(data))


def read_graph_json(data) -> tuple:
    """The (vertices, edges, separation) of a graph's JSON form, checking only the
    JSON types: ids are strings and collections JSON lists, so that no string of
    vertices reads as its characters.  :func:`validate` reports every broken
    graph invariant of the parts."""
    edge = {"id": str, "src": str, "dst": str}
    check_json(data, {"vertices": [str], "edges": [edge]}, "malformed graph JSON", GraphError)
    separation = data.get("separation", {})
    check_json(separation, {str: [[str]]}, "malformed graph JSON.separation", GraphError)
    edges = [Edge(e["id"], e["src"], e["dst"]) for e in data["edges"]]
    return data["vertices"], edges, separation


# the most characters of an input string an error message quotes
QUOTE_LIMIT = 64


def quote(value, limit: int = QUOTE_LIMIT) -> str:
    """``repr(value)`` for an error message; a string over ``limit`` characters
    shows only its start and its length, so the message stays short."""
    if type(value) is str and len(value) > limit:
        return f"{value[:limit]!r}... ({len(value):,} characters)"
    return repr(value)


_KINDS = {str: "a string", list: "a list", dict: "an object"}


def check_json(value, shape, where: str, error) -> None:
    """Raise ``error`` unless decoded JSON fits a shape: ``str``, ``object`` (any
    value), ``[s]`` (a list of s), ``{str: s}`` (an object with s values) or
    ``{"key": s, ...}`` (an object with at least these keys).  The message is
    ``where`` and the path to the first misfit, as in ``malformed graph
    JSON.edges[0].src: expected a string, got 1``."""
    if misfit := _misfit(value, shape):
        raise error(where + "".join(misfit))


def _misfit(value, shape):
    """None if ``value`` fits ``shape``, else the path to its first misfit and why,
    assembled only as a misfit unwinds: a fitting value formats nothing."""
    kind = shape if isinstance(shape, type) else type(shape)
    if not isinstance(value, kind):
        got = _KINDS[type(value)] if type(value) in (list, dict) else repr(value)
        return (f": expected {_KINDS[kind]}, got {got}",)
    if kind is str or kind is object:
        return None
    if kind is dict and str not in shape:
        for key, inner in shape.items():
            if key not in value:
                return (f".{key}: missing",)
            if inner is not str or not isinstance(value[key], str):  # string leaves skip the call
                if misfit := _misfit(value[key], inner):
                    return (f".{key}", *misfit)
        return None
    inner, items = (shape[0], enumerate(value)) if kind is list else (shape[str], value.items())
    if inner is str and {*map(type, value if kind is list else value.values())} <= {str}:
        return None  # all strings: one test, no calls
    for key, item in items:
        if misfit := _misfit(item, inner):
            return (f"[{key!r}]", *misfit)
    return None

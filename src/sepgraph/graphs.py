"""Finite separated graphs: validation, extended-graph paths, skew products,
quotients, and isomorphism checking.

A separated graph is a finite directed graph together with, at each vertex, an
ordered partition of the outgoing edges into nonempty cells.  The cell order
and the edge order inside each cell are preserved from the input; downstream
code relies on that stability to make representative choices deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .groups import GraphAction, GroupElement, Labeling


class GraphError(Exception):
    """Inconsistent graph data, or an operation applied outside its domain."""


@dataclass(frozen=True)
class Edge:
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


class SeparatedGraph:
    """A finite directed graph with an ordered out-edge partition per vertex.

    Construction never validates: :func:`validate` reports every broken
    invariant, so loaders can reject bad files with a complete report.
    Vertices missing from ``separation`` get an empty cell list (the canonical
    representation for sinks).
    """

    __slots__ = ("vertices", "edges", "separation", "_edge_by_id", "_out", "_cell_of")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable,
        separation: Mapping[str, Sequence[Sequence[str]]],
    ):
        self.vertices = tuple(vertices)
        self.edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        sep = {v: tuple(tuple(cell) for cell in cells) for v, cells in separation.items()}
        for v in self.vertices:
            sep.setdefault(v, ())
        self.separation = sep
        # first-wins indexes; validate() reports clashes from the raw data
        self._edge_by_id = {}
        for e in self.edges:
            self._edge_by_id.setdefault(e.id, e)
        self._out = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.src in self._out:
                self._out[e.src].append(e.id)
        self._cell_of = {}
        for v, cells in self.separation.items():
            for i, cell in enumerate(cells):
                for eid in cell:
                    self._cell_of.setdefault(eid, (v, i))

    # -- lookups -----------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None

    def require_vertex(self, v: str) -> None:
        if v not in self._out:
            raise GraphError(f"unknown vertex id {v!r}")

    def out_edges(self, v: str) -> tuple:
        self.require_vertex(v)
        return tuple(self._out[v])

    def cells(self, v: str) -> tuple:
        self.require_vertex(v)
        return self.separation.get(v, ())

    def cell_of(self, edge_id: str) -> tuple:
        """The (vertex, cell index) of the partition cell containing the edge."""
        try:
            return self._cell_of[edge_id]
        except KeyError:
            raise GraphError(f"edge {edge_id!r} lies in no separation cell") from None

    def cell_edges(self, v: str, index: int) -> tuple:
        return self.cells(v)[index]

    def source(self, step: SignedEdge) -> str:
        e = self.edge(step.edge)
        return e.dst if step.star else e.src

    def range(self, step: SignedEdge) -> str:
        e = self.edge(step.edge)
        return e.src if step.star else e.dst

    # -- validity ----------------------------------------------------------

    def require_valid(self) -> None:
        problems = validate(self)
        if problems:
            raise GraphError("invalid separated graph: " + "; ".join(problems))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeparatedGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.separation == other.separation
        )

    def __hash__(self):
        return hash((self.vertices, self.edges, tuple(sorted(self.separation.items()))))

    def __repr__(self) -> str:
        return f"SeparatedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def validate(graph: SeparatedGraph) -> list:
    """Every broken separated-graph invariant, with the offending ids.

    Empty list iff the graph is valid; operations succeed exactly on valid
    graphs.
    """
    report = []
    seen = set()
    for v in graph.vertices:
        if v in seen:
            report.append(f"duplicate vertex id {v!r}")
        seen.add(v)
    vertex_set = set(graph.vertices)
    seen = set()
    for e in graph.edges:
        if e.id in seen:
            report.append(f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        if e.src not in vertex_set:
            report.append(f"edge {e.id!r} has unknown source {e.src!r}")
        if e.dst not in vertex_set:
            report.append(f"edge {e.id!r} has unknown range {e.dst!r}")
    edge_ids = {e.id for e in graph.edges}
    covered = {}
    for v, cells in graph.separation.items():
        if v not in vertex_set:
            report.append(f"separation listed at unknown vertex {v!r}")
            continue
        for i, cell in enumerate(cells):
            if not cell:
                report.append(f"empty separation cell at vertex {v!r} (index {i})")
            for eid in cell:
                if eid not in edge_ids:
                    report.append(f"separation cell at {v!r} names unknown edge {eid!r}")
                    continue
                if graph.edge(eid).src != v:
                    report.append(
                        f"edge {eid!r} listed at {v!r} but its source is "
                        f"{graph.edge(eid).src!r}"
                    )
                if eid in covered:
                    report.append(f"edge {eid!r} appears in more than one separation cell")
                covered[eid] = (v, i)
    for e in graph.edges:
        if e.id not in covered and e.src in vertex_set and e.id in edge_ids:
            report.append(f"uncovered edge {e.id!r}: missing from every cell at {e.src!r}")
    return report


# -- paths in the extended graph -------------------------------------------


@dataclass(frozen=True)
class GraphPath:
    """A composable sequence of signed edges; ``base`` names the vertex of the
    empty path (source and range coincide with it)."""

    base: str
    steps: tuple = ()

    def source(self, graph: SeparatedGraph) -> str:
        return graph.source(self.steps[0]) if self.steps else self.base

    def range(self, graph: SeparatedGraph) -> str:
        return graph.range(self.steps[-1]) if self.steps else self.base

    def is_forward(self) -> bool:
        return all(not s.star for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def check_path(graph: SeparatedGraph, path: GraphPath) -> None:
    """Raise unless consecutive steps are composable (range meets source)."""
    if not path.steps:
        graph.require_vertex(path.base)
        return
    for a, b in zip(path.steps, path.steps[1:]):
        if graph.range(a) != graph.source(b):
            raise GraphError(
                f"malformed path: step {a.literal()} ends at {graph.range(a)!r} "
                f"but {b.literal()} starts at {graph.source(b)!r}"
            )


def forward_path(graph: SeparatedGraph, edge_ids: Sequence[str]) -> GraphPath:
    steps = tuple(SignedEdge(eid) for eid in edge_ids)
    base = graph.source(steps[0]) if steps else None
    if base is None:
        raise GraphError("forward_path needs at least one edge; use GraphPath(base) instead")
    path = GraphPath(base, steps)
    check_path(graph, path)
    return path


def concat_paths(graph: SeparatedGraph, first: GraphPath, second: GraphPath) -> GraphPath:
    if first.range(graph) != second.source(graph):
        raise GraphError("paths do not compose")
    return GraphPath(first.source(graph), first.steps + second.steps)


# -- morphisms ---------------------------------------------------------------


@dataclass
class GraphMorphism:
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


@dataclass
class SkewProduct:
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
    graph.require_valid()
    group = labeling.group
    if not group.is_finite:
        raise GraphError(f"unsupported group for skew products: {group} is not finite")
    for e in graph.edges:
        labeling.of(e.id)  # raises on a missing label
    elements = group.elements()
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


def skew_path(skew: SkewProduct, path: GraphPath, g: "GroupElement") -> GraphPath:
    """Lift a forward path to the skew product, starting in the ``g`` fiber.

    The i-th step is the edge (e_i, g*c(e_1...e_{i-1})); the lift starts at
    (s(path), g) and ends at (r(path), g*c(path)).
    """
    base_graph = skew.base
    check_path(base_graph, path)
    if not path.is_forward():
        raise GraphError("malformed path: skew lifts are defined on forward paths only")
    h = g
    steps = []
    for step in path.steps:
        steps.append(SignedEdge(skew.edge_name[(step.edge, h)]))
        h = h * skew.labeling.of(step.edge)
    return GraphPath(skew.vertex_name[(path.source(base_graph), g)], tuple(steps))


# -- quotients ---------------------------------------------------------------


@dataclass
class Quotient:
    """A quotient separated graph together with the orbit maps."""

    graph: SeparatedGraph
    vertex_class: dict  # original vertex -> class id
    edge_class: dict  # original edge -> class id


def _orbits(items: Sequence[str], maps: list) -> dict:
    """Map each item to the lexicographically smallest member of its orbit."""
    out = {}
    for item in items:
        orbit = {m[item] for m in maps}
        orbit.add(item)
        out[item] = min(orbit)
    return out


def quotient_graph(graph: SeparatedGraph, action: "GraphAction") -> Quotient:
    """The orbit graph of a valid action, separation cells pushed to classes.

    Class ids are the lexicographically smallest orbit members.  Cells are
    read off at each class representative; duplicate cells (which arise when
    the action glues two cells at one vertex) are merged.
    """
    graph.require_valid()
    problems = action.violations(graph)
    if problems:
        raise GraphError("action invariant violation: " + "; ".join(problems))
    vmaps = [f.vmap for f in action.table.values()]
    emaps = [f.emap for f in action.table.values()]
    vertex_class = _orbits(graph.vertices, vmaps)
    edge_class = _orbits([e.id for e in graph.edges], emaps)

    vertices = sorted(set(vertex_class.values()))
    edge_reps = sorted(set(edge_class.values()))
    edges = [
        Edge(eid, vertex_class[graph.edge(eid).src], vertex_class[graph.edge(eid).dst])
        for eid in edge_reps
    ]
    separation = {}
    for rep in vertices:
        cells = []
        seen = set()
        for cell in graph.cells(rep):
            image = []
            for eid in cell:
                cls = edge_class[eid]
                if cls not in image:
                    image.append(cls)
            key = frozenset(image)
            if key not in seen:
                seen.add(key)
                cells.append(image)
        separation[rep] = cells
    return Quotient(SeparatedGraph(vertices, edges, separation), vertex_class, edge_class)


# -- JSON ---------------------------------------------------------------------


def graph_to_json(graph: SeparatedGraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in graph.edges],
        "separation": {v: [list(cell) for cell in graph.separation[v]] for v in graph.vertices},
    }


def graph_from_json(data) -> SeparatedGraph:
    """Build a graph from its JSON form, rejecting anything invalid."""
    graph = read_graph_json(data)
    graph.require_valid()
    return graph


def read_graph_json(data) -> SeparatedGraph:
    """Build a graph from its JSON form, checking only the JSON types.

    Ids must be strings and every collection a JSON list (the separation an
    object), so that no other value is taken apart as one: a string of
    vertices would otherwise read as its characters.  :func:`validate`
    reports every broken graph invariant of the result.
    """
    if not isinstance(data, dict):
        raise GraphError(f"malformed graph JSON: expected an object, got {type(data).__name__}")
    try:
        vertices = data["vertices"]
        edges = [Edge(e["id"], e["src"], e["dst"]) for e in data["edges"]]
        separation = data.get("separation", {})
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from None
    _require_strings(vertices, "vertices")
    for e in edges:
        _require_strings([e.id, e.src, e.dst], f"edge {e.id!r}")
    if not isinstance(separation, dict):
        raise GraphError("malformed graph JSON: separation must be an object")
    for v, cells in separation.items():
        if not isinstance(cells, list):
            raise GraphError(f"malformed graph JSON: separation at {v!r} must be a list of cells")
        for cell in cells:
            _require_strings(cell, f"separation cell at {v!r}")
    return SeparatedGraph(vertices, edges, separation)


def _require_strings(values, what: str) -> None:
    if not isinstance(values, list) or not all(isinstance(x, str) for x in values):
        raise GraphError(f"malformed graph JSON: {what} must be a list of strings")

"""The four benchmark workloads.

Each ``build_<name>(sg, seed, scale, workdir)`` generates its inputs from the
seed and returns a :class:`Workload`.  ``Workload.new_round()`` gives one pass
over those inputs as a list of ``(call, check)`` pairs, built on fresh
``LeavittContext`` objects so every pass starts with cold caches, as a user's
script or CLI call does.  ``call()`` is the timed operation; ``check(result)``
runs outside the timed region and returns ``None`` or the reason the result is
wrong.  Every reference avoids the operation's own code path: a model, a
closed form, a different rewriting strategy, or a second CLI path.

``sg`` is a namespace holding the sepgraph modules; operations look their
entry points up on it at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

SIZES = {
    # full: sized so one pass takes well under a second of operation time,
    # except expectation, whose pass is dominated by the k = 7 member.
    "full": {
        "products": {"graphs": 40, "pool": 6, "bouquet_pool": 16},
        "expectation": {"max_k": 7, "kernel": 300, "path_graphs": 10, "paths_per_graph": 10},
        "dictionary": {"graphs": 5, "groups": 5, "labelings": 4, "samples": 8},
        "cli": {"graphs": 4, "ordinary": 3, "repeat": 2},
    },
    "tiny": {
        "products": {"graphs": 2, "pool": 4, "bouquet_pool": 4},
        "expectation": {"max_k": 3, "kernel": 10, "path_graphs": 2, "paths_per_graph": 5},
        "dictionary": {"graphs": 2, "groups": 2, "labelings": 1, "samples": 2},
        "cli": {"graphs": 2, "ordinary": 1, "repeat": 1},
    },
}


@dataclass
class Workload:
    inputs: dict  # what was generated, for the result record
    new_round: Callable[[], list]
    canonical: Callable  # a result as plain comparable data
    raises_measured: bool = False  # an escaping exception is a measured failure, not a wrong result


# -- independent Q(i) arithmetic for references ----------------------------------


def _qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qadd(acc, key, value):
    re, im = acc.get(key, (Fraction(0), Fraction(0)))
    acc[key] = (re + value[0], im + value[1])


def _nonzero(acc):
    return {k: v for k, v in acc.items() if v[0] or v[1]}


def _coefficients(x):
    """An element as {word literal: (re, im)}."""
    return {w.literal(): (c.re, c.im) for w, c in x.terms.items()}


def _mismatch(got, want):
    if got == want:
        return None
    return f"got {sorted(got.items())[:3]}, want {sorted(want.items())[:3]}"


# -- graph generation ---------------------------------------------------------------


def _random_graph(sg, rng, vertex_count, out_degree):
    """A separated graph whose vertices all emit ``out_degree`` edges, split
    into cells of size 1-3.  Fixed sizes keep the share of composable word
    pairs, and so the cost of a pass, about the same from seed to seed."""
    vertices = [f"v{i}" for i in range(vertex_count)]
    edges, separation = [], {}
    for v in vertices:
        ids = []
        for _ in range(out_degree):
            ids.append(f"e{len(edges)}")
            edges.append((ids[-1], v, rng.choice(vertices)))
        cells = []
        while ids:
            size = rng.randint(1, 3)
            cells.append(ids[:size])
            ids = ids[size:]
        separation[v] = cells
    return sg.graphs.SeparatedGraph(vertices, edges, separation)


def _random_terms(sg, rng, ctx, count):
    """``count`` distinct normal words with random Q(i) coefficients."""
    terms = {}
    for _ in range(50 * count):
        word = sg.sampling.random_normal_word(rng, ctx, max_len=5)
        terms.setdefault(word, sg.sampling.random_coefficient(rng))
        if len(terms) == count:
            break
    return terms


def _rewrite(graph, chosen, word, base):
    """Normal form of a composable raw word, as {literal: integer coefficient}.

    The rules R1-R3 written out apart from sepgraph's rewriting, so that a
    wrong rule there cannot also be wrong here.  ``word`` is a tuple of
    (edge id, starred) pairs; ``base`` is its source vertex, which is what
    remains when every letter cancels."""
    for i in range(len(word) - 1):
        (a, a_star), (b, b_star) = word[i], word[i + 1]
        rest = word[:i] + word[i + 2 :]
        if a_star and not b_star and graph.cell_of(a) == graph.cell_of(b):
            return _rewrite(graph, chosen, rest, base) if a == b else {}
        if not a_star and b_star and a == b and a in chosen:
            out = dict(_rewrite(graph, chosen, rest, base))
            for f in graph.cell_edges(*graph.cell_of(a)):
                if f != a:
                    spliced = word[:i] + ((f, False), (f, True)) + word[i + 2 :]
                    for literal, c in _rewrite(graph, chosen, spliced, base).items():
                        out[literal] = out.get(literal, 0) - c
            return {literal: c for literal, c in out.items() if c}
    if not word:
        return {f"@{base}": 1}
    return {" ".join(e + "*" if star else e for e, star in word): 1}


# -- products --------------------------------------------------------------------------


def build_products(sg, seed, scale, workdir):
    """An op is one ``AlgebraElement.__mul__`` over every ordered pair of a pool.

    The separated slice is checked term-wise against ``reduce_word`` with the
    rightmost strategy on the concatenated raw words, in its own context, and
    against ``_rewrite``; the bouquet slice against free-group multiplication
    of letter tuples.
    """
    size = SIZES[scale]["products"]
    rng = random.Random(seed)
    algebra, graphs = sg.algebra, sg.graphs
    slices = []
    for _ in range(size["graphs"]):
        graph = _random_graph(sg, rng, vertex_count=3, out_degree=3)
        ctx = algebra.LeavittContext(graph)
        pool = [_random_terms(sg, rng, ctx, 2 + i % 2) for i in range(size["pool"])]
        slices.append((graph, pool))

    bouquet = sg.groups.bouquet_graph(2)
    free_pool = []  # [{letter tuple: (re, im)}]
    for _ in range(size["bouquet_pool"]):
        model = {}
        while len(model) < 2 + len(free_pool) % 2:
            letters = sg.sampling.random_reduced_free_word(rng, ("a1", "a2"), max_len=5, min_len=0)
            c = sg.sampling.random_coefficient(rng)
            model.setdefault(letters, (c.re, c.im))
        free_pool.append(model)

    def free_word(letters):
        if not letters:
            return algebra.NormalWord.of_vertex("v")
        return algebra.NormalWord.of_steps(tuple(graphs.SignedEdge(g, s < 0) for g, s in letters))

    def free_literal(letters):
        return free_word(letters).literal()

    def free_product(m1, m2):
        acc = {}
        for w1, c1 in m1.items():
            for w2, c2 in m2.items():
                word = list(w1)
                for letter in w2:
                    if word and word[-1] == (letter[0], -letter[1]):
                        word.pop()
                    else:
                        word.append(letter)
                _qadd(acc, free_literal(tuple(word)), _qmul(c1, c2))
        return _nonzero(acc)

    def separated_references(graph, x, y):
        """The product term-wise, by sepgraph's rightmost-first rewriting and
        by ``_rewrite``; both as {literal: (re, im)}.  The reference context
        lives only for this call, so its cache stays out of the peak RSS."""
        rightmost, independent = {}, {}
        ref_ctx = algebra.LeavittContext(graph)
        chosen = set(ref_ctx.ex_choice.values())
        for w1, c1 in x.terms.items():
            for w2, c2 in y.terms.items():
                left, right = w1.steps, w2.steps
                start = w1.vertex if w1.is_vertex else graph.source(left[0])
                meets = w1.vertex if w1.is_vertex else graph.range(left[-1])
                if meets != (w2.vertex if w2.is_vertex else graph.source(right[0])):
                    continue  # not composable: the product term is zero
                coeff = _qmul((c1.re, c1.im), (c2.re, c2.im))
                reduced = algebra.reduce_word(ref_ctx, left + right, base=start, strategy="rightmost")
                for word, sign in reduced.terms.items():
                    _qadd(rightmost, word.literal(), _qmul(coeff, (sign.re, sign.im)))
                raw = tuple((s.edge, s.star) for s in left + right)
                for literal, c in _rewrite(graph, chosen, raw, start).items():
                    _qadd(independent, literal, _qmul(coeff, (Fraction(c), Fraction(0))))
        return _nonzero(rightmost), _nonzero(independent)

    def check_separated(out, graph, x, y):
        got = _coefficients(out)
        rightmost, independent = separated_references(graph, x, y)
        return _mismatch(got, rightmost) or _mismatch(got, independent)

    def new_round():
        ops = []
        for graph, pool in slices:
            ctx = algebra.LeavittContext(graph)
            elements = [algebra.AlgebraElement(ctx, dict(terms)) for terms in pool]
            for x in elements:
                for y in elements:
                    ops.append(
                        (
                            lambda x=x, y=y: x * y,
                            lambda out, x=x, y=y, graph=graph: check_separated(out, graph, x, y),
                        )
                    )
        ctx = algebra.LeavittContext(bouquet)
        gaussian = sg.scalars.GaussianRational
        elements = [
            algebra.AlgebraElement(
                ctx, {free_word(w): gaussian(c[0], c[1]) for w, c in model.items()}
            )
            for model in free_pool
        ]
        for x, mx in zip(elements, free_pool):
            for y, my in zip(elements, free_pool):
                ops.append(
                    (
                        lambda x=x, y=y: x * y,
                        lambda out, mx=mx, my=my: _mismatch(_coefficients(out), free_product(mx, my)),
                    )
                )
        return ops

    inputs = {
        "separated_graphs": len(slices),
        "pool_per_graph": size["pool"],
        "bouquet_pool": len(free_pool),
        "ops_per_round": len(slices) * size["pool"] ** 2 + len(free_pool) ** 2,
    }
    return Workload(inputs, new_round, _coefficients)


# -- expectation ---------------------------------------------------------------------------

FIG5 = (
    ["v", "w1", "w2", "w3"],
    [("al1", "v", "w1"), ("al2", "v", "w2"), ("be1", "v", "w1"), ("be2", "v", "w3")],
    {"v": [["al1", "al2"], ["be1", "be2"]]},
)


def build_expectation(sg, seed, scale, workdir):
    """An op is one ``expect`` call on a product built during set-up.

    The Fig.-5 family (be2 be2* al2 al2*)^k has the closed form
    C(2k,k)/2^(2k+1) P_v; alternating kernel products have expectation zero;
    ordinary-graph path pairs are checked against ``phi_ordinary``.
    """
    size = SIZES[scale]["expectation"]
    rng = random.Random(seed)
    algebra, graphs, expectation = sg.algebra, sg.graphs, sg.expectation
    fig5 = graphs.SeparatedGraph(*FIG5)
    setup_ctx = algebra.LeavittContext(fig5)
    cases = []  # (graph, terms, expected {literal: (re, im)})
    family = []
    block = (
        graphs.SignedEdge("be2"),
        graphs.SignedEdge("be2", True),
        graphs.SignedEdge("al2"),
        graphs.SignedEdge("al2", True),
    )
    for k in range(1, size["max_k"] + 1):
        word = algebra.NormalWord.of_steps(block * k)
        value = Fraction(math.comb(2 * k, k), 2 ** (2 * k + 1))
        family.append((fig5, {word: sg.scalars.ONE}, {"@v": (value, Fraction(0))}))

    cells = (("al1", "al2"), ("be1", "be2"))
    for i in range(size["kernel"]):
        cell = rng.randint(0, 1)
        product = None
        for _ in range(1 + i % 4):  # lengths 1-4 in equal shares
            factor = expectation.beta_element(setup_ctx, rng.choice(cells[cell])).scale(
                Fraction(rng.randint(1, 3), rng.randint(1, 3))
            )
            product = factor if product is None else product * factor
            cell = 1 - cell
        cases.append((fig5, dict(product.terms), {}))

    for _ in range(size["path_graphs"]):
        graph = sg.sampling.random_ordinary_graph(rng, max_vertices=5, max_edges=8)
        ctx = algebra.LeavittContext(graph)
        for _ in range(size["paths_per_graph"]):
            mu = sg.sampling.random_forward_path(rng, graph, max_len=4)
            for _ in range(40):
                nu = sg.sampling.random_forward_path(rng, graph, max_len=4)
                if nu.range(graph) == mu.range(graph):
                    break
            else:
                nu = mu
            steps = mu.steps + tuple(s.reverse() for s in reversed(nu.steps))
            x = algebra.reduce_word(ctx, steps, base=mu.source(graph))
            oracle = _coefficients(expectation.phi_ordinary(ctx, mu, nu))
            cases.append((graph, dict(x.terms), oracle))
    rng.shuffle(cases)

    def new_round():
        contexts = {}
        ops = []
        for graph, terms, expected in family + cases:
            if graph not in contexts:
                contexts[graph] = algebra.LeavittContext(graph)
            x = algebra.AlgebraElement(contexts[graph], terms)
            ops.append(
                (
                    lambda x=x: sg.expectation.expect(x),
                    lambda out, expected=expected: _mismatch(_coefficients(out), expected),
                )
            )
        return ops

    inputs = {
        "family_k": list(range(1, size["max_k"] + 1)),
        "kernel_products": size["kernel"],
        "path_pairs": size["path_graphs"] * size["paths_per_graph"],
        "ops_per_round": len(family) + len(cases),
    }
    return Workload(inputs, new_round, _coefficients)


# -- dictionary ----------------------------------------------------------------------------


def _criterion6_graphs(sg):
    graphs = sg.graphs
    return [
        graphs.SeparatedGraph(
            ["v"],
            [("x1", "v", "v"), ("x2", "v", "v"), ("y1", "v", "v"), ("y2", "v", "v")],
            {"v": [["x1", "x2"], ["y1", "y2"]]},
        ),
        graphs.SeparatedGraph(
            ["v", "w"],
            [("e1", "v", "w"), ("e2", "v", "w"), ("f1", "v", "w")],
            {"v": [["e1", "e2"], ["f1"]], "w": []},
        ),
        sg.groups.bouquet_graph(2),
        graphs.SeparatedGraph(*FIG5),
        graphs.SeparatedGraph(
            ["v"],
            [("a1", "v", "v"), ("a2", "v", "v"), ("b1", "v", "v")],
            {"v": [["a1", "a2"], ["b1"]]},
        ),
    ]


def build_dictionary(sg, seed, scale, workdir):
    """An op is one ``verify_iso`` call with a small sample count.

    Checked: the report passes, and it ran (|V|+|E|)|G| generator identities
    and three sampled identities per sample.
    """
    size = SIZES[scale]["dictionary"]
    rng = random.Random(seed)
    groups = sg.groups
    group_list = [
        groups.CyclicGroup(2),
        groups.CyclicGroup(3),
        groups.CyclicGroup(4),
        groups.CyclicGroup(6),
        groups.ProductGroup((groups.CyclicGroup(2), groups.CyclicGroup(2))),
    ][: size["groups"]]
    samples = size["samples"]
    cases = []
    for graph in _criterion6_graphs(sg)[: size["graphs"]]:
        for group in group_list:
            for _ in range(size["labelings"]):
                elements = group.elements()
                labeling = groups.Labeling(group, {e.id: rng.choice(elements) for e in graph.edges})
                generators = (len(graph.vertices) + len(graph.edges)) * len(elements)
                cases.append((graph, labeling, rng.randrange(10**9), generators))

    def check(report, generators):
        if not report.ok:
            return report.summary()
        if (report.generator_checks, report.sample_checks) != (generators, 3 * samples):
            return (
                f"ran {report.generator_checks} generator and {report.sample_checks} "
                f"sampled identities, want {generators} and {3 * samples}"
            )
        return None

    def new_round():
        return [
            (
                lambda graph=graph, labeling=labeling, s=s: sg.crossed.verify_iso(
                    graph, labeling, sample_count=samples, seed=s
                ),
                lambda report, generators=generators: check(report, generators),
            )
            for graph, labeling, s, generators in cases
        ]

    inputs = {
        "graphs": size["graphs"],
        "groups": [str(g) for g in group_list],
        "labelings_per_pair": size["labelings"],
        "samples": samples,
        "ops_per_round": len(cases),
    }
    return Workload(
        inputs,
        new_round,
        lambda r: (r.ok, r.generator_checks, r.sample_checks, tuple(r.failures)),
    )


# -- cli ------------------------------------------------------------------------------------


def _capture(main, argv):
    """Run ``main(argv)`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _literal_of_steps(steps, base):
    return " ".join(s.literal() for s in steps) if steps else f"@{base}"


def build_cli(sg, seed, scale, workdir):
    """An op is one in-process ``cli.main(argv)`` call, output captured.

    A seeded mix of the twelve non-``selftest`` subcommands on files written
    here, with skew products by Z/6 and Cayley graphs of Z/40, plus one of
    each malformed input per pass; their contract is exit 2 and no exception.
    Outputs are re-checked through a second path.
    """
    size = SIZES[scale]["cli"]
    rng = random.Random(seed)
    algebra, graphs, groups, sampling = sg.algebra, sg.graphs, sg.groups, sg.sampling
    z6 = groups.CyclicGroup(6)

    def write(name, data):
        path = workdir / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    bases = []  # dicts describing each base graph and its Z/6 skew product
    for i in range(size["graphs"]):
        graph = _random_graph(sg, rng, vertex_count=3, out_degree=2)
        labels = {e.id: rng.randrange(6) for e in graph.edges}
        labeling = groups.labeling_from_json(z6, labels)
        skew = graphs.skew_product(graph, labeling)
        bases.append(
            {
                "graph": graph,
                "labels": labels,
                "ctx": algebra.LeavittContext(graph),
                "skew": skew,
                "skew_ctx": algebra.LeavittContext(skew.graph),
                "path": write(f"g{i}.json", graphs.graph_to_json(graph)),
                "label_path": write(f"l{i}.json", labels),
                "skew_path": write(f"s{i}.json", graphs.graph_to_json(skew.graph)),
                "action_path": write(
                    f"a{i}.json", groups.action_to_json(groups.translation_action(skew))
                ),
            }
        )
    ordinary = []
    for i in range(size["ordinary"]):
        graph = sampling.random_ordinary_graph(rng, max_vertices=4, max_edges=6)
        ordinary.append((graph, algebra.LeavittContext(graph), write(f"o{i}.json", graphs.graph_to_json(graph))))
    bad_json = workdir / "bad.json"
    bad_json.write_text('{"vertices": ["v"', encoding="utf-8")
    invalid = write("invalid.json", {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}], "separation": {"v": []}})
    missing = str(workdir / "missing.json")

    def main(argv):
        return _capture(sg.cli.main, argv)

    def element_text(ctx, terms=None):
        """A random literal: 1-3 terms, each a scalar times a normal word."""
        parts = []
        for _ in range(terms or rng.randint(1, 3)):
            word = sampling.random_normal_word(rng, ctx, max_len=4)
            parts.append(f"{sampling.random_coefficient(rng)} * {word.literal()}")
        return " + ".join(parts)

    def ok_json(result):
        code, out, err = result
        if code != 0 or err:
            return None, f"exit {code}: {err.strip()[:200]}"
        return json.loads(out), None

    ops = []  # (argv, check(result) -> None or reason)

    def add(argv, check):
        ops.append((argv, check))

    def check_validate(expect_valid):
        def check(result):
            code, out, _ = result
            data = json.loads(out) if out else None
            if code != (0 if expect_valid else 1) or not data or data["valid"] != expect_valid:
                return f"validate gave exit {code} and {out[:200]!r}"
            return None
        return check

    def check_skew(base):
        def check(result):
            data, problem = ok_json(result)
            if problem:
                return problem
            graph = graphs.graph_from_json(data["graph"])
            nv, ne = len(base["graph"].vertices) * 6, len(base["graph"].edges) * 6
            if (len(graph.vertices), len(graph.edges)) != (nv, ne):
                return f"skew has {len(graph.vertices)} vertices and {len(graph.edges)} edges"
            for edge in graph.edges:
                e, g = data["edge_map"][edge.id]
                src, dst = data["vertex_map"][edge.src], data["vertex_map"][edge.dst]
                orig = base["graph"].edge(e)
                if src != [orig.src, g] or dst != [orig.dst, str((int(g) + base["labels"][e]) % 6)]:
                    return f"skew edge {edge.id} runs {src} -> {dst}"
            return None
        return check

    def check_quotient(base):
        def check(result):
            data, problem = ok_json(result)
            if problem:
                return problem
            graph = graphs.graph_from_json(data["graph"])
            want = (len(base["graph"].vertices), len(base["graph"].edges))
            if (len(graph.vertices), len(graph.edges)) != want:
                return f"quotient has {len(graph.vertices)} vertices, {len(graph.edges)} edges"
            return None
        return check

    def check_gross_tucker(base):
        def check(result):
            data, problem = ok_json(result)
            if problem:
                return problem
            quotient = graphs.graph_from_json(data["quotient"])
            rebuilt = graphs.skew_product(quotient, groups.labeling_from_json(z6, data["label"]))
            iso = graphs.GraphMorphism(data["iso"]["vertices"], data["iso"]["edges"])
            if not graphs.check_isomorphism(iso, rebuilt.graph, base["skew"].graph):
                return "gross-tucker iso fails check_isomorphism"
            return None
        return check

    def check_cayley(gens):
        def check(result):
            data, problem = ok_json(result)
            if problem:
                return problem
            if len(data["vertices"]) != 40 or len(data["edges"]) != 40 * len(gens):
                return "cayley graph has the wrong size"
            for edge in data["edges"]:
                loop, h = edge["id"].split("@")
                g = gens[int(loop[1:]) - 1]
                if edge["src"] != f"v@{h}" or edge["dst"] != f"v@{(int(h) + g) % 40}":
                    return f"cayley edge {edge['id']} runs {edge['src']} -> {edge['dst']}"
            return None
        return check

    def check_stdout(expected):
        def check(result):
            code, out, err = result
            if code != 0 or out.strip() != expected():
                return f"exit {code}, got {out.strip()[:200]!r}"
            return None
        return check

    def check_malformed(result):
        code, out, err = result
        if code != 2 or out or not err.startswith("error:"):
            return f"malformed input gave exit {code}, stderr {err.strip()[:200]!r}"
        return None

    for _ in range(size["repeat"]):
        for base in bases:
            ctx, path = base["ctx"], base["path"]
            add(["validate", "--graph", path], check_validate(True))
            add(["validate", "--graph", base["skew_path"]], check_validate(True))
            add(["skew", "--graph", path, "--label", base["label_path"], "--group", "zmod:6"], check_skew(base))
            add(["quotient", "--graph", base["skew_path"], "--action", base["action_path"]], check_quotient(base))
            add(["gross-tucker", "--graph", base["skew_path"], "--action", base["action_path"]], check_gross_tucker(base))
            for _ in range(3):
                steps = sampling.random_composable_word(rng, base["graph"], max_len=8, min_len=2)
                coeff = sampling.random_coefficient(rng)
                text = f"{coeff} * {_literal_of_steps(steps, None)}"
                add(
                    ["reduce", "--graph", path, text],
                    check_stdout(
                        lambda ctx=ctx, steps=steps, coeff=coeff: algebra.element_literal(
                            algebra.reduce_word(ctx, steps, coeff, strategy="rightmost")
                        )
                    ),
                )
                w1 = sampling.random_normal_word(rng, ctx, max_len=4)
                w2 = sampling.random_normal_word(rng, ctx, max_len=4)
                coeff = sampling.random_coefficient(rng)
                left, right = f"{coeff} * {w1.literal()}", w2.literal()
                concat = f"{coeff} * {w1.literal()} {w2.literal()}"
                add(
                    ["mul", "--graph", path, left, right],
                    check_stdout(lambda path=path, concat=concat: main(["reduce", "--graph", path, concat])[1].strip()),
                )
                text = element_text(ctx)
                add(
                    ["star", "--graph", path, text],
                    lambda result, path=path, text=text: _check_star(main, path, text, result),
                )
            for _ in range(2):
                text = element_text(ctx)
                add(
                    ["grade", "--graph", path, "--label", base["label_path"], "--group", "zmod:6", text],
                    lambda result, ctx=ctx, text=text: _check_grade(algebra, ctx, text, result),
                )
                text = element_text(base["skew_ctx"], terms=2)
                g = rng.randrange(1, 6)
                add(
                    ["act", "--graph", base["skew_path"], "--action", base["action_path"], str(g), text],
                    lambda result, b=base, g=g, text=text: _check_act(main, b, g, text, result),
                )
            add(
                [
                    "verify-crossed-iso", "--graph", path, "--label", base["label_path"],
                    "--group", "zmod:6", "--samples", "4", "--seed", str(rng.randrange(10**6)),
                ],
                check_stdout(
                    lambda b=base: f"PASS: {(len(b['graph'].vertices) + len(b['graph'].edges)) * 6} "
                    "generator identities, 12 sampled identities"
                ),
            )
        for graph, ctx, path in ordinary:
            for _ in range(4):
                mu = sampling.random_forward_path(rng, graph, max_len=3)
                for _ in range(40):
                    nu = sampling.random_forward_path(rng, graph, max_len=3)
                    if nu.range(graph) == mu.range(graph):
                        break
                else:
                    nu = mu
                steps = mu.steps + tuple(s.reverse() for s in reversed(nu.steps))
                text = _literal_of_steps(steps, mu.source(graph))
                add(
                    ["expect", "--graph", path, text],
                    check_stdout(
                        lambda ctx=ctx, mu=mu, nu=nu: algebra.element_literal(sg.expectation.phi_ordinary(ctx, mu, nu))
                    ),
                )
        for j in range(4):
            gens = sorted(rng.sample(range(1, 40), 1 + j % 3))
            add(["cayley", "--group", "zmod:40", "--generators", ",".join(map(str, gens))], check_cayley(gens))
        add(["validate", "--graph", invalid], check_validate(False))

    first = bases[0]
    edge = first["graph"].edges[0].id
    malformed = [
        ["cayley", "--group", "zmod:0", "--generators", "1"],
        ["skew", "--graph", first["path"], "--label", first["path"], "--group", "zmod:6"],
        ["reduce", "--graph", str(bad_json), edge],
        ["reduce", "--graph", first["path"], f"1/0 * {edge}"],
        ["mul", "--graph", first["path"], "no-such-edge", edge],
        ["expect", "--graph", missing, edge],
        ["cayley", "--group", "zmod:6", "--generators", "x"],
    ]
    for argv in malformed:
        add(argv, check_malformed)
    rng.shuffle(ops)

    def new_round():
        return [(lambda argv=argv: main(argv), check) for argv, check in ops]

    kinds = {}
    for argv, _ in ops:
        kinds[argv[0]] = kinds.get(argv[0], 0) + 1
    inputs = {
        "base_graphs": len(bases),
        "skew_group": "zmod:6",
        "cayley_group": "zmod:40",
        "ordinary_graphs": len(ordinary),
        "malformed_per_round": len(malformed),
        "subcommands": dict(sorted(kinds.items())),
        "ops_per_round": len(ops),
    }
    return Workload(inputs, new_round, lambda result: result, raises_measured=True)


def _check_star(main, path, text, result):
    code, out, err = result
    if code != 0:
        return f"star gave exit {code}: {err.strip()[:200]}"
    twice = main(["star", "--graph", path, out.strip()])[1]
    direct = main(["reduce", "--graph", path, text])[1]
    if twice != direct:
        return f"star twice gives {twice.strip()[:200]!r}, not {direct.strip()[:200]!r}"
    return None


def _check_grade(algebra, ctx, text, result):
    code, out, err = result
    if code != 0:
        return f"grade gave exit {code}: {err.strip()[:200]}"
    total = algebra.zero(ctx)
    for part in json.loads(out).values():
        total = total + algebra.parse_element(ctx, part)
    if total != algebra.parse_element(ctx, text):
        return "graded components do not sum back to the element"
    return None


def _check_act(main, base, g, text, result):
    code, out, err = result
    if code != 0:
        return f"act gave exit {code}: {err.strip()[:200]}"
    argv = ["act", "--graph", base["skew_path"], "--action", base["action_path"]]
    back = main(argv + [str((6 - g) % 6), out.strip()])[1]
    direct = main(["reduce", "--graph", base["skew_path"], text])[1]
    if back != direct:
        return f"acting by {g} and back gives {back.strip()[:200]!r}, not {direct.strip()[:200]!r}"
    return None


WORKLOADS = {
    "products": build_products,
    "expectation": build_expectation,
    "dictionary": build_dictionary,
    "cli": build_cli,
}

import json
import os
import subprocess
import sys

import pytest

from sepgraph import cli, selftest
from sepgraph.cli import main
from sepgraph.crossed import MAX_GROUP_ORDER, MAX_SAMPLES, IsoReport
from sepgraph.groups import MAX_NESTING, MAX_ORDER, GraphAction
from sepgraph.selftest import CriterionResult

A2 = {
    "vertices": ["v"],
    "edges": [
        {"id": "a1", "src": "v", "dst": "v"},
        {"id": "a2", "src": "v", "dst": "v"},
    ],
    "separation": {"v": [["a1"], ["a2"]]},
}

LOOP = {
    "vertices": ["v"],
    "edges": [{"id": "a", "src": "v", "dst": "v"}],
    "separation": {"v": [["a"]]},
}

# an action table whose vertex image is a list, not a vertex id
LIST_IMAGE = {
    "group": {"type": "zmod", "n": 1},
    "table": {"0": {"vertices": {"v": ["v"]}, "edges": {"a": "a"}}},
}

TWO_CYCLE = {
    "vertices": ["v", "w"],
    "edges": [{"id": "a", "src": "v", "dst": "w"}, {"id": "b", "src": "w", "dst": "v"}],
    "separation": {"v": [["a"]], "w": [["b"]]},
}

PAIR = {
    "vertices": ["v"],
    "edges": [
        {"id": "e1", "src": "v", "dst": "v"},
        {"id": "e2", "src": "v", "dst": "v"},
    ],
    "separation": {"v": [["e1", "e2"]]},
}


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2))
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(PAIR))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, a2_file):
    code, out, _ = run(capsys, "validate", "--graph", a2_file)
    assert code == 0
    assert json.loads(out) == {"valid": True, "violations": []}


def test_validate_reports_failures(capsys, tmp_path):
    bad = {"vertices": ["v"], "edges": [{"id": "a", "src": "v", "dst": "v"}], "separation": {}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "validate", "--graph", str(path))
    assert code == 1
    report = json.loads(out)
    assert not report["valid"] and report["violations"]


def test_cayley_z3(capsys):
    code, out, _ = run(capsys, "cayley", "--group", "zmod:3", "--generators", "1")
    assert code == 0
    graph = json.loads(out)
    assert len(graph["vertices"]) == 3
    assert len(graph["edges"]) == 3
    assert all(len(cell) == 1 for cells in graph["separation"].values() for cell in cells)


def test_cayley_generator_list_ignores_spaces_and_empty_parts(capsys):
    z2z2 = json.dumps({"type": "product", "factors": [{"type": "zmod", "n": 2}] * 2})
    code, loose, _ = run(capsys, "cayley", "--group", z2z2, "--generators", "(1,0), (0,1),")
    assert code == 0
    _, tight, _ = run(capsys, "cayley", "--group", z2z2, "--generators", "(1,0),(0,1)")
    assert loose == tight
    assert len(json.loads(tight)["edges"]) == 8
    line = "error: cayley needs at least one generator\n"
    assert run(capsys, "cayley", "--group", z2z2, "--generators", ",") == (2, "", line)


def test_reduce_star_edge(capsys, a2_file):
    code, out, _ = run(capsys, "reduce", "--graph", a2_file, "a1* a1")
    assert code == 0
    assert out.strip() == "1 * @v"


def test_expect_single_edge_is_zero(capsys, a2_file):
    code, out, _ = run(capsys, "expect", "--graph", a2_file, "a1")
    assert code == 0
    assert out.strip() == "0"


def test_mul_and_star(capsys, a2_file):
    code, out, _ = run(capsys, "mul", "--graph", a2_file, "a1 a2*", "a2 a1*")
    assert code == 0 and out.strip() == "1 * @v"
    code, out, _ = run(capsys, "star", "--graph", a2_file, "1/2+1/2i * a1")
    assert code == 0 and out.strip() == "1/2-1/2i * a1*"


def test_mul_of_deep_cancellation_exits_0(capsys, a2_file):
    # 600 cancelling pairs: deeper than the interpreter's recursion limit
    left, right = " ".join(["a1"] * 600), " ".join(["a1*"] * 600)
    code, out, err = run(capsys, "mul", "--graph", a2_file, left, right)
    assert (code, out, err) == (0, "1 * @v\n", "")


def test_reduce_respects_ex_choice(capsys, pair_file, tmp_path):
    choice = tmp_path / "choice.json"
    choice.write_text(json.dumps({"v": ["e2"]}))
    _, default_out, _ = run(capsys, "reduce", "--graph", pair_file, "e1 e1*")
    code, other_out, _ = run(
        capsys, "reduce", "--graph", pair_file, "--ex-choice", str(choice), "e1 e1*"
    )
    assert code == 0
    assert default_out.strip() != other_out.strip()
    assert other_out.strip() == "1 * e1 e1*"


def test_grade_by_zmod_label(capsys, a2_file, tmp_path):
    label = tmp_path / "label.json"
    label.write_text(json.dumps({"a1": 1, "a2": 2}))
    code, out, _ = run(
        capsys,
        "grade",
        "--graph",
        a2_file,
        "--group",
        "zmod:3",
        "--label",
        str(label),
        "a1 + a2 + @v",
    )
    assert code == 0
    assert json.loads(out) == {"0": "1 * @v", "1": "1 * a1", "2": "1 * a2"}


def test_skew_and_quotient_roundtrip(capsys, a2_file, tmp_path):
    label = tmp_path / "label.json"
    label.write_text(json.dumps({"a1": 1, "a2": 0}))
    code, out, _ = run(
        capsys, "skew", "--graph", a2_file, "--group", "zmod:2", "--label", str(label)
    )
    assert code == 0
    skew = json.loads(out)
    assert len(skew["graph"]["vertices"]) == 2
    assert len(skew["graph"]["edges"]) == 4

    skew_path = tmp_path / "skew.json"
    skew_path.write_text(json.dumps(skew["graph"]))
    action = {
        "group": {"type": "zmod", "n": 2},
        "table": {
            "0": {
                "vertices": {v: v for v in skew["graph"]["vertices"]},
                "edges": {e["id"]: e["id"] for e in skew["graph"]["edges"]},
            },
            "1": {
                "vertices": {"v@0": "v@1", "v@1": "v@0"},
                "edges": {"a1@0": "a1@1", "a1@1": "a1@0", "a2@0": "a2@1", "a2@1": "a2@0"},
            },
        },
    }
    action_path = tmp_path / "action.json"
    action_path.write_text(json.dumps(action))
    code, out, _ = run(capsys, "quotient", "--graph", str(skew_path), "--action", str(action_path))
    assert code == 0
    quotient = json.loads(out)
    assert len(quotient["graph"]["vertices"]) == 1
    assert len(quotient["graph"]["edges"]) == 2

    code, out, _ = run(
        capsys, "gross-tucker", "--graph", str(skew_path), "--action", str(action_path)
    )
    assert code == 0
    result = json.loads(out)
    assert set(result) == {"quotient", "label", "iso"}
    assert result["label"]["a1@0"] == 1


def test_act_applies_the_automorphism(capsys, pair_file, tmp_path):
    action = {
        "group": {"type": "zmod", "n": 2},
        "table": {
            "0": {"vertices": {"v": "v"}, "edges": {"e1": "e1", "e2": "e2"}},
            "1": {"vertices": {"v": "v"}, "edges": {"e1": "e2", "e2": "e1"}},
        },
    }
    action_path = tmp_path / "action.json"
    action_path.write_text(json.dumps(action))
    code, out, _ = run(
        capsys, "act", "--graph", pair_file, "--action", str(action_path), "1", "e1"
    )
    assert code == 0
    assert out.strip() == "1 * e2"


def test_act_rejects_an_entry_that_is_not_an_automorphism(capsys, tmp_path):
    # swapping a and c maps the cell {a, b} onto {c, b}, which is no cell; applied
    # anyway it would send the nonzero normal word b* c to b* a = 0
    graph = {
        "vertices": ["v"],
        "edges": [{"id": x, "src": "v", "dst": "v"} for x in "abc"],
        "separation": {"v": [["a", "b"], ["c"]]},
    }
    action = {
        "group": {"type": "zmod", "n": 2},
        "table": {
            "0": {"vertices": {"v": "v"}, "edges": {"a": "a", "b": "b", "c": "c"}},
            "1": {"vertices": {"v": "v"}, "edges": {"a": "c", "b": "b", "c": "a"}},
        },
    }
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(graph))
    action_path = tmp_path / "act.json"
    action_path.write_text(json.dumps(action))
    argv = ["act", "--graph", str(graph_path), "--action", str(action_path)]
    code, out, err = run(capsys, *argv, "1", "b* c")
    assert (code, out) == (2, "")
    assert "entry for 1 is not an automorphism" in err
    code, out, _ = run(capsys, *argv, "0", "b* c")
    assert (code, out.strip()) == (0, "1 * b* c")


def test_an_invalid_table_fails_quotient_and_gross_tucker_alike(capsys, tmp_path):
    graph = {
        "vertices": ["v", "w"],
        "edges": [{"id": "a", "src": "v", "dst": "w"}, {"id": "b", "src": "w", "dst": "v"}],
        "separation": {"v": [["a"]], "w": [["b"]]},
    }
    swap = {"vertices": {"v": "w", "w": "v"}, "edges": {"a": "b", "b": "a"}}
    action = {"group": {"type": "zmod", "n": 2}, "table": {"0": swap, "1": swap}}
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(graph))
    action_path = tmp_path / "act.json"
    action_path.write_text(json.dumps(action))
    outcomes = [
        run(capsys, command, "--graph", str(graph_path), "--action", str(action_path))
        for command in ("quotient", "gross-tucker")
    ]
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert (code, out) == (2, "")
    assert err.startswith("error: action invariant violation: ")


@pytest.mark.parametrize("command", [["quotient"], ["gross-tucker"], ["act", "1", "a"]])
def test_a_finite_group_table_missing_an_element_exits_2(capsys, tmp_path, command):
    # the generator's entry alone would be an action; a file still lists every element
    swap = {"vertices": {"v": "w", "w": "v"}, "edges": {"a": "b", "b": "a"}}
    action = tmp_path / "act.json"
    action.write_text(json.dumps({"group": {"type": "zmod", "n": 2}, "table": {"1": swap}}))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(TWO_CYCLE))
    code, out, err = run(capsys, command[0], "--graph", str(graph), "--action", str(action), *command[1:])
    assert (code, out, err) == (2, "", "error: action table is missing entries for ['0']\n")


def test_an_infinite_group_table_is_read_by_act(capsys, tmp_path):
    swap = {"vertices": {"v": "w", "w": "v"}, "edges": {"a": "b", "b": "a"}}
    action = tmp_path / "act.json"
    action.write_text(json.dumps({"group": {"type": "z"}, "table": {"1": swap}}))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(TWO_CYCLE))
    argv = ["act", "--graph", str(graph), "--action", str(action)]
    assert run(capsys, *argv, "1", "a") == (0, "1 * b\n", "")
    assert run(capsys, *argv, "2", "a") == (2, "", "error: action table has no entry for 2\n")


@pytest.mark.parametrize("command", [["quotient"], ["act", "1", "a"]])
def test_action_table_keys_naming_one_element_exit_2(capsys, tmp_path, command):
    # '1' and '3' both name 1 in zmod:2; keeping the last would drop the swap
    graph = {
        "vertices": ["v", "w"],
        "edges": [{"id": "a", "src": "v", "dst": "w"}, {"id": "b", "src": "w", "dst": "v"}],
        "separation": {"v": [["a"]], "w": [["b"]]},
    }
    ident = {"vertices": {"v": "v", "w": "w"}, "edges": {"a": "a", "b": "b"}}
    swap = {"vertices": {"v": "w", "w": "v"}, "edges": {"a": "b", "b": "a"}}
    action = {"group": {"type": "zmod", "n": 2}, "table": {"0": ident, "1": swap, "3": ident}}
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(graph))
    action_path = tmp_path / "act.json"
    action_path.write_text(json.dumps(action))
    code, out, err = run(
        capsys, command[0], "--graph", str(graph_path), "--action", str(action_path), *command[1:]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "'1'" in err and "'3'" in err


def test_verify_crossed_iso(capsys, a2_file, tmp_path):
    label = tmp_path / "label.json"
    label.write_text(json.dumps({"a1": 1, "a2": 1}))
    code, out, _ = run(
        capsys,
        "verify-crossed-iso",
        "--graph",
        a2_file,
        "--group",
        "zmod:2",
        "--label",
        str(label),
        "--samples",
        "25",
        "--seed",
        "7",
    )
    assert code == 0
    assert out.startswith("PASS")


def test_verify_crossed_iso_without_samples_builds_no_translation_morphisms(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("morphisms called")

    monkeypatch.setattr(GraphAction, "morphisms", refuse)
    golden = os.path.join(os.path.dirname(__file__), "golden")
    code, out, err = run(
        capsys, "verify-crossed-iso", "--graph", os.path.join(golden, "fig5.json"),
        "--label", os.path.join(golden, "label_fig5.json"), "--group", "zmod:6", "--samples", "0", "--seed", "1",
    )
    assert (code, out, err) == (0, "PASS: 48 generator identities, 0 sampled identities\n", "")


def test_a_failed_crossed_iso_report_is_printed_and_exits_1(capsys, monkeypatch, a2_file, tmp_path):
    label = tmp_path / "label.json"
    label.write_text(json.dumps({"a1": 1, "a2": 1}))
    report = IsoReport(3, 5, ["a1 maps to 0", "a2* is not star preserved"])
    monkeypatch.setattr(cli, "verify_iso", lambda *args, **kwargs: report)
    code, out, err = run(
        capsys, "verify-crossed-iso", "--graph", a2_file, "--group", "zmod:2", "--label", str(label),
        "--seed", "1",
    )
    assert (code, out, err) == (1, report.summary() + "\n", "")


SELFTEST_RESULTS = {
    "all-pass": [CriterionResult(1, "one", True, 0.25, 1.0), CriterionResult(2, "two", True, 0.5, 1.0)],
    "failed-and-over-budget": [
        CriterionResult(1, "one", False, 0.25, 1.0, "a counterexample"),
        CriterionResult(2, "two", True, 3.0, 1.0),
        CriterionResult(3, "three", True, 0.5, 1.0),
    ],
}


@pytest.mark.parametrize("outcome", SELFTEST_RESULTS)
def test_selftest_prints_one_line_per_criterion_and_exits_1_on_any_miss(capsys, monkeypatch, outcome):
    results = SELFTEST_RESULTS[outcome]
    monkeypatch.setattr(selftest, "run_all", lambda seed: results)
    code, out, err = run(capsys, "selftest", "--seed", "3")
    assert out == "".join(result.line() + "\n" for result in results) and err == ""
    assert code == (0 if outcome == "all-pass" else 1)


def test_input_errors_exit_2(capsys, a2_file):
    code, _, err = run(capsys, "reduce", "--graph", a2_file, "nonsense_edge")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cayley", "--group", "zmod:0", "--generators", "1"],
        ["cayley", "--group", "zmod:-3", "--generators", "1"],
        ["skew", "--graph", "{a2}", "--label", "{a2}", "--group", "zmod:2"],
        ["cayley", "--group", f"zmod:{10**12}", "--generators", "1"],  # too many to enumerate
    ],
)
def test_bad_group_or_labeling_exits_2(capsys, a2_file, argv):
    code, out, err = run(capsys, *[arg.format(a2=a2_file) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "label,argv",
    [
        ({"a1": 2.5, "a2": 1}, ["skew", "--graph", "{a2}", "--group", "zmod:3", "--label", "{label}"]),
        ({"a1": True, "a2": 1}, ["skew", "--graph", "{a2}", "--group", "zmod:3", "--label", "{label}"]),
        (
            {"a1": [["x", 1.7]], "a2": "y"},
            ["grade", "--graph", "{a2}", "--group", "free:x,y", "--label", "{label}", "a1"],
        ),
        (None, ["cayley", "--group", '{{"type": "zmod", "n": 2.5}}', "--generators", "1"]),
    ],
    ids=["float-residue", "bool-residue", "float-exponent", "float-modulus"],
)
def test_non_integer_json_group_values_exit_2(capsys, a2_file, tmp_path, label, argv):
    path = tmp_path / "label.json"
    path.write_text(json.dumps(label))
    code, out, err = run(capsys, *[arg.format(a2=a2_file, label=path) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "must be an int" in err or "positive modulus" in err
    if label is not None:
        assert "'a1'" in err  # the edge whose label is bad


@pytest.mark.parametrize("samples,code", [
    ("-3", 2), ("0", 0), (str(MAX_SAMPLES + 1), 2), ("9" * 40, 2),
    pytest.param("-" + "9" * 4000, 2, id="minus-4000-nines"),
])
def test_verify_samples_must_not_be_negative(capsys, a2_file, tmp_path, samples, code):
    label = tmp_path / "label.json"
    label.write_text(json.dumps({"a1": 1, "a2": 1}))
    argv = ["verify-crossed-iso", "--graph", a2_file, "--group", "zmod:2", "--label", str(label)]
    status, out, err = run(capsys, *argv, "--samples", samples, "--seed", "1")
    assert status == code
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and len(err) < 300
    else:
        assert out.startswith("PASS") and "0 sampled identities" in out


def test_verify_refuses_a_group_past_the_order_cap(capsys, a2_file, tmp_path, monkeypatch):
    label = tmp_path / "label.json"
    label.write_text(json.dumps({"a1": 1, "a2": 1}))
    monkeypatch.setattr(cli, "verify_iso", None)  # the cap is checked before verify_iso runs
    group = f"zmod:{MAX_GROUP_ORDER + 1}"
    argv = ["verify-crossed-iso", "--graph", a2_file, "--group", group, "--label", str(label)]
    assert run(capsys, *argv, "--samples", "0", "--seed", "1") == (
        2, "", f"error: verify-crossed-iso takes a group of at most {MAX_GROUP_ORDER} elements\n"
    )


# (file name -> bytes, argv, what stderr must name): inputs that end in a ValueError from Python
# or the library, which cli.main does not catch, so each must become an input error of its own
VALUE_ERRORS = [
    ({"bad": b"\xff\xfe{"}, ["reduce", "--graph", "{bad}", "a1"],
     "cannot read {bad}: 'utf-8' codec can't decode byte 0xff"),
    ({"bad": b'{"vertices": ['}, ["reduce", "--graph", "{bad}", "a1"], "error: {bad}:1:15: Expecting value\n"),
    ({}, ["reduce", "--graph", "{a2}\0", "a1"], "cannot read {a2}\0: embedded null byte"),
    ({"spec": b'{"type": "zmod", "n": ' + b"7" * 5000 + b"}"},
     ["cayley", "--group", "{spec}", "--generators", "1"],
     "{spec}: a number has more than 4300 digits"),
    ({}, ["mul", "--graph", "{a2}", "1e3000 * a1", "1e3000 * a1"],
     "a coefficient has more than 4300 digits"),
    ({}, ["reduce", "--graph", "{a2}", "1e4300 * a1"], "a coefficient has more than 4300 digits"),
    ({}, ["reduce", "--graph", "{a2}", "1e5000 * a1"],
     "bad scalar literal '1e5000': an exponent of magnitude over 4300"),
    ({"label": b'{"a1": 1, "a2": 1}'},
     ["verify-crossed-iso", "--graph", "{a2}", "--group", "zmod:2", "--label", "{label}",
      "--samples", "-3", "--seed", "1"], "--samples must be at least 0, got -3"),
]


@pytest.mark.parametrize(
    "files,argv,where", VALUE_ERRORS, ids=["not-utf8", "json-syntax", "nul-in-path", "json-int-digits",
                                         "product-digits", "literal-digits", "exponent", "samples"]
)
def test_an_input_that_ends_in_a_value_error_is_named(capsys, a2_file, tmp_path, files, argv, where):
    paths = {"a2": a2_file}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        paths[name] = str(path)
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert where.format(**paths) in err


@pytest.mark.parametrize(
    "argv",
    [["cayley", "--group", "zmod:" + "9" * 5000, "--generators", "1"],
     ["reduce", "--graph", "{a2}", "9" * 5000 + " * a1"]],
    ids=["zmod-modulus", "coefficient"],
)
def test_a_long_integer_names_the_limit_in_a_short_line(capsys, a2_file, argv):
    code, out, err = run(capsys, *[arg.format(a2=a2_file) for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "more than 4300 digits" in err
    assert "set_int_max_str_digits" not in err and len(err) < 200


LONG = "x" * 5000
# two zmod factors of 3,000 nines: an order of 6,000 digits, past the int-string
# limit; braces doubled for the str.format the long-input test applies
PRODUCT = '{{"type": "product", "factors": [{{"type": "zmod", "n": %s}}, {{"type": "zmod", "n": %s}}]}}' % (
    "9" * 3000, "9" * 3000)
NINES = "zmod:" + "9" * 4000  # a 4,000-digit modulus: messages quote the group, not print it whole


@pytest.mark.parametrize(
    "argv, quoted",
    [(["reduce", "--graph", "{a2}", f"1/2{LONG} * a1"], "error: bad scalar literal '1/2xx"),
     (["cayley", "--group", f"zmod:{LONG}", "--generators", "1"], "error: group spec 'zmod:xx"),
     (["cayley", "--group", LONG, "--generators", "1"], "error: unrecognized group spec 'xx"),
     (["reduce", "--graph", "{a2}", LONG], "error: unknown edge id 'xx"),
     (["cayley", "--group", "zmod:3", "--generators", LONG], "error: 'xx"),
     (["reduce", "--graph", "{a2}", f"@{LONG}"], "error: unknown vertex id 'xx"),
     (["reduce", "--graph", "{a2}", "a1 " * 2500 + "+"], "error: dangling sign in element literal 'a1 a1"),
     (["reduce", "--graph", "{a2}", "a1 " * 2500 + "+ 2 *"], "error: coefficient without a word in 'a1 a1"),
     (["reduce", "--graph", LONG, "a1"], "error: cannot read 'xx"),
     (["reduce", "--graph", "{a2}", "--ex-choice", LONG, "a1"], "error: cannot read 'xx"),
     (["skew", "--graph", "{a2}", "--group", "zmod:2", "--label", LONG], "error: cannot read 'xx"),
     (["quotient", "--graph", "{a2}", "--action", LONG], "error: cannot read 'xx"),
     (["cayley", "--group", PRODUCT, "--generators", "(1,0)"], "error: 'zmod:999"),
     (["cayley", "--group", NINES, "--generators", "1"], "error: 'zmod:999"),
     (["cayley", "--group", NINES, "--generators", "x"], "error: 'x' is not an element of 'zmod:999")],
    ids=["scalar-literal", "zmod-spec", "group-spec", "edge-id", "generator", "vertex-id", "dangling-sign",
         "bare-coefficient", "graph-path", "ex-choice-path", "label-path", "action-path", "product-order",
         "zmod-order", "element-of-long-group"],
)
def test_a_long_input_is_quoted_in_a_short_line(capsys, a2_file, argv, quoted):
    code, out, err = run(capsys, *[arg.format(a2=a2_file) for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith(quoted) and "characters)" in err
    assert err.count("\n") == 1 and len(err) < 300 and "Traceback" not in err


def test_an_infinite_group_is_refused_in_one_short_line(capsys, a2_file, tmp_path):
    label = tmp_path / "label.json"
    label.write_text(json.dumps({"a1": "1", "a2": "1"}))
    action = tmp_path / "action.json"
    action.write_text(json.dumps({"group": {"type": "free", "generators": [LONG]}, "table": {}}))
    free = f"free:{LONG}"
    argvs = [
        ["skew", "--graph", a2_file, "--label", str(label), "--group", free],
        ["cayley", "--group", free, "--generators", "1"],
        ["quotient", "--graph", a2_file, "--action", str(action)],
        ["gross-tucker", "--graph", a2_file, "--action", str(action)],
        ["verify-crossed-iso", "--graph", a2_file, "--label", str(label), "--group", free, "--seed", "1"],
    ]
    line = f"error: 'free({'x' * 59}'... (5,006 characters) is not finite; cannot enumerate its elements\n"
    assert len(line) < 300
    assert {run(capsys, *argv) for argv in argvs} == {(2, "", line)}


def test_a_long_list_of_missing_entries_is_cut_in_a_short_line(capsys, a2_file, tmp_path):
    ident = {"vertices": {"v": "v"}, "edges": {"a1": "a1", "a2": "a2"}}
    action = tmp_path / "act.json"
    action.write_text(json.dumps({"group": {"type": "zmod", "n": 1000}, "table": {"0": ident}}))
    line = "error: action table is missing entries for ['1', '2', '3', '4', '5'] and 994 more\n"
    assert run(capsys, "quotient", "--graph", a2_file, "--action", str(action)) == (2, "", line)


def test_long_missing_elements_share_one_budget_in_a_short_line(capsys, a2_file, tmp_path):
    # each element of this order-8 group has a 127-character text; each was once cut at 64
    factors = [{"type": "zmod", "n": 2}] * 3 + [{"type": "zmod", "n": 1}] * 60
    action = tmp_path / "act.json"
    action.write_text(json.dumps({"group": {"type": "product", "factors": factors}, "table": {}}))
    starts = ["(0,0,0", "(0,0,1", "(0,1,0", "(0,1,1", "(1,0,0"]
    shown = ", ".join(f"'{start},0,0,0,0,0,0'... (127 characters)" for start in starts)
    line = f"error: action table is missing entries for [{shown}] and 3 more\n"
    assert len(line) < 300
    assert run(capsys, "quotient", "--graph", a2_file, "--action", str(action)) == (2, "", line)


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_a_long_int_argument_is_quoted_in_a_short_message(capsys, a2_file, flag):
    argv = ["verify-crossed-iso", "--graph", a2_file, "--label", "l.json", "--group", "z", flag, "9" * 5000]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"error: argument {flag}: invalid int value: '9999" in err and "(5,000 characters)" in err
    assert len(err) < 400 and "Traceback" not in err


@pytest.mark.parametrize("command", ["cayley", "grade", "act"])
def test_a_free_exponent_past_the_letter_bound_exits_2(capsys, a2_file, tmp_path, command):
    power = "x^" + "9" * 20
    label = tmp_path / "label.json"
    label.write_text(json.dumps({"a1": power, "a2": "x"}))
    action = tmp_path / "action.json"
    table = {power: {"vertices": {}, "edges": {}}}
    action.write_text(json.dumps({"group": {"type": "free", "generators": ["x"]}, "table": table}))
    argv = {
        "cayley": ["cayley", "--group", "free:x", "--generators", power],
        "grade": ["grade", "--graph", a2_file, "--group", "free:x", "--label", str(label), "a1"],
        "act": ["act", "--graph", a2_file, "--action", str(action), "1", "a1"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than {MAX_ORDER} letters" in err
    assert err.count("\n") == 1 and len(err) < 300 and "Traceback" not in err


def test_a_program_error_is_not_reported_as_an_input_error(monkeypatch, a2_file):
    def broken(vertices, edges, separation):
        raise ValueError("a bug, not an input error")

    monkeypatch.setattr(cli, "validate", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["validate", "--graph", a2_file])


def test_group_shorthand_comes_before_a_same_named_path(capsys, a2_file, tmp_path, monkeypatch):
    (tmp_path / "z").mkdir()
    label = tmp_path / "label.json"
    label.write_text(json.dumps({"a1": 1, "a2": 0}))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "grade", "--graph", a2_file, "--group", "z", "--label", str(label), "a1 a2"
    )
    assert code == 0, err
    assert json.loads(out) == {"1": "1 * a1 a2"}


def test_outputs_are_deterministic(capsys, a2_file):
    _, first, _ = run(capsys, "cayley", "--group", "zmod:3", "--generators", "1,2")
    _, second, _ = run(capsys, "cayley", "--group", "zmod:3", "--generators", "1,2")
    assert first == second


EDGE_NO_ID = {"vertices": ["v"], "edges": [{"src": "v", "dst": "v"}]}
EDGE_INT_SRC = {"vertices": ["v"], "edges": [{"id": "a", "src": 1, "dst": "v"}]}
VERTICES_LIST = {"group": {"type": "zmod", "n": 1}, "table": {"0": {"vertices": ["v"], "edges": {}}}}

# (files, argv, the path or value that stderr must name)
MISTYPED = [
    ({"choice": [1]}, ["reduce", "--graph", "{a2}", "--ex-choice", "{choice}", "a1"],
     "choice.json: --ex-choice: expected an object, got a list"),
    ({"g": [A2]}, ["validate", "--graph", "{g}"], "malformed graph JSON: expected an object"),
    ({"g": {"vertices": "vw", "edges": []}}, ["validate", "--graph", "{g}"],
     "graph JSON.vertices: expected a list, got 'vw'"),
    ({"g": {"vertices": "vw", "edges": []}}, ["reduce", "--graph", "{g}", "@v"],
     "graph JSON.vertices: expected a list"),
    ({"g": {**A2, "separation": {"v": ["a1", "a2"]}}}, ["validate", "--graph", "{g}"],
     "graph JSON.separation['v'][0]: expected a list, got 'a1'"),
    ({"g": {**A2, "vertices": [["v"]]}}, ["star", "--graph", "{g}", "a1"],
     "graph JSON.vertices[0]: expected a string, got a list"),
    ({"act": {"group": {"type": "zmod", "n": 2}, "table": []}},
     ["quotient", "--graph", "{a2}", "--action", "{act}"],
     "action JSON.table: expected an object, got a list"),
    ({"choice": {"v": ["a1", "a2", "a1"]}},
     ["reduce", "--graph", "{a2}", "--ex-choice", "{choice}", "a1"], "'v'"),
    ({"lab": {"a1": "a", "a2": "b"}},
     ["grade", "--graph", "{a2}", "--group", '{{"type": "free", "generators": "ab"}}',
      "--label", "{lab}", "a1 a2"], "group spec.generators: expected a list, got 'ab'"),
    ({"lab": {"a1": "", "a2": ""}},
     ["grade", "--graph", "{a2}", "--group", "free:", "--label", "{lab}", "a1 a2"],
     "free generator name ''"),
    ({"lab": {"a1": "", "a2": ""}},
     ["grade", "--graph", "{a2}", "--group", '{{"type": "free", "generators": [""]}}',
      "--label", "{lab}", "a1 a2"], "free generator name ''"),
    ({"lab": {"a1": "a", "a2": "a"}},
     ["grade", "--graph", "{a2}", "--group", "free:a,a", "--label", "{lab}", "a1 a2"],
     "names repeat"),
    ({"lab": {"a1": "a", "a2": "a"}},
     ["grade", "--graph", "{a2}", "--group", '{{"type": "free", "generators": ["a", "a"]}}',
      "--label", "{lab}", "a1 a2"], "names repeat"),
    ({"g": LOOP, "act": LIST_IMAGE}, ["quotient", "--graph", "{g}", "--action", "{act}"],
     "action JSON.table['0'].vertices['v']: expected a string, got a list"),
    ({"g": LOOP, "act": LIST_IMAGE}, ["gross-tucker", "--graph", "{g}", "--action", "{act}"],
     "action JSON.table['0'].vertices['v']"),
    ({"g": LOOP, "act": LIST_IMAGE}, ["act", "--graph", "{g}", "--action", "{act}", "0", "a"],
     "action JSON.table['0'].vertices['v']"),
    ({"lab": {"a1": [], "a2": []}},
     ["grade", "--graph", "{a2}", "--group", '{{"type": "product", "factors": []}}',
      "--label", "{lab}", "a1 a2"], "needs a factor"),
    ({"g": EDGE_NO_ID}, ["reduce", "--graph", "{g}", "@v"], "graph JSON.edges[0].id: missing"),
    ({"g": EDGE_INT_SRC}, ["validate", "--graph", "{g}"],
     "graph JSON.edges[0].src: expected a string, got 1"),
    ({"spec": [{"type": "zmod", "n": 2}]}, ["cayley", "--group", "{spec}", "--generators", "1"],
     "malformed group spec: expected an object, got a list"),
    ({}, ["cayley", "--group", '{{"type": "zmod"}}', "--generators", "1"],
     "malformed group spec.n: missing"),
    ({"lab": [1, 2]}, ["grade", "--graph", "{a2}", "--group", "zmod:3", "--label", "{lab}", "a1"],
     "malformed labeling JSON: expected an object, got a list"),
    ({"act": VERTICES_LIST}, ["quotient", "--graph", "{a2}", "--action", "{act}"],
     "action JSON.table['0'].vertices: expected an object, got a list"),
    ({"choice": {"v": "a1"}}, ["reduce", "--graph", "{a2}", "--ex-choice", "{choice}", "a1"],
     "--ex-choice['v']: expected a list, got 'a1'"),
    ({"act": {"group": {"type": "x"}, "table": {}}}, ["quotient", "--graph", "{a2}", "--action", "{act}"],
     "malformed action JSON.group.type: expected 'free', 'z', 'zmod' or 'product', got 'x'"),
]


@pytest.mark.parametrize(
    "files,argv,where", MISTYPED, ids=[f"files{i}-argv{i}" for i in range(len(MISTYPED))]
)
def test_mistyped_json_exits_2(capsys, a2_file, tmp_path, files, argv, where):
    paths = {"a2": a2_file}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert where in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["cayley", "--group", "zmod:6", "--generators", "x"], "'x' is not an element of 'zmod:6'"),
        (["cayley", "--group", "zmod:6", "--generators", "1,2^x"], "'2^x' is not an element"),
        (["cayley", "--group", '{{"type": "product", "factors": [{{"type": "zmod", "n": 6}}]}}',
          "--generators", "(x)"], "'(x)' is not an element of 'zmod:6'"),
        (["act", "--graph", "{a2}", "--action", "{act}", "x", "a1"], "'x' is not an element of 'zmod:1'"),
        (["quotient", "--graph", "{a2}", "--action", "{keyed}"], "'x' is not an element of 'zmod:1'"),
        (["cayley", "--group", "zmod:x", "--generators", "1"], "group spec 'zmod:x' needs an integer"),
        (["cayley", "--group", "zmod:", "--generators", "1"], "group spec 'zmod:' needs an integer"),
        (["grade", "--graph", "{a2}", "--group", "z", "--label", "{lab}", "a1"],
         "label of edge 'a1': '1.5' is not an element of 'z'"),
        (["grade", "--graph", "{a2}", "--group", "free:a,b", "--label", "{free}", "a1"],
         "label of edge 'a1': 1 is not an element of 'free(a,b)'"),
        (["grade", "--graph", "{a2}", "--group", "free:a,b", "--label", "{pairs}", "a1"],
         "label of edge 'a1': [['a']] is not an element of 'free(a,b)'"),
    ],
)
def test_an_element_literal_that_does_not_parse_is_named_with_its_group(
    capsys, a2_file, tmp_path, argv, message
):
    maps = {"vertices": {"v": "v"}, "edges": {"a1": "a1", "a2": "a2"}}
    files = {
        "act": {"group": {"type": "zmod", "n": 1}, "table": {"0": maps}},
        "keyed": {"group": {"type": "zmod", "n": 1}, "table": {"x": maps}},
        "lab": {"a1": "1.5", "a2": "0"},
        "free": {"a1": 1, "a2": "b"},
        "pairs": {"a1": [["a"]], "a2": "b"},
    }
    paths = {"a2": a2_file}
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
    assert "invalid literal" not in err and "not iterable" not in err and "to unpack" not in err


@pytest.mark.parametrize("where", ["graph-file", "inline-group"])
def test_json_nested_past_the_recursion_limit_exits_2(capsys, tmp_path, where):
    if where == "graph-file":
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = ["reduce", "--graph", str(deep), "a"]
    else:
        spec = '{"type": "zmod", "n": 2}'
        for _ in range(600):
            spec = '{"type": "product", "factors": [' + spec + "]}"
        argv = ["cayley", "--group", spec, "--generators", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 450])
def test_product_groups_nested_past_the_cap_exit_2(capsys, depth):
    # 450 decodes as JSON but once ended in a RecursionError traceback
    spec = {"type": "zmod", "n": 2}
    for _ in range(depth):
        spec = {"type": "product", "factors": [spec]}
    generator = "(" * depth + "1" + ")" * depth
    code, out, err = run(capsys, "cayley", "--group", json.dumps(spec), "--generators", generator)
    if depth <= MAX_NESTING:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"nested more than {MAX_NESTING}" in err
        assert "Traceback" not in err


def test_a_call_builds_only_its_subcommands_parser(capsys, monkeypatch, a2_file):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    for argv in (
        ["reduce", "--graph", a2_file, "a1 a1*"],
        ["mul", "--graph", a2_file, "a1", "a2"],
        ["expect", "--graph", a2_file, "a1 a1*"],
        ["validate", "--graph", a2_file],
        ["cayley", "--group", "zmod:3", "--generators", "1"],
    ):
        built.clear()
        assert run(capsys, *argv)[0] == 0
        assert built == ["sepgraph", f"sepgraph {argv[0]}"]  # not all 13 subparsers
        built.clear()
        assert run(capsys, *argv)[0] == 0
        assert built == []  # the first call's parser is reused


def test_the_parser_cache_is_bounded_and_shared(capsys):
    cli._parser.cache_clear()
    argvs = (
        [[f"no-such-command-{i}"] for i in range(50)]
        + [["-h"], []]
        + [[name, "--help"] for name in cli.COMMANDS]  # a bare selftest would run the suite
    )
    for argv in argvs:
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert cli._parser.cache_info().currsize <= len(cli.COMMANDS) + 1
    assert cli.build_parser("x") is cli.build_parser("y") is cli.build_parser()


COMMANDS = (
    "validate", "skew", "quotient", "gross-tucker", "cayley", "reduce", "mul", "star",
    "expect", "grade", "act", "verify-crossed-iso", "selftest",
)


def parse_outcome(capsys, parser, argv):
    """The namespace, or the SystemExit code, and what parsing printed."""
    try:
        namespace, code = parser.parse_args(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return namespace, code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [[name, "--help"] for name in COMMANDS]
    + [[name] for name in COMMANDS]
    + [[name, "--no-such-flag"] for name in COMMANDS]
    + [
        ["reduce", "--graph", "g.json", "--ex-choice", "c.json", "a1"],
        ["mul", "--graph", "g.json", "a1", "a2", "extra"],
        ["verify-crossed-iso", "--graph", "g.json", "--label", "l.json", "--group", "z",
         "--seed", "3"],
        ["verify-crossed-iso", "--graph", "g.json", "--label", "l.json", "--group", "z",
         "--seed", "x"],
        ["selftest", "--seed", "5"],
        ["reduce", "--he"],
        [],
        ["-h"],
        ["no-such-command"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_a_subcommands_parser_parses_as_the_full_parser(capsys, argv):
    assert "{" + ",".join(COMMANDS) + "}" in cli.build_parser().format_usage()
    full = parse_outcome(capsys, cli.build_parser(), argv)
    narrow = parse_outcome(capsys, cli.build_parser(argv[0] if argv else None), argv)
    assert narrow == full


def test_closed_stdout_pipe_exits_1_without_traceback():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["cayley", "--group", "zmod:4000", "--generators", "1,2,3"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepgraph.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()  # like `| head -1`: the reader leaves before the output ends
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and err == ""


def test_importing_the_cli_leaves_the_acceptance_suite_unloaded():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # records and groups are written without dataclasses, which loads inspect, ast and dis
    for imports, module in [
        ("sepgraph", "sepgraph.graphs"),
        ("sepgraph.cli", "sepgraph.selftest"),
        ("sepgraph.cli, sepgraph.selftest", "dataclasses"),
    ]:
        code = f"import sys, {imports}; print({module!r} in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, text=True, check=True
        ).stdout
        assert out.strip() == "False", (imports, module)

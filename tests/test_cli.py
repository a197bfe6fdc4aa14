import json
import os
import subprocess
import sys

import pytest

from sepgraph.cli import main

A2 = {
    "vertices": ["v"],
    "edges": [
        {"id": "a1", "src": "v", "dst": "v"},
        {"id": "a2", "src": "v", "dst": "v"},
    ],
    "separation": {"v": [["a1"], ["a2"]]},
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
    ],
)
def test_bad_group_or_labeling_exits_2(capsys, a2_file, argv):
    code, out, err = run(capsys, *[arg.format(a2=a2_file) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_outputs_are_deterministic(capsys, a2_file):
    _, first, _ = run(capsys, "cayley", "--group", "zmod:3", "--generators", "1,2")
    _, second, _ = run(capsys, "cayley", "--group", "zmod:3", "--generators", "1,2")
    assert first == second


@pytest.mark.parametrize(
    "files,argv",
    [
        ({"choice": [1]}, ["reduce", "--graph", "{a2}", "--ex-choice", "{choice}", "a1"]),
        ({"g": [A2]}, ["validate", "--graph", "{g}"]),
        ({"g": {"vertices": "vw", "edges": []}}, ["validate", "--graph", "{g}"]),
        ({"g": {"vertices": "vw", "edges": []}}, ["reduce", "--graph", "{g}", "@v"]),
        ({"g": {**A2, "separation": {"v": ["a1", "a2"]}}}, ["validate", "--graph", "{g}"]),
        ({"g": {**A2, "vertices": [["v"]]}}, ["star", "--graph", "{g}", "a1"]),
        ({"act": {"group": {"type": "zmod", "n": 2}, "table": []}},
         ["quotient", "--graph", "{a2}", "--action", "{act}"]),
    ],
)
def test_mistyped_json_exits_2(capsys, a2_file, tmp_path, files, argv):
    paths = {"a2": a2_file}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


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

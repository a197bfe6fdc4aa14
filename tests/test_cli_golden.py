"""Golden outputs of every non-``selftest`` subcommand.

Each case runs ``cli.main`` in-process from ``tests/golden`` (the input files
live there, so paths in messages are the same wherever the checkout is) and
must reproduce the recorded stdout, stderr and exit code byte for byte.

The fixture ``tests/golden/cli_outputs.json`` was recorded from the code
before Q(i) scalars became integer-coded; ``tests/golden/cli_usage.json`` pins
what the parser prints (help, usage, errors) at 80 columns.  Re-record them
only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from sepgraph import cli
from sepgraph.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE = GOLDEN / "cli_outputs.json"
USAGE = GOLDEN / "cli_usage.json"

CASES = [
    ["validate", "--graph", "a2.json"],
    ["validate", "--graph", "fig5.json"],
    ["validate", "--graph", "invalid.json"],
    ["skew", "--graph", "a2.json", "--group", "zmod:3", "--label", "label_a2.json"],
    ["skew", "--graph", "fig5.json", "--group", "zmod:2", "--label", "label_fig5.json"],
    ["quotient", "--graph", "skew_a2_z2.json", "--action", "action_skew_a2_z2.json"],
    ["quotient", "--graph", "three.json", "--action", "action_three.json"],
    ["gross-tucker", "--graph", "skew_a2_z2.json", "--action", "action_skew_a2_z2.json"],
    ["gross-tucker", "--graph", "three.json", "--action", "action_three.json"],
    ["cayley", "--group", "zmod:3", "--generators", "1"],
    ["cayley", "--group", "zmod:4", "--generators", "1,2"],
    ["cayley", "--group", "zmod:0", "--generators", "1"],
    ["reduce", "--graph", "three.json", "c1 c1*"],
    ["reduce", "--graph", "three.json", "3/2+1/2i * c1 c1* c2 + -2/3i * d1 d1* - 5/7 * @v"],
    ["reduce", "--graph", "three.json", "--ex-choice", "choice_three.json", "1/3-1/4i * c1 c1* c1 c1*"],
    ["reduce", "--graph", "three.json", "c2* c1 + c3* c3 d1"],
    ["reduce", "--graph", "three.json", "-9/4+2/7i * c1 c1* c1 c1* c2 + 1/6i * c2 c1 c1* d1"],
    ["reduce", "--graph", "pair.json", "--ex-choice", "choice_pair.json", "-i * e1 e1* e2 e2*"],
    ["reduce", "--graph", "a2.json", "0"],
    ["reduce", "--graph", "a2.json", "nonsense_edge"],
    ["reduce", "--graph", "a2.json", "1//2 * a1"],
    ["reduce", "--graph", "missing.json", "a1"],
    ["mul", "--graph", "pair.json", "1/2+i * e1 e1* + 2 * e2", "3-1/3i * e1 e1* - i * e2*"],
    ["mul", "--graph", "three.json", "2/5+7/3i * c1 + -1 * c2* + 3i * d1", "c1* c1 c1* + 1/2 * c3 - 4/9-2i * @v"],
    ["mul", "--graph", "fig5.json", "be2 be2*", "al2 al2* + -3/2i * al1 al1*"],
    ["mul", "--graph", "fig5.json", "be2", "al2"],
    ["star", "--graph", "a2.json", "3/2-1/2i * a1 a2* + 7 * @v + -i * a2 a2 a1*"],
    ["star", "--graph", "three.json", "5/6+1/6i * c2 c3* d1 + 2i * d1* + -1/4 * c1 c1 c2*"],
    ["expect", "--graph", "fig5.json", "1/3+2/3i * be2 be2* al2 al2* + -1/2i * be1 be1*"],
    ["expect", "--graph", "fig5.json", "be2 be2* al2 al2* be2 be2* al2 al2* be2 be2* al2 al2*"],
    ["expect", "--graph", "three.json", "7/2-3i * c1 c1* c2 c2* + 1/5i * c3 c3* d1 d1* + 2 * @w"],
    ["expect", "--graph", "a2.json", "a1 a2*"],
    ["expect", "--graph", "pair.json", "2/3-5/2i * e2 e2* e1 e1* + -i * e1 e2 e2* e1*"],
    ["grade", "--graph", "a2.json", "--group", "zmod:3", "--label", "label_a2.json",
     "1/2i * a1 a2* + 3 * a1 a1 + -i * @v + 2/3-5/7i * a2 a2"],
    ["grade", "--graph", "a2.json", "--group", "free:a,b", "--label", "label_free.json",
     "4-i * a1 a2* + 1/9 * a2 a1* a1 + -7/8i * a1 a1"],
    ["grade", "--graph", "three.json", "--group", "zmod:3", "--label", "label_three.json",
     "-2/3+1/3i * c1 c2* + c3 c3* + 5i * c1 d1"],
    ["act", "--graph", "pair.json", "--action", "action_pair.json", "1", "2/3-i * e1 e2* + 1/5 * e1 e1*"],
    ["act", "--graph", "three.json", "--action", "action_three.json", "2",
     "-3/4+5/6i * c1 c1* + 11 * c2 c3* d1 + i * @v"],
    ["act", "--graph", "three.json", "--action", "action_three.json", "1", "1/2 * c3 c3* c3"],
    ["verify-crossed-iso", "--graph", "a2.json", "--group", "zmod:2", "--label", "label_a2_z2.json",
     "--samples", "12", "--seed", "3"],
    ["verify-crossed-iso", "--graph", "three.json", "--group", "zmod:3", "--label", "label_three.json",
     "--samples", "6", "--seed", "5"],
]


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _key(argv) -> str:
    return json.dumps(argv)


COMMANDS = (
    "validate", "skew", "quotient", "gross-tucker", "cayley", "reduce", "mul", "star",
    "expect", "grade", "act", "verify-crossed-iso", "selftest",
)
# every argv that argparse ends; a bare `selftest` parses, and runs the timed suite
USAGE_CASES = (
    [[name, "--help"] for name in COMMANDS]
    + [[name] for name in COMMANDS if name != "selftest"]
    + [["selftest", "--seed", "x"], ["-h"], [], ["no-such-command"]]
)


def run_usage(argv) -> dict:
    """What ``main(argv)`` prints before argparse exits, and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
    return {"code": exc.value.code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_fixture_covers_every_case():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(_key(argv) for argv in CASES)
    commands = {argv[0] for argv in CASES}
    assert commands == {
        "validate", "skew", "quotient", "gross-tucker", "cayley", "reduce",
        "mul", "star", "expect", "grade", "act", "verify-crossed-iso",
    }


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv)[:60])
def test_output_is_byte_identical(argv, monkeypatch):
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))[_key(argv)]
    monkeypatch.chdir(GOLDEN)
    assert run_case(argv) == recorded


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_output_is_byte_identical(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads(USAGE.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(_key(argv) for argv in USAGE_CASES)
    assert run_usage(argv) == recorded[_key(argv)]


def test_reused_parsers_print_the_recorded_bytes(monkeypatch):
    """Parsers are kept for the process: built at 20 columns and reused at 80,
    they print what is recorded, twice over, and the commands after them match."""
    cli._parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "20")
    for argv in USAGE_CASES:
        run_usage(argv)
    monkeypatch.setenv("COLUMNS", "80")
    usage = json.loads(USAGE.read_text(encoding="utf-8"))
    for _ in range(2):
        for argv in USAGE_CASES:
            assert run_usage(argv) == usage[_key(argv)], argv
    outputs = json.loads(FIXTURE.read_text(encoding="utf-8"))
    monkeypatch.chdir(GOLDEN)
    for argv in reversed(CASES):
        assert run_case(argv) == outputs[_key(argv)], argv
    assert cli._parser.cache_info().currsize <= len(cli.COMMANDS) + 1


INPUTS = sorted(
    path.name for path in GOLDEN.glob("*.json")
    if path.name not in (FIXTURE.name, USAGE.name, "normal_word_draws.json", "walk_draws.json")
)
RAW_EXCEPTION = re.compile(
    r"object is not subscriptable|indices must be|has no attribute|invalid literal for int\(\)"
    r"|object is not iterable|values to unpack"
    r"|^error: [^:']*: '[^']*'$"  # a KeyError's bare quoted key after the prefix
)


def json_nodes(value, path=()):
    """The path of every node of a decoded JSON value, the root first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_nodes(child, path + (key,))


def replaced(value, path, new):
    """A copy of ``value`` with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    copy = value.copy()
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


def test_every_one_node_change_of_a_golden_input_keeps_the_exit_contract(monkeypatch, tmp_path):
    """Each node of each golden input, replaced in turn by 1, "x" and [], and fed
    to the first golden command that reads the file: exit 0, 1 or 2 without an
    exception, and an input error names what is wrong, not a Python exception."""
    monkeypatch.chdir(GOLDEN)
    mutant = str(tmp_path / "mutant.json")
    runs = 0
    for name in INPUTS:
        argv = next(argv for argv in CASES if name in argv)
        data = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
        for path in json_nodes(data):
            for new in (1, "x", []):
                Path(mutant).write_text(json.dumps(replaced(data, path, new)), encoding="utf-8")
                result = run_case([mutant if arg == name else arg for arg in argv])
                where = f"{name} at {list(path)} = {new!r}: {result['stderr']!r}"
                assert result["code"] in (0, 1, 2), where
                if result["code"] == 0:
                    assert result["stderr"] == "", where
                err = result["stderr"]
                if result["code"] == 2:
                    assert not RAW_EXCEPTION.search(err.strip()), where
                    if err.startswith("error: malformed"):  # a shape misfit names its path
                        assert ": expected " in err or ": missing" in err, where
                runs += 1
    assert runs > 700


def record() -> None:
    here = os.getcwd()
    os.chdir(GOLDEN)
    try:
        outputs = {_key(argv): run_case(argv) for argv in CASES}
    finally:
        os.chdir(here)
    FIXTURE.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.environ["COLUMNS"] = "80"
    usage = {_key(argv): run_usage(argv) for argv in USAGE_CASES}
    USAGE.write_text(json.dumps(usage, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()

"""Smoke check of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/check.py

For every workload it runs the benchmark briefly, untraced once and traced
twice with one seed, and asserts that:

* the last line of stdout has exactly the four result keys, and every
  metric ``BENCHMARK.json`` names is there with its unit: the end-to-end ones
  untraced, the per-layer ones traced;
* ``products``, ``expectation`` and ``dictionary`` have no failed operation;
* the two traced runs agree exactly on every ``*.calls`` count and on
  ``algebra.mul.terms_out``, ``algebra.mul.pair_repeat_ratio`` and
  ``expectation.expect.words_in``.

It also checks the tracer in-process (names imported with ``from .x import y``
and ``GaussianRational.__rmul__`` are rebound, and an un-rebound name shows up
as a missed boundary instead of reading as zero), and that the benchmark
exits nonzero without a result where the sepgraph sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
DETERMINISTIC = ("algebra.mul.terms_out", "algebra.mul.pair_repeat_ratio", "expectation.expect.words_in")
CLEAN = ("products", "expectation", "dictionary")

sys.path.insert(0, str(HERE))


def bench(workload, trace):
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
        "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True, result
    assert result["attempted"] >= 1
    return result


def check_metrics(result, declared, label):
    metrics = result["metrics"]
    assert set(metrics) == set(declared), (
        f"{label}: missing {sorted(set(declared) - set(metrics))}, "
        f"undeclared {sorted(set(metrics) - set(declared))}"
    )
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, f"{label}: {name} has unit {metrics[name]['unit']}"
        assert isinstance(metrics[name]["value"], (int, float)), f"{label}: {name} is not a number"


def check_runs(spec):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = result_of(bench(workload, 0))
        check_metrics(untraced, end_to_end, f"{workload} untraced")
        first, second = (result_of(bench(workload, 1)) for _ in range(2))
        check_metrics(first, per_layer, f"{workload} traced")
        if workload in CLEAN:
            for result in (untraced, first, second):
                assert result["failed"] == 0, f"{workload}: {result['failed']} failed operations"
        counts = [n for n in per_layer if n.endswith(".calls") or n in DETERMINISTIC]
        differ = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        assert not differ, f"{workload}: traced runs of one seed differ on {differ}"
        print(f"ok  {workload}: {untraced['attempted']} ops untraced, failed {untraced['failed']}")


def check_tracer():
    import tracing
    from run import scratch_dir
    from workloads import _capture

    sys.path.insert(0, str(ROOT / "src"))
    from sepgraph import cli, expectation, scalars

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.expect is expectation.expect and hasattr(cli.expect, "__wrapped__"), (
            "cli.expect was not rebound"
        )
        with scratch_dir() as workdir:
            graph = workdir / "g.json"
            graph.write_text(json.dumps({"vertices": ["v"], "edges": [{"id": "a", "src": "v", "dst": "v"}],
                                         "separation": {"v": [["a"]]}}))
            argv = ["expect", "--graph", str(graph), "a a*"]
            tracer.active = True
            code = _capture(cli.main, argv)[0]
            product = 2 * scalars.ONE
            tracer.active = False
            assert code == 0 and product == scalars.GaussianRational.of(2)
            snapshot = tracer.snapshot()
            assert snapshot["expectation.expect.calls"] == 1, snapshot["expectation.expect.calls"]
            assert snapshot["scalars.mul.calls"] >= 1, "GaussianRational.__rmul__ was not counted"

            # a missed rebinding of a from-import must be reported, not read as zero
            tracer.reset()
            rebound = cli.expect
            cli.expect = rebound.__wrapped__
            try:
                tracer.active = True
                _capture(cli.main, argv)
                tracer.active = False
            finally:
                cli.expect = rebound
            assert "expectation.expect" in tracing.missing_calls("cli", tracer.snapshot())
    finally:
        tracer.uninstall()
    print("ok  tracer rebinds from-imports and __rmul__, and reports a missed boundary")


def check_without_sources(spec):
    from run import scratch_dir

    with scratch_dir() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "products", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0, "benchmark succeeded without the sepgraph sources"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the sources"
    print("ok  exits nonzero without a result when the sources are missing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tracer()
    check_without_sources(spec)
    check_runs(spec)
    print("all benchmark checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The sepgraph benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload products --seed 1 --seconds 25 --trace 0

Set-up imports sepgraph from ``src/`` next to this directory and generates the
workload's inputs from the seed; it is repeated and ``setup_s`` is its median.
The run then makes whole passes over the inputs, each on fresh contexts, until
``--seconds`` have gone by (at least three passes).  Every operation is timed
alone and its result checked outside the timed region.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the last line holds the per-layer metrics.  The line before it is
the full record: environment, inputs, operation counts and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
MIN_ROUNDS = 3

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_sepgraph():
    """Import sepgraph afresh: drop any loaded copy so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "sepgraph" or n.startswith("sepgraph.")]:
        del sys.modules[name]
    package = importlib.import_module("sepgraph")
    if Path(package.__file__).resolve().parent != SRC / "sepgraph":
        raise RuntimeError(f"imported sepgraph from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"sepgraph.{name}") for name in tracing.MODULES}
    )


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory inside the checkout for files a run writes; removed after."""
    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use the parent
            parent.rmdir()


def run_round(ops, canonical, verified, tracer=None):
    """One pass: returns (latencies, failure reasons, wrong outputs, raised).

    ``verified`` maps an operation's index to the canonical form of a result
    that passed its check; an identical result later passes without
    recomputing the reference."""
    latencies, failures = [], []
    wrong = raised = 0
    clock = time.perf_counter
    gc.collect()
    for index, (call, check) in enumerate(ops):
        if tracer is not None:
            tracer.active = True
        start = clock()
        try:
            result, error = call(), None
        except Exception as exc:  # an escaping exception is a failed operation
            result, error = None, exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.active = False
        latencies.append(elapsed)
        if error is not None:
            failures.append(f"{type(error).__name__}: {error}")
            raised += 1
            continue
        form = canonical(result)
        if verified.get(index) == form:
            continue
        problem = check(result)
        if problem is None:
            verified[index] = form
        else:
            failures.append(problem)
            wrong += 1
    return latencies, failures, wrong, raised


def git_commit():
    """The checked-out commit, or None outside a git checkout (a repository
    above the checkout is not looked for)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    with contextlib.suppress(OSError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


@dataclass
class Measurement:
    best: list = None  # each operation's fastest seconds over the passes, in order
    passes: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    wrong: int = 0
    raised: int = 0
    snapshots: list = field(default_factory=list)  # traced passes only

    def add(self, latencies):
        """Every pass runs the same inputs on cold contexts, so an operation's
        best time over the passes is its best-of-N.  Only the running minimum
        is kept, so the run's memory does not grow with the number of passes."""
        self.best = latencies if self.best is None else list(map(min, self.best, latencies))
        self.passes += 1
        self.attempted += len(latencies)


def measure(workload, seconds, tracer=None) -> Measurement:
    """Whole passes until ``seconds`` of wall time (checks included) are spent."""
    m = Measurement()
    verified = {}
    start = time.perf_counter()
    while m.passes < MIN_ROUNDS or time.perf_counter() - start < seconds:
        ops = workload.new_round()
        if tracer is not None:
            tracer.reset()
        latencies, failures, wrong, raised = run_round(ops, workload.canonical, verified, tracer)
        if tracer is not None:
            m.snapshots.append(tracer.snapshot())
        m.add(latencies)
        m.failures += failures
        m.wrong += wrong
        m.raised += raised
    return m


def end_to_end(m: Measurement, setup_times) -> dict:
    best = m.best
    percentiles = statistics.quantiles(best, n=100, method="inclusive")
    failed_per_round = len(m.failures) / m.passes
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((len(best) - failed_per_round) / sum(best), "1/s"),
        "op_p50_ms": (percentiles[49] * 1e3, "ms"),
        "op_p90_ms": (percentiles[89] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # rule-of-succession estimate over one pass, never 0: a clean pass of
        # n inputs reads 1/(n+2); the raw counts are "attempted" and "failed"
        "fail_ratio": ((failed_per_round + 1) / (len(best) + 2), "ratio"),
    }


def per_layer(untraced: Measurement, traced: Measurement) -> dict:
    """Counts from the first traced pass, so two runs of one seed agree;
    self times are means over the traced passes."""
    snapshots = traced.snapshots
    out = dict(snapshots[0])
    for name in out:
        if name.endswith("_s"):
            out[name] = statistics.fmean(s[name] for s in snapshots)
    totals = [tracing.layer_totals(s) for s in snapshots]
    for name in totals[0]:
        out[name] = statistics.fmean(t[name] for t in totals)
    out["trace.overhead_ratio"] = sum(traced.best) / sum(untraced.best)
    return {name: (out[name], tracing.unit_of(name)) for name in tracing.metric_names()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny is for the smoke check"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sepgraph" / "__init__.py").is_file():
        print(f"error: no sepgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with scratch_dir() as workdir:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload = None  # free the previous set-up's inputs outside the timed region
            gc.collect()
            start = time.perf_counter()
            sg = load_sepgraph()
            workload = WORKLOADS[args.workload](sg, args.seed, args.scale, workdir)
            setup_times.append(time.perf_counter() - start)

        if args.trace:
            untraced = measure(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            missing = tracing.missing_calls(args.workload, traced.snapshots[0])
            if missing:
                print(f"error: traced run recorded no call at {missing}", file=sys.stderr)
                return 1
            metrics = per_layer(untraced, traced)
            runs = [untraced, traced]
        else:
            untraced = measure(workload, args.seconds)
            metrics = end_to_end(untraced, setup_times)
            runs = [untraced]

    attempted = sum(m.attempted for m in runs)
    failures = [f for m in runs for f in m.failures]
    wrong = sum(m.wrong for m in runs)
    raised = sum(m.raised for m in runs)
    result = {
        # an escaping exception is a measured failure only where the workload
        # expects some (cli's known escapes); elsewhere it breaks the contract
        "correct": wrong == 0 and (raised == 0 or workload.raises_measured),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "env": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "inputs": workload.inputs,
        "ops": {
            "per_round": len(runs[0].best),
            "passes": [m.passes for m in runs],
            "attempted": attempted,
            "failed": len(failures),
            "wrong": wrong,
            "raised": raised,
        },
        "setup_times_s": setup_times,
        "failures": sorted(set(failures))[:10],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time one-shot processes: the bare interpreter, importing the CLI, and a call.

Each round starts three processes one after another, never two at once:
``python -c pass``, ``python -c "import sepgraph.cli"`` and
``python -m sepgraph.cli reduce --graph tests/golden/a2.json "a1 a1*"``.
Alternating the three inside a round spreads any drift of the machine over
all of them alike.  A first, untimed round lets the children write their
bytecode (they run without PYTHONDONTWRITEBYTECODE), so the timed rounds
measure the cached import a user repeats.  After ROUNDS rounds it prints the
median wall-clock milliseconds of each command and what sepgraph adds to the
bare interpreter, so its own import is the second median minus the first.
Exits 1 only if a child process fails.  Run with:

    python scripts/import_time.py
"""

import os
import statistics
import subprocess
import sys
import time

ROUNDS = 25
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
COMMANDS = [
    ("python -c pass", ["-c", "pass"]),
    ('python -c "import sepgraph.cli"', ["-c", "import sepgraph.cli"]),
    (
        'python -m sepgraph.cli reduce --graph tests/golden/a2.json "a1 a1*"',
        ["-m", "sepgraph.cli", "reduce", "--graph",
         os.path.join(ROOT, "tests", "golden", "a2.json"), "a1 a1*"],
    ),
]


def run_once(args: list, env: dict) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return seconds


def main() -> int:
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for _, args in COMMANDS:
        run_once(args, env)
    times = {label: [] for label, _ in COMMANDS}
    for _ in range(ROUNDS):
        for label, args in COMMANDS:
            times[label].append(run_once(args, env))
    medians = [statistics.median(times[label]) * 1000 for label, _ in COMMANDS]
    print(f"{sys.version.split()[0]} on {sys.platform}, median of {ROUNDS} sequential runs each")
    for (label, _), ms in zip(COMMANDS, medians):
        print(f"{ms:7.1f} ms  {label}")
    print(f"sepgraph's own one-shot import: {medians[1] - medians[0]:.1f} ms over python -c pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())

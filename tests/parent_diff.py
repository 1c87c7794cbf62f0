"""Compare the working tree's answers with those of ``HEAD``, byte for byte.

    python tests/parent_diff.py

exports ``HEAD`` with ``git archive`` into a temporary directory and runs
the same queries on that tree and on the working tree, each in a child
process that has only that tree's ``src`` on its path.  The queries are
every corpus ``.queries`` file against its program, the ``det`` benchmark
program's ``nrev`` of lengths 0 to 60 and ``count(0,N)`` queries, and the
goal sweep's first 5,000 seeded goals, run one engine per sweep block as
the sweep runs them.  The rendered answers are compared with their ``_G``
serials, so a change that renames a clause's cells in another order shows
here even where the oracle, whose two sides share the engine, agrees.  It
prints ``DIFF:`` and the first differing line, and exits 1, on any
difference.  Run it before committing a change to the engine; it is not
part of the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402  (perfbench/gen.py: the det program)
import goal_sweep  # noqa: E402  (this script's own directory)
from entangle_pl import corpus_dir  # noqa: E402
from entangle_pl.oracle import read_queries  # noqa: E402

SWEEP_SEEDS = range(5_000)

# Runs in a child process: reads the jobs as JSON from standard input, and
# writes each query, its answers and the error that ended it, if any.
WORKER = """
import json, sys
from entangle_pl import Engine
for job in json.load(sys.stdin):
    print("== " + job["name"])
    engine = Engine(**job["options"])
    engine.consult_text(job["program"])
    for text in job["queries"]:
        print("?- " + text)
        solutions = engine.query(text)
        try:
            for n, solution in enumerate(solutions, 1):
                print(str(solution))
                if n == job["limit"]:
                    break
        except Exception as e:
            print(f"! {type(e).__name__}: {e}")
        finally:
            solutions.close()
"""


def jobs() -> list:
    found = []
    for program in sorted(corpus_dir().glob("*.pl")):
        found.append({
            "name": f"corpus {program.stem}", "options": {}, "limit": None,
            "program": program.read_text(encoding="utf-8"),
            "queries": read_queries(program.with_suffix(".queries")),
        })
    det = [f"nrev([{','.join(map(str, range(n)))}],R)." for n in range(61)]
    det += [f"count(0,{n})." for n in (0, 1, 2, 10, 100, 1000, 10000)]
    det += ["app(X,Y,[1,2,3]).", "app(X,[a],Z)."]
    found.append({"name": "det", "options": {}, "limit": 20,
                  "program": gen.DET_PROGRAM, "queries": det})
    for first in range(SWEEP_SEEDS.start, SWEEP_SEEDS.stop, goal_sweep.BLOCK):
        seeds = range(first, min(first + goal_sweep.BLOCK, SWEEP_SEEDS.stop))
        found.append({
            "name": f"goal sweep seeds {seeds.start}-{seeds.stop - 1}",
            "options": {"occurs_check": True, "max_frames": 2_000}, "limit": 20,
            "program": goal_sweep.PROGRAM,
            "queries": [goal_sweep.query(seed) for seed in seeds],
        })
    return found


def answers(tree: Path, work: str) -> list:
    """The worker's output lines on ``tree``'s engine."""
    proc = subprocess.run(
        [sys.executable, "-c", WORKER], input=work, capture_output=True,
        text=True, cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    if proc.returncode:
        sys.exit(f"DIFF: the worker failed on {tree}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def main() -> int:
    work = json.dumps(jobs())
    with tempfile.TemporaryDirectory() as parent:
        archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        before = answers(Path(parent), work)
    after = answers(ROOT, work)
    for i, (old, new) in enumerate(zip(before, after)):
        if old != new:
            print(f"DIFF: line {i + 1}\n  HEAD:         {old[:200]}\n"
                  f"  working tree: {new[:200]}")
            return 1
    if len(before) != len(after):
        print(f"DIFF: HEAD wrote {len(before)} lines, the working tree {len(after)}")
        return 1
    queries = sum(line.startswith("?- ") for line in after)
    print(f"{queries} queries, {len(after)} lines: no difference from HEAD")
    return 0


if __name__ == "__main__":
    sys.exit(main())

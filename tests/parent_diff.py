"""Compare the working tree's answers with those of ``HEAD``, byte for byte.

    python tests/parent_diff.py

exports ``HEAD`` with ``git archive`` into a temporary directory and runs
the same queries on that tree and on the working tree, each in a child
process that has only that tree's ``src`` on its path.  The queries are
every corpus ``.queries`` file against its program, the ``det`` benchmark
program's ``nrev`` of lengths 0 to 60 and ``count(0,N)`` queries, and the
goal sweep's first 5,000 seeded goals, run one engine per sweep block as
the sweep runs them, and clause variables whose goal terms are run as
goals, some of them passed to call/1 as data.  A block of reader inputs, most of them malformed
(the error texts of ``tests/test_reader.py`` and ``tests/test_dcg.py``,
missing final ``.``, comment-only tails, text after a query), is read with
``read_program`` or ``read_query`` on both trees, and each prints its
clause count or its error's class and message, line and column included;
each program text is also consulted on a fresh ``Engine``, which prints
its clause count or its error, so a refusal that moves from the reader to
the consult's clause check shows as a changed message.  Each corpus
program and the oracle sweep's first 500 seed programs are transpiled on
both trees, and the ``--transpile`` text of each is compared line by line,
so a transpiler change shows its text outside the golden files too.
The rendered answers are compared with their ``_G``
serials, so a change that renames a clause's cells in another order shows
here even where the oracle, whose two sides share the engine, agrees.
Each query's outcome, its answers and the error that ended it, is paired
with the outcome of the same query on ``HEAD``, so a query whose answer
count changes does not shift the rest of its job.  On any difference it
prints, for each job that differs, ``DIFF:``, how many of its queries'
outcomes differ, raw and once each outcome's ``_G`` serials are
renumbered by first appearance (as the oracle's ``normalize_solution``
does), and the first 5 of them, each from its first differing line, then
the totals, and exits 1.
Run it before committing a change to the engine; it is not part of the
tier-1 suite.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402  (perfbench/gen.py: the det program)
import goal_sweep  # noqa: E402  (this script's own directory)
import oracle_sweep  # noqa: E402
from entangle_pl import corpus_dir  # noqa: E402
from entangle_pl.oracle import read_queries  # noqa: E402

SWEEP_SEEDS = range(5_000)
TRANSPILED_SEEDS = range(500)

# (reader, allow_evar, text): texts for read_program ("program") or
# read_query ("query"), each read on its own store
READS = [
    ("program", True, text) for text in (
        # errors and positions from the reader and DCG tests
        "% line comment\na /* block\ncomment */ b.\n", "'bad\natom'.",
        "~foo.", "a.b.", "a :-\n  'unterminated.", "x /* open", "p(\u0663).",
        "'a\\q'.", "p(.\nq.\nr $.\n", "p.\nq.\nr $.\n", "a. b. c $.",
        "(a,b) :- c.", "(a ; b).", "3 :- a.", "X :- a.", "\\+(a) :- b.",
        "[] :- a.", "X --> [a].", "3 --> [a].", "(a,b) --> [c].",
        "a.\n'{}'(x) --> -.", "a.\n; --> -.", "a.\n:- --> -.",
        "f({a}).", "f(X) :- X = {a}.", "g --> {a}, [b].",
        "p(L) :- phrase(({true}, [a]), L).", ";(a) :- true.",
        # a missing final '.'
        "a. b", "a. b(X) :- c(X)", "p", "a. b(\n", "a. b. c",
        # comment-only and layout-only tails, and texts with no clause
        "a. % c", "a. % c\n", "a. /* c */", "a. /* c */ % d\n  \n",
        "a.\n\n\n", "a. /* open", "a. /* c */ $", "", "  \n", "% only\n",
        "/* only */", "/* open",
    )
] + [("program", False, text) for text in ("~X.", "a. ~X.", "a. % ~X\n")] + [
    ("query", True, text) for text in (
        "a = b = c", "- a", "f (a)", "1 '+' 2", "a(1). b(2).", "a(X), b(Y)",
        # text after a query
        "a. b. $", "a. $", "a. b", "a.", "a. ", "a. % c", "a. /* c */",
        "a. /* c */ b", "a. /* open", "a. ~x", "a .b", "", "  ", "% c\n",
        "a(", "a. .",
    )
]

# Clause variables whose goal terms are run: at a goal position of the
# clause, or as data through call/1, passed literally or through a variable.
GOALS_AS_DATA = """
m(1). m(2).
mk(X, (m(_), X)). mk2(f(X), (m(_), X)). mkc(X, (X ; true)).
w(X, G) :- G = (m(_), X).
p(X) :- X. p(_). r(X) :- (X ; true). s(f(X)) :- X. s(_).
"""
DATA_GOALS = ["!", "(m(Y), !)", "2", "true", "fail", "(true -> fail)",
              "(m(Y) -> !)", "(! ; true)", "V", "call(!)"]
DATA_QUERIES = ["mk(A, G), call(G).", "X = A, mk(X, G), call(G).",
                "mk2(f(A), G), call(G).", "w(A, G), call(G).", "mkc(A, G), call(G).",
                "p(A).", "r(A).", "s(f(A)).", "findall(Y-G, (mk(A, G), call(G), m(Y)), L)."]

# Runs in a child process: reads the jobs as JSON from standard input, and
# writes each read's outcome and each program's transpiled text, then each
# query, its answers and the error that ended it, if any.
WORKER = """
import json, sys
from entangle_pl import Engine, transpile
from entangle_pl.kernel import Store
from entangle_pl.reader import read_program, read_query
for job in json.load(sys.stdin):
    print("== " + job["name"])
    for reader, allow_evar, text in job.get("reads", ()):
        print(f"read {reader} {allow_evar} {text!r}")
        try:
            if reader == "program":
                print(len(read_program(text, Store(), allow_evar)), "clauses")
            else:
                read_query(text, Store(), allow_evar)
                print("a query")
        except Exception as e:
            print(f"! {type(e).__name__}: {e}")
        if reader == "program":
            try:
                pairs = Engine(allow_evars=allow_evar).consult_text(text)
                print(f"consult: {len(pairs)} clauses")
            except Exception as e:
                print(f"consult ! {type(e).__name__}: {e}")
    for label, text in job.get("transpiles", ()):
        print("transpile " + label)
        try:
            print(transpile(text).text, end="")
        except Exception as e:
            print(f"! {type(e).__name__}: {e}")
    if "program" not in job:
        continue
    engine = Engine(**job["options"])
    try:
        engine.consult_text(job["program"])
    except Exception as e:
        print(f"! {type(e).__name__}: {e}")
        continue
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
    corpus = sorted(corpus_dir().glob("*.pl"))
    found = [{"name": "reader", "reads": READS}, {
        "name": "transpiled text",
        "transpiles": [(p.name, p.read_text(encoding="utf-8")) for p in corpus]
        + [(f"oracle sweep seed {seed}", oracle_sweep.program(seed)[0])
           for seed in TRANSPILED_SEEDS],
    }]
    for program in corpus:
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
    found.append({"name": "goals as data", "options": {}, "limit": 20,
                  "program": GOALS_AS_DATA, "queries": [
                      template.replace("A", arg)
                      for template in DATA_QUERIES for arg in DATA_GOALS]})
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


def by_query(lines: list) -> dict:
    """The worker's output lines by job name, then by query: each ``?- ``,
    ``read`` or ``transpile`` line, with the number of times it came before in its job,
    keys the lines that follow it, and ``("", 0)`` keys what the job
    prints before its first query."""
    jobs = {}
    for line in lines:
        if line.startswith("== "):
            job = jobs[line[3:]] = {}
            seen = Counter()
            outcome = job[("", 0)] = []
        elif line.startswith(("?- ", "read ", "transpile ")):
            outcome = job[(line, seen[line])] = []
            seen[line] += 1
        else:
            outcome.append(line)
    return jobs


def renumbered(outcome: list) -> list:
    """``outcome``'s lines with their ``_G`` serials numbered by first
    appearance in all of them."""
    mapping = {}
    return [re.sub(r"_G\d+", lambda m: mapping.setdefault(m.group(0), f"_G{len(mapping)}"),
                   line) for line in outcome]


SHOWN = 5  # differing queries printed per job


def first_difference(a, b) -> int:
    """The index of the first line where two outcomes differ."""
    if a is None or b is None:
        return 0
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def shown(outcome, start: int) -> str:
    if outcome is None:
        return "(none)"
    return (f"(from line {start + 1}) " if start else "") + " | ".join(outcome[start:])[:200]


def main() -> int:
    work = json.dumps(jobs())
    with tempfile.TemporaryDirectory() as parent:
        archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        before = answers(Path(parent), work)
    after = answers(ROOT, work)
    old_jobs = by_query(before)
    differing = still = 0
    for name, job in by_query(after).items():
        old = old_jobs[name]
        rows = [(key, old.get(key), outcome) for key, outcome in job.items()
                if old.get(key) != outcome]
        rows += [(key, outcome, None) for key, outcome in old.items() if key not in job]
        if not rows:
            continue
        renamed = sum(a is None or b is None or renumbered(a) != renumbered(b)
                      for _, a, b in rows)
        print(f"DIFF: {name}: {len(rows)} of {len(job) - 1} queries differ, "
              f"{renamed} after renumbering")
        for (line, _), a, b in rows[:SHOWN]:
            start = first_difference(a, b)
            print(f"  {line or '(before the first query)'}\n"
                  f"    HEAD:         {shown(a, start)}\n"
                  f"    working tree: {shown(b, start)}")
        if len(rows) > SHOWN:
            print(f"  and {len(rows) - SHOWN} more")
        differing += len(rows)
        still += renamed
    if differing:
        print(f"DIFF: {differing} queries differ; {still} still differ once _G serials "
              "are renumbered by first appearance")
        return 1
    queries = sum(line.startswith("?- ") for line in after)
    reads = sum(line.startswith("read ") for line in after)
    texts = sum(line.startswith("transpile ") for line in after)
    print(f"{reads} reads, {texts} transpiled texts, {queries} queries, {len(after)} lines: "
          "no difference from HEAD")
    return 0


if __name__ == "__main__":
    sys.exit(main())

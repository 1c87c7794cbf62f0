"""Compare the working tree's answers with those of ``HEAD``, byte for byte.

    python tests/parent_diff.py

exports ``HEAD`` with ``git archive`` into a temporary directory and runs
the same queries on that tree and on the working tree, each in a child
process that has only that tree's ``src`` on its path.  The queries are
every corpus ``.queries`` file against its program, the ``det`` benchmark
program's ``nrev`` of lengths 0 to 60 and ``count(0,N)`` queries, and the
goal sweep's first 5,000 seeded goals, run one engine per sweep block as
the sweep runs them, and clause variables whose goal terms are run as
goals, some of them passed to call/1 as data, and clause heads that a
goal makes cyclic or whose bindings meet one another, or that hold no
variable, with and without the occurs check, so a clause-try change that
reorders bindings or matches a head differently shows, and a program of
300 predicates of a few shared clause structures and names of their own,
so a name a shared factory takes from the wrong clause shows, and
queries with consults between their answers, so a stale index entry shows.
A block of reader inputs, most of them malformed
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
the totals, and exits 1.  Outside a git checkout it says so and exits 2.
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

# Heads whose answers depend on the order of their bindings: each query
# makes a head cyclic, or binds a goal cell that a write-mode compound of
# the same head then binds through.  Then heads with no variable: facts
# with ~Name cells and shared ground subterms, atom heads, and '1' against
# 1, through the index and without it.
HEADS = """
p(X, f(X)). q([H|T], H). r(f(X), X). s(A, [A|_]). k(g(A, B), B, A).
p(f(Z), W, W). t(f(X), g(X), X). u(X, Y, f(X, Y), Y).
fact(~T, f(g(b), [1, 2]), k). fact(~U, f(g(c), []), '1'). fact(1, ~T, 1).
go. stop :- fail. key(1). key('1'). key(a, 1). key(a, '1'). one('1').
"""
HEAD_QUERIES = ["p(Y, Y).", "q(Z, Z).", "r(W, W).", "s(V, V).", "p(f(Y), Y).",
                "X = X, k(Y, X, Y).", "k(Y, X, Y).", "p(Y, X, Y).", "X = X, p(Y, X, Y).",
                "p(Y, f(1), Y).", "p(Y, X, X).", "t(A, B, A).", "t(A, A, B).",
                "u(A, B, A, B).", "u(A, B, B, A).", "X = X, u(A, X, A, X).",
                "fact(A, B, C).", "fact(A, f(B, C), D).", "fact(X, Y, '1').",
                "fact(1, f(g(b), [1, 2]), k), ~T == 1.", "~T = 2, fact(2, B, C).",
                "fact(A, A, B).", "X = f(X), fact(A, X, B).", "fact(A, B, A).",
                "go.", "stop.", "go(X).", "key(1).", "key('1').", "key(X).", "key(a, 1).",
                "key(a, '1').", "key(A, B).", "one(1).", "one('1').", "one(X)."]

# A few hundred predicates of a few clause structures, each with names of
# its own, so a name that a factory shared by clauses of one structure
# takes from the wrong clause shows: heads matched in read mode (a goal
# compound) and in write mode (an unbound goal argument), nested head
# compounds, ground head subterms shared as constants, and bodies that
# build compounds.  Each predicate is also called with the next one's names.
# Each argument of ``h<i>`` and ``b<i>`` is a variable in some clause, so
# neither is indexed and every head code meets every goal; ``d<i>`` is.
MANY_NAMES = 300


def many_names() -> tuple:
    """The many-names program and its queries."""
    program, queries = [], []
    for i in range(MANY_NAMES):
        j = (i + 1) % MANY_NAMES
        program += [f"h{i}(f{i}(X, g{i}(Y)), Y, X) :- b{i}(X, k{i}(Y)).",
                    f"h{i}(f{i}(a, k), g{i}(s{i}(1)), z{i}).",
                    f"h{i}(e{i}(X), [X|T], e{i}(T)) :- T = n{i}(X). h{i}(X, Y, o{i}(X, Y)).",
                    f"b{i}(X, k{i}(X)). b{i}(c{i}, k{i}(w{i})). b{i}(m{i}(X, Y), k{i}(p{i}(Y, X))).",
                    f"b{i}(Y, Y).",
                    f"d{i}(u{i}). d{i}(v{i}(1)) :- b{i}(c{i}, K), b{i}(m{i}(1, K), L)."]
        queries += [f"h{i}(f{i}(A, g{i}(B)), C, D).", f"h{i}(T, U, V).",
                    f"h{i}(f{i}(A, B), g{i}(C), D).", f"h{i}(e{i}(1), U, V).",
                    f"h{i}(f{j}(A, g{j}(B)), C, D).", f"h{i}(e{j}(1), U, V).",
                    f"b{i}(c{i}, K).", f"b{i}(X, k{j}(Y)).", f"b{i}(m{i}(A, B), K).",
                    f"d{i}(X).", f"d{i}(v{j}(1)).", f"d{i}(u{j})."]
    return "\n".join(program), queries


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
    for opened, added in job.get("between", ()):
        # one answer, a consult, then the rest of the answers
        print("?- " + opened)
        solutions = engine.query(opened)
        try:
            print(str(next(solutions)))
            engine.consult_text(added)
            print("consulted " + added)
            for solution in solutions:
                print(str(solution))
        except Exception as e:
            print(f"! {type(e).__name__}: {e}")
        finally:
            solutions.close()
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


# Consults between the answers of one query: each round opens a query on
# indexed predicates, takes one answer, consults clauses for one of them and
# for an unrelated predicate, and drains the query; the queries after the
# rounds call them all again.  A stale index entry, or a suspended call that
# sees a clause consulted after it started, shows as a difference.
BETWEEN = """
col(red, 1). col(green, 2). col(blue, 3). col(red, 4). col(f(x), 5). col(f(y, z), 6).
shade(dark, black). shade(light, white). shade(dark, grey).
"""
BETWEEN_ROUNDS = [
    ("shade(dark, S), col(red, N).", "col(red, 7). col(f(w), 8). other(a). other(b)."),
    ("col(red, N), shade(L, white).", "shade(dark, navy). other2(c)."),
    ("col(K, N), other(O).", "col(_, 9). other(c)."),
    ("col(red, N), shade(dark, S).", "other3(d). other3(e)."),
]
BETWEEN_QUERIES = ["col(red, N).", "col(green, N).", "col(f(A), N).", "col(f(A, B), N).",
                   "col(K, 9).", "col(K, N).", "shade(dark, S).", "shade(L, white).",
                   "other(O).", "other2(O).", "other3(O)."]


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
    for occurs_check in (False, True):
        found.append({"name": f"heads, occurs check {occurs_check}",
                      "options": {"occurs_check": occurs_check}, "limit": 20,
                      "program": HEADS, "queries": HEAD_QUERIES})
    found.append({"name": "consults between answers", "options": {}, "limit": 20,
                  "program": BETWEEN, "between": BETWEEN_ROUNDS,
                  "queries": BETWEEN_QUERIES})
    program, queries = many_names()
    found.append({"name": "many names", "options": {}, "limit": 20,
                  "program": program, "queries": queries})
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
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, capture_output=True)
    if archive.returncode:
        print("parent_diff.py needs a git checkout: it compares the tree with HEAD",
              file=sys.stderr)
        return 2
    work = json.dumps(jobs())
    with tempfile.TemporaryDirectory() as parent:
        subprocess.run(["tar", "-x", "-C", parent], input=archive.stdout, check=True)
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

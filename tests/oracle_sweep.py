"""A seeded sweep of small ``~Name`` programs through the oracle.

Each seed writes one program and a few queries, and ``oracle.check_program``
runs each query natively and on the transpiled program and compares the
answers (McKeeman's differential testing).  A program holds the facts
``m(1). m(2). e(~A, ~B).`` and a chain of predicates ``p<i>/1`` and grammar
nonterminals ``g<i>//1``; a body nests ``,``, ``;``, ``->``, ``\\+``,
``!``, call/1 and findall/3 around calls, unifications and type tests over
two ``~Name`` cells, and a clause body calls phrase/2,3, some of them with
a ``!`` in the grammar.  Recursion is well-founded: a predicate or
nonterminal calls only lower-numbered ones, so every query ends.  Two
classes the two implementations are known to answer differently are left
out by construction: no ``~Name`` reaches a findall/3 template (each
template is a fresh variable that only ``m/1`` binds); and copy_term/2 is
not used.  A second class of queries, from a second generator keyed on
the seed, injects generated goals into each program, phrase/2,3 calls
among them: through a ``~Name`` cell (``gate :- ~G.``), through a clause
variable (``via(X) :- X.``), bound before call/1 starts, and as data
(``wrap(X, (m(_), X)).``).  A leaf of an injected goal sometimes calls
m/1 or a program predicate with one argument too many, which is
undefined natively, and one argument short of the threaded predicate on
the transpiled side.  Both engines run with the occurs
check, so no query builds a cyclic term, and with a frame budget.  Each
program's ``--transpile`` text is also read back: the oracle runs the
rewritten clauses as terms, so only this shows that the text the writer
makes reads as the same clauses.

    PYTHONPATH=src python tests/oracle_sweep.py

runs seeds 0 to 4,999, each class in turn, prints a tally and exits 1 on
any ``MISMATCH`` or ``READ-BACK`` line, or when a class's tally or number
of native answers differs from the pinned ``EXPECTED`` or
``EXPECTED_INJECTED``, so a change to either side that changes any
outcome fails it too;
``tests/test_oracle_sweep.py`` runs the first ``BLOCK`` seeds against
pinned figures of its own.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter

from entangle_pl.engine import check_clauses
from entangle_pl.errors import PrologError
from entangle_pl.kernel import Atom, Store, Struct, Var, deref
from entangle_pl.oracle import check_program
from entangle_pl.reader import read_program
from entangle_pl.transpiler import rewrite_program, transpile

SEEDS = range(5_000)
BLOCK = 1_000  # the seeds the tier-1 test runs
OPTIONS = {"occurs_check": True, "max_frames": 20_000}
LIMIT = 20  # answers compared per query
# The outcomes of all of SEEDS' queries, and the native answers they gave.
EXPECTED = ({"answered": 3939, "failed": 6078}, 6692)
# The same for the injected goals of SEEDS.
EXPECTED_INJECTED = ({"answered": 9378, "failed": 5622}, 18307)

_VARS = ("X", "Y", "Z")
_TERMS = _VARS + ("~A", "~B", "1", "2", "a", "f(X)", "f(Y)")
_LISTS = ("[]", "[a]", "[b]", "[a,b]", "[a,a]") + _VARS


class _Writer:
    """The text of one seed's program: each predicate and nonterminal is
    numbered, and a body calls only lower numbers."""

    def __init__(self, rng):
        self.rng = rng
        self.fresh = 0
        self.longer = False  # whether a leaf may call one argument too many

    def term(self):
        return self.rng.choice(_TERMS)

    def call(self, below):
        """A call of a predicate or of a nonterminal through phrase, below
        number ``below``, or of m/1."""
        rng = self.rng
        k = rng.randrange(below) if below else None
        if k is None or rng.random() < 0.25:
            return f"m({rng.choice(_VARS)})"
        if self.kinds[k] == "p":
            return f"p{k}({self.term()})"
        grammar = f"g{k}({self.term()})"
        if rng.random() < 0.6:  # a ! in the grammar, cutting only the grammar
            grammar = rng.choice(("({0}, !)", "(!, {0})", "({0}, ! ; [b])"))
            grammar = grammar.format(f"g{k}({self.term()})")
        if rng.random() < 0.5:
            return f"phrase({grammar}, {rng.choice(_LISTS)})"
        return f"phrase({grammar}, {rng.choice(_LISTS)}, {rng.choice(_LISTS)})"

    def longer_call(self, below):
        """A call of m/1, or of a predicate or nonterminal below number
        ``below``, with one argument more than it has: undefined natively,
        and on the transpiled side the key of the threaded one."""
        rng = self.rng
        k = rng.randrange(below + 1)
        if k == below:
            return f"m({rng.choice(_VARS)}, {rng.choice(_VARS)})"
        n = 2 if self.kinds[k] == "p" else 4
        return f"{self.kinds[k]}{k}({', '.join(self.term() for _ in range(n))})"

    def leaf(self, below):
        rng = self.rng
        if self.longer and rng.random() < 0.05:
            return self.longer_call(below)
        r = rng.random()
        if r < 0.15:
            return rng.choice(("true", "fail", "!"))
        if r < 0.35:
            return f"{self.term()} = {self.term()}"
        if r < 0.45:
            return f"{rng.choice(('var', 'nonvar'))}({self.term()})"
        if r < 0.5:
            return f"{self.term()} == {self.term()}"
        if r < 0.55:
            return f"e({self.term()}, {self.term()})"
        return self.call(below)

    def goal(self, below, depth):
        rng = self.rng
        if depth == 0 or rng.random() < 0.4:
            return self.leaf(below)
        form = rng.randrange(8)
        g = [self.goal(below, depth - 1) for _ in range(3)]
        if form < 2:
            return f"({g[0]}, {g[1]})"
        if form == 2:
            return f"({g[0]} ; {g[1]})"
        if form == 3:
            return f"({g[0]} -> {g[1]})"
        if form == 4:
            return f"({g[0]} -> {g[1]} ; {g[2]})"
        if form == 5:
            return f"\\+ {g[0]}"
        if form == 6:
            return f"call(({g[0]}))"
        self.fresh += 1
        template = f"F{self.fresh}"
        return f"findall({template}, (m({template}), {g[0]}), {rng.choice(_VARS)})"

    def body(self, k, depth):
        """A clause body of number ``k``: at most three goals."""
        goals = [self.goal(k, depth) for _ in range(self.rng.randint(1, 3))]
        return ", ".join(goals)

    def grammar_body(self, k):
        """A grammar rule body of nonterminal ``k``."""
        rng = self.rng
        items = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.3:
                items.append(rng.choice(("[a]", "[b]", "[]", "!")))
            elif r < 0.5 and k:
                j = rng.randrange(k)
                if self.kinds[j] == "g":
                    items.append(f"g{j}({self.term()})")
                else:
                    items.append(f"{{{self.call(k)}}}")
            elif r < 0.7:
                items.append(f"{{{self.goal(k, 1)}}}")
            elif r < 0.8:
                items.append(f"([a] ; [b], {{{self.leaf(k)}}})")
            elif r < 0.9:
                items.append(f"({{{self.leaf(k)}}} -> [a] ; [b])")
            else:
                items.append(f"\\+ [{rng.choice(('a', 'b'))}]")
        return ", ".join(items)

    def program(self):
        rng = self.rng
        n = rng.randint(2, 5)
        self.kinds = ["p"] + [rng.choice("pg") for _ in range(n - 1)]
        lines = ["m(1).", "m(2).", "e(~A, ~B)."]
        for k, kind in enumerate(self.kinds):
            for _ in range(rng.randint(1, 2)):
                if kind == "g":
                    lines.append(f"g{k}({self.term()}) --> {self.grammar_body(k)}.")
                elif rng.random() < 0.3:
                    lines.append(f"p{k}({self.term()}).")
                else:
                    lines.append(f"p{k}({self.term()}) :- {self.body(k, 2)}.")
        queries = [f"{self.body(n, 1)}." for _ in range(rng.randint(1, 3))]
        return "\n".join(lines) + "\n", queries


# The four ways an injected goal runs: through a ~Name cell, through a
# clause variable, bound before call/1 starts, and as data.
_INJECTED = "gate :- ~G.\nvia(X) :- X.\nwrap(X, (m(_), X)).\n"
_WAYS = ("~G = ({0}), gate.", "via(({0})).", "I = ({0}), call((m(J), I)).",
         "wrap(({0}), W), call(W).")


def program(seed: int, injected: bool = False):
    """The program text and the queries of one seed; or, ``injected``,
    that program with the clauses that run a goal given as data, and three
    queries that each run a generated goal one of ``_WAYS``, drawn from a
    second generator keyed on the seed."""
    writer = _Writer(random.Random(seed))
    text, queries = writer.program()
    if not injected:
        return text, queries
    rng = writer.rng = random.Random(f"injected {seed}")
    writer.longer = True
    below = len(writer.kinds)
    return text + _INJECTED, [rng.choice(_WAYS).format(writer.goal(below, 2)) for _ in range(3)]


def is_variant(a, b) -> bool:
    """Whether two terms are equal up to a one-to-one renaming of their
    variables."""
    forward, back = {}, {}
    todo = [(a, b)]
    while todo:
        x, y = map(deref, todo.pop())
        if isinstance(x, Var) and isinstance(y, Var):
            if forward.setdefault(x, y) is not y or back.setdefault(y, x) is not x:
                return False
        elif isinstance(x, Struct) and isinstance(y, Struct):
            if x.name != y.name or len(x.args) != len(y.args):
                return False
            todo.extend(zip(x.args, y.args))
        elif not (
            isinstance(x, Atom) and isinstance(y, Atom) and x == y
            or type(x) is int and type(y) is int and x == y
        ):
            return False
    return True


def read_back(text: str) -> str:
    """Read back ``text``'s ``--transpile`` output; what differs from the
    rewritten clauses the oracle runs, which ``check_program`` makes the
    same way, or ``""``.  A clause differs unless it reads back as a
    variant of the one the oracle runs."""
    store = Store()
    pairs = check_clauses(read_program(text, store))
    _, ran = rewrite_program(pairs, list(store.evars), store)
    try:
        back = read_program(transpile(text).text, Store(), allow_evar=False)
    except PrologError as exc:
        return f"{type(exc).__name__}: {exc}"
    if len(back) != len(ran):
        return f"{len(back)} clauses read back, not {len(ran)}"
    for i, (clause, clause_ran) in enumerate(zip(back, ran)):
        if not is_variant(Struct("-", clause), Struct("-", clause_ran)):
            return f"clause {i + 1} reads back as another clause"
    return ""


def sweep(seeds, injected: bool = False):
    """Check the program of each seed, or its injected goals, and read
    back its transpiled text.  Returns a tally of the native outcomes
    (``answered`` or ``failed``), the number of native answers and the
    mismatches, as ``(seed, report line)`` pairs."""
    tally = Counter()
    total = 0
    mismatches = []
    for seed in seeds:
        text, queries = program(seed, injected)
        for result in check_program(text, queries, f"seed {seed}", LIMIT, OPTIONS):
            tally["answered" if result.native else "failed"] += 1
            total += result.native
            if not result.ok:
                mismatches.append((seed, str(result)))
        differs = read_back(text)
        if differs:
            mismatches.append((seed, f"READ-BACK seed {seed}: {differs}"))
    return tally, total, mismatches


def main() -> int:
    failed = False
    for injected, expected in ((False, EXPECTED), (True, EXPECTED_INJECTED)):
        started = time.perf_counter()
        tally, total, mismatches = sweep(SEEDS, injected)
        seconds = time.perf_counter() - started
        print(f"{len(SEEDS)} programs{', injected goals,' if injected else ''} in "
              f"{seconds:.1f} s: " + ", ".join(
                  f"{kind} {n}" for kind, n in tally.most_common()) + f"; {total} answers")
        for seed, line in mismatches[:20]:
            print(line)
            print("  " + program(seed, injected)[0].replace("\n", "\n  ").rstrip())
        print(f"{len(mismatches)} mismatch(es)")
        if (dict(tally), total) != expected:
            print(f"DRIFT: expected {expected[0]}; {expected[1]} answers")
            failed = True
        failed |= bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""A sweep of the reader's flat-fact path against the tokenizer and the
parser.

``read_program`` reads a flat fact, such as ``fact(12,v3,X,~T)``, with one
match of ``reader._FACT_RE`` and hands every other clause to ``tokenize``
and ``_parse``; ``read_query`` reads a flat query, one followed by nothing
but blanks, the same way.  Each seeded text below is read twice, plainly
and with ``_FACT_RE`` swapped for a pattern that never matches, so that
every clause goes the general way; both with ``~`` on and with ``~`` off.
The texts mix flat facts of arity 0 to 5 (repeated variables, ``_``,
``~Name`` cells, leading layout) with near misses the fact path must leave
alone (layout inside a fact, ``12ab``, ``f(a).b``, ``f()``, a quoted or
negative or compound argument, a fact that ends the text without its
``.``, ...), rules, DCG rules and comments.

The two reads must both raise the same error text, or both return the
same clauses: the same terms, each cell with the same class, serial and
name, the same ``store.allocated`` and the same new ``~Name`` cells.  The
store has ``~A`` interned before each read, so a ``~Name`` is looked up
in the store and in the read's own table.

Each clause of a text, with its leading layout and its comment, is also
read as a query the same two ways, and after each text one of
``QUERY_NEAR_MISSES`` (a form feed or a no-break space after the ``.``,
two queries, no ``.``, a comment after it, ...).  Both reads must raise
the same error text, or give the same goal, the same varmap (its names in
order, each cell's class, serial and name) and the same
``store.allocated``.

    PYTHONPATH=src python tests/read_sweep.py

reads the texts of seeds 0 to 19,999 and their clauses as queries, prints
two tallies and exits 1 on any fault, or when a tally differs from the
pinned ``EXPECTED`` or ``EXPECTED_QUERIES``; ``tests/test_read_sweep.py``
reads the corpus, the prelude and the first ``BLOCK`` seeds.
"""

from __future__ import annotations

import random
import re
import sys
import time
from collections import Counter
from contextlib import contextmanager

from entangle_pl import corpus_dir, reader
from entangle_pl.engine import prelude_text
from entangle_pl.errors import PrologError
from entangle_pl.kernel import Store, Struct, Var

SEEDS = range(20_000)
BLOCK = 2_000
# the full range's tally, both modes together: texts read, the clauses of
# the texts read whole, the texts that raised, and the clauses the fact
# path read (each one a tokenizer call fewer)
EXPECTED = {"texts": 40_000, "clauses": 97_868, "errors": 17_875, "fact_path": 81_735}
# the same texts' clauses and near misses read as queries, both modes
# together: queries read, those that raised, and those the fact path read
EXPECTED_QUERIES = {"queries": 262_432, "query_errors": 61_343, "query_fact_path": 129_630}

NEVER = re.compile(r"(?!)")

# queries read after the texts' own clauses, one a text in turn: the
# reader refuses the first four, whatever the fact regex takes; the last
# two hold an integer as long as the fact regex takes, and one digit longer
QUERY_NEAR_MISSES = [
    "p(X). \f", "p(X).\n\u00a0", "a. b.", "p(" + "9" * 5000 + ").", "p(X)", "p(X).%c",
    "p(~B).", "p(~A).", "p(_,_).", "p(X,Y,X).", " p(X,~B,_,~A,X). \n", "p(X).\t\r\n",
    "p(X," + "9" * 640 + ").", "p(X," + "9" * 641 + ").",
]

NAMES = ["f", "p", "fact", "link", "is", "mod", "a1_B"]
ARGS = ["0", "7", "007", "a", "v42", "is", "X", "Y", "X", "_", "_", "_1", "_Z",
        "~A", "~B", "~C_1"]
BLANKS = [" ", "\n", "  \t", "\r\n", "\n\n"]
NEAR_MISSES = [
    "f(a, b).", "f( a).", "f(a ).", "f(12ab).", "12ab.", "f(a).b", "f().",
    "f(a,).", "F(a).", "f (a).", "f(-1).", "f('a').", "f([a]).", "f(g(a)).",
    "f(a).%c\n", "f(a) .", "'f'(a).", "f(a)./*c*/", "f(~a).", "f(a)..",
    "f(a),g.", "f(a)\n.", "f(_)%c\n.", "f(+).", "f({a}).", "f(\"s\").",
]
OTHERS = [
    "p(X) :- f(X, Y), Y > 1.", "q(~A, ~B) :- p(~B).", "s --> [a], s.",
    "s --> [].", "t(X) --> {X = ~C_1}, [X].", "% a comment\n", "/* a block */",
    "r :- \\+ p(_).", "u(X, X).", "v(~B) :- true.", "w(f(~A), [X|_]).",
]


def fact(rng, args) -> str:
    """A flat fact of arity 0 to 5 over ``args``, without its ``.``."""
    name = rng.choice(NAMES)
    arity = rng.randrange(6)
    if arity == 0:
        return name
    return f"{name}({','.join(rng.choice(args) for _ in range(arity))})"


def clauses(seed: int) -> list:
    """The seeded text's clauses, 1 to 10, nearly all after some layout,
    each with the comment that follows it; half the texts have no
    ``~Name``, so read whole with ``~`` off too."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        args, others = ARGS, OTHERS
    else:
        args = [a for a in ARGS if "~" not in a]
        others = [o for o in OTHERS if "~" not in o]
    parts = []
    for k in range(rng.randint(1, 10)):
        # a clause right after the last one's "." makes that "." no end
        part = "" if rng.random() < (0.5 if k == 0 else 0.01) else rng.choice(BLANKS)
        roll = rng.random()
        if roll < 0.6:
            part += fact(rng, args) + "."
        elif roll < 0.7:
            part += rng.choice(NEAR_MISSES)
        else:
            part += rng.choice(others)
        if rng.random() < 0.05:
            part += rng.choice(["%c\n", " %c\n", " /*c*/", "/*c*/"])
        parts.append(part)
    if rng.random() < 0.05:
        parts.append(rng.choice(BLANKS) + fact(rng, args))  # no final end
    return parts


def text(seed: int) -> str:
    """The seeded text, its clauses one after another."""
    return "".join(clauses(seed))


def _data(term):
    """A term as plain data, a cell as its class, serial and name."""
    if isinstance(term, Var):
        return (type(term).__name__, term.serial, term.name)
    if isinstance(term, Struct):
        return (term.name, tuple(_data(arg) for arg in term.args))
    return term


def _read(text: str, allow_evar: bool):
    """What reading ``text`` gives: its clauses, the store's count of
    serials and the new ``~Name`` cells, or the error raised."""
    store = Store()
    store.evar("~A")
    new = {}
    try:
        clauses = reader.read_program(text, store, allow_evar, new)
    except PrologError as err:
        return (type(err).__name__, str(err))
    return ([(_data(head), _data(body)) for head, body in clauses],
            store.allocated, {name: _data(cell) for name, cell in new.items()})


@contextmanager
def _tokenizer_calls(fact_re):
    """Read with ``fact_re`` as the fact pattern, counting the tokenizer's
    calls into the list yielded."""
    tokenize = reader.tokenize
    saved = reader._FACT_RE
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return tokenize(*args)

    reader.tokenize, reader._FACT_RE = counted, fact_re
    try:
        yield calls
    finally:
        reader.tokenize, reader._FACT_RE = tokenize, saved


def check_text(text: str, tally, faults, label: str):
    """Read ``text`` with the fact path and without, ``~`` on and off."""
    for allow_evar in (True, False):
        with _tokenizer_calls(reader._FACT_RE) as plain_calls:
            plain = _read(text, allow_evar)
        with _tokenizer_calls(NEVER) as general_calls:
            general = _read(text, allow_evar)
        tally["texts"] += 1
        if type(plain[0]) is str:
            tally["errors"] += 1
        else:
            tally["clauses"] += len(plain[0])
        tally["fact_path"] += general_calls[0] - plain_calls[0]
        if plain != general:
            faults.append(f"{label} (~ {'on' if allow_evar else 'off'}) {text!r}: "
                          f"read {plain!r}, not {general!r}")


def _read_query(text: str, allow_evar: bool):
    """What reading ``text`` as a query gives: its goal, its varmap's names
    in order with their cells, and the store's count of serials; or the
    error raised, as a string."""
    store = Store()
    store.evar("~A")
    try:
        goal, varmap = reader.read_query(text, store, allow_evar)
    except PrologError as err:
        return f"{type(err).__name__}: {err}"
    return (_data(goal), [(name, _data(cell)) for name, cell in varmap.items()],
            store.allocated)


def check_query(text: str, tally, faults, label: str):
    """Read ``text`` as a query with the fact path and without, ``~`` on
    and off."""
    for allow_evar in (True, False):
        with _tokenizer_calls(reader._FACT_RE) as plain_calls:
            plain = _read_query(text, allow_evar)
        with _tokenizer_calls(NEVER):
            general = _read_query(text, allow_evar)
        tally["queries"] += 1
        tally["query_errors"] += type(plain) is str
        tally["query_fact_path"] += plain_calls[0] == 0
        if plain != general:
            faults.append(f"{label} (~ {'on' if allow_evar else 'off'}) {text!r}: "
                          f"read {plain!r}, not {general!r}")


def query_sweep(seeds):
    """Read each clause of the texts of ``seeds`` as a query, and after each
    text the next of ``QUERY_NEAR_MISSES``; returns the tally and the
    faults."""
    tally = Counter()
    faults = []
    for seed in seeds:
        near_miss = QUERY_NEAR_MISSES[seed % len(QUERY_NEAR_MISSES)]
        for k, query in enumerate(clauses(seed) + [near_miss]):
            check_query(query, tally, faults, f"seed {seed} query {k}")
    return tally, faults


def sweep(seeds):
    """Read the texts of ``seeds``; returns the tally and the faults."""
    tally = Counter()
    faults = []
    for seed in seeds:
        check_text(text(seed), tally, faults, f"seed {seed}")
    return tally, faults


def corpus():
    """Read the corpus programs and the prelude; returns the tally and
    the faults."""
    tally = Counter()
    faults = []
    for path in sorted(corpus_dir().glob("*.pl")):
        check_text(path.read_text(encoding="utf-8"), tally, faults, path.name)
    check_text(prelude_text(), tally, faults, "prelude")
    return tally, faults


def main() -> int:
    failed = False
    for label, run, expected in (("texts", sweep, EXPECTED),
                                 ("texts' clauses as queries", query_sweep, EXPECTED_QUERIES)):
        started = time.perf_counter()
        tally, faults = run(SEEDS)
        seconds = time.perf_counter() - started
        print(f"{len(SEEDS)} {label}, ~ on and off, in {seconds:.1f} s: "
              + ", ".join(f"{kind} {n}" for kind, n in sorted(tally.items())))
        for fault in faults[:20]:
            print(f"FAULT {fault}")
        print(f"{len(faults)} fault(s)")
        drift = dict(tally) != expected
        if drift:
            print(f"DRIFT: expected {expected}")
        failed = failed or faults or drift
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

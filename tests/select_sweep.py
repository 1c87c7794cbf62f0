"""A sweep of each predicate's clause selection against a plain
per-position rule.

``engine._selection`` gives a predicate's entry in the engine's index: its
clause list, or a ``select(args)`` closure over one table per indexable
position.  ``candidates`` below is the reference rule: one table per
argument position, made the first time a call has that position bound, and
looked up at the first bound position whose table exists.  For each
predicate of a program, natively read and transpiled, both are asked the
same calls:

- each clause head's arguments, as they are and with each position left
  unbound in turn;
- a call with every argument unbound;
- ``'1'`` and ``1`` at each position, the other arguments unbound;
- each head argument behind a bound ``~Name`` cell, and behind a cell
  bound to that cell, the other arguments unbound.

The two must return the same clause records, compared by identity, in the
same order.  The program's own ``~Name`` cells are bound to an atom while
each entry is made, so a head position that holds one stays unindexable
even when it has a value.

    PYTHONPATH=src python tests/select_sweep.py

checks the programs of ``tests/oracle_sweep.py``'s seeds 0 to 4,999, prints
a tally and exits 1 on any fault, or when the tally differs from the pinned
``EXPECTED``; ``tests/test_select_sweep.py`` checks the corpus, the prelude
and the first ``BLOCK`` seeds.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from entangle_pl import Engine, corpus_dir
from entangle_pl.engine import _selection
from entangle_pl.kernel import Atom, EVar, Struct, Var, deref
from entangle_pl.transpiler import rewrite_program
from oracle_sweep import SEEDS, program

BLOCK = 500
# the full range's tally: predicates whose entry is a select or the clause
# list itself, and the calls asked of them
EXPECTED = {"select": 19_472, "list": 55_582, "calls": 2_329_634}


def _functor_key(t):
    """Principal functor of a non-variable term, as an index key, by exact
    type: an atom or an integer itself, a compound's ``(name, arity)``."""
    kind = type(t)
    if kind is Atom or kind is int:
        return t
    return t.name, len(t.args)


def _arg_table(clauses, pos):
    """Clauses by the principal functor of head argument ``pos``, in source
    order; None when some head has a variable (``~Name`` cells included)
    there."""
    table = {}
    for clause in clauses:
        arg = clause[0].args[pos]
        if isinstance(arg, Var):
            return None
        table.setdefault(_functor_key(arg), []).append(clause)
    return table


def candidates(args, clauses):
    """The reference rule: the clauses a call with ``args`` can match, as
    far as the table of its first bound, indexable argument tells."""
    if len(clauses) == 1:
        return clauses
    for pos, arg in enumerate(args):
        arg = deref(arg)
        if isinstance(arg, Var):
            continue
        table = _arg_table(clauses, pos)
        if table is not None:
            return table.get(_functor_key(arg), ())
    return clauses


def _calls(clauses):
    """The argument tuples each predicate is asked about."""
    heads = [() if type(clause[0]) is Atom else clause[0].args for clause in clauses]
    arity = len(heads[0])
    fresh = tuple(Var(-1) for _ in range(arity))
    calls = [fresh]
    for pos in range(arity):
        for value in (Atom("1"), 1):
            calls.append(fresh[:pos] + (value,) + fresh[pos + 1:])
    for args in heads:
        calls.append(args)
        for pos in range(arity):
            calls.append(args[:pos] + (fresh[pos],) + args[pos + 1:])
            cell = EVar(-1, "~Sweep")
            cell.ref = args[pos]
            chain = Var(-1)  # and a cell bound to that cell
            chain.ref = cell
            calls += [fresh[:pos] + (t,) + fresh[pos + 1:] for t in (cell, chain)]
    return calls


def check_db(db, evars, tally, faults, label):
    """Check every predicate of ``db``, an engine's clause database."""
    for key, clauses in db.items():
        for cell in evars:
            cell.ref = Atom("bound")
        try:
            entry = _selection(clauses)
        finally:
            for cell in evars:
                cell.ref = None
        tally["list" if entry is clauses else "select"] += 1
        for args in _calls(clauses):
            tally["calls"] += 1
            got = entry if entry is clauses else entry(args)
            want = candidates(args, clauses)
            if len(got) != len(want) or any(a is not b for a, b in zip(got, want)):
                call = Struct(key[0], args)
                faults.append(f"{label} {key[0]}/{key[1]}: {call!r} selects "
                              f"{[clauses.index(c) for c in got]}, "
                              f"not {[clauses.index(c) for c in want]}")


def check_text(text, tally, faults, label):
    """Check the predicates of a program text, natively read and
    transpiled."""
    native = Engine(load_prelude=False)
    pairs = native.consult_text(text)
    evars = list(native.store.evars.values())
    check_db(native.db, evars, tally, faults, label)
    transpiled = Engine(allow_evars=False, load_prelude=False)
    _, clauses = rewrite_program(pairs, list(native.store.evars), native.store)
    transpiled._add([[head, body, None] for head, body in clauses])
    check_db(transpiled.db, evars, tally, faults, f"{label} transpiled")


def sweep(seeds):
    """Check the programs of the oracle sweep's ``seeds``; returns the
    tally and the faults."""
    tally = Counter()
    faults = []
    for seed in seeds:
        check_text(program(seed)[0], tally, faults, f"seed {seed}")
    return tally, faults


def corpus():
    """Check the corpus programs and the prelude's clause records, which
    every engine shares; returns the tally and the faults."""
    tally = Counter()
    faults = []
    for path in sorted(corpus_dir().glob("*.pl")):
        check_text(path.read_text(encoding="utf-8"), tally, faults, path.name)
    check_db(Engine().db, [], tally, faults, "prelude")
    return tally, faults


def main() -> int:
    started = time.perf_counter()
    tally, faults = sweep(SEEDS)
    seconds = time.perf_counter() - started
    print(f"{len(SEEDS)} programs, native and transpiled, in {seconds:.1f} s: "
          + ", ".join(f"{kind} {n}" for kind, n in sorted(tally.items())))
    for fault in faults[:20]:
        print(f"FAULT {fault}")
    print(f"{len(faults)} fault(s)")
    drift = dict(tally) != EXPECTED
    if drift:
        print(f"DRIFT: expected {EXPECTED}")
    return 1 if faults or drift else 0


if __name__ == "__main__":
    sys.exit(main())

"""Each predicate's ``select`` returns the clause lists a plain
per-position rule returns.  ``select_sweep.py`` runs the longer sweep."""

from collections import Counter

import select_sweep
from entangle_pl.kernel import Var
from select_sweep import BLOCK, SEEDS, check_text, corpus, sweep


def test_the_corpus_and_the_prelude_select_as_the_reference_rule():
    tally, faults = corpus()
    assert faults == []
    assert dict(tally) == {"select": 23, "list": 62, "calls": 3009}


def test_seeded_programs_select_as_the_reference_rule():
    tally, faults = sweep(SEEDS[:BLOCK])
    assert faults == []
    # pinned, so a change to the programs or to the calls asked shows here
    assert dict(tally) == {"select": 1930, "list": 5546, "calls": 232_206}


def test_predicates_without_arguments_select_as_the_reference_rule():
    # no program above has an atom head; natively each such predicate
    # keeps its clause list, and transpiled it takes one argument
    tally, faults = Counter(), []
    check_text("go. go. stop :- go.", tally, faults, "atom heads")
    assert faults == []
    assert dict(tally) == {"select": 1, "list": 7, "calls": 241}


def test_the_sweep_sees_a_select_that_skips_a_position(monkeypatch):
    # a select that is never shown its first indexable argument sees that
    # argument's key no more
    real = select_sweep._selection

    def skipping(clauses):
        select = real(clauses)
        if select is clauses:
            return select
        first = next(pos for pos in range(len(clauses[0][0].args))
                     if not any(isinstance(c[0].args[pos], Var) for c in clauses))
        return lambda args: select(args[:first] + (Var(-1),) + args[first + 1:])

    monkeypatch.setattr(select_sweep, "_selection", skipping)
    _, faults = sweep(SEEDS[:50])
    assert faults

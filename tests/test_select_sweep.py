"""Each predicate's generated ``select`` returns the clause lists the rule
it replaced returns.  ``select_sweep.py`` runs the longer sweep."""

from collections import Counter

import entangle_pl.engine as engine_module
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
    # a select made for all indexable positions but the first sees a first
    # argument's key no more
    real = engine_module._selector
    monkeypatch.setattr(engine_module, "_selector",
                        lambda positions: lambda clauses, first, *rest:
                        real(positions[1:])(clauses, *rest))
    _, faults = sweep(SEEDS[:50])
    assert faults

"""Seeded random goals: each answers or raises a PrologError, and the
engine is reset after it.  ``goal_sweep.py`` runs the longer sweep."""

from entangle_pl.kernel import EVar, Store
from goal_sweep import BLOCK, SEEDS, sweep


def test_seeded_goals_answer_or_raise_a_prolog_error():
    tally, total, faults = sweep(SEEDS[:BLOCK])
    assert faults == []
    # pinned, so a change to the engine that changes any outcome fails
    # here, not only one that leaves a cell bound
    assert dict(tally) == {
        "failed": 746, "answered": 535, "TypeMismatchError": 392,
        "InstantiationError": 327,
    }
    assert total == 699


def test_the_sweep_sees_a_reset_that_misses_a_query_variable(monkeypatch):
    # a bind that leaves the newest old plain cell untrailed: the reset
    # then misses the query's newest variable, whose serial is just below
    # the query's start mark
    def bind(store, cell, value):
        cell.ref = value
        if cell.serial < store.young - 1 or type(cell) is EVar:
            store.trail.append(cell)

    monkeypatch.setattr(Store, "bind", bind)
    _, _, faults = sweep(SEEDS[:200])
    assert faults

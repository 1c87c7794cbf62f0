"""Seeded random goals: each answers or raises a PrologError, and the
engine is reset after it.  ``goal_sweep.py`` runs the longer sweep."""

from goal_sweep import BLOCK, SEEDS, sweep


def test_seeded_goals_answer_or_raise_a_prolog_error():
    tally, total, faults = sweep(SEEDS[:BLOCK])
    assert faults == []
    # pinned, so a change to the engine that changes any outcome fails
    # here, not only one that leaves a cell bound
    assert dict(tally) == {
        "failed": 741, "answered": 533, "TypeMismatchError": 400,
        "InstantiationError": 326,
    }
    assert total == 696

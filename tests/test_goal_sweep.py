"""Seeded random goals: each answers or raises a PrologError, and the
engine is reset after it.  ``goal_sweep.py`` runs the longer sweep."""

from goal_sweep import BLOCK, SEEDS, sweep


def test_seeded_goals_answer_or_raise_a_prolog_error():
    tally, faults = sweep(SEEDS[:BLOCK])
    assert faults == []
    # the sweep reaches both ends: goals that answer and goals refused
    assert tally["answered"] and tally["TypeMismatchError"]

"""Seeded random clauses: head code matches, binds and pushes the body as
copying the clause and unifying its head would.  ``head_sweep.py`` runs
the longer sweep."""

from head_sweep import BLOCK, SEEDS, sweep


def test_seeded_clauses_run_as_copy_and_unify():
    tally, faults = sweep(SEEDS[:BLOCK])
    assert faults == []
    # pinned, so a change to head code or to the sweep's cases shows here
    assert dict(tally) == {
        ("occurs check", "matched"): 496, ("occurs check", "missed"): 504,
        ("plain", "matched"): 453, ("plain", "missed"): 547,
    }

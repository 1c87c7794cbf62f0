"""Seeded random pairs of terms: ``unify`` keeps its rules on stores with
and without the occurs check.  ``unify_sweep.py`` runs the longer sweep."""

from unify_sweep import BLOCK, SEEDS, sweep


def test_seeded_pairs_keep_the_rules_of_unify():
    tally, faults = sweep(SEEDS[:BLOCK])
    assert faults == []
    # the block reaches every outcome: pairs that unify, that fail, and,
    # on the plain store only, that unify into a cyclic term
    for store in ("occurs check", "plain"):
        assert tally[(store, "unified")] and tally[(store, "failed")]
    assert tally[("plain", "cyclic")] and not tally[("occurs check", "cyclic")]

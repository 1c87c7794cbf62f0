"""Seeded random pairs of terms: ``unify`` keeps its rules on stores with
and without the occurs check.  ``unify_sweep.py`` runs the longer sweep."""

from entangle_pl.kernel import Store
from unify_sweep import BLOCK, SEEDS, sweep


def test_seeded_pairs_keep_the_rules_of_unify():
    tally, faults = sweep(SEEDS[:BLOCK])
    assert faults == []
    # the block reaches every outcome: pairs that unify, that fail, and,
    # on the plain store only, that unify into a cyclic term
    for store in ("occurs check", "plain"):
        assert tally[(store, "unified")] and tally[(store, "failed")]
    assert tally[("plain", "cyclic")] and not tally[("occurs check", "cyclic")]


def test_the_sweep_sees_a_bind_that_does_not_trail_a_young_name(monkeypatch):
    # a bind without its EVar test trails a young ~Name cell no more, so a
    # failed unify leaves it bound
    def bind(store, cell, value):
        cell.ref = value
        if cell.serial < store.young:
            store.trail.append(cell)

    monkeypatch.setattr(Store, "bind", bind)
    _, faults = sweep(SEEDS[:BLOCK])
    assert faults

"""Seeded small ``~Name`` programs answer alike natively and transpiled.
``oracle_sweep.py`` runs the longer sweep."""

import re

from oracle_sweep import BLOCK, SEEDS, program, sweep


def test_seeded_programs_answer_alike_natively_and_transpiled():
    tally, total, mismatches = sweep(SEEDS[:BLOCK])
    assert mismatches == []
    # pinned, so a change to either side that changes any outcome fails
    # here, not only one that makes the two sides differ
    assert dict(tally) == {"answered": 804, "failed": 1236}
    assert total == 1367


def test_the_programs_hold_every_construct_the_sweep_names():
    texts = []
    for seed in SEEDS[:BLOCK]:
        text, queries = program(seed)
        texts += [text] + queries
    text = "\n".join(texts)
    for construct in (", ", " ; ", " -> ", "\\+ ", "!", "call((", "findall(", " --> ",
                      "~A", "~B"):
        assert construct in text, construct
    # phrase/2 and phrase/3, with a ! in the grammar of some
    assert re.search(r"phrase\(\(g\d+\([^()]*\), !\), [^,()]+\)", text)
    assert re.search(r"phrase\(\(!, g\d+\([^()]*\)\), [^,()]+, [^,()]+\)", text)

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


def test_seeded_injected_goals_answer_alike_natively_and_transpiled():
    tally, total, mismatches = sweep(SEEDS[:BLOCK], injected=True)
    assert mismatches == []
    assert dict(tally) == {"answered": 1834, "failed": 1166}
    assert total == 3417


def test_the_injected_goals_run_four_ways_and_some_hold_phrase():
    queries = [q for seed in SEEDS[:BLOCK] for q in program(seed, injected=True)[1]]
    assert len(queries) == 3 * BLOCK
    for way in ("~G = (", "via((", "I = (", "wrap(("):
        assert any(q.startswith(way) for q in queries), way
    # phrase/2 and phrase/3, with a ! in the grammar of some
    assert any(re.search(r"phrase\(\(g\d+\([^()]*\), !\), [^,()]+\)", q) for q in queries)
    assert any(re.search(r"phrase\(g\d+\([^()]*\), [^,()]+, [^,()]+\)", q) for q in queries)
    # calls with one argument too many, of m/1 and of program predicates
    assert any(re.search(r"\bm\([XYZ], [XYZ]\)", q) for q in queries)
    assert any(re.search(r"\bp\d+\([^()]*, [^()]*\)", q) for q in queries)
    # the programs themselves are the ones the first class checks
    text, _ = program(7)
    assert program(7, injected=True)[0].startswith(text)


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

"""A flat fact reads the same with ``read_program``'s fact path as through
the tokenizer and the parser, and a flat query the same with
``read_query``'s.  ``read_sweep.py`` runs the longer sweep."""

import re

from entangle_pl import reader
from read_sweep import (BLOCK, QUERY_NEAR_MISSES, SEEDS, _read_query, corpus,
                        query_sweep, sweep)


def test_the_corpus_and_the_prelude_read_as_without_the_fact_path():
    tally, faults = corpus()
    assert faults == []
    # four texts hold a ~Name, so raise with ~ off
    assert dict(tally) == {"texts": 14, "clauses": 101, "errors": 4, "fact_path": 25}


def test_seeded_texts_read_as_without_the_fact_path():
    tally, faults = sweep(SEEDS[:BLOCK])
    assert faults == []
    # pinned, so a change to the texts or to what the fact path takes
    # shows here
    assert dict(tally) == {"texts": 4000, "clauses": 9661, "errors": 1821, "fact_path": 8123}


def test_the_sweep_sees_a_fact_path_without_the_end_rule(monkeypatch):
    # f(a).b would read as a fact and fail on b, not on the "."
    pattern = reader._FACT_RE.pattern
    assert pattern.endswith(r"\.(?![^ \t\r\n%])")
    monkeypatch.setattr(reader, "_FACT_RE", re.compile(pattern[:-len(r"(?![^ \t\r\n%])")]))
    _, faults = sweep(SEEDS[:200])
    assert faults


def test_the_sweep_sees_a_fact_path_that_keeps_its_own_names(monkeypatch):
    # a ~Name new to the store, read in two facts, would be two cells
    real = reader._fact_head
    monkeypatch.setattr(reader, "_fact_head",
                        lambda m, store, evars: real(m, store, {}))
    _, faults = sweep(SEEDS[:200])
    assert faults


def test_seeded_clauses_read_as_queries_as_without_the_fact_path():
    tally, faults = query_sweep(SEEDS[:BLOCK])
    assert faults == []
    assert dict(tally) == {"queries": 26314, "query_errors": 6225, "query_fact_path": 12937}


def test_the_query_near_misses_raise_or_read_as_listed():
    # a form feed, a no-break space, a second query, a 5,000-digit integer
    for query in QUERY_NEAR_MISSES[:4]:
        assert type(_read_query(query, True)) is str, query
    for query in QUERY_NEAR_MISSES[4:]:
        assert type(_read_query(query, True)) is tuple, query


def test_the_sweep_sees_a_fact_path_that_orders_the_varmap_wrongly(monkeypatch):
    # p(X,Y,X). would answer Y before X
    real = reader._fact_head

    def reversed_varmap(m, store, evars):
        head, varmap = real(m, store, evars)
        return head, dict(reversed(varmap.items()))

    monkeypatch.setattr(reader, "_fact_head", reversed_varmap)
    _, faults = query_sweep(SEEDS[:200])
    assert faults
    assert sweep(SEEDS[:200])[1] == []  # a program's facts keep no varmap

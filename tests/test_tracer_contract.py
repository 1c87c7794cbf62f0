"""The benchmark's per-layer tracer must still see every clause try.

``perfbench/tracing.py`` counts a clause try as a module-level
``copy_terms`` call followed by ``unify`` in ``entangle_pl.engine``;
``try_clause`` makes that pair, looking both up as module globals.  A
clause-selection change that bypasses either would silently blind the
layer attribution.  The head code that ``copy_terms`` runs calls
``kernel.unify`` itself, so its own unifications are not clause tries,
even in head code made while the tracer runs.  ``perfbench/`` is put on the path only to import the
tracer.
"""

import sys
from pathlib import Path

import entangle_pl.engine as engine_module
from entangle_pl import Engine
from conftest import answers

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer  # noqa: E402


def test_indexed_lookup_is_one_traced_clause_try():
    eng = Engine()
    eng.consult_text("".join(f"fact({i},v).\n" for i in range(1000)))
    tracer = Tracer()
    tracer.install()
    try:
        result = answers(eng, "fact(500,V).")
    finally:
        tracer.uninstall()
    assert result == ["V = v"]
    assert tracer.counts["engine.clause_tries"] == 1
    assert tracer.counts["engine.head_matches"] == 1


def test_reading_and_dcg_translation_are_traced():
    # The tracer patches ``reader.tokenize`` and ``dcg.dcg_translate`` as
    # module attributes: ``read_program`` must look both up when it runs,
    # and the token count includes the ``eof`` token that ends the list.
    eng = Engine()
    tracer = Tracer()
    tracer.install()
    try:
        eng.consult_text("greeting --> [hello], name.\nname --> [world].\n")
        result = answers(eng, "phrase(greeting, [hello,world]).")
    finally:
        tracer.uninstall()
    assert result == ["true"]
    assert tracer.counts["reader.tokens"] == (8 + 6 + 1) + (11 + 1)
    assert tracer.counts["reader.clauses"] == 2
    assert tracer.calls["dcg.translate"] == 2 + 1  # two rules, one phrase/2


def traced(program, query):
    """Answers to ``query`` after consulting ``program``, and the tracer."""
    eng = Engine(load_prelude=False)
    eng.consult_text(program)
    tracer = Tracer()
    tracer.install()
    try:
        result = answers(eng, query)
    finally:
        tracer.uninstall()
    return result, tracer


def test_read_mode_try_is_one_traced_clause_try():
    # the head takes the goal's list apart without building it, and the
    # tracer still sees one copy_terms and one head unify
    result, tracer = traced("app([H|T],L,[H|R]).", "app([1,2],x,[A|_]).")
    assert result == ["A = 1"]
    assert tracer.counts["engine.clause_tries"] == 1
    assert tracer.counts["engine.head_matches"] == 1
    assert tracer.calls["kernel.unify"] == tracer.calls["kernel.copy"] == 1


def test_head_miss_is_one_traced_clause_try():
    result, tracer = traced("count(N,N) :- !.", "count(1,5).")
    assert result == []
    assert tracer.counts["engine.clause_tries"] == 1
    assert tracer.counts["engine.head_matches"] == 0
    assert tracer.calls["kernel.unify"] == tracer.calls["kernel.copy"] == 1


def test_write_mode_try_is_one_traced_clause_try():
    # the head builds both lists and binds them to the goal's cells itself
    result, tracer = traced("app([H|T],L,[H|R]).", "app(X, x, Y).")
    assert result == ["X = [_G6|_G7], Y = [_G6|_G9]"]
    assert tracer.counts["engine.clause_tries"] == 1
    assert tracer.counts["engine.head_matches"] == 1
    assert tracer.calls["kernel.unify"] == tracer.calls["kernel.copy"] == 1


def test_head_code_made_under_the_tracer_keeps_no_wrapper():
    # eq/4's head code, made while the tracer runs, unifies its repeated
    # variables through kernel.unify: one traced unify per try, and nothing
    # reaches the tracer once it is uninstalled
    program = "eq(X, f(X, Y), Y, X)."
    engine_module._factory.cache_clear()
    result, tracer = traced(program, "eq(1, f(1, 2), 2, 1).")
    assert result == ["true"]
    assert tracer.counts["engine.clause_tries"] == tracer.calls["kernel.unify"] == 1
    seen = (dict(tracer.calls), dict(tracer.counts))
    eng = Engine(load_prelude=False)
    eng.consult_text(program)
    misses = engine_module._factory.cache_info().misses
    assert answers(eng, "eq(A, B, b, C).") == ["A = _G2, B = f(_G2,b), C = _G2"]
    assert answers(eng, "eq(1, f(1, 2), 2, 3).") == []
    assert engine_module._factory.cache_info().misses == misses
    assert (dict(tracer.calls), dict(tracer.counts)) == seen

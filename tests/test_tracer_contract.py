"""The benchmark's per-layer tracer must still see every clause try.

``perfbench/tracing.py`` counts a clause try as a module-level
``copy_terms`` call followed by ``unify`` in ``entangle_pl.engine``; a
clause-selection change that bypasses either would silently blind the
layer attribution.  ``perfbench/`` is put on the path only to import the
tracer.
"""

import sys
from pathlib import Path

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

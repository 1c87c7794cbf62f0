"""The benchmark's per-layer tracer must still see the oracle's reading.

``check_program`` reads a program once and each query once, through the
``read_program`` and ``read_query`` names the tracer patches in
``entangle_pl.engine``; a read through a name bound elsewhere would leave
``reader.parse_s`` at 0 on the ``oracle`` workload.  ``perfbench/`` is put
on the path only to import the tracer.
"""

import sys
from pathlib import Path

from entangle_pl import Engine, oracle, transpile

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer  # noqa: E402


def test_oracle_reads_program_and_queries_once_under_the_tracer():
    program = "a(~X). b(~X). c(Y) :- a(Y), b(Y)."
    queries = ["a(1), b(V).", "c(Z)."]
    # the prelude and the transpiler's helper clauses are read once per
    # process: not under the tracer
    Engine()
    transpile("")
    tracer = Tracer()
    tracer.install()
    try:
        results = oracle.check_program(program, queries)
    finally:
        tracer.uninstall()
    assert [r.ok for r in results] == [True, True]
    # counted by hand, each text's tokens and its one eof: the program's
    # flat facts a(~X) and b(~X) and the flat query c(Z) are read without
    # tokens, so the program has 15 + 1 and the query a(1), b(V) 10 + 1,
    # so 16 + 11
    assert tracer.counts["reader.tokens"] == 27
    assert tracer.counts["reader.clauses"] == 3
    assert tracer.calls["reader.read_program"] == 1
    assert tracer.calls["reader.read_query"] == 2
    assert tracer.counts["oracle.pairs"] == 2

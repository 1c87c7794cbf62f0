"""Time the first calls of a program of many predicates, each with names
of its own, against its consult, in one process.

    python tests/first_calls.py [RUNS]

The program has 2,000 predicates ``p<i>(X,Y) :- q<i>(X,Z), r<i>(Z,Y).``,
each with the facts ``q<i>(a,b<i>).`` and ``r<i>(b<i>,c<i>).``.  Each run
empties the process's cache of clause factories, consults the program on a
fresh engine, then calls every ``p<i>(a,Y).`` once, and prints both
times; the last line gives the minimum of each over the runs (5 by
default).  A first call makes the head code of each clause it tries, so
the first calls time the clause compiler.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entangle_pl import Engine, engine  # noqa: E402

PREDICATES = 2000


def program() -> str:
    return "".join(f"p{i}(X,Y) :- q{i}(X,Z), r{i}(Z,Y). q{i}(a,b{i}). r{i}(b{i},c{i}).\n"
                   for i in range(PREDICATES))


def run(text: str) -> tuple:
    """Seconds to consult ``text`` and to make every first call."""
    engine._factory.cache_clear()
    eng = Engine()
    start = time.perf_counter()
    eng.consult_text(text)
    consulted = time.perf_counter()
    for i in range(PREDICATES):
        list(eng.query(f"p{i}(a,Y)."))
    return consulted - start, time.perf_counter() - consulted


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    text = program()
    times = []
    for _ in range(runs):
        times.append(run(text))
        print("consult %.3f s, first calls %.3f s" % times[-1])
    consult, first = (min(column) for column in zip(*times))
    print(f"min of {runs}: consult {consult:.3f} s, first calls {first:.3f} s")


if __name__ == "__main__":
    main()

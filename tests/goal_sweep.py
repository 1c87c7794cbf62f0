"""A seeded sweep of random goals, through one engine per block of seeds.

Each seed makes one query that nests ``,``, ``;``, ``->``, ``\\+``,
call/1, findall/3 and ``phrase({...}, [])``, puts integers and variables
in goal positions, passes goals through ``q(G) :- G.`` and
``r(X) :- (X ; true).``, and binds variables to goals such as
``(a -> 1)`` before or after they are called.  The sweep reads each query
itself and runs it with ``Engine.solve``, as the oracle does, so it holds
the query's variables and the registry keeps them: a reset that misses one
is seen.  Every query must answer or raise a ``PrologError``, and leave
every registered cell unbound, the trail empty and the registry as long as
the read left it.  The engine runs
with the occurs check, so no query can build a cyclic term, and with a
frame budget, so none runs away.

    PYTHONPATH=src python tests/goal_sweep.py

runs seeds 0 to 49,999, prints a tally and exits 1 on any fault, or when
the tally or the number of answers differs from the pinned ``EXPECTED``,
so a change to the engine that changes any outcome fails it too;
``tests/test_goal_sweep.py`` runs the first block, 2,000 seeds on one
engine, against pinned figures of its own.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter

from entangle_pl import Engine
from entangle_pl.errors import PrologError
from entangle_pl.reader import read_query

SEEDS = range(50_000)
# A cell that a faulty reset leaves bound is reported again at every later
# seed on its engine, so a fresh engine for each block bounds the echo.
BLOCK = 2_000
# The outcomes of all of SEEDS, and the number of answers they gave.
EXPECTED = (
    {"failed": 17758, "answered": 14167, "TypeMismatchError": 9906,
     "InstantiationError": 8169},
    18859,
)

PROGRAM = """
a. b. m(1). m(2).
q(G) :- G.
r(X) :- (X ; true).
"""

_VARS = ("X", "Y", "Z")
_LEAVES = ("true", "fail", "!", "a", "b", "m(X)", "m(Y)", "1", "2") + _VARS
_FORMS = (
    "({0}, {1})", "({0} ; {1})", "({0} -> {1})", "({0} -> {1} ; {2})",
    "\\+ ({0})", "call(({0}))", "findall(X, ({0}), _)", "phrase({{({0})}}, [])",
    "q(({0}))", "r(({0}))", "Y = ({0})", "Z = ({0})",
)


def _goal(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_LEAVES)
    return rng.choice(_FORMS).format(*(_goal(rng, depth - 1) for _ in range(3)))


def query(seed: int) -> str:
    """The query text of one seed: a goal, with bindings of some of the
    variables before or after it."""
    rng = random.Random(seed)
    parts = [_goal(rng, 3)]
    for var in _VARS:
        if rng.random() < 0.4:
            binding = f"{var} = ({_goal(rng, 2)})"
            parts.insert(rng.randrange(2) * len(parts), binding)
    return ", ".join(parts) + "."


def outcome(engine: Engine, goal, varmap, limit: int = 20):
    """Up to ``limit`` answers of a query read beforehand, and the class
    name of the ``PrologError`` that ended it, or None.  Any other
    exception escapes."""
    gen = engine.solve(goal, varmap)
    answers = []
    try:
        for solution in gen:
            answers.append(str(solution))
            if len(answers) == limit:
                break
    except PrologError as e:
        return answers, type(e).__name__
    finally:
        gen.close()
    return answers, None


def sweep(seeds):
    """Run the query of each seed, on one engine for each block of
    ``BLOCK`` seeds.  Returns a tally of the outcomes, the number of
    answers and the faults, as ``(seed, query, fault)`` triples."""
    tally = Counter()
    total = 0
    faults = []
    for i, seed in enumerate(seeds):
        if i % BLOCK == 0:
            engine = Engine(occurs_check=True, max_frames=2_000)
            engine.consult_text(PROGRAM)
        text = query(seed)
        # the generator writes only valid text, so the read cannot raise
        goal, varmap = read_query(text, engine.store)
        registered = len(engine.store.cells)
        try:
            answers, error = outcome(engine, goal, varmap)
        except Exception as e:  # anything but a PrologError is a fault
            faults.append((seed, text, f"{type(e).__name__}: {e}"))
        else:
            tally[error or ("answered" if answers else "failed")] += 1
            total += len(answers)
        left = engine.store.bound_cells()
        if left:
            faults.append((seed, text, f"{len(left)} cell(s) left bound"))
        if engine.store.trail:
            faults.append((seed, text, "trail entries left"))
        if len(engine.store.cells) != registered:
            faults.append((seed, text, "the registry changed length"))
    return tally, total, faults


def main() -> int:
    started = time.perf_counter()
    tally, total, faults = sweep(SEEDS)
    seconds = time.perf_counter() - started
    print(f"{len(SEEDS)} goals in {seconds:.1f} s: " + ", ".join(
        f"{kind} {n}" for kind, n in tally.most_common()) + f"; {total} answers")
    for seed, text, fault in faults[:20]:
        print(f"FAULT seed {seed}: {fault}\n  ?- {text}")
    print(f"{len(faults)} fault(s)")
    drift = (dict(tally), total) != EXPECTED
    if drift:
        print(f"DRIFT: expected {EXPECTED[0]}; {EXPECTED[1]} answers")
    return 1 if faults or drift else 0


if __name__ == "__main__":
    sys.exit(main())

"""A seeded sweep of ``unify`` over random pairs of terms.

Each seed builds one pair of terms from atoms, integers, compounds and a
pool of ``Var`` and ``EVar`` cells, some of them bound beforehand so that
the pair is read through chains of bindings.  The atoms and functors are
chosen to hold traps: the atom ``'1'`` against the integer ``1``, ``f/1``
against ``f/2``, ``'.'/2`` against ``[]``.  The pair is unified on a store
with the occurs check and on one without, each built from the same seed,
each once with the young mark outside a query, where every cell is old,
and once with it inside the pool's serials, as in a running query.  Each
run must keep three rules:

- a success makes the two terms equal in the standard order
  (``compare_terms`` returns 0), unless the store has no occurs check and
  the binding made them cyclic, which only that store may do;
- a failure leaves the trail as long as it was and the ``ref`` of every
  cell older than the young mark, and of every ``EVar``, as it was (a
  younger cell may stay bound: backtracking would discard it, and the
  sweep puts it back by hand);
- unifying the pair the other way round gives the same result.

A pair that unifies with the occurs check also unifies without it, and the
young mark changes no result.

    PYTHONPATH=src python tests/unify_sweep.py

runs seeds 0 to 199,999, prints a tally and exits 1 on any fault;
``tests/test_unify_sweep.py`` runs the first block, 2,000 seeds.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter

from entangle_pl.kernel import (
    OUTSIDE,
    Atom,
    EVar,
    Int,
    Store,
    Struct,
    Var,
    compare_terms,
    unify,
)

SEEDS = range(200_000)
BLOCK = 2_000

_ATOMS = ("a", "b", "1", "[]")
_INTS = (1, 2)
_FUNCTORS = (("f", 1), ("f", 2), ("g", 2), (".", 2), ("1", 1))


def _term(rng, cells, depth):
    if depth == 0 or rng.random() < 0.4:
        kind = rng.random()
        if cells and kind < 0.5:
            return rng.choice(cells)
        if kind < 0.75:
            return Atom(rng.choice(_ATOMS))
        return Int(rng.choice(_INTS))
    name, arity = rng.choice(_FUNCTORS)
    return Struct(name, tuple(_term(rng, cells, depth - 1) for _ in range(arity)))


def pair(seed: int, store: Store):
    """The pair of terms of one seed, built in ``store``: a pool of four
    ``Var`` and two ``EVar`` cells, allocated in a random order, some bound
    to terms over the cells after them (so no binding is cyclic), then two
    terms over the pool."""
    rng = random.Random(seed)
    kinds = ["var"] * 4 + ["~A", "~B"]
    rng.shuffle(kinds)
    cells = [store.new_var() if k == "var" else store.evar(k) for k in kinds]
    order = cells[:]
    rng.shuffle(order)
    for i, cell in enumerate(order):
        if rng.random() < 0.3:
            store.bind(cell, _term(rng, order[i + 1:], 2))
    return _term(rng, cells, 3), _term(rng, cells, 3)


def cyclic(t) -> bool:
    """Whether ``t``, read through its bindings, is infinite: a bound cell
    is met again while its own value is being walked."""
    path = set()
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is tuple:  # (cell,): its value has been walked
            path.discard(x[0])
            continue
        while isinstance(x, Var) and x.ref is not None:
            if x in path:
                return True
            path.add(x)
            todo.append((x,))
            x = x.ref
        if isinstance(x, Struct):
            todo.extend(x.args)
    return False


def check(seed: int, occurs_check: bool, young=OUTSIDE):
    """Unify the pair of ``seed`` both ways round on a new store, with its
    young mark at ``young`` once the pair is built.  Returns the outcome,
    ``"unified"``, ``"cyclic"`` or ``"failed"``, and a list of faults."""
    store = Store(occurs_check)
    a, b = pair(seed, store)
    store.young = young
    mark = len(store.trail)
    refs = [c.ref for c in store.cells]

    def unchanged():
        return len(store.trail) == mark and all(
            c.ref is r
            for c, r in zip(store.cells, refs)
            if c.serial < young or type(c) is EVar
        )

    faults = []
    outcomes = []
    for x, y in ((a, b), (b, a)):
        if not unify(x, y, store):
            outcomes.append("failed")
            if not unchanged():
                faults.append("a failed unify changed the store")
        elif cyclic(x) or cyclic(y):
            outcomes.append("cyclic")
            if occurs_check:
                faults.append("a unify with the occurs check made a cyclic term")
        else:
            outcomes.append("unified")
            if compare_terms(x, y) != 0:
                faults.append("a unified pair is not equal in the standard order")
        store.undo_to(mark)
        if not unchanged():
            faults.append("undoing the unify left the store changed")
        for cell, ref in zip(store.cells, refs):  # what backtracking discards
            cell.ref = ref
    if (outcomes[0] == "failed") != (outcomes[1] == "failed"):
        faults.append(f"unify {outcomes[0]} one way round, {outcomes[1]} the other")
    return outcomes[0], faults


def sweep(seeds):
    """Check each seed's pair with and without the occurs check, and with
    the young mark outside a query and at one of the pool's serials 1 to 5.
    Returns a tally of the outcomes by store and the faults, as ``(seed,
    occurs_check, fault)`` triples."""
    tally = Counter()
    faults = []
    for seed in seeds:
        outcomes = {}
        for occurs_check in (True, False):
            outcome, found = check(seed, occurs_check)
            outcomes[occurs_check] = outcome
            tally[("occurs check" if occurs_check else "plain", outcome)] += 1
            faults += [(seed, occurs_check, fault) for fault in found]
            young = 1 + seed % 5
            outcome, found = check(seed, occurs_check, young)
            if outcome != outcomes[occurs_check]:
                found.append(f"young mark {young} changed the outcome")
            faults += [(seed, occurs_check, f"{fault} (young mark {young})")
                       for fault in found]
        if outcomes[True] != "failed" and outcomes[False] == "failed":
            faults.append((seed, False, "failed where the occurs check unified"))
    return tally, faults


def main() -> int:
    started = time.perf_counter()
    tally, faults = sweep(SEEDS)
    seconds = time.perf_counter() - started
    outcomes = ", ".join(
        f"{store} {outcome} {n}" for (store, outcome), n in sorted(tally.items()))
    print(f"{len(SEEDS)} pairs, each on two stores at two young marks, "
          f"in {seconds:.1f} s: {outcomes}")
    for seed, occurs_check, fault in faults[:20]:
        print(f"FAULT seed {seed}, occurs check {occurs_check}: {fault}")
    print(f"{len(faults)} fault(s)")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())

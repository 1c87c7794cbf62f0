"""A seeded sweep of clause head code against copy-and-unify.

Each seed builds one clause and one goal for it.  The head holds repeated
variables, the atoms ``'1'``, ``a``, ``b`` and ``[]`` against the integers
``1`` and ``2``, ``~Name`` cells, some bound beforehand, ground subterms,
which the clause compiler shares, and nested compounds; the body is a
conjunction, nested either way, of goals over the clause's variables,
``true`` conjuncts and ground conjunctions.  The goal is built from the
head, mostly argument for argument, so that about half the tries match: a head
variable becomes a goal term, a constant stays or turns into its trap
(``'1'`` for ``1``), and a compound is the goal's own (read mode) or a goal
cell (write mode).  The goal's cells may be bound beforehand.  On the
store without the occurs check one of them is bound to a term that holds
it, so the goal may be cyclic; the occurs check's walk never ends on a cyclic
term, and no engine with the check can make one.

Each case runs on a store with the occurs check and on one without, each
built from the same seed.  It is tried once as the engine tries it, by
``engine.try_clause`` with a goal list ``rest`` of its own, and once by the
rule head code must equal: ``copy_term`` of the pair ``[head, body]``, then
``kernel.unify`` of the copied head with the goal.  A ``~Name`` cell is
bound only to a ground term or to another, unbound ``~Name`` cell, so that
its copy is the cell itself as far as unify and the comparison can tell.
The two must agree on three things:

- whether the head matched;
- the goal afterwards, and the order in which the cells made before the
  try were bound;
- the body: the conjuncts that the head code pushed above ``rest``, each
  under the barrier it was given, against the copied body's conjuncts, its
  ``,`` skeleton taken apart and its ``true`` conjuncts left out.

Terms are compared written in a canonical form down to a fixed depth, with
``_G`` serials renumbered by first appearance, so two equal cyclic terms
compare equal.  ``write_term`` would not do: it writes ``...`` where a
bound cell is met again, and head code holds a goal's own cell where the
copy holds a fresh cell bound to that cell's value, so the one infinite
term can print its cycle at another depth.  The binding order is left out
where a variable repeats in the head: head code takes the variable's goal
term at its first occurrence and binds that term at the next one, where
the copy binds its fresh cell first and the goal's term last.  Otherwise
the order is what the rule "last argument first, depth first" pins.

    PYTHONPATH=src python tests/head_sweep.py

runs seeds 0 to 19,999, prints a tally and exits 1 on any fault, or when
the tally differs from the pinned ``EXPECTED``; ``tests/test_head_sweep.py``
runs the first block, 1,000 seeds.
"""

from __future__ import annotations

import random
import re
import sys
import time
from collections import Counter

from entangle_pl.engine import _MISS, try_clause
from entangle_pl.kernel import (
    Atom, EVar, Store, Struct, Var, copy_term, make_list, unify)

SEEDS = range(20_000)
BLOCK = 1_000
# the full range's tally, by store and outcome
EXPECTED = {
    ("occurs check", "matched"): 9_703, ("occurs check", "missed"): 10_297,
    ("plain", "matched"): 9_049, ("plain", "missed"): 10_951,
}

_ATOMS = ("a", "b", "1", "[]")
_INTS = (1, 2)
_FUNCTORS = (("f", 1), ("f", 2), ("g", 2), (".", 2), ("1", 1))
_TRAPS = {("a", Atom): Atom("b"), ("1", Atom): 1, (1, int): Atom("1")}
_BAR = 7  # the barrier the sweep's tries hand the head code
_REST = (Atom("rest"), 0, None)  # and the goal list they push onto
_DEPTH = 10  # the depth to which terms are compared, cyclic ones unrolled


def _constant(rng):
    if rng.random() < 0.6:
        return Atom(rng.choice(_ATOMS))
    return rng.choice(_INTS)


def _term(rng, leaves, depth):
    """A term of at most ``depth`` levels over ``leaves``, atoms and
    integers."""
    if depth == 0 or rng.random() < 0.4:
        if leaves and rng.random() < 0.5:
            return rng.choice(leaves)
        return _constant(rng)
    name, arity = rng.choice(_FUNCTORS)
    return Struct(name, tuple(_term(rng, leaves, depth - 1) for _ in range(arity)))


def _head_arg(rng, variables, evars):
    """A head argument: a clause variable, a ``~Name`` cell, a ground
    subterm, or a term over both."""
    kind = rng.random()
    if kind < 0.15:
        return _term(rng, (), 2)  # ground: the compiler shares it
    if kind < 0.25:
        return rng.choice(evars)
    return _term(rng, variables + variables + evars[:1], 3)


def _conjunction(rng, conjuncts):
    """The conjuncts joined by ``,``, nested at random split points."""
    if len(conjuncts) == 1:
        return conjuncts[0]
    cut = rng.randrange(1, len(conjuncts))
    return Struct(",", (_conjunction(rng, conjuncts[:cut]),
                        _conjunction(rng, conjuncts[cut:])))


def _body(rng, variables):
    conjuncts = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.random()
        if kind < 0.3:
            conjuncts.append(Atom("true"))
        elif kind < 0.45:
            conjuncts.append(Atom(rng.choice(("p", "q"))))
        elif kind < 0.55:  # a ground goal with arguments
            conjuncts.append(Struct("q", (_term(rng, (), 2),)))
        else:
            arity = rng.randrange(1, 4)
            conjuncts.append(Struct("q", tuple(
                _term(rng, variables, 2) for _ in range(arity))))
    return _conjunction(rng, conjuncts)


def _goal_arg(rng, arg, cells, variables):
    """A goal argument for head argument ``arg``: mostly the head's own
    shape, with a goal term for each variable."""
    if rng.random() < 0.15:
        return _term(rng, cells, 2)  # anything
    if isinstance(arg, Var):  # a clause variable or a ~Name cell
        if arg in variables:
            return _term(rng, cells, 2)
        return rng.choice(cells) if rng.random() < 0.5 else _constant(rng)
    if type(arg) is Struct:
        if rng.random() < 0.2:
            return rng.choice(cells)  # write mode, or a bound cell's term
        return Struct(arg.name, tuple(
            _goal_arg(rng, a, cells, variables) for a in arg.args))
    trap = _TRAPS.get((arg, type(arg)))
    return trap if trap is not None and rng.random() < 0.2 else arg


def case(seed: int, store: Store):
    """The clause ``[head, body]`` and the goal of one seed, built in
    ``store``."""
    rng = random.Random(seed)
    evars = [store.evar("~A"), store.evar("~B")]
    rng.shuffle(evars)
    if rng.random() < 0.4:  # bound to a ground term, or to the other cell
        value = evars[1] if rng.random() < 0.3 else _term(rng, (), 2)
        store.bind(evars[0], value)
    variables = [store.new_var() for _ in range(3)]
    arity = rng.choice((0, 1, 2, 3, 3, 4))
    args = tuple(_head_arg(rng, variables, evars) for _ in range(arity))
    head = Struct("h", args) if args else Atom("h")
    body = _body(rng, variables)
    # the goal's cells: plain cells, allocated in a random order, some bound
    # to terms over the ones after them, the first, without the occurs
    # check, to a term that holds it, and the ~Name cells
    cells = [store.new_var() for _ in range(4)]
    rng.shuffle(cells)
    name, arity = rng.choice(_FUNCTORS)
    held = [_term(rng, cells[1:], 1) for _ in range(arity)]
    held[rng.randrange(arity)] = cells[0]
    if not store.occurs_check:
        store.bind(cells[0], Struct(name, tuple(held)))
    for i, cell in enumerate(cells[1:], 1):
        if rng.random() < 0.3:
            store.bind(cell, _term(rng, cells[i + 1:] + cells[:1], 2))
    cells += evars
    goal = Struct("h", tuple(_goal_arg(rng, a, cells, variables) for a in args)) \
        if args else head
    return [head, body], goal


def _conjuncts(body):
    """A body's conjuncts, left to right: its ``,`` skeleton taken apart,
    and its ``true`` conjuncts left out."""
    out = []
    todo = [body]
    while todo:
        t = todo.pop()
        if type(t) is Struct and t.name == "," and len(t.args) == 2:
            todo += t.args[::-1]
        elif type(t) is not Atom or t != "true":
            out.append(t)
    return out


def _canonical(t, depth=_DEPTH):
    """``t`` written in canonical form down to ``depth`` levels, with
    ``...`` below them, and each plain cell as ``_G`` and its serial."""
    while isinstance(t, Var) and t.ref is not None:
        t = t.ref
    if depth == 0:
        return "..."
    if type(t) is Struct:
        return f"{t.name!r}({','.join(_canonical(a, depth - 1) for a in t.args)})"
    if type(t) is Atom:
        return repr(t)
    if type(t) is int:
        return str(t)
    return t.name if type(t) is EVar else f"_G{t.serial}"


def _order(head):
    """Whether the order of a try's bindings is compared: not when a
    variable repeats in the head."""
    seen = set()
    todo = [head]
    while todo:
        t = todo.pop()
        if type(t) is Var:
            if t in seen:
                return False
            seen.add(t)
        elif type(t) is Struct:
            todo.extend(t.args)
    return True


def _written(store, start, mark, order, goal, conjuncts):
    """The order in which the try bound the cells made before it, by
    serial, then the goal and the conjuncts, canonical, with ``_G`` serials
    numbered by first appearance."""
    bound = " ".join(str(c.serial) for c in store.trail[mark:] if c.serial < start) \
        if order else "-"
    text = " | ".join([bound] + [_canonical(t) for t in [goal] + conjuncts])
    names = {}
    return re.sub(r"_G\d+", lambda m: names.setdefault(m.group(), f"_G{len(names)}"), text)


def by_head_code(seed: int, occurs_check: bool):
    """What the engine's try of the seed's clause gives: None on a miss,
    else its outcome as ``_written`` gives it, and a list of faults."""
    store = Store(occurs_check)
    (head, body), goal = case(seed, store)
    start, mark = store.allocated, len(store.trail)
    goals = try_clause([head, body, None], goal, store, _BAR, _REST)
    if goals is _MISS:
        return None, []
    faults = []
    conjuncts = []
    while goals is not _REST:
        term, bar, goals = goals
        conjuncts.append(term)
        if bar != _BAR:
            faults.append(f"a conjunct was pushed under barrier {bar}")
    return _written(store, start, mark, _order(head), goal, conjuncts), faults


def by_copy_and_unify(seed: int, occurs_check: bool):
    """What copying the seed's clause and unifying its head gives: None on
    a miss, else its outcome as ``_written`` gives it."""
    store = Store(occurs_check)
    (head, body), goal = case(seed, store)
    start, mark = store.allocated, len(store.trail)
    copied = copy_term(make_list([head, body]), store)
    order = _order(head)
    head, body = copied.args[0], copied.args[1].args[0]
    if not unify(head, goal, store):
        return None
    return _written(store, start, mark, order, goal, _conjuncts(body))


def sweep(seeds):
    """Check each seed's case on both stores.  Returns a tally of the
    outcomes by store and the faults, as ``(seed, occurs_check, fault)``
    triples."""
    tally = Counter()
    faults = []
    for seed in seeds:
        for occurs_check in (True, False):
            store = "occurs check" if occurs_check else "plain"
            found, problems = by_head_code(seed, occurs_check)
            expected = by_copy_and_unify(seed, occurs_check)
            tally[(store, "missed" if expected is None else "matched")] += 1
            faults += [(seed, occurs_check, p) for p in problems]
            if (found is None) != (expected is None):
                faults.append((seed, occurs_check, "head code matched" if expected is None
                               else "head code missed"))
            elif found != expected:
                faults.append((seed, occurs_check, f"{found} != {expected}"))
    return tally, faults


def main() -> int:
    started = time.perf_counter()
    tally, faults = sweep(SEEDS)
    seconds = time.perf_counter() - started
    outcomes = ", ".join(
        f"{store} {outcome} {n}" for (store, outcome), n in sorted(tally.items()))
    print(f"{len(SEEDS)} clauses, each on two stores, in {seconds:.1f} s: {outcomes}")
    for seed, occurs_check, fault in faults[:20]:
        print(f"FAULT seed {seed}, occurs check {occurs_check}: {fault}")
    print(f"{len(faults)} fault(s)")
    drift = dict(tally) != EXPECTED
    if drift:
        print(f"DRIFT: expected {EXPECTED}")
    return 1 if faults or drift else 0


if __name__ == "__main__":
    sys.exit(main())

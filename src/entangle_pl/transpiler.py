"""Source-level elimination of ``~Name`` variables.

Every user-defined predicate p/k becomes p/(k+1) with a hidden environment
argument appended; the environment is one compound ``evs/N`` holding a slot
per distinct ``~Name`` of the program (first-occurrence order).  Each
clause reads the slots it uses with arg/3 and threads the environment into
every user-predicate call.  The output is plain syntax (no ``~`` tokens)
and serves as an independent oracle for the native engine.

Substitution works by building, not binding: one postfix walk over a clause
(or query) returns it with each ``~Name`` cell replaced by a fresh
``_IV<slot>`` variable and each variable named ``_Env…``, ``_IV…`` or
``_G…`` by a fresh unnamed one, so no source variable captures a
machine-made name; ordinary variables, and subterms holding neither kind,
are shared.  Nothing is bound, so ``transpile`` writes the rewritten
clauses and the oracle runs them as they are.  Bodies are rewritten with
one explicit stack, so the oracle and ``--transpile`` take programs of any
body length or term depth.  The goal arguments of a control construct are
the positions ``engine.CONTROL`` gives, the table the engine dispatches on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dcg import translate_goal
from .engine import CONTROL, SKELETON, check_clauses
from .errors import TranspileError, TypeMismatchError
from .kernel import TRUE, Atom, EVar, Int, Store, Struct, Var, deref
from .reader import read_program, read_query, write_clause, write_term

HELPER = "$call_ev"
CONVERT = "$conv_ev"
_RESERVED = ("_Env", "_IV", "_G")


@dataclass
class TranspileResult:
    text: str  # the written clauses; empty when the caller takes the terms
    layout: list  # EVar names (with ~) in first-occurrence order
    predicates: list  # (name, arity) of source predicates, definition order


def _conj_fold(goals):
    """Join goals into a right-nested conjunction."""
    acc = goals[-1]
    for g in reversed(goals[:-1]):
        acc = Struct(",", (g, acc))
    return acc


def _substitute(store: Store, slots: dict, terms):
    """Rewrite ``terms`` in one postfix walk, making each ``~Name`` cell a
    fresh ``_IV<slot>`` variable and each variable with a reserved name a
    fresh unnamed one, at first occurrence in preorder.  Returns the new
    terms, a fresh ``_Env`` and the arg/3 goals reading the used slots from
    it, in slot order."""
    new = {}  # cell -> its replacement
    out = []
    todo = list(reversed(terms))
    while todo:
        x = todo.pop()
        if type(x) is tuple:  # (compound, start): its arguments end here
            x, start = x
            args = tuple(out[start:])
            del out[start:]
            if any(a is not b for a, b in zip(args, x.args)):
                x = Struct(x.name, args)
        elif isinstance(x, Struct):
            todo.append((x, len(out)))
            todo.extend(reversed(x.args))
            continue
        elif isinstance(x, Var) and x not in new:
            if isinstance(x, EVar):
                if x.name not in slots:
                    raise TranspileError(
                        f"{x.name} does not occur in the program layout"
                    )
                new[x] = store.new_var(f"_IV{slots[x.name]}")
            elif x.name and x.name.startswith(_RESERVED):
                new[x] = store.new_var()
        out.append(new.get(x, x))
    env = store.new_var("_Env")
    ivs = sorted((slots[c.name], v) for c, v in new.items() if isinstance(c, EVar))
    return out, env, [Struct("arg", (Int(slot), env, iv)) for slot, iv in ivs]


def _open(goal):
    """Whether ``goal``'s control skeleton holds a variable, so that the
    goal converts only when it starts."""
    todo = [goal]
    while todo:
        t = deref(todo.pop())
        if isinstance(t, Var):
            return True
        if isinstance(t, Struct) and (t.name, len(t.args)) in SKELETON:
            todo += t.args
    return False


def _deferred(t, env):
    """The call/1, findall/3 or ``\\+`` goal ``t`` with its goal argument
    run through the runtime helper, which converts it when it starts;
    call/1 is the helper's call itself."""
    (i,) = CONTROL[(t.name, len(t.args))]
    goal = Struct(HELPER, (t.args[i], env))
    return goal if t.name == "call" else Struct(t.name, t.args[:i] + (goal,) + t.args[i + 1 :])


def rewrite_goal(g, env, predset, store):
    """Thread ``env`` into every user-predicate call of a goal, on one
    stack of goals and ``(term, positions)`` markers that rebuild a
    control construct from its rewritten goal arguments.  A goal that a
    call/1, findall/3 or ``\\+`` starts, and whose skeleton holds a
    variable, runs through the runtime helper, which converts it when it
    starts, as ``solve`` does; a variable goal of a query is ``call(V)``,
    as conversion makes it.  A phrase/2,3 goal is expanded and called,
    ``call(Expansion)``, as ``solve`` runs it, so a ``!`` in the grammar
    cuts only the expansion; a variable grammar, or one the expansion
    refuses, is left to phrase.  Returns the goal and whether it
    dispatches through the runtime helper."""
    uses_helper = False
    todo = [g]
    done = []
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            t, positions = t
            args = list(t.args)
            for i in reversed(positions):
                args[i] = done.pop()
            done.append(Struct(t.name, tuple(args)))
            continue
        t = deref(t)
        if isinstance(t, Var):
            t = Struct("call", (t,))
        if isinstance(t, (Atom, Struct)):
            name = t.name
            args = t.args
            key = (name, len(args))
            positions = CONTROL.get(key)
            if positions and key not in SKELETON and _open(args[positions[0]]):
                uses_helper = True
                t = _deferred(t, env)
            elif positions:
                todo.append((t, positions))
                todo.extend(args[i] for i in reversed(positions))
                continue
            elif name == "phrase" and len(args) in (2, 3):
                # a variable grammar is expanded at run time, so it
                # must be library-only
                if not isinstance(deref(args[0]), Var):
                    try:
                        todo.append(Struct("call", (translate_goal(args, store),)))
                        continue
                    except TypeMismatchError:
                        pass  # left to phrase, which raises it when it starts
            elif key in predset:
                t = Struct(name, args + (env,))
        done.append(t)
    return done[0], uses_helper


def transpile(*texts: str) -> TranspileResult:
    """Transpile the program made of ``texts``, each read in turn as a text
    of its own into one store, so the layout and the predicates span them
    all."""
    store = Store()
    pairs = []
    for text in texts:
        pairs += read_program(text, store, allow_evar=True)
    result, clauses = rewrite_program(check_clauses(pairs), list(store.evars), store)
    result.text = "".join(write_clause(h, b) + "\n" for h, b in clauses)
    return result


def rewrite_program(pairs, layout, store: Store):
    """Rewrite the program ``pairs``, read into ``store``, whose ``~Name``
    cells are ``layout`` in first-occurrence order.  Returns its result,
    text empty, and the rewritten ``(head, body)`` clauses."""
    slots = {name: i + 1 for i, name in enumerate(layout)}
    predicates = list(dict.fromkeys((h.name, len(h.args)) for h, _ in pairs))
    predset = set(predicates)
    out = []
    uses_helper = False
    for head, body in pairs:
        (head, body), env, goals = _substitute(store, slots, (head, body))
        rewritten, helper = rewrite_goal(body, env, predset, store)
        uses_helper |= helper
        if not (isinstance(rewritten, Atom) and rewritten.name == "true"):
            goals.append(rewritten)
        new_body = _conj_fold(goals) if goals else TRUE
        out.append((Struct(head.name, head.args + (env,)), new_body))
    if uses_helper:
        out += helper_clauses(store, predicates)
    return TranspileResult("", layout, predicates), out


def helper_clauses(store: Store, predicates):
    """Yield the clauses that run a goal injected at run time:
    ``'$call_ev'(G, Env)`` converts ``G`` with ``'$conv_ev'`` as
    ``engine.convert_goal`` would, threading ``Env`` into the program's
    predicates, then calls the result once, so a cut in it is local.
    ``'$conv_ev'`` has a clause per control construct of ``CONTROL`` that
    has goal arguments: a construct of ``SKELETON`` converts them in turn,
    and call/1, findall/3 and ``\\+`` run theirs through ``'$call_ev'``
    when they start.

    An unbound goal must keep raising an instantiation error (a clause-head
    match would quietly enumerate the bridged predicates instead), hence
    the leading var/1 guards.
    """
    g, e, c = store.new_var("G"), store.new_var("E"), store.new_var("C")
    yield Struct(HELPER, (g, store.new_var("_"))), _conj_fold(
        [Struct("var", (g,)), Atom("!"), Struct("call", (g,))])
    yield Struct(HELPER, (g, e)), Struct(",", (Struct(CONVERT, (g, e, c)), Struct("call", (c,))))
    yield Struct(CONVERT, (g, e, Struct(HELPER, (g, e)))), Struct(",", (Struct("var", (g,)), Atom("!")))
    for (name, arity), positions in CONTROL.items():
        if not positions:
            continue
        vs = tuple(store.new_var(f"V{i + 1}") for i in range(arity))
        t = Struct(name, vs)
        if (name, arity) in SKELETON:
            cs = tuple(store.new_var(f"C{i + 1}") for i in range(arity))
            convs = [Struct(CONVERT, (v, e, w)) for v, w in zip(vs, cs)]
            yield Struct(CONVERT, (t, e, Struct(name, cs))), _conj_fold([Atom("!")] + convs)
        else:
            yield Struct(CONVERT, (t, e, _deferred(t, e))), Atom("!")
    for name, arity in predicates:
        vs = tuple(store.new_var(f"V{i + 1}") for i in range(arity))
        inner = Atom(name) if arity == 0 else Struct(name, vs)
        yield Struct(CONVERT, (inner, e, Struct(name, vs + (e,)))), Atom("!")
    yield Struct(CONVERT, (g, store.new_var("_"), g)), TRUE


def rewrite_query(goal, store: Store, program: TranspileResult):
    """Rewrite a query goal read into ``store`` for ``program``.  Returns
    the goal and whether it dispatches through the runtime helper, whose
    clauses the program has only if one of its own clauses does."""
    slots = {name: i + 1 for i, name in enumerate(program.layout)}
    (goal,), env, goals = _substitute(store, slots, (goal,))
    if program.layout:
        slots_vars = tuple(store.new_var("_") for _ in program.layout)
        goals.insert(0, Struct("=", (env, Struct("evs", slots_vars))))
    goal, uses_helper = rewrite_goal(goal, env, set(program.predicates), store)
    goals.append(goal)
    return _conj_fold(goals), uses_helper


def transform_query(text: str, result: TranspileResult) -> str:
    """Rewrite a query for a transpiled program; returns plain query text."""
    store = Store()
    goal, _ = read_query(text, store, allow_evar=True)
    return write_term(rewrite_query(goal, store, result)[0])

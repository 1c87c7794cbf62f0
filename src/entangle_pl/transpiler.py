"""Source-level elimination of ``~Name`` variables.

Every user-defined predicate p/k becomes p/(k+1) with a hidden environment
argument appended.  One table per program (``_names``) gives the name each
call runs under: p/k runs as ``'$ev_p'``/(k+1) where the engine runs
p/(k+1) itself, as a control construct, a builtin or a prelude predicate;
a key the transpiled program defines and the source does not takes the
``$ev_`` name, which stays undefined.  The environment is one compound
``evs/N`` holding a slot per distinct ``~Name`` of the program
(first-occurrence order).  Each clause reads the slots it uses with arg/3
and threads the environment into every user-predicate call.  The output is
plain syntax (no ``~`` tokens) and serves as an independent oracle for the
native engine.

Substitution works by building, not binding: one postfix walk over a clause
(or query) returns it with each ``~Name`` cell replaced by a fresh
``_IV<slot>`` variable and each variable named ``_Env…``, ``_IV…`` or
``_G…`` by a fresh unnamed one, so no source variable captures a
machine-made name; ordinary variables, and subterms holding neither kind,
are shared.  A query's ``~Name`` that no clause holds has no slot: it is a
fresh variable of that query, as no clause can read its cell.  Nothing is
bound, so ``transpile`` writes the rewritten clauses and the oracle runs
them as they are.  Bodies are rewritten with one explicit stack, so the
oracle and ``--transpile`` take programs of any body length or term
depth.  The goal arguments of a control construct are the positions
``engine.CONTROL`` gives, the table the engine dispatches on.  A goal that
converts only when it starts, and every phrase/2,3 goal, runs through a
helper that converts it, and expands a grammar, at run time; the helper
first has call/1 convert the goal behind a fail, so a goal whose
skeleton contains itself raises as it does natively.  The helper's
clauses end every transpiled program, so any query can call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

# perfbench's tracer patches translate_goal here, though nothing calls it
from .dcg import translate_goal  # noqa: F401
from .engine import _BUILTINS, CONTROL, SKELETON, _prelude_clauses, check_clauses, head_key
from .errors import TranspileError
from .kernel import EVar, Store, Struct, Var, deref
from .reader import read_program, read_query, write_clause, write_term

_RESERVED = ("_Env", "_IV", "_G")

# The runtime helper's fixed clauses.  '$call_ev' first has call/1 convert
# the goal behind a fail, so a skeleton that contains itself, or a leaf that
# is not callable, raises the engine's error before any of it runs; it then
# converts the goal, as engine.convert_goal does, and calls it once, so a
# cut in it is local; an unbound goal is called as it is, so it raises.
# '$conv1_ev' converts one construct, and defers the goals of call/1, findall/3, \+ and
# phrase/2,3 to when they start.  No '$conv1_ev' head has a variable first
# argument, so the index picks the one clause a goal can match; a goal that
# none matches is left as it is.
_HELPER_TEXT = """
'$call_ev'(G, E) :- \\+ call((fail, G)), (var(G) -> C = G ; '$conv1_ev'(G, E, C) -> true ; C = G), call(C).
'$conv_ev'(G, E, C) :- var(G) -> C = '$call_ev'(G, E) ; '$conv1_ev'(G, E, C) -> true ; C = G.
'$phrase_ev'(G, S0, S, E) :- '$dcg_body'(G, S0, S, B), '$call_ev'(B, E).
'$conv1_ev'((A, B), E, (C, D)) :- '$conv_ev'(A, E, C), '$conv_ev'(B, E, D).
'$conv1_ev'((A ; B), E, (C ; D)) :- '$conv_ev'(A, E, C), '$conv_ev'(B, E, D).
'$conv1_ev'((A -> B), E, (C -> D)) :- '$conv_ev'(A, E, C), '$conv_ev'(B, E, D).
'$conv1_ev'(\\+ A, E, \\+ '$call_ev'(A, E)).
'$conv1_ev'(call(A), E, '$call_ev'(A, E)).
'$conv1_ev'(findall(T, A, L), E, findall(T, '$call_ev'(A, E), L)).
'$conv1_ev'(phrase(G, L), E, '$phrase_ev'(G, L, [], E)).
'$conv1_ev'(phrase(G, S0, S), E, '$phrase_ev'(G, S0, S, E)).
"""


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
    fresh ``_IV<slot>`` variable, or a fresh unnamed one if ``slots`` has
    no slot for it, and each variable with a reserved name a fresh unnamed
    one, at first occurrence in preorder.  Returns the new terms, a fresh
    ``_Env`` and the arg/3 goals reading the used slots from it, in slot
    order."""
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
            if x.name in slots:
                new[x] = store.new_var(f"_IV{slots[x.name]}")
            elif isinstance(x, EVar) or x.name and x.name.startswith(_RESERVED):
                new[x] = store.new_var()
        out.append(new.get(x, x))
    env = store.new_var("_Env")
    ivs = sorted((slots[c.name], v) for c, v in new.items() if c.name in slots)
    return out, env, [Struct("arg", (slot, env, iv)) for slot, iv in ivs]


@lru_cache(maxsize=1)
def _system():
    """The keys the transpiled engine runs as they are: the control
    constructs, the builtins and the prelude's predicates."""
    return frozenset(CONTROL).union(_BUILTINS, (head_key(c[0]) for c in _prelude_clauses()))


def _names(predicates):
    """The program's naming table: a source key -> the name its calls run
    under and whether they take the environment.  Predicate p/k runs as p,
    or as ``$ev_p`` where ``_system`` holds p/(k+1); the key it runs under
    and each helper key, unless a predicate has it, take the ``$ev_`` name,
    which stays undefined.  Any other call stays as it is."""
    system, predset = _system(), set(predicates)
    names = {}
    for name, arity in predicates:
        own = "$ev_" + name if (name, arity + 1) in system else name
        names[name, arity] = (own, True)
        if (own, arity + 1) not in predset:
            names[own, arity + 1] = ("$ev_" + own, False)
    for key in _helper_keys():
        names.setdefault(key, ("$ev_" + key[0], False))
    return names


def _open(goal):
    """Whether ``goal``'s control skeleton holds a variable, bindings
    followed, so that the goal converts only when it starts."""
    todo = [goal]
    while todo:
        t = deref(todo.pop())
        if isinstance(t, Var):
            return True
        if isinstance(t, Struct) and (t.name, len(t.args)) in SKELETON:
            todo += t.args
    return False


def rewrite_goal(g, env, names):
    """Rename every call of a goal that the naming table ``names`` holds,
    threading ``env`` into a predicate's, on one stack of goals and
    ``(term, positions)`` markers that rebuild a control construct from
    its rewritten goal arguments.  A goal that a call/1, findall/3 or
    ``\\+`` starts, and whose skeleton holds a variable, runs through the
    runtime helper, which converts it when it starts, as ``solve`` does; a
    variable goal of a query is ``call(V)``, as conversion makes it.  A
    phrase/2,3 goal runs through the helper's ``'$phrase_ev'``, which
    expands the grammar when it starts, as ``solve`` does.  Returns the
    rewritten goal."""
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
        # an atom is its own name; an integer meets no rule, and the run raises
        name, args = (t.name, t.args) if type(t) is Struct else (t, ())
        key = (name, len(args))
        positions = CONTROL.get(key)
        if positions and key not in SKELETON and _open(args[positions[0]]):
            (i,) = positions
            goal = Struct("$call_ev", (args[i], env))
            t = goal if name == "call" else Struct(name, args[:i] + (goal,) + args[i + 1 :])
        elif positions:
            todo.append((t, positions))
            todo.extend(args[i] for i in reversed(positions))
            continue
        elif name == "phrase" and len(args) in (2, 3):
            t = Struct("$phrase_ev", args[:2] + (args[2] if len(args) == 3 else "[]", env))
        elif key in names:  # a renamed call without the environment has arguments
            new, threaded = names[key]
            t = Struct(new, args + (env,) if threaded else args)
        done.append(t)
    return done[0]


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
    text empty, and the rewritten ``(head, body)`` clauses, which end with
    the runtime helper's: those of ``_HELPER_TEXT``, then a ``'$conv1_ev'``
    clause per entry of the naming table, which renames the entry's goal as
    ``rewrite_goal`` does.  A program that defines a predicate whose name
    begins with ``$ev_``, or that would join the helper's clauses once
    threaded, raises ``TranspileError``: a renamed call, or the helper's
    own, could reach it."""
    slots = {name: i + 1 for i, name in enumerate(layout)}
    predicates = list(dict.fromkeys(head_key(h) for h, _ in pairs))
    for name, arity in predicates:
        if name.startswith("$ev_") or (name, arity + 1) in _helper_keys():
            raise TranspileError(f"cannot transpile {write_term(name)}/{arity}: " + (
                "names that begin with $ev_ are reserved for renamed calls"
                if name.startswith("$ev_") else "the run-time helper's names are reserved for it"))
    names = _names(predicates)
    out = []
    for head, body in pairs:
        (head, body), env, goals = _substitute(store, slots, (head, body))
        rewritten = rewrite_goal(body, env, names)
        if rewritten != "true":
            goals.append(rewritten)
        # a head is renamed as a call of it is
        out.append((rewrite_goal(head, env, names), _conj_fold(goals) if goals else "true"))
    out += _fixed_helper()
    e = store.new_var("E")
    for name, arity in names:
        vs = tuple(store.new_var(f"V{i + 1}") for i in range(arity))
        goal = Struct(name, vs) if vs else name
        out.append((Struct("$conv1_ev", (goal, e, rewrite_goal(goal, e, names))), "true"))
    return TranspileResult("", layout, predicates), out


@lru_cache(maxsize=1)
def _fixed_helper():
    # shared, as the prelude's clauses are: a stored clause is never bound
    return tuple(read_program(_HELPER_TEXT, Store()))


@lru_cache(maxsize=1)
def _helper_keys():
    return tuple(dict.fromkeys(head_key(head) for head, _ in _fixed_helper()))


def rewrite_query(goal, store: Store, program: TranspileResult):
    """Rewrite a query goal read into ``store`` for ``program``.  Returns
    the rewritten goal."""
    slots = {name: i + 1 for i, name in enumerate(program.layout)}
    (goal,), env, goals = _substitute(store, slots, (goal,))
    if program.layout:
        slots_vars = tuple(store.new_var("_") for _ in program.layout)
        goals.insert(0, Struct("=", (env, Struct("evs", slots_vars))))
    goals.append(rewrite_goal(goal, env, _names(program.predicates)))
    return _conj_fold(goals)


def transform_query(text: str, result: TranspileResult) -> str:
    """Rewrite a query for a transpiled program; returns plain query text."""
    store = Store()
    goal, _ = read_query(text, store, allow_evar=True)
    return write_term(rewrite_query(goal, store, result))

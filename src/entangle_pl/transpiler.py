"""Source-level elimination of ``~Name`` variables.

Every user-defined predicate p/k becomes p/(k+1) with a hidden environment
argument appended; the environment is one compound ``evs/N`` holding a slot
per distinct ``~Name`` of the program (first-occurrence order).  Each
clause reads the slots it uses with arg/3 and threads the environment into
every user-predicate call.  The output is plain syntax (no ``~`` tokens)
and serves as an independent oracle for the native engine.

Substitution works by binding, as the engine's cells do: one read-only walk
over a clause (or query) binds each ``~Name`` cell to a fresh ``_IV<slot>``
variable and each variable named ``_Env…``, ``_IV…`` or ``_G…`` to a fresh
unnamed one, so no source variable captures a machine-made name.  The
rewritten goal and the writer dereference through those bindings, and
``store.undo_to`` unbinds them before the next clause.  Clause bodies are
rewritten with one explicit stack and written whole, so the oracle checks
programs of any body length or term depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dcg import translate_goal
from .engine import check_heads
from .errors import TranspileError
from .kernel import NIL, Atom, EVar, Int, Store, Struct, Var, deref
from .reader import read_program, read_query, write_clause, write_term

_HELPER = "$call_ev"
_RESERVED = ("_Env", "_IV", "_G")


@dataclass
class TranspileResult:
    text: str
    layout: list  # EVar names (with ~) in first-occurrence order
    predicates: list  # (name, arity) of source predicates, definition order


def _conj_fold(goals):
    """Join goals into a right-nested conjunction."""
    acc = goals[-1]
    for g in reversed(goals[:-1]):
        acc = Struct(",", (g, acc))
    return acc


# (name, arity) -> positions of the arguments that are goals to rewrite
_GOAL_ARGS = {
    (",", 2): (0, 1),
    (";", 2): (0, 1),
    ("->", 2): (0, 1),
    ("\\+", 1): (0,),
    ("call", 1): (0,),
    ("findall", 3): (1,),
}


def _bind_cells(store: Store, slots: dict, terms):
    """Substitute by binding: walk ``terms`` in preorder, binding each
    ``~Name`` cell to a fresh ``_IV<slot>`` variable and each variable with
    a reserved name to a fresh unnamed one; a cell bound here is skipped
    when met again.  Returns a fresh ``_Env`` and the arg/3 goals reading
    the used slots from it, in slot order."""
    ivs = {}
    stack = list(reversed(terms))
    while stack:
        x = stack.pop()
        if isinstance(x, Struct):
            stack.extend(reversed(x.args))
        elif isinstance(x, Var) and x.ref is None:
            if isinstance(x, EVar):
                slot = slots.get(x.name)
                if slot is None:
                    raise TranspileError(
                        f"{x.name} does not occur in the program layout"
                    )
                ivs[slot] = store.new_var(f"_IV{slot}")
                store.bind(x, ivs[slot])
            elif x.name and x.name.startswith(_RESERVED):
                store.bind(x, store.new_var())
    env = store.new_var("_Env")
    reads = [Struct("arg", (Int(slot), env, ivs[slot])) for slot in sorted(ivs)]
    return env, reads


def rewrite_goal(g, env, predset, store):
    """Thread ``env`` into every user-predicate call of a goal, on one
    stack of goals and ``(term, positions)`` markers that rebuild a
    control construct from its rewritten goal arguments.  Returns the
    goal and whether it dispatches through the runtime helper."""
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
        if isinstance(t, (Atom, Struct)):
            name = t.name
            args = t.args
            key = (name, len(args))
            if key == ("call", 1) and isinstance(deref(args[0]), Var):
                t = deref(args[0])
            elif key in _GOAL_ARGS:
                positions = _GOAL_ARGS[key]
                todo.append((t, positions))
                todo.extend(args[i] for i in reversed(positions))
                continue
            elif name == "phrase" and len(args) in (2, 3):
                # a variable grammar is expanded at run time, so it
                # must be library-only
                body = deref(args[0])
                if not isinstance(body, Var):
                    s = args[2] if len(args) == 3 else NIL
                    todo.append(translate_goal(body, args[1], s, store))
                    continue
            elif key in predset:
                t = Struct(name, args + (env,))
        if isinstance(t, Var):
            # injected goal: dispatched through the runtime helper
            uses_helper = True
            t = Struct(_HELPER, (t, env))
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
    layout = list(store.evars)  # the reader interns them in text order
    slots = {name: i + 1 for i, name in enumerate(layout)}
    check_heads(h for h, _ in pairs)
    predicates = list(dict.fromkeys((h.name, len(h.args)) for h, _ in pairs))
    predset = set(predicates)

    lines = []
    uses_helper = False
    for head, body in pairs:
        mark = store.mark()
        env, goals = _bind_cells(store, slots, (head, body))
        new_head = Struct(head.name, head.args + (env,))
        rewritten, helper = rewrite_goal(body, env, predset, store)
        uses_helper |= helper
        if not (isinstance(rewritten, Atom) and rewritten.name == "true"):
            goals.append(rewritten)
        new_body = _conj_fold(goals) if goals else Atom("true")
        lines.append(write_clause(new_head, new_body))
        store.undo_to(mark)

    if uses_helper:
        lines.extend(_helper_clauses(store, predicates))

    out = "\n".join(lines)
    if out:
        out += "\n"
    return TranspileResult(out, layout, predicates)


def _helper_clauses(store: Store, predicates) -> list:
    """Dispatch clauses for goals injected at run time.

    An unbound goal must keep raising an instantiation error (a clause-head
    match would quietly enumerate the bridged predicates instead), hence
    the leading var/1 guard.
    """
    lines = []
    g = store.new_var("G")
    guard = _conj_fold(
        [Struct("var", (g,)), Atom("!"), Struct("call", (g,))]
    )
    lines.append(write_clause(Struct(_HELPER, (g, store.new_var("_"))), guard))
    for name, arity in predicates:
        vs = tuple(store.new_var(f"V{i + 1}") for i in range(arity))
        env = store.new_var("E")
        inner = Atom(name) if arity == 0 else Struct(name, vs)
        target = Struct(name, vs + (env,))
        lines.append(
            write_clause(
                Struct(_HELPER, (inner, env)), Struct(",", (Atom("!"), target))
            )
        )
    g2 = store.new_var("G")
    lines.append(
        write_clause(Struct(_HELPER, (g2, store.new_var("_"))), Struct("call", (g2,)))
    )
    return lines


def transform_query(text: str, result: TranspileResult) -> str:
    """Rewrite a query for a transpiled program; returns plain query text."""
    store = Store()
    goal, _ = read_query(text, store, allow_evar=True)
    slots = {name: i + 1 for i, name in enumerate(result.layout)}
    env, reads = _bind_cells(store, slots, (goal,))
    goals = []
    if result.layout:
        slots_vars = tuple(store.new_var("_") for _ in result.layout)
        goals.append(Struct("=", (env, Struct("evs", slots_vars))))
    goals += reads
    goals.append(rewrite_goal(goal, env, set(result.predicates), store)[0])
    return write_term(_conj_fold(goals))

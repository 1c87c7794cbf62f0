"""Source-level elimination of ``~Name`` variables.

Every user-defined predicate p/k becomes p/(k+1) with a hidden environment
argument appended; the environment is one compound ``evs/N`` holding a slot
per distinct ``~Name`` of the program (first-occurrence order).  Each
clause reads the slots it uses with arg/3 and threads the environment into
every user-predicate call.  The output is plain syntax (no ``~`` tokens)
and serves as an independent oracle for the native engine.  Clause bodies
are rewritten with one explicit stack and written whole, so the oracle
checks programs of any body length or term depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dcg import translate_goal
from .errors import TranspileError
from .kernel import NIL, Atom, EVar, Int, Store, Struct, Var, deref
from .reader import read_program, read_query, write_clause, write_term

_HELPER = "$call_ev"
_RESERVED = ("_Env", "_IV")


@dataclass
class TranspileResult:
    text: str
    layout: list  # EVar names (with ~) in first-occurrence order
    predicates: list  # (name, arity) of source predicates, definition order
    uses_helper: bool

    def slot(self, evar_name: str) -> int:
        return self.layout.index(evar_name) + 1


def collect_evars(text: str) -> list:
    """Names of all ~ variables in the program, first-occurrence order."""
    store = Store()
    read_program(text, store, allow_evar=True)
    return list(store.evars)


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


class _Rewriter:
    """Per-program rewriting state shared by clause and query transforms."""

    def __init__(self, store: Store, slots: dict, predset: set):
        self.store = store
        self.slots = slots
        self.predset = predset
        self.uses_helper = False

    def fresh_maps(self):
        return {}, {}  # evar name -> iv Var, reserved-name Var cell -> fresh Var

    def substitute(self, term, ivs: dict, renames: dict):
        """Replace EVars with slot variables and rename captured user vars."""
        out = []
        stack = [term]
        while stack:
            item = stack.pop()
            if type(item) is tuple:
                name, n = item
                args = tuple(out[len(out) - n :])
                del out[len(out) - n :]
                out.append(Struct(name, args))
                continue
            x = deref(item)
            if isinstance(x, EVar):
                iv = ivs.get(x.name)
                if iv is None:
                    slot = self.slots.get(x.name)
                    if slot is None:
                        raise TranspileError(
                            f"{x.name} does not occur in the program layout"
                        )
                    iv = self.store.new_var(f"_IV{slot}")
                    ivs[x.name] = iv
                out.append(iv)
            elif isinstance(x, Var):
                if x.name and x.name.startswith(_RESERVED):
                    fresh = renames.get(x)
                    if fresh is None:
                        fresh = self.store.new_var()
                        renames[x] = fresh
                    out.append(fresh)
                else:
                    out.append(x)
            elif isinstance(x, Struct):
                stack.append((x.name, len(x.args)))
                for i in range(len(x.args) - 1, -1, -1):
                    stack.append(x.args[i])
            else:
                out.append(x)
        return out[0]

    def rewrite_goal(self, g, env):
        """Thread ``env`` into every user-predicate call of a goal, on one
        stack of goals and ``(term, positions)`` markers that rebuild a
        control construct from its rewritten goal arguments."""
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
            if isinstance(t, Struct):
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
                        todo.append(translate_goal(body, args[1], s, self.store))
                        continue
                elif key in self.predset:
                    t = Struct(name, args + (env,))
            if isinstance(t, Var):
                # injected goal: dispatched through the runtime helper
                self.uses_helper = True
                t = Struct(_HELPER, (t, env))
            elif isinstance(t, Atom) and (t.name, 0) in self.predset:
                t = Struct(t.name, (env,))
            done.append(t)
        return done[0]

    def arg_reads(self, env, ivs: dict) -> list:
        used = sorted(ivs.items(), key=lambda kv: self.slots[kv[0]])
        return [
            Struct("arg", (Int(self.slots[name]), env, iv)) for name, iv in used
        ]


def transpile(text: str) -> TranspileResult:
    store = Store()
    pairs = read_program(text, store, allow_evar=True)
    layout = list(store.evars)  # the reader interns them in text order
    slots = {name: i + 1 for i, name in enumerate(layout)}
    predicates = []
    for head, _ in pairs:
        key = (head.name, len(head.args) if isinstance(head, Struct) else 0)
        if key not in predicates:
            predicates.append(key)
    rw = _Rewriter(store, slots, set(predicates))

    lines = []
    for head, body in pairs:
        ivs, renames = rw.fresh_maps()
        h = rw.substitute(head, ivs, renames)
        b = rw.substitute(body, ivs, renames)
        env = store.new_var("_Env")
        if isinstance(h, Atom):
            new_head = Struct(h.name, (env,))
        else:
            new_head = Struct(h.name, h.args + (env,))
        goals = rw.arg_reads(env, ivs)
        rewritten = rw.rewrite_goal(b, env)
        if not (isinstance(rewritten, Atom) and rewritten.name == "true"):
            goals.append(rewritten)
        new_body = _conj_fold(goals) if goals else Atom("true")
        lines.append(write_clause(new_head, new_body))

    if rw.uses_helper:
        lines.extend(_helper_clauses(store, predicates))

    out = "\n".join(lines)
    if out:
        out += "\n"
    return TranspileResult(out, layout, predicates, rw.uses_helper)


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
    rw = _Rewriter(store, slots, set(result.predicates))
    ivs, renames = rw.fresh_maps()
    g = rw.substitute(goal, ivs, renames)
    env = store.new_var("_Env")
    goals = []
    if result.layout:
        slots_vars = tuple(store.new_var("_") for _ in result.layout)
        goals.append(Struct("=", (env, Struct("evs", slots_vars))))
    goals.extend(rw.arg_reads(env, ivs))
    goals.append(rw.rewrite_goal(g, env))
    return write_term(_conj_fold(goals))

"""DCG rule translation and the goal expansion behind phrase/2,3.

A rule ``H --> B`` becomes a plain clause whose head gets two extra
arguments threading the token state; terminal lists become unifications
against the state, ``{G}`` escapes pass G through untouched, and control
constructs (``,``, ``;``, ``->``, ``\\+``, ``!``) are threaded per the
usual DCG scheme.
"""

from __future__ import annotations

from .errors import InstantiationError, PrologSyntaxError, TypeMismatchError
from .kernel import Atom, Int, Struct, TRUE, Var, deref, list_parts, make_list

_NON_NONTERMINAL = frozenset((":-", "-->", ",", ";", "->", "\\+", "{}", "."))


def _conj(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return Struct(",", (a, b))


def _or_true(g):
    return TRUE if g is None else g


def _trans(body, s0, store):
    """Translate one DCG body item; returns (goal or None, end-state term)."""
    b = deref(body)
    if isinstance(b, Var):
        # variable nonterminal: expanded at call time
        s1 = store.new_var()
        return Struct("phrase", (b, s0, s1)), s1
    if isinstance(b, Int):
        raise TypeMismatchError(f"DCG body item is not callable: {b.value}")
    if isinstance(b, Atom):
        if b.name == "[]":
            return None, s0
        if b.name == "!":
            return b, s0
        s1 = store.new_var()
        return Struct(b.name, (s0, s1)), s1
    name = b.name
    args = b.args
    if name == "," and len(args) == 2:
        goals = []
        while isinstance(b, Struct) and b.name == "," and len(b.args) == 2:
            g, s0 = _trans(b.args[0], s0, store)
            goals.append(g)
            b = deref(b.args[1])
        goal, s0 = _trans(b, s0, store)
        for g in reversed(goals):
            goal = _conj(g, goal)
        return goal, s0
    if name == ";" and len(args) == 2:
        # alternatives translate left to right, then fold right to left;
        # each right branch links its end state to its left neighbour's
        alts = []
        while isinstance(b, Struct) and b.name == ";" and len(b.args) == 2:
            alts.append(_trans(b.args[0], s0, store))
            b = deref(b.args[1])
        goal, s_end = _trans(b, s0, store)
        for g, s in reversed(alts):
            if s_end is not s:
                goal = _conj(goal, Struct("=", (s_end, s)))
            goal, s_end = Struct(";", (_or_true(g), _or_true(goal))), s
        return goal, s_end
    if name == "->" and len(args) == 2:
        gc, s1 = _trans(args[0], s0, store)
        gt, s2 = _trans(args[1], s1, store)
        return Struct("->", (_or_true(gc), _or_true(gt))), s2
    if name == "\\+" and len(args) == 1:
        g, _ = _trans(args[0], s0, store)
        return Struct("\\+", (_or_true(g),)), s0
    if name == "{}" and len(args) == 1:
        return args[0], s0
    if name == "." and len(args) == 2:
        items, tail = list_parts(b)
        if not (isinstance(tail, Atom) and tail.name == "[]"):
            raise TypeMismatchError("DCG terminal list must be a proper list")
        s1 = store.new_var()
        return Struct("=", (s0, make_list(items, s1))), s1
    s1 = store.new_var()
    return Struct(name, args + (s0, s1)), s1


def dcg_translate(head, body, store):
    """Translate ``head --> body`` into a plain (head, body) clause pair."""
    h = deref(head)
    if isinstance(h, Var):
        raise PrologSyntaxError("DCG rule head is a variable")
    if isinstance(h, Int):
        raise PrologSyntaxError("DCG rule head is not callable")
    if isinstance(h, Struct) and h.name in _NON_NONTERMINAL:
        raise PrologSyntaxError(f"DCG rule head cannot be {h.name!r}")
    s0 = store.new_var()
    goal, s_end = _trans(body, s0, store)
    if isinstance(h, Atom):
        new_head = Struct(h.name, (s0, s_end))
    else:
        new_head = Struct(h.name, h.args + (s0, s_end))
    return new_head, _or_true(goal)


def translate_goal(body, s0, s, store):
    """Expand a grammar body for phrase/2,3 against the given state terms."""
    b = deref(body)
    if isinstance(b, Var):
        raise InstantiationError("phrase: unbound grammar body")
    goal, s_end = _trans(b, s0, store)
    if s_end is not s:
        goal = _conj(goal, Struct("=", (s_end, s)))
    return _or_true(goal)

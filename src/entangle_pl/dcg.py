"""DCG rule translation and the goal expansion behind phrase/2,3.

A rule ``H --> B`` becomes a plain clause whose head gets two extra
arguments threading the token state; terminal lists become unifications
against the state, ``{G}`` escapes pass G through untouched, and control
constructs (``,``, ``;``, ``->``, ``\\+``, ``!``) are threaded per the
usual DCG scheme.  The translation walks a body with one explicit stack,
so bodies of any length or nesting translate.
"""

from __future__ import annotations

from .errors import InstantiationError, TypeMismatchError
from .kernel import Struct, Var, deref, list_parts, make_list
from .reader import write_term


def _conj(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return Struct(",", (a, b))


def _or_true(g):
    return "true" if g is None else g


def _trans(body, s0, store):
    """Translate a DCG body from state ``s0``; returns (goal or None,
    end-state term).

    One stack holds body items and combine markers ``(construct, state)``,
    and ``s`` is the state the next item starts at.  ``,`` and ``->``
    start the right operand where the left one ended; ``;`` starts both at
    its own state (``(None, state)`` resets ``s``) and links the right end
    to the left one's; ``\\+`` ends where it started.  ``path`` holds the
    constructs whose markers are on the stack: meeting one again means the
    body is cyclic, while a body shared by two branches is left before it
    is met again."""
    todo = [body]
    done = []
    path = set()
    s = s0
    while todo:
        b = todo.pop()
        if type(b) is tuple:
            b, at = b
            if b is None:
                s = at
                continue
            path.remove(b)
            name = b.name
            g, s = done.pop()
            if name == "\\+":
                g, s = Struct(name, (_or_true(g),)), at
            else:
                left, s_left = done.pop()
                if name == ",":
                    g = _conj(left, g)
                elif name == "->":
                    g = Struct(name, (_or_true(left), _or_true(g)))
                else:  # ;
                    if s is not s_left:
                        g = _conj(g, Struct("=", (s, s_left)))
                    g, s = Struct(name, (_or_true(left), _or_true(g))), s_left
            done.append((g, s))
            continue
        b = deref(b)
        if b in path:
            raise TypeMismatchError("DCG body is cyclic")
        # an atom is its own name, with no arguments; a cell or an integer,
        # read the same way, meets none of the constructs
        name, args = (b.name, b.args) if type(b) is Struct else (b, ())
        if len(args) == 2 and name in (",", "->", ";"):
            path.add(b)
            todo += ((b, s), args[1])
            if name == ";":
                todo.append((None, s))
            todo.append(args[0])
            continue
        if name == "\\+" and len(args) == 1:
            path.add(b)
            todo += ((b, s), args[0])
            continue
        if isinstance(b, Var):
            # variable nonterminal: expanded at call time
            s1 = store.new_var()
            g = Struct("phrase", (b, s, s1))
        elif type(b) is int:
            raise TypeMismatchError(f"DCG body item is not callable: {write_term(b)}")
        elif b == "[]":
            g, s1 = None, s
        elif b == "!":
            g, s1 = b, s
        elif name == "{}" and len(args) == 1:
            g, s1 = args[0], s
        elif name == "." and len(args) == 2:
            items, tail = list_parts(b)
            if tail != "[]":
                raise TypeMismatchError("DCG terminal list must be a proper list")
            s1 = store.new_var()
            g = Struct("=", (s, make_list(items, s1)))
        else:
            s1 = store.new_var()
            g = Struct(name, args + (s, s1))
        done.append((g, s1))
        s = s1
    return done[0]


def dcg_translate(head, body, store):
    """Translate ``head --> body`` into a plain (head, body) clause pair.

    The reader has already checked that ``head`` is a nonterminal."""
    h = deref(head)
    name, args = (h.name, h.args) if type(h) is Struct else (h, ())
    s0 = store.new_var()
    goal, s_end = _trans(body, s0, store)
    return Struct(name, args + (s0, s_end)), _or_true(goal)


def translate_goal(args, store):
    """Expand the grammar body of a phrase/2,3 call with arguments ``args``
    against its state arguments; phrase/2 is phrase/3 ending at ``[]``."""
    b = deref(args[0])
    if isinstance(b, Var):
        raise InstantiationError("phrase: unbound grammar body")
    s = args[2] if len(args) == 3 else "[]"
    goal, s_end = _trans(b, args[1], store)
    if s_end is not s:
        goal = _conj(goal, Struct("=", (s_end, s)))
    return _or_true(goal)

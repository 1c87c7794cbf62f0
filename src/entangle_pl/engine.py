"""Depth-first SLD resolution with chronological backtracking, cut,
builtins, and the per-query reset of program-wide variables.

One loop, ``Engine._run``, runs a whole query.  It keeps the current goal
list as a persistent linked stack of ``(term, cut_barrier, rest)`` tuples
and the choice points in a Python list.  A cut barrier is the choice-point
stack height at entry to the predicate the goal belongs to; ``!``
truncates the stack down to it.  No construct re-enters the loop:
``\\+ G`` runs as ``(G -> fail ; true)`` and ``(C -> T)`` as
``(C -> T ; fail)``, whose else branch is a choice point that a marker
goal after ``C`` cuts away; findall/3 copies each solution of its goal at
a marker that then fails, and a choice point below the goal unifies the
collected list.  Every binding is trailed, so abandoning or exhausting a
query undoes all of its work, including bindings of ``~Name`` variables;
that reset is what makes them reusable between queries.

Clauses are selected through an argument index built at first use.  A
call to a predicate of several clauses looks up its first argument that is
bound at an indexable position, one where no clause head holds a variable
(a ``~Name`` cell counts: a query may bind it and the reset unbinds it),
and tries only the clauses with the same principal functor there, in
source order.  The lookup is exact, so the clause choice point goes at the
last candidate and a deterministic call leaves none.  Queries never change
the clause database, so each ``(name, arity, pos)`` table stays valid
until the next consult drops them all.

A clause is renamed from a template compiled at its first try, not by a
generic copy.  The template is postfix code for ``[head, body]``: one slot
per ordinary variable, numbered by first occurrence, so fresh cells get
the serials a copy would give them; subterms without variables are shared,
not rebuilt; and a ``~Name`` cell is kept as the cell itself, read without
``deref``, so a template compiled while a query has the cell bound still
sees that binding and every later one.  Templates live beside the index
and the next consult drops them too.  The instantiator is the module-level
``copy_terms``, called once per clause try and followed by the head
``unify``: that pair is where the benchmark's tracer counts clause tries.
"""

from __future__ import annotations

import operator
import sys
from functools import cmp_to_key, lru_cache, partial
from importlib import resources

from .dcg import translate_goal
from .errors import (
    EvaluationError,
    ExistenceError,
    InstantiationError,
    ResourceLimitError,
    TypeMismatchError,
    nesting_limit,
)
from .kernel import (
    NIL,
    TRUE,
    Atom,
    EVar,
    Int,
    Store,
    Struct,
    Var,
    compare_terms,
    copy_term,
    deref,
    list_parts,
    make_list,
    unify,
)
from .reader import read_program, read_query, write_clause, write_term

_FAIL = object()
_FAIL_GOAL = Atom("fail")


class Solution:
    """Ordered name -> rendered-term-text mapping for one answer."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: dict):
        self.bindings = bindings

    def __getitem__(self, name: str) -> str:
        return self.bindings[name]

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def items(self):
        return self.bindings.items()

    def visible_items(self):
        return [(n, v) for n, v in self.bindings.items() if not n.startswith("_")]

    def __str__(self):
        vis = self.visible_items()
        if not vis:
            return "true"
        return ", ".join(f"{n} = {v}" for n, v in vis)

    def __eq__(self, other):
        if isinstance(other, Solution):
            return self.bindings == other.bindings
        return NotImplemented

    def __repr__(self):
        return f"Solution({self.bindings!r})"


# Goal-stack markers are machine-internal steps: partials of the functions
# below, called as ``marker(engine, cps)``; a false result fails.


def _cut_to(height, e, cps):
    """Commit an if-then-else: drop the else branch and the condition's
    choice points."""
    del cps[height:]
    return True


def _collect(template, acc, e, cps):
    """Copy one findall/3 solution, then fail into the next."""
    acc.append(copy_term(template, e.store))
    return False


def _found_all(acc, result, e, cps):
    return unify(result, make_list(acc), e.store, e.occurs_check)


def _functor_key(t):
    """Principal functor of a non-variable term, as an index key."""
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Int):
        return t.value
    return t.name, len(t.args)


def _arg_table(clauses, pos):
    """Clauses by the principal functor of head argument ``pos``, in source
    order; None when some head has a variable (``~Name`` cells included)
    there."""
    table = {}
    for clause in clauses:
        arg = clause[0].args[pos]
        if isinstance(arg, Var):
            return None
        table.setdefault(_functor_key(arg), []).append(clause)
    return table


def _compile(clause):
    """Template code for a stored ``(head, body)`` clause: its terms in
    postfix, where an int is a slot (one per ordinary variable, numbered by
    first occurrence), ``(name, n)`` builds a Struct from the last ``n``
    values, and anything else is used as it is.  The stored terms are read
    without ``deref``, so a ``~Name`` cell stays a cell even while a query
    has it bound."""
    slots = {}
    code = []
    todo = [clause[1], clause[0]]
    while todo:
        t = todo.pop()
        if type(t) is tuple:  # (compound, start): its arguments' code ends here
            t, start = t
            n = len(t.args)
            if len(code) - start == n and not any(type(c) is int for c in code[start:]):
                code[start:] = (t,)  # no slot below: share the stored subterm
            else:
                code.append((t.name, n))
        elif isinstance(t, EVar):
            code.append(t)
        elif isinstance(t, Var):
            code.append(slots.setdefault(t, len(slots)))
        elif isinstance(t, Struct):
            todo.append((t, len(code)))
            todo.extend(reversed(t.args))
        else:
            code.append(t)
    return code, len(slots)


def copy_terms(template, store):
    """Instantiate a clause template as a fresh ``[head, body]``; the slot
    cells are made in slot order, so their serials match a generic copy's."""
    code, nslots = template
    new_var = store.new_var
    frame = [new_var() for _ in range(nslots)]
    vals = []
    push = vals.append
    for op in code:
        kind = type(op)
        if kind is int:
            push(frame[op])
        elif kind is tuple:
            n = op[1]
            args = tuple(vals[-n:])
            del vals[-n:]
            push(Struct(op[0], args))
        else:
            push(op)
    return vals


class _ClauseCP:
    __slots__ = ("goal", "clauses", "idx", "cont", "mark", "barrier")

    def __init__(self, goal, clauses, idx, cont, mark, barrier):
        self.goal = goal
        self.clauses = clauses
        self.idx = idx
        self.cont = cont
        self.mark = mark
        self.barrier = barrier


class _AltCP:
    __slots__ = ("alt", "alt_barrier", "cont", "mark")

    def __init__(self, alt, alt_barrier, cont, mark):
        self.alt = alt
        self.alt_barrier = alt_barrier
        self.cont = cont
        self.mark = mark


@lru_cache(maxsize=1)
def prelude_text() -> str:
    return resources.files(__package__).joinpath("assumptions.pl").read_text(
        encoding="utf-8"
    )


class Engine:
    def __init__(
        self,
        occurs_check: bool = False,
        unknown_fail: bool = False,
        allow_evars: bool = True,
        load_prelude: bool = True,
        max_frames: int = 1_000_000,
        out=None,
    ):
        self.store = Store()
        # (name, arity) -> [(head, body), ...] in source order; the dict's
        # insertion order is the order listing/1 prints predicates in
        self.db = {}
        # (name, arity, pos) -> _arg_table(...), built at first use
        self._index = {}
        # id(clause) -> _compile(clause), built at its first try; the ids
        # stay unique because self.db keeps every clause alive
        self._templates = {}
        self.occurs_check = occurs_check
        self.unknown_fail = unknown_fail
        self.allow_evars = allow_evars
        self.max_frames = max_frames
        self.out = out
        self._steps = 0
        if load_prelude:
            self.consult_text(prelude_text())

    # --- loading ---------------------------------------------------------

    def consult_text(self, text: str):
        """Parse and add clauses; a parse error adds nothing at all."""
        pairs = read_program(text, self.store, self.allow_evars)
        for head, body in pairs:
            arity = len(head.args) if isinstance(head, Struct) else 0
            self.db.setdefault((head.name, arity), []).append((head, body))
        self._index.clear()
        self._templates.clear()

    def consult_file(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            self.consult_text(fh.read())

    # --- queries ---------------------------------------------------------

    def query(self, text: str):
        """Parse a query and return its lazy solution sequence."""
        goal, varmap = read_query(text, self.store, self.allow_evars)
        return self.solve(goal, varmap)

    def solve(self, goal, varmap=None):
        """Run a goal term; yields eagerly rendered Solutions.

        When the sequence is exhausted or abandoned the trail is undone to
        the query-start mark, so every variable bound by this query (the
        program-wide ones included) is unbound again.
        """
        if varmap is None:
            varmap = {}
        start = self.store.mark()
        self._steps = 0  # frame budget covers the whole solution sequence
        gen = self._run(goal)
        try:
            with nesting_limit():
                for _ in gen:
                    yield Solution(
                        {
                            # argument priority: bare control operators like
                            # ;/2 would be ambiguous in a comma-joined display
                            name: write_term(deref(v), use_names=False, priority=999)
                            for name, v in varmap.items()
                        }
                    )
        finally:
            gen.close()
            self.store.undo_to(start)

    # --- machine ---------------------------------------------------------

    def _run(self, goal):
        store = self.store
        cps = []
        goals = (goal, 0, None)
        failing = False
        while True:
            if failing:
                goals = self._backtrack(cps)
                if goals is _FAIL:
                    return
                failing = False
                continue
            if goals is None:
                yield None
                failing = True
                continue
            term, barrier, rest = goals
            self._steps += 1
            if self._steps > self.max_frames:
                raise ResourceLimitError(
                    f"frame budget exceeded ({self.max_frames})"
                )
            goals = rest
            if type(term) is partial:
                if not term(self, cps):
                    failing = True
                continue
            goal = deref(term)
            if goal is not term and isinstance(term, Var):
                barrier = len(cps)  # metavariable call gets a fresh barrier
            if isinstance(goal, Var):
                raise InstantiationError("unbound variable called as a goal")
            if isinstance(goal, Atom):
                name = goal.name
                args = ()
                arity = 0
            elif isinstance(goal, Struct):
                name = goal.name
                args = goal.args
                arity = len(args)
            else:
                raise TypeMismatchError(
                    f"goal is not callable: {write_term(goal)}"
                )

            if name == "," and arity == 2:
                goals = (args[0], barrier, (args[1], barrier, goals))
                continue
            if name == "true" and arity == 0:
                continue
            if name == "fail" and arity == 0:
                failing = True
                continue
            if name == "!" and arity == 0:
                del cps[barrier:]
                continue
            ite = None
            if name == ";" and arity == 2:
                first = deref(args[0])
                if (
                    isinstance(first, Struct)
                    and first.name == "->"
                    and len(first.args) == 2
                ):
                    ite = first.args + (args[1],)
                else:
                    cps.append(_AltCP(args[1], barrier, goals, store.mark()))
                    goals = (args[0], barrier, goals)
                    continue
            elif name == "->" and arity == 2:
                ite = args + (_FAIL_GOAL,)
            elif name == "\\+" and arity == 1:
                ite = (args[0], _FAIL_GOAL, TRUE)
            if ite is not None:
                cond, then, otherwise = ite
                h = len(cps)
                cps.append(_AltCP(otherwise, barrier, goals, store.mark()))
                commit = (partial(_cut_to, h), 0, (then, barrier, goals))
                goals = (cond, h + 1, commit)
                continue
            if name == "call" and arity == 1:
                g = deref(args[0])
                if isinstance(g, Var):
                    raise InstantiationError("call/1: unbound goal")
                goals = (g, len(cps), goals)
                continue
            if name == "findall" and arity == 3:
                template, subgoal, result = args
                acc = []
                found = partial(_found_all, acc, result)
                cps.append(_AltCP(found, 0, goals, store.mark()))
                goals = (subgoal, len(cps), (partial(_collect, template, acc), 0, None))
                continue
            if name == "phrase" and arity in (2, 3):
                s0 = args[1]
                s = args[2] if arity == 3 else NIL
                g = translate_goal(args[0], s0, s, store)
                goals = (g, len(cps), goals)
                continue
            if name == "listing" and arity == 1:
                self._listing(args[0])
                continue
            builtin = _BUILTINS.get((name, arity))
            if builtin is not None:
                if not builtin(self, args):
                    failing = True
                continue
            clauses = self.db.get((name, arity))
            if clauses is None:
                if self.unknown_fail:
                    failing = True
                    continue
                raise ExistenceError(name, arity)
            if len(clauses) > 1:
                clauses = self._candidates(name, arity, args, clauses)
            cps.append(_ClauseCP(goal, clauses, 0, goals, store.mark(), len(cps)))
            failing = True  # the backtracker drives clause selection

    def _backtrack(self, cps):
        store = self.store
        occ = self.occurs_check
        templates = self._templates
        while cps:
            cp = cps[-1]
            store.undo_to(cp.mark)
            if type(cp) is _AltCP:
                cps.pop()
                return cp.alt, cp.alt_barrier, cp.cont
            clauses = cp.clauses
            idx = cp.idx
            while idx < len(clauses):
                clause = clauses[idx]
                template = templates.get(id(clause))
                if template is None:
                    template = templates[id(clause)] = _compile(clause)
                head, body = copy_terms(template, store)
                idx += 1
                if unify(head, cp.goal, store, occ):
                    cp.idx = idx
                    cont = cp.cont
                    if idx >= len(clauses):
                        cps.pop()
                    if isinstance(body, Atom) and body.name == "true":
                        return cont
                    return body, cp.barrier, cont
            cps.pop()
        return _FAIL

    def _candidates(self, name, arity, args, clauses):
        """The clauses a call with ``args`` can match, as far as the index
        on its first bound, indexable argument tells."""
        index = self._index
        for pos, arg in enumerate(args):
            arg = deref(arg)
            if isinstance(arg, Var):
                continue
            key = (name, arity, pos)
            if key not in index:
                index[key] = _arg_table(clauses, pos)
            table = index[key]
            if table is not None:
                return table.get(_functor_key(arg), ())
        return clauses

    # --- builtin helpers ---------------------------------------------------

    def _out_stream(self):
        return self.out if self.out is not None else sys.stdout

    def _listing(self, spec):
        a = deref(spec)
        if isinstance(a, Var):
            raise InstantiationError("listing/1: unbound argument")
        if isinstance(a, Atom):
            keys = [k for k in self.db if k[0] == a.name]
        elif isinstance(a, Struct) and a.name == "/" and len(a.args) == 2:
            nm = deref(a.args[0])
            ar = deref(a.args[1])
            if not (isinstance(nm, Atom) and isinstance(ar, Int)):
                raise TypeMismatchError("listing/1: expected Name or Name/Arity")
            keys = [(nm.name, ar.value)] if (nm.name, ar.value) in self.db else []
        else:
            raise TypeMismatchError("listing/1: expected Name or Name/Arity")
        out = self._out_stream()
        for key in keys:
            for head, body in self.db[key]:
                out.write(write_clause(head, body) + "\n")

    def _eval(self, t):
        # an explicit stack, so an expression of any depth evaluates; the
        # left operand goes first, so the first error met is the one a
        # recursive left-to-right walk would meet
        todo = [t]
        vals = []
        while todo:
            t = todo.pop()
            if type(t) is tuple:  # (term,): its operands are on vals
                t = t[0]
                n = len(t.args)
                fn = _ARITH.get((t.name, n))
                if fn is None:
                    raise _not_evaluable(t)
                vals[-n:] = (fn(*vals[-n:]),)
                continue
            t = deref(t)
            if isinstance(t, Int):
                vals.append(t.value)
            elif isinstance(t, Var):
                raise InstantiationError("arithmetic: unbound variable")
            elif isinstance(t, Struct) and len(t.args) == 2:
                todo += ((t,), t.args[1], t.args[0])
            elif isinstance(t, Struct) and len(t.args) == 1 and t.name == "-":
                todo += ((t,), t.args[0])
            else:
                raise _not_evaluable(t)
        return vals[0]


# --- deterministic builtins ------------------------------------------------


def _int_div(x, y):
    if y == 0:
        raise EvaluationError("division by zero")
    q = abs(x) // abs(y)
    return q if (x < 0) == (y < 0) else -q


def _int_mod(x, y):
    if y == 0:
        raise EvaluationError("division by zero")
    return x % y


def _not_evaluable(t):
    return EvaluationError(f"unknown arithmetic expression: {write_term(t)}")


# (name, arity) -> integer function, for is/2 and the comparisons
_ARITH = {
    ("+", 2): operator.add,
    ("-", 2): operator.sub,
    ("*", 2): operator.mul,
    ("/", 2): _int_div,
    ("mod", 2): _int_mod,
    ("-", 1): operator.neg,
}


def _bi_unify(e: Engine, args):
    return unify(args[0], args[1], e.store, e.occurs_check)


def _bi_not_unify(e: Engine, args):
    store = e.store
    mark = store.mark()
    if unify(args[0], args[1], store, e.occurs_check):
        store.undo_to(mark)
        return False
    return True


def _bi_var(e: Engine, args):
    return isinstance(deref(args[0]), Var)


def _bi_nonvar(e: Engine, args):
    return not isinstance(deref(args[0]), Var)


def _bi_is(e: Engine, args):
    return unify(args[0], Int(e._eval(args[1])), e.store, e.occurs_check)


def _bi_compare(op, e: Engine, args):
    return op(e._eval(args[0]), e._eval(args[1]))


def _bi_term_compare(op, e: Engine, args):
    return op(compare_terms(args[0], args[1]), 0)


def _bi_arg(e: Engine, args):
    n = deref(args[0])
    t = deref(args[1])
    if isinstance(n, Var) or isinstance(t, Var):
        raise InstantiationError("arg/3: underinstantiated")
    if not isinstance(n, Int):
        raise TypeMismatchError("arg/3: index must be an integer")
    if not isinstance(t, Struct):
        raise TypeMismatchError("arg/3: second argument must be compound")
    i = n.value
    if 1 <= i <= len(t.args):
        return unify(args[2], t.args[i - 1], e.store, e.occurs_check)
    return False


def _bi_functor(e: Engine, args):
    t = deref(args[0])
    if isinstance(t, Struct):
        return unify(args[1], Atom(t.name), e.store, e.occurs_check) and unify(
            args[2], Int(len(t.args)), e.store, e.occurs_check
        )
    if isinstance(t, (Atom, Int)):
        return unify(args[1], t, e.store, e.occurs_check) and unify(
            args[2], Int(0), e.store, e.occurs_check
        )
    name = deref(args[1])
    arity = deref(args[2])
    if isinstance(name, Var) or isinstance(arity, Var):
        raise InstantiationError("functor/3: underinstantiated")
    if not isinstance(arity, Int) or arity.value < 0:
        raise TypeMismatchError("functor/3: arity must be a non-negative integer")
    if arity.value == 0:
        if isinstance(name, (Atom, Int)):
            return unify(t, name, e.store, e.occurs_check)
        raise TypeMismatchError("functor/3: name must be atomic")
    if not isinstance(name, Atom):
        raise TypeMismatchError("functor/3: name must be an atom")
    fresh = tuple(e.store.new_var() for _ in range(arity.value))
    return unify(t, Struct(name.name, fresh), e.store, e.occurs_check)


def _bi_copy_term(e: Engine, args):
    return unify(args[1], copy_term(args[0], e.store), e.store, e.occurs_check)


def _bi_sort(e: Engine, args):
    items, tail = list_parts(args[0])
    if isinstance(tail, Var):
        raise InstantiationError("sort/2: list is not fully instantiated")
    if not (isinstance(tail, Atom) and tail.name == "[]"):
        raise TypeMismatchError("sort/2: first argument must be a proper list")
    ordered = sorted(items, key=cmp_to_key(compare_terms))
    deduped = []
    for x in ordered:
        if not deduped or compare_terms(deduped[-1], x) != 0:
            deduped.append(x)
    return unify(args[1], make_list(deduped), e.store, e.occurs_check)


_BUILTINS = {
    ("=", 2): _bi_unify,
    ("\\=", 2): _bi_not_unify,
    ("==", 2): partial(_bi_term_compare, operator.eq),
    ("\\==", 2): partial(_bi_term_compare, operator.ne),
    ("var", 1): _bi_var,
    ("nonvar", 1): _bi_nonvar,
    ("is", 2): _bi_is,
    ("<", 2): partial(_bi_compare, operator.lt),
    (">", 2): partial(_bi_compare, operator.gt),
    ("=<", 2): partial(_bi_compare, operator.le),
    (">=", 2): partial(_bi_compare, operator.ge),
    ("=:=", 2): partial(_bi_compare, operator.eq),
    ("=\\=", 2): partial(_bi_compare, operator.ne),
    ("arg", 3): _bi_arg,
    ("functor", 3): _bi_functor,
    ("copy_term", 2): _bi_copy_term,
    ("sort", 2): _bi_sort,
}

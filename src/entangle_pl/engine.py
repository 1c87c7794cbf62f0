"""Depth-first SLD resolution with chronological backtracking, cut,
builtins, and the per-query reset of program-wide variables.

One generator, ``Engine.solve``, runs a whole query and backtracks
inline.  It keeps the current goal list as a persistent linked stack of
``(term, cut_barrier, rest)`` tuples and the choice points in a Python
list.  A choice point is a tuple ``(mark, goals)`` for an alternative,
which resumes the goal node ``goals``, or a list ``[mark, goal, clauses,
next_idx, cont, barrier]`` for the clauses of a call not yet tried.  A cut
barrier is the choice-point stack height at entry to the predicate the
goal belongs to; ``!`` truncates the stack down to it.  No construct
re-enters the loop: ``\\+ G`` runs as ``(G -> fail ; true)`` and
``(C -> T)`` as ``(C -> T ; fail)``, whose else branch is a choice point
that a ``!`` carrying the construct's height drops when ``C`` succeeds;
findall/3 copies each solution of its goal at a marker goal that then
fails, and a choice point below the goal unifies the collected list.
Every binding is trailed, so abandoning or exhausting a query undoes all
of its work, including bindings of ``~Name`` variables; that reset is what
makes them reusable between queries.

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
sees that binding and every later one.  A clause record is the list
``[head, body, template]``; the template is stored there at the first try
and kept across consults.  ``try_clause`` calls the module-level
``copy_terms`` and then the head ``unify``: that pair is where the
benchmark's tracer counts clause tries.

The prelude is read once per process, into a store of its own, and every
engine appends the same clause records, templates included, to its own
predicate lists.  That sharing is safe because a stored clause is never
bound: each try renames it from a template.  The prelude is read with
``~`` syntax off, so no ``~Name`` cell can be shared between engines.
"""

from __future__ import annotations

import operator
from functools import cmp_to_key, lru_cache, partial
from importlib import resources

from .dcg import translate_goal
from .errors import (
    EvaluationError,
    ExistenceError,
    InstantiationError,
    PrologError,
    ResourceLimitError,
    TypeMismatchError,
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

_FAIL_GOAL = Atom("fail")
_CUT = Atom("!")


class Solution(dict):
    """Ordered name -> rendered-term-text mapping for one answer; query
    variables whose names start with ``_`` are left out."""

    def __str__(self):
        if not self:
            return "true"
        return ", ".join(f"{n} = {v}" for n, v in self.items())


# findall/3's two goal-stack markers are machine-internal steps: partials of
# the functions below, called as ``marker(engine, cps)``; a false result
# fails.


def _collect(template, acc, e, cps):
    """Copy one findall/3 solution, then fail into the next."""
    acc.append(copy_term(template, e.store))
    return False


def _found_all(acc, result, e, cps):
    return unify(result, make_list(acc), e.store)


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
    """Template code for a stored ``[head, body, _]`` clause: its terms in
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


def try_clause(clause, goal, store):
    """Rename a clause, compiling its template at the first try, and unify
    its head with ``goal``: the renamed body, or None on a mismatch."""
    template = clause[2]
    if template is None:
        template = clause[2] = _compile(clause)
    head, body = copy_terms(template, store)
    return body if unify(head, goal, store) else None


def prelude_text() -> str:
    return resources.files(__package__).joinpath("assumptions.pl").read_text(
        encoding="utf-8"
    )


@lru_cache(maxsize=1)
def _prelude_clauses() -> tuple:
    """The prelude's clause records, shared by every engine."""
    pairs = read_program(prelude_text(), Store(), allow_evar=False)
    return tuple([head, body, None] for head, body in pairs)


class Engine:
    def __init__(
        self,
        occurs_check: bool = False,
        unknown_fail: bool = False,
        allow_evars: bool = True,
        load_prelude: bool = True,
        max_frames: int = 1_000_000,
    ):
        self.store = Store(occurs_check)
        # (name, arity) -> [[head, body, template], ...] in source order;
        # the dict's insertion order is the order listing/1 prints them in
        self.db = {}
        # (name, arity, pos) -> _arg_table(...), built at first use
        self._index = {}
        self.unknown_fail = unknown_fail
        self.allow_evars = allow_evars
        self.max_frames = max_frames
        if load_prelude:
            self._add(_prelude_clauses())

    # --- loading ---------------------------------------------------------

    def consult_text(self, text: str):
        """Parse and add clauses; a parse error, or a clause for a predicate
        the engine runs itself, adds nothing at all."""
        pairs = read_program(text, self.store, self.allow_evars)
        check_heads(head for head, _ in pairs)
        self._add([[head, body, None] for head, body in pairs])

    def _add(self, clauses):
        for clause in clauses:
            head = clause[0]
            self.db.setdefault((head.name, len(head.args)), []).append(clause)
        self._index.clear()

    # --- queries ---------------------------------------------------------

    def query(self, text: str):
        """Parse a query and return its lazy solution sequence."""
        goal, varmap = read_query(text, self.store, self.allow_evars)
        return self.solve(goal, varmap)

    def solve(self, goal, varmap):
        """Run a goal term; yields eagerly rendered Solutions.

        When the sequence is exhausted or abandoned the trail is undone to
        the query-start mark, so every variable bound by this query (the
        program-wide ones included) is unbound again.
        """
        store = self.store
        shown = [(n, v) for n, v in varmap.items() if not n.startswith("_")]
        max_frames = self.max_frames
        # A choice point is either an alternative, the tuple (mark, goals)
        # whose goals node resumes after undoing to mark, or a clause choice
        # point, the list [mark, goal, clauses, next_idx, cont, barrier].
        cps = []
        goals = (goal, 0, None)
        failing = False
        steps = 0  # the frame budget covers the whole solution sequence
        start = store.mark()
        try:
            while True:
                if failing:
                    if not cps:
                        return
                    cp = cps[-1]
                    store.undo_to(cp[0])
                    if type(cp) is tuple:
                        cps.pop()
                        goals = cp[1]
                        failing = False
                        continue
                    _, goal, clauses, idx, cont, barrier = cp
                    while idx < len(clauses):
                        body = try_clause(clauses[idx], goal, store)
                        idx += 1
                        if body is not None:
                            break
                    else:
                        cps.pop()
                        continue
                    if idx < len(clauses):
                        cp[3] = idx
                    else:
                        cps.pop()
                    failing = False
                    if isinstance(body, Atom) and body.name == "true":
                        goals = cont
                    else:
                        goals = (body, barrier, cont)
                    continue
                if goals is None:
                    yield Solution(
                        {
                            # argument priority: bare control operators like
                            # ;/2 would be ambiguous in a comma-joined display
                            name: write_term(v, use_names=False, priority=999)
                            for name, v in shown
                        }
                    )
                    failing = True
                    continue
                term, barrier, rest = goals
                steps += 1
                if steps > max_frames:
                    raise ResourceLimitError(f"frame budget exceeded ({max_frames})")
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
                if not isinstance(goal, (Atom, Struct)):
                    raise TypeMismatchError(f"goal is not callable: {write_term(goal)}")
                name = goal.name
                args = goal.args
                arity = len(args)

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
                        cps.append((store.mark(), (args[1], barrier, goals)))
                        goals = (args[0], barrier, goals)
                        continue
                elif name == "->" and arity == 2:
                    ite = args + (_FAIL_GOAL,)
                elif name == "\\+" and arity == 1:
                    ite = (args[0], _FAIL_GOAL, TRUE)
                if ite is not None:
                    cond, then, otherwise = ite
                    h = len(cps)
                    cps.append((store.mark(), (otherwise, barrier, goals)))
                    goals = (cond, h + 1, (_CUT, h, (then, barrier, goals)))
                    continue
                if name == "call" and arity == 1:
                    goals = (args[0], len(cps), goals)
                    continue
                if name == "findall" and arity == 3:
                    template, subgoal, result = args
                    acc = []
                    found = partial(_found_all, acc, result)
                    cps.append((store.mark(), (found, 0, goals)))
                    collect = partial(_collect, template, acc)
                    goals = (subgoal, len(cps), (collect, 0, None))
                    continue
                if name == "phrase" and arity in (2, 3):
                    s0 = args[1]
                    s = args[2] if arity == 3 else NIL
                    g = translate_goal(args[0], s0, s, store)
                    goals = (g, len(cps), goals)
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
                cps.append([store.mark(), goal, clauses, 0, goals, len(cps)])
                failing = True  # backtracking drives clause selection
        finally:
            store.undo_to(start)

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
    return unify(args[0], args[1], e.store)


def _bi_not_unify(e: Engine, args):
    store = e.store
    mark = store.mark()
    if unify(args[0], args[1], store):
        store.undo_to(mark)
        return False
    return True


def _bi_var(e: Engine, args):
    return isinstance(deref(args[0]), Var)


def _bi_nonvar(e: Engine, args):
    return not isinstance(deref(args[0]), Var)


def _bi_is(e: Engine, args):
    return unify(args[0], Int(e._eval(args[1])), e.store)


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
        return unify(args[2], t.args[i - 1], e.store)
    return False


def _bi_functor(e: Engine, args):
    t = deref(args[0])
    if isinstance(t, Struct):
        return unify(args[1], Atom(t.name), e.store) and unify(
            args[2], Int(len(t.args)), e.store
        )
    if isinstance(t, (Atom, Int)):
        return unify(args[1], t, e.store) and unify(args[2], Int(0), e.store)
    name = deref(args[1])
    arity = deref(args[2])
    if isinstance(name, Var) or isinstance(arity, Var):
        raise InstantiationError("functor/3: underinstantiated")
    if not isinstance(arity, Int) or arity.value < 0:
        raise TypeMismatchError("functor/3: arity must be a non-negative integer")
    if arity.value == 0:
        if isinstance(name, (Atom, Int)):
            return unify(t, name, e.store)
        raise TypeMismatchError("functor/3: name must be atomic")
    if not isinstance(name, Atom):
        raise TypeMismatchError("functor/3: name must be an atom")
    fresh = tuple(e.store.new_var() for _ in range(arity.value))
    return unify(t, Struct(name.name, fresh), e.store)


def _bi_copy_term(e: Engine, args):
    return unify(args[1], copy_term(args[0], e.store), e.store)


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
    return unify(args[1], make_list(deduped), e.store)


def _bi_listing(e: Engine, args):
    a = deref(args[0])
    if isinstance(a, Var):
        raise InstantiationError("listing/1: unbound argument")
    if isinstance(a, Atom):
        keys = [k for k in e.db if k[0] == a.name]
    elif isinstance(a, Struct) and a.name == "/" and len(a.args) == 2:
        nm = deref(a.args[0])
        ar = deref(a.args[1])
        if not (isinstance(nm, Atom) and isinstance(ar, Int)):
            raise TypeMismatchError("listing/1: expected Name or Name/Arity")
        keys = [(nm.name, ar.value)] if (nm.name, ar.value) in e.db else []
    else:
        raise TypeMismatchError("listing/1: expected Name or Name/Arity")
    for key in keys:
        for head, body, _ in e.db[key]:
            print(write_clause(head, body))
    return True


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
    ("listing", 1): _bi_listing,
}

# (name, arity) of the control constructs ``solve`` runs before the database;
# the reader already refuses ``,``, ``;``, ``->`` and ``\+`` heads
_CONTROL = frozenset({("true", 0), ("fail", 0), ("!", 0), ("call", 1),
                      ("findall", 3), ("phrase", 2), ("phrase", 3)})


def check_heads(heads):
    """Refuse a clause for a predicate ``solve`` would never look up."""
    for head in heads:
        key = (head.name, len(head.args))
        if key in _CONTROL or key in _BUILTINS:
            raise PrologError(f"cannot redefine {key[0]}/{key[1]}")

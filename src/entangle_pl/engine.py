"""Depth-first SLD resolution with chronological backtracking, cut,
builtins, and the per-query reset of program-wide variables.

One generator, ``Engine.solve``, runs a whole query and backtracks inline.
It keeps the current goal list as a persistent linked stack of ``(term,
cut_barrier, rest)`` tuples and the choice points in a Python list.  Every
choice point is the tuple ``(mark, young, goals)``: backtracking pops it,
undoes the trail to ``mark`` and resumes the goal node ``goals``, and
``young`` is the allocation mark when it was pushed.  The clauses of a
call not yet tried resume as a retry node, a goal node whose term is the
tuple ``(goal, clauses, i)``.  A call's first try and a retry reach the
one clause try, which, before clause ``i`` runs, pushes the retry node of
clause ``i + 1`` if there is one: Warren's try, retry and trust as one
rule, so a call's last clause runs under no choice point of its own.  A cut
barrier is the choice-point stack height at entry to the predicate the goal
belongs to; ``!`` truncates the stack down to it.  No construct re-enters
the loop: ``\\+ G`` runs as ``(G -> fail ; true)`` and ``(C -> T)`` as
``(C -> T ; fail)``, whose else branch is a choice point that a ``!``
carrying the construct's height drops when ``C`` succeeds; findall/3
copies each solution of its goal at a marker goal, called as
``marker(engine)``, that then fails, and a choice point below the goal
unifies the collected list.
A variable goal is the metacall case: it gets a fresh cut barrier.
``CONTROL`` lists the control constructs and their goal arguments; the
transpiler rewrites goals through the same table.  Every binding of a cell
older than the store's young mark is trailed (Warren's conditional
trailing): ``solve`` keeps the mark at the allocation mark of the newest
choice point, or of the query's start when none is left, so a binding the
next backtrack must undo is always trailed, and every cell made before the
query, the ``~Name`` cells among them, is always old.  So abandoning or
exhausting a query undoes all of its work, including bindings of ``~Name``
variables; that reset is what makes them reusable between queries.  A cut
that drops choice points also drops the trail entries above them that the
lowered mark no longer asks for.

A goal is checked for callability once, where it enters the machine, not
at each step: ``check_clauses`` checks each clause body at consult (and
the prelude's), ``solve`` checks its query before the first step, and a
metacall, call/1, findall/3 and phrase/2,3 check their goal when they
start (the transpiler, which expands phrase/2,3 in place, wraps an
expansion that fails the check in call/1, and leaves a grammar it cannot
expand to phrase).  A ``(C -> T)`` that ``;`` finds through a bound
variable was bound after any of these checks, so it is checked where it is
found.  Every goal ``solve`` dispatches is then a variable, which takes the
checked metacall branch, or a part of a checked control skeleton.

A cell lives as long as whoever holds it.  The store's registry holds
only the cells whose owners outlive a query: clause cells, ``~Name``
cells, and the variables of a goal its caller read itself, as the oracle
does.  ``query`` reads its goal and takes the goal's variables straight
out of the registry again, since only the query reaches them; a ``~Name``
it names first stays, as the store keeps it interned.  A cell made while
a query runs is young, so it is not registered, and it is trailed only
while a choice point made after it is left: a deterministic loop's cells
die as it leaves them, and one long query runs in flat memory.  Nothing
outside the query can reach them: clause records hold read terms, and
answers are rendered text.  Between two answers, and once the query ends,
the store is back in its outside-query state, so a consult between
answers registers its cells.  A ``~Name`` it interns is younger than the
query's marks, but ``Store.bind`` trails every ``~Name`` cell.  A read
that raises, of a query or of a program, drops the cells and ``~Name``
interns it made.  An engine's memory stays flat across queries.
Two open ``solve`` generators on one store are unsupported: resuming one
after the other has backtracked past its marks trips the assertion in
``Store.undo_to``.

Clauses are selected through an argument index built at first use.  A
call to a predicate of several clauses looks up its first argument that is
bound at an indexable position, one where no clause head holds a variable
(a ``~Name`` cell counts: a query may bind it and the reset unbinds it),
and tries only the clauses with the same principal functor there, in
source order.  The lookup is exact, so a call left with one candidate
pushes no choice point at all (Warren's rule that only a call with
alternatives gets one), and a call left with none fails at once.
Queries never change the clause database, so each ``(name, arity, pos)``
table stays valid until the next consult drops them all.

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
benchmark's tracer counts clause tries, and ``solve`` calls it from one
place.

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
    OUTSIDE,
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

# the default frame budget of a query, for the engine and the CLI alike
MAX_FRAMES = 1_000_000

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
# the functions below, called as ``marker(engine)``; a false result fails.


def _collect(template, acc, e):
    """Copy one findall/3 solution, then fail into the next."""
    acc.append(copy_term(template, e.store))
    return False


def _found_all(acc, result, e):
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
    cells are made in slot order, in one ``Store.new_vars`` call, so their
    serials match a generic copy's."""
    code, nslots = template
    frame = store.new_vars(nslots)
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


def _read_checked(text, store, allow_evars):
    """Read a program and check its clauses: what a consult reads."""
    pairs = read_program(text, store, allow_evars)
    check_clauses(pairs)
    return pairs


def prelude_text() -> str:
    return resources.files(__package__).joinpath("assumptions.pl").read_text(
        encoding="utf-8"
    )


@lru_cache(maxsize=1)
def _prelude_clauses() -> tuple:
    """The prelude's clause records, shared by every engine."""
    pairs = _read_checked(prelude_text(), Store(), allow_evars=False)
    return tuple([head, body, None] for head, body in pairs)


class Engine:
    def __init__(
        self,
        occurs_check: bool = False,
        unknown_fail: bool = False,
        allow_evars: bool = True,
        load_prelude: bool = True,
        max_frames: int = MAX_FRAMES,
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
        """Parse, add and return ``(head, body)`` clauses; a parse error, a
        clause for a predicate the engine runs itself, or a body that is not
        callable adds nothing at all, not even a cell or a ``~Name``."""
        pairs = self._read(_read_checked, text)
        self._add([[head, body, None] for head, body in pairs])
        return pairs

    def _read(self, read, text):
        """``read(text, store, allow_evars)``; when it raises, the cells and
        ``~Name`` interns it made leave the store again."""
        store = self.store
        born, interned = len(store.cells), len(store.evars)
        try:
            return read(text, store, self.allow_evars)
        except BaseException:
            del store.cells[born:]
            for name in list(store.evars)[interned:]:
                del store.evars[name]
            raise

    def _add(self, clauses):
        for clause in clauses:
            head = clause[0]
            self.db.setdefault((head.name, len(head.args)), []).append(clause)
        self._index.clear()

    # --- queries ---------------------------------------------------------

    def query(self, text: str):
        """Parse a query and return its lazy solution sequence.  The goal's
        variables are the query's own, so they leave the registry at once:
        only a ``~Name`` the query named first stays.  A query that fails to
        parse leaves nothing."""
        cells = self.store.cells
        born = len(cells)
        goal, varmap = self._read(read_query, text)
        cells[born:] = [c for c in cells[born:] if type(c) is EVar]
        return self.solve(goal, varmap)

    def solve(self, goal, varmap):
        """Run a goal term; yields eagerly rendered Solutions.

        When the sequence is exhausted or abandoned the trail is undone to
        the query-start mark, so every variable older than the query that
        it bound (the program-wide ones included) is unbound again; the
        cells it made itself were never registered, and nothing holds them
        once it ends.  A goal that is not callable raises before the first
        step.
        """
        check_goal(goal)
        store = self.store
        shown = [(n, v) for n, v in varmap.items() if not n.startswith("_")]
        max_frames = self.max_frames
        # A choice point is the tuple (mark, young, goals): its goals node
        # resumes after undoing to mark.  The clauses of a call not yet
        # tried come back as a retry node, a goal node whose term is the
        # tuple (goal, clauses, i); the store's young mark is the newest
        # choice point's young, or base when there is none.
        cps = []
        goals = (goal, 0, None)
        failing = False
        steps = 0  # the frame budget covers the whole solution sequence
        trail = store.trail
        start = len(trail)
        base = store.young = store.allocated
        try:
            while True:
                if failing:
                    if not cps:
                        return
                    mark, _, goals = cps.pop()
                    store.undo_to(mark)
                    store.young = cps[-1][1] if cps else base
                    failing = False
                if goals is None:
                    store.young = OUTSIDE  # between answers, as after the query
                    yield Solution(
                        {
                            # argument priority: bare control operators like
                            # ;/2 would be ambiguous in a comma-joined display
                            name: write_term(v, use_names=False, priority=999)
                            for name, v in shown
                        }
                    )
                    store.young = cps[-1][1] if cps else base
                    failing = True
                    continue
                term, barrier, goals = goals
                kind = type(term)
                if kind is tuple:  # a retry node costs no frame
                    goal, clauses, i = term
                else:
                    steps += 1
                    if steps > max_frames:
                        raise ResourceLimitError(f"frame budget exceeded ({max_frames})")
                    if kind is partial:
                        if not term(self):
                            failing = True
                        continue
                    goal = term
                    if isinstance(goal, Var):  # a metacall, with a fresh barrier
                        goal = deref(goal)
                        if isinstance(goal, Var):
                            raise InstantiationError("unbound variable called as a goal")
                        check_goal(goal)
                        barrier = len(cps)
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
                        if len(cps) > barrier:
                            mark = cps[barrier][0]
                            del cps[barrier:]
                            store.young = cps[-1][1] if cps else base
                            store.tidy(mark)
                        continue
                    ite = None
                    if name == ";" and arity == 2:
                        first = deref(args[0])
                        if (
                            isinstance(first, Struct)
                            and first.name == "->"
                            and len(first.args) == 2
                        ):
                            if first is not args[0]:  # bound since it was checked
                                check_goal(first)
                            ite = first.args + (args[1],)
                        else:
                            store.young = store.allocated
                            cps.append(
                                (len(trail), store.young, (args[1], barrier, goals))
                            )
                            goals = (args[0], barrier, goals)
                            continue
                    elif name == "->" and arity == 2:
                        ite = args + (_FAIL_GOAL,)
                    elif name == "\\+" and arity == 1:
                        ite = (args[0], _FAIL_GOAL, TRUE)
                    if ite is not None:
                        cond, then, otherwise = ite
                        h = len(cps)
                        store.young = store.allocated
                        cps.append((len(trail), store.young, (otherwise, barrier, goals)))
                        goals = (cond, h + 1, (_CUT, h, (then, barrier, goals)))
                        continue
                    if name == "call" and arity == 1:
                        check_goal(args[0])
                        goals = (deref(args[0]), len(cps), goals)
                        continue
                    if name == "findall" and arity == 3:
                        template, subgoal, result = args
                        check_goal(subgoal)
                        acc = []
                        found = partial(_found_all, acc, result)
                        store.young = store.allocated
                        cps.append((len(trail), store.young, (found, 0, goals)))
                        collect = partial(_collect, template, acc)
                        goals = (deref(subgoal), len(cps), (collect, 0, None))
                        continue
                    if name == "phrase" and arity in (2, 3):
                        g = translate_goal(args, store)
                        check_goal(g)
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
                        if not clauses:
                            failing = True
                            continue
                    i = 0
                # The one clause try, for a call's first clause and for each
                # retry: clause i's body cuts back to the height below the
                # alternative that clause i + 1 leaves, if there is one.
                barrier = len(cps)
                if i < len(clauses) - 1:
                    store.young = store.allocated
                    retry = ((goal, clauses, i + 1), 0, goals)
                    cps.append((len(trail), store.young, retry))
                body = try_clause(clauses[i], goal, store)
                if body is None:
                    failing = True
                elif not (isinstance(body, Atom) and body.name == "true"):
                    goals = (body, barrier, goals)
        finally:
            store.undo_to(start)
            store.young = OUTSIDE

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
        # recursive left-to-right walk would meet.  ``path`` holds the
        # compounds whose operands are being evaluated: meeting one again
        # means the expression is cyclic, while a subterm shared by two
        # operands is left before it is met again
        todo = [t]
        vals = []
        path = set()
        while todo:
            t = todo.pop()
            if type(t) is tuple:  # (term,): its operands are on vals
                t = t[0]
                path.remove(t)
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
            elif t in path:
                raise TypeMismatchError("arithmetic: cyclic expression")
            elif isinstance(t, Struct) and len(t.args) == 2:
                path.add(t)
                todo += ((t,), t.args[1], t.args[0])
            elif isinstance(t, Struct) and len(t.args) == 1 and t.name == "-":
                path.add(t)
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
    # the one builtin that undoes a unify itself: it raises the young mark
    # so that the unify trails every binding it makes, even on failure
    store = e.store
    young, store.young = store.young, store.allocated
    mark = store.mark()
    unified = unify(args[0], args[1], store)
    store.undo_to(mark)
    store.young = young
    return not unified


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

# (name, arity) of each control construct ``solve`` runs before the database
# -> the positions of its goal arguments, the ones the transpiler rewrites.
# A grammar body is not a goal.
CONTROL = {
    (",", 2): (0, 1), (";", 2): (0, 1), ("->", 2): (0, 1), ("\\+", 1): (0,),
    ("call", 1): (0,), ("findall", 3): (1,), ("true", 0): (), ("fail", 0): (),
    ("!", 0): (), ("phrase", 2): (), ("phrase", 3): (),
}

# The constructs a metacall's check walks into.  CONTROL's positions also
# reach into call/1 and findall/3, but their goals are checked when they
# start, so ``call((fail, call(1)))`` fails, as in ISO.
_SKELETON = frozenset({(",", 2), (";", 2), ("->", 2), ("\\+", 1)})


def check_goal(goal):
    """The one callability rule: raise a type error at the first leaf of a
    goal's control skeleton that is neither a variable nor callable.  It
    runs where a goal enters ``solve`` (see the module docstring), so
    ``solve`` itself tests no goal; a compound already walked is skipped,
    so a cyclic goal is walked once."""
    todo = [goal]
    seen = set()
    while todo:
        t = deref(todo.pop())
        if isinstance(t, Struct) and (t.name, len(t.args)) in _SKELETON:
            if t not in seen:
                seen.add(t)
                todo.extend(reversed(t.args))
        elif not isinstance(t, (Var, Atom, Struct)):
            raise TypeMismatchError(f"goal is not callable: {write_term(t)}")


def check_clauses(pairs):
    """Refuse a ``(head, body)`` clause for a predicate ``solve`` would
    never look up, or one whose body is not callable; a fact's body is the
    shared ``TRUE``, which needs no walk."""
    for head, body in pairs:
        key = (head.name, len(head.args))
        if key in CONTROL or key in _BUILTINS:
            raise PrologError(f"cannot redefine {key[0]}/{key[1]}")
        if body is not TRUE:
            check_goal(body)

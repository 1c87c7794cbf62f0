"""Depth-first SLD resolution with chronological backtracking, cut,
builtins, and the per-query reset of program-wide variables.

One generator, ``Engine.solve``, runs a whole query and backtracks inline.
It keeps the current goal list as a persistent linked stack of ``(term,
cut_barrier, rest)`` tuples and the choice points in a Python list.  Every
choice point is the tuple ``(mark, young, goals)``: backtracking pops it,
undoes the trail to ``mark``, restores the young mark ``young`` that it
found when pushed, and resumes the goal node ``goals``.  The clauses of a
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
``CONTROL`` lists the control constructs and their goal arguments; the
transpiler rewrites goals through the same table.  A call's name is
tested once against the names in ``CONTROL``; any other call, and a
control name at another arity (``call/2``, ``true/1``), goes on to one
``(name, arity)`` key, looked up in the builtins and then the index, so a
user call costs one set test and one key.  Every binding of a cell
older than the store's young mark is trailed (Warren's conditional
trailing): ``solve`` keeps the mark at the allocation mark of the newest
choice point, or of the query's start when none is left, so a binding the
next backtrack must undo is always trailed, and every cell made before the
query, the ``~Name`` cells among them, is always old.  So abandoning or
exhausting a query undoes all of its work, including bindings of ``~Name``
variables; that reset is what makes them reusable between queries.  A cut
that drops choice points also drops the trail entries above them that the
lowered mark no longer asks for.

A goal is converted once, where it enters the machine, as ISO/IEC
13211-1 §7.6.2 converts a term to a goal (``convert_goal``): each variable
of its control skeleton (``,``, ``;`` and ``->``) becomes ``call(V)``, and
a leaf that is not callable raises.  ``check_clauses`` converts each clause
body at consult (and the prelude's), where a ``~Name`` cell stays a cell,
so ``p :- ~Gate.`` is stored as ``p :- call(~Gate).``; ``solve`` converts
its query before the first step; and call/1, findall/3, phrase/2,3 and
``\\+``, a built-in predicate outside the skeleton, convert their goal
when they start, following bindings.  A phrase/2,3 goal is a call of its
grammar's expansion: it shares call/1's branch, so a ``!`` in the grammar
cuts only the expansion, and the transpiler's helper calls the expansion
that the ``'$dcg_body'`` builtin gives it.  No variable then reaches
``solve``'s dispatch, and a bound cell runs exactly as its value does,
under the cut barrier of the construct that started it.

A cell lives as long as whoever holds it.  The store keeps no list of
cells; it holds only the ``~Name`` cells it interns.  Clause records hold
their clauses' cells, the solution sequence ``query`` returns holds its
goal's, and a caller that reads a goal itself, as the oracle does, holds
that goal's.  A cell made while a query runs is young, and it is trailed
only while a choice point made after it is left: a deterministic loop's
cells die as it leaves them, and one long query runs in flat memory.
Nothing outside the query can reach them: clause records hold read terms,
and answers are rendered text.  A consult between two answers may intern
a ``~Name`` younger than the query's marks, but ``Store.bind`` trails
every ``~Name`` cell.  The store interns a ``~Name`` only when a consult
that names it passes; a query's own ``~Name``, one the store has not
interned, is a cell of that query alone.  So an engine's memory stays
flat across queries.
The open ``solve`` generators of one store nest last in, first out: one
that resumes or ends while newer ones are open abandons them, as its
undo removes their bindings, and an abandoned one raises when resumed
and undoes nothing when closed.

Clauses are selected through an index entry per predicate, made at its
first call, as a WAM's ``switch_on_term`` selects (Warren, SRI TN 309,
1983).  The entry is the clause list when it has one clause or no
indexable position, one where no clause head holds a variable (a ``~Name``
cell counts: a query may bind it and the reset unbinds it), and otherwise
``select(args)``, one closure over a table per such position, which tests
them in order and, at the first bound one, returns the clauses with the
same principal functor there, read by exact type, in source order.  The
lookup is exact, so a call left with one candidate pushes no choice point
(Warren's rule that only a call with alternatives gets one), and a call
left with none fails at once.  An entry depends only on its predicate's
clause list, which queries never change, so it stays valid until a consult
adds to that predicate and drops it.  A consult gives each predicate it
touches a new list, so a call suspended between answers keeps the clauses
it started with (ISO's logical update view).

Every clause, facts and atom heads included, is tried by head code made
at its first try, not by a generic copy and unify.  ``_compile`` walks
the clause's ``[head, body]`` once, in postfix, and writes its shape and
its constants as it goes: one slot per ordinary variable, numbered by
first occurrence, so fresh cells get the serials a copy would give them;
a subterm with no variable, unless it is the head, is shared; and a
``~Name`` cell is kept as the cell itself, read without ``deref``, so
head code made while a query has the cell bound still sees that binding
and every later one.  Atoms, integers, functor names (operands, as in a
WAM's ``get_structure``), shared subterms and ``~Name`` cells are the
constants, and the rest, the clause's structure, is its shape.  Each shape
has one factory, generated as Python source that holds only integers and
made once per process, in a bounded cache (see Bolz, Leuschel and
Schneider-Kamp, PPDP 2010, on specializing a Prolog written in Python);
called with a clause's constants, it returns the clause's head code,
straight-line code that takes the frame's serials from the store, matches
the head against the goal, and builds one compound per statement.  So 10k
facts of one form, or clauses of one structure whatever their names, share
one factory, and a term of any depth compiles to code of no depth.
The head code reads the goal, as a WAM head reads its argument registers
(Aït-Kaci, *Warren's Abstract Machine: A Tutorial Reconstruction*, 1991):
a head variable is the goal's own argument, or its own subterm where the
goal holds the head's functor (read mode), and otherwise a fresh cell with
the serial a copy would give it (write mode).  Only once every head
variable has its term does it bind, pair by pair in the order ``unify``
would meet them, last argument first and depth first, so it matches
where a head built and then unified would, with the same answers as
infinite terms.  A cyclic answer may print its ``...`` at another depth:
head code holds the goal's own cell where a built head holds a fresh one,
and a repeated head variable may bind the goal's cells in another order.
A head compound is built only in write mode, and the body only once the
head has matched, never as one term: head code pushes one goal node per
conjunct onto the goal list it is given, last first, as continuation
passing runs a body (Tarau, BinProlog, PLILP 1992), so ``solve`` spends no
step on a body's ``,``, and a ``true`` conjunct, a fact's body too, pushes
nothing.
``_source`` gives the rules.  A clause record is the list ``[head, body,
builder]``; the head code is stored there at the first try and kept
across consults.  ``try_clause`` calls the module-level ``copy_terms``,
which runs the head code, and then the head ``unify``, which accepts the
goal that the head code returns on a match in its first identity test:
that pair is where the benchmark's tracer counts clause tries, and
``solve`` calls it from one place.  The head code's own unifications call
``kernel.unify``, which no tracer counts as a try.

The prelude is read once per process, into a store of its own, and every
engine appends the same clause records, builders included, to its own
predicate lists.  That sharing is safe because a stored clause is never
bound: each try runs its head code, which binds only the goal's cells and
the cells it makes.  The prelude is read with
``~`` syntax off, so no ``~Name`` cell can be shared between engines.
"""

from __future__ import annotations

import operator
from functools import cmp_to_key, lru_cache, partial
from importlib import resources

from . import kernel
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
    Atom,
    EVar,
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


def _selection(clauses):
    """What ``Engine._index`` holds for a predicate's clauses: the list
    itself when it has one clause, no arguments or no indexable position,
    else its ``select(args)``.  A position is indexable when no head holds
    a variable there (``~Name`` cells included); its table maps a principal
    functor, read by exact type, to the clauses with it, in source order:
    an atom (a ``str``) or an integer is its own key, so ``'1'`` and ``1``
    stay apart, and a compound's is ``(name, arity)``.  ``select`` returns
    the first bound position's entry, or ``()``; ``clauses`` if none is."""
    if len(clauses) == 1 or type(clauses[0][0]) is Atom:
        return clauses
    heads = [clause[0].args for clause in clauses]
    tables = []
    for pos in range(len(heads[0])):
        if any(isinstance(args[pos], Var) for args in heads):
            continue
        table = {}
        for clause, args in zip(clauses, heads):
            t = args[pos]
            key = (t.name, len(t.args)) if type(t) is Struct else t
            table.setdefault(key, []).append(clause)
        tables.append((pos, table))
    if not tables:
        return clauses

    def select(args):
        for pos, table in tables:
            x = args[pos]
            kind = type(x)
            while (kind is Var or kind is EVar) and x.ref is not None:
                x = x.ref
                kind = type(x)
            if kind is Struct:
                return table.get((x.name, len(x.args)), ())
            if kind is Atom or kind is int:
                return table.get(x, ())
        return clauses
    return select


def _deref(x, term):
    """Source lines that set ``x`` to ``term`` dereferenced, inline."""
    return [f"{x} = {term}", f"while isinstance({x}, Var) and {x}.ref is not None: {x} = {x}.ref"]


def _compile(clause):
    """The head code of a stored ``[head, body, _]`` clause.  The body is
    taken apart into its conjuncts, left to right, with its ``,`` skeleton
    and its ``true`` conjuncts left out.  One postfix walk of the head and
    the conjuncts writes the clause's shape and its constants side by
    side: in the shape an int is a slot (one per ordinary variable,
    numbered by first occurrence), ``(n,)`` builds a Struct named by the
    next constant from the last ``n`` values, and None takes the next
    constant, which is a name, an atom, an integer, a ``~Name`` cell or a
    subterm other than the head with no slot below.  The stored terms are
    read without ``deref``, so a ``~Name`` cell stays a cell even while a
    query has it bound.  The head code comes from the shape's factory,
    called with the constants."""
    conjuncts = []
    todo = [clause[1]]
    while todo:
        t = todo.pop()
        if type(t) is Struct and t.name == "," and len(t.args) == 2:
            todo += t.args[::-1]
        elif t != "true":
            conjuncts.append(t)
    slots = {}
    shape = []
    consts = []
    todo = conjuncts[::-1] + [clause[0]]
    while todo:
        t = todo.pop()
        if type(t) is tuple:  # (compound, start, cstart): its arguments end here
            t, start, cstart = t
            # no slot below, and not the head, which head code matches: share it
            if len(consts) - cstart == len(shape) - start and t is not clause[0]:
                shape[start:] = (None,)
                consts[cstart:] = (t,)
            else:  # its name is the constant after its arguments
                shape.append((len(t.args),))
                consts.append(t.name)
        elif type(t) is Var:  # an ordinary variable; a ~Name cell is a constant
            shape.append(slots.setdefault(t, len(slots)))
        elif isinstance(t, Struct):
            todo.append((t, len(shape), len(consts)))
            todo.extend(reversed(t.args))
        else:
            shape.append(None)
            consts.append(t)
    return _factory(tuple(shape), len(slots))(*consts)


def _expr(node):
    """The expression ``_source`` names a node of a clause's tree by: a
    slot's ``vk``, a constant's ``cj`` or a compound's ``ti``."""
    if type(node) is int:
        return f"v{node}"
    if type(node) is str:
        return node
    return f"t{node[2]}"


def _source(shape, nslots):
    """Python source of a shape's factory, ``make(c0, c1, ...)``, which
    returns the clause's head code ``build(goal, store, bar, rest)``:
    straight-line code that reserves ``nslots`` serials, matches the head
    against the goal, and builds one Struct per statement, so no term depth
    nests in the source.  The shape is the head's, then each body
    conjunct's.  It calls no ``deref``: a goal term is followed inline.

    First, binding nothing, each slot ``k`` gets its term ``vk``.  Walking
    the head's arguments left to right, a slot first met as head argument
    ``i`` is the goal's argument ``i``.  A compound head argument ``i``
    dereferences the goal's argument once, to ``di``, and sets ``ri`` when
    ``di`` has its functor (read mode); a slot first met as its argument is
    then ``di``'s argument, else (write mode) a fresh cell.  Every other
    slot is a fresh cell with serial ``allocated + k``.  Then the pairs
    ``unify`` would meet are matched in its order, last argument first and
    depth first, and a slot meeting its own goal term is skipped.  An atom
    or an integer constant ``cj`` binds an unbound goal cell, or is
    compared with one ``x != kj``: its key ``kj``, set when ``make`` runs,
    is the constant itself, an atom's ``str`` or an ``int``, so ``'1'`` and
    ``1`` stay apart, and None for any other constant.  A repeated slot, a
    ``~Name`` cell, a shared subterm and a compound below a head argument
    go to ``unify``.  A read-mode compound matches its arguments so; a
    write-mode one is built and bound to the goal's argument dereferenced
    again, since an earlier pair may have bound it, through ``unify`` where
    that is a term or the occurs check is on.  A miss returns ``MISS``.  A
    match builds the conjuncts and pushes each onto the goal list ``rest``
    as the goal node ``(conjunct, bar, rest)``, last first and one
    statement each, and returns ``[goal, rest]``; an atom head, already
    matched by the call's ``(name, arity)`` lookup, does so at once.  The
    goal's own term is always safe to take: a body's control skeleton holds
    no variable once converted (see ``convert_goal``), and a goal converts
    as its bound cell would.  Only integers enter the source; the
    constants, functor names among them, are the factory's arguments."""
    # the clause's tree, rebuilt from the postfix shape: slot k is k,
    # constant j is the str "cj" that names it, and a compound is (its
    # name's "cj", args, its index in builds, the index of the first build
    # of its subtree); no term enters the tree, so a str node is never an atom
    builds = []
    stack = []
    nconsts = 0
    for op in shape:
        if type(op) is int:
            stack.append(op)
        elif op is None:
            stack.append(f"c{nconsts}")
            nconsts += 1
        else:  # a compound (n,), whose name is the constant after its arguments
            name, n = f"c{nconsts}", op[0]
            nconsts += 1
            args = stack[len(stack) - n :]
            del stack[len(stack) - n :]
            b = len(builds)
            stack.append((name, args, b, next((a[3] for a in args if type(a) is tuple), b)))
            builds.append(f"Struct({name}, ({''.join(_expr(a) + ', ' for a in args)}))")
    head, *body = stack

    def built(node):  # a compound's statements, its subterms' first
        return [f"t{b} = {builds[b]}" for b in range(node[3], node[2] + 1)]

    args = head[1] if type(head) is tuple else ()
    terms = {}  # slot -> its term, where the goal gives it
    home = {}  # slot -> the goal term it is, where it is one
    reads = []
    for i, arg in enumerate(args):
        if type(arg) is int and arg not in terms:
            terms[arg] = home[arg] = f"g[{i}]"
        elif type(arg) is tuple:
            reads += _deref(f"d{i}", f"g[{i}]") + [f"r{i} = type(d{i}) is Struct and "
                      f"d{i}.name == {arg[0]} and len(d{i}.args) == {len(arg[1])}"]
            for j, k in enumerate(arg[1]):
                if type(k) is int and k not in terms:
                    home[k] = f"d{i}.args[{j}]"
                    terms[k] = f"{home[k]} if r{i} else Var(a + {k})"
    keys = []
    match = []

    def pair(node, goal, pad):
        if type(node) is int:
            if home.get(node) != goal:
                match.append(f"{pad}if not unify(v{node}, {goal}, store): return MISS")
        elif type(node) is str:
            k = "k" + node[1:]
            keys.append(f"{k} = {node} if type({node}) is Atom or type({node}) is int else None")
            match.extend(pad + line for line in _deref("x", goal) + [
                f"if {k} is None:",
                f"    if not unify({node}, x, store): return MISS",
                f"elif isinstance(x, Var): store.bind(x, {node})",
                f"elif x != {k}: return MISS"])
        else:
            match.extend(pad + line for line in built(node))
            match.append(f"{pad}if not unify(t{node[2]}, {goal}, store): return MISS")

    for i in reversed(range(len(args))):
        arg = args[i]
        if type(arg) is not tuple:
            pair(arg, f"g[{i}]", "")
            continue
        start = len(match)
        match.append(f"if r{i}:")
        for j in reversed(range(len(arg[1]))):
            pair(arg[1][j], f"d{i}.args[{j}]", "    ")
        if len(match) == start + 1:
            match[start] = f"if not r{i}:"
        else:
            match.append("else:")
        match.extend("    " + line for line in built(arg))
        match += ["    " + line for line in _deref("x", f"g[{i}]")]
        match += [f"    if isinstance(x, Var) and not store.occurs_check: store.bind(x, t{arg[2]})",
                  f"    elif not unify(t{arg[2]}, x, store): return MISS"]
    lines = ["a = store.allocated", f"store.allocated = a + {nslots}"] if nslots else []
    if args:
        lines.append("g = goal.args")
    lines += reads
    lines += [f"v{k} = {terms.get(k, f'Var(a + {k})')}" for k in range(nslots)]
    lines += match
    lines += [f"t{b} = {builds[b]}" for b in range(head[2] + 1 if args else 0, len(builds))]
    lines += [f"rest = ({_expr(node)}, bar, rest)" for node in reversed(body)]
    params = ", ".join(f"c{j}" for j in range(nconsts))
    return "".join(
        [f"def make({params}):\n"]
        + [f"    {line}\n" for line in keys]
        + ["    def build(goal, store, bar, rest):\n"]
        + [f"        {line}\n" for line in lines]
        + ["        return [goal, rest]\n"
           "    return build\n"]
    )


# what head code returns on a miss: a head that ``unify`` refuses against
# any callable goal in one type test
_MISS = (0, None)


@lru_cache(maxsize=1024)
def _factory(shape, nslots):
    """The factory of a clause shape, made once per process from source
    that holds only integers; the cache is bounded, and a clause keeps the
    builder it was given.  Its head code calls ``kernel.unify``, not this
    module's name, which a tracer wraps."""
    scope = {"Atom": Atom, "Var": Var, "Struct": Struct, "unify": kernel.unify, "MISS": _MISS}
    exec(compile(_source(shape, nslots), "<clause shape>", "exec"), scope)
    return scope["make"]


def copy_terms(build, goal, store, bar, rest):
    """Run a clause's head code on ``goal``: ``[goal, goals]`` with the
    head's bindings made, where ``goals`` is the goal list ``rest`` with
    the renamed body's conjuncts pushed under cut barrier ``bar``, or
    ``MISS``.  A fresh cell gets serial ``allocated + k``, as a generic
    copy would."""
    return build(goal, store, bar, rest)


def try_clause(clause, goal, store, bar, rest):
    """Try a clause on ``goal``, making its head code at the first try:
    the goal list ``rest`` with the renamed body's conjuncts pushed, or
    ``MISS`` on a mismatch.  The head ``unify`` accepts the goal itself in
    one identity test and refuses ``MISS`` in one type test."""
    build = clause[2]
    if build is None:
        build = clause[2] = _compile(clause)
    head, goals = copy_terms(build, goal, store, bar, rest)
    return goals if unify(head, goal, store) else _MISS


def _read_checked(text, store, allow_evars):
    """Read a program and check its clauses: what a consult reads.  The
    ``~Name`` cells new to the store are interned only once both pass."""
    evars = {}
    pairs = check_clauses(read_program(text, store, allow_evars, evars))
    store.evars.update(evars)
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
        # (name, arity) -> [[head, body, builder], ...] in source order;
        # the dict's insertion order is the order listing/1 prints them in
        self.db = {}
        # (name, arity) -> _selection(clauses), made at the first call
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
        pairs = _read_checked(text, self.store, self.allow_evars)
        self._add([[head, body, None] for head, body in pairs])
        return pairs

    def _add(self, clauses):
        groups = {}  # a new list per predicate: the logical update view
        for clause in clauses:
            groups.setdefault(head_key(clause[0]), []).append(clause)
        for key, group in groups.items():
            self.db[key] = self.db.get(key, []) + group
            self._index.pop(key, None)

    # --- queries ---------------------------------------------------------

    def query(self, text: str):
        """Parse a query and return its lazy solution sequence; only the
        sequence holds the goal's variables.  A query that fails to parse
        leaves nothing."""
        goal, varmap = read_query(text, self.store, self.allow_evars)
        return self.solve(goal, varmap)

    def solve(self, goal, varmap):
        """Run a goal term; yields eagerly rendered Solutions.

        When the sequence is exhausted or closed the trail is undone to
        the query-start mark, so every variable older than the query that
        it bound (the program-wide ones included) is unbound again; nothing
        holds the cells it made itself once it ends.  The goal is converted
        (``convert_goal``) before the first step, so one that is not
        callable raises before any answer.
        """
        goal = convert_goal(goal, True)
        store = self.store
        shown = [(n, v) for n, v in varmap.items() if not n.startswith("_")]
        max_frames = self.max_frames
        db = self.db
        index = self._index
        # A choice point is the tuple (mark, young, goals): its goals node
        # resumes after undoing to mark, under the young mark it found.
        # The clauses of a call not yet tried come back as a retry node, a
        # goal node whose term is the tuple (goal, clauses, i).
        cps = []
        goals = (goal, 0, None)
        failing = False
        steps = 0  # the frame budget covers the whole solution sequence
        trail = store.trail
        start = len(trail)
        store.young = store.allocated
        queries = store.queries
        query = object()
        queries.append(query)
        try:
            while True:
                if failing:
                    if not cps:
                        return
                    mark, young, goals = cps.pop()
                    store.undo_to(mark)
                    store.young = young
                    failing = False
                if goals is None:
                    yield Solution(
                        {
                            # argument priority: bare control operators like
                            # ;/2 would be ambiguous in a comma-joined display
                            name: write_term(v, use_names=False, priority=999)
                            for name, v in shown
                        }
                    )
                    if not queries or queries[-1] is not query:  # not the newest open query
                        if query not in queries:
                            raise PrologError("query abandoned: an older one resumed or ended")
                        del queries[queries.index(query) + 1:]
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
                    if kind is Struct:
                        name = goal.name
                        args = goal.args
                    else:  # an atom
                        name = goal
                        args = ()
                    arity = len(args)
                    if name in _CONTROL_NAMES:
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
                                mark, store.young, _ = cps[barrier]
                                del cps[barrier:]
                                store.tidy(mark)
                            continue
                        ite = None
                        if name == ";" and arity == 2:
                            first = args[0]
                            if type(first) is Struct and first.name == "->" and len(first.args) == 2:
                                ite = first.args + (args[1],)
                            else:
                                cps.append((len(trail), store.young, (args[1], barrier, goals)))
                                store.young = store.allocated
                                goals = (args[0], barrier, goals)
                                continue
                        elif name == "->" and arity == 2:
                            ite = args + ("fail",)
                        elif name == "\\+" and arity == 1:
                            ite = (convert_goal(args[0], True), "fail", "true")
                        if ite is not None:
                            cond, then, otherwise = ite
                            h = len(cps)
                            cps.append((len(trail), store.young, (otherwise, barrier, goals)))
                            store.young = store.allocated
                            goals = (cond, h + 1, ("!", h, (then, barrier, goals)))
                            continue
                        if name == "call" and arity == 1 or name == "phrase" and arity in (2, 3):
                            g = args[0] if arity == 1 else translate_goal(args, store)
                            goals = (convert_goal(g, True), len(cps), goals)
                            continue
                        if name == "findall" and arity == 3:
                            template, subgoal, result = args
                            subgoal = convert_goal(subgoal, True)
                            acc = []
                            found = partial(_found_all, acc, result)
                            cps.append((len(trail), store.young, (found, 0, goals)))
                            store.young = store.allocated
                            collect = partial(_collect, template, acc)
                            goals = (subgoal, len(cps), (collect, 0, None))
                            continue
                    key = (name, arity)
                    builtin = _BUILTINS.get(key)
                    if builtin is not None:
                        if not builtin(self, args):
                            failing = True
                        continue
                    clauses = index.get(key)
                    if clauses is None:
                        clauses = db.get(key)
                        if clauses is None:
                            if self.unknown_fail:
                                failing = True
                                continue
                            raise ExistenceError(name, arity)
                        clauses = index[key] = _selection(clauses)
                    if type(clauses) is not list:
                        clauses = clauses(args)
                        if not clauses:
                            failing = True
                            continue
                    i = 0
                # The one clause try, for a call's first clause and for each
                # retry: clause i's body cuts back to the height below the
                # alternative that clause i + 1 leaves, if there is one.
                barrier = len(cps)
                if i < len(clauses) - 1:
                    retry = ((goal, clauses, i + 1), 0, goals)
                    cps.append((len(trail), store.young, retry))
                    store.young = store.allocated
                goals = try_clause(clauses[i], goal, store, barrier, goals)
                if goals is _MISS:
                    failing = True
        finally:
            if query in queries:  # an abandoned query undoes nothing
                del queries[queries.index(query):]
                store.undo_to(start)
                store.young = OUTSIDE

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
            if type(t) is int:
                vals.append(t)
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
    return unify(args[0], e._eval(args[1]), e.store)


def _bi_compare(op, e: Engine, args):
    return op(e._eval(args[0]), e._eval(args[1]))


def _bi_term_compare(op, e: Engine, args):
    return op(compare_terms(args[0], args[1]), 0)


def _bi_arg(e: Engine, args):
    n = deref(args[0])
    t = deref(args[1])
    if isinstance(n, Var) or isinstance(t, Var):
        raise InstantiationError("arg/3: underinstantiated")
    if type(n) is not int:
        raise TypeMismatchError("arg/3: index must be an integer")
    if not isinstance(t, Struct):
        raise TypeMismatchError("arg/3: second argument must be compound")
    if 1 <= n <= len(t.args):
        return unify(args[2], t.args[n - 1], e.store)
    return False


def _bi_functor(e: Engine, args):
    t = deref(args[0])
    if isinstance(t, Struct):
        return unify(args[1], t.name, e.store) and unify(args[2], len(t.args), e.store)
    if type(t) is Atom or type(t) is int:
        return unify(args[1], t, e.store) and unify(args[2], 0, e.store)
    name = deref(args[1])
    arity = deref(args[2])
    if isinstance(name, Var) or isinstance(arity, Var):
        raise InstantiationError("functor/3: underinstantiated")
    if type(arity) is not int or arity < 0:
        raise TypeMismatchError("functor/3: arity must be a non-negative integer")
    if arity == 0:
        if type(name) is Atom or type(name) is int:
            return unify(t, name, e.store)
        raise TypeMismatchError("functor/3: name must be atomic")
    if type(name) is not Atom:
        raise TypeMismatchError("functor/3: name must be an atom")
    if arity > e.max_frames:  # one cell per argument: bounded by the frame budget
        raise ResourceLimitError(f"functor/3: arity exceeds the frame budget ({e.max_frames})")
    fresh = tuple(e.store.new_var() for _ in range(arity))
    return unify(t, Struct(name, fresh), e.store)


def _bi_copy_term(e: Engine, args):
    return unify(args[1], copy_term(args[0], e.store), e.store)


def _bi_sort(e: Engine, args):
    items, tail = list_parts(args[0])
    if isinstance(tail, Var):
        raise InstantiationError("sort/2: list is not fully instantiated")
    if tail != "[]":
        raise TypeMismatchError("sort/2: first argument must be a proper list")
    ordered = sorted(items, key=cmp_to_key(compare_terms))
    deduped = []
    for x in ordered:
        if not deduped or compare_terms(deduped[-1], x) != 0:
            deduped.append(x)
    return unify(args[1], make_list(deduped), e.store)


def _bi_dcg_body(e: Engine, args):
    # phrase/3's grammar expansion as a term, for the transpiler's helper
    return unify(args[3], translate_goal(args[:3], e.store), e.store)


def _bi_listing(e: Engine, args):
    a = deref(args[0])
    if isinstance(a, Var):
        raise InstantiationError("listing/1: unbound argument")
    if type(a) is Atom:
        keys = [k for k in e.db if k[0] == a]
    elif isinstance(a, Struct) and a.name == "/" and len(a.args) == 2:
        nm = deref(a.args[0])
        ar = deref(a.args[1])
        if not (type(nm) is Atom and type(ar) is int):
            raise TypeMismatchError("listing/1: expected Name or Name/Arity")
        keys = [(nm, ar)] if (nm, ar) in e.db else []
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
    ("$dcg_body", 4): _bi_dcg_body,
}

# (name, arity) of each control construct ``solve`` runs before the database
# -> the positions of its goal arguments, the ones the transpiler rewrites.
# A grammar body is not a goal.
CONTROL = {
    (",", 2): (0, 1), (";", 2): (0, 1), ("->", 2): (0, 1), ("\\+", 1): (0,),
    ("call", 1): (0,), ("findall", 3): (1,), ("true", 0): (), ("fail", 0): (),
    ("!", 0): (), ("phrase", 2): (), ("phrase", 3): (),
}
# the names ``solve`` tests before anything else; a call to any other name
# goes straight to the builtins and the database
_CONTROL_NAMES = frozenset(name for name, _ in CONTROL)

# ISO's control skeleton: the constructs a goal's conversion walks into.
# ``\+`` is a built-in predicate, and call/1 and findall/3 convert their
# goals when they start, so ``fail, \+ 1`` and ``call((fail, call(1)))``
# fail, as in ISO.
SKELETON = frozenset({(",", 2), (";", 2), ("->", 2)})


def convert_goal(goal, run):
    """ISO's conversion of a term to a goal (13211-1 §7.6.2), the one rule
    where a goal enters the machine: each variable of the goal's control
    skeleton becomes ``call(V)``, and a leaf that is not callable, or a
    skeleton that contains itself, is a type error.  With ``run`` the goal
    is about to start: bindings are followed, so a bound cell runs exactly
    as its value does, and an unbound goal is an instantiation error.
    Without it (a clause body at consult) a ``~Name`` cell stays a cell.
    Returns ``goal`` itself when nothing changes; a compound met twice is
    converted once."""
    if run:
        goal = deref(goal)
        if isinstance(goal, Var):
            raise InstantiationError("unbound variable called as a goal")
    if type(goal) is Atom or type(goal) is Struct and (goal.name, len(goal.args)) not in SKELETON:
        return goal
    todo = [goal]
    done = []
    made = {}  # compound -> its conversion, or None until its arguments have theirs
    while todo:
        t = todo.pop()
        if type(t) is tuple:  # (compound,): its two converted arguments end done
            t = t[0]
            a, b = done[-2:]
            new = made[t] = t if a is t.args[0] and b is t.args[1] else Struct(t.name, (a, b))
            done[-2:] = (new,)
            continue
        if run:
            t = deref(t)
        if isinstance(t, Var):
            done.append(Struct("call", (t,)))
        elif type(t) is Struct and (t.name, len(t.args)) in SKELETON:
            if t not in made:
                made[t] = None
                todo += ((t,), t.args[1], t.args[0])
            elif made[t] is None:
                raise TypeMismatchError("goal is cyclic")
            else:
                done.append(made[t])
        elif type(t) is Atom or type(t) is Struct:
            done.append(t)
        else:
            raise TypeMismatchError(f"goal is not callable: {write_term(t)}")
    return done[0]


def head_key(head):
    """The ``(name, arity)`` key of a clause head."""
    return (head, 0) if type(head) is Atom else (head.name, len(head.args))


def check_clauses(pairs):
    """The ``(head, body)`` clauses with their bodies converted; a clause
    for a predicate ``solve`` would never look up, or one whose body is not
    callable, raises."""
    out = []
    for head, body in pairs:
        key = head_key(head)
        if key in CONTROL or key in _BUILTINS:
            raise PrologError(f"cannot redefine {key[0]}/{key[1]}")
        out.append((head, convert_goal(body, False)))
    return out

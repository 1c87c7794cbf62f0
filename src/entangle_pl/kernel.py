"""Term kernel: term types, binding store, trail, unification, term copying
and the standard order of terms.

A term is an atom, a ``Struct``, a ``Var`` or ``EVar`` cell, or an
integer.  The constants are immediate, as a WAM's are: an atom is its
name, a plain ``str`` (``Atom`` names the type), and an integer a plain
``int``, each tested by exact type, so that a ``bool`` is never a term,
and compared by value in one step.  Terms are immutable except for
variable cells.  A ``Var`` is a single
assignment cell: ``ref`` is None while unbound and is written exactly once
per binding epoch.  Every write to a cell older than the store's young
mark, or to an ``EVar``, is trailed, so backtracking resets it to None; a
younger cell was made after the newest choice point, and backtracking
discards it with that choice point, so its write needs no undo.  ``EVar``
cells behave identically under unification but are global to a program:
a consult interns them by name, and the engine's clause builders keep
them as cells instead of freshening them, which is what lets one binding
travel across clause boundaries until the query that produced it is
undone.  The store also holds the occurs-check policy, so every ``unify``
on one store follows the same rule, and it alone hands out serials.

``copy_term`` dereferences first, so an unbound ``EVar`` comes back as
itself but a bound one is copied by value, its variables renamed.  That is
right for copy_term/2 and findall/3, which call it; clauses are not renamed
through it.
"""

from __future__ import annotations


Atom = str  # an atom term is its name


class Var:
    __slots__ = ("ref", "serial", "name")

    def __init__(self, serial: int, name=None):
        self.ref = None
        self.serial = serial
        self.name = name

    def __repr__(self):
        state = "unbound" if self.ref is None else "bound"
        return f"{type(self).__name__}({self.serial}, {self.name!r}, {state})"


class EVar(Var):
    """Interned, program-wide variable cell (written ``~Name`` in source)."""

    __slots__ = ()


class Struct:
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args

    def __repr__(self):
        return f"Struct({self.name!r}, {self.args!r})"


OUTSIDE = float("inf")  # the young mark outside a query: every cell is old


class Store:
    """Owns the trail, the EVar intern table, the open queries and the
    occurs-check policy that ``unify`` follows on this store.  It keeps no
    list of the cells it makes: a cell lives as long as whoever holds it.

    ``allocated`` counts the serials handed out, and is the next one;
    ``new_var`` and the engine's clause builders are the only places that
    hand one out.  A cell the transpiler renames keeps its serial: the
    twin is old, so always trailed, and never meets its cell in one run,
    as a rewritten goal holds no ``~Name`` cell and arg/3 unifies a query's
    ``_IV<k>`` with its slot cell before the body runs.
    ``young`` is the young mark: a cell whose serial is below it is old,
    and every other cell is young.  A bound cell is trailed only if it is
    old or an ``EVar``.  Outside a query the mark is infinite, so every
    cell is old; while a query runs, the engine keeps it at the allocation
    mark of its newest choice point, or of its start when it has none.  A
    young cell was made after the newest choice point, so backtracking
    discards it rather than undoing it.  An ``EVar`` is trailed however
    young, since one interned by a consult between two answers is younger
    than the suspended query's marks, yet outlives it."""

    __slots__ = ("trail", "evars", "occurs_check", "allocated", "young", "queries")

    def __init__(self, occurs_check: bool = False):
        self.trail = []
        self.evars = {}
        self.queries = []  # the engine's open queries on this store, oldest first
        self.occurs_check = occurs_check
        self.allocated = 0
        self.young = OUTSIDE

    @property
    def cells(self) -> list:
        """The ``~Name`` cells, the only cells the store itself holds.  Kept
        only because the benchmark's cell counts read ``len(store.cells)``;
        it goes once they stop."""
        return list(self.evars.values())

    def new_var(self, name=None, cls=Var) -> Var:
        """Allocate a cell, with the next serial."""
        v = cls(self.allocated, name)
        self.allocated += 1
        return v

    def evar(self, name: str) -> EVar:
        """Return the one cell for ``name`` (e.g. ``~X``), creating it once."""
        v = self.evars.get(name)
        if v is None:
            v = self.evars[name] = self.new_var(name, EVar)
        return v

    def mark(self) -> int:
        return len(self.trail)

    def bind(self, cell: Var, value):
        assert cell.ref is None, "attempt to rebind a bound cell"
        cell.ref = value
        if cell.serial < self.young or type(cell) is EVar:
            self.trail.append(cell)

    def undo_to(self, mark: int):
        trail = self.trail
        assert mark <= len(trail), "undo past an invalidated trail mark"
        while len(trail) > mark:
            trail.pop().ref = None

    def tidy(self, mark: int):
        """Drop the trail entries above ``mark`` that the young mark, since
        lowered by a cut, no longer asks for: a loop that binds in the
        condition of an if-then-else keeps a trail of constant length."""
        trail = self.trail
        if len(trail) > mark:
            young = self.young
            trail[mark:] = [
                c for c in trail[mark:] if c.serial < young or type(c) is EVar
            ]

    def bound_cells(self, *held):
        """The bound cells a later query can see: the bound ``~Name`` cells,
        and the bound cells reachable from the terms ``held`` that the
        caller keeps.  A bound cell's value is not walked, so a young cell
        that only an old cell holds is not reported.  Used by the reset
        invariant and by tests."""
        found = {v: None for v in self.evars.values() if v.ref is not None}
        stack = list(reversed(held))  # walked left to right
        while stack:
            t = stack.pop()
            if isinstance(t, Struct):
                stack.extend(reversed(t.args))
            elif isinstance(t, Var) and t.ref is not None:
                found[t] = None
        return list(found)


def deref(t):
    while isinstance(t, Var):
        r = t.ref
        if r is None:
            return t
        t = r
    return t


def occurs(v: Var, t) -> bool:
    stack = [t]
    while stack:
        x = deref(stack.pop())
        if x is v:
            return True
        if isinstance(x, Struct):
            stack.extend(x.args)
    return False


def unify(a, b, store: Store) -> bool:
    """Unify two terms, with the store's occurs-check policy; on failure
    every ``EVar`` and every cell older than the store's young mark is as
    it was before.  A
    young cell may be left bound: failure backtracks, which discards it, and
    a caller that goes on instead raises the mark to ``allocated`` first.
    Identical terms return at once, before any set-up: the engine's head
    code, which matches a clause head itself, hands back the goal itself.
    Each pair is tested for identity before any dereference too, so a head
    variable holding the goal's own argument meets it in one test.
    It dispatches on exact types, since no term class but ``EVar`` is
    subclassed, and binds through ``Store.bind``."""
    if a is b:
        return True
    occurs_check = store.occurs_check
    bind = store.bind
    start = len(store.trail)
    stack = [(a, b)]
    pop = stack.pop
    while stack:
        x, y = pop()
        if x is y:
            continue
        tx = type(x)
        while tx is Var or tx is EVar:
            r = x.ref
            if r is None:
                break
            x = r
            tx = type(x)
        ty = type(y)
        while ty is Var or ty is EVar:
            r = y.ref
            if r is None:
                break
            y = r
            ty = type(y)
        if x is y:
            continue
        # make x the cell to bind: the younger of two cells, or the only
        # one; two other terms match here or fail
        if ty is Var or ty is EVar:
            if (tx is not Var and tx is not EVar) or y.serial >= x.serial:
                x, y = y, x
        elif tx is not Var and tx is not EVar:
            if tx is ty:
                if tx is Struct:
                    if x.name == y.name and len(x.args) == len(y.args):
                        stack.extend(zip(x.args, y.args))
                        continue
                elif x == y:  # an atom or an integer: one value comparison
                    continue
            store.undo_to(start)
            return False
        if occurs_check and occurs(x, y):
            store.undo_to(start)
            return False
        bind(x, y)
    return True


def copy_term(t, store: Store):
    """Copy a term with fresh variables.

    Plain variables are replaced by fresh cells, shared where the original
    shares them; unbound EVar cells are returned as-is so the copy still
    shares them.  Bound variables, EVar cells included, copy their value.
    """
    mapping = {}
    out = []
    stack = [t]
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
            out.append(x)
        elif isinstance(x, Var):
            nv = mapping.get(x)
            if nv is None:
                nv = store.new_var()
                mapping[x] = nv
            out.append(nv)
        elif isinstance(x, Struct):
            stack.append((x.name, len(x.args)))
            for i in range(len(x.args) - 1, -1, -1):
                stack.append(x.args[i])
        else:
            out.append(x)
    return out[0]


# standard-order rank of each term type; a ``~Name`` cell orders as a cell
_RANK = {Var: 0, EVar: 0, int: 1, Atom: 2, Struct: 3}


def compare_terms(a, b) -> int:
    """Standard order: Var < integer < atom < compound; -1, 0 or 1.
    Integers compare by value and atoms by name, both as Python values."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = deref(x)
        y = deref(y)
        if x is y:
            continue
        rx = _RANK[type(x)]
        ry = _RANK[type(y)]
        if rx != ry:
            return -1 if rx < ry else 1
        if rx == 0:
            if x.serial != y.serial:
                return -1 if x.serial < y.serial else 1
        elif rx < 3:  # an integer or an atom: by value
            if x != y:
                return -1 if x < y else 1
        else:
            if len(x.args) != len(y.args):
                return -1 if len(x.args) < len(y.args) else 1
            if x.name != y.name:
                return -1 if x.name < y.name else 1
            for i in range(len(x.args) - 1, -1, -1):
                stack.append((x.args[i], y.args[i]))
    return 0


def make_list(items, tail=None):
    """Build a ``'.'/2`` chain from a Python sequence."""
    t = "[]" if tail is None else tail
    for item in reversed(items):
        t = Struct(".", (item, t))
    return t


def list_parts(t):
    """Walk a ``'.'/2`` chain; returns (elements, tail) with tail deref'd.
    A cyclic chain stops at the cell kept at the last power-of-two length
    when the walk meets it again (Brent's method); that cell is the tail."""
    items = []
    t = kept = deref(t)
    while isinstance(t, Struct) and t.name == "." and len(t.args) == 2:
        items.append(t.args[0])
        t = deref(t.args[1])
        if t is kept:
            break
        if len(items) & (len(items) - 1) == 0:
            kept = t
    return items, t

# cython: language_level=3
# cython: binding=True
"""Compiled term kernel: same API and semantics as ``_core_py``.

Keep the two files in lockstep; the engine treats them as interchangeable
and the kernel test suite runs against both.
"""

IMPL = "c"


cdef class Term:
    pass


cdef class Atom(Term):
    cdef readonly str name

    def __init__(self, str name):
        self.name = name

    def __repr__(self):
        return f"Atom({self.name!r})"


cdef class Int(Term):
    cdef readonly object value

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Int({self.value})"


cdef class Var(Term):
    cdef public Term ref
    cdef readonly long serial
    cdef readonly object name

    def __init__(self, long serial, name=None):
        self.ref = None
        self.serial = serial
        self.name = name

    def __repr__(self):
        state = "unbound" if self.ref is None else "bound"
        return f"Var({self.serial}, {self.name!r}, {state})"


cdef class EVar(Var):
    """Interned, program-wide variable cell (written ``~Name`` in source)."""

    def __repr__(self):
        state = "unbound" if self.ref is None else "bound"
        return f"EVar({self.serial}, {self.name!r}, {state})"


cdef class Struct(Term):
    cdef readonly str name
    cdef readonly tuple args

    def __init__(self, str name, tuple args):
        self.name = name
        self.args = args

    def __repr__(self):
        return f"Struct({self.name!r}, {self.args!r})"


cdef class Store:
    """Owns every variable cell, the trail, and the EVar intern table."""

    cdef readonly list cells
    cdef readonly list trail
    cdef readonly dict evars
    cdef long _serial

    def __init__(self):
        self.cells = []
        self.trail = []
        self.evars = {}
        self._serial = 0

    cpdef Var new_var(self, name=None):
        cdef Var v = Var(self._serial, name)
        self._serial += 1
        self.cells.append(v)
        return v

    cpdef EVar evar(self, str name):
        """Return the one cell for ``name`` (e.g. ``~X``), creating it once."""
        cdef EVar v = self.evars.get(name)
        if v is None:
            v = EVar(self._serial, name)
            self._serial += 1
            self.cells.append(v)
            self.evars[name] = v
        return v

    cpdef long mark(self):
        return len(self.trail)

    cpdef bind(self, Var cell, Term value):
        assert cell.ref is None, "attempt to rebind a bound cell"
        cell.ref = value
        self.trail.append(cell)

    cpdef undo_to(self, long mark):
        cdef list trail = self.trail
        cdef Var cell
        assert mark <= len(trail), "undo past an invalidated trail mark"
        while len(trail) > mark:
            cell = trail.pop()
            cell.ref = None

    def bound_cells(self):
        """Full-store scan; used by the reset invariant and by tests."""
        cdef Var c
        return [c for c in self.cells if c.ref is not None]


cpdef Term deref(Term t):
    cdef Term r
    while isinstance(t, Var):
        r = (<Var>t).ref
        if r is None:
            return t
        t = r
    return t


cpdef bint occurs(Var v, Term t):
    cdef list stack = [t]
    cdef Term x
    while stack:
        x = deref(<Term>stack.pop())
        if x is v:
            return True
        if isinstance(x, Struct):
            stack.extend((<Struct>x).args)
    return False


cpdef bint unify(Term a, Term b, Store store, bint occurs_check=False):
    """Unify two terms; on failure the store is exactly as it was before."""
    cdef long start = store.mark()
    cdef list stack = [(a, b)]
    cdef Term x, y
    cdef tuple pair
    while stack:
        pair = <tuple>stack.pop()
        x = deref(<Term>pair[0])
        y = deref(<Term>pair[1])
        if x is y:
            continue
        if isinstance(x, Var):
            if isinstance(y, Var):
                if (<Var>y).serial < (<Var>x).serial:
                    x, y = y, x
                store.bind(<Var>y, x)
                continue
            if occurs_check and occurs(<Var>x, y):
                store.undo_to(start)
                return False
            store.bind(<Var>x, y)
            continue
        if isinstance(y, Var):
            if occurs_check and occurs(<Var>y, x):
                store.undo_to(start)
                return False
            store.bind(<Var>y, x)
            continue
        if isinstance(x, Atom):
            if isinstance(y, Atom) and (<Atom>x).name == (<Atom>y).name:
                continue
        elif isinstance(x, Int):
            if isinstance(y, Int) and (<Int>x).value == (<Int>y).value:
                continue
        elif isinstance(x, Struct):
            if (
                isinstance(y, Struct)
                and (<Struct>x).name == (<Struct>y).name
                and len((<Struct>x).args) == len((<Struct>y).args)
            ):
                stack.extend(zip((<Struct>x).args, (<Struct>y).args))
                continue
        store.undo_to(start)
        return False
    return True


def copy_terms(terms, Store store, mapping=None):
    """Copy terms with one shared fresh-variable mapping.

    Plain variables are replaced by fresh cells; unbound EVar cells are
    returned as-is so the copy still shares them.  Bound variables, EVar
    cells included, copy their value.
    """
    if mapping is None:
        mapping = {}
    return [_copy(t, store, mapping) for t in terms]


def copy_term(t, Store store, mapping=None):
    if mapping is None:
        mapping = {}
    return _copy(t, store, mapping)


cdef Term _copy(Term t, Store store, dict mapping):
    cdef list out = []
    cdef list stack = [t]
    cdef object item
    cdef Term x, nv
    cdef tuple args
    cdef Py_ssize_t i, n
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            n = <Py_ssize_t>(<tuple>item)[1]
            args = tuple(out[len(out) - n :])
            del out[len(out) - n :]
            out.append(Struct(<str>(<tuple>item)[0], args))
            continue
        x = deref(<Term>item)
        if isinstance(x, EVar):
            out.append(x)
        elif isinstance(x, Var):
            nv = mapping.get(x)
            if nv is None:
                nv = store.new_var()
                mapping[x] = nv
            out.append(nv)
        elif isinstance(x, Struct):
            stack.append(((<Struct>x).name, len((<Struct>x).args)))
            for i in range(len((<Struct>x).args) - 1, -1, -1):
                stack.append((<Struct>x).args[i])
        else:
            out.append(x)
    return <Term>out[0]


cdef int _rank(Term t):
    if isinstance(t, Var):
        return 0
    if isinstance(t, Int):
        return 1
    if isinstance(t, Atom):
        return 2
    return 3


cpdef int compare_terms(Term a, Term b):
    """Standard order: Var < Int < Atom < Compound; -1, 0 or 1."""
    cdef list stack = [(a, b)]
    cdef Term x, y
    cdef tuple pair
    cdef int rx, ry
    cdef Py_ssize_t i
    while stack:
        pair = <tuple>stack.pop()
        x = deref(<Term>pair[0])
        y = deref(<Term>pair[1])
        if x is y:
            continue
        rx = _rank(x)
        ry = _rank(y)
        if rx != ry:
            return -1 if rx < ry else 1
        if rx == 0:
            if (<Var>x).serial != (<Var>y).serial:
                return -1 if (<Var>x).serial < (<Var>y).serial else 1
        elif rx == 1:
            if (<Int>x).value != (<Int>y).value:
                return -1 if (<Int>x).value < (<Int>y).value else 1
        elif rx == 2:
            if (<Atom>x).name != (<Atom>y).name:
                return -1 if (<Atom>x).name < (<Atom>y).name else 1
        else:
            if len((<Struct>x).args) != len((<Struct>y).args):
                return -1 if len((<Struct>x).args) < len((<Struct>y).args) else 1
            if (<Struct>x).name != (<Struct>y).name:
                return -1 if (<Struct>x).name < (<Struct>y).name else 1
            for i in range(len((<Struct>x).args) - 1, -1, -1):
                stack.append(((<Struct>x).args[i], (<Struct>y).args[i]))
    return 0

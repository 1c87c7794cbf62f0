"""Contract tests for the term kernel: cells, trail, unification, copying
and the standard order of terms."""

import random

import pytest

import entangle_pl.kernel

# one kernel; the ``[py]`` id keeps each case's name as the suite reports it
pytestmark = pytest.mark.parametrize("kernel", [entangle_pl.kernel], ids=["py"])


def test_var_serials_increase(kernel):
    s = kernel.Store()
    a, b, c = s.new_var("A"), s.new_var(), s.new_var("C")
    assert a.serial < b.serial < c.serial
    assert a.name == "A" and b.name is None


def test_evar_interning(kernel):
    s = kernel.Store()
    x1 = s.evar("~X")
    x2 = s.evar("~X")
    y = s.evar("~Y")
    assert x1 is x2
    assert x1 is not y
    assert isinstance(x1, kernel.EVar)
    assert isinstance(x1, kernel.Var)  # EVars behave as ordinary variables
    assert x1.name == "~X"
    # interned cells come from the one allocator every cell comes from
    a = s.new_var()
    assert [x1.serial, y.serial, a.serial] == [0, 1, 2]
    assert repr(x1) == "EVar(0, '~X', unbound)"


def test_allocated_counts_cells_the_registry_dropped(kernel):
    from entangle_pl import Engine

    e = Engine()
    e.consult_text("n(1). n(2). p :- n(X), n(Y).")
    store = e.store
    assert isinstance(store, kernel.Store)
    allocated = store.allocated
    for _ in range(3):
        assert [str(s) for s in e.query("p.")] == ["true"] * 4
        # each query renames p's clause, though nothing keeps the cells
        assert store.allocated == allocated + 2
        allocated = store.allocated


def test_bind_trail_undo(kernel):
    s = kernel.Store()
    v1, v2, v3 = s.new_var(), s.new_var(), s.new_var()
    s.bind(v1, kernel.Atom("a"))
    mark = s.mark()
    s.bind(v2, 1)
    s.bind(v3, v1)
    assert s.bound_cells(v1, v2, v3) == [v1, v2, v3]
    s.undo_to(mark)
    assert v1.ref is not None
    assert v2.ref is None and v3.ref is None
    s.undo_to(0)
    assert s.bound_cells(v1, v2, v3) == []


def test_deref_chain(kernel):
    s = kernel.Store()
    a, b, c = s.new_var(), s.new_var(), s.new_var()
    s.bind(a, b)
    s.bind(b, c)
    assert kernel.deref(a) is c
    s.bind(c, kernel.Atom("end"))
    assert kernel.deref(a) == "end"


def test_unify_basics(kernel):
    s = kernel.Store()
    A, I, St = kernel.Atom, int, kernel.Struct
    assert kernel.unify(A("a"), A("a"), s)
    assert not kernel.unify(A("a"), A("b"), s)
    assert kernel.unify(I(3), I(3), s)
    assert not kernel.unify(I(3), I(4), s)
    assert not kernel.unify(I(3), A("3"), s)
    x, y = s.new_var(), s.new_var()
    assert kernel.unify(St("f", (x, I(2))), St("f", (A("a"), y)), s)
    assert kernel.deref(x) == "a"
    assert kernel.deref(y) == 2
    assert not kernel.unify(St("f", (x,)), St("g", (x,)), s)
    assert not kernel.unify(St("f", (x,)), St("f", (x, x)), s)


def test_unify_dispatches_on_exact_types(kernel):
    s = kernel.Store()
    A, I, St = kernel.Atom, int, kernel.Struct
    f = St("f", (A("a"),))
    for x, y in ((A("1"), I(1)), (f, St("f", (A("a"), A("b")))), (A("[]"), f),
                 (St("1", (A("a"),)), I(1)), (A("f"), f)):
        assert not kernel.unify(x, y, s) and not kernel.unify(y, x, s)
    assert s.trail == []
    # cells are read through their bindings, an EVar's too
    e, v = s.evar("~E"), s.new_var()
    s.bind(v, e)
    s.bind(e, I(1))
    assert kernel.unify(St("g", (v, e)), St("g", (I(1), v)), s)
    assert not kernel.unify(v, A("1"), s)
    assert len(s.trail) == 2


def test_var_var_binding_direction(kernel):
    # the younger variable must point at the older one, so that undoing a
    # query never leaves an older cell referencing a recycled younger cell
    s = kernel.Store()
    old = s.new_var()
    young = s.new_var()
    assert kernel.unify(young, old, s)
    assert young.ref is old and old.ref is None
    s2 = kernel.Store()
    old2 = s2.new_var()
    young2 = s2.new_var()
    assert kernel.unify(old2, young2, s2)  # argument order irrelevant
    assert young2.ref is old2 and old2.ref is None
    # equal serials (cells of two stores): the second argument is bound
    first, second = kernel.Store().new_var(), kernel.Store().new_var()
    assert kernel.unify(first, second, s)
    assert second.ref is first and first.ref is None


def test_unify_failure_restores_store(kernel):
    s = kernel.Store()
    x, y = s.new_var(), s.new_var()
    St, A, I = kernel.Struct, kernel.Atom, int
    before = s.mark()
    # x gets bound while matching the first argument, then the clash on
    # the second argument must undo it
    assert not kernel.unify(St("f", (x, I(1))), St("f", (A("a"), I(2))), s)
    assert s.mark() == before
    assert x.ref is None and y.ref is None


def test_occurs_check(kernel):
    s = kernel.Store(occurs_check=True)
    x = s.new_var()
    fx = kernel.Struct("f", (x,))
    assert kernel.occurs(x, fx)
    assert not kernel.occurs(x, kernel.Struct("f", (s.new_var(),)))
    assert not kernel.unify(x, fx, s)
    assert not kernel.unify(fx, x, s)
    assert x.ref is None
    s.occurs_check = False
    assert kernel.unify(x, fx, s)  # rational-tree bind when disabled


def test_copy_term_freshens_vars_only(kernel):
    s = kernel.Store()
    x = s.new_var("X")
    e = s.evar("~E")
    t = kernel.Struct("f", (x, x, e, kernel.Atom("k")))
    c = kernel.copy_term(t, s)
    assert c is not t
    assert c.args[0] is c.args[1]  # sharing preserved
    assert c.args[0] is not x  # ordinary variable freshened
    assert c.args[2] is e  # program-wide variable is never freshened
    assert c.args[3] == "k"


def test_copy_term_follows_bindings(kernel):
    s = kernel.Store()
    x, y = s.new_var(), s.new_var()
    s.bind(x, kernel.Struct("g", (y,)))
    c = kernel.copy_term(kernel.Struct("f", (x,)), s)
    inner = c.args[0]
    assert inner.name == "g" and inner.args[0] is not y


def test_standard_order(kernel):
    s = kernel.Store()
    v1, v2 = s.new_var(), s.new_var()
    A, I, St = kernel.Atom, int, kernel.Struct
    cmp = kernel.compare_terms
    assert cmp(v1, v2) < 0 and cmp(v2, v1) > 0  # by age
    assert cmp(v1, v1) == 0
    assert cmp(v2, I(0)) < 0  # Var < integer
    assert cmp(I(99), A("a")) < 0  # integer < Atom
    assert cmp(A("z"), St("a", (I(1),))) < 0  # Atom < Compound
    assert cmp(I(-2), I(3)) < 0
    assert cmp(A("ab"), A("b")) < 0
    assert cmp(St("f", (I(1),)), St("f", (I(1), I(1)))) < 0  # arity first
    assert cmp(St("g", (I(9),)), St("f", (I(1), I(1)))) < 0
    assert cmp(St("f", (I(1), I(2))), St("f", (I(1), I(3)))) < 0  # leftmost arg
    assert cmp(St("f", (I(1), I(2))), St("f", (I(1), I(2)))) == 0


def _random_term(kernel, rng, vars_pool, depth=0):
    if depth >= 3 or rng.random() < 0.25:
        leaf = rng.random()
        if leaf < 0.4:
            return rng.choice(vars_pool)
        if leaf < 0.7:
            return rng.randrange(4)
        return kernel.Atom(rng.choice("abc"))
    name = rng.choice("fgh")
    arity = rng.randrange(1, 4)
    return kernel.Struct(
        name,
        tuple(_random_term(kernel, rng, vars_pool, depth + 1) for _ in range(arity)),
    )


def test_order_totality_randomized(kernel):
    rng = random.Random(20260814)
    s = kernel.Store()
    pool = [s.new_var() for _ in range(4)]
    terms = [_random_term(kernel, rng, pool) for _ in range(60)]
    cmp = kernel.compare_terms
    for _ in range(300):
        a, b, c = rng.choice(terms), rng.choice(terms), rng.choice(terms)
        assert cmp(a, b) == -cmp(b, a)
        assert cmp(a, a) == 0
        if cmp(a, b) <= 0 and cmp(b, c) <= 0:
            assert cmp(a, c) <= 0


def test_list_parts_stops_on_a_cycle(kernel):
    s = kernel.Store()
    items, tail = kernel.list_parts(kernel.make_list(list(range(9))))
    assert items == list(range(9)) and tail == "[]"
    for prefix in range(6):
        for period in range(1, 10):
            end = s.new_var()
            loop = kernel.make_list(list(range(period)), end)
            s.bind(end, loop)
            t = kernel.make_list([kernel.Atom("p")] * prefix, loop)
            items, tail = kernel.list_parts(t)
            assert isinstance(tail, kernel.Struct) and tail.name == "."
            assert prefix + period <= len(items) <= 4 * (prefix + period)

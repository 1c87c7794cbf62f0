"""Solver behavior: control constructs, builtins, errors, store hygiene."""

import gc
import itertools
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from entangle_pl import (
    Engine,
    EvaluationError,
    ExistenceError,
    InstantiationError,
    PrologError,
    PrologSyntaxError,
    ResourceLimitError,
    TypeMismatchError,
    corpus_dir,
    transpile,
)
import entangle_pl.engine as engine_module
from entangle_pl.engine import _BUILTINS
from entangle_pl.kernel import Atom, Store, Struct, Var, deref, unify
from entangle_pl.oracle import check_program, read_queries
from entangle_pl.reader import read_program, read_query, write_term
from entangle_pl.transpiler import rewrite_program
from conftest import answers, checked_answers
import first_calls


@pytest.fixture
def eng():
    return Engine()


# --- solutions and bindings -------------------------------------------------


def test_facts_and_conjunction(eng):
    eng.consult_text("f(1). f(2). g(2). g(3).")
    assert answers(eng, "f(X), g(X).") == ["X = 2"]
    assert answers(eng, "f(X).") == ["X = 1", "X = 2"]
    assert answers(eng, "f(9).") == []


def test_variable_free_query_prints_true(eng):
    eng.consult_text("f(1).")
    sols = list(eng.query("f(1)."))
    assert len(sols) == 1 and str(sols[0]) == "true"


def test_solution_api(eng):
    eng.consult_text("f(1).")
    sol = next(iter(eng.query("f(X), Y = foo(X), _Hidden = 3.")))
    assert sol["X"] == "1"
    assert sol["Y"] == "foo(1)"
    assert "X" in sol and "Zed" not in sol
    assert dict(sol) == {"X": "1", "Y": "foo(1)"}
    assert "_Hidden" not in sol  # a _ name is never rendered
    assert str(sol) == "X = 1, Y = foo(1)"


def test_solutions_are_rendered_eagerly(eng):
    eng.consult_text("f(1). f(2).")
    gen = eng.query("f(X).")
    first = next(gen)
    second = next(gen)
    # the first Solution must not be retroactively affected by backtracking
    assert str(first) == "X = 1" and str(second) == "X = 2"
    gen.close()


def test_query_reset_on_exhaustion_and_abandon(eng):
    eng.consult_text("e(~X).")
    assert list(checked_answers(eng, "e(5), e(V).")) == ["V = 5"]  # exhausted
    gen = checked_answers(eng, "e(6), e(V).")
    next(gen)
    assert eng.store.bound_cells() != []  # mid-enumeration: still bound
    gen.close()  # abandoned: the helper checks the reset


def test_consult_is_atomic(eng):
    with pytest.raises(PrologSyntaxError):
        eng.consult_text("ok(1). broken(] :- x.")
    with pytest.raises(ExistenceError):
        list(eng.query("ok(1)."))


@pytest.mark.parametrize("program, key", [
    ("ok. true :- fail. p :- true.", "true/0"),
    ("ok. ! :- fail.", "!/0"),
    ("ok. X = Y :- fail.", "=/2"),
    ("ok. phrase(G, L) :- fail.", "phrase/2"),
], ids=["true", "cut", "unify", "phrase"])
def test_predicates_the_engine_runs_cannot_be_redefined(eng, program, key):
    # solve runs these before it looks at the database, so a clause for
    # one would never run natively, yet the transpiled program calls it
    before = {k: list(v) for k, v in eng.db.items()}
    with pytest.raises(PrologError, match=f"^cannot redefine {re.escape(key)}$"):
        eng.consult_text(program)
    assert eng.db == before
    with pytest.raises(PrologError, match=f"^cannot redefine {re.escape(key)}$"):
        transpile(program)


def test_clause_order_and_duplicates(eng):
    eng.consult_text("d(1). d(1). d(2).")
    assert answers(eng, "d(X).") == ["X = 1", "X = 1", "X = 2"]


# --- control ---------------------------------------------------------------


def test_cut_commits_clause_and_alternatives(eng):
    eng.consult_text("t(1). t(2). t(3). s(X) :- t(X), !. r(X) :- t(X), !, fail. r(0).")
    assert answers(eng, "s(X).") == ["X = 1"]
    assert answers(eng, "r(X).") == []  # cut keeps r(0) out of reach
    assert answers(eng, "t(X), !.") == ["X = 1"]  # cut in a query body


def test_cut_through_one_candidate_predicates(eng):
    # one/1 has one clause, so its call pushes no choice point: the cut
    # in its body must still cut m/1's and nothing below the call
    eng.consult_text("m(1). m(2). one(X) :- m(X), !.")
    assert answers(eng, "one(X).") == ["X = 1"]
    assert answers(eng, "(one(X) ; X = 3).") == ["X = 1", "X = 3"]
    assert answers(eng, "m(Y), one(X).") == ["Y = 1, X = 1", "Y = 2, X = 1"]


def test_cut_in_a_clause_reached_by_a_retry(eng):
    # c(2) runs after c(1)'s head matched and its body failed, so it is
    # reached by a retry; its cut must drop c(3)'s alternative and nothing
    # below the call
    eng.consult_text("c(1) :- fail. c(2) :- !. c(3). m(1). m(2).")
    assert answers(eng, "c(X).") == ["X = 2"]
    assert answers(eng, "(c(X) ; X = 9).") == ["X = 2", "X = 9"]
    assert answers(eng, "m(Y), c(X).") == ["Y = 1, X = 2", "Y = 2, X = 2"]


def test_cut_is_local_to_call_and_naf(eng):
    eng.consult_text("t(1). t(2). w(X) :- call((t(X), !)). n :- \\+((t(_), !, fail)).")
    assert answers(eng, "w(X).") == ["X = 1"]
    assert answers(eng, "t(X), call(!).") == ["X = 1", "X = 2"]
    assert answers(eng, "n.") == ["true"]


def test_if_then_else(eng):
    eng.consult_text("t(1). t(2).")
    assert answers(eng, "(t(X) -> R = yes ; R = no).") == ["X = 1, R = yes"]
    sols = answers(eng, "(t(9) -> R = yes ; R = no).")
    assert len(sols) == 1 and "R = no" in sols[0]
    assert answers(eng, "(t(9) -> R = yes).") == []
    # else branch may backtrack; then branch commits only the condition
    eng.consult_text("u(a). u(b).")
    assert answers(eng, "(fail -> X = 0 ; u(X)).") == ["X = a", "X = b"]
    assert answers(eng, "(t(X) -> u(Y) ; fail).") == [
        "X = 1, Y = a",
        "X = 1, Y = b",
    ]


def test_ite_condition_cut_is_local(eng):
    eng.consult_text("t(1). t(2).")
    assert answers(eng, "((t(X), !) -> R = yes ; R = no).") == ["X = 1, R = yes"]


def test_cut_in_ite_branches_cuts_the_clause(eng):
    eng.consult_text(
        "t(1). t(2). "
        "p(X) :- (true -> t(X), ! ; true). p(9). "
        "q(X) :- (fail -> true ; t(X), !). q(9). "
        "r(X) :- (t(X) -> true), !. r(9)."
    )
    for goal in ("p(X).", "q(X).", "r(X)."):
        assert answers(eng, goal) == ["X = 1"], goal


def test_disjunction(eng):
    assert answers(eng, "(X = 1 ; X = 2 ; X = 3).") == ["X = 1", "X = 2", "X = 3"]


def test_negation_scopes_bindings(eng):
    eng.consult_text("t(1).")
    assert answers(eng, "\\+(t(2)).") == ["true"]
    assert answers(eng, "\\+(t(1)).") == []
    gen = checked_answers(eng, "\\+(X = 1), Y = 2 ; Y = 3.")
    # \+ succeeded-goal bindings must not leak... the inner X=1 succeeds,
    # so the first branch fails and Y comes from the second branch
    assert next(gen).endswith(", Y = 3")
    gen.close()
    eng.consult_text("e(~C).")
    with pytest.raises(EvaluationError):
        list(checked_answers(eng, "e(1), \\+ (t(X), e(X), X is foo)."))


def test_deep_recursion_through_negation_and_findall(eng):
    # \+ and findall/3 run in the one machine loop: no Python frame per level
    eng.consult_text(
        "n(0). n(N) :- N > 0, N1 is N - 1, \\+ \\+ n(N1)."
        " f(0, a). f(N, L) :- N > 0, N1 is N - 1, findall(x, f(N1, _), L)."
    )
    assert answers(eng, "n(20000).") == ["true"]
    assert answers(eng, "f(20000, L).") == ["L = [x]"]


def test_metavariable_goals(eng):
    eng.consult_text("t(1). t(2).")
    assert answers(eng, "G = t(X), G.") == ["G = t(1), X = 1", "G = t(2), X = 2"]
    assert answers(eng, "G = (t(X), X == 2), call(G).") == ["G = (t(2),2==2), X = 2"]
    with pytest.raises(InstantiationError):
        list(eng.query("X."))
    with pytest.raises(InstantiationError):
        list(eng.query("call(X)."))
    with pytest.raises(TypeMismatchError):
        list(eng.query("G = 3, G."))


@pytest.mark.parametrize("query", [
    "call((fail, 1)).", "G = (fail, 1), G.", "findall(X, (fail, 1), L).",
    "call((fail -> \\+ 2 ; fail)).",
])
def test_metacall_checks_its_goal_before_running_it(eng, query):
    if "\\+" in query:
        # \+ is a built-in predicate, not a part of the skeleton: its goal
        # converts when it starts, and this one never does
        assert answers(eng, query) == []
        return
    with pytest.raises(TypeMismatchError, match="goal is not callable"):
        list(eng.query(query))


def test_metacall_raises_before_any_answer(eng):
    solutions = eng.query("call((true ; 1)).")
    with pytest.raises(TypeMismatchError, match="goal is not callable: 1"):
        next(solutions)


def test_metacall_check_stops_at_call_and_at_cycles():
    # conversion walks , ; and -> only: call/1 converts its own goal when
    # it starts, so this fails before it gets there, as in ISO
    assert answers(Engine(), "call((fail, call(1))).") == []
    # a skeleton that contains itself is a type error when it converts
    e = Engine(max_frames=10_000)
    e.consult_text("a.")
    with pytest.raises(TypeMismatchError, match="^goal is cyclic$"):
        list(e.query("X = (a, X), call(X)."))


@pytest.mark.parametrize("run", [True, False])
def test_a_skeleton_compound_met_twice_is_converted_once(run):
    x = Store().new_var("X")
    g = Struct(",", (x, "b"))
    converted = engine_module.convert_goal(Struct(";", (g, g)), run)
    assert converted.name == ";"
    left, right = converted.args
    assert left is right and left is not g
    assert left.args[0].name == "call" and left.args[0].args == (x,)


def test_clause_body_that_is_not_callable_is_refused(eng):
    before = {k: list(v) for k, v in eng.db.items()}
    with pytest.raises(TypeMismatchError, match="^goal is not callable: 1$"):
        eng.consult_text("ok. p :- fail, 1.")
    assert eng.db == before
    # a DCG rule's body is checked as translated
    with pytest.raises(TypeMismatchError, match="^goal is not callable: 1$"):
        eng.consult_text("g --> [a], {1}.")


@pytest.mark.parametrize("query", [
    "fail, 1.", "true ; 1.", "phrase({1}, L).", "phrase(({true} ; {1}), L).",
])
def test_query_that_is_not_callable_raises_before_any_answer(eng, query):
    solutions = checked_answers(eng, query)
    with pytest.raises(TypeMismatchError, match="goal is not callable"):
        next(solutions)


def test_if_then_bound_before_its_goal_starts_runs_as_its_value(eng):
    # the query converts X, unbound, to call(X), which converts (C -> T)
    with pytest.raises(TypeMismatchError, match="^goal is not callable: 1$"):
        list(checked_answers(eng, "X = (true -> 1), (X ; true)."))
    # call/1 converts X as bound, so ; runs the (C -> T) as if-then-else
    assert answers(eng, "X = (true -> fail), call((X ; true)).") == []
    assert answers(eng, "X = (fail -> fail), (X ; Y = e).") == [
        "X = (fail->fail), Y = e"
    ]


def test_a_goal_converts_as_iso_does_where_it_starts(eng):
    # ISO 13211-1 7.6.2: a variable of a goal's skeleton becomes call(V)
    # when the goal starts, following its binding if it has one
    eng.consult_text("m(1). m(2). r(X) :- (X ; true).")
    # the cut is bound before call/1 starts, so it is call/1's own
    assert answers(eng, "X = !, call((m(Y), X)).") == ["X = !, Y = 1"]
    # the body is (call(X) ; true), and call(X) is opaque
    assert answers(eng, "r((true -> fail)).") == ["true"]
    # \+ is a built-in predicate: its goal converts only if it starts
    assert answers(eng, "fail, \\+ 1.") == []
    eng.consult_text("p :- fail, \\+ 1.")
    assert answers(eng, "p.") == []
    with pytest.raises(TypeMismatchError, match="^goal is not callable: 1$"):
        list(eng.query("\\+ 1."))
    eng.consult_text("a. b. g :- ~Gate.")
    assert answers(eng, "~Gate = (a, b), g.") == ["true"]


def test_a_variable_body_goal_is_listed_as_its_call(eng, capsys):
    eng.consult_text("p(X) :- X. q(X) :- (X ; \\+ X).")
    list(eng.query("listing(p)."))
    list(eng.query("listing(q)."))
    assert capsys.readouterr().out == "p(X) :- call(X).\nq(X) :- call(X);\\+(X).\n"


def test_findall(eng):
    eng.consult_text("t(1). t(2). t(3).")
    sols = answers(eng, "findall(X, t(X), L).")
    assert len(sols) == 1 and "L = [1,2,3]" in sols[0]
    assert "L = []" in answers(eng, "findall(X, t(9), L).")[0]
    assert "L = [1-a,2-a]" in answers(eng, "findall(X-Y, (t(X), X < 3, Y = a), L).")[0]
    # a local cut; inner bindings are undone afterwards, after an error too
    assert list(checked_answers(eng, "findall(_Y, (t(_Y), !), L).")) == ["L = [1]"]
    eng.consult_text("e(~C).")
    with pytest.raises(EvaluationError):
        list(checked_answers(eng, "e(1), findall(X, (t(X), e(X), X is foo), L)."))


def test_findall_copies_but_shares_program_variables(eng):
    eng.consult_text("e(~X). t(1).")
    # ~X stays the same cell in every copied solution term
    sols = answers(eng, "findall(f(~X), t(_), L), e(7).")
    assert sols == ["L = [f(7)]"]


# --- builtins ----------------------------------------------------------------


def test_unify_and_compare_builtins(eng):
    assert answers(eng, "X = f(Y), Y = 3.") == ["X = f(3), Y = 3"]
    assert len(answers(eng, "f(X) == f(X).")) == 1
    assert len(answers(eng, "X == X.")) == 1
    assert answers(eng, "f(X) == f(Y).") == []
    assert len(answers(eng, "f(X) \\== f(Y).")) == 1
    assert answers(eng, "var(X).") != []
    assert answers(eng, "X = 1, var(X).") == []
    assert answers(eng, "nonvar(f(_)).") == ["true"]


def test_not_unifiable_builtin(eng):
    assert answers(eng, "a \\= b.") == ["true"]
    assert answers(eng, "X \\= a.") == []
    assert answers(eng, "f(X) \\= f(Y).") == []
    # the bindings of the unification it tried are gone again
    store = eng.store
    x, y = store.new_var("X"), store.new_var("Y")
    not_unifiable = _BUILTINS[("\\=", 2)]
    assert not not_unifiable(eng, (Struct("f", (x,)), Struct("f", (y,))))
    assert x.ref is None and y.ref is None
    assert answers(eng, "f(_X, a) \\= f(b, c), var(_X).") == ["true"]


def test_arithmetic(eng):
    assert answers(eng, "X is 2+3*4.") == ["X = 14"]
    assert answers(eng, "X is 7 / 2, Y is -7 / 2.") == ["X = 3, Y = -3"]
    assert answers(eng, "X is 7 mod -2, Y is -7 mod 2.") == ["X = -1, Y = 1"]
    assert answers(eng, "X is -(3).") == ["X = -3"]
    assert answers(eng, "1 < 2, 2 =< 2, 3 > 1, 3 >= 3, 4 =:= 4, 4 =\\= 5.") == ["true"]
    assert answers(eng, "1 > 2.") == []
    with pytest.raises(EvaluationError):
        list(eng.query("X is 1 / 0."))
    with pytest.raises(EvaluationError):
        list(eng.query("X is 5 mod 0."))
    with pytest.raises(InstantiationError):
        list(eng.query("X is Y + 1."))
    with pytest.raises(EvaluationError):
        list(eng.query("X is foo."))
    with pytest.raises(EvaluationError):
        list(eng.query("1 < foo."))
    # a subterm shared by two operands is no cycle
    assert answers(eng, "X = 1+1, Y is X+X.") == ["X = 1+1, Y = 4"]


@pytest.mark.parametrize("query, error, message", [
    ("arg(N, f(a), X).", InstantiationError, "arg/3: underinstantiated"),
    ("arg(1, a, X).", TypeMismatchError, "arg/3: second argument must be compound"),
    ("functor(T, f, -1).", TypeMismatchError,
     "functor/3: arity must be a non-negative integer"),
    ("functor(T, f(a), 0).", TypeMismatchError, "functor/3: name must be atomic"),
    ("functor(T, 1, 2).", TypeMismatchError, "functor/3: name must be an atom"),
    ("listing(X).", InstantiationError, "listing/1: unbound argument"),
    ("listing(1).", TypeMismatchError, "listing/1: expected Name or Name/Arity"),
    ("listing(f/x).", TypeMismatchError, "listing/1: expected Name or Name/Arity"),
    ("X is foo(1,2).", EvaluationError, "unknown arithmetic expression: foo(1,2)"),
])
def test_builtin_error_branches(eng, query, error, message):
    with pytest.raises(error) as err:
        list(eng.query(query))
    assert type(err.value) is error and str(err.value) == message


def test_functor_and_arg(eng):
    assert answers(eng, "functor(foo(a,b), N, A).") == ["N = foo, A = 2"]
    assert answers(eng, "functor(baz, N, A).") == ["N = baz, A = 0"]
    assert answers(eng, "functor(7, N, A).") == ["N = 7, A = 0"]
    sols = answers(eng, "functor(T, bar, 2).")
    assert len(sols) == 1 and sols[0].startswith("T = bar(")
    assert answers(eng, "functor(T, baz, 0).") == ["T = baz"]
    assert answers(eng, "arg(2, foo(a,b,c), X).") == ["X = b"]
    assert answers(eng, "arg(4, foo(a,b,c), X).") == []
    assert answers(eng, "arg(0, foo(a,b,c), X).") == []
    with pytest.raises(InstantiationError):
        list(eng.query("functor(T, N, 2)."))
    with pytest.raises(TypeMismatchError):
        list(eng.query("arg(x, foo(a), V)."))


def test_copy_term_builtin(eng):
    sols = answers(eng, "copy_term(f(X,X,Y), C).")
    assert len(sols) == 1
    # the copy shares structure among its own fresh variables
    assert "C = f(_G" in sols[0]
    eng.consult_text("e(~V).")
    assert answers(eng, "copy_term(g(~V), C), e(9).") == ["C = g(9)"]


def test_sort_builtin(eng):
    assert answers(eng, "sort([c,a,b,a], S).") == ["S = [a,b,c]"]
    assert answers(eng, "sort([], S).") == ["S = []"]
    # standard order: Int < Atom < Compound; compounds by arity, name, args
    assert answers(eng, "sort([f(2),f(1),g(0),3,1,z], S).") == [
        "S = [1,3,z,f(1),f(2),g(0)]"
    ]
    assert answers(eng, "sort([g(9),f(0,0)], S).") == ["S = [g(9),f(0,0)]"]
    with pytest.raises(InstantiationError):
        list(eng.query("sort([a|_], S)."))  # partial list
    with pytest.raises(InstantiationError):
        list(eng.query("sort(L, S)."))
    with pytest.raises(TypeMismatchError):
        list(eng.query("sort(foo, S)."))


def test_listing(eng, capsys):
    eng.consult_text("m(1) :- true. m(X) :- m(X). n(a).")
    list(eng.query("listing(m)."))
    assert capsys.readouterr().out == "m(1).\nm(X) :- m(X).\n"
    list(eng.query("listing(n/1)."))
    assert capsys.readouterr().out == "n(a).\n"
    assert answers(eng, "listing(zzz).") == ["true"]  # nothing to print, succeeds


# --- clause index --------------------------------------------------------------


def tried(eng, query, monkeypatch):
    """Answers to ``query`` and the number of clauses tried for them."""
    calls = []
    real = engine_module.try_clause

    def counting(clause, goal, store, bar, rest):
        calls.append(clause)
        return real(clause, goal, store, bar, rest)

    with monkeypatch.context() as m:
        m.setattr(engine_module, "try_clause", counting)
        result = answers(eng, query)
    return result, len(calls)


def test_index_keys_keep_types_apart(eng, monkeypatch):
    eng.consult_text("p('1', atom). p(1, int). q(f(a), one). q(f(a,b), two). "
                     "r([], nil). r([_|_], cons). r(x, atom).")
    assert tried(eng, "p('1', T).", monkeypatch) == (["T = atom"], 1)
    assert tried(eng, "p(1, T).", monkeypatch) == (["T = int"], 1)
    assert tried(eng, "q(f(X), T).", monkeypatch) == (["X = a, T = one"], 1)
    assert tried(eng, "q(f(X,Y), T).", monkeypatch) == (["X = a, Y = b, T = two"], 1)
    assert tried(eng, "r([], T).", monkeypatch) == (["T = nil"], 1)
    assert tried(eng, "r([a,b], T).", monkeypatch) == (["T = cons"], 1)
    assert tried(eng, "r(y, T).", monkeypatch) == ([], 0)
    # an unbound first argument: every clause, in source order
    assert tried(eng, "r(X, T).", monkeypatch)[1] == 3


def test_index_keeps_source_order(eng, monkeypatch):
    eng.consult_text("p(a,1). p(b,2). p(a,3). p(c,4). p(b,5). p(a,6).")
    assert tried(eng, "p(a,N).", monkeypatch) == (["N = 1", "N = 3", "N = 6"], 3)
    # the first argument is unbound, so the second one selects
    assert tried(eng, "p(K,5).", monkeypatch) == (["K = b"], 1)


def test_index_is_exact_for_deterministic_calls(eng, monkeypatch):
    eng.consult_text("app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).")
    # one clause tried per call: the index rules the other clause out
    assert tried(eng, "app([1,2,3],[4],R).", monkeypatch) == (["R = [1,2,3,4]"], 4)


def test_goal_argument_bound_to_program_variable_uses_index(eng, monkeypatch):
    eng.consult_text("k(1,one). k(2,two). k(3,three). "
                     "set(X) :- ~N = X. get(V) :- k(~N, V).")
    # set/1 and get/1 each try their one clause, k/2 only the matching one
    assert tried(eng, "set(2), get(V).", monkeypatch) == (["V = two"], 3)


def test_program_variable_in_head_is_not_indexed(eng):
    eng.consult_text("v(a, ~C). v(b, red). v(c, ~C).")
    # the second call builds the index on argument 2 while ~C is bound
    assert list(checked_answers(eng, "v(a, green), v(X, green).")) == ["X = a", "X = c"]
    assert answers(eng, "v(X, blue).") == ["X = a", "X = c"]
    assert answers(eng, "v(X, red).") == ["X = a", "X = b", "X = c"]


def test_consult_after_query_drops_index(eng):
    eng.consult_text("p(1). p(2).")
    assert answers(eng, "p(3).") == []
    eng.consult_text("p(3).")
    assert answers(eng, "p(3).") == ["true"]
    assert answers(eng, "p(5).") == []
    eng.consult_text("p(_).")  # the argument is no longer indexable
    assert answers(eng, "p(5).") == ["true"]
    assert answers(eng, "p(1).") == ["true", "true"]


def test_mixed_position_keeps_every_answer(eng, monkeypatch):
    eng.consult_text("m(a, 1). m(X, 2). m(b, 3).")
    assert answers(eng, "m(a, N).") == ["N = 1", "N = 2"]
    assert answers(eng, "m(b, N).") == ["N = 2", "N = 3"]
    assert answers(eng, "m(c, N).") == ["N = 2"]
    # the first argument is bound but not indexable, so the next bound
    # one selects
    assert tried(eng, "m(a, 2).", monkeypatch) == (["true"], 1)


# the det workload's program (perfbench/gen.py's DET_PROGRAM)
DET_PROGRAM = """
app([],L,L).
app([H|T],L,[H|R]) :- app(T,L,R).
nrev([],[]).
nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).
count(N,N) :- !.
count(I,N) :- I1 is I+1, count(I1,N).
"""


def test_the_det_program_tries_a_pinned_number_of_clauses(eng, monkeypatch):
    # the work a change to the call path must keep: nrev of n elements is
    # (n + 1)(n + 2) / 2 calls, each of one clause; count/2 indexes no
    # argument, so each of its 101 calls tries the first clause too
    eng.consult_text(DET_PROGRAM)
    items = ",".join(map(str, range(30)))
    result = ",".join(map(str, reversed(range(30))))
    assert tried(eng, f"nrev([{items}],R).", monkeypatch) == ([f"R = [{result}]"], 496)
    assert tried(eng, "count(0,100).", monkeypatch) == (["true"], 201)


CONTROL_NAMES_AT_OTHER_ARITIES = """
call(a, 1). call(b, 2).
true(x).
fail(y).
findall(a, b, c, d).
;(a, b, c).
!(z).
->(a, b, c).
\\+(a, b).
"""


@pytest.mark.parametrize("query, expected", [
    ("call(X, N).", ["X = a, N = 1", "X = b, N = 2"]),
    ("true(Z).", ["Z = x"]),
    ("fail(Y).", ["Y = y"]),
    ("findall(A, B, C, D).", ["A = a, B = b, C = c, D = d"]),
    ("';'(A, B, C).", ["A = a, B = b, C = c"]),
    ("'!'(Z).", ["Z = z"]),
    ("'->'(A, B, C).", ["A = a, B = b, C = c"]),
    ("\\+(A, B).", ["A = a, B = b"]),
    ("G = true(Z), call(G).", ["G = true(x), Z = x"]),
])
def test_a_control_name_at_another_arity_answers_from_the_database(query, expected):
    eng = Engine()
    eng.consult_text(CONTROL_NAMES_AT_OTHER_ARITIES)
    assert answers(eng, query) == expected
    (result,) = check_program(CONTROL_NAMES_AT_OTHER_ARITIES, [query], "names.pl")
    assert str(result) == f"OK        names.pl :: {query}"
    assert result.transpiled == len(expected)


# --- clause templates ------------------------------------------------------


def test_program_variable_binding_reaches_later_clauses(eng):
    # once ~C holds f(Y), later clauses see that same Y, not a renamed copy
    eng.consult_text("p :- ~C = f(_). q(Z) :- ~C = f(Z). r(W) :- ~C = f(W).")
    assert answers(eng, "p, q(a), r(W).") == ["W = a"]
    assert len(list(checked_answers(eng, "p, q(Z), r(W), Z == W."))) == 1


def test_template_compiled_while_program_variable_bound(eng):
    eng.consult_text("k(V) :- ~S = V. g(X) :- X = ~S. h(t(~S, a)).")
    # g/1 and h/1 are first tried while ~S holds a term with a variable
    assert list(checked_answers(eng, "k(m(A)), g(X), h(T).")) == [
        "A = _G3, X = m(_G3), T = t(m(_G3),a)"]
    # their templates still hold the cell, unbound again after the reset
    assert len(answers(eng, "g(X), var(X), h(t(Y, a)), X == Y.")) == 1
    assert answers(eng, "k(2), g(X), h(T).") == ["X = 2, T = t(2,a)"]


def test_repeated_head_variables(eng):
    eng.consult_text("eq(X, X).")
    assert answers(eng, "eq(a, B).") == ["B = a"]
    assert answers(eng, "eq(f(A), f(b)).") == ["A = b"]
    assert answers(eng, "eq(a, b).") == []
    assert len(answers(eng, "eq(A, B), A == B.")) == 1


def head_and_body(build, goal, store):
    """``engine.copy_terms`` on ``goal`` and an empty goal list: ``MISS``,
    or ``[goal, body]``, the body being the conjunction of the goal nodes
    the head code pushed, ``true`` for none."""
    found = engine_module.copy_terms(build, goal, store, 0, None)
    if found is engine_module._MISS:
        return found
    head, goals = found
    conjuncts = []
    while goals is not None:
        term, _, goals = goals
        conjuncts.append(term)
    body = conjuncts.pop() if conjuncts else Atom("true")
    for term in reversed(conjuncts):
        body = Struct(",", (term, body))
    return [head, body]


def test_ground_subterms_are_shared(eng):
    eng.consult_text("gc(f(g(a), [1,2]), X) :- X = h(k).")
    assert answers(eng, "gc(f(G, L), X).") == ["G = g(a), L = [1,2], X = h(k)"]
    assert answers(eng, "gc(f(g(b), L), X).") == []
    clause = eng.db[("gc", 2)][0]
    g, x = eng.store.new_var(), eng.store.new_var()
    body = engine_module.try_clause(clause, Struct("gc", (g, x)), eng.store, 0, None)[0]
    # the ground head argument and body argument are the stored subterms
    assert deref(g) is clause[0].args[0]
    assert body.args[1] is clause[1].args[1]
    # the clause variable is the goal's own cell
    assert body.args[0] is x


def test_clause_builder_assigns_serials_in_first_occurrence_order(eng):
    # the builder is the only place but new_var that assigns serials: a
    # frame reserves allocated ... allocated + n - 1 for its n variables,
    # in the order they first occur, a variable read from the goal leaves
    # its serial unused, every other one is a fresh cell with its serial,
    # and a ~Name cell takes none.  The head code never builds the head
    # compound: on a match it returns the goal itself, its cells bound
    eng.consult_text("fr(X, f(Y, ~P, X), Z) :- t(Z, W, Y).")
    clause = eng.db[("fr", 3)][0]
    store = eng.store
    a, b, c = store.new_var(), store.new_var(), store.new_var()
    mark = store.mark()
    start = store.allocated
    build = engine_module._compile(clause)
    goal = Struct("fr", (a, b, c))
    head, body = head_and_body(build, goal, store)
    (y, p, x2), w = deref(b).args, body.args[1]
    assert head is goal and store.allocated == start + 4
    assert [y.serial, w.serial] == [start + 1, start + 3]
    assert all(type(v) is Var and v.name is None and v.ref is None for v in (y, w))
    assert x2 is a and body.args[2] is y and body.args[0] is c
    assert p is store.evar("~P")
    store.undo_to(mark)
    # the goal holds f/3 there: Y is the goal's own subterm
    q = store.new_var()
    start = store.allocated
    goal = Struct("fr", (a, Struct("f", (q, Atom("k"), a)), c))
    head, body = head_and_body(build, goal, store)
    assert head is goal and body.args[2] is q
    assert store.allocated == start + 4 and body.args[1].serial == start + 3
    store.undo_to(mark)
    # a clause with no ordinary variable takes no serial, and its head
    # code, too, returns the goal it matched
    eng.consult_text("gr(a, ~P).")
    clause = eng.db[("gr", 2)][0]
    goal = Struct("gr", (a, b))
    head, _ = head_and_body(engine_module._compile(clause), goal, store)
    assert head is goal and store.allocated == start + 4


@pytest.mark.parametrize("occurs_check", [False, True])
def test_heads_with_no_variable_run_head_code(occurs_check):
    # a ground fact, an atom head and a fact whose only non-atomic constants
    # are a ~Name cell and a shared ground subterm: each try runs head
    # code, which returns the goal itself on a match and MISS otherwise,
    # so no head is left to the generic unify
    eng = Engine(occurs_check=occurs_check, load_prelude=False)
    eng.consult_text("edge(a, 1). n('1'). go. db(~T, f(g(b), [2]), k).")
    store = eng.store
    miss = engine_module._MISS

    def run(goal):
        key = (goal, 0) if type(goal) is str else (goal.name, len(goal.args))
        clause = eng.db[key][0]
        return head_and_body(engine_module._compile(clause), goal, store)

    mark = store.mark()
    x, y = store.new_var(), store.new_var()
    goal = Struct("edge", ("a", x))
    head, body = run(goal)
    assert head is goal and body == "true" and deref(x) == 1
    store.undo_to(mark)
    # the quoted atom '1' and the integer 1 differ, in either place
    assert run(Struct("edge", ("a", "1"))) is miss
    assert run(Struct("n", (1,))) is miss
    goal = Struct("n", ("1",))
    assert run(goal)[0] is goal
    goal = "go"
    head, body = run(goal)
    assert head is goal and body == "true"
    # the ~Name cell is a constant operand, bound by the goal's integer;
    # the shared ground subterm is the stored one, bound to the goal's cell
    ground = eng.db[("db", 3)][0][0].args[1]
    goal = Struct("db", (5, y, "k"))
    head, body = run(goal)
    assert head is goal and deref(y) is ground
    assert deref(store.evar("~T")) == 5
    store.undo_to(mark)
    assert deref(store.evar("~T")) is store.evar("~T")
    assert run(Struct("db", (x, y, "j"))) is miss
    store.undo_to(mark)
    assert answers(eng, "edge(A, B), n(C), go, db(D, E, F).") == [
        "A = a, B = 1, C = '1', D = ~T, E = f(g(b),[2]), F = k"]
    assert answers(eng, "db(3, f(g(b), [2]), k), ~T == 3.") == ["true"]


def test_integer_terms_are_plain_ints(eng):
    # an integer term is the Python int itself, in every layer
    goal, varmap = read_query("X = f(5, -3), Y is 2 + 3, functor(f(a, b), _, A).", eng.store)
    solutions = eng.solve(goal, varmap)
    next(solutions)
    x, y, a = (deref(varmap[name]) for name in "XYA")
    assert [type(t) for t in (*x.args, y, a)] == [int] * 4
    assert (x.args, y, a) == ((5, -3), 5, 2)
    solutions.close()
    store = Store()
    pairs = engine_module.check_clauses(read_program("a(~X).", store))
    _, [(_, body), *_] = rewrite_program(pairs, list(store.evars), store)
    assert body.name == "arg" and type(body.args[0]) is int and body.args[0] == 1
    # the quoted atom '1' and the integer 1 stay apart, in the head code of
    # a one-clause predicate and in the index of k/2
    eng.consult_text("h('1'). g(1). k('1', atom). k(1, int).")
    assert answers(eng, "h(1).") == [] and answers(eng, "h('1').") == ["true"]
    assert answers(eng, "g('1').") == [] and answers(eng, "g(1).") == ["true"]
    clauses = eng.db[("k", 2)]
    select = engine_module._selection(clauses)
    for first, clause in ((Atom("1"), clauses[0]), (1, clauses[1])):
        assert select((first, eng.store.new_var())) == [clause]
    assert answers(eng, "k(1, W).") == ["W = int"]
    assert answers(eng, "k('1', W).") == ["W = atom"]


def test_atom_terms_are_plain_strs(eng):
    # an atom term is its name, the Python str itself, in every layer
    goal, varmap = read_query("X = f(a, '1', []), functor(g(b), N, _), Y = {}.", eng.store)
    solutions = eng.solve(goal, varmap)
    next(solutions)
    x, n, y = (deref(varmap[name]) for name in "XNY")
    assert [type(t) for t in (*x.args, n, y)] == [str] * 5
    assert (x.args, n, y) == (("a", "1", "[]"), "g", "{}")
    solutions.close()
    # the quoted atom '1' and the integer 1 stay apart: in unify, in the
    # head code of a one-clause predicate and in the select of k/2
    store = eng.store
    assert not unify("1", 1, store) and not unify(1, "1", store)
    assert not unify(Struct("f", ("1",)), Struct("f", (1,)), store)
    eng.consult_text("h('1', a). g(1, a). k('1', atom). k(1, int).")
    for name, first, other in (("h", "1", 1), ("g", 1, "1")):
        build = engine_module._compile(eng.db[(name, 2)][0])
        goal = Struct(name, (first, "a"))
        assert head_and_body(build, goal, store)[0] is goal
        assert head_and_body(build, Struct(name, (other, "a")), store) is engine_module._MISS
    clauses = eng.db[("k", 2)]
    select = engine_module._selection(clauses)
    for first, clause in (("1", clauses[0]), (1, clauses[1])):
        assert select((first, store.new_var())) == [clause]
    assert answers(eng, "k(X, W), X == '1'.") == ["X = '1', W = atom"]


def test_every_corpus_clause_try_returns_the_goal_or_miss(monkeypatch):
    # head code decides every try of the corpus and the prelude: it hands
    # try_clause's unify the goal itself or MISS, never a head to match
    copy = engine_module.copy_terms
    tries = []

    def checked(build, goal, store, bar, rest):
        found = copy(build, goal, store, bar, rest)
        assert found is engine_module._MISS or found[0] is goal
        tries.append(found is engine_module._MISS)
        return found

    monkeypatch.setattr(engine_module, "copy_terms", checked)
    for path in sorted(corpus_dir().glob("*.pl")):
        e = Engine()
        e.consult_text(path.read_text(encoding="utf-8"))
        for query in read_queries(path.with_suffix(".queries")):
            try:
                list(e.query(query))
            except PrologError:
                pass
    assert tries.count(True) > 5 and tries.count(False) > 1000


def test_head_reads_the_goal_in_read_mode_and_builds_in_write_mode(eng):
    eng.consult_text("rd([H|T], L) :- q(H, T, L, N).")
    clause = eng.db[("rd", 2)][0]
    store = eng.store
    tail, lv = store.new_var(), store.new_var()
    goal = Struct("rd", (Struct(".", (Atom("a"), tail)), lv))
    start = store.allocated
    head, body = head_and_body(engine_module._compile(clause), goal, store)
    # read mode: the head's list is the goal's own, the body holds the
    # goal's own subterms, and only N is new
    assert head.args[0] is goal.args[0] and head.args[1] is lv
    h, t, l, n = body.args
    assert h is goal.args[0].args[0] and t is tail and l is lv
    assert n.serial == start + 3 and store.allocated == start + 4
    # write mode: the list is built from fresh cells, bound by unify
    v = store.new_var()
    start = store.allocated
    body = engine_module.try_clause(clause, Struct("rd", (v, lv)), store, 0, None)[0]
    h, t, l, n = body.args
    assert [c.serial for c in (h, t, n)] == [start, start + 1, start + 3]
    assert l is lv and store.allocated == start + 4
    assert deref(v).args == (h, t)


def test_goal_position_variables_are_never_the_goals_own_terms(eng):
    # a variable the body runs as a goal is stored as call(X), so the
    # goal's own term runs opaque to cut and converted when it starts,
    # whether the head holds it directly or in read mode
    eng.consult_text("p(X) :- X. p(_). r(X) :- (X ; true). m(1). m(2). "
                     "s(f(X)) :- X. s(_). u(f(X)) :- (X ; true).")
    assert answers(eng, "p(!).") == ["true", "true"]
    assert len(answers(eng, "p((m(Y), !)).")) == 2
    assert answers(eng, "s(f(!)).") == ["true", "true"]
    assert len(answers(eng, "s(f((m(Y), !))).")) == 2
    for query in ("r(2).", "s(f(2)).", "u(f(2))."):
        with pytest.raises(TypeMismatchError):
            list(eng.query(query))


def test_goal_terms_reached_as_data_run_as_their_cells_would(eng):
    # a head variable that also stands inside a compound the clause makes
    # can reach a goal position through call/1, which converts the goal as
    # it finds it, so a cut passed literally answers as one passed through
    # a variable: as call/1's own cut
    eng.consult_text(
        "m(1). m(2). mk(X, (m(_), X)). mk2(f(X), (m(_), X)). "
        "w(X, G) :- G = (m(_), X). mkc(X, (X ; true)). "
        "q :- mk(!, G), call(G). q2 :- X = !, mk(X, G), call(G). "
        "q3 :- mk2(f(!), G), call(G). q4 :- w(!, G), call(G). "
        "q5 :- mkc((true -> fail), G), call(G)."
    )
    for query in ("q.", "q2.", "q3.", "q4."):
        assert len(answers(eng, query)) == 1, query
    assert answers(eng, "q5.") == []
    for query in ("mk(2, G), call(G).", "w(2, G), call(G).", "mk2(f(2), G), call(G)."):
        with pytest.raises(TypeMismatchError):
            list(eng.query(query))


def pattern_term(i, x="X"):
    """``f/11`` with ``x`` at the positions of the set bits of ``i`` and
    ``a`` at the rest: for each ``i`` from 1 to 2,047 a head argument of a
    shape of its own."""
    return f"f({','.join(x if i >> b & 1 else 'a' for b in range(11))})"


def test_shape_cache_is_bounded():
    # a long-lived process that consults ever-new programs keeps at most
    # the bound of shape factories; a clause keeps the builder it was given
    factory = engine_module._factory
    bound = factory.cache_info().maxsize
    n = bound + 100
    program = " ".join(f"s({i}, {pattern_term(i)}, X)." for i in range(1, n + 1))
    eng = Engine(load_prelude=False)
    eng.consult_text(program)
    factory.cache_clear()
    for i in range(1, n + 1):
        assert answers(eng, f"s({i}, T, b).") == [f"T = {pattern_term(i, 'b')}"]
        assert factory.cache_info().currsize <= bound
    # the first shapes were evicted: their clauses still answer, and a
    # fresh engine makes their factories again
    for i in range(1, 101):
        assert answers(eng, f"s({i}, {pattern_term(i, 'c')}, V).") == ["V = c"]
    fresh = Engine(load_prelude=False)
    fresh.consult_text(program)
    misses = factory.cache_info().misses
    for i in range(1, 101):
        assert answers(fresh, f"s({i}, T, c).") == [f"T = {pattern_term(i, 'c')}"]
    assert factory.cache_info().misses == misses + 100
    assert factory.cache_info().currsize == bound


@pytest.mark.parametrize("name", [
    "it's", 'a"""b', "back\\slash", "new\nline", "héllo wörld", "__import__",
    "'), __import__('os'), ('", "def",
])
def test_functor_names_enter_generated_code_safely(eng, name):
    q = write_term(Atom(name))
    eng.consult_text(f"{q}(X, {q}(X, Y), Y) :- {q}(X) = {q}(X).")
    expected = write_term(Struct(name, (1, Atom("b"))), priority=999)
    assert answers(eng, f"{q}(1, T, b).") == [f"T = {expected}"]
    assert answers(eng, f"{q}(1, {q}(2, b), V).") == []


def test_clauses_of_one_shape_share_one_factory(eng):
    # atoms, integers, functor names, ground subterms and ~Name cells are
    # constants of a shape, not part of it
    eng.consult_text("sh(a, 1, g(b), ~P, X, f(X)). sh(zz, 22, [1,2], c, Y, f(Y)). "
                     "sh(~Q, k(m), 3, ~P, Z, f(Z)). sh(a, 1, g(b), ~P, X, h(X)). "
                     "sh(a, 1, g(b), ~P, X, f(X, X)).")
    assert len(answers(eng, "sh(A, B, C, D, E, F).")) == 5
    codes = [record[2].__code__ for record in eng.db[("sh", 6)]]
    assert codes[0] is codes[1] is codes[2] is codes[3]
    assert codes[4] is not codes[0]
    # the shared factory keeps each clause's own name.  Where the goal holds
    # a compound, clause 1 reads f(2) and refuses h(2), and clause 4 the
    # other way round; where it holds a cell, each builds its own name.  A
    # bound second argument selects clauses 1, 4 and 5 alike
    assert answers(eng, "sh(_, 1, _, _, E, f(2)).") == ["E = 2"]
    assert answers(eng, "sh(_, 1, _, _, E, h(2)).") == ["E = 2"]
    assert answers(eng, "sh(_, 1, _, _, 2, F).") == ["F = f(2)", "F = h(2)", "F = f(2,2)"]


def compile_corpus_and_prelude():
    """Compile every clause of each corpus program and of the prelude: that
    makes every factory their queries could run."""
    for path in sorted(corpus_dir().glob("*.pl")):
        e = Engine()
        e.consult_text(path.read_text(encoding="utf-8"))
        for clauses in e.db.values():
            for clause in clauses:
                engine_module._compile(clause)


def test_corpus_and_prelude_compile_to_pinned_shapes():
    # pinned, so a change to the clause compiler that splits one shape into
    # two, or merges two, fails here
    factory = engine_module._factory
    factory.cache_clear()
    compile_corpus_and_prelude()
    assert factory.cache_info().currsize == 34


def test_generated_source_holds_no_constant_text(eng, monkeypatch):
    sources = []
    source = engine_module._source
    monkeypatch.setattr(engine_module, "_source",
                        lambda *shape: sources.append(source(*shape)) or sources[-1])
    engine_module._factory.cache_clear()
    eng.consult_text("lit(secretatom, 987654, w(hiddenatom, 4242), X, 'quoted text') "
                     ":- X = pair(31337, ~Cell).")
    assert answers(eng, "lit(A, B, C, D, E).") == [
        "A = secretatom, B = 987654, C = w(hiddenatom,4242), D = pair(31337,~Cell), "
        "E = 'quoted text'"]
    (text,) = sources
    for literal in ("secretatom", "987654", "hiddenatom", "4242", "quoted", "31337",
                    "Cell", "lit", "pair", "'", '"'):
        assert literal not in text
    # only the body's compounds with a variable below them are built, here
    # the '=': the head code matches the head against the goal without
    # building it, and pair(31337, ~Cell) is a shared constant
    assert text.count("Struct(") == 1


def test_generated_source_holds_no_program_text(monkeypatch):
    # a shape is only a clause's structure: first_calls.py's 2,000
    # predicates of distinct names compile to two factories, and no source
    # made for them, the corpus or the prelude holds a string literal
    sources = []
    source = engine_module._source
    monkeypatch.setattr(engine_module, "_source",
                        lambda *shape: sources.append(source(*shape)) or sources[-1])
    factory = engine_module._factory
    factory.cache_clear()
    eng = Engine(load_prelude=False)
    eng.consult_text(first_calls.program())
    for i in range(first_calls.PREDICATES):
        assert answers(eng, f"p{i}(a,Y).") == [f"Y = c{i}"]
    assert factory.cache_info().currsize == len(sources) == 2
    factory.cache_clear()
    compile_corpus_and_prelude()
    assert len(sources) == 2 + 34
    for text in sources:
        assert "'" not in text and '"' not in text


def templates(records):
    return [record[2] for record in records]


def test_consult_after_templates_are_built(eng):
    eng.consult_text("c(1). c(X) :- X = one.")
    assert answers(eng, "c(X).") == ["X = 1", "X = one"]
    eng.consult_text("c(2). c(Y) :- Y = two.")
    records = eng.db[("c", 1)]
    before = templates(records)
    assert before[2:] == [None, None] and None not in before[:2]
    assert answers(eng, "c(X).") == ["X = 1", "X = one", "X = 2", "X = two"]
    after = templates(records)
    # the clauses tried before the consult keep their templates
    assert all(a is b for a, b in zip(after[:2], before[:2]))
    assert None not in after[2:]


def test_prelude_templates_are_compiled_once_per_process():
    query = "phrase(('#<'([a]),'#+'(x),'#-'(x),'#:'(a),'#>'([])),_,_)."
    engine_module._prelude_clauses.cache_clear()
    try:
        assert answers(Engine(), query) == ["true"]
        records = engine_module._prelude_clauses()
        first = templates(records)
        assert any(t is not None for t in first)
        assert answers(Engine(), query) == ["true"]
        # the second engine compiles none: every slot holds what it held
        assert all(a is b for a, b in zip(templates(records), first))
    finally:
        engine_module._prelude_clauses.cache_clear()


def test_fresh_variable_serials_are_stable(eng):
    # the renderings of unbound answers are pinned: templates make fresh
    # cells in the order a generic copy of the clause makes them in
    eng.consult_text("app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R). "
                     "pair(X, p(X, Y, g(a)), Y).")
    assert answers(eng, "app(X, Y, [1,2]).") == [
        "X = [], Y = [1,2]", "X = [1], Y = [2]", "X = [1,2], Y = []"]
    assert [str(s) for s in itertools.islice(eng.query("app(X, [a], Z)."), 3)] == [
        "X = [], Z = [a]",
        "X = [_G27], Z = [_G27,a]",
        "X = [_G27,_G32], Z = [_G27,_G32,a]",
    ]
    assert answers(eng, "pair(A, P, B).") == [
        "A = _G37, P = p(_G37,_G39,g(a)), B = _G39"]
    # the prelude's cells live in a store of their own, so an engine's
    # serials start at 0 with the prelude or without it
    for engine in (Engine(), Engine(load_prelude=False)):
        assert answers(engine, "functor(T, f, 2).") == ["T = f(_G1,_G2)"]


# --- configuration flags -----------------------------------------------------


def test_unknown_predicate_modes():
    strict = Engine()
    with pytest.raises(ExistenceError, match="nosuch/1"):
        list(strict.query("nosuch(1)."))
    lax = Engine(unknown_fail=True)
    assert answers(lax, "nosuch(1) ; X = ok.") == ["X = ok"]


def test_occurs_check_flag():
    checked = Engine(occurs_check=True)
    assert answers(checked, "X = f(X).") == []
    rational = Engine()
    assert len(list(rational.query("X = f(X), Y = 1."))) == 1


CYCLIC_HEADS = [
    ("p(Y, Y).", "Y = f(...)"),
    ("q(Z, Z).", "Z = [...|_G10]"),
    ("r(W, W).", "W = f(...)"),
    ("s(V, V).", "V = [...|_G15]"),
    ("p(f(Y), Y).", "Y = f(f(...))"),
]


@pytest.mark.parametrize("occurs_check", [False, True])
def test_clause_heads_keep_their_cyclic_answers(occurs_check):
    # a head binds in the order unify meets its pairs, last argument first
    # and depth first, so a goal that makes the head cyclic gets the same
    # cycle, and serials, as a head built and then unified; left-to-right
    # binding closes these cycles elsewhere
    eng = Engine(load_prelude=False, occurs_check=occurs_check)
    eng.consult_text("p(X, f(X)). q([H|T], H). r(f(X), X). s(A, [A|_]).")
    for query, answer in CYCLIC_HEADS:
        assert answers(eng, query) == ([] if occurs_check else [answer]), query
    eng.consult_text("k(g(A, B), B, A).")
    assert answers(eng, "X = X, k(Y, X, Y).") == (
        [] if occurs_check else ["X = _G20, Y = g(...,_G20)"])


@pytest.mark.parametrize("occurs_check", [False, True])
def test_write_mode_head_binds_the_goal_argument_as_it_is_then(occurs_check):
    # the pair W = W binds the goal's X and Y first; the write-mode f(Z)
    # then binds what the goal's first argument has become, not the cell
    # it was when the head code read it (with X older, Y is that cell)
    eng = Engine(load_prelude=False, occurs_check=occurs_check)
    eng.consult_text("p(f(Z), W, W).")
    assert answers(eng, "p(Y, X, Y).") == ["Y = f(_G4), X = f(_G4)"]
    assert answers(eng, "X = X, p(Y, X, Y).") == ["X = f(_G8), Y = f(_G8)"]


def test_no_prelude_flag():
    bare = Engine(load_prelude=False)
    with pytest.raises(ExistenceError):
        list(bare.query("new_assumption_db(Db)."))
    with_prelude = Engine()
    assert len(answers(with_prelude, "new_assumption_db(Db).")) == 1


def test_prelude_is_read_once_and_shared_read_only(monkeypatch, capsys):
    first = Engine()
    reads = []
    read_program = engine_module.read_program

    def counted(*args):
        reads.append(args)
        return read_program(*args)

    monkeypatch.setattr(engine_module, "read_program", counted)
    second = Engine()
    assert reads == []
    # a consult appends to its own engine's predicate lists only
    first.consult_text("nonvar_member(extra, _).")
    list(first.query("listing(nonvar_member/2)."))
    assert "extra" in capsys.readouterr().out
    list(second.query("listing(nonvar_member/2)."))
    assert "extra" not in capsys.readouterr().out
    assert answers(second, "nonvar_member(X, [a|_]).") == ["X = a"]
    # the shared clauses keep their source variable names
    list(second.query("listing(equate_assumption)."))
    assert "equate_assumption(X,Xs/Ys,XsZs) :- " in capsys.readouterr().out


def test_prelude_with_program_variable_is_rejected(monkeypatch):
    # the shared prelude is read with ~ syntax off, whatever the engine
    # allows: a ~Name cell in it would be one cell in every engine
    monkeypatch.setattr(engine_module, "prelude_text", lambda: "p(~X).\n")
    engine_module._prelude_clauses.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(PrologSyntaxError, match="disabled"):
                Engine(allow_evars=True)
        assert engine_module._prelude_clauses.cache_info().currsize == 0
        assert answers(Engine(load_prelude=False), "X = 1.") == ["X = 1"]
    finally:
        engine_module._prelude_clauses.cache_clear()


def test_deep_input_reads_runs_and_transpiles(eng):
    # is/2 walks a sum deeper than the Python stack with its own stack
    assert answers(eng, "X is " + "+".join(["1"] * 5000) + ".") == ["X = 5000"]
    # so do the reader and the transpiler, for terms and ->/2 chains
    eng.consult_text("p(" + "f(" * 3000 + "a" + ")" * 3000 + ").")
    assert answers(eng, "p(" + "f(" * 3000 + "X" + ")" * 3000 + ").") == ["X = a"]
    # p's clause is the text's first line, and the helper's clauses follow it
    def clause(body):
        return transpile("p :- " + body + ".").text.splitlines()[0]

    assert clause(" -> ".join(["a"] * 3000)).count("->") == 2999
    # long conjunctions and disjunctions are walked in a loop, not recursed into
    assert clause(", ".join(["true"] * 3000)).count(",") == 2999
    assert clause(" ; ".join(["true"] * 3000)).count(";") == 2999


def test_frame_budget():
    e = Engine(max_frames=500)
    e.consult_text("loop :- loop. grow :- grow ; true.")
    with pytest.raises(ResourceLimitError):
        list(e.query("loop."))
    with pytest.raises(ResourceLimitError):
        list(e.query("grow."))
    with pytest.raises(ResourceLimitError):
        list(e.query("findall(x, loop, L)."))
    # the budget is per query, not cumulative across queries
    assert answers(e, "X = 1.") == ["X = 1"]


def test_functor_arity_is_bounded_by_the_frame_budget():
    # functor/3 makes one cell per argument, so the frame budget bounds its
    # arity, and an arity above it raises before any cell is made
    e = Engine(max_frames=1000)
    assert answers(e, "functor(_T, f, 1000), functor(_T, N, A).") == ["N = f, A = 1000"]
    goal = e.query("functor(T, f, 1001).")
    allocated = e.store.allocated
    with pytest.raises(ResourceLimitError) as err:
        next(goal)
    assert str(err.value) == "functor/3: arity exceeds the frame budget (1000)"
    assert e.store.allocated == allocated


@pytest.mark.parametrize("rest", ["", ", X > 0", ", call(X)", ", phrase(X, L)"],
                         ids=["answer", "test", "call", "phrase"])
def test_an_integer_too_long_to_write_is_a_resource_error(eng, rest):
    # a 6,000-digit product has more digits than Python writes: shown as an
    # answer or named in a "not callable" error, it raises a PrologError
    n = "9" * 3000
    with pytest.raises(ResourceLimitError, match="^integer too long to write$"):
        answers(eng, f"X is {n} * {n}{rest}.")
    # unwritten, it computes as before
    assert answers(eng, f"_X is {n} * {n}, _X > 0, Y is _X - _X.") == ["Y = 0"]


@pytest.mark.parametrize("program, frames", [
    ("a. b. c. p :- a, b, c.", 4),
    # a true conjunct pushes nothing
    ("a. b. p :- a, true, b, true.", 3),
    # a conjunction with no variable, below one that has one
    ("a. b. p :- X = 1, (a, b), X == 1.", 5),
])
def test_a_clause_body_conjunction_costs_no_frame(program, frames):
    # p.'s own frame, then one per conjunct: a clause try pushes the
    # body's conjuncts, so the body's ',' is never a frame of its own
    e = Engine(max_frames=frames)
    e.consult_text(program)
    assert answers(e, "p.") == ["true"]
    e.max_frames = frames - 1
    with pytest.raises(ResourceLimitError):
        list(e.query("p."))


def test_frame_budget_spans_the_solution_sequence():
    # the first answer costs five frames and each later one three more, so
    # a budget of 12 yields three answers and runs out in the fourth
    e = Engine(max_frames=12)
    e.consult_text(" ".join(f"n({i})." for i in range(1, 11)))
    query = "n(X), Y is X + 1, Y > 0."
    seen = []
    with pytest.raises(ResourceLimitError):
        for solution in checked_answers(e, query):
            seen.append(solution)
            assert e.store.trail != []  # X, old and bound under n's choice point
    assert seen == ["X = 1, Y = 2", "X = 2, Y = 3", "X = 3, Y = 4"]
    # the next query on the same engine starts with a fresh budget
    gen = checked_answers(e, query)
    assert list(itertools.islice(gen, 3)) == seen
    gen.close()


def test_evars_reset_between_queries_but_not_within(eng):
    eng.consult_text("e(~X). two(A,B) :- e(A), e(B).")
    assert answers(eng, "two(1,B).") == ["B = 1"]
    assert answers(eng, "two(2,B).") == ["B = 2"]  # fresh again after reset


# --- cell lifetime ----------------------------------------------------------

COUNT = "count(N,N) :- !. count(I,N) :- I1 is I+1, count(I1,N)."


def _alive_since(store):
    """A watch on the ``Var`` cells that ``store`` makes from now on: calling
    it lists those still alive."""
    gc.collect()
    # holding the cells alive now keeps their ids from being reused
    old = {id(o): o for o in gc.get_objects() if type(o) is Var}
    born = store.allocated

    def alive():
        gc.collect()
        return [
            o for o in gc.get_objects()
            if type(o) is Var and o.serial >= born and id(o) not in old
        ]

    return alive


def test_failed_reads_leave_nothing_behind(eng):
    evars = eng.store.evars
    alive = _alive_since(eng.store)
    for _ in range(1000):
        with pytest.raises(PrologSyntaxError):
            eng.query("f(X, Y, Z) = .")
    with pytest.raises(PrologSyntaxError):
        eng.query("f(X, ~Q) = .")
    assert evars == {}
    for program, error in (("a(X, ~P). b(Y). c $.", PrologSyntaxError),
                           ("a(X, ~P). b(Y). c :- 1.", TypeMismatchError),
                           ("a(X, ~P). b(Y) :- true. ! :- b(Y).", PrologError)):
        with pytest.raises(error):
            eng.consult_text(program)
        assert evars == {}
    assert alive() == []  # no read that raised left a cell held
    # a ~Name the store knew before the failed read stays interned
    eng.consult_text("k(~P).")
    p = evars["~P"]
    with pytest.raises(PrologSyntaxError):
        eng.consult_text("a(~P, ~Q). b $.")
    assert evars == {"~P": p}


def test_query_closed_before_its_first_answer_leaves_nothing(eng):
    alive = _alive_since(eng.store)
    for _ in range(1000):
        eng.query("X = f(Y).").close()
    assert alive() == []
    eng.query("X = f(Y).")  # dropped unstarted
    assert alive() == [] and eng.store.evars == {}


def test_reset_check_sees_the_old_cells_that_hold_young_ones(eng, monkeypatch):
    # with a reset that undoes nothing, the clause's renamed A and B stay
    # bound.  They are young, so not trailed, but they survive only through
    # old cells, the query's X and ~E, which were trailed, and the check,
    # given the goal the test read, sees those
    eng.consult_text("p(f(A,B)) :- ~E = g(B), A = 1, B = 2.")
    goal, varmap = read_query("p(X).", eng.store)
    gen = eng.solve(goal, varmap)
    born = eng.store.allocated
    monkeypatch.setattr(Store, "undo_to", lambda store, mark: None)
    assert [str(s) for s in gen] == ["X = f(1,2)"]
    left = {c.name: c.ref for c in eng.store.bound_cells(goal)}
    assert sorted(left) == ["X", "~E"]
    for value in left.values():
        young = [a for a in value.args if isinstance(a, Var)]
        assert young and all(a.serial >= born for a in young)


@pytest.mark.parametrize("end", ["exhausted", "closed", "raised"])
def test_no_cell_a_query_made_outlives_it(end):
    e = Engine(max_frames=2_000)
    e.consult_text(COUNT + " n(1). n(2).")
    alive = _alive_since(e.store)
    if end == "exhausted":
        assert answers(e, "count(0,100), n(Y).") == ["Y = 1", "Y = 2"]
    elif end == "closed":
        gen = e.query("n(Y), count(0,100).")
        assert str(next(gen)) == "Y = 1"
        assert alive()  # a suspended query keeps its cells
        gen.close()
    else:
        for query, error in (("n(Y), count(0,100000).", ResourceLimitError),
                             ("count(0,10), nope.", ExistenceError)):
            with pytest.raises(error):
                list(e.query(query))
    assert alive() == []
    assert e.store.trail == [] and e.store.bound_cells() == []


def test_a_name_bound_to_young_cells_is_reset(eng):
    # ~E holds A, made by the clause's renaming; A is bound under the
    # choice point of ;, so it is trailed, and the next branch sees it free
    eng.consult_text("p(Z) :- ~E = f(A, B), (A = 1 ; A = 2), B = A, Z = ~E.")
    for _ in range(2):
        assert list(checked_answers(eng, "p(Z).")) == ["Z = f(1,1)", "Z = f(2,2)"]
    gen = checked_answers(eng, "p(Z).")
    assert next(gen) == "Z = f(1,1)"
    gen.close()
    assert eng.store.trail == []


LOOP = """
m(1). m(2).
s(no, _). s(_, yes).
loop(N, N) :- !.
loop(I, N) :-
    findall(X, m(X), L), \\+ L = [], (L = [1|_] -> true ; fail),
    (I < 0 ; true), !, s(I, Y), Y == yes, I1 is I + 1, loop(I1, N).
"""


def test_control_in_a_long_loop_keeps_the_trail_short():
    # about 27 steps a turn, so 5,000 turns run past 10**5 steps; s/2's
    # last clause binds Y with no choice point left, so Y is not trailed
    e = Engine(max_frames=10**6)
    e.consult_text(LOOP)
    gen = checked_answers(e, "loop(0, 5000), m(Y).")
    assert next(gen) == "Y = 1"
    # Y, under m's choice point; the loop's bindings were young, or were
    # trailed under a choice point that a cut then dropped with them
    assert len(e.store.trail) == 1
    assert list(gen) == ["Y = 2"]
    assert e.store.trail == []


def test_not_unify_in_a_loop_leaves_nothing_bound(eng):
    # each \= unifies young cells before it fails; it must undo them too
    eng.consult_text("""
        l(N, N) :- !.
        l(I, N) :-
            f(A, b) \\= f(1, c), var(A), g(B, B) \\= g(1, 2), var(B),
            I1 is I + 1, l(I1, N).
    """)
    assert list(checked_answers(eng, "l(0, 1000), f(X, Y) \\= f(1, 2).")) == []
    [answer] = checked_answers(eng, "l(0, 1000), f(X, b) \\= f(1, c).")
    assert answer.startswith("X = _G")  # X is left unbound
    assert eng.store.trail == []


def test_a_consult_between_answers_registers_its_cells(eng):
    eng.consult_text("n(1).")
    gen = checked_answers(eng, "n(X), (true ; t).")
    assert next(gen) == "X = 1"
    alive = _alive_since(eng.store)
    eng.consult_text("t :- ~New = f(Y).")
    new = eng.store.evars["~New"]
    # ~New is younger than the suspended query's marks, yet it is
    # trailed when t binds it, so the query's end unbinds it
    assert list(gen) == ["X = 1"]
    assert new.ref is None
    # the clause keeps its Y; the cells of t's renaming died with the query
    assert [c.name for c in alive()] == ["Y"]


def test_a_cell_consulted_between_answers_stays_trailed_past_a_tidy(eng):
    eng.consult_text("r(1). r(2). q :- fail.")
    gen = eng.query("r(X), (X == 2 -> q ; true).")
    assert str(next(gen)) == "X = 1"
    eng.consult_text("q :- (~New = 1 -> true ; true).")
    # ~New is younger than every mark of the query, and the if-then-else
    # that binds it tidies the trail; its entry stays, so the query's end
    # unbinds it
    assert [str(s) for s in gen] == ["X = 2"]
    assert answers(eng, "~New = V.") == ["V = ~New"]


def test_outside_a_query_every_cell_is_old(eng):
    eng.consult_text("n(1). n(2).")
    assert answers(eng, "n(X).") == ["X = 1", "X = 2"]
    # the query's end resets the young mark, so a cell made after it is
    # trailed when bound, and undoing to a mark unbinds it
    store = eng.store
    cell = store.new_var()
    mark = store.mark()
    assert unify(cell, 1, store)
    store.undo_to(mark)
    assert cell.ref is None


@pytest.mark.parametrize("program, query, added", [
    ("r(1). r(2).", "r(X).", "r(3)."),
    ("s(a,1). s(a,2). s(b,9).", "s(a,X).", "s(a,3)."),
], ids=["scan", "index"])
def test_a_suspended_call_keeps_the_clauses_it_started_with(program, query, added):
    # ISO's logical update view: a clause consulted between two answers is
    # not seen by a call made before it, whether or not the call was indexed
    e = Engine()
    e.consult_text(program)
    gen = checked_answers(e, query)
    assert next(gen) == "X = 1"
    e.consult_text(added)
    assert list(gen) == ["X = 2"]
    assert answers(e, query) == ["X = 1", "X = 2", "X = 3"]


def test_a_consult_rebuilds_only_the_index_entries_of_what_it_adds_to(monkeypatch):
    # an index entry depends only on its predicate's clause list, so a
    # consult of another predicate costs a large predicate's next call no
    # rebuild; one that adds to it rebuilds it, and a call made before
    # that consult keeps its old clauses
    made = []
    real = engine_module._selection
    monkeypatch.setattr(engine_module, "_selection",
                        lambda clauses: made.append(len(clauses)) or real(clauses))
    e = Engine()
    e.consult_text(" ".join(f"big({i}, v{i % 7})." for i in range(1000)))
    assert answers(e, "big(3, V).") == ["V = v3"]
    gen = checked_answers(e, "big(K, v2).")
    assert next(gen) == "K = 2"
    for r in range(20):
        e.consult_text(f"other{r}(x).")
        assert answers(e, f"big({r}, V).") == [f"V = v{r % 7}"]
    assert made == [1000]
    e.consult_text("big(1000, v2).")
    assert answers(e, "big(1000, V).") == ["V = v2"]
    assert made == [1000, 1001]
    assert len(list(gen)) == 142
    assert len(answers(e, "big(K, v2).")) == 144
    assert made == [1000, 1001]


def test_many_queries_leave_the_registry_as_it_was(eng):
    alive = _alive_since(eng.store)
    for _ in range(10_000):
        assert [str(s) for s in eng.query("X = f(Y), Y = 1.")] == ["X = f(1), Y = 1"]
    assert alive() == []
    # a ~Name only a query names is that query's: the store does not intern it
    assert len(list(eng.query("~New = 1, X = 2."))) == 1
    assert alive() == [] and list(eng.store.evars) == []
    assert eng.store.bound_cells() == []
    # query() still reads eagerly: a parse error raises from the call itself
    with pytest.raises(PrologSyntaxError):
        eng.query("X = .")


def test_a_query_own_names_die_with_it():
    e = Engine(load_prelude=False)
    e.consult_text("a(~X). b(~Y).")
    for i in range(50_000):
        assert answers(e, f"a(~Z{i}).") == ["true"]
    assert list(e.store.evars) == ["~X", "~Y"]


def test_a_query_answers_alike_whenever_it_runs(eng):
    # the second run once met the ~Zed cell the first had interned, older
    # than its Y, so sort/2 put it first
    runs = [answers(eng, "sort([Y, ~Zed], L).") for _ in range(2)]
    assert [re.sub(r"_G\d+", "_G", a) for run in runs for a in run] == [
        "Y = _G, L = [_G,~Zed]"] * 2


def test_a_consult_between_answers_interns_its_own_cell_for_a_query_name(eng):
    # the query's ~Own is its own variable; the consulted clause's is the
    # program's, so the query's binding never reaches k's new clause
    eng.consult_text("n(1). n(2). k(0).")
    gen = checked_answers(eng, "n(X), k(K), ~Own = X.")
    assert next(gen) == "X = 1, K = 0"
    eng.consult_text("k(~Own).")
    own = eng.store.evars["~Own"]
    # K is left unbound: the query's ~Own = 2 does not bind k's cell
    assert [re.sub(r"_G\d+", "_G", a) for a in gen] == ["X = 2, K = 0", "X = 2, K = _G"]
    assert own.ref is None


def test_a_nested_query_own_name_is_not_the_outer_one(eng):
    eng.consult_text("n(1). n(2).")
    outer = checked_answers(eng, "~Z = 1, n(X).")
    assert next(outer) == "X = 1"
    assert answers(eng, "~Z = V.") == ["V = ~Z"]
    assert list(outer) == ["X = 2"]
    assert eng.store.evars == {}


@pytest.mark.parametrize("older_then", ["nothing", "close", "resume"])
def test_queries_of_one_store_nest_last_in_first_out(older_then):
    e = Engine()
    e.consult_text("m(1). m(2). m(3). p(~A).")
    store = e.store
    older = e.query("m(X), (X > 1 -> m(Y) ; Y = 0).")
    assert str(next(older)) == "X = 1, Y = 0"
    newer = e.query("~A = 5, m(W), p(Z).")
    assert str(next(newer)) == "W = 1, Z = 5"
    if older_then == "nothing":  # the newer query ends first: both answer
        assert [str(s) for s in newer] == ["W = 2, Z = 5", "W = 3, Z = 5"]
    else:
        # the older query abandons the newer one, whose bindings its undo
        # removes: resuming the newer one raises, and it undoes nothing
        if older_then == "close":
            older.close()
        else:
            assert str(next(older)) == "X = 2, Y = 1"
        trail = list(store.trail)
        with pytest.raises(PrologError, match="abandoned"):
            next(newer)
        newer.close()
        assert store.trail == trail
    rest = ["X = 2, Y = 1", "X = 2, Y = 2", "X = 2, Y = 3"] + [
        "X = 3, Y = 1", "X = 3, Y = 2", "X = 3, Y = 3"]
    if older_then == "resume":
        rest = rest[1:]
    assert [str(s) for s in older] == ([] if older_then == "close" else rest)
    assert store.trail == [] and store.bound_cells() == [] and store.queries == []


def test_reset_check_sees_a_query_variable_left_bound(eng, monkeypatch):
    # with a reset that undoes nothing, the query's X stays bound; the test
    # read the query itself, so it holds X and the check, given the goal,
    # sees it
    goal, varmap = read_query("X = 1.", eng.store)
    gen = eng.solve(goal, varmap)
    monkeypatch.setattr(Store, "undo_to", lambda store, mark: None)
    assert [str(s) for s in gen] == ["X = 1"]
    assert [c.name for c in eng.store.bound_cells(goal)] == ["X"]


def _peaks_mib(body):
    """Run ``body`` in a child, so the peak resident size is its engine's
    alone; ``peak()`` there reads it in MiB.  Returns what it prints."""
    script = textwrap.dedent("""
        import resource, sys
        from entangle_pl import Engine
        unit = 2**20 if sys.platform == "darwin" else 2**10  # bytes or KiB
        def peak():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit
    """) + textwrap.dedent(body)
    return list(map(float, _child(script).split()))


def _child(script):
    """Run ``script`` in a fresh interpreter with this ``src`` on its path;
    returns what it prints."""
    src = str(Path(engine_module.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_memory_stays_flat_across_queries():
    second, tenth = _peaks_mib(f"""
        e = Engine()
        e.consult_text({COUNT!r})
        peaks = []
        for _ in range(10):
            assert [str(s) for s in e.query("count(0,20000).")] == ["true"]
            peaks.append(peak())
        print(peaks[1], peaks[9])
    """)
    assert tenth - second <= 5, (second, tenth)  # MiB


def test_one_long_query_runs_in_flat_memory():
    # a deterministic loop's own cells die young: the trail and the
    # registry hold none of them, so ten times the steps take no more room
    short, long = _peaks_mib(f"""
        e = Engine(max_frames=10**7)
        e.consult_text({COUNT!r})
        for n in (30_000, 300_000):
            assert [str(s) for s in e.query(f"count(0,{{n}}).")] == ["true"]
            print(peak())
    """)
    assert long - short <= 5, (short, long)  # MiB


def test_an_engine_runs_without_importing_the_transpiler():
    out = _child(textwrap.dedent("""
        import sys
        import entangle_pl
        e = entangle_pl.Engine()
        e.consult_text("p(~X). q(X) :- p(X).")
        print("entangle_pl.transpiler" in sys.modules)
        from entangle_pl import TranspileResult, transform_query, transpile
        print(transpile("p(~X).").__class__ is TranspileResult, callable(transform_query))
        print(all(hasattr(entangle_pl, name) for name in entangle_pl.__all__))
    """))
    assert out.split() == ["False", "True", "True", "True"]


def test_clause_shapes_are_the_only_generated_python():
    # the corpus runs with every compile the engine makes recorded: each is
    # a clause shape's factory, and the index is plain data and a closure
    out = _child(textwrap.dedent("""
        import entangle_pl.engine as engine
        from entangle_pl import Engine, corpus_dir
        from entangle_pl.oracle import read_queries
        names = []
        def recording(source, name, mode):
            names.append(name)
            return compile(source, name, mode)
        engine.compile = recording
        for path in sorted(corpus_dir().glob("*.pl")):
            e = Engine()
            e.consult_text(path.read_text(encoding="utf-8"))
            for query in read_queries(path.with_suffix(".queries")):
                for _ in e.query(query):
                    pass
        print(sorted(set(names)), len(names), engine._factory.cache_info().misses)
    """))
    names, compiles, factories = out.rsplit(maxsplit=2)
    assert names == "['<clause shape>']"
    assert int(compiles) == int(factories) > 0

"""Source-level elimination of program-wide variables."""

from pathlib import Path

import pytest

from entangle_pl import Engine, TranspileError, corpus_dir, transform_query, transpile
from entangle_pl.engine import check_clauses
from entangle_pl.errors import TypeMismatchError
from entangle_pl.kernel import Store, Struct, Var, deref
from entangle_pl.oracle import check_program
from entangle_pl.reader import read_program
from entangle_pl.transpiler import _substitute, rewrite_program
from conftest import answers
from oracle_sweep import is_variant

# every transpiled program ends with the helper's fixed clauses, then a
# '$conv1_ev' clause per entry of its naming table, the helper's keys last
HELPER_KEYS = (
    "'$conv1_ev'('$call_ev'(V1,V2),E,'$ev_$call_ev'(V1,V2)).\n"
    "'$conv1_ev'('$conv_ev'(V1,V2,V3),E,'$ev_$conv_ev'(V1,V2,V3)).\n"
    "'$conv1_ev'('$phrase_ev'(V1,V2,V3,V4),E,'$ev_$phrase_ev'(V1,V2,V3,V4)).\n"
    "'$conv1_ev'('$conv1_ev'(V1,V2,V3),E,'$ev_$conv1_ev'(V1,V2,V3)).\n"
)
FIXED_HELPER = transpile().text.removesuffix(HELPER_KEYS)


def test_layout_first_occurrence_order():
    r = transpile("a(~B, ~A). b(~C) :- c(~A).")
    assert r.layout == ["~B", "~A", "~C"]
    # ~A is read from slot 2 and ~C from slot 3
    assert "b(_IV3,_Env) :- arg(2,_Env,_IV2),arg(3,_Env,_IV3),c(_IV2)." in r.text


def test_rewriting_rebuilds_only_what_holds_a_renamed_cell():
    # every subterm that holds no ~Name cell and no reserved-name variable
    # is the source clause's own object; only the compounds on a path to
    # such a cell or variable are new
    store = Store()
    text = "p(f(a, g(b)), ~X, h(Y)) :- q(f(a, g(b)), Y), r(_Env)."
    ((head, body),) = check_clauses(read_program(text, store, allow_evar=True))
    f, x, h = head.args
    q, r = body.args
    (new_head, new_body), _, _ = _substitute(store, {"~X": 1}, (head, body))
    assert new_head is not head and new_body is not body
    assert new_head.args[0] is f and new_head.args[1] is not x and new_head.args[2] is h
    assert new_body.args[0] is q and new_body.args[1] is not r
    assert new_body.args[1].args[0] is not r.args[0]

    _, [(new_head, new_body), *_] = rewrite_program([(head, body)], list(store.evars), store)
    assert new_head.args[0] is f and new_head.args[2] is h
    iv = new_head.args[1]
    assert type(iv) is Var and iv.name == "_IV1"
    # arg(1, _Env, _IV1), then q and r renamed, each with the environment
    read, (new_q, new_r) = new_body.args[0], new_body.args[1].args
    assert read.args[2] is iv
    assert new_q.args[0] is q.args[0] and new_q.args[1] is q.args[1]
    fresh = new_r.args[0]
    assert type(fresh) is Var and fresh is not r.args[0] and fresh.name is None


def test_simple_fact_transform():
    r = transpile("a(~X).")
    assert r.text == (
        "a(_IV1,_Env) :- arg(1,_Env,_IV1).\n"
        + FIXED_HELPER
        + "'$conv1_ev'(a(V1),E,a(V1,E)).\n'$conv1_ev'(a(V1,V2),E,'$ev_a'(V1,V2)).\n"
        + HELPER_KEYS
    )
    assert r.predicates == [("a", 1)]


def test_texts_share_one_layout():
    assert transpile("a(~X).\n", "b(~X).\n") == transpile("a(~X).\nb(~X).\n")


def test_every_predicate_gains_env_argument():
    r = transpile("f(1). g :- f(X), h(X, X). h(_, _).")
    assert "f(1,_Env)." in r.text
    assert "g(_Env) :- f(X,_Env),h(X,X,_Env)." in r.text
    assert r.layout == []


def test_builtins_keep_their_arity():
    r = transpile("p(X) :- Y is X + 1, Y < 9, \\+(Y = 3), q(Y). q(_).")
    assert "is" in r.text and "q(Y,_Env)" in r.text
    assert "is X+1,_Env" not in r.text
    assert "<" in r.text


def test_arg_reads_in_layout_order():
    r = transpile("p :- e2(~B), e1(~A). e1(_). e2(_). first(~A).")
    # layout is [~B, ~A]; the clause must read slot 1 before slot 2
    clause = next(l for l in r.text.splitlines() if l.startswith("p("))
    assert clause.index("arg(1,") < clause.index("arg(2,")


def test_repeated_evar_read_once_per_clause():
    r = transpile("p(X, Y) :- q(~E, X), q(~E, Y). q(_, _).")
    clause = next(l for l in r.text.splitlines() if l.startswith("p("))
    assert clause.count("arg(") == 1


def test_control_constructs_rewritten():
    r = transpile(
        "p :- (a ; b -> c), \\+(d), call(a), findall(X, a, _), e(X). "
        "a. b. c. d. e(_)."
    )
    text = r.text
    assert "a(_Env) ; " in text.replace(";", " ; ") or ";" in text
    assert "\\+(d(_Env))" in text
    assert "call(a(_Env))" in text
    assert "findall(X,a(_Env)," in text


def test_dynamic_call_uses_helper():
    r = transpile("p(G) :- call(G). q :- ~V. r(1).")
    assert "p(G,_Env) :- '$call_ev'(G,_Env)." in r.text
    assert ("'$call_ev'(G,E) :- \\+(call((fail,G))),"
            "(var(G)->C=G;'$conv1_ev'(G,E,C)->true;C=G),call(C).") in r.text
    assert ("'$conv_ev'(G,E,C) :- "
            "var(G)->C='$call_ev'(G,E);'$conv1_ev'(G,E,C)->true;C=G.") in r.text
    assert r.text.endswith(
        "'$conv1_ev'(r(V1),E,r(V1,E)).\n'$conv1_ev'(r(V1,V2),E,'$ev_r'(V1,V2)).\n"
        + HELPER_KEYS)
    # no '$conv1_ev' head has a variable first argument, so the index
    # picks the one clause a goal can match
    conv1 = [h for h, _ in read_program(r.text, Store()) if h.name == "$conv1_ev"]
    assert conv1 and not any(isinstance(h.args[0], Var) for h in conv1)


def test_a_goal_whose_skeleton_holds_a_variable_converts_at_run_time():
    # the helper converts the whole goal when it starts, as call/1 does, so
    # a cut bound to X is the call's own; findall/3 and \+ start their goals
    r = transpile("m(1). p(X) :- call((m(_), X)), findall(Y, (m(Y), X), _), \\+ X.")
    assert ("p(X,_Env) :- '$call_ev'((m(_),X),_Env),"
            "findall(Y,'$call_ev'((m(Y),X),_Env),_),\\+('$call_ev'(X,_Env)).") in r.text
    assert "'$conv1_ev'((A;B),E,(C;D)) :- '$conv_ev'(A,E,C),'$conv_ev'(B,E,D)." in r.text
    assert "'$conv1_ev'(\\+(A),E,\\+('$call_ev'(A,E)))." in r.text
    assert "'$conv1_ev'(call(A),E,'$call_ev'(A,E))." in r.text


def test_every_program_ends_with_the_helper():
    # no clause calls a variable goal, and the helper is still appended
    r = transpile("p :- q. q.")
    assert r.text == (
        "p(_Env) :- q(_Env).\nq(_Env).\n"
        + FIXED_HELPER
        + "'$conv1_ev'(p,E,p(E)).\n'$conv1_ev'(p(V1),E,'$ev_p'(V1)).\n"
        "'$conv1_ev'(q,E,q(E)).\n'$conv1_ev'(q(V1),E,'$ev_q'(V1)).\n"
        + HELPER_KEYS
    )


def test_phrase_runs_through_the_helper_at_run_time():
    # one path for every phrase/2,3 goal: the helper expands the grammar
    # when the goal starts, and its conversion threads the environment
    # into the program's own nonterminals
    r = transpile("g --> [x]. p(L) :- phrase(g, L). q(S) :- phrase(g, S, []).")
    assert "p(L,_Env) :- '$phrase_ev'(g,L,[],_Env)." in r.text
    assert "q(S,_Env) :- '$phrase_ev'(g,S,[],_Env)." in r.text
    assert "'$conv1_ev'(phrase(G,L),E,'$phrase_ev'(G,L,[],E))." in r.text
    assert "'$conv1_ev'(g(V1,V2),E,g(V1,V2,E))." in r.text
    assert transform_query("phrase(g, L).", r) == "'$phrase_ev'(g,L,[],_Env)"


def test_phrase_with_a_goal_that_is_not_callable_raises_when_it_starts():
    # expanded inline, `fail` would run before the check met `1`
    src = "g --> {phrase(({fail}, {1}), L)}."
    r = transpile(src)
    assert "'$phrase_ev'(({fail},{1}),L,[],_Env)" in r.text
    oracle = Engine(allow_evars=False)
    oracle.consult_text(r.text)  # the expansion does not refuse the program
    with pytest.raises(TypeMismatchError, match="^goal is not callable: 1$"):
        list(oracle.query(transform_query("g(S, S0).", r)))
    assert answers(oracle, transform_query("fail, phrase({1}, L).", r)) == []


def test_output_contains_no_tilde_and_reparses():
    for src in [
        "a(~X). b(~X).",
        "p(X) :- ~G, q(X). q(1).",
        "v(1,~C1). v(2,~C2). all(A,B) :- v(1,A), v(2,B).",
    ]:
        r = transpile(src)
        assert "~" not in r.text
        oracle = Engine(allow_evars=False)
        oracle.consult_text(r.text)  # must parse cleanly with ~ rejected


def test_reserved_names_in_source_are_renamed():
    r = transpile("keep(~K). p(_Env) :- q(_Env). q(7).")
    pairs = read_program(r.text, Store(), False)
    p_head = next(h for h, _ in pairs if h.name == "p")
    first, env = p_head.args
    assert deref(first) is not deref(env)  # user _Env must not capture the env


# source variables named like machine-made ones, with a query each
CAPTURE = [
    ("p(_Env, _G2) :- q(_G2). q(1).", "p(a, X)."),
    ("s(_G1) --> [a], t. t --> [b].", "s(X, [a,b], [])."),
    ("g --> [x]. p(L, _G6) :- phrase(g, L, []), q(_G6). q(1).", "p([x], Y)."),
    ("q(1). p(A,B).", "p(_Env, _G2), _Env = a, _G2 = b."),
]


@pytest.mark.parametrize("program, query", CAPTURE)
def test_source_g_variables_do_not_capture_machine_variables(program, query):
    # machine-made variables print as _G<serial>; a source variable of
    # that name must stay a variable of its own
    [result] = check_program(program, [query])
    assert result.ok, result.detail


def test_is_variant():
    store = Store()
    [(t1, _), (t2, _), (t3, _), (t4, _)] = read_program(
        "f(X, Y, X, a, 1). f(A, B, A, a, 1). f(A, A, A, a, 1). f(A, B, A, a, 2).",
        store,
    )
    assert is_variant(t1, t2) and not is_variant(t1, t3)
    assert not is_variant(t3, t1) and not is_variant(t1, t4)


@pytest.mark.parametrize(
    "program",
    [pytest.param(p.read_text(), id=p.name) for p in sorted(corpus_dir().glob("*.pl"))]
    + [pytest.param(text, id=f"capture{i}") for i, (text, _) in enumerate(CAPTURE)]
    # an atom call of a helper name stays an atom, not '$ev_…'()
    + [pytest.param("q :- '$call_ev'. r :- '$conv1_ev', q.", id="helper-atom-call")]
    # the renamed '$ev_$ev_call' and '$ev_new_assumption_db' read back quoted
    + [pytest.param("new_assumption_db. call. q :- '$ev_call'(x), new_assumption_db(_).",
                    id="renamed-system-keys")],
)
def test_transpiled_text_reads_back_as_the_clauses_the_oracle_runs(
    oracle_engines, program
):
    # the oracle copies the rewritten terms instead of writing and reading
    # them back, so the writer is checked on the transpiled text here
    check_program(program, [])
    _, transpiled = oracle_engines
    read_back = read_program(transpile(program).text, Store(), allow_evar=False)
    assert len(read_back) == len(transpiled.added)
    for (head, body), ran in zip(read_back, transpiled.added):
        assert is_variant(Struct("-", (head, body)), Struct("-", tuple(ran[:2])))


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "path", sorted(corpus_dir().glob("*.pl")), ids=lambda p: p.stem
)
def test_transpiled_text_matches_its_golden_file(path):
    # byte for byte, so the _G numbering of machine-made variables (DCG
    # state variables among them) is pinned too
    golden = (GOLDEN / f"{path.stem}.transpiled").read_text(encoding="utf-8")
    assert transpile(path.read_text(encoding="utf-8")).text == golden


def test_transform_query_examples():
    r = transpile("a(~X). b(~X).")
    assert transform_query("a(10), b(V).", r) == "_Env=evs(_),a(10,_Env),b(V,_Env)"
    r2 = transpile("color(red). color(green).")
    assert transform_query("color(C).", r2) == "color(C,_Env)"
    r3 = transpile("v(1,~A). v(2,~B). pick(X) :- v(X, _).")
    q = transform_query("pick(X).", r3)
    assert q == "_Env=evs(_,_),pick(X,_Env)"


def test_transform_query_reads_used_slots():
    r = transpile("gate(~G). run :- ~G.")
    q = transform_query("~G = true, run.", r)
    assert q == "_Env=evs(_),arg(1,_Env,_IV1),_IV1=true,run(_Env)"


def test_a_predicate_whose_threaded_key_the_engine_runs_first_is_renamed():
    # call/0 and is/1 would become call/1 and is/2, which solve runs
    # before it looks at the database
    program = "call. is(a). p :- call, is(a)."
    assert transpile(program).text == (
        "'$ev_call'(_Env).\n'$ev_is'(a,_Env).\n"
        "p(_Env) :- '$ev_call'(_Env),'$ev_is'(a,_Env).\n"
        + FIXED_HELPER
        + "'$conv1_ev'(call,E,'$ev_call'(E)).\n"
        "'$conv1_ev'('$ev_call'(V1),E,'$ev_$ev_call'(V1)).\n"
        "'$conv1_ev'(is(V1),E,'$ev_is'(V1,E)).\n"
        "'$conv1_ev'('$ev_is'(V1,V2),E,'$ev_$ev_is'(V1,V2)).\n"
        "'$conv1_ev'(p,E,p(E)).\n'$conv1_ev'(p(V1),E,'$ev_p'(V1)).\n"
        + HELPER_KEYS
    )
    results = check_program(program, ["p.", "call.", "is(X).", "G = call, G."])
    assert [(r.ok, r.native) for r in results] == [(True, 1)] * 4, [str(r) for r in results]


def test_a_call_one_argument_longer_than_a_predicate_takes_the_reserved_name():
    # p/1 becomes p/2, so an undefined p/2 call becomes '$ev_p'/2, which
    # stays undefined; a control construct or a builtin is never renamed
    r = transpile("p(1). q :- p(_, _). call. var. r :- call(a), var(b).")
    assert r.text == (
        "p(1,_Env).\nq(_Env) :- '$ev_p'(_,_).\n'$ev_call'(_Env).\n'$ev_var'(_Env).\n"
        "r(_Env) :- call(a),var(b).\n"
        + FIXED_HELPER
        + "'$conv1_ev'(p(V1),E,p(V1,E)).\n'$conv1_ev'(p(V1,V2),E,'$ev_p'(V1,V2)).\n"
        "'$conv1_ev'(q,E,q(E)).\n'$conv1_ev'(q(V1),E,'$ev_q'(V1)).\n"
        "'$conv1_ev'(call,E,'$ev_call'(E)).\n"
        "'$conv1_ev'('$ev_call'(V1),E,'$ev_$ev_call'(V1)).\n"
        "'$conv1_ev'(var,E,'$ev_var'(E)).\n'$conv1_ev'('$ev_var'(V1),E,'$ev_$ev_var'(V1)).\n"
        "'$conv1_ev'(r,E,r(E)).\n'$conv1_ev'(r(V1),E,'$ev_r'(V1)).\n"
        + HELPER_KEYS
    )
    assert transform_query("p(X, Y), p(X).", r) == "'$ev_p'(X,Y),p(X,_Env)"


def test_any_query_may_call_a_variable_goal_as_natively():
    # no clause calls a variable goal, and the program still ends with the
    # helper, so the query runs on the transpiled engine
    program, query = "m(1). m(2).", "G = m(Y), G."
    r = transpile(program)
    assert r.text.endswith(
        "'$conv1_ev'(m(V1),E,m(V1,E)).\n'$conv1_ev'(m(V1,V2),E,'$ev_m'(V1,V2)).\n"
        + HELPER_KEYS)
    native = Engine()
    native.consult_text(program)
    oracle = Engine(allow_evars=False)
    oracle.consult_text(r.text)
    assert answers(oracle, transform_query(query, r)) == answers(native, query) == [
        "G = m(1), Y = 1",
        "G = m(2), Y = 2",
    ]


def test_transform_query_calls_a_variable_goal_through_the_programs_helper():
    r = transpile("m(1). m(2). p(G) :- G.")
    q = transform_query("G = m(Y), G.", r)
    oracle = Engine(allow_evars=False)
    oracle.consult_text(r.text)
    assert answers(oracle, q) == ["G = m(1), Y = 1", "G = m(2), Y = 2"]


def test_transform_query_runs_a_query_only_evar_as_a_variable():
    r = transpile("a(~X).")
    q = transform_query("a(1), ~Zed = 2.", r)
    native, oracle = Engine(), Engine(allow_evars=False)
    native.consult_text("a(~X).")
    oracle.consult_text(r.text)
    assert answers(oracle, q) == answers(native, "a(1), ~Zed = 2.") == ["true"]


def test_transpiled_runs_equivalently():
    src = "a(~X). b(~X)."
    native = Engine()
    native.consult_text(src)
    r = transpile(src)
    oracle = Engine(allow_evars=False)
    oracle.consult_text(r.text)
    assert answers(native, "a(10), b(V).") == ["V = 10"]
    assert answers(oracle, transform_query("a(10), b(V).", r)) == ["V = 10"]
    assert answers(oracle, transform_query("a(1), b(2).", r)) == []


def test_transpile_rejects_nothing_valid(tmp_path):
    # a program with every supported construct still transpiles
    src = """
    e(~A, ~B).
    g --> [t], { 1 < 2 }.
    p(X) :- (X = 1 -> true ; fail), \\+(X = 2), call(e(_, _)), r.
    r :- findall(Q, e(Q, _), _), phrase(g, [t]).
    """
    r = transpile(src)
    assert "~" not in r.text
    Engine(allow_evars=False).consult_text(r.text)


def test_deep_fact_transpiles_whole():
    # past the writer's 10,000-level cap for answers: transpiled text is
    # written whole, so the oracle reads back the program it was given
    deep = "f(" * 12_000 + "a" + ")" * 12_000
    text = "p(" + deep + ", ~X).\nq(~X).\n"
    r = transpile(text)
    assert "..." not in r.text
    assert r.text.count("f(") == 12_000
    query = "p(" + deep.replace("a", "Y") + ", 1), q(V)."
    assert "..." not in transform_query(query, r)
    results = check_program(text, [query, "p(T, Z), q(Z)."])
    assert [res.ok for res in results] == [True, True]


@pytest.mark.parametrize("program", ["'$ev_p'(a).", "p(1). '$ev_p'(X, Y) :- p(X).",
                                     "'$ev_call'."])
def test_a_reserved_ev_name_is_refused(program):
    with pytest.raises(TranspileError, match="reserved"):
        transpile(program)


@pytest.mark.parametrize("program, key", [
    ("'$call_ev'(a).", "'$call_ev'/1"),
    ("'$conv_ev'(a, b).", "'$conv_ev'/2"),
    ("'$phrase_ev'(a,b,c).", "'$phrase_ev'/3"),
    ("'$conv1_ev'(a, b).", "'$conv1_ev'/2"),
])
def test_a_helper_name_is_refused(program, key):
    # threaded, the program's predicate would share the helper's key, so
    # the helper's own clauses and calls would reach it: it is refused
    with pytest.raises(TranspileError) as raised:
        transpile(program)
    assert str(raised.value) == (
        f"cannot transpile {key}: the run-time helper's names are reserved for it")


def test_a_helper_name_at_a_key_of_its_own_is_a_program_predicate():
    # threaded, '$call_ev'/2 is '$call_ev'/3, which the helper leaves free
    queries = ["'$call_ev'(X, Y).", "G = '$call_ev'(X, Y), call(G)."]
    results = check_program("'$call_ev'(a, b).", queries)
    assert [(r.ok, r.native) for r in results] == [(True, 1), (True, 1)]

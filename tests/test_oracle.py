"""The native-vs-transpiled equivalence checker."""

from collections import Counter

import pytest

import entangle_pl.engine as engine_module
from entangle_pl import Engine, corpus_dir, oracle
from entangle_pl.kernel import Atom, EVar, Store, Struct, Var
from entangle_pl.oracle import (
    check_directory,
    check_program,
    normalize_solution,
    read_queries,
    solution_multiset,
)
from entangle_pl.reader import read_program, read_query
from entangle_pl.transpiler import rewrite_program, rewrite_query, transpile


def test_normalization_is_alpha_and_order_insensitive():
    e = Engine()
    # same query variables, mentioned in different orders: the generated
    # _G serials differ, the canonical forms must not
    sol_a = next(iter(e.query("X = f(A, A, B), Y = B.")))
    sol_b = next(iter(e.query("Y = B, X = f(A, A, B).")))
    assert normalize_solution(sol_a) == normalize_solution(sol_b)
    sol_c = next(iter(e.query("X = f(A, B, B), Y = A.")))
    assert normalize_solution(sol_a) != normalize_solution(sol_c)


def test_normalization_equates_evar_and_var_display():
    e = Engine()
    e.consult_text("v(~C).")
    native = next(iter(e.query("v(X).")))
    plain = next(iter(e.query("X = _.")))
    assert normalize_solution(native) == normalize_solution(plain)


def test_normalization_sees_differences_at_any_depth():
    answers = []
    for leaf in ("a", "b"):
        e = Engine()
        e.consult_text("p(" + "f(" * 10_005 + leaf + ")" * 10_005 + ").")
        answers.append(normalize_solution(next(iter(e.query("p(X).")))))
    assert answers[0] != answers[1]
    assert "..." not in answers[0][0][1]


def test_multiset_counts_duplicates():
    e = Engine()
    e.consult_text("d(1). d(1). d(2).")
    ms = solution_multiset(e, "d(X).")
    assert ms[(("X", "1"),)] == 2 and ms[(("X", "2"),)] == 1


def test_multiset_limit():
    e = Engine()
    e.consult_text("d(1). d(1). d(2).")
    assert sum(solution_multiset(e, "d(X).", limit=2).values()) == 2


def test_check_program_reports_per_query():
    results = check_program("a(~X). b(~X).", ["a(10),b(V).", "a(1),b(2)."], "demo")
    assert [r.ok for r in results] == [True, True]
    assert results[0].native == 1 and results[1].native == 0
    long_body = "a(~X). p :- " + ", ".join(["a(1)"] * 3000) + "."
    assert [r.ok for r in check_program(long_body, ["p.", "a(2), p."])] == [True, True]
    # a ~Name cell bound to a term with a variable: later clauses share it
    shared = "p :- ~C = f(_). q(Z) :- ~C = f(Z). r(W) :- ~C = f(W)."
    results = check_program(shared, ["p, q(a), r(W).", "p, q(Z), r(W), Z == W."])
    assert [(r.ok, r.native) for r in results] == [(True, 1), (True, 1)]


def _leak(monkeypatch, native, cell):
    """Make each run on one side, native or transpiled, end with
    ``cell(engine, goal, varmap)`` bound."""
    real = oracle.solution_multiset

    def leaky(engine, query, limit=None):
        counter = real(engine, query, limit)
        if engine.allow_evars == native:
            engine.store.bind(cell(engine, *query), Atom("leak"))
        return counter

    monkeypatch.setattr(oracle, "solution_multiset", leaky)


def test_cell_left_bound_fails_the_pair(monkeypatch):
    _leak(monkeypatch, True, lambda engine, goal, varmap: engine.store.evars["~X"])
    (result,) = check_program("a(~X).", ["a(1)."], "demo")
    assert not result.ok
    assert result.detail == "native left 1 cell(s) bound"


def test_query_variable_left_bound_fails_the_pair(monkeypatch):
    _leak(monkeypatch, True, lambda engine, goal, varmap: varmap["Y"])
    (result,) = check_program("a(~X).", ["a(Y)."], "demo")
    assert not result.ok
    # the transpiled query is copied from the leaked goal, so it differs too
    assert result.detail.endswith("; native left 1 cell(s) bound")


def test_transpiled_env_left_bound_fails_the_pair(monkeypatch):
    def env(engine, goal, varmap):
        # the rewritten goal is (_Env = evs(...), a(1, _Env))
        cell = goal.args[0].args[0]
        assert isinstance(cell, Var) and cell.ref is None
        return cell

    _leak(monkeypatch, False, env)
    (result,) = check_program("a(~X).", ["a(1)."], "demo")
    assert not result.ok
    assert result.detail == "transpiled left 1 cell(s) bound"


def test_listing_queries_are_checked():
    results = check_program("a(1).", ["a(X).", "listing(a)."], "demo")
    assert [(r.query, r.ok) for r in results] == [("a(X).", True), ("listing(a).", True)]


def test_every_query_mentioning_listing_is_checked():
    # a listing/1 call, in the goal's control skeleton or not, is one more pair
    queries = ["p(X).", "X = listing.", "p(listing).", "listing(p).",
               "(true, listing(p))."]
    results = check_program("p(listing).", queries, "demo")
    assert [(r.query, r.ok) for r in results] == [(q, True) for q in queries]


def test_a_listing_reached_through_call_prints_nothing(capsys):
    # it runs on both engines, but into a discarded buffer, so the report
    # keeps one line per pair
    results = check_program("p(1).", ["listing(p).", "call(listing(p))."], "demo")
    assert capsys.readouterr().out == ""
    assert [r.ok and str(r).startswith("OK ") for r in results] == [True, True]


def test_corpus_queries_files_parse():
    names = {p.name for p in corpus_dir().glob("*.queries")}
    assert {
        "interclausal.queries",
        "coloring.queries",
        "mst.queries",
        "inject.queries",
        "assumptions_demo.queries",
        "dcg_demo.queries",
    } <= names
    for path in corpus_dir().glob("*.queries"):
        assert read_queries(path), path


def test_full_corpus_equivalence():
    results = check_directory(corpus_dir())
    assert results, "no corpus pairs found"
    failures = [str(r) for r in results if not r.ok]
    assert all(r.ok for r in results), "\n".join(failures)


def test_report_lines_format():
    lines = [str(r) for r in check_directory(corpus_dir())]
    assert all(l.startswith("OK") for l in lines)
    assert any(":: test_mst(M)." in l for l in lines)


@pytest.mark.parametrize("change, detail", [
    ("{}, X \\== 2", "(native 2, transpiled 1) native-only e.g. (('X', '2'),)"),
    ("({} ; X = 3)", "(native 2, transpiled 3) transpiled-only e.g. (('X', '3'),)"),
])
def test_mismatch_names_a_solution_only_one_side_gives(monkeypatch, change, detail):
    # the transpiled side drops a solution, or adds one: its rewritten
    # goal G is run as the change, with {} standing for G; the changed goal
    # is built, since the oracle undoes no binding a rewrite makes
    real = oracle.rewrite_query

    def changed(goal, store, program):
        term, names = read_query(change.format("G"), store)
        put = {names["G"]: real(goal, store, program), names["X"]: goal.args[0]}

        def build(t):
            if isinstance(t, Struct):
                return Struct(t.name, tuple(map(build, t.args)))
            return put.get(t, t)

        return build(term)

    monkeypatch.setattr(oracle, "rewrite_query", changed)
    [result] = check_program("t(1). t(2).", ["t(X)."], "p.pl")
    assert str(result) == f"MISMATCH  p.pl :: t(X). {detail}"


def _holds_evar(term) -> bool:
    todo = [term]
    while todo:
        t = todo.pop()
        if isinstance(t, EVar):
            return True
        if isinstance(t, Var) and t.ref is not None:
            todo.append(t.ref)
        elif isinstance(t, Struct):
            todo.extend(t.args)
    return False


def test_check_program_reads_each_text_once(monkeypatch, oracle_engines):
    Engine()  # the prelude is read once per process; read it before counting
    program = "a(~X). b(~X). c(Y) :- a(Y), b(Y). p(G) :- call(G)."
    queries = ["a(1), b(V).", "c(Z).", "p(a(W))."]
    texts = []
    for name in ("read_program", "read_query"):
        real = getattr(engine_module, name)

        def read(text, *args, real=real):
            texts.append(text)
            return real(text, *args)

        monkeypatch.setattr(engine_module, name, read)
    bound_at_start = []
    real_multiset = oracle.solution_multiset

    def multiset(engine, query, limit=None):
        if engine.allow_evars:
            bound_at_start.append(engine.store.bound_cells(query[0]))
        return real_multiset(engine, query, limit)

    monkeypatch.setattr(oracle, "solution_multiset", multiset)
    assert all(r.ok for r in check_program(program, queries))
    assert texts == [program] + queries  # 1 + len(queries) texts
    assert bound_at_start == [[], [], []]
    _, transpiled = oracle_engines
    assert transpiled.store.evars == {}
    assert transpiled.added
    assert not any(_holds_evar(t) for clause in transpiled.added for t in clause[:2])

    # a ~Name missing from the layout runs as a query variable on the
    # transpiled side, and no cell is left bound
    (result,) = check_program(program, ["a(1), ~X = 1, ~Zed = 2."])
    assert result.ok and (result.native, result.transpiled) == (1, 1)
    native = oracle_engines[2]
    assert len(bound_at_start) == 4
    assert native.store.bound_cells() == []


def test_an_error_is_an_outcome(tmp_path, monkeypatch):
    e = Engine()
    e.consult_text("q(1). q(2) :- call(_).")
    assert solution_multiset(e, "q(X).") == Counter(
        {(("X", "1"),): 1, ("error", "InstantiationError"): 1}
    )
    (tmp_path / "g.pl").write_text("p(X) :- ~G, q(X). q(1).\n")
    (tmp_path / "g.queries").write_text("p(X).\n~G = true, p(X).\n")
    # p(X) raises on both sides: the same error class is a match
    assert [str(r) for r in check_directory(tmp_path)] == [
        "OK        g.pl :: p(X).",
        "OK        g.pl :: ~G = true, p(X).",
    ]
    # only the transpiled side raises: its rewritten goal ends in call(_)
    real = oracle.rewrite_query

    def raising(goal, store, program):
        unbound = Struct("call", (store.new_var(),))
        return Struct(",", (real(goal, store, program), unbound))

    monkeypatch.setattr(oracle, "rewrite_query", raising)
    assert str(check_directory(tmp_path)[1]) == (
        "MISMATCH  g.pl :: ~G = true, p(X). (native 1, transpiled 1)"
        " native-only e.g. (('X', '1'),);"
        " transpiled-only e.g. ('error', 'InstantiationError')"
    )


def test_a_query_may_call_a_variable_goal_where_no_clause_does():
    # every transpiled program ends with the '$call_ev' dispatch clauses,
    # also one where no clause calls a variable goal
    results = check_program("m(1). m(2).", ["G = m(Y), G.", "X = !, call((m(Y), X))."])
    assert [r.ok for r in results] == [True, True]
    assert (results[0].native, results[0].transpiled) == (2, 2)
    # the cut is bound before call/1 starts, so it is the call's own
    assert (results[1].native, results[1].transpiled) == (1, 1)


def test_a_call_of_a_helper_name_stays_undefined_on_both_sides():
    # the program leaves '$call_ev'/2 undefined, so the query's call raises
    # natively; transpiled, it takes the $ev_ name and does not reach the
    # helper's own '$call_ev'/2
    (result,) = check_program("p(1).", ["'$call_ev'(p(X), E)."], "helper.pl")
    assert str(result) == "OK        helper.pl :: '$call_ev'(p(X), E)."


# one naming table renames every call, in a clause, a query or a metacall
NAMING_PROBES = [
    # a prelude predicate one argument longer than a program predicate
    ("nonvar_member(a). q :- nonvar_member(X, [a]).", "q."),
    ("nonvar_member(a). q :- nonvar_member(X, [a]).", "nonvar_member(X, [b])."),
    # a program predicate that, threaded, would join a prelude predicate
    ("new_assumption_db.", "new_assumption_db."),
    ("new_assumption_db.", "new_assumption_db(X)."),
    ("new_assumption_db.", "phrase(('#<'([]), '#>'(_)), _, _)."),
    ("add_assumption(a, b).", "add_assumption(X, Y)."),
    # the name a predicate runs under, called by the source
    ("call. q :- '$ev_call'(x).", "q."),
    ("call. q :- '$ev_call'(x).", "'$ev_call'(x)."),
    ("call. q :- '$ev_call'(x).", "G = '$ev_call'(x), call(G)."),
    # one of the helper's keys, called through a metacall and directly
    ("p(1).", "G = '$call_ev'(p(X), E), call(G)."),
    ("p(1).", "'$call_ev'(p(X), E)."),
    ("p(1).", "G = p(X, Y), call(G)."),
]


@pytest.mark.parametrize("program, query", NAMING_PROBES)
def test_a_renamed_call_answers_alike_on_both_sides(program, query):
    (result,) = check_program(program, [query], "names.pl")
    assert str(result) == f"OK        names.pl :: {query}"


# a goal whose control skeleton contains itself is a type error on both
# sides, before any of it runs; the phrase/2 probe is a control
CYCLIC_PROBES = [
    ("p(1).", "X = (a, X), call(X)."),
    ("p(1).", "X = (a ; X), call(X)."),
    ("p(1).", "X = (p(Y), X), findall(Y, X, L)."),
    ("p(1).", "X = (a, X), \\+ X."),
    ("p :- ~G. a.", "X = (a, X), ~G = X, p."),
    ("a.", "X = (a -> X ; a), call(X)."),
    ("a.", "X = (a, X), G = call(X), call(G)."),
    ("v(X) :- X.", "X = (a, X), v(X)."),
    ("p(1).", "X = (a, X), phrase(X, L)."),
]


@pytest.mark.parametrize("program, query", CYCLIC_PROBES)
def test_a_cyclic_goal_raises_alike_on_both_sides(program, query):
    options = {"max_frames": 20_000}
    (result,) = check_program(program, [query], "cyclic.pl", engine_options=options)
    assert str(result) == f"OK        cyclic.pl :: {query}"


QUERY_ONLY_EVARS = [
    "a(1), ~X = 1, ~Zed = 2.",
    "~Zed = f(Y), a(Y), b(V).",
    "~Z = 1, ~Z = 2.",
    "sort([~Z, Y, ~X], L).",
    "~Q = Y, Y == ~Q.",
    "findall(~Z, t(~Z), L).",
]


@pytest.mark.parametrize("query", QUERY_ONLY_EVARS)
def test_a_query_only_evar_runs_as_a_query_variable(query, oracle_engines):
    # no clause holds ~Zed, ~Z or ~Q: transpiled, each is a fresh variable
    # of the query, and natively its cell is unbound again when it ends
    program = "a(~X). b(~X). t(1). t(2)."
    options = {"max_frames": 20_000}
    (result,) = check_program(program, [query], "q.pl", engine_options=options)
    assert str(result) == f"OK        q.pl :: {query}"
    assert [e.store.bound_cells() for e in oracle_engines] == [[], []]


def test_rewriting_binds_nothing(monkeypatch):
    store = Store()
    text = "p(_G1, X) :- ~A, q(X, ~B), phrase(g, X). q(_, _). g --> [a]."
    pairs = read_program(text, store, allow_evar=True)
    goal, _ = read_query("~B = 1, p(_Env, Y).", store, allow_evar=True)
    binds = []
    real_bind = Store.bind
    monkeypatch.setattr(
        Store, "bind", lambda s, cell, value: binds.append(cell) or real_bind(s, cell, value)
    )
    program, clauses = rewrite_program(pairs, list(store.evars), store)
    rewrite_query(goal, store, program)
    # the helper too: '$call_ev', '$conv_ev' and '$phrase_ev', and
    # '$conv1_ev' for each of the six control constructs with goal
    # arguments, phrase/2 and phrase/3, each predicate, at its own arity
    # and at one argument more (p/3, q/3 and g/3 are undefined), and each
    # of the helper's four keys
    assert len(clauses) == len(pairs) + 3 + 6 + 2 + 2 * len(program.predicates) + 4
    assert binds == []


def test_query_variables_stay_in_their_own_store():
    # compare_terms orders unbound cells by serial, unique only in one store,
    # so sharing the query's cells across the two stores would misorder them
    queries = ["Y = Y, p0(X), X \\== Y.", "Y = Y, p0(X), sort([X,Y], L)."]
    results = check_program("p0(_).", queries)
    assert [r.ok for r in results] == [True, True], [str(r) for r in results]


def test_a_cut_in_a_phrase_grammar_is_local_on_both_sides():
    # the transpiled program calls the expansion, so its ! cuts only the
    # grammar there too, not the clause around the phrase goal
    program = "m(1). m(2). c(X) --> {m(X)}. p(X, Y) :- m(Y), phrase((c(X), !), _, _)."
    (result,) = check_program(program, ["p(X, Y)."], "cut.pl")
    assert str(result) == "OK        cut.pl :: p(X, Y)."
    assert (result.native, result.transpiled) == (2, 2)


def test_the_iso_conversion_probes_answer_alike_on_both_sides():
    probes = [
        ("m(1). m(2).", "X = !, call((m(Y), X)).", 1),
        ("r(X) :- (X ; true).", "r((true -> fail)).", 1),
        ("a.", "fail, \\+ 1.", 0),
        ("a. b. p :- ~Gate.", "~Gate = (a, b), p.", 1),
    ]
    for program, query, n in probes:
        (result,) = check_program(program, [query], "probe.pl")
        assert str(result) == f"OK        probe.pl :: {query}"
        assert (result.native, result.transpiled) == (n, n), query
    results = check_program("p :- fail, \\+ 1.", ["p."])
    assert [(r.ok, r.native) for r in results] == [(True, 0)]


@pytest.mark.parametrize("gate, n", [
    ("(a, b)", 1), ("(a ; b)", 2), ("(a -> b)", 1), ("(\\+ a)", 0),
])
def test_a_control_construct_injected_through_a_cell_runs_on_both_sides(gate, n):
    (result,) = check_program("a. b. p :- ~Gate.", [f"~Gate = {gate}, p."], "gate.pl")
    assert result.ok, str(result)
    assert (result.native, result.transpiled) == (n, n)


@pytest.mark.parametrize("program, query", [
    ("p(L) :- phrase(({true}, [a]), L).", "p(L)."),
    ("q(L) :- phrase(('#<'([a,b]), {~V = 1}, '#:'(a), '#>'(R)), _, _), L = R.",
     "q(L), ~V = W."),
    (";(a) :- true.", ";(a)."),
    ("f(X) :- X = {a}.", "f(X)."),
], ids=["phrase-escape", "phrase-evar", "semicolon-1", "braces"])
def test_clauses_the_reader_used_to_refuse_answer_alike_on_both_sides(program, query):
    (result,) = check_program(program, [query], "read.pl")
    assert str(result) == f"OK        read.pl :: {query}"
    assert (result.native, result.transpiled) == (1, 1)


@pytest.mark.parametrize("program, query, n", [
    ("g --> [a]. p :- ~Gate.", "~Gate = phrase(g, [a]), p.", 1),
    ("g --> [a]. p(X, L) :- call((X, phrase(g, L))).", "p(true, L).", 1),
    ("c --> [a]. c --> [a]. p(X, L) :- phrase((c, X), L).", "p(!, [a]).", 1),
    ("c --> [a]. c --> [a]. q(X, L) :- phrase(X, L).", "q((c, !), [a]).", 1),
    ("g --> [a]. p(X, L) :- call((X = g, phrase(X, L))).", "p(_, L).", 1),
    ("c --> [a]. c --> [a]. p(L) :- phrase((c, !), L).", "p([a]).", 1),
], ids=["through-a-cell", "beside-a-variable", "variable-in-grammar",
        "variable-grammar", "grammar-bound-later", "cut-in-grammar"])
def test_a_phrase_goal_expands_when_it_starts_on_both_sides(program, query, n):
    # the transpiled program expands every grammar at run time, so the
    # program's own nonterminals get their environment and a ! in the
    # grammar cuts only the grammar, as natively
    (result,) = check_program(program, [query], "phrase.pl")
    assert str(result) == f"OK        phrase.pl :: {query}"
    assert (result.native, result.transpiled) == (n, n)


@pytest.mark.parametrize("unknown_fail", [False, True], ids=["raise", "fail"])
def test_a_call_one_argument_longer_than_a_predicate_is_undefined_on_both_sides(
    unknown_fail,
):
    # p/1 is threaded to p/2, so an undefined p/2 call, written in a clause
    # or made at run time, must not reach it on the transpiled side
    queries = ["p(X, Y).", "q.", "G = p(X, Y), call(G).", "findall(X, p(X, _), L)."]
    results = check_program("p(1). q :- p(_, _).", queries, "arity.pl",
                            engine_options={"unknown_fail": unknown_fail})
    assert [str(r) for r in results] == [f"OK        arity.pl :: {q}" for q in queries]
    # raised, each query counts its error as one outcome
    assert [r.native for r in results] == ([0, 0, 0, 1] if unknown_fail else [1] * 4)

"""The native-vs-transpiled equivalence checker."""

import pytest

from entangle_pl import Engine, corpus_dir, oracle
from entangle_pl.kernel import Atom
from entangle_pl.oracle import (
    check_directory,
    check_program,
    normalize_solution,
    read_queries,
    solution_multiset,
)


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


def test_cell_left_bound_fails_the_pair(monkeypatch):
    from entangle_pl import oracle

    real = oracle.solution_multiset

    def leaky(engine, query, limit=None):
        counter = real(engine, query, limit)
        if engine.allow_evars:
            engine.store.bind(engine.store.evars["~X"], Atom("leak"))
        return counter

    monkeypatch.setattr(oracle, "solution_multiset", leaky)
    (result,) = check_program("a(~X).", ["a(1)."], "demo")
    assert not result.ok
    assert result.detail == "native left 1 cell(s) bound"


def test_listing_queries_are_skipped():
    results = check_program("a(1).", ["a(X).", "listing(a)."], "demo")
    assert len(results) == 1


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
    # the transpiled side drops a solution, or adds one
    real = oracle.transform_query
    monkeypatch.setattr(
        oracle, "transform_query", lambda query, result: change.format(real(query, result))
    )
    [result] = check_program("t(1). t(2).", ["t(X)."], "p.pl")
    assert str(result) == f"MISMATCH  p.pl :: t(X). {detail}"

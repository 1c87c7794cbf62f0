"""Command-line behavior: modes, output, exit codes."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import entangle_pl
from entangle_pl import corpus_dir
from entangle_pl.cli import main
from entangle_pl.oracle import check_program


@pytest.fixture
def coloring_file():
    return str(corpus_dir() / "coloring.pl")


@pytest.fixture
def pair_file(tmp_path):
    f = tmp_path / "pair.pl"
    f.write_text("a(~X).\nb(~X).\n")
    return str(f)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- query mode ---------------------------------------------------------------


def test_query_mode_single_solution(pair_file, capsys):
    code, out, err = run_main([pair_file, "-q", "a(10),b(V)"], capsys)
    assert code == 0
    assert out == "V = 10\n"
    assert err == ""


def test_query_mode_all_solutions(coloring_file, capsys):
    code, out, _ = run_main([coloring_file, "-q", "color(C)"], capsys)
    assert code == 0
    assert out == "C = red\nC = green\nC = blue\n"


def test_query_mode_max_solutions(coloring_file, capsys):
    code, out, _ = run_main(
        [coloring_file, "-q", "color(C)", "--max-solutions", "2"], capsys
    )
    assert code == 0
    assert out == "C = red\nC = green\n"


def test_query_mode_failure_exit_1(pair_file, capsys):
    code, out, _ = run_main([pair_file, "-q", "a(1),b(2)"], capsys)
    assert code == 1
    assert out == "false.\n"


def test_query_mode_true_for_ground_query(pair_file, capsys):
    code, out, _ = run_main([pair_file, "-q", "a(3),b(3)"], capsys)
    assert code == 0
    assert out == "true.\n"


def test_query_mode_runs_a_grammar_escape_in_a_clause_body(tmp_path, capsys):
    f = tmp_path / "p.pl"
    f.write_text("p(L) :- phrase(({true}, [a]), L).\n")
    code, out, err = run_main([str(f), "-q", "p(L)."], capsys)
    assert (code, out, err) == (0, "L = [a]\n", "")


def test_runtime_error_exit_2(pair_file, capsys):
    code, out, err = run_main([pair_file, "-q", "nosuch(1)"], capsys)
    assert code == 2
    assert "nosuch/1" in err


def test_parse_error_in_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.pl"
    bad.write_text("a(1. \n")
    code, _, err = run_main([str(bad), "-q", "a(X)"], capsys)
    assert code == 2
    assert "error:" in err


def test_non_ascii_digit_is_a_syntax_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "digit.pl"
    bad.write_text("p(\u0663).\n", encoding="utf-8")
    code, _, err = run_main([str(bad), "-q", "p(X)"], capsys)
    assert code == 2
    assert err.startswith("error: unexpected character")


def test_an_integer_literal_too_long_is_a_syntax_error_exit_2(capsys):
    code, out, err = run_main(["-q", "X = " + "9" * 5000 + "."], capsys)
    assert (code, out, err) == (2, "", "error: integer literal too long (line 1, column 5)\n")


@pytest.mark.parametrize("rest", ["", ", X > 0", ", call(X)", ", phrase(X, L)"],
                         ids=["answer", "test", "call", "phrase"])
def test_an_integer_too_long_to_write_is_one_error_line_exit_2(rest):
    n = "9" * 3000
    proc = repl(["-q", f"X is {n} * {n}{rest}."], "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: integer too long to write\n")


def test_long_clause_body_runs(tmp_path, capsys):
    f = tmp_path / "long.pl"
    f.write_text("p :- " + ", ".join(["true"] * 3000) + ".\n")
    code, out, err = run_main([str(f), "-q", "p"], capsys)
    assert (code, out, err) == (0, "true.\n", "")
    code, out, err = run_main([str(f), "--transpile", "-"], capsys)
    assert (code, err) == (0, "")
    # the helper's clauses follow the program's one clause
    assert out.startswith("p(_Env) :- true,") and out.splitlines()[0].count("true") == 3000


def test_deep_sum_answers(pair_file, capsys):
    # is/2 walks the expression with a stack, not the Python one
    code, out, err = run_main([pair_file, "-q", "X is " + "+".join(["1"] * 5000)], capsys)
    assert (code, out, err) == (0, "X = 5000\n", "")


def test_deep_term_answers(tmp_path, capsys):
    # the reader nests with its own stack, not the Python one
    deep = "f(" * 3000 + "a" + ")" * 3000
    f = tmp_path / "deep.pl"
    f.write_text("p(" + deep + ").\n")
    code, out, err = run_main([str(f), "-q", "p(X)"], capsys)
    assert (code, out, err) == (0, "X = " + deep + "\n", "")


def test_answer_deeper_than_ten_thousand_prints_whole(tmp_path, capsys):
    deep = "f(" * 10_005 + "a" + ")" * 10_005
    f = tmp_path / "deep.pl"
    f.write_text("p(" + deep + ").\n")
    code, out, err = run_main([str(f), "-q", "p(X)"], capsys)
    assert (code, out, err) == (0, "X = " + deep + "\n", "")


@pytest.mark.parametrize(
    "query, answer",
    [
        ("X = [a|X].", "X = [a|...]"),
        ("X = f(X,X).", "X = f(...,...)"),
        ("X = f(Y), Y = g(X).", "X = f(g(...)), Y = g(f(...))"),
        ("L = [1,2,3], X = f(L,L).", "L = [1,2,3], X = f([1,2,3],[1,2,3])"),
    ],
    ids=["list", "twice", "mutual", "shared"],
)
def test_cyclic_answer_prints_dots_where_it_closes(query, answer):
    # in a child with a timeout: a writer that misses a cycle never returns
    proc = repl(["-q", query], "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, answer + "\n", "")


@pytest.mark.parametrize(
    "query, error",
    [
        ("X = [a|X], sort(X, L).", "sort/2: first argument must be a proper list"),
        ("X = [a,b|X], phrase(X, L).", "DCG terminal list must be a proper list"),
        ("X = X+1, Y is X.", "arithmetic: cyclic expression"),
        ("X = -(X), Y is X.", "arithmetic: cyclic expression"),
        ("X = (a, X), phrase(X, L).", "DCG body is cyclic"),
        ("X = (a ; X), phrase(X, L).", "DCG body is cyclic"),
        ("X = (a -> X), phrase(X, L).", "DCG body is cyclic"),
        ("X = (\\+ X), phrase(X, L).", "DCG body is cyclic"),
    ],
    ids=["sort", "phrase", "is", "is-neg", "phrase-and", "phrase-or", "phrase-if",
         "phrase-not"],
)
def test_cyclic_list_is_a_type_error(query, error):
    # in a child with a timeout: a walk that misses the cycle never ends; a
    # cyclic arithmetic expression or grammar body is a type error too
    proc = repl(["-q", query], "", timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n")


def test_cyclic_goal_is_a_type_error_when_it_converts():
    # in a child with a timeout: conversion meets the skeleton again while
    # it converts it, and stops there
    started = time.perf_counter()
    proc = repl(["-q", "X = (a, X), call(X)."], "", timeout=10)
    assert time.perf_counter() - started < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: goal is cyclic\n")


def test_transpile_long_disjunction_and_deep_if_then(tmp_path, capsys):
    # a ;/2 chain is walked in a loop, so the oracle can check it
    text = "a.\np :- " + " ; ".join(["a"] * 3000) + ".\n"
    f = tmp_path / "long.pl"
    f.write_text(text)
    code, out, err = run_main([str(f), "--transpile", "-"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].count(";") == 2999
    results = check_program(text, ["p.", "a, p."])
    assert [r.ok for r in results] == [True, True]
    # so is ->/2 nesting
    text = "a.\np :- " + " -> ".join(["a"] * 3000) + ".\n"
    f.write_text(text)
    code, out, err = run_main([str(f), "--transpile", "-"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].count("->") == 2999
    results = check_program(text, ["p.", "a, p."])
    assert [r.ok for r in results] == [True, True]


@pytest.mark.parametrize("mode", [
    ["-q", "p.", "{dir}/p.pl"],
    ["--transpile", "-", "{dir}/p.pl"],
    ["--oracle-check", "{dir}"],
], ids=["query", "transpile", "oracle-check"])
def test_clause_for_a_control_construct_exit_2(tmp_path, mode, capsys):
    (tmp_path / "p.pl").write_text("true :- fail.\np :- true.\n")
    (tmp_path / "p.queries").write_text("p.\n")
    argv = [arg.format(dir=tmp_path) for arg in mode]
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: cannot redefine true/0\n"


@pytest.mark.parametrize("mode", [
    ["-q", "true.", "{dir}/p.pl"],
    ["--transpile", "-", "{dir}/p.pl"],
    ["--oracle-check", "{dir}"],
], ids=["query", "transpile", "oracle-check"])
def test_clause_body_that_is_not_callable_exit_2(tmp_path, mode, capsys):
    # refused where the program is read, before any query runs
    (tmp_path / "p.pl").write_text("p :- fail, 1.\n")
    (tmp_path / "p.queries").write_text("p.\n")
    argv = [arg.format(dir=tmp_path) for arg in mode]
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: goal is not callable: 1\n"


def test_an_unreadable_query_fails_its_own_pair_exit_1(tmp_path, capsys):
    # the other queries are still checked, and the store interns no ~Q
    (tmp_path / "b.pl").write_text("a(~X).\n")
    (tmp_path / "b.queries").write_text("a(1).\n~Q = 1, a(\na(2).\n")
    code, out, err = run_main(["--oracle-check", str(tmp_path)], capsys)
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        "OK        b.pl :: a(1).",
        "MISMATCH  b.pl :: ~Q = 1, a( (native 0, transpiled 0)"
        " unreadable: unexpected end of text (line 1, column 11)",
        "OK        b.pl :: a(2).",
    ]


@pytest.mark.parametrize("mode, bad", [
    (["-q", "p(X).", "{dir}/p.pl"], "p.pl"),
    (["--transpile", "-", "{dir}/p.pl"], "p.pl"),
    (["--oracle-check", "{dir}"], "p.pl"),
    (["--oracle-check", "{dir}"], "p.queries"),
], ids=["query", "transpile", "oracle-check", "oracle-check-queries"])
def test_input_that_is_not_utf8_exit_2(tmp_path, mode, bad, capsys):
    (tmp_path / "p.pl").write_text("p(a).\n")
    (tmp_path / "p.queries").write_text("p(X).\n")
    (tmp_path / bad).write_bytes(b"p(\xff).\n")
    argv = [arg.format(dir=tmp_path) for arg in mode]
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {tmp_path / bad}: not UTF-8 text (invalid start byte at byte 2)\n"
    )


def test_missing_file_exit_2(capsys):
    code, _, err = run_main(["/nonexistent/prog.pl", "-q", "a"], capsys)
    assert code == 2
    assert "no such file" in err


def test_directory_as_program_file_exit_2(tmp_path, capsys):
    code, out, err = run_main([str(tmp_path), "-q", "true."], capsys)
    assert code == 2 and out == ""
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_metacall_of_a_non_callable_goal_exit_2(pair_file, capsys):
    code, out, err = run_main([pair_file, "-q", "call((fail, 1))."], capsys)
    assert code == 2 and out == ""
    assert err == "error: goal is not callable: 1\n"


def test_no_evar_flag_rejects_tilde(pair_file, capsys):
    code, _, err = run_main(["--no-evar", pair_file, "-q", "a(X)"], capsys)
    assert code == 2
    assert "disabled" in err


def test_unknown_fail_flag(pair_file, capsys):
    code, out, _ = run_main(
        ["--unknown-fail", pair_file, "-q", "nosuch(1) ; V = ok"], capsys
    )
    assert code == 0
    assert out == "V = ok\n"


def test_max_frames_flag(tmp_path, capsys):
    f = tmp_path / "loop.pl"
    f.write_text("loop :- loop.\n")
    code, out, err = run_main([str(f), "-q", "loop", "--max-frames", "100"], capsys)
    assert (code, out, err) == (2, "", "error: frame budget exceeded (100)\n")


def test_max_frames_bounds_functor_arity(pair_file, capsys):
    code, out, err = run_main([pair_file, "--max-frames", "100", "-q", "functor(T,f,101)."],
                              capsys)
    assert (code, out, err) == (2, "", "error: functor/3: arity exceeds the frame budget (100)\n")


def test_deep_input_under_low_recursion_limit(tmp_path):
    # Nothing recurses on term depth: the reader, the DCG translation, the
    # transpiler, the engine and the writer all keep explicit stacks, and a
    # clause builder is generated with one statement per compound, so the
    # oracle checks these programs with almost no Python stack.  ``deep``
    # is ground, so its builder only returns the stored term; ``dv`` and
    # ``wide`` run generated code that builds a 10^4-deep term and makes
    # 3,000 cells.
    deep = "f(" * 10_000 + "a" + ")" * 10_000
    dv = deep.replace("a", "X")
    names = ",".join(f"X{i}" for i in range(3000))
    programs = {
        "deep": ("deep(" + deep + ").", ["deep(" + dv + ").", "deep(X)."]),
        "dv": (f"dv({dv}, X).", [f"dv({deep}, Y).", "dv(T, c), dv(T, Z)."]),
        "wide": (f"w(f({names}), [{names}], X0, X2999).",
                 ["w(F, [P|_], 1, Q), Q = 2, arg(3000, F, R)."]),
        "ite": ("a.\np :- " + " -> ".join(["a"] * 3000) + ".", ["p."]),
        "neg": ("a.\np :- " + "\\+ " * 3000 + "a.", ["p."]),
        "conj": ("a.\nq(~X).\np :- " + "(a, " * 3000 + "~X = 1" + ")" * 3000 + ".",
                 ["p, q(V)."]),
        "dcg": ("s --> " + " -> ".join(["[a]"] * 3000) + ".",
                ["phrase(s, L).", "phrase(s, [b])."]),
    }
    for name, (text, queries) in programs.items():
        (tmp_path / f"{name}.pl").write_text(text + "\n")
        (tmp_path / f"{name}.queries").write_text("\n".join(queries) + "\n")
    src = str(Path(entangle_pl.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from entangle_pl.cli import main\n"
        "sys.setrecursionlimit(100)\n"
        f"sys.exit(main(['--oracle-check', {str(tmp_path)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 10 and all(l.startswith("OK") for l in lines)


# --- usage validation -----------------------------------------------------------


def test_conflicting_modes_exit_2(pair_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([pair_file, "-q", "a(X)", "--transpile", "-"])
    assert exc.value.code == 2


def test_transpile_requires_files(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--transpile", "-"])
    assert exc.value.code == 2


def test_no_evar_with_transpile_exit_2(pair_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([pair_file, "--no-evar", "--transpile", "-"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_oracle_check_with_program_files_exit_2(pair_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--oracle-check", str(tmp_path), pair_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--oracle-check does not take program files" in captured.err


def test_no_evar_with_oracle_check_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--oracle-check", "--no-evar"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n", ["0", "-3"])
def test_max_solutions_below_one_exit_2(coloring_file, n, capsys):
    with pytest.raises(SystemExit) as exc:
        main([coloring_file, "-q", "color(C)", "--max-solutions", n])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-solutions must be at least 1" in captured.err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_max_frames_below_one_exit_2(pair_file, n, capsys):
    with pytest.raises(SystemExit) as exc:
        main([pair_file, "-q", "true.", "--max-frames", n])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-frames must be at least 1" in captured.err


# --- transpile mode --------------------------------------------------------------


def test_transpile_to_stdout(pair_file, capsys):
    code, out, _ = run_main([pair_file, "--transpile", "-"], capsys)
    assert code == 0
    assert "~" not in out
    assert "a(_IV1,_Env) :- arg(1,_Env,_IV1)." in out


def test_transpile_reads_each_file_as_its_own_text(tmp_path, capsys):
    first = tmp_path / "a.pl"
    first.write_text("x(1).\nx(2).\nx(3).\n")
    second = tmp_path / "b.pl"
    second.write_text("y(1).\ny(2 .\n")
    code, out, err = run_main([str(first), str(second), "--transpile", "-"], capsys)
    assert (code, out) == (2, "")
    assert "(line 2, column 5)" in err


def test_transpile_to_file_reruns(pair_file, tmp_path, capsys):
    out_file = tmp_path / "out.pl"
    code, _, _ = run_main([pair_file, "--transpile", str(out_file)], capsys)
    assert code == 0
    code2, out2, _ = run_main(
        ["--no-evar", str(out_file), "-q", "_E=evs(_),a(10,_E),b(V,_E)"], capsys
    )
    assert code2 == 0
    assert out2 == "V = 10\n"


# --- oracle mode -----------------------------------------------------------------


def test_oracle_check_bundled_corpus(capsys):
    code, out, _ = run_main(["--oracle-check"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all(l.startswith("OK") for l in lines)


def test_oracle_check_explicit_directory(tmp_path, capsys):
    (tmp_path / "p.pl").write_text("a(~X). b(~X).\n")
    (tmp_path / "p.queries").write_text("a(10),b(V).\n")
    code, out, _ = run_main(["--oracle-check", str(tmp_path)], capsys)
    assert code == 0
    assert out.startswith("OK")


def test_oracle_check_compares_errors(tmp_path, capsys):
    # the README's inject example raises on p(X). while ~G is unbound
    (tmp_path / "g.pl").write_text("p(X) :- ~G, q(X). q(1).\n")
    (tmp_path / "g.queries").write_text("p(X).\n~G = true, p(X).\n")
    code, out, _ = run_main(["--oracle-check", str(tmp_path)], capsys)
    assert code == 0
    assert out.splitlines() == [
        "OK        g.pl :: p(X).",
        "OK        g.pl :: ~G = true, p(X).",
    ]


def test_oracle_check_of_a_reserved_ev_name_exit_2(tmp_path, capsys):
    # a renamed call could reach the program's own '$ev_p', so the check
    # refuses the program instead of reporting a false MISMATCH
    (tmp_path / "r.pl").write_text("p(1). '$ev_p'(a). q :- p(_, _).\n")
    (tmp_path / "r.queries").write_text("q.\n")
    code, out, err = run_main(["--oracle-check", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: cannot transpile '$ev_p'/1: names that begin with $ev_ "
                   "are reserved for renamed calls\n")


@pytest.mark.parametrize("program, query, key", [
    ("'$call_ev'(a).", "'$call_ev'(X).", "'$call_ev'/1"),
    ("'$conv_ev'(a, b).", "'$conv_ev'(X, Y).", "'$conv_ev'/2"),
    ("'$phrase_ev'(a,b,c).", "'$phrase_ev'(X,Y,Z).", "'$phrase_ev'/3"),
    ("'$conv1_ev'(a, b).", "'$conv1_ev'(X, Y).", "'$conv1_ev'/2"),
])
def test_oracle_check_of_a_helper_name_exit_2(tmp_path, capsys, program, query, key):
    # threaded, the program's predicate would share the helper's key, and
    # the check would report a false MISMATCH, so it refuses the program
    (tmp_path / "h.pl").write_text(program + "\n")
    (tmp_path / "h.queries").write_text(query + "\n")
    code, out, err = run_main(["--oracle-check", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: cannot transpile {key}: the run-time helper's names "
                   "are reserved for it\n")


def test_oracle_check_phrase_of_a_goal_that_is_not_callable(tmp_path, capsys):
    # both sides raise when phrase starts, before `fail` could run
    (tmp_path / "g.pl").write_text("g --> {phrase(({fail}, {1}), L)}.\n")
    (tmp_path / "g.queries").write_text("g(S, S0).\nfail, phrase({1}, L).\n")
    code, out, _ = run_main(["--oracle-check", str(tmp_path)], capsys)
    assert code == 0
    assert out.splitlines() == [
        "OK        g.pl :: g(S, S0).",
        "OK        g.pl :: fail, phrase({1}, L).",
    ]


def test_transpile_calls_a_phrase_expansion(tmp_path, capsys):
    # the helper expands the grammar when the goal starts and calls the
    # expansion through call/1, so the grammar's ! is local to it
    (tmp_path / "cut.pl").write_text(
        "m(1). m(2).\nc(X) --> {m(X)}.\np(X, Y) :- m(Y), phrase((c(X), !), _, _).\n")
    (tmp_path / "cut.queries").write_text("p(X, Y).\n")
    code, out, err = run_main([str(tmp_path / "cut.pl"), "--transpile", "-"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[3] == "p(X,Y,_Env) :- m(Y,_Env),'$phrase_ev'((c(X),!),_,_,_Env)."
    assert "'$phrase_ev'(G,S0,S,E) :- '$dcg_body'(G,S0,S,B),'$call_ev'(B,E)." in lines
    code, out, _ = run_main(["--oracle-check", str(tmp_path)], capsys)
    assert (code, out) == (0, "OK        cut.pl :: p(X, Y).\n")


def test_phrase_of_a_grammar_that_is_not_callable_raises_when_it_starts(tmp_path, capsys):
    # natively the grammar is refused only when g runs; so it is transpiled,
    # and the transpiled expansion raises the same type error when it starts
    (tmp_path / "g.pl").write_text("g --> {phrase(1, L)}.\n")
    (tmp_path / "g.queries").write_text("g(S,S0).\nfail, g(S,S0).\n")
    code, out, err = run_main([str(tmp_path / "g.pl"), "--transpile", "-"], capsys)
    assert (code, err) == (0, "")
    assert "'$phrase_ev'(1,L,[],_Env)" in out
    transpiled = tmp_path / "t.pl"
    transpiled.write_text(out)
    code, out, err = run_main(["--no-evar", str(transpiled), "-q", "g(S, S0, _)."], capsys)
    assert (code, out, err) == (2, "", "error: DCG body item is not callable: 1\n")
    code, out, _ = run_main(["--oracle-check", str(tmp_path)], capsys)
    assert code == 0
    assert out.splitlines() == [
        "OK        g.pl :: g(S,S0).",
        "OK        g.pl :: fail, g(S,S0).",
    ]


def test_transpiled_grammar_runs_from_its_text_as_natively(tmp_path, capsys):
    # the written program calls the engine's '$dcg_body' builtin, so it
    # must run from its text alone, not only as the oracle's terms
    program = str(corpus_dir() / "dcg_demo.pl")
    transpiled = str(tmp_path / "dcg_demo.pl")
    assert run_main([program, "--transpile", transpiled], capsys)[:2] == (0, "")
    native = run_main([program, "-q", "parse_greeting(Xs)."], capsys)
    assert native == (0, "Xs = [hello,world]\nXs = [hello,friend]\n", "")
    assert run_main(["--no-evar", transpiled, "-q", "parse_greeting(Xs, _)."], capsys) == native


def test_oracle_check_empty_directory(tmp_path, capsys):
    code, _, err = run_main(["--oracle-check", str(tmp_path)], capsys)
    assert code == 2
    assert "no program/queries pairs" in err


def test_oracle_check_mismatch_exit_1(monkeypatch, capsys):
    from entangle_pl import cli as cli_mod
    from entangle_pl.oracle import PairResult

    fake = [PairResult("p.pl", "q.", False, 2, 1)]
    monkeypatch.setattr(cli_mod, "check_directory", lambda *a, **k: fake)
    code, out, _ = run_main(["--oracle-check", "ignored"], capsys)
    assert code == 1
    assert "MISMATCH" in out


# --- REPL (subprocess: exercises the real stdin protocol) -------------------------


def repl(program_args, stdin_text, timeout=60):
    # the child imports the package this process imported, installed or not
    src = str(Path(entangle_pl.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "entangle_pl.cli", *program_args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


def test_repl_stops_on_newline(pair_file):
    proc = repl([pair_file], "a(10),b(V).\n\nhalt.\n")
    assert proc.returncode == 0
    assert "V = 10.\n" in proc.stdout


def test_repl_semicolon_asks_for_more(coloring_file):
    proc = repl([coloring_file], "color(C).\n;\n;\n;\nhalt.\n")
    assert proc.returncode == 0
    assert "C = red ;\nC = green ;\nC = blue ;\nfalse.\n" in proc.stdout


def test_repl_false_on_failure(pair_file):
    proc = repl([pair_file], "a(1),b(2).\nhalt.\n")
    assert "false.\n" in proc.stdout


def test_repl_reports_errors_and_continues(pair_file):
    proc = repl([pair_file], "nosuch(9).\na(4),b(V).\nhalt.\n")
    assert proc.returncode == 0
    assert "error: unknown predicate nosuch/1" in proc.stdout
    assert "V = 4" in proc.stdout


def test_repl_eof_exits_cleanly(pair_file):
    proc = repl([pair_file], "")
    assert proc.returncode == 0


def test_repl_transcript_on_piped_stdin(tmp_path):
    # stdin is a pipe, not a tty, so no prompt is printed: the output is the
    # answers, the ";" replies, "false." and the errors, exactly
    program = tmp_path / "p.pl"
    program.write_text("p(1). p(2).\n")
    proc = repl([str(program)], "p(X).\n;\n;\np(X).\n\nfoo(.\nq.\nhalt.\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "X = 1 ;\n"
        "X = 2 ;\n"
        "false.\n"
        "X = 1.\n"
        "error: unexpected token '.' (line 1, column 5)\n"
        "error: unknown predicate q/0\n"
    )
    # end of input right after an answer takes it as the last one, then
    # ends the session with an empty line
    proc = repl([str(program)], "p(X).\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "X = 1.\n\n", "")

"""Command-line behavior: modes, output, exit codes."""

import os
import subprocess
import sys
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


def test_long_clause_body_runs(tmp_path, capsys):
    f = tmp_path / "long.pl"
    f.write_text("p :- " + ", ".join(["true"] * 3000) + ".\n")
    code, out, err = run_main([str(f), "-q", "p"], capsys)
    assert (code, out, err) == (0, "true.\n", "")
    code, out, err = run_main([str(f), "--transpile", "-"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("p(_Env) :- true,") and out.count("true") == 3000


def _deep_error(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: term nested too deeply\n"


def test_deep_sum_answers(pair_file, capsys):
    # is/2 walks the expression with a stack, not the Python one
    code, out, err = run_main([pair_file, "-q", "X is " + "+".join(["1"] * 5000)], capsys)
    assert (code, out, err) == (0, "X = 5000\n", "")


def test_deep_term_exit_2(tmp_path, capsys):
    f = tmp_path / "deep.pl"
    f.write_text("p(" + "f(" * 3000 + "a" + ")" * 3000 + ").\n")
    _deep_error([str(f), "-q", "p(X)"], capsys)


def test_transpile_long_disjunction_and_deep_if_then(tmp_path, capsys):
    # a ;/2 chain is walked in a loop, so the oracle can check it
    text = "a.\np :- " + " ; ".join(["a"] * 3000) + ".\n"
    f = tmp_path / "long.pl"
    f.write_text(text)
    code, out, err = run_main([str(f), "--transpile", "-"], capsys)
    assert (code, err) == (0, "")
    assert out.count(";") == 2999
    results = check_program(text, ["p.", "a, p."])
    assert [r.ok for r in results] == [True, True]
    # ->/2 nesting still recurses: too deep is one error line, exit 2
    f.write_text("a.\np :- " + " -> ".join(["a"] * 3000) + ".\n")
    _deep_error([str(f), "--transpile", "-"], capsys)


def test_missing_file_exit_2(capsys):
    code, _, err = run_main(["/nonexistent/prog.pl", "-q", "a"], capsys)
    assert code == 2
    assert "no such file" in err


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
    code, _, err = run_main([str(f), "-q", "loop", "--max-frames", "100"], capsys)
    assert code == 2
    assert "frame budget" in err


# --- usage validation -----------------------------------------------------------


def test_conflicting_modes_exit_2(pair_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([pair_file, "-q", "a(X)", "--transpile", "-"])
    assert exc.value.code == 2


def test_transpile_requires_files(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--transpile", "-"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n", ["0", "-3"])
def test_max_solutions_below_one_exit_2(coloring_file, n, capsys):
    with pytest.raises(SystemExit) as exc:
        main([coloring_file, "-q", "color(C)", "--max-solutions", n])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-solutions must be at least 1" in captured.err


# --- transpile mode --------------------------------------------------------------


def test_transpile_to_stdout(pair_file, capsys):
    code, out, _ = run_main([pair_file, "--transpile", "-"], capsys)
    assert code == 0
    assert "~" not in out
    assert "a(_IV1,_Env) :- arg(1,_Env,_IV1)." in out


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


def test_oracle_check_empty_directory(tmp_path, capsys):
    code, _, err = run_main(["--oracle-check", str(tmp_path)], capsys)
    assert code == 2
    assert "no program/queries pairs" in err


def test_oracle_check_mismatch_exit_1(monkeypatch, capsys):
    from entangle_pl import cli as cli_mod
    from entangle_pl.oracle import OracleReport, PairResult

    fake = OracleReport([PairResult("p.pl", "q.", False, 2, 1)])
    monkeypatch.setattr(cli_mod, "check_directory", lambda *a, **k: fake)
    code, out, _ = run_main(["--oracle-check", "ignored"], capsys)
    assert code == 1
    assert "MISMATCH" in out


# --- REPL (subprocess: exercises the real stdin protocol) -------------------------


def repl(program_args, stdin_text):
    # the child imports the package this process imported, installed or not
    src = str(Path(entangle_pl.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "entangle_pl.cli", *program_args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=60,
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

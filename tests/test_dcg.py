"""Grammar-rule translation and the assumption library."""

import pytest

from entangle_pl import (
    Engine,
    InstantiationError,
    PrologSyntaxError,
    ResourceLimitError,
    TypeMismatchError,
)
from entangle_pl.kernel import Store
from entangle_pl.reader import read_program, write_clause
from conftest import answers


def translate(text):
    pairs = read_program(text, Store(), True)
    return [write_clause(h, b) for h, b in pairs]


# --- rule translation -------------------------------------------------------


def test_empty_body_unifies_states():
    (clause,) = translate("g --> [].")
    head = clause[: clause.index(".")]
    name, args = head[:-1].split("(", 1)
    s0, s1 = args.split(",")
    assert name == "g" and s0 == s1  # g(S,S).


def test_terminals_become_list_equations():
    (clause,) = translate("g --> [a,b].")
    assert " :- " in clause and "=[a,b|" in clause.replace(" ", "")


def test_nonterminals_get_two_state_args():
    (clause,) = translate("s --> np, vp.")
    assert clause.count("np(") == 1 and clause.count("vp(") == 1
    body = clause.split(" :- ")[1]
    assert body.count(",") >= 3  # two goals, each with two extra args


def test_existing_args_are_kept():
    (clause,) = translate("count(N) --> step(N).")
    assert clause.startswith("count(N,")
    assert "step(N," in clause


def test_braces_escape_plain_goals():
    (clause,) = translate("g(X) --> [a], { X = 1 }.")
    assert "{" not in clause and "X=1" in clause.replace(" ", "")


def test_control_constructs_thread_state():
    (alt,) = translate("g --> [a] ; [b].")
    assert ";" in alt
    (ite,) = translate("g --> ([a] -> [b] ; [c]).")
    assert "->" in ite
    (naf,) = translate("g --> \\+([a]), [b].")
    assert "\\+(" in naf
    (cut,) = translate("g --> [a], !.")
    assert "!" in cut


def test_variable_body_becomes_phrase():
    (clause,) = translate("g(X) --> X.")
    assert "phrase(X," in clause.replace(" ", "")


def test_bad_grammar_heads_and_bodies():
    with pytest.raises(PrologSyntaxError):
        translate("X --> [a].")
    with pytest.raises(PrologSyntaxError):
        translate("3 --> [a].")
    with pytest.raises(PrologSyntaxError):
        translate("(a,b) --> [c].")
    with pytest.raises(TypeMismatchError):
        translate("g --> 3.")
    with pytest.raises(TypeMismatchError):
        translate("g --> [a|_].")  # terminal lists must be proper


@pytest.mark.parametrize(
    "head, message",
    [
        ("X", "DCG rule head is a variable"),
        ("3", "DCG rule head is not callable"),
        ("'{}'(x)", "DCG rule head cannot be '{}'"),
        # atom heads that pass as nonterminals but translate to ;/2 and :-/2
        (";", "clause head cannot be ';'"),
        (":-", "clause head cannot be ':-'"),
    ],
)
def test_bad_grammar_head_errors_carry_position(head, message):
    with pytest.raises(PrologSyntaxError) as err:
        translate(f"a.\n{head} --> -.")
    assert str(err.value) == f"{message} (line 2, column 1)"


def test_braces_rejected_outside_rules():
    with pytest.raises(PrologSyntaxError, match="DCG rule bodies"):
        translate("f({a}).")
    with pytest.raises(PrologSyntaxError, match="DCG rule bodies"):
        translate("f(X) :- X = {a}.")


# --- running grammars --------------------------------------------------------


@pytest.fixture
def gram():
    e = Engine()
    e.consult_text(
        """
        greeting --> [hello], name.
        name --> [world].
        name --> [friend].
        ab --> [a] ; [b].
        maybe_a([]) --> [].
        maybe_a([a|T]) --> [a], maybe_a(T).
        """
    )
    return e


def test_phrase_two_and_three_args(gram):
    assert answers(gram, "phrase(greeting, [hello,world]).") == ["true"]
    assert answers(gram, "phrase(greeting, [hello,mars]).") == []
    assert answers(gram, "phrase(greeting, [hello,world,extra]).") == []
    (sol,) = answers(gram, "phrase(greeting, [hello,world|R], R0).")
    r, r0 = (part.split(" = ")[1] for part in sol.split(", "))
    assert r == r0  # both remainders are the same unbound cell
    sols = answers(gram, "phrase(name, L, R).")
    assert len(sols) == 2


def test_phrase_generates(gram):
    assert answers(gram, "phrase(greeting, Xs).") == [
        "Xs = [hello,world]",
        "Xs = [hello,friend]",
    ]
    assert answers(gram, "phrase(ab, Xs).") == ["Xs = [a]", "Xs = [b]"]


def test_phrase_recursion(gram):
    assert answers(gram, "phrase(maybe_a(T), [a,a,a]).") == ["T = [a,a,a]"]
    gram.consult_text("long --> " + ", ".join(["[a]"] * 3000) + ".")
    assert answers(gram, "phrase(long, [" + ",".join(["a"] * 3000) + "]).") == ["true"]
    assert answers(gram, "phrase(long, [a,a]).") == []
    gram.consult_text("alt --> " + " ; ".join(f"[x{i}]" for i in range(3000)) + ".")
    assert answers(gram, "phrase(alt, [x2999]).") == ["true"]
    assert answers(gram, "phrase(alt, [x0, x1]).") == []


def test_phrase_errors(gram):
    with pytest.raises(InstantiationError):
        list(gram.query("phrase(X, [a])."))
    with pytest.raises(TypeMismatchError):
        list(gram.query("phrase(7, [a])."))


def test_phrase_cut_is_local_to_the_grammar():
    # phrase/2,3 calls its expansion as call/1 does, behind a cut barrier of
    # its own: the grammar's ! keeps m(Y)'s alternatives
    e = Engine()
    e.consult_text("m(1). m(2). c(X) --> {m(X)}. p(X, Y) :- m(Y), phrase((c(X), !), _, _).")
    assert answers(e, "p(X, Y).") == ["X = 1, Y = 1", "X = 1, Y = 2"]


def test_phrase_costs_one_frame():
    # phrase([a], [a]) is four frames: phrase itself, then the expansion
    # ([a] = [a|S], S = []), a conjunction of two unifications
    assert answers(Engine(max_frames=4), "phrase([a], [a]).") == ["true"]
    with pytest.raises(ResourceLimitError):
        list(Engine(max_frames=3).query("phrase([a], [a])."))


def test_phrase_shared_body_is_no_cycle(gram):
    # both branches of ;/2 translate the one body, one after the other
    assert answers(gram, "X = ([a],[a]), phrase((X;X), L).") == [
        "X = ([a],[a]), L = [a,a]"
    ] * 2


def test_phrase_on_metavariable_body(gram):
    assert answers(gram, "G = greeting, phrase(G, [hello,world]).") == [
        "G = greeting"
    ]


# --- assumption library -------------------------------------------------------


@pytest.fixture
def asm():
    return Engine()


def test_open_and_close_store(asm):
    sols = answers(asm, "phrase(('#<'([a,b]), '#>'(Rest)), S0, S).")
    assert len(sols) == 1 and "Rest = [a,b]" in sols[0]


def test_linear_assumption_consumed_exactly_once(asm):
    q = "phrase(('#<'([]), '#+'(t(1)), '#-'(t(A))), _, _)."
    assert answers(asm, q) == ["A = 1"]
    q2 = "phrase(('#<'([]), '#+'(t(1)), '#-'(t(_)), '#-'(t(B))), _, _)."
    assert answers(asm, q2) == []


def test_intuitionistic_assumption_reusable(asm):
    q = (
        "phrase(('#<'([]), '#*'(t(1)), '#-'(t(A)), '#-'(t(B)), '#-'(t(C))), _, _)."
    )
    assert answers(asm, q) == ["A = 1, B = 1, C = 1"]


def test_assumption_copying_inside_store(asm):
    # '#*' assumptions are copied on each match, so an unbound part stays
    # unbound in the store and each consumer gets a fresh instance
    q = "phrase(('#<'([]), '#*'(p(_)), '#-'(p(1)), '#-'(p(2))), _, _)."
    assert answers(asm, q) == ["true"]


def test_equate_assumption_deduplicates(asm):
    q = "phrase(('#<'([]), '#='(v(1)), '#='(v(1)), '#-'(v(A))), _, _)."
    assert answers(asm, q) == ["A = 1"]
    # equating twice stored only one copy, so a second consume fails
    q2 = "phrase(('#<'([]), '#='(v(1)), '#='(v(1)), '#-'(v(_)), '#-'(v(B))), _, _)."
    assert answers(asm, q2) == []


def test_scan_terminal_and_return(asm):
    q = "phrase(('#<'([x,y,z]), '#:'(First), '#:'(Second), '#>'(Rest)), _, _)."
    assert answers(asm, q) == ["First = x, Second = y, Rest = [z]"]


def test_query_assumption_matches_both_kinds(asm):
    q1 = "phrase(('#<'([]), '#+'(t(1)), '#?'(t(V))), _, _)."
    q2 = "phrase(('#<'([]), '#*'(t(2)), '#?'(t(V))), _, _)."
    # matching is by copy: the store is not bound, but V is
    assert answers(asm, q1) == ["V = 1"]
    assert answers(asm, q2) == ["V = 2"]


def test_assumptions_in_failed_branch_invisible(asm):
    q = (
        "phrase(('#<'([]), ('#+'(t(1)), {fail} ; {true}), '#-'(t(A))), _, _)."
    )
    assert answers(asm, q) == []

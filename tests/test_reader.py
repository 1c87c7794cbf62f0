"""Tokenizer, parser, and writer tests."""

import random
import re
import tracemalloc

import pytest

from entangle_pl import Engine, corpus_dir, transpile
from entangle_pl.engine import prelude_text
from entangle_pl.errors import PrologError, PrologSyntaxError
from entangle_pl.kernel import Atom, EVar, Store, Struct, Var, deref, make_list
from entangle_pl.reader import (
    INFIX_OPS,
    PREFIX_OPS,
    read_program,
    read_query,
    tokenize,
    write_clause,
    write_term,
)
from conftest import answers


def parse_one(text):
    return read_query(text, Store())


def rendered(text):
    term, _ = parse_one(text)
    return write_term(term)


# --- tokenizer ------------------------------------------------------------


def test_token_kinds():
    toks = tokenize("foo(Bar, ~Baz, 42, 'q x') :- true.")
    kinds = [kind for kind, _, _, _ in toks]
    assert kinds == [
        "atom", "punct", "var", "punct", "evar", "punct", "int",
        "punct", "qatom", "punct", "atom", "atom", "end",
    ]


def test_comments_and_positions():
    text = "% line comment\na /* block\ncomment */ b.\n"
    assert [tok for _, tok, _, _ in tokenize(text)[:2]] == ["a", "b"]
    with pytest.raises(PrologSyntaxError) as err:
        read_program(text, Store())
    assert (err.value.line, err.value.col) == (3, 12)


def test_quoted_atom_escapes():
    term, _ = parse_one("'it''s\\n\\t\\\\ok'")
    assert term == "it's\n\t\\ok"


def test_quoted_atom_raw_newline_rejected():
    with pytest.raises(PrologSyntaxError):
        tokenize("'bad\natom'.")


def test_evar_tokens():
    toks = tokenize("~X ~Foo_9 ~_Hidden.")
    assert [tok for _, tok, _, _ in toks[:3]] == ["~X", "~Foo_9", "~_Hidden"]
    with pytest.raises(PrologSyntaxError, match="uppercase"):
        tokenize("~foo.")
    with pytest.raises(PrologSyntaxError, match="disabled"):
        tokenize("~X.", allow_evar=False)


def test_flat_facts_read_with_evars_off():
    # an atom fact has no arguments to look for a ~ in; a fact with a
    # ~Name is the tokenizer's, which names the error where it is
    assert read_program("foo.", Store(), allow_evar=False) == [("foo", "true")]
    with pytest.raises(PrologSyntaxError) as err:
        read_program("p(~X).", Store(), allow_evar=False)
    assert str(err.value) == ("interclausal variable syntax (~Name) is disabled"
                              " (line 1, column 3)")
    assert (err.value.line, err.value.col) == (1, 3)


def test_end_token_requires_whitespace():
    toks = tokenize("a. ")
    assert toks[0][0] == "atom" and toks[1][0] == "end"
    # a dot that is not followed by layout is not a clause end
    with pytest.raises(PrologSyntaxError, match="unexpected character"):
        tokenize("a.b.")
    with pytest.raises(PrologSyntaxError):
        read_program("a. b", Store(), True)  # missing final end


def test_error_coordinates():
    with pytest.raises(PrologSyntaxError) as err:
        tokenize("a :-\n  'unterminated.")
    assert "line 2" in str(err.value)
    # an unclosed comment is an error, not the symbol atom '/*'
    with pytest.raises(PrologSyntaxError) as err:
        tokenize("x /* open")
    assert "unterminated block comment" in str(err.value)
    assert (err.value.line, err.value.col) == (1, 3)
    # only ASCII digits make numbers
    with pytest.raises(PrologSyntaxError, match="unexpected character"):
        read_program("p(\u0663).", Store(), True)


def test_tokenize_lexes_one_clause():
    # each list stops at its first end token and never looks past it
    text = "a. b(X).  % the last\n"
    first = tokenize(text)
    assert [kind for kind, _, _, _ in first] == ["atom", "end"]
    rest = tokenize(text, True, first[-1][3])
    assert [kind for kind, _, _, _ in rest] == [
        "atom", "punct", "var", "punct", "end",
    ]
    # layout alone is left after the last end: the next call is [eof]
    n = len(text)
    assert tokenize(text, True, rest[-1][3]) == [("eof", "", n, n)]
    tail = "a. /* x */ % y\n"
    assert [kind for kind, _, _, _ in tokenize(tail)] == ["atom", "end"]
    assert tokenize(tail, True, 2) == [("eof", "", len(tail), len(tail))]
    # no text left at all
    assert tokenize(text, True, n) == [("eof", "", n, n)]
    # no end token left: the list ends in one eof
    assert [kind for kind, _, _, _ in tokenize("p(X)  ")] == [
        "atom", "punct", "var", "punct", "eof",
    ]


def test_errors_are_reported_in_text_order():
    # a parse error in clause 1 is found before clause 3's bad character
    with pytest.raises(PrologSyntaxError, match="unexpected token") as err:
        read_program("p(.\nq.\nr $.\n", Store())
    assert (err.value.line, err.value.col) == (1, 3)
    with pytest.raises(PrologSyntaxError, match="unexpected character") as err:
        read_program("p.\nq.\nr $.\n", Store())
    assert (err.value.line, err.value.col) == (3, 3)
    # a lexical error in the last clause adds none of the earlier ones
    eng = Engine()
    with pytest.raises(PrologSyntaxError, match="unexpected character"):
        eng.consult_text("a. b. c $.")
    assert ("a", 0) not in eng.db and ("b", 0) not in eng.db
    # text after a query is named at its first token, or lexed as before
    with pytest.raises(PrologSyntaxError, match="after query: 'b'") as err:
        read_query("a. b. $", Store())
    assert (err.value.line, err.value.col) == (1, 4)
    with pytest.raises(PrologSyntaxError, match="unexpected character"):
        read_query("a. $", Store())


@pytest.mark.parametrize("text, message", [
    ("X = 'a\\qb'.", "unknown escape sequence \\q (line 1, column 7)"),
    ("", "empty query (line 1, column 1)"),
    ("  \n ", "empty query (line 1, column 1)"),
], ids=["escape", "empty", "blank"])
def test_query_syntax_errors(text, message):
    with pytest.raises(PrologSyntaxError) as err:
        read_query(text, Store())
    assert str(err.value) == message


@pytest.mark.parametrize("read, text, message", [
    # the three places the parser meets eof: an operand, a closing bracket
    # and a clause's end
    (read_program, "a. b(\n", "unexpected end of text (line 2, column 1)"),
    (read_query, "f(a", "expected ')' but found end of text (line 1, column 4)"),
    (read_program, "a. b",
     "expected '.' to end the clause but found end of text (line 1, column 5)"),
    # a quoted '' is a real token, named by its text
    (read_program, "f(a '')", "expected ')' but found '' (line 1, column 5)"),
], ids=["operand", "closer", "clause-end", "quoted-empty"])
def test_syntax_errors_name_eof_as_end_of_text(read, text, message):
    with pytest.raises(PrologSyntaxError) as err:
        read(text, Store())
    assert str(err.value) == message


def test_consult_holds_one_clauses_tokens_at_a_time():
    # reading the whole text's tokens first peaked at about 3.5 times
    # what the engine keeps; one clause's tokens at a time add little
    text = "".join(f"fact({i},v{i % 500},{i * 7 % 1000},~T{i % 300}).\n"
                   for i in range(5000))
    eng = Engine()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eng.consult_text(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(eng.db[("fact", 4)]) == 5000
    assert peak - base < 1.5 * (kept - base)


# --- parser ---------------------------------------------------------------


def test_precedences():
    assert rendered("1+2*3") == "1+2*3"
    t, _ = parse_one("1+2*3")
    assert t.name == "+" and t.args[1].name == "*"
    t, _ = parse_one("1-2-3")  # yfx associates left
    assert t.args[0].name == "-"
    t, _ = parse_one("a,b;c")
    assert t.name == ";" and t.args[0].name == ","
    t, _ = parse_one("a -> b ; c")
    assert t.name == ";" and t.args[0].name == "->"
    t, _ = parse_one("X = a,b")  # '=' binds tighter than ','
    assert t.name == "," and t.args[0].name == "="
    t, _ = parse_one("\\+ a = b")  # \+ at 900 takes the whole '='
    assert t.name == "\\+" and t.args[0].name == "="


def test_a_prefix_operator_atom_before_an_infix_operator_is_its_operand():
    # ISO 6.3.4: an infix operator that is not also prefix, with a term
    # after it, takes the operator atom before it as its left operand
    e = Engine()
    assert answers(e, "X = (\\+ = a).") == ["X = (\\+)=a"]
    assert answers(e, "X = (- = a).") == ["X = (-)=a"]
    t, _ = parse_one("X = (\\+ = a)")
    eq = t.args[1]
    assert eq.name == "=" and list(eq.args) == ["\\+", "a"]
    assert all(type(a) is Atom for a in eq.args)
    # no term after the infix operator: the prefix reading stands
    assert answers(e, "X = (\\+ is).") == ["X = \\+(is)"]
    assert answers(e, "X = f(\\+ =).") == ["X = f(\\+(=))"]
    # an operator that is prefix too starts the prefix operator's operand
    assert answers(e, "X = (\\+ - 1).") == ["X = \\+(-1)"]
    assert answers(e, "X = (- 1).") == ["X = -1"]
    # an operator name right before '(' is a functor, not an operator
    assert answers(e, "X = (\\+ =(a, b)).") == ["X = \\+(a=b)"]
    assert answers(e, "X = (\\+ mod(x, 2) =:= 0).") == ["X = \\+(x mod 2=:=0)"]
    assert answers(e, "X = (\\+ is(x, 1)).") == ["X = \\+(x is 1)"]
    assert answers(e, "X = (\\+ <(a, b)).") == ["X = \\+(a<b)"]
    assert answers(e, "X = (\\+ = (a)).") == ["X = (\\+)=a"]
    assert answers(e, "X = (\\+ = '(').") == ["X = (\\+)='('"]
    e.consult_text("\\+ :- true.")
    assert answers(e, "call(\\+).") == ["true"]


def test_xfx_is_not_associative():
    with pytest.raises(PrologSyntaxError):
        parse_one("a = b = c")


def test_negative_literals():
    t, _ = parse_one("-5")
    assert type(t) is int and t == -5
    t, _ = parse_one("3 - -2")
    assert t.name == "-" and t.args[1] == -2
    with pytest.raises(PrologSyntaxError, match="integer literal"):
        parse_one("- a")


LONG = "9" * 5000  # more digits than Python converts to an int


@pytest.mark.parametrize(
    "text, at",
    [
        ("a.\nf(1, " + LONG + ").", (2, 6)),
        ("a.\nf(1," + LONG + ").", (2, 5)),  # flat, but too long for the fact path
        ("a.\nf(X) :- X = -" + LONG + ".", (2, 14)),
    ],
    ids=["fact", "flat-fact", "rule"],
)
def test_an_integer_literal_too_long_is_a_syntax_error_where_it_stands(text, at):
    engine = Engine()
    with pytest.raises(PrologSyntaxError, match="^integer literal too long") as err:
        engine.consult_text(text)
    assert (err.value.line, err.value.col) == at


@pytest.mark.parametrize("query, col", [("p(1," + LONG + ").", 5), ("X = " + LONG + ".", 5)],
                         ids=["flat", "general"])
def test_an_integer_literal_too_long_in_a_query_is_a_syntax_error(query, col):
    with pytest.raises(PrologSyntaxError, match="^integer literal too long") as err:
        answers(Engine(), query)
    assert (err.value.line, err.value.col) == (1, col)


def test_functional_notation_requires_attached_paren():
    t, _ = parse_one("f(a,b)")
    assert t.name == "f" and len(t.args) == 2
    t, _ = parse_one("'+'(1,2)")
    assert t.name == "+" and len(t.args) == 2
    with pytest.raises(PrologSyntaxError):
        parse_one("f (a)")  # detached paren does not make a call


def test_quoted_atom_is_never_an_operator():
    with pytest.raises(PrologSyntaxError):
        parse_one("1 '+' 2")


def test_lists_and_braces():
    assert rendered("[1,2|T]") == "[1,2|T]"
    t, varmap = parse_one("[1,2|T]")
    from entangle_pl.reader import write_term as wt

    assert re.fullmatch(r"\[1,2\|_G\d+\]", wt(t, use_names=False))
    t, _ = parse_one("[1,2|T]")
    assert t.name == "." and t.args[1].name == "."
    t, _ = parse_one("[]")
    assert isinstance(t, Atom) and t == "[]"
    t, _ = parse_one("{a,b}")
    assert t.name == "{}" and t.args[0].name == ","
    t, _ = parse_one("{}")
    assert isinstance(t, Atom)


def test_varmap_sharing_and_anonymous():
    t, varmap = parse_one("f(X, X, _, _, Y)")
    assert t.args[0] is t.args[1]
    assert t.args[2] is not t.args[3]  # each _ is fresh
    assert set(varmap) == {"X", "Y"}


def test_evars_interned_across_clauses():
    store = Store()
    pairs = read_program("a(~X). b(~X). c(~Y).", store, True)
    ax = pairs[0][0].args[0]
    bx = pairs[1][0].args[0]
    cy = pairs[2][0].args[0]
    assert isinstance(ax, EVar) and ax is bx and ax is not cy


def test_read_program_head_validation():
    store = Store()
    for bad in ["3 :- a.", "X :- a."]:
        with pytest.raises(PrologSyntaxError):
            read_program(bad, store, True)
    # '[]' is an ordinary (if odd) callable atom, so it may head a clause
    assert read_program("[] :- a.", store, True)
    # a clause for a control construct reads; the consult refuses it
    for text, key in [("(a,b) :- c.", ",/2"), ("(a ; b).", ";/2"), ("\\+(a) :- b.", "\\+/1")]:
        assert read_program(text, store, True)
        for check in (Engine().consult_text, transpile):
            with pytest.raises(PrologError) as err:
                check(text)
            assert str(err.value) == f"cannot redefine {key}"


def test_a_clause_for_an_operator_that_is_no_control_construct_consults():
    e = Engine()
    e.consult_text(";(a) :- true.")
    assert answers(e, ";(a).") == ["true"]


def test_read_query_forms():
    store = Store()
    goal, varmap = read_query("a(X), b(Y)", store, True)
    assert goal.name == "," and list(varmap) == ["X", "Y"]
    goal2, _ = read_query("a(1).", store, True)
    assert goal2.name == "a"
    with pytest.raises(PrologSyntaxError, match="unexpected text"):
        read_query("a(1). b(2).", store, True)


# --- writer ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "f(a,b)",
        "1+2*3",
        "(1+2)*3",
        "a:-b,c",
        "[1,2,3]",
        "[a|T]",
        "f(-1)",
        "1- -2",
        "-(a)",
        "\\+(a=b)",
        "*(p(88))",
        "{a,b}",
        "'hello world'",
        "f('[]',[])" ,
        "a;b->c",
        "f(X,Y,X)",
        "''",
        "[f(E),-3,'A b']",
    ],
)
def test_round_trip_is_fixpoint(text):
    first = rendered(text)
    second = rendered(first)
    assert first == second


# Operator, quoted, symbol and bracket atoms, including those the writer
# must quote or parenthesise to read back the same
_ATOM_NAMES = (
    "a", "foo_Bar1", "[]", "{}", "!", ";", "+", "-", "*", "=..", "\\+", "mod", "is",
    "-->", ":-", "->", ",", "|", "", "A", "1x", "it's", "a b", "\\", "\n\t", ".",
    "/*", "\u00e9",
)


def _random_term(rng, store, names, depth):
    """A term the reader could build: each ``_`` is its own cell, and
    infix operators of every priority, prefix operators, ``{}`` and lists
    with any tail appear at any depth."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(5)
        if kind == 0:
            return Atom(rng.choice(_ATOM_NAMES))
        if kind == 1:
            return rng.randrange(-20, 20)
        if kind == 2:
            return store.new_var("_")
        if kind == 3:
            name = rng.choice(("X", "Y", "_Z", "Long_name9"))
            if name not in names:
                names[name] = store.new_var(name)
            return names[name]
        return store.evar(rng.choice(("~A", "~B", "~Gate")))
    kind = rng.randrange(6)
    n = 2 if kind <= 1 else 1 if kind <= 3 else rng.randrange(1, 4)
    sub = tuple(_random_term(rng, store, names, depth - 1) for _ in range(n))
    if kind <= 1:
        return Struct(rng.choice(list(INFIX_OPS)), sub)
    if kind == 2:
        return Struct(rng.choice(list(PREFIX_OPS)), sub)
    if kind == 3:
        return Struct("{}", sub)
    if kind == 4:
        tail = _random_term(rng, store, names, depth - 1) if rng.random() < 0.4 else Atom("[]")
        return make_list(sub, tail)
    return Struct(rng.choice(_ATOM_NAMES), sub)


def _is_variant(a, b) -> bool:
    """Equal up to a one-to-one renaming of ordinary variables; ``~Name``
    cells must be the same cell."""
    to_b, to_a = {}, {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x, y = deref(x), deref(y)
        if isinstance(x, Var) and not isinstance(x, EVar) and type(y) is Var:
            if to_b.setdefault(x, y) is not y or to_a.setdefault(y, x) is not x:
                return False
        elif type(x) is not type(y):
            return False
        elif isinstance(x, EVar):
            if x is not y:
                return False
        elif type(x) is int or type(x) is Atom:
            if x != y:
                return False
        elif x.name != y.name or len(x.args) != len(y.args):
            return False
        else:
            stack.extend(zip(x.args, y.args))
    return True


def test_reading_what_the_writer_wrote_gives_a_variant():
    store = Store()
    texts = [prelude_text()] + [p.read_text() for p in sorted(corpus_dir().glob("*.pl"))]
    for text in texts:
        for pair in read_program(text, store):
            clause = Struct(":-", pair)
            written = write_term(clause, use_names=True)
            assert _is_variant(clause, read_query(written, store)[0]), written
    for seed in range(1500):
        term = _random_term(random.Random(seed), store, {}, 4)
        written = write_term(term, use_names=True)
        assert _is_variant(term, read_query(written, store)[0]), (seed, written)


def test_writer_spacing_rules():
    # clause/alphabetic operators keep spaces, symbolic ones are tight
    assert rendered("a :- b , c") == "a :- b,c"
    assert rendered("X is 1 + 2") == "X is 1+2"
    assert rendered("f(1 - -2)") == "f(1- -2)"


def test_writer_quotes_when_needed():
    assert rendered("'hello world'") == "'hello world'"
    assert rendered("'hello'") == "hello"
    assert rendered("'It''s'") == "'It\\'s'"  # both quotings reparse equally
    assert rendered("+") == "+"
    assert rendered("f(';', '[]', '{}', !)") == "f(;,[],{},!)"
    # each of these would read back differently if written bare
    assert rendered("'/*'") == "'/*'"
    assert rendered("'[]'(a)") == "'[]'(a)"
    assert rendered("'{}'(a,b)") == "'{}'(a,b)"
    assert rendered("(-) = (\\+)") == "(-)=(\\+)"


def test_writer_unary_structs_functional():
    assert rendered("*(p(88))") == "*(p(88))"
    assert rendered("-(a)") == "-(a)"
    assert rendered("f(-(1))") == "f(-1)" or rendered("f(-(1))") == "f(-(1))"


def test_write_clause_forms():
    store = Store()
    pairs = read_program("g(S,S). h :- a, b.", store, True)
    assert write_clause(*pairs[1]) == "h :- a,b."
    head, body = pairs[0]
    text = write_clause(head, body)
    assert text.startswith("g(") and text.endswith(").")


def test_writer_prints_deep_terms_whole():
    deep = Atom("x")
    for _ in range(10_001):
        deep = Struct("f", (deep,))
    assert write_term(deep) == "f(" * 10_001 + "x" + ")" * 10_001


@pytest.mark.parametrize(
    "value, text",
    [("[]", "[]"), ("{}", "{}"), ("a b", "'a b'"), ("\n", "'\\n'"), ("-", "-"),
     (":-", ":-"), ("mod", "mod"), (-7, "-7"), (0, "0")],
)
def test_an_atomic_answer_renders_as_the_walk_renders_it(value, text):
    # the same text bound behind a chain of cells, at any priority, and it
    # reads back as the same value
    store = Store()
    x, y = store.new_var("X"), store.new_var()
    x.ref, y.ref = y, value
    for term in (value, x):
        for use_names, priority in ((True, 1200), (False, 1200), (False, 0)):
            assert write_term(term, use_names, priority) == text
    assert read_query(text, Store())[0] == value


def test_an_unbound_answer_still_renders_by_serial_and_reads_back():
    store = Store()
    x, y = store.new_var("X"), store.new_var()
    x.ref = y
    assert write_term(x, use_names=False) == f"_G{y.serial}"
    back, varmap = read_query(write_term(x, use_names=False), Store())
    assert isinstance(back, Var) and list(varmap) == [f"_G{y.serial}"]


def test_unnamed_vars_render_by_serial():
    store = Store()
    v = store.new_var()
    assert write_term(v) == f"_G{v.serial}"
    named = store.new_var("Q")
    assert write_term(named) == "Q"
    assert write_term(named, use_names=False) == f"_G{named.serial}"
    e = store.evar("~Z")
    assert write_term(e) == "~Z"
    assert write_term(e, use_names=False) == "~Z"

"""Regex tokenizer, operator-precedence parser, program/query reading, and
the term writer.

The accepted syntax is a fixed subset of Prolog: the operator tables
below (no user-defined operators), integers, atoms, lists, curly terms
and ``~Name`` variables shared program-wide.  A token is a plain ``(kind,
text, start, end)`` tuple that keeps only its offsets in the source; a
syntax error turns its offset into a line and column.  A program is read
one clause at a time: each tokenizer call lexes from the last end token up
to the next one (a call with only layout left returns just ``eof``), and
the clause and DCG rule head checks run on the term the parser returns,
all before the next clause is lexed.  So reading holds one clause's
tokens, not the whole program's, and the first error in the text is the
one reported.  A flat fact or query, a name with arguments that are each
one integer, atom, variable or ``~Name``, is read with one regex match and
no tokens, exactly as the tokenizer and the parser would read it; every
other clause and query, and every error, is theirs.  The reader refuses
only text that is not a term or not a clause; which predicates a clause may
not define is the one rule of ``engine.check_clauses``.  The parser and the
writer walk terms with explicit stacks, so a term may nest as deeply as
memory allows.  The writer prints every term whole, in a form that reads
back as the same term (an integer or an atom without a walk); only a cyclic
binding, which unification without the occurs check can make, prints
``...`` where it closes.
"""

from __future__ import annotations

import re

from .errors import PrologSyntaxError, ResourceLimitError
from .kernel import Atom, EVar, Struct, Var, deref, make_list

_SYMBOL_CHARS = frozenset("+-*/\\^<>=:?@#&")
_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*")

_QUOTE_ESCAPES = {
    "\\": "\\",
    "'": "'",
    '"': '"',
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "\n": "",  # a backslash-newline continues the atom on the next line
}

# name -> (priority, type)
INFIX_OPS = {
    ":-": (1200, "xfx"),
    "-->": (1200, "xfx"),
    ";": (1100, "xfy"),
    "->": (1050, "xfy"),
    ",": (1000, "xfy"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "==": (700, "xfx"),
    "\\==": (700, "xfx"),
    "is": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "=:=": (700, "xfx"),
    "=\\=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "/": (400, "yfx"),
    "mod": (400, "yfx"),
}
PREFIX_OPS = {
    "\\+": (900, "fy"),
    "-": (200, "fy"),  # unary minus on numeric literals only
}


# A quoted atom up to its closing quote, which is the first quote not
# doubled: the token pattern adds it as '(?!').
_QATOM_BODY = r"""'(?:[^'\\\n]|''|\\[\\'"ntrabfv0\n])*"""
# One alternative per token kind, tried in order.  Layout is blanks, a
# line comment or a block comment closed at its first */.  Every character
# matches some group, ``error`` last, so the loop never skips text; an
# ``error`` match only marks where the slow path must name the syntax error.
_TOKEN_RE = re.compile(
    r"""
    (?P<layout>[ \t\r\n]+|%[^\n]*|/\*.*?\*/)
  | (?P<atom>[a-z][A-Za-z0-9_]*|[!;]|(?!/\*)[-+*/\\^<>=:?@#&]+)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\]{},|])
  | (?P<int>[0-9]+)
  | (?P<end>\.(?![^ \t\r\n%]))
  | (?P<evar>~[A-Z_][A-Za-z0-9_]*)
  | (?P<qatom>"""
    + _QATOM_BODY
    + r"""'(?!'))
  | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_QATOM_PREFIX_RE = re.compile(_QATOM_BODY)
# A flat fact from where the tokenizer would start its clause, with no
# layout after its name: each argument is one integer, atom, variable or
# ``~Name`` token that ends at a ``,`` or ``)``, so ``12ab`` or ``g(a)`` is
# no match.  An integer has at most 640 digits, the fewest Python may be set
# to convert, so a longer one meets ``_parse``'s ``_int`` and its error.
_ARG = r"(?:[0-9]{1,640}|[A-Za-z_][A-Za-z0-9_]*|~[A-Z_][A-Za-z0-9_]*)"
_FACT_RE = re.compile(
    rf"[ \t\r\n]*([a-z][A-Za-z0-9_]*)(?:\(({_ARG}(?:,{_ARG})*)\))?\.(?![^ \t\r\n%])")
_QUOTE_ESCAPE_RE = re.compile(r"''|\\(.)", re.DOTALL)


def _unescape(m) -> str:
    esc = m.group(1)
    return "'" if esc is None else _QUOTE_ESCAPES[esc]


def _error(msg: str, text: str, offset: int) -> PrologSyntaxError:
    """The syntax error ``msg`` at ``text[offset]``, with its line and column."""
    line = text.count("\n", 0, offset) + 1
    return PrologSyntaxError(msg, line, offset - text.rfind("\n", 0, offset))


def _int(tok: str, text: str, offset: int) -> int:
    """The integer literal ``tok`` at ``text[offset]``; one with more digits
    than Python converts is a syntax error there, not a ``ValueError``."""
    try:
        return int(tok)
    except ValueError:
        raise _error("integer literal too long", text, offset) from None


def _int_text(n: int) -> str:
    """An integer's decimal text; one with more digits than Python converts
    is a ``ResourceLimitError``, not a ``ValueError``."""
    try:
        return str(n)
    except ValueError:
        raise ResourceLimitError("integer too long to write") from None


def _found(kind: str, tok: str) -> str:
    """A token as a syntax error names it; a quoted ``''`` is a real token."""
    return "end of text" if kind == "eof" else repr(tok)


def _syntax_error(text: str, i: int, allow_evar: bool):
    """Raise the lexical error at ``text[i]``, where no token kind matched."""
    c = text[i]
    if c == "/":  # a '/' no token takes opens a block comment never closed
        msg = "unterminated block comment"
    elif c == "~":
        if allow_evar:
            msg = "expected an uppercase name after ~"
        else:
            msg = "interclausal variable syntax (~Name) is disabled"
    elif c == "'":
        msg = "unterminated quoted atom"
        j = _QATOM_PREFIX_RE.match(text, i).end()
        if text.startswith("\\", j):
            msg = f"unknown escape sequence \\{text[j + 1:j + 2]}"
            i = j
    else:
        msg = f"unexpected character {c!r}"
    raise _error(msg, text, i)


def tokenize(text: str, allow_evar: bool = True, start: int = 0) -> list:
    """Longest-match tokenization of one clause: the tokens of ``text`` from
    offset ``start`` up to and including the first ``end`` token, or, when
    no ``end`` token is left, up to one ``eof`` token at ``len(text)``.

    Each token is a plain ``(kind, text, start, end)`` tuple: ``kind`` is
    atom, qatom, var, evar, int, punct, end or eof, ``text`` is the token's
    text (a quoted atom's unescaped name) and ``start``/``end`` are offsets
    into the source.  Nothing past the ``end`` token is looked at: the next
    clause is a call from that token's ``end`` offset, and a call where only
    layout is left returns ``[eof]``."""
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text, start):
        kind = m.lastgroup
        if kind == "layout":
            continue
        s, e = m.span()
        if kind == "error" or (kind == "evar" and not allow_evar):
            _syntax_error(text, s, allow_evar)
        tok = m.group()
        if kind == "qatom":
            tok = _QUOTE_ESCAPE_RE.sub(_unescape, tok[1:-1])
        append((kind, tok, s, e))
        if kind == "end":
            return tokens
    n = len(text)
    append(("eof", "", n, n))
    return tokens


# The token that closes each bracketed parser frame: "args" is a compound's
# argument list, "[" a list's items and "|" its tail.
_CLOSERS = {"(": ")", "{": "}", "args": ")", "[": "]", "|": "]"}
_OPERAND_KINDS = frozenset(("atom", "qatom", "var", "evar", "int"))


def _cell(tok, store, varmap, evars):
    """The cell variable token ``tok`` reads as: a fresh one for ``_``, a
    named variable's from ``varmap``, a ``~Name``'s as the store interned
    it or else from ``evars``; made and added where missing."""
    if tok == "_":
        return store.new_var("_")
    if tok[0] == "~":
        term = store.evars.get(tok) or evars.get(tok)
        if term is None:
            term = evars[tok] = store.new_var(tok, EVar)
        return term
    term = varmap.get(tok)
    if term is None:
        term = varmap[tok] = store.new_var(tok)
    return term


def _starts_term(token) -> bool:
    kind, tok = token[0], token[1]
    return kind in _OPERAND_KINDS or kind == "punct" and tok in "([{"


def _parse(text, tokens, store, varmap, evars):
    """Read one term of priority at most 1200 from the start of ``tokens``.

    Returns ``(term, pos)``: ``pos`` is the first token after the term.
    Named variables are looked up in and added to ``varmap``, and a
    ``~Name`` the store has not interned in and to ``evars``.

    One loop over a stack of frames, each a construct waiting for an
    operand: an operator (infix, with its left operand, or prefix), ``(``,
    ``{``, compound arguments, list items or the list tail.  A frame keeps
    the priority bound to resume at once the operand is read, so nesting
    costs no Python stack.  The right operand of an ``xfy`` operator is read
    at its own priority: ``a,b,c`` is ``a,(b,c)``.
    """
    frames = []
    maxp = 1200
    pos = 0
    while True:
        # a primary term, or a frame opened before its first operand
        kind, tok, start, end = tokens[pos]
        if kind != "eof":
            pos += 1
        if kind == "int":
            term = _int(tok, text, start)
        elif kind == "var" or kind == "evar":
            term = _cell(tok, store, varmap, evars)
        elif kind == "atom" or kind == "qatom":
            nkind, ntok, nstart, _ = tokens[pos]
            if nkind == "punct" and ntok == "(" and nstart == end:
                pos += 1
                frames.append(("args", maxp, [], tok))
                maxp = 999
                continue
            op = PREFIX_OPS.get(tok) if kind == "atom" else None
            if op and nkind == "atom" and ntok in INFIX_OPS and ntok not in PREFIX_OPS:
                # ISO 6.3.4: the atom is the left operand of the infix
                # operator next, if a term follows that operator; an
                # operator name right before '(' is a functor instead
                after = tokens[pos + 1]
                functor = after[:2] == ("punct", "(") and after[2] == tokens[pos][3]
                op = None if _starts_term(after) and not functor else op
            if op is None or op[0] > maxp or not _starts_term(tokens[pos]):
                term = tok
            elif tok == "-":
                if nkind != "int":
                    raise _error("unary - expects an integer literal", text, nstart)
                pos += 1
                term = -_int(ntok, text, nstart)
            else:
                p, typ = op
                frames.append(("op", maxp, tok, (), p))
                maxp = p if typ == "fy" else p - 1
                continue
        elif kind == "punct" and tok in ("(", "[", "{"):
            nkind, ntok, _, _ = tokens[pos]
            if tok != "(" and nkind == "punct" and ntok == _CLOSERS[tok]:
                pos += 1
                term = tok + ntok  # [] or {}
            else:
                frames.append((tok, maxp, []))
                maxp = 999 if tok == "[" else 1200
                continue
        elif kind == "eof":
            raise _error("unexpected end of text", text, start)
        else:
            raise _error(f"unexpected token {tok!r}", text, start)
        # infix operators after the term, and the frames it completes
        lp = 0
        while True:
            kind, tok, start, _ = tokens[pos]
            if kind == "atom" or kind == "punct" and tok == ",":
                op = INFIX_OPS.get(tok)
                if op is not None:
                    p, typ = op
                    if p <= maxp and lp <= (p if typ == "yfx" else p - 1):
                        pos += 1
                        frames.append(("op", maxp, tok, (term,), p))
                        maxp = p if typ == "xfy" else p - 1
                        break
            if not frames:
                return term, pos
            frame = frames.pop()
            tag = frame[0]
            maxp = frame[1]
            if tag == "op":
                term = Struct(frame[2], frame[3] + (term,))
                lp = frame[4]
                continue
            lp = 0
            if tag == "args" or tag == "[":
                frame[2].append(term)
                sep = tok if kind == "punct" else None
                if sep == "," or sep == "|" and tag == "[":
                    pos += 1
                    frames.append(frame if sep == "," else ("|", maxp, frame[2]))
                    maxp = 999
                    break
            close = _CLOSERS[tag]
            if kind != "punct" or tok != close:
                msg = f"expected {close!r} but found {_found(kind, tok)}"
                raise _error(msg, text, start)
            pos += 1
            if tag == "args":
                term = Struct(frame[3], tuple(frame[2]))
            elif tag == "[":
                term = make_list(frame[2])
            elif tag == "|":
                term = make_list(frame[2], term)
            elif tag == "{":
                term = Struct("{}", (term,))


# Functors whose terms are not nonterminals, so cannot head a DCG rule
_NOT_DCG_HEADS = frozenset((",", ";", "->", ":-", "-->", "\\+", "{}", "."))


def _check_head(head, label: str, forbidden, text: str, offset: int):
    if isinstance(head, Var):
        raise _error(f"{label} head is a variable", text, offset)
    if type(head) is int:
        raise _error(f"{label} head is not callable", text, offset)
    if isinstance(head, Struct) and head.name in forbidden:
        raise _error(f"{label} head cannot be {head.name!r}", text, offset)


def _fact_head(m, store, evars):
    """The term a ``_FACT_RE`` match ``m`` reads and its varmap, the term's
    cells made in argument order as ``_parse`` makes them."""
    name, args = m.groups()
    if args is None:
        return name, {}
    varmap = {}
    terms = []
    for tok in args.split(","):
        c = tok[0]  # a digit, "~", a lowercase letter, an uppercase one or "_"
        if c <= "9":
            term = int(tok)
        elif "a" <= c <= "z":  # "~" sorts above "z"
            term = tok
        else:
            term = _cell(tok, store, varmap, evars)
        terms.append(term)
    return Struct(name, tuple(terms)), varmap


def read_program(text: str, store, allow_evar: bool = True, evars=None):
    """Read a whole program; returns a list of (head, body) pairs.

    Each clause is lexed, parsed and checked before the next is lexed.
    `H :- B` splits; a bare term is a fact with body `true`; `H --> B` is
    routed through the DCG translation before storage.  The ``~Name``
    cells the store has not interned go into ``evars``, by default the
    store's own table.  Raises on the first error in the text, leaving the
    caller free to treat the consult as atomic.

    A flat fact, such as ``fact(12,v3,X,~T)``, is read with one match of
    ``_FACT_RE`` instead: no tokens, no parse.  It reads exactly as the
    tokenizer and the parser read it, the same terms with the same cells
    and serials.  A clause that regex does not take, a fact with a ``~Name``
    while ``~`` is off, and so every error, is theirs, from the same offset.
    """
    from .dcg import dcg_translate

    evars = store.evars if evars is None else evars
    clauses = []
    end = 0
    while True:
        m = _FACT_RE.match(text, end)
        if m is not None and (allow_evar or "~" not in m.group()):
            clauses.append((_fact_head(m, store, evars)[0], "true"))
            end = m.end()
            continue
        tokens = tokenize(text, allow_evar, end)
        kind, _, start, _ = tokens[0]
        if kind == "eof":
            return clauses
        term, pos = _parse(text, tokens, store, {}, evars)
        kind, tok, at, end = tokens[pos]
        if kind != "end":
            msg = f"expected '.' to end the clause but found {_found(kind, tok)}"
            raise _error(msg, text, at)
        if isinstance(term, Struct) and term.name == ":-" and len(term.args) == 2:
            head, body = term.args
        elif isinstance(term, Struct) and term.name == "-->" and len(term.args) == 2:
            _check_head(deref(term.args[0]), "DCG rule", _NOT_DCG_HEADS, text, start)
            head, body = dcg_translate(term.args[0], term.args[1], store)
        else:
            head, body = term, "true"
        _check_head(head, "clause", (), text, start)
        clauses.append((head, body))


def read_query(text: str, store, allow_evar: bool = True):
    """Read one query; the trailing `.` is optional.  Returns (goal, varmap),
    the varmap's names in first-occurrence order.  A ``~Name`` the store has
    not interned is the query's own cell.  A flat query with only blanks
    after its ``.`` is read as ``read_program`` reads a flat fact."""
    m = _FACT_RE.match(text)
    if (m is not None and (allow_evar or "~" not in m.group())
            and not text[m.end():].strip(" \t\r\n")):
        return _fact_head(m, store, {})
    tokens = tokenize(text, allow_evar)
    if tokens[0][0] == "eof":
        raise PrologSyntaxError("empty query", 1, 1)
    varmap = {}
    goal, pos = _parse(text, tokens, store, varmap, {})
    kind, tok, start, end = tokens[pos]
    if kind == "end":
        kind, tok, start, _ = tokenize(text, allow_evar, end)[0]
    if kind != "eof":
        raise _error(f"unexpected text after query: {tok!r}", text, start)
    return goal, varmap


# --- term writer ---------------------------------------------------------

_SPECIAL_ATOMS = frozenset(("[]", "!", ";", "{}"))
_SPACED_OPS = frozenset((":-", "-->"))


def _atom_text(name: str) -> str:
    if name in _SPECIAL_ATOMS:
        return name
    if _NAME_RE.fullmatch(name):
        return name
    if name and all(c in _SYMBOL_CHARS for c in name) and not name.startswith("/*"):
        return name
    esc = (
        name.replace("\\", "\\\\")
        .replace("'", "\\'")
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )
    return f"'{esc}'"


def _smart_join(pieces) -> str:
    out = []
    prev = ""
    for p in pieces:
        if prev and prev[-1] in _SYMBOL_CHARS and p[0] in _SYMBOL_CHARS:
            out.append(" ")
        out.append(p)
        prev = p
    return "".join(out)


def _operand(t, maxp):
    """An operator's operand to write; a prefix operator atom goes in
    parentheses, or the reader would apply it to the term after it."""
    a = deref(t)
    if type(a) is Atom and a in PREFIX_OPS:
        return f"({a})"
    return (t, maxp)


def write_term(t, use_names: bool = True, priority: int = 1200) -> str:
    """Render a term whole; dereferences as it goes.

    EVars print as `~Name`; named Vars print their source name when
    `use_names` is set (listing, transpiled output), otherwise `_G<k>`
    (answer rendering); lists print in bracket sugar; operators print
    infix with minimal parenthesization.  A bound cell met again while its
    own value is still being written closes a cycle (unification without
    the occurs check makes such terms) and prints as `...`; a cell shared
    by two arguments prints whole in both.  An integer or an atom, bound or
    not, takes no walk.
    """
    a = deref(t)
    if type(a) is int:
        return _int_text(a)
    if type(a) is Atom:
        return _atom_text(a)
    pieces = []
    inside = set()  # bound cells whose value is being written
    # stack items: a str piece of output; (term, priority); (tail, None),
    # the rest of a list whose "[" and earlier elements are out; or a bound
    # cell, popped once its value is written.  A term, an atom too, is
    # pushed only inside a tuple, so a bare str is always a piece
    stack = [(t, priority)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        if type(item) is not tuple:
            inside.remove(item)
            continue
        term, maxp = item
        while isinstance(term, Var) and term.ref is not None and term not in inside:
            inside.add(term)
            stack.append(term)
            term = term.ref
        if maxp is None:
            if isinstance(term, Struct) and term.name == "." and len(term.args) == 2:
                stack.extend(((term.args[1], None), (term.args[0], 999), ","))
            elif term == "[]":
                pieces.append("]")
            else:
                stack.extend(("]", (term, 999), "|"))
            continue
        if isinstance(term, Var):
            if term.ref is not None:
                pieces.append("...")  # a cycle closes here
            elif isinstance(term, EVar) or (use_names and term.name):
                pieces.append(term.name)
            else:
                pieces.append(f"_G{term.serial}")
            continue
        if type(term) is int:
            pieces.append(_int_text(term))
            continue
        if type(term) is Atom:
            pieces.append(_atom_text(term))
            continue
        name = term.name
        args = term.args
        if name == "." and len(args) == 2:
            out = ["[", (args[0], 999), (args[1], None)]
        elif name == "{}" and len(args) == 1:
            out = ["{", (args[0], 1200), "}"]
        elif len(args) == 2 and name in INFIX_OPS:
            p, typ = INFIX_OPS[name]
            lmax = p if typ == "yfx" else p - 1
            rmax = p if typ == "xfy" else p - 1
            if name in _SPACED_OPS or name[0].isalpha():
                sep = f" {name} "
            else:
                sep = name
            out = [_operand(args[0], lmax), sep, _operand(args[1], rmax)]
            if p > maxp:
                out = ["("] + out + [")"]
        else:
            # the reader takes [] and {} before "(" as brackets, not a functor
            out = [f"'{name}'(" if name in ("[]", "{}") else _atom_text(name) + "("]
            for k, a in enumerate(args):
                if k:
                    out.append(",")
                out.append((a, 999))
            out.append(")")
        stack.extend(reversed(out))
    return _smart_join(pieces)


def write_clause(head, body) -> str:
    body = deref(body)
    if body == "true":
        return write_term(head) + "."
    return write_term(Struct(":-", (head, body))) + "."

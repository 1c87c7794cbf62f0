"""Regex tokenizer, operator-precedence parser, program/query reading, and
the term writer.

The accepted syntax is a fixed subset of Prolog: the operator tables
below (no user-defined operators), integers, atoms, lists, ``~Name``
variables shared program-wide, and ``{Goal}`` escapes inside DCG rule
bodies only.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import PrologSyntaxError, nesting_limit
from .kernel import Atom, EVar, Int, Struct, TRUE, Var, deref, make_list

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


class Token(NamedTuple):
    kind: str  # atom | qatom | var | evar | int | punct | end | eof
    text: str
    start: int
    end: int
    line: int
    col: int


# A quoted atom up to its closing quote, which is the first quote not
# doubled: the token pattern adds it as '(?!').
_QATOM_BODY = r"""'(?:[^'\\\n]|''|\\[\\'"ntrabfv0\n])*"""
# One alternative per token kind, tried in order.  Every character matches
# some group, ``error`` last, so the loop never skips text; an ``error``
# match only marks where the slow path must name the syntax error.
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
_QUOTE_ESCAPE_RE = re.compile(r"''|\\(.)", re.DOTALL)


def _unescape(m) -> str:
    esc = m.group(1)
    return "'" if esc is None else _QUOTE_ESCAPES[esc]


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
    line = text.count("\n", 0, i) + 1
    raise PrologSyntaxError(msg, line, i - text.rfind("\n", 0, i))


def tokenize(text: str, allow_evar: bool = True) -> list:
    """Longest-match tokenization of a whole program or query."""
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        s, e = m.span()
        if kind != "layout":
            if kind == "error" or (kind == "evar" and not allow_evar):
                _syntax_error(text, s, allow_evar)
            tok = m.group()
            if kind == "qatom":
                tok = _QUOTE_ESCAPE_RE.sub(_unescape, tok[1:-1])
            append(Token(kind, tok, s, e, line, s - line_start + 1))
            if kind != "qatom":
                continue
        # layout, or a quoted atom continued by a backslash-newline
        newlines = text.count("\n", s, e)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", s, e) + 1
    n = len(text)
    append(Token("eof", "", n, n, line, n - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, store, varmap=None, pos=0):
        self.tokens = tokens
        self.store = store
        self.varmap = {} if varmap is None else varmap
        self.pos = pos

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def err(self, msg: str, tok: Token):
        raise PrologSyntaxError(msg, tok.line, tok.col)

    def expect_punct(self, text: str):
        t = self.next()
        if t.kind != "punct" or t.text != text:
            self.err(f"expected {text!r} but found {t.text!r}", t)

    def _starts_term(self, t: Token) -> bool:
        if t.kind in ("atom", "qatom", "var", "evar", "int"):
            return True
        return t.kind == "punct" and t.text in "([{"

    def _attached_paren(self, prev: Token) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == "(" and t.start == prev.end

    def _infix(self):
        """The infix operator the next token names, or None."""
        t = self.tokens[self.pos]
        if t.kind == "atom" and t.text in INFIX_OPS:
            return t.text
        if t.kind == "punct" and t.text == ",":
            return ","
        return None

    def parse(self, maxp: int):
        left, lp = self.primary(maxp)
        while True:
            name = self._infix()
            if name is None:
                break
            p, typ = INFIX_OPS[name]
            if p > maxp:
                break
            lmax = p if typ == "yfx" else p - 1
            if lp > lmax:
                break
            self.next()
            operands = [left, self.parse(p - 1)[0]]
            if typ == "xfy":
                # The right operand of an xfy operator may hold the same
                # operator again: gather the whole chain here, one loop turn
                # per operand, so a long clause body costs no Python stack.
                # Each operator priority has one xfy operator, so this reads
                # what parse(p) would.
                while self._infix() == name:
                    self.next()
                    operands.append(self.parse(p - 1)[0])
            left = operands.pop()  # fold from the right: a,b,c is a,(b,c)
            while operands:
                left = Struct(name, (operands.pop(), left))
            lp = p
        return left, lp

    def primary(self, maxp: int):
        t = self.next()
        if t.kind == "int":
            return Int(int(t.text)), 0
        if t.kind == "var":
            if t.text == "_":
                return self.store.new_var("_"), 0
            v = self.varmap.get(t.text)
            if v is None:
                v = self.store.new_var(t.text)
                self.varmap[t.text] = v
            return v, 0
        if t.kind == "evar":
            return self.store.evar(t.text), 0
        if t.kind == "qatom":
            if self._attached_paren(t):
                return self.compound(t.text), 0
            return Atom(t.text), 0
        if t.kind == "atom":
            name = t.text
            if self._attached_paren(t):
                return self.compound(name), 0
            if name in PREFIX_OPS:
                p, typ = PREFIX_OPS[name]
                if p <= maxp and self._starts_term(self.peek()):
                    if name == "-":
                        nt = self.peek()
                        if nt.kind != "int":
                            self.err("unary - expects an integer literal", nt)
                        self.next()
                        return Int(-int(nt.text)), 0
                    operand, _ = self.parse(p if typ == "fy" else p - 1)
                    return Struct(name, (operand,)), p
            return Atom(name), 0
        if t.kind == "punct":
            if t.text == "(":
                inner, _ = self.parse(1200)
                self.expect_punct(")")
                return inner, 0
            if t.text == "[":
                return self.list_term(), 0
            if t.text == "{":
                nt = self.peek()
                if nt.kind == "punct" and nt.text == "}":
                    self.next()
                    return Atom("{}"), 0
                inner, _ = self.parse(1200)
                self.expect_punct("}")
                return Struct("{}", (inner,)), 0
        self.err(f"unexpected token {t.text!r}", t)

    def compound(self, name: str) -> Struct:
        self.expect_punct("(")
        args = [self.parse(999)[0]]
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == ",":
                self.next()
                args.append(self.parse(999)[0])
                continue
            break
        self.expect_punct(")")
        return Struct(name, tuple(args))

    def list_term(self):
        t = self.peek()
        if t.kind == "punct" and t.text == "]":
            self.next()
            return Atom("[]")
        items = [self.parse(999)[0]]
        tail = None
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == ",":
                self.next()
                items.append(self.parse(999)[0])
                continue
            if t.kind == "punct" and t.text == "|":
                self.next()
                tail = self.parse(999)[0]
            break
        self.expect_punct("]")
        return make_list(items, tail)


def parse_term(tokens, store, varmap=None, pos=0):
    """Parse one term up to its `.` terminator; returns (term, varmap, next_pos)."""
    p = _Parser(tokens, store, varmap=varmap, pos=pos)
    term, _ = p.parse(1200)
    t = p.next()
    if t.kind != "end":
        p.err(f"expected '.' to end the clause but found {t.text!r}", t)
    return term, p.varmap, p.pos


_HEAD_BLACKLIST = frozenset((",", ";", "->", ":-", "-->", "\\+"))


def _contains_braces(term) -> bool:
    stack = [term]
    while stack:
        x = deref(stack.pop())
        if isinstance(x, Struct):
            if x.name == "{}" and len(x.args) == 1:
                return True
            stack.extend(x.args)
    return False


def _check_head(head, line: int, col: int):
    if isinstance(head, Var):
        raise PrologSyntaxError("clause head is a variable", line, col)
    if isinstance(head, Int):
        raise PrologSyntaxError("clause head is not callable", line, col)
    name = head.name
    if isinstance(head, Struct) and name in _HEAD_BLACKLIST:
        raise PrologSyntaxError(f"clause head cannot be {name!r}", line, col)


def read_program(text: str, store, allow_evar: bool = True):
    """Read a whole program; returns a list of (head, body) pairs.

    `H :- B` splits; a bare term is a fact with body `true`; `H --> B` is
    routed through the DCG translation before storage.  Raises on the first
    error, leaving the caller free to treat the consult as atomic.
    """
    from .dcg import dcg_translate

    tokens = tokenize(text, allow_evar)
    clauses = []
    pos = 0
    with nesting_limit():
        while tokens[pos].kind != "eof":
            first = tokens[pos]
            term, _, pos = parse_term(tokens, store, varmap={}, pos=pos)
            is_dcg = False
            if isinstance(term, Struct) and term.name == ":-" and len(term.args) == 2:
                head, body = term.args
            elif isinstance(term, Struct) and term.name == "-->" and len(term.args) == 2:
                head, body = dcg_translate(term.args[0], term.args[1], store)
                is_dcg = True
            else:
                head, body = term, TRUE
            _check_head(head, first.line, first.col)
            if not is_dcg and (_contains_braces(head) or _contains_braces(body)):
                raise PrologSyntaxError(
                    "braces {} are only allowed inside DCG rule bodies",
                    first.line,
                    first.col,
                )
            clauses.append((head, body))
    return clauses


def read_query(text: str, store, allow_evar: bool = True):
    """Read one query; the trailing `.` is optional.  Returns (goal, varmap)."""
    tokens = tokenize(text, allow_evar)
    p = _Parser(tokens, store)
    if p.peek().kind == "eof":
        raise PrologSyntaxError("empty query", 1, 1)
    with nesting_limit():
        goal, _ = p.parse(1200)
    if p.peek().kind == "end":
        p.next()
    t = p.peek()
    if t.kind != "eof":
        p.err(f"unexpected text after query: {t.text!r}", t)
    return goal, p.varmap


# --- term writer ---------------------------------------------------------

_SPECIAL_ATOMS = frozenset(("[]", "!", ";", "{}"))
_SPACED_OPS = frozenset((":-", "-->"))


def _atom_text(name: str) -> str:
    if name in _SPECIAL_ATOMS:
        return name
    if _NAME_RE.fullmatch(name):
        return name
    if name and all(c in _SYMBOL_CHARS for c in name):
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
        if not p:
            continue
        if prev and prev[-1] in _SYMBOL_CHARS and p[0] in _SYMBOL_CHARS:
            out.append(" ")
        out.append(p)
        prev = p
    return "".join(out)


def write_term(t, use_names: bool = True, priority: int = 1200,
               max_depth: int = 10_000) -> str:
    """Render a term; dereferences as it goes.

    EVars print as `~Name`; named Vars print their source name when
    `use_names` is set (listing, transpiled output), otherwise `_G<k>`
    (answer rendering); lists print in bracket sugar; operators print
    infix with minimal parenthesization.
    """
    pieces = []
    stack = [(t, priority, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        term, maxp, depth = item
        term = deref(term)
        if depth > max_depth:
            pieces.append("...")
            continue
        if isinstance(term, EVar):
            pieces.append(term.name)
            continue
        if isinstance(term, Var):
            if use_names and term.name:
                pieces.append(term.name)
            else:
                pieces.append(f"_G{term.serial}")
            continue
        if isinstance(term, Int):
            pieces.append(str(term.value))
            continue
        if isinstance(term, Atom):
            pieces.append(_atom_text(term.name))
            continue
        name = term.name
        args = term.args
        out = []
        if name == "." and len(args) == 2:
            elems = [args[0]]
            tail = deref(args[1])
            while isinstance(tail, Struct) and tail.name == "." and len(tail.args) == 2:
                elems.append(tail.args[0])
                tail = deref(tail.args[1])
            out.append("[")
            for k, e in enumerate(elems):
                if k:
                    out.append(",")
                out.append((e, 999, depth + 1))
            if not (isinstance(tail, Atom) and tail.name == "[]"):
                out.append("|")
                out.append((tail, 999, depth + 1))
            out.append("]")
        elif name == "{}" and len(args) == 1:
            out = ["{", (args[0], 1200, depth + 1), "}"]
        elif len(args) == 2 and name in INFIX_OPS:
            p, typ = INFIX_OPS[name]
            lmax = p if typ == "yfx" else p - 1
            rmax = p if typ == "xfy" else p - 1
            if name in _SPACED_OPS or name[0].isalpha():
                sep = f" {name} "
            else:
                sep = name
            out = [(args[0], lmax, depth + 1), sep, (args[1], rmax, depth + 1)]
            if p > maxp:
                out = ["("] + out + [")"]
        else:
            out.append(_atom_text(name))
            out.append("(")
            for k, a in enumerate(args):
                if k:
                    out.append(",")
                out.append((a, 999, depth + 1))
            out.append(")")
        stack.extend(reversed(out))
    return _smart_join(pieces)


def write_clause(head, body, use_names: bool = True) -> str:
    body = deref(body)
    if isinstance(body, Atom) and body.name == "true":
        return write_term(head, use_names=use_names) + "."
    return write_term(Struct(":-", (head, body)), use_names=use_names) + "."

"""Exception hierarchy shared by the reader, engine and transpiler."""

from __future__ import annotations


class PrologError(Exception):
    """Base class for every error this package raises deliberately."""


class PrologSyntaxError(PrologError):
    """Lexical or syntactic error in source text, with a 1-based position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class InstantiationError(PrologError):
    """A goal or arithmetic argument was an unbound variable."""


class TypeMismatchError(PrologError):
    """An argument had the wrong shape (non-callable goal, non-list, ...)."""


class ExistenceError(PrologError):
    """A goal referred to a predicate with no clauses and no builtin."""

    def __init__(self, name: str, arity: int):
        self.name = name
        self.arity = arity
        super().__init__(f"unknown predicate {name}/{arity}")


class EvaluationError(PrologError):
    """Arithmetic evaluation failed (division by zero, unknown function)."""


class ResourceLimitError(PrologError):
    """A goal exceeded the engine's frame budget, or an integer is too long to write."""


class TranspileError(PrologError):
    """The source-to-source rewriter could not handle the input."""


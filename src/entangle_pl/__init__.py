"""Mini Prolog with interclausal ``~Name`` variables.

An interclausal variable is a single program-wide logic variable shared by
every clause that mentions it.  Binding it in one clause activation makes
the value visible everywhere until the query's solution sequence is
abandoned, at which point it is reset to unbound.  The package ships a
tree-walking engine with full backtracking, a DCG layer with an
assumption-grammar library, and a source-level transpiler that eliminates
``~`` variables (used as an independent correctness oracle).
"""

from importlib import resources
from pathlib import Path

from .engine import Engine, Solution
from .errors import (
    EvaluationError,
    ExistenceError,
    InstantiationError,
    PrologError,
    PrologSyntaxError,
    ResourceLimitError,
    TranspileError,
    TypeMismatchError,
)

__version__ = "0.1.0"
# name of the term kernel, which is pure Python; perfbench records it
KERNEL_IMPL = "py"

__all__ = [
    "Engine",
    "Solution",
    "EvaluationError",
    "ExistenceError",
    "InstantiationError",
    "PrologError",
    "PrologSyntaxError",
    "ResourceLimitError",
    "TranspileError",
    "TypeMismatchError",
    "KERNEL_IMPL",
    "TranspileResult",
    "transform_query",
    "transpile",
    "corpus_dir",
    "__version__",
]


def __getattr__(name: str):
    # served from the transpiler on first use (PEP 562), so that importing
    # the package and running an engine does not import it
    if name in ("TranspileResult", "transform_query", "transpile"):
        from . import transpiler

        return getattr(transpiler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def corpus_dir() -> Path:
    """Directory of the bundled demo programs and their query files."""
    return Path(str(resources.files(__package__).joinpath("corpus")))

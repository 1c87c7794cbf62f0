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
from .transpiler import TranspileResult, collect_evars, transform_query, transpile

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
    "collect_evars",
    "transform_query",
    "transpile",
    "corpus_dir",
    "__version__",
]


def corpus_dir() -> Path:
    """Directory of the bundled demo programs and their query files."""
    return Path(str(resources.files(__package__).joinpath("corpus")))

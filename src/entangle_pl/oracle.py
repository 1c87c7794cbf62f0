"""Cross-check: native engine vs transpiled program.

For every program the checker builds two engines, one native (``~`` syntax
enabled) and one holding the transpiled program (``~`` syntax disabled),
runs each query on both (the transformed query on the second) and compares
the two solution multisets.  The program and each query are read once, by
the native engine, and both engines run on its store, so nothing is
copied: the transpiled engine runs the rewritten clauses themselves, the
ones ``--transpile`` writes, and each rewritten query on the read query's
own variables.  ``solution_multiset`` closes each run before the next
starts, so no two overlap on the store.  Both runs print into a discarded
buffer, so a listing/1 query is one more pair.  After both runs the
``~Name`` cells and every cell of the two goals must be unbound again,
since the next query reuses them.  Solutions are compared after
alpha-normalising machine-generated variable names; a query that raises
counts its error's class as one more outcome, and one that cannot be read
fails its pair with the reader's message.
"""

from __future__ import annotations

import io
import re
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# perfbench's tracer patches names here, even unused ones, and in _engine
from . import engine as _engine
from .engine import Engine
from .errors import PrologError
from .transpiler import rewrite_program, rewrite_query, transform_query, transpile

# Unbound cells render as _G<serial>; an unbound interclausal variable
# renders as its ~Name.  Both stand for "some unconstrained variable" and
# must compare equal across the two runs.
_VAR_TOKEN = re.compile(r"_G\d+|~[A-Z_]\w*")


def _renumber(pattern, text: str, prefix: str, mapping: dict) -> str:
    """Replace each token ``pattern`` matches by ``prefix`` and its number
    in first-occurrence order; ``mapping`` carries the numbering on."""
    return pattern.sub(
        lambda m: mapping.setdefault(m.group(0), f"{prefix}{len(mapping)}"), text
    )


def normalize_solution(solution) -> tuple:
    mapping = {}
    # Sort by variable name first: the transformed query may mention the
    # same variables in a different order, and the alpha-numbering must
    # not depend on that order.
    return tuple(
        (name, _renumber(_VAR_TOKEN, value, "_A", mapping))
        for name, value in sorted(solution.items(), key=lambda nv: nv[0])
    )


def solution_multiset(engine: Engine, query, limit: int | None = None) -> Counter:
    """``query`` is a text, or a ``(goal, varmap)`` pair already read.  A
    ``PrologError`` raised while solving counts as one ``("error", <class
    name>)`` entry, after the solutions that came before it."""
    counter = Counter()
    gen = engine.query(query) if isinstance(query, str) else engine.solve(*query)
    try:
        for i, sol in enumerate(gen):
            counter[normalize_solution(sol)] += 1
            if limit is not None and i + 1 >= limit:
                break
    except PrologError as e:
        counter[("error", type(e).__name__)] += 1
    finally:
        gen.close()
    return counter


@dataclass
class PairResult:
    program: str
    query: str
    ok: bool
    native: int
    transpiled: int
    detail: str = ""

    def __str__(self):
        if self.ok:
            return f"OK        {self.program} :: {self.query}"
        return (
            f"MISMATCH  {self.program} :: {self.query}"
            f" (native {self.native}, transpiled {self.transpiled})"
            + (f" {self.detail}" if self.detail else "")
        )


def check_program(
    program_text: str,
    queries,
    label: str = "<program>",
    limit: int | None = None,
    engine_options: dict | None = None,
) -> list:
    options = engine_options or {}
    native = Engine(allow_evars=True, **options)
    pairs = native.consult_text(program_text)
    oracle = Engine(allow_evars=False, **options)
    # The transpiled engine runs the rewritten clauses themselves, on the
    # native store, sharing its variables: that is safe, as for the shared
    # prelude, because a stored clause is never bound; each try renames it.
    oracle.store = native.store
    program, clauses = rewrite_program(pairs, list(native.store.evars), native.store)
    oracle._add([[head, body, None] for head, body in clauses])
    out = []
    for query in queries:
        try:
            goal, varmap = _engine.read_query(query, native.store)
        except PrologError as e:  # one unreadable query fails its own pair
            out.append(PairResult(label, query, False, 0, 0, f"unreadable: {e}"))
            continue
        with redirect_stdout(io.StringIO()):  # what a listing/1 prints goes here
            native_set = solution_multiset(native, (goal, varmap), limit)
            rewritten = rewrite_query(goal, native.store, program)
            oracle_set = solution_multiset(oracle, (rewritten, varmap), limit)
        # the next query reuses the store, so this one must end with its
        # ~Name cells and the cells of both goals unbound
        left = len(native.store.bound_cells(goal, rewritten))

        ok = native_set == oracle_set and not left
        bits = []
        if not ok:
            missing = list((native_set - oracle_set).keys())[:1]
            extra = list((oracle_set - native_set).keys())[:1]
            if missing:
                bits.append(f"native-only e.g. {missing[0]}")
            if extra:
                bits.append(f"transpiled-only e.g. {extra[0]}")
        if left:
            bits.append(f"left {left} cell(s) bound")
        out.append(
            PairResult(
                label,
                query,
                ok,
                sum(native_set.values()),
                sum(oracle_set.values()),
                "; ".join(bits),
            )
        )
    return out


def read_source(path) -> str:
    """The UTF-8 text of the file ``path``.  A file that is not UTF-8 raises
    an ``OSError`` that names it, as a missing file does."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_queries(path: Path) -> list:
    queries = []
    for line in read_source(path).splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        queries.append(line)
    return queries


def check_directory(
    directory, limit: int | None = None, engine_options: dict | None = None
) -> list:
    directory = Path(directory)
    results = []
    for program_path in sorted(directory.glob("*.pl")):
        queries_path = program_path.with_suffix(".queries")
        if not queries_path.exists():
            continue
        results.extend(
            check_program(
                read_source(program_path),
                read_queries(queries_path),
                label=program_path.name,
                limit=limit,
                engine_options=engine_options,
            )
        )
    return results

"""Per-layer tracing installed from outside the package.

``Tracer.install`` rebinds the names each calling module looks up (for
example ``entangle_pl.engine.unify`` or ``entangle_pl.reader.tokenize``) to
timing wrappers; ``uninstall`` puts the originals back.  Nothing under
``src/`` changes.  Calls at layer boundaries become recorded spans
(id, parent, name, start, end); hot kernel, builtin and writer calls are
only aggregated into call counts and total time per parent span name, so
trace memory stays bounded however long the run.  A span's self time is
its duration minus the time of the calls made inside it.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter, defaultdict
from time import perf_counter


# Times of the layers only some workloads call.  On the others they read
# exactly 0 on every run, so they go to the result record, not the result
# line; the layers' call counts stay on the line.
RECORD_ONLY = frozenset((
    "dcg.translate_s", "transpiler.transpile_s", "transpiler.transform_query_s",
    "oracle.engine_build_s", "oracle.native_s", "oracle.transpiled_s",
    "oracle.normalize_s", "cli.main_s", "cli.self_s",
))


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # name -> inclusive seconds
        self.self_time = defaultdict(float)  # name -> exclusive seconds
        self.calls = Counter()
        self.counts = Counter()  # work counters at the same boundaries
        self.nested = defaultdict(lambda: [0, 0.0])  # (parent, name) -> calls, s
        self.spans = []
        self.origin = perf_counter()
        self._next_id = 0
        # one frame per active call: [child seconds, span id, name]
        self.stack = [[0.0, None, "root"]]
        self._patches = []
        self._pending_head = False
        self._stores = []  # [store, cells already counted]
        self._oracle_engines = weakref.WeakSet()
        self._gc_start = 0.0

    # --- recording ---------------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def _finish(self, name, frame, t0, dt, record):
        self.stack.pop()
        parent = self.stack[-1]
        parent[0] += dt
        self.total[name] += dt
        self.self_time[name] += dt - frame[0]
        self.calls[name] += 1
        if record:
            self.spans.append(
                (frame[1], parent[1], name, t0 - self.origin, t0 + dt - self.origin)
            )
        else:
            under = self.nested[(parent[2], name)]
            under[0] += 1
            under[1] += dt

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a recorded span."""
        return self._timed(name, True, fn, args, kwargs)

    def _timed(self, name, record, fn, args, kwargs):
        frame = [0.0, self._new_id() if record else self.stack[-1][1], name]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._finish(name, frame, t0, perf_counter() - t0, record)

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self._timed(name, True, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hot(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._timed(name, False, fn, args, kwargs)

        return wrapper

    # --- wrappers with layer-specific accounting ---------------------------

    def _copy_terms(self, fn):
        hot = self._hot("kernel.copy", fn)

        def copy_terms(*args, **kwargs):
            # the engine copies only to select a clause, and unifies the
            # copied head with the goal right after
            t0 = perf_counter()
            try:
                return hot(*args, **kwargs)
            finally:
                self.total["engine.select"] += perf_counter() - t0
                self._pending_head = True

        return copy_terms

    def _unify(self, fn):
        hot = self._hot("kernel.unify", fn)

        def unify(*args, **kwargs):
            if not self._pending_head:
                return hot(*args, **kwargs)
            self._pending_head = False
            t0 = perf_counter()
            matched = hot(*args, **kwargs)
            self.total["engine.select"] += perf_counter() - t0
            self.counts["engine.clause_tries"] += 1
            self.counts["engine.head_matches"] += bool(matched)
            return matched

        return unify

    def _solve(self, fn):
        tracer = self

        def solve(engine, goal, varmap=None):
            frame = [0.0, tracer._new_id(), "engine.solve"]
            parent = tracer.stack[-1][1]
            gen = fn(engine, goal, varmap)
            busy = 0.0
            first = None

            def step(action):
                nonlocal busy, first
                tracer.stack.append(frame)
                t0 = perf_counter()
                if first is None:
                    first = t0
                try:
                    return action()
                finally:
                    dt = perf_counter() - t0
                    tracer.stack.pop()
                    tracer.stack[-1][0] += dt
                    busy += dt

            try:
                while True:
                    try:
                        solution = step(lambda: next(gen))
                    except StopIteration:
                        return
                    tracer.counts["engine.solutions"] += 1
                    yield solution
            finally:
                step(gen.close)
                tracer.total["engine.solve"] += busy
                tracer.self_time["engine.solve"] += busy - frame[0]
                tracer.calls["engine.solve"] += 1
                tracer.spans.append(
                    (frame[1], parent, "engine.solve",
                     first - tracer.origin, perf_counter() - tracer.origin)
                )

        return solve

    def _store_factory(self, cls):
        def make_store(*args, **kwargs):
            store = cls(*args, **kwargs)
            self._stores.append([store, 0])
            return store

        return make_store

    def _oracle_engine(self, cls):
        def build(*args, **kwargs):
            engine = self.call("oracle.engine_build", cls, *args, **kwargs)
            self._oracle_engines.add(engine)
            return engine

        return build

    def _consult(self, fn):
        span = self._span("engine.consult", fn)

        def consult_text(engine, text):
            t0 = perf_counter()
            try:
                return span(engine, text)
            finally:
                if engine in self._oracle_engines:
                    self.total["oracle.engine_build"] += perf_counter() - t0

        return consult_text

    def _multiset(self, fn):
        native = self._span("oracle.native", fn)
        transpiled = self._span("oracle.transpiled", fn)

        def solution_multiset(engine, *args, **kwargs):
            side = native if engine.allow_evars else transpiled
            return side(engine, *args, **kwargs)

        return solution_multiset

    def _count(self, key, measure):
        def after(args, result):
            self.counts[key] += measure(result)

        return after

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.total["runtime.gc"] += perf_counter() - self._gc_start
        if info.get("generation") == 2:
            self.counts["runtime.gc_gen2"] += 1

    # --- installation --------------------------------------------------------

    def _patch(self, owner, name, wrap):
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def install(self):
        import entangle_pl.cli as C
        import entangle_pl.dcg as D
        import entangle_pl.engine as E
        import entangle_pl.oracle as O
        import entangle_pl.reader as R
        import entangle_pl.transpiler as T

        count = self._count
        clauses = count("reader.clauses", len)
        out_clauses = count("transpiler.out_clauses", lambda r: r.text.count("\n"))
        self._patch(R, "tokenize", lambda f: self._span(
            "reader.tokenize", f, count("reader.tokens", len)))
        self._patch(D, "dcg_translate", lambda f: self._span("dcg.translate", f))
        for mod in (E, T):
            self._patch(mod, "read_program", lambda f: self._span(
                "reader.read_program", f, clauses))
            self._patch(mod, "read_query", lambda f: self._span("reader.read_query", f))
            self._patch(mod, "write_term", lambda f: self._hot("reader.write", f))
            self._patch(mod, "write_clause", lambda f: self._hot("reader.write", f))
            self._patch(mod, "translate_goal", lambda f: self._span("dcg.translate", f))
            self._patch(mod, "Store", self._store_factory)
        self._patch(E, "copy_terms", self._copy_terms)
        self._patch(E, "copy_term", lambda f: self._hot("kernel.copy", f))
        self._patch(E, "unify", self._unify)
        for key in list(E._BUILTINS):
            self._patch_item(E._BUILTINS, key, "engine.builtin")
        self._patch(E.Engine, "consult_text", self._consult)
        self._patch(E.Engine, "solve", self._solve)
        self._patch(O, "transpile", lambda f: self._span(
            "transpiler.transpile", f, out_clauses))
        self._patch(O, "transform_query", lambda f: self._span(
            "transpiler.transform_query", f))
        self._patch(O, "Engine", self._oracle_engine)
        self._patch(O, "solution_multiset", self._multiset)
        self._patch(O, "normalize_solution", lambda f: self._hot("oracle.normalize", f))
        self._patch(O, "check_program", lambda f: self._span(
            "oracle.check_program", f, count("oracle.pairs", len)))
        self._patch(C, "check_directory", lambda f: self._span(
            "oracle.check_directory", f))
        self._patch(C, "main", lambda f: self._span("cli.main", f))
        gc.callbacks.append(self._on_gc)

    def _patch_item(self, table, key, name):
        original = table[key]
        self._patches.append((table, key, original))
        table[key] = self._hot(name, original)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()
        self._pending_head = False

    # --- cell accounting ---------------------------------------------------

    def rebase_cells(self):
        """Start counting cell allocations from the stores' current size."""
        for entry in self._stores:
            entry[1] = len(entry[0].cells)

    def harvest_cells(self, keep=()):
        """Add cells allocated since the last rebase; keep only the stores of
        ``keep`` (the workload's long-lived engines) for later counting."""
        kept = []
        keep_ids = {id(store) for store in keep}
        for entry in self._stores:
            n = len(entry[0].cells)
            self.counts["kernel.cells_allocated"] += n - entry[1]
            entry[1] = n
            if id(entry[0]) in keep_ids:
                kept.append(entry)
        self._stores = kept

    # --- results ---------------------------------------------------------------

    def metrics(self, live_cells: int, overhead: float) -> dict:
        t, s, n, c = self.total, self.self_time, self.calls, self.counts
        tries = c["engine.clause_tries"]
        tokenize_s = t["reader.tokenize"]
        values = {
            "reader.tokenize_s": (tokenize_s, "s"),
            "reader.tokens": (c["reader.tokens"], "count"),
            "reader.tokens_per_s": (
                c["reader.tokens"] / tokenize_s if tokenize_s else 0.0, "1/s"),
            "reader.parse_s": (
                s["reader.read_program"] + s["reader.read_query"], "s"),
            "reader.clauses": (c["reader.clauses"], "count"),
            "reader.write_s": (t["reader.write"], "s"),
            "reader.write_calls": (n["reader.write"], "count"),
            "dcg.translate_s": (t["dcg.translate"], "s"),
            "dcg.translate_calls": (n["dcg.translate"], "count"),
            "engine.consult_s": (t["engine.consult"], "s"),
            "engine.solve_s": (t["engine.solve"], "s"),
            "engine.solve_self_s": (s["engine.solve"], "s"),
            "engine.clause_tries": (tries, "count"),
            "engine.head_matches": (c["engine.head_matches"], "count"),
            "engine.head_match_ratio": (
                c["engine.head_matches"] / tries if tries else 0.0, "ratio"),
            "engine.select_s": (t["engine.select"], "s"),
            "engine.builtin_calls": (n["engine.builtin"], "count"),
            "engine.builtin_s": (t["engine.builtin"], "s"),
            "engine.solutions": (c["engine.solutions"], "count"),
            "kernel.unify_calls": (n["kernel.unify"], "count"),
            "kernel.unify_s": (t["kernel.unify"], "s"),
            "kernel.copy_calls": (n["kernel.copy"], "count"),
            "kernel.copy_s": (t["kernel.copy"], "s"),
            "kernel.cells_allocated": (c["kernel.cells_allocated"], "count"),
            "kernel.cells_live_end": (live_cells, "count"),
            "transpiler.transpile_s": (t["transpiler.transpile"], "s"),
            "transpiler.transform_query_s": (t["transpiler.transform_query"], "s"),
            "transpiler.out_clauses": (c["transpiler.out_clauses"], "count"),
            "oracle.engine_build_s": (t["oracle.engine_build"], "s"),
            "oracle.native_s": (t["oracle.native"], "s"),
            "oracle.transpiled_s": (t["oracle.transpiled"], "s"),
            "oracle.normalize_s": (t["oracle.normalize"], "s"),
            "oracle.pairs": (c["oracle.pairs"], "count"),
            "cli.calls": (n["cli.main"], "count"),
            "cli.main_s": (t["cli.main"], "s"),
            "cli.self_s": (s["cli.main"], "s"),
            "runtime.gc_s": (t["runtime.gc"], "s"),
            "runtime.gc_gen2": (c["runtime.gc_gen2"], "count"),
            "trace.overhead": (overhead, "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.total)
            },
            "nested": [
                {"parent": parent, "name": name, "calls": calls, "total_s": total}
                for (parent, name), (calls, total) in sorted(self.nested.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }

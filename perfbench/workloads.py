"""The four workloads: generated inputs, a schedule of ops each, and the
checks every op's answer must pass.

A workload is built from a seed without importing the engine; ``setup``
is the part a user pays for (import, ``Engine()``, consult) and is timed
by the caller.  The engine only ever receives program and query text.
"""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen

CORPUS = Path("src/entangle_pl/corpus")

# Presets: "full" is what the benchmark measures; "tiny" is for the smoke
# test and only has to exercise every path.  Each full cycle has an odd
# number of ops whose costs fall into a few bands, chosen so that the
# median and the 90th percentile land inside one band rather than on the
# edge between two, where they would jump from run to run.
SIZES = {
    "full": {
        "nrev_lengths": range(20, 61),
        "count_to": range(200, 1001, 100),
        "colorings": ((8, 12), (10, 20)),
        "mst": (40, 150),
        "mst_graphs": 2,
        "bigdb": (5000, 4000, 1000, 1000),
        "bigdb_mix": (3, 2, 5, 3),
        "bigdb_cycles": 2,
        "registry": (1000, 300),
        "oracle_small": (
            ("coloring", 5, 6), ("mst", 8, 12), ("mst", 10, 16), ("mst", 12, 20),
            ("registry", 40, 15), ("registry", 60, 20), ("registry", 80, 30),
            ("registry", 100, 40),
        ),
        # passes over the schedule in an untraced run: a fixed amount of
        # work, at least 100 ops, about 20 s on a busy 2-core x86-64 box
        "passes": {"det": 2, "search": 4, "bigdb": 9, "oracle": 3},
    },
    "tiny": {
        "nrev_lengths": range(3, 9),
        "count_to": (10, 20),
        "colorings": ((4, 4), (5, 6)),
        "mst": (8, 12),
        "mst_graphs": 2,
        "bigdb": (200, 160, 40, 40),
        "bigdb_mix": (2, 1, 1, 1),
        "bigdb_cycles": 2,
        "registry": (40, 10),
        "oracle_small": (("coloring", 4, 4), ("mst", 6, 8), ("registry", 10, 4)),
        "passes": {"det": 1, "search": 1, "bigdb": 1, "oracle": 1},
    },
}


ORDERS = 4  # shuffled orders of one cycle's ops per schedule


@dataclass
class Op:
    label: str
    text: str  # query text, or the directory for an oracle check
    expected: object  # answer list, transcript text, or number of OK lines
    engine: int = 0  # index into the workload's engines
    ordered: bool = True  # answers must come in this order
    inferences: int = 0  # analytic count, where the workload reports LIPS


@dataclass
class Result:
    ok: bool
    seconds: float
    first_solution: float | None = None
    error: str = ""


@dataclass
class Workload:
    name: str
    programs: list  # one program text per long-lived engine
    ops: list  # the schedule
    passes: int = 1  # times an untraced run goes through the schedule
    lips: bool = False
    uses_cli: bool = False
    engines: list = field(default_factory=list)
    cli: object = None

    def setup(self):
        """Import the package and build every engine; the timed set-up."""
        import entangle_pl

        if self.uses_cli:
            import entangle_pl.cli

            self.cli = entangle_pl.cli
        self.engines = []
        for text in self.programs:
            engine = entangle_pl.Engine()
            engine.consult_text(text)
            self.engines.append(engine)

    def run(self, op: Op) -> Result:
        """Execute one op and check its answer and the cell reset invariant."""
        if self.uses_cli:
            return self._run_oracle(op)
        engine = self.engines[op.engine]
        answers = []
        first = None
        try:
            t0 = perf_counter()
            solutions = engine.query(op.text)
            try:
                for solution in solutions:
                    if first is None:
                        first = perf_counter() - t0
                    answers.append(str(solution))
            finally:
                solutions.close()
            seconds = perf_counter() - t0
        except Exception as exc:  # a failed op is counted, never fatal
            return Result(False, perf_counter() - t0, first, f"{op.label}: {exc!r}")
        bound = [c.name for c in engine.store.evars.values() if c.ref is not None]
        if bound:
            return Result(False, seconds, first, f"{op.label}: left bound {bound[:3]}")
        if isinstance(op.expected, str):
            ok = _transcript(answers) == op.expected
        elif op.ordered:
            ok = answers == op.expected
        else:
            ok = sorted(answers) == sorted(op.expected)
        return Result(ok, seconds, first, "" if ok else f"{op.label}: wrong answer")

    def _run_oracle(self, op: Op) -> Result:
        out = io.StringIO()
        try:
            t0 = perf_counter()
            with redirect_stdout(out):
                code = self.cli.main(["--oracle-check", op.text])
            seconds = perf_counter() - t0
        except Exception as exc:  # SystemExit is not caught: usage errors abort
            return Result(False, perf_counter() - t0, None, f"{op.label}: {exc!r}")
        lines = out.getvalue().splitlines()
        ok = (
            code == 0
            and len(lines) == op.expected
            and all(line.startswith("OK") for line in lines)
        )
        return Result(ok, seconds, None, "" if ok else f"{op.label}: exit {code}")

    def live_cells(self) -> int:
        return sum(len(e.store.cells) for e in self.engines)


_GSERIAL = re.compile(r"_G\d+")


def _transcript(answers: list) -> str:
    """Answers in the recorded ``.expected`` layout, serials renumbered."""
    lines = ["true." if a == "true" else a for a in answers] or ["false."]
    mapping = {}

    def renumber(match):
        return mapping.setdefault(match.group(0), f"_G{len(mapping)}")

    return _GSERIAL.sub(renumber, "\n".join(lines))


def _queries(path: Path) -> list:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("%")]


def _corpus_ops(stem: str, engine: int) -> list:
    """The recorded transcript of one corpus program, one op per query."""
    blocks = (CORPUS / f"{stem}.expected").read_text(encoding="utf-8").split("\n\n")
    ops = []
    for block in blocks:
        head, _, body = block.strip("\n").partition("\n")
        ops.append(Op(f"{stem}:{head[3:]}", head[3:], body, engine))
    return ops


# --- workload builders ----------------------------------------------------


def _orders(rng: random.Random, ops: list) -> list:
    """A schedule of the same ops in ``ORDERS`` shuffled orders.

    An op that always ran right after a heavy one would always find cold
    caches; varying its neighbours lets its fastest repetition show its
    own cost rather than that of the order the seed happened to draw.
    """
    schedule = []
    for _ in range(ORDERS):
        order = list(ops)
        rng.shuffle(order)
        schedule.extend(order)
    return schedule



def det(rng: random.Random, size: dict) -> Workload:
    """Deterministic recursion in one long-lived engine."""
    ops = []
    for n in size["nrev_lengths"]:
        spec = gen.nrev_op(rng, n)
        ops.append(Op(f"nrev{n}", spec["query"], spec["expected"],
                      inferences=spec["inferences"]))
    for n in size["count_to"]:
        spec = gen.count_op(n)
        ops.append(Op(f"count{n}", spec["query"], spec["expected"],
                      inferences=spec["inferences"]))
    return Workload("det", [gen.DET_PROGRAM], _orders(rng, ops), lips=True)


def search(rng: random.Random, size: dict) -> Workload:
    """The paper's own programs: backtracking over ``~Name`` cells."""
    programs = []
    ops = []
    for n, m in size["colorings"]:
        spec = gen.coloring(rng, n, m)
        ops.append(Op(f"coloring{n}v{m}e", spec["query"], spec["expected"],
                      len(programs), ordered=False))
        programs.append(spec["text"])
    n, m = size["mst"]
    for i in range(size["mst_graphs"]):
        spec = gen.mst(rng, n, m)
        ops.append(Op(f"mst{n}v{m}e#{i}", spec["query"], spec["expected"],
                      len(programs)))
    programs.append(spec["text"])  # same vertex facts for every graph
    for stem in ("assumptions_demo", "dcg_demo"):
        ops.extend(_corpus_ops(stem, len(programs)))
        programs.append((CORPUS / f"{stem}.pl").read_text(encoding="utf-8"))
    return Workload("search", programs, _orders(rng, ops))


def _stratified(rng: random.Random, items: list, n: int) -> list:
    """``n`` items, one from each of ``n`` equal slices of ``items``, shuffled."""
    picks = [rng.choice(items[len(items) * j // n: len(items) * (j + 1) // n])
             for j in range(n)]
    rng.shuffle(picks)
    return picks


def bigdb(rng: random.Random, size: dict) -> Workload:
    """A 10k-clause program: large predicates scanned by every call.

    Where the matching clause sits sets the time to the first solution, so
    the looked-up keys, values and rules are drawn one from each equal
    slice of their predicate: the seed moves them within their slice and
    the spread of positions stays the same.
    """
    db = gen.bigdb(rng, *size["bigdb"])
    cycles = size["bigdb_cycles"]
    n_point, n_bind, n_value, n_rule = (n * cycles for n in size["bigdb_mix"])
    facts = db["facts"]
    keys = db["keys"]  # in clause order
    first_of = {}
    for k in keys:
        first_of.setdefault(facts[k][0], k)
    linked = {y for y, _ in db["links"]}
    joins = [k for k in keys if facts[k][0] in linked]
    rules = range(len(db["thresholds"]))
    by_kind = {
        "point": [gen.bigdb_point(db, k) for k in _stratified(rng, keys, n_point)],
        "bind": [gen.bigdb_bind(db, k, f"mark{rng.randrange(9)}") for k in
                 _stratified(rng, [k for k in keys if facts[k][2] is None], n_bind)],
        "value": [gen.bigdb_value(db, v) for v in
                  _stratified(rng, list(first_of), n_value)],
        "rule": [],
    }
    for j, k in enumerate(_stratified(rng, joins, n_rule)):
        stratum = rules[len(rules) * j // n_rule: len(rules) * (j + 1) // n_rule]

        def fitting(k):
            return [i for i in stratum if db["thresholds"][i] <= facts[k][1]]

        while not fitting(k):  # every join op yields at least one answer
            k = rng.choice(joins)
        by_kind["rule"].append(gen.bigdb_rule(db, rng.choice(fitting(k)), k))
    ops = []
    for c in range(cycles):
        cycle = [Op(kind, spec["query"], spec["expected"])
                 for kind, specs in by_kind.items()
                 for spec in specs[c * len(specs) // cycles:
                                   (c + 1) * len(specs) // cycles]]
        rng.shuffle(cycle)
        ops.extend(cycle)
    return Workload("bigdb", [db["text"]], ops)


def oracle(rng: random.Random, size: dict, root: Path) -> Workload:
    """``--oracle-check`` through the CLI, one program directory per op."""
    pairs = sum(len(_queries(p)) for p in CORPUS.glob("*.queries"))
    ops = [Op("corpus", str(CORPUS), pairs)]
    specs = [("registry",) + size["registry"]] * 2 + list(size["oracle_small"])
    for i, (kind, a, b) in enumerate(specs):
        if kind == "registry":
            spec = gen.registry(rng, a, b)
            text, queries = spec["text"], spec["queries"]
        else:
            spec = getattr(gen, kind)(rng, a, b)
            text, queries = spec["text"], [spec["query"]]
        directory = root / f"{i:02d}-{kind}{a}x{b}"
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "program.pl").write_text(text, encoding="utf-8")
        (directory / "program.queries").write_text(
            "\n".join(queries) + "\n", encoding="utf-8")
        ops.append(Op(directory.name, str(directory), len(queries)))
    return Workload("oracle", [], _orders(rng, ops), uses_cli=True)


def build(name: str, seed: int, size: str, scratch: Path) -> Workload:
    """The workload ``name`` for ``seed``; same arguments, same inputs."""
    rng = random.Random(f"{name}-{seed}")
    if name == "oracle":
        wl = oracle(rng, SIZES[size], scratch / f"oracle-{size}-{seed}")
    else:
        wl = {"det": det, "search": search, "bigdb": bigdb}[name](rng, SIZES[size])
    wl.passes = SIZES[size]["passes"][name]
    return wl


NAMES = ("det", "search", "bigdb", "oracle")

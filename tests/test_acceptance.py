"""Acceptance criteria for the package, one test per criterion.

``pytest -v`` prints one pass/fail line per criterion.  Derived quantities
are never taken from the engine on faith: the coloring solution count is
checked against a brute-force enumerator of all 3^n color assignments, and
the spanning-tree cost against a brute-force enumerator of all (n-1)-edge
subsets and against Kruskal's algorithm, on the benchmark graphs and on
seeded random connected graphs.  The references live in this module and
share no code with the engine.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import re

import pytest

from conftest import answers, checked_answers
from entangle_pl import Engine, InstantiationError, corpus_dir, kernel
from entangle_pl.cli import main
from entangle_pl.oracle import check_directory, read_queries
from entangle_pl.reader import read_program, write_clause

CORPUS = corpus_dir()
PRELUDE = CORPUS.parent / "assumptions.pl"


def load(name: str, **options) -> Engine:
    eng = Engine(**options)
    eng.consult_text((CORPUS / name).read_text(encoding="utf-8"))
    return eng


# --- criterion 1: one write-once cell shared by every clause ---------------


def test_01_interclausal_variable_spans_clauses():
    eng = Engine()
    eng.consult_text("a(~X).\nb(~X).\n")
    # binding the cell through a/1 is visible through b/1, and vice versa
    assert answers(eng, "a(10),b(V).") == ["V = 10"]
    assert answers(eng, "a(V),b(20).") == ["V = 20"]
    # two different constants cannot both enter the same cell
    assert answers(eng, "a(1),b(2).") == []


# --- criterion 2: graph coloring against a brute-force enumerator ----------

COLORING_EDGES = [
    (1, 2), (2, 3), (1, 3), (3, 4), (4, 5),
    (5, 6), (4, 6), (2, 5), (1, 6),
]
COLORS = ("red", "green", "blue")


def brute_force_colorings(n, edges):
    """All proper 3-colorings of the graph on vertices 1..n."""
    valid = []
    for combo in itertools.product(COLORS, repeat=n):
        assign = dict(zip(range(1, n + 1), combo))
        if all(assign[u] != assign[v] for u, v in edges):
            valid.append(combo)
    return valid


def random_connected_graph(rng, n, extra):
    """A connected graph on vertices 1..n: a random spanning tree plus up
    to ``extra`` more edges, as (u, v) pairs in random order and direction."""
    pairs = {frozenset((v, rng.randrange(1, v))) for v in range(2, n + 1)}
    others = [frozenset(p) for p in itertools.combinations(range(1, n + 1), 2)]
    others = [p for p in others if p not in pairs]
    pairs.update(rng.sample(others, min(extra, len(others))))
    edges = [tuple(rng.sample(sorted(p), 2)) for p in sorted(pairs, key=sorted)]
    rng.shuffle(edges)
    return edges


def test_02_graph_coloring_first_last_and_count():
    eng = load("coloring.pl")
    sols = answers(eng, "coloring(Vs).")
    assert sols[0] == (
        "Vs = [vertex(1,red),vertex(2,green),vertex(3,blue),"
        "vertex(4,red),vertex(5,blue),vertex(6,green)]"
    )
    assert sols[-1] == (
        "Vs = [vertex(1,blue),vertex(2,green),vertex(3,red),"
        "vertex(4,blue),vertex(5,red),vertex(6,green)]"
    )
    oracle = brute_force_colorings(6, COLORING_EDGES)
    assert len(sols) == len(oracle) == 12
    # same assignments, not merely the same number of them
    engine_assignments = {
        tuple(re.findall(r"vertex\(\d,(\w+)\)", s)) for s in sols
    }
    assert engine_assignments == set(oracle)


# --- criterion 3: interclausal cells come back unbound after a query -------


def test_03_interclausal_cells_reset_after_exhaustion(capsys):
    eng = load("coloring.pl")
    assert len(list(checked_answers(eng, "coloring(Vs)."))) == 12
    assert answers(eng, "listing(vertex).") == ["true"]
    assert capsys.readouterr().out.splitlines() == [
        f"vertex({n},~C{n})." for n in range(1, 7)
    ]
    assert eng.store.bound_cells() == []


# --- criterion 4: minimum spanning tree against a brute-force enumerator ---

MST_EDGES = [
    (70, 1, 3), (80, 3, 4), (90, 1, 5), (60, 2, 3), (20, 4, 5),
    (30, 1, 4), (40, 2, 5), (50, 3, 5), (10, 1, 2),
]


def _spans(n, edges):
    """Whether ``edges``, (cost, u, v) triples, hold no cycle and connect
    vertices 1..n."""
    parent = {v: v for v in range(1, n + 1)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for _, u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return len({find(v) for v in range(1, n + 1)}) == 1


def brute_force_min_spanning_cost(n, edges):
    """Minimum spanning-tree cost over all (n-1)-edge subsets of the graph."""
    return min(
        sum(c for c, _, _ in subset)
        for subset in itertools.combinations(edges, n - 1)
        if _spans(n, subset)
    )


def kruskal_cost(n, edges):
    """Minimum spanning-tree cost by Kruskal: cheapest edges first, each
    kept unless it closes a cycle."""
    parent = {v: v for v in range(1, n + 1)}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    cost = 0
    for c, u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            cost += c
    return cost


def test_04_minimum_spanning_tree_answer_and_cost():
    eng = load("mst.pl")
    sols = answers(eng, "test_mst(M).")
    assert sols == ["M = [edge(10,1,2),edge(20,4,5),edge(30,1,4),edge(50,3,5)]"]
    engine_cost = sum(int(c) for c in re.findall(r"edge\((\d+),", sols[0]))
    assert engine_cost == brute_force_min_spanning_cost(5, MST_EDGES) == 110
    assert kruskal_cost(5, MST_EDGES) == 110


# --- criteria 2 and 4 on seeded random connected graphs ----------------------

COLORING_RULES = """
color(red). color(green). color(blue).
coloring(Vs):-
  E=edge(_,_),findall(E,E,Es),
  color_all(Es),
  V=vertex(_,_),findall(V,V,Vs).
color_all([]).
color_all([edge(X,Y)|Es]):-
   vertex(X,C), color(C),
   vertex(Y,D), color(D),
   \\+(C=D),
   color_all(Es).
"""

MST_RULES = """
mst(NbOfVertices,Edges,MinSpanTree):-
  sort(Edges,SortedEdges),
  mst0(NbOfVertices,SortedEdges,MinSpanTree).
mst0(1,_,[]).
mst0(N,[E|Es],T):- N>1,
  E=edge(_Cost,V1,V2),
  vertex(V1,C1),
  vertex(V2,C2),
  mst1(C1,C2,E,T,NewT,N,NewN),
  mst0(NewN,Es,NewT).
mst1(C1,C2,_,T,T,N,N):-C1==C2.
mst1(C1,C2,E,T,NewT,N,NewN):-C1\\==C2,C1=C2,
  T=[E|NewT],
  NewN is N-1.
"""


def _vertex_facts(n):
    return "".join(f"vertex({i},~C{i}).\n" for i in range(1, n + 1))


@pytest.mark.parametrize("seed", range(50))
def test_random_graph_coloring_against_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 7)
    edges = random_connected_graph(rng, n, rng.randrange(0, 4))
    eng = Engine()
    eng.consult_text(
        _vertex_facts(n)
        + "".join(f"edge({u},{v}).\n" for u, v in edges)
        + COLORING_RULES
    )
    sols = list(checked_answers(eng, "coloring(Vs)."))
    oracle = brute_force_colorings(n, edges)
    assert len(sols) == len(oracle), (n, edges)
    assert {tuple(re.findall(r"vertex\(\d,(\w+)\)", s)) for s in sols} == set(oracle)


@pytest.mark.parametrize("seed", range(50))
def test_random_spanning_tree_against_kruskal(seed):
    rng = random.Random(1000 + seed)
    n = rng.randrange(2, 7)
    edges = [
        (rng.randrange(1, 20), u, v)
        for u, v in random_connected_graph(rng, n, rng.randrange(0, 4))
    ]
    eng = Engine()
    eng.consult_text(_vertex_facts(n) + MST_RULES)
    listed = ",".join(f"edge({c},{u},{v})" for c, u, v in edges)
    sols = list(checked_answers(eng, f"mst({n},[{listed}],T)."))
    assert len(sols) == 1, (n, edges)
    tree = [tuple(map(int, t)) for t in re.findall(r"edge\((\d+),(\d+),(\d+)\)", sols[0])]
    assert len(tree) == n - 1 and set(tree) <= set(edges) and _spans(n, tree)
    cost = sum(c for c, _, _ in tree)
    assert cost == kruskal_cost(n, edges) == brute_force_min_spanning_cost(n, edges)


# --- criterion 5: goal injection through an interclausal gate --------------


def test_05_goal_injection_through_interclausal_gate():
    eng = load("inject.pl")
    assert answers(eng, "~Gate = fail, p(X).") == []
    assert answers(eng, "~Gate = true, p(X).") == ["X = 1"]
    # both gates were undone at query end, so the bare call hits an
    # unbound cell in goal position
    with pytest.raises(InstantiationError, match="unbound"):
        answers(eng, "p(X).")


# --- criterion 6: assumption-grammar golden answer --------------------------

GOLDEN_PHRASE = (
    "phrase(('#<'([a,b,c]),'#+'(t(99)),'#*'(p(88)),'#-'(t(A)),"
    "'#-'(p(B)),'#:'(X),'#>'(As)),Xs,Ys)."
)


def test_06_assumption_grammar_golden_answer():
    eng = load("assumptions_demo.pl")
    sols = [dict(s) for s in eng.query(GOLDEN_PHRASE)]
    assert len(sols) == 1
    sol = sols[0]
    assert sol["A"] == "99"
    assert sol["B"] == "88"
    assert sol["X"] == "a"
    assert sol["As"] == "[b,c]"
    # input token list is never constrained
    assert re.fullmatch(r"_G\d+", sol["Xs"])
    # leftover state: the unconsumed reusable assumption on an open-ended
    # store, paired with the tokens '#:' did not consume
    assert re.fullmatch(
        r"\[\*\(p\(88\)\)\|_G(\d+)\]/_G\1-\[b,c\]", sol["Ys"]
    )


# --- criterion 7: linear once, reusable many, failed branches invisible ----


def test_07_linear_once_reusable_many_failed_branch_invisible():
    eng = Engine()
    # a linear assumption satisfies exactly one matching consumption
    assert answers(
        eng, "phrase(('#<'([]),'#+'(t(1)),'#-'(t(A))), _, _)."
    ) == ["A = 1"]
    assert answers(
        eng, "phrase(('#<'([]),'#+'(t(1)),'#-'(t(_)),'#-'(t(_))), _, _)."
    ) == []
    # a reusable assumption answers five consecutive consumptions
    five = ",".join(f"'#-'(w(V{i}))" for i in range(1, 6))
    assert answers(eng, f"phrase(('#<'([]),'#*'(w(9)),{five}), _, _).") == [
        "V1 = 9, V2 = 9, V3 = 9, V4 = 9, V5 = 9"
    ]
    # an assumption made in an abandoned branch leaves no trace
    assert answers(
        eng,
        "phrase(('#<'([]),('#+'(t(1)),{fail} ; {true}),'#-'(t(_))), _, _).",
    ) == []


# --- criterion 8: native and transpiled programs agree ----------------------


def test_08_transpiled_corpus_equivalent_and_cli_check_passes(capsys):
    results = check_directory(CORPUS)
    assert results, "corpus must contain checkable (program, query) pairs"
    assert all(r.ok for r in results), "\n".join(map(str, results))
    assert main(["--oracle-check"]) == 0
    capsys.readouterr()  # discard the per-pair OK lines


# --- criterion 9: property suites -------------------------------------------


def _random_term(rng, vars_pool, depth=0):
    if depth >= 3 or rng.random() < 0.25:
        leaf = rng.random()
        if leaf < 0.4:
            return rng.choice(vars_pool)
        if leaf < 0.7:
            return kernel.Int(rng.randrange(4))
        return kernel.Atom(rng.choice("abc"))
    name = rng.choice("fgh")
    arity = rng.randrange(1, 4)
    return kernel.Struct(
        name,
        tuple(_random_term(rng, vars_pool, depth + 1) for _ in range(arity)),
    )


def test_09_property_suites():
    # (a) a failed unification restores the store completely
    rng = random.Random(20260814)
    store = kernel.Store()
    pool = [store.new_var() for _ in range(6)]
    mark = store.mark()
    failures = 0
    for _ in range(200):
        a = _random_term(rng, pool)
        b = _random_term(rng, pool)
        if kernel.unify(a, b, store):
            store.undo_to(mark)  # discard the successful experiment
        else:
            failures += 1
            assert store.mark() == mark
            assert store.bound_cells(*pool) == []
    assert failures >= 40, "the random stream must actually exercise failures"

    # (b) every binding made while answering a query is trailed: after each
    # corpus query runs to exhaustion, neither its goal nor a ~Name cell
    # holds a bound cell
    for program in sorted(CORPUS.glob("*.pl")):
        eng = Engine()
        eng.consult_text(program.read_text(encoding="utf-8"))
        for query in read_queries(program.with_suffix(".queries")):
            with contextlib.redirect_stdout(io.StringIO()):
                for _ in checked_answers(eng, query):
                    pass

    # (c) render(parse(clause)) is a fixpoint for every shipped clause
    sources = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.pl"))]
    sources.append(PRELUDE.read_text(encoding="utf-8"))
    for src in sources:
        eng = Engine()
        for head, body in read_program(src, eng.store, True):
            once = write_clause(head, body)
            reparsed = read_program(once, eng.store, True)
            assert len(reparsed) == 1
            twice = write_clause(*reparsed[0])
            assert once == twice

    # (d) term comparison is a total order on randomized triples
    rng = random.Random(417)
    store = kernel.Store()
    pool = [store.new_var() for _ in range(4)]
    terms = [_random_term(rng, pool) for _ in range(40)]
    cmp = kernel.compare_terms
    for _ in range(150):
        a, b, c = rng.choice(terms), rng.choice(terms), rng.choice(terms)
        assert cmp(a, b) == -cmp(b, a)
        assert cmp(a, a) == 0
        if cmp(a, b) <= 0 and cmp(b, c) <= 0:
            assert cmp(a, c) <= 0

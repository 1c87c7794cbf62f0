"""Seeded program generators and the Python references their answers are
checked against.

Generators draw from the ``random.Random`` they are given and return
plain data: program text, query text and the expected answers, rendered
the way the engine renders a solution (``Name = Value, ...`` in
query-variable order, or ``true`` for a solution without variables).  Nothing here imports the
engine, so a reference can never share a defect with it.  Given the same
generator state the output is byte-identical.
"""

from __future__ import annotations

import itertools
import random

COLORS = ("red", "green", "blue")


def _connected_edges(rng: random.Random, n: int, m: int, classes=None) -> list:
    """``m`` distinct undirected edges over 1..n forming a connected graph.

    With ``classes`` (vertex -> class) every edge joins two different
    classes.  Edges come out in breadth-first order from a random root, so
    each edge after the first touches a vertex seen before.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)

    def ok(a, b):
        return classes is None or classes[a] != classes[b]

    # once two classes are seen, every later vertex has a partner
    j = next(j for j in range(1, n) if ok(order[0], order[j]))
    order[1], order[j] = order[j], order[1]

    edges = set()
    for i in range(1, n):
        a = order[i]
        b = rng.choice([x for x in order[:i] if ok(a, x)])
        edges.add((min(a, b), max(a, b)))
    while len(edges) < m:
        a, b = rng.sample(range(1, n + 1), 2)
        if ok(a, b):
            edges.add((min(a, b), max(a, b)))
    pending = sorted(edges)
    rng.shuffle(pending)
    seen = {order[0]}
    out = []
    while pending:
        i = next(
            (j for j, (a, b) in enumerate(pending) if a in seen or b in seen), 0
        )
        a, b = pending.pop(i)
        seen.update((a, b))
        out.append((a, b))
    return out


def _vertex_facts(n: int) -> str:
    return "\n".join(f"vertex({i},~C{i})." for i in range(1, n + 1))


# --- graph coloring (the paper's first example) ---------------------------

COLORING_RULES = """\
color(red). color(green). color(blue).

coloring(Vs) :-
  E=edge(_,_), findall(E,E,Es),
  color_all(Es),
  V=vertex(_,_), findall(V,V,Vs).

color_all([]).
color_all([edge(X,Y)|Es]) :-
  vertex(X,C), color(C),
  vertex(Y,D), color(D),
  \\+(C=D),
  color_all(Es).
"""


def coloring(rng: random.Random, n: int, m: int) -> dict:
    """3-coloring of a connected graph; each vertex color is a ``~C_i`` cell.

    The graph's shape comes from a fixed generator per (n, m), so every
    seed explores a search tree of the same size; the seed relabels the
    vertices and reorders the facts.  (Random shapes of one size differed
    up to 3x in search time, which no run length averages away.)  The
    reference enumerates all 3**n assignments and keeps the proper ones.
    """
    shape_rng = random.Random(f"coloring-{n}-{m}")
    # a hidden proper coloring keeps every generated graph 3-colorable
    classes = {v: v % 3 for v in range(1, 4)}
    classes.update({v: shape_rng.randrange(3) for v in range(4, n + 1)})
    shape = _connected_edges(shape_rng, n, m, classes)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    edges = [(label[a - 1], label[b - 1]) for a, b in shape]
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    text = (
        "\n".join(f"vertex({i},~C{i})." for i in vertices)
        + "\n"
        + "\n".join(f"edge({a},{b})." for a, b in edges)
        + "\n"
        + COLORING_RULES
    )
    expected = []
    for cols in itertools.product(COLORS, repeat=n):
        if all(cols[a - 1] != cols[b - 1] for a, b in edges):
            body = ",".join(f"vertex({i},{cols[i - 1]})" for i in vertices)
            expected.append(f"Vs = [{body}]")
    return {"text": text, "query": "coloring(Vs).", "expected": expected}


# --- Kruskal minimum spanning tree (the paper's second example) ----------

MST_RULES = """\
mst(NbOfVertices,Edges,MinSpanTree) :-
  sort(Edges,SortedEdges),
  mst0(NbOfVertices,SortedEdges,MinSpanTree).

mst0(1,_,[]).
mst0(N,[E|Es],T) :- N>1,
  E=edge(_Cost,V1,V2),
  vertex(V1,C1),
  vertex(V2,C2),
  mst1(C1,C2,E,T,NewT,N,NewN),
  mst0(NewN,Es,NewT).

mst1(C1,C2,_,T,T,N,N) :- C1==C2.
mst1(C1,C2,E,T,NewT,N,NewN) :- C1\\==C2, C1=C2,
  T=[E|NewT],
  NewN is N-1.
"""


def _kruskal(n: int, weighted: list) -> list:
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for cost, a, b in sorted(weighted):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.append((cost, a, b))
            if len(tree) == n - 1:
                break
    return tree


def mst(rng: random.Random, n: int, m: int) -> dict:
    """Kruskal MST where the ``~C_i`` cells are the component markers.

    Costs are distinct, so the tree is unique; the reference is a
    union-find Kruskal over the same edge list.  One vertex hangs off the
    graph by a single edge carrying the highest cost, so the engine always
    walks the whole sorted edge list and every seed does the same work.
    """
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    inner = _connected_edges(rng, n - 1, m - 1)
    edges = [(vertices[a - 1], vertices[b - 1]) for a, b in inner]
    edges.append((vertices[n - 1], vertices[rng.randrange(n - 1)]))
    costs = sorted(rng.sample(range(1, 20 * m), m))
    top = costs.pop()
    rng.shuffle(costs)
    weighted = [(c, a, b) for c, (a, b) in zip(costs + [top], edges)]
    rng.shuffle(weighted)
    tree = _kruskal(n, weighted)
    edge_list = ",".join(f"edge({c},{a},{b})" for c, a, b in weighted)
    rendered = ",".join(f"edge({c},{a},{b})" for c, a, b in tree)
    return {
        "text": _vertex_facts(n) + "\n" + MST_RULES,
        "query": f"mst({n},[{edge_list}],T).",
        "expected": [f"T = [{rendered}]"],
        "cost": sum(c for c, _, _ in tree),
    }


# --- deterministic recursion ----------------------------------------------

DET_PROGRAM = """\
app([],L,L).
app([H|T],L,[H|R]) :- app(T,L,R).

nrev([],[]).
nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).

count(N,N) :- !.
count(I,N) :- I1 is I+1, count(I1,N).
"""


def nrev_op(rng: random.Random, n: int) -> dict:
    """Naive reverse of an ``n``-element list: (n+1)(n+2)/2 inferences."""
    items = [rng.randrange(1000) for _ in range(n)]
    return {
        "query": f"nrev([{','.join(map(str, items))}],R).",
        "expected": [f"R = [{','.join(map(str, reversed(items)))}]"],
        "inferences": (n + 1) * (n + 2) // 2,
    }


def count_op(n: int) -> dict:
    """``count(0,N)``: N+1 calls to count/2 and N calls to is/2."""
    return {"query": f"count(0,{n}).", "expected": ["true"], "inferences": 2 * n + 1}


# --- large fact base --------------------------------------------------------


def bigdb(rng: random.Random, n_facts: int, n_links: int, n_rules: int,
          n_values: int) -> dict:
    """``fact(Key,Value,Weight,Tag)`` facts, ``link/2`` facts and join rules.

    One fact in five holds a ``~T<Key>`` cell as its tag; the rest hold an
    atom.  ``rule(I,K,Z)`` joins fact K to the links of its value when the
    fact's weight reaches the rule's threshold.
    """
    keys = rng.sample(range(10 * n_facts), n_facts)
    facts = {}
    lines = []
    for k in keys:
        v = f"v{rng.randrange(n_values)}"
        w = rng.randrange(1000)
        tag = None if rng.random() < 0.2 else f"t{rng.randrange(50)}"
        facts[k] = (v, w, tag)
        lines.append(f"fact({k},{v},{w},{tag if tag else f'~T{k}'}).")
    links = []
    for _ in range(n_links):
        y, z = rng.randrange(n_values), rng.randrange(n_values)
        links.append((f"v{y}", f"v{z}"))
        lines.append(f"link(v{y},v{z}).")
    thresholds = [rng.randrange(1000) for _ in range(n_rules)]
    for i, c in enumerate(thresholds):
        lines.append(f"rule({i},K,Z) :- fact(K,Y,W,_), W >= {c}, link(Y,Z).")
    return {
        "text": "\n".join(lines) + "\n",
        "keys": keys,
        "facts": facts,
        "links": links,
        "thresholds": thresholds,
    }


def _tag_text(k, tag):
    return tag if tag else f"~T{k}"


def bigdb_point(db: dict, k) -> dict:
    """Lookup bound on the first argument: one fact of all."""
    v, w, tag = db["facts"][k]
    return {
        "query": f"fact({k},V,W,T).",
        "expected": [f"V = {v}, W = {w}, T = {_tag_text(k, tag)}"],
    }


def bigdb_bind(db: dict, k, label: str) -> dict:
    """Lookup whose head unification writes the fact's ``~T`` cell; ``k``
    must be a fact holding a cell."""
    v, w, _ = db["facts"][k]
    return {"query": f"fact({k},V,W,{label}).", "expected": [f"V = {v}, W = {w}"]}


def bigdb_value(db: dict, v: str) -> dict:
    """Lookup bound only on the second argument: a full scan."""
    expected = [
        f"K = {k}, W = {w}, T = {_tag_text(k, tag)}"
        for k, (fv, w, tag) in db["facts"].items()
        if fv == v
    ]
    return {"query": f"fact(K,{v},W,T).", "expected": expected}


def bigdb_rule(db: dict, i: int, k) -> dict:
    """Rule join: rule clause scan, then a fact lookup, then a link scan."""
    v, w, _ = db["facts"][k]
    expected = []
    if w >= db["thresholds"][i]:
        expected = [f"Z = {z}" for y, z in db["links"] if y == v]
    return {"query": f"rule({i},{k},Z).", "expected": expected}


# --- oracle programs ------------------------------------------------------


def registry(rng: random.Random, n_cells: int, n_alias: int) -> dict:
    """A large ``~Name`` program: one ``reg(I,~R<I>)`` fact per cell, alias
    facts between cells, and a rule that entangles two aliased cells.

    The query binds one cell and reads it back through an alias, so the
    native and transpiled runs must agree on cross-clause visibility.
    """
    lines = [f"reg({i},~R{i})." for i in range(n_cells)]
    aliases = []
    for _ in range(n_alias):
        a, b = rng.sample(range(n_cells), 2)
        aliases.append((a, b))
        lines.append(f"alias({a},{b}).")
    lines.append("same(I,J) :- alias(I,J), reg(I,V), reg(J,V).")
    a, b = aliases[rng.randrange(n_alias)]
    query = f"same({a},{b}), reg({a},marked), reg({b},V)."
    return {"text": "\n".join(lines) + "\n", "queries": [query]}

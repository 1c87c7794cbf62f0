import pytest

from entangle_pl import Engine
from entangle_pl.reader import read_query


def answers(engine, query):
    """All solutions of a query as rendered binding strings."""
    return [str(s) for s in engine.query(query)]


def checked_answers(engine, query):
    """The solutions of a query as rendered binding strings, lazily.  The
    query is read here, so when its answers end, exhausted, closed or
    raised, this asserts that the reset left neither a ``~Name`` cell nor
    a cell of the goal bound."""
    goal, varmap = read_query(query, engine.store, engine.allow_evars)
    solutions = engine.solve(goal, varmap)
    try:
        for solution in solutions:
            yield str(solution)
    finally:
        solutions.close()
        assert engine.store.bound_cells(goal) == [], query


@pytest.fixture
def oracle_engines(monkeypatch):
    """The engines ``check_program`` builds, native then transpiled for each
    program; each keeps in ``added`` the clause records added to it after
    the prelude, in order."""
    from entangle_pl import oracle

    built = []
    real_add = Engine._add

    def build(**options):
        engine = Engine(**options)
        engine.added = []
        built.append(engine)
        return engine

    def add(engine, clauses):
        real_add(engine, clauses)
        if hasattr(engine, "added"):
            engine.added += clauses

    monkeypatch.setattr(oracle, "Engine", build)
    monkeypatch.setattr(Engine, "_add", add)
    return built

import pytest

from entangle_pl import Engine


def answers(engine, query):
    """All solutions of a query as rendered binding strings."""
    return [str(s) for s in engine.query(query)]


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

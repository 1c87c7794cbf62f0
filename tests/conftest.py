def answers(engine, query):
    """All solutions of a query as rendered binding strings."""
    return [str(s) for s in engine.query(query)]

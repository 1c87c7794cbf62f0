import pytest

import entangle_pl._core_py as core_py

try:
    import entangle_pl._core_c as core_c
except ImportError:  # compiled kernel is optional
    core_c = None

KERNELS = [core_py] + ([core_c] if core_c is not None else [])

# An unbuilt compiled kernel shows its cases as skipped rather than absent.
_C_PARAM = core_c or pytest.param(
    None, id="c", marks=pytest.mark.skip(reason="compiled kernel not built")
)


@pytest.fixture(params=[core_py, _C_PARAM], ids=lambda mod: mod.IMPL)
def kernel(request):
    """Both term-store implementations must satisfy the same contract."""
    return request.param


def answers(engine, query):
    """All solutions of a query as rendered binding strings."""
    return [str(s) for s in engine.query(query)]

import pytest

from seqrisk import numkit as nk


@pytest.fixture(autouse=True)
def numkit_state_is_clean():
    """Fail a test that leaves a graph still recording on numkit's global
    stack.  The stack is cleared first, so one leak does not fail the tests
    after it."""
    yield
    if nk._GRAPH_STACK:
        depth = len(nk._GRAPH_STACK)
        nk._GRAPH_STACK.clear()
        pytest.fail(f"numkit state left dirty: {depth} graph(s) still on the stack")

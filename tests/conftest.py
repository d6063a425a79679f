import pytest

from seqrisk import numkit as nk


@pytest.fixture(autouse=True)
def numkit_state_is_clean():
    """Fail a test that leaves numkit's global state changed: a graph still
    recording, or the per-op finiteness checks switched off.  The state is
    reset first, so one leak does not fail the tests after it."""
    yield
    leaks = []
    if nk._GRAPH_STACK:
        leaks.append(f"{len(nk._GRAPH_STACK)} graph(s) still on the stack")
        nk._GRAPH_STACK.clear()
    if not nk.set_finite_checks(True):
        leaks.append("finite checks left switched off")
    if leaks:
        pytest.fail("numkit state left dirty: " + "; ".join(leaks))

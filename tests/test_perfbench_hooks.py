"""The benchmark in `perfbench/` patches seqrisk functions by name; every
name it traces must still resolve to a callable, or a traced benchmark run
crashes instead of this suite failing."""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # exec the source rather than import it: no bytecode is written under perfbench/
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves_to_a_callable():
    tracer = _load_tracer()
    assert set(tracer.TRAINING_LOOPS) <= set(tracer.ALL_TARGETS)
    missing = []
    for target in tracer.ALL_TARGETS:
        try:
            owner, attr = tracer.resolve(target)
            ok = callable(getattr(owner, attr))
        except (ImportError, AttributeError):
            ok = False
        if not ok:
            missing.append(target)
    assert not missing, f"traced targets that no longer resolve: {missing}"

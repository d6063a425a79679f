"""The benchmark in `perfbench/` patches seqrisk functions by name; every
name it traces must still resolve to a callable, every counting hook must
still read what a real call passes and returns, and every gated workload
must still run on the names and run-directory files it reads directly, or
a benchmark run crashes instead of this suite failing.  The gated
workloads run untraced and, as `perfbench/run.py --trace 1` runs them,
traced."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from seqrisk import decoding as dec
from seqrisk import objectives as obj
from seqrisk import seqmodel as sm

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in BENCHMARK["workloads"]]
# the small configuration that perfbench/tests/test_harness.py runs the workloads at
TINY = (
    "data.train_size=60", "data.dev_size=12", "data.test_size=12",
    "model.embed_dim=16", "model.ffn_dim=32", "model.enc_layers=1",
    "model.dec_layers=1", "mle.epochs=1", "mle.tokens_per_batch=200",
    "mrt.steps=2", "eval.hallucination_n=6", "eval.sweep_n=4",
    "eval.uncertainty_n=4",
)


def _load(name: str) -> types.ModuleType:
    # exec the source rather than import it: no bytecode is written under perfbench/
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)  # run.py finds the checkout from it
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves_to_a_callable():
    tracer = _load("tracer")
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


def test_counting_hooks_read_real_calls():
    tracer = _load("tracer").Tracer(targets=())
    cfg = sm.ModelConfig(vocab_size=20, embed_dim=16, num_heads=2, enc_layers=1,
                         dec_layers=1, ffn_dim=24, dropout_rate=0.0, max_seq_len=12)
    store = sm.ParameterStore.init(cfg, 0)
    src = obj.pad_batch([[4, 5, 6], [7, 8]])
    tgt_in = obj.pad_batch([[sm.BOS_ID, 9, 10, 11], [sm.BOS_ID, 12]])
    refs = [[sm.BOS_ID, 9, sm.EOS_ID], [sm.BOS_ID, 12, 13, sm.EOS_ID]]

    def feed(name, fn, *args):
        result = fn(*args)
        tracer._hook_for(name)(args, {}, result)
        return result

    groups = feed("objectives.sample_decode_dedup", obj.sample_decode_dedup,
                  store, src, refs, obj.MRTConfig(n_samples=3), np.random.default_rng(0))
    drawn = feed("decoding.sample_decode_batch", dec.sample_decode_batch,
                 store, src, 3, np.random.default_rng(0))
    # counted apart from the hook: the non-PAD ids after BOS of every sample
    tokens_out = sum(t != sm.PAD_ID for group in drawn for seq in group for t in seq[1:])
    memory = feed("seqmodel.encode_batch", sm.encode_batch, store, src)
    feed("seqmodel.decode_batch", sm.decode_batch, store, memory, src, tgt_in)
    assert dict(tracer.counts) == {
        "objectives.candidates_drawn": 3 * 2,
        "objectives.candidates_kept": sum(len(g) for g in groups),
        "decoding.tokens_out": tokens_out,
        "seqmodel.encode_batch.rows": 2,
        "seqmodel.decode_batch.rows": 2,
        "seqmodel.decode_batch.positions": 2 * 4,
    }


@pytest.mark.parametrize("name", GATED)
def test_gated_workload_runs_and_passes_its_checks(name, tmp_path, monkeypatch):
    # workloads.py imports the tracer as `tracer`, as perfbench/run.py runs it
    monkeypatch.setitem(sys.modules, "tracer", _load("tracer"))
    workload = _load("workloads").WORKLOADS[name](3, tmp_path, TINY)
    workload.setup()
    workload.units.append(workload.run_unit(0))
    workload.finish()
    assert workload.checks.failed == 0, workload.checks.failures
    assert workload.checks.attempted > 0


@pytest.mark.parametrize("name", GATED)
def test_gated_workload_runs_traced(name, tmp_path, monkeypatch):
    # run.py sets the BLAS thread variables as it loads: setting them through
    # monkeypatch first makes the test's end restore them
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        monkeypatch.setenv(var, "1")
    # registered under the names that run.py, layers.py and workloads.py import
    for module in ("run", "tracer", "layers", "workloads"):
        monkeypatch.setitem(sys.modules, module, _load(module))
    workload = sys.modules["workloads"].WORKLOADS[name](3, tmp_path, TINY)
    metrics = sys.modules["run"].run_traced(workload)
    assert [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in metrics] == []
    assert workload.checks.failed == 0, workload.checks.failures
    assert metrics["bench.unrestored"][0] == 0

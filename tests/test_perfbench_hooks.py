"""The benchmark in `perfbench/` patches seqrisk functions by name; every
name it traces must still resolve to a callable, and every counting hook
must still read what a real call passes and returns, or a traced benchmark
run crashes instead of this suite failing."""

import types
from pathlib import Path

import numpy as np

from seqrisk import decoding as dec
from seqrisk import objectives as obj
from seqrisk import seqmodel as sm

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


def test_counting_hooks_read_real_calls():
    tracer = _load_tracer().Tracer(targets=())
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

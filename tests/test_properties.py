"""Property tests: checkpoint round trips over random model configurations,
the configuration's model section against the model's own checks, and the
invariants of token-budget batching and padding."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrisk import cli
from seqrisk import objectives as obj
from seqrisk import seqmodel as sm
from seqrisk.errors import ConfigError, ContractError

FEW = settings(max_examples=40, deadline=None)


@st.composite
def model_configs(draw):
    heads = draw(st.integers(1, 3))
    return sm.ModelConfig(
        vocab_size=draw(st.integers(5, 40)),
        embed_dim=heads * draw(st.integers(1, 6)),
        num_heads=heads,
        enc_layers=draw(st.integers(0, 2)),
        dec_layers=draw(st.integers(0, 2)),
        ffn_dim=draw(st.integers(1, 12)),
        max_seq_len=draw(st.integers(2, 16)))


@FEW
@given(model_configs(), st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_checkpoint_round_trip_is_bit_exact(config, seed, step_count):
    store = sm.ParameterStore.init(config, seed)
    store.flat += np.random.default_rng(seed).standard_normal(store.flat.size, np.float32)
    store.step_count = step_count
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.ckpt"), Path(tmp, "b.ckpt")
        store.save(first)
        loaded = sm.ParameterStore.load(first)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.config == config and loaded.step_count == step_count
    assert loaded.names() == store.names()
    for name, t in store.items():
        assert loaded[name].shape == t.shape
        assert loaded[name].data.tobytes() == t.data.tobytes(), name


# each field optional, values around the bounds of the model's checks
MODEL_SECTIONS = st.fixed_dictionaries({}, optional={
    "embed_dim": st.integers(-1, 12), "num_heads": st.integers(-1, 5),
    "enc_layers": st.integers(0, 2), "dec_layers": st.integers(0, 2),
    "ffn_dim": st.integers(1, 8), "dropout_rate": st.floats(-0.5, 1.5),
    "max_seq_len": st.integers(-1, 4)})


@FEW
@given(MODEL_SECTIONS, st.integers(5, 40))
def test_model_section_is_refused_exactly_when_the_model_is(section, vocab_size):
    # eval.min_position is checked against model.max_seq_len; at 1 it fits
    # every valid model, so the model section alone decides
    data = {"model": section, "eval": {"min_position": 1}}
    try:
        want = sm.ModelConfig(vocab_size=vocab_size, **section)
    except ContractError:
        with pytest.raises(ConfigError, match="^model: "):
            cli.config_from_dict(data)
    else:
        config = cli.config_from_dict(data)
        assert config.model.to_model_config(vocab_size) == want


@FEW
@given(st.lists(st.integers(1, 12), min_size=1, max_size=40), st.integers(1, 30),
       st.randoms(use_true_random=False))
def test_token_batches_cover_the_order_within_budget(lengths, budget, random):
    corpus = [([4], [1] * n) for n in lengths]
    order = list(range(len(corpus)))
    random.shuffle(order)
    batches = obj.token_batches(corpus, order, budget)
    assert [i for batch in batches for i in batch] == order
    for batch in batches:
        assert batch
        assert len(batch) == 1 or sum(lengths[i] for i in batch) <= budget


@FEW
@given(st.lists(st.lists(st.integers(1, 99), max_size=12), min_size=1, max_size=10))
def test_pad_batch_keeps_prefixes_and_pads_the_rest(seqs):
    out = sm.pad_batch(seqs)
    assert out.shape == (len(seqs), max(len(s) for s in seqs))
    for row, seq in zip(out, seqs):
        assert row[: len(seq)].tolist() == seq
        assert (row[len(seq):] == sm.PAD_ID).all()

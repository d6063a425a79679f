"""Model contracts: masking, causality, checkpointing, and a small
finite-difference check of the full loss in float64."""

import hashlib
import json
import os
import re
import stat
import types

import numpy as np
import pytest

from seqrisk import analysis as an
from seqrisk import cli
from seqrisk import datagen as dg
from seqrisk import numkit as nk
from seqrisk import objectives as obj
from seqrisk import seqmodel as sm
from seqrisk.errors import (ContractError, LengthError, NumericsError, VocabularyError)


def tiny_config(**overrides):
    base = dict(vocab_size=32, embed_dim=16, num_heads=2, enc_layers=2,
                dec_layers=2, ffn_dim=32, dropout_rate=0.1, max_seq_len=16)
    base.update(overrides)
    return sm.ModelConfig(**base)


@pytest.fixture(scope="module")
def store():
    return sm.ParameterStore.init(tiny_config(), 12345)


class TestConfig:
    def test_rejects_tiny_vocab(self):
        with pytest.raises(ContractError):
            tiny_config(vocab_size=4)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ContractError):
            tiny_config(embed_dim=16, num_heads=3)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ContractError):
            tiny_config(dropout_rate=1.0)

    def test_dict_round_trip(self):
        cfg = tiny_config()
        assert sm.build_settings(sm.ModelConfig, cfg.to_dict()) == cfg


class TestVocabulary:
    def test_reserved_ids_are_fixed(self):
        v = sm.Vocabulary(["cat", "dog"])
        assert v.id_of("<pad>") == sm.PAD_ID == 0
        assert v.id_of("<bos>") == sm.BOS_ID == 1
        assert v.id_of("<eos>") == sm.EOS_ID == 2
        assert v.id_of("<unk>") == sm.UNK_ID == 3
        assert v.id_of("cat") == 4

    def test_encode_decode_round_trip(self):
        v = sm.Vocabulary(["x", "y", "z"])
        ids = v.encode(["z", "x", "y"])
        assert v.decode(ids) == ["z", "x", "y"]

    def test_unknown_maps_to_unk(self):
        v = sm.Vocabulary(["x"])
        assert v.encode(["nope"]) == [sm.UNK_ID]

    def test_decode_strips_specials_by_default(self):
        v = sm.Vocabulary(["x"])
        ids = [sm.BOS_ID, 4, sm.EOS_ID, sm.PAD_ID]
        assert v.decode(ids) == ["x"]

    def test_duplicate_and_reserved_tokens_rejected(self):
        with pytest.raises(VocabularyError):
            sm.Vocabulary(["a", "a"])
        with pytest.raises(VocabularyError):
            sm.Vocabulary(["<pad>"])

    def test_out_of_range_id_rejected(self):
        v = sm.Vocabulary(["a"])
        with pytest.raises(VocabularyError):
            v.token_of(99)

    def test_json_round_trip(self):
        v = sm.Vocabulary(["a", "b", "c"])
        w = sm.Vocabulary.from_json(v.to_json())
        assert len(w) == len(v) and w.id_of("c") == v.id_of("c")


class TestInitialization:
    def test_same_seed_same_params(self):
        a = sm.ParameterStore.init(tiny_config(), 7)
        b = sm.ParameterStore.init(tiny_config(), 7)
        assert all(np.array_equal(a[n].data, b[n].data) for n in a.names())

    def test_different_seed_differs(self):
        a = sm.ParameterStore.init(tiny_config(), 7)
        b = sm.ParameterStore.init(tiny_config(), 8)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a.names())

    def test_fan_scaled_uniform_bounds(self):
        store = sm.ParameterStore.init(tiny_config(), 0)
        w = store["enc.0.ffn.w1"].data  # 16 x 32
        limit = np.sqrt(6.0 / (16 + 32))
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > limit * 0.8  # actually fills the range

    def test_layer_norm_affine_starts_at_identity(self):
        store = sm.ParameterStore.init(tiny_config(), 0)
        assert np.array_equal(store["enc.final_ln.gain"].data, np.ones(16, np.float32))
        assert np.array_equal(store["enc.final_ln.bias"].data, np.zeros(16, np.float32))

    def test_layout_holds_one_embedding(self):
        # source, target and output projection all read embed.shared
        cfg = tiny_config()
        layout = sm.parameter_layout(cfg)
        assert [n for n, _ in layout if not n.startswith(("enc.", "dec."))] == ["embed.shared"]
        assert layout[0] == ("embed.shared", (cfg.vocab_size, cfg.embed_dim))
        store = sm.ParameterStore.init(cfg, 0)
        assert [(n, t.shape) for n, t in store.items()] == layout

    def test_param_count_is_stable(self):
        store = sm.ParameterStore.init(tiny_config(), 0)
        n = sum(int(np.prod(t.shape)) for _, t in store.items())
        assert n == 11328


def solo(store, src, tgt):
    """One pair through the padded reference: the log-probability rows
    [len(tgt), vocab] of the decoder fed `tgt` against `src`."""
    src, tgt = np.asarray([src]), np.asarray([tgt])
    return sm.decode_batch(store, sm.encode_batch(store, src), src, tgt).data[0]


class TestForward:
    def test_rows_are_log_distributions(self, store):
        rows = solo(store, [5, 6, 7], [sm.BOS_ID, 8, 9, sm.EOS_ID])
        assert rows.shape == (4, 32)
        assert np.allclose(np.exp(rows).sum(axis=-1), 1.0, atol=1e-5)

    def test_golden_values_for_fixed_seed(self, store):
        rows = solo(store, [5, 6, 7, 8], [sm.BOS_ID, 9, 10])
        want = [-3.62730598, -3.94357443, -3.03910089, -3.71398973, -4.45689631]
        assert np.allclose(rows[-1, :5], want, atol=1e-5)
        mem = sm.encode_batch(store, np.asarray([[5, 6, 7, 8]]))
        assert np.allclose(mem.data[0, 0, :4],
                           [0.51445991, -0.40028888, 0.55363274, -1.48933041],
                           atol=1e-5)

    def test_causal_masking(self, store):
        # changing a later target token must not move earlier rows
        tgt_a = [sm.BOS_ID, 8, 9, 10]
        tgt_b = [sm.BOS_ID, 8, 9, 11]
        rows_a = solo(store, [5, 6], tgt_a)
        rows_b = solo(store, [5, 6], tgt_b)
        assert np.array_equal(rows_a[:3], rows_b[:3])
        assert not np.array_equal(rows_a[3], rows_b[3])

    def test_pad_positions_do_not_leak(self, store):
        # a padded batch must reproduce each sequence's solo forward pass
        src_a, tgt_a = [5, 6, 7, 8, 9], [sm.BOS_ID, 10, 11, 12]
        src_b, tgt_b = [5, 6], [sm.BOS_ID, 10]
        src = obj.pad_batch([src_a, src_b])
        tgt = obj.pad_batch([tgt_a, tgt_b])
        memory = sm.encode_batch(store, src)
        rows = sm.decode_batch(store, memory, src, tgt).data
        solo_a = solo(store, src_a, tgt_a)
        solo_b = solo(store, src_b, tgt_b)
        assert np.allclose(rows[0, : len(tgt_a)], solo_a, atol=1e-5)
        assert np.allclose(rows[1, : len(tgt_b)], solo_b, atol=1e-5)

    def test_length_limits(self, store):
        with pytest.raises(LengthError):
            sm.encode_batch(store, np.full((1, 17), 5))
        with pytest.raises(LengthError):
            solo(store, [5], [sm.BOS_ID] + [6] * 16)
        with pytest.raises(LengthError):
            sm.encode_batch(store, np.zeros((1, 0), dtype=np.int64))

    def test_vocabulary_range(self, store):
        with pytest.raises(VocabularyError):
            sm.encode_batch(store, np.asarray([[32]]))

    def test_dropout_only_with_rng(self, store):
        src, tgt = [5, 6, 7], [sm.BOS_ID, 8, 9]
        a = solo(store, src, tgt)
        b = solo(store, src, tgt)
        assert np.array_equal(a, b)  # eval mode is deterministic
        rng = np.random.default_rng(0)
        mem = sm.encode_batch(store, np.array([src]), rng)
        noisy = sm.decode_batch(store, mem, np.array([src]), np.array([tgt]), rng).data
        assert not np.array_equal(a, noisy[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_keep_mask_matches_the_three_pass_mask(self, dtype, rate):
        shape = (3, 2, 5, 7)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = sm._keep_mask(shape, rate, rng, dtype)
        want = (ref_rng.random(shape) >= rate).astype(dtype) / dtype(1.0 - rate)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()  # the same draws were consumed

    def test_sinusoid_table(self):
        table = sm.sinusoid_table(8, 6)
        assert table.shape == (8, 6)
        assert np.allclose(table[0], [0, 1, 0, 1, 0, 1], atol=1e-7)
        assert table[1, 0] == pytest.approx(np.sin(1.0), abs=1e-6)

    def test_sinusoid_table_is_shared_and_read_only(self):
        table = sm.sinusoid_table(8, 6)
        assert sm.sinusoid_table(8, 6) is table
        pos = np.arange(8, dtype=np.float64)[:, None]
        i = np.arange(6, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, (2.0 * (i // 2)) / 6)
        fresh = np.where(i % 2 == 0, np.sin(angle), np.cos(angle)).astype(np.float32)
        assert np.array_equal(table, fresh)
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, store, tmp_path):
        path = tmp_path / "model.ckpt"
        store.step_count = 41
        try:
            store.save(path)
            loaded = sm.ParameterStore.load(path)
        finally:
            store.step_count = 0
        assert loaded.config == store.config
        assert loaded.step_count == 41
        for name in store.names():
            assert np.array_equal(loaded[name].data, store[name].data), name

    def test_save_load_save_is_byte_identical(self, store, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        store.save(p1)
        sm.ParameterStore.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_the_earlier_file(self, store, tmp_path):
        path = tmp_path / "model.ckpt"
        store.save(path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            broken_save(store, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b'{"format": "something-else"}\n1234')
        with pytest.raises(ContractError):
            sm.ParameterStore.load(path)

    def test_rejects_truncated_or_padded_payload(self, store, tmp_path):
        path = tmp_path / "model.ckpt"
        store.save(path)
        whole = path.read_bytes()
        for name, data in (("cut.ckpt", whole[:-5]), ("padded.ckpt", whole + b"\0" * 4),
                           ("header.ckpt", whole[:40]),
                           ("keys.ckpt", b'{"format": "%s"}\n' % sm.CHECKPOINT_FORMAT.encode())):
            bad = tmp_path / name
            bad.write_bytes(data)
            with pytest.raises(ContractError, match=name):
                sm.ParameterStore.load(bad)

    def test_rejects_a_payload_that_fails_its_checksum(self, store, tmp_path):
        good = tmp_path / "model.ckpt"
        store.save(good)
        data = bytearray(good.read_bytes())
        data[-3] ^= 0x01  # same length, so the tensors still tile the payload
        bad = tmp_path / "flipped.ckpt"
        bad.write_bytes(bytes(data))
        with pytest.raises(ContractError, match="flipped.ckpt"):
            sm.ParameterStore.load(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_weight(self, store, tmp_path, value):
        # the writer hashed the bad bytes too, so only a finiteness check catches them
        bad = store.copy()
        bad["dec.final_ln.gain"].data[3] = value
        path = tmp_path / "bad.ckpt"
        bad.save(path)
        with pytest.raises(ContractError,
                           match=r"bad\.ckpt: holds non-finite weights \(NaN or inf\)"):
            sm.ParameterStore.load(path)

    def test_refuses_a_file_without_a_checksum(self, store, tmp_path):
        old = rewrite_manifest(store, tmp_path / "old.ckpt",
                               lambda manifest: manifest.pop("payload_sha256"))
        with pytest.raises(ContractError, match=r"old\.ckpt: malformed checkpoint manifest"):
            sm.ParameterStore.load(old)

    @pytest.mark.parametrize("tied", [True, False])
    def test_refuses_a_tie_embeddings_key(self, store, tmp_path, tied):
        old = rewrite_manifest(store, tmp_path / "old.ckpt",
                               lambda manifest: manifest["config"].update(tie_embeddings=tied))
        with pytest.raises(ContractError,
                           match=r"old\.ckpt: tie_embeddings is not a recognized field"):
            sm.ParameterStore.load(old)

    @pytest.mark.parametrize("field, text, says", [
        ("step_count", "1e999", "malformed checkpoint manifest"),
        ("step_count", "2.5", "malformed checkpoint manifest"),
        ("step_count", '"3"', "malformed checkpoint manifest"),
        ("step_count", "-5", "step_count must be >= 0, got -5"),
        ("offset", "0.0", "malformed checkpoint manifest"),
        ("offset", '"0"', "malformed checkpoint manifest")])
    def test_reads_the_manifest_integers_strictly(self, store, tmp_path, field, text, says):
        path = tmp_path / "bad.ckpt"
        store.save(path)  # the fixture's step count and first offset are 0
        whole = path.read_bytes()
        edited = whole.replace(f'"{field}": 0'.encode(), f'"{field}": {text}'.encode(), 1)
        assert edited != whole
        path.write_bytes(edited)
        with pytest.raises(ContractError, match=re.escape(f"{path}: {says}")):
            sm.ParameterStore.load(path)

    def test_a_config_without_a_required_field_is_refused_naming_it(self, store, tmp_path):
        bad = rewrite_manifest(store, tmp_path / "bad.ckpt",
                               lambda manifest: manifest["config"].pop("vocab_size"))
        with pytest.raises(ContractError, match=r"^\S*bad\.ckpt: vocab_size is required$"):
            sm.ParameterStore.load(bad)

    @pytest.mark.parametrize("field, value, says", [
        ("enc_layers", 3, "holds tensor enc.final_ln.gain (16,) "
                          "where its config's model has enc.2.ln1.gain (16,)"),
        ("dec_layers", 1, "holds tensor dec.1.ln1.gain (16,) "
                          "where its config's model has dec.final_ln.gain (16,)"),
        ("ffn_dim", 64, "holds tensor enc.0.ffn.w1 (16, 32) "
                        "where its config's model has enc.0.ffn.w1 (16, 64)"),
        ("vocab_size", 40, "holds tensor embed.shared (32, 16) "
                           "where its config's model has embed.shared (40, 16)"),
        ("num_heads", 3, "embed_dim 16 not divisible by num_heads 3")])
    def test_rejects_a_config_that_misdescribes_the_tensors(self, store, tmp_path,
                                                            field, value, says):
        bad = rewrite_manifest(store, tmp_path / "bad.ckpt",
                               lambda manifest: manifest["config"].update({field: value}))
        with pytest.raises(ContractError, match=re.escape(f"{bad}: {says}")):
            sm.ParameterStore.load(bad)

    def test_rejects_a_missing_last_tensor_or_a_float_shape(self, store, tmp_path):
        short = rewrite_manifest(store, tmp_path / "short.ckpt",
                                 lambda manifest: manifest["tensors"].pop())
        with pytest.raises(ContractError, match=re.escape(
                "short.ckpt: holds no tensor where its config's model has "
                "dec.final_ln.bias (16,)")):
            sm.ParameterStore.load(short)
        floats = rewrite_manifest(store, tmp_path / "floats.ckpt",
                                  lambda manifest: manifest["tensors"][0].update(shape=[32.0, 16]))
        with pytest.raises(ContractError, match=r"floats\.ckpt: malformed checkpoint manifest"):
            sm.ParameterStore.load(floats)

    def test_rejects_a_config_too_large_to_hold(self, store, tmp_path):
        huge = rewrite_manifest(store, tmp_path / "huge.ckpt",
                                lambda manifest: manifest["config"].update(vocab_size=10**12))
        with pytest.raises(ContractError, match=r"huge\.ckpt: "):
            sm.ParameterStore.load(huge)

    def test_loaded_store_trains_and_round_trips(self, store, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        store.save(p1)
        loaded = sm.ParameterStore.load(p1)
        loaded.flat_grad.fill(0.5)
        obj.Adam(loaded).step(lr=1e-3)
        assert not np.array_equal(loaded["enc.0.attn.wq"].data, store["enc.0.attn.wq"].data)
        loaded.save(p2)
        again = sm.ParameterStore.load(p2)
        assert again.step_count == loaded.step_count == 1
        for name in loaded.names():
            assert again[name].data.tobytes() == loaded[name].data.tobytes(), name

    def test_copy_is_deep(self, store):
        clone = store.copy()
        clone["enc.final_ln.bias"].data[0] = 99.0
        assert store["enc.final_ln.bias"].data[0] == 0.0


def rewrite_manifest(store, path, edit):
    """Save `store` at `path` with `edit` applied to its manifest first."""
    store.save(path)
    header, payload = path.read_bytes().split(b"\n", 1)
    manifest = json.loads(header)
    edit(manifest)
    path.write_bytes(json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n" + payload)
    return path


def diverge(batch):
    raise NumericsError("non-finite values")


def interrupt(batch):
    raise KeyboardInterrupt


def broken_save(store, path):
    """Save a copy of `store` whose config cannot be serialised, so the
    save raises once its file is open, while the manifest is written."""
    broken = store.copy()
    broken.config = types.SimpleNamespace(to_dict=lambda: {"bad": object()})
    broken.save(path)


# artifact writers, each given data that makes it raise part way
FAILING_WRITERS = {
    "checkpoint": lambda path: broken_save(sm.ParameterStore.init(tiny_config(), 0), path),
    "tsv": lambda path: dg.write_tsv(path, [(["a"], ["b"]), (["a", None], ["b"])]),
    "csv": lambda path: an.write_sweep_csv(
        path, {"mle": [an.BeamSweepPoint(1, 0.5, 0.25, 0.5), None]}),
    "jsonl": lambda path: an.write_judgments_jsonl(path, [None]),
    "json": lambda path: cli._write_json(path, {"ok": 1, "bad": object()}),
    "trace": lambda path: obj._optimize(
        sm.ParameterStore.init(tiny_config(), 0), [0], interrupt,
        lambda step: 0.0, path),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", FAILING_WRITERS.values(), ids=FAILING_WRITERS.keys())
    def test_failed_write_leaves_the_earlier_file(self, writer, tmp_path):
        path = tmp_path / "artifact"
        path.write_bytes(b"earlier\n")
        with pytest.raises((AttributeError, ContractError, KeyboardInterrupt, TypeError)):
            writer(path)
        assert path.read_bytes() == b"earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_diverged_training_keeps_the_trace_of_earlier_steps(self, tmp_path):
        store = sm.ParameterStore.init(tiny_config(), 0)
        gain = store["enc.final_ln.gain"]

        def objective(batch):
            if batch == 2:
                diverge(batch)
            return nk.mean(gain), None

        path = tmp_path / "trace.csv"
        path.write_bytes(b"earlier\n")
        with pytest.raises(ContractError, match=r"diverged at step 3.*trace\.csv"):
            obj._optimize(store, [0, 1, 2, 3], objective, lambda step: 0.0, path)
        assert path.read_text().splitlines() == [
            "step,objective_value,learning_rate", "1,1.000000,0", "2,1.000000,0"]
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]

    @pytest.mark.parametrize("linked", [False, True], ids=["fifo", "link-to-fifo"])
    def test_fifo_is_written_in_place(self, linked, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        path = tmp_path / "out" if linked else fifo
        if linked:
            path.symlink_to(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open
        try:
            with sm.atomic_write(path) as fh:
                fh.write("streamed\n")
            assert os.read(reader, 64) == b"streamed\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert path.is_symlink() == linked
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["out", "pipe"] if linked else ["pipe"])

    def test_symlink_keeps_the_link_and_replaces_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("earlier\n")
        link.symlink_to(target)
        with sm.atomic_write(link) as fh:
            fh.write("new\n")
        assert link.is_symlink() and target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_unopenable_path_is_named_as_given(self, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            with sm.atomic_write(path):
                pass
        assert info.value.filename == str(path)


def per_tensor_save(store, path):
    """The per-tensor checkpoint writer that the one-piece save replaced,
    with the payload checksum that save now adds."""
    entries = []
    payload = bytearray()
    for name, t in store.items():
        raw = np.ascontiguousarray(t.data, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(t.shape), "offset": len(payload)})
        payload.extend(raw)
    manifest = {"format": sm.CHECKPOINT_FORMAT, "config": store.config.to_dict(),
                "step_count": store.step_count, "tensors": entries,
                "payload_sha256": hashlib.sha256(payload).hexdigest()}
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(bytes(payload))


def per_tensor_init(config, seed, dtype):
    """The construction that `ParameterStore.init` replaced: each tensor
    drawn on its own, in layout order, then packed into one buffer.
    Returns the names, the shapes and the packed buffer."""
    rng = np.random.default_rng(seed)
    layout = sm.parameter_layout(config)
    arrays = []
    for name, shape in layout:
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            arrays.append(rng.uniform(-limit, limit, size=shape).astype(dtype))
        else:
            arrays.append((np.ones if name.endswith(".gain") else np.zeros)(shape, dtype=dtype))
    return ([n for n, _ in layout], [s for _, s in layout],
            np.concatenate([a.reshape(-1) for a in arrays]))


class TestFlatStore:
    @staticmethod
    def assert_tiles(store):
        """Every tensor's data and grad are the views, in name order, that
        exactly tile the store's two flat buffers."""
        start = 0
        for _, t in store.items():
            for view, flat in ((t.data, store.flat), (t.grad, store.flat_grad)):
                assert view.base is flat and view.flags.c_contiguous
                assert view.ctypes.data == flat.ctypes.data + start * flat.itemsize
            start += t.data.size
        assert start == store.flat.size == store.flat_grad.size

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tensors_view_one_buffer_and_save_matches_per_tensor_writer(
            self, dtype, tmp_path):
        store = sm.ParameterStore.init(tiny_config(), 3, dtype=dtype)
        store.flat += np.random.default_rng(0).standard_normal(store.flat.size).astype(dtype)
        store.step_count = 7
        self.assert_tiles(store)
        store.save(tmp_path / "flat.ckpt")
        per_tensor_save(store, tmp_path / "ref.ckpt")
        assert (tmp_path / "flat.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()
        loaded = sm.ParameterStore.load(tmp_path / "flat.ckpt")
        self.assert_tiles(loaded)
        assert loaded.flat.flags.owndata and loaded.flat.flags.writeable
        assert loaded.flat.tobytes() == store.flat.astype(np.float32).tobytes()

    def test_copy_shares_no_memory(self, store):
        clone = store.copy()
        self.assert_tiles(clone)
        assert clone.flat.tobytes() == store.flat.tobytes()
        assert clone.step_count == store.step_count
        for mine in (store.flat, store.flat_grad):
            for theirs in (clone.flat, clone.flat_grad):
                assert not np.shares_memory(mine, theirs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_matches_the_per_tensor_construction(self, dtype):
        store = sm.ParameterStore.init(tiny_config(), 5, dtype=dtype)
        names, shapes, flat = per_tensor_init(tiny_config(), 5, dtype)
        assert store.names() == names
        assert [t.shape for _, t in store.items()] == shapes
        assert store.flat.dtype == flat.dtype and store.flat.tobytes() == flat.tobytes()
        assert store.step_count == 0 and not store.flat_grad.any()

    def test_backward_zero_grads_and_adam_work_on_the_buffers(self):
        store = sm.ParameterStore.init(tiny_config(dropout_rate=0.0), 2)
        before = store.flat.copy()
        with nk.Graph() as g:
            loss, _ = obj.mle_loss(store, np.array([[5, 6, 7]]),
                                   np.array([[sm.BOS_ID, 8, 9, sm.EOS_ID]]))
            grads = nk.backward(g, loss, dict(store.items()))
        assert store.flat_grad.any()
        for name, t in store.items():  # returned copies, equal to the grad views
            assert np.array_equal(grads[name].data, t.grad), name
            assert not np.shares_memory(grads[name].data, store.flat_grad), name
        store.zero_grads()
        assert not store.flat_grad.any()
        assert any(grads[name].data.any() for name in store.names())
        for name, t in store.items():
            t.grad[...] = grads[name].data
        obj.Adam(store).step(lr=0.1)
        self.assert_tiles(store)
        assert store.step_count == 1 and not np.array_equal(store.flat, before)

    def test_load_refuses_swapped_offsets(self, store, tmp_path):
        def swap(manifest):
            first, second = manifest["tensors"][1:3]
            first["offset"], second["offset"] = second["offset"], first["offset"]

        bad = rewrite_manifest(store, tmp_path / "swapped.ckpt", swap)
        with pytest.raises(ContractError, match=r"swapped\.ckpt: tensor enc\.0\.ln1\.gain "
                                                r"starts at byte \d+ where"):
            sm.ParameterStore.load(bad)

    def test_load_refuses_a_renamed_tensor(self, store, tmp_path):
        bad = rewrite_manifest(store, tmp_path / "renamed.ckpt",
                               lambda manifest: manifest["tensors"][2].update(name="w"))
        with pytest.raises(ContractError, match=re.escape(
                "renamed.ckpt: holds tensor w (16,) where its config's model has "
                "enc.0.ln1.bias (16,)")):
            sm.ParameterStore.load(bad)


class TestLossGradient:
    def test_finite_difference_on_full_loss(self):
        # float64 model, dropout off; spot-check coordinates of several
        # parameter kinds against the centered difference of the true loss
        cfg = sm.ModelConfig(vocab_size=12, embed_dim=8, num_heads=2,
                             enc_layers=1, dec_layers=1, ffn_dim=12,
                             dropout_rate=0.0, max_seq_len=8)
        store = sm.ParameterStore.init(cfg, 3, dtype=np.float64)
        src = np.array([[4, 5, 6], [7, 8, sm.PAD_ID]])
        tgt = np.array([[sm.BOS_ID, 9, 10, sm.EOS_ID],
                        [sm.BOS_ID, 11, sm.EOS_ID, sm.PAD_ID]])

        with nk.Graph() as g:
            loss, _ = obj.mle_loss(store, src, tgt, label_smoothing=0.1)
            grads = nk.backward(g, loss, dict(store.items()))
        store.zero_grads()

        def loss_value():
            value, _ = obj.mle_loss(store, src, tgt, label_smoothing=0.1)
            return value.item()

        rng = np.random.default_rng(0)
        names = ["embed.shared", "enc.0.attn.wq", "dec.0.cross.wv",
                 "dec.0.ffn.b1", "enc.final_ln.gain"]
        step = 1e-5
        for name in names:
            flat = store[name].data.reshape(-1)
            gflat = grads[name].data.reshape(-1)
            for idx in rng.choice(flat.size, size=4, replace=False):
                orig = flat[idx]
                flat[idx] = orig + step
                hi = loss_value()
                flat[idx] = orig - step
                lo = loss_value()
                flat[idx] = orig
                fd = (hi - lo) / (2 * step)
                err = nk.max_relative_error(np.array([gflat[idx]]), np.array([fd]),
                                            atol=1e-10)
                assert err < 1e-4, f"{name}[{idx}]: autodiff {gflat[idx]}, fd {fd}"


# -- the padded reference: every op on the whole [batch, length] grid ---------


def ref_attention(store, prefix, query_x, key_x, mask):
    """Multi-head attention composed of primitive ops on padded inputs."""
    bsz, q_len, dim = query_x.shape
    heads = store.config.num_heads
    dh = dim // heads

    def split(x, w):
        proj = nk.matmul(x, store[f"{prefix}.{w}"])
        return nk.transpose(nk.reshape(proj, (bsz, x.shape[1], heads, dh)), (0, 2, 1, 3))

    q, k, v = split(query_x, "wq"), split(key_x, "wk"), split(key_x, "wv")
    scores = nk.scale(nk.matmul(q, nk.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    if mask is not None:
        scores = nk.masked_fill(scores, mask, nk.NEG_INF_FILL)
    context = nk.transpose(nk.matmul(nk.softmax(scores), v), (0, 2, 1, 3))
    return nk.matmul(nk.reshape(context, (bsz, q_len, dim)), store[f"{prefix}.wo"])


def ref_ln(store, prefix, x):
    return nk.layer_norm(x, store[f"{prefix}.gain"], store[f"{prefix}.bias"])


def ref_ffn(store, prefix, x):
    hidden = nk.relu(nk.add(nk.matmul(x, store[f"{prefix}.w1"]), store[f"{prefix}.b1"]))
    return nk.add(nk.matmul(hidden, store[f"{prefix}.w2"]), store[f"{prefix}.b2"])


def ref_embed(store, weight, ids):
    cfg = store.config
    x = nk.scale(nk.embedding(weight, ids), np.sqrt(cfg.embed_dim))
    table = sm.sinusoid_table(cfg.max_seq_len, cfg.embed_dim, dtype=store.dtype)
    return nk.add(x, nk.Tensor(table[: ids.shape[1]]))


def ref_encode(store, src):
    """Memory [B, Ls, D], PAD positions computed like any other (no dropout)."""
    mask = (src == sm.PAD_ID)[:, None, None, :]
    x = ref_embed(store, store["embed.shared"], src)
    for i in range(store.config.enc_layers):
        normed = ref_ln(store, f"enc.{i}.ln1", x)
        x = nk.add(x, ref_attention(store, f"enc.{i}.attn", normed, normed, mask))
        x = nk.add(x, ref_ffn(store, f"enc.{i}.ffn", ref_ln(store, f"enc.{i}.ln2", x)))
    return ref_ln(store, "enc.final_ln", x)


def ref_decode(store, memory, src, tgt_in):
    """Log-probability rows [B, T, V] over the whole padded grid."""
    t_len = tgt_in.shape[1]
    self_mask = (np.triu(np.ones((t_len, t_len), dtype=bool), k=1)[None, None]
                 | (tgt_in == sm.PAD_ID)[:, None, None, :])
    cross_mask = (src == sm.PAD_ID)[:, None, None, :]
    x = ref_embed(store, store["embed.shared"], tgt_in)
    for i in range(store.config.dec_layers):
        normed = ref_ln(store, f"dec.{i}.ln1", x)
        x = nk.add(x, ref_attention(store, f"dec.{i}.self", normed, normed, self_mask))
        x = nk.add(x, ref_attention(store, f"dec.{i}.cross", ref_ln(store, f"dec.{i}.ln2", x),
                                    memory, cross_mask))
        x = nk.add(x, ref_ffn(store, f"dec.{i}.ffn", ref_ln(store, f"dec.{i}.ln3", x)))
    x = ref_ln(store, "dec.final_ln", x)
    return nk.log_softmax(nk.matmul(x, nk.transpose(store["embed.shared"], (1, 0))))


def ref_mle_loss(store, src, tgt, label_smoothing):
    q, count = obj.smoothed_targets(tgt[:, 1:], store.config.vocab_size, label_smoothing,
                                    dtype=store.dtype)
    rows = ref_decode(store, ref_encode(store, src), src, tgt[:, :-1])
    return nk.scale(nk.sum_(nk.mul(rows, nk.Tensor(q))), -1.0 / count)


def ref_mrt_risk(store, batch, alpha):
    """Risk with one padded encoder row per candidate."""
    flat = [c for group in batch.candidates for c in group]
    src = batch.src_batch[[b for b, group in enumerate(batch.candidates) for _ in group]]
    cand = obj.pad_batch(flat)
    rows = ref_decode(store, ref_encode(store, src), src, cand[:, :-1])
    mask = (cand[:, 1:] != sm.PAD_ID).astype(store.dtype)
    log_probs = nk.sum_(nk.mul(nk.take_along_last(rows, cand[:, 1:]), nk.Tensor(mask)), axis=-1)
    total, off = None, 0
    for deltas in batch.deltas:
        weights = obj.sharpened_distribution(nk.narrow(log_probs, 0, off, len(deltas)), alpha)
        off += len(deltas)
        risk_b = nk.sum_(nk.mul(weights, nk.Tensor(np.asarray(deltas))))
        total = risk_b if total is None else nk.add(total, risk_b)
    return nk.scale(total, 1.0 / len(batch.candidates))


def ref_corpus_nll(store, corpus):
    src = obj.pad_batch([s for s, _ in corpus])
    tgt = obj.pad_batch([t for _, t in corpus])
    rows = ref_decode(store, ref_encode(store, src), src, tgt[:, :-1]).data
    gold = tgt[:, 1:]
    picked = np.take_along_axis(rows, gold[..., None], axis=-1)[..., 0]
    return float(-(picked * (gold != sm.PAD_ID)).sum() / (gold != sm.PAD_ID).sum())


class TestPackedPath:
    """Training and scoring run token-wise layers on the non-PAD rows only;
    a ragged batch must give what the padded grid gives."""

    SOURCES = [[4, 5, 6, 7], [8, 9], [10, 11, 12]]
    OWNERS = [0, 0, 1, 2, 2]  # two sources have two candidates each
    TARGETS = [[sm.BOS_ID, 13, sm.EOS_ID], [sm.BOS_ID, 14, 15, 16, sm.EOS_ID],
               [sm.BOS_ID, 17, 18, sm.EOS_ID], [sm.BOS_ID, 4, sm.EOS_ID],
               [sm.BOS_ID, 5, 6, 7, 8, 9, sm.EOS_ID]]

    @pytest.fixture(scope="class")
    def toy(self):
        cfg = sm.ModelConfig(vocab_size=20, embed_dim=16, num_heads=2, enc_layers=2,
                             dec_layers=2, ffn_dim=24, dropout_rate=0.0, max_seq_len=12)
        return sm.ParameterStore.init(cfg, 21, dtype=np.float64)

    def pairs(self):
        return [(self.SOURCES[b], t) for b, t in zip(self.OWNERS, self.TARGETS)]

    def risk_batch(self):
        groups = [[t for b, t in zip(self.OWNERS, self.TARGETS) if b == s]
                  for s in range(len(self.SOURCES))]
        deltas = [[0.25 + 0.1 * i + 0.2 * j for j in range(len(g))]
                  for i, g in enumerate(groups)]
        return obj.RiskBatch(obj.pad_batch(self.SOURCES), groups, deltas)

    def value_and_grads(self, store, loss_fn):
        with nk.Graph() as g:
            loss = loss_fn()
            grads = nk.backward(g, loss, dict(store.items()))
        store.zero_grads()
        return loss.item(), grads

    def assert_same(self, store, got_fn, want_fn):
        got, got_grads = self.value_and_grads(store, got_fn)
        want, want_grads = self.value_and_grads(store, want_fn)
        assert got == pytest.approx(want, rel=1e-10)
        for name, grad in want_grads.items():
            np.testing.assert_allclose(got_grads[name].data, grad.data, rtol=1e-10,
                                       atol=1e-15, err_msg=name)
        assert float(np.abs(want_grads["enc.1.attn.wk"].data).max()) > 0.0

    def test_mle_loss_matches_the_padded_grid(self, toy):
        src = obj.pad_batch([s for s, _ in self.pairs()])
        tgt = obj.pad_batch([t for _, t in self.pairs()])
        self.assert_same(toy, lambda: obj.mle_loss(toy, src, tgt, 0.1)[0],
                         lambda: ref_mle_loss(toy, src, tgt, 0.1))

    def test_mrt_risk_matches_the_padded_grid(self, toy):
        batch = self.risk_batch()
        self.assert_same(toy, lambda: obj.mrt_risk(toy, batch, 0.5)[0],
                         lambda: ref_mrt_risk(toy, batch, 0.5))

    def test_corpus_nll_matches_the_padded_grid(self, toy):
        for size in (2, 5):  # ragged batches, and the whole corpus in one
            assert obj.corpus_nll(toy, self.pairs(), batch_size=size) == pytest.approx(
                ref_corpus_nll(toy, self.pairs()), rel=1e-10)

    def test_token_wise_layers_see_only_real_rows(self, toy, monkeypatch):
        src = obj.pad_batch([s for s, _ in self.pairs()])
        tgt = obj.pad_batch([t for _, t in self.pairs()])
        real = {"enc": int((src != sm.PAD_ID).sum()),
                "dec": int((tgt[:, :-1] != sm.PAD_ID).sum())}
        assert real["enc"] < src.size and real["dec"] < tgt[:, :-1].size
        names = {id(t): name for name, t in toy.items()}
        seen = []

        def spy(fn):
            def wrapper(a, b, *rest):
                name = names.get(id(b), "")
                if name.endswith((".gain", ".w1", ".w2")):
                    seen.append((name, a.shape))
                return fn(a, b, *rest)
            return wrapper

        monkeypatch.setattr(nk, "layer_norm", spy(nk.layer_norm))
        monkeypatch.setattr(nk, "matmul", spy(nk.matmul))
        obj.mle_loss(toy, src, tgt, 0.1)
        cfg = toy.config
        assert len(seen) == (4 * cfg.enc_layers + 1) + (5 * cfg.dec_layers + 1)
        for name, shape in seen:
            assert shape[0] == real[name.split(".")[0]] and len(shape) == 2, (name, shape)


class TestIncrementalDecoder:
    """The cached, tape-free decoder against numkit's teacher-forced pass."""

    SRC = [[5, 6, 7, 8, 9], [10, 11, sm.PAD_ID, sm.PAD_ID, sm.PAD_ID],
           [12, 13, 14, sm.PAD_ID, sm.PAD_ID]]

    @staticmethod
    def teacher_forced_last(store, src, prefixes):
        src = np.asarray(src)
        memory = sm.encode_batch(store, src)
        return sm.decode_batch(store, memory, src, np.asarray(prefixes)).data[:, -1]

    def test_steps_equal_teacher_forced_rows(self, store):
        rng = np.random.default_rng(0)
        tgt = np.concatenate([np.full((3, 1), sm.BOS_ID), rng.integers(4, 32, (3, 6))], axis=1)
        state = sm.IncrementalDecoder(store, np.asarray(self.SRC))
        for t in range(tgt.shape[1]):
            got = state.step(None, tgt[:, t])
            want = self.teacher_forced_last(store, self.SRC, tgt[:, : t + 1])
            assert np.abs(got - want).max() < 1e-5, t

    def test_reorder_by_parent_index(self, store):
        state = sm.IncrementalDecoder(store, np.asarray(self.SRC))
        owner = np.arange(len(self.SRC))
        prefixes: list[list[int]] = [[] for _ in self.SRC]
        plan = [(np.arange(3), [sm.BOS_ID] * 3),
                (np.array([2, 0, 0, 1, 2]), [20, 21, 22, 23, 24]),
                (np.array([4, 1, 1, 0]), [25, 26, 27, 28]),
                (None, [29, 30, 31, 4])]
        for step, (parents, tokens) in enumerate(plan):
            keep = np.arange(len(prefixes)) if parents is None else parents
            owner = owner[keep]
            prefixes = [prefixes[p] + [tok] for p, tok in zip(keep, tokens)]
            got = state.step(parents, np.asarray(tokens))
            want = self.teacher_forced_last(store, np.asarray(self.SRC)[owner], prefixes)
            assert got.shape == (len(tokens), 32)
            assert np.abs(got - want).max() < 1e-5, step

    @pytest.mark.parametrize("src", [SRC, [[5]]], ids=["ragged", "one-token"])
    def test_cross_keys_values_are_the_padded_projection(self, store, src):
        # projected from the packed memory rows, they are bit for bit the
        # padded memory's projection split into heads, and zero at PAD
        src = np.asarray(src)
        state = sm.IncrementalDecoder(store, src)
        memory = sm.encode_batch(store, src).data
        h = store.config.num_heads
        for i, pair in enumerate(state._cross):
            for got, w in zip(pair, ("wk", "wv")):
                want = memory @ store[f"dec.{i}.cross.{w}"].data
                want = want.reshape(*src.shape, h, -1).transpose(0, 2, 1, 3)
                assert np.array_equal(got, want), (i, w)
                assert not got.transpose(0, 2, 1, 3)[src == sm.PAD_ID].any(), (i, w)

    def test_non_finite_step_raises(self, store):
        broken = store.copy()
        broken["dec.final_ln.gain"].data[0] = np.inf
        state = sm.IncrementalDecoder(broken, np.asarray([[5, 6]]))
        with pytest.raises(NumericsError), np.errstate(invalid="ignore"):
            state.step(None, [sm.BOS_ID])

    def test_length_cap(self, store):
        state = sm.IncrementalDecoder(store, np.asarray([[5, 6]]))
        for _ in range(store.config.max_seq_len):
            state.step(None, [7])
        with pytest.raises(LengthError):
            state.step(None, [7])

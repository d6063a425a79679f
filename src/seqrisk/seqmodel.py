"""Miniature pre-norm Transformer encoder-decoder built on numkit.

Sized so that a full training run takes minutes on one CPU core.  Every
path runs the packed core (``pack``, ``encode_rows``, ``decode_rows``):
every token-wise layer sees only the non-PAD positions, and attention alone
the padded grid.  ``teacher_forced`` runs it for training, rescoring and
scoring.  Decoding runs on ``IncrementalDecoder``, a tape-free, KV-cached
copy of the decoder's forward arithmetic in plain numpy that starts from
``encode_rows``' memory rows.  ``encode_batch`` and ``decode_batch`` are
padded-shape adapters that run the packed core and unpack its results, for
tests and the benchmark's tracer.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import numkit as nk
from .errors import ContractError, NumericsError

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

CHECKPOINT_FORMAT = "seqrisk-checkpoint-v1"


@dataclass
class ModelSettings:
    """The architecture: every model setting but the vocabulary size, which
    comes from the data.  The experiment configuration's `model` section."""

    embed_dim: int = 64
    num_heads: int = 2
    enc_layers: int = 2
    dec_layers: int = 2
    ffn_dim: int = 128
    dropout_rate: float = 0.1
    max_seq_len: int = 32  # also every decoder's cap, BOS included

    def __post_init__(self):
        if min(self.embed_dim, self.num_heads) < 1:
            raise ContractError("embed_dim and num_heads must be >= 1")
        if self.embed_dim % self.num_heads != 0:
            raise ContractError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}")
        if self.max_seq_len < 2:
            raise ContractError(f"max_seq_len must be >= 2, got {self.max_seq_len}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ContractError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    def to_model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, **asdict(self))


@dataclass(kw_only=True)
class ModelConfig(ModelSettings):
    vocab_size: int

    def __post_init__(self):
        if self.vocab_size < 5:
            raise ContractError(f"vocab_size must be >= 5 (4 specials + content), got {self.vocab_size}")
        super().__post_init__()

    def to_dict(self) -> dict:
        return asdict(self)


class Vocabulary:
    """Bidirectional token/id map with the four reserved ids fixed up front."""

    def __init__(self, tokens: Sequence[str]):
        self._id_to_token: list[str] = list(SPECIAL_TOKENS)
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(SPECIAL_TOKENS)}
        for tok in tokens:
            if tok in self._token_to_id:
                raise ContractError(f"duplicate or reserved token: {tok!r}")
            self._token_to_id[tok] = len(self._id_to_token)
            self._id_to_token.append(tok)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self._id_to_token):
            raise ContractError(f"id {idx} outside vocabulary of size {len(self)}")
        return self._id_to_token[idx]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Text to content ids: any other token, reserved strings such as
        "<pad>" included (their ids are below UNK's), reads as UNK."""
        return [i if (i := self._token_to_id.get(t, UNK_ID)) > UNK_ID else UNK_ID for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Ids to tokens, dropping PAD, BOS and EOS."""
        return [self.token_of(int(i)) for i in ids if i not in (PAD_ID, BOS_ID, EOS_ID)]

    def content_tokens(self) -> list[str]:
        return self._id_to_token[len(SPECIAL_TOKENS):]

    def to_json(self) -> str:
        return json.dumps({"tokens": self.content_tokens()})

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        """Parse `to_json` output; any other text raises ContractError."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ContractError(f"invalid JSON: {exc}") from None
        tokens = data.get("tokens") if isinstance(data, dict) else None
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ContractError('expected an object {"tokens": [token strings]}')
        return cls(tokens)


def read_utf8(path) -> str:
    """The text of file `path` decoded as UTF-8, less one leading byte-order
    mark.  Bytes that are not UTF-8 raise ContractError naming the file and
    the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ContractError(f"{path}:{line}: not UTF-8 text") from None


def _fits(value, hint) -> bool:
    """Whether a JSON value has a field's annotated type; an int fits a
    float within its range, and NaN and the infinities fit nothing."""
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def build_settings(cls, data, path: str = ""):
    """The settings dataclass `cls` built from the JSON object `data`; a
    dataclass-typed field is built from its own object the same way.  An
    unknown or missing field, a mistyped value or one that `cls` refuses
    raises ContractError naming it `path.field` (with no path, `field`)."""
    where = f"{path}." if path else ""
    if not isinstance(data, dict):
        raise ContractError(f"{path or 'configuration root'} must be an object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in hints:
            raise ContractError(f"{where}{key} is not a recognized field")
        hint = hints[key]
        if is_dataclass(hint):
            value = build_settings(hint, value, where + key)
        elif not _fits(value, hint):
            what = "a finite number" if hint is float else hint.__name__
            raise ContractError(f"{where}{key} must be {what}, got {value!r}")
        kwargs[key] = float(value) if hint is float else value  # 1 and 1.0: one config
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ContractError(f"{where}{f.name} is required")
    try:
        return cls(**kwargs)
    except (ContractError, TypeError, ValueError) as exc:
        raise ContractError(f"{path}: {exc}" if path else str(exc)) from exc


def in_place(path) -> bool:
    """Whether `atomic_write` writes `path` in place: a link, or an existing non-regular file."""
    return os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path)


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open `<path>.<pid>.tmp`, in the same directory, for writing.  When
    the block ends cleanly the file replaces `path`; on any exception it is
    unlinked, so `path` is either the complete new file or as it was; but
    `/dev/stdout` streams and a linked file keeps its link (`in_place`)."""
    path = os.fspath(path)
    if in_place(path):
        with open(path, mode, **open_kwargs) as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, mode, **open_kwargs)
    except OSError as exc:  # report the path the caller asked for
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def parameter_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in the order `ParameterStore.init`
    draws them and a checkpoint stores them.  One embedding, `embed.shared`,
    serves the source, the target and the output projection."""
    d, f = config.embed_dim, config.ffn_dim
    layout = [("embed.shared", (config.vocab_size, d))]

    def attn_block(prefix: str):
        layout.extend((f"{prefix}.{w}", (d, d)) for w in ("wq", "wk", "wv", "wo"))

    def ln_block(prefix: str):
        layout.extend([(f"{prefix}.gain", (d,)), (f"{prefix}.bias", (d,))])

    def ffn_block(prefix: str):
        layout.extend([(f"{prefix}.w1", (d, f)), (f"{prefix}.b1", (f,)),
                       (f"{prefix}.w2", (f, d)), (f"{prefix}.b2", (d,))])

    for i in range(config.enc_layers):
        ln_block(f"enc.{i}.ln1")
        attn_block(f"enc.{i}.attn")
        ln_block(f"enc.{i}.ln2")
        ffn_block(f"enc.{i}.ffn")
    ln_block("enc.final_ln")

    for i in range(config.dec_layers):
        ln_block(f"dec.{i}.ln1")
        attn_block(f"dec.{i}.self")
        ln_block(f"dec.{i}.ln2")
        attn_block(f"dec.{i}.cross")
        ln_block(f"dec.{i}.ln3")
        ffn_block(f"dec.{i}.ffn")
    ln_block("dec.final_ln")
    return layout


class ParameterStore:
    """The tensors of `parameter_layout(config)` plus the step counter; the
    checkpoint unit.  Every tensor's data is a view into one contiguous
    buffer, `flat`, in layout order, and its grad the view at the same place
    in `flat_grad`, so the optimizer and checkpoint io work on whole
    buffers."""

    def __init__(self, config: ModelConfig, step_count: int = 0, dtype=None):
        """A zeroed store: both buffers allocated, each tensor's span in
        them, `spans[i]` for the i-th layout entry, computed once here."""
        self.config = config
        self.step_count = step_count
        layout = parameter_layout(config)
        ends = list(itertools.accumulate(math.prod(shape) for _, shape in layout))
        self.spans = list(zip([0] + ends[:-1], ends))
        self.flat = np.zeros(ends[-1], dtype or nk.DEFAULT_DTYPE)
        self.flat_grad = np.zeros(ends[-1], self.flat.dtype)
        self._params = {}
        for (name, shape), (start, stop) in zip(layout, self.spans):
            t = self._params[name] = nk.Tensor(self.flat[start:stop].reshape(shape),
                                               requires_grad=True)
            t.grad = self.flat_grad[start:stop].reshape(shape)

    @classmethod
    def init(cls, config: ModelConfig, seed: int, dtype=None) -> "ParameterStore":
        """Draw every tensor, in layout order: matrices Xavier-uniform,
        layer-norm gains one, other vectors zero."""
        store = cls(config, dtype=dtype)
        rng = np.random.default_rng(seed)
        for name, t in store.items():
            if t.data.ndim == 2:
                limit = math.sqrt(6.0 / sum(t.shape))
                t.data[...] = rng.uniform(-limit, limit, size=t.shape)
            elif name.endswith(".gain"):
                t.data[...] = 1
        return store

    def __getitem__(self, name: str) -> nk.Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params.keys())

    def items(self):
        return self._params.items()

    @property
    def dtype(self):
        return self.flat.dtype

    def zero_grads(self) -> None:
        """Zero every gradient: backward adds into the grad views."""
        self.flat_grad.fill(0)

    def copy(self) -> "ParameterStore":
        clone = ParameterStore(self.config, self.step_count, self.dtype)
        clone.flat[...] = self.flat
        return clone

    # -- checkpoint io -----------------------------------------------------

    def _entries(self) -> list[tuple[str, tuple[int, ...], int]]:
        """Each tensor's name, shape and byte offset in a checkpoint payload."""
        return [(name, t.shape, 4 * start)
                for (name, t), (start, _) in zip(self.items(), self.spans)]

    def save(self, path) -> None:
        """Write a manifest line (JSON) followed by the raw little-endian
        float32 payload: the flat buffer, so each tensor's bytes in order.
        The manifest carries the payload's sha256.  The file is written
        with `atomic_write`, so a failed save leaves any earlier file whole."""
        payload = np.ascontiguousarray(self.flat, dtype="<f4").tobytes()
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "config": self.config.to_dict(),
            "step_count": self.step_count,
            "tensors": [{"name": name, "shape": list(shape), "offset": offset}
                        for name, shape, offset in self._entries()],
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        with atomic_write(path, "wb") as fh:
            fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(payload)

    @classmethod
    def load(cls, path) -> "ParameterStore":
        """Read a checkpoint into a fresh float32 store (the payload is
        copied once).  A file whose manifest is unreadable or holds a
        config that `build_settings` refuses, whose tensors' names, shapes
        and offsets are not those of a store of that config, whose payload
        is not exactly their bytes, or whose payload does not match the
        manifest's `payload_sha256` raises ContractError naming the file;
        so does a payload holding NaN or inf, a step count or offset that
        is no integer, or a negative step count."""
        with open(path, "rb") as fh:
            header = fh.readline()
            payload = fh.read()
        try:
            manifest = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ContractError(f"not a {CHECKPOINT_FORMAT} file: {path}") from None
        if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
            raise ContractError(f"not a {CHECKPOINT_FORMAT} file: {path}")
        try:
            step_count = operator.index(manifest["step_count"])
            if step_count < 0:
                raise ContractError(f"step_count must be >= 0, got {step_count}")
            store = cls(build_settings(ModelConfig, manifest["config"]), step_count, np.float32)
            entries = [(e["name"], tuple(map(operator.index, e["shape"])),
                        operator.index(e["offset"])) for e in manifest["tensors"]]
            digest = manifest["payload_sha256"]
        except ContractError as exc:
            raise ContractError(f"{path}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractError(f"{path}: malformed checkpoint manifest ({exc!r})") from None
        except MemoryError:
            raise ContractError(f"{path}: its config's model does not fit in memory") from None
        for have, want in itertools.zip_longest(entries, store._entries()):
            if have == want:
                continue
            if have and want and have[:2] == want[:2]:
                raise ContractError(f"{path}: tensor {have[0]} starts at byte {have[2]} "
                                    f"where its config's model puts it at {want[2]}")
            held = f"tensor {have[0]} {have[1]}" if have else "no tensor"
            needed = f"{want[0]} {want[1]}" if want else "none"
            raise ContractError(f"{path}: holds {held} where its config's model has {needed}")
        if len(payload) != store.flat.nbytes:
            raise ContractError(f"{path}: a {len(payload)}-byte payload where its tensors "
                                f"take {store.flat.nbytes}; file truncated or corrupt")
        if digest != hashlib.sha256(payload).hexdigest():
            raise ContractError(f"{path}: payload does not match its sha256; file corrupt")
        store.flat[...] = np.frombuffer(payload, dtype="<f4")
        if not np.isfinite(store.flat).all():
            raise ContractError(f"{path}: holds non-finite weights (NaN or inf)")
        return store


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def sinusoid_table(max_len: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Fixed sinusoidal position encodings, shape [max_len, dim].  Built once
    per argument triple; the shared array is read-only."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle)).astype(dtype)
    table.flags.writeable = False
    return table


def _validate_ids(ids: np.ndarray, config: ModelConfig, what: str) -> None:
    if ids.shape[-1] > config.max_seq_len:
        raise ContractError(
            f"{what} length {ids.shape[-1]} exceeds max_seq_len {config.max_seq_len}")
    if ids.shape[-1] < 1:
        raise ContractError(f"{what} must contain at least one token")
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise ContractError(
            f"{what} ids out of range for vocab_size {config.vocab_size}")


class Packed(NamedTuple):
    """A padded [batch, length] id array as packed rows: its non-PAD ids in
    batch-major order, each with its slot in the padded array."""

    ids: np.ndarray    # [N]
    at: np.ndarray     # [N] flat index of each row's slot in the padded array
    slots: nk.Slots    # the row in each slot of the padded array, -1 at PAD
    pad: np.ndarray    # [batch, length] bool, True at PAD


def pack(config: ModelConfig, ids: np.ndarray, what: str) -> Packed:
    """Validate a padded id array (`what` names it in errors) and pack it.
    A PAD id is padding wherever it stands."""
    ids = np.asarray(ids, dtype=np.int64)
    _validate_ids(ids, config, what)
    pad = ids == PAD_ID
    return Packed(ids[~pad], np.flatnonzero(~pad), nk.Slots.of(~pad), pad)


def _keep_mask(shape, rate: float, rng: np.random.Generator, dtype,
               rows: np.ndarray | None = None) -> np.ndarray:
    """Inverted-dropout multipliers of `shape` in one pass: 1 / (1 - rate)
    where a float64 uniform draw is >= rate, else 0.  `dtype` is a numpy
    scalar type such as np.float32.  With `rows`, only those rows of the
    mask seen as [-1, shape[-1]] are returned, though all of it is drawn."""
    kept = rng.random(shape) >= rate
    if rows is not None:
        kept = np.take(kept.reshape(-1, shape[-1]), rows, axis=0)
    return kept * (dtype(1) / dtype(1 - rate))


def _dropout(x: nk.Tensor, rate: float, rng: np.random.Generator | None,
             tokens: Packed) -> nk.Tensor:
    """Inverted dropout on the packed rows x [N, F] of `tokens`.  The mask
    is drawn for their padded [batch, length, F] grid and cut to the
    non-PAD rows, so each row's mask, and what the stream draws next, are
    those of the padded layout."""
    if rng is None or rate <= 0.0:
        return x
    shape = tokens.pad.shape + x.shape[1:]
    return nk.mul(x, nk.Tensor(_keep_mask(shape, rate, rng, x.data.dtype.type, tokens.at)))


def _attention(store: ParameterStore, prefix: str, query_x: nk.Tensor, key_x: nk.Tensor,
               mask: np.ndarray | None, rng: np.random.Generator | None,
               query_slots: nk.Slots, key_slots: nk.Slots) -> nk.Tensor:
    """Multi-head attention of packed rows (one `numkit.attention` op);
    `mask`, broadcastable to [batch, heads, q_len, k_len], marks keys to
    suppress beside the empty key slots.  With `rng`, the attention weights
    take dropout."""
    cfg = store.config
    keep = None
    if rng is not None and cfg.dropout_rate > 0.0:
        (bsz, q_len), k_len = query_slots.index.shape, key_slots.index.shape[1]
        keep = _keep_mask((bsz, cfg.num_heads, q_len, k_len), cfg.dropout_rate, rng,
                          query_x.data.dtype.type)
    wq, wk, wv, wo = (store[f"{prefix}.{w}"] for w in ("wq", "wk", "wv", "wo"))
    return nk.attention(query_x, key_x, wq, wk, wv, wo, cfg.num_heads, mask, keep,
                        query_slots, key_slots)


def _ffn(store: ParameterStore, prefix: str, x: nk.Tensor,
         rng: np.random.Generator | None, tokens: Packed) -> nk.Tensor:
    cfg = store.config
    hidden = nk.relu(nk.add(nk.matmul(x, store[f"{prefix}.w1"]), store[f"{prefix}.b1"]))
    hidden = _dropout(hidden, cfg.dropout_rate, rng, tokens)
    return nk.add(nk.matmul(hidden, store[f"{prefix}.w2"]), store[f"{prefix}.b2"])


def _ln(store: ParameterStore, prefix: str, x: nk.Tensor) -> nk.Tensor:
    return nk.layer_norm(x, store[f"{prefix}.gain"], store[f"{prefix}.bias"])


def _embed(store: ParameterStore, tokens: Packed, rng: np.random.Generator | None) -> nk.Tensor:
    cfg = store.config
    x = nk.scale(nk.embedding(store["embed.shared"], tokens.ids), math.sqrt(cfg.embed_dim))
    table = sinusoid_table(cfg.max_seq_len, cfg.embed_dim, dtype=store.dtype)
    x = nk.add(x, nk.Tensor(table[tokens.at % tokens.pad.shape[1]]))
    return _dropout(x, cfg.dropout_rate, rng, tokens)


def encode_rows(store: ParameterStore, src: Packed,
                rng: np.random.Generator | None = None) -> nk.Tensor:
    """Encoder over packed source tokens; returns memory rows [N, embed_dim].
    Only attention sees the padded grid."""
    nk.retain_heap_top()  # every model pass starts here: keep the memory passes free
    x = _embed(store, src, rng)
    for i in range(store.config.enc_layers):
        normed = _ln(store, f"enc.{i}.ln1", x)
        attn = _attention(store, f"enc.{i}.attn", normed, normed, None, rng,
                          src.slots, src.slots)
        x = nk.add(x, _dropout(attn, store.config.dropout_rate, rng, src))
        ff = _ffn(store, f"enc.{i}.ffn", _ln(store, f"enc.{i}.ln2", x), rng, src)
        x = nk.add(x, _dropout(ff, store.config.dropout_rate, rng, src))
    return _ln(store, "enc.final_ln", x)


def decode_rows(store: ParameterStore, memory: nk.Tensor, memory_slots: nk.Slots,
                tgt: Packed, rng: np.random.Generator | None = None) -> nk.Tensor:
    """Decoder over packed target inputs; returns log-probability rows
    [N, vocab], one per target token.  Row i conditions on the target
    positions of its sequence up to its own (causal) and on the memory rows
    that `memory_slots` ([batch, src_len], -1 at PAD) places before that
    sequence."""
    cfg = store.config
    t_len = tgt.pad.shape[1]
    causal = np.triu(np.ones((t_len, t_len), dtype=bool), k=1)[None, None, :, :]

    x = _embed(store, tgt, rng)
    for i in range(cfg.dec_layers):
        normed = _ln(store, f"dec.{i}.ln1", x)
        attn = _attention(store, f"dec.{i}.self", normed, normed, causal, rng,
                          tgt.slots, tgt.slots)
        x = nk.add(x, _dropout(attn, cfg.dropout_rate, rng, tgt))
        cross = _attention(store, f"dec.{i}.cross", _ln(store, f"dec.{i}.ln2", x),
                           memory, None, rng, tgt.slots, memory_slots)
        x = nk.add(x, _dropout(cross, cfg.dropout_rate, rng, tgt))
        ff = _ffn(store, f"dec.{i}.ffn", _ln(store, f"dec.{i}.ln3", x), rng, tgt)
        x = nk.add(x, _dropout(ff, cfg.dropout_rate, rng, tgt))
    x = _ln(store, "dec.final_ln", x)
    logits = nk.matmul(x, nk.transpose(store["embed.shared"], (1, 0)))
    return nk.log_softmax(logits)


def teacher_forced(store: ParameterStore, src_ids: np.ndarray, tgt_ids: np.ndarray,
                   owner: np.ndarray | None = None, rng: np.random.Generator | None = None
                   ) -> tuple[nk.Tensor, Packed, np.ndarray]:
    """The teacher-forced pass: target i is fed tgt_ids[i, :-1] against row
    `owner[i]` (or i) of `src_ids`, each source row encoded once.  Returns
    the log-probability rows [N, vocab], the packed inputs and the gold ids."""
    tgt_ids = np.asarray(tgt_ids, dtype=np.int64)
    src = pack(store.config, src_ids, "source")
    dec_in = pack(store.config, tgt_ids[:, :-1], "target")
    slots = src.slots if owner is None else src.slots.take(owner)
    rows = decode_rows(store, encode_rows(store, src, rng), slots, dec_in, rng)
    return rows, dec_in, tgt_ids[:, 1:][~dec_in.pad]


def _unpack(rows: nk.Tensor, slots: nk.Slots) -> nk.Tensor:
    """Packed rows [N, F] on their padded grid [batch, length, F], zero in
    the slots that hold no row."""
    index = slots.index
    if rows.shape[0] == 0:
        return nk.zeros(index.shape + rows.shape[1:], dtype=rows.dtype)
    empty = index < 0
    grid = nk.embedding(rows, np.where(empty, 0, index))
    return nk.masked_fill(grid, empty[..., None], 0.0) if empty.any() else grid


def encode_batch(store: ParameterStore, src_ids: np.ndarray,
                 rng: np.random.Generator | None = None) -> nk.Tensor:
    """Padded-shape adapter of `encode_rows` (for tests and the benchmark's
    tracer): memory [batch, src_len, embed_dim] of a [batch, src_len] id
    array, zeros in the rows at PAD positions."""
    src = pack(store.config, src_ids, "source")
    return _unpack(encode_rows(store, src, rng), src.slots)


def decode_batch(store: ParameterStore, memory: nk.Tensor, src_ids: np.ndarray,
                 tgt_ids: np.ndarray, rng: np.random.Generator | None = None) -> nk.Tensor:
    """Padded-shape adapter of `decode_rows` (for tests and the benchmark's
    tracer): log-probability rows [batch, tgt_len, vocab] of [batch, tgt_len]
    inputs given encoder memory [batch, src_len, embed_dim].  Row t conditions
    on target positions <= t (causal) and on non-PAD source positions; the
    rows at PAD target positions are zeros, not distributions."""
    tgt = pack(store.config, tgt_ids, "target")
    bsz, src_len, dim = memory.shape
    memory_slots = nk.Slots(np.where(np.asarray(src_ids) == PAD_ID, -1,
                                     nk.Slots.full(bsz, src_len).index))
    rows = decode_rows(store, nk.reshape(memory, (bsz * src_len, dim)), memory_slots, tgt, rng)
    return _unpack(rows, tgt.slots)


# -- tape-free incremental decoding -------------------------------------------

# Rows one IncrementalDecoder should hold: corpus beam search splits its
# sources so that beam_size x sources stays within this, which keeps a wide
# beam over a long corpus from growing the KV cache without limit.  A wider
# beam, or a risk batch of more sentences x samples, is refused at load.
MAX_LIVE_ROWS = 256


def pad_batch(seqs: Sequence[Sequence[int]]) -> np.ndarray:
    width = max(len(s) for s in seqs)
    out = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


def _np_attend(q: np.ndarray, k: np.ndarray, v: np.ndarray,
               mask: np.ndarray | None) -> np.ndarray:
    """One query per row: q [n, h, dh] against k, v [n, h, t, dh]; `mask`
    [n, 1, t] marks keys to suppress.  Returns the context [n, h*dh]."""
    scores = np.einsum("nhd,nhtd->nht", q, k) * q.dtype.type(1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = np.where(mask, nk.NEG_INF_FILL, scores)
    e = np.exp(scores - nk._max_last(scores))
    weights = e / e.sum(axis=-1, keepdims=True)
    return np.einsum("nht,nhtd->nhd", weights, v).reshape(q.shape[0], -1)


def _np_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return nk.normalize_last(x)[0] * gain + bias  # numkit.layer_norm's forward arithmetic


class IncrementalDecoder:
    """Decoder that feeds one token per row and step, in plain numpy on the
    store's arrays: no Tensor, no tape (build it outside one), no per-op checks.

    Rows start as one per source row of `src_ids`.  `step(parents, tokens)`
    first reorders the rows by `parents` (indices into the current rows, so
    beams can fork and rows can drop out; None keeps them) and then feeds
    `tokens`, one per row.  It returns the next-token log-probabilities
    [rows, vocab], which equal the rows of `decode_rows` teacher-forced over
    the same prefixes up to float rounding.  Cross-attention keys and values
    are projected once from the packed memory rows and spread to the padded
    source grid, zero at PAD; each reorder copies them with the rows.
    Self-attention keys and values of earlier positions are cached.  The one
    finiteness check is on each step's log-probabilities."""

    def __init__(self, store: ParameterStore, src_ids: np.ndarray):
        cfg = store.config
        src = pack(cfg, src_ids, "source")
        memory = encode_rows(store, src).data
        self.config = cfg
        self.length = 0  # target positions fed so far
        self._layers = [tuple(store[f"dec.{i}.{name}"].data for name in (
            "ln1.gain", "ln1.bias", "self.wq", "self.wk", "self.wv", "self.wo", "ln2.gain",
            "ln2.bias", "cross.wq", "cross.wo", "ln3.gain", "ln3.bias", "ffn.w1", "ffn.b1",
            "ffn.w2", "ffn.b2")) for i in range(cfg.dec_layers)]
        self._final_ln = store["dec.final_ln.gain"].data, store["dec.final_ln.bias"].data
        self._embed = store["embed.shared"].data
        self._embed_scale = store.dtype.type(math.sqrt(cfg.embed_dim))
        # a copy: on the transposed view, one-row steps round differently and all run slower
        self._out_t = np.ascontiguousarray(store["embed.shared"].data.T)
        self._table = sinusoid_table(cfg.max_seq_len, cfg.embed_dim, store.dtype)
        self._cross_mask = src.pad[:, None, :] if src.pad.any() else None
        h = cfg.num_heads
        zero = np.zeros((1, cfg.embed_dim), dtype=store.dtype)  # `spread` puts it at PAD
        self._cross = [tuple(src.slots.spread(np.concatenate((memory @ store[name].data, zero)), h)
                             for name in (f"dec.{i}.cross.wk", f"dec.{i}.cross.wv"))
                       for i in range(cfg.dec_layers)]
        empty = np.zeros((len(src.pad), h, 0, cfg.embed_dim // h), dtype=store.dtype)
        self._self = [(empty, empty) for _ in range(cfg.dec_layers)]

    def step(self, parents: np.ndarray | None, tokens: np.ndarray) -> np.ndarray:
        cfg = self.config
        if self.length >= cfg.max_seq_len:
            raise ContractError(f"target length would exceed max_seq_len {cfg.max_seq_len}")
        if parents is not None:
            self._cross = [(k[parents], v[parents]) for k, v in self._cross]
            self._self = [(k[parents], v[parents]) for k, v in self._self]
            if self._cross_mask is not None:
                self._cross_mask = self._cross_mask[parents]
        tokens = np.asarray(tokens, dtype=np.int64)
        n, h = tokens.shape[0], cfg.num_heads
        x = self._embed[tokens] * self._embed_scale + self._table[self.length]
        for i, (g1, b1, wq, wk, wv, wo, g2, b2, cross_wq, cross_wo, g3, b3, w1, c1, w2, c2
                ) in enumerate(self._layers):
            normed = _np_norm(x, g1, b1)
            q, k, v = normed @ wq, normed @ wk, normed @ wv
            cache_k, cache_v = self._self[i]
            cache_k = np.concatenate((cache_k, k.reshape(n, h, 1, -1)), axis=2)
            cache_v = np.concatenate((cache_v, v.reshape(n, h, 1, -1)), axis=2)
            self._self[i] = (cache_k, cache_v)
            x = x + _np_attend(q.reshape(n, h, -1), cache_k, cache_v, None) @ wo
            q = _np_norm(x, g2, b2) @ cross_wq
            cross_k, cross_v = self._cross[i]
            x = x + _np_attend(q.reshape(n, h, -1), cross_k, cross_v, self._cross_mask) @ cross_wo
            x = x + (np.maximum(_np_norm(x, g3, b3) @ w1 + c1, 0) @ w2 + c2)
        self.length += 1
        logits = _np_norm(x, *self._final_ln) @ self._out_t
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        if not np.isfinite(log_probs).all():
            raise NumericsError(f"non-finite log-probabilities at decoding step {self.length}")
        return log_probs

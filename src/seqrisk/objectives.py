"""Training objectives and loops.

Two objectives share one model: label-smoothed maximum likelihood with
teacher forcing, and expected-risk fine-tuning over a sampled candidate
subspace.  Risk training samples without gradients, then rescores the
candidates teacher-forced inside the graph, so the only backward path is
through the rescoring pass.

Randomness is split into named streams derived from the run seed, so
changing how often one stream is consumed never perturbs the others.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import decoding as dec
from . import metrics
from . import numkit as nk
from . import seqmodel as sm
from .errors import ContractError, NumericsError

# fixed sub-stream ids for np.random.default_rng([seed, stream])
STREAM_INIT = 1
STREAM_SHUFFLE = 2
STREAM_DROPOUT = 3
STREAM_SAMPLER = 4


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


IdSeq = list[int]
Corpus = list[tuple[IdSeq, IdSeq]]  # (source ids, BOS..EOS target ids)


pad_batch = sm.pad_batch


# ---------------------------------------------------------------------------
# optimizer and schedules
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction and optional global-norm gradient clipping."""

    def __init__(self, store: sm.ParameterStore, beta1: float = 0.9,
                 beta2: float = 0.98, eps: float = 1e-9, grad_clip: float = 1.0):
        self.store = store
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.grad_clip = grad_clip
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in store.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in store.items()}

    def step(self, grads: dict[str, nk.Tensor], lr: float) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        sq = 0.0
        for g in grads.values():
            sq += float(np.sum(g.data.astype(np.float64) ** 2))
        norm = math.sqrt(sq)
        scale = 1.0
        if self.grad_clip > 0.0 and norm > self.grad_clip:
            scale = self.grad_clip / norm

        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, param in self.store.items():
            g = grads[name].data * scale
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            param.data -= (lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(param.data.dtype)
        self.store.step_count += 1
        return norm


def inverse_sqrt_lr(step: int, peak_lr: float, warmup_steps: int) -> float:
    """Linear warmup to peak_lr at warmup_steps, then sqrt decay; continuous
    at the junction."""
    if step < 1:
        raise ContractError(f"schedule step must be >= 1, got {step}")
    if warmup_steps < 1:
        raise ContractError(f"warmup_steps must be >= 1, got {warmup_steps}")
    return peak_lr * min(step / warmup_steps, math.sqrt(warmup_steps / step))


class _Step(NamedTuple):
    batch: object
    value: float
    lr: float
    info: object
    seconds: float


def _optimize(store: sm.ParameterStore, config: MLEConfig | MRTConfig,
              batches: Iterable, objective: Callable, lr_at: Callable[[int], float],
              trace_path) -> list[_Step]:
    """The step loop both objectives share.

    Per batch: `objective(batch)` returns (scalar tensor, info) built on a
    fresh tape (any sampling it does first runs tape-free), then backward,
    a divergence check that names the step, and one Adam step (the config's
    betas, eps and clipping) at `lr_at(step)`.  Writes one CSV trace row
    (step, objective_value, learning_rate) per step when `trace_path` is
    set, and returns one `_Step` per step."""
    optim = Adam(store, config.beta1, config.beta2, config.adam_eps, config.grad_clip)
    params = dict(store.items())
    steps = []
    with open(trace_path if trace_path is not None else os.devnull, "w", newline="") as trace:
        writer = csv.writer(trace)
        writer.writerow(["step", "objective_value", "learning_rate"])
        for step, batch in enumerate(batches, 1):
            t0 = time.perf_counter()
            lr = lr_at(step)
            try:
                with nk.Graph() as g:
                    scalar, info = objective(batch)
                    grads = nk.backward(g, scalar, params)
            except NumericsError as exc:
                raise ContractError(f"training diverged at step {step}: {exc}") from exc
            store.zero_grads()  # grads accumulate additively across passes
            value = scalar.item()
            if not math.isfinite(value):
                raise ContractError(
                    f"training diverged at step {step}: objective is {value}")
            optim.step(grads, lr)
            writer.writerow([step, f"{value:.6f}", f"{lr:.6g}"])
            steps.append(_Step(batch, value, lr, info, time.perf_counter() - t0))
    return steps


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


@dataclass
class MLEConfig:
    epochs: int = 3
    tokens_per_batch: int = 320  # batches are sized by framed target tokens
    peak_lr: float = 0.01
    warmup_steps: int = 200
    label_smoothing: float = 0.1
    grad_clip: float = 1.0  # 0 disables clipping
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9

    def __post_init__(self):
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ContractError(
                f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.tokens_per_batch < 1 or self.epochs < 0:
            raise ContractError("tokens_per_batch must be >= 1 and epochs >= 0")


def smoothed_targets(gold: np.ndarray, vocab_size: int, label_smoothing: float,
                     dtype=np.float32) -> tuple[np.ndarray, int]:
    """Per-position target distributions [*, vocab] with PAD positions zeroed.

    The gold id keeps 1 - eps plus its share of the spread; the remaining
    eps spreads uniformly over the vocabulary minus PAD.  Returns the
    distribution tensor and the count of non-PAD positions.
    """
    spread_pool = vocab_size - 1
    eps = label_smoothing
    q = np.zeros(gold.shape + (vocab_size,), dtype=dtype)
    q[..., 1:] = eps / spread_pool
    np.put_along_axis(q, gold[..., None], 1.0 - eps + eps / spread_pool, axis=-1)
    mask = gold != sm.PAD_ID
    q[~mask] = 0.0
    return q, int(mask.sum())


def mle_loss(store: sm.ParameterStore, src_batch: np.ndarray, tgt_batch: np.ndarray,
             label_smoothing: float = 0.1,
             rng: np.random.Generator | None = None) -> tuple[nk.Tensor, int]:
    """Mean label-smoothed negative log-likelihood per non-PAD target token.

    Targets include BOS and EOS; the decoder consumes tgt[:, :-1] and is
    scored against tgt[:, 1:].  With a uniform predictor the loss equals
    log(vocab_size) for every smoothing value.
    """
    src_batch = np.asarray(src_batch, dtype=np.int64)
    tgt_batch = np.asarray(tgt_batch, dtype=np.int64)
    if tgt_batch.shape[1] < 2:
        raise ContractError("targets must hold BOS plus at least one token")
    dec_in = tgt_batch[:, :-1]
    gold = tgt_batch[:, 1:]
    q, count = smoothed_targets(gold, store.config.vocab_size,
                                label_smoothing, dtype=store.dtype)
    if count == 0:
        raise ContractError("batch contains no non-PAD target positions")
    memory = sm.encode_batch(store, src_batch, rng)
    rows = sm.decode_batch(store, memory, src_batch, dec_in, rng)
    loss = nk.scale(nk.sum_(nk.mul(rows, nk.Tensor(q))), -1.0 / count)
    return loss, count


def forced_log_probs(store: sm.ParameterStore, src_ids: Sequence[IdSeq],
                     tgt_ids: Sequence[IdSeq],
                     batch_size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Teacher-forced log-probability of every gold target token, tape-free,
    over padded batches of `batch_size`.  Yields per batch the
    log-probabilities [B, T-1] of tgt[:, 1:] and the mask of its non-PAD
    positions."""
    for start in range(0, len(src_ids), batch_size):
        src = pad_batch(src_ids[start: start + batch_size])
        tgt = pad_batch(tgt_ids[start: start + batch_size])
        gold = tgt[:, 1:]
        with nk.no_grad():
            memory = sm.encode_batch(store, src)
            rows = sm.decode_batch(store, memory, src, tgt[:, :-1])
        yield (np.take_along_axis(rows.data, gold[..., None], axis=-1)[..., 0],
               gold != sm.PAD_ID)


def corpus_nll(store: sm.ParameterStore, corpus: Corpus, batch_size: int = 32) -> float:
    """Mean unsmoothed negative log-likelihood per token over a corpus."""
    total, count = 0.0, 0
    for picked, mask in forced_log_probs(store, [s for s, _ in corpus],
                                         [t for _, t in corpus], batch_size):
        total += float(-(picked * mask).sum())
        count += int(mask.sum())
    return total / max(count, 1)


@dataclass
class EpochStats:
    epoch: int
    steps: int
    mean_loss: float
    final_lr: float
    seconds: float


def token_batches(corpus: Corpus, order: Sequence[int],
                  tokens_per_batch: int) -> list[list[int]]:
    """Greedily pack indices in the given order until the framed-target token
    budget is hit; every batch holds at least one sentence."""
    batches: list[list[int]] = []
    current: list[int] = []
    used = 0
    for i in order:
        n_tokens = len(corpus[i][1])
        if current and used + n_tokens > tokens_per_batch:
            batches.append(current)
            current, used = [], 0
        current.append(int(i))
        used += n_tokens
    if current:
        batches.append(current)
    return batches


def train_mle(store: sm.ParameterStore, corpus: Corpus, config: MLEConfig,
              seed: int, trace_path=None) -> list[EpochStats]:
    """Shuffle-and-batch training with the inverse-sqrt schedule.

    Batches are packed by target token count rather than sentence count, so
    step granularity stays stable across length distributions.  Optionally
    writes a per-step CSV trace (step, objective_value, learning_rate)."""
    if not corpus:
        raise ContractError("training corpus is empty")
    shuffle_rng = stream_rng(seed, STREAM_SHUFFLE)
    dropout_rng = stream_rng(seed, STREAM_DROPOUT)
    batches = ((epoch, idx) for epoch in range(config.epochs)
               for idx in token_batches(corpus, shuffle_rng.permutation(len(corpus)),
                                        config.tokens_per_batch))

    def loss(batch):
        chunk = [corpus[i] for i in batch[1]]
        return mle_loss(store, pad_batch([s for s, _ in chunk]),
                        pad_batch([t for _, t in chunk]),
                        config.label_smoothing, dropout_rng)

    steps = _optimize(
        store, config, batches, loss,
        lambda step: inverse_sqrt_lr(step, config.peak_lr, config.warmup_steps),
        trace_path)
    history = []
    for epoch, group in itertools.groupby(steps, key=lambda s: s.batch[0]):
        group = list(group)
        history.append(EpochStats(
            epoch, len(group), float(np.mean([s.value for s in group])),
            group[-1].lr, math.fsum(s.seconds for s in group)))
    return history


# ---------------------------------------------------------------------------
# minimum risk
# ---------------------------------------------------------------------------


@dataclass
class MRTConfig:
    steps: int = 600
    sentences_per_batch: int = 8  # risk batches count sentences, not tokens
    n_samples: int = 4
    alpha: float = 0.005
    lr: float = 1.5e-4
    temperature: float = 1.0
    sampling_strategy: str = "random"  # "random" | "beam"
    include_reference: bool = False
    grad_clip: float = 1.0  # 0 disables clipping
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9

    def __post_init__(self):
        if self.n_samples < 1:
            raise ContractError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.alpha <= 0.0:
            raise ContractError(f"alpha must be > 0, got {self.alpha}")
        if self.sampling_strategy not in ("random", "beam"):
            raise ContractError(
                f"sampling_strategy must be 'random' or 'beam', "
                f"got {self.sampling_strategy!r}")
        if self.sentences_per_batch < 1:
            raise ContractError("sentences_per_batch must be >= 1")


def cost_delta(hyp_ids: Sequence[int], ref_ids: Sequence[int]) -> float:
    """1 minus smoothed sentence BLEU over the non-special tokens of both
    sequences; lives in [0, 1] with 0 meaning a perfect match."""
    specials = {sm.PAD_ID, sm.BOS_ID, sm.EOS_ID}
    hyp = [t for t in hyp_ids if t not in specials]
    ref = [t for t in ref_ids if t not in specials]
    return 1.0 - metrics.smoothed_sentence_bleu(hyp, ref)


def sample_subspace(store: sm.ParameterStore, src: Sequence[int],
                    ref: Sequence[int], config: MRTConfig,
                    rng: np.random.Generator) -> list[IdSeq]:
    """Candidate set for one source: up to n draws (ancestral samples or the
    beam's top hypotheses), de-duplicated in draw order; the reference joins
    only when configured to."""
    groups = sample_decode_dedup(store, np.asarray([src], dtype=np.int64),
                                 [list(ref)], config, rng)
    return groups[0]


def _beam_candidates(store: sm.ParameterStore, src_batch: np.ndarray,
                     beam_size: int) -> list[list[IdSeq]]:
    # ranking normalization is irrelevant here: the whole beam is kept
    cfg = dec.DecodeConfig(beam_size=beam_size, length_norm_alpha=1.0)
    sources = [[int(t) for t in row if t != sm.PAD_ID] for row in np.asarray(src_batch)]
    return [[list(h.tokens) for h in hyps]
            for hyps in dec.beam_search_corpus(store, sources, cfg)]


def sample_decode_dedup(store: sm.ParameterStore, src_batch: np.ndarray,
                        refs: list[IdSeq], config: MRTConfig,
                        rng: np.random.Generator) -> list[list[IdSeq]]:
    if config.sampling_strategy == "beam":
        raw = _beam_candidates(store, src_batch, config.n_samples)
    else:
        raw = dec.sample_decode_batch(store, src_batch, config.n_samples, rng,
                                      temperature=config.temperature)
    out = []
    for b, group in enumerate(raw):
        seen = set()
        uniq: list[IdSeq] = []
        for cand in group:
            key = tuple(cand)
            if key not in seen:
                seen.add(key)
                uniq.append(cand)
        if config.include_reference:
            ref = list(refs[b])
            if tuple(ref) not in seen:
                uniq.append(ref)
        out.append(uniq)
    return out


def sharpened_distribution(log_probs: nk.Tensor, alpha: float) -> nk.Tensor:
    """Normalized candidate weights softmax(alpha * log_probs), computed in
    log space so large magnitude scores stay finite."""
    return nk.softmax(nk.scale(log_probs, alpha))


@dataclass
class RiskBatch:
    """Sampled candidates for a batch of sources, flattened for one
    teacher-forced rescoring pass."""

    src_batch: np.ndarray          # [B, Ls]
    candidates: list[list[IdSeq]]  # per source, deduplicated
    deltas: list[list[float]]      # cost per candidate

    def segments(self) -> list[tuple[int, int]]:
        offs, off = [], 0
        for group in self.candidates:
            offs.append((off, len(group)))
            off += len(group)
        return offs


def build_risk_batch(store: sm.ParameterStore, src_seqs: list[IdSeq],
                     refs: list[IdSeq], config: MRTConfig,
                     rng: np.random.Generator) -> RiskBatch:
    src_batch = pad_batch(src_seqs)
    candidates = sample_decode_dedup(store, src_batch, refs, config, rng)
    deltas = [[cost_delta(c, refs[b]) for c in group]
              for b, group in enumerate(candidates)]
    return RiskBatch(src_batch, candidates, deltas)


def mrt_risk(store: sm.ParameterStore, batch: RiskBatch,
             alpha: float) -> tuple[nk.Tensor, dict]:
    """Mean expected cost over the batch, differentiable through the
    rescoring pass.

    Every candidate of every source is rescored in one flattened
    teacher-forced pass; each source then gets its own sharpened
    distribution over its candidates.  Returns the scalar risk and a
    diagnostics dict (per-source risks, candidate counts).
    """
    flat: list[IdSeq] = [c for group in batch.candidates for c in group]
    if not flat:
        raise ContractError("risk batch has no candidates")
    owner = [b for b, group in enumerate(batch.candidates) for _ in group]

    cand = pad_batch(flat)
    src_rows = batch.src_batch[np.asarray(owner, dtype=np.int64)]
    memory = sm.encode_batch(store, src_rows)
    rows = sm.decode_batch(store, memory, src_rows, cand[:, :-1])
    gold = cand[:, 1:]
    mask = (gold != sm.PAD_ID).astype(store.dtype)
    picked = nk.take_along_last(rows, gold)
    log_probs = nk.sum_(nk.mul(picked, nk.Tensor(mask)), axis=-1)  # [sum n_b]

    per_source = []
    per_weights = []
    risk_total = None
    for (off, cnt), deltas in zip(batch.segments(), batch.deltas):
        seg = nk.narrow(log_probs, 0, off, cnt)
        weights = sharpened_distribution(seg, alpha)
        delta_t = nk.Tensor(np.asarray(deltas, dtype=store.dtype))
        risk_b = nk.sum_(nk.mul(weights, delta_t))
        per_source.append(risk_b.item())
        per_weights.append(weights.data.astype(np.float64).tolist())
        risk_total = risk_b if risk_total is None else nk.add(risk_total, risk_b)
    risk = nk.scale(risk_total, 1.0 / len(batch.candidates))
    info = {
        "per_source_risk": per_source,
        "candidate_counts": [len(g) for g in batch.candidates],
        "weights": per_weights,
    }
    return risk, info


@dataclass
class MRTStepStats:
    step: int
    mean_risk: float
    mean_candidates: float
    seconds: float


def finetune_mrt(store: sm.ParameterStore, corpus: Corpus, config: MRTConfig,
                 seed: int, trace_path=None) -> list[MRTStepStats]:
    """Risk fine-tuning with a fresh optimizer and a constant learning rate.

    Walks shuffled batches (counted in sentences) for a fixed number of
    steps; optionally writes a per-step CSV trace (step, objective_value,
    learning_rate)."""
    if not corpus:
        raise ContractError("fine-tuning corpus is empty")
    shuffle_rng = stream_rng(seed, STREAM_SHUFFLE)
    sampler_rng = stream_rng(seed, STREAM_SAMPLER)

    def batches():
        order: list[int] = []
        cursor = 0
        for _ in range(config.steps):
            if cursor + config.sentences_per_batch > len(order):
                order = list(shuffle_rng.permutation(len(corpus)))
                cursor = 0
            chunk = [corpus[i] for i in order[cursor: cursor + config.sentences_per_batch]]
            cursor += config.sentences_per_batch
            yield [s for s, _ in chunk], [t for _, t in chunk]

    def risk(batch):
        return mrt_risk(store, build_risk_batch(store, *batch, config, sampler_rng),
                        config.alpha)

    steps = _optimize(store, config, batches(), risk, lambda step: config.lr, trace_path)
    return [MRTStepStats(n, s.value, float(np.mean(s.info["candidate_counts"])), s.seconds)
            for n, s in enumerate(steps, 1)]

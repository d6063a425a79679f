"""Training objectives and loops.

Two objectives share one model: label-smoothed maximum likelihood with
teacher forcing, and expected-risk fine-tuning over a sampled candidate
subspace.  Only a training step's loss is taped: risk training samples
each step's candidates before the step's tape opens, then rescores them
teacher-forced on it, so the only backward path is through the rescoring
pass.

Randomness is split into named streams derived from the run seed, so
changing how often one stream is consumed never perturbs the others.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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

LABEL_SMOOTHING = 0.1  # of the likelihood baseline's training targets
MRT_ALPHA = 0.005  # sharpness of risk training's candidate distribution
MRT_BATCH_SENTENCES = 8  # risk batches count sentences, not tokens


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


IdSeq = list[int]
Corpus = list[tuple[IdSeq, IdSeq]]  # (source ids, BOS..EOS target ids)


pad_batch = sm.pad_batch


# ---------------------------------------------------------------------------
# optimizer and schedules
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction and global-norm gradient clipping at
    `CLIP_NORM`.

    Works on the store's flat buffers: the moments are flat arrays and one
    update is a handful of whole-buffer numpy calls, each element going
    through the same arithmetic, in the same order, as a per-tensor update
    would.  The global norm is still summed per tensor, over the store's
    spans, in float64."""

    BETA1 = 0.9
    BETA2 = 0.98
    EPS = 1e-9
    CLIP_NORM = 1.0

    def __init__(self, store: sm.ParameterStore):
        self.store = store
        self.t = 0
        self.m = np.zeros_like(store.flat)
        self.v = np.zeros_like(store.flat)

    def step(self, lr: float) -> float:
        """Apply one update with the gradients accumulated in the store's
        flat gradient buffer; returns the pre-clip global gradient norm."""
        store = self.store
        g = store.flat_grad
        sq = np.square(g, dtype=np.float64)
        total = 0.0
        for start, stop in store.spans:
            total += float(np.add.reduce(sq[start:stop]))
        norm = math.sqrt(total)
        if norm > self.CLIP_NORM:
            g = g * (self.CLIP_NORM / norm)

        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        m, v = self.m, self.v
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
        m *= self.BETA1
        tmp = g * (1.0 - self.BETA1)
        m += tmp
        v *= self.BETA2
        np.multiply(g, 1.0 - self.BETA2, out=tmp)
        tmp *= g
        v += tmp
        # param -= lr m_hat / (sqrt(v_hat) + eps)
        update = m / bc1
        update *= lr
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.EPS
        update /= tmp
        store.flat -= update
        store.step_count += 1
        return norm


def inverse_sqrt_lr(step: int, peak_lr: float, warmup_steps: int) -> float:
    """Linear warmup to peak_lr at warmup_steps, then sqrt decay; continuous
    at the junction."""
    if step < 1:
        raise ContractError(f"schedule step must be >= 1, got {step}")
    if warmup_steps < 1:
        raise ContractError(f"warmup_steps must be >= 1, got {warmup_steps}")
    return peak_lr * min(step / warmup_steps, math.sqrt(warmup_steps / step))


def _optimize(store: sm.ParameterStore, batches: Iterable, objective: Callable,
              lr_at: Callable[[int], float], trace_path) -> None:
    """The step loop both objectives share.

    Per step: the next batch from `batches` (drawing it may run the model
    untaped, as risk training's sampling does), then `objective(batch)`,
    which returns (scalar tensor, info) built on a fresh tape, backward, a
    divergence check that names the step, and one Adam step at
    `lr_at(step)`.  The step, the draw of its batch included, runs with
    numpy's overflow and invalid-operation errors raised: like a non-finite
    op output, they are a divergence, even where later arithmetic would
    make the numbers finite again.  Writes one CSV trace row (step,
    objective_value, learning_rate) per step when `trace_path` is set; the
    trace is the loop's only record.  The trace file is replaced when the
    loop ends: after the last step, or, when training diverges, with the
    rows of the steps before it; any other exception leaves no trace."""
    optim = Adam(store)
    store.zero_grads()  # backward adds into the store's gradient buffer
    batches = iter(batches)
    diverged = None
    with (sm.atomic_write(trace_path, newline="") if trace_path is not None
          else open(os.devnull, "w")) as trace:
        writer = csv.writer(trace)
        writer.writerow(["step", "objective_value", "learning_rate"])
        for step in itertools.count(1):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    batch = next(batches, None)
                    if batch is None:
                        break
                    with nk.Graph() as tape:
                        scalar, _ = objective(batch)
                        nk.backward(tape, scalar)
                    del tape  # frees the activations before the update allocates
                    value, lr = scalar.item(), lr_at(step)
                    if not math.isfinite(value):
                        raise NumericsError(f"objective is {value}")
                    optim.step(lr)
            except (NumericsError, FloatingPointError) as exc:
                diverged = exc
                break
            store.zero_grads()
            writer.writerow([step, f"{value:.6f}", f"{lr:.6g}"])
    if diverged is not None:
        message = f"training diverged at step {step}: {diverged}"
        if trace_path is not None:
            message += f" (trace of the steps before it: {trace_path})"
        raise ContractError(message) from diverged


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


def _require_non_negative(config, *names: str) -> None:
    """Refuse a negative (or NaN) setting, naming it; 0 stays valid."""
    for name in names:
        value = getattr(config, name)
        if not value >= 0:
            raise ContractError(f"{name} must be >= 0, got {value}")


@dataclass
class MLEConfig:
    epochs: int = 3
    tokens_per_batch: int = 320  # batches are sized by framed target tokens
    peak_lr: float = 0.01
    warmup_steps: int = 200

    def __post_init__(self):
        if self.tokens_per_batch < 1 or self.epochs < 0:
            raise ContractError("tokens_per_batch must be >= 1 and epochs >= 0")
        if self.warmup_steps < 1:
            raise ContractError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        _require_non_negative(self, "peak_lr")


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
             label_smoothing: float = LABEL_SMOOTHING,
             rng: np.random.Generator | None = None) -> tuple[nk.Tensor, int]:
    """Mean label-smoothed negative log-likelihood per non-PAD target token.

    Targets include BOS and EOS; the decoder consumes tgt[:, :-1] and is
    scored against tgt[:, 1:].  With a uniform predictor the loss equals
    log(vocab_size) for every smoothing value.
    """
    if np.shape(tgt_batch)[1] < 2:
        raise ContractError("targets must hold BOS plus at least one token")
    rows, _, gold = sm.teacher_forced(store, src_batch, tgt_batch, rng=rng)
    q, count = smoothed_targets(gold, store.config.vocab_size, label_smoothing, dtype=store.dtype)
    if count == 0:
        raise ContractError("batch contains no non-PAD target positions")
    loss = nk.scale(nk.sum_(nk.mul(rows, nk.Tensor(q))), -1.0 / count)
    return loss, count


def forced_log_probs(store: sm.ParameterStore, src_ids: Sequence[IdSeq],
                     tgt_groups: Sequence[Sequence[IdSeq]],
                     batch_size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Teacher-forced log-probability of every gold token of the targets
    `tgt_groups[i]` of each source `src_ids[i]`, over batches of
    `batch_size` sources, each batch in one `teacher_forced` pass; call it
    outside any tape.  Yields per batch the log-probabilities [T, L-1] of
    tgt[:, 1:], its T targets in source order, and the mask of its scored
    positions (non-PAD input and gold); masked entries are zero."""
    for start in range(0, len(src_ids), batch_size):
        groups = tgt_groups[start: start + batch_size]
        owner = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        rows, dec_in, gold = sm.teacher_forced(store, pad_batch(src_ids[start: start + batch_size]),
                                               pad_batch([t for g in groups for t in g]), owner)
        scored, mask = gold != sm.PAD_ID, ~dec_in.pad
        mask[mask] = scored
        picked = np.zeros(mask.shape, dtype=rows.dtype)
        picked[mask] = np.take_along_axis(rows.data, gold[:, None], axis=-1)[scored, 0]
        yield picked, mask


def corpus_nll(store: sm.ParameterStore, corpus: Corpus, batch_size: int = 32) -> float:
    """Mean unsmoothed negative log-likelihood per token over a non-empty corpus."""
    if not corpus:
        raise ContractError("corpus_nll needs at least one sentence pair")
    total, count = 0.0, 0
    for picked, mask in forced_log_probs(store, [s for s, _ in corpus],
                                         [[t] for _, t in corpus], batch_size):
        total += float(-(picked * mask).sum())
        count += int(mask.sum())
    return total / count


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
              seed: int, trace_path=None) -> None:
    """Shuffle-and-batch training with the inverse-sqrt schedule.

    Batches are packed by target token count rather than sentence count, so
    step granularity stays stable across length distributions.  Optionally
    writes a per-step CSV trace (step, objective_value, learning_rate)."""
    if not corpus:
        raise ContractError("training corpus is empty")
    shuffle_rng = stream_rng(seed, STREAM_SHUFFLE)
    dropout_rng = stream_rng(seed, STREAM_DROPOUT)
    batches = (idx for _ in range(config.epochs)
               for idx in token_batches(corpus, shuffle_rng.permutation(len(corpus)),
                                        config.tokens_per_batch))

    def loss(batch):
        chunk = [corpus[i] for i in batch]
        return mle_loss(store, pad_batch([s for s, _ in chunk]),
                        pad_batch([t for _, t in chunk]),
                        LABEL_SMOOTHING, dropout_rng)

    _optimize(store, batches, loss,
              lambda step: inverse_sqrt_lr(step, config.peak_lr, config.warmup_steps),
              trace_path)


# ---------------------------------------------------------------------------
# minimum risk
# ---------------------------------------------------------------------------


@dataclass
class MRTConfig:
    steps: int = 600
    n_samples: int = 4
    lr: float = 1.5e-4
    include_reference: bool = False

    def __post_init__(self):
        most = sm.MAX_LIVE_ROWS // MRT_BATCH_SENTENCES  # a batch's sampler rows fit one decoder
        if not 1 <= self.n_samples <= most:
            raise ContractError(f"n_samples must be in [1, {most}], got {self.n_samples}")
        _require_non_negative(self, "steps", "lr")


def cost_delta(hyp_ids: Sequence[int], ref_ids: Sequence[int]) -> float:
    """1 minus smoothed sentence BLEU over the non-special tokens of both
    sequences; lives in [0, 1] with 0 meaning a perfect match."""
    specials = {sm.PAD_ID, sm.BOS_ID, sm.EOS_ID}
    hyp = [t for t in hyp_ids if t not in specials]
    ref = [t for t in ref_ids if t not in specials]
    return 1.0 - metrics.smoothed_sentence_bleu(hyp, ref)


def sample_decode_dedup(store: sm.ParameterStore, src_batch: np.ndarray,
                        refs: list[IdSeq], config: MRTConfig,
                        rng: np.random.Generator) -> list[list[IdSeq]]:
    """Per source, each distinct one of its `config.n_samples` draws once, in
    the order first drawn; with `include_reference`, the reference follows
    them unless a draw equals it."""
    out = []
    for b, group in enumerate(dec.sample_decode_batch(store, src_batch, config.n_samples, rng)):
        uniq = dict.fromkeys(map(tuple, group))  # keeps first-draw order
        if config.include_reference:
            uniq.setdefault(tuple(refs[b]))
        out.append([list(cand) for cand in uniq])
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

    Every candidate is rescored in one `teacher_forced` pass that encodes
    each source once.  The candidates' log-probabilities are then laid out
    as a [sources, candidates] grid, and one sharpened softmax over its
    rows gives each source its own distribution over its candidates.
    Returns the scalar risk and a diagnostics dict (candidate counts).
    """
    flat: list[IdSeq] = [c for group in batch.candidates for c in group]
    if not flat:
        raise ContractError("risk batch has no candidates")
    counts = [len(group) for group in batch.candidates]
    filled = np.arange(max(counts)) < np.asarray(counts)[:, None]  # [B, K]
    owner = np.nonzero(filled)[0]  # each candidate's source

    rows, dec_in, gold = sm.teacher_forced(store, batch.src_batch, pad_batch(flat), owner)
    picked = nk.take_along_last(rows, gold)  # [N]
    # member[c, i]: row i is a scored position of candidate c
    member = ((np.nonzero(~dec_in.pad)[0] == np.arange(len(flat))[:, None])
              & (gold != sm.PAD_ID)).astype(store.dtype)
    log_probs = nk.matmul(nk.Tensor(member), nk.reshape(picked, (-1, 1)))  # [C, 1]

    # empty slots score NEG_INF_FILL once sharpened, so they weigh exactly 0
    # (in float32 below alpha ~ 3e-30: the dtype's lowest value, also weight 0)
    slot = np.zeros(filled.shape, dtype=np.int64)
    slot[filled] = np.arange(len(flat))
    fill = max(nk.NEG_INF_FILL / alpha, float(np.finfo(store.dtype).min))
    grid = nk.masked_fill(nk.reshape(nk.embedding(log_probs, slot), filled.shape),
                          ~filled, fill)
    cost = np.zeros(filled.shape, dtype=store.dtype)
    cost[filled] = [d for deltas in batch.deltas for d in deltas]
    weights = sharpened_distribution(grid, alpha)
    per_source = nk.sum_(nk.mul(weights, nk.Tensor(cost)), axis=-1)  # expected cost [B]
    risk = nk.scale(nk.sum_(per_source), 1.0 / len(counts))
    return risk, {"candidate_counts": counts}


def finetune_mrt(store: sm.ParameterStore, corpus: Corpus, config: MRTConfig,
                 seed: int, trace_path=None) -> None:
    """Risk fine-tuning with a fresh optimizer and a constant learning rate.

    Walks shuffled batches of `MRT_BATCH_SENTENCES` sentences for a fixed
    number of steps.  Each step's candidates are sampled and costed
    (`build_risk_batch`) as its batch is drawn, before its tape opens; the
    tape holds `mrt_risk` alone.  Optionally writes a per-step CSV trace
    (step, objective_value, learning_rate)."""
    if not corpus:
        raise ContractError("fine-tuning corpus is empty")
    shuffle_rng = stream_rng(seed, STREAM_SHUFFLE)
    sampler_rng = stream_rng(seed, STREAM_SAMPLER)

    def batches():
        order: list[int] = []
        cursor = 0
        for _ in range(config.steps):
            if cursor + MRT_BATCH_SENTENCES > len(order):
                order = list(shuffle_rng.permutation(len(corpus)))
                cursor = 0
            chunk = [corpus[i] for i in order[cursor: cursor + MRT_BATCH_SENTENCES]]
            cursor += MRT_BATCH_SENTENCES
            yield build_risk_batch(store, [s for s, _ in chunk], [t for _, t in chunk],
                                   config, sampler_rng)

    _optimize(store, batches(), lambda batch: mrt_risk(store, batch, MRT_ALPHA),
              lambda step: config.lr, trace_path)

"""Decoding strategies over a trained model.

Every decoder runs on `seqmodel.IncrementalDecoder`, the tape-free,
KV-cached inference core, and cuts every sequence at the model's
max_seq_len tokens, BOS included.  Beam search prunes on raw summed
log-probabilities and ranks its finished pool by a length-normalized score;
one vectorised core steps the live beams of many sentences as one batch.
Greedy decoding is written as its own loop rather than as beam size 1 so
the two can cross-check each other in tests.  Sampling is batched because
risk training draws several candidates per source at every step.

PAD and BOS are never proposed as continuations: PAD doubles as the batch
padding marker so emitting it mid-sequence would corrupt later rescoring,
and a second BOS has no meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import seqmodel as sm
from .errors import ContractError

BANNED_CONTINUATIONS = (sm.PAD_ID, sm.BOS_ID)

# maps equal-length BOS-led prefixes to [n, vocab] next-token log-probs
StepFn = Callable[[list[list[int]]], np.ndarray]


@dataclass
class DecodeConfig:
    """The defaults are the study's decoding setup, which `reproduce` judges with."""
    beam_size: int = 4
    length_norm_alpha: float = 0.6  # mild length normalization, as in the source setup

    def __post_init__(self):
        if not 1 <= self.beam_size <= sm.MAX_LIVE_ROWS:
            raise ContractError(f"beam_size must be in [1, {sm.MAX_LIVE_ROWS}], "
                                f"got {self.beam_size}")
        if not math.isfinite(self.length_norm_alpha):
            raise ContractError(f"length_norm_alpha must be finite, got {self.length_norm_alpha}")


@dataclass
class Hypothesis:
    """A decoded sequence: ids include the leading BOS and, when the beam
    finished naturally, a trailing EOS."""

    tokens: list[int]
    total_log_prob: float
    normalized_score: float
    finished: bool


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


# advance(parents, seqs) -> [rows, vocab] next-token log-probs: reorder the
# scorer's rows by `parents`, then extend them to the [rows, t] sequences
AdvanceFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _rank_in_group(groups: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal values in `groups`,
    which holds each group contiguously."""
    starts = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
    counts = np.diff(np.r_[starts, groups.size])
    return np.arange(groups.size) - np.repeat(starts, counts)


def _top_k_rows(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, token) pairs of each row's k best allowed continuations, row by
    row, each row ordered by value (higher first) then token id (lower
    first)."""
    # PAD and BOS are ids 0 and 1, so the allowed ids are the columns after them
    first = len(BANNED_CONTINUATIONS)
    cols = np.argsort(-rows[:, first:], axis=1, kind="stable")[:, :k]
    return np.repeat(np.arange(rows.shape[0]), cols.shape[1]), cols.reshape(-1) + first


def _beam_core(advance: AdvanceFn, n_sources: int, max_len: int,
               config: DecodeConfig) -> list[list[Hypothesis]]:
    """Beam search for `n_sources` sources at once, stepping every live beam
    of every source as one flat batch.

    Per source, candidates are pruned on raw float64 totals each step: each
    live beam offers its k best continuations, and the source keeps its k
    best candidates, ranked by total (higher first), then by the
    lexicographic order of the id sequence.  That order is carried as each
    live beam's `rank` among its source's beams: a source's live prefixes
    are distinct and of equal length, so a candidate's place is its
    parent's rank, then its token.  Beams still open at the length
    cap are closed as-is.  A source stops expanding once it has k finished
    hypotheses, or once no open beam could beat its best finished score
    even with cost-free continuations.
    """
    k = config.beam_size
    if max_len < 2:
        raise ContractError(f"max_len must be >= 2, got {max_len}")
    penalty = [length_penalty(n, config.length_norm_alpha) for n in range(max_len)]

    finished: list[list[Hypothesis]] = [[] for _ in range(n_sources)]
    n_finished = np.zeros(n_sources, dtype=np.int64)
    best_done = np.full(n_sources, -np.inf)
    src = np.arange(n_sources)  # source of each live beam, grouped by source
    totals = np.zeros(n_sources)
    seqs = np.full((n_sources, 1), sm.BOS_ID, dtype=np.int64)
    rank = np.zeros(n_sources, dtype=np.int64)  # lexicographic place within the source
    parents = src

    while src.size:
        rows = np.asarray(advance(parents, seqs))
        row, tok = _top_k_rows(rows, k)
        total = totals[row] + rows[row, tok].astype(np.float64)
        cand_src = src[row]
        # keep each source's candidates that tie or beat its k-th best total
        group = np.r_[0, np.cumsum(cand_src[1:] != cand_src[:-1])]
        pos = _rank_in_group(cand_src)
        if pos.max() >= k:
            grid = np.full((group[-1] + 1, pos.max() + 1), np.inf)
            grid[group, pos] = -total
            kth = np.partition(grid, k - 1, axis=1)[:, k - 1]
            near = np.flatnonzero(-total <= kth[group])
            row, tok, total, cand_src = row[near], tok[near], total[near], cand_src[near]
        order = np.lexsort((tok, rank[row], -total, cand_src))
        order = order[_rank_in_group(cand_src[order]) < k]
        parents, tok, total, cand_src = row[order], tok[order], total[order], cand_src[order]
        rank = np.argsort(np.lexsort((tok, rank[parents])))
        seqs = np.concatenate((seqs[parents], tok[:, None]), axis=1)

        gen_len = seqs.shape[1] - 1
        closed = (seqs[:, -1] == sm.EOS_ID) | (seqs.shape[1] >= max_len)
        for i in np.flatnonzero(closed):
            s, t = cand_src[i], float(total[i])
            hyp = Hypothesis(seqs[i].tolist(), t, t / penalty[gen_len],
                             bool(seqs[i, -1] == sm.EOS_ID))
            finished[s].append(hyp)
            n_finished[s] += 1
            best_done[s] = max(best_done[s], hyp.normalized_score)
        open_ = ~closed
        bound = np.full(n_sources, -np.inf)
        np.maximum.at(bound, cand_src[open_], np.maximum(
            total[open_] / penalty[max_len - 1], total[open_] / penalty[gen_len]))
        done = (n_finished >= k) | (bound <= best_done)
        live = open_ & ~done[cand_src]
        parents, seqs, totals, src = parents[live], seqs[live], total[live], cand_src[live]
        rank = rank[live]

    for hyps in finished:
        hyps.sort(key=lambda h: (-h.normalized_score, h.tokens))
    return [hyps[:k] for hyps in finished]


def beam_search_steps(step_fn: StepFn, max_len: int,
                      config: DecodeConfig | None = None) -> list[Hypothesis]:
    """Beam search over an arbitrary next-token scorer: the one-source case
    of the batched core behind `beam_search_corpus`.

    Exposed apart from the model-backed entry points so tests can drive the
    search with small hand-specified probability tables.
    """
    return _beam_core(lambda parents, seqs: step_fn(seqs.tolist()), 1, max_len,
                      config or DecodeConfig())[0]


def beam_search_corpus(store: sm.ParameterStore, sources: Sequence[Sequence[int]],
                       config: DecodeConfig | None = None) -> list[list[Hypothesis]]:
    """Beam search under the model for every source; per source, finished
    hypotheses sorted by normalized score.  Sources are decoded together,
    as many per batch as keep beam_size x sources within
    `seqmodel.MAX_LIVE_ROWS`."""
    config = config or DecodeConfig()
    per_batch = sm.MAX_LIVE_ROWS // config.beam_size
    out: list[list[Hypothesis]] = []
    for start in range(0, len(sources), per_batch):
        chunk = sources[start: start + per_batch]
        if min(len(s) for s in chunk) < 1:
            raise ContractError("source must contain at least one token")
        state = sm.IncrementalDecoder(store, sm.pad_batch(chunk))
        out.extend(_beam_core(lambda parents, seqs: state.step(parents, seqs[:, -1]),
                              len(chunk), store.config.max_seq_len, config))
    return out


def beam_search(store: sm.ParameterStore, src: Sequence[int],
                config: DecodeConfig | None = None) -> list[Hypothesis]:
    """Beam search under the model for one source; finished hypotheses
    sorted by normalized score."""
    return beam_search_corpus(store, [src], config)[0]


def greedy_decode(store: sm.ParameterStore, src: Sequence[int],
                  length_norm_alpha: float = DecodeConfig.length_norm_alpha) -> Hypothesis:
    """Plain argmax loop; must agree with beam search at beam size 1."""
    state = sm.IncrementalDecoder(store, np.asarray([src], dtype=np.int64))
    toks, total = [sm.BOS_ID], 0.0
    while len(toks) < store.config.max_seq_len and toks[-1] != sm.EOS_ID:
        row = state.step(None, [toks[-1]])[0]
        row[list(BANNED_CONTINUATIONS)] = -np.inf
        toks.append(int(np.argmax(row)))  # argmax takes the lowest id on ties
        total += float(row[toks[-1]])
    return Hypothesis(toks, total, total / length_penalty(len(toks) - 1, length_norm_alpha),
                      toks[-1] == sm.EOS_ID)


def sample_decode_batch(store: sm.ParameterStore, src_batch: np.ndarray,
                        n_samples: int, rng: np.random.Generator) -> list[list[list[int]]]:
    """Ancestral sampling, `n_samples` sequences per source row.

    Returns, per source, a list of id sequences including BOS (and EOS when
    the sample terminated on its own), cut from one PAD-filled id array.  All
    unfinished sequences step together in one batch; every step draws one
    uniform number per sequence, finished or not, so the stream `rng` yields
    does not depend on when sequences end.
    """
    src_batch = np.asarray(src_batch, dtype=np.int64)
    bsz = src_batch.shape[0]
    rows_n = bsz * n_samples
    state = sm.IncrementalDecoder(store, src_batch)
    ids = np.full((rows_n, store.config.max_seq_len), sm.PAD_ID, dtype=np.int64)
    ids[:, 0] = sm.BOS_ID
    alive = np.arange(rows_n)  # sequence index of each decoder row
    parents = np.repeat(np.arange(bsz), n_samples)
    for t in range(1, store.config.max_seq_len):
        logits = state.step(parents, ids[alive, t - 1])
        logits[:, list(BANNED_CONTINUATIONS)] = -np.inf
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        draws = 1.0 - rng.random(rows_n)  # (0, 1]: zero-mass ids stay unreachable
        tokens = np.minimum((cdf < draws[alive, None]).sum(axis=1), store.config.vocab_size - 1)
        ids[alive, t] = tokens
        parents = np.flatnonzero(tokens != sm.EOS_ID)
        if not parents.size:
            break
        alive = alive[parents]
    # PAD is never drawn, so a row's length is its count of non-PAD ids
    seqs = [row[:n] for row, n in zip(ids.tolist(), (ids != sm.PAD_ID).sum(axis=1).tolist())]
    return [seqs[b * n_samples: (b + 1) * n_samples] for b in range(bsz)]

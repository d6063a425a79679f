"""Diagnostics for translation behaviour under domain shift.

Three probes, all over token-level corpora:

* hallucination judgments: decode, then flag outputs that read fluently
  (full or windowed parse) while sharing almost no content with the
  expected translation;
* certainty curves: teacher-force the reference and a length-matched
  in-domain distractor target on the same source and track the
  probability granted to the forced token at each position;
* beam sweep: corpus score and hallucination rate as the beam widens.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import datagen as dg
from . import decoding as dec
from . import metrics
from . import objectives as obj
from . import seqmodel as sm
from .errors import ContractError

DEFAULT_OVERLAP_THRESHOLD = 0.2
DEFAULT_BEAM_SIZES = (1, 4, 50)
DEFAULT_EVAL_ALPHA = 0.6  # mild length normalization, as in the source setup
STREAM_DISTRACTOR = 5


# ---------------------------------------------------------------------------
# hallucination judgments
# ---------------------------------------------------------------------------


@dataclass
class HallucinationJudgment:
    source: list[str]
    reference: list[str]
    hypothesis: list[str]
    fluent: bool
    partially_fluent: bool
    overlap: float
    hallucinated: bool


@dataclass
class HallucinationSummary:
    n: int
    n_fluent: int
    n_partially_fluent: int
    n_hallucinated: int
    rate: float
    mean_overlap: float


def adequacy_overlap(hyp_tokens: Sequence[str], ref_tokens: Sequence[str],
                     content: set[str] | None = None) -> float:
    """Fraction of the reference's content-token types present in the
    hypothesis.  `content` narrows which tokens carry meaning; without it
    every reference token type counts."""
    ref_types = set(ref_tokens)
    if content is not None:
        ref_types &= content
    if not ref_types:
        raise ContractError("reference has no content tokens")
    return len(ref_types & set(hyp_tokens)) / len(ref_types)


def judge_hypothesis(src: Sequence[str], ref: Sequence[str], hyp: Sequence[str],
                     spec: dg.DomainSpec,
                     threshold: float = DEFAULT_OVERLAP_THRESHOLD) -> HallucinationJudgment:
    """A hallucination is output that looks like language but not like the
    input: (at least partially) fluent, yet carrying almost none of the
    expected content symbols.  Function symbols are excluded from the
    overlap since every well-formed sentence shares them."""
    fluent = dg.is_fluent(hyp, spec)
    partial = fluent or dg.is_partially_fluent(hyp, spec)
    overlap = adequacy_overlap(hyp, ref, spec.tgt_content())
    return HallucinationJudgment(
        list(src), list(ref), list(hyp), fluent, partial, overlap,
        partial and overlap < threshold)


def translate_corpus(store: sm.ParameterStore, vocab: sm.Vocabulary,
                     pairs: Sequence[dg.TokenPair],
                     config: dec.DecodeConfig | None = None) -> list[list[str]]:
    """Beam-decode every source; returns token hypotheses."""
    results = dec.beam_search_corpus(store, [vocab.encode(src) for src, _ in pairs], config)
    return [vocab.decode(hyps[0].generated()) if hyps else [] for hyps in results]


def judge_corpus(store: sm.ParameterStore, vocab: sm.Vocabulary,
                 pairs: Sequence[dg.TokenPair], spec: dg.DomainSpec,
                 config: dec.DecodeConfig | None = None,
                 threshold: float = DEFAULT_OVERLAP_THRESHOLD) -> list[HallucinationJudgment]:
    hyps = translate_corpus(store, vocab, pairs, config)
    return [judge_hypothesis(src, ref, hyp, spec, threshold)
            for (src, ref), hyp in zip(pairs, hyps)]


def summarize_judgments(judgments: Sequence[HallucinationJudgment]) -> HallucinationSummary:
    if not judgments:
        raise ContractError("no judgments to summarize")
    n = len(judgments)
    return HallucinationSummary(
        n=n,
        n_fluent=sum(j.fluent for j in judgments),
        n_partially_fluent=sum(j.partially_fluent for j in judgments),
        n_hallucinated=sum(j.hallucinated for j in judgments),
        rate=sum(j.hallucinated for j in judgments) / n,
        mean_overlap=float(np.mean([j.overlap for j in judgments])),
    )


def hallucination_rate(judgments: Sequence[HallucinationJudgment]) -> float:
    return summarize_judgments(judgments).rate


def compare_hallucination_significance(
        judgments_a: Sequence[HallucinationJudgment],
        judgments_b: Sequence[HallucinationJudgment]) -> tuple[float, metrics.ContingencyTable2x2]:
    """Two-tailed Fisher's exact test on hallucinated counts of two systems."""
    table = metrics.ContingencyTable2x2.from_outcomes(
        [j.hallucinated for j in judgments_a],
        [j.hallucinated for j in judgments_b])
    return metrics.fisher_exact_two_tailed(table), table


def write_judgments_jsonl(path, judgments: Sequence[HallucinationJudgment]) -> None:
    """One JSON object per sentence; fluency is collapsed to a single label."""
    with open(path, "w", newline="\n") as fh:
        for j in judgments:
            if j.fluent:
                fluency = "fluent"
            elif j.partially_fluent:
                fluency = "partial"
            else:
                fluency = "disfluent"
            row = {
                "source": j.source,
                "reference": j.reference,
                "hypothesis": j.hypothesis,
                "fluency": fluency,
                "overlap": j.overlap,
                "is_hallucination": j.hallucinated,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# certainty curves
# ---------------------------------------------------------------------------


@dataclass
class UncertaintyCurve:
    """Mean forced-token probability by position (1-indexed) for one
    forced continuation kind under one model."""

    label: str  # "references" | "distractors"
    model_tag: str
    positions: list[int]
    mean_prob: list[float]
    counts: list[int]


@dataclass
class UncertaintyResult:
    """Reference and distractor curves over the same sources, plus the
    recorded distractor assignment (pair index -> pool index) and whether
    each draw found an exact length match."""

    references: UncertaintyCurve
    distractors: UncertaintyCurve
    assignment: list[int]
    exact_length: list[bool]

    def gap_mean(self, min_position: int = 3) -> float:
        """Mean of (reference - distractor) certainty over shared positions
        at or past `min_position`."""
        dis = dict(zip(self.distractors.positions, self.distractors.mean_prob))
        gaps = [r - dis[p] for p, r in
                zip(self.references.positions, self.references.mean_prob)
                if p >= min_position and p in dis]
        if not gaps:
            raise ContractError(f"no shared positions >= {min_position}")
        return math.fsum(gaps) / len(gaps)


def assign_distractors(ref_targets: Sequence[Sequence[str]],
                       pool: Sequence[Sequence[str]],
                       rng: np.random.Generator) -> tuple[list[int], list[bool]]:
    """For each reference, draw a pool sentence of the same length uniformly
    at random; with no exact match, fall back to the nearest length (ties
    toward shorter) and flag the draw."""
    if not pool:
        raise ContractError("distractor pool is empty")
    by_len: dict[int, list[int]] = {}
    for j, tgt in enumerate(pool):
        by_len.setdefault(len(tgt), []).append(j)
    lengths = sorted(by_len)
    assignment, exact = [], []
    for tgt in ref_targets:
        want = len(tgt)
        if want in by_len:
            group, hit = by_len[want], True
        else:
            nearest = min(lengths, key=lambda n: (abs(n - want), n))
            group, hit = by_len[nearest], False
        assignment.append(group[int(rng.integers(len(group)))])
        exact.append(hit)
    return assignment, exact


def _forced_token_probs(store: sm.ParameterStore, src_ids: list[list[int]],
                        tgt_ids: list[list[int]],
                        batch_size: int = 64) -> list[list[float]]:
    """P(forced token) at each target position, per sentence."""
    out = []
    for picked, mask in obj.forced_log_probs(store, src_ids, tgt_ids, batch_size):
        for r, m in zip(np.exp(picked), mask):
            out.append([float(x) for x in r[: int(m.sum())]])
    return out


def _curve_from_probs(probs: list[list[float]], label: str, model_tag: str,
                      max_positions: int | None) -> UncertaintyCurve:
    width = max(len(p) for p in probs)
    if max_positions is not None:
        width = min(width, max_positions)
    positions, means, counts = [], [], []
    for t in range(width):
        vals = [p[t] for p in probs if len(p) > t]
        if not vals:
            break
        positions.append(t + 1)
        means.append(math.fsum(vals) / len(vals))  # exact, order-independent
        counts.append(len(vals))
    return UncertaintyCurve(label, model_tag, positions, means, counts)


def uncertainty_curves(store: sm.ParameterStore, vocab: sm.Vocabulary,
                       pairs: Sequence[dg.TokenPair],
                       distractor_pool: Sequence[Sequence[str]],
                       model_tag: str = "model",
                       max_positions: int | None = None,
                       seed: int = 0) -> UncertaintyResult:
    """Teacher-force each reference and a length-matched distractor drawn
    from `distractor_pool` on the same source; average forced-token
    probability by position."""
    if not pairs:
        raise ContractError("no sentence pairs to score")
    rng = np.random.default_rng([seed, STREAM_DISTRACTOR])
    assignment, exact = assign_distractors(
        [ref for _, ref in pairs], distractor_pool, rng)
    enc = dg.encode_corpus(vocab, pairs)
    src_ids = [s for s, _ in enc]
    ref_ids = [t for _, t in enc]
    dis_ids = [[sm.BOS_ID] + vocab.encode(distractor_pool[j]) + [sm.EOS_ID]
               for j in assignment]

    ref_probs = _forced_token_probs(store, src_ids, ref_ids)
    dis_probs = _forced_token_probs(store, src_ids, dis_ids)
    return UncertaintyResult(
        _curve_from_probs(ref_probs, "references", model_tag, max_positions),
        _curve_from_probs(dis_probs, "distractors", model_tag, max_positions),
        assignment, exact)


def write_curves_csv(path, curves: Sequence[UncertaintyCurve]) -> None:
    """Plot-ready long format: one row per (model, kind, position)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "mean_prob", "count", "label", "model_tag"])
        for c in curves:
            for t, m, n in zip(c.positions, c.mean_prob, c.counts):
                w.writerow([t, f"{m:.6f}", n, c.label, c.model_tag])


def write_assignment_csv(path, result: UncertaintyResult) -> None:
    """Record which pool sentence stood in for each reference."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pair_index", "pool_index", "exact_length"])
        for i, (j, hit) in enumerate(zip(result.assignment, result.exact_length)):
            w.writerow([i, j, int(hit)])


# ---------------------------------------------------------------------------
# beam sweep
# ---------------------------------------------------------------------------


@dataclass
class BeamSweepPoint:
    beam_size: int
    bleu: float
    hallucination_rate: float
    mean_overlap: float


def beam_sweep(store: sm.ParameterStore, vocab: sm.Vocabulary,
               pairs: Sequence[dg.TokenPair], spec: dg.DomainSpec,
               beam_sizes: Sequence[int] = DEFAULT_BEAM_SIZES,
               threshold: float = DEFAULT_OVERLAP_THRESHOLD,
               base_config: dec.DecodeConfig | None = None) -> list[BeamSweepPoint]:
    """Decode the corpus at each beam size; report pooled corpus BLEU and
    the hallucination rate at that width."""
    base = base_config or dec.DecodeConfig()
    return [sweep_point(k, judge_corpus(store, vocab, pairs, spec,
                                        dataclasses.replace(base, beam_size=k), threshold))
            for k in beam_sizes]


def sweep_point(beam_size: int,
                judgments: Sequence[HallucinationJudgment]) -> BeamSweepPoint:
    """The sweep point of judgments made on outputs decoded at `beam_size`."""
    summary = summarize_judgments(judgments)
    bleu = metrics.corpus_bleu([(j.hypothesis, j.reference) for j in judgments])
    return BeamSweepPoint(beam_size, bleu, summary.rate, summary.mean_overlap)


def write_sweep_csv(path, sweeps: dict[str, list[BeamSweepPoint]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["system", "k", "bleu", "hallucination_rate",
                    "mean_overlap"])
        for system, points in sweeps.items():
            for p in points:
                w.writerow([system, p.beam_size, f"{p.bleu:.6f}",
                            f"{p.hallucination_rate:.6f}", f"{p.mean_overlap:.6f}"])


def write_hallucination_csv(path, summaries: dict[tuple[str, str], HallucinationSummary]) -> None:
    """Rows keyed by (system, corpus)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["system", "corpus", "n", "fluent", "partially_fluent",
                    "hallucinated", "rate", "mean_overlap"])
        for (system, corpus), s in summaries.items():
            w.writerow([system, corpus, s.n, s.n_fluent, s.n_partially_fluent,
                        s.n_hallucinated, f"{s.rate:.6f}", f"{s.mean_overlap:.6f}"])

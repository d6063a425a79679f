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
import json
import math
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from . import datagen as dg
from . import decoding as dec
from . import metrics
from . import objectives as obj
from . import seqmodel as sm
from .errors import ContractError

OVERLAP_THRESHOLD = 0.2  # a hallucination holds less of its reference's content
DEFAULT_BEAM_SIZES = (1, 4, 50)
STREAM_DISTRACTOR = 5
GAP_FROM_POSITION = 3  # the certainty gap skips the first two forced tokens


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
    corpus_bleu: float


def adequacy_overlap(hyp_tokens: Sequence[str], ref_tokens: Sequence[str],
                     content: AbstractSet[str]) -> float:
    """Fraction of the reference's content-token types present in the
    hypothesis; `content` names the tokens that carry meaning."""
    ref_types = content & set(ref_tokens)
    if not ref_types:
        raise ContractError("reference has no content tokens")
    return len(ref_types & set(hyp_tokens)) / len(ref_types)


def judge_hypothesis(src: Sequence[str], ref: Sequence[str], hyp: Sequence[str],
                     spec: dg.DomainSpec) -> HallucinationJudgment:
    """A hallucination is output that looks like language but not like the
    input: (at least partially) fluent, yet carrying almost none of the
    expected content symbols.  Function symbols are excluded from the
    overlap since every well-formed sentence shares them."""
    fluent = dg.is_fluent(hyp, spec)
    partial = fluent or dg.is_partially_fluent(hyp, spec)
    overlap = adequacy_overlap(hyp, ref, spec.tgt_content)
    return HallucinationJudgment(
        list(src), list(ref), list(hyp), fluent, partial, overlap,
        partial and overlap < OVERLAP_THRESHOLD)


def judge_corpus(store: sm.ParameterStore, vocab: sm.Vocabulary,
                 pairs: Sequence[dg.TokenPair], spec: dg.DomainSpec,
                 config: dec.DecodeConfig) -> list[HallucinationJudgment]:
    """Beam-decode every source and judge its best hypothesis."""
    results = dec.beam_search_corpus(store, [vocab.encode(src) for src, _ in pairs], config)
    return [judge_hypothesis(src, ref, vocab.decode(hyps[0].tokens), spec)
            for (src, ref), hyps in zip(pairs, results)]


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
        corpus_bleu=metrics.corpus_bleu([(j.hypothesis, j.reference) for j in judgments]),
    )


def write_judgments_jsonl(path, judgments: Sequence[HallucinationJudgment]) -> None:
    """One JSON object per sentence; fluency is collapsed to a single label."""
    with sm.atomic_write(path, newline="\n") as fh:
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
    """Mean forced-token probability by position for one forced
    continuation kind under one model; `mean_prob[0]` is position 1."""

    label: str  # "references" | "distractors"
    model_tag: str
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

    def gap_mean(self) -> float:
        """Mean of (reference - distractor) certainty over shared positions
        at or past `GAP_FROM_POSITION`."""
        gaps = [r - d for r, d in zip(self.references.mean_prob,
                                      self.distractors.mean_prob)][GAP_FROM_POSITION - 1:]
        if not gaps:
            raise ContractError(f"no shared positions >= {GAP_FROM_POSITION}")
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


def _curve_from_probs(probs: list[list[float]], label: str,
                      model_tag: str) -> UncertaintyCurve:
    means, counts = [], []
    for t in range(max(len(p) for p in probs)):
        vals = [p[t] for p in probs if len(p) > t]
        means.append(math.fsum(vals) / len(vals))  # exact, order-independent
        counts.append(len(vals))
    return UncertaintyCurve(label, model_tag, means, counts)


def uncertainty_curves(store: sm.ParameterStore, vocab: sm.Vocabulary,
                       pairs: Sequence[dg.TokenPair],
                       distractor_pool: Sequence[Sequence[str]],
                       model_tag: str, seed: int) -> UncertaintyResult:
    """Teacher-force each reference and a length-matched distractor drawn
    from `distractor_pool` on the same source, both scored in one pass from
    one encoding of the source; average forced-token probability by
    position."""
    if not pairs:
        raise ContractError("no sentence pairs to score")
    rng = np.random.default_rng([seed, STREAM_DISTRACTOR])
    assignment, exact = assign_distractors(
        [ref for _, ref in pairs], distractor_pool, rng)
    enc = dg.encode_corpus(vocab, pairs)
    groups = [[ref, [sm.BOS_ID] + vocab.encode(distractor_pool[j]) + [sm.EOS_ID]]
              for (_, ref), j in zip(enc, assignment)]
    probs = []  # P(forced token) at each position: reference, distractor, reference, ...
    for picked, mask in obj.forced_log_probs(store, [s for s, _ in enc], groups, batch_size=64):
        probs.extend([float(x) for x in r[: int(m.sum())]] for r, m in zip(np.exp(picked), mask))
    return UncertaintyResult(
        _curve_from_probs(probs[0::2], "references", model_tag),
        _curve_from_probs(probs[1::2], "distractors", model_tag),
        assignment, exact)


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with sm.atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_curves_csv(path, curves: Sequence[UncertaintyCurve]) -> None:
    """Plot-ready long format: one row per (model, kind, position)."""
    _write_csv(path, ["t", "mean_prob", "count", "label", "model_tag"],
               ([t, f"{m:.6f}", n, c.label, c.model_tag] for c in curves
                for t, (m, n) in enumerate(zip(c.mean_prob, c.counts), start=1)))


def write_assignment_csv(path, result: UncertaintyResult) -> None:
    """Record which pool sentence stood in for each reference."""
    _write_csv(path, ["pair_index", "pool_index", "exact_length"],
               ([i, j, int(hit)] for i, (j, hit) in
                enumerate(zip(result.assignment, result.exact_length))))


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
               beam_sizes: Sequence[int]) -> list[BeamSweepPoint]:
    """Decode the corpus at each beam size, otherwise as `DecodeConfig()`;
    report pooled corpus BLEU and the hallucination rate at that width."""
    return [sweep_point(k, judge_corpus(store, vocab, pairs, spec, dec.DecodeConfig(beam_size=k)))
            for k in beam_sizes]


def sweep_point(beam_size: int,
                judgments: Sequence[HallucinationJudgment]) -> BeamSweepPoint:
    """The sweep point of judgments made on outputs decoded at `beam_size`."""
    summary = summarize_judgments(judgments)
    return BeamSweepPoint(beam_size, summary.corpus_bleu, summary.rate, summary.mean_overlap)


def write_sweep_csv(path, sweeps: dict[str, list[BeamSweepPoint]]) -> None:
    _write_csv(path, ["system", "k", "bleu", "hallucination_rate", "mean_overlap"],
               ([system, p.beam_size, f"{p.bleu:.6f}", f"{p.hallucination_rate:.6f}",
                 f"{p.mean_overlap:.6f}"] for system, points in sweeps.items() for p in points))


def write_hallucination_csv(path, summaries: dict[tuple[str, str], HallucinationSummary]) -> None:
    """Rows keyed by (system, corpus)."""
    _write_csv(path, ["system", "corpus", "n", "fluent", "partially_fluent",
                      "hallucinated", "rate", "mean_overlap"],
               ([system, corpus, s.n, s.n_fluent, s.n_partially_fluent, s.n_hallucinated,
                 f"{s.rate:.6f}", f"{s.mean_overlap:.6f}"]
                for (system, corpus), s in summaries.items()))

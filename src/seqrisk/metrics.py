"""Text-overlap and agreement statistics.

BLEU comes in two deliberately distinct flavours: a smoothed sentence-level
score used as the per-sample cost inside risk training, and an unsmoothed
pooled corpus score used for system comparison.  They are kept as separate
code paths because they disagree by design on short or partial matches.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import ContractError

Token = Hashable
BLEU_ORDER = 4  # n-gram orders 1..4 enter every BLEU score


def ngrams(tokens: Sequence[Token], order: int) -> Counter:
    """Multiset of n-grams of exactly `order` as tuples."""
    if order < 1:
        raise ContractError(f"n-gram order must be >= 1, got {order}")
    return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))


@functools.lru_cache(maxsize=16)
def _reference_ngrams(ref: tuple[Token, ...]) -> tuple[Counter, ...]:
    """The n-grams of orders 1..BLEU_ORDER of one reference, kept for the
    last few references: risk training costs all candidates of a source in
    a row, against the same reference.  Callers only read the counters."""
    return tuple(ngrams(ref, n) for n in range(1, BLEU_ORDER + 1))


@dataclass
class NGramCounts:
    """Clipped match and total counts per order, plus length bookkeeping.

    Addable, so corpus-level scores pool counts before taking precisions.
    """

    matches: list[int]
    totals: list[int]
    hyp_len: int
    ref_len: int

    @classmethod
    def from_pair(cls, hyp: Sequence[Token], ref: Sequence[Token]) -> "NGramCounts":
        matches, totals = [], []
        for n, ref_counts in enumerate(_reference_ngrams(tuple(ref)), start=1):
            hyp_counts = ngrams(hyp, n)
            totals.append(sum(hyp_counts.values()))
            matches.append(sum(min(c, ref_counts[g]) for g, c in hyp_counts.items()))
        return cls(matches, totals, len(hyp), len(ref))

    def __add__(self, other: "NGramCounts") -> "NGramCounts":
        return NGramCounts(
            [a + b for a, b in zip(self.matches, other.matches)],
            [a + b for a, b in zip(self.totals, other.totals)],
            self.hyp_len + other.hyp_len,
            self.ref_len + other.ref_len,
        )


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    """For hyp_len >= 1: both BLEU scores return 0 on an empty output first."""
    return min(1.0, math.exp(1.0 - ref_len / hyp_len))


def _geometric_mean(precisions: Sequence[float]) -> float:
    if any(p <= 0.0 for p in precisions):
        return 0.0
    return math.exp(sum(math.log(p) for p in precisions) / len(precisions))


def smoothed_sentence_bleu(hyp: Sequence[Token], ref: Sequence[Token]) -> float:
    """Sentence BLEU with add-one smoothing on orders >= 2.

    Unigram precision stays unsmoothed so a hypothesis sharing no tokens
    with the reference scores exactly zero; higher orders get +1 on both
    match and total counts so near misses stay comparable.  An empty
    hypothesis scores zero.
    """
    if len(hyp) == 0:
        return 0.0
    counts = NGramCounts.from_pair(hyp, ref)
    precisions = [counts.matches[0] / counts.totals[0]] + [
        (m + 1.0) / (t + 1.0) for m, t in zip(counts.matches[1:], counts.totals[1:])]
    return _brevity_penalty(counts.hyp_len, counts.ref_len) * _geometric_mean(precisions)


def corpus_bleu(pairs: Sequence[tuple[Sequence[Token], Sequence[Token]]]) -> float:
    """Pooled, unsmoothed corpus BLEU over (hypothesis, reference) pairs.

    Counts are summed across the corpus before precisions are taken; any
    pooled precision of zero zeroes the whole score.
    """
    if not pairs:
        raise ContractError("corpus_bleu needs at least one pair")
    pooled = NGramCounts.from_pair(*pairs[0])
    for hyp, ref in pairs[1:]:
        pooled = pooled + NGramCounts.from_pair(hyp, ref)
    precisions = []
    for n in range(BLEU_ORDER):
        if pooled.totals[n] == 0:
            return 0.0
        precisions.append(pooled.matches[n] / pooled.totals[n])
    return _brevity_penalty(pooled.hyp_len, pooled.ref_len) * _geometric_mean(precisions)


def cohen_kappa(observed_agreement: float, expected_agreement: float) -> float:
    """Chance-corrected agreement from raw and expected agreement rates."""
    for name, v in (("observed", observed_agreement), ("expected", expected_agreement)):
        if not 0.0 <= v <= 1.0:
            raise ContractError(f"{name} agreement must be in [0, 1], got {v}")
    if expected_agreement == 1.0:
        raise ContractError("kappa undefined when expected agreement is 1")
    return (observed_agreement - expected_agreement) / (1.0 - expected_agreement)


@dataclass
class ContingencyTable2x2:
    """Counts [[a, b], [c, d]]: rows are conditions, columns are outcomes."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not isinstance(v, numbers.Integral) or v < 0:  # math.comb takes integers only
                raise ContractError(f"table entries must be non-negative integers, got {v}")

    @classmethod
    def from_outcomes(cls, group_a: Sequence[bool], group_b: Sequence[bool]) -> "ContingencyTable2x2":
        return cls(
            sum(1 for x in group_a if x), sum(1 for x in group_a if not x),
            sum(1 for x in group_b if x), sum(1 for x in group_b if not x),
        )


def fisher_exact_two_tailed(table: ContingencyTable2x2) -> float:
    """Two-tailed Fisher's exact test on a 2x2 table.

    Sums the hypergeometric probabilities of all tables with the observed
    margins that are no more likely than the observed one.  Each table is
    weighed by the integer comb(row1, x) * comb(row2, col1 - x), so ties
    compare exactly, and the one division by comb(n, col1), correctly
    rounded, returns the float nearest the rational p.
    """
    row1, row2, col1 = table.a + table.b, table.c + table.d, table.a + table.c
    weights = (math.comb(row1, x) * math.comb(row2, col1 - x)
               for x in range(max(0, col1 - row2), min(row1, col1) + 1))
    observed = math.comb(row1, table.a) * math.comb(row2, table.c)
    return sum(w for w in weights if w <= observed) / math.comb(row1 + row2, col1)

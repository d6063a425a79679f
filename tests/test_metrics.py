"""Hand-worked values and independent oracles for the overlap and
agreement statistics."""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from seqrisk import metrics
from seqrisk.errors import ContractError


def fisher_oracle(a, b, c, d):
    """Exact-rational two-tailed Fisher probability by full enumeration."""
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    denom = comb(n, c1)

    def point(x):
        return Fraction(comb(r1, x) * comb(r2, c1 - x), denom)

    observed = point(a)
    lo, hi = max(0, c1 - r2), min(r1, c1)
    return sum((point(x) for x in range(lo, hi + 1) if point(x) <= observed),
               Fraction(0))


class TestNGrams:
    def test_counts(self):
        c = metrics.ngrams(list("abab"), 2)
        assert c[("a", "b")] == 2 and c[("b", "a")] == 1

    def test_order_longer_than_sequence_is_empty(self):
        assert not metrics.ngrams(["x"], 2)

    def test_order_zero_rejected(self):
        with pytest.raises(ContractError):
            metrics.ngrams(["x"], 0)

    def test_clipping(self):
        counts = metrics.NGramCounts.from_pair(list("aaa"), list("a"))
        assert counts.matches[0] == 1 and counts.totals[0] == 3


class TestSentenceBleu:
    def test_hand_worked_case(self):
        # precisions 3/4, 3/4, 2/3, 1/2 with unit brevity penalty
        got = metrics.smoothed_sentence_bleu(list("abcd"), list("abce"))
        assert got == pytest.approx((3 / 16) ** 0.25, abs=1e-12)
        assert got == pytest.approx(0.658, abs=1e-3)

    def test_empty_hypothesis_scores_zero(self):
        assert metrics.smoothed_sentence_bleu([], list("abc")) == 0.0

    def test_no_unigram_overlap_scores_zero(self):
        assert metrics.smoothed_sentence_bleu(list("xyz"), list("abc")) == 0.0

    def test_perfect_match_scores_one(self):
        assert metrics.smoothed_sentence_bleu(list("abcde"), list("abcde")) == 1.0
        assert metrics.smoothed_sentence_bleu(list("ab"), list("ab")) == 1.0

    def test_brevity_penalty(self):
        # identical prefix, half length: all precisions 1, BP = e^(1 - 2)
        got = metrics.smoothed_sentence_bleu(list("ab"), list("abcd"))
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_long_hypothesis_has_no_bonus(self):
        short = metrics.smoothed_sentence_bleu(list("abcd"), list("abcd"))
        long = metrics.smoothed_sentence_bleu(list("abcdxy"), list("abcd"))
        assert short == 1.0 and long < 1.0

    def test_score_in_unit_interval(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcdefg")
        for _ in range(200):
            hyp = [alphabet[i] for i in rng.integers(0, 7, rng.integers(0, 9))]
            ref = [alphabet[i] for i in rng.integers(0, 7, rng.integers(1, 9))]
            s = metrics.smoothed_sentence_bleu(hyp, ref)
            assert 0.0 <= s <= 1.0


class TestCorpusBleu:
    def test_unsmoothed_zeroing_differs_from_sentence_score(self):
        # the same pair scores 0.658 sentence-level but 0 corpus-level,
        # because the pooled 4-gram precision is exactly zero
        pair = (list("abcd"), list("abce"))
        assert metrics.smoothed_sentence_bleu(*pair) > 0.6
        assert metrics.corpus_bleu([pair]) == 0.0

    def test_identical_corpus_scores_one(self):
        pairs = [(list("abcd"), list("abcd")), (list("efgh"), list("efgh"))]
        assert metrics.corpus_bleu(pairs) == 1.0

    def test_pooling_is_not_averaging(self):
        # one perfect long pair plus one disjoint pair: pooled counts keep
        # the score positive, the arithmetic mean of sentence scores differs
        good = (list("abcdefgh"), list("abcdefgh"))
        bad = (list("xyzw"), list("qrst"))
        pooled = metrics.corpus_bleu([good, bad])
        mean_sent = np.mean([metrics.smoothed_sentence_bleu(*good),
                             metrics.smoothed_sentence_bleu(*bad)])
        assert pooled > 0.0
        assert pooled != pytest.approx(float(mean_sent))

    def test_duplicating_the_corpus_keeps_the_score(self):
        pairs = [(list("abcdx"), list("abcdy")), (list("abcde"), list("abcde"))]
        once = metrics.corpus_bleu(pairs)
        twice = metrics.corpus_bleu(pairs * 2)
        assert once == pytest.approx(twice, rel=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            metrics.corpus_bleu([])


class TestKappa:
    # published agreement/expected/kappa triplets, reproduced within 0.02
    TABLE = [
        (0.66, 0.38, 0.44),
        (0.82, 0.61, 0.54),
        (0.87, 0.42, 0.77),
        (0.93, 0.66, 0.79),
    ]

    def test_published_triplets(self):
        for p_a, p_e, want in self.TABLE:
            assert metrics.cohen_kappa(p_a, p_e) == pytest.approx(want, abs=0.02)

    def test_chance_level_is_zero(self):
        assert metrics.cohen_kappa(0.4, 0.4) == 0.0

    def test_perfect_agreement_is_one(self):
        assert metrics.cohen_kappa(1.0, 0.3) == 1.0

    def test_undefined_at_expected_one(self):
        with pytest.raises(ContractError):
            metrics.cohen_kappa(1.0, 1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            metrics.cohen_kappa(1.2, 0.5)
        with pytest.raises(ContractError):
            metrics.cohen_kappa(0.5, -0.1)


class TestFisher:
    def test_hand_worked_diagonal(self):
        table = metrics.ContingencyTable2x2(2, 0, 0, 2)
        assert metrics.fisher_exact_two_tailed(table) == 1 / 3

    def test_balanced_table_is_one(self):
        table = metrics.ContingencyTable2x2(5, 5, 5, 5)
        assert metrics.fisher_exact_two_tailed(table) == 1.0

    def test_all_zero_table_is_one(self):
        assert metrics.fisher_exact_two_tailed(
            metrics.ContingencyTable2x2(0, 0, 0, 0)) == 1.0

    @pytest.mark.parametrize("a, b, c, d", [
        (5, 5, 4, 6), (5, 5, 5, 5),  # every table as likely as another: p is exactly 1
        (78, 322, 62, 338)])         # 400 outcomes against 400
    def test_equals_the_oracle_on_ties_and_large_margins(self, a, b, c, d):
        got = metrics.fisher_exact_two_tailed(metrics.ContingencyTable2x2(a, b, c, d))
        assert got == float(fisher_oracle(a, b, c, d))

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a, b, c, d = (int(x) for x in rng.integers(0, 16, size=4))
            got = metrics.fisher_exact_two_tailed(
                metrics.ContingencyTable2x2(a, b, c, d))
            assert got == float(fisher_oracle(a, b, c, d)), (a, b, c, d)

    def test_symmetries(self):
        table = metrics.ContingencyTable2x2(7, 2, 3, 9)
        p = metrics.fisher_exact_two_tailed(table)
        for other in [metrics.ContingencyTable2x2(3, 9, 7, 2),   # swap rows
                      metrics.ContingencyTable2x2(2, 7, 9, 3),   # swap cols
                      metrics.ContingencyTable2x2(7, 3, 2, 9)]:  # transpose
            assert metrics.fisher_exact_two_tailed(other) == p

    def test_rejects_negative_and_fractional_entries(self):
        with pytest.raises(ContractError):
            metrics.ContingencyTable2x2(-1, 0, 0, 0)
        with pytest.raises(ContractError):
            metrics.ContingencyTable2x2(1.5, 0, 0, 0)
        with pytest.raises(ContractError):
            metrics.ContingencyTable2x2(2.0, 0, 0, 0)

    def test_from_outcomes(self):
        table = metrics.ContingencyTable2x2.from_outcomes(
            [True, True, False], [False, False, False, True])
        assert (table.a, table.b, table.c, table.d) == (2, 1, 1, 3)

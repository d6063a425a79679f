"""Diagnostic wiring: judgment logic, distractor pairing, curve and sweep
outputs."""

import csv
import json

import numpy as np
import pytest

from seqrisk import analysis as an
from seqrisk import datagen as dg
from seqrisk import decoding as dec
from seqrisk import metrics
from seqrisk import objectives as obj
from seqrisk import seqmodel as sm
from seqrisk.errors import ContractError


def small_spec():
    return dg.DomainSpec(n_function=3, n_base_content=6, n_novel_content=4,
                         min_chunks=1, max_chunks=3)


def trained_setup(epochs=12, n_train=60, seed=0):
    spec = small_spec()
    vocab = dg.build_vocabulary(spec)
    pairs = dg.generate_corpus(spec, n_train, np.random.default_rng(seed))
    store = sm.ParameterStore.init(
        sm.ModelConfig(vocab_size=len(vocab), embed_dim=16, num_heads=2,
                       enc_layers=1, dec_layers=1, ffn_dim=32,
                       dropout_rate=0.1, max_seq_len=16), seed)
    obj.train_mle(store, dg.encode_corpus(vocab, pairs),
                  obj.MLEConfig(epochs=epochs, tokens_per_batch=128, peak_lr=0.02,
                                warmup_steps=20), seed=seed)
    return spec, vocab, pairs, store


class TestAdequacyOverlap:
    def test_type_level_fraction(self):
        content = {"a", "b", "c", "x"}
        assert an.adequacy_overlap(["a", "a", "b"], ["a", "b", "c"], content) == pytest.approx(2 / 3)
        assert an.adequacy_overlap([], ["a"], content) == 0.0
        assert an.adequacy_overlap(["a", "b"], ["b", "a"], content) == 1.0
        assert an.adequacy_overlap(["x"], ["a", "b"], content) == 0.0

    def test_content_filter_ignores_function_tokens(self):
        # hyp shares only the function token; content overlap must be zero
        assert an.adequacy_overlap(["f", "x"], ["f", "a", "b"],
                                   content={"a", "b", "x"}) == 0.0
        assert an.adequacy_overlap(["f", "a"], ["f", "a", "b"],
                                   content={"a", "b"}) == pytest.approx(0.5)

    def test_empty_reference_rejected(self):
        with pytest.raises(ContractError):
            an.adequacy_overlap(["a"], [], content={"a"})
        with pytest.raises(ContractError):
            an.adequacy_overlap(["a"], ["f"], content={"a"})


class TestJudgment:
    def test_fluent_but_unrelated_is_hallucination(self):
        spec = small_spec()
        ref = ["tf0", "tb0", "tf1", "tb1"]
        hyp = ["tf2", "tb4", "tf2", "tb5"]  # parses, shares nothing
        j = an.judge_hypothesis(["sf0", "sb0"], ref, hyp, spec)
        assert j.fluent and j.partially_fluent
        assert j.overlap == 0.0
        assert j.hallucinated

    def test_garbage_is_not_hallucination(self):
        spec = small_spec()
        ref = ["tf0", "tb0"]
        hyp = ["sb0", "sb1", "sb2"]  # no parse, no overlap
        j = an.judge_hypothesis(["sf0", "sb0"], ref, hyp, spec)
        assert not j.fluent and not j.partially_fluent
        assert not j.hallucinated

    def test_adequate_output_is_not_hallucination(self):
        spec = small_spec()
        ref = ["tf0", "tb0", "tf1", "tb1"]
        j = an.judge_hypothesis(["sf0", "sb0"], ref, list(ref), spec)
        assert j.fluent and j.overlap == 1.0 and not j.hallucinated

    def test_partial_fluency_counts(self):
        spec = small_spec()
        ref = ["tf0", "tb0", "tf1", "tb1"]
        # long, mostly parsing output with one broken tail token
        hyp = ["tf2", "tb4", "tf2", "tb5", "tb4", "tf2", "sb0"]
        j = an.judge_hypothesis(["sf0", "sb0"], ref, hyp, spec)
        assert not j.fluent and j.partially_fluent
        assert j.hallucinated

    def test_threshold_is_strict(self):
        spec = small_spec()
        ref = ["tf0", "tb0", "tb1", "tf1", "tb2", "tb3", "tf2", "tb4"]  # 5 content types
        hyp = ["tf0", "tb0", "tf1", "tb5"]  # shares 1 of the 5
        j = an.judge_hypothesis(["sf0"], ref, hyp, spec)
        assert j.overlap == pytest.approx(0.2)
        assert not j.hallucinated  # 0.2 is not < 0.2

    def test_overlap_counts_content_only(self):
        spec = small_spec()
        ref = ["tf0", "tb0", "tf1", "tb1"]
        hyp = ["tf0", "tb4", "tf1", "tb5"]  # same function tokens, new content
        j = an.judge_hypothesis(["sf0", "sb0"], ref, hyp, spec)
        assert j.overlap == 0.0
        assert j.hallucinated

    def test_summary_counts(self):
        spec = small_spec()
        ref = ["tf0", "tb0"]
        js = [
            an.judge_hypothesis(["sf0"], ref, ["tf2", "tb4"], spec),  # hallucinated
            an.judge_hypothesis(["sf0"], ref, list(ref), spec),       # adequate
            an.judge_hypothesis(["sf0"], ref, ["sb0"], spec),         # garbage
        ]
        s = an.summarize_judgments(js)
        assert (s.n, s.n_hallucinated) == (3, 1)
        assert s.rate == pytest.approx(1 / 3)
        assert s.corpus_bleu == metrics.corpus_bleu([(j.hypothesis, j.reference) for j in js])
        with pytest.raises(ContractError):
            an.summarize_judgments([])


class TestDistractorAssignment:
    def test_exact_length_match(self):
        refs = [["a", "b"], ["c", "d", "e"], ["f", "g"]]
        pool = [["p", "q"], ["r", "s", "t"], ["u", "v"]]
        assignment, exact = an.assign_distractors(
            refs, pool, np.random.default_rng(0))
        assert all(exact)
        for ref, j in zip(refs, assignment):
            assert len(pool[j]) == len(ref)

    def test_uniform_draw_covers_group(self):
        refs = [["a", "b"]] * 200
        pool = [["p", "q"], ["r", "s"], ["t", "u"]]
        assignment, _ = an.assign_distractors(refs, pool, np.random.default_rng(1))
        assert set(assignment) == {0, 1, 2}

    def test_nearest_length_fallback_ties_to_shorter(self):
        refs = [["a", "b", "c"]]
        pool = [["p", "q"], ["r", "s", "t", "u"]]  # lengths 2 and 4, want 3
        assignment, exact = an.assign_distractors(
            refs, pool, np.random.default_rng(0))
        assert assignment == [0]  # the tie goes to length 2
        assert exact == [False]

    def test_nearest_length_fallback_prefers_closer(self):
        refs = [["a"] * 5]
        pool = [["p", "q"], ["r", "s", "t", "u"]]
        assignment, exact = an.assign_distractors(
            refs, pool, np.random.default_rng(0))
        assert assignment == [1]
        assert exact == [False]

    def test_empty_pool_rejected(self):
        with pytest.raises(ContractError):
            an.assign_distractors([["a"]], [], np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        refs = [["a", "b"], ["c", "d"]] * 5
        pool = [list("xy"), list("zw"), list("uv")]
        first = an.assign_distractors(refs, pool, np.random.default_rng(7))
        second = an.assign_distractors(refs, pool, np.random.default_rng(7))
        assert first == second


class TestCurves:
    def test_curve_shapes_and_ranges(self):
        spec, vocab, pairs, store = trained_setup(epochs=2)
        pool = [tgt for _, tgt in pairs[30:60]]
        result = an.uncertainty_curves(store, vocab, pairs[:30], pool, "m", 0)
        for curve in (result.references, result.distractors):
            assert len(curve.mean_prob) == len(curve.counts)
            assert all(0.0 <= v <= 1.0 for v in curve.mean_prob)
            assert all(c > 0 for c in curve.counts)
            assert curve.counts == sorted(curve.counts, reverse=True)
        assert len(result.assignment) == 30

    def test_trained_model_prefers_reference(self):
        spec, vocab, pairs, store = trained_setup(epochs=12)
        pool = [tgt for _, tgt in pairs[40:60]]
        result = an.uncertainty_curves(store, vocab, pairs[:40], pool, "m", 0)
        mean_ref = float(np.mean(result.references.mean_prob))
        mean_dis = float(np.mean(result.distractors.mean_prob))
        assert mean_ref > mean_dis

    def test_degenerate_pool_gives_identical_curves(self):
        spec, vocab, pairs, store = trained_setup(epochs=1, n_train=30)
        src, ref = pairs[0]
        result = an.uncertainty_curves(store, vocab, [(src, ref)], [ref], "m", 0)
        assert result.references.mean_prob == result.distractors.mean_prob
        assert result.assignment == [0] and result.exact_length == [True]

    def test_encodes_each_source_once(self, monkeypatch):
        # the reference and the distractor of a source read one encoding of it
        spec, vocab, pairs, store = trained_setup(epochs=1, n_train=64)
        real, encoded = sm.encode_rows, []

        def counting(store, src, rng=None):
            encoded.append(src.pad.shape[0])
            return real(store, src, rng)

        monkeypatch.setattr(sm, "encode_rows", counting)
        an.uncertainty_curves(store, vocab, pairs, [tgt for _, tgt in pairs], "m", 0)
        assert encoded == [64]

    def test_reference_curve_is_order_invariant(self):
        spec, vocab, pairs, store = trained_setup(epochs=1, n_train=40)
        pool = [tgt for _, tgt in pairs[20:40]]
        forward = an.uncertainty_curves(store, vocab, pairs[:20], pool, "m", 0)
        backward = an.uncertainty_curves(store, vocab, pairs[:20][::-1], pool, "m", 0)
        assert forward.references.mean_prob == backward.references.mean_prob
        assert forward.references.counts == backward.references.counts

    def test_gap_mean_starts_at_position_3(self):
        refs = an.UncertaintyCurve("references", "m", [0.9, 0.8, 0.7, 0.6], [10, 10, 10, 10])
        dis = an.UncertaintyCurve("distractors", "m", [0.5, 0.5, 0.5, 0.1], [10, 10, 10, 10])
        result = an.UncertaintyResult(refs, dis, [0] * 10, [True] * 10)
        assert an.GAP_FROM_POSITION == 3
        assert result.gap_mean() == pytest.approx((0.2 + 0.5) / 2)
        short = an.UncertaintyCurve("references", "m", [0.9, 0.8], [10, 10])
        with pytest.raises(ContractError, match="no shared positions >= 3"):
            an.UncertaintyResult(short, dis, [0] * 10, [True] * 10).gap_mean()

    def test_csv_output(self, tmp_path):
        refs = an.UncertaintyCurve("references", "mle", [0.9, 0.8], [3, 3])
        dis = an.UncertaintyCurve("distractors", "mle", [0.5, 0.4], [3, 3])
        path = tmp_path / "curves.csv"
        an.write_curves_csv(path, [refs, dis])
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["t", "mean_prob", "count", "label", "model_tag"]
        assert len(rows) == 1 + 4
        assert rows[1] == ["1", "0.900000", "3", "references", "mle"]

    def test_assignment_csv(self, tmp_path):
        refs = an.UncertaintyCurve("references", "m", [0.9], [2])
        dis = an.UncertaintyCurve("distractors", "m", [0.5], [2])
        result = an.UncertaintyResult(refs, dis, [3, 1], [True, False])
        an.write_assignment_csv(tmp_path / "a.csv", result)
        rows = list(csv.reader(open(tmp_path / "a.csv")))
        assert rows[0] == ["pair_index", "pool_index", "exact_length"]
        assert rows[1:] == [["0", "3", "1"], ["1", "1", "0"]]


class TestSweepAndFiles:
    def test_beam_sweep_points(self):
        spec, vocab, pairs, store = trained_setup(epochs=2, n_train=40)
        points = an.beam_sweep(store, vocab, pairs[:10], spec, (1, 2))
        assert [p.beam_size for p in points] == [1, 2]
        for p in points:
            assert 0.0 <= p.bleu <= 1.0
            assert 0.0 <= p.hallucination_rate <= 1.0

    def test_judge_corpus_shapes(self):
        spec, vocab, pairs, store = trained_setup(epochs=1, n_train=30)
        judgments = an.judge_corpus(store, vocab, pairs[:5], spec, dec.DecodeConfig())
        assert [(j.source, j.reference) for j in judgments] == pairs[:5]
        assert all(isinstance(j.hypothesis, list) for j in judgments)

    def test_judgments_jsonl(self, tmp_path):
        spec = small_spec()
        ref = ["tf0", "tb0"]
        js = [an.judge_hypothesis(["sf0"], ref, ["tf2", "tb4"], spec)]
        path = tmp_path / "j.jsonl"
        an.write_judgments_jsonl(path, js)
        rows = [json.loads(line) for line in open(path)]
        assert rows[0]["is_hallucination"] is True
        assert rows[0]["fluency"] in ("fluent", "partial", "disfluent")
        assert rows[0]["reference"] == ref

    def test_sweep_and_summary_csv(self, tmp_path):
        points = [an.BeamSweepPoint(1, 0.5, 0.1, 0.8)]
        an.write_sweep_csv(tmp_path / "s.csv", {"mle": points})
        rows = list(csv.reader(open(tmp_path / "s.csv")))
        assert rows[0] == ["system", "k", "bleu", "hallucination_rate",
                           "mean_overlap"]
        assert len(rows) == 2 and rows[1][0] == "mle"

        summary = an.HallucinationSummary(10, 8, 9, 2, 0.2, 0.7, 0.4)
        an.write_hallucination_csv(tmp_path / "h.csv", {("mle", "test_ood"): summary})
        rows = list(csv.reader(open(tmp_path / "h.csv")))
        assert len(rows) == 2 and rows[1][:2] == ["mle", "test_ood"]

"""Decoding contracts: greedy/beam agreement, determinism, scoring
consistency, and sampler behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqrisk import decoding as dec
from seqrisk import objectives as obj
from seqrisk import seqmodel as sm
from seqrisk.errors import ContractError


def make_store(seed=0, vocab=20, max_seq_len=12):
    cfg = sm.ModelConfig(vocab_size=vocab, embed_dim=16, num_heads=2,
                         enc_layers=1, dec_layers=1, ffn_dim=24,
                         dropout_rate=0.0, max_seq_len=max_seq_len)
    return sm.ParameterStore.init(cfg, seed)


def sample_one(store, src, rng):
    """One ancestral sample for one source: ids with BOS (and EOS if drawn)."""
    return dec.sample_decode_batch(store, np.asarray([src]), 1, rng)[0][0]


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ContractError):
            dec.DecodeConfig(beam_size=0)
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(ContractError, match="length_norm_alpha"):
                dec.DecodeConfig(length_norm_alpha=alpha)

    def test_refuses_a_beam_wider_than_one_decoder_holds(self):
        assert dec.DecodeConfig(beam_size=sm.MAX_LIVE_ROWS).beam_size == 256
        with pytest.raises(ContractError, match=r"beam_size must be in \[1, 256\], got 257"):
            dec.DecodeConfig(beam_size=sm.MAX_LIVE_ROWS + 1)

    def test_length_penalty(self):
        assert dec.length_penalty(1, 1.0) == 1.0
        assert dec.length_penalty(7, 1.0) == 2.0
        assert dec.length_penalty(7, 0.0) == 1.0
        assert dec.length_penalty(7, 2.0) == 4.0


class TestBeamSearch:
    def test_beam_one_equals_greedy(self):
        # two separately written loops must produce the same path, also when
        # the cap cuts it: at either cap, every seed but 4 never draws EOS
        capped = []
        for max_seq_len, seed in [(cap, seed) for cap in (12, 5) for seed in range(6)]:
            store = make_store(seed, max_seq_len=max_seq_len)
            src = [4 + seed, 5, 6]
            beam = dec.beam_search(store, src, dec.DecodeConfig(beam_size=1))[0]
            greedy = dec.greedy_decode(store, src)
            assert beam.tokens == greedy.tokens, f"seed {seed}"
            assert beam.total_log_prob == pytest.approx(
                greedy.total_log_prob, abs=1e-5)
            assert beam.finished == greedy.finished == (greedy.tokens[-1] == sm.EOS_ID)
            if not greedy.finished:
                assert len(greedy.tokens) == max_seq_len
                capped.append((max_seq_len, seed))
        assert capped == [(cap, seed) for cap in (12, 5) for seed in (0, 1, 2, 3, 5)]

    def test_results_sorted_by_normalized_score(self):
        store = make_store(1)
        hyps = dec.beam_search(store, [4, 5], dec.DecodeConfig(beam_size=5))
        scores = [h.normalized_score for h in hyps]
        assert scores == sorted(scores, reverse=True)
        assert 1 <= len(hyps) <= 5

    def test_deterministic(self):
        store = make_store(2)
        a = dec.beam_search(store, [4, 5, 6], dec.DecodeConfig(beam_size=4))
        b = dec.beam_search(store, [4, 5, 6], dec.DecodeConfig(beam_size=4))
        assert [h.tokens for h in a] == [h.tokens for h in b]
        assert [h.total_log_prob for h in a] == [h.total_log_prob for h in b]

    def test_respects_length_cap(self):
        # the model's max_seq_len is the cap; beams still open there close as-is
        store = make_store(3, max_seq_len=5)
        hyps = dec.beam_search(store, [4], dec.DecodeConfig(beam_size=3))
        assert any(not h.finished for h in hyps)
        for h in hyps:
            assert h.tokens[0] == sm.BOS_ID
            assert len(h.tokens) <= 5
            assert h.finished or len(h.tokens) == 5

    def test_never_proposes_pad_or_bos(self):
        for seed in range(4):
            store = make_store(seed + 10)
            for h in dec.beam_search(store, [4, 5], dec.DecodeConfig(beam_size=4)):
                body = h.tokens[1:]
                assert sm.PAD_ID not in body and sm.BOS_ID not in body

    def test_total_matches_teacher_forced_score(self):
        # the summed step scores must equal rescoring the final sequence
        store = make_store(5)
        hyps = dec.beam_search(store, [4, 5, 6], dec.DecodeConfig(beam_size=3))
        (picked, mask), = obj.forced_log_probs(store, [[4, 5, 6]],
                                               [[h.tokens for h in hyps]], 1)
        for h, row, scored in zip(hyps, picked, mask):
            assert int(scored.sum()) == len(h.tokens) - 1
            assert float(row.sum()) == pytest.approx(h.total_log_prob, abs=1e-4)

    def test_normalization_uses_length_penalty(self):
        store = make_store(6)
        for h in dec.beam_search(store, [4, 5],
                                 dec.DecodeConfig(beam_size=3, length_norm_alpha=1.0)):
            lp = dec.length_penalty(len(h.tokens) - 1, 1.0)
            assert h.normalized_score == pytest.approx(h.total_log_prob / lp, rel=1e-6)


def table_step_fn(table, vocab=6):
    """Next-token scorer from a dict of prefix -> {id: prob}; zero-mass ids
    get a large negative log-probability, like a masked softmax row."""
    def step(prefixes):
        rows = []
        for p in prefixes:
            dist = table[tuple(p)]
            rows.append([np.log(dist[i]) if dist.get(i, 0.0) > 0 else -1e9
                         for i in range(vocab)])
        return np.asarray(rows)
    return step


class TestBeamOverFixedTable:
    # explicit conditionals: ids 4/5 are words, 2 is EOS
    TABLE = {
        (1,): {4: 0.5, 5: 0.4, 2: 0.1},
        (1, 4): {2: 0.9, 4: 0.05, 5: 0.05},
        (1, 5): {2: 0.12, 4: 0.6, 5: 0.28},
    }

    def test_two_step_search_is_hand_checkable(self):
        hyps = dec.beam_search_steps(table_step_fn(self.TABLE), max_len=3,
                                     config=dec.DecodeConfig(beam_size=2,
                                                             length_norm_alpha=1.0))
        assert [h.tokens for h in hyps] == [[1, 4, 2], [1, 5, 4]]
        assert hyps[0].total_log_prob == pytest.approx(np.log(0.5 * 0.9))
        assert hyps[0].finished and not hyps[1].finished
        lp = dec.length_penalty(2, 1.0)
        assert hyps[0].normalized_score == pytest.approx(np.log(0.45) / lp)

    def test_beam_one_takes_argmax_path(self):
        hyps = dec.beam_search_steps(table_step_fn(self.TABLE), max_len=3,
                                     config=dec.DecodeConfig(beam_size=1))
        assert [h.tokens for h in hyps] == [[1, 4, 2]]

    def test_short_cap_closes_open_beams(self):
        hyps = dec.beam_search_steps(table_step_fn(self.TABLE), max_len=2,
                                     config=dec.DecodeConfig(beam_size=2))
        assert [h.tokens for h in hyps] == [[1, 4], [1, 5]]
        assert not any(h.finished for h in hyps)

    def test_rejects_degenerate_cap(self):
        with pytest.raises(ContractError):
            dec.beam_search_steps(table_step_fn(self.TABLE), max_len=1)


def reference_beam(step_fn, max_len, config):
    """The per-row loop the batched core replaced: argsort each row, pool
    every row's k best continuations, sort the pool on (-total, ids)."""
    k, alpha = config.beam_size, config.length_norm_alpha
    live, finished = [(0.0, [sm.BOS_ID])], []
    while live:
        rows = np.asarray(step_fn([t for _, t in live]))
        candidates = []
        for (total, toks), row in zip(live, rows):
            taken = 0
            for tok_id in np.argsort(-row, kind="stable"):
                tok_id = int(tok_id)
                if tok_id in dec.BANNED_CONTINUATIONS:
                    continue
                candidates.append((total + float(row[tok_id]), toks + [tok_id]))
                taken += 1
                if taken >= k:
                    break
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for total, toks in candidates[:k]:
            if toks[-1] == sm.EOS_ID or len(toks) >= max_len:
                lp = dec.length_penalty(len(toks) - 1, alpha)
                finished.append(dec.Hypothesis(toks, total, total / lp,
                                               toks[-1] == sm.EOS_ID))
            else:
                live.append((total, toks))
        if len(finished) >= k:
            break
        if finished and live:
            best_done = max(h.normalized_score for h in finished)
            bound = max(max(t / dec.length_penalty(max_len - 1, alpha),
                            t / dec.length_penalty(len(toks) - 1, alpha))
                        for t, toks in live)
            if bound <= best_done:
                break
    finished.sort(key=lambda h: (-h.normalized_score, h.tokens))
    return finished[:k]


def tied_table(seed, source, vocab):
    """Deterministic scorer whose log-probs are small multiples of -log 2,
    so equal scores, and equal totals on different prefixes, are common."""
    def row(prefix):
        levels = np.random.default_rng([seed, source, *prefix]).integers(1, 4, vocab)
        return -np.log(2.0) * levels

    return lambda prefixes: np.asarray([row(p) for p in prefixes])


class TestBatchedBeamCore:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 5), vocab=st.integers(5, 8),
           max_len=st.integers(2, 5), k=st.sampled_from([1, 4, 50]),
           alpha=st.sampled_from([0.0, 0.6, 1.0]))
    def test_batch_equals_separate_searches(self, seed, n, vocab, max_len, k, alpha):
        config = dec.DecodeConfig(beam_size=k, length_norm_alpha=alpha)
        tables = [tied_table(seed, s, vocab) for s in range(n)]
        owner = np.arange(n)

        def advance(parents, seqs):
            nonlocal owner
            owner = owner[parents]
            return np.concatenate([tables[o]([s]) for o, s in zip(owner, seqs.tolist())])

        batched = dec._beam_core(advance, n, max_len, config)
        for table, got in zip(tables, batched):
            want = reference_beam(table, max_len, config)
            assert got == want
            assert dec.beam_search_steps(table, max_len, config) == want

    def test_corpus_call_equals_per_source_calls(self):
        store = make_store(4)
        sources = [[4, 5, 6], [7], [8, 9, 10, 11, 12], [4, 4]]
        for k in (1, 3):
            config = dec.DecodeConfig(beam_size=k)
            batched = dec.beam_search_corpus(store, sources, config)
            assert all(batched)  # every source ends with a finished hypothesis
            for src, got in zip(sources, batched):
                alone = dec.beam_search(store, src, config)
                assert [h.tokens for h in got] == [h.tokens for h in alone]
                assert [h.total_log_prob for h in got] == pytest.approx(
                    [h.total_log_prob for h in alone], abs=1e-5)


class TestSampling:
    def test_deterministic_given_rng(self):
        store = make_store(7)
        a = sample_one(store, [4, 5], np.random.default_rng(3))
        b = sample_one(store, [4, 5], np.random.default_rng(3))
        assert a == b

    def test_varies_across_draws(self):
        store = make_store(7)
        rng = np.random.default_rng(3)
        draws = {tuple(sample_one(store, [4, 5], rng)) for _ in range(8)}
        assert len(draws) > 1

    def test_shape_and_termination(self):
        store = make_store(8)
        groups = dec.sample_decode_batch(
            store, np.array([[4, 5], [6, 7]]), 3, np.random.default_rng(0))
        assert len(groups) == 2 and all(len(g) == 3 for g in groups)
        for group in groups:
            for seq in group:
                assert seq[0] == sm.BOS_ID
                assert len(seq) >= 2
                assert len(seq) <= store.config.max_seq_len
                body = seq[1:]
                assert sm.PAD_ID not in body and sm.BOS_ID not in body
                assert sm.EOS_ID not in body[:-1]  # EOS only terminal

    def test_draws_one_uniform_per_sequence_and_step(self):
        store = make_store(8)
        rng = np.random.default_rng(5)
        groups = dec.sample_decode_batch(store, np.array([[4, 5], [6, 7]]), 3, rng)
        steps = max(len(seq) for group in groups for seq in group) - 1
        reference = np.random.default_rng(5)
        reference.random(steps * 6)
        assert rng.random() == reference.random()

    def test_draw_above_a_short_cdf_takes_no_zero_mass_id(self, monkeypatch):
        # ids 3-6 carry all the mass, and their float32 cdf ends one ulp below 1
        row = np.full(8, -200.0, dtype=np.float32)
        row[3:7] = [-0.45772582, 0.22019513, -1.0096182, -0.20917557]
        monkeypatch.setattr(sm.IncrementalDecoder, "step",
                            lambda self, parents, tokens: np.tile(row, (len(tokens), 1)))

        class TopDraws:  # every draw is 1.0, above that cdf's total
            def random(self, n):
                return np.zeros(n)

        store = make_store(vocab=8, max_seq_len=4)
        assert dec.sample_decode_batch(store, np.array([[4, 5]]), 1, TopDraws()) == [[[1, 6, 6, 6]]]


class TestScoreSequence:
    def test_matches_stepwise_scores(self):
        # forced scores of each gold token equal the incremental decoder's
        store = make_store(11)
        src = [4, 5, 6]
        tgt = [sm.BOS_ID, 7, 8, 9, sm.EOS_ID]
        (picked, mask), = obj.forced_log_probs(store, [src], [[tgt]], 1)
        assert mask.tolist() == [[True] * (len(tgt) - 1)]
        state = sm.IncrementalDecoder(store, np.asarray([src]))
        for i in range(1, len(tgt)):
            row = state.step(None, [tgt[i - 1]])[0]
            assert picked[0, i - 1] == pytest.approx(float(row[tgt[i]]), abs=1e-5)

"""Objective contracts: label smoothing identities, risk worked examples,
the analytic risk gradient, optimizer math, and loop determinism."""

import csv
import math

import numpy as np
import pytest

from seqrisk import datagen as dg
from seqrisk import decoding as dec
from seqrisk import metrics
from seqrisk import numkit as nk
from seqrisk import objectives as obj
from seqrisk import seqmodel as sm
from seqrisk.errors import ContractError, NumericsError


def make_store(seed=0, vocab=20, dropout=0.0, dtype=None):
    cfg = sm.ModelConfig(vocab_size=vocab, embed_dim=16, num_heads=2,
                         enc_layers=1, dec_layers=1, ffn_dim=24,
                         dropout_rate=dropout, max_seq_len=12)
    return sm.ParameterStore.init(cfg, seed, dtype)


def uniform_store(vocab=20):
    """All parameters zeroed: the output distribution is exactly uniform."""
    store = make_store(vocab=vocab)
    for _, t in store.items():
        t.data[...] = 0.0
    return store


def tiny_corpus(n=24, seed=0):
    spec = dg.DomainSpec(n_function=3, n_base_content=6, n_novel_content=2,
                         min_chunks=1, max_chunks=2)
    vocab = dg.build_vocabulary(spec)
    pairs = dg.generate_corpus(spec, n, np.random.default_rng(seed))
    return vocab, dg.encode_corpus(vocab, pairs)


class TestSmoothedTargets:
    def test_rows_are_distributions(self):
        gold = np.array([[5, 7, sm.EOS_ID], [4, sm.PAD_ID, sm.PAD_ID]])
        q, count = obj.smoothed_targets(gold, vocab_size=10, label_smoothing=0.1)
        assert count == 4
        mask = gold != sm.PAD_ID
        assert np.allclose(q[mask].sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(q[~mask] == 0.0)

    def test_mass_split(self):
        gold = np.array([[5]])
        q, _ = obj.smoothed_targets(gold, vocab_size=10, label_smoothing=0.1)
        spread = 0.1 / 9
        assert q[0, 0, 5] == pytest.approx(0.9 + spread, abs=1e-7)
        assert q[0, 0, 4] == pytest.approx(spread, abs=1e-7)
        assert q[0, 0, sm.PAD_ID] == 0.0

    def test_zero_smoothing_is_one_hot(self):
        gold = np.array([[5]])
        q, _ = obj.smoothed_targets(gold, vocab_size=10, label_smoothing=0.0)
        want = np.zeros(10)
        want[5] = 1.0
        assert np.allclose(q[0, 0], want)


class TestMLELoss:
    def test_uniform_predictor_loss_is_log_vocab_for_any_smoothing(self):
        store = uniform_store(vocab=20)
        src = np.array([[4, 5, 6]])
        tgt = np.array([[sm.BOS_ID, 7, 8, sm.EOS_ID]])
        for eps in (0.0, 0.1, 0.3):
            loss, count = obj.mle_loss(store, src, tgt, label_smoothing=eps)
            assert count == 3
            assert loss.item() == pytest.approx(np.log(20), abs=1e-5), f"eps={eps}"

    def test_padded_batch_matches_per_sequence_losses(self):
        store = make_store(1)
        a = (np.array([[4, 5, 6]]), np.array([[sm.BOS_ID, 7, 8, sm.EOS_ID]]))
        b = (np.array([[9, 10]]), np.array([[sm.BOS_ID, 11, sm.EOS_ID]]))
        la, na = obj.mle_loss(store, *a)
        lb, nb = obj.mle_loss(store, *b)
        src = obj.pad_batch([[4, 5, 6], [9, 10]])
        tgt = obj.pad_batch([[sm.BOS_ID, 7, 8, sm.EOS_ID], [sm.BOS_ID, 11, sm.EOS_ID]])
        lab, nab = obj.mle_loss(store, src, tgt)
        want = (la.item() * na + lb.item() * nb) / (na + nb)
        assert nab == na + nb
        assert lab.item() == pytest.approx(want, abs=1e-5)

    def test_rejects_degenerate_targets(self):
        store = make_store(2)
        with pytest.raises(ContractError):
            obj.mle_loss(store, np.array([[4]]), np.array([[sm.BOS_ID]]))


class TestOptimizer:
    def test_single_adam_step_hand_value(self):
        store = make_store(3)
        name = "enc.final_ln.bias"
        store[name].grad[0] = 0.5
        optim = obj.Adam(store)
        optim.step(lr=0.1)
        # bias-corrected m/v make the first update exactly lr * sign(g)
        assert store[name].data[0] == pytest.approx(-0.1, rel=1e-5)

    def test_clipping_equals_prescaled_gradients(self):
        a, b = make_store(4), make_store(4)
        a["enc.final_ln.bias"].grad[:2] = [3.0, 4.0]  # norm 5
        b.flat_grad[:] = a.flat_grad * (1.0 / 5.0)
        norm = obj.Adam(a).step(lr=0.05)
        obj.Adam(b).step(lr=0.05)
        assert norm == pytest.approx(5.0, rel=1e-6)
        for n in a.names():
            assert np.allclose(a[n].data, b[n].data, atol=1e-7), n

    def test_step_advances_counter(self):
        store = make_store(6)
        obj.Adam(store).step(lr=0.1)
        assert store.step_count == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_adam_equals_per_tensor_adam_bit_for_bit(self, dtype):
        # one store steps with gradients accumulated in its flat gradient
        # buffer, one with the same gradients through the oracle
        cfg = make_store().config
        by_buffer = sm.ParameterStore.init(cfg, 8, dtype=dtype)
        oracle = by_buffer.copy()
        optim = obj.Adam(by_buffer)
        reference = PerTensorAdam(oracle)
        rng = np.random.default_rng(1)
        norms = []
        # global norms of about 100 and 0.1: clipped, then not
        for step, size in enumerate((1.0, 1e-3, 0.5, 2e-3, 3.0, 1e-4), 1):
            grads = {n: nk.Tensor((rng.standard_normal(t.shape) * size).astype(dtype))
                     for n, t in oracle.items()}
            for n, t in by_buffer.items():
                t.grad += grads[n].data
            lr = 0.01 / step
            norms.append(optim.step(lr))
            assert norms[-1] == reference.step(grads, lr)
            by_buffer.zero_grads()
            moments = [np.concatenate([m[n].reshape(-1) for n in oracle.names()]).tobytes()
                       for m in (reference.m, reference.v)]
            assert by_buffer.flat.tobytes() == oracle.flat.tobytes(), step
            assert [optim.m.tobytes(), optim.v.tobytes()] == moments, step
        assert by_buffer.step_count == oracle.step_count == 6
        assert min(norms) < obj.Adam.CLIP_NORM < max(norms)


class PerTensorAdam:
    """The per-tensor Adam that the flat-buffer one replaced, kept as its
    oracle: moments per tensor, the update tensor by tensor."""

    def __init__(self, store, beta1=0.9, beta2=0.98, eps=1e-9, grad_clip=1.0):
        self.store = store
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.grad_clip = grad_clip
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in store.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in store.items()}

    def step(self, grads, lr):
        sq = 0.0
        for g in grads.values():
            sq += float(np.sum(g.data.astype(np.float64) ** 2))
        norm = math.sqrt(sq)
        scale = 1.0
        if norm > self.grad_clip:
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


class TestSchedule:
    def test_shape(self):
        peak, w = 0.01, 200
        assert obj.inverse_sqrt_lr(w, peak, w) == pytest.approx(peak)
        assert obj.inverse_sqrt_lr(w // 2, peak, w) == pytest.approx(peak / 2)
        assert obj.inverse_sqrt_lr(4 * w, peak, w) == pytest.approx(peak / 2)
        ramp = [obj.inverse_sqrt_lr(s, peak, w) for s in range(1, w + 1)]
        assert ramp == sorted(ramp)

    def test_rejects_bad_steps(self):
        with pytest.raises(ContractError):
            obj.inverse_sqrt_lr(0, 0.01, 100)
        with pytest.raises(ContractError):
            obj.inverse_sqrt_lr(5, 0.01, 0)


class TestSharpenedDistribution:
    def test_worked_example(self):
        scores = nk.tensor([-1.2, -1.7], dtype=np.float64)
        weights = obj.sharpened_distribution(scores, alpha=1.0).data
        assert weights == pytest.approx([0.62245933, 0.37754067], abs=1e-7)

    def test_alpha_flattens_toward_uniform(self):
        scores = nk.tensor([-1.0, -5.0], dtype=np.float64)
        sharp = obj.sharpened_distribution(scores, alpha=1.0).data
        flat = obj.sharpened_distribution(scores, alpha=0.005).data
        assert flat[0] - flat[1] < sharp[0] - sharp[1]
        assert flat.sum() == pytest.approx(1.0)

    def test_large_magnitudes_stay_finite(self):
        scores = nk.tensor([-2000.0, -2010.0], dtype=np.float64)
        weights = obj.sharpened_distribution(scores, alpha=1.0).data
        assert np.isfinite(weights).all()
        assert weights.sum() == pytest.approx(1.0)


class TestRisk:
    def test_worked_example_value(self):
        scores = nk.tensor([-1.2, -1.7], dtype=np.float64)
        deltas = nk.tensor([0.3, 0.735], dtype=np.float64)
        risk = nk.sum_(nk.mul(obj.sharpened_distribution(scores, 1.0), deltas))
        assert risk.item() == pytest.approx(0.4642, abs=1e-3)

    def test_analytic_gradient_formula(self):
        # d risk / d score_i must equal alpha * w_i * (delta_i - risk)
        rng = np.random.default_rng(0)
        for alpha in (1.0, 0.005):
            scores_np = rng.normal(-3.0, 1.0, size=6)
            deltas_np = rng.uniform(0.0, 1.0, size=6)
            scores = nk.tensor(scores_np, requires_grad=True, dtype=np.float64)
            with nk.Graph() as g:
                weights = obj.sharpened_distribution(scores, alpha)
                risk = nk.sum_(nk.mul(weights, nk.tensor(deltas_np, dtype=np.float64)))
                nk.backward(g, risk)
            want = alpha * weights.data * (deltas_np - risk.item())
            assert nk.max_relative_error(scores.grad, want) < 1e-9

    def test_single_candidate_has_zero_gradient(self):
        scores = nk.tensor([-2.0], requires_grad=True, dtype=np.float64)
        with nk.Graph() as g:
            weights = obj.sharpened_distribution(scores, 0.005)
            risk = nk.sum_(nk.mul(weights, nk.tensor([0.7], dtype=np.float64)))
            nk.backward(g, risk)
        assert scores.grad[0] == pytest.approx(0.0, abs=1e-12)


class TestCostDelta:
    def test_identical_is_zero(self):
        ref = [sm.BOS_ID, 5, 6, 7, sm.EOS_ID]
        assert obj.cost_delta(ref, ref) == 0.0

    def test_specials_are_ignored(self):
        with_frame = [sm.BOS_ID, 5, 6, sm.EOS_ID]
        bare = [5, 6]
        ref = [sm.BOS_ID, 5, 6, sm.EOS_ID]
        assert obj.cost_delta(with_frame, ref) == obj.cost_delta(bare, ref)

    def test_disjoint_is_one(self):
        assert obj.cost_delta([4, 5], [6, 7]) == 1.0

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            hyp = list(rng.integers(4, 12, size=rng.integers(0, 8)))
            ref = list(rng.integers(4, 12, size=rng.integers(1, 8)))
            assert 0.0 <= obj.cost_delta(hyp, ref) <= 1.0

    def test_counts_a_reference_once_for_all_its_candidates(self, monkeypatch):
        ref = [sm.BOS_ID, 5, 6, 7, 8, sm.EOS_ID]
        candidates = [[sm.BOS_ID, 5, 6, sm.EOS_ID], [sm.BOS_ID, 7, sm.EOS_ID],
                      [5, 6, 7, 9], [8, 8]]
        counted = []
        count = metrics.ngrams
        monkeypatch.setattr(metrics, "ngrams",
                            lambda tokens, order: counted.append(tuple(tokens))
                            or count(tokens, order))
        metrics._reference_ngrams.cache_clear()
        for cand in candidates:
            obj.cost_delta(cand, ref)
        # one count per BLEU order for the reference, one per candidate and order
        assert counted.count((5, 6, 7, 8)) == metrics.BLEU_ORDER
        assert len(counted) == metrics.BLEU_ORDER * (1 + len(candidates))


class TestSubspace:
    """Candidate sets of one source, drawn as a one-row batch."""

    def test_near_deterministic_sampling_dedupes(self):
        store = make_store(7)
        # the final bias is zero at init, so this scales every logit by 1000
        store["dec.final_ln.gain"].data *= 1000
        config = obj.MRTConfig(n_samples=6)
        [cands] = obj.sample_decode_dedup(store, np.array([[4, 5]]),
                                          [[sm.BOS_ID, 6, sm.EOS_ID]],
                                          config, np.random.default_rng(0))
        assert len(cands) == 1

    def test_reference_joins_only_when_asked(self):
        store = make_store(8)
        ref = [sm.BOS_ID, 6, 7, sm.EOS_ID]
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        [plain] = obj.sample_decode_dedup(store, np.array([[4, 5]]), [ref],
                                          obj.MRTConfig(n_samples=3), rng_a)
        [with_ref] = obj.sample_decode_dedup(
            store, np.array([[4, 5]]), [ref],
            obj.MRTConfig(n_samples=3, include_reference=True), rng_b)
        assert ref in with_ref
        assert len(with_ref) in (len(plain), len(plain) + 1)

    def test_candidates_are_unique_and_bos_led(self):
        store = make_store(9)
        config = obj.MRTConfig(n_samples=8)
        [cands] = obj.sample_decode_dedup(store, np.array([[4, 5, 6]]),
                                          [[sm.BOS_ID, 7, sm.EOS_ID]],
                                          config, np.random.default_rng(2))
        keys = [tuple(c) for c in cands]
        assert len(keys) == len(set(keys))
        assert all(c[0] == sm.BOS_ID for c in cands)
        assert 1 <= len(cands) <= 8


@pytest.mark.parametrize("include_reference", [False, True])
def test_dedup_keeps_each_draw_once_in_first_draw_order(include_reference):
    store = make_store(13)
    store["dec.final_ln.gain"].data *= 5  # sharp enough that draws repeat
    src = obj.pad_batch([[4, 5], [6, 7, 8]])
    raw = dec.sample_decode_batch(store, src, 8, np.random.default_rng(4))
    firsts = []
    for draws in raw:
        first: list = []
        for seq in draws:
            if seq not in first:
                first.append(seq)
        assert 3 <= len(first) < len(draws)  # some repeats, and an order to keep
        firsts.append(first)
    # source 0's reference is one of its draws; source 1's is none of them
    refs = [firsts[0][1], [sm.BOS_ID, 4, 5, sm.EOS_ID]]
    assert refs[1] not in raw[1]
    got = obj.sample_decode_dedup(
        store, src, refs, obj.MRTConfig(n_samples=8, include_reference=include_reference),
        np.random.default_rng(4))
    assert got == [firsts[0], firsts[1] + ([refs[1]] if include_reference else [])]


class TestMRTConfig:
    def test_refuses_a_size_below_one(self):
        with pytest.raises(ContractError, match=r"n_samples must be in \[1, 32\], got 0"):
            obj.MRTConfig(n_samples=0)

    def test_refuses_more_candidates_than_one_decoder_holds(self):
        # a batch of MRT_BATCH_SENTENCES (8) sources samples into one decoder's 256 rows
        assert obj.MRTConfig(n_samples=32).n_samples == 32
        with pytest.raises(ContractError, match=r"n_samples must be in \[1, 32\], got 33"):
            obj.MRTConfig(n_samples=33)


class TestTokenBatches:
    def test_budget_packs_in_order(self):
        corpus = [([4], [1, 5, 2]), ([4], [1, 5, 6, 2]),
                  ([4], [1, 5, 2]), ([4], [1, 2])]
        batches = obj.token_batches(corpus, range(4), tokens_per_batch=6)
        assert batches == [[0], [1], [2, 3]]

    def test_oversized_sentence_still_forms_a_batch(self):
        corpus = [([4], [1, 5, 5, 5, 5, 5, 2])]
        assert obj.token_batches(corpus, [0], tokens_per_batch=3) == [[0]]

    def test_every_index_appears_exactly_once(self):
        vocab, corpus = tiny_corpus(17)
        order = np.random.default_rng(0).permutation(len(corpus))
        batches = obj.token_batches(corpus, order, tokens_per_batch=40)
        flat = [i for b in batches for i in b]
        assert sorted(flat) == list(range(len(corpus)))
        assert flat == [int(i) for i in order]


class TestRiskBatch:
    def test_build_and_risk(self):
        store = make_store(10)
        srcs = [[4, 5], [6, 7, 8]]
        refs = [[sm.BOS_ID, 9, sm.EOS_ID], [sm.BOS_ID, 10, 11, sm.EOS_ID]]
        batch = obj.build_risk_batch(store, srcs, refs,
                                     obj.MRTConfig(n_samples=3),
                                     np.random.default_rng(0))
        assert len(batch.candidates) == 2
        assert all(0.0 <= d <= 1.0 for ds in batch.deltas for d in ds)
        with nk.Graph() as g:
            risk, info = obj.mrt_risk(store, batch, alpha=0.005)
            grads = nk.backward(g, risk, dict(store.items()))
        store.zero_grads()
        assert 0.0 <= risk.item() <= 1.0
        assert info == {"candidate_counts": [len(g_) for g_ in batch.candidates]}
        total = sum(float(np.abs(g_.data).sum()) for g_ in grads.values())
        assert total > 0.0

    @pytest.mark.parametrize("alpha, dtype", [(1e-9, np.float64), (1e-31, np.float32)])
    def test_flat_limit_weighs_only_real_candidates(self, alpha, dtype):
        # as alpha -> 0 each source's weights become uniform over its own
        # candidates: the risk is the mean over sources of their mean costs,
        # so the grid's empty slots must carry no weight
        store = make_store(10, dtype=dtype)
        batch = random_risk_batch(np.random.default_rng(4), 5, store.config.vocab_size)
        counts = [len(g) for g in batch.candidates]
        assert min(counts) < max(counts)
        risk, _ = obj.mrt_risk(store, batch, alpha=alpha)
        assert risk.item() == pytest.approx(
            np.mean([np.mean(d) for d in batch.deltas]), abs=1e-6)


def random_risk_batch(rng, n_sources, vocab, max_candidates=4):
    """Random sources whose b-th draws 1 + b % max_candidates random
    candidates (duplicates dropped), and random costs."""
    bos, eos = sm.BOS_ID, sm.EOS_ID
    sources, groups = [], []
    for b in range(n_sources):
        sources.append([int(t) for t in rng.integers(4, vocab, rng.integers(1, 6))])
        group: list = []
        for _ in range(1 + b % max_candidates):
            cand = [bos] + [int(t) for t in rng.integers(4, vocab, rng.integers(0, 7))] + [eos]
            if cand not in group:
                group.append(cand)
        groups.append(group)
    deltas = [[float(d) for d in rng.uniform(0.0, 1.0, len(g))] for g in groups]
    return obj.RiskBatch(obj.pad_batch(sources), groups, deltas)


def per_source_sum(log_probs, batch, alpha, dtype):
    """Mean over sources of each source's expected cost, with one sharpened
    distribution and one partial sum per source, added in source order."""
    total, off = None, 0
    for deltas in batch.deltas:
        weights = obj.sharpened_distribution(nk.narrow(log_probs, 0, off, len(deltas)), alpha)
        off += len(deltas)
        risk_b = nk.sum_(nk.mul(weights, nk.Tensor(np.asarray(deltas, dtype=dtype))))
        total = risk_b if total is None else nk.add(total, risk_b)
    return nk.scale(total, 1.0 / len(batch.candidates))


def per_source_mrt_risk(store, batch, alpha):
    """`objectives.mrt_risk` as it was before the one-grid risk: the same
    rescoring pass, then the per-source loop of `per_source_sum`."""
    flat = [c for group in batch.candidates for c in group]
    owner = np.asarray([b for b, group in enumerate(batch.candidates) for _ in group],
                       dtype=np.int64)
    rows, dec_in, gold = sm.teacher_forced(store, batch.src_batch, obj.pad_batch(flat), owner)
    picked = nk.take_along_last(rows, gold)
    member = ((np.nonzero(~dec_in.pad)[0] == np.arange(len(flat))[:, None])
              & (gold != sm.PAD_ID)).astype(store.dtype)
    log_probs = nk.reshape(nk.matmul(nk.Tensor(member), nk.reshape(picked, (-1, 1))),
                           (len(flat),))
    return per_source_sum(log_probs, batch, alpha, store.dtype)


def per_candidate_mrt_risk(store, batch, alpha):
    """The risk of `objectives.mrt_risk` computed with one encoder row per
    candidate: the reference that encoding each source once must match."""
    flat = [c for group in batch.candidates for c in group]
    src_rows = batch.src_batch[[b for b, group in enumerate(batch.candidates) for _ in group]]
    cand = obj.pad_batch(flat)
    rows = sm.decode_batch(store, sm.encode_batch(store, src_rows), src_rows, cand[:, :-1])
    mask = (cand[:, 1:] != sm.PAD_ID).astype(store.dtype)
    log_probs = nk.sum_(nk.mul(nk.take_along_last(rows, cand[:, 1:]), nk.Tensor(mask)), axis=-1)
    return per_source_sum(log_probs, batch, alpha, store.dtype)


def risk_and_grads(store, risk_fn):
    with nk.Graph() as g:
        risk = risk_fn()
        grads = nk.backward(g, risk, dict(store.items()))
    store.zero_grads()
    return risk.item(), {name: t.data.copy() for name, t in grads.items()}


class TestOneGrid:
    @pytest.mark.parametrize("n_sources, risk_ulps", [(3, 0), (8, 1)])
    def test_float32_matches_the_per_source_sum(self, n_sources, risk_ulps):
        store = make_store(11)
        assert store.dtype == np.float32
        batch = random_risk_batch(np.random.default_rng(n_sources), n_sources,
                                  store.config.vocab_size)
        assert len({len(g) for g in batch.candidates}) > 1  # the grid has empty slots
        got, got_grads = risk_and_grads(store, lambda: obj.mrt_risk(store, batch, 0.005)[0])
        want, want_grads = risk_and_grads(store, lambda: per_source_mrt_risk(store, batch, 0.005))
        # every source's partial sum gets the same 1/B, so only the risk's
        # own summation order may differ
        for name, grad in want_grads.items():
            assert np.array_equal(got_grads[name], grad), name
        assert abs(got - want) <= risk_ulps * np.spacing(np.float32(want))
        assert any(np.abs(g).max() > 0.0 for g in got_grads.values())

    def test_risk_nodes_do_not_grow_with_the_sources(self):
        store = make_store(12)

        def nodes_after_rescoring(n_sources):
            batch = random_risk_batch(np.random.default_rng(0), n_sources,
                                      store.config.vocab_size)
            with nk.Graph() as g:
                obj.mrt_risk(store, batch, 0.005)
            names = [node.name for node in g.nodes]
            last_pick = len(names) - 1 - names[::-1].index("take_along_last")
            return len(names) - last_pick - 1

        assert nodes_after_rescoring(2) == nodes_after_rescoring(8)

    def test_shipped_step_records_at_most_70_nodes(self):
        config = sm.ModelSettings().to_model_config(20)
        store = sm.ParameterStore.init(config, 0)
        batch = random_risk_batch(np.random.default_rng(1), 8, 20)
        with nk.Graph() as g:
            risk, _ = obj.mrt_risk(store, batch, 0.005)
            nk.backward(g, risk)
        store.zero_grads()
        assert len(g.nodes) <= 70


class TestEncodeOnce:
    def test_matches_per_candidate_encoding(self, monkeypatch):
        cfg = sm.ModelConfig(vocab_size=20, embed_dim=16, num_heads=2, enc_layers=2,
                             dec_layers=1, ffn_dim=24, dropout_rate=0.0, max_seq_len=12)
        store = sm.ParameterStore.init(cfg, 5, dtype=np.float64)
        bos, eos = sm.BOS_ID, sm.EOS_ID
        batch = obj.RiskBatch(
            obj.pad_batch([[4, 5, 6, 7], [8, 9], [10, 11, 12]]),
            [[[bos, 13, eos], [bos, 14, 15, 16, eos], [bos, eos]],
             [[bos, 17, 18, eos]],
             [[bos, 4, eos], [bos, 5, 6, eos]]],
            [[0.3, 0.9, 1.0], [0.2], [0.6, 0.1]])
        cross_key_rows = []  # rows the cross-attention K/V projections see

        def spy(query_x, key_x, wq, *args, **kwargs):
            if wq is store["dec.0.cross.wq"]:
                cross_key_rows.append(int(np.prod(key_x.shape[:-1])))
            return attention(query_x, key_x, wq, *args, **kwargs)

        attention = nk.attention
        monkeypatch.setattr(nk, "attention", spy)
        results = []
        for risk_fn in (lambda: obj.mrt_risk(store, batch, 0.5)[0],
                        lambda: per_candidate_mrt_risk(store, batch, 0.5)):
            with nk.Graph() as g:
                risk = risk_fn()
                grads = nk.backward(g, risk, dict(store.items()))
            store.zero_grads()
            results.append((risk.item(), grads))
        # sum of source lengths 4 + 2 + 3, then 6 candidates x 4 padded slots
        assert cross_key_rows == [9, 24]
        (got, got_grads), (want, want_grads) = results
        assert got == pytest.approx(want, rel=1e-12)
        for name, grad in want_grads.items():
            np.testing.assert_allclose(got_grads[name].data, grad.data, rtol=1e-10,
                                       err_msg=name)
        assert float(np.abs(want_grads["enc.0.attn.wq"].data).max()) > 0.0


def read_trace(path) -> list[list[str]]:
    """A training trace's rows, header first; checks the header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "objective_value", "learning_rate"]
    return rows


class TestTrainingLoops:
    def test_mle_training_reduces_loss(self, tmp_path):
        vocab, corpus = tiny_corpus()
        store = sm.ParameterStore.init(
            sm.ModelConfig(vocab_size=len(vocab), embed_dim=16, num_heads=2,
                           enc_layers=1, dec_layers=1, ffn_dim=24,
                           dropout_rate=0.1, max_seq_len=12), 0)
        config = obj.MLEConfig(epochs=6, tokens_per_batch=64, peak_lr=0.01,
                               warmup_steps=10)
        trace = tmp_path / "trace.csv"
        assert obj.train_mle(store, corpus, config, seed=0, trace_path=trace) is None
        rows = read_trace(trace)
        assert store.step_count == len(rows) - 1
        # replay the shuffle stream for each epoch's step count
        shuffle = obj.stream_rng(0, obj.STREAM_SHUFFLE)
        lengths = [len(obj.token_batches(corpus, shuffle.permutation(len(corpus)),
                                         config.tokens_per_batch))
                   for _ in range(config.epochs)]
        assert sum(lengths) == len(rows) - 1
        values = [float(r[1]) for r in rows[1:]]
        first, last = values[:lengths[0]], values[-lengths[-1]:]
        assert np.mean(last) < np.mean(first) * 0.7

    def test_mle_training_is_deterministic(self, tmp_path):
        vocab, corpus = tiny_corpus()
        cfg = sm.ModelConfig(vocab_size=len(vocab), embed_dim=16, num_heads=2,
                             enc_layers=1, dec_layers=1, ffn_dim=24,
                             dropout_rate=0.1, max_seq_len=12)
        config = obj.MLEConfig(epochs=2, tokens_per_batch=64, warmup_steps=10)
        a = sm.ParameterStore.init(cfg, 5)
        b = sm.ParameterStore.init(cfg, 5)
        obj.train_mle(a, corpus, config, seed=9, trace_path=tmp_path / "a.csv")
        obj.train_mle(b, corpus, config, seed=9, trace_path=tmp_path / "b.csv")
        for n in a.names():
            assert np.array_equal(a[n].data, b[n].data), n
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_mrt_finetuning_runs_and_updates(self, tmp_path):
        vocab, corpus = tiny_corpus()
        store = sm.ParameterStore.init(
            sm.ModelConfig(vocab_size=len(vocab), embed_dim=16, num_heads=2,
                           enc_layers=1, dec_layers=1, ffn_dim=24,
                           dropout_rate=0.0, max_seq_len=12), 1)
        before = {n: t.data.copy() for n, t in store.items()}
        trace = tmp_path / "mrt.csv"
        config = obj.MRTConfig(steps=2, n_samples=3, lr=1e-3)
        assert obj.finetune_mrt(store, corpus, config, seed=0, trace_path=trace) is None
        assert any(not np.array_equal(before[n], store[n].data) for n in before)
        rows = read_trace(trace)
        assert len(rows) - 1 == 2 == store.step_count

    def test_mrt_sharpens_with_the_constant_alpha(self, monkeypatch, tmp_path):
        vocab, corpus = tiny_corpus()
        store = make_store(vocab=len(vocab))
        alphas = []

        def spy(store, batch, alpha):
            alphas.append(alpha)
            return risk(store, batch, alpha)

        risk = obj.mrt_risk
        monkeypatch.setattr(obj, "mrt_risk", spy)
        obj.finetune_mrt(store, corpus, obj.MRTConfig(steps=2, n_samples=2), seed=0,
                         trace_path=tmp_path / "mrt.csv")
        assert alphas == [obj.MRT_ALPHA] * 2

    def test_empty_corpus_rejected(self, tmp_path):
        store = make_store(11)
        with pytest.raises(ContractError):
            obj.train_mle(store, [], obj.MLEConfig(), seed=0, trace_path=tmp_path / "mle.csv")
        with pytest.raises(ContractError):
            obj.finetune_mrt(store, [], obj.MRTConfig(), seed=0, trace_path=tmp_path / "mrt.csv")
        assert list(tmp_path.iterdir()) == []

    def test_zero_learning_rate_is_a_no_op(self, tmp_path):
        vocab, corpus = tiny_corpus()
        store = sm.ParameterStore.init(
            sm.ModelConfig(vocab_size=len(vocab), embed_dim=16, num_heads=2,
                           enc_layers=1, dec_layers=1, ffn_dim=24,
                           dropout_rate=0.1, max_seq_len=12), 3)
        before = {n: t.data.copy() for n, t in store.items()}
        config = obj.MLEConfig(epochs=1, tokens_per_batch=64, peak_lr=0.0,
                               warmup_steps=10)
        obj.train_mle(store, corpus, config, seed=0, trace_path=tmp_path / "mle.csv")
        for n in before:
            assert np.array_equal(before[n], store[n].data), n

    def test_divergence_aborts_naming_the_step(self, tmp_path):
        vocab, corpus = tiny_corpus()
        cfg = sm.ModelConfig(vocab_size=len(vocab), embed_dim=16, num_heads=2,
                             enc_layers=1, dec_layers=1, ffn_dim=24,
                             dropout_rate=0.0, max_seq_len=12)
        store = sm.ParameterStore.init(cfg, 4)
        store["embed.shared"].data[0, 0] = np.nan
        with pytest.raises(ContractError, match=r"step 1: .*\(trace of the steps before it: "
                                                r".*mle\.csv\)$"):
            obj.train_mle(store, corpus,
                          obj.MLEConfig(epochs=1, tokens_per_batch=64,
                                        warmup_steps=10), seed=0,
                          trace_path=tmp_path / "mle.csv")
        assert read_trace(tmp_path / "mle.csv") == [["step", "objective_value", "learning_rate"]]
        store = sm.ParameterStore.init(cfg, 4)
        store["embed.shared"].data[0, 0] = np.nan
        with pytest.raises(ContractError, match=r"step 1: .*\(trace of the steps before it: "
                                                r".*mrt\.csv\)$"):
            obj.finetune_mrt(store, corpus, obj.MRTConfig(steps=2), seed=0,
                             trace_path=tmp_path / "mrt.csv")

    def test_mrt_samples_with_no_tape_open(self, monkeypatch, tmp_path):
        vocab, corpus = tiny_corpus()
        store = make_store(2, vocab=len(vocab))
        real, tapes = dec.sample_decode_batch, []

        def watched(*args, **kwargs):
            tapes.append(nk._active_graph())
            return real(*args, **kwargs)

        monkeypatch.setattr(dec, "sample_decode_batch", watched)
        obj.finetune_mrt(store, corpus, obj.MRTConfig(steps=2, n_samples=2), seed=0,
                         trace_path=tmp_path / "mrt.csv")
        assert tapes == [None, None]

    @pytest.mark.parametrize("failure", ["numerics", "overflow"])
    def test_divergence_while_sampling_names_the_step(self, monkeypatch, tmp_path, failure):
        vocab, corpus = tiny_corpus()
        store = make_store(2, vocab=len(vocab))
        real, calls = dec.sample_decode_batch, []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                if failure == "numerics":
                    raise NumericsError("non-finite values produced by op 'add'")
                np.full(2, 3e38, dtype=np.float32) * np.float32(10)  # overflows
            return real(*args, **kwargs)

        monkeypatch.setattr(dec, "sample_decode_batch", failing)
        trace = tmp_path / "mrt.csv"
        with pytest.raises(ContractError, match=r"^training diverged at step 3: .*"
                                                r"\(trace of the steps before it: .*mrt\.csv\)$"):
            obj.finetune_mrt(store, corpus, obj.MRTConfig(steps=5, n_samples=2),
                             seed=0, trace_path=trace)
        assert [row[0] for row in read_trace(trace)] == ["step", "1", "2"]

    def test_mrt_reduces_heldout_risk(self, tmp_path):
        vocab, corpus = tiny_corpus(32, seed=3)
        train, held = corpus[:24], corpus[24:]
        store = sm.ParameterStore.init(
            sm.ModelConfig(vocab_size=len(vocab), embed_dim=16, num_heads=2,
                           enc_layers=1, dec_layers=1, ffn_dim=24,
                           dropout_rate=0.0, max_seq_len=12), 6)
        obj.train_mle(store, train,
                      obj.MLEConfig(epochs=6, tokens_per_batch=64,
                                    warmup_steps=10), seed=0,
                      trace_path=tmp_path / "mle.csv")

        def heldout_risk() -> float:
            batch = obj.build_risk_batch(store, [s for s, _ in held],
                                         [t for _, t in held],
                                         obj.MRTConfig(n_samples=4),
                                         np.random.default_rng(123))
            risk, _ = obj.mrt_risk(store, batch, alpha=0.005)
            return risk.item()

        before = heldout_risk()
        obj.finetune_mrt(store, train,
                         obj.MRTConfig(steps=40, lr=1e-3),
                         seed=0, trace_path=tmp_path / "mrt.csv")
        assert heldout_risk() < before


class TestPadBatch:
    def test_pads_with_pad_id(self):
        out = obj.pad_batch([[5, 6], [7]])
        assert out.shape == (2, 2)
        assert out[1, 1] == sm.PAD_ID

    def test_corpus_nll_is_finite_and_positive(self):
        vocab, corpus = tiny_corpus(8)
        store = sm.ParameterStore.init(
            sm.ModelConfig(vocab_size=len(vocab), embed_dim=16, num_heads=2,
                           enc_layers=1, dec_layers=1, ffn_dim=24,
                           dropout_rate=0.0, max_seq_len=12), 2)
        nll = obj.corpus_nll(store, corpus)
        assert np.isfinite(nll) and nll > 0

    def test_corpus_nll_refuses_an_empty_corpus(self):
        with pytest.raises(ContractError, match="at least one sentence pair"):
            obj.corpus_nll(make_store(), [])

"""End-to-end acceptance suite.

One test per shipped guarantee, ordered cheap-to-expensive: exact gradient
and metric oracles first, then the three-seed study that checks the
qualitative domain-shift findings with the default configuration.  Every
test prints a single PASS line with its measured numbers so a log scan
shows not just that the suite passed but by what margin.

Oracles are computed independently inside this file (hand n-gram counts,
exact rational hypergeometrics, brute-force sequence enumeration) rather
than by calling back into the library.
"""

import inspect
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from seqrisk import analysis as an
from seqrisk import cli
from seqrisk import decoding as dec
from seqrisk import metrics
from seqrisk import numkit as nk
from seqrisk import objectives as obj
from seqrisk import seqmodel as sm


# ---------------------------------------------------------------------------
# gradient correctness
# ---------------------------------------------------------------------------


def _op_cases():
    """One representative call per autodiff primitive, inputs kept away
    from kinks (relu at 0) and domain edges (log at 0)."""
    rng = np.random.default_rng(3)
    a34 = rng.normal(0.0, 1.0, (3, 4))
    b34 = rng.normal(0.0, 1.0, (3, 4))
    a45 = rng.normal(0.0, 1.0, (4, 5))
    pos = np.abs(a34) + 0.5
    off_kink = np.where(np.abs(a34) < 0.2, a34 + 0.5, a34)
    gain = rng.normal(1.0, 0.1, 4)
    bias = rng.normal(0.0, 0.1, 4)
    ids = np.array([[0, 2], [1, 0]])
    idx = np.array([1, 3, 0])
    mask = np.array([[True, False, False, True]] * 3)
    query, keys = rng.normal(0.0, 1.0, (2, 3, 4)), rng.normal(0.0, 1.0, (2, 5, 4))
    projections = [rng.normal(0.0, 0.5, (4, 4)) for _ in range(4)]
    key_pad = np.array([[False] * 5, [False] * 3 + [True] * 2])[:, None, None, :]
    keep = rng.uniform(0.5, 1.5, (2, 2, 3, 5))
    return {
        "add": (lambda x, y: nk.add(x, y), [a34, b34]),
        "sub": (lambda x, y: nk.sub(x, y), [a34, b34]),
        "mul": (lambda x, y: nk.mul(x, y), [a34, b34]),
        "scale": (lambda x: nk.scale(x, -1.7), [a34]),
        "matmul": (lambda x, y: nk.matmul(x, y), [a34, a45]),
        "relu": (lambda x: nk.relu(x), [off_kink]),
        "log": (lambda x: nk.log(x), [pos]),
        "exp": (lambda x: nk.exp(x), [a34]),
        "softmax": (lambda x: nk.softmax(x), [a34]),
        "log_softmax": (lambda x: nk.log_softmax(x), [a34]),
        "layer_norm": (lambda x, g, b: nk.layer_norm(x, g, b), [a34, gain, bias]),
        "embedding": (lambda w: nk.embedding(w, ids), [a34]),
        "take_along_last": (lambda x: nk.take_along_last(x, idx), [a34]),
        "masked_fill": (lambda x: nk.masked_fill(x, mask, -2.5), [a34]),
        "reshape": (lambda x: nk.reshape(x, (4, 3)), [a34]),
        "transpose": (lambda x: nk.transpose(x, (1, 0)), [a34]),
        "narrow": (lambda x: nk.narrow(x, 1, 1, 2), [a34]),
        "sum_": (lambda x: nk.sum_(x, axis=1), [a34]),
        "mean": (lambda x: nk.mean(x, axis=0), [a34]),
        "attention": (lambda q, k, *w: nk.attention(q, k, *w, 2, key_pad, keep),
                      [query, keys] + projections),
    }


def _check_op_against_fd(fn, arrays):
    """Max relative error between reverse-mode and central differences,
    over every input of one op, using a fixed random projection."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [nk.tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    with nk.Graph() as g:
        out = fn(*tensors)
        proj = np.random.default_rng(7).standard_normal(out.shape)
        loss = nk.sum_(nk.mul(out, nk.Tensor(proj)))
        grads = nk.backward(g, loss, {str(i): t for i, t in enumerate(tensors)})
    worst = 0.0
    for i, base in enumerate(arrays):
        def f(x, i=i):
            inputs = [nk.Tensor(a.copy()) for a in arrays]
            inputs[i] = nk.Tensor(np.asarray(x, dtype=np.float64))
            return float(np.sum(fn(*inputs).data * proj))
        fd = nk.finite_difference(f, base)
        worst = max(worst, nk.max_relative_error(grads[str(i)].data, fd))
    return worst


def _toy_batch():
    src = obj.pad_batch([[4, 5, 6], [7, 8]])
    tgt = obj.pad_batch([[sm.BOS_ID, 9, 10, 2], [sm.BOS_ID, 11, 2]])
    return src, tgt


def _toy_store():
    cfg = sm.ModelConfig(vocab_size=14, embed_dim=8, num_heads=2,
                         enc_layers=1, dec_layers=1, ffn_dim=16,
                         dropout_rate=0.0, max_seq_len=10)
    return sm.ParameterStore.init(cfg, 0, dtype=np.float64)


def _loss_gradcheck(store, loss_fn, n_directions=10, n_coords=12, h=1e-5):
    """Compare a scalar loss's reverse-mode gradient against central
    differences: along random unit directions in the full parameter space,
    and coordinate-wise at each tensor's largest-gradient entry."""
    with nk.Graph() as g:
        loss = loss_fn(store)
        grads = nk.backward(g, loss, dict(store.items()))
    store.zero_grads()

    def eval_at(direction, scale):
        probe = store.copy()
        for name, t in probe.items():
            t.data += scale * direction[name]
        return loss_fn(probe).item()

    worst = 0.0
    rng = np.random.default_rng(17)
    for _ in range(n_directions):
        direction = {n: rng.standard_normal(t.data.shape) for n, t in store.items()}
        norm = math.sqrt(sum(float((d ** 2).sum()) for d in direction.values()))
        direction = {n: d / norm for n, d in direction.items()}
        fd = (eval_at(direction, h) - eval_at(direction, -h)) / (2 * h)
        analytic = sum(float((grads[n].data * direction[n]).sum()) for n in direction)
        worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8))

    ranked = sorted(store.names(),
                    key=lambda n: -float(np.abs(grads[n].data).max()))
    for name in ranked[:n_coords]:
        flat = np.unravel_index(int(np.abs(grads[name].data).argmax()),
                                grads[name].data.shape)
        basis = {n: np.zeros_like(t.data) for n, t in store.items()}
        basis[name][flat] = 1.0
        fd = (eval_at(basis, h) - eval_at(basis, -h)) / (2 * h)
        analytic = float(grads[name].data[flat])
        worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8))
    return worst


def test_gradients_match_finite_differences():
    started = time.perf_counter()

    cases = _op_cases()
    composites = {"sub", "mean"}  # defined purely in terms of taped primitives
    taped_ops = {name for name, fn in vars(nk).items()
                 if inspect.isfunction(fn) and not name.startswith("_")
                 and "_finish(" in inspect.getsource(fn)}
    assert taped_ops | composites == set(cases), (
        f"primitive sweep out of sync with the op set: "
        f"missing {taped_ops - set(cases)}, stale "
        f"{set(cases) - taped_ops - composites}")
    worst_op = max(_check_op_against_fd(fn, arrays)
                   for fn, arrays in cases.values())
    assert worst_op < 1e-3

    src, tgt = _toy_batch()
    store = _toy_store()
    worst_mle = _loss_gradcheck(
        store, lambda s: obj.mle_loss(s, src, tgt, 0.1, None)[0])
    assert worst_mle < 1e-3

    batch = obj.build_risk_batch(
        store, [[4, 5, 6], [7, 8]],
        [[sm.BOS_ID, 9, 10, sm.EOS_ID], [sm.BOS_ID, 11, sm.EOS_ID]],
        obj.MRTConfig(n_samples=4), np.random.default_rng(5))
    worst_mrt = _loss_gradcheck(
        store, lambda s: obj.mrt_risk(s, batch, alpha=0.05)[0])
    assert worst_mrt < 1e-3

    rng = np.random.default_rng(11)
    scores = rng.normal(-3.0, 1.0, 7)
    deltas = rng.uniform(0.0, 1.0, 7)
    worst_formula = 0.0
    for alpha in (0.005, 0.5):
        log_probs = nk.tensor(scores, requires_grad=True, dtype=np.float64)
        with nk.Graph() as g:
            weights = obj.sharpened_distribution(log_probs, alpha)
            risk = nk.sum_(nk.mul(weights, nk.Tensor(deltas)))
            grads = nk.backward(g, risk, {"lp": log_probs})
        shifted = alpha * log_probs.data
        p = np.exp(shifted - shifted.max())
        p /= p.sum()
        formula = alpha * p * (deltas - risk.item())
        worst_formula = max(worst_formula,
                            float(np.abs(grads["lp"].data - formula).max()))
    assert worst_formula < 1e-5

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"PASS gradient-correctness: {len(cases)} primitives rel err "
          f"{worst_op:.2e}, mle loss {worst_mle:.2e}, mrt loss {worst_mrt:.2e} "
          f"(< 1e-3); risk formula vs autodiff {worst_formula:.2e} (< 1e-5); "
          f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# candidate distribution
# ---------------------------------------------------------------------------


def _sharpened(log_probs, alpha):
    out = obj.sharpened_distribution(
        nk.Tensor(np.asarray(log_probs, dtype=np.float64)), alpha)
    return out.data


def test_candidate_distribution_properties():
    rng = np.random.default_rng(23)
    worst_norm = 0.0
    for _ in range(50):
        lp = rng.normal(-20.0, 8.0, rng.integers(1, 9))
        p = _sharpened(lp, float(rng.uniform(0.001, 2.0)))
        assert np.all(p >= 0.0)
        worst_norm = max(worst_norm, abs(float(p.sum()) - 1.0))
        order = np.argsort(lp)
        assert np.all(np.diff(p[order]) > 0.0) or len(lp) == 1
    assert worst_norm < 1e-6

    limit = _sharpened([3.0, -5.0], 1e-9)
    limit_err = float(np.abs(limit - 0.5).max())
    assert limit_err < 1e-6

    worked = _sharpened([-1.0, -2.0], 0.5)
    worked_err = float(np.abs(worked - np.array([0.6225, 0.3775])).max())
    assert worked_err < 1e-4

    print(f"PASS candidate-distribution: normalization off by {worst_norm:.1e} "
          f"(< 1e-6), uniform limit off by {limit_err:.1e} (< 1e-6), order "
          f"preserved on 50 random draws, worked example off by "
          f"{worked_err:.1e} (< 1e-4)")


# ---------------------------------------------------------------------------
# metric oracles
# ---------------------------------------------------------------------------

# hand-counted n-gram precisions; p1 is unsmoothed, orders 2-4 add one to
# match and total, brevity penalty exp(1 - r/c) when c < r
BLEU_CASES = [
    ("a b c d", "a b c d", 1.0),
    ("a b c d", "a b c e", (3 / 4 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25),
    ("a b c e", "a b c d", (3 / 4 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25),
    ("x y", "a b", 0.0),
    ("", "a b", 0.0),
    ("a", "a", 1.0),
    ("a", "a b", math.exp(1.0 - 2.0 / 1.0) * 1.0),
    ("a b", "a", (1 / 2 * 1 / 2) ** 0.25),
    ("a a a", "a", (1 / 3 * 1 / 3 * 1 / 2) ** 0.25),
    ("a b c", "c b a", (1.0 * 1 / 3 * 1 / 2) ** 0.25),
    ("the cat sat on the mat", "the cat sat on a mat",
     (5 / 6 * 4 / 6 * 3 / 5 * 2 / 4) ** 0.25),
    ("a b", "a b c d", math.exp(1.0 - 4.0 / 2.0) * 1.0),
]


def _fisher_oracle(a, b, c, d):
    """Exact two-tailed p: enumerate the whole margin-conditioned family
    with factorial rationals and sum every table no more probable than the
    observed one."""
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    fact = math.factorial

    def point(x):
        return Fraction(
            fact(r1) * fact(r2) * fact(c1) * fact(n - c1),
            fact(n) * fact(x) * fact(r1 - x) * fact(c1 - x) * fact(r2 - c1 + x))

    lo, hi = max(0, c1 - r2), min(r1, c1)
    observed = point(a)
    return float(sum(point(x) for x in range(lo, hi + 1) if point(x) <= observed))


def test_metric_oracles():
    worst_bleu = 0.0
    for hyp, ref, want in BLEU_CASES:
        got = metrics.smoothed_sentence_bleu(hyp.split(), ref.split())
        worst_bleu = max(worst_bleu, abs(got - want))
    assert worst_bleu < 1e-9
    spec_case = metrics.smoothed_sentence_bleu("a b c d".split(), "a b c e".split())
    assert spec_case == pytest.approx(0.658, abs=1e-3)

    checked = 0
    worst_fisher = 0.0
    for n in range(0, 31):
        for r1 in range(n + 1):
            r2 = n - r1
            for c1 in range(n + 1):
                for a in range(max(0, c1 - r2), min(r1, c1) + 1):
                    b, c, d = r1 - a, c1 - a, r2 - (c1 - a)
                    got = metrics.fisher_exact_two_tailed(
                        metrics.ContingencyTable2x2(a, b, c, d))
                    worst_fisher = max(worst_fisher,
                                       abs(got - _fisher_oracle(a, b, c, d)))
                    checked += 1
    assert checked == 46376  # compositions of n <= 30 into four counts
    assert worst_fisher < 1e-12

    # published inter/intra-annotator agreement rows: (P(A), P(E), K)
    agreement_rows = [(0.66, 0.38, 0.44), (0.82, 0.61, 0.54),
                      (0.87, 0.42, 0.77), (0.93, 0.66, 0.79)]
    worst_kappa = max(abs(metrics.cohen_kappa(pa, pe) - k)
                      for pa, pe, k in agreement_rows)
    assert worst_kappa <= 0.02

    print(f"PASS metric-oracles: {len(BLEU_CASES)} hand-counted bleu cases off "
          f"by {worst_bleu:.1e}, spec case {spec_case:.4f} (0.658 +/- 1e-3); "
          f"fisher exact vs rational enumeration over {checked} tables off by "
          f"{worst_fisher:.1e} (< 1e-12); {len(agreement_rows)} published kappa "
          f"rows off by {worst_kappa:.3f} (<= 0.02)")


# ---------------------------------------------------------------------------
# decoder oracle
# ---------------------------------------------------------------------------

# next-token distributions per prefix over {EOS=2, 4, 5}; every reachable
# non-terminal prefix below the length cap has a row
FIXED_TABLE = {
    (1,): {4: 0.60, 5: 0.35, 2: 0.05},
    (1, 4): {2: 0.45, 4: 0.40, 5: 0.15},
    (1, 5): {4: 0.50, 2: 0.30, 5: 0.20},
    (1, 4, 4): {2: 0.70, 4: 0.20, 5: 0.10},
    (1, 4, 5): {2: 0.60, 4: 0.25, 5: 0.15},
    (1, 5, 4): {2: 0.60, 4: 0.30, 5: 0.10},
    (1, 5, 5): {2: 0.50, 4: 0.30, 5: 0.20},
}
TABLE_VOCAB = 6


def _table_step_fn(table):
    def step(prefixes):
        rows = np.full((len(prefixes), TABLE_VOCAB), -1e9)
        for i, prefix in enumerate(prefixes):
            for tok, p in table[tuple(prefix)].items():
                rows[i, tok] = np.log(p)
        return rows
    return step


def _enumerate_all(table, max_len, alpha):
    """Brute force every sequence the cap admits: EOS-terminated branches
    plus open branches cut at max_len tokens."""
    out = []

    def walk(tokens, total):
        if tokens[-1] == sm.EOS_ID or len(tokens) >= max_len:
            gen_len = len(tokens) - 1
            norm = total / dec.length_penalty(gen_len, alpha)
            out.append((tokens, total, norm, tokens[-1] == sm.EOS_ID))
            return
        for tok, p in table[tuple(tokens)].items():
            walk(tokens + [tok], total + float(np.log(p)))

    walk([sm.BOS_ID], 0.0)
    out.sort(key=lambda e: (-e[2], e[0]))
    return out


def test_beam_search_matches_enumeration_and_greedy():
    alpha = 1.0
    config = dec.DecodeConfig(beam_size=2, length_norm_alpha=alpha)
    hyps = dec.beam_search_steps(_table_step_fn(FIXED_TABLE), max_len=4,
                                 config=config)
    everything = _enumerate_all(FIXED_TABLE, max_len=4, alpha=alpha)
    assert len(everything) == 15  # 1 + 2 + 4 EOS-terminated, 8 cap-closed
    assert len(hyps) == 2
    for hyp, (tokens, total, norm, finished) in zip(hyps, everything[:2]):
        assert hyp.tokens == tokens
        assert hyp.total_log_prob == pytest.approx(total, abs=1e-9)
        assert hyp.normalized_score == pytest.approx(norm, abs=1e-9)
        assert hyp.finished == finished

    checked = 0
    for store_seed in range(20):
        cfg = sm.ModelConfig(vocab_size=16, embed_dim=16, num_heads=2,
                             enc_layers=1, dec_layers=1, ffn_dim=24,
                             dropout_rate=0.0, max_seq_len=12)
        store = sm.ParameterStore.init(cfg, store_seed)
        rng = np.random.default_rng(store_seed)
        for _ in range(5):
            src = list(rng.integers(4, 16, rng.integers(2, 7)))
            greedy = dec.greedy_decode(store, src)
            beam1 = dec.beam_search(store, src, dec.DecodeConfig(beam_size=1))
            assert len(beam1) == 1
            assert beam1[0].tokens == greedy.tokens, (store_seed, src)
            assert beam1[0].total_log_prob == greedy.total_log_prob
            checked += 1
    assert checked == 100

    print(f"PASS decoder-oracle: beam k=2 equals exhaustive enumeration of "
          f"{len(everything)} sequences (top scores "
          f"{[round(h.normalized_score, 4) for h in hyps]}); beam-1 identical "
          f"to greedy on {checked} store/input combinations")


# ---------------------------------------------------------------------------
# the three-seed study (shipped defaults)
# ---------------------------------------------------------------------------

STUDY_SEEDS = (0, 1, 2)


def _reproduce(seed: int, outdir: Path) -> dict:
    rc = cli.main(["reproduce", "--seed", str(seed), "--outdir", str(outdir)])
    assert rc == 0, f"reproduce exited {rc} for seed {seed}"
    return json.loads((outdir / "summary.json").read_text())


@pytest.fixture(scope="session")
def study(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    started = time.perf_counter()
    runs = {}
    for seed in STUDY_SEEDS:
        runs[seed] = _reproduce(seed, root / f"seed{seed}")
    return {"runs": runs, "root": root,
            "elapsed": time.perf_counter() - started}


def test_domain_shift_hallucination_gap(study):
    lines = []
    for seed in STUDY_SEEDS:
        systems = study["runs"][seed]["systems"]
        mle, mrt = systems["mle"], systems["mrt"]
        ood_mle = mle["test_ood"]["hallucination_rate"]
        ood_mrt = mrt["test_ood"]["hallucination_rate"]
        id_mle = mle["test_id"]["hallucination_rate"]
        id_mrt = mrt["test_id"]["hallucination_rate"]
        assert ood_mrt < ood_mle, f"seed {seed}: mrt {ood_mrt} !< mle {ood_mle}"
        assert id_mle < 0.05 and id_mrt < 0.05, f"seed {seed}: {id_mle}, {id_mrt}"
        lines.append(f"seed {seed} ood mle {ood_mle:.3f} > mrt {ood_mrt:.3f}, "
                     f"id {id_mle:.3f}/{id_mrt:.3f}")
    assert study["elapsed"] < 900.0
    print(f"PASS hallucination-under-shift: {'; '.join(lines)}; "
          f"3 runs took {study['elapsed']:.0f}s (< 900s)")


def test_certainty_gap_widens_after_risk_tuning(study):
    lines = []
    for seed in STUDY_SEEDS:
        systems = study["runs"][seed]["systems"]
        gap_mle = systems["mle"]["certainty_gap"]
        gap_mrt = systems["mrt"]["certainty_gap"]
        assert gap_mle < gap_mrt, f"seed {seed}: {gap_mle} !< {gap_mrt}"
        lines.append(f"seed {seed} mle {gap_mle:.3f} < mrt {gap_mrt:.3f}")
    print(f"PASS certainty-gap: {'; '.join(lines)}")


def test_beam_size_degradation(study):
    lines = []
    for seed in STUDY_SEEDS:
        systems = study["runs"][seed]["systems"]
        sweeps = {name: {p["beam_size"]: p for p in info["beam_sweep"]}
                  for name, info in systems.items()}
        mle_drop = sweeps["mle"][4]["bleu"] - sweeps["mle"][50]["bleu"]
        mrt_drop = sweeps["mrt"][4]["bleu"] - sweeps["mrt"][50]["bleu"]
        assert mle_drop > 0.0, f"seed {seed}: mle bleu did not drop ({mle_drop})"
        assert mrt_drop <= mle_drop, f"seed {seed}: {mrt_drop} !<= {mle_drop}"
        rates = [sweeps["mle"][k]["hallucination_rate"] for k in (1, 4, 50)]
        assert rates == sorted(rates), f"seed {seed}: rates not monotone {rates}"
        lines.append(f"seed {seed} drop mle {mle_drop:+.4f} >= mrt "
                     f"{mrt_drop:+.4f}, mle rates {[round(r, 3) for r in rates]}")
    print(f"PASS beam-degradation: {'; '.join(lines)}")


def test_reproducibility_and_checkpoint_roundtrip(study, tmp_path):
    first = study["root"] / f"seed{STUDY_SEEDS[0]}"
    again = tmp_path / "again"
    _reproduce(STUDY_SEEDS[0], again)

    names_a = sorted(p.name for p in first.iterdir() if p.is_file())
    names_b = sorted(p.name for p in again.iterdir() if p.is_file())
    assert names_a == names_b
    differing = [n for n in names_a
                 if (first / n).read_bytes() != (again / n).read_bytes()]
    assert not differing, f"artifacts differ between identical runs: {differing}"

    loaded = sm.ParameterStore.load(first / "mle.ckpt")
    resaved = tmp_path / "roundtrip.ckpt"
    loaded.save(resaved)
    assert resaved.read_bytes() == (first / "mle.ckpt").read_bytes()
    reloaded = sm.ParameterStore.load(resaved)
    for name in loaded.names():
        assert np.array_equal(loaded[name].data, reloaded[name].data)
        assert loaded[name].data.dtype == reloaded[name].data.dtype

    csv_count = sum(1 for n in names_a if n.endswith(".csv"))
    print(f"PASS determinism: rerun byte-identical across {len(names_a)} "
          f"artifacts ({csv_count} csv); checkpoint round-trip bit-exact over "
          f"{len(list(loaded.names()))} tensors")


def _readme_artifacts() -> set[str]:
    """The names in the first column of the README's artifact table, with a
    grouped name such as `judgments_{mle,mrt}_ood.jsonl` expanded."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| artifact | contents |\n| --- | --- |\n", 1)[1]
    names = set()
    for row in table.split("\n\n", 1)[0].splitlines():
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            group = re.fullmatch(r"(.*)\{(.*)\}(.*)", name)
            names.update([name] if group is None else
                         [group[1] + alt + group[3] for alt in group[2].split(",")])
    return names


def test_run_directory_matches_manifest_and_readme(study):
    """Doc drift: each run directory holds exactly its manifest's files plus
    `manifest.json`, and those are the artifacts the README's table names."""
    documented = _readme_artifacts()
    for seed in STUDY_SEEDS:
        run = study["root"] / f"seed{seed}"
        present = {p.name for p in run.iterdir()}
        listed = set(json.loads((run / "manifest.json").read_text())["files"])
        assert present == listed | {"manifest.json"}, seed
        assert present == documented, sorted(present ^ documented)
    print(f"PASS artifact-docs: {len(documented)} files per run, all in the manifest "
          f"and the README's table")

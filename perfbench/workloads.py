"""The benchmark's three workloads.

Each workload is a closed loop: one process, one caller, one request at a
time.  A workload builds its inputs from the seed in `setup`, does its timed
work in `run_unit`, and checks outputs and takes its quality figures in
`finish`, after the timer has stopped.  How many units a run makes follows
from `--seconds` and the workload's nominal unit time alone, never from how
fast the units go, so every estimate below has the same sample size on any
version of the program.

* `study`: `cli.run_reproduce`, the whole pipeline.  It keeps the shipped
  data, model and MLE settings and runs a tenth of the shipped MRT steps and
  evaluation sizes (`STUDY_OVERRIDES`), so that every layer runs while the
  benchmark's runs fit their time limit even when the host is slow.
* `beam` (run by hand; not in BENCHMARK.json, see perfbench/README.md):
  `analysis.beam_sweep` at widths 1, 4 and 50 over the first
  `eval.sweep_n` out-of-domain pairs: no-grad decoding from one row per
  decoder call (k=1) to dozens (k=50).  The checkpoint is trained in set-up
  from the suite of `BEAM_TRAIN_SEED`, so the seed picks only the sentences
  decoded; a checkpoint trained per seed would add its own variation (how
  soon its beams end) to the sweep's work.
* `mle`: `objectives.train_mle` at shipped defaults: teacher-forced wide
  batches with the autodiff tape, backward and Adam, and no decoding.

Every workload reports in `finish` its `wall_s` and the `dev_nll` of its
MLE checkpoint on the seed's dev split, plus printed figures where a
workload has them: training and decode throughput, BLEU and stage times.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from pathlib import Path

from seqrisk import analysis as an
from seqrisk import cli
from seqrisk import datagen as dg
from seqrisk import decoding as dec
from seqrisk import objectives as obj
from seqrisk import seqmodel as sm

from tracer import STAGE_TARGETS, Tracer, observed

BEAM_WIDTHS = (1, 4, 50)
BEAM_TRAIN_SEED = 0
SPECIAL_IDS = frozenset((sm.PAD_ID, sm.BOS_ID, sm.EOS_ID, sm.UNK_ID))

# a unit of 100 pairs takes about 7 s on a quiet host
BEAM_OVERRIDES = ("eval.sweep_n=100",)
# keeps the seeds of one study run apart from those of every other run
STUDY_SEED_STRIDE = 100
STUDY_OVERRIDES = (
    "mrt.steps=60",
    "eval.hallucination_n=40",
    "eval.sweep_n=15",
    "eval.uncertainty_n=20",
)


class Checks:
    """Output checks, counted as operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def target_tokens(corpus) -> int:
    """Non-PAD target positions one epoch trains on (BOS..EOS minus one)."""
    return sum(len(tgt) - 1 for _, tgt in corpus)


def expected_mle_steps(corpus, config: obj.MLEConfig, seed: int) -> int:
    """Step count of `train_mle`, replaying its shuffle stream."""
    rng = obj.stream_rng(seed, obj.STREAM_SHUFFLE)
    return sum(len(obj.token_batches(corpus, rng.permutation(len(corpus)),
                                     config.tokens_per_batch))
               for _ in range(config.epochs))


def generate_suite(config: cli.ExperimentConfig, seed: int):
    return dg.generate_suite(config.domain, seed,
                             train_size=config.data.train_size,
                             dev_size=config.data.dev_size,
                             test_size=config.data.test_size)


def timed(fn):
    """Run `fn()`; returns its result and {"wall_s": its wall time}."""
    start = time.perf_counter()
    result = fn()
    return result, {"wall_s": time.perf_counter() - start}


def new_store(config: cli.ExperimentConfig, vocab: sm.Vocabulary) -> sm.ParameterStore:
    return sm.ParameterStore.init(config.model.to_model_config(len(vocab)),
                                  [config.seed, obj.STREAM_INIT])


def dev_nll(store, vocab, dev_pairs) -> float:
    """Teacher-forced NLL per token of the checkpoint on the dev split."""
    return obj.corpus_nll(store, dg.encode_corpus(vocab, dev_pairs))


class Workload:
    name = ""
    base_overrides: tuple[str, ...] = ()
    min_units = 2
    unit_seconds = 1.0  # nominal time of one unit on a quiet host
    setup_repeats = 9

    def __init__(self, seed: int, workdir: Path, overrides=()):
        self.seed = seed
        self.workdir = Path(workdir)
        self.overrides = (*self.base_overrides, *overrides)
        self.config = cli.load_config(None, list(self.overrides), seed)
        self.checks = Checks()
        self.units: list[dict] = []
        self.setups = 0
        self.printed: dict[str, tuple[float, str]] = {}  # ungated figures
        self.info: dict = {}  # facts printed with the run's environment

    def unit_count(self, seconds: int) -> int:
        return max(self.min_units, round(seconds / self.unit_seconds))

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, index: int) -> dict:
        """Unit `index` of timed work: a `timed` record plus what the checks
        need.  Only `study` varies its inputs with `index`."""
        raise NotImplementedError

    def finish(self) -> dict[str, float]:
        """Checks, then `wall_s` and `dev_nll`; other figures go to `printed`."""
        raise NotImplementedError

    def _dir(self, name: str) -> Path:
        path = self.workdir / name
        path.mkdir(parents=True, exist_ok=True)
        return path


class StudyWorkload(Workload):
    name = "study"
    base_overrides = STUDY_OVERRIDES
    min_units = 3
    unit_seconds = 12.0

    def pipeline_seed(self, index: int) -> int:
        """Seed of unit `index`: each unit of a run reproduces another seed.

        How long MRT sampling and evaluation decode depends on the model a
        seed trains (the floating-point work of one unit varied from 81 to
        112 GFLOP across five seeds), so a run averages several seeds
        instead of timing one seed's pipeline repeatedly."""
        return self.seed * STUDY_SEED_STRIDE + index

    def setup(self) -> None:
        self.setups += 1

    def run_unit(self, index: int) -> dict:
        seed = self.pipeline_seed(index)
        config = cli.load_config(None, list(self.overrides), seed)
        outdir = self._dir(f"study{len(self.units)}")
        # five spans a run: the stage split costs nothing measurable
        with Tracer(STAGE_TARGETS) as clock:
            headline, record = timed(lambda: cli.run_reproduce(config, outdir))
        stages = {name.split(".", 1)[1]: s.seconds
                  for name, s in clock.stats.items() if s.calls}
        return {**record, "seed": seed, "outdir": outdir, "headline": headline,
                "stages": stages}

    def finish(self) -> dict[str, float]:
        digests: dict[int, list[str]] = {}
        nlls, train_tok_per_s, bleus = {}, [], []
        for unit in self.units:
            outdir = unit["outdir"]
            manifest = json.loads((outdir / "manifest.json").read_text())
            for fname, digest in manifest["files"].items():
                self.checks.check(sha256_file(outdir / fname) == digest,
                                  f"manifest sha256 of {outdir.name}/{fname}")
            digests.setdefault(unit["seed"], []).append(
                sha256_file(outdir / "summary.json"))
            vocab = sm.Vocabulary.from_json((outdir / "vocab.json").read_text())
            train = dg.read_tsv(outdir / "train.tsv")
            train_tok_per_s.append(self.config.mle.epochs * target_tokens(
                dg.encode_corpus(vocab, train)) / unit["stages"]["stage_train_mle"])
            bleus.append(unit["headline"]["systems"]["mle"]["test_ood"]["corpus_bleu"])
            if unit["seed"] not in nlls:
                store = sm.ParameterStore.load(outdir / "mle.ckpt")
                nlls[unit["seed"]] = dev_nll(store, vocab,
                                             dg.read_tsv(outdir / "dev.tsv"))
        for seed, seen in digests.items():
            if len(seen) > 1:  # a traced run makes two units of one seed
                self.checks.check(len(set(seen)) == 1,
                                  f"summary.json differs between runs of seed {seed}")
        self.info["summary_sha256"] = {seed: sorted(set(seen))
                                       for seed, seen in digests.items()}

        for stage in self.units[0]["stages"]:
            self.printed[f"{stage}_s"] = (
                statistics.mean(u["stages"][stage] for u in self.units), "s")
        self.printed["bleu"] = (statistics.mean(bleus), "fraction")
        self.printed["train_tok_per_s"] = (statistics.median(train_tok_per_s), "1/s")
        return {"dev_nll": statistics.mean(nlls.values()),
                "wall_s": statistics.mean(u["wall_s"] for u in self.units)}


class BeamWorkload(Workload):
    name = "beam"
    base_overrides = BEAM_OVERRIDES
    min_units = 3
    unit_seconds = 7.0
    setup_repeats = 3  # its set-up trains a model

    def __init__(self, seed: int, workdir: Path, overrides=()):
        super().__init__(seed, workdir, overrides)
        self.train_config = cli.load_config(None, list(overrides), BEAM_TRAIN_SEED)
        self.ckpt_digests: set[str] = set()

    def setup(self) -> None:
        setup_dir = self._dir(f"setup{self.setups}")
        self.setups += 1
        cfg = self.train_config
        self.vocab = dg.build_vocabulary(cfg.domain)
        train = dg.encode_corpus(self.vocab, generate_suite(cfg, cfg.seed)["train"])
        store = new_store(cfg, self.vocab)
        obj.train_mle(store, train, cfg.mle, cfg.seed,
                      trace_path=setup_dir / "mle_trace.csv")
        ckpt = setup_dir / "mle.ckpt"
        store.save(ckpt)
        self.store = sm.ParameterStore.load(ckpt)
        self.ckpt_digests.add(sha256_file(ckpt))
        suite = generate_suite(self.config, self.seed)
        self.pairs = suite["test_ood"][: self.config.eval.sweep_n]
        self.dev = suite["dev"]

    def run_unit(self, index: int) -> dict:
        ev = self.config.eval
        calls: list = []  # (source ids, beam size, hypotheses) per beam_search

        def capture(args, kwargs, hyps):
            src, config = args[1], (args[2:] or [kwargs.get("config")])[0]
            calls.append((list(src), (config or dec.DecodeConfig()).beam_size, hyps))

        widths, points = {}, {}
        for k in BEAM_WIDTHS:
            with observed(("decoding.beam_search",), capture):
                (points[k],), widths[k] = timed(lambda: an.beam_sweep(
                    self.store, self.vocab, self.pairs, self.config.domain, [k],
                    ev.overlap_threshold, base_config=ev.decode_config()))
        return {"wall_s": sum(w["wall_s"] for w in widths.values()),
                "widths": widths, "points": points, "calls": calls}

    def finish(self) -> dict[str, float]:
        vocab_size = len(self.vocab)
        if self.setups > 1:
            self.checks.check(len(self.ckpt_digests) == 1,
                              "set-up checkpoints differ between repeats")
        for unit in self.units:
            for src, k, hyps in unit["calls"]:
                ok = 1 <= len(hyps) <= k and all(
                    0 <= t < vocab_size and t not in SPECIAL_IDS
                    for h in hyps for t in h.generated())
                self.checks.check(ok, f"k={k} hypotheses for {src} hold "
                                      "special or out-of-vocabulary ids")
        last = self.units[-1]
        top1 = {tuple(src): hyps[0].tokens for src, k, hyps in last["calls"] if k == 1}
        alpha = self.config.eval.length_norm_alpha
        for src, _ in self.pairs:
            ids = self.vocab.encode(src)
            greedy = dec.greedy_decode(self.store, ids, length_norm_alpha=alpha)
            self.checks.check(top1.get(tuple(ids)) == greedy.tokens,
                              f"k=1 output differs from greedy for {src}")
        seconds = {k: statistics.median(u["widths"][k]["wall_s"] for u in self.units)
                   for k in BEAM_WIDTHS}
        for k in BEAM_WIDTHS:
            self.printed[f"sent_per_s_k{k}"] = (len(self.pairs) / seconds[k], "1/s")
        self.printed["bleu"] = (last["points"][4].bleu, "fraction")
        out = {"dev_nll": dev_nll(self.store, self.vocab, self.dev)}
        out["wall_s"] = sum(seconds.values())
        return out


class MLEWorkload(Workload):
    name = "mle"
    unit_seconds = 3.5

    def setup(self) -> None:
        self.setups += 1
        suite = generate_suite(self.config, self.seed)
        self.vocab = dg.build_vocabulary(self.config.domain)
        self.corpus = dg.encode_corpus(self.vocab, suite["train"])
        self.dev = suite["dev"]

    def run_unit(self, index: int) -> dict:
        trace = self._dir("traces") / f"mle_trace{len(self.units)}.csv"
        cfg = self.config
        self.store = new_store(cfg, self.vocab)
        _, record = timed(lambda: obj.train_mle(self.store, self.corpus, cfg.mle, cfg.seed,
                                                trace_path=trace))
        return {**record, "trace": trace}

    def finish(self) -> dict[str, float]:
        cfg = self.config
        steps = expected_mle_steps(self.corpus, cfg.mle, cfg.seed)
        traces = set()
        for unit in self.units:
            text = unit["trace"].read_text()
            rows = text.splitlines()[1:]
            self.checks.check(len(rows) == steps,
                              f"{len(rows)} trace rows for {steps} steps")
            for row in rows:
                step, loss, _ = row.split(",")
                self.checks.check(math.isfinite(float(loss)),
                                  f"loss {loss} at step {step}")
            traces.add(text)
        if len(self.units) > 1:
            self.checks.check(len(traces) == 1, "training traces differ between runs")

        ckpt = self._dir("roundtrip") / "mle.ckpt"
        self.store.save(ckpt)
        loaded = sm.ParameterStore.load(ckpt)
        self.checks.check(loaded.config == self.store.config
                          and loaded.step_count == self.store.step_count
                          and loaded.names() == self.store.names(),
                          "checkpoint header does not round-trip")
        for name, tensor in self.store.items():
            self.checks.check(loaded[name].data.tobytes() == tensor.data.tobytes(),
                              f"checkpoint tensor {name} does not round-trip")

        self.printed["steps"] = (steps, "count")
        out = {"dev_nll": dev_nll(self.store, self.vocab, self.dev)}
        out["wall_s"] = statistics.median(u["wall_s"] for u in self.units)
        self.printed["train_tok_per_s"] = (
            cfg.mle.epochs * target_tokens(self.corpus) / out["wall_s"], "1/s")
        return out


WORKLOADS = {w.name: w for w in (StudyWorkload, BeamWorkload, MLEWorkload)}

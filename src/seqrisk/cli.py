"""Command-line entry points and the end-to-end experiment pipeline.

Everything here is batch-oriented: commands read files, write files, and
exit.  `reproduce` runs the whole study (data, both training stages, all
diagnostics) into one output directory and is written so that two runs
with the same configuration and seed produce byte-identical artifacts;
nothing time- or host-dependent lands in an output file.

Exit codes: 0 on success, 1 for anticipated failures (bad configuration, a
path the system refuses, malformed data, a held lock), 2 for unexpected
internal errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import __version__
from . import analysis as an
from . import datagen as dg
from . import decoding as dec
from . import numkit as nk
from . import objectives as obj
from . import seqmodel as sm
from .errors import ConfigError, ContractError, SeqriskError


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class DataSettings:
    train_size: int = 1500
    dev_size: int = 200
    test_size: int = 500

    def __post_init__(self):
        if min(self.train_size, self.dev_size, self.test_size) < 1:
            raise ContractError("corpus sizes must be positive")


@dataclass
class EvalSettings:
    hallucination_n: int = 400
    sweep_n: int = 150
    uncertainty_n: int = 200
    beam_sizes: list[int] = field(default_factory=lambda: list(an.DEFAULT_BEAM_SIZES))
    eval_beam: int = 4

    def __post_init__(self):
        for name in ("hallucination_n", "sweep_n", "uncertainty_n", "eval_beam"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.eval_beam > sm.MAX_LIVE_ROWS:
            raise ContractError(f"eval_beam must be <= {sm.MAX_LIVE_ROWS}, got {self.eval_beam}")
        _refuse_beam_sizes("beam_sizes", self.beam_sizes)


def _refuse_beam_sizes(name: str, sizes: list[int]) -> None:
    """Refuse the beam-size list `name` unless it holds distinct sizes in
    [1, seqmodel.MAX_LIVE_ROWS]; a repeat would decode into the same row."""
    if not sizes or len(set(sizes)) < len(sizes) or not all(
            1 <= k <= sm.MAX_LIVE_ROWS for k in sizes):
        raise ContractError(
            f"{name} must be distinct sizes in [1, {sm.MAX_LIVE_ROWS}], got {sizes}")


@dataclass
class ExperimentConfig:
    seed: int = 0
    domain: dg.DomainSpec = field(default_factory=dg.DomainSpec)
    model: sm.ModelSettings = field(default_factory=sm.ModelSettings)
    data: DataSettings = field(default_factory=DataSettings)
    mle: obj.MLEConfig = field(default_factory=obj.MLEConfig)
    mrt: obj.MRTConfig = field(default_factory=obj.MRTConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def __post_init__(self):
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        for name in ("hallucination_n", "sweep_n", "uncertainty_n"):  # taken from a test set
            if getattr(self.eval, name) > self.data.test_size:
                raise ContractError(f"eval.{name} must be <= data.test_size "
                                    f"{self.data.test_size}, got {getattr(self.eval, name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Strict construction: any unknown field is rejected by name."""
    return sm.build_settings(ExperimentConfig, data)


def _apply_override(data: dict, assignment: str) -> None:
    """Apply one `section.field=value` (value parsed as JSON when possible)."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    path, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    parts = path.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-object field")
    node[parts[-1]] = value


def load_config(path: str | None, overrides: list[str],
                seed: int | None) -> ExperimentConfig:
    data = _load_json(path) if path is not None else {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: the configuration must be a JSON object")
    for assignment in overrides:
        _apply_override(data, assignment)
    if seed is not None:
        data["seed"] = seed
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# shared io helpers
# ---------------------------------------------------------------------------


def _load_json(path):
    """The JSON value in the UTF-8 file `path`."""
    try:
        return json.loads(sm.read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path: Path, payload) -> None:
    with sm.atomic_write(path, newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


class OutputLock:
    """A marker file, holding the owner's PID, that refuses concurrent or
    dirty reruns in a directory."""

    def __init__(self, outdir: Path):
        self.path = outdir / ".seqrisk-lock"

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise SeqriskError(self._refusal()) from None
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return self

    def _refusal(self) -> str:
        """Why an existing lock refuses the run: a live owner, or a stale
        lock (no PID, or no such process).  The file is left in place."""
        try:
            text = self.path.read_text(errors="replace").strip()
        except OSError:
            text = ""
        try:
            pid = int(text)
        except ValueError:
            pid = None
        if pid is None or pid <= 0:
            return (f"{self.path} is a stale lock: it names no process ({text[:40]!r}); "
                    "a previous run crashed; remove the file to proceed")
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, OverflowError):
            return (f"{self.path} is a stale lock: process {pid} is not running; "
                    "a previous run crashed; remove the file to proceed")
        except PermissionError:
            pass  # the process exists under another user
        return (f"{self.path} exists: process {pid} is running in this directory; "
                "wait for it to finish")

    def __exit__(self, *exc_info):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


def _load_domain(path) -> dg.DomainSpec:
    return sm.build_settings(dg.DomainSpec, _load_json(path), f"{path}: domain")


def _load_model(checkpoint, domain) -> tuple[sm.ParameterStore, sm.Vocabulary, dg.DomainSpec]:
    """A checkpoint with the domain and vocabulary it was trained on; a
    domain whose vocabulary is of another size is refused, naming both files."""
    store, spec = sm.ParameterStore.load(checkpoint), _load_domain(domain)
    vocab = dg.build_vocabulary(spec)
    if len(vocab) != store.config.vocab_size:
        raise ContractError(
            f"{domain} gives a vocabulary of {len(vocab)} tokens (with the 4 reserved), "
            f"but {checkpoint} was trained on a vocabulary of {store.config.vocab_size}")
    return store, vocab, spec


def _refuse_overlong(path, lines: list[list[str]], max_seq_len: int,
                     forced: bool = False) -> None:
    """Refuse the first line of file `path` (`lines`: its token lists) that
    the model cannot take; a `forced` target leaves room for the BOS."""
    limit = max_seq_len - forced
    cap = (f"the {limit} that the model's max_seq_len {max_seq_len} leaves after BOS"
           if forced else f"the model's max_seq_len {max_seq_len}")
    for number, tokens in enumerate(lines, 1):
        if len(tokens) > limit:
            raise ContractError(f"{path}: line {number} has {len(tokens)} "
                                f"{'target ' if forced else ''}tokens, more than {cap}")


def _refuse_overlong_pairs(path, pairs: list[dg.TokenPair], max_seq_len: int) -> None:
    """Refuse a line of corpus file `path` whose source, or whose target
    forced after BOS, the model cannot take."""
    _refuse_overlong(path, [src for src, _ in pairs], max_seq_len)
    _refuse_overlong(path, [tgt for _, tgt in pairs], max_seq_len, forced=True)


def _refuse_unwritable(*paths) -> None:
    """Refuse, before any decoding, an output path `atomic_write` could not write."""
    for path in filter(None, paths):
        if not os.access(path if sm.in_place(path) else os.path.dirname(path) or ".", os.W_OK):
            raise ContractError(f"cannot write {path}: it or its directory is missing or read-only")


def _read_pairs(args, store: sm.ParameterStore,
                spec: dg.DomainSpec | None = None) -> list[dg.TokenPair]:
    """The pairs of --data-file, cut to the first --n when given; a source
    the model cannot take is refused, and so, with `spec`, is a reference
    holding none of its content tokens (its overlap is undefined)."""
    pairs = dg.read_tsv(args.data_file)
    pairs = pairs if args.n is None else pairs[: args.n]
    _refuse_overlong(args.data_file, [src for src, _ in pairs], store.config.max_seq_len)
    if spec is not None:
        for number, (_, ref) in enumerate(pairs, 1):
            if spec.tgt_content.isdisjoint(ref):
                raise ContractError(f"{args.data_file}: line {number} has a reference "
                                    f"with no content token of the domain")
    return pairs


# ---------------------------------------------------------------------------
# pipeline stages (used by subcommands and by `reproduce`)
# ---------------------------------------------------------------------------


def stage_gen_data(config: ExperimentConfig, outdir: Path) -> dict[str, list[dg.TokenPair]]:
    outdir.mkdir(parents=True, exist_ok=True)
    suite = dg.generate_suite(
        config.domain, config.seed,
        train_size=config.data.train_size,
        dev_size=config.data.dev_size,
        test_size=config.data.test_size)
    for name, pairs in suite.items():
        dg.write_tsv(outdir / f"{name}.tsv", pairs)
    with sm.atomic_write(outdir / "domain.json") as fh:
        fh.write(config.domain.to_json() + "\n")
    vocab = dg.build_vocabulary(config.domain)
    with sm.atomic_write(outdir / "vocab.json") as fh:
        fh.write(vocab.to_json() + "\n")
    return suite


def stage_train_mle(config: ExperimentConfig, vocab: sm.Vocabulary,
                    train: list[dg.TokenPair], outdir: Path) -> sm.ParameterStore:
    model_config = config.model.to_model_config(len(vocab))
    store = sm.ParameterStore.init(model_config, [config.seed, obj.STREAM_INIT])
    corpus = dg.encode_corpus(vocab, train)
    obj.train_mle(store, corpus, config.mle, config.seed,
                  trace_path=outdir / "mle_trace.csv")
    store.save(outdir / "mle.ckpt")
    return store


def stage_finetune_mrt(config: ExperimentConfig, vocab: sm.Vocabulary,
                       mle_store: sm.ParameterStore, train: list[dg.TokenPair],
                       outdir: Path) -> sm.ParameterStore:
    store = mle_store.copy()
    corpus = dg.encode_corpus(vocab, train)
    obj.finetune_mrt(store, corpus, config.mrt, config.seed,
                     trace_path=outdir / "mrt_trace.csv")
    store.save(outdir / "mrt.ckpt")
    return store


def stage_analyses(config: ExperimentConfig, vocab: sm.Vocabulary,
                   spec: dg.DomainSpec, stores: dict[str, sm.ParameterStore],
                   suite: dict[str, list[dg.TokenPair]], outdir: Path) -> dict:
    ev = config.eval
    decode_cfg = dec.DecodeConfig(beam_size=ev.eval_beam, length_norm_alpha=an.EVAL_ALPHA)
    ood, pool = suite["test_ood"], [tgt for _, tgt in suite["test_id"]]
    summaries: dict[tuple[str, str], an.HallucinationSummary] = {}
    judgments_ood: dict[str, list[an.HallucinationJudgment]] = {}
    curves: list[an.UncertaintyCurve] = []
    sweeps = {}
    headline: dict = {"systems": {}}

    for system, store in stores.items():
        info = headline["systems"][system] = {}
        for split in ("test_id", "test_ood"):  # test_ood last: the Fisher test and sweep reuse it
            judgments = an.judge_corpus(store, vocab, suite[split][: ev.hallucination_n],
                                        spec, decode_cfg)
            summary = summaries[(system, split)] = an.summarize_judgments(judgments)
            info[split] = {
                "hallucination_rate": summary.rate,
                "mean_overlap": summary.mean_overlap,
                "corpus_bleu": summary.corpus_bleu,
            }
        judgments_ood[system] = judgments
        an.write_judgments_jsonl(outdir / f"judgments_{system}_ood.jsonl", judgments)

        result = an.uncertainty_curves(store, vocab, ood[: ev.uncertainty_n], pool,
                                       model_tag=system, seed=config.seed)
        curves.extend([result.references, result.distractors])
        info["certainty_gap"] = result.gap_mean()

        # judging already decoded these sentences at eval_beam with decode_cfg
        by_k = ({ev.eval_beam: an.sweep_point(ev.eval_beam, judgments[: ev.sweep_n])}
                if ev.sweep_n <= ev.hallucination_n else {})
        rest = [k for k in ev.beam_sizes if k not in by_k]
        by_k.update(zip(rest, an.beam_sweep(
            store, vocab, ood[: ev.sweep_n], spec, rest, decode_cfg)))
        sweeps[system] = points = [by_k[k] for k in ev.beam_sizes]
        info["beam_sweep"] = [asdict(p) for p in points]

    p_value, table = an.compare_hallucination_significance(
        judgments_ood["mle"], judgments_ood["mrt"])
    headline["ood_hallucination_fisher"] = {
        "p_value": p_value,
        "table": [[table.a, table.b], [table.c, table.d]],
    }
    # any system's result will do: the assignment depends only on data and seed
    an.write_assignment_csv(outdir / "distractor_assignment.csv", result)
    an.write_curves_csv(outdir / "uncertainty_curves.csv", curves)
    an.write_sweep_csv(outdir / "beam_sweep.csv", sweeps)
    an.write_hallucination_csv(outdir / "hallucination_summary.csv", summaries)
    _write_json(outdir / "summary.json", headline)
    return headline


def run_reproduce(config: ExperimentConfig, outdir: Path) -> dict:
    """The full study: data, MLE, risk fine-tuning, all diagnostics, manifest."""
    outdir.mkdir(parents=True, exist_ok=True)
    with OutputLock(outdir):
        for name in ("manifest.json", "summary.json"):  # no failed rerun looks finished
            (outdir / name).unlink(missing_ok=True)
        suite = stage_gen_data(config, outdir)
        for name, pairs in suite.items():  # a config can make lines the model cannot take
            _refuse_overlong_pairs(outdir / f"{name}.tsv", pairs, config.model.max_seq_len)
        vocab = dg.build_vocabulary(config.domain)
        mle_store = stage_train_mle(config, vocab, suite["train"], outdir)
        mrt_store = stage_finetune_mrt(config, vocab, mle_store, suite["train"], outdir)
        headline = stage_analyses(
            config, vocab, config.domain,
            {"mle": mle_store, "mrt": mrt_store}, suite, outdir)

        # the files the stages wrote; any other file in outdir stays unlisted
        artifacts = ("train.tsv", "dev.tsv", "test_id.tsv", "test_ood.tsv", "domain.json",
                     "vocab.json", "mle_trace.csv", "mle.ckpt", "mrt_trace.csv", "mrt.ckpt",
                     "judgments_mle_ood.jsonl", "judgments_mrt_ood.jsonl", "summary.json",
                     "distractor_assignment.csv", "uncertainty_curves.csv", "beam_sweep.csv",
                     "hallucination_summary.csv")
        manifest = {
            "config": config.to_dict(),
            "config_sha256": hashlib.sha256(
                config.canonical_json().encode()).hexdigest(),
            "seed": config.seed,
            "package_version": __version__,
            "files": {name: _sha256_file(outdir / name) for name in artifacts},
        }
        _write_json(outdir / "manifest.json", manifest)
    return headline


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise ConfigError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment configuration JSON")
    p.add_argument("--seed", type=int, default=None, help="override the run seed")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.FIELD=VALUE",
                   help="override one configuration field (repeatable)")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--domain", required=True, help="domain.json from gen-data")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _positive_ints(text: str) -> list[int]:
    """A comma-separated list of positive integers, such as "1,4,50"."""
    return [_positive_int(part.strip()) for part in text.split(",")]


def _add_pair_flags(p: argparse.ArgumentParser, data_help: str | None = None) -> None:
    p.add_argument("--data-file", required=True, help=data_help)
    p.add_argument("--n", type=_positive_int, default=None,
                   help="use only the first N pairs")


def _cmd_gen_data(args) -> int:
    config = load_config(args.config, args.overrides, args.seed)
    stage_gen_data(config, Path(args.outdir))
    print(f"wrote corpus suite to {args.outdir}")
    return 0


def _cmd_train_mle(args) -> int:
    config = load_config(args.config, args.overrides, args.seed)
    data = Path(args.data)
    vocab = dg.build_vocabulary(_load_domain(data / "domain.json"))
    train, dev = dg.read_tsv(data / "train.tsv"), dg.read_tsv(data / "dev.tsv")
    for name, pairs in (("train", train), ("dev", dev)):  # fail before training
        _refuse_overlong_pairs(data / f"{name}.tsv", pairs, config.model.max_seq_len)
    outdir = Path(args.outdir)  # made only once every input has been read
    outdir.mkdir(parents=True, exist_ok=True)
    store = stage_train_mle(config, vocab, train, outdir)
    print(f"dev nll per token: {obj.corpus_nll(store, dg.encode_corpus(vocab, dev)):.4f}")
    print(f"wrote {outdir / 'mle.ckpt'}")
    return 0


def _cmd_finetune_mrt(args) -> int:
    config = load_config(args.config, args.overrides, args.seed)
    data = Path(args.data)
    mle_store, vocab, _ = _load_model(args.checkpoint, data / "domain.json")
    train = dg.read_tsv(data / "train.tsv")
    _refuse_overlong_pairs(data / "train.tsv", train, mle_store.config.max_seq_len)
    outdir = Path(args.outdir)  # made only once every input has been read
    outdir.mkdir(parents=True, exist_ok=True)
    stage_finetune_mrt(config, vocab, mle_store, train, outdir)
    print(f"wrote {outdir / 'mrt.ckpt'}")
    return 0


def _cmd_translate(args) -> int:
    store, vocab, _ = _load_model(args.checkpoint, args.domain)
    _refuse_unwritable(None if args.output == "-" else args.output)  # stdout needs no check
    text = sm.read_utf8(args.input)  # lines end at "\n" alone, as corpus lines do
    sources = [line.split() for line in text.removesuffix("\n").split("\n")] if text else []
    _refuse_overlong(args.input, sources, store.config.max_seq_len)
    config = dec.DecodeConfig(beam_size=args.beam, length_norm_alpha=an.EVAL_ALPHA)
    lines = [""] * len(sources)  # a blank input line gives a blank output line
    kept = [i for i, src in enumerate(sources) if src]
    for i, hyps in zip(kept, dec.beam_search_corpus(
            store, [vocab.encode(sources[i]) for i in kept], config)):
        best = hyps[0]
        text = " ".join(vocab.decode(best.generated()))
        lines[i] = f"{text}\t{best.total_log_prob:.6f}" if args.scores else text
    payload = "\n".join(lines) + ("\n" if lines else "")
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        with sm.atomic_write(args.output) as fh:
            fh.write(payload)
    return 0


def _cmd_evaluate(args) -> int:
    store, vocab, spec = _load_model(args.checkpoint, args.domain)
    _refuse_unwritable(args.judgments)
    pairs = _read_pairs(args, store, spec)
    config = dec.DecodeConfig(beam_size=args.beam, length_norm_alpha=an.EVAL_ALPHA)
    judgments = an.judge_corpus(store, vocab, pairs, spec, config)
    summary = an.summarize_judgments(judgments)
    if args.judgments:
        an.write_judgments_jsonl(args.judgments, judgments)
    print(json.dumps(asdict(summary), sort_keys=True))
    return 0


def _cmd_analyze_uncertainty(args) -> int:
    store, vocab, _ = _load_model(args.checkpoint, args.domain)
    _refuse_unwritable(args.output, args.assignment)
    pairs = _read_pairs(args, store)
    pool = [tgt for _, tgt in dg.read_tsv(args.distractor_file)]
    # any pool line may be drawn as a distractor, so each must fit
    for path, targets in ((args.data_file, [tgt for _, tgt in pairs]),
                          (args.distractor_file, pool)):
        _refuse_overlong(path, targets, store.config.max_seq_len, forced=True)
    result = an.uncertainty_curves(store, vocab, pairs, pool,
                                   model_tag=args.system, seed=args.seed)
    gap = result.gap_mean()  # may fail: before any file is written
    an.write_curves_csv(args.output, [result.references, result.distractors])
    if args.assignment:
        an.write_assignment_csv(args.assignment, result)
    print(json.dumps({
        "certainty_gap": gap,
        "positions": len(result.references.positions),
        "exact_length_matches": sum(result.exact_length),
    }, sort_keys=True))
    return 0


def _cmd_sweep_beam(args) -> int:
    # beam_sweep builds each width's config only when it reaches that width
    _refuse_beam_sizes("--beams", args.beams)
    store, vocab, spec = _load_model(args.checkpoint, args.domain)
    _refuse_unwritable(args.output)
    pairs = _read_pairs(args, store, spec)
    points = an.beam_sweep(store, vocab, pairs, spec, args.beams,
                           dec.DecodeConfig(length_norm_alpha=an.EVAL_ALPHA))
    an.write_sweep_csv(args.output, {args.system: points})
    print(json.dumps([asdict(p) for p in points]))
    return 0


def _cmd_reproduce(args) -> int:
    config = load_config(args.config, args.overrides, args.seed)
    headline = run_reproduce(config, Path(args.outdir))
    print(json.dumps(headline, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqrisk",
                     description="sequence-to-sequence risk training toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the corpus suite")
    _add_config_flags(p)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-mle", help="train the likelihood baseline")
    _add_config_flags(p)
    p.add_argument("--data", required=True, help="directory from gen-data")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_train_mle)

    p = sub.add_parser("finetune-mrt", help="risk fine-tuning from a checkpoint")
    _add_config_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_finetune_mrt)

    p = sub.add_parser("translate", help="decode source lines with a checkpoint")
    _add_model_flags(p)
    p.add_argument("--input", required=True, help="one source sentence per line")
    p.add_argument("--output", default="-")
    p.add_argument("--beam", type=_positive_int, default=4)
    p.add_argument("--scores", action="store_true",
                   help="append total log-probability to each line")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("evaluate", help="corpus score plus hallucination summary")
    _add_model_flags(p)
    _add_pair_flags(p)
    p.add_argument("--beam", type=_positive_int, default=4)
    p.add_argument("--judgments", default=None, help="write per-sentence JSONL here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("analyze-uncertainty",
                       help="forced-token certainty curves vs distractors")
    _add_model_flags(p)
    _add_pair_flags(p, "corpus whose references are scored")
    p.add_argument("--distractor-file", required=True,
                   help="corpus whose targets form the distractor pool")
    p.add_argument("--output", required=True, help="curve CSV path")
    p.add_argument("--assignment", default=None,
                   help="optional CSV recording reference-to-distractor pairing")
    p.add_argument("--system", default="model", help="model tag for the CSV rows")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=_cmd_analyze_uncertainty)

    p = sub.add_parser("sweep-beam", help="score and hallucination rate by beam size")
    _add_model_flags(p)
    _add_pair_flags(p)
    p.add_argument("--output", required=True, help="sweep CSV path")
    p.add_argument("--system", default="model")
    p.add_argument("--beams", type=_positive_ints,
                   default=",".join(str(k) for k in an.DEFAULT_BEAM_SIZES),
                   help="comma-separated beam sizes")
    p.set_defaults(func=_cmd_sweep_beam)

    p = sub.add_parser("reproduce", help="run the full study into one directory")
    _add_config_flags(p)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with nk.single_blas_thread():
            return args.func(args)
    except (SeqriskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a machine smaller than the sizes the checks allow
        print(f"error: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points and the end-to-end experiment pipeline.

Everything here is batch-oriented: commands read files, write files, and
exit.  `reproduce` runs the whole study (data, both training stages, all
diagnostics) into one output directory and is written so that two runs
with the same configuration and seed produce byte-identical artifacts;
nothing time- or host-dependent lands in an output file.

Exit codes: 0 on success, 1 for anticipated failures (bad configuration,
malformed data, a held lock), 2 for unexpected internal errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import __version__
from . import analysis as an
from . import datagen as dg
from . import decoding as dec
from . import metrics
from . import numkit as nk
from . import objectives as obj
from . import seqmodel as sm
from .errors import ConfigError, ContractError, ParseError, SeqriskError, VocabularyError


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
    overlap_threshold: float = an.DEFAULT_OVERLAP_THRESHOLD
    eval_beam: int = 4
    length_norm_alpha: float = an.DEFAULT_EVAL_ALPHA
    min_position: int = 3
    max_positions: int | None = None

    def __post_init__(self):
        for name in ("hallucination_n", "sweep_n", "uncertainty_n", "eval_beam"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.beam_sizes or any(k < 1 for k in self.beam_sizes):
            raise ContractError("beam_sizes must be a non-empty list of sizes >= 1")
        if not 0.0 <= self.overlap_threshold <= 1.0:
            raise ContractError("overlap_threshold must be in [0, 1]")
        if self.max_positions is not None and self.max_positions < 1:
            raise ContractError("max_positions must be >= 1 when set")
        if self.min_position < 1:
            raise ContractError(f"min_position must be >= 1, got {self.min_position}")
        if self.max_positions is not None and self.min_position > self.max_positions:
            raise ContractError(f"min_position {self.min_position} exceeds "
                                f"max_positions {self.max_positions}")

    def decode_config(self) -> dec.DecodeConfig:
        return dec.DecodeConfig(beam_size=self.eval_beam,
                                length_norm_alpha=self.length_norm_alpha)


@dataclass
class ExperimentConfig:
    seed: int = 0
    domain: dg.DomainSpec = field(default_factory=dg.DomainSpec)
    model: sm.ModelSettings = field(default_factory=sm.ModelSettings)
    data: DataSettings = field(default_factory=DataSettings)
    mle: obj.MLEConfig = field(default_factory=obj.MLEConfig)
    mrt: obj.MRTConfig = field(default_factory=obj.MRTConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


_SECTION_TYPES = {
    "domain": dg.DomainSpec,
    "model": sm.ModelSettings,
    "data": DataSettings,
    "mle": obj.MLEConfig,
    "mrt": obj.MRTConfig,
    "eval": EvalSettings,
}


def _fits(value, hint) -> bool:
    """Whether a JSON value has a field's annotated type; an int fits a float."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, *typing.get_args(hint)) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object")
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"{path}.{key} is not a recognized field")
        hint = hints[key]
        if not _fits(value, hint):
            raise ConfigError(f"{path}.{key} must be "
                              f"{hint.__name__ if isinstance(hint, type) else hint}, got {value!r}")
    try:
        return cls(**data)
    except ContractError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    """Strict construction: any unknown field is rejected by name."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    known = {"seed"} | set(_SECTION_TYPES)
    for key in data:
        if key not in known:
            raise ConfigError(f"{key} is not a recognized field")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")
    kwargs = {"seed": seed}
    for name, cls in _SECTION_TYPES.items():
        kwargs[name] = _build_section(cls, data.get(name, {}), name)
    # a target holds at most max_seq_len tokens, so max_seq_len - 1 forced positions
    forced = kwargs["model"].max_seq_len - 1
    if kwargs["eval"].min_position > forced:
        raise ConfigError(f"eval: min_position {kwargs['eval'].min_position} exceeds the "
                          f"{forced} forced positions of a target (model.max_seq_len - 1)")
    return ExperimentConfig(**kwargs)


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


def _load_vocab(path) -> sm.Vocabulary:
    try:
        return sm.Vocabulary.from_json(sm.read_utf8(path))
    except VocabularyError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_domain(path) -> dg.DomainSpec:
    return _build_section(dg.DomainSpec, _load_json(path), f"{path}: domain")


def _load_model(checkpoint, vocab_path) -> tuple[sm.ParameterStore, sm.Vocabulary]:
    """A checkpoint and the vocabulary it was trained with; a vocabulary
    of another size is refused, naming both files."""
    store, vocab = sm.ParameterStore.load(checkpoint), _load_vocab(vocab_path)
    if len(vocab) != store.config.vocab_size:
        raise ContractError(
            f"{vocab_path} holds {len(vocab)} tokens (with the 4 reserved), but "
            f"{checkpoint} was trained on a vocabulary of {store.config.vocab_size}")
    return store, vocab


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


def _read_pairs(args, store: sm.ParameterStore) -> list[dg.TokenPair]:
    """The pairs of --data-file, cut to the first --n when given; a source
    the model cannot take is refused."""
    pairs = dg.read_tsv(args.data_file)
    pairs = pairs if args.n is None else pairs[: args.n]
    _refuse_overlong(args.data_file, [src for src, _ in pairs], store.config.max_seq_len)
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
    decode_cfg = ev.decode_config()
    summaries: dict[tuple[str, str], an.HallucinationSummary] = {}
    judgments_ood: dict[str, list[an.HallucinationJudgment]] = {}
    headline: dict = {"systems": {}}

    for system, store in stores.items():
        sys_info: dict = {}
        for split in ("test_id", "test_ood"):
            pairs = suite[split][: ev.hallucination_n]
            judgments = an.judge_corpus(store, vocab, pairs, spec, decode_cfg,
                                        ev.overlap_threshold)
            summary = an.summarize_judgments(judgments)
            summaries[(system, split)] = summary
            sys_info[split] = {
                "hallucination_rate": summary.rate,
                "mean_overlap": summary.mean_overlap,
                "corpus_bleu": metrics.corpus_bleu(
                    [(j.hypothesis, j.reference) for j in judgments]),
            }
            if split == "test_ood":
                judgments_ood[system] = judgments
                an.write_judgments_jsonl(
                    outdir / f"judgments_{system}_ood.jsonl", judgments)
        headline["systems"][system] = sys_info

    p_value, table = an.compare_hallucination_significance(
        judgments_ood["mle"], judgments_ood["mrt"])
    headline["ood_hallucination_fisher"] = {
        "p_value": p_value,
        "table": [[table.a, table.b], [table.c, table.d]],
    }

    pool = [tgt for _, tgt in suite["test_id"]]
    curves: list[an.UncertaintyCurve] = []
    for i, (system, store) in enumerate(stores.items()):
        result = an.uncertainty_curves(
            store, vocab, suite["test_ood"][: ev.uncertainty_n], pool,
            model_tag=system, max_positions=ev.max_positions, seed=config.seed)
        curves.extend([result.references, result.distractors])
        headline["systems"][system]["certainty_gap"] = result.gap_mean(ev.min_position)
        if i == 0:  # assignment depends only on data and seed, not the model
            an.write_assignment_csv(outdir / "distractor_assignment.csv", result)
    an.write_curves_csv(outdir / "uncertainty_curves.csv", curves)

    sweeps = {}
    for system, store in stores.items():
        # judging already decoded these sentences at eval_beam with decode_cfg
        by_k = ({ev.eval_beam: an.sweep_point(
                    ev.eval_beam, judgments_ood[system][: ev.sweep_n])}
                if ev.sweep_n <= ev.hallucination_n else {})
        rest = [k for k in ev.beam_sizes if k not in by_k]
        by_k.update(zip(rest, an.beam_sweep(
            store, vocab, suite["test_ood"][: ev.sweep_n], spec, rest,
            ev.overlap_threshold, base_config=decode_cfg)))
        sweeps[system] = points = [by_k[k] for k in ev.beam_sizes]
        headline["systems"][system]["beam_sweep"] = [asdict(p) for p in points]
    an.write_sweep_csv(outdir / "beam_sweep.csv", sweeps)
    an.write_hallucination_csv(outdir / "hallucination_summary.csv", summaries)

    _write_json(outdir / "summary.json", headline)
    return headline


def run_reproduce(config: ExperimentConfig, outdir: Path) -> dict:
    """The full study: data, MLE, risk fine-tuning, all diagnostics, manifest."""
    outdir.mkdir(parents=True, exist_ok=True)
    with OutputLock(outdir):
        suite = stage_gen_data(config, outdir)
        vocab = dg.build_vocabulary(config.domain)
        mle_store = stage_train_mle(config, vocab, suite["train"], outdir)
        mrt_store = stage_finetune_mrt(config, vocab, mle_store, suite["train"], outdir)
        headline = stage_analyses(
            config, vocab, config.domain,
            {"mle": mle_store, "mrt": mrt_store}, suite, outdir)

        manifest = {
            "config": config.to_dict(),
            "config_sha256": hashlib.sha256(
                config.canonical_json().encode()).hexdigest(),
            "seed": config.seed,
            "package_version": __version__,
            "files": {},
        }
        for p in sorted(outdir.iterdir()):
            if p.name in ("manifest.json", ".seqrisk-lock") or p.is_dir():
                continue
            manifest["files"][p.name] = _sha256_file(p)
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
    p.add_argument("--vocab", required=True)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
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
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    vocab = _load_vocab(data / "vocab.json")
    train = dg.read_tsv(data / "train.tsv")
    dev = dg.encode_corpus(vocab, dg.read_tsv(data / "dev.tsv"))  # fail before training
    store = stage_train_mle(config, vocab, train, outdir)
    print(f"dev nll per token: {obj.corpus_nll(store, dev):.4f}")
    print(f"wrote {outdir / 'mle.ckpt'}")
    return 0


def _cmd_finetune_mrt(args) -> int:
    config = load_config(args.config, args.overrides, args.seed)
    data = Path(args.data)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    mle_store, vocab = _load_model(args.checkpoint, data / "vocab.json")
    train = dg.read_tsv(data / "train.tsv")
    stage_finetune_mrt(config, vocab, mle_store, train, outdir)
    print(f"wrote {outdir / 'mrt.ckpt'}")
    return 0


def _cmd_translate(args) -> int:
    store, vocab = _load_model(args.checkpoint, args.vocab)
    sources = [line.split() for line in sm.read_utf8(args.input).splitlines()]
    _refuse_overlong(args.input, sources, store.config.max_seq_len)
    config = dec.DecodeConfig(beam_size=args.beam, length_norm_alpha=args.alpha)
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
    store, vocab = _load_model(args.checkpoint, args.vocab)
    spec = _load_domain(args.domain)
    pairs = _read_pairs(args, store)
    config = dec.DecodeConfig(beam_size=args.beam, length_norm_alpha=args.alpha)
    judgments = an.judge_corpus(store, vocab, pairs, spec, config, args.threshold)
    summary = an.summarize_judgments(judgments)
    bleu = metrics.corpus_bleu([(j.hypothesis, j.reference) for j in judgments])
    if args.judgments:
        an.write_judgments_jsonl(args.judgments, judgments)
    print(json.dumps({"corpus_bleu": bleu, **asdict(summary)}, sort_keys=True))
    return 0


def _cmd_analyze_uncertainty(args) -> int:
    store, vocab = _load_model(args.checkpoint, args.vocab)
    pairs = _read_pairs(args, store)
    pool = [tgt for _, tgt in dg.read_tsv(args.distractor_file)]
    # any pool line may be drawn as a distractor, so each must fit
    for path, targets in ((args.data_file, [tgt for _, tgt in pairs]),
                          (args.distractor_file, pool)):
        _refuse_overlong(path, targets, store.config.max_seq_len, forced=True)
    result = an.uncertainty_curves(store, vocab, pairs, pool,
                                   model_tag=args.system,
                                   max_positions=args.max_positions,
                                   seed=args.seed)
    an.write_curves_csv(args.output, [result.references, result.distractors])
    if args.assignment:
        an.write_assignment_csv(args.assignment, result)
    print(json.dumps({
        "certainty_gap": result.gap_mean(args.min_position),
        "positions": len(result.references.positions),
        "exact_length_matches": sum(result.exact_length),
    }, sort_keys=True))
    return 0


def _cmd_sweep_beam(args) -> int:
    store, vocab = _load_model(args.checkpoint, args.vocab)
    spec = _load_domain(args.domain)
    pairs = _read_pairs(args, store)
    base = dec.DecodeConfig(length_norm_alpha=args.alpha)
    points = an.beam_sweep(store, vocab, pairs, spec, args.beams, args.threshold,
                           base_config=base)
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
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="length normalization exponent")
    p.add_argument("--scores", action="store_true",
                   help="append total log-probability to each line")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("evaluate", help="corpus score plus hallucination summary")
    _add_model_flags(p)
    p.add_argument("--domain", required=True)
    _add_pair_flags(p)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--alpha", type=float, default=an.DEFAULT_EVAL_ALPHA)
    p.add_argument("--threshold", type=float, default=an.DEFAULT_OVERLAP_THRESHOLD)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-position", type=_positive_int, default=3)
    p.add_argument("--max-positions", type=int, default=None)
    p.set_defaults(func=_cmd_analyze_uncertainty)

    p = sub.add_parser("sweep-beam", help="score and hallucination rate by beam size")
    _add_model_flags(p)
    p.add_argument("--domain", required=True)
    _add_pair_flags(p)
    p.add_argument("--output", required=True, help="sweep CSV path")
    p.add_argument("--system", default="model")
    p.add_argument("--beams", type=_positive_ints,
                   default=",".join(str(k) for k in an.DEFAULT_BEAM_SIZES),
                   help="comma-separated beam sizes")
    p.add_argument("--alpha", type=float, default=an.DEFAULT_EVAL_ALPHA)
    p.add_argument("--threshold", type=float, default=an.DEFAULT_OVERLAP_THRESHOLD)
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
    except (SeqriskError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

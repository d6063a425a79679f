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
import contextlib
import fcntl
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
from . import metrics
from . import numkit as nk
from . import objectives as obj
from . import seqmodel as sm
from .errors import ContractError, SeqriskError


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

    def __post_init__(self):
        for name in ("hallucination_n", "sweep_n", "uncertainty_n"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")


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
        raise ContractError(f"override {assignment!r} is not of the form key=value")
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
            raise ContractError(f"override path {path!r} crosses a non-object field")
    node[parts[-1]] = value


def load_config(path: str | None, overrides: list[str],
                seed: int | None) -> ExperimentConfig:
    data = _load_json(path) if path is not None else {}
    if not isinstance(data, dict):
        raise ContractError(f"{path}: the configuration must be a JSON object")
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
        raise ContractError(f"{path}: invalid JSON: {exc}") from None


def _write_json(path: Path, payload) -> None:
    with sm.atomic_write(path, newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


@contextlib.contextmanager
def output_lock(outdir: Path):
    """Claim directory `outdir` for the block: make it and any missing parent, and lock
    it exclusively (no file; the lock ends with its holder), refusing a concurrent run.
    If the block raises, each directory the claim made goes again, leaf first, if empty."""
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]  # leaf first
    outdir.mkdir(parents=True, exist_ok=True)
    fd = os.open(outdir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:  # another run may have just made it: remove nothing
            raise SeqriskError(f"{outdir} is locked: another run is writing into it; "
                               "wait for it to finish") from None
        try:
            yield
        except BaseException:
            with contextlib.suppress(OSError):  # a directory holding a file stays, with its parents
                for directory in made:
                    directory.rmdir()
            raise
    finally:
        os.close(fd)


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
    for path in (path for path in paths if path is not None):
        if os.path.isdir(path):  # `in_place` counts a directory as written in place
            raise ContractError(f"cannot write {path}: it is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent) or not os.access(
                path if sm.in_place(path) else parent, os.W_OK):
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
    suite = dg.generate_suite(
        config.domain, config.seed,
        train_size=config.data.train_size,
        dev_size=config.data.dev_size,
        test_size=config.data.test_size)
    for name, pairs in suite.items():  # a config can make lines the model cannot take
        _refuse_overlong_pairs(outdir / f"{name}.tsv", pairs, config.model.max_seq_len)
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
                   stores: dict[str, sm.ParameterStore],
                   suite: dict[str, list[dg.TokenPair]], outdir: Path) -> dict:
    ev, spec = config.eval, config.domain
    decode_cfg = dec.DecodeConfig()
    ood, pool = suite["test_ood"], [tgt for _, tgt in suite["test_id"]]
    # one draw for the study: every system scores the same distractors
    assignment, exact = an.assign_distractors(
        [ref for _, ref in ood[: ev.uncertainty_n]], pool, config.seed)
    distractors = [pool[j] for j in assignment]
    summaries: dict[tuple[str, str], an.HallucinationSummary] = {}
    hallucinated_ood: dict[str, list[bool]] = {}
    curves: list[an.UncertaintyCurve] = []
    sweeps = {}
    headline: dict = {"systems": {}}

    for system, store in stores.items():
        info = headline["systems"][system] = {}
        # test_ood last, and at least sweep_n of it: the Fisher test and the sweep reuse it
        for split, n in (("test_id", ev.hallucination_n),
                         ("test_ood", max(ev.hallucination_n, ev.sweep_n))):
            judged = an.judge_corpus(store, vocab, suite[split][:n], spec, decode_cfg)
            judgments = judged[: ev.hallucination_n]
            summary = summaries[(system, split)] = an.summarize_judgments(judgments)
            info[split] = {
                "hallucination_rate": summary.rate,
                "mean_overlap": summary.mean_overlap,
                "corpus_bleu": summary.corpus_bleu,
            }
        hallucinated_ood[system] = [j.hallucinated for j in judgments]
        an.write_judgments_jsonl(outdir / f"judgments_{system}_ood.jsonl", judgments)

        result = an.uncertainty_curves(store, vocab, ood[: ev.uncertainty_n], distractors,
                                       model_tag=system)
        curves.extend(result)
        info["certainty_gap"] = an.certainty_gap(*result)

        by_k = {decode_cfg.beam_size: an.sweep_point(decode_cfg.beam_size, judged[: ev.sweep_n])}
        rest = [k for k in an.DEFAULT_BEAM_SIZES if k not in by_k]
        by_k.update(zip(rest, an.beam_sweep(store, vocab, ood[: ev.sweep_n], spec, rest)))
        sweeps[system] = points = [by_k[k] for k in an.DEFAULT_BEAM_SIZES]
        info["beam_sweep"] = [asdict(p) for p in points]

    table = metrics.ContingencyTable2x2.from_outcomes(
        hallucinated_ood["mle"], hallucinated_ood["mrt"])
    headline["ood_hallucination_fisher"] = {
        "p_value": metrics.fisher_exact_two_tailed(table),
        "table": [[table.a, table.b], [table.c, table.d]],
    }
    an.write_assignment_csv(outdir / "distractor_assignment.csv", assignment, exact)
    an.write_curves_csv(outdir / "uncertainty_curves.csv", curves)
    an.write_sweep_csv(outdir / "beam_sweep.csv", sweeps)
    an.write_hallucination_csv(outdir / "hallucination_summary.csv", summaries)
    _write_json(outdir / "summary.json", headline)
    return headline


def run_reproduce(config: ExperimentConfig, outdir: Path) -> dict:
    """The full study: data, MLE, risk fine-tuning, all diagnostics, manifest."""
    with output_lock(outdir):
        for name in ("manifest.json", "summary.json"):  # no failed rerun looks finished
            (outdir / name).unlink(missing_ok=True)
        suite = stage_gen_data(config, outdir)
        vocab = dg.build_vocabulary(config.domain)
        mle_store = stage_train_mle(config, vocab, suite["train"], outdir)
        mrt_store = stage_finetune_mrt(config, vocab, mle_store, suite["train"], outdir)
        headline = stage_analyses(
            config, vocab, {"mle": mle_store, "mrt": mrt_store}, suite, outdir)

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
            "files": {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                      for name in artifacts},
        }
        _write_json(outdir / "manifest.json", manifest)
    return headline


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise ContractError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=_path, help="experiment configuration JSON")
    p.add_argument("--seed", type=int, default=None, help="override the run seed")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.FIELD=VALUE",
                   help="override one configuration field (repeatable)")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", type=_path, required=True)
    p.add_argument("--domain", type=_path, required=True, help="domain.json from gen-data")


def _path(text: str) -> str:
    if not text:  # an empty path would mean the working directory
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _beam_sizes(text: str) -> list[int]:
    """Comma-separated distinct beam sizes in [1, seqmodel.MAX_LIVE_ROWS], such
    as "1,4,50"; a repeat would decode into the same row."""
    sizes = [_positive_int(part.strip()) for part in text.split(",")]
    if len(set(sizes)) < len(sizes) or max(sizes) > sm.MAX_LIVE_ROWS:
        raise argparse.ArgumentTypeError(
            f"must be distinct sizes in [1, {sm.MAX_LIVE_ROWS}], got {text!r}")
    return sizes


def _add_pair_flags(p: argparse.ArgumentParser, data_help: str | None = None) -> None:
    p.add_argument("--data-file", type=_path, required=True, help=data_help)
    p.add_argument("--n", type=_positive_int, default=None,
                   help="use only the first N pairs")


def _cmd_gen_data(args) -> int:
    config = load_config(args.config, args.overrides, args.seed)
    with output_lock(Path(args.outdir)):
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
    with output_lock(outdir):
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
    with output_lock(outdir):
        stage_finetune_mrt(config, vocab, mle_store, train, outdir)
    print(f"wrote {outdir / 'mrt.ckpt'}")
    return 0


def _cmd_translate(args) -> int:
    store, vocab, _ = _load_model(args.checkpoint, args.domain)
    _refuse_unwritable(None if args.output == "-" else args.output)  # stdout needs no check
    text = sm.read_utf8(args.input)  # lines end at "\n" alone, as corpus lines do
    sources = [line.split() for line in text.removesuffix("\n").split("\n")] if text else []
    _refuse_overlong(args.input, sources, store.config.max_seq_len)
    config = dec.DecodeConfig(beam_size=args.beam)
    lines = [""] * len(sources)  # a blank input line gives a blank output line
    kept = [i for i, src in enumerate(sources) if src]
    for i, hyps in zip(kept, dec.beam_search_corpus(
            store, [vocab.encode(sources[i]) for i in kept], config)):
        best = hyps[0]
        text = " ".join(vocab.decode(best.tokens))
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
    config = dec.DecodeConfig(beam_size=args.beam)
    judgments = an.judge_corpus(store, vocab, pairs, spec, config)
    summary = an.summarize_judgments(judgments)
    if args.judgments is not None:
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
    assignment, exact = an.assign_distractors([ref for _, ref in pairs], pool, args.seed)
    references, distractors = an.uncertainty_curves(
        store, vocab, pairs, [pool[j] for j in assignment], model_tag=args.system)
    gap = an.certainty_gap(references, distractors)  # may fail: before any file is written
    an.write_curves_csv(args.output, [references, distractors])
    if args.assignment is not None:
        an.write_assignment_csv(args.assignment, assignment, exact)
    print(json.dumps({
        "certainty_gap": gap,
        "positions": len(references.mean_prob),
        "exact_length_matches": sum(exact),
    }, sort_keys=True))
    return 0


def _cmd_sweep_beam(args) -> int:
    store, vocab, spec = _load_model(args.checkpoint, args.domain)
    _refuse_unwritable(args.output)
    pairs = _read_pairs(args, store, spec)
    points = an.beam_sweep(store, vocab, pairs, spec, args.beams)
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
    p.add_argument("--outdir", type=_path, required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-mle", help="train the likelihood baseline")
    _add_config_flags(p)
    p.add_argument("--data", type=_path, required=True, help="directory from gen-data")
    p.add_argument("--outdir", type=_path, required=True)
    p.set_defaults(func=_cmd_train_mle)

    p = sub.add_parser("finetune-mrt", help="risk fine-tuning from a checkpoint")
    _add_config_flags(p)
    p.add_argument("--data", type=_path, required=True)
    p.add_argument("--checkpoint", type=_path, required=True)
    p.add_argument("--outdir", type=_path, required=True)
    p.set_defaults(func=_cmd_finetune_mrt)

    p = sub.add_parser("translate", help="decode source lines with a checkpoint")
    _add_model_flags(p)
    p.add_argument("--input", type=_path, required=True, help="one source sentence per line")
    p.add_argument("--output", type=_path, default="-")
    p.add_argument("--beam", type=_positive_int, default=dec.DecodeConfig.beam_size)
    p.add_argument("--scores", action="store_true",
                   help="append total log-probability to each line")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("evaluate", help="corpus score plus hallucination summary")
    _add_model_flags(p)
    _add_pair_flags(p)
    p.add_argument("--beam", type=_positive_int, default=dec.DecodeConfig.beam_size)
    p.add_argument("--judgments", type=_path, default=None, help="write per-sentence JSONL here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("analyze-uncertainty",
                       help="forced-token certainty curves vs distractors")
    _add_model_flags(p)
    _add_pair_flags(p, "corpus whose references are scored")
    p.add_argument("--distractor-file", type=_path, required=True,
                   help="corpus whose targets form the distractor pool")
    p.add_argument("--output", type=_path, required=True, help="curve CSV path")
    p.add_argument("--assignment", type=_path, default=None,
                   help="optional CSV recording reference-to-distractor pairing")
    p.add_argument("--system", default="model", help="model tag for the CSV rows")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=_cmd_analyze_uncertainty)

    p = sub.add_parser("sweep-beam", help="score and hallucination rate by beam size")
    _add_model_flags(p)
    _add_pair_flags(p)
    p.add_argument("--output", type=_path, required=True, help="sweep CSV path")
    p.add_argument("--system", default="model")
    p.add_argument("--beams", type=_beam_sizes,
                   default=",".join(str(k) for k in an.DEFAULT_BEAM_SIZES),
                   help="comma-separated beam sizes")
    p.set_defaults(func=_cmd_sweep_beam)

    p = sub.add_parser("reproduce", help="run the full study into one directory")
    _add_config_flags(p)
    p.add_argument("--outdir", type=_path, required=True)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with nk.single_blas_thread():
            return args.func(args)
    except (SeqriskError, OSError) as exc:
        named = isinstance(exc, OSError) and exc.filename is not None
        print(f"error: {exc.filename}: {exc.strerror}" if named else f"error: {exc}",
              file=sys.stderr)
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

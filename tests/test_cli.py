"""Command-line behaviour: strict configuration validation, file outputs,
locking, a reduced-size byte-identity run, and the refusal matrix: one row
per way a command must refuse, each checked for exit 1, one error line
naming the file or setting at fault, an unchanged file tree and no model
pass."""

import argparse
import contextlib
import dataclasses
import fcntl
import importlib
import json
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from seqrisk import analysis as an
from seqrisk import cli
from seqrisk import datagen as dg
from seqrisk import decoding as dec
from seqrisk import metrics
from seqrisk import numkit as nk
from seqrisk import seqmodel as sm
from seqrisk.errors import ContractError

TINY = {
    "seed": 1,
    "domain": {"n_function": 3, "n_base_content": 6, "n_novel_content": 4,
               "min_chunks": 1, "max_chunks": 3},
    "model": {"embed_dim": 16, "num_heads": 2, "enc_layers": 1, "dec_layers": 1,
              "ffn_dim": 24, "max_seq_len": 16},
    "data": {"train_size": 24, "dev_size": 6, "test_size": 16},
    "mle": {"epochs": 2, "tokens_per_batch": 64, "warmup_steps": 10},
    "mrt": {"steps": 2, "sentences_per_batch": 4, "n_samples": 3},
    "eval": {"hallucination_n": 10, "sweep_n": 6, "uncertainty_n": 16,
             "beam_sizes": [1, 4]},
}


def write_tiny_config(tmp_path, **extra) -> Path:
    data = json.loads(json.dumps(TINY))
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestConfigValidation:
    def test_defaults_build(self):
        config = cli.config_from_dict({})
        assert config.seed == 0
        assert config.mrt.lr == 1.5e-4
        assert config.mrt.n_samples == 4
        assert config.model.embed_dim == 64

    def test_unknown_top_level_field_named(self):
        with pytest.raises(ContractError, match="seeed"):
            cli.config_from_dict({"seeed": 3})

    def test_unknown_nested_field_named(self):
        with pytest.raises(ContractError, match=r"mle\.peak_lrr"):
            cli.config_from_dict({"mle": {"peak_lrr": 0.1}})

    def test_section_must_be_object(self):
        with pytest.raises(ContractError, match="mrt must be an object"):
            cli.config_from_dict({"mrt": 5})

    def test_seed_must_be_integer(self):
        with pytest.raises(ContractError, match="seed"):
            cli.config_from_dict({"seed": "zero"})
        with pytest.raises(ContractError, match="seed"):
            cli.config_from_dict({"seed": True})

    @pytest.mark.parametrize("section, field, value", [
        ("model", "num_heads", 0), ("model", "embed_dim", 0), ("model", "max_seq_len", 1),
        ("model", "dropout_rate", 1.0),
        ("eval", "hallucination_n", 0), ("eval", "sweep_n", 0), ("eval", "uncertainty_n", -1),
        ("mle", "warmup_steps", 0), ("mle", "peak_lr", -1),
        ("mrt", "lr", -1), ("mrt", "steps", -1), ("mrt", "sentences_per_batch", 0)])
    def test_bad_value_named_at_load(self, section, field, value):
        with pytest.raises(ContractError, match=rf"^{section}: .*{field}"):
            cli.config_from_dict({section: {field: value}})

    @pytest.mark.parametrize("override", [
        "mrt.lr=NaN", "mrt.lr=Infinity", "mle.peak_lr=Infinity",
        "domain.p_two_content=-Infinity"])
    def test_non_finite_value_named_at_load(self, override):
        field = override.split("=")[0].replace(".", r"\.")
        with pytest.raises(ContractError, match=rf"^{field} must be a finite number, got "):
            cli.load_config(None, [override], None)

    @pytest.mark.parametrize("section, fields", [
        ("mle", ("peak_lr",)), ("mrt", ("lr", "steps"))])
    def test_zero_training_settings_load(self, section, fields):
        config = cli.config_from_dict({section: {f: 0 for f in fields}})
        assert all(getattr(getattr(config, section), f) == 0 for f in fields)

    def test_contract_violations_name_the_section(self):
        with pytest.raises(ContractError, match="mrt"):
            cli.config_from_dict({"mrt": {"n_samples": 0}})
        with pytest.raises(ContractError, match="domain"):
            cli.config_from_dict({"domain": {"min_chunks": 5, "max_chunks": 2}})

    @pytest.mark.parametrize("section, field, value", [
        ("mle", "epochs", 1.5), ("model", "enc_layers", 1.5), ("data", "dev_size", True),
        ("eval", "beam_sizes", [1, "4"]),
        ("mrt", "n_samples", "4"), ("domain", "p_two_content", "0.5")])
    def test_wrongly_typed_field_named(self, section, field, value):
        with pytest.raises(ContractError, match=rf"^{section}\.{field} must be "):
            cli.config_from_dict({section: {field: value}})

    def test_overrides(self):
        data = {}
        cli._apply_override(data, "mle.epochs=3")
        cli._apply_override(data, "domain.p_two_content=0.25")
        cli._apply_override(data, "seed=7")
        config = cli.config_from_dict(data)
        assert config.mle.epochs == 3
        assert config.domain.p_two_content == 0.25
        assert config.seed == 7

    def test_override_requires_assignment(self):
        with pytest.raises(ContractError, match="'mle.epochs' is not of the form key=value"):
            cli._apply_override({}, "mle.epochs")

    def test_seed_flag_wins_over_file(self, tmp_path):
        path = write_tiny_config(tmp_path, seed=5)
        config = cli.load_config(str(path), [], seed=9)
        assert config.seed == 9

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ContractError, match="invalid JSON"):
            cli.load_config(str(path), [], None)

    def test_an_int_for_a_float_field_hashes_as_the_float(self):
        as_int = cli.load_config(None, ["mrt.lr=1", "mle.peak_lr=0"], None)
        as_float = cli.load_config(None, ["mrt.lr=1.0", "mle.peak_lr=0.0"], None)
        assert as_int.canonical_json() == as_float.canonical_json()
        assert type(as_int.mrt.lr) is float

    def test_canonical_json_is_stable(self):
        a = cli.config_from_dict({"seed": 3}).canonical_json()
        b = cli.config_from_dict({"seed": 3}).canonical_json()
        assert a == b


class TestExitCodes:
    def test_out_of_memory_is_one_naming_the_command(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.10 GiB for an array")

        monkeypatch.setattr(cli, "stage_gen_data", exhausted)
        code = cli.main(["gen-data", "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err == ("error: gen-data ran out of memory: "
                       "Unable to allocate 2.10 GiB for an array\n")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


class TestGenData:
    def test_writes_suite(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "data"
        assert cli.main(["gen-data", "--config", str(config),
                         "--outdir", str(out)]) == 0
        for name in ("train.tsv", "dev.tsv", "test_id.tsv", "test_ood.tsv",
                     "domain.json", "vocab.json"):
            assert (out / name).exists(), name
        assert len(dg.read_tsv(out / "train.tsv")) == 24
        spec = cli._load_domain(out / "domain.json")
        assert spec.n_function == 3


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ws")
    config = write_tiny_config(tmp)
    data = tmp / "data"
    run = tmp / "run"
    assert cli.main(["gen-data", "--config", str(config),
                     "--outdir", str(data)]) == 0
    assert cli.main(["train-mle", "--config", str(config),
                     "--data", str(data), "--outdir", str(run)]) == 0
    return config, data, run


class TestModelCommands:
    def test_train_then_finetune(self, workspace):
        config, data, run = workspace
        assert (run / "mle.ckpt").exists()
        assert (run / "mle_trace.csv").exists()
        assert cli.main(["finetune-mrt", "--config", str(config),
                         "--data", str(data),
                         "--checkpoint", str(run / "mle.ckpt"),
                         "--outdir", str(run)]) == 0
        assert (run / "mrt.ckpt").exists()

    def test_translate_round_trip(self, workspace, tmp_path, capsys):
        config, data, run = workspace
        src_file = tmp_path / "sources.txt"
        pairs = dg.read_tsv(data / "test_id.tsv")[:4]
        src_file.write_text("".join(" ".join(s) + "\n" for s, _ in pairs))
        out_file = tmp_path / "hyps.txt"
        assert cli.main(["translate", "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"),
                         "--input", str(src_file),
                         "--output", str(out_file), "--beam", "2"]) == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 4

    def test_translate_keeps_blank_lines(self, workspace, tmp_path, capsys):
        config, data, run = workspace
        pairs = dg.read_tsv(data / "test_id.tsv")[:2]
        outputs = []
        for name, text in (("dense.txt", "{0}\n{1}\n"), ("gappy.txt", "{0}\n\n{1}\n")):
            (tmp_path / name).write_text(text.format(*(" ".join(s) for s, _ in pairs)))
            assert cli.main(["translate", "--checkpoint", str(run / "mle.ckpt"),
                             "--domain", str(data / "domain.json"),
                             "--input", str(tmp_path / name), "--beam", "2"]) == 0
            outputs.append(capsys.readouterr().out.split("\n"))
        dense, gappy = outputs
        assert gappy == [dense[0], "", dense[1], ""]

    def test_translate_ends_lines_at_newline_alone(self, workspace, tmp_path, capsys):
        # each of these is a line break to str.splitlines(), but whitespace to str.split()
        config, data, run = workspace
        sources = [s for s, _ in dg.read_tsv(data / "test_id.tsv") if len(s) > 1][:3]
        outputs = []
        for name, seps, end in (("plain.txt", [" "] * 3, "\n"),
                                ("odd.txt", ["\f\v", "\x1c\x1d\x1e\x85", "\u2028\u2029\r"],
                                 "\r\n")):
            text = "".join(sep.join(src) + end for sep, src in zip(seps, sources))
            (tmp_path / name).write_bytes(text.encode("utf-8"))
            assert cli.main(["translate", "--checkpoint", str(run / "mle.ckpt"),
                             "--domain", str(data / "domain.json"),
                             "--input", str(tmp_path / name), "--beam", "2"]) == 0
            outputs.append(capsys.readouterr().out)
        plain, odd = outputs
        assert odd == plain and plain.count("\n") == 3

    def test_forced_target_may_fill_all_but_bos(self, workspace, tmp_path, capsys):
        config, data, run = workspace
        lines = (data / "test_ood.tsv").read_text().splitlines()[:3]
        lines[1] = "sf0\t" + " ".join(["tf0"] * 15)
        (tmp_path / "full.tsv").write_text("\n".join(lines) + "\n")
        assert cli.main(["analyze-uncertainty", "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"),
                         "--data-file", str(tmp_path / "full.tsv"),
                         "--distractor-file", str(tmp_path / "full.tsv"),
                         "--output", str(tmp_path / "curves.csv")]) == 0

    def test_a_corpus_without_position_3_writes_no_file(self, workspace, tmp_path, capsys):
        config, data, run = workspace
        short = tmp_path / "short.tsv"  # one-token targets: forced positions 1 and 2 only
        short.write_text("".join(f"{' '.join(src)}\t{tgt[0]}\n"
                                 for src, tgt in dg.read_tsv(data / "test_id.tsv")[:4]))
        code = cli.main(["analyze-uncertainty", "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"), "--data-file", str(short),
                         "--distractor-file", str(short),
                         "--output", str(tmp_path / "curves.csv"),
                         "--assignment", str(tmp_path / "assignment.csv")])
        err = capsys.readouterr().err
        assert code == 1 and "no shared positions >= 3" in err, err
        assert list(tmp_path.iterdir()) == [short]

    def test_evaluate_emits_summary_json(self, workspace, capsys):
        config, data, run = workspace
        assert cli.main(["evaluate", "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"),
                         "--data-file", str(data / "test_id.tsv"),
                         "--beam", "2", "--n", "6"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"corpus_bleu", "rate", "n"} <= set(payload)
        assert payload["n"] == 6

    def test_sweep_and_uncertainty_commands(self, workspace, tmp_path, capsys):
        config, data, run = workspace
        sweep_csv = tmp_path / "sweep.csv"
        assert cli.main(["sweep-beam", "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"),
                         "--data-file", str(data / "test_ood.tsv"),
                         "--output", str(sweep_csv), "--beams", "1,2",
                         "--n", "6"]) == 0
        assert sweep_csv.exists()
        curve_csv = tmp_path / "curves.csv"
        assignment_csv = tmp_path / "assignment.csv"
        assert cli.main(["analyze-uncertainty",
                         "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"),
                         "--data-file", str(data / "test_ood.tsv"),
                         "--distractor-file", str(data / "test_id.tsv"),
                         "--output", str(curve_csv),
                         "--assignment", str(assignment_csv),
                         "--n", "16"]) == 0
        assert curve_csv.exists() and assignment_csv.exists()
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"certainty_gap", "positions", "exact_length_matches"} <= set(payload)


# -- the refusal matrix -------------------------------------------------------
#
# Each row is one way a command must refuse.  It runs the command's working
# command line with one change, in a directory laid out by `lay_out`, and
# checks that the command exits 1 with one `error:` line naming the file or
# setting at fault, that no path under the directory appeared, vanished or
# changed, and that no model pass ran: every decode, training step and
# teacher-forced scoring pass starts in `seqmodel.encode_rows`.

MODEL = ["--checkpoint", "{root}/mle.ckpt", "--domain", "{root}/data/domain.json"]
CONFIG = ["--config", "{root}/config.json"]

# each command's working command line; "{root}" stands for the row's directory
WORKING = {
    "gen-data": [*CONFIG, "--outdir", "{root}/out"],
    "train-mle": [*CONFIG, "--data", "{root}/data", "--outdir", "{root}/out"],
    "finetune-mrt": [*CONFIG, "--data", "{root}/data", "--checkpoint", "{root}/mle.ckpt",
                     "--outdir", "{root}/out"],
    "translate": [*MODEL, "--input", "{root}/in.txt", "--output", "{root}/out.txt"],
    "evaluate": [*MODEL, "--data-file", "{root}/data/test_ood.tsv", "--n", "2",
                 "--judgments", "{root}/out.jsonl"],
    "sweep-beam": [*MODEL, "--data-file", "{root}/data/test_ood.tsv", "--n", "2",
                   "--output", "{root}/out.csv"],
    "analyze-uncertainty": [*MODEL, "--data-file", "{root}/data/test_ood.tsv",
                            "--distractor-file", "{root}/data/test_id.tsv",
                            "--output", "{root}/out.csv", "--assignment", "{root}/assignment.csv"],
    "reproduce": [*CONFIG, "--outdir", "{root}/out"],
}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """The parser of each command, by name."""
    return next(action.choices for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def command_line(command: str, root: Path, flags: dict | None = None) -> list[str]:
    """`command`'s working command line on the files under `root`, with each
    flag of `flags` given its value: in place of the line's own, or added."""
    argv = list(WORKING[command])
    for flag, value in (flags or {}).items():
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return [command, *(arg.replace("{root}", str(root)) for arg in argv)]


def lay_out(workspace, root: Path) -> None:
    """The inputs of every working command line under `root`: the
    configuration, the gen-data directory `data`, an MLE checkpoint and a
    translate input."""
    config, data, run = workspace
    shutil.copytree(data, root / "data")
    shutil.copy(config, root / "config.json")
    shutil.copy(run / "mle.ckpt", root / "mle.ckpt")
    (root / "in.txt").write_text("sf0 sf1\n")


def file_tree(root: Path) -> dict:
    """Every path under `root`, with the bytes of each file."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


class Refusal(typing.NamedTuple):
    command: str
    says: str  # in the error line; "{root}" stands for the row's directory
    flags: dict  # as `command_line` takes them
    files: dict  # a path under the row's directory: its bytes, or a function that edits it
    held: bool  # `{root}/out` exists, locked as another run would lock it


def line_2(source: int, target: int):
    """An edit giving a corpus file a line 2 of `source` and `target` tokens."""
    def edit(path: Path) -> None:
        lines = path.read_text().splitlines()
        lines[1] = " ".join(["sf0"] * source) + "\t" + " ".join(["tf0"] * target)
        path.write_text("\n".join(lines) + "\n")
    return edit


def misdescribe(**config):
    """An edit giving a checkpoint's manifest a config that misdescribes its tensors."""
    def edit(path: Path) -> None:
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(header)
        manifest["config"].update(config)
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
    return edit


def truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-8])


def poison(path: Path) -> None:
    """Save the checkpoint with a NaN weight: its payload matches its sha256,
    so the NaN would otherwise surface mid-run."""
    store = sm.ParameterStore.load(path)
    store["embed.shared"].data[5, 0] = np.nan
    store.save(path)


BLOCKER = {"F": b"a regular file\n"}  # a path through it is refused
OTHER_DOMAIN = json.dumps(dict(TINY["domain"], n_novel_content=2)).encode()  # the run used 4

# settings refused when the configuration is built, before any file is read
BAD_SETTINGS = [
    ("model.num_heads=3", "model: embed_dim 16 not divisible by num_heads 3"),
    ("model.dropout_rate=1.5", "model: dropout_rate must be in [0, 1), got 1.5"),
    ("model.max_seq_len=1", "model: max_seq_len must be >= 2, got 1"),
    ("eval.sweep_n=0", "eval: sweep_n must be >= 1, got 0"),
    ("mle.warmup_steps=0", "mle: warmup_steps must be >= 1, got 0"),
    ("mle.peak_lr=-1", "mle: peak_lr must be >= 0, got -1"),
    ("mrt.lr=-1", "mrt: lr must be >= 0, got -1"),
    ("mrt.steps=-1", "mrt: steps must be >= 0, got -1"),
    ("mrt.sampling_strategy=beam", "mrt.sampling_strategy is not a recognized field"),
    ("model.tie_embeddings=false", "model.tie_embeddings is not a recognized field"),
    ("mle.beta1=0.8", "mle.beta1 is not a recognized field"),
    ("mrt.adam_eps=1e-8", "mrt.adam_eps is not a recognized field"),
    ("mrt.temperature=1", "mrt.temperature is not a recognized field"),
    ("eval.max_positions=5", "eval.max_positions is not a recognized field"),
    ("mle.grad_clip=1", "mle.grad_clip is not a recognized field"),
    ("mrt.grad_clip=1", "mrt.grad_clip is not a recognized field"),
    ("eval.min_position=3", "eval.min_position is not a recognized field"),
    ("eval.length_norm_alpha=0.6", "eval.length_norm_alpha is not a recognized field"),
    ("eval.overlap_threshold=0.2", "eval.overlap_threshold is not a recognized field"),
    ("mle.label_smoothing=0.1", "mle.label_smoothing is not a recognized field"),
    ("eval.eval_beam=4", "eval.eval_beam is not a recognized field"),
    ("mrt.alpha=0.005", "mrt.alpha is not a recognized field"),
    # TINY asks for 10 sentences to judge from each test set
    ("data.test_size=4", "eval.hallucination_n must be <= data.test_size 4, got 10"),
    # sizes one decoder would hold beyond seqmodel.MAX_LIVE_ROWS, and a repeated width
    ("mrt.n_samples=65", "mrt: sentences_per_batch * n_samples must be <= 256, got 4 * 65"),
    ("eval.beam_sizes=[1,257]", "eval: beam_sizes must be distinct sizes in [1, 256], "
     "got [1, 257]"),
    ("eval.beam_sizes=[2,1,2]", "eval: beam_sizes must be distinct sizes in [1, 256], "
     "got [2, 1, 2]"),
]

def refusal_rows() -> dict[str, Refusal]:
    """Every row of the matrix, by id: "command/what is wrong"."""
    rows = {}

    def add(command, what, says, flags=None, files=None, held=False):
        assert f"{command}/{what}" not in rows, what
        rows[f"{command}/{what}"] = Refusal(command, says, flags or {}, files or {}, held)

    # configuration, seed, flags and output directories
    for command in ("gen-data", "reproduce"):
        for override, says in BAD_SETTINGS:
            add(command, f"set-{override}", says, {"--set": override})
        add(command, "negative-seed", "seed must be >= 0, got -1", {"--seed": "-1"})
    add("train-mle", "negative-seed", "seed must be >= 0, got -1", {"--seed": "-1"})
    add("gen-data", "config-invalid-json", "{root}/config.json: invalid JSON",
        files={"config.json": b"{"})
    add("gen-data", "config-not-utf8", "{root}/config.json:1: not UTF-8",
        files={"config.json": b'{"seed": 1, "mle": {"epochs": "\xe9"}}'})
    for root, name in (("[1]", "list"), ('"seed"', "string"), ("null", "null")):
        for how, flags in (("plain", {"--seed": "1"}),
                           ("set", {"--seed": "1", "--set": "mrt.steps=1"})):
            add("gen-data", f"config-root-{name}-{how}",
                "{root}/config.json: the configuration must be a JSON object", flags,
                {"config.json": root.encode()})
    for command, flag, value in (
            ("gen-data", "--no-such-flag", "1"), ("translate", "--alpha", "0.6"),
            ("evaluate", "--alpha", "0.6"), ("sweep-beam", "--alpha", "0.6"),
            ("evaluate", "--threshold", "0.2"), ("sweep-beam", "--threshold", "0.2"),
            ("analyze-uncertainty", "--max-positions", "3"),
            ("analyze-uncertainty", "--min-position", "3")):
        add(command, f"unknown-flag-{flag[2:]}", f"unrecognized arguments: {flag} {value}",
            {flag: value})
    for n in ("-3", "0", "two"):
        add("evaluate", f"n-{n}", f"argument --n: must be a positive integer, got '{n}'",
            {"--n": n})
    for command in ("translate", "evaluate"):
        add(command, "beam-0", "argument --beam: must be a positive integer, got '0'",
            {"--beam": "0"})
        add(command, "beam-257", "beam_size must be in [1, 256], got 257", {"--beam": "257"})
    for beams, bad in (("1,x", "x"), ("0,4", "0"), ("", "")):
        add("sweep-beam", f"beams-{beams or 'empty'}",
            f"argument --beams: must be a positive integer, got '{bad}'", {"--beams": beams})
    for beams, sizes in (("1,1", "[1, 1]"), ("4,257", "[4, 257]")):
        add("sweep-beam", f"beams-{beams}",
            f"--beams must be distinct sizes in [1, 256], got {sizes}", {"--beams": beams})
    add("analyze-uncertainty", "negative-seed",
        "argument --seed: must be a non-negative integer, got '-3'", {"--seed": "-3"})
    for command in ("gen-data", "train-mle", "finetune-mrt", "reproduce"):
        add(command, "held-lock", "{root}/out is locked: another run is writing into it",
            held=True)
    add("gen-data", "outdir-through-a-file", "{root}/F/sub: Not a directory",
        {"--outdir": "{root}/F/sub"}, BLOCKER)
    add("reproduce", "outdir-a-file", "{root}/F: File exists", {"--outdir": "{root}/F"}, BLOCKER)
    outputs = (("evaluate", "--judgments"), ("sweep-beam", "--output"),
               ("translate", "--output"), ("analyze-uncertainty", "--output"))
    for command, flag in outputs:
        for what, path, says in (
                ("missing-directory", "{root}/missing/out.txt",
                 "cannot write {root}/missing/out.txt: it or its directory is missing"),
                ("under-a-file", "{root}/F/out.txt",
                 "cannot write {root}/F/out.txt: it or its directory is missing"),
                ("a-directory", "{root}", "cannot write {root}: it is a directory"),
                ("empty", "", f"argument {flag}: must be a non-empty path")):
            add(command, f"output-{what}", says, {flag: path}, BLOCKER)
    # every other path flag given empty: it would name the working directory
    for command, parser in subcommands().items():
        for flag in (a.option_strings[0] for a in parser._actions if a.type is cli._path):
            if (command, flag) not in outputs:
                add(command, f"{flag[2:]}-empty", f"argument {flag}: must be a non-empty path",
                    {flag: ""})
    add("analyze-uncertainty", "assignment-missing-directory",
        "cannot write {root}/no-such-dir/assignment.csv: it or its directory is missing",
        {"--assignment": "{root}/no-such-dir/assignment.csv"})

    # a generated line the model cannot take, refused before a corpus file is
    # written: the directories the claim made go, and one that was there stays
    for command in ("gen-data", "reproduce"):
        for what, outdir, files in (("", "{root}/out", None),
                                    ("-new-parents", "{root}/new/er/out", None),
                                    ("-empty-outdir", "{root}/out", {"out": Path.mkdir})):
            add(command, f"overlong-generated-line{what}",
                f"{outdir}/train.tsv: line 9 has 8 target tokens, more than the 7 that the "
                "model's max_seq_len 8 leaves after BOS",
                {"--set": "model.max_seq_len=8", "--outdir": outdir}, files)

    # files the system refuses to open
    for command in ("translate", "finetune-mrt"):
        add(command, "missing-checkpoint", "{root}/no.ckpt: No such file or directory",
            {"--checkpoint": "{root}/no.ckpt"})
    add("translate", "input-through-a-file", "{root}/F/x: Not a directory",
        {"--input": "{root}/F/x"}, BLOCKER)
    add("train-mle", "data-through-a-file", "{root}/F/domain.json: Not a directory",
        {"--data": "{root}/F"}, BLOCKER)
    for command, flag in (("translate", "--checkpoint"), ("translate", "--input"),
                          ("evaluate", "--data-file")):
        add(command, f"{flag[2:]}-a-directory", "{root}/data: Is a directory",
            {flag: "{root}/data"})

    # malformed inputs
    add("translate", "domain-invalid-json", "{root}/data/domain.json: invalid JSON",
        files={"data/domain.json": b'{"n_function": '})
    add("translate", "domain-not-utf8", "{root}/data/domain.json:1: not UTF-8",
        files={"data/domain.json": b'{"x": "t\xff"}'})
    add("evaluate", "domain-unknown-field",
        "{root}/data/domain.json: domain.bogus is not a recognized field",
        files={"data/domain.json": b'{"bogus": 1}'})
    add("evaluate", "domain-mistyped-field",
        "{root}/data/domain.json: domain.n_function must be int, got 'x'",
        files={"data/domain.json": b'{"n_function": "x"}'})
    add("evaluate", "domain-nan",
        "{root}/data/domain.json: domain.p_two_content must be a finite number, got nan",
        files={"data/domain.json": b'{"p_two_content": NaN}'})
    for command in ("translate", "finetune-mrt", "evaluate", "sweep-beam"):
        add(command, "domain-of-another-size",
            "{root}/data/domain.json gives a vocabulary of 26 tokens (with the 4 reserved), "
            "but {root}/mle.ckpt was trained on a vocabulary of 30",
            files={"data/domain.json": OTHER_DOMAIN})
    for command, name, content, line in (
            ("evaluate", "data/test_ood.tsv", b"sf0\ttf0\nsf1\xff\ttf1\n", 2),
            ("analyze-uncertainty", "data/test_id.tsv", b"sf0\ttf0\nsf1\xff\ttf1\n", 2),
            ("train-mle", "data/train.tsv", b"sf0\ttf0\n\xfe\ttf1\n", 2),
            ("train-mle", "data/dev.tsv", b"sf0\ttf0\nsf0\ttf0\n\xfe\ttf1\n", 3),
            ("translate", "in.txt", b"sf0 sf1\nsf1 \xc3\n", 2)):
        add(command, f"{Path(name).stem}-not-utf8", f"{{root}}/{name}:{line}: not UTF-8",
            files={name: content})
    for command, name in (("evaluate", "test_ood"), ("sweep-beam", "test_ood"),
                          ("analyze-uncertainty", "test_ood"), ("analyze-uncertainty", "test_id"),
                          ("train-mle", "train"), ("train-mle", "dev"), ("finetune-mrt", "train")):
        add(command, f"{name}-empty", f"{{root}}/data/{name}.tsv: no sentence pairs in the file",
            files={f"data/{name}.tsv": b""})
    for command in ("evaluate", "sweep-beam"):
        add(command, "reference-without-content",
            "{root}/data/test_ood.tsv: line 2 has a reference with no content token of the "
            "domain", files={"data/test_ood.tsv": b"sf0 sb0\ttf0 tb0\nsf0 sb0\ttf0\n"})

    # checkpoints the loader refuses (tests/test_seqmodel.py holds every variant)
    add("translate", "checkpoint-truncated",
        "{root}/mle.ckpt: a 21560-byte payload where its tensors take 21568; "
        "file truncated or corrupt", files={"mle.ckpt": truncate})
    add("translate", "checkpoint-misdescribed",
        "{root}/mle.ckpt: holds tensor enc.final_ln.gain (16,) where its config's model has "
        "enc.1.ln1.gain (16,)", files={"mle.ckpt": misdescribe(enc_layers=2)})
    for command in ("translate", "finetune-mrt"):
        add(command, "checkpoint-non-finite", "{root}/mle.ckpt: holds non-finite weights",
            files={"mle.ckpt": poison})

    # lines the model cannot take
    add("translate", "overlong-source",
        "{root}/in.txt: line 2 has 17 tokens, more than the model's max_seq_len 16",
        files={"in.txt": ("sf0\n" + " ".join(["x"] * 17) + "\nsf1\n").encode()})
    for command, name, source, target, says in (
            ("evaluate", "test_ood", 17, 3,
             "line 2 has 17 tokens, more than the model's max_seq_len 16"),
            ("sweep-beam", "test_ood", 17, 3, "line 2 has 17 tokens"),
            ("analyze-uncertainty", "test_ood", 17, 3, "line 2 has 17 tokens"),
            ("analyze-uncertainty", "test_ood", 3, 16, "line 2 has 16 target tokens, more "
             "than the 15 that the model's max_seq_len 16 leaves after BOS"),
            ("analyze-uncertainty", "test_id", 3, 16, "line 2 has 16 target tokens"),
            ("train-mle", "train", 17, 3,
             "line 2 has 17 tokens, more than the model's max_seq_len 16"),
            ("train-mle", "dev", 3, 16, "line 2 has 16 target tokens, more than the 15"),
            ("finetune-mrt", "train", 17, 3, "line 2 has 17 tokens"),
            ("finetune-mrt", "train", 3, 16, "line 2 has 16 target tokens")):
        add(command, f"overlong-{name}-{'source' if source > target else 'target'}",
            f"{{root}}/data/{name}.tsv: {says}",
            files={f"data/{name}.tsv": line_2(source, target)})
    return rows


REFUSALS = refusal_rows()


@pytest.mark.parametrize("refusal", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refusal_exits_one_naming_its_cause_before_any_work(workspace, tmp_path, monkeypatch,
                                                              capsys, refusal):
    lay_out(workspace, tmp_path)
    for name, content in refusal.files.items():
        content(tmp_path / name) if callable(content) else (tmp_path / name).write_bytes(content)
    passes = []

    def no_model_pass(*args, **kwargs):
        passes.append(args)
        raise AssertionError("a model pass ran")

    monkeypatch.setattr(sm, "encode_rows", no_model_pass)
    monkeypatch.chdir(tmp_path)  # a path read or written relative to it shows in the tree
    with contextlib.ExitStack() as stack:
        if refusal.held:
            (tmp_path / "out").mkdir()
            fd = os.open(tmp_path / "out", os.O_RDONLY)
            stack.callback(os.close, fd)
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        before = file_tree(tmp_path)
        code = cli.main(command_line(refusal.command, tmp_path, refusal.flags))
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.endswith("\n"), err
    assert err.count("\n") == 1, err
    assert refusal.says.replace("{root}", str(tmp_path)) in err, err
    assert file_tree(tmp_path) == before
    assert passes == []
    if (tmp_path / "out").is_dir():
        assert_unlocked(tmp_path / "out")


def test_every_command_has_refusal_rows():
    assert set(subcommands()) == set(WORKING) == {
        refusal.command for refusal in REFUSALS.values()}


@pytest.mark.parametrize("command", WORKING)
def test_each_working_command_line_succeeds(workspace, tmp_path, monkeypatch, capsys, command):
    # so a row's refusal comes from its one change; a command that writes
    # into --outdir locks it once, however many of its stages write there
    lay_out(workspace, tmp_path)
    real, locks = fcntl.flock, []
    monkeypatch.setattr(fcntl, "flock", lambda fd, how: locks.append(how) or real(fd, how))
    assert cli.main(command_line(command, tmp_path)) == 0, capsys.readouterr().err
    assert len(locks) == ("--outdir" in WORKING[command]), locks


def test_an_output_written_in_place_is_checked_for_its_own_access(tmp_path, monkeypatch):
    # a device and a symlink are written through, so their directories' access is moot
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "target.csv")
    monkeypatch.setattr(os, "access", lambda path, mode: path in (os.devnull, str(link)))
    cli._refuse_unwritable(os.devnull, str(link), None)
    with pytest.raises(ContractError, match=re.escape(f"cannot write {tmp_path / 'new.csv'}")):
        cli._refuse_unwritable(str(tmp_path / "new.csv"))



LARGER_RUN_SEED = 3  # the two systems hallucinate on different numbers of sentences


@pytest.fixture(scope="module")
def larger_run(tmp_path_factory) -> Path:
    """`reproduce` at TINY's evaluation sizes but with models trained long
    enough that their out-of-domain figures are not all zero."""
    tmp = tmp_path_factory.mktemp("larger")
    out = tmp / "run"
    assert cli.main(["reproduce", "--config", str(write_tiny_config(tmp, seed=LARGER_RUN_SEED)),
                     "--set", "data.train_size=400", "--set", "mle.epochs=4",
                     "--outdir", str(out)]) == 0
    return out


def test_readme_artifact_columns_match_the_run(larger_run):
    """Each column list in README's artifact table is the header, or the
    record keys, of the file its row names."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| artifact | contents |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for line in table.splitlines()[1:]:
        _, names, contents, _ = line.split("|")
        for columns in re.findall(r"`([^`]*,[^`]*)`", contents):
            listed[names.strip()] = [c.strip() for c in columns.split(",")]
    written = {
        "`mle.ckpt`, `mle_trace.csv`": larger_run / "mle_trace.csv",
        "`judgments_{mle,mrt}_ood.jsonl`": larger_run / "judgments_mle_ood.jsonl",
        "`uncertainty_curves.csv`": larger_run / "uncertainty_curves.csv",
        "`beam_sweep.csv`": larger_run / "beam_sweep.csv",
    }
    assert set(listed) == set(written)
    for names, path in written.items():
        first = path.read_text().splitlines()[0]
        if path.suffix == ".jsonl":  # keys are written sorted
            assert sorted(listed[names]) == sorted(json.loads(first)), names
        else:
            assert listed[names] == first.split(","), names


def assert_unlocked(directory: Path) -> None:
    """A new exclusive lock on `directory` is granted: no run holds it."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    finally:
        os.close(fd)


class TestReproduce:
    def test_lock_of_a_killed_run_is_released(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        holder = subprocess.Popen(
            [sys.executable, "-c", "import sys, time\nfrom pathlib import Path\n"
             "from seqrisk import cli\nwith cli.output_lock(Path(sys.argv[1])):\n"
             "    print('held', flush=True)\n    time.sleep(600)\n", str(out)],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
        try:
            assert holder.stdout.readline() == "held\n"
            assert cli.main(["reproduce", "--config", str(config), "--outdir", str(out)]) == 1
        finally:
            holder.send_signal(signal.SIGKILL)
            holder.communicate(timeout=60)
        assert holder.returncode == -signal.SIGKILL
        assert cli.main(["reproduce", "--config", str(config), "--outdir", str(out)]) == 0
        assert_unlocked(out)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["reproduce", "--config", str(config),
                         "--outdir", str(out_a)]) == 0
        assert cli.main(["reproduce", "--config", str(config),
                         "--outdir", str(out_b)]) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert "mle.ckpt" in manifest["files"]
        assert_unlocked(out_a)

    def test_manifest_lists_only_what_the_run_wrote(self, tmp_path, capsys):
        # other files in --outdir, a killed run's temporary file and an older
        # version's lock file naming a live process among them, are neither
        # listed nor touched, and lock nothing
        config = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        debris = {"notes.txt": b"mine\n", "mle.ckpt.99999.tmp": b"half a checkpoint",
                  ".seqrisk-lock": str(os.getpid()).encode()}
        for name, data in debris.items():
            (out / name).write_bytes(data)
        assert cli.main(["reproduce", "--config", str(config), "--outdir", str(out)]) == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert len(files) == 17
        assert set(files) == {p.name for p in out.iterdir()} - set(debris) - {"manifest.json"}
        for name, data in debris.items():
            assert (out / name).read_bytes() == data

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, capsys):
        # a diverging rerun into a finished run's directory: the earlier
        # manifest and summary go before any stage writes, and the one
        # error line names the step and the trace of the steps before it
        config = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["reproduce", "--config", str(config), "--outdir", str(out)]) == 0
        capsys.readouterr()
        # in a child process, so that numpy's warnings would reach its stderr
        run = subprocess.run(
            [sys.executable, "-m", "seqrisk", "reproduce", "--config", str(config),
             "--seed", "7", "--set", "mrt.lr=1e30", "--outdir", str(out)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
        err = run.stderr
        assert run.returncode == 1, err
        assert err.startswith("error: training diverged at step 2: ") and err.endswith(
            f" (trace of the steps before it: {out / 'mrt_trace.csv'})\n"), err
        assert len(err.splitlines()) == 1, err
        assert not (out / "manifest.json").exists() and not (out / "summary.json").exists()
        trace = (out / "mrt_trace.csv").read_text().splitlines()
        assert len(trace) == 2 and trace[1].startswith("1,")
        assert_unlocked(out)

    def test_a_failed_run_keeps_what_it_wrote(self, tmp_path, monkeypatch, capsys):
        # the claim removes only the directories it made, and only while
        # empty: a run that fails after writing keeps its files and their parents
        def stopped(*args, **kwargs):
            raise ContractError("stopped")

        monkeypatch.setattr(cli, "stage_train_mle", stopped)
        out = tmp_path / "new" / "run"
        assert cli.main(["reproduce", "--config", str(write_tiny_config(tmp_path)),
                         "--outdir", str(out)]) == 1
        assert sorted(path.name for path in out.iterdir()) == [
            "dev.tsv", "domain.json", "test_id.tsv", "test_ood.tsv", "train.tsv", "vocab.json"]
        assert_unlocked(out)

    @pytest.mark.parametrize("sweep_n", [6, 14])
    def test_sweep_reuses_the_judging_decodes(self, tmp_path, monkeypatch, capsys, sweep_n):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        real = dec.beam_search_corpus
        decoded = []

        def counting(store, sources, config=None):
            decoded.append(len(sources))
            return real(store, sources, config)

        monkeypatch.setattr(dec, "beam_search_corpus", counting)
        assert cli.main(["reproduce", "--config", str(config), "--set", f"eval.sweep_n={sweep_n}",
                         "--outdir", str(out)]) == 0
        monkeypatch.undo()
        h = TINY["eval"]["hallucination_n"]
        # two systems: test_id judged, test_ood judged on the larger of the
        # two sizes, then the sweep decodes only k=1
        assert sum(decoded) == 2 * (h + max(h, sweep_n) + sweep_n)

        summary = json.loads((out / "summary.json").read_text())
        vocab = sm.Vocabulary.from_json((out / "vocab.json").read_text())
        spec = cli._load_domain(out / "domain.json")
        pairs = dg.read_tsv(out / "test_ood.tsv")[:sweep_n]
        for system in ("mle", "mrt"):
            store = sm.ParameterStore.load(out / f"{system}.ckpt")
            fresh = an.beam_sweep(store, vocab, pairs, spec, [dec.DecodeConfig.beam_size])
            assert summary["systems"][system]["beam_sweep"][1] == dataclasses.asdict(fresh[0])

    def test_stage_commands_reproduce_the_summary(self, larger_run, tmp_path, capsys):
        # each analysis stage of reproduce, run as its own command on the
        # run's files at the run's sizes, gives summary.json's figures
        out = larger_run
        summary = json.loads((out / "summary.json").read_text())["systems"]
        assert any(summary[system]["test_ood"][figure] > 0 for system in ("mle", "mrt")
                   for figure in ("hallucination_rate", "mean_overlap")), summary
        capsys.readouterr()
        ev = TINY["eval"]

        def command(name, system, n, *flags):
            assert cli.main([name, "--checkpoint", str(out / f"{system}.ckpt"),
                             "--domain", str(out / "domain.json"),
                             "--data-file", str(out / "test_ood.tsv"), "--n", str(n),
                             *flags]) == 0
            return json.loads(capsys.readouterr().out)

        curve_rows = (out / "uncertainty_curves.csv").read_text().splitlines()
        for system in ("mle", "mrt"):
            judgments, curves = tmp_path / f"{system}.jsonl", tmp_path / f"{system}.csv"
            judged = command("evaluate", system, ev["hallucination_n"],
                             "--judgments", str(judgments))
            assert summary[system]["test_ood"] == {
                "hallucination_rate": judged["rate"], "mean_overlap": judged["mean_overlap"],
                "corpus_bleu": judged["corpus_bleu"]}
            # the same hypotheses, not only the same figures
            assert judgments.read_bytes() == (out / f"judgments_{system}_ood.jsonl").read_bytes()
            swept = command("sweep-beam", system, ev["sweep_n"],
                            "--beams", ",".join(map(str, ev["beam_sizes"])),
                            "--output", str(tmp_path / "sweep.csv"))
            assert summary[system]["beam_sweep"] == swept
            certainty = command("analyze-uncertainty", system, ev["uncertainty_n"],
                                "--distractor-file", str(out / "test_id.tsv"),
                                "--seed", str(LARGER_RUN_SEED), "--system", system,
                                "--output", str(curves))
            assert summary[system]["certainty_gap"] == certainty["certainty_gap"]
            assert curves.read_text().splitlines()[1:] == [
                row for row in curve_rows if row.endswith(f",{system}")]

    def test_summary_fisher_entry_tests_the_judged_hallucinations(self, larger_run):
        out = larger_run
        outcomes = [[json.loads(line)["is_hallucination"] for line in
                     (out / f"judgments_{system}_ood.jsonl").read_text().splitlines()]
                    for system in ("mle", "mrt")]
        table = metrics.ContingencyTable2x2.from_outcomes(*outcomes)
        assert table.a != table.c, outcomes  # the systems' rows cannot be swapped unseen
        fisher = json.loads((out / "summary.json").read_text())["ood_hallucination_fisher"]
        assert fisher == {"p_value": metrics.fisher_exact_two_tailed(table),
                          "table": [[table.a, table.b], [table.c, table.d]]}

    def test_different_seed_changes_outputs(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        out_a, out_c = tmp_path / "a2", tmp_path / "c"
        assert cli.main(["reproduce", "--config", str(config),
                         "--outdir", str(out_a)]) == 0
        assert cli.main(["reproduce", "--config", str(config), "--seed", "2",
                         "--outdir", str(out_c)]) == 0
        assert ((out_a / "mle.ckpt").read_bytes()
                != (out_c / "mle.ckpt").read_bytes())


def test_commands_run_on_one_blas_thread(tmp_path, monkeypatch):
    calls = nk.openblas_threads()
    seen = []

    def fake_gen_data(args):
        seen.append(calls[0]() if calls is not None else 1)
        return 0

    monkeypatch.setattr(cli, "_cmd_gen_data", fake_gen_data)
    previous = calls[0]() if calls is not None else None
    if calls is not None:
        calls[1](2)
    try:
        assert cli.main(["gen-data", "--outdir", str(tmp_path / "d")]) == 0
        assert seen == [1]
        assert calls is None or calls[0]() == 2
    finally:
        if calls is not None:
            calls[1](previous)


def test_readme_stage_examples_parse():
    """Every `seqrisk ...` line of the README's stage examples names flags
    that the parser takes, so a removed flag cannot linger there."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Individual pipeline stages", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    parser = cli.build_parser()
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["seqrisk"]:
            commands.append(parser.parse_args(words[1:]).command)
    assert commands == ["gen-data", "train-mle", "finetune-mrt", "translate", "evaluate",
                        "analyze-uncertainty", "sweep-beam"]


def test_decoding_commands_rank_with_the_evaluation_alpha(workspace, tmp_path, monkeypatch,
                                                        capsys):
    """`translate`, `evaluate`, `sweep-beam` and `reproduce` hand every beam
    search the exponent `DecodeConfig`'s default, so at one `--beam` they pick
    the same best hypothesis."""
    config, data, run = workspace
    model = ["--checkpoint", str(run / "mle.ckpt"), "--domain", str(data / "domain.json")]
    pairs = ["--data-file", str(data / "test_ood.tsv"), "--n", "3"]
    sources = tmp_path / "sources.txt"
    sources.write_text("".join(" ".join(src) + "\n"
                               for src, _ in dg.read_tsv(data / "test_ood.tsv")[:3]))
    real = dec.beam_search_corpus
    alphas = []

    def capturing(store, sources, decode_cfg=None):
        alphas.append(decode_cfg.length_norm_alpha)
        return real(store, sources, decode_cfg)

    monkeypatch.setattr(dec, "beam_search_corpus", capturing)
    for argv in (["translate", *model, "--input", str(sources),
                  "--output", str(tmp_path / "hyps.txt")],
                 ["evaluate", *model, *pairs],
                 ["sweep-beam", *model, *pairs, "--beams", "1,2",
                  "--output", str(tmp_path / "sweep.csv")],
                 ["reproduce", "--config", str(config), "--set", "mle.epochs=0",
                  "--set", "mrt.steps=0", "--outdir", str(tmp_path / "study")]):
        alphas.clear()
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert alphas and set(alphas) == {dec.DecodeConfig.length_norm_alpha}, (argv[0], alphas)


@pytest.mark.parametrize("command", ["translate", "evaluate"])
def test_beam_defaults_to_the_study_beam(command):
    # a bare `evaluate` judges at the width `reproduce` judges with
    args = cli.build_parser().parse_args(command_line(command, Path("r")))
    assert args.beam == dec.DecodeConfig().beam_size


def _removed_settings_rows() -> list[list[str]]:
    """README's table of removed settings: [removed, replaced by] per row."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Removed settings", 1)[1].split("\n\n#", 1)[0]
    return [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `")]


def test_readme_removed_settings_are_refused():
    """Every field in README's table of removed settings is an unknown
    field, and every `command --flag` there an unrecognized argument."""
    names = [name for cell, _ in _removed_settings_rows() for name in cell.split("`")[1::2]]
    fields = [n for n in names if re.fullmatch(r"[a-z]+\.[a-z_0-9]+", n)]
    flags = [n.split() for n in names if re.fullmatch(r"[a-z-]+ --[a-z-]+", n)]
    assert len(fields) + len(flags) == len(names) and fields and flags, names
    for name in fields:
        section, key = name.split(".")
        with pytest.raises(ContractError, match=rf"^{section}\.{key} is not a recognized field$"):
            cli.config_from_dict({section: {key: 1}})
    parser = cli.build_parser()
    for command, flag in flags:
        parser.parse_args(command_line(command, Path("r")))
        with pytest.raises(ContractError, match=f"unrecognized arguments: {flag} 1$"):
            parser.parse_args([*command_line(command, Path("r")), flag, "1"])


def test_readme_removed_settings_name_what_replaced_them():
    """Every dotted name in the "replaced by" column of README's table of
    removed settings resolves under `seqrisk`, and one followed by a number
    in parentheses holds that number."""
    named = [m for _, cell in _removed_settings_rows()
             for m in re.finditer(r"`([a-z]+(?:\.\w+)+)(?:\(\))?`(?: \(([^)]+)\))?", cell)]
    assert len(named) >= 6, named
    for match in named:
        module, *attrs = match[1].split(".")
        value = importlib.import_module(f"seqrisk.{module}")
        for attr in attrs:
            value = getattr(value, attr)
        assert match[2] is None or value == float(match[2]), (match[0], value)

"""Command-line behaviour: strict configuration validation, exit codes,
file outputs, locking, and a reduced-size byte-identity run."""

import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqrisk import analysis as an
from seqrisk import cli
from seqrisk import datagen as dg
from seqrisk import decoding as dec
from seqrisk import numkit as nk
from seqrisk import seqmodel as sm
from seqrisk.errors import ConfigError, ContractError

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
             "beam_sizes": [1, 2], "eval_beam": 2},
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
        assert config.mrt.alpha == 0.005
        assert config.mrt.n_samples == 4
        assert config.model.embed_dim == 64

    def test_unknown_top_level_field_named(self):
        with pytest.raises(ConfigError, match="seeed"):
            cli.config_from_dict({"seeed": 3})

    def test_unknown_nested_field_named(self):
        with pytest.raises(ConfigError, match=r"mle\.peak_lrr"):
            cli.config_from_dict({"mle": {"peak_lrr": 0.1}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="mrt must be an object"):
            cli.config_from_dict({"mrt": 5})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            cli.config_from_dict({"seed": "zero"})
        with pytest.raises(ConfigError, match="seed"):
            cli.config_from_dict({"seed": True})

    @pytest.mark.parametrize("section, field, value", [
        ("model", "num_heads", 0), ("model", "embed_dim", 0), ("model", "max_seq_len", 1),
        ("model", "dropout_rate", 1.0), ("eval", "eval_beam", 0),
        ("eval", "hallucination_n", 0), ("eval", "sweep_n", 0), ("eval", "uncertainty_n", -1),
        ("mle", "warmup_steps", 0), ("mle", "peak_lr", -1),
        ("mrt", "lr", -1), ("mrt", "steps", -1)])
    def test_bad_value_named_at_load(self, section, field, value):
        with pytest.raises(ConfigError, match=rf"^{section}: .*{field}"):
            cli.config_from_dict({section: {field: value}})

    @pytest.mark.parametrize("override", [
        "mrt.alpha=NaN", "mrt.alpha=Infinity", "mle.peak_lr=Infinity",
        "domain.p_two_content=-Infinity"])
    def test_non_finite_value_named_at_load(self, override):
        field = override.split("=")[0].replace(".", r"\.")
        with pytest.raises(ConfigError, match=rf"^{field} must be a finite number, got "):
            cli.load_config(None, [override], None)

    @pytest.mark.parametrize("section, fields", [
        ("mle", ("peak_lr",)), ("mrt", ("lr", "steps"))])
    def test_zero_training_settings_load(self, section, fields):
        config = cli.config_from_dict({section: {f: 0 for f in fields}})
        assert all(getattr(getattr(config, section), f) == 0 for f in fields)

    def test_contract_violations_name_the_section(self):
        with pytest.raises(ConfigError, match="mrt"):
            cli.config_from_dict({"mrt": {"alpha": -1.0}})
        with pytest.raises(ConfigError, match="domain"):
            cli.config_from_dict({"domain": {"min_chunks": 5, "max_chunks": 2}})

    @pytest.mark.parametrize("section, field, value", [
        ("mle", "epochs", 1.5), ("model", "enc_layers", 1.5), ("data", "dev_size", True),
        ("eval", "beam_sizes", [1, "4"]),
        ("mrt", "n_samples", "4"), ("domain", "p_two_content", "0.5")])
    def test_wrongly_typed_field_named(self, section, field, value):
        with pytest.raises(ConfigError, match=rf"^{section}\.{field} must be "):
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
        with pytest.raises(ConfigError):
            cli._apply_override({}, "mle.epochs")

    def test_seed_flag_wins_over_file(self, tmp_path):
        path = write_tiny_config(tmp_path, seed=5)
        config = cli.load_config(str(path), [], seed=9)
        assert config.seed == 9

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            cli.load_config(str(path), [], None)

    def test_an_int_for_a_float_field_hashes_as_the_float(self):
        as_int = cli.load_config(None, ["mrt.alpha=1", "mle.peak_lr=0"], None)
        as_float = cli.load_config(None, ["mrt.alpha=1.0", "mle.peak_lr=0.0"], None)
        assert as_int.canonical_json() == as_float.canonical_json()
        assert type(as_int.mrt.alpha) is float

    def test_canonical_json_is_stable(self):
        a = cli.config_from_dict({"seed": 3}).canonical_json()
        b = cli.config_from_dict({"seed": 3}).canonical_json()
        assert a == b


class TestExitCodes:
    def test_bad_config_file_is_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code = cli.main(["gen-data", "--config", str(path),
                         "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_one(self, capsys):
        assert cli.main(["gen-data", "--no-such-flag"]) == 1

    def test_missing_file_is_one(self, tmp_path, capsys):
        code = cli.main(["translate", "--checkpoint", str(tmp_path / "no.ckpt"),
                         "--domain", str(tmp_path / "no.json"),
                         "--input", str(tmp_path / "no.txt")])
        assert code == 1

    def test_corrupt_checkpoint_is_one(self, tmp_path, capsys):
        spec = dg.DomainSpec()
        (tmp_path / "domain.json").write_text(spec.to_json())
        (tmp_path / "in.txt").write_text("a b\n")
        vocab = dg.build_vocabulary(spec)
        cfg = sm.ModelConfig(vocab_size=len(vocab), embed_dim=8, num_heads=2,
                             enc_layers=1, dec_layers=1, ffn_dim=8, max_seq_len=8)
        good = tmp_path / "good.ckpt"
        sm.ParameterStore.init(cfg, 0).save(good)
        whole = good.read_bytes()
        header, payload = whole.split(b"\n", 1)

        def edited(**config):  # the manifest's config misdescribes the tensors
            manifest = json.loads(header)
            manifest["config"].update(config)
            return json.dumps(manifest).encode() + b"\n" + payload

        for name, data, says in (
                ("truncated.ckpt", whole[:-8], "truncated"),
                ("padded.ckpt", whole + b"\0" * 4, "truncated or corrupt"),
                ("layers.ckpt", edited(enc_layers=2), "enc.1.ln1.gain"),
                ("ffn.ckpt", edited(ffn_dim=4), "enc.0.ffn.w1"),
                ("heads.ckpt", edited(num_heads=3), "embed_dim 8 not divisible by num_heads 3"),
                ("untied.ckpt", edited(tie_embeddings=False),
                 "tie_embeddings is not a recognized field"),
                ("tied.ckpt", edited(tie_embeddings=True),
                 "tie_embeddings is not a recognized field"),
                # mistyped fields are refused by name, not met later as a TypeError
                ("len.ckpt", edited(max_seq_len=8.0), "max_seq_len must be int, got 8.0"),
                ("bool.ckpt", edited(num_heads=True), "num_heads must be int, got True"),
                ("str.ckpt", edited(enc_layers="1"), "enc_layers must be int, got '1'")):
            (tmp_path / name).write_bytes(data)
            code = cli.main(["translate", "--checkpoint", str(tmp_path / name),
                             "--domain", str(tmp_path / "domain.json"),
                             "--input", str(tmp_path / "in.txt")])
            err = capsys.readouterr().err
            assert code == 1, err
            assert f"{tmp_path / name}: " in err and says in err, err
            assert "internal error" not in err

    @pytest.mark.parametrize("command", ["reproduce", "gen-data"])
    @pytest.mark.parametrize("override, says", [
        ("model.num_heads=3", "model: embed_dim 16 not divisible by num_heads 3"),
        ("model.dropout_rate=1.5", "model: dropout_rate must be in [0, 1), got 1.5"),
        ("model.max_seq_len=1", "model: max_seq_len must be >= 2, got 1"),
        ("eval.eval_beam=0", "eval: eval_beam must be >= 1, got 0"),
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
        # TINY asks for 10 sentences to judge from each test set
        ("data.test_size=4", "eval.hallucination_n must be <= data.test_size 4, got 10"),
        # sizes one decoder would hold beyond seqmodel.MAX_LIVE_ROWS, and a repeated width
        ("mrt.n_samples=65", "mrt: sentences_per_batch * n_samples must be <= 256, got 4 * 65"),
        ("eval.eval_beam=257", "eval: eval_beam must be <= 256, got 257"),
        ("eval.beam_sizes=[1,257]", "eval: beam_sizes must be distinct sizes in [1, 256], "
         "got [1, 257]"),
        ("eval.beam_sizes=[2,1,2]", "eval: beam_sizes must be distinct sizes in [1, 256], "
         "got [2, 1, 2]")])
    def test_bad_setting_fails_before_any_file(self, tmp_path, capsys, command,
                                               override, says):
        out = tmp_path / "out"
        code = cli.main([command, "--config", str(write_tiny_config(tmp_path)),
                         "--set", override, "--outdir", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and says in err, err
        assert not out.exists()

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

    def test_translate_rejects_overlong_line_naming_it(self, workspace, tmp_path, capsys):
        config, data, run = workspace
        pairs = dg.read_tsv(data / "test_id.tsv")[:2]
        src_file = tmp_path / "sources.txt"
        src_file.write_text(f"{' '.join(pairs[0][0])}\n{' '.join(['x'] * 17)}\n"
                            f"{' '.join(pairs[1][0])}\n")
        out_file = tmp_path / "hyps.txt"
        code = cli.main(["translate", "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"), "--input", str(src_file),
                         "--output", str(out_file)])
        err = capsys.readouterr().err
        assert code == 1
        assert str(src_file) in err and "line 2 has 17 tokens" in err and "16" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("command, flag, source, target, says", [
        ("evaluate", "--data-file", 17, 3, "line 2 has 17 tokens, more than the "
         "model's max_seq_len 16"),
        ("sweep-beam", "--data-file", 17, 3, "line 2 has 17 tokens"),
        ("analyze-uncertainty", "--data-file", 17, 3, "line 2 has 17 tokens"),
        ("analyze-uncertainty", "--data-file", 3, 16, "line 2 has 16 target tokens, "
         "more than the 15 that the model's max_seq_len 16 leaves after BOS"),
        ("analyze-uncertainty", "--distractor-file", 3, 16, "line 2 has 16 target tokens")])
    def test_overlong_line_refused_naming_it(self, workspace, tmp_path, capsys,
                                             command, flag, source, target, says):
        config, data, run = workspace
        files = {"--data-file": data / "test_ood.tsv", "--distractor-file": data / "test_id.tsv"}
        lines = (data / "test_id.tsv").read_text().splitlines()[:3]
        lines[1] = " ".join(["sf0"] * source) + "\t" + " ".join(["tf0"] * target)
        files[flag] = tmp_path / "long.tsv"
        files[flag].write_text("\n".join(lines) + "\n")
        output = tmp_path / "out.csv"
        argv = {
            "evaluate": ["--judgments", str(output)],
            "sweep-beam": ["--output", str(output)],
            "analyze-uncertainty": ["--distractor-file", str(files["--distractor-file"]),
                                    "--output", str(output)],
        }[command]
        code = cli.main([command, "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"),
                         "--data-file", str(files["--data-file"]), *argv])
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"{files[flag]}: {says}" in err
        assert not output.exists()

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

    @pytest.mark.parametrize("beams", ["1,x", "0,4", ""])
    def test_beams_must_be_positive_integers(self, workspace, beams, tmp_path, capsys):
        config, data, run = workspace
        code = cli.main(["sweep-beam", "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"),
                         "--data-file", str(data / "test_ood.tsv"),
                         "--output", str(tmp_path / "sweep.csv"), "--beams", beams])
        err = capsys.readouterr().err
        assert code == 1
        assert "argument --beams: must be a positive integer" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("n", ["-3", "0", "two"])
    def test_n_must_be_positive(self, workspace, n, capsys):
        config, data, run = workspace
        code = cli.main(["evaluate", "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"),
                         "--data-file", str(data / "test_id.tsv"), "--n", n])
        err = capsys.readouterr().err
        assert code == 1
        assert "--n" in err and "positive integer" in err

    @pytest.mark.parametrize("flags, says", [
        (["--max-positions", "3"], "unrecognized arguments: --max-positions 3"),
        (["--min-position", "3"], "unrecognized arguments: --min-position 3"),
        (["--seed", "-3"], "argument --seed: must be a non-negative integer, got '-3'"),
        (["--assignment", "no-such-dir/assignment.csv"],
         "cannot write no-such-dir/assignment.csv: it or its directory is missing")])
    def test_uncertainty_failure_writes_no_file(self, workspace, tmp_path, capsys,
                                                flags, says):
        config, data, run = workspace
        code = cli.main(["analyze-uncertainty", "--checkpoint", str(run / "mle.ckpt"),
                         "--domain", str(data / "domain.json"),
                         "--data-file", str(data / "test_id.tsv"),
                         "--distractor-file", str(data / "test_ood.tsv"),
                         "--output", str(tmp_path / "curves.csv"),
                         "--assignment", str(tmp_path / "assignment.csv"), *flags])
        err = capsys.readouterr().err
        assert code == 1 and says in err, err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("command, flag, value, says", [
        ("evaluate", "--beam", "0", "must be a positive integer, got '0'"),
        ("translate", "--beam", "0", "must be a positive integer, got '0'")])
    def test_flags_keep_the_eval_bounds(self, workspace, tmp_path, capsys,
                                        command, flag, value, says):
        config, data, run = workspace
        model = ["--checkpoint", str(run / "mle.ckpt"), "--domain", str(data / "domain.json")]
        out = str(tmp_path / "out.txt")
        rest = {"translate": ["--input", str(data / "test_id.tsv"), "--output", out],
                "evaluate": ["--judgments", out, "--data-file", str(data / "test_id.tsv")],
                "sweep-beam": ["--output", out, "--data-file", str(data / "test_id.tsv")]
                }[command]
        code = cli.main([command, *model, *rest, flag, value])
        err = capsys.readouterr().err
        assert code == 1 and f"argument {flag}: {says}" in err, err
        assert list(tmp_path.iterdir()) == []

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


OTHER_DOMAIN = json.dumps(dict(TINY["domain"], n_novel_content=2)).encode()  # the run used 4

# command, file replaced (in a copy of the gen-data directory), its bytes,
# and what the error must say besides the file's name
MALFORMED_INPUTS = [
    ("translate", "domain.json", b'{"n_function": ', "invalid JSON"),
    ("translate", "domain.json", b'{"n_function": 3, "x": "t\xff"}', ":1: not UTF-8"),
    ("translate", "domain.json", OTHER_DOMAIN, "mle.ckpt"),
    ("finetune-mrt", "domain.json", OTHER_DOMAIN, "mle.ckpt"),
    ("evaluate", "domain.json", b'{"bogus": 1}', "domain.bogus is not a recognized field"),
    ("evaluate", "domain.json", b'{"n_function": "x"}', "domain.n_function must be int"),
    ("evaluate", "domain.json", b'{"p_two_content": NaN}',
     "domain.p_two_content must be a finite number, got nan"),
    ("evaluate", "domain.json", OTHER_DOMAIN, "mle.ckpt"),
    ("sweep-beam", "domain.json", OTHER_DOMAIN, "mle.ckpt"),
    ("evaluate", "test_ood.tsv", b"sf0\ttf0\nsf1\xff\ttf1\n", ":2: not UTF-8"),
    ("analyze-uncertainty", "test_id.tsv", b"sf0\ttf0\nsf1\xff\ttf1\n", ":2: not UTF-8"),
    ("train-mle", "train.tsv", b"sf0\ttf0\n\xfe\ttf1\n", ":2: not UTF-8"),
    ("train-mle", "dev.tsv", b"sf0\ttf0\nsf0\ttf0\n\xfe\ttf1\n", ":3: not UTF-8"),
    ("translate", "in.txt", b"sf0 sf1\nsf1 \xc3\n", ":2: not UTF-8"),
    ("gen-data", "config.json", b'{"seed": 1, "mle": {"epochs": "\xe9"}}', ":1: not UTF-8"),
    ("evaluate", "test_ood.tsv", b"", "no sentence pairs"),
    ("sweep-beam", "test_ood.tsv", b"", "no sentence pairs"),
    ("analyze-uncertainty", "test_ood.tsv", b"", "no sentence pairs"),
    ("analyze-uncertainty", "test_id.tsv", b"", "no sentence pairs"),
    ("train-mle", "train.tsv", b"", "no sentence pairs"),
    ("train-mle", "dev.tsv", b"", "no sentence pairs"),
    ("finetune-mrt", "train.tsv", b"", "no sentence pairs"),
]


def _command_line(command: str, data: Path, checkpoint: Path) -> list[str]:
    model = ["--checkpoint", str(checkpoint), "--domain", str(data / "domain.json")]
    config = ["--config", str(data / "config.json")]
    return {
        "translate": ["translate", *model, "--input", str(data / "in.txt")],
        "evaluate": ["evaluate", *model, "--data-file", str(data / "test_ood.tsv"),
                     "--n", "2"],
        "sweep-beam": ["sweep-beam", *model, "--data-file", str(data / "test_ood.tsv"),
                       "--n", "2",
                       "--output", str(data / "sweep.csv")],
        "analyze-uncertainty": ["analyze-uncertainty", *model,
                                "--data-file", str(data / "test_ood.tsv"),
                                "--distractor-file", str(data / "test_id.tsv"),
                                "--output", str(data / "curves.csv")],
        "train-mle": ["train-mle", *config, "--data", str(data), "--outdir", str(data / "run")],
        "finetune-mrt": ["finetune-mrt", *config, "--data", str(data),
                         "--checkpoint", str(checkpoint), "--outdir", str(data / "run")],
        "gen-data": ["gen-data", *config, "--outdir", str(data / "gen")],
    }[command]


@pytest.mark.parametrize("command, name, content, says", MALFORMED_INPUTS)
def test_malformed_input_exits_one_naming_the_file(workspace, tmp_path, capsys,
                                                   command, name, content, says):
    config, data, run = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    shutil.copy(config, copy / "config.json")
    (copy / "in.txt").write_text("sf0 sf1\n")
    (copy / name).write_bytes(content)
    code = cli.main(_command_line(command, copy, run / "mle.ckpt"))
    err = capsys.readouterr().err
    assert code == 1, err
    assert str(copy / name) in err and says in err and "internal error" not in err
    assert not (copy / "run").exists()  # refused before --outdir is made


@pytest.mark.parametrize("command", ["reproduce", "gen-data", "train-mle", "translate"])
def test_a_path_through_a_regular_file_exits_one_naming_it(workspace, tmp_path, capsys,
                                                           command):
    config, data, run = workspace
    blocker = tmp_path / "F"
    blocker.write_text("a regular file\n")
    code = cli.main({
        "reproduce": ["reproduce", "--config", str(config), "--outdir", str(blocker)],
        "gen-data": ["gen-data", "--config", str(config), "--outdir", str(blocker / "sub")],
        "train-mle": ["train-mle", "--config", str(config), "--data", str(blocker),
                      "--outdir", str(tmp_path / "run")],
        "translate": ["translate", "--checkpoint", str(run / "mle.ckpt"),
                      "--domain", str(data / "domain.json"), "--input", str(blocker / "x")],
    }[command])
    err = capsys.readouterr().err
    assert code == 1, err
    assert str(blocker) in err and "internal error" not in err


@pytest.mark.parametrize("command", ["reproduce", "gen-data", "train-mle"])
def test_a_negative_seed_exits_one_before_any_file(workspace, tmp_path, capsys, command):
    config, data, run = workspace
    out = tmp_path / "out"
    data_flag = ["--data", str(data)] if command == "train-mle" else []
    code = cli.main([command, "--config", str(config), "--seed", "-1", *data_flag,
                     "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and "seed must be >= 0, got -1" in err, err
    assert not out.exists()


@pytest.mark.parametrize("root", ["[1]", '"seed"', "null"])
@pytest.mark.parametrize("overrides", [[], ["--set", "mrt.steps=1"]], ids=["plain", "set"])
def test_a_config_root_that_is_no_object_exits_one_naming_the_file(tmp_path, capsys,
                                                                   root, overrides):
    path = tmp_path / "C.json"
    path.write_text(root)
    out = tmp_path / "o"
    code = cli.main(["gen-data", "--config", str(path), "--seed", "1", *overrides,
                     "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"{path}: the configuration must be a JSON object" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command, name, source, target, says", [
    ("train-mle", "train.tsv", 17, 3, "line 2 has 17 tokens, more than the model's "
     "max_seq_len 16"),
    ("train-mle", "dev.tsv", 3, 16, "line 2 has 16 target tokens, more than the 15"),
    ("finetune-mrt", "train.tsv", 17, 3, "line 2 has 17 tokens"),
    ("finetune-mrt", "train.tsv", 3, 16, "line 2 has 16 target tokens")])
def test_an_overlong_training_line_is_refused_before_training(workspace, tmp_path, capsys,
                                                              command, name, source,
                                                              target, says):
    config, data, run = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    shutil.copy(config, copy / "config.json")
    lines = (copy / name).read_text().splitlines()
    lines[1] = " ".join(["sf0"] * source) + "\t" + " ".join(["tf0"] * target)
    (copy / name).write_text("\n".join(lines) + "\n")
    code = cli.main(_command_line(command, copy, run / "mle.ckpt"))
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"{copy / name}: {says}" in err, err
    assert not (copy / "run").exists()


@pytest.mark.parametrize("command", ["train-mle", "finetune-mrt"])
def test_a_failed_read_creates_no_outdir(workspace, tmp_path, capsys, command):
    config, data, run = workspace
    blocker = tmp_path / "F"
    blocker.write_text("a regular file\n")
    out = tmp_path / "new" / "out"
    code = cli.main({
        "train-mle": ["train-mle", "--config", str(config), "--data", str(blocker),
                      "--outdir", str(out)],
        "finetune-mrt": ["finetune-mrt", "--config", str(config), "--data", str(data),
                         "--checkpoint", str(tmp_path / "nope.ckpt"), "--outdir", str(out)],
    }[command])
    err = capsys.readouterr().err
    assert code == 1 and "internal error" not in err, err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command, flags, says", [
    ("sweep-beam", ["--beams", "1,1"], "--beams must be distinct sizes in [1, 256], got [1, 1]"),
    ("sweep-beam", ["--beams", "4,257"],
     "--beams must be distinct sizes in [1, 256], got [4, 257]"),
    ("translate", ["--beam", "257"], "beam_size must be in [1, 256], got 257"),
    ("evaluate", ["--beam", "257"], "beam_size must be in [1, 256], got 257")])
def test_a_beam_size_refused_before_decoding(workspace, tmp_path, capsys, monkeypatch,
                                            command, flags, says):
    config, data, run = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    (copy / "in.txt").write_text("sf0 sf1\n")

    def no_decoding(*args, **kwargs):
        raise AssertionError("decoded before the beam sizes were checked")

    monkeypatch.setattr(dec, "beam_search_corpus", no_decoding)
    code = cli.main([*_command_line(command, copy, run / "mle.ckpt"), *flags])
    err = capsys.readouterr().err
    assert code == 1 and f"error: {says}\n" == err, err
    assert not (copy / "sweep.csv").exists()


def test_a_non_finite_checkpoint_refused_at_load(workspace, tmp_path, capsys):
    # its payload matches its sha256, so the NaN would otherwise surface mid-run
    config, data, run = workspace
    store = sm.ParameterStore.load(run / "mle.ckpt")
    store["embed.shared"].data[5, 0] = np.nan
    bad = tmp_path / "nan.ckpt"
    store.save(bad)
    (tmp_path / "in.txt").write_text("sf0 sf1\n")
    out = tmp_path / "out"
    for argv in (["translate", "--checkpoint", str(bad), "--domain", str(data / "domain.json"),
                  "--input", str(tmp_path / "in.txt")],
                 ["finetune-mrt", "--config", str(config), "--data", str(data),
                  "--checkpoint", str(bad), "--outdir", str(out)]):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1 and f"error: {bad}: holds non-finite weights" in err, err
    assert not (out / "mrt_trace.csv").exists()


@pytest.mark.parametrize("command, flag", [("evaluate", "--judgments"),
                                           ("sweep-beam", "--output"),
                                           ("translate", "--output")])
def test_an_unwritable_output_refused_before_decoding(workspace, tmp_path, capsys,
                                                      monkeypatch, command, flag):
    config, data, run = workspace
    out = tmp_path / "missing" / "out.txt"

    def no_decoding(*args, **kwargs):
        raise AssertionError("decoded before the output was checked")

    monkeypatch.setattr(dec, "beam_search_corpus", no_decoding)
    code = cli.main([*_command_line(command, data, run / "mle.ckpt"), flag, str(out)])
    err = capsys.readouterr().err
    assert code == 1 and f"error: cannot write {out}: it or its directory is missing" in err, err


def test_an_output_written_in_place_is_checked_for_its_own_access(tmp_path, monkeypatch):
    # a device and a symlink are written through, so their directories' access is moot
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "target.csv")
    monkeypatch.setattr(os, "access", lambda path, mode: path in (os.devnull, str(link)))
    cli._refuse_unwritable(os.devnull, str(link), None)
    with pytest.raises(ContractError, match=re.escape(f"cannot write {tmp_path / 'new.csv'}")):
        cli._refuse_unwritable(str(tmp_path / "new.csv"))


@pytest.mark.parametrize("command", ["evaluate", "sweep-beam"])
def test_reference_without_content_refused_before_decoding(workspace, tmp_path, capsys,
                                                           monkeypatch, command):
    config, data, run = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    (copy / "test_ood.tsv").write_text("sf0 sb0\ttf0 tb0\nsf0 sb0\ttf0\n")

    def no_decoding(*args, **kwargs):
        raise AssertionError("decoded before every reference was checked")

    monkeypatch.setattr(dec, "beam_search_corpus", no_decoding)
    code = cli.main(_command_line(command, copy, run / "mle.ckpt"))
    err = capsys.readouterr().err
    assert code == 1, err
    assert (f"{copy / 'test_ood.tsv'}: line 2 has a reference with no content token "
            f"of the domain") in err
    assert not (copy / "sweep.csv").exists()


class TestReproduce:
    def test_lock_refuses_second_run(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".seqrisk-lock").write_text("held")
        code = cli.main(["reproduce", "--config", str(config),
                         "--outdir", str(out)])
        assert code == 1
        assert "lock" in capsys.readouterr().err.lower()

    def test_stale_lock_names_the_file_and_the_dead_pid(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "locked"
        out.mkdir()
        lock = out / ".seqrisk-lock"
        lock.write_text("999999999")  # above any PID the kernel hands out
        code = cli.main(["reproduce", "--config", str(config), "--outdir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "stale lock" in err and str(lock) in err and "999999999" in err
        assert lock.read_text() == "999999999"  # nothing is deleted

    def test_lock_of_a_live_process_is_not_called_stale(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".seqrisk-lock").write_text(str(os.getpid()))
        assert cli.main(["reproduce", "--config", str(config), "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "stale" not in err and f"process {os.getpid()} is running" in err

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
        assert not (out_a / ".seqrisk-lock").exists()

    def test_manifest_lists_only_what_the_run_wrote(self, tmp_path, capsys):
        # other files in --outdir, a killed run's temporary file among them,
        # are neither listed nor touched
        config = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        debris = {"notes.txt": b"mine\n", "mle.ckpt.99999.tmp": b"half a checkpoint"}
        for name, data in debris.items():
            (out / name).write_bytes(data)
        assert cli.main(["reproduce", "--config", str(config), "--outdir", str(out)]) == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert len(files) == 17
        assert set(files) == {p.name for p in out.iterdir()} - set(debris) - {"manifest.json"}
        for name, data in debris.items():
            assert (out / name).read_bytes() == data

    def test_an_overlong_generated_line_is_refused_before_training(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        code = cli.main(["reproduce", "--config", str(config), "--set", "model.max_seq_len=8",
                         "--outdir", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"{out / 'train.tsv'}: line " in err and "max_seq_len 8" in err, err
        assert (out / "train.tsv").exists() and not (out / "mle.ckpt").exists()
        assert not (out / "manifest.json").exists() and not (out / ".seqrisk-lock").exists()

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
        assert not (out / ".seqrisk-lock").exists()

    def test_sweep_reuses_the_judging_decodes(self, tmp_path, monkeypatch, capsys):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        real = dec.beam_search_corpus
        decoded = []

        def counting(store, sources, config=None):
            decoded.append(len(sources))
            return real(store, sources, config)

        monkeypatch.setattr(dec, "beam_search_corpus", counting)
        assert cli.main(["reproduce", "--config", str(config),
                         "--outdir", str(out)]) == 0
        monkeypatch.undo()
        ev = TINY["eval"]
        # two systems: both test sets judged, then the sweep decodes only k=1
        assert sum(decoded) == 2 * (2 * ev["hallucination_n"] + ev["sweep_n"])

        summary = json.loads((out / "summary.json").read_text())
        vocab = sm.Vocabulary.from_json((out / "vocab.json").read_text())
        spec = cli._load_domain(out / "domain.json")
        pairs = dg.read_tsv(out / "test_ood.tsv")[: ev["sweep_n"]]
        base = dec.DecodeConfig(length_norm_alpha=an.EVAL_ALPHA)
        for system in ("mle", "mrt"):
            store = sm.ParameterStore.load(out / f"{system}.ckpt")
            fresh = an.beam_sweep(store, vocab, pairs, spec, [ev["eval_beam"]], base)
            assert summary["systems"][system]["beam_sweep"][1] == dataclasses.asdict(fresh[0])

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
    search the exponent `analysis.EVAL_ALPHA`, so at one `--beam` they pick
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
        assert alphas and set(alphas) == {an.EVAL_ALPHA}, (argv[0], alphas)


# each command's required arguments; no file is opened before parsing ends
REQUIRED = {
    "translate": ["--checkpoint", "m.ckpt", "--domain", "d.json", "--input", "in.txt"],
    "evaluate": ["--checkpoint", "m.ckpt", "--domain", "d.json", "--data-file", "p.tsv"],
    "sweep-beam": ["--checkpoint", "m.ckpt", "--domain", "d.json", "--data-file", "p.tsv",
                   "--output", "s.csv"],
    "analyze-uncertainty": ["--checkpoint", "m.ckpt", "--domain", "d.json",
                            "--data-file", "p.tsv", "--distractor-file", "p.tsv",
                            "--output", "c.csv"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("translate", "--alpha", "0.6"), ("evaluate", "--alpha", "0.6"),
    ("sweep-beam", "--alpha", "0.6"), ("evaluate", "--threshold", "0.2"),
    ("sweep-beam", "--threshold", "0.2")])
def test_removed_decoding_flags_are_unrecognized(tmp_path, monkeypatch, capsys,
                                                 command, flag, value):
    monkeypatch.chdir(tmp_path)
    code = cli.main([command, *REQUIRED[command], flag, value])
    err = capsys.readouterr().err
    assert code == 1 and f"unrecognized arguments: {flag} {value}" in err, err
    assert list(tmp_path.iterdir()) == []


def test_readme_removed_settings_are_refused():
    """Every field in README's table of removed settings is an unknown
    field, and every `command --flag` there an unrecognized argument."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Removed settings", 1)[1].split("\n\n#", 1)[0]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    names = [name for cell in rows for name in cell.split("`")[1::2]]
    fields = [n for n in names if re.fullmatch(r"[a-z]+\.[a-z_0-9]+", n)]
    flags = [n.split() for n in names if re.fullmatch(r"[a-z-]+ --[a-z-]+", n)]
    assert len(fields) + len(flags) == len(names) and fields and flags, names
    for name in fields:
        section, key = name.split(".")
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} is not a recognized field$"):
            cli.config_from_dict({section: {key: 1}})
    parser = cli.build_parser()
    for command, flag in flags:
        parser.parse_args([command, *REQUIRED[command]])
        with pytest.raises(ConfigError, match=f"unrecognized arguments: {flag} 1$"):
            parser.parse_args([command, *REQUIRED[command], flag, "1"])

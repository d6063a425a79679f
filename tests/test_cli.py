"""Command-line behaviour: strict configuration validation, exit codes,
file outputs, locking, and a reduced-size byte-identity run."""

import dataclasses
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from seqrisk import analysis as an
from seqrisk import cli
from seqrisk import datagen as dg
from seqrisk import decoding as dec
from seqrisk import numkit as nk
from seqrisk import seqmodel as sm
from seqrisk.errors import ConfigError

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
        assert config.mle.label_smoothing == 0.1
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
        ("mle", "warmup_steps", 0), ("mle", "peak_lr", -1), ("mle", "grad_clip", -1),
        ("mrt", "lr", -1), ("mrt", "steps", -1), ("mrt", "grad_clip", -1),
        ("eval", "min_position", 0), ("eval", "min_position", 99)])
    def test_bad_value_named_at_load(self, section, field, value):
        with pytest.raises(ConfigError, match=rf"^{section}: .*{field}"):
            cli.config_from_dict({section: {field: value}})

    @pytest.mark.parametrize("section, fields", [
        ("mle", ("peak_lr", "grad_clip")), ("mrt", ("lr", "steps", "grad_clip"))])
    def test_zero_training_settings_load(self, section, fields):
        config = cli.config_from_dict({section: {f: 0 for f in fields}})
        assert all(getattr(getattr(config, section), f) == 0 for f in fields)

    def test_min_position_bounded_by_the_forced_positions(self):
        config = cli.config_from_dict({"model": {"max_seq_len": 16},
                                       "eval": {"min_position": 15, "max_positions": 15}})
        assert config.eval.min_position == 15
        with pytest.raises(ConfigError, match=r"^eval: min_position 16 exceeds the 15 forced"):
            cli.config_from_dict({"model": {"max_seq_len": 16}, "eval": {"min_position": 16}})
        with pytest.raises(ConfigError, match=r"^eval: min_position 5 exceeds max_positions 4"):
            cli.config_from_dict({"eval": {"min_position": 5, "max_positions": 4}})

    def test_contract_violations_name_the_section(self):
        with pytest.raises(ConfigError, match="mrt"):
            cli.config_from_dict({"mrt": {"alpha": -1.0}})
        with pytest.raises(ConfigError, match="domain"):
            cli.config_from_dict({"domain": {"min_chunks": 5, "max_chunks": 2}})

    @pytest.mark.parametrize("section, field, value", [
        ("mle", "epochs", 1.5), ("model", "tie_embeddings", 1), ("data", "dev_size", True),
        ("eval", "beam_sizes", [1, "4"]), ("eval", "max_positions", "all"),
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
                         "--vocab", str(tmp_path / "no.json"),
                         "--input", str(tmp_path / "no.txt")])
        assert code == 1

    def test_corrupt_checkpoint_is_one(self, tmp_path, capsys):
        vocab = sm.Vocabulary(["a", "b", "c"])
        (tmp_path / "vocab.json").write_text(vocab.to_json())
        (tmp_path / "in.txt").write_text("a b\n")
        cfg = sm.ModelConfig(vocab_size=len(vocab), embed_dim=8, num_heads=2,
                             enc_layers=1, dec_layers=1, ffn_dim=8, max_seq_len=8)
        good = tmp_path / "good.ckpt"
        sm.ParameterStore.init(cfg, 0).save(good)
        whole = good.read_bytes()
        for name, data in (("truncated.ckpt", whole[:-8]), ("padded.ckpt", whole + b"\0" * 4)):
            (tmp_path / name).write_bytes(data)
            code = cli.main(["translate", "--checkpoint", str(tmp_path / name),
                             "--vocab", str(tmp_path / "vocab.json"),
                             "--input", str(tmp_path / "in.txt")])
            err = capsys.readouterr().err
            assert code == 1, err
            assert name in err and "internal error" not in err

    def test_bad_mrt_temperature_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["reproduce", "--config", str(write_tiny_config(tmp_path)),
                         "--set", "mrt.temperature=0", "--outdir", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and "mrt: temperature must be > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reproduce", "gen-data"])
    @pytest.mark.parametrize("override, says", [
        ("model.num_heads=3", "model: embed_dim 16 not divisible by num_heads 3"),
        ("model.dropout_rate=1.5", "model: dropout_rate must be in [0, 1), got 1.5"),
        ("model.max_seq_len=1", "model: max_seq_len must be >= 2, got 1"),
        ("eval.eval_beam=0", "eval: eval_beam must be >= 1, got 0"),
        ("eval.sweep_n=0", "eval: sweep_n must be >= 1, got 0"),
        ("mle.warmup_steps=0", "mle: warmup_steps must be >= 1, got 0"),
        ("mle.peak_lr=-1", "mle: peak_lr must be >= 0, got -1"),
        ("mle.grad_clip=-1", "mle: grad_clip must be >= 0, got -1"),
        ("mrt.lr=-1", "mrt: lr must be >= 0, got -1"),
        ("mrt.steps=-1", "mrt: steps must be >= 0, got -1"),
        ("mrt.grad_clip=-1", "mrt: grad_clip must be >= 0, got -1"),
        ("eval.min_position=0", "eval: min_position must be >= 1, got 0"),
        ("eval.min_position=99", "eval: min_position 99 exceeds the 15 forced positions"),
        ("mrt.sampling_strategy=beam", "mrt.sampling_strategy is not a recognized field")])
    def test_bad_setting_fails_before_any_file(self, tmp_path, capsys, command,
                                               override, says):
        out = tmp_path / "out"
        code = cli.main([command, "--config", str(write_tiny_config(tmp_path)),
                         "--set", override, "--outdir", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and says in err, err
        assert not out.exists()

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
                         "--vocab", str(data / "vocab.json"),
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
                             "--vocab", str(data / "vocab.json"),
                             "--input", str(tmp_path / name), "--beam", "2"]) == 0
            outputs.append(capsys.readouterr().out.split("\n"))
        dense, gappy = outputs
        assert gappy == [dense[0], "", dense[1], ""]

    def test_translate_rejects_overlong_line_naming_it(self, workspace, tmp_path, capsys):
        config, data, run = workspace
        pairs = dg.read_tsv(data / "test_id.tsv")[:2]
        src_file = tmp_path / "sources.txt"
        src_file.write_text(f"{' '.join(pairs[0][0])}\n{' '.join(['x'] * 17)}\n"
                            f"{' '.join(pairs[1][0])}\n")
        out_file = tmp_path / "hyps.txt"
        code = cli.main(["translate", "--checkpoint", str(run / "mle.ckpt"),
                         "--vocab", str(data / "vocab.json"), "--input", str(src_file),
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
            "evaluate": ["--domain", str(data / "domain.json"),
                         "--judgments", str(output)],
            "sweep-beam": ["--domain", str(data / "domain.json"), "--output", str(output)],
            "analyze-uncertainty": ["--distractor-file", str(files["--distractor-file"]),
                                    "--output", str(output)],
        }[command]
        code = cli.main([command, "--checkpoint", str(run / "mle.ckpt"),
                         "--vocab", str(data / "vocab.json"),
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
                         "--vocab", str(data / "vocab.json"),
                         "--data-file", str(tmp_path / "full.tsv"),
                         "--distractor-file", str(tmp_path / "full.tsv"),
                         "--output", str(tmp_path / "curves.csv")]) == 0

    @pytest.mark.parametrize("beams", ["1,x", "0,4", ""])
    def test_beams_must_be_positive_integers(self, workspace, beams, tmp_path, capsys):
        config, data, run = workspace
        code = cli.main(["sweep-beam", "--checkpoint", str(run / "mle.ckpt"),
                         "--vocab", str(data / "vocab.json"),
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
                         "--vocab", str(data / "vocab.json"),
                         "--domain", str(data / "domain.json"),
                         "--data-file", str(data / "test_id.tsv"), "--n", n])
        err = capsys.readouterr().err
        assert code == 1
        assert "--n" in err and "positive integer" in err

    @pytest.mark.parametrize("position", ["0", "-1", "x"])
    def test_min_position_must_be_positive(self, workspace, position, tmp_path, capsys):
        config, data, run = workspace
        code = cli.main(["analyze-uncertainty", "--checkpoint", str(run / "mle.ckpt"),
                         "--vocab", str(data / "vocab.json"),
                         "--data-file", str(data / "test_id.tsv"),
                         "--distractor-file", str(data / "test_ood.tsv"),
                         "--output", str(tmp_path / "curves.csv"),
                         "--min-position", position])
        err = capsys.readouterr().err
        assert code == 1
        assert "--min-position" in err and "positive integer" in err
        assert not (tmp_path / "curves.csv").exists()

    def test_evaluate_emits_summary_json(self, workspace, capsys):
        config, data, run = workspace
        assert cli.main(["evaluate", "--checkpoint", str(run / "mle.ckpt"),
                         "--vocab", str(data / "vocab.json"),
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
                         "--vocab", str(data / "vocab.json"),
                         "--domain", str(data / "domain.json"),
                         "--data-file", str(data / "test_ood.tsv"),
                         "--output", str(sweep_csv), "--beams", "1,2",
                         "--n", "6"]) == 0
        assert sweep_csv.exists()
        curve_csv = tmp_path / "curves.csv"
        assignment_csv = tmp_path / "assignment.csv"
        assert cli.main(["analyze-uncertainty",
                         "--checkpoint", str(run / "mle.ckpt"),
                         "--vocab", str(data / "vocab.json"),
                         "--data-file", str(data / "test_ood.tsv"),
                         "--distractor-file", str(data / "test_id.tsv"),
                         "--output", str(curve_csv),
                         "--assignment", str(assignment_csv),
                         "--n", "16"]) == 0
        assert curve_csv.exists() and assignment_csv.exists()
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"certainty_gap", "positions", "exact_length_matches"} <= set(payload)


SMALL_VOCAB = sm.Vocabulary(["tf0", "tf1"]).to_json().encode()

# command, file replaced (in a copy of the gen-data directory), its bytes,
# and what the error must say besides the file's name
MALFORMED_INPUTS = [
    ("translate", "vocab.json", b'{"tokens": ["tf0", ', "invalid JSON"),
    ("translate", "vocab.json", b'{"token": ["tf0"]}', '"tokens"'),
    ("translate", "vocab.json", b'{"tokens": "tf0 tf1"}', '"tokens"'),
    ("translate", "vocab.json", b'{"tokens": ["tf0", 1]}', '"tokens"'),
    ("translate", "vocab.json", b'{"tokens": ["tf0", "t\xff"]}', ":1: not UTF-8"),
    ("translate", "vocab.json", SMALL_VOCAB, "mle.ckpt"),
    ("finetune-mrt", "vocab.json", SMALL_VOCAB, "mle.ckpt"),
    ("evaluate", "domain.json", b'{"bogus": 1}', "domain.bogus is not a recognized field"),
    ("evaluate", "domain.json", b'{"n_function": "x"}', "domain.n_function must be int"),
    ("evaluate", "test_ood.tsv", b"sf0\ttf0\nsf1\xff\ttf1\n", ":2: not UTF-8"),
    ("analyze-uncertainty", "test_id.tsv", b"sf0\ttf0\nsf1\xff\ttf1\n", ":2: not UTF-8"),
    ("train-mle", "train.tsv", b"sf0\ttf0\n\xfe\ttf1\n", ":2: not UTF-8"),
    ("train-mle", "dev.tsv", b"sf0\ttf0\nsf0\ttf0\n\xfe\ttf1\n", ":3: not UTF-8"),
    ("translate", "in.txt", b"sf0 sf1\nsf1 \xc3\n", ":2: not UTF-8"),
    ("gen-data", "config.json", b'{"seed": 1, "mle": {"epochs": "\xe9"}}', ":1: not UTF-8"),
]


def _command_line(command: str, data: Path, checkpoint: Path) -> list[str]:
    model = ["--checkpoint", str(checkpoint), "--vocab", str(data / "vocab.json")]
    config = ["--config", str(data / "config.json")]
    return {
        "translate": ["translate", *model, "--input", str(data / "in.txt")],
        "evaluate": ["evaluate", *model, "--domain", str(data / "domain.json"),
                     "--data-file", str(data / "test_ood.tsv"), "--n", "2"],
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
        base = dec.DecodeConfig(length_norm_alpha=an.DEFAULT_EVAL_ALPHA)
        for system in ("mle", "mrt"):
            store = sm.ParameterStore.load(out / f"{system}.ckpt")
            fresh = an.beam_sweep(store, vocab, pairs, spec, [ev["eval_beam"]],
                                  base_config=base)
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

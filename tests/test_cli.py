"""Command-line behaviour: strict configuration validation, exit codes,
file outputs, locking, and a reduced-size byte-identity run."""

import dataclasses
import json
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

    def test_contract_violations_name_the_section(self):
        with pytest.raises(ConfigError, match="mrt"):
            cli.config_from_dict({"mrt": {"alpha": -1.0}})
        with pytest.raises(ConfigError, match="domain"):
            cli.config_from_dict({"domain": {"min_chunks": 5, "max_chunks": 2}})

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
        spec = dg.DomainSpec.from_json((out / "domain.json").read_text())
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
        spec = dg.DomainSpec.from_json((out / "domain.json").read_text())
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

"""Tests of the benchmark harness on a tiny configuration.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads
from seqrisk import numkit as nk
from tracer import ALL_TARGETS, Tracer, observed, resolve

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = (
    "data.train_size=60", "data.dev_size=12", "data.test_size=12",
    "model.embed_dim=16", "model.ffn_dim=32", "model.enc_layers=1",
    "model.dec_layers=1", "mle.epochs=1", "mle.tokens_per_batch=200",
    "mrt.steps=2", "eval.hallucination_n=6", "eval.sweep_n=4",
    "eval.uncertainty_n=4",
)


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tmp_path / name, TINY)


def test_tracer_restores_every_attribute_and_counts_nested_ops():
    before = {t: vars(owner)[attr] for t in ALL_TARGETS
              for owner, attr in [resolve(t)]}
    with Tracer() as tracer:
        assert all(vars(o)[a] is not before[t]
                   for t in ALL_TARGETS for o, a in [resolve(t)])
        nk.mean(nk.tensor(np.ones((2, 3))))
    assert tracer.unrestored() == []
    assert all(vars(o)[a] is before[t] for t in ALL_TARGETS for o, a in [resolve(t)])
    calls = {t: tracer.stats[t].calls for t in ("numkit.mean", "numkit.sum_",
                                                "numkit.scale")}
    assert calls == {"numkit.mean": 1, "numkit.sum_": 1, "numkit.scale": 1}
    assert tracer.counts["numkit.ops.calls"] == 1  # nested ops are not totals


def test_tracer_restores_after_an_error():
    before = vars(nk)["matmul"]
    with pytest.raises(ValueError):
        with Tracer():
            raise ValueError("boom")
    assert vars(nk)["matmul"] is before


def test_observed_sees_every_call_and_restores():
    before = vars(nk)["mean"], vars(nk)["sum_"]
    seen = []
    with observed(("numkit.mean", "numkit.sum_"),
                  lambda args, kwargs, out: seen.append(out.shape)):
        assert (nk.mean, nk.sum_) != before
        nk.mean(nk.tensor(np.ones((2, 3))))
        nk.sum_(nk.tensor(np.ones(4)))
    assert (vars(nk)["mean"], vars(nk)["sum_"]) == before
    assert len(seen) == 3  # the sum_ inside mean is seen too


def test_reference_pass_uses_nothing_of_the_program():
    code = ("import sys; from reference import reference_pass; "
            "assert reference_pass() > 0; "
            "assert not any(m.startswith('seqrisk') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench", check=True)


def test_unit_count_does_not_depend_on_speed(tmp_path):
    assert tiny("mle", tmp_path).unit_count(SPEC["run_seconds"]) == 9
    assert tiny("study", tmp_path).unit_count(SPEC["run_seconds"]) == 3
    assert tiny("beam", tmp_path).unit_count(1) == 3


@pytest.mark.parametrize("name", ["study", "beam", "mle"])
def test_untraced_run_reports_every_gated_metric(name, tmp_path):
    workload = tiny(name, tmp_path)
    metrics = run.run_untraced(workload, seconds=1)
    assert workload.checks.failed == 0, workload.checks.failures
    assert workload.checks.attempted >= 1
    assert {n: u for n, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(v) and v > 0 for v, _ in metrics.values())
    if name == "study":  # every unit reproduces another seed
        assert len({u["seed"] for u in workload.units}) == len(workload.units)


@pytest.mark.parametrize("name", ["study", "beam", "mle"])
def test_traced_counts_repeat_for_one_seed(name, tmp_path):
    first = run.run_traced(tiny(name, tmp_path / "a"))
    second_workload = tiny(name, tmp_path / "b")
    second = run.run_traced(second_workload)
    assert second_workload.checks.failed == 0, second_workload.checks.failures
    assert {n: u for n, (_, u) in first.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [n for n, (_, u) in first.items() if u == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["bench.unrestored"][0] == 0
    for name_ in run.BASELINE_COUNTS:
        assert first[name_][1] == "count"


def test_shares_sum_within_traced_time(tmp_path):
    metrics = run.run_traced(tiny("study", tmp_path))
    assert 0.9 < metrics["cli.run_reproduce.share"][0] <= 1.0
    stages = sum(metrics[f"{s}.share"][0] for s in layers.STAGES)
    residual = metrics["cli.run_reproduce.residual_share"][0]
    assert stages + residual == pytest.approx(metrics["cli.run_reproduce.share"][0])
    assert metrics["analysis.sentences_decoded"][0] == 2 * 2 * 6 + 2 * 3 * 4


def test_benchmark_file_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["study", "mle"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "beam", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {study,beam,mle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the last line of standard output is a JSON object holding
every end-to-end metric; with `--trace 1` it holds every per-layer metric
from a traced run.  Lines before it print the same metrics as a table, plus
the run's environment.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy loads: pin before any import
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"

E2E_UNITS = {
    "wall_ref": "passes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dev_nll": "nats/token",
}

REFERENCE_PASSES = 8  # after each unit and each set-up

# the exact counts stored per workload in baseline_counts.json
BASELINE_COUNTS = (
    "numkit.ops.calls",
    "seqmodel.decode_batch.calls",
    "seqmodel.sinusoid_table.calls",
    "analysis.sentences_decoded",
    "objectives.cost_delta.calls",
)


IMPORT_CODE = f"""\
import sys, time
sys.path.insert(0, {str(SRC)!r})
import numpy
start = time.perf_counter()
import seqrisk.cli
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the whole package.

    numpy is loaded before the clock starts: interpreter start-up and numpy
    loading are not the program's and were the noisiest part of an import."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], check=True,
                         env=dict(os.environ), capture_output=True, text=True)
    return float(out.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": src_line_count(),
    }


def run_untraced(workload, seconds: int) -> dict:
    """Run the units that `seconds` asks for and `workload.setup_repeats`
    set-ups, each a fresh-interpreter import plus `workload.setup()`.

    The set-ups are spread evenly before, between and after the units, so
    that their median, `setup_s`, and the workload's `wall_s` are taken
    over the same stretch of time.  After each unit and each set-up come
    `REFERENCE_PASSES` passes of `reference.reference_pass`; `wall_ref` is
    `wall_s` over the median pass, which takes out most of the host's slow
    phases (see perfbench/README.md, Noise)."""
    from reference import reference_pass
    from workloads import timed

    units, repeats = workload.unit_count(seconds), workload.setup_repeats
    setups, passes = [], []

    def run_unit():
        workload.units.append(workload.run_unit(len(workload.units)))
        passes.extend(reference_pass() for _ in range(REFERENCE_PASSES))

    for i in range(repeats):
        while len(workload.units) < min(i * (units + 1) // repeats, units):
            run_unit()
        import_s = import_seconds()
        _, record = timed(workload.setup)
        setups.append(import_s + record["wall_s"])
        passes.extend(reference_pass() for _ in range(REFERENCE_PASSES))
    while len(workload.units) < units:
        run_unit()
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(workload.finish())
    reference_s = statistics.median(passes)
    metrics["wall_ref"] = metrics["wall_s"] / reference_s
    workload.printed["wall_s"] = (metrics["wall_s"], "s")
    workload.printed["reference_pass_s"] = (reference_s, "s")
    metrics["peak_rss_mb"] = peak_rss_mb()
    workload.info["units"] = len(workload.units)
    return {name: (metrics[name], unit) for name, unit in E2E_UNITS.items()}


def run_traced(workload) -> dict:
    """Traced set-up and unit, with one untraced unit of the same inputs
    between them as the reference for the tracing overhead."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        workload.setup()
    setup_s = time.perf_counter() - start
    workload.units.append(workload.run_unit(0))
    with tracer:
        workload.units.append(workload.run_unit(0))
    unrestored = tracer.unrestored()
    workload.checks.check(not unrestored, f"attributes left patched: {unrestored}")
    workload.finish()
    untraced, traced = (u["wall_s"] for u in workload.units)
    return layers.layer_metrics(tracer, setup_s, traced, untraced, len(unrestored))


def compare_baseline(workload_name: str, seed: int, metrics: dict) -> str | None:
    baseline = json.loads((HERE / "baseline_counts.json").read_text())
    if seed != baseline["seed"]:
        return None
    stored = baseline["counts"].get(workload_name, {})
    diffs = {name: (stored.get(name), metrics[name][0]) for name in BASELINE_COUNTS
             if stored.get(name) != metrics[name][0]}
    if not diffs:
        return "baseline counts: all equal"
    return "baseline counts differ (stored, now): " + json.dumps(diffs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("study", "beam", "mle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed at least 0")
    if not (SRC / "seqrisk" / "__init__.py").is_file():
        print(f"error: no seqrisk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import seqrisk
    if Path(seqrisk.__file__).resolve().parent != SRC / "seqrisk":
        print(f"error: imported seqrisk from {seqrisk.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics = run_traced(workload)
        else:
            metrics = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    table = {**metrics, **workload.printed}
    width = max(len(name) for name in table)
    for name, (value, unit) in table.items():
        gated = "" if name in metrics else "  (printed only)"
        print(f"{name:<{width}}  {value:.6g} {unit}{gated}")
    print("env " + json.dumps({**environment(args), **workload.info}, sort_keys=True))
    if args.trace:
        line = compare_baseline(args.workload, args.seed, metrics)
        if line:
            print(line)
    for failure in workload.checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": workload.checks.failed == 0,
        "attempted": workload.checks.attempted,
        "failed": workload.checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics from a traced run.

Time spent in a span is given as its share of the traced time
(`bench.traced_s`: traced set-up plus one traced unit), so every layer
metric is defined on every workload: a layer a workload never enters has
share 0, and share times `bench.traced_s` gives its seconds.  Counts are
exact and repeat across runs with the same seed.
"""

from __future__ import annotations

from tracer import ALL_TARGETS, ATTRIBUTED, TRAINING_LOOPS, Tracer

# spans traced only to feed a counter
COUNTER_ONLY = ("objectives.sample_decode_dedup",)
SELF_TIMED = ("decoding.beam_search", "decoding.sample_decode_batch")
STAGES = ("cli.stage_gen_data", "cli.stage_train_mle",
          "cli.stage_finetune_mrt", "cli.stage_analyses")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, setup_s: float, traced_wall_s: float,
                  untraced_wall_s: float, unrestored: int) -> dict:
    """name -> (value, unit) for every per-layer metric, in a fixed order."""
    total = setup_s + traced_wall_s
    stats, counts = tracer.stats, tracer.counts
    out = {
        "bench.traced_s": (total, "s"),
        "bench.traced_wall_s": (traced_wall_s, "s"),
        "bench.untraced_wall_s": (untraced_wall_s, "s"),
        "bench.trace_overhead_s": (traced_wall_s - untraced_wall_s, "s"),
        "bench.unrestored": (unrestored, "count"),
    }
    for name in ALL_TARGETS:
        if name in COUNTER_ONLY:
            continue
        out[f"{name}.calls"] = (stats[name].calls, "count")
        out[f"{name}.share"] = (_ratio(stats[name].seconds, total), "ratio")
    for name in SELF_TIMED:
        s = stats[name]
        out[f"{name}.self_share"] = (_ratio(s.seconds - s.child_seqmodel_s, total), "ratio")
    for name in ATTRIBUTED:
        for loop in TRAINING_LOOPS:
            key = f"{name}.{loop.split('.', 1)[1]}"
            out[f"{key}.share"] = (_ratio(tracer.attributed[key], total), "ratio")
    residual = stats["cli.run_reproduce"].seconds - sum(stats[s].seconds for s in STAGES)
    out["cli.run_reproduce.residual_share"] = (
        _ratio(residual if stats["cli.run_reproduce"].calls else 0.0, total), "ratio")

    decode_calls = stats["seqmodel.decode_batch"].calls
    rows = counts["seqmodel.decode_batch.rows"]
    positions = counts["seqmodel.decode_batch.positions"]
    out.update({
        "analysis.sentences_decoded": (counts["analysis.sentences_decoded"], "count"),
        "decoding.tokens_out": (counts["decoding.tokens_out"], "count"),
        "seqmodel.encode_batch.rows": (counts["seqmodel.encode_batch.rows"], "count"),
        "seqmodel.decode_batch.rows": (rows, "count"),
        "seqmodel.decode_batch.positions": (positions, "count"),
        "seqmodel.decode_batch.new_position_ratio": (_ratio(rows, positions), "ratio"),
        "numkit.ops.calls": (counts["numkit.ops.calls"], "count"),
        "numkit.ops.share": (_ratio(counts["numkit.ops.seconds"], total), "ratio"),
        "numkit.ops_per_decode_call": (
            _ratio(counts["numkit.ops_in_decode"], decode_calls), "ops/call"),
        "numkit.out_mb": (counts["numkit.out_bytes"] / 2**20, "MB"),
        "numkit.matmul.gflop": (counts["numkit.matmul.flop"] / 1e9, "GFLOP"),
        "objectives.candidates_kept_ratio": (
            _ratio(counts["objectives.candidates_kept"],
                   counts["objectives.candidates_drawn"]), "ratio"),
    })
    return out

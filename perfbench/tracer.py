"""Span tracing of seqrisk's public functions, done from outside the package.

`patched` is the one patching mechanism: it replaces each target attribute
(a module function, a method or a classmethod) with a wrapper and puts every
original object back when its `with` block ends.  On top of it, a `Tracer`
times every call, records which traced span was open when it started, and
runs an optional counting hook on the call's arguments and result;
`unrestored()` reports any attribute that no longer holds its original.
`observed` only hands each call's result to a callback.

Targets are named `<module>.<attr>` or `<module>.<Class>.<attr>` relative
to the `seqrisk` package, so a span's name is also its metric prefix.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

# numkit's public ops; their nesting (mean -> sum_ + scale, sub -> add +
# scale) is why op totals count only spans not opened inside another op
NUMKIT_OPS = (
    "add", "mul", "scale", "sub", "matmul", "relu", "log", "exp", "softmax",
    "log_softmax", "layer_norm", "embedding", "take_along_last",
    "masked_fill", "reshape", "transpose", "narrow", "sum_", "mean",
)

# spans whose time is also split by the training loop that encloses them
TRAINING_LOOPS = ("objectives.train_mle", "objectives.finetune_mrt")
ATTRIBUTED = ("numkit.backward", "objectives.Adam.step")

STAGE_TARGETS = (
    "cli.run_reproduce",
    "cli.stage_gen_data",
    "cli.stage_train_mle",
    "cli.stage_finetune_mrt",
    "cli.stage_analyses",
)

ALL_TARGETS = STAGE_TARGETS + (
    "analysis.judge_corpus",
    "analysis.beam_sweep",
    "analysis.uncertainty_curves",
    "decoding.beam_search",
    "decoding.sample_decode_batch",
    "seqmodel.encode_batch",
    "seqmodel.decode_batch",
    "seqmodel.sinusoid_table",
    "seqmodel.ParameterStore.save",
    "seqmodel.ParameterStore.load",
    "numkit.backward",
    "objectives.train_mle",
    "objectives.finetune_mrt",
    "objectives.mle_loss",
    "objectives.Adam.step",
    "objectives.build_risk_batch",
    "objectives.sample_decode_dedup",
    "objectives.mrt_risk",
    "objectives.cost_delta",
    "metrics.smoothed_sentence_bleu",
    "metrics.corpus_bleu",
    "metrics.fisher_exact_two_tailed",
    "datagen.generate_suite",
    "datagen.encode_corpus",
    "datagen.is_fluent",
    "datagen.is_partially_fluent",
) + tuple(f"numkit.{op}" for op in NUMKIT_OPS)


def resolve(target: str):
    """(owner object, attribute name) for a dotted target under `seqrisk`."""
    module, *path = target.split(".")
    owner = importlib.import_module(f"seqrisk.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


@contextlib.contextmanager
def patched(targets, wrap):
    """Replace every target by `wrap(target, original function)` while the
    block runs; yields [(owner, attr, original)] in patching order."""
    originals = []
    try:
        for target in targets:
            owner, attr = resolve(target)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(wrap(target, original.__func__))
            else:
                replacement = wrap(target, original)
            originals.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield originals
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


@contextlib.contextmanager
def observed(targets, on_result):
    """Calls `on_result(args, kwargs, result)` after every call to `targets`
    while the block runs."""
    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    with patched(targets, wrap):
        yield


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class SpanStats:
    __slots__ = ("calls", "seconds", "child_seqmodel_s")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.child_seqmodel_s = 0.0


class Tracer:
    """Context manager that patches `targets` while it is active.

    `stats[name]` holds call count, inclusive seconds and the seconds spent
    in direct `seqmodel` child spans; `counts` holds the work counters the
    hooks derive from arguments and results."""

    def __init__(self, targets=ALL_TARGETS):
        self.targets = tuple(targets)
        self.stats: dict[str, SpanStats] = {t: SpanStats() for t in self.targets}
        self.counts: Counter = Counter()
        self.attributed: Counter = Counter()  # "<span>.<loop>" -> seconds
        self._stack: list[list] = []  # [name, is_op, child seqmodel seconds]
        self._patch = None
        self._originals: list[tuple[object, str, object]] = []
        self._decode_depth = 0

    def __enter__(self) -> "Tracer":
        self._patch = patched(self.targets, self._wrap)
        self._originals = self._patch.__enter__()
        return self

    def __exit__(self, *exc_info):
        self._patch.__exit__(*exc_info)
        self._stack.clear()
        self._decode_depth = 0
        return False

    def unrestored(self) -> list[str]:
        """Patched targets whose attribute is no longer the original object."""
        return [target for target, (owner, attr, original)
                in zip(self.targets, self._originals)
                if vars(owner).get(attr) is not original]

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        layer = name.split(".", 1)[0]
        is_op = layer == "numkit" and name != "numkit.backward"
        is_seqmodel = layer == "seqmodel"
        hook = self._hook_for(name)
        tracer = self
        is_decode = name == "seqmodel.decode_batch"
        attributed = name in ATTRIBUTED

        def wrapper(*args, **kwargs):
            frame = [name, is_op, 0.0]
            if is_op:
                top_level = not (stack and stack[-1][1])
                if top_level and tracer._decode_depth:
                    tracer.counts["numkit.ops_in_decode"] += 1
            if is_decode:
                tracer._decode_depth += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if is_decode:
                    tracer._decode_depth -= 1
                stats.calls += 1
                stats.seconds += elapsed
                stats.child_seqmodel_s += frame[2]
                if is_seqmodel and stack:
                    stack[-1][2] += elapsed
                if is_op and top_level:
                    tracer.counts["numkit.ops.calls"] += 1
                    tracer.counts["numkit.ops.seconds"] += elapsed
                if attributed:
                    tracer._attribute(name, elapsed)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _attribute(self, name: str, elapsed: float) -> None:
        for frame in reversed(self._stack):
            if frame[0] in TRAINING_LOOPS:
                loop = frame[0].split(".", 1)[1]
                self.attributed[f"{name}.{loop}"] += elapsed
                return

    # -- work counters -------------------------------------------------------

    def _hook_for(self, name: str):
        c = self.counts
        if name.startswith("numkit.") and name != "numkit.backward":
            if name == "numkit.matmul":
                def hook(args, kwargs, out):
                    c["numkit.out_bytes"] += out.data.nbytes
                    c["numkit.matmul.flop"] += 2 * out.data.size * args[0].shape[-1]
            else:
                def hook(args, kwargs, out):
                    c["numkit.out_bytes"] += out.data.nbytes
            return hook
        if name == "seqmodel.encode_batch":
            def hook(args, kwargs, out):
                c["seqmodel.encode_batch.rows"] += out.shape[0]
            return hook
        if name == "seqmodel.decode_batch":
            def hook(args, kwargs, out):
                rows, length = out.shape[0], out.shape[1]
                c["seqmodel.decode_batch.rows"] += rows
                c["seqmodel.decode_batch.positions"] += rows * length
            return hook
        if name == "analysis.judge_corpus":
            def hook(args, kwargs, out):
                c["analysis.sentences_decoded"] += len(out)
            return hook
        if name == "decoding.beam_search":
            def hook(args, kwargs, out):
                c["decoding.tokens_out"] += sum(len(h.tokens) - 1 for h in out)
            return hook
        if name == "decoding.sample_decode_batch":
            def hook(args, kwargs, out):
                c["decoding.tokens_out"] += sum(
                    len(seq) - 1 for group in out for seq in group)
            return hook
        if name == "objectives.sample_decode_dedup":
            def hook(args, kwargs, out):
                config = _arg(args, kwargs, 3, "config")
                drawn = config.n_samples + int(config.include_reference)
                c["objectives.candidates_drawn"] += drawn * len(out)
                c["objectives.candidates_kept"] += sum(len(g) for g in out)
            return hook
        return None

"""Synthetic translation task with a controlled domain shift.

A source sentence is a run of chunks, each a function symbol followed by
one or two content symbols.  The reference translation maps every symbol
through a fixed lexicon and, inside two-content chunks, swaps the pair, so
the task has local reordering but is fully deterministic.  Content symbols
split into a base domain (training) and a novel domain (held out); shifted
test sets mix novel content into base-domain sentences.  Function symbols
are shared across domains.

Target-side well-formedness is checked two ways: a full parse against the
chunk grammar, and a sliding-window relaxation for mostly well-formed
output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import NamedTuple, Sequence

import numpy as np

from . import seqmodel as sm
from .errors import ContractError, ParseError

STREAM_TRAIN = 10
STREAM_DEV = 11
STREAM_TEST_ID = 12
STREAM_TEST_OOD = 13

TokenPair = tuple[list[str], list[str]]


@dataclass
class DomainSpec:
    """Symbol inventory and sentence-shape parameters for one task instance."""

    n_function: int = 8
    n_base_content: int = 26
    n_novel_content: int = 26
    min_chunks: int = 2
    max_chunks: int = 4
    p_two_content: float = 0.5
    ood_novel_rate: float = 0.5

    def __post_init__(self):
        if self.n_function < 1 or self.n_base_content < 2 or self.n_novel_content < 1:
            raise ContractError("symbol inventories too small")
        if not 1 <= self.min_chunks <= self.max_chunks:
            raise ContractError("chunk count range is invalid")
        if not 0.0 <= self.p_two_content <= 1.0:
            raise ContractError("p_two_content must be in [0, 1]")
        if not 0.0 < self.ood_novel_rate <= 1.0:
            raise ContractError("ood_novel_rate must be in (0, 1]")

    # symbol inventories; 's'/'t' prefix is source/target side
    def src_functions(self) -> list[str]:
        return [f"sf{i}" for i in range(self.n_function)]

    def src_base_content(self) -> list[str]:
        return [f"sb{i}" for i in range(self.n_base_content)]

    def src_novel_content(self) -> list[str]:
        return [f"sn{i}" for i in range(self.n_novel_content)]

    def lexicon(self) -> dict[str, str]:
        """Source symbol to target symbol, bijective by construction."""
        return {s: "t" + s[1:] for s in (
            self.src_functions() + self.src_base_content() + self.src_novel_content())}

    def tgt_functions(self) -> set[str]:
        return {f"tf{i}" for i in range(self.n_function)}

    def tgt_content(self) -> set[str]:
        return ({f"tb{i}" for i in range(self.n_base_content)}
                | {f"tn{i}" for i in range(self.n_novel_content)})

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def build_vocabulary(spec: DomainSpec) -> sm.Vocabulary:
    """One shared vocabulary holding both source and target symbol spaces."""
    tokens = (spec.src_functions() + spec.src_base_content() + spec.src_novel_content()
              + sorted(spec.tgt_functions()) + sorted(spec.tgt_content()))
    return sm.Vocabulary(tokens)


class _Symbols(NamedTuple):
    """A spec's source inventories and lexicon, built once per corpus."""

    functions: list[str]
    base: list[str]
    novel: list[str]
    lexicon: dict[str, str]
    function_set: frozenset[str]

    @classmethod
    def of(cls, spec: DomainSpec) -> "_Symbols":
        functions = spec.src_functions()
        return cls(functions, spec.src_base_content(), spec.src_novel_content(),
                   spec.lexicon(), frozenset(functions))


def transform_source(tokens: Sequence[str], spec: DomainSpec) -> list[str]:
    """Reference translation: lexicon mapping plus the in-chunk content swap."""
    return _transform(tokens, _Symbols.of(spec))


def _transform(tokens: Sequence[str], symbols: _Symbols) -> list[str]:
    lex, funcs = symbols.lexicon, symbols.function_set
    out: list[str] = []
    i = 0
    while i < len(tokens):
        if tokens[i] not in funcs:
            raise ContractError(f"source does not parse: expected function at {i}")
        chunk = [tokens[i]]
        i += 1
        while i < len(tokens) and tokens[i] not in funcs:
            chunk.append(tokens[i])
            i += 1
        if len(chunk) not in (2, 3):
            raise ContractError(f"source does not parse: chunk of size {len(chunk)}")
        mapped = [lex[t] for t in chunk]
        if len(mapped) == 3:
            mapped[1], mapped[2] = mapped[2], mapped[1]
        out.extend(mapped)
    return out


def _draw_sentence(spec: DomainSpec, symbols: _Symbols, rng: np.random.Generator,
                   novel_rate: float) -> list[str]:
    funcs, base, novel = symbols.functions, symbols.base, symbols.novel
    n_chunks = int(rng.integers(spec.min_chunks, spec.max_chunks + 1))
    toks: list[str] = []
    for _ in range(n_chunks):
        toks.append(funcs[int(rng.integers(len(funcs)))])
        n_content = 2 if rng.random() < spec.p_two_content else 1
        for _ in range(n_content):
            pool = novel if (novel_rate > 0.0 and rng.random() < novel_rate) else base
            toks.append(pool[int(rng.integers(len(pool)))])
    return toks


def generate_corpus(spec: DomainSpec, size: int, rng: np.random.Generator,
                    novel_rate: float = 0.0,
                    forbid: set[tuple[str, ...]] | None = None) -> list[TokenPair]:
    """`size` unique sentence pairs; with a positive novel rate every source
    is guaranteed at least one novel-domain content symbol."""
    forbid = set(forbid or ())
    seen: set[tuple[str, ...]] = set()
    symbols = _Symbols.of(spec)
    novel = set(symbols.novel)
    pairs: list[TokenPair] = []
    attempts = 0
    limit = max(1000, 1000 * size)
    while len(pairs) < size:
        attempts += 1
        if attempts > limit:
            raise ContractError(
                f"could not draw {size} unique sentences after {limit} attempts")
        src = _draw_sentence(spec, symbols, rng, novel_rate)
        key = tuple(src)
        if key in seen or key in forbid:
            continue
        if novel_rate > 0.0 and not any(t in novel for t in src):
            continue
        seen.add(key)
        pairs.append((src, _transform(src, symbols)))
    return pairs


def generate_suite(spec: DomainSpec, seed: int, train_size: int = 1500,
                   dev_size: int = 200, test_size: int = 500) -> dict[str, list[TokenPair]]:
    """Train/dev/in-domain-test on base content, shifted test with novel
    content mixed in; source sentences are disjoint across all four splits."""
    taken: set[tuple[str, ...]] = set()
    out: dict[str, list[TokenPair]] = {}
    plan = [
        ("train", train_size, 0.0, STREAM_TRAIN),
        ("dev", dev_size, 0.0, STREAM_DEV),
        ("test_id", test_size, 0.0, STREAM_TEST_ID),
        ("test_ood", test_size, spec.ood_novel_rate, STREAM_TEST_OOD),
    ]
    for name, size, novel_rate, stream in plan:
        rng = np.random.default_rng([seed, stream])
        pairs = generate_corpus(spec, size, rng, novel_rate, forbid=taken)
        taken.update(tuple(s) for s, _ in pairs)
        out[name] = pairs
    return out


# ---------------------------------------------------------------------------
# target-side well-formedness
# ---------------------------------------------------------------------------


def target_grammar_check(tokens: Sequence[str], spec: DomainSpec) -> bool:
    """Full parse: one or more chunks of a function symbol followed by one
    or two content symbols, all from the target side."""
    funcs = spec.tgt_functions()
    content = spec.tgt_content()
    if not tokens:
        return False
    i = 0
    while i < len(tokens):
        if tokens[i] not in funcs:
            return False
        i += 1
        n_content = 0
        while i < len(tokens) and tokens[i] in content and n_content < 2:
            n_content += 1
            i += 1
        if n_content == 0:
            return False
    return True


def window_pass_fraction(tokens: Sequence[str], spec: DomainSpec,
                         window: int = 3) -> float:
    """Fraction of length-`window` slices locally consistent with the chunk
    grammar: all tokens on the target side, no adjacent function symbols,
    and no three content symbols in a row.  Short sequences fall back to
    the full parse."""
    if len(tokens) < window:
        return 1.0 if target_grammar_check(tokens, spec) else 0.0
    funcs = spec.tgt_functions()
    content = spec.tgt_content()
    passes = 0
    total = len(tokens) - window + 1
    for i in range(total):
        chunk = tokens[i: i + window]
        kinds = []
        for t in chunk:
            if t in funcs:
                kinds.append("F")
            elif t in content:
                kinds.append("C")
            else:
                kinds.append("?")
        if "?" in kinds:
            continue
        if any(a == b == "F" for a, b in zip(kinds, kinds[1:])):
            continue
        if all(k == "C" for k in kinds):
            continue
        passes += 1
    return passes / total


def is_fluent(tokens: Sequence[str], spec: DomainSpec) -> bool:
    return target_grammar_check(tokens, spec)


def is_partially_fluent(tokens: Sequence[str], spec: DomainSpec,
                        window: int = 3, threshold: float = 0.8) -> bool:
    """Mostly well-formed: at least `threshold` of sliding windows pass."""
    if not tokens:
        return False
    return window_pass_fraction(tokens, spec, window) >= threshold


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------


def write_tsv(path, pairs: Sequence[TokenPair]) -> None:
    """Two tab-separated columns of space-joined tokens, one pair per line."""
    with sm.atomic_write(path, newline="\n") as fh:
        for src, tgt in pairs:
            fh.write(" ".join(src) + "\t" + " ".join(tgt) + "\n")


def read_tsv(path) -> list[TokenPair]:
    """Strict reader for the two-column corpus format.

    Rejects bytes that are not UTF-8, carriage returns, wrong column counts,
    and blank token fields; a trailing newline on the last row is the only
    latitude given."""
    lines = sm.read_utf8(path).split("\n")
    if lines[-1] == "":
        lines.pop()  # the trailing newline
    pairs: list[TokenPair] = []
    for lineno, line in enumerate(lines, start=1):
        if "\r" in line:
            raise ParseError(f"{path}:{lineno}: carriage return in corpus file")
        if not line:
            raise ParseError(f"{path}:{lineno}: blank line")
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(
                f"{path}:{lineno}: expected 2 tab-separated columns, got {len(cols)}")
        src, tgt = cols[0].split(), cols[1].split()
        if not src or not tgt:
            raise ParseError(f"{path}:{lineno}: empty source or target field")
        pairs.append((src, tgt))
    return pairs


def encode_corpus(vocab: sm.Vocabulary,
                  pairs: Sequence[TokenPair]) -> list[tuple[list[int], list[int]]]:
    """Token pairs to id pairs; targets gain BOS and EOS."""
    return [
        (vocab.encode(src), [sm.BOS_ID] + vocab.encode(tgt) + [sm.EOS_ID])
        for src, tgt in pairs
    ]

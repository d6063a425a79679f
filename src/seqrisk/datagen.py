"""Synthetic translation task with a controlled domain shift.

A source sentence is a run of chunks, each a function symbol followed by
one or two content symbols.  The reference translation maps every symbol
through a fixed lexicon and, inside two-content chunks, swaps the pair, so
the task has local reordering but is fully deterministic.  Content symbols
split into a base domain (training) and a novel domain (held out); shifted
test sets mix novel content into base-domain sentences.  Function symbols
are shared across domains.

Target-side well-formedness is judged from one classification of the
tokens (F target function, C target content, ? anything else): a full
parse of that string against the chunk grammar, and a relaxation that
counts its 3-letter windows for mostly well-formed output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, asdict
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import seqmodel as sm
from .errors import ContractError

STREAM_TRAIN = 10
STREAM_DEV = 11
STREAM_TEST_ID = 12
STREAM_TEST_OOD = 13

TokenPair = tuple[list[str], list[str]]


@dataclass(frozen=True)
class DomainSpec:
    """Symbol inventory and sentence-shape parameters for one task instance.

    The inventories are built once per instance, on first use; the spec is
    frozen so that they cannot go stale."""

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
    @cached_property
    def src_functions(self) -> tuple[str, ...]:
        return tuple(f"sf{i}" for i in range(self.n_function))

    @cached_property
    def src_base_content(self) -> tuple[str, ...]:
        return tuple(f"sb{i}" for i in range(self.n_base_content))

    @cached_property
    def src_novel_content(self) -> tuple[str, ...]:
        return tuple(f"sn{i}" for i in range(self.n_novel_content))

    @cached_property
    def lexicon(self) -> Mapping[str, str]:
        """Source symbol to target symbol, bijective by construction."""
        return MappingProxyType({s: "t" + s[1:] for s in (
            self.src_functions + self.src_base_content + self.src_novel_content)})

    @cached_property
    def tgt_functions(self) -> frozenset[str]:
        return frozenset(f"tf{i}" for i in range(self.n_function))

    @cached_property
    def tgt_content(self) -> frozenset[str]:
        return (frozenset(f"tb{i}" for i in range(self.n_base_content))
                | frozenset(f"tn{i}" for i in range(self.n_novel_content)))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def build_vocabulary(spec: DomainSpec) -> sm.Vocabulary:
    """One shared vocabulary holding both source and target symbol spaces."""
    return sm.Vocabulary([*spec.src_functions, *spec.src_base_content, *spec.src_novel_content,
                          *sorted(spec.tgt_functions), *sorted(spec.tgt_content)])


def transform_source(tokens: Sequence[str], spec: DomainSpec) -> list[str]:
    """Reference translation: lexicon mapping plus the in-chunk content swap."""
    lex, funcs = spec.lexicon, spec.src_functions
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


def _draw_sentence(spec: DomainSpec, rng: np.random.Generator,
                   novel_rate: float) -> list[str]:
    funcs, base, novel = spec.src_functions, spec.src_base_content, spec.src_novel_content
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
    novel = set(spec.src_novel_content)
    pairs: list[TokenPair] = []
    attempts = 0
    limit = max(1000, 1000 * size)
    while len(pairs) < size:
        attempts += 1
        if attempts > limit:
            raise ContractError(
                f"could not draw {size} unique sentences after {limit} attempts")
        src = _draw_sentence(spec, rng, novel_rate)
        key = tuple(src)
        if key in seen or key in forbid:
            continue
        if novel_rate > 0.0 and not any(t in novel for t in src):
            continue
        seen.add(key)
        pairs.append((src, transform_source(src, spec)))
    return pairs


def generate_suite(spec: DomainSpec, seed: int, *, train_size: int, dev_size: int,
                   test_size: int) -> dict[str, list[TokenPair]]:
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

# the chunk grammar over token kinds, and the 3-letter windows of its
# sentences: no "?", no two functions in a row, no three contents in a row
_CHUNKS = re.compile("(FC{1,2})+")
_PASSING_WINDOWS = frozenset({"FCF", "FCC", "CFC", "CCF"})
PARTIAL_FLUENCY = 0.8  # share of passing windows for partial fluency


def _kinds(tokens: Sequence[str], spec: DomainSpec) -> str:
    """One letter per token: F for a target function symbol, C for a target
    content symbol, ? for anything else."""
    funcs, content = spec.tgt_functions, spec.tgt_content
    return "".join("F" if t in funcs else "C" if t in content else "?" for t in tokens)


def is_fluent(tokens: Sequence[str], spec: DomainSpec) -> bool:
    """Full parse: one or more chunks of a function symbol followed by one
    or two content symbols, all from the target side."""
    return _CHUNKS.fullmatch(_kinds(tokens, spec)) is not None


def window_pass_fraction(tokens: Sequence[str], spec: DomainSpec) -> float:
    """Fraction of the 3-token windows locally consistent with the chunk
    grammar.  Sequences shorter than a window fall back to the full parse."""
    kinds = _kinds(tokens, spec)
    windows = [kinds[i: i + 3] for i in range(len(kinds) - 2)]
    if not windows:
        return 1.0 if _CHUNKS.fullmatch(kinds) else 0.0
    return sum(w in _PASSING_WINDOWS for w in windows) / len(windows)


def is_partially_fluent(tokens: Sequence[str], spec: DomainSpec) -> bool:
    """Mostly well-formed: at least 80 % of the 3-token windows pass."""
    return window_pass_fraction(tokens, spec) >= PARTIAL_FLUENCY


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
    blank token fields and a file holding no pair; a trailing newline on the
    last row is the only latitude given."""
    lines = sm.read_utf8(path).split("\n")
    if lines[-1] == "":
        lines.pop()  # the trailing newline
    pairs: list[TokenPair] = []
    for lineno, line in enumerate(lines, start=1):
        if "\r" in line:
            raise ContractError(f"{path}:{lineno}: carriage return in corpus file")
        if not line:
            raise ContractError(f"{path}:{lineno}: blank line")
        cols = line.split("\t")
        if len(cols) != 2:
            raise ContractError(
                f"{path}:{lineno}: expected 2 tab-separated columns, got {len(cols)}")
        src, tgt = cols[0].split(), cols[1].split()
        if not src or not tgt:
            raise ContractError(f"{path}:{lineno}: empty source or target field")
        pairs.append((src, tgt))
    if not pairs:
        raise ContractError(f"{path}: no sentence pairs in the file")
    return pairs


def encode_corpus(vocab: sm.Vocabulary,
                  pairs: Sequence[TokenPair]) -> list[tuple[list[int], list[int]]]:
    """Token pairs to id pairs; targets gain BOS and EOS."""
    return [
        (vocab.encode(src), [sm.BOS_ID] + vocab.encode(tgt) + [sm.EOS_ID])
        for src, tgt in pairs
    ]

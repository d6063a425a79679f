"""Corpus generator contracts: the reference transform, split hygiene,
grammar checks, and the strict corpus file format."""

import json
from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrisk import cli
from seqrisk import datagen as dg
from seqrisk import seqmodel as sm
from seqrisk.errors import ContractError


def small_spec(**overrides):
    base = dict(n_function=3, n_base_content=5, n_novel_content=4,
                min_chunks=1, max_chunks=3, p_two_content=0.5,
                ood_novel_rate=0.6)
    base.update(overrides)
    return dg.DomainSpec(**base)


class TestDomainSpec:
    def test_json_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "domain.json"
        path.write_text(spec.to_json())
        assert cli._load_domain(path) == spec

    def test_validation(self):
        with pytest.raises(ContractError):
            dg.DomainSpec(min_chunks=3, max_chunks=2)
        with pytest.raises(ContractError):
            dg.DomainSpec(p_two_content=1.5)
        with pytest.raises(ContractError):
            dg.DomainSpec(ood_novel_rate=0.0)

    def test_default_vocabulary_fits_byte_budget(self):
        vocab = dg.build_vocabulary(dg.DomainSpec())
        assert len(vocab) == 124
        assert len(vocab) <= 128

    def test_lexicon_is_bijective(self):
        lex = small_spec().lexicon
        assert len(set(lex.values())) == len(lex)

    def test_inventories_are_built_once_and_leave_the_fields_alone(self):
        spec = small_spec()
        for name in ("src_functions", "src_base_content", "src_novel_content",
                     "lexicon", "tgt_functions", "tgt_content"):
            assert getattr(spec, name) is getattr(spec, name), name
        fields = {"n_function": 3, "n_base_content": 5, "n_novel_content": 4,
                  "min_chunks": 1, "max_chunks": 3, "p_two_content": 0.5,
                  "ood_novel_rate": 0.6}
        assert asdict(spec) == fields
        assert spec.to_json() == json.dumps(fields, sort_keys=True)
        assert spec == small_spec()
        with pytest.raises(FrozenInstanceError):
            spec.n_function = 4
        with pytest.raises(TypeError):
            spec.lexicon["sf0"] = "tb0"

    def test_vocabulary_order(self):
        spec = small_spec()
        tokens = ([f"sf{i}" for i in range(3)] + [f"sb{i}" for i in range(5)]
                  + [f"sn{i}" for i in range(4)] + sorted(f"tf{i}" for i in range(3))
                  + sorted([f"tb{i}" for i in range(5)] + [f"tn{i}" for i in range(4)]))
        assert dg.build_vocabulary(spec).content_tokens() == tokens


class TestTransform:
    def test_single_content_chunk_maps_directly(self):
        spec = small_spec()
        assert dg.transform_source(["sf0", "sb1"], spec) == ["tf0", "tb1"]

    def test_two_content_chunk_swaps(self):
        spec = small_spec()
        got = dg.transform_source(["sf2", "sb3", "sb1"], spec)
        assert got == ["tf2", "tb1", "tb3"]

    def test_multi_chunk_sentence(self):
        spec = small_spec()
        src = ["sf0", "sb0", "sf1", "sb2", "sb4"]
        assert dg.transform_source(src, spec) == ["tf0", "tb0", "tf1", "tb4", "tb2"]

    def test_novel_content_transforms_too(self):
        spec = small_spec()
        assert dg.transform_source(["sf0", "sn1", "sn3"], spec) == ["tf0", "tn3", "tn1"]

    def test_unparseable_source_rejected(self):
        spec = small_spec()
        with pytest.raises(ContractError):
            dg.transform_source(["sb0", "sf0"], spec)  # content first
        with pytest.raises(ContractError):
            dg.transform_source(["sf0", "sb0", "sb1", "sb2"], spec)  # 3 contents
        with pytest.raises(ContractError):
            dg.transform_source(["sf0"], spec)  # bare function

    def test_transform_is_invertible_on_distinct_sources(self):
        spec = small_spec()
        rng = np.random.default_rng(0)
        pairs = dg.generate_corpus(spec, 60, rng)
        targets = {tuple(t) for _, t in pairs}
        assert len(targets) == len(pairs)


class TestGeneration:
    def test_sources_unique_and_targets_consistent(self):
        spec = small_spec()
        pairs = dg.generate_corpus(spec, 50, np.random.default_rng(1))
        assert len({tuple(s) for s, _ in pairs}) == 50
        for src, tgt in pairs:
            assert tgt == dg.transform_source(src, spec)
            assert dg.is_fluent(tgt, spec)

    def test_lengths_follow_chunk_bounds(self):
        spec = small_spec(min_chunks=2, max_chunks=3)
        pairs = dg.generate_corpus(spec, 40, np.random.default_rng(2))
        for src, _ in pairs:
            assert 2 * 2 <= len(src) <= 3 * 3

    def test_base_corpus_has_no_novel_symbols(self):
        spec = small_spec()
        novel = set(spec.src_novel_content)
        pairs = dg.generate_corpus(spec, 30, np.random.default_rng(3))
        assert all(not (set(src) & novel) for src, _ in pairs)

    def test_shifted_corpus_guarantees_novel_content(self):
        spec = small_spec()
        novel = set(spec.src_novel_content)
        pairs = dg.generate_corpus(spec, 30, np.random.default_rng(4),
                                   novel_rate=spec.ood_novel_rate)
        assert all(set(src) & novel for src, _ in pairs)

    def test_forbid_set_respected(self):
        spec = small_spec()
        first = dg.generate_corpus(spec, 20, np.random.default_rng(5))
        forbid = {tuple(s) for s, _ in first}
        second = dg.generate_corpus(spec, 20, np.random.default_rng(5), forbid=forbid)
        assert not ({tuple(s) for s, _ in second} & forbid)

    def test_exhausted_space_fails_loudly(self):
        spec = small_spec(n_function=1, n_base_content=2, min_chunks=1,
                          max_chunks=1, p_two_content=0.0)
        with pytest.raises(ContractError):
            dg.generate_corpus(spec, 5, np.random.default_rng(6))

    def test_suite_splits_are_disjoint_and_sized(self):
        spec = dg.DomainSpec()
        suite = dg.generate_suite(spec, seed=0, train_size=50, dev_size=10,
                                  test_size=20)
        assert sorted(suite) == ["dev", "test_id", "test_ood", "train"]
        sets = {name: {tuple(s) for s, _ in pairs} for name, pairs in suite.items()}
        assert len(sets["train"]) == 50 and len(sets["test_ood"]) == 20
        names = list(sets)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not (sets[a] & sets[b]), (a, b)

    def test_suite_is_deterministic(self):
        spec = dg.DomainSpec()
        a = dg.generate_suite(spec, seed=3, train_size=20, dev_size=5, test_size=5)
        b = dg.generate_suite(spec, seed=3, train_size=20, dev_size=5, test_size=5)
        assert a == b
        c = dg.generate_suite(spec, seed=4, train_size=20, dev_size=5, test_size=5)
        assert a != c


class TestGrammarChecks:
    def test_accepts_generated_targets(self):
        spec = small_spec()
        for _, tgt in dg.generate_corpus(spec, 30, np.random.default_rng(7)):
            assert dg.is_fluent(tgt, spec)
            assert dg.is_partially_fluent(tgt, spec)

    def test_rejects_malformed_targets(self):
        spec = small_spec()
        assert not dg.is_fluent([], spec)
        assert not dg.is_fluent(["tf0"], spec)
        assert not dg.is_fluent(["tb0", "tf0", "tb1"], spec)
        assert not dg.is_fluent(["tf0", "tb0", "tb1", "tb2"], spec)
        assert not dg.is_fluent(["tf0", "sb0"], spec)  # source side
        assert not dg.is_fluent(["tf0", "tf1", "tb0"], spec)

    def test_window_fraction_hand_cases(self):
        spec = small_spec()
        clean = ["tf0", "tb0", "tf1", "tb1", "tb2", "tf2", "tb3"]
        assert dg.window_pass_fraction(clean, spec) == 1.0
        # corrupt the final token: only the last window can fail
        tail_bad = clean[:-1] + ["sb0"]
        assert dg.window_pass_fraction(tail_bad, spec) == pytest.approx(4 / 5)
        # corrupt the middle: three windows cover it
        mid_bad = clean[:3] + ["sb0"] + clean[4:]
        assert dg.window_pass_fraction(mid_bad, spec) == pytest.approx(2 / 5)

    def test_partial_fluency_threshold(self):
        spec = small_spec()
        clean = ["tf0", "tb0", "tf1", "tb1", "tb2", "tf2", "tb3"]
        assert dg.is_partially_fluent(clean, spec)
        tail_bad = clean[:-1] + ["sb0"]  # 4/5 windows pass, at the threshold
        assert dg.is_partially_fluent(tail_bad, spec)
        mid_bad = clean[:3] + ["sb0"] + clean[4:]
        assert not dg.is_partially_fluent(mid_bad, spec)
        assert not dg.is_partially_fluent([], spec)

    def test_short_sequences_fall_back_to_full_parse(self):
        spec = small_spec()
        assert dg.window_pass_fraction(["tf0", "tb0"], spec) == 1.0
        assert dg.window_pass_fraction(["tb0", "tb1"], spec) == 0.0


# The token-by-token judges that the kind-string ones replaced, kept as the
# reference they must agree with.
def reference_full_parse(tokens, spec):
    funcs, content = spec.tgt_functions, spec.tgt_content
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


def reference_window_fraction(tokens, spec, window=3):
    if len(tokens) < window:
        return 1.0 if reference_full_parse(tokens, spec) else 0.0
    funcs, content = spec.tgt_functions, spec.tgt_content
    passes = 0
    total = len(tokens) - window + 1
    for i in range(total):
        kinds = ["F" if t in funcs else "C" if t in content else "?"
                 for t in tokens[i: i + window]]
        if "?" in kinds:
            continue
        if any(a == b == "F" for a, b in zip(kinds, kinds[1:])):
            continue
        if all(k == "C" for k in kinds):
            continue
        passes += 1
    return passes / total


def reference_partially_fluent(tokens, spec, window=3, threshold=0.8):
    if not tokens:
        return False
    return reference_window_fraction(tokens, spec, window) >= threshold


JUDGED = small_spec()
FUNCTIONS = st.sampled_from(sorted(JUDGED.tgt_functions))
CONTENT = st.sampled_from(sorted(JUDGED.tgt_content))
# source-side symbols, target-looking symbols past the inventory, reserved and unknown
OTHERS = st.sampled_from(["sf0", "sb1", "sn2", "tf9", "tb99", "<unk>", "<eos>", "xyz"])
ANY = st.one_of(FUNCTIONS, CONTENT, OTHERS)
CHUNK = st.builds(lambda f, cs: [f, *cs], FUNCTIONS, st.lists(CONTENT, min_size=1, max_size=2))
SEQUENCES = (st.lists(ANY, max_size=14)
             # mostly fluent: up to four chunks, at most one token replaced
             | st.builds(lambda chunks, at, token: [
                 token if i == at else t for i, t in enumerate(sum(chunks, []))],
                 st.lists(CHUNK, max_size=4), st.integers(-1, 11), ANY))


@settings(max_examples=500, deadline=None)
@given(SEQUENCES)
def test_judges_agree_with_the_token_by_token_reference(tokens):
    assert dg.is_fluent(tokens, JUDGED) == reference_full_parse(tokens, JUDGED)
    assert dg.window_pass_fraction(tokens, JUDGED) == reference_window_fraction(tokens, JUDGED)
    assert dg.is_partially_fluent(tokens, JUDGED) == reference_partially_fluent(tokens, JUDGED)


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        spec = small_spec()
        pairs = dg.generate_corpus(spec, 15, np.random.default_rng(8))
        path = tmp_path / "corpus.tsv"
        dg.write_tsv(path, pairs)
        assert dg.read_tsv(path) == pairs

    def test_rejects_carriage_returns(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(b"sf0 sb0\ttf0 tb0\r\n")
        with pytest.raises(ContractError, match="carriage return"):
            dg.read_tsv(path)

    def test_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "cols.tsv"
        path.write_text("sf0 sb0\ttf0 tb0\textra\n")
        with pytest.raises(ContractError, match="2 tab-separated columns"):
            dg.read_tsv(path)
        path.write_text("no tabs here\n")
        with pytest.raises(ContractError, match="cols.tsv:1: expected 2 tab-separated columns, got 1"):
            dg.read_tsv(path)

    def test_rejects_blank_lines_and_empty_fields(self, tmp_path):
        path = tmp_path / "blank.tsv"
        path.write_text("sf0 sb0\ttf0 tb0\n\nsf1 sb1\ttf1 tb1\n")
        with pytest.raises(ContractError, match="blank line"):
            dg.read_tsv(path)
        path.write_text("\ttf0 tb0\n")
        with pytest.raises(ContractError, match="empty source or target"):
            dg.read_tsv(path)

    def test_a_leading_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_bytes("\ufeffsf3 sb0\ttf0 tb0\n".encode("utf-8"))
        assert dg.read_tsv(path) == [(["sf3", "sb0"], ["tf0", "tb0"])]

    def test_rejects_a_file_holding_no_pair(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_bytes(b"")
        with pytest.raises(ContractError, match="empty.tsv: no sentence pairs in the file"):
            dg.read_tsv(path)

    def test_encode_corpus_frames_targets(self):
        spec = small_spec()
        vocab = dg.build_vocabulary(spec)
        pairs = [(["sf0", "sb0"], ["tf0", "tb0"])]
        encoded = dg.encode_corpus(vocab, pairs)
        src_ids, tgt_ids = encoded[0]
        assert tgt_ids[0] == sm.BOS_ID and tgt_ids[-1] == sm.EOS_ID
        assert vocab.decode(src_ids) == ["sf0", "sb0"]
        assert vocab.decode(tgt_ids) == ["tf0", "tb0"]

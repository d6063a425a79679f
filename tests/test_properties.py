"""Property tests: checkpoint round trips over random model configurations,
the configuration's model section against the model's own checks, the
invariants of token-budget batching and padding, the risk costs against
sentence BLEU, and the settings walk (`seqmodel.build_settings`) over every
field of every section."""

import dataclasses
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from seqrisk import cli
from seqrisk import metrics
from seqrisk import objectives as obj
from seqrisk import seqmodel as sm
from seqrisk.errors import ContractError

FEW = settings(max_examples=40, deadline=None)


@st.composite
def model_configs(draw):
    heads = draw(st.integers(1, 3))
    return sm.ModelConfig(
        vocab_size=draw(st.integers(5, 40)),
        embed_dim=heads * draw(st.integers(1, 6)),
        num_heads=heads,
        enc_layers=draw(st.integers(0, 2)),
        dec_layers=draw(st.integers(0, 2)),
        ffn_dim=draw(st.integers(1, 12)),
        max_seq_len=draw(st.integers(2, 16)))


@FEW
@given(model_configs(), st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_checkpoint_round_trip_is_bit_exact(config, seed, step_count):
    store = sm.ParameterStore.init(config, seed)
    store.flat += np.random.default_rng(seed).standard_normal(store.flat.size, np.float32)
    store.step_count = step_count
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.ckpt"), Path(tmp, "b.ckpt")
        store.save(first)
        loaded = sm.ParameterStore.load(first)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.config == config and loaded.step_count == step_count
    assert loaded.names() == store.names()
    for name, t in store.items():
        assert loaded[name].shape == t.shape
        assert loaded[name].data.tobytes() == t.data.tobytes(), name


# each field optional, values around the bounds of the model's checks
MODEL_SECTIONS = st.fixed_dictionaries({}, optional={
    "embed_dim": st.integers(-1, 12), "num_heads": st.integers(-1, 5),
    "enc_layers": st.integers(0, 2), "dec_layers": st.integers(0, 2),
    "ffn_dim": st.integers(1, 8), "dropout_rate": st.floats(-0.5, 1.5),
    "max_seq_len": st.integers(-1, 4)})


@FEW
@given(MODEL_SECTIONS, st.integers(5, 40))
def test_model_section_is_refused_exactly_when_the_model_is(section, vocab_size):
    data = {"model": section}
    try:
        want = sm.ModelConfig(vocab_size=vocab_size, **section)
    except ContractError:
        with pytest.raises(ContractError, match="^model: "):
            cli.config_from_dict(data)
    else:
        config = cli.config_from_dict(data)
        assert config.model.to_model_config(vocab_size) == want


@FEW
@given(st.lists(st.integers(1, 12), min_size=1, max_size=40), st.integers(1, 30),
       st.randoms(use_true_random=False))
def test_token_batches_cover_the_order_within_budget(lengths, budget, random):
    corpus = [([4], [1] * n) for n in lengths]
    order = list(range(len(corpus)))
    random.shuffle(order)
    batches = obj.token_batches(corpus, order, budget)
    assert [i for batch in batches for i in batch] == order
    for batch in batches:
        assert batch
        assert len(batch) == 1 or sum(lengths[i] for i in batch) <= budget


@FEW
@given(st.lists(st.lists(st.integers(1, 99), max_size=12), min_size=1, max_size=10))
def test_pad_batch_keeps_prefixes_and_pads_the_rest(seqs):
    out = sm.pad_batch(seqs)
    assert out.shape == (len(seqs), max(len(s) for s in seqs))
    for row, seq in zip(out, seqs):
        assert row[: len(seq)].tolist() == seq
        assert (row[len(seq):] == sm.PAD_ID).all()


# -- the settings walk: every field of every section ---------------------------

# values of a wrong kind, each with the kinds of field that would take it
WRONG_VALUES = [(True, {bool}), (2.5, {float}), ("1", {str}), ([1], {list}),
                (float("nan"), set()), (None, set()), ({"x": 1}, set())]


def _kinds(hint) -> set:
    """The kinds of JSON value a field's annotated type takes."""
    if typing.get_origin(hint) is list:
        return {list}
    return {int, float} if hint is float else {hint}


def _right_values(hint, default, near: bool):
    """Values of a field's own type: `near` its default (small positive
    ints for a field with no default), or anywhere."""
    if typing.get_origin(hint) is list:
        return st.lists(_right_values(*typing.get_args(hint), None, near), max_size=4)
    if hint is bool:
        return st.booleans()
    if hint is int and near:
        return st.integers(1, 8) if default is None else st.integers(default - 2, default + 2)
    if hint is int:
        return st.integers(-2, 64) | st.integers()
    if near:
        return st.floats(0.5, 1.5).map(lambda x: x * default)
    return st.integers(-1, 2) | st.floats(allow_nan=False, allow_infinity=False)


def _fields(cls, prefix: tuple = ()) -> list[tuple[tuple, object]]:
    """The path of names to, and the annotated type of, every field of
    dataclass `cls` and of the dataclasses among them, depth first."""
    out = []
    for name, hint in typing.get_type_hints(cls).items():
        out.append((prefix + (name,), hint))
        if dataclasses.is_dataclass(hint):
            out.extend(_fields(hint, prefix + (name,)))
    return out


IDS = st.lists(st.integers(0, 9), max_size=10)  # 0-2 are PAD, BOS and EOS


@FEW
@given(st.lists(st.tuples(IDS, st.lists(IDS, min_size=1, max_size=5)), min_size=1, max_size=8))
def test_risk_costs_equal_one_minus_sentence_bleu(sources):
    # costs taken per candidate, as a risk batch takes them, so each
    # reference's n-grams are counted once; each expected value is a
    # sentence BLEU whose reference is counted afresh
    costs = [[obj.cost_delta(cand, ref) for cand in cands] for ref, cands in sources]
    specials = {sm.PAD_ID, sm.BOS_ID, sm.EOS_ID}
    for (ref, cands), row in zip(sources, costs):
        for cand, cost in zip(cands, row):
            metrics._reference_ngrams.cache_clear()
            want = 1.0 - metrics.smoothed_sentence_bleu(
                [t for t in cand if t not in specials], [t for t in ref if t not in specials])
            assert cost.hex() == want.hex()


@st.composite
def settings_objects(draw, cls, near: bool, mistyped: tuple = (), prefix: tuple = ()):
    """A JSON object for dataclass `cls` (at path `prefix`): each field left
    out or drawn of its own type (a dataclass-typed field: such an object
    itself), but the field at path `mistyped` takes a value of a wrong kind."""
    hints = typing.get_type_hints(cls)
    data = {}
    for f in dataclasses.fields(cls):
        path, hint = prefix + (f.name,), hints[f.name]
        if path == mistyped:
            data[f.name] = draw(st.sampled_from(
                [value for value, takers in WRONG_VALUES if not takers & _kinds(hint)]))
        elif mistyped[: len(path)] == path or draw(st.booleans()):
            if dataclasses.is_dataclass(hint):
                data[f.name] = draw(settings_objects(hint, near, mistyped, path))
            else:
                default = (f.default_factory() if f.default_factory is not dataclasses.MISSING
                           else f.default)
                data[f.name] = draw(_right_values(hint, default, near))
    return data


@settings(max_examples=400, deadline=None)
@given(st.just(()) | st.sampled_from([path for path, _ in _fields(cli.ExperimentConfig)]),
       st.booleans(), st.data())
def test_every_configuration_builds_or_is_refused(mistyped, near, data):
    raw = data.draw(settings_objects(cli.ExperimentConfig, near, mistyped))
    try:
        config = cli.config_from_dict(raw)
    except ContractError:
        return
    event(f"built ({'near' if near else 'anywhere'})")
    assert not mistyped, f"{'.'.join(mistyped)} of a wrong kind was accepted"
    again = cli.config_from_dict(config.to_dict())  # the config that manifest.json records
    assert again == config and again.canonical_json() == config.canonical_json()


def _walkable(hint) -> bool:
    """Whether `build_settings` checks a value against `hint`: int, float,
    bool, str, `list[...]` of those, or a dataclass."""
    if typing.get_origin(hint) is list:
        return _walkable(*typing.get_args(hint))
    return hint in (int, float, bool, str) or dataclasses.is_dataclass(hint)


@pytest.mark.parametrize("cls", [cli.ExperimentConfig, sm.ModelConfig], ids=lambda c: c.__name__)
def test_every_settings_field_has_a_type_the_walk_checks(cls):
    assert [(path, h) for path, h in _fields(cls) if not _walkable(h)] == []


def test_the_type_scan_finds_unchecked_types():
    @dataclasses.dataclass
    class Section:
        pairs: tuple[int, int] = (1, 2)
        table: dict = dataclasses.field(default_factory=dict)
        size: int | None = None

    @dataclasses.dataclass
    class Root:
        section: Section = dataclasses.field(default_factory=Section)
        names: list[str] = dataclasses.field(default_factory=list)

    assert [(path, h) for path, h in _fields(Root) if not _walkable(h)] == [
        (("section", "pairs"), tuple[int, int]), (("section", "table"), dict),
        (("section", "size"), int | None)]


def _settable_values() -> list[tuple]:
    return [path for path, hint in _fields(cli.ExperimentConfig)
            if not dataclasses.is_dataclass(hint)]


def test_the_configuration_has_31_settable_values():
    # adding or removing a setting changes this figure on purpose
    leaves = _settable_values()
    assert len(leaves) == 31, [".".join(path) for path in leaves]


def test_readme_states_the_number_of_settable_values():
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    assert f"The configuration has {len(_settable_values())} settable values." in readme

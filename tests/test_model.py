"""Model assembly: config validation, parameter init, forward, loss, checkpoints."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import seg.model
import seg.numerics as nm
from seg.aggregation import gate_aggregate, gate_values, selective_attention_aggregate
from seg.data import Bag, Dataset, SentenceExample
from seg.embedding import embed_entity_concat, embed_positional, entity_aware_embed, pack_bags
from seg.encoders import attention_weights, pcnn_encode, self_attn_encode
from seg.errors import DataError, ValidationError
from seg.evaluation import accuracy, predict_dataset
from seg.model import (
    TINY_CONFIG,
    VARIANTS,
    ModelConfig,
    SegParams,
    _classify,
    _rng_for,
    forward_bag,
    l2_penalty,
    load_checkpoint,
    loss,
    run_gradcheck,
    save_checkpoint,
    tiny_bags,
    validate_config,
)
from seg.numerics import Tensor, backward, clear_tape


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


VOCAB = 12


def tiny(variant="seg", **overrides):
    return replace(TINY_CONFIG, variant=variant, **overrides)


def one_bag(m, label=1, seed=3, n=6, vocab=VOCAB):
    rng = np.random.default_rng(seed)
    sents = []
    for _ in range(m):
        toks = tuple(int(t) for t in rng.integers(0, vocab, size=n))
        head, tail = rng.permutation(n)[:2]
        sents.append(SentenceExample(tokens=toks, head_pos=int(head),
                                     tail_pos=int(tail), head_id=0, tail_id=1))
    return Bag(tuple(sents), label)


# -- config -----------------------------------------------------------------


def test_config_rejects_unknown_variant():
    with pytest.raises(ValidationError, match="unknown variant"):
        validate_config(tiny(variant="seg_extra"))


def test_config_rejects_even_kernel():
    with pytest.raises(ValidationError, match="odd"):
        validate_config(tiny(kernel_width=4))


def test_config_rejects_mismatched_embed_dim():
    with pytest.raises(ValidationError, match="3 \\* word_dim"):
        validate_config(tiny(embed_dim=10))
    # Variants that skip the entity mix have no such constraint.
    validate_config(tiny(variant="seg_wo_all", embed_dim=10))


def test_config_rejects_bad_dropout_and_l2():
    with pytest.raises(ValidationError, match="dropout_p"):
        validate_config(tiny(dropout_p=1.0))
    with pytest.raises(ValidationError, match="l2_coef"):
        validate_config(tiny(l2_coef=-0.1))


def test_config_rejects_single_relation():
    with pytest.raises(ValidationError, match="at least 2"):
        validate_config(tiny(num_relations=1))


def test_default_dimension_arithmetic():
    config = ModelConfig()
    assert config.feat_dim == 690
    assert config.pos_view_dim == 60
    assert config.encoder_input_dim == 150
    assert config.aggregate_dim == 690
    concat = ModelConfig(variant="seg_wo_gate")
    assert concat.aggregate_dim == 840
    bare = ModelConfig(variant="seg_wo_all")
    assert bare.encoder_input_dim == 60


def test_variant_switch_table():
    on = {
        "seg": ("mix", "gate", "self"),
        "seg_wo_ent": ("gate", "self"),
        "seg_wo_gate": ("mix", "self"),
        "seg_wo_gate_wo_attn": ("mix",),
        "seg_wo_all": ("sel",),
        "seg_attn_wo_gate": ("mix", "sel"),
        "seg_attn": ("mix", "gate", "self", "sel"),
        "seg_stack": ("mix", "gate", "self"),
    }
    for variant, flags in on.items():
        c = tiny(variant=variant)
        assert c.wiring.entity_mix == ("mix" in flags), variant
        assert c.wiring.gate == ("gate" in flags), variant
        assert c.wiring.self_attn == ("self" in flags), variant
        assert c.wiring.selective_attn == ("sel" in flags), variant


# -- parameter init -----------------------------------------------------------


def test_init_deterministic_and_seed_sensitive():
    a = SegParams(tiny(), VOCAB)
    b = SegParams(tiny(), VOCAB)
    c = SegParams(tiny(seed=8), VOCAB)
    for (name_a, t_a), (_, t_b), (_, t_c) in zip(a.registry, b.registry, c.registry):
        assert np.array_equal(t_a.data, t_b.data), name_a
        if t_a.data.any():  # biases are zero under every seed
            assert not np.array_equal(t_a.data, t_c.data), name_a


def test_init_weight_range_and_zero_biases():
    params = SegParams(tiny(), VOCAB)
    for name, t in params.registry:
        if ".b" in name or name.endswith("bias"):
            assert not t.data.any(), name
        else:
            assert np.abs(t.data).max() <= 0.1, name


def test_shared_tensor_names_share_values_across_variants():
    full = dict(SegParams(tiny("seg"), VOCAB).registry)
    attn = dict(SegParams(tiny("seg_attn"), VOCAB).registry)
    for name in ("embed.word", "embed.position", "pcnn.kernel", "gate.w_out"):
        assert np.array_equal(full[name].data, attn[name].data), name


def test_registry_covers_only_active_pieces():
    names = [n for n, _ in SegParams(tiny("seg_wo_all"), VOCAB).registry]
    assert not any(n.startswith(("entity_gate.", "self_attn.", "gate.")) for n in names)
    assert any(n.startswith("selective_attn.") for n in names)


def test_tiny_vocab_floor():
    with pytest.raises(ValidationError, match="vocab_size"):
        SegParams(tiny(), 1)


# -- forward ----------------------------------------------------------------


def test_forward_probs_are_distributions_for_all_variants():
    bags = tiny_bags(TINY_CONFIG.num_relations, VOCAB)
    for variant in VARIANTS:
        config = tiny(variant)
        params = SegParams(config, VOCAB)
        for bag in bags:
            pred = forward_bag(bag, params, config)
            assert pred.probs.shape == (config.num_relations,)
            assert abs(pred.probs.sum() - 1.0) < 1e-9, variant
            assert (pred.probs >= 0).all()
            assert pred.predicted == int(np.argmax(pred.probs))


def test_forward_records_nothing_on_tape():
    config = tiny()
    params = SegParams(config, VOCAB)
    forward_bag(one_bag(2), params, config)
    assert len(nm.active_tape()) == 0


def test_eval_confidence_uses_per_relation_queries():
    config = tiny("seg_wo_all")
    params = SegParams(config, VOCAB)
    bag = one_bag(3, label=2)
    pred = forward_bag(bag, params, config)
    # Each confidence entry is that relation's own softmax mass, so the
    # vector need not normalize; probs is its explicit normalization.
    assert pred.confidence.shape == (config.num_relations,)
    assert ((pred.confidence >= 0) & (pred.confidence <= 1)).all()
    assert abs(pred.probs.sum() - 1.0) < 1e-12
    assert np.allclose(pred.probs, pred.confidence / pred.confidence.sum())


def sentence_vectors(bag, params, config):
    """Per-sentence oracle encoder: each sentence embedded and encoded on
    its own, as a one-sentence pack. Returns (feat,) features and (d,)
    attention summaries, one per sentence."""
    feats, summaries = [], []
    for sent in bag.sentences:
        pack = pack_bags([Bag((sent,), bag.label)])
        words = nm.embedding_lookup(params.tables.word, pack.tokens)
        x = embed_positional(words, pack, params.tables)
        if config.wiring.entity_mix:
            x = entity_aware_embed(x, embed_entity_concat(words, pack, params.tables),
                                   params.entity_gate)
        x_conv = x
        if config.wiring.stacked:
            x_conv = nm.mul(attention_weights(x, params.self_attn), x)
        s = pcnn_encode(x_conv, pack.entities, pack.lengths, params.pcnn)
        feats.append(nm.reshape(s, (s.size,)))
        if config.wiring.self_attn:
            summaries.append(self_attn_encode(x, params.self_attn))
    return feats, summaries


def gated_oracle(feats, gates, scalar_gate):
    out = []
    for g, s in zip(gates, feats):
        if scalar_gate:
            g = nm.scale(nm.sum_all(g), 1.0 / g.size)
        out.append(nm.mul(g, s))
    return out


def mean_oracle(vectors):
    acc = vectors[0]
    for v in vectors[1:]:
        acc = nm.add(acc, v)
    return nm.scale(acc, 1.0 / len(vectors))


def bag_vector_oracle(bag, params, config):
    """One bag's vector from per-sentence vectors and the per-sentence
    aggregators; attention variants attend with the bag's gold label."""
    feats, summaries = sentence_vectors(bag, params, config)
    wiring = config.wiring
    if wiring.gate:
        gates = gate_values(summaries, params.gate)
        if not wiring.selective_attn:
            return gate_aggregate(feats, gates, config.scalar_gate)
        feats = gated_oracle(feats, gates, config.scalar_gate)
    if wiring.selective_attn:
        return selective_attention_aggregate(feats, bag.label, params.selective_attn)
    if wiring.self_attn:
        return mean_oracle([nm.concat([s, u], axis=0) for s, u in zip(feats, summaries)])
    return mean_oracle(feats)


def per_relation_confidence(bag, params, config):
    """Reference eval confidence: one attention pass and one classifier pass
    per relation, each reading only its own relation's probability."""
    with nm.no_grad():
        feats, summaries = sentence_vectors(bag, params, config)
        pool = feats
        if config.variant == "seg_attn":
            pool = gated_oracle(feats, gate_values(summaries, params.gate), config.scalar_gate)
        confidence = np.empty(config.num_relations)
        for r in range(config.num_relations):
            c = selective_attention_aggregate(pool, r, params.selective_attn)
            confidence[r] = nm.softmax_over_axis(_classify(c, params), 0).data[r]
    return confidence


@pytest.mark.parametrize("scalar_gate", [False, True])
@pytest.mark.parametrize("variant", ["seg_wo_all", "seg_attn_wo_gate", "seg_attn"])
def test_eval_confidence_matches_per_relation_oracle(variant, scalar_gate):
    config = tiny(variant, scalar_gate=scalar_gate)
    params = SegParams(config, VOCAB)
    for name, t in params.registry:
        t.data[...] = _rng_for(5, "oracle." + name).uniform(-1.0, 1.0, size=t.shape)
    bags = tiny_bags(config.num_relations, VOCAB) + [one_bag(5, seed=s) for s in (8, 9)]
    for bag in bags:
        want = per_relation_confidence(bag, params, config)
        got = forward_bag(bag, params, config).confidence
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), (variant, len(bag.sentences))


def test_gate_variant_confidence_is_probs():
    config = tiny()
    params = SegParams(config, VOCAB)
    pred = forward_bag(one_bag(2), params, config)
    assert np.array_equal(pred.probs, pred.confidence)


def test_train_forward_with_dropout_requires_rng():
    config = tiny(dropout_p=0.5)
    params = SegParams(config, VOCAB)
    with pytest.raises(ValidationError, match="random generator"):
        loss([one_bag(1)], params, config, train_mode=True, rng=None)


# -- loss ------------------------------------------------------------------


def test_uniform_predictor_loss_is_log_class_count():
    config = tiny(num_relations=53, l2_coef=0.0)
    params = SegParams(config, VOCAB)
    params.cls_w_out.data[...] = 0.0
    params.cls_b_out.data[...] = 0.0
    batch = [one_bag(2, label=17), one_bag(1, label=0, seed=9)]
    value = loss(batch, params, config, train_mode=False)
    assert abs(value.data - math.log(53.0)) < 1e-9


def test_l2_term_adds_exact_penalty():
    # The loss is the NLL alone; the L2 term is a plain number that the
    # recorded training loss adds on top.
    from seg.training import TrainConfig, train

    base = tiny(l2_coef=0.0)
    params = SegParams(base, VOCAB)
    batch = tiny_bags(base.num_relations, VOCAB)
    bare = loss(batch, params, base, train_mode=False).item()
    coef = 0.01
    clear_tape()
    assert loss(batch, params, tiny(l2_coef=coef), train_mode=False).item() == bare
    clear_tape()
    squares = sum(float((t.data ** 2).sum()) for _, t in params.registry)
    assert isinstance(l2_penalty(params), float)
    assert abs(l2_penalty(params) - squares) < 1e-9
    assert len(nm.active_tape()) == 0

    ds = Dataset(bags=batch, relation_names=[f"r{i}" for i in range(base.num_relations)],
                 word_vocab={f"w{i}": i for i in range(VOCAB)}, entity_vocab={"a": 0, "b": 1})
    _, history = train(ds, tiny(l2_coef=coef), TrainConfig(max_steps=1, batch_size=len(batch)),
                       params=params)
    assert abs(history[0]["loss"] - (bare + coef * squares)) < 1e-9


def test_loss_rejects_empty_batch_and_bad_label():
    config = tiny()
    params = SegParams(config, VOCAB)
    with pytest.raises(ValidationError, match="non-empty"):
        loss([], params, config)
    with pytest.raises(DataError, match="out of range"):
        loss([one_bag(1, label=config.num_relations)], params, config, train_mode=False)


def test_singleton_bag_attention_gradients_vanish_but_gate_gradients_do_not():
    # With one sentence the attention softmax collapses to weight 1 no matter
    # the scores, so the attention parameters cannot influence the loss; the
    # gate path keeps a live dependence on its parameters even at m = 1.
    attn_config = tiny("seg_wo_all", l2_coef=0.0)
    attn_params = SegParams(attn_config, VOCAB)
    backward(loss([one_bag(1, label=2)], attn_params, attn_config, train_mode=False))
    table = dict(attn_params.registry)
    assert not table["selective_attn.queries"].grad.any()
    assert not table["selective_attn.bilinear"].grad.any()

    clear_tape()
    gate_config = tiny("seg", l2_coef=0.0)
    gate_params = SegParams(gate_config, VOCAB)
    backward(loss([one_bag(1, label=2)], gate_params, gate_config, train_mode=False))
    table = dict(gate_params.registry)
    assert table["gate.w_out"].grad.any()
    assert table["gate.w_hidden"].grad.any()


def batch_of(size, num_relations):
    return [one_bag(1 + k % 3, label=k % num_relations, seed=20 + k) for k in range(size)]


def per_bag_loss(batch, params, config, rng):
    """The per-sentence model the packed loss replaced: every sentence
    encoded on its own, the per-sentence aggregators per bag, a vector
    dropout draw, one classifier pass and a floored NLL per bag. Like the
    loss, it leaves out the L2 term."""
    total = None
    for bag in batch:
        c = bag_vector_oracle(bag, params, config)
        if rng is not None:
            c = nm.dropout(c, config.dropout_p, rng)
        ll = nm.nll_columns(nm.reshape(_classify(c, params), (config.num_relations, 1)),
                            [bag.label])
        total = ll if total is None else nm.add(total, ll)
    return nm.scale(total, 1.0 / len(batch))


def value_and_grads(objective, params):
    clear_tape()
    nm.zero_grads(params.registry)
    value = objective()
    backward(value)
    grads = {name: t.grad.copy() for name, t in params.registry}
    clear_tape()
    return float(value.data), grads


@pytest.mark.parametrize("dropout_p", [0.0, 0.5])
@pytest.mark.parametrize("scalar_gate", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_loss_matches_per_bag_oracle(variant, scalar_gate, dropout_p):
    config = tiny(variant, scalar_gate=scalar_gate, dropout_p=dropout_p)
    params = SegParams(config, VOCAB)
    for name, t in params.registry:
        t.data[...] = _rng_for(3, "batched." + name).uniform(-0.5, 0.5, size=t.shape)
    batch = tiny_bags(config.num_relations, VOCAB) + batch_of(6, config.num_relations)

    def rng():
        return np.random.default_rng(11) if dropout_p else None

    got, got_grads = value_and_grads(
        lambda: loss(batch, params, config, train_mode=True, rng=rng()), params)
    want, want_grads = value_and_grads(lambda: per_bag_loss(batch, params, config, rng()),
                                       params)
    assert abs(got - want) <= 1e-12 * abs(want)
    for name, g in want_grads.items():
        assert np.max(np.abs(got_grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


def test_batched_dropout_mask_equals_per_bag_draws():
    aggs = Tensor(np.ones((690, 32)))
    got = nm.dropout(aggs, 0.5, np.random.default_rng(21)).data
    per_bag = np.random.default_rng(21)
    want = np.stack([nm.dropout(Tensor(np.ones(690)), 0.5, per_bag).data for _ in range(32)],
                    axis=1)
    assert np.array_equal(got, want)
    assert 0.4 < np.count_nonzero(got) / got.size < 0.6


HEAD_WEIGHTS = ("cls.w_hidden", "cls.w_out", "gate.w_hidden", "gate.w_out",
                "selective_attn.bilinear")
# Tape records per loss() on batch_of(size) with the per-bag head the
# batched head replaced (tiny config, scalar gate off).
PER_BAG_RECORDS = {
    3: {"seg": 288, "seg_wo_ent": 180, "seg_wo_gate": 252, "seg_wo_gate_wo_attn": 198,
        "seg_wo_all": 129, "seg_attn_wo_gate": 237, "seg_attn": 327, "seg_stack": 330},
    16: {"seg": 1480, "seg_wo_ent": 922, "seg_wo_gate": 1294, "seg_wo_gate_wo_attn": 1015,
         "seg_wo_all": 660, "seg_attn_wo_gate": 1218, "seg_attn": 1683, "seg_stack": 1697},
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_head_weights_enter_one_matmul_per_loss(variant, monkeypatch):
    config = tiny(variant)
    params = SegParams(config, VOCAB)
    table = dict(params.registry)
    weights = {id(table[n]): n for n in HEAD_WEIGHTS if n in table}
    seen = []
    matmul = nm.matmul

    def counting(a, b):
        seen.extend(weights[id(t)] for t in (a, b) if id(t) in weights)
        return matmul(a, b)

    monkeypatch.setattr(nm, "matmul", counting)
    for size in (1, 3, 16):
        seen.clear()
        clear_tape()
        loss(batch_of(size, config.num_relations), params, config, train_mode=False)
        assert sorted(seen) == sorted(weights.values()), size
        if size in PER_BAG_RECORDS:
            assert len(nm.active_tape()) < PER_BAG_RECORDS[size][variant], size


@pytest.mark.parametrize("variant", VARIANTS)
def test_tape_records_per_loss_do_not_grow_with_the_batch(variant):
    config = tiny(variant, dropout_p=0.5)
    params = SegParams(config, VOCAB)
    counts = {}
    for size in (1, 3, 16, 32):
        for name, batch in (("singletons", [one_bag(1, seed=k) for k in range(size)]),
                            ("mixed", mixed_bags(size, config.num_relations, seed=size))):
            clear_tape()
            loss(batch, params, config, train_mode=True, rng=np.random.default_rng(0))
            counts[(size, name)] = len(nm.active_tape())
    assert len(set(counts.values())) == 1, counts
    assert counts[(16, "mixed")] <= 64


def mixed_bags(count, num_relations, seed):
    """Bags of 1-5 sentences of 1-14 tokens: neighbouring sentences differ
    in length by more than the kernel width."""
    rng = np.random.default_rng([seed, 41])
    bags = []
    for k in range(count):
        sents = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 15))
            head, tail = (int(p) for p in rng.integers(0, n, size=2))
            toks = tuple(int(t) for t in rng.integers(0, VOCAB, size=n))
            sents.append(SentenceExample(toks, head, tail, head_id=0, tail_id=1))
        bags.append(Bag(tuple(sents), k % num_relations))
    return bags


@pytest.mark.parametrize("variant", ["seg", "seg_wo_all", "seg_stack"])
def test_packed_sentence_encoding_ignores_its_neighbours_tokens(variant):
    config = tiny(variant)
    params = SegParams(config, VOCAB)
    bags = mixed_bags(6, config.num_relations, seed=9)
    pack = pack_bags(bags)
    feats, summaries = seg.model._encode(pack, params, config)
    keep = int(np.argmax(pack.lengths))  # the longest sentence keeps its tokens
    lo, hi = pack.starts[keep], pack.starts[keep] + pack.lengths[keep]
    rng = np.random.default_rng(10)
    for _ in range(3):
        tokens = rng.integers(0, VOCAB, size=pack.tokens.size)
        tokens[lo:hi] = pack.tokens[lo:hi]
        other = seg.model._encode(replace(pack, tokens=tokens), params, config)
        assert np.array_equal(other[0].data[:, keep], feats.data[:, keep])
        if summaries is not None:
            assert np.array_equal(other[1].data[:, keep], summaries.data[:, keep])


@pytest.mark.parametrize("variant", VARIANTS)
def test_chunked_predictions_match_one_bag_forwards(variant, monkeypatch):
    config = tiny(variant)
    params = SegParams(config, VOCAB)
    for name, t in params.registry:
        t.data[...] = _rng_for(6, "chunks." + name).uniform(-1.0, 1.0, size=t.shape)
    bags = mixed_bags(14, config.num_relations, seed=3)
    ds = Dataset(bags=bags, relation_names=[str(i) for i in range(config.num_relations)],
                 word_vocab={}, entity_vocab={})
    want = [forward_bag(bag, params, config) for bag in bags]
    for budget in (1, 20, 60, 10_000):
        monkeypatch.setattr(seg.model, "_EVAL_COLUMNS", budget)
        for got, one in zip(predict_dataset(ds, params, config), want, strict=True):
            assert np.allclose(got.probs, one.probs, rtol=1e-12, atol=0.0), budget
            assert np.allclose(got.confidence, one.confidence, rtol=1e-12, atol=0.0), budget
            assert got.predicted == one.predicted


# -- helpers ----------------------------------------------------------------


def test_tiny_bags_shape_and_determinism():
    bags = tiny_bags(5, VOCAB)
    assert [len(b.sentences) for b in bags] == [1, 2, 3]
    assert [b.label for b in bags] == [2, 0, 4]
    again = tiny_bags(5, VOCAB)
    assert bags == again


def test_dataset_accuracy_counts_argmax_hits():
    config = tiny(num_relations=53, l2_coef=0.0)
    params = SegParams(config, VOCAB)
    params.cls_w_out.data[...] = 0.0
    params.cls_b_out.data[...] = 0.0
    params.cls_b_out.data[7] = 5.0  # force every prediction to relation 7
    bags = [one_bag(1, label=7, seed=s) for s in range(3)] + [one_bag(1, label=0, seed=9)]
    ds = Dataset(bags=bags, relation_names=[str(i) for i in range(53)],
                 word_vocab={"<pad>": 0, "<unk>": 1}, entity_vocab={})
    assert accuracy(ds, predict_dataset(ds, params, config)) == 0.75
    assert accuracy(ds, predict_dataset(ds, params, config), non_na_only=True) == 1.0
    empty = Dataset(bags=[], relation_names=[str(i) for i in range(53)], word_vocab={},
                    entity_vocab={})
    with pytest.raises(ValidationError, match="empty"):
        accuracy(empty, predict_dataset(empty, params, config))


# -- checkpoints --------------------------------------------------------------


def checkpointed(tmp_path, variant="seg"):
    config = tiny(variant)
    params = SegParams(config, VOCAB)
    rng = np.random.default_rng(4)
    for _, t in params.registry:
        t.data[...] = rng.standard_normal(t.shape)
    meta = {"fingerprint": "abc123", "num_bags": 3}
    man_path = save_checkpoint(tmp_path / "ckpt", params, config, meta, step=42)
    return config, params, meta, man_path


def test_checkpoint_round_trip_bit_exact(tmp_path):
    config, params, meta, man_path = checkpointed(tmp_path)
    loaded, loaded_config, manifest = load_checkpoint(man_path)
    assert loaded_config == config
    assert manifest["step"] == 42
    assert manifest["dataset"] == meta
    for (name, t), (_, lt) in zip(params.registry, loaded.registry):
        assert lt.data.dtype == np.float64
        assert np.array_equal(t.data, lt.data), name


def test_checkpoint_accepts_bare_or_json_path(tmp_path):
    _, params, _, man_path = checkpointed(tmp_path)
    via_json = load_checkpoint(man_path)
    via_bare = load_checkpoint(tmp_path / "ckpt")
    for (_, a), (_, b) in zip(via_json[0].registry, via_bare[0].registry):
        assert np.array_equal(a.data, b.data)


def test_checkpoint_missing_files(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_checkpoint(tmp_path / "nope")


def test_checkpoint_rejects_unknown_format(tmp_path):
    _, _, _, man_path = checkpointed(tmp_path)
    manifest = json.loads(man_path.read_text())
    manifest["format"] = "something-else"
    man_path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="format"):
        load_checkpoint(man_path)


def test_checkpoint_rejects_registry_mismatch(tmp_path):
    _, _, _, man_path = checkpointed(tmp_path)
    manifest = json.loads(man_path.read_text())
    manifest["registry"][0]["name"] = "embed.other"
    man_path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="registry"):
        load_checkpoint(man_path)


def test_checkpoint_rejects_shape_edit(tmp_path):
    _, _, _, man_path = checkpointed(tmp_path)
    manifest = json.loads(man_path.read_text())
    manifest["registry"][0]["shape"] = [1, 1]
    man_path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="shape"):
        load_checkpoint(man_path)


def test_checkpoint_rejects_truncated_binary(tmp_path):
    _, _, _, man_path = checkpointed(tmp_path)
    bin_path = man_path.with_suffix(".bin")
    raw = bin_path.read_bytes()
    bin_path.write_bytes(raw[:-16])
    with pytest.raises(ValidationError, match="truncated"):
        load_checkpoint(man_path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    _, _, _, man_path = checkpointed(tmp_path)
    bin_path = man_path.with_suffix(".bin")
    bin_path.write_bytes(bin_path.read_bytes() + b"\x00")
    with pytest.raises(ValidationError, match="trailing"):
        load_checkpoint(man_path)


def test_checkpoint_rejects_a_shape_edit_of_equal_size(tmp_path):
    _, _, _, man_path = checkpointed(tmp_path)
    manifest = json.loads(man_path.read_text())
    manifest["registry"][0]["shape"] = manifest["registry"][0]["shape"][::-1]
    man_path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="embed.word has shape"):
        load_checkpoint(man_path)


def test_load_checkpoint_draws_nothing(tmp_path, monkeypatch):
    _, params, _, man_path = checkpointed(tmp_path)

    def no_draws(seed, name):
        raise AssertionError(f"load_checkpoint drew {name}")

    monkeypatch.setattr(seg.model, "_rng_for", no_draws)
    loaded, _, _ = load_checkpoint(man_path)
    for (name, t), (_, lt) in zip(params.registry, loaded.registry):
        assert np.array_equal(t.data, lt.data), name
        assert lt.data.flags.writeable, name


def test_failed_save_keeps_the_previous_pair(tmp_path, monkeypatch):
    config, params, meta, man_path = checkpointed(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    saved = {name: t.data.copy() for name, t in params.registry}
    for _, t in params.registry:
        t.data += 1.0

    def failing_fsync(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk gone"):
        save_checkpoint(tmp_path / "ckpt", params, config, meta, step=43)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    loaded, _, manifest = load_checkpoint(man_path)
    assert manifest["step"] == 42
    for name, t in loaded.registry:
        assert np.array_equal(saved[name], t.data), name


@pytest.mark.parametrize("variant", ["seg", "seg_wo_all"])
def test_gradcheck_point_is_the_gradcheck_draws(monkeypatch, variant):
    seen = {}

    def capture(objective, registry, eps, tol):
        seen.update((name, t.data.copy()) for name, t in registry)
        return nm.GradCheckReport(entries=[], tol=tol)

    monkeypatch.setattr(nm, "grad_check", capture)
    run_gradcheck(variant, seed=2)
    names = [n for n, _ in SegParams(tiny(variant, seed=2), VOCAB).registry]
    assert list(seen) == names
    for name, data in seen.items():
        want = _rng_for(2, "gradcheck." + name).uniform(-0.5, 0.5, size=data.shape)
        assert np.array_equal(data, want), name

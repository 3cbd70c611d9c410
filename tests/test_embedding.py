"""Embedding views and the entity-aware gated mix."""

import numpy as np
import pytest

import seg.numerics as nm
from seg.data import Bag, SentenceExample
from seg.embedding import (
    EmbeddingTables,
    EntityAwareGateParams,
    embed_entity_concat,
    embed_positional,
    entity_aware_embed,
    pack_bags,
    relative_offset_bucket,
)
from seg.errors import ShapeError
from seg.numerics import Tensor, clear_tape, grad_check


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


def make_tables(vocab=9, d_w=4, d_r=3, clip=5, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTables(
        word=Tensor(rng.standard_normal((vocab, d_w)), requires_grad=True),
        position=Tensor(rng.standard_normal((2 * clip + 1, d_r)), requires_grad=True),
        pos_clip=clip,
    )


def make_gate(d_out, ent_rows, pos_rows, smoothing=1.0, seed=1):
    rng = np.random.default_rng(seed)
    return EntityAwareGateParams(
        w_gate=Tensor(rng.standard_normal((d_out, ent_rows)), requires_grad=True),
        b_gate=Tensor(rng.standard_normal(d_out), requires_grad=True),
        w_proj=Tensor(rng.standard_normal((d_out, pos_rows)), requires_grad=True),
        b_proj=Tensor(rng.standard_normal(d_out), requires_grad=True),
        gate_smoothing=smoothing,
    )


SENT = SentenceExample(tokens=(2, 5, 3, 7, 2), head_pos=1, tail_pos=3, head_id=0, tail_id=1)


def pack_of(*sents):
    return pack_bags([Bag(tuple(sents), 0)])


def views(pack, tables):
    """Both views of a pack over one shared word lookup, as the model builds them."""
    words = nm.embedding_lookup(tables.word, pack.tokens)
    return embed_positional(words, pack, tables), embed_entity_concat(words, pack, tables)


def test_offset_buckets():
    assert relative_offset_bucket(4, 4, 5) == 5          # distance zero sits mid-table
    assert relative_offset_bucket(0, 4, 5) == 1
    assert relative_offset_bucket(0, 30, 5) == 0         # clipped left
    assert relative_offset_bucket(30, 0, 5) == 10        # clipped right
    assert relative_offset_bucket(6, 4, 5) == 7
    assert relative_offset_bucket(5, 5, 30) == 30
    assert relative_offset_bucket(0, 200, 30) == 0
    assert relative_offset_bucket(7, 4, 30) == 33


def test_offset_bucket_monotone_and_saturating():
    prev = -1
    for i in range(-50, 51):
        b = relative_offset_bucket(i, 0, 12)
        assert b >= prev
        assert 0 <= b <= 24
        prev = b
    assert relative_offset_bucket(-50, 0, 12) == 0
    assert relative_offset_bucket(50, 0, 12) == 24


def test_packed_views_equal_per_token_oracle():
    # Sentences of 1-12 tokens packed side by side, split over two bags: every
    # column holds its own word, its offset buckets to its own sentence's
    # entities, and its own sentence's entity surfaces.
    tables = make_tables(vocab=9, clip=3)
    rng = np.random.default_rng(12)
    sents = []
    for n in (1, 12, 2, 7, 4):
        head, tail = (int(p) for p in rng.integers(0, n, size=2))
        sents.append(SentenceExample(tuple(int(t) for t in rng.integers(0, 9, size=n)),
                                     head, tail, head_id=0, tail_id=1))
    pack = pack_bags([Bag(tuple(sents[:2]), 0), Bag(tuple(sents[2:]), 1)])
    assert pack.bag_sizes.tolist() == [2, 3]
    x_pos, x_ent = (v.data for v in views(pack, tables))
    col = 0
    for sent in sents:
        for i, tok in enumerate(sent.tokens):
            head = relative_offset_bucket(i, sent.head_pos, 3)
            tail = relative_offset_bucket(i, sent.tail_pos, 3)
            assert np.array_equal(x_pos[:, col], np.concatenate(
                [tables.word.data[tok], tables.position.data[head], tables.position.data[tail]]))
            assert np.array_equal(x_ent[:, col], np.concatenate(
                [tables.word.data[tok], tables.word.data[sent.tokens[sent.head_pos]],
                 tables.word.data[sent.tokens[sent.tail_pos]]]))
            col += 1
    assert col == x_pos.shape[1]


def test_entity_view_and_word_gradient_match_per_token_lookup_oracle():
    # The oracle looks up (word, head surface, tail surface) at every token,
    # 3N ids; the view looks up N words and 2S surfaces.
    tables = make_tables(vocab=9, clip=3)
    rng = np.random.default_rng(13)
    sents = []
    for n in (1, 12, 2, 7, 4, 5):
        head, tail = (int(p) for p in rng.integers(0, n, size=2))
        sents.append(SentenceExample(tuple(int(t) for t in rng.integers(0, 9, size=n)),
                                     head, tail, head_id=0, tail_id=1))
    pack = pack_bags([Bag(tuple(sents[:4]), 0), Bag(tuple(sents[4:]), 1)])
    ids = [(tok, s.tokens[s.head_pos], s.tokens[s.tail_pos]) for s in sents for tok in s.tokens]
    w = Tensor(rng.standard_normal((12, len(ids))))

    def view_and_word_grad(view):
        clear_tape()
        tables.word.grad = tables.word.rows = None
        x = view()
        nm.backward(nm.sum_all(nm.mul(nm.tanh(x), w)))
        return x.data, tables.word.grad

    got, got_grad = view_and_word_grad(lambda: views(pack, tables)[1])
    assert tables.word.rows.size == len(ids) + 2 * len(sents)
    want, want_grad = view_and_word_grad(lambda: nm.embedding_lookup(tables.word, ids))
    assert np.array_equal(got, want)
    assert np.max(np.abs(got_grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


def test_positional_view_layout():
    tables = make_tables()
    out = views(pack_of(SENT), tables)[0]
    assert out.shape == (4 + 3 + 3, 5)
    assert np.array_equal(out.data[:4, 0], tables.word.data[2])
    # Head-offset rows at the head position hold the distance-zero vector.
    assert np.array_equal(out.data[4:7, 1], tables.position.data[5])
    assert np.array_equal(out.data[7:10, 3], tables.position.data[5])
    assert np.array_equal(out.data[4:7, 0], tables.position.data[4])


def test_entity_view_tiles_surfaces():
    tables = make_tables()
    out = views(pack_of(SENT), tables)[1]
    assert out.shape == (12, 5)
    for col in range(5):
        assert np.array_equal(out.data[4:8, col], tables.word.data[5])   # head surface
        assert np.array_equal(out.data[8:12, col], tables.word.data[7])  # tail surface
    assert np.array_equal(out.data[:4, 2], tables.word.data[3])


def test_default_scale_row_counts():
    tables = make_tables(vocab=20, d_w=50, d_r=5, clip=30)
    assert views(pack_of(SENT), tables)[0].shape == (60, 5)
    assert views(pack_of(SENT), tables)[1].shape == (150, 5)
    one = SentenceExample(tokens=(2,), head_pos=0, tail_pos=0, head_id=0, tail_id=0)
    assert views(pack_of(one), tables)[0].shape == (60, 1)


def test_equidistant_tokens_share_position_components():
    # Positions 0 and 2 sit at offsets (-1, -3) and (+1, -1): not equal. Use
    # head=2, tail=2 symmetry instead: offsets from both entities coincide
    # for every token, so rows d_w.. are duplicated blocks.
    sent = SentenceExample(tokens=(2, 5, 3, 7, 2), head_pos=2, tail_pos=2, head_id=0, tail_id=1)
    tables = make_tables()
    out = views(pack_of(sent), tables)[0]
    assert np.array_equal(out.data[4:7], out.data[7:10])


def test_swapping_entities_permutes_blocks():
    tables = make_tables()
    fwd = views(pack_of(SENT), tables)[1]
    swapped = SentenceExample(tokens=SENT.tokens, head_pos=SENT.tail_pos,
                              tail_pos=SENT.head_pos, head_id=SENT.tail_id,
                              tail_id=SENT.head_id)
    back = views(pack_of(swapped), tables)[1]
    assert np.array_equal(fwd.data[4:8], back.data[8:12])
    assert np.array_equal(fwd.data[8:12], back.data[4:8])
    assert np.array_equal(fwd.data[:4], back.data[:4])


def test_hand_computed_single_token_mix():
    # d_w=2, d_r=1, one token that is both entities: every stage checked
    # against plain-number arithmetic.
    word = np.array([[0.0, 0.0], [0.0, 0.0], [0.3, -0.2]])
    position = np.array([[0.5], [0.1], [-0.4]])
    tables = EmbeddingTables(Tensor(word, requires_grad=True),
                             Tensor(position, requires_grad=True), pos_clip=1)
    sent = SentenceExample(tokens=(2,), head_pos=0, tail_pos=0, head_id=0, tail_id=0)
    x_pos, x_ent = views(pack_of(sent), tables)
    assert np.allclose(x_pos.data[:, 0], [0.3, -0.2, 0.1, 0.1])  # zero-offset bucket 1
    assert np.allclose(x_ent.data[:, 0], [0.3, -0.2, 0.3, -0.2, 0.3, -0.2])

    w_g = np.arange(36).reshape(6, 6) / 36.0
    b_g = np.full(6, 0.05)
    w_p = np.arange(24).reshape(6, 4) / 24.0 - 0.3
    b_p = np.full(6, -0.1)
    gate = EntityAwareGateParams(
        Tensor(w_g, requires_grad=True), Tensor(b_g, requires_grad=True),
        Tensor(w_p, requires_grad=True), Tensor(b_p, requires_grad=True),
        gate_smoothing=2.0,
    )
    out = entity_aware_embed(x_pos, x_ent, gate)
    e = x_ent.data[:, 0]
    p = x_pos.data[:, 0]
    alpha = 1.0 / (1.0 + np.exp(-2.0 * (w_g @ e + b_g)))
    proj = np.tanh(w_p @ p + b_p)
    assert np.allclose(out.data[:, 0], alpha * e + (1 - alpha) * proj, atol=1e-12)


def test_gate_zero_smoothing_gives_even_mix():
    tables = make_tables()
    x_pos, x_ent = views(pack_of(SENT), tables)
    gate = make_gate(12, 12, 10, smoothing=0.0)
    out = entity_aware_embed(x_pos, x_ent, gate)
    projected = np.tanh(gate.w_proj.data @ x_pos.data + gate.b_proj.data[:, None])
    assert np.allclose(out.data, 0.5 * x_ent.data + 0.5 * projected, atol=1e-12)


def test_mix_is_elementwise_convex_combination():
    tables = make_tables(seed=3)
    x_pos, x_ent = views(pack_of(SENT), tables)
    gate = make_gate(12, 12, 10, seed=4)
    out = entity_aware_embed(x_pos, x_ent, gate)
    projected = np.tanh(gate.w_proj.data @ x_pos.data + gate.b_proj.data[:, None])
    lo = np.minimum(x_ent.data, projected)
    hi = np.maximum(x_ent.data, projected)
    assert (out.data >= lo - 1e-12).all() and (out.data <= hi + 1e-12).all()


def test_large_smoothing_saturates_to_entity_view():
    tables = make_tables(seed=5)
    x_pos, x_ent = views(pack_of(SENT), tables)
    gate = make_gate(12, 12, 10, smoothing=1e4, seed=6)
    out = entity_aware_embed(x_pos, x_ent, gate)
    pre = gate.w_gate.data @ x_ent.data + gate.b_gate.data[:, None]
    projected = np.tanh(gate.w_proj.data @ x_pos.data + gate.b_proj.data[:, None])
    want = np.where(pre > 0, x_ent.data, projected)
    assert np.allclose(out.data, want, atol=1e-9)


def test_gate_shape_mismatch_raises():
    tables = make_tables()
    x_pos, x_ent = views(pack_of(SENT), tables)
    with pytest.raises(ShapeError):
        entity_aware_embed(x_pos, x_ent, make_gate(12, 11, 10))


def test_pretrained_loader(tmp_path):
    from seg.embedding import load_pretrained_words

    p = tmp_path / "vecs.txt"
    p.write_text("alpha 0.1 0.2 0.3\nmissing 1 2 3\nbeta -1.0 0.0 2.5\n")
    vocab = {"<unk>": 0, "<pad>": 1, "alpha": 2, "beta": 3, "gamma": 4}
    vectors, found = load_pretrained_words(p, vocab, 3)
    assert found.tolist() == [False, False, True, True, False]
    assert np.allclose(vectors[2], [0.1, 0.2, 0.3])
    assert np.allclose(vectors[3], [-1.0, 0.0, 2.5])


def test_pretrained_loader_wrong_width(tmp_path):
    from seg.data import DataError
    from seg.embedding import load_pretrained_words

    p = tmp_path / "vecs.txt"
    p.write_text("alpha 0.1 0.2\n")
    with pytest.raises(DataError, match="expected 3"):
        load_pretrained_words(p, {"alpha": 0}, 3)


def test_embedding_pipeline_fd():
    tables = make_tables(seed=7)
    gate = make_gate(12, 12, 10, seed=8)
    rng = np.random.default_rng(9)
    w = Tensor(rng.standard_normal((12, 5)))

    def build():
        x_pos, x_ent = views(pack_of(SENT), tables)
        out = entity_aware_embed(x_pos, x_ent, gate)
        return nm.sum_all(nm.mul(out, w))

    params = [("word", tables.word), ("position", tables.position),
              ("w_gate", gate.w_gate), ("b_gate", gate.b_gate),
              ("w_proj", gate.w_proj), ("b_proj", gate.b_proj)]
    report = grad_check(build, params, eps=1e-5, tol=1e-6)
    assert report.passed, report.format()

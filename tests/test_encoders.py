"""Sentence encoders: piecewise-pooled convolution and column attention."""

import numpy as np
import pytest

import seg.numerics as nm
from seg.encoders import (
    PcnnParams,
    SelfAttnParams,
    attention_weights,
    pcnn_encode,
    self_attn_encode,
    stacked_encode,
)
from seg.numerics import Tensor, clear_tape, grad_check


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


def make_pcnn(d_c, width, d_in, seed=0):
    rng = np.random.default_rng(seed)
    return PcnnParams(
        kernel=Tensor(rng.standard_normal((d_c, width, d_in)) * 0.3, requires_grad=True),
        bias=Tensor(rng.standard_normal(d_c) * 0.3, requires_grad=True),
    )


def make_attn(d, seed=1):
    rng = np.random.default_rng(seed)
    return SelfAttnParams(
        w_hidden=Tensor(rng.standard_normal((d, d)) * 0.4, requires_grad=True),
        b_hidden=Tensor(rng.standard_normal(d) * 0.4, requires_grad=True),
        w_score=Tensor(rng.standard_normal((d, d)) * 0.4, requires_grad=True),
    )


def pcnn_one(x, head, tail, params):
    """One sentence through the packed encoder, as a (3*d_c,) vector."""
    out = pcnn_encode(x, [(head, tail)], [x.shape[1]], params)
    return nm.reshape(out, (out.size,))


def stacked_one(x, head, tail, pcnn, attn):
    out, _ = stacked_encode(x, [(head, tail)], [x.shape[1]], pcnn, attn)
    return nm.reshape(out, (out.size,))


def rand_x(d, n, seed=2):
    return Tensor(np.random.default_rng(seed).standard_normal((d, n)), requires_grad=True)


def test_pcnn_output_length():
    x = rand_x(5, 9)
    out = pcnn_one(x, 2, 6, make_pcnn(4, 3, 5))
    assert out.shape == (12,)
    assert (np.abs(out.data) < 1.0).all()  # squashed by tanh


def test_pcnn_segment_major_layout():
    # One channel, identity-ish kernel: the three flat entries are the
    # per-segment maxima of the conv map, in segment order.
    x = Tensor(np.array([[0.1, 0.9, 0.2, 0.7, 0.3]]))
    pcnn = PcnnParams(kernel=Tensor(np.ones((1, 1, 1))), bias=Tensor(np.zeros(1)))
    out = pcnn_one(x, 1, 3, pcnn)
    assert np.allclose(out.data, np.tanh([0.9, 0.7, 0.3]))


def test_pcnn_multichannel_segment_major():
    x = Tensor(np.array([[1.0, 5.0, 2.0], [3.0, 1.0, 4.0]]))
    kernel = Tensor(np.eye(2).reshape(2, 1, 2))
    pcnn = PcnnParams(kernel=kernel, bias=Tensor(np.zeros(2)))
    out = pcnn_one(x, 0, 1, pcnn)
    # Segments: [0..0], [1..1], [2..2]; layout is all channels of segment 1,
    # then segment 2, then segment 3.
    assert np.allclose(out.data, np.tanh([1.0, 3.0, 5.0, 1.0, 2.0, 4.0]))


def test_pcnn_entity_order_is_normalized():
    x = rand_x(4, 8, seed=3)
    pcnn = make_pcnn(3, 3, 4, seed=4)
    a = pcnn_one(x, 2, 5, pcnn)
    b = pcnn_one(x, 5, 2, pcnn)
    assert np.array_equal(a.data, b.data)


def test_pcnn_adjacent_tail_at_end_zeroes_third_segment():
    x = rand_x(4, 6, seed=5)
    pcnn = make_pcnn(3, 3, 4, seed=6)
    out = pcnn_one(x, 2, 5, pcnn)
    assert np.array_equal(out.data[6:9], np.tanh(np.zeros(3)))


def test_pcnn_default_scale_output_length():
    x = rand_x(6, 5)
    out = pcnn_one(x, 1, 3, make_pcnn(230, 3, 6))
    assert out.shape == (690,)


def test_attention_rows_sum_to_one():
    x = rand_x(5, 7, seed=7)
    p = attention_weights(x, make_attn(5, seed=8))
    assert p.shape == (5, 7)
    assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-9)
    assert (p.data > 0).all()


def test_self_attn_single_column_is_identity():
    x = rand_x(5, 1, seed=9)
    out = self_attn_encode(x, make_attn(5, seed=10))
    assert np.allclose(out.data, x.data[:, 0], atol=1e-12)


def test_self_attn_matches_manual_computation():
    x = rand_x(4, 6, seed=11)
    attn = make_attn(4, seed=12)
    out = self_attn_encode(x, attn)
    hidden = np.maximum(attn.w_hidden.data @ x.data + attn.b_hidden.data[:, None], 0.0)
    scores = attn.w_score.data @ hidden
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(out.data, (p * x.data).sum(axis=1), atol=1e-12)


def test_constant_scores_give_uniform_attention_and_mean():
    x = rand_x(4, 6, seed=23)
    rng = np.random.default_rng(24)
    attn = SelfAttnParams(
        w_hidden=Tensor(rng.standard_normal((4, 4))),
        b_hidden=Tensor(rng.standard_normal(4)),
        w_score=Tensor(np.zeros((4, 4))),
    )
    p = attention_weights(x, attn)
    assert np.allclose(p.data, 1.0 / 6.0, atol=1e-12)
    u = self_attn_encode(x, attn)
    assert np.allclose(u.data, x.data.mean(axis=1), atol=1e-12)


def test_attention_output_in_columnwise_convex_hull():
    x = rand_x(5, 8, seed=25)
    u = self_attn_encode(x, make_attn(5, seed=26))
    lo, hi = x.data.min(axis=1), x.data.max(axis=1)
    assert (u.data >= lo - 1e-12).all() and (u.data <= hi + 1e-12).all()


def test_stacked_uniform_attention_scales_columns():
    x = rand_x(4, 5, seed=27)
    pcnn = make_pcnn(3, 3, 4, seed=28)
    attn = SelfAttnParams(
        w_hidden=Tensor(np.zeros((4, 4))),
        b_hidden=Tensor(np.zeros(4)),
        w_score=Tensor(np.zeros((4, 4))),
    )
    stacked = stacked_one(x, 1, 3, pcnn, attn)
    scaled = pcnn_one(Tensor(x.data / 5.0), 1, 3, pcnn)
    assert np.allclose(stacked.data, scaled.data, atol=1e-12)
    plain = pcnn_one(x, 1, 3, pcnn)
    assert not np.allclose(stacked.data, plain.data)


def test_stacked_single_column_reduces_to_plain_pcnn():
    # With n=1 every attention row is the singleton softmax, so reweighting
    # is the identity.
    x = Tensor(np.random.default_rng(13).standard_normal((4, 1)), requires_grad=True)
    pcnn = make_pcnn(3, 3, 4, seed=14)
    attn = make_attn(4, seed=15)
    a = stacked_one(x, 0, 0, pcnn, attn)
    b = pcnn_one(x, 0, 0, pcnn)
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_stacked_output_shape():
    x = rand_x(4, 9, seed=16)
    out = stacked_one(x, 1, 6, make_pcnn(5, 3, 4, seed=17), make_attn(4, seed=18))
    assert out.shape == (15,)


def test_encoders_fd():
    x = rand_x(4, 7, seed=19)
    pcnn = make_pcnn(3, 3, 4, seed=20)
    attn = make_attn(4, seed=21)
    rng = np.random.default_rng(22)
    w_s = Tensor(rng.standard_normal(9))
    w_u = Tensor(rng.standard_normal(4))
    w_t = Tensor(rng.standard_normal(9))

    def build():
        s = pcnn_one(x, 2, 4, pcnn)
        u = self_attn_encode(x, attn)
        t = stacked_one(x, 2, 4, pcnn, attn)
        total = nm.add(nm.sum_all(nm.mul(s, w_s)), nm.sum_all(nm.mul(u, w_u)))
        return nm.add(total, nm.sum_all(nm.mul(t, w_t)))

    params = [("x", x), ("kernel", pcnn.kernel), ("bias", pcnn.bias),
              ("w_hidden", attn.w_hidden), ("b_hidden", attn.b_hidden),
              ("w_score", attn.w_score)]
    report = grad_check(build, params, eps=1e-5, tol=1e-4)
    assert report.passed, report.format()


def test_packed_encoders_equal_per_sentence_encoders():
    lens, ents = [3, 1, 8, 5], [(2, 0), (0, 0), (1, 6), (4, 4)]
    x = rand_x(4, sum(lens), seed=30)
    pcnn, attn = make_pcnn(3, 5, 4, seed=31), make_attn(4, seed=32)
    feats = pcnn_encode(x, ents, lens, pcnn).data
    summaries = self_attn_encode(x, attn, lens).data
    stacked, stacked_u = stacked_encode(x, ents, lens, pcnn, attn)
    assert feats.shape == (9, 4) and summaries.shape == (4, 4)
    lo = 0
    for i, ((h, t), n) in enumerate(zip(ents, lens)):
        one = Tensor(x.data[:, lo:lo + n])
        assert np.allclose(feats[:, i], pcnn_one(one, h, t, pcnn).data, rtol=1e-13, atol=1e-15)
        assert np.allclose(summaries[:, i], self_attn_encode(one, attn).data,
                           rtol=1e-13, atol=1e-15)
        assert np.allclose(stacked.data[:, i], stacked_one(one, h, t, pcnn, attn).data,
                           rtol=1e-13, atol=1e-15)
        assert np.allclose(stacked_u.data[:, i], summaries[:, i], rtol=1e-13, atol=1e-15)
        lo += n


def test_packed_encoders_fd():
    lens, ents = [3, 1, 4], [(0, 2), (0, 0), (3, 1)]
    x = rand_x(4, sum(lens), seed=33)
    pcnn, attn = make_pcnn(3, 3, 4, seed=34), make_attn(4, seed=35)
    rng = np.random.default_rng(36)
    w_s, w_u, w_t = (Tensor(rng.standard_normal(shape)) for shape in ((9, 3), (4, 3), (9, 3)))

    def build():
        s = pcnn_encode(x, ents, lens, pcnn)
        u = self_attn_encode(x, attn, lens)
        t, _ = stacked_encode(x, ents, lens, pcnn, attn)
        total = nm.add(nm.sum_all(nm.mul(s, w_s)), nm.sum_all(nm.mul(u, w_u)))
        return nm.add(total, nm.sum_all(nm.mul(t, w_t)))

    params = [("x", x), ("kernel", pcnn.kernel), ("bias", pcnn.bias),
              ("w_hidden", attn.w_hidden), ("b_hidden", attn.b_hidden),
              ("w_score", attn.w_score)]
    report = grad_check(build, params, eps=1e-5, tol=1e-4)
    assert report.passed, report.format()

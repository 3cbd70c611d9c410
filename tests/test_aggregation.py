"""Bag aggregators: gate, attention baseline, and their ablation forms."""

import numpy as np
import pytest

import seg.numerics as nm
from seg.aggregation import (
    SelectiveAttnParams,
    SelectiveGateParams,
    concat_aggregate,
    gate_aggregate,
    gate_plus_attention_aggregate,
    gate_values,
    gated_vectors,
    mean_vectors,
    selective_attention_aggregate,
)
from seg.errors import ShapeError, ValidationError
from seg.numerics import Tensor, backward, clear_tape


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


def vecs(shapes_seed, m, d, scale=1.0):
    rng = np.random.default_rng(shapes_seed)
    return [Tensor(rng.standard_normal(d) * scale, requires_grad=True) for _ in range(m)]


def make_gate_params(d_u, gate_dim, seed=0, zero_bias=False):
    rng = np.random.default_rng(seed)
    b = np.zeros if zero_bias else rng.standard_normal
    return SelectiveGateParams(
        w_hidden=Tensor(rng.standard_normal((d_u, d_u)), requires_grad=True),
        b_hidden=Tensor(np.zeros(d_u) if zero_bias else rng.standard_normal(d_u),
                        requires_grad=True),
        w_out=Tensor(rng.standard_normal((gate_dim, d_u)), requires_grad=True),
        b_out=Tensor(np.zeros(gate_dim) if zero_bias else rng.standard_normal(gate_dim),
                     requires_grad=True),
    )


def packed(vectors):
    """Vectors as the columns of one (d, m) matrix; gradients flow back to each."""
    return nm.concat([nm.reshape(v, (v.size, 1)) for v in vectors], axis=1)


def make_attn_params(num_relations, d, seed=1):
    rng = np.random.default_rng(seed)
    return SelectiveAttnParams(
        queries=Tensor(rng.standard_normal((num_relations, d)), requires_grad=True),
        bilinear=Tensor(rng.standard_normal((d, d)), requires_grad=True),
    )


# -- gate values ---------------------------------------------------------------


def test_gate_values_zero_input_zero_bias():
    params = make_gate_params(3, 4, zero_bias=True)
    gates = gate_values([Tensor(np.zeros(3))], params)
    assert np.allclose(gates[0].data, 0.5)


def test_gate_values_in_unit_interval():
    params = make_gate_params(3, 4, seed=2)
    for u in vecs(3, 5, 3, scale=10.0):
        g = gate_values([u], params)[0]
        assert ((g.data > 0) & (g.data < 1)).all()


def test_gate_values_hand_oracle():
    w_hidden = np.array([[0.5, -1.0], [0.25, 0.75]])
    b_hidden = np.array([0.1, -0.2])
    w_out = np.array([[1.5, -0.5]])
    b_out = np.array([0.3])
    params = SelectiveGateParams(Tensor(w_hidden), Tensor(b_hidden),
                                 Tensor(w_out), Tensor(b_out))
    u = np.array([0.8, -0.4])
    g = gate_values([Tensor(u)], params)[0]
    hidden = np.maximum(w_hidden @ u + b_hidden, 0.0)
    want = 1.0 / (1.0 + np.exp(-(w_out @ hidden + b_out)))
    assert np.allclose(g.data, want, atol=1e-12)


# -- gate aggregate --------------------------------------------------------------


def test_gate_aggregate_singleton():
    s, = vecs(4, 1, 5)
    g = Tensor(np.random.default_rng(5).uniform(0.1, 0.9, 5))
    out = gate_aggregate([s], [g])
    assert np.allclose(out.data, g.data * s.data, atol=1e-12)


def test_gate_aggregate_open_gate_is_mean():
    ss = vecs(6, 3, 4)
    ones = [Tensor(np.ones(4)) for _ in ss]
    out = gate_aggregate(ss, ones)
    want = np.mean([s.data for s in ss], axis=0)
    assert np.allclose(out.data, want, atol=1e-12)


def test_gate_aggregate_hand_m2():
    s1, s2 = Tensor(np.array([1.0, -2.0])), Tensor(np.array([3.0, 0.5]))
    g1, g2 = Tensor(np.array([0.5, 0.25])), Tensor(np.array([0.1, 0.9]))
    out = gate_aggregate([s1, s2], [g1, g2])
    assert np.allclose(out.data, 0.5 * (np.array([0.5, -0.5]) + np.array([0.3, 0.45])))


def test_gate_aggregate_empty_rejected():
    with pytest.raises(ValidationError):
        gate_aggregate([], [])


def test_scalar_gate_uses_mean_multiplier():
    s, = vecs(7, 1, 4)
    g = Tensor(np.array([0.2, 0.4, 0.6, 0.8]))
    out = gate_aggregate([s], [g], scalar_gate=True)
    assert np.allclose(out.data, 0.5 * s.data, atol=1e-12)


def test_gate_singleton_jacobian_is_diag_gate():
    # d(c)/d(s_1) at m=1 must be exactly diag(g_1): probe each output entry.
    d = 4
    g_np = np.random.default_rng(8).uniform(0.1, 0.9, d)
    for k in range(d):
        clear_tape()
        s = Tensor(np.random.default_rng(9).standard_normal(d), requires_grad=True)
        out = gate_aggregate([s], [Tensor(g_np)])
        backward(nm.select_index(out, k))
        want = np.zeros(d)
        want[k] = g_np[k]
        assert np.allclose(s.grad, want, atol=1e-12)


# -- selective attention -----------------------------------------------------------


def test_attention_singleton_returns_vector_verbatim():
    s, = vecs(10, 1, 6)
    params = make_attn_params(4, 6)
    out = selective_attention_aggregate([s], 2, params)
    assert np.array_equal(out.data, s.data)


def test_attention_singleton_has_zero_parameter_gradient():
    s, = vecs(11, 1, 6)
    params = make_attn_params(4, 6, seed=12)
    out = selective_attention_aggregate([s], 1, params)
    backward(nm.sum_all(out))
    assert params.queries.grad is not None and not params.queries.grad.any()
    assert params.bilinear.grad is not None and not params.bilinear.grad.any()


def test_attention_identical_vectors_uniform_weights():
    base = np.random.default_rng(13).standard_normal(5)
    ss = [Tensor(base.copy()) for _ in range(4)]
    params = make_attn_params(3, 5, seed=14)
    out = selective_attention_aggregate(ss, 0, params)
    assert np.allclose(out.data, base, atol=1e-12)


def test_attention_weights_match_hand_softmax():
    ss = vecs(15, 3, 4)
    params = make_attn_params(5, 4, seed=16)
    q = params.queries.data[3]
    target = params.bilinear.data @ q
    scores = np.array([s.data @ target for s in ss])
    e = np.exp(scores - scores.max())
    w = e / e.sum()
    want = sum(wj * s.data for wj, s in zip(w, ss))
    out = selective_attention_aggregate(ss, 3, params)
    assert np.allclose(out.data, want, atol=1e-12)


def test_attention_all_relations_columns_match_single_queries():
    # The packed form attends bag b with relation[b]: R copies of one bag,
    # copy r attending with r, give column r equal to the single-query form.
    params = make_attn_params(5, 4, seed=18)
    for m in (1, 2, 4):
        ss = vecs(17 + m, m, 4)
        out = selective_attention_aggregate(packed(ss * 5), range(5), params, sizes=[m] * 5)
        assert out.shape == (4, 5)
        for r in range(5):
            one = selective_attention_aggregate(ss, r, params).data
            assert np.allclose(out.data[:, r], one, rtol=1e-12, atol=1e-14)
    s, = vecs(40, 1, 4)
    out = selective_attention_aggregate(packed([s] * 5), range(5), params, sizes=[1] * 5)
    assert np.array_equal(out.data, np.repeat(s.data[:, None], 5, axis=1))


def test_attention_all_relations_gradient_matches_single_queries():
    ss = vecs(41, 3, 4)
    params = make_attn_params(3, 4, seed=42)
    out = selective_attention_aggregate(packed(ss * 3), [0, 1, 2], params, sizes=[3, 3, 3])
    backward(nm.sum_all(out))
    joint = [params.queries.grad.copy(), params.bilinear.grad.copy()]
    joint += [s.grad.copy() for s in ss]
    clear_tape()
    for t in [params.queries, params.bilinear] + ss:
        t.grad = None
    total = None
    for r in range(3):
        out = nm.sum_all(selective_attention_aggregate(ss, r, params))
        total = out if total is None else nm.add(total, out)
    backward(total)
    single = [params.queries.grad, params.bilinear.grad] + [s.grad for s in ss]
    for a, b in zip(joint, single):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


# -- concat aggregate ---------------------------------------------------------------


def test_concat_singleton():
    s, = vecs(19, 1, 3)
    u, = vecs(20, 1, 2)
    out = concat_aggregate(packed([s]), packed([u]), [1])
    assert np.allclose(out.data[:, 0], np.concatenate([s.data, u.data]))


def test_concat_length_and_hand_mean():
    ss, us = vecs(21, 2, 3), vecs(22, 2, 2)
    out = concat_aggregate(packed(ss), packed(us), [2])
    assert out.shape == (5, 1)
    want = 0.5 * (np.concatenate([ss[0].data, us[0].data])
                  + np.concatenate([ss[1].data, us[1].data]))
    assert np.allclose(out.data[:, 0], want, atol=1e-12)


# -- gate + attention --------------------------------------------------------------


def test_gated_vectors_forms():
    ss = vecs(43, 2, 3)
    gs = [Tensor(np.random.default_rng(44 + i).uniform(0.2, 0.8, 3)) for i in range(2)]
    full = gated_vectors(packed(ss), packed(gs))
    for j, (g, s) in enumerate(zip(gs, ss)):
        assert np.array_equal(full.data[:, j], g.data * s.data)
    scalar = gated_vectors(packed(ss), packed(gs), scalar_gate=True)
    for j, (g, s) in enumerate(zip(gs, ss)):
        assert np.array_equal(scalar.data[:, j], np.sum(g.data) * (1.0 / g.size) * s.data)
    with pytest.raises(ShapeError, match="2 vectors but 1 gates"):
        gate_aggregate(ss, gs[:1])
    with pytest.raises(ShapeError, match="does not match"):
        gated_vectors(packed(ss), packed([Tensor(np.ones(2))] * 2))


def test_gate_plus_attention_singleton_forms():
    s, = vecs(23, 1, 4)
    g = Tensor(np.random.default_rng(24).uniform(0.2, 0.8, 4))
    params = make_attn_params(3, 4, seed=25)
    gated = gate_plus_attention_aggregate(packed([s]), packed([g]), [0], params, [1])
    assert np.allclose(gated.data[:, 0], g.data * s.data, atol=1e-12)


def test_gate_plus_attention_uniform_scores_reduce_to_gate_aggregate():
    ss = vecs(26, 3, 4)
    gs = [Tensor(np.random.default_rng(27 + i).uniform(0.2, 0.8, 4)) for i in range(3)]
    params = make_attn_params(3, 4, seed=28)
    params.bilinear.data[...] = 0.0  # all scores zero -> uniform softmax
    want = gate_aggregate(ss, gs)
    out = gate_plus_attention_aggregate(packed(ss), packed(gs), [1], params, [3])
    assert np.allclose(out.data[:, 0], want.data, atol=1e-12)
    composed = selective_attention_aggregate(gated_vectors(packed(ss), packed(gs)), [1], params,
                                             sizes=[3])
    assert np.array_equal(out.data, composed.data)
    every = gate_plus_attention_aggregate(packed(ss * 3), packed(gs * 3), [0, 1, 2], params,
                                          [3, 3, 3])
    assert np.allclose(every.data, np.repeat(want.data[:, None], 3, axis=1), atol=1e-12)


def test_gate_plus_attention_composed_oracle_m2():
    ss = vecs(29, 2, 3)
    gs = [Tensor(np.random.default_rng(30 + i).uniform(0.2, 0.8, 3)) for i in range(2)]
    params = make_attn_params(4, 3, seed=31)
    gated = [g.data * s.data for g, s in zip(gs, ss)]
    every = gate_plus_attention_aggregate(packed(ss * 4), packed(gs * 4), range(4), params,
                                          [2] * 4)
    for r in range(4):
        target = params.bilinear.data @ params.queries.data[r]
        scores = np.array([v @ target for v in gated])
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        want = w[0] * gated[0] + w[1] * gated[1]
        assert np.allclose(every.data[:, r], want, atol=1e-12)


# -- shared properties ---------------------------------------------------------------


def test_all_aggregators_permutation_equivariant():
    rng = np.random.default_rng(32)
    m, d = 4, 5
    ss = [Tensor(rng.standard_normal(d)) for _ in range(m)]
    us = [Tensor(rng.standard_normal(d)) for _ in range(m)]
    gate_p = make_gate_params(d, d, seed=33)
    attn_p = make_attn_params(3, d, seed=34)
    perm = [2, 0, 3, 1]
    ss_p = [ss[i] for i in perm]
    us_p = [us[i] for i in perm]

    gs = gate_values(us, gate_p)
    gs_p = gate_values(us_p, gate_p)
    g, g_p = gate_values(packed(us), gate_p), gate_values(packed(us_p), gate_p)
    cases = [
        (mean_vectors(packed(ss), [m]), mean_vectors(packed(ss_p), [m])),
        (gate_aggregate(ss, gs), gate_aggregate(ss_p, gs_p)),
        (gate_aggregate(packed(ss), g, sizes=[m]), gate_aggregate(packed(ss_p), g_p, sizes=[m])),
        (concat_aggregate(packed(ss), packed(us), [m]),
         concat_aggregate(packed(ss_p), packed(us_p), [m])),
        (selective_attention_aggregate(ss, 1, attn_p),
         selective_attention_aggregate(ss_p, 1, attn_p)),
        (selective_attention_aggregate(packed(ss), [1], attn_p, sizes=[m]),
         selective_attention_aggregate(packed(ss_p), [1], attn_p, sizes=[m])),
        (gate_plus_attention_aggregate(packed(ss), g, [1], attn_p, [m]),
         gate_plus_attention_aggregate(packed(ss_p), g_p, [1], attn_p, [m])),
    ]
    for a, b in cases:
        assert np.allclose(a.data, b.data, atol=1e-12)


def test_attention_weights_sum_to_one_property():
    rng = np.random.default_rng(35)
    params = make_attn_params(4, 3, seed=36)
    for trial in range(50):
        clear_tape()
        m = int(rng.integers(1, 6))
        ss = [Tensor(rng.standard_normal(3), requires_grad=True) for _ in range(m)]
        out = selective_attention_aggregate(ss, int(rng.integers(0, 4)), params)
        # Sum of gradients of sum(out) w.r.t. each s equals the weight times
        # ones; total across sentences must then be exactly one per entry.
        backward(nm.sum_all(out))
        total = sum(s.grad for s in ss)
        assert np.allclose(total, np.ones(3), atol=1e-9)

"""Autodiff core: hand oracles, finite differences, planted faults."""

import numpy as np
import pytest

import seg.numerics as nm
from seg.errors import InternalError, ShapeError, ValidationError
from seg.numerics import Tensor, backward, clear_tape, grad_check, no_grad


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


def fd_check(build, params, tol=1e-6, eps=1e-5):
    """Assert analytic gradients of build() match central differences."""
    report = grad_check(build, params, eps=eps, tol=tol)
    worst = max(e.max_rel_err for e in report.entries)
    assert report.passed, f"worst rel err {worst:.3e} over {report.format()}"


def rand(shape, seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# -- matmul -----------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(nm.matmul(a, b).data, b.data)


def test_matmul_unit_selection():
    a = Tensor(np.array([[1.0, 0.0]]))
    b = Tensor(np.array([[2.0], [5.0]]))
    assert nm.matmul(a, b).data.tolist() == [[2.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"3, 4.*5, 2"):
        nm.matmul(rand((3, 4), 0), rand((5, 2), 1))


def test_matmul_fd_3x4_by_4x2():
    a, b = rand((3, 4), 10), rand((4, 2), 11)
    fd_check(lambda: nm.sum_all(nm.tanh(nm.matmul(a, b))), [("a", a), ("b", b)])


def test_matmul_matrix_vector_fd():
    a, v = rand((4, 3), 12), rand((3,), 13)
    fd_check(lambda: nm.sum_all(nm.sigmoid(nm.matmul(a, v))), [("a", a), ("v", v)])


# -- conv1d -----------------------------------------------------------------


def test_conv1d_identity_kernel():
    x = rand((3, 6), 20)
    kernel = Tensor(np.eye(3).reshape(3, 1, 3))
    bias = Tensor(np.zeros(3))
    out = nm.conv1d(x, kernel, bias)
    assert np.allclose(out.data, x.data)


def test_conv1d_hand_example():
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    kernel = Tensor(np.ones((1, 3, 1)))
    bias = Tensor(np.zeros(1))
    out = nm.conv1d(x, kernel, bias)
    assert out.data.tolist() == [[3.0, 6.0, 5.0]]


def test_conv1d_even_window_rejected():
    x = rand((2, 5), 21)
    with pytest.raises(ValidationError, match="odd"):
        nm.conv1d(x, rand((3, 2, 2), 22), rand((3,), 23))


def test_conv1d_fd_2x5():
    x, k, b = rand((2, 5), 24), rand((3, 3, 2), 25), rand((3,), 26)
    fd_check(lambda: nm.sum_all(nm.tanh(nm.conv1d(x, k, b))),
             [("x", x), ("k", k), ("b", b)])


def test_conv1d_window_wider_than_input_fd():
    x, k, b = rand((2, 2), 27), rand((2, 5, 2), 28), rand((2,), 29)
    fd_check(lambda: nm.sum_all(nm.tanh(nm.conv1d(x, k, b))),
             [("x", x), ("k", k), ("b", b)])


# -- softmax ----------------------------------------------------------------


def test_softmax_uniform():
    out = nm.softmax_over_axis(Tensor(np.zeros(4)), axis=0)
    assert np.allclose(out.data, 0.25, atol=1e-12)


def test_softmax_closed_form():
    out = nm.softmax_over_axis(Tensor(np.array([0.0, np.log(3.0)])), axis=0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((3, 5))
    a = nm.softmax_over_axis(Tensor(x), axis=1)
    b = nm.softmax_over_axis(Tensor(x + 1000.0), axis=1)
    assert np.allclose(a.data, b.data, atol=1e-9)


def test_softmax_slices_sum_to_one():
    x = rand((4, 6), 31)
    for axis in (0, 1):
        out = nm.softmax_over_axis(x, axis=axis)
        assert np.allclose(out.data.sum(axis=axis), 1.0, atol=1e-9)
        assert (out.data >= 0).all()


def test_softmax_fd_both_axes():
    for axis in (0, 1):
        clear_tape()
        x = rand((3, 4), 32 + axis)
        w = rand((3, 4), 34 + axis)

        def build():
            p = nm.softmax_over_axis(x, axis=axis)
            return nm.sum_all(nm.mul(p, w))

        fd_check(build, [("x", x)])


# -- elementwise ------------------------------------------------------------


def test_elementwise_unit_values():
    assert nm.sigmoid(Tensor(np.array(0.0))).data == 0.5
    assert nm.tanh(Tensor(np.array(0.0))).data == 0.0
    assert nm.relu(Tensor(np.array(-2.5))).data == 0.0
    assert nm.relu(Tensor(np.array(2.5))).data == 2.5


def test_elementwise_bad_broadcast():
    with pytest.raises(ShapeError):
        nm.add(rand((3, 4), 40), rand((2, 4), 41))


def test_vector_over_sequence_broadcast():
    m, v = rand((3, 5), 42), rand((3,), 43)
    out = nm.add(m, v)
    assert np.allclose(out.data, m.data + v.data[:, None])
    fd_check(lambda: nm.sum_all(nm.sigmoid(nm.mul(m, v))), [("m", m), ("v", v)])


def test_scalar_tensor_broadcast_fd():
    m, s = rand((4, 3), 44), rand((), 45)
    fd_check(lambda: nm.sum_all(nm.tanh(nm.mul(m, s))), [("m", m), ("s", s)])


def test_unary_fd_suite():
    ops = [nm.sigmoid, nm.tanh, lambda t: nm.scale(t, -2.5), lambda t: nm.shift(t, 1.25)]
    for i, op in enumerate(ops):
        clear_tape()
        x = rand((3, 4), 50 + i)
        fd_check(lambda: nm.sum_all(op(x)), [("x", x)])


def test_relu_fd_away_from_kink():
    x = Tensor(np.array([-2.0, -0.5, 0.4, 1.7, 3.0]), requires_grad=True)
    fd_check(lambda: nm.sum_all(nm.relu(x)), [("x", x)])


def test_log_floor_gradient_masked():
    x = Tensor(np.array([0.5, 1e-18]), requires_grad=True)
    out = nm.log(x, floor=1e-12)
    assert np.allclose(out.data, [np.log(0.5), np.log(1e-12)])
    backward(nm.sum_all(out))
    assert x.grad[0] == pytest.approx(2.0)
    assert x.grad[1] == 0.0  # clamped entry is flat


# -- segment max pool --------------------------------------------------------


def test_segment_pool_hand_example():
    h = Tensor(np.array([[1.0, 9.0, 2.0, 3.0, 4.0], [5.0, 1.0, 7.0, 2.0, 6.0]]))
    out = nm.segment_max_pool(h, (1, 3))
    assert out.data.tolist() == [[9.0, 3.0, 4.0], [5.0, 7.0, 6.0]]


def test_segment_pool_empty_third_segment():
    h = rand((3, 4), 60)
    out = nm.segment_max_pool(h, (1, 3))
    assert np.array_equal(out.data[:, 2], np.zeros(3))


def test_segment_pool_tie_routes_to_lowest_index():
    h = Tensor(np.full((2, 6), 3.5), requires_grad=True)
    out = nm.segment_max_pool(h, (2, 4))
    assert np.allclose(out.data, 3.5)
    backward(nm.sum_all(out))
    expected = np.zeros((2, 6))
    expected[:, [0, 3, 5]] = 1.0  # first index of each segment
    assert np.array_equal(h.grad, expected)


def test_segment_pool_matches_bruteforce():
    rng = np.random.default_rng(61)
    for _ in range(400):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 5))
        p2 = int(rng.integers(0, n))
        p1 = int(rng.integers(0, p2 + 1))
        h = rng.standard_normal((d, n))
        out = nm.segment_max_pool(Tensor(h), (p1, p2))
        spans = [(0, p1 + 1), (p1 + 1, p2 + 1), (p2 + 1, n)]
        want = np.zeros((d, 3))
        for j, (lo, hi) in enumerate(spans):
            if hi > lo:
                want[:, j] = h[:, lo:hi].max(axis=1)
        assert np.array_equal(out.data, want)


def test_segment_pool_bad_boundaries():
    with pytest.raises(InternalError):
        nm.segment_max_pool(rand((2, 5), 62), (3, 1))
    with pytest.raises(InternalError):
        nm.segment_max_pool(rand((2, 5), 63), (0, 5))


def test_segment_pool_fd():
    # Distinct values keep argmax stable inside the FD window.
    rng = np.random.default_rng(64)
    h = Tensor(rng.permutation(24).astype(float).reshape(3, 8) / 7.0, requires_grad=True)
    w = rand((3, 3), 65)
    fd_check(lambda: nm.sum_all(nm.mul(nm.segment_max_pool(h, (2, 5)), w)), [("h", h)])


# -- packed runs of columns ---------------------------------------------------


def random_runs(rng, count, lo=1, hi=9):
    return [int(n) for n in rng.integers(lo, hi, size=count)]


def test_packed_conv1d_equals_per_run_convolutions():
    rng = np.random.default_rng(100)
    for _ in range(100):
        lens = random_runs(rng, int(rng.integers(1, 6)))
        d_in, d_out = (int(v) for v in rng.integers(1, 4, size=2))
        m = int(rng.choice([1, 3, 5]))
        x = rng.standard_normal((d_in, sum(lens)))
        k, b = Tensor(rng.standard_normal((d_out, m, d_in))), Tensor(rng.standard_normal(d_out))
        got = nm.conv1d(Tensor(x), k, b, lens).data
        lo = 0
        for n in lens:
            want = nm.conv1d(Tensor(x[:, lo:lo + n]), k, b).data
            assert np.allclose(got[:, lo:lo + n], want, rtol=1e-13, atol=1e-13)
            lo += n


def test_packed_conv_and_pool_do_not_bleed_across_runs():
    # A run's conv and pool outputs are bit-identical whatever its
    # neighbours hold, including runs shorter than the kernel.
    rng = np.random.default_rng(101)
    lens, bounds = [2, 9, 1, 6], [(0, 1), (3, 6), (0, 0), (1, 4)]
    k, b = Tensor(rng.standard_normal((4, 5, 3))), Tensor(rng.standard_normal(4))
    x = rng.standard_normal((3, sum(lens)))

    def outputs(x):
        conv = nm.conv1d(Tensor(x), k, b, lens)
        return conv.data, nm.segment_max_pool(conv, bounds, lens).data

    conv, pool = outputs(x)
    for _ in range(5):
        other = rng.standard_normal(x.shape) * 100.0
        other[:, 2:11] = x[:, 2:11]  # keep run 1, replace its neighbours
        conv2, pool2 = outputs(other)
        assert np.array_equal(conv2[:, 2:11], conv[:, 2:11])
        assert np.array_equal(pool2[:, 3:6], pool[:, 3:6])


def test_packed_conv1d_fd():
    x, k, b = rand((2, 9), 102), rand((3, 3, 2), 103), rand((3,), 104)
    fd_check(lambda: nm.sum_all(nm.tanh(nm.conv1d(x, k, b, [4, 1, 4]))),
             [("x", x), ("k", k), ("b", b)])


def pool_oracle(h, bounds, lens):
    """Per-span numpy max; an empty span is zero."""
    out, lo = [], 0
    for (p1, p2), n in zip(bounds, lens):
        for a, z in ((0, p1 + 1), (p1 + 1, p2 + 1), (p2 + 1, n)):
            out.append(h[:, lo + a:lo + z].max(axis=1) if z > a else np.zeros(h.shape[0]))
        lo += n
    return np.stack(out, axis=1)


def test_packed_pool_matches_per_span_oracle_with_ties_and_empty_segments():
    rng = np.random.default_rng(105)
    for trial in range(300):
        lens = random_runs(rng, int(rng.integers(1, 6)))
        bounds = [tuple(sorted(int(p) for p in rng.integers(0, n, size=2))) for n in lens]
        h = rng.standard_normal((int(rng.integers(1, 5)), sum(lens)))
        if trial % 2:
            h = np.round(h)  # integer grid forces ties
        ht = Tensor(h, requires_grad=True)
        out = nm.segment_max_pool(ht, bounds, lens)
        assert np.array_equal(out.data, pool_oracle(h, bounds, lens))
        clear_tape()
        ht.grad = None
        backward(nm.sum_all(nm.segment_max_pool(ht, bounds, lens)))
        # Each non-empty segment routes one unit per row to its first maximum.
        want, lo = np.zeros_like(h), 0
        for (p1, p2), n in zip(bounds, lens):
            for a, z in ((0, p1 + 1), (p1 + 1, p2 + 1), (p2 + 1, n)):
                if z > a:
                    rows = np.arange(h.shape[0])
                    want[rows, lo + a + h[:, lo + a:lo + z].argmax(axis=1)] += 1.0
            lo += n
        assert np.array_equal(ht.grad, want)


def test_segment_softmax_values_and_fd():
    x, w = rand((3, 8), 106), rand((3, 8), 107)
    lens = [3, 1, 4]
    out = nm.segment_softmax(x, lens).data
    lo = 0
    for n in lens:
        e = np.exp(x.data[:, lo:lo + n] - x.data[:, lo:lo + n].max(axis=1, keepdims=True))
        assert np.allclose(out[:, lo:lo + n], e / e.sum(axis=1, keepdims=True), atol=1e-15)
        lo += n
    clear_tape()
    fd_check(lambda: nm.sum_all(nm.mul(nm.segment_softmax(x, lens), w)), [("x", x)])


def test_segment_sum_values_and_fd():
    x, w = rand((2, 7), 108), rand((2, 3), 109)
    lens = [2, 4, 1]
    want = np.stack([x.data[:, :2].sum(axis=1), x.data[:, 2:6].sum(axis=1), x.data[:, 6]],
                    axis=1)
    assert np.allclose(nm.segment_sum(x, lens).data, want, atol=1e-15)
    clear_tape()
    fd_check(lambda: nm.sum_all(nm.tanh(nm.mul(nm.segment_sum(x, lens), w))), [("x", x)])


def test_run_lengths_must_cover_the_columns():
    for lens in ([2, 2], [5, 0], []):
        with pytest.raises(ShapeError, match="run lengths"):
            nm.segment_sum(rand((2, 5), 110), lens)
    with pytest.raises(ShapeError, match="2-d"):
        nm.segment_softmax(rand((5,), 111), [5])


def test_row_broadcast_fd():
    m, r = rand((3, 4), 111), rand((1, 4), 112)
    assert np.array_equal(nm.mul(r, m).data, r.data * m.data)
    fd_check(lambda: nm.sum_all(nm.sigmoid(nm.mul(r, m))), [("m", m), ("r", r)])


# -- lookup / shaping ops ----------------------------------------------------


def test_embedding_lookup_values_and_grad():
    table = rand((7, 3), 70)
    out = nm.embedding_lookup(table, [4, 0, 4])
    assert out.shape == (3, 3)
    assert np.array_equal(out.data[:, 0], table.data[4])
    backward(nm.sum_all(out))
    assert table.grad[4] == pytest.approx([2.0, 2.0, 2.0])  # repeated id accumulates
    assert table.grad[0] == pytest.approx([1.0, 1.0, 1.0])
    assert np.array_equal(table.grad[1], np.zeros(3))


def test_embedding_lookup_range_validation():
    with pytest.raises(ValidationError, match="id"):
        nm.embedding_lookup(rand((5, 2), 71), [0, 5])


@pytest.mark.parametrize("l2_last", [False, True])
def test_lookups_into_one_table_match_dense_oracle(l2_last):
    # With the L2 term recorded last its pull runs first and allocates the
    # table gradient; recorded first, the lookups' pulls allocate it.
    table = rand((9, 4), 84)
    id_lists = ([3, 0, 3, 3], [8, 3], [0, 0, 5])
    weights = [Tensor(np.random.default_rng(85 + i).standard_normal((4, len(ids))))
               for i, ids in enumerate(id_lists)]
    l2 = None if l2_last else nm.scale(nm.sum_of_squares([table]), 0.3)
    total = l2
    for ids, w in zip(id_lists, weights):
        term = nm.sum_all(nm.mul(nm.embedding_lookup(table, ids), w))
        total = term if total is None else nm.add(total, term)
    if l2_last:
        total = nm.add(total, nm.scale(nm.sum_of_squares([table]), 0.3))
    backward(total)
    oracle = 0.6 * table.data
    for ids, w in zip(id_lists, weights):
        np.add.at(oracle, ids, w.data.T)
    assert np.max(np.abs(table.grad - oracle)) < 1e-12


def test_lookup_rows_collect_the_ids_of_every_lookup():
    table = rand((9, 4), 91)
    w = Tensor(np.random.default_rng(92).standard_normal((4, 3)))
    looked = nm.add(nm.sum_all(nm.embedding_lookup(table, [3, 0, 3])),
                    nm.sum_all(nm.mul(nm.embedding_lookup(table, [[8], [3], [5]]), w)))
    backward(looked)
    assert sorted(table.rows.tolist()) == [0, 3, 3, 3, 5, 8]
    assert not np.delete(table.grad, table.rows, axis=0).any()


@pytest.mark.parametrize("dense_first", [False, True])
def test_dense_contribution_clears_lookup_rows(dense_first):
    # Pulls run in reverse: recorded last, the dense term lands first.
    table, w = rand((9, 4), 93), rand((9, 4), 94)
    terms = [lambda: nm.sum_all(nm.embedding_lookup(table, [1, 7])),
             lambda: nm.sum_all(nm.mul(table, w))]
    first, second = (f() for f in (terms if dense_first else terms[::-1]))
    backward(nm.add(first, second))
    assert table.grad is not None and table.rows is None


def test_sum_of_squares_value_and_fd():
    a, b = rand((3, 4), 87), rand((5,), 88)
    value = nm.sum_of_squares([a, b]).item()
    assert value == pytest.approx(float((a.data ** 2).sum() + (b.data ** 2).sum()), rel=1e-14)
    clear_tape()
    fd_check(lambda: nm.add(nm.sum_of_squares([a, b]), nm.sum_all(nm.tanh(a))),
             [("a", a), ("b", b)])


def test_first_gradient_contribution_is_copied_not_aliased():
    # add's pull hands one array to both operands; if either grad kept it,
    # the later contribution to a would leak into b.
    a, b = rand((2, 3), 89), rand((2, 3), 90)
    u = Tensor(np.random.default_rng(91).standard_normal((2, 3)))
    v = Tensor(np.random.default_rng(92).standard_normal((2, 3)))
    ta = nm.sum_all(nm.tanh(a))
    tb = nm.sum_all(nm.mul(b, v))
    s = nm.sum_all(nm.mul(nm.add(a, b), u))
    backward(nm.add(nm.add(ta, tb), s))
    assert np.allclose(a.grad, u.data + 1.0 - np.tanh(a.data) ** 2, rtol=0, atol=1e-15)
    assert np.allclose(b.grad, u.data + v.data, rtol=0, atol=1e-15)


def test_shaping_ops_fd():
    x = rand((3, 4), 72)
    w = rand((12,), 73)

    def build():
        t = nm.transpose(x)
        flat = nm.reshape(t, (12,))
        return nm.sum_all(nm.mul(flat, w))

    fd_check(build, [("x", x)])


def test_concat_fd_both_axes():
    for axis in (0, 1):
        clear_tape()
        a, b = rand((2, 3), 74 + axis), rand((2, 3), 76 + axis)
        w = rand((4, 3) if axis == 0 else (2, 6), 78 + axis)
        fd_check(lambda: nm.sum_all(nm.mul(nm.concat([a, b], axis=axis), w)),
                 [("a", a), ("b", b)])


def test_select_and_sum_fd():
    m = rand((4, 5), 80)

    def build():
        row = nm.select_row(m, 2)
        col_sums = nm.sum_over_axis(m, 0)
        return nm.add(nm.sum_all(nm.sigmoid(row)), nm.select_index(col_sums, 1))

    fd_check(build, [("m", m)])


def test_lookup_of_id_pairs_stacks_row_blocks_fd():
    table, w = rand((6, 3), 113), rand((6, 4), 114)
    ids = np.array([[4, 1], [0, 0], [5, 4], [4, 2]])
    out = nm.embedding_lookup(table, ids)
    assert np.array_equal(out.data[:3], table.data[ids[:, 0]].T)
    assert np.array_equal(out.data[3:], table.data[ids[:, 1]].T)
    clear_tape()
    fd_check(lambda: nm.sum_all(nm.mul(nm.embedding_lookup(table, ids), w)), [("table", table)])


def test_repeated_id_lookup_tiles_a_row_fd():
    # The entity view tiles each surface vector as one lookup of a repeated id.
    table, w = rand((6, 3), 81), rand((3, 5), 82)
    assert np.array_equal(nm.embedding_lookup(table, [4] * 5).data,
                          np.tile(table.data[4][:, None], (1, 5)))
    fd_check(lambda: nm.sum_all(nm.mul(nm.embedding_lookup(table, [4, 1, 4, 4, 1]), w)),
             [("table", table)])


def nll_oracle(logits, labels):
    """Per-column chain: softmax, pick the gold entry, floored log, mean."""
    n = logits.shape[1]
    total = None
    for j, y in enumerate(labels):
        col = nm.select_row(nm.transpose(logits), j)
        ll = nm.log(nm.select_index(nm.softmax_over_axis(col, 0), y), floor=1e-12)
        total = ll if total is None else nm.add(total, ll)
    return nm.scale(total, -1.0 / n)


def test_nll_columns_matches_per_column_oracle():
    rng = np.random.default_rng(88)
    for n in (1, 3, 16):
        clear_tape()
        x = Tensor(rng.standard_normal((5, n)) * 3.0, requires_grad=True)
        labels = [int(y) for y in rng.integers(0, 5, size=n)]
        got = nm.nll_columns(x, labels)
        backward(got)
        got_grad, x.grad = x.grad, None
        clear_tape()
        want = nll_oracle(x, labels)
        backward(want)
        assert abs(got.item() - want.item()) <= 1e-12 * abs(want.item())
        assert np.max(np.abs(got_grad - x.grad)) <= 1e-12 * np.max(np.abs(x.grad))


def test_nll_columns_clamped_column_gets_zero_gradient():
    x = Tensor(np.array([[0.0, 0.0, 1.0], [-100.0, 2.0, 0.5], [0.0, -1.0, 0.0]]),
               requires_grad=True)
    out = nm.nll_columns(x, [1, 1, 2])
    p = np.exp(x.data[:, 0]) / np.exp(x.data[:, 0]).sum()
    assert p[1] < 1e-12
    backward(out)
    assert np.array_equal(x.grad[:, 0], np.zeros(3))
    assert x.grad[:, 1:].any()
    want = -(np.log(1e-12) + sum(np.log(np.exp(x.data[y, j]) / np.exp(x.data[:, j]).sum())
                                 for j, y in ((1, 1), (2, 2)))) / 3.0
    assert abs(out.item() - want) <= 1e-12 * abs(want)


def test_nll_columns_fd():
    x = rand((4, 3), 89)
    fd_check(lambda: nm.nll_columns(x, [3, 0, 1]), [("x", x)])


def test_nll_columns_rejects_bad_labels():
    x = rand((4, 3), 90)
    for labels in ([0, 1], [0, 1, 4], [0, -1, 2]):
        with pytest.raises(ShapeError, match="n labels in"):
            nm.nll_columns(x, labels)


def test_dropout_zero_p_is_identity():
    x = rand((3, 4), 83)
    out = nm.dropout(x, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)


def test_dropout_scales_survivors():
    x = Tensor(np.ones((1, 10000)), requires_grad=True)
    out = nm.dropout(x, 0.5, np.random.default_rng(5))
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 2.0)  # inverted dropout rescales at train time
    assert 0.4 < kept.size / 10000 < 0.6


# -- backward ---------------------------------------------------------------


def test_backward_quadratic():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    backward(nm.sum_all(nm.mul(w, w)))
    assert w.grad.tolist() == [2.0, 4.0]


def test_backward_zero_weighted_term():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = nm.add(nm.sum_all(w), nm.scale(nm.sum_all(nm.mul(w, w)), 0.0))
    backward(loss)
    assert w.grad.tolist() == [1.0, 1.0]


def test_backward_rejects_non_scalar():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = nm.mul(w, w)
    with pytest.raises(ValidationError, match="scalar"):
        backward(out)


def test_backward_bit_identical_across_passes():
    def run():
        clear_tape()
        rng = np.random.default_rng(90)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        h = nm.tanh(nm.conv1d(x, k, b))
        p = nm.softmax_over_axis(h, axis=1)
        backward(nm.sum_all(nm.mul(p, h)))
        return x.grad.copy(), k.grad.copy(), b.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_no_grad_records_nothing():
    with no_grad():
        x = rand((2, 2), 91)
        nm.sigmoid(nm.mul(x, x))
    assert len(nm.active_tape()) == 0


# -- grad_check harness -------------------------------------------------------


def test_grad_check_linear_model_machine_precision():
    w = rand((4,), 95)
    x = np.array([0.3, -1.2, 2.0, 0.7])

    def build():
        return nm.sum_all(nm.mul(w, Tensor(x)))

    report = grad_check(build, [("w", w)], eps=1e-5, tol=1e-4)
    assert report.passed
    assert report.entries[0].max_rel_err < 1e-9


def test_grad_check_detects_corrupted_gradient(monkeypatch):
    w = rand((3,), 96)
    x = Tensor(np.array([0.5, 1.5, -0.25]))

    def build():
        return nm.sum_all(nm.mul(w, x))

    assert grad_check(build, [("w", w)], eps=1e-5, tol=1e-4).passed

    # Plant the fault: mul's backward doubles the incoming gradient. With
    # analytic = 2 x numeric, |a-n|/max(|a|,|n|) comes out at exactly 0.5.
    original = nm.mul

    def mul_with_doubled_pull(a, b):
        before = len(nm.active_tape())
        out = original(a, b)
        if len(nm.active_tape()) > before:  # finite-difference passes record nothing
            rec = nm.active_tape().records[-1]
            pull = rec.pull
            rec.pull = lambda g: pull(2.0 * g)
        return out

    monkeypatch.setattr(nm, "mul", mul_with_doubled_pull)
    report = grad_check(build, [("w", w)], eps=1e-5, tol=1e-4)
    assert not report.passed
    assert report.entries[0].max_rel_err == pytest.approx(0.5, abs=0.05)


def test_grad_check_reports_nonfinite_parameter():
    w = rand((2,), 97)

    def build():
        return nm.select_index(nm.log(w, floor=0.0), 0)

    # Finite at the center, but w[0] - eps crosses into log's bad domain.
    w.data[0] = 5e-6
    with pytest.raises(InternalError, match="w"):
        grad_check(build, [("w", w)], eps=1e-5, tol=1e-4)

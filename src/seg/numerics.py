"""Dense float64 tensors with reverse-mode automatic differentiation.

The design is deliberately small: tensors are row-major numpy float64
buffers, every primitive records itself on a global computation tape, and
gradients are obtained by replaying the tape in reverse execution order
(which is always a valid topological order). Everything runs sequentially,
so two identical forward+backward passes produce bit-identical gradients.

The primitive set is exactly what the relation-extraction model needs:
matrix products, a same-length 1-d convolution, stabilized softmax (over an
axis, or over each run of columns), run sums, a few elementwise maps,
piecewise max pooling, embedding lookups, and some shape plumbing. The
convolution, the pool and the run ops take a packed batch, one run of
columns per sentence or bag, so each runs once per batch. The tape grows
until cleared; training clears it once per step and evaluation runs under
``no_grad()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InternalError, ShapeError, ValidationError

Array = np.ndarray


class Tensor:
    """A dense float64 array, optionally tracked for gradients.

    ``rows`` is set while every contribution to ``grad`` came from
    ``embedding_lookup``: it holds the looked-up ids (with repeats), and
    ``grad`` is zero outside those rows. Any other contribution clears it.
    """

    __slots__ = ("data", "requires_grad", "grad", "rows")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.rows: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Record:
    __slots__ = ("output", "pull")

    def __init__(self, output: Tensor, pull: Callable[[Array], None]):
        self.output = output
        self.pull = pull


class ComputationTape:
    """Ordered record of executed primitives for one or more forward passes."""

    def __init__(self):
        self.records: list[_Record] = []

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()


_tape = ComputationTape()
_grad_enabled = True


def active_tape() -> ComputationTape:
    return _tape


def clear_tape() -> None:
    _tape.clear()


class no_grad:
    """Context manager that disables tape recording (values only)."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


def _accum(t: Tensor, g: Array, own: bool = False) -> None:
    """Add ``g`` into ``t.grad``. ``own`` says the pull built ``g`` fresh and
    holds no other reference to it, so a first contribution may keep it."""
    if not t.requires_grad:
        return
    t.rows = None
    if t.grad is None and np.shape(g) == t.shape:
        # Unless owned, a copy, never an alias: one pull may hand the same
        # array to two operands, and later contributions add into this buffer in place.
        t.grad = (np.asarray(g, dtype=np.float64, order="C") if own
                  else np.array(g, dtype=np.float64, order="C"))
    elif t.grad is None:
        t.grad = np.zeros_like(t.data)
        t.grad += g
    else:
        t.grad += g


def _result(data: Array, inputs: tuple[Tensor, ...], pull: Callable[[Array], None]) -> Tensor:
    track = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        _tape.records.append(_Record(out, pull))
    return out


def zero_grads(params: Iterable) -> None:
    """Drop stored gradients. Accepts tensors or (name, tensor) pairs."""
    for p in params:
        t = p[1] if isinstance(p, tuple) else p
        t.grad = None
        t.rows = None


def backward(loss: Tensor) -> None:
    """Populate .grad for every tensor reachable from ``loss``.

    The loss must be a single element. Tensors that do not feed the loss
    keep grad None; a zero-weighted contribution yields an explicit zero.
    """
    if loss.data.size != 1:
        raise ValidationError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not _tape.records:
        raise ValidationError("backward() on an empty tape; run a tracked forward pass first")
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(_tape.records):
        g = rec.output.grad
        if g is None:
            continue
        rec.pull(g)


# ---------------------------------------------------------------------------
# Elementwise primitives.
#
# Binary ops accept identical shapes, a scalar on either side, a
# per-channel vector (d,) against a (d,n) matrix in either order (the vector
# broadcasts across the sequence axis, the columns), or a (1,n) row against
# a (d,n) matrix (the row broadcasts down the channels).
# ---------------------------------------------------------------------------


def _pair_views(a: Tensor, b: Tensor) -> tuple[Array, Array]:
    sa, sb = a.shape, b.shape
    if sa == sb or sa == () or sb == ():
        return a.data, b.data
    if len(sa) == 2 and len(sb) == 1 and sb[0] == sa[0]:
        return a.data, b.data[:, None]
    if len(sa) == 1 and len(sb) == 2 and sa[0] == sb[0]:
        return a.data[:, None], b.data
    if len(sa) == len(sb) == 2 and sa[1] == sb[1] and 1 in (sa[0], sb[0]):
        return a.data, b.data
    raise ShapeError(f"incompatible shapes for elementwise op: {sa} vs {sb}")


def _reduce_to(g: Array, shape: tuple[int, ...]) -> Array:
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    if len(shape) == 1:
        return g.sum(axis=1)
    if len(shape) == 2 and shape[0] == 1:
        return g.sum(axis=0, keepdims=True)
    raise InternalError(f"cannot reduce gradient of shape {g.shape} to {shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    va, vb = _pair_views(a, b)
    out = va + vb

    def pull(g: Array) -> None:
        _accum(a, _reduce_to(g, a.shape))
        _accum(b, _reduce_to(g, b.shape))

    return _result(out, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    va, vb = _pair_views(a, b)
    out = va * vb

    def pull(g: Array) -> None:
        _accum(a, _reduce_to(g * vb, a.shape), own=True)
        _accum(b, _reduce_to(g * va, b.shape), own=True)

    return _result(out, (a, b), pull)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def pull(g: Array) -> None:
        _accum(x, g * c, own=True)

    return _result(x.data * c, (x,), pull)


def shift(x: Tensor, c: float) -> Tensor:
    def pull(g: Array) -> None:
        _accum(x, g)

    return _result(x.data + float(c), (x,), pull)


def sigmoid(x: Tensor) -> Tensor:
    # Clipping keeps exp() finite; beyond +-500 the true value is 0 or 1
    # to far below float64 resolution anyway.
    z = np.clip(x.data, -500.0, 500.0)
    out = 1.0 / (1.0 + np.exp(-z))

    def pull(g: Array) -> None:
        _accum(x, g * out * (1.0 - out), own=True)

    return _result(out, (x,), pull)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def pull(g: Array) -> None:
        _accum(x, g * (1.0 - out * out), own=True)

    return _result(out, (x,), pull)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    mask = x.data > 0.0

    def pull(g: Array) -> None:
        _accum(x, g * mask, own=True)

    return _result(out, (x,), pull)


# Nothing in seg calls log; it stays because perfbench's tracer wraps seg.numerics.log.
def log(x: Tensor, floor: float = 0.0) -> Tensor:
    """Natural log; with floor > 0, inputs below the floor are clamped.

    The clamp keeps the output finite for tiny or zero probabilities and
    routes zero gradient to clamped entries.
    """
    if floor > 0.0:
        active = x.data > floor
        out = np.log(np.maximum(x.data, floor))
    else:
        active = np.ones(x.shape, dtype=bool)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.log(x.data)  # non-finite results surface downstream

    def pull(g: Array) -> None:
        _accum(x, g * active / np.where(active, x.data, 1.0), own=True)

    return _result(out, (x,), pull)


# ---------------------------------------------------------------------------
# Linear algebra and structured primitives.
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. ``a`` must be 2-d; ``b`` may be 2-d or a vector."""
    if a.ndim != 2:
        raise ShapeError(f"matmul left operand must be 2-d, got {a.shape}")
    if b.ndim not in (1, 2):
        raise ShapeError(f"matmul right operand must be 1-d or 2-d, got {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    if b.ndim == 1:
        def pull(g: Array) -> None:
            _accum(a, np.outer(g, b.data), own=True)
            _accum(b, a.data.T @ g, own=True)
    else:
        def pull(g: Array) -> None:
            _accum(a, g @ b.data.T, own=True)
            _accum(b, a.data.T @ g, own=True)

    return _result(out, (a, b), pull)


def _runs(x: Tensor, lengths, what: str) -> tuple[Array, Array]:
    """Lengths and first columns of the runs of a packed (d, n) matrix's
    columns; ``lengths`` None is one run."""
    if x.ndim != 2:
        raise ShapeError(f"{what} input must be 2-d, got {x.shape}")
    lens = np.asarray(x.shape[1:] if lengths is None else lengths, dtype=np.intp)
    if lens.ndim != 1 or lens.size == 0 or lens.min() < 1 or lens.sum() != x.shape[1]:
        raise ShapeError(f"{what} needs positive run lengths summing to {x.shape[1]} "
                         f"columns, got {lens.tolist()}")
    return lens, np.cumsum(lens) - lens


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor, lengths=None) -> Tensor:
    """Same-length 1-d convolution over the sequence axis.

    ``x`` is (d_in, n), ``kernel`` is (d_out, m, d_in) with odd window m,
    ``bias`` is (d_out,); the output is (d_out, n). Each run of columns given
    by ``lengths`` (default: all n as one run) is convolved as if zero padded
    by (m-1)/2 on both sides: a tap that would read across the edge of its
    run reads zero, so packed sentences do not bleed into each other.
    """
    lens, starts = _runs(x, lengths, "conv1d")
    if kernel.ndim != 3:
        raise ShapeError(f"conv1d kernel must be 3-d, got {kernel.shape}")
    d_in, n = x.shape
    d_out, m, kd = kernel.shape
    if kd != d_in:
        raise ShapeError(f"conv1d kernel channel dim {kd} does not match input channels {d_in}")
    if bias.shape != (d_out,):
        raise ShapeError(f"conv1d bias must have shape ({d_out},), got {bias.shape}")
    if m % 2 == 0:
        raise ValidationError(f"conv1d window size must be odd, got {m}")
    pad = (m - 1) // 2
    pos = np.arange(n) - np.repeat(starts, lens)  # column offset within its run
    end = np.repeat(lens, lens)
    # Tap k of column j reads column j + k - pad; these columns read outside their run.
    cut = [np.nonzero((pos + k - pad < 0) | (pos + k - pad >= end))[0] for k in range(m)]

    def im2col() -> Array:
        xpad = np.zeros((d_in, n + 2 * pad))
        xpad[:, pad:pad + n] = x.data
        cols = np.empty((m, d_in, n))
        for k in range(m):
            cols[k] = xpad[:, k:k + n]
            cols[k][:, cut[k]] = 0.0
        return cols.reshape(m * d_in, n)

    k2 = kernel.data.reshape(d_out, m * d_in)
    out = k2 @ im2col() + bias.data[:, None]

    def pull(g: Array) -> None:
        _accum(bias, g.sum(axis=1), own=True)
        if kernel.requires_grad:  # the columns are rebuilt, not kept on the tape
            _accum(kernel, (g @ im2col().T).reshape(d_out, m, d_in), own=True)
        if x.requires_grad:
            gcols = (k2.T @ g).reshape(m, d_in, n)
            gpad = np.zeros((d_in, n + 2 * pad))
            for k in range(m):
                gcols[k][:, cut[k]] = 0.0
                gpad[:, k:k + n] += gcols[k]
            _accum(x, gpad[:, pad:pad + n])

    return _result(out, (x, kernel, bias), pull)


def softmax_over_axis(x: Tensor, axis: int) -> Tensor:
    """Softmax along one axis, stabilized by max subtraction."""
    if x.ndim == 0:
        raise ShapeError("softmax needs at least one axis")
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def pull(g: Array) -> None:
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(x, out * (g - dot), own=True)

    return _result(out, (x,), pull)


def segment_softmax(x: Tensor, lengths) -> Tensor:
    """Softmax along the columns of a (d, n) matrix, taken over each run of
    ``lengths`` columns on its own: every row of every run sums to 1."""
    lens, starts = _runs(x, lengths, "segment_softmax")
    e = np.exp(x.data - np.repeat(np.maximum.reduceat(x.data, starts, axis=1), lens, axis=1))
    out = e / np.repeat(np.add.reduceat(e, starts, axis=1), lens, axis=1)

    def pull(g: Array) -> None:
        dot = np.add.reduceat(g * out, starts, axis=1)
        _accum(x, out * (g - np.repeat(dot, lens, axis=1)), own=True)

    return _result(out, (x,), pull)


def segment_sum(x: Tensor, lengths) -> Tensor:
    """Sum of each run of ``lengths`` columns: (d, n) -> (d, len(lengths))."""
    lens, starts = _runs(x, lengths, "segment_sum")

    def pull(g: Array) -> None:
        _accum(x, np.repeat(g, lens, axis=1), own=True)

    return _result(np.add.reduceat(x.data, starts, axis=1), (x,), pull)


def segment_max_pool(h: Tensor, boundaries, lengths=None) -> Tensor:
    """Max over the three segments of each run of columns.

    A run of n columns split at (p1, p2) has the segments [0, p1],
    [p1+1, p2] and [p2+1, n-1], counted within the run. ``boundaries`` is
    one (p1, p2) pair, or one pair per run of ``lengths`` (default: all
    columns as one run). The output is (d, 3 * runs): the three segments of
    each run in turn. An empty segment pools to zero. Ties go to the lowest
    column index, and gradient flows only to the selected entries.
    """
    lens, starts = _runs(h, lengths, "segment_max_pool")
    d, n = h.shape
    p = np.asarray(boundaries, dtype=np.intp).reshape(-1, 2)
    if len(p) != len(lens) or not np.all((0 <= p[:, 0]) & (p[:, 0] <= p[:, 1])
                                         & (p[:, 1] < lens)):
        raise InternalError(f"segment boundaries must satisfy 0 <= p1 <= p2 < n, got "
                            f"{p.tolist()} with run lengths {lens.tolist()}")
    edges = np.column_stack([starts, starts + p[:, 0] + 1, starts + p[:, 1] + 1, starts + lens])
    lo, hi = edges[:, :3].ravel(), edges[:, 1:].ravel()
    # The non-empty segments tile the columns in order, so one reduceat pools them all.
    full = np.nonzero(hi > lo)[0]
    out = np.zeros((d, lo.size))
    out[:, full] = np.maximum.reduceat(h.data, lo[full], axis=1)

    def pull(g: Array) -> None:
        # The first column of each segment that attains its max.
        at_max = h.data == out[:, np.repeat(full, hi[full] - lo[full])]
        picks = np.minimum.reduceat(np.where(at_max, np.arange(n), n), lo[full], axis=1)
        gx = np.zeros_like(h.data)
        gx[np.arange(d)[:, None], picks] = g[:, full]
        _accum(h, gx, own=True)

    return _result(out, (h,), pull)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Select rows of ``table`` and return them as columns.

    ids of shape (n,) give a (d, n) matrix. ids of shape (n, k) give a
    (k*d, n) matrix whose j-th block of d rows holds the rows ids[:, j].
    """
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim not in (1, 2) or idx.size == 0:
        raise ShapeError("embedding_lookup needs a non-empty (n,) or (n, k) id array")
    rows = table.shape[0]
    if idx.min() < 0 or idx.max() >= rows:
        raise ValidationError(
            f"embedding id out of range: ids span [{idx.min()}, {idx.max()}] "
            f"but the table has {rows} rows"
        )
    picked = table.data[idx]
    out = picked.reshape(idx.shape[0], -1).T

    def pull(g: Array) -> None:
        if table.requires_grad:
            if table.grad is None:
                # np.zeros (calloc) skips writing memory that comes zeroed from the
                # kernel, where zeros_like writes every entry.
                table.grad = np.zeros(table.shape)
                table.rows = idx.reshape(-1)
            elif table.rows is not None:
                table.rows = np.concatenate([table.rows, idx.reshape(-1)])
            np.add.at(table.grad, idx, g.T.reshape(picked.shape))

    return _result(out, (table,), pull)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    nd = parts[0].ndim
    if any(p.ndim != nd for p in parts):
        raise ShapeError("concat requires equal ranks")
    if not -nd <= axis < nd:
        raise ShapeError(f"concat axis {axis} out of range for rank {nd}")
    axis = axis % nd
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def pull(g: Array) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * nd
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _result(out, tuple(parts), pull)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a 2-d tensor, got {x.shape}")

    def pull(g: Array) -> None:
        _accum(x, g.T)

    return _result(x.data.T.copy(), (x,), pull)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")

    def pull(g: Array) -> None:
        _accum(x, g.reshape(x.shape))

    return _result(x.data.reshape(shape), (x,), pull)


def sum_over_axis(x: Tensor, axis: int) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"sum axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    out = x.data.sum(axis=axis)

    def pull(g: Array) -> None:
        _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape))

    return _result(out, (x,), pull)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())

    def pull(g: Array) -> None:
        _accum(x, np.broadcast_to(g, x.shape))

    return _result(out, (x,), pull)


def sum_of_squares(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of squared entries over all ``tensors``, as one scalar record."""
    flats = [t.data.reshape(-1) for t in tensors]
    out = np.asarray(sum(float(np.dot(f, f)) for f in flats))

    def pull(g: Array) -> None:
        c = 2.0 * float(g)
        for t in tensors:
            _accum(t, c * t.data, own=True)

    return _result(out, tuple(tensors), pull)


def nll_columns(logits: Tensor, labels: Sequence[int], floor: float = 1e-12) -> Tensor:
    """Mean negative log-likelihood of one gold row per column of (R, n) logits.

    Each column is softmaxed as by ``softmax_over_axis(logits, 0)`` and its
    gold probability floored at ``floor``. The pull is (p - onehot) / n per
    column, and zero for a column whose probability was clamped.
    """
    idx = np.asarray(labels, dtype=np.intp)
    if (logits.ndim != 2 or idx.shape != logits.shape[1:]
            or not np.all((0 <= idx) & (idx < logits.shape[0]))):
        raise ShapeError(f"nll_columns needs (R, n) logits and n labels in [0, R), got "
                         f"{logits.shape} logits and labels {idx.tolist()}")
    e = np.exp(logits.data - logits.data.max(axis=0, keepdims=True))
    p = e / e.sum(axis=0, keepdims=True)
    cols = np.arange(idx.size)
    active = p[idx, cols] > floor
    out = np.asarray(np.log(np.maximum(p[idx, cols], floor)).sum() * (-1.0 / idx.size))

    def pull(g: Array) -> None:
        gx = p.copy()
        gx[idx, cols] -= 1.0
        _accum(logits, gx * (active * (float(g) / idx.size)), own=True)

    return _result(out, (logits,), pull)


def select_index(v: Tensor, i: int) -> Tensor:
    if v.ndim != 1:
        raise ShapeError(f"select_index expects a vector, got {v.shape}")
    i = int(i)
    if not 0 <= i < v.shape[0]:
        raise ShapeError(f"index {i} out of range for vector of length {v.shape[0]}")
    out = np.asarray(v.data[i])

    def pull(g: Array) -> None:
        gv = np.zeros_like(v.data)
        gv[i] = g
        _accum(v, gv, own=True)

    return _result(out, (v,), pull)


def select_row(m: Tensor, i: int) -> Tensor:
    if m.ndim != 2:
        raise ShapeError(f"select_row expects a matrix, got {m.shape}")
    i = int(i)
    if not 0 <= i < m.shape[0]:
        raise ShapeError(f"row {i} out of range for matrix with {m.shape[0]} rows")
    out = m.data[i].copy()

    def pull(g: Array) -> None:
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        m.rows = None
        m.grad[i] += g

    return _result(out, (m,), pull)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept entries are rescaled by 1/(1-p). The mask is
    drawn column by column, so a (d, n) matrix takes the draws its n columns
    would take if dropped out one after another."""
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"dropout rate must lie in [0, 1), got {p}")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape[::-1]).T >= p) / (1.0 - p)
    out = x.data * mask

    def pull(g: Array) -> None:
        _accum(x, g * mask, own=True)

    return _result(out, (x,), pull)


# ---------------------------------------------------------------------------
# Gradient checking.
# ---------------------------------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    ok: bool


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def format(self) -> str:
        lines = []
        for e in self.entries:
            status = "ok" if e.ok else "FAIL"
            lines.append(f"{e.name:<24} max_rel_err={e.max_rel_err:.3e}  {status}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {verdict} (tol={self.tol:g})")
        return "\n".join(lines)


def _rel_err(ana: float, num: float) -> float:
    denom = max(abs(ana), abs(num))
    diff = abs(ana - num)
    # Below this scale both gradients are numerically negligible and the
    # quotient would only amplify finite-difference noise.
    if denom < 1e-6:
        return diff
    return diff / denom


def grad_check(f, params, eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` takes no arguments, rebuilds its graph from the current parameter
    values, and returns a scalar Tensor. ``params`` is a dict or a sequence
    of (name, Tensor) pairs; every tensor must require gradients. Reports
    the per-parameter max relative error against ``tol``.
    """
    named = list(params.items()) if isinstance(params, dict) else list(params)
    for name, t in named:
        if not t.requires_grad:
            raise ValidationError(f"grad_check parameter {name!r} does not require gradients")

    clear_tape()
    zero_grads(named)
    loss = f()
    if not np.all(np.isfinite(loss.data)):
        raise InternalError("objective is non-finite at the evaluation point")
    backward(loss)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in named
    }
    clear_tape()

    entries = []
    with no_grad():
        for name, t in named:
            flat = t.data.reshape(-1)
            ana_flat = analytic[name].reshape(-1)
            worst = 0.0
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = f().item()
                flat[i] = orig - eps
                fm = f().item()
                flat[i] = orig
                if not (np.isfinite(fp) and np.isfinite(fm)):
                    raise InternalError(
                        f"objective became non-finite while perturbing {name}[{i}]"
                    )
                num = (fp - fm) / (2.0 * eps)
                err = _rel_err(float(ana_flat[i]), num)
                if err > worst:
                    worst = err
            entries.append(GradCheckEntry(name, worst, worst < tol))
    return GradCheckReport(entries, tol)

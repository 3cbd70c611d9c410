"""Bag aggregation: selective gate, selective attention, and fallbacks.

A bag of m sentences yields m encoder vectors. The selective gate squashes
each sentence's attention summary through a two-layer network into a
per-feature gate in (0, 1) and averages the gated convolutional vectors.
Selective attention instead scores each sentence against a relation query
through a bilinear form and takes the softmax-weighted sum; with a single
sentence the softmax collapses to 1, so its output cannot depend on the
attention parameters and they receive exactly zero gradient. The remaining
aggregators (plain mean, mean of concatenated pairs, attention over gated
vectors) serve the ablation variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import numerics as nm
from .errors import ShapeError, ValidationError
from .numerics import Tensor


@dataclass
class SelectiveGateParams:
    w_hidden: Tensor  # (d_u, d_u)
    b_hidden: Tensor  # (d_u,)
    w_out: Tensor     # (gate_dim, d_u)
    b_out: Tensor     # (gate_dim,)


@dataclass
class SelectiveAttnParams:
    queries: Tensor   # (num_relations, feat_dim), one query row per relation
    bilinear: Tensor  # (feat_dim, feat_dim)


def _check_bag(vectors: Sequence[Tensor], what: str) -> None:
    if not vectors:
        raise ValidationError(f"{what} needs at least one sentence vector")
    dim = vectors[0].shape
    if any(v.shape != dim for v in vectors):
        raise ShapeError(f"{what} got mixed vector shapes")


def mean_vectors(vectors: Sequence[Tensor]) -> Tensor:
    _check_bag(vectors, "mean_vectors")
    acc = vectors[0]
    for v in vectors[1:]:
        acc = nm.add(acc, v)
    return nm.scale(acc, 1.0 / len(vectors))


def gate_values(summaries: Sequence[Tensor], params: SelectiveGateParams) -> list[Tensor]:
    """Per-sentence gates in (0, 1)^gate_dim from the attention summaries,
    stacked as one (d_u, m) matrix so each layer is one matrix product."""
    _check_bag(summaries, "gate_values")
    u = nm.concat([nm.reshape(s, (s.size, 1)) for s in summaries], axis=1)
    hidden = nm.relu(nm.add(nm.matmul(params.w_hidden, u), params.b_hidden))
    return nm.split_cols(nm.sigmoid(nm.add(nm.matmul(params.w_out, hidden), params.b_out)))


def gated_vectors(
    vectors: Sequence[Tensor], gates: Sequence[Tensor], scalar_gate: bool = False
) -> list[Tensor]:
    """Per-sentence gated vectors g_j * s_j.

    With ``scalar_gate`` each gate vector collapses to its mean, giving one
    multiplier per sentence.
    """
    _check_bag(vectors, "gated_vectors")
    if len(gates) != len(vectors):
        raise ShapeError(f"gated_vectors got {len(vectors)} vectors but {len(gates)} gates")
    terms = []
    for s, g in zip(vectors, gates):
        if scalar_gate:
            g = nm.scale(nm.sum_all(g), 1.0 / g.size)
        elif g.shape != s.shape:
            raise ShapeError(f"gate shape {g.shape} does not match vector shape {s.shape}")
        terms.append(nm.mul(g, s))
    return terms


def gate_aggregate(
    vectors: Sequence[Tensor], gates: Sequence[Tensor], scalar_gate: bool = False
) -> Tensor:
    """Mean of gated sentence vectors: (1/m) sum_j g_j * s_j."""
    return mean_vectors(gated_vectors(vectors, gates, scalar_gate))


def _dot(a: Tensor, b: Tensor) -> Tensor:
    return nm.sum_all(nm.mul(a, b))


def selective_attention_aggregate(
    vectors: Sequence[Tensor], relation: int | Tensor | None, params: SelectiveAttnParams
) -> Tensor:
    """Softmax-weighted sum of sentence vectors scored against relation queries.

    With a relation index r the scores are s_j . (bilinear @ q_r) and the
    result is one (feat,) vector; a (feat,) Tensor in place of r is that
    target bilinear @ q_r, already formed. With ``relation=None`` every
    relation attends in one pass: the scores (S @ bilinear) @ Q^T form an
    (m, R) matrix, the softmax runs down each column, and column r of the
    (feat, R) result is the aggregate for relation r.
    """
    _check_bag(vectors, "selective_attention_aggregate")
    if relation is None:
        cols = nm.concat([nm.reshape(s, (s.size, 1)) for s in vectors], axis=1)
        # S @ bilinear first: bilinear @ Q^T would cost feat^2 * R per bag.
        scores = nm.matmul(nm.matmul(nm.transpose(cols), params.bilinear),
                           nm.transpose(params.queries))
        return nm.matmul(cols, nm.softmax_over_axis(scores, 0))
    target = relation if isinstance(relation, Tensor) else nm.matmul(
        params.bilinear, nm.select_row(params.queries, int(relation)))
    scores = [nm.reshape(_dot(s, target), (1,)) for s in vectors]
    weights = nm.softmax_over_axis(nm.concat(scores, axis=0), 0)
    parts = [nm.mul(nm.select_index(weights, j), s) for j, s in enumerate(vectors)]
    acc = parts[0]
    for p in parts[1:]:
        acc = nm.add(acc, p)
    return acc


def concat_aggregate(vectors: Sequence[Tensor], summaries: Sequence[Tensor]) -> Tensor:
    """Mean of [s_j; u_j] concatenations; used when the gate is ablated."""
    _check_bag(vectors, "concat_aggregate")
    if len(summaries) != len(vectors):
        raise ShapeError(
            f"concat_aggregate got {len(vectors)} vectors but {len(summaries)} summaries"
        )
    pairs = [nm.concat([s, u], axis=0) for s, u in zip(vectors, summaries)]
    return mean_vectors(pairs)


def gate_plus_attention_aggregate(
    vectors: Sequence[Tensor],
    gates: Sequence[Tensor],
    relation: int | Tensor | None,
    params: SelectiveAttnParams,
    scalar_gate: bool = False,
) -> Tensor:
    """Selective attention over gated sentence vectors.

    Uniform attention weights recover gate_aggregate over the same inputs.
    """
    return selective_attention_aggregate(gated_vectors(vectors, gates, scalar_gate),
                                         relation, params)

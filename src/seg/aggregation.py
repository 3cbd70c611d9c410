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

The aggregators run on a packed batch: sentence vectors are the columns of
one (d, S) matrix, bag b owns the next ``sizes[b]`` columns, and the result
is one (d, B) matrix of bag vectors. ``gate_aggregate`` and
``selective_attention_aggregate`` also take one bag as a list of vectors
when ``sizes`` is None; that form is the plain per-sentence definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def mean_vectors(vectors: Tensor, sizes) -> Tensor:
    """Mean of each bag's columns: (d, S) -> (d, B)."""
    sizes = np.asarray(sizes)
    return nm.mul(nm.segment_sum(vectors, sizes), Tensor(1.0 / sizes[None, :]))


def gate_values(summaries, params: SelectiveGateParams):
    """Gates in (0, 1)^gate_dim from attention summaries: one gate column per
    column of a (d_u, S) matrix, or one gate vector per vector of a list."""
    if not isinstance(summaries, Tensor):
        _check_bag(summaries, "gate_values")
        return [gate_values(u, params) for u in summaries]
    hidden = nm.relu(nm.add(nm.matmul(params.w_hidden, summaries), params.b_hidden))
    return nm.sigmoid(nm.add(nm.matmul(params.w_out, hidden), params.b_out))


def gated_vectors(vectors: Tensor, gates: Tensor, scalar_gate: bool = False) -> Tensor:
    """Gated sentence vectors g_j * s_j, columnwise over (feat, S) matrices.

    With ``scalar_gate`` each gate column collapses to its mean, giving one
    multiplier per sentence.
    """
    if gates.shape != vectors.shape:
        raise ShapeError(f"gate shape {gates.shape} does not match vector shape {vectors.shape}")
    if scalar_gate:
        feat, s = gates.shape
        gates = nm.reshape(nm.scale(nm.sum_over_axis(gates, 0), 1.0 / feat), (1, s))
    return nm.mul(gates, vectors)


def gate_aggregate(vectors, gates, scalar_gate: bool = False, sizes=None) -> Tensor:
    """Mean of gated sentence vectors per bag: (1/m) sum_j g_j * s_j.

    Packed (feat, S) matrices give a (feat, B) matrix. With ``sizes`` None,
    ``vectors`` and ``gates`` are one bag's lists of (feat,) vectors, summed
    in order, and the result is one (feat,) vector.
    """
    if sizes is not None:
        return mean_vectors(gated_vectors(vectors, gates, scalar_gate), sizes)
    _check_bag(vectors, "gate_aggregate")
    if len(gates) != len(vectors):
        raise ShapeError(f"gate_aggregate got {len(vectors)} vectors but {len(gates)} gates")
    acc = None
    for s, g in zip(vectors, gates):
        if scalar_gate:
            g = nm.scale(nm.sum_all(g), 1.0 / g.size)
        elif g.shape != s.shape:
            raise ShapeError(f"gate shape {g.shape} does not match vector shape {s.shape}")
        acc = nm.mul(g, s) if acc is None else nm.add(acc, nm.mul(g, s))
    return nm.scale(acc, 1.0 / len(vectors))


def selective_attention_aggregate(vectors, relation, params: SelectiveAttnParams,
                                  sizes=None) -> Tensor:
    """Softmax-weighted sum of sentence vectors scored against relation queries.

    Bag b attends with relation[b]: its sentences' scores s_j . (bilinear @
    q_r) are softmaxed over the bag. Packed (feat, S) vectors give a
    (feat, B) matrix. With ``relation`` None every relation attends in one
    pass, for eval only (nothing is recorded): the result is a list with one
    (feat, R) matrix per bag, column r being the bag under relation r. With
    ``sizes`` None, ``vectors`` is one bag's list of (feat,) vectors,
    ``relation`` one index, and the result one vector.
    """
    if sizes is not None and relation is None:
        # S @ bilinear first: bilinear @ Q^T would cost feat^2 * R.
        scores = (vectors.data.T @ params.bilinear.data) @ params.queries.data.T
        weights = nm.segment_softmax(Tensor(scores.T), sizes).data  # (R, S)
        cuts = np.cumsum(sizes)[:-1]
        return [Tensor(v @ w.T) for v, w in zip(np.split(vectors.data, cuts, axis=1),
                                                np.split(weights, cuts, axis=1))]
    if sizes is not None:
        # One target bilinear @ q_r per bag, then repeated for each of its sentences.
        targets = nm.matmul(params.bilinear, nm.embedding_lookup(params.queries, relation))
        targets = nm.repeat_cols(targets, sizes)
        scores = nm.sum_over_axis(nm.mul(vectors, targets), 0)
        weights = nm.segment_softmax(nm.reshape(scores, (1, scores.size)), sizes)
        return nm.segment_sum(nm.mul(weights, vectors), sizes)
    _check_bag(vectors, "selective_attention_aggregate")
    target = nm.matmul(params.bilinear, nm.select_row(params.queries, int(relation)))
    scores = [nm.reshape(nm.sum_all(nm.mul(s, target)), (1,)) for s in vectors]
    weights = nm.softmax_over_axis(nm.concat(scores, axis=0), 0)
    acc = None
    for j, s in enumerate(vectors):
        part = nm.mul(nm.select_index(weights, j), s)
        acc = part if acc is None else nm.add(acc, part)
    return acc


def concat_aggregate(vectors: Tensor, summaries: Tensor, sizes) -> Tensor:
    """Mean of [s_j; u_j] concatenations per bag; used when the gate is ablated."""
    return mean_vectors(nm.concat([vectors, summaries], axis=0), sizes)


def gate_plus_attention_aggregate(vectors: Tensor, gates: Tensor, relation,
                                  params: SelectiveAttnParams, sizes,
                                  scalar_gate: bool = False) -> Tensor:
    """Selective attention over gated sentence vectors.

    Uniform attention weights recover gate_aggregate over the same inputs.
    """
    return selective_attention_aggregate(gated_vectors(vectors, gates, scalar_gate),
                                         relation, params, sizes)

"""Sentence encoders: piecewise-pooled convolution and column self-attention.

Both consume a (d, N) matrix of packed sentences: runs of columns, one run
per sentence, with run lengths ``lengths``. The convolutional encoder pools
each sentence's feature map over the three segments split at its entity
positions and returns one column of 3 * conv_channels entries per
sentence. The self-attention encoder scores every column per feature row,
normalizes across each sentence's columns, and returns each sentence's
attention-weighted column sum, one column of d entries per sentence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor


@dataclass
class PcnnParams:
    kernel: Tensor  # (conv_channels, kernel_width, d)
    bias: Tensor    # (conv_channels,)


@dataclass
class SelfAttnParams:
    w_hidden: Tensor  # (d, d)
    b_hidden: Tensor  # (d,)
    w_score: Tensor   # (d, d); no bias: the softmax along columns cancels a per-row constant


def pcnn_encode(x: Tensor, entities, lengths, params: PcnnParams) -> Tensor:
    """Convolve, max-pool per segment, tanh: (d, N) -> (3*d_c, S).

    ``entities`` holds each sentence's (head, tail) positions, in either
    order. Each output column is segment-major: all channels of segment 1,
    then segment 2, then segment 3.
    """
    feat = nm.conv1d(x, params.kernel, params.bias, lengths)
    pooled = nm.segment_max_pool(feat, np.sort(entities, axis=1), lengths)  # (d_c, 3S)
    d_c, runs = pooled.shape[0], len(lengths)
    # Row i of the transpose's (S, 3*d_c) reshape is sentence i, segment-major.
    return nm.tanh(nm.transpose(nm.reshape(nm.transpose(pooled), (runs, 3 * d_c))))


def attention_weights(x: Tensor, params: SelfAttnParams, lengths=None) -> Tensor:
    """Per-row attention over each sentence's columns; with ``lengths`` None,
    x is one sentence. Every row sums to 1 across each sentence."""
    hidden = nm.relu(nm.add(nm.matmul(params.w_hidden, x), params.b_hidden))
    scores = nm.matmul(params.w_score, hidden)
    if lengths is None:
        return nm.softmax_over_axis(scores, 1)
    return nm.segment_softmax(scores, lengths)


def self_attn_encode(x: Tensor, params: SelfAttnParams, lengths=None) -> Tensor:
    """Attention-weighted sum of each sentence's columns: (d, S), or (d,)
    for one sentence when ``lengths`` is None."""
    weighted = nm.mul(attention_weights(x, params, lengths), x)
    if lengths is None:
        return nm.sum_over_axis(weighted, 1)
    return nm.segment_sum(weighted, lengths)


def stacked_encode(x: Tensor, entities, lengths, pcnn: PcnnParams,
                   attn: SelfAttnParams) -> tuple[Tensor, Tensor]:
    """Reweight columns by attention, then run the convolutional encoder.

    The attention map is applied elementwise without the column sum, so
    every sentence keeps its length and its entity positions. Returns the
    PCNN features and the self-attention summaries, which are the column
    sums of the same reweighted matrix.
    """
    weighted = nm.mul(attention_weights(x, attn, lengths), x)
    return pcnn_encode(weighted, entities, lengths, pcnn), nm.segment_sum(weighted, lengths)

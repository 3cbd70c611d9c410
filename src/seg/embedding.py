"""Token embeddings and the entity-aware gated combination.

Sentences are embedded column-wise: a (d, n) matrix holds one column per
token position. Two views exist for every sentence. The positional view
stacks the word vector with two relative-position vectors (offsets to the
head and tail mentions, bucketed and clipped). The entity view stacks the
word vector with the head and tail surface word vectors, repeated at every
position. A learned sigmoid gate mixes the entity view with a projected
positional view, which lets entity identity modulate every position.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .data import SentenceExample, open_text
from .errors import DataError, ShapeError
from .numerics import Tensor


@dataclass
class EmbeddingTables:
    """Word table (vocab x word_dim) and shared position table ((2K+1) x pos_dim)."""

    word: Tensor
    position: Tensor
    pos_clip: int


@dataclass
class EntityAwareGateParams:
    """Parameters of the gated mix between the entity and positional views.

    ``w_gate``/``b_gate`` produce the gate from the entity view and
    ``w_proj``/``b_proj`` project the positional view to the same width.
    ``gate_smoothing`` scales the gate pre-activation before the sigmoid.
    """

    w_gate: Tensor
    b_gate: Tensor
    w_proj: Tensor
    b_proj: Tensor
    gate_smoothing: float


def relative_offset_bucket(i: int, e: int, pos_clip: int) -> int:
    """Bucket index for the offset of position i from entity position e.

    Offsets are clipped to [-pos_clip, pos_clip] and shifted to be
    non-negative, so bucket pos_clip means distance zero.
    """
    off = i - e
    if off < -pos_clip:
        off = -pos_clip
    elif off > pos_clip:
        off = pos_clip
    return off + pos_clip


def load_pretrained_words(
    path, word_vocab: dict[str, int], word_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read a text embedding file (token then word_dim floats per line).

    Returns a (vocab, word_dim) array plus a boolean mask of the rows the
    file covered; tokens outside the vocabulary are skipped. The caller
    overwrites exactly the masked rows of its word table, leaving random
    init in place for everything else.
    """
    out = np.zeros((len(word_vocab), word_dim))
    found = np.zeros(len(word_vocab), dtype=bool)
    path = Path(path)
    if not path.exists():
        raise DataError(f"embedding file not found: {path}")
    with open_text(path, "embedding file") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if len(values) != word_dim:
                raise DataError(
                    f"{path} line {lineno}: expected {word_dim} values for "
                    f"{word!r}, got {len(values)}"
                )
            if word not in word_vocab:
                continue
            try:
                out[word_vocab[word]] = [float(v) for v in values]
            except ValueError:
                raise DataError(f"{path} line {lineno}: non-numeric value") from None
            found[word_vocab[word]] = True
    return out, found


def embed_positional(sent: SentenceExample, tables: EmbeddingTables) -> Tensor:
    """Positional view: (word_dim + 2*pos_dim, n)."""
    n = len(sent.tokens)
    k = tables.pos_clip
    word_cols = nm.embedding_lookup(tables.word, sent.tokens)
    head_buckets = [relative_offset_bucket(i, sent.head_pos, k) for i in range(n)]
    tail_buckets = [relative_offset_bucket(i, sent.tail_pos, k) for i in range(n)]
    head_cols = nm.embedding_lookup(tables.position, head_buckets)
    tail_cols = nm.embedding_lookup(tables.position, tail_buckets)
    return nm.concat([word_cols, head_cols, tail_cols], axis=0)


def embed_entity_concat(sent: SentenceExample, tables: EmbeddingTables) -> Tensor:
    """Entity view: (3*word_dim, n), with both entity surface vectors tiled."""
    n = len(sent.tokens)
    word_cols = nm.embedding_lookup(tables.word, sent.tokens)
    head_cols = nm.embedding_lookup(tables.word, [sent.tokens[sent.head_pos]] * n)
    tail_cols = nm.embedding_lookup(tables.word, [sent.tokens[sent.tail_pos]] * n)
    return nm.concat([word_cols, head_cols, tail_cols], axis=0)


def entity_aware_embed(x_pos: Tensor, x_ent: Tensor, params: EntityAwareGateParams) -> Tensor:
    """Gated columnwise mix of the two views, shape (embed_dim, n).

    The gate comes from the entity view; the positional view is projected
    through a tanh layer to the same width before mixing. Every output
    entry lies elementwise between the two mixed inputs.
    """
    d = params.w_gate.shape[0]
    if params.w_gate.shape != (d, x_ent.shape[0]):
        raise ShapeError(
            f"gate weights {params.w_gate.shape} do not match entity view rows {x_ent.shape[0]}"
        )
    alpha = nm.sigmoid(
        nm.scale(nm.add(nm.matmul(params.w_gate, x_ent), params.b_gate), params.gate_smoothing)
    )
    projected = nm.tanh(nm.add(nm.matmul(params.w_proj, x_pos), params.b_proj))
    return nm.add(nm.mul(alpha, x_ent),
                  nm.mul(nm.shift(nm.scale(alpha, -1.0), 1.0), projected))

"""Token embeddings and the entity-aware gated combination.

Sentences are embedded column-wise, and a batch is packed: its sentences'
token columns sit side by side in one (d, N) matrix, N being the batch's
token count. The word vectors are looked up once per batch, and both views
stack further rows onto those shared (word_dim, N) columns. The positional
view adds two relative-position vectors (offsets to the head and tail
mentions, bucketed and clipped). The entity view adds the head and tail
surface word vectors, looked up once per sentence and repeated at each of
its positions, so a batch of S sentences asks the word table for N + 2S
rows. A learned sigmoid gate mixes the entity view with a projected
positional view, which lets entity identity modulate every position.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import numerics as nm
from .data import Bag, open_text
from .errors import DataError, ShapeError
from .numerics import Tensor


@dataclass
class EmbeddingTables:
    """Word table (vocab x word_dim) and shared position table ((2K+1) x pos_dim)."""

    word: Tensor
    position: Tensor
    pos_clip: int


@dataclass
class SentencePack:
    """Index arrays of a batch of bags whose sentences are packed as runs of
    columns, in bag order and sentence order within each bag."""

    tokens: np.ndarray     # (N,) word id of every column
    lengths: np.ndarray    # (S,) columns per sentence
    starts: np.ndarray     # (S,) first column of each sentence
    entities: np.ndarray   # (S, 2) head and tail position within each sentence
    bag_sizes: np.ndarray  # (B,) sentences per bag


def pack_bags(bags: Sequence[Bag]) -> SentencePack:
    sents = [s for bag in bags for s in bag.sentences]
    lengths = np.array([len(s.tokens) for s in sents], dtype=np.intp)
    return SentencePack(
        tokens=np.array([t for s in sents for t in s.tokens], dtype=np.intp),
        lengths=lengths,
        starts=np.cumsum(lengths) - lengths,
        entities=np.array([(s.head_pos, s.tail_pos) for s in sents], dtype=np.intp),
        bag_sizes=np.array([len(bag.sentences) for bag in bags], dtype=np.intp),
    )


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


def relative_offset_bucket(i, e, pos_clip: int):
    """Bucket index for the offset of position i from entity position e,
    elementwise over arrays.

    Offsets are clipped to [-pos_clip, pos_clip] and shifted to be
    non-negative, so bucket pos_clip means distance zero.
    """
    return np.clip(np.subtract(i, e), -pos_clip, pos_clip) + pos_clip


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


def embed_positional(words: Tensor, pack: SentencePack, tables: EmbeddingTables) -> Tensor:
    """Positional view: the (word_dim, N) word columns ``words`` over two
    position vectors, (word_dim + 2*pos_dim, N)."""
    pos = np.arange(pack.tokens.size) - np.repeat(pack.starts, pack.lengths)
    buckets = relative_offset_bucket(pos[:, None], np.repeat(pack.entities, pack.lengths, axis=0),
                                     tables.pos_clip)
    return nm.concat([words, nm.embedding_lookup(tables.position, buckets)], axis=0)


def embed_entity_concat(words: Tensor, pack: SentencePack, tables: EmbeddingTables) -> Tensor:
    """Entity view: the (word_dim, N) word columns ``words`` over their
    sentence's head and tail surface vectors, (3*word_dim, N). Each
    sentence's surfaces are looked up once and tiled over its columns."""
    surfaces = nm.embedding_lookup(tables.word, pack.tokens[pack.starts[:, None] + pack.entities])
    return nm.concat([words, nm.repeat_cols(surfaces, pack.lengths)], axis=0)


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

"""Seeded corpus generator for the benchmark.

This is deliberately not ``seg synth``: the benchmark's inputs must not
change when ``seg.data`` changes. Every corpus is a pure function of its
``CorpusSpec`` and seed, written as JSONL in the format ``seg`` loads.

Token ids are Zipf-distributed over the vocabulary, as in real text, so a
few words recur in most sentences and most of the table is touched rarely.
Each bag is one (head, tail, relation) triple; the entity mention tokens are
ordinary vocabulary words.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_RESERVED = ("<unk>", "<pad>")
_ZIPF_S = 1.0
_NA_SHARE = 0.3


@dataclass(frozen=True)
class CorpusSpec:
    num_bags: int
    vocab_size: int
    num_relations: int
    multi_share: float      # share of bags with 2..max_bag sentences
    len_lo: int             # sentence length range, inclusive
    len_hi: int
    max_bag: int = 5


def word_vocab(vocab_size: int) -> dict[str, int]:
    """The fixed vocabulary every corpus of this size draws from."""
    words = list(_RESERVED) + [f"w{i}" for i in range(len(_RESERVED), vocab_size)]
    return {w: i for i, w in enumerate(words)}


def relation_names(num_relations: int) -> list[str]:
    return ["NA"] + [f"R{r}" for r in range(1, num_relations)]


def _zipf_cdf(vocab_size: int) -> np.ndarray:
    ranks = np.arange(1, vocab_size - len(_RESERVED) + 1, dtype=np.float64)
    weights = ranks ** -_ZIPF_S
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def generate(spec: CorpusSpec, seed: int) -> list[str]:
    """JSONL lines of one corpus; the same (spec, seed) gives the same lines."""
    rng = np.random.default_rng([int(seed), spec.num_bags, spec.vocab_size])
    cdf = _zipf_cdf(spec.vocab_size)
    # A seeded permutation decides which word ids are frequent.
    rank_to_id = rng.permutation(spec.vocab_size - len(_RESERVED)) + len(_RESERVED)
    names = relation_names(spec.num_relations)
    # Bag sizes and the NA share are fixed counts in a seeded order, so two
    # seeds give corpora of the same total work and only the mix differs.
    multi = round(spec.multi_share * spec.num_bags)
    sizes = [1] * (spec.num_bags - multi) + [2 + i % (spec.max_bag - 1) for i in range(multi)]
    na = round(_NA_SHARE * spec.num_bags)
    labels = [0] * na + [1 + i % (spec.num_relations - 1) for i in range(spec.num_bags - na)]
    sizes = rng.permutation(sizes)
    labels = rng.permutation(labels)
    lines = []
    for b in range(spec.num_bags):
        rel, size = names[int(labels[b])], int(sizes[b])
        head_tok, tail_tok = (int(t) for t in rank_to_id[np.searchsorted(cdf, rng.random(2))])
        for _ in range(size):
            n = int(rng.integers(spec.len_lo, spec.len_hi + 1))
            ids = rank_to_id[np.searchsorted(cdf, rng.random(n))]
            head_pos, tail_pos = (int(p) for p in rng.choice(n, size=2, replace=False))
            ids[head_pos], ids[tail_pos] = head_tok, tail_tok
            lines.append(json.dumps({
                "tokens": [f"w{int(t)}" for t in ids],
                "head": {"text": f"e{b}h", "position": head_pos},
                "tail": {"text": f"e{b}t", "position": tail_pos},
                "relation": rel,
            }))
    return lines


def write(spec: CorpusSpec, seed: int, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(generate(spec, seed)) + "\n")
    return path

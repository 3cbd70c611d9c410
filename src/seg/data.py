"""Datasets of sentence bags and a synthetic noisy-bag generator.

A bag groups every sentence that mentions one (head, tail, relation)
triple; the bag label is that relation. Word ids 0 and 1 are reserved for
unknown and padding tokens. Entities live in their own vocabulary but each
entity also appears in token sequences through an ordinary surface word,
so the token at an entity position is that entity's surface word id.

The generator is built so that label noise is controllable and measurable:
every relation owns a disjoint set of signature context tokens, entities
are typed by disjoint head/tail pools per relation, and a noisy bag keeps
its pair's true relation as the label while its sentences are written with
a different relation's signature tokens. The test split is always clean.
"""

from __future__ import annotations

import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError

logger = logging.getLogger(__name__)

UNK_ID = 0
PAD_ID = 1
NA_RELATION = "NA"

# Generator layout constants. Signatures are planted per sentence so that a
# bag's content relation is always linearly recoverable from token counts.
_SIG_PER_RELATION = 4
_SIG_PER_SENTENCE = 3
_MIN_FILLER = 6
_NA_SHARE = 0.25
_LEN_LO = 7
_LEN_HI = 12


@dataclass(frozen=True)
class SentenceExample:
    """One tokenized sentence with its entity mention positions."""

    tokens: tuple[int, ...]
    head_pos: int
    tail_pos: int
    head_id: int
    tail_id: int


@dataclass(frozen=True)
class Bag:
    sentences: tuple[SentenceExample, ...]
    label: int


@dataclass
class Dataset:
    bags: list[Bag]
    relation_names: list[str]
    word_vocab: dict[str, int]
    entity_vocab: dict[str, int]

    def __len__(self) -> int:
        return len(self.bags)


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the synthetic corpus. num_bags sizes the train split; the
    test split gets half as many (at least 4), clean and pair-disjoint."""

    num_relations: int = 8
    num_entities: int = 160
    vocab_size: int = 256
    num_bags: int = 240
    one_sentence_fraction: float = 0.8
    noise_rate: float = 0.35
    max_len: int = 120
    seed: int = 0


@dataclass
class _VocabLayout:
    words: list[str]
    entity_surface: list[int]          # entity id -> word id
    signature_ids: list[list[int]]     # relation id -> word ids
    filler_lo: int
    head_pools: list[list[int]]        # relation id -> entity ids
    tail_pools: list[list[int]]


def vocab_fingerprint(relation_names, word_vocab, entity_vocab) -> str:
    """Short stable digest of the label set and both vocabularies."""
    payload = json.dumps(
        [list(relation_names), sorted(word_vocab.items()), sorted(entity_vocab.items())],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def dataset_meta(ds: Dataset) -> dict:
    """What a checkpoint stores about its training data: labels, both
    vocabularies and their fingerprint."""
    return {
        "relation_names": ds.relation_names,
        "word_vocab": ds.word_vocab,
        "entity_vocab": ds.entity_vocab,
        "fingerprint": vocab_fingerprint(ds.relation_names, ds.word_vocab, ds.entity_vocab),
    }


def _split_counts(total: int, num_relations: int) -> list[int]:
    """Deterministic per-relation bag counts: a fixed NA share, the rest as
    even as possible with the remainder going to the lowest relation ids."""
    na = round(_NA_SHARE * total)
    rest, others = total - na, num_relations - 1
    base, extra = divmod(rest, others)
    return [na] + [base + (1 if r - 1 < extra else 0) for r in range(1, num_relations)]


def _pool_sizes(spec: SynthSpec) -> list[int]:
    """Sizes of the 2R round-robin entity groups (head/tail pool per relation)."""
    groups = 2 * spec.num_relations
    base, extra = divmod(spec.num_entities, groups)
    return [base + (1 if g < extra else 0) for g in range(groups)]


def num_test_bags(num_bags: int) -> int:
    return max(4, num_bags // 2)


def validate_spec(spec: SynthSpec) -> None:
    if spec.num_relations < 2:
        raise ValidationError("num_relations must be at least 2 (NA plus one relation)")
    if spec.num_bags < 1 or spec.num_entities < 1 or spec.vocab_size < 1:
        raise ValidationError("all synthetic counts must be positive")
    for name in ("one_sentence_fraction", "noise_rate"):
        v = getattr(spec, name)
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {v}")
    if spec.max_len < _LEN_LO + 1:
        raise ValidationError(
            f"max_len must be at least {_LEN_LO + 1} so entities and signature "
            f"tokens fit in one sentence"
        )
    need = 2 + spec.num_entities + spec.num_relations * _SIG_PER_RELATION + _MIN_FILLER
    if spec.vocab_size < need:
        raise ValidationError(
            "vocab_size too small to allocate disjoint relation signatures: "
            f"need at least {need}, got {spec.vocab_size}"
        )
    # Every bag gets a fresh entity pair, so per-relation demand across both
    # splits must fit within that relation's head-pool x tail-pool grid.
    sizes = _pool_sizes(spec)
    train_counts = _split_counts(spec.num_bags, spec.num_relations)
    test_counts = _split_counts(num_test_bags(spec.num_bags), spec.num_relations)
    for r in range(spec.num_relations):
        demand = train_counts[r] + test_counts[r]
        capacity = sizes[2 * r] * sizes[2 * r + 1]
        if demand > capacity:
            raise ValidationError(
                f"num_entities too small for unique entity pairs: relation {r} "
                f"needs {demand} pairs but its pools offer {capacity}; "
                f"raise num_entities or lower num_bags"
            )


def _build_layout(spec: SynthSpec) -> _VocabLayout:
    words = ["<unk>", "<pad>"]
    entity_surface = []
    for k in range(spec.num_entities):
        entity_surface.append(len(words))
        words.append(f"ent{k}")
    signature_ids: list[list[int]] = []
    for r in range(spec.num_relations):
        ids = []
        for j in range(_SIG_PER_RELATION):
            ids.append(len(words))
            words.append(f"sig{r}_{j}")
        signature_ids.append(ids)
    filler_lo = len(words)
    j = 0
    while len(words) < spec.vocab_size:
        words.append(f"tok{j}")
        j += 1

    # Contiguous chunks of the entity range become per-relation head and
    # tail pools; relation 0 (NA) gets its own pools like any other.
    groups: list[list[int]] = [[] for _ in range(2 * spec.num_relations)]
    for e in range(spec.num_entities):
        groups[e % (2 * spec.num_relations)].append(e)
    head_pools = [groups[2 * r] for r in range(spec.num_relations)]
    tail_pools = [groups[2 * r + 1] for r in range(spec.num_relations)]
    return _VocabLayout(words, entity_surface, signature_ids, filler_lo, head_pools, tail_pools)


def _make_sentence(rng, spec, layout, head_ent, tail_ent, content_rel) -> SentenceExample:
    hi = min(_LEN_HI, spec.max_len)
    n = int(rng.integers(_LEN_LO, hi + 1))
    order = rng.permutation(n)
    head_pos, tail_pos = int(order[0]), int(order[1])
    sig_slots = [int(p) for p in order[2:2 + _SIG_PER_SENTENCE]]
    tokens = rng.integers(layout.filler_lo, spec.vocab_size, size=n).tolist()
    sig_ids = layout.signature_ids[content_rel]
    for p in sig_slots:
        tokens[p] = sig_ids[int(rng.integers(0, len(sig_ids)))]
    tokens[head_pos] = layout.entity_surface[head_ent]
    tokens[tail_pos] = layout.entity_surface[tail_ent]
    return SentenceExample(
        tokens=tuple(int(t) for t in tokens),
        head_pos=head_pos,
        tail_pos=tail_pos,
        head_id=head_ent,
        tail_id=tail_ent,
    )


def _make_bag(rng, spec, layout, r, pair_queues, with_noise):
    head, tail = pair_queues[r].pop()
    size = 1 if rng.random() < spec.one_sentence_fraction else int(rng.integers(2, 6))
    noisy = bool(with_noise and rng.random() < spec.noise_rate)
    content = r
    if noisy:
        others = [q for q in range(spec.num_relations) if q != r]
        content = others[int(rng.integers(0, len(others)))]
    sentences = tuple(
        _make_sentence(rng, spec, layout, head, tail, content) for _ in range(size)
    )
    return Bag(sentences, r), noisy, content


def generate_synthetic_with_manifest(spec: SynthSpec):
    """Generate (train, test, manifest); the manifest records ground-truth
    noise flags for diagnostics and is never consumed by training."""
    validate_spec(spec)
    layout = _build_layout(spec)
    rng = np.random.default_rng(spec.seed)
    relation_names = [NA_RELATION] + [f"R{r}" for r in range(1, spec.num_relations)]
    word_vocab = {w: i for i, w in enumerate(layout.words)}
    entity_vocab = {f"ent{k}": k for k in range(spec.num_entities)}

    # Per-relation queues of unused (head, tail) pairs, shuffled once. Bags
    # pop from them, so pairs are unique and the splits are disjoint.
    pair_queues = []
    for r in range(spec.num_relations):
        grid = [(h, t) for h in layout.head_pools[r] for t in layout.tail_pools[r]]
        order = rng.permutation(len(grid))
        pair_queues.append([grid[i] for i in order])

    def label_sequence(total: int) -> list[int]:
        counts = _split_counts(total, spec.num_relations)
        labels = [r for r, c in enumerate(counts) for _ in range(c)]
        return [labels[i] for i in rng.permutation(total)]

    train_bags, noise_flags, content_rels = [], [], []
    for r in label_sequence(spec.num_bags):
        bag, noisy, content = _make_bag(rng, spec, layout, r, pair_queues, with_noise=True)
        train_bags.append(bag)
        noise_flags.append(noisy)
        content_rels.append(relation_names[content])

    test_bags = []
    for r in label_sequence(num_test_bags(spec.num_bags)):
        bag, _, _ = _make_bag(rng, spec, layout, r, pair_queues, with_noise=False)
        test_bags.append(bag)

    train = Dataset(train_bags, list(relation_names), dict(word_vocab), dict(entity_vocab))
    test = Dataset(test_bags, list(relation_names), dict(word_vocab), dict(entity_vocab))
    manifest = {
        "spec": asdict(spec),
        "relation_names": relation_names,
        "train_noise_flags": noise_flags,
        "train_content_relations": content_rels,
        "signature_tokens": {
            relation_names[r]: [layout.words[i] for i in layout.signature_ids[r]]
            for r in range(spec.num_relations)
        },
        "fingerprint": vocab_fingerprint(relation_names, word_vocab, entity_vocab),
    }
    return train, test, manifest


def generate_synthetic(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    train, test, _ = generate_synthetic_with_manifest(spec)
    return train, test


def filter_one_sentence(ds: Dataset) -> Dataset:
    return Dataset(
        [b for b in ds.bags if len(b.sentences) == 1],
        list(ds.relation_names),
        dict(ds.word_vocab),
        dict(ds.entity_vocab),
    )


def _require(cond: bool, lineno: int, msg: str) -> None:
    if not cond:
        raise DataError(f"line {lineno}: {msg}")


@contextmanager
def open_text(path: Path, what: str):
    """Open a UTF-8 text file for reading; a byte that does not decode, met
    anywhere in the ``with`` body, becomes a DataError naming the file."""
    with path.open(encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise DataError(f"{what} {path} is not UTF-8 text: {e}") from None


# The field annotations (such as "int" or "float | None") that each JSON value
# type fits: an int fits a float field, a bool fits only a bool field.
_FITS = {type(None): {"None"}, bool: {"bool"}, int: {"int", "float"}, float: {"float"},
         str: {"str"}}


def check_json_fields(obj, types: dict[str, str], where: str) -> None:
    """Check a JSON object read from a file: every key is one of ``types``,
    which maps names to annotation strings, and every value fits its type."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must hold a JSON object")
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise ValidationError(f"{where} has unknown keys: {', '.join(unknown)}; "
                              f"known keys: {', '.join(sorted(types))}")
    for key, value in obj.items():
        if _FITS.get(type(value), set()).isdisjoint(types[key].split(" | ")):
            raise ValidationError(f"{where}: {key} must be {types[key]}, got {value!r}")


def load_jsonl(
    path,
    relation_names: list[str] | None = None,
    word_vocab: dict[str, int] | None = None,
    entity_vocab: dict[str, int] | None = None,
    max_len: int = 120,
    bag_cap: int = 20,
) -> Dataset:
    """Load a JSONL corpus and group sentences into bags.

    Each line holds tokens, head and tail mentions with positions, and a
    relation string. When a relation table or vocabularies are passed in,
    they are treated as fixed: unknown relations are an error and unknown
    words map to the UNK id. Otherwise both are built from the file, words
    in first-encounter order. Bags are keyed by (head text, tail text,
    relation) and capped at ``bag_cap`` sentences.
    """
    for name, value in (("max_len", max_len), ("bag_cap", bag_cap)):
        if value < 1:
            raise ValidationError(f"{name} must be at least 1, got {value}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"corpus file not found: {path}")
    fixed_relations = relation_names is not None
    relations = list(relation_names) if fixed_relations else []
    fixed_words = word_vocab is not None
    words = dict(word_vocab) if fixed_words else {"<unk>": UNK_ID, "<pad>": PAD_ID}
    entities = dict(entity_vocab) if entity_vocab is not None else {}

    raw: list[tuple[tuple, SentenceExample]] = []
    seen_relations: list[str] = []
    dropped = 0
    with open_text(path, "corpus file") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"line {lineno}: malformed JSON: {e}") from None
            _require(isinstance(obj, dict), lineno, "expected a JSON object")
            tokens = obj.get("tokens")
            _require(
                isinstance(tokens, list) and tokens and all(isinstance(t, str) for t in tokens),
                lineno,
                "tokens must be a non-empty list of strings",
            )
            rel = obj.get("relation")
            _require(isinstance(rel, str) and rel != "", lineno, "relation must be a string")
            mentions = {}
            for side in ("head", "tail"):
                ent = obj.get(side)
                _require(isinstance(ent, dict), lineno, f"{side} must be an object")
                text, pos = ent.get("text"), ent.get("position")
                _require(isinstance(text, str) and text != "", lineno, f"{side}.text must be a string")
                _require(isinstance(pos, int) and not isinstance(pos, bool), lineno,
                         f"{side}.position must be an integer")
                _require(0 <= pos < len(tokens), lineno,
                         f"{side} position {pos} out of range for {len(tokens)} tokens")
                mentions[side] = (text, pos)
            _require(mentions["head"][1] != mentions["tail"][1], lineno,
                     "head and tail positions must differ")

            if fixed_relations:
                if rel not in relations:
                    raise DataError(
                        f"line {lineno}: unknown relation {rel!r}; known relations: "
                        + ", ".join(relations)
                    )
            elif rel not in seen_relations:
                seen_relations.append(rel)

            if len(tokens) > max_len:
                if mentions["head"][1] >= max_len or mentions["tail"][1] >= max_len:
                    dropped += 1
                    continue
                tokens = tokens[:max_len]

            ids = []
            for t in tokens:
                if t not in words:
                    if fixed_words:
                        ids.append(UNK_ID)
                        continue
                    words[t] = len(words)
                ids.append(words[t])
            for text, _ in mentions.values():
                if text not in entities:
                    entities[text] = len(entities)

            key = (mentions["head"][0], mentions["tail"][0], rel)
            raw.append((key, SentenceExample(
                tokens=tuple(ids),
                head_pos=mentions["head"][1],
                tail_pos=mentions["tail"][1],
                head_id=entities[mentions["head"][0]],
                tail_id=entities[mentions["tail"][0]],
            )))

    if dropped:
        logger.warning("dropped %d sentence(s) with an entity position beyond max_len=%d",
                       dropped, max_len)
    if not fixed_relations:
        others = sorted(r for r in seen_relations if r != NA_RELATION)
        relations = [NA_RELATION] + others

    grouped: dict[tuple, list[SentenceExample]] = {}
    order: list[tuple] = []
    for key, sent in raw:
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(sent)

    overflow = 0
    bags = []
    for key in order:
        sents = grouped[key]
        if len(sents) > bag_cap:
            overflow += len(sents) - bag_cap
            sents = sents[:bag_cap]
        bags.append(Bag(tuple(sents), relations.index(key[2])))
    if overflow:
        logger.warning("truncated %d sentence(s) beyond the per-bag cap of %d", overflow, bag_cap)

    return Dataset(bags, relations, words, entities)


def save_jsonl(ds: Dataset, path) -> None:
    """Write one line per sentence; bag structure is recoverable by grouping."""
    id2word = {i: w for w, i in ds.word_vocab.items()}
    id2ent = {i: e for e, i in ds.entity_vocab.items()}
    path = Path(path)
    with path.open("w") as fh:
        for bag in ds.bags:
            rel = ds.relation_names[bag.label]
            for s in bag.sentences:
                obj = {
                    "tokens": [id2word[t] for t in s.tokens],
                    "head": {"text": id2ent[s.head_id], "position": s.head_pos},
                    "tail": {"text": id2ent[s.tail_id], "position": s.tail_pos},
                    "relation": rel,
                }
                fh.write(json.dumps(obj) + "\n")

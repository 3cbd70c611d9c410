"""Model assembly: configuration, parameters, bag forward pass, and loss.

One model instance is a named variant of the same family. The full variant
embeds each sentence with the entity-aware gated mix, encodes it twice in
parallel (piecewise convolution for the feature vector, self-attention for
the gate summary), aggregates the bag through the selective gate, and
classifies with a one-hidden-layer MLP. Ablation variants drop or replace
individual pieces; ``VARIANT_WIRING`` is the one table of which pieces each
variant wires:

  seg                  full model
  seg_wo_ent           positional embedding only, no entity-aware mix
  seg_wo_gate          mean of [s_j; u_j] instead of the gate
  seg_wo_gate_wo_attn  mean of s_j alone
  seg_wo_all           positional embedding + convolution + selective attention
  seg_attn_wo_gate     selective attention directly over s_j
  seg_attn             selective attention over gated vectors g_j * s_j
  seg_stack            attention reweights columns before the convolution

Parameters live in a flat registry (name, tensor) in a fixed order; the
optimizer, the L2 penalty, and the checkpoint format all walk that registry.
Each tensor takes its values from one init source: an ``init(name, shape)``
callback asked in registry order (a checkpoint load, the gradcheck point),
or else its own stream derived from the model seed and its registry name,
so two variants that share a tensor name and shape start from identical
values under the same seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import zlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .aggregation import (
    SelectiveAttnParams,
    SelectiveGateParams,
    concat_aggregate,
    gate_aggregate,
    gate_plus_attention_aggregate,
    gate_values,
    mean_vectors,
    selective_attention_aggregate,
)
from .data import Bag, SentenceExample, check_json_fields
from .embedding import (
    EmbeddingTables,
    EntityAwareGateParams,
    SentencePack,
    embed_entity_concat,
    embed_positional,
    entity_aware_embed,
    pack_bags,
)
from .encoders import PcnnParams, SelfAttnParams, pcnn_encode, self_attn_encode, stacked_encode
from .errors import DataError, ValidationError
from .numerics import Tensor


class Wiring(NamedTuple):
    """The pieces one variant wires together."""

    entity_mix: bool      # entity-aware gated mix; else the positional view alone
    self_attn: bool       # self-attention summary u_j per sentence
    gate: bool            # selective gate g_j from u_j
    selective_attn: bool  # relation-query attention over the bag
    stacked: bool         # self-attention reweights columns before the convolution


VARIANT_WIRING = {
    #                      entity_mix self_attn gate   selective_attn stacked
    "seg":                 Wiring(True,  True,  True,  False, False),
    "seg_wo_ent":          Wiring(False, True,  True,  False, False),
    "seg_wo_gate":         Wiring(True,  True,  False, False, False),
    "seg_wo_gate_wo_attn": Wiring(True,  False, False, False, False),
    "seg_wo_all":          Wiring(False, False, False, True,  False),
    "seg_attn_wo_gate":    Wiring(True,  False, False, True,  False),
    "seg_attn":            Wiring(True,  True,  True,  True,  False),
    "seg_stack":           Wiring(True,  True,  True,  False, True),
}
VARIANTS = tuple(VARIANT_WIRING)


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and switches for one model instance."""

    word_dim: int = 50
    pos_dim: int = 5
    conv_channels: int = 230
    embed_dim: int = 150
    kernel_width: int = 3
    pos_clip: int = 30
    num_relations: int = 53
    gate_smoothing: float = 1.0
    l2_coef: float = 1e-5
    dropout_p: float = 0.5
    cls_hidden: int = 690
    variant: str = "seg"
    scalar_gate: bool = False
    seed: int = 0

    @property
    def pos_view_dim(self) -> int:
        return self.word_dim + 2 * self.pos_dim

    @property
    def wiring(self) -> Wiring:
        return VARIANT_WIRING[self.variant]

    @property
    def encoder_input_dim(self) -> int:
        return self.embed_dim if self.wiring.entity_mix else self.pos_view_dim

    @property
    def feat_dim(self) -> int:
        return 3 * self.conv_channels

    @property
    def aggregate_dim(self) -> int:
        """Concat variants (self-attention without a gate) append u_j to s_j."""
        if self.wiring.self_attn and not self.wiring.gate:
            return self.feat_dim + self.encoder_input_dim
        return self.feat_dim


_CONFIG_TYPES = {f.name: f.type for f in fields(ModelConfig)}
_MANIFEST_KEYS = ("model_config", "vocab_size", "step", "registry", "crc32", "dataset")
_MANIFEST_INTS = {"vocab_size": "int", "step": "int", "crc32": "int"}


def validate_config(config: ModelConfig) -> None:
    if config.variant not in VARIANT_WIRING:
        raise ValidationError(
            f"unknown variant {config.variant!r}; expected one of: " + ", ".join(VARIANTS)
        )
    for name in ("word_dim", "pos_dim", "conv_channels", "embed_dim", "kernel_width",
                 "pos_clip", "num_relations", "cls_hidden"):
        if getattr(config, name) < 1:
            raise ValidationError(f"{name} must be positive")
    if config.num_relations < 2:
        raise ValidationError("num_relations must be at least 2 (NA plus one relation)")
    if config.kernel_width % 2 == 0:
        raise ValidationError(f"kernel_width must be odd, got {config.kernel_width}")
    for name in ("gate_smoothing", "l2_coef", "dropout_p"):
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    if not 0.0 <= config.dropout_p < 1.0:
        raise ValidationError(f"dropout_p must lie in [0, 1), got {config.dropout_p}")
    if config.l2_coef < 0.0:
        raise ValidationError(f"l2_coef must be non-negative, got {config.l2_coef}")
    if config.wiring.entity_mix and config.embed_dim != 3 * config.word_dim:
        raise ValidationError(
            "entity-aware variants need embed_dim == 3 * word_dim, got "
            f"embed_dim={config.embed_dim} with word_dim={config.word_dim}"
        )


def _rng_for(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode()).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    return np.random.default_rng([int(seed)] + [int(w) for w in words])


class SegParams:
    """All learnable tensors for one variant, plus the flat registry. Values
    come from ``init(name, shape)`` when given; else weights are drawn from
    their seeded streams and biases start at zero."""

    def __init__(self, config: ModelConfig, vocab_size: int, init=None):
        validate_config(config)
        if vocab_size < 2:
            raise ValidationError("vocab_size must cover at least the unk and pad ids")
        self.vocab_size = vocab_size
        self.registry: list[tuple[str, Tensor]] = []

        def weight(name: str, shape, drawn: bool = True) -> Tensor:
            if init is not None:
                values = init(name, shape)
            else:
                values = (_rng_for(config.seed, name).uniform(-0.1, 0.1, size=shape) if drawn
                          else np.zeros(shape))
            t = Tensor(values, requires_grad=True)
            self.registry.append((name, t))
            return t

        def bias(name: str, shape) -> Tensor:
            return weight(name, shape, drawn=False)

        d_w, d_r = config.word_dim, config.pos_dim
        d_in = config.encoder_input_dim
        d_c = config.conv_channels
        feat = config.feat_dim

        self.tables = EmbeddingTables(
            word=weight("embed.word", (vocab_size, d_w)),
            position=weight("embed.position", (2 * config.pos_clip + 1, d_r)),
            pos_clip=config.pos_clip,
        )
        self.entity_gate = None
        if config.wiring.entity_mix:
            self.entity_gate = EntityAwareGateParams(
                w_gate=weight("entity_gate.w_gate", (config.embed_dim, 3 * d_w)),
                b_gate=bias("entity_gate.b_gate", (config.embed_dim,)),
                w_proj=weight("entity_gate.w_proj", (config.embed_dim, config.pos_view_dim)),
                b_proj=bias("entity_gate.b_proj", (config.embed_dim,)),
                gate_smoothing=config.gate_smoothing,
            )
        self.pcnn = PcnnParams(
            kernel=weight("pcnn.kernel", (d_c, config.kernel_width, d_in)),
            bias=bias("pcnn.bias", (d_c,)),
        )
        self.self_attn = None
        if config.wiring.self_attn:
            self.self_attn = SelfAttnParams(
                w_hidden=weight("self_attn.w_hidden", (d_in, d_in)),
                b_hidden=bias("self_attn.b_hidden", (d_in,)),
                w_score=weight("self_attn.w_score", (d_in, d_in)),
            )
        self.gate = None
        if config.wiring.gate:
            self.gate = SelectiveGateParams(
                w_hidden=weight("gate.w_hidden", (d_in, d_in)),
                b_hidden=bias("gate.b_hidden", (d_in,)),
                w_out=weight("gate.w_out", (feat, d_in)),
                b_out=bias("gate.b_out", (feat,)),
            )
        self.selective_attn = None
        if config.wiring.selective_attn:
            self.selective_attn = SelectiveAttnParams(
                queries=weight("selective_attn.queries", (config.num_relations, feat)),
                bilinear=weight("selective_attn.bilinear", (feat, feat)),
            )
        self.cls_w_hidden = weight("cls.w_hidden", (config.cls_hidden, config.aggregate_dim))
        self.cls_b_hidden = bias("cls.b_hidden", (config.cls_hidden,))
        self.cls_w_out = weight("cls.w_out", (config.num_relations, config.cls_hidden))
        self.cls_b_out = bias("cls.b_out", (config.num_relations,))

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.registry]


@dataclass
class BagPrediction:
    """Per-relation probabilities plus the ranking confidence.

    ``probs`` always sums to 1. For gate variants ``confidence`` equals
    ``probs``. For selective-attention variants all relations attend in one
    pass: confidence[r] is the probability of r under relation r's own
    attention weights, and ``probs`` is the normalization of those
    confidences.
    """

    probs: np.ndarray
    predicted: int
    confidence: np.ndarray


def _encode(pack: SentencePack, params: SegParams, config: ModelConfig):
    """Encode a packed batch: sentence features (feat, S) and, for
    self-attention variants, attention summaries (d_in, S), else None."""
    words = nm.embedding_lookup(params.tables.word, pack.tokens)
    x = embed_positional(words, pack, params.tables)
    if config.wiring.entity_mix:
        x = entity_aware_embed(x, embed_entity_concat(words, pack, params.tables),
                               params.entity_gate)
    if config.wiring.stacked:
        return stacked_encode(x, pack.entities, pack.lengths, params.pcnn, params.self_attn)
    feats = pcnn_encode(x, pack.entities, pack.lengths, params.pcnn)
    if config.wiring.self_attn:
        return feats, self_attn_encode(x, params.self_attn, pack.lengths)
    return feats, None


def _aggregate(feats, summaries, pack: SentencePack, relation, params: SegParams,
               config: ModelConfig) -> Tensor:
    """The (agg, B) matrix of bag vectors. Attention variants attend bag b
    with relation[b], or with every relation when ``relation`` is None (see
    selective_attention_aggregate)."""
    wiring, sizes = config.wiring, pack.bag_sizes
    gates = gate_values(summaries, params.gate) if wiring.gate else None
    if wiring.selective_attn and wiring.gate:
        return gate_plus_attention_aggregate(feats, gates, relation, params.selective_attn,
                                             sizes, config.scalar_gate)
    if wiring.selective_attn:
        return selective_attention_aggregate(feats, relation, params.selective_attn, sizes)
    if wiring.gate:
        return gate_aggregate(feats, gates, config.scalar_gate, sizes)
    if wiring.self_attn:
        return concat_aggregate(feats, summaries, sizes)
    return mean_vectors(feats, sizes)


def _classify(c: Tensor, params: SegParams) -> Tensor:
    """Relation logits per column of a matrix of bag vectors."""
    hidden = nm.relu(nm.add(nm.matmul(params.cls_w_hidden, c), params.cls_b_hidden))
    return nm.add(nm.matmul(params.cls_w_out, hidden), params.cls_b_out)


# Token columns per eval chunk: at the paper's dimensions a chunk's largest
# buffers stay within a few MB.
_EVAL_COLUMNS = 1024


def _predict_chunk(bags, params: SegParams, config: ModelConfig) -> list[BagPrediction]:
    pack = pack_bags(bags)
    with nm.no_grad():
        feats, summaries = _encode(pack, params, config)
        c = _aggregate(feats, summaries, pack, None, params, config)
        if not config.wiring.selective_attn:
            dist = nm.softmax_over_axis(_classify(c, params), 0).data
            return [BagPrediction(probs=p, predicted=int(np.argmax(p)), confidence=p)
                    for p in dist.T.copy()]
        preds = []
        for per_relation in c:
            dist = nm.softmax_over_axis(_classify(per_relation, params), 0).data
            confidence = np.diagonal(dist).copy()
            total = confidence.sum()
            probs = (confidence / total if total > 0
                     else np.full_like(confidence, 1.0 / confidence.size))
            preds.append(BagPrediction(probs=probs, predicted=int(np.argmax(probs)),
                                       confidence=confidence))
    return preds


def forward_bags(bags, params: SegParams, config: ModelConfig) -> list[BagPrediction]:
    """Predict bags in eval mode, in order. Never records gradients.

    Bags are forwarded in packed chunks of about _EVAL_COLUMNS token
    columns: one pass per chunk through the encoders, the gate network, the
    aggregation and the classifier. The selective-attention variants let
    all relations attend in one pass per bag: the aggregate has one column
    per relation query, one classifier pass scores every column, and
    confidence[r] is column r's probability of r. probs is their
    normalization so it remains a distribution.
    """
    chunk_of = np.cumsum([sum(len(s.tokens) for s in bag.sentences) for bag in bags],
                         dtype=np.intp) // _EVAL_COLUMNS
    starts = [*np.flatnonzero(np.diff(chunk_of, prepend=-1)), len(bags)]
    return [pred for lo, hi in zip(starts, starts[1:])
            for pred in _predict_chunk(bags[lo:hi], params, config)]


def forward_bag(bag: Bag, params: SegParams, config: ModelConfig) -> BagPrediction:
    """Predict one bag in eval mode: a chunk of one bag."""
    return _predict_chunk([bag], params, config)[0]


def l2_penalty(params: SegParams) -> float:
    """Sum of squared entries over every registry tensor, without the
    coefficient. A plain number, not a tape record: training adds l2_coef
    times it to the loss it records, and applies its gradient as a decay."""
    with nm.no_grad():
        return nm.sum_of_squares(params.tensors()).item()


def loss(batch, params: SegParams, config: ModelConfig,
         train_mode: bool = True, rng=None) -> Tensor:
    """Mean negative log-likelihood of the gold labels, without the L2 term.

    The batch is packed: all its sentences' token columns form one matrix,
    so each layer is one tape record per batch, whatever the bag sizes.
    Embedding lookups, the entity mix, the convolution, the piecewise pool
    and self-attention run over all sentences at once; the gate network,
    the bag aggregation (attending bag b with its gold relation), dropout,
    the classifier and the NLL run over all bags at once. The dropout mask
    takes the draws of each bag vector dropped out in bag order. The gold
    probability is floored at 1e-12 so the loss stays finite for any finite
    parameters. The L2 term (``l2_penalty``) stays off the tape: training
    adds it to the loss it records and folds its gradient into the update.
    """
    if not batch:
        raise ValidationError("loss needs a non-empty batch")
    labels = [bag.label for bag in batch]
    bad = [y for y in labels if not 0 <= y < config.num_relations]
    if bad:
        raise DataError(f"bag label {bad[0]} out of range for {config.num_relations} relations")
    pack = pack_bags(batch)
    feats, summaries = _encode(pack, params, config)
    c = _aggregate(feats, summaries, pack, labels, params, config)
    if train_mode and config.dropout_p > 0.0:
        if rng is None:
            raise ValidationError("training forward with dropout needs a random generator")
        c = nm.dropout(c, config.dropout_p, rng)
    return nm.nll_columns(_classify(c, params), labels)


# ---------------------------------------------------------------------------
# Checkpoints: a JSON manifest next to a flat binary of the registry.
# ---------------------------------------------------------------------------

# v3 dropped self_attn.b_score from the registry.
_CKPT_FORMAT = "seg-checkpoint-v3"


def _ckpt_paths(path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == ".json":
        p = p.with_suffix("")
    return p.with_suffix(".json"), p.with_suffix(".bin")


def _replace_durably(path: Path, write) -> None:
    """Write a file through ``write(fh)`` into a temporary file beside
    ``path``, make it durable, then rename it over ``path``: a crash leaves
    either the old file or the new one, never a torn one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_checkpoint(path, params: SegParams, config: ModelConfig,
                    dataset_meta: dict, step: int) -> Path:
    """Write binary + manifest. The binary is each registry tensor's raw
    float64 data in registry order; the manifest holds the shapes and the
    binary's crc32. The manifest is written last, so it commits the pair."""
    man_path, bin_path = _ckpt_paths(path)
    tensors = [np.ascontiguousarray(t.data, dtype=np.float64) for _, t in params.registry]
    crc = 0
    for data in tensors:
        crc = zlib.crc32(data, crc)
    manifest = {
        "format": _CKPT_FORMAT,
        "model_config": asdict(config),
        "vocab_size": params.vocab_size,
        "step": int(step),
        "registry": [{"name": n, "shape": list(t.shape)} for n, t in params.registry],
        "crc32": crc,
        "dataset": dataset_meta,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    def write_tensors(fh) -> None:
        for data in tensors:
            data.tofile(fh)

    man_path.parent.mkdir(parents=True, exist_ok=True)
    _replace_durably(bin_path, write_tensors)
    _replace_durably(man_path, lambda fh: fh.write(text.encode()))
    return man_path


def load_checkpoint(path) -> tuple[SegParams, ModelConfig, dict]:
    """Read a checkpoint pair back; arrays round-trip bit-exactly."""
    man_path, bin_path = _ckpt_paths(path)
    if not man_path.exists() or not bin_path.exists():
        raise ValidationError(f"checkpoint not found: {man_path} / {bin_path}")
    try:
        manifest = json.loads(man_path.read_text(encoding="utf-8"))
    except ValueError as e:  # malformed JSON or bytes that are not UTF-8
        raise ValidationError(f"checkpoint manifest {man_path} is not valid JSON: {e}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _CKPT_FORMAT:
        raise ValidationError(f"unrecognized checkpoint format in {man_path}")
    where = f"checkpoint manifest {man_path}"
    missing = [k for k in _MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ValidationError(f"{where} lacks key(s) {', '.join(missing)}")
    check_json_fields(manifest["model_config"], _CONFIG_TYPES, f"{where} model_config")
    check_json_fields({k: manifest[k] for k in _MANIFEST_INTS}, _MANIFEST_INTS, where)
    config = ModelConfig(**manifest["model_config"])
    try:
        layout = [(r["name"], tuple(map(int, r["shape"]))) for r in manifest["registry"]]
        need = 8 * sum(math.prod(shape) for _, shape in layout)
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"{where} has a bad registry entry: {e!r}") from None
    size = bin_path.stat().st_size
    if size != need:
        problem = "is truncated" if size < need else "has trailing bytes"
        raise ValidationError(f"checkpoint binary {bin_path} {problem}: {size} bytes, "
                              f"the manifest's shapes need {need}")
    # One read per tensor, not one for the whole file: a single allocation
    # the size of the binary cannot reuse freed heap memory, and raised peak
    # RSS by ~40 MB at an 80k-word vocabulary.
    recorded, crc = iter(layout), 0
    with bin_path.open("rb") as fh:

        def stored(name: str, shape) -> np.ndarray:
            nonlocal crc
            rec_name, rec_shape = next(recorded, (None, None))
            if rec_name != name:
                raise ValidationError("checkpoint registry does not match the configured variant")
            if rec_shape != shape:
                raise ValidationError(f"checkpoint tensor {name} has shape {rec_shape}, "
                                      f"expected {shape}")
            values = np.fromfile(fh, dtype=np.float64, count=math.prod(shape))
            crc = zlib.crc32(values, crc)
            return values.reshape(shape)

        params = SegParams(config, manifest["vocab_size"], init=stored)
    if next(recorded, None) is not None:
        raise ValidationError("checkpoint registry does not match the configured variant")
    if crc != manifest["crc32"]:
        raise ValidationError(f"checkpoint binary {bin_path} does not belong to {man_path}: "
                              "its crc32 differs from the manifest's")
    return params, config, manifest


# ---------------------------------------------------------------------------
# Gradient-check harness over a bite-sized setup.
# ---------------------------------------------------------------------------

TINY_CONFIG = ModelConfig(
    word_dim=3,
    pos_dim=2,
    conv_channels=4,
    embed_dim=9,
    kernel_width=3,
    pos_clip=5,
    num_relations=5,
    gate_smoothing=1.0,
    l2_coef=0.01,
    dropout_p=0.0,
    cls_hidden=6,
    variant="seg",
    scalar_gate=False,
    seed=7,
)
_TINY_VOCAB = 12


def tiny_bags(num_relations: int, vocab_size: int, seed: int = 7) -> list[Bag]:
    """A deterministic three-bag batch with sizes 1, 2, and 3."""
    rng = np.random.default_rng([seed, 977])
    bags = []
    labels = [2, 0, num_relations - 1]
    for size, label in zip((1, 2, 3), labels):
        sents = []
        for _ in range(size):
            n = int(rng.integers(5, 8))
            toks = rng.integers(0, vocab_size, size=n)
            pos = rng.permutation(n)[:2]
            sents.append(SentenceExample(
                tokens=tuple(int(t) for t in toks),
                head_pos=int(pos[0]),
                tail_pos=int(pos[1]),
                head_id=0,
                tail_id=1,
            ))
        bags.append(Bag(tuple(sents), label))
    return bags


def run_gradcheck(variant: str, eps: float = 1e-5, tol: float = 1e-4,
                  seed: int = 2) -> nm.GradCheckReport:
    """Finite-difference check of the full training objective for a variant:
    the loss plus l2_coef times the sum of squares, here on the tape.

    TINY_CONFIG keeps dropout off: the objective must be a deterministic
    function of the parameters for finite differences to mean anything.
    Every tensor, biases included, is drawn at a generic point: the training
    init puts biases at exactly zero, which parks relu preactivations inside
    the finite-difference window and invalidates the comparison there.
    """
    config = replace(TINY_CONFIG, variant=variant, seed=seed)
    bags = tiny_bags(config.num_relations, _TINY_VOCAB, seed=seed)
    params = SegParams(config, _TINY_VOCAB, init=lambda name, shape: _rng_for(
        seed, "gradcheck." + name).uniform(-0.5, 0.5, size=shape))

    def objective():
        return nm.add(loss(bags, params, config, train_mode=False),
                      nm.scale(nm.sum_of_squares(params.tensors()), config.l2_coef))

    return nm.grad_check(objective, params.registry, eps=eps, tol=tol)

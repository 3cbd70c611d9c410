"""Model assembly: configuration, parameters, bag forward pass, and loss.

One model instance is a named variant of the same family. The full variant
embeds each sentence with the entity-aware gated mix, encodes it twice in
parallel (piecewise convolution for the feature vector, self-attention for
the gate summary), aggregates the bag through the selective gate, and
classifies with a one-hidden-layer MLP. Ablation variants drop or replace
individual pieces:

  seg                  full model
  seg_wo_ent           positional embedding only, no entity-aware mix
  seg_wo_gate          mean of [s_j; u_j] instead of the gate
  seg_wo_gate_wo_attn  mean of s_j alone
  seg_wo_all           positional embedding + convolution + selective attention
  seg_attn_wo_gate     selective attention directly over s_j
  seg_attn             selective attention over gated vectors g_j * s_j
  seg_stack            attention reweights columns before the convolution

Parameters live in a flat registry (name, tensor) in a fixed order; the
optimizer, the L2 term, and the checkpoint format all walk that registry.
Each tensor is initialized from its own stream derived from the model seed
and its registry name, so two variants that share a tensor name and shape
start from identical values under the same seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

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
from .data import Bag, Dataset, SentenceExample
from .embedding import (
    EmbeddingTables,
    EntityAwareGateParams,
    embed_entity_concat,
    embed_positional,
    entity_aware_embed,
)
from .encoders import PcnnParams, SelfAttnParams, pcnn_encode, self_attn_encode, stacked_encode
from .errors import DataError, ValidationError
from .numerics import Tensor

VARIANTS = (
    "seg",
    "seg_wo_ent",
    "seg_wo_gate",
    "seg_wo_gate_wo_attn",
    "seg_wo_all",
    "seg_attn_wo_gate",
    "seg_attn",
    "seg_stack",
)

_ENTITY_FREE = frozenset({"seg_wo_ent", "seg_wo_all"})
_GATED = frozenset({"seg", "seg_wo_ent", "seg_attn", "seg_stack"})
_SELF_ATTN = _GATED | {"seg_wo_gate"}
_SELECTIVE_ATTN = frozenset({"seg_wo_all", "seg_attn_wo_gate", "seg_attn"})


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
    def encoder_input_dim(self) -> int:
        return self.pos_view_dim if self.variant in _ENTITY_FREE else self.embed_dim

    @property
    def feat_dim(self) -> int:
        return 3 * self.conv_channels

    @property
    def uses_entity_mix(self) -> bool:
        return self.variant not in _ENTITY_FREE

    @property
    def uses_gate(self) -> bool:
        return self.variant in _GATED

    @property
    def uses_self_attn(self) -> bool:
        return self.variant in _SELF_ATTN

    @property
    def uses_selective_attn(self) -> bool:
        return self.variant in _SELECTIVE_ATTN

    @property
    def aggregate_dim(self) -> int:
        if self.variant == "seg_wo_gate":
            return self.feat_dim + self.encoder_input_dim
        return self.feat_dim


def validate_config(config: ModelConfig) -> None:
    if config.variant not in VARIANTS:
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
    if not 0.0 <= config.dropout_p < 1.0:
        raise ValidationError(f"dropout_p must lie in [0, 1), got {config.dropout_p}")
    if config.l2_coef < 0.0:
        raise ValidationError(f"l2_coef must be non-negative, got {config.l2_coef}")
    if config.uses_entity_mix and config.embed_dim != 3 * config.word_dim:
        raise ValidationError(
            "entity-aware variants need embed_dim == 3 * word_dim, got "
            f"embed_dim={config.embed_dim} with word_dim={config.word_dim}"
        )


def _rng_for(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode()).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    return np.random.default_rng([int(seed)] + [int(w) for w in words])


class SegParams:
    """All learnable tensors for one variant, plus the flat registry."""

    def __init__(self, config: ModelConfig, vocab_size: int):
        validate_config(config)
        if vocab_size < 2:
            raise ValidationError("vocab_size must cover at least the unk and pad ids")
        self.vocab_size = vocab_size
        self.registry: list[tuple[str, Tensor]] = []

        def weight(name: str, shape) -> Tensor:
            rng = _rng_for(config.seed, name)
            t = Tensor(rng.uniform(-0.1, 0.1, size=shape), requires_grad=True)
            self.registry.append((name, t))
            return t

        def bias(name: str, shape) -> Tensor:
            t = Tensor(np.zeros(shape), requires_grad=True)
            self.registry.append((name, t))
            return t

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
        if config.uses_entity_mix:
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
        if config.uses_self_attn:
            self.self_attn = SelfAttnParams(
                w_hidden=weight("self_attn.w_hidden", (d_in, d_in)),
                b_hidden=bias("self_attn.b_hidden", (d_in,)),
                w_score=weight("self_attn.w_score", (d_in, d_in)),
                b_score=bias("self_attn.b_score", (d_in,)),
            )
        self.gate = None
        if config.uses_gate:
            self.gate = SelectiveGateParams(
                w_hidden=weight("gate.w_hidden", (d_in, d_in)),
                b_hidden=bias("gate.b_hidden", (d_in,)),
                w_out=weight("gate.w_out", (feat, d_in)),
                b_out=bias("gate.b_out", (feat,)),
            )
        self.selective_attn = None
        if config.uses_selective_attn:
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
    ``probs``; for selective-attention variants each confidence entry comes
    from that relation's own attention pass, and ``probs`` is the
    normalization of those confidences.
    """

    probs: np.ndarray
    predicted: int
    confidence: np.ndarray


def _sentence_vectors(bag: Bag, params: SegParams, config: ModelConfig):
    """Encode every sentence: feature vectors S and attention summaries U."""
    feats, summaries = [], []
    for sent in bag.sentences:
        x_pos = embed_positional(sent, params.tables)
        if config.uses_entity_mix:
            x_ent = embed_entity_concat(sent, params.tables)
            x = entity_aware_embed(x_pos, x_ent, params.entity_gate)
        else:
            x = x_pos
        if config.variant == "seg_stack":
            s = stacked_encode(x, sent.head_pos, sent.tail_pos, params.pcnn, params.self_attn)
        else:
            s = pcnn_encode(x, sent.head_pos, sent.tail_pos, params.pcnn)
        feats.append(s)
        if config.uses_self_attn:
            summaries.append(self_attn_encode(x, params.self_attn))
    return feats, summaries


def _aggregate(feats, summaries, query, params: SegParams, config: ModelConfig) -> Tensor:
    v = config.variant
    if v in ("seg", "seg_wo_ent", "seg_stack"):
        gates = gate_values(summaries, params.gate)
        return gate_aggregate(feats, gates, config.scalar_gate)
    if v == "seg_wo_gate":
        return concat_aggregate(feats, summaries)
    if v == "seg_wo_gate_wo_attn":
        return mean_vectors(feats)
    if v in ("seg_wo_all", "seg_attn_wo_gate"):
        return selective_attention_aggregate(feats, query, params.selective_attn)
    if v == "seg_attn":
        gates = gate_values(summaries, params.gate)
        return gate_plus_attention_aggregate(
            feats, gates, query, params.selective_attn, config.scalar_gate
        )
    raise ValidationError(f"unknown variant {v!r}")


def _classify(c: Tensor, params: SegParams, config: ModelConfig, train_mode: bool, rng) -> Tensor:
    if train_mode and config.dropout_p > 0.0:
        if rng is None:
            raise ValidationError("training forward with dropout needs a random generator")
        c = nm.dropout(c, config.dropout_p, rng)
    hidden = nm.relu(nm.add(nm.matmul(params.cls_w_hidden, c), params.cls_b_hidden))
    logits = nm.add(nm.matmul(params.cls_w_out, hidden), params.cls_b_out)
    return nm.softmax_over_axis(logits, 0)


def _bag_distribution(bag: Bag, params: SegParams, config: ModelConfig,
                      train_mode: bool, rng) -> Tensor:
    """Training-path distribution; attention variants use the gold query."""
    feats, summaries = _sentence_vectors(bag, params, config)
    c = _aggregate(feats, summaries, bag.label, params, config)
    return _classify(c, params, config, train_mode, rng)


def forward_bag(bag: Bag, params: SegParams, config: ModelConfig,
                train_mode: bool = False, rng=None) -> BagPrediction:
    """Predict one bag. Never records gradients.

    In eval mode the selective-attention variants score each relation with
    its own query and report those softmax probabilities as confidence;
    probs is their normalization so it remains a distribution.
    """
    with nm.no_grad():
        if config.uses_selective_attn and not train_mode:
            feats, summaries = _sentence_vectors(bag, params, config)
            if config.variant == "seg_attn":
                gates = gate_values(summaries, params.gate)
                pool = [
                    nm.mul(
                        nm.scale(nm.sum_all(g), 1.0 / g.size) if config.scalar_gate else g,
                        s,
                    )
                    for g, s in zip(gates, feats)
                ]
            else:
                pool = feats
            confidence = np.empty(config.num_relations)
            for r in range(config.num_relations):
                c = selective_attention_aggregate(pool, r, params.selective_attn)
                dist = _classify(c, params, config, False, None)
                confidence[r] = dist.data[r]
            total = confidence.sum()
            probs = confidence / total if total > 0 else np.full_like(confidence,
                                                                      1.0 / confidence.size)
        else:
            probs = _bag_distribution(bag, params, config, train_mode, rng).data.copy()
            confidence = probs
    return BagPrediction(probs=probs, predicted=int(np.argmax(probs)), confidence=confidence)


def l2_penalty(params: SegParams) -> Tensor:
    return nm.sum_of_squares(params.tensors())


def loss(batch, params: SegParams, config: ModelConfig,
         train_mode: bool = True, rng=None) -> Tensor:
    """Mean negative log-likelihood of gold labels plus the L2 penalty.

    The log is floored at 1e-12 so the loss stays finite for any finite
    parameters. The L2 term covers every registry tensor and is not scaled
    by the batch size.
    """
    if not batch:
        raise ValidationError("loss needs a non-empty batch")
    total = None
    for bag in batch:
        if not 0 <= bag.label < config.num_relations:
            raise DataError(
                f"bag label {bag.label} out of range for {config.num_relations} relations"
            )
        dist = _bag_distribution(bag, params, config, train_mode, rng)
        ll = nm.log(nm.select_index(dist, bag.label), floor=1e-12)
        total = ll if total is None else nm.add(total, ll)
    out = nm.scale(total, -1.0 / len(batch))
    if config.l2_coef > 0.0:
        out = nm.add(out, nm.scale(l2_penalty(params), config.l2_coef))
    return out


# ---------------------------------------------------------------------------
# Checkpoints: a JSON manifest next to a flat binary of the registry.
# ---------------------------------------------------------------------------

_CKPT_FORMAT = "seg-checkpoint-v1"


def _ckpt_paths(path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == ".json":
        p = p.with_suffix("")
    return p.with_suffix(".json"), p.with_suffix(".bin")


def save_checkpoint(path, params: SegParams, config: ModelConfig,
                    dataset_meta: dict, step: int) -> Path:
    """Write manifest + binary. The binary stores each registry tensor in
    registry order as an int64 rank, int64 dims, then raw float64 data."""
    man_path, bin_path = _ckpt_paths(path)
    manifest = {
        "format": _CKPT_FORMAT,
        "model_config": asdict(config),
        "vocab_size": params.vocab_size,
        "step": int(step),
        "registry": [{"name": n, "shape": list(t.shape)} for n, t in params.registry],
        "dataset": dataset_meta,
    }
    man_path.parent.mkdir(parents=True, exist_ok=True)
    man_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with bin_path.open("wb") as fh:
        for _, t in params.registry:
            np.asarray([t.data.ndim], dtype=np.int64).tofile(fh)
            np.asarray(t.shape, dtype=np.int64).tofile(fh)
            np.ascontiguousarray(t.data, dtype=np.float64).tofile(fh)
    return man_path


def load_checkpoint(path) -> tuple[SegParams, ModelConfig, dict]:
    """Read a checkpoint pair back; arrays round-trip bit-exactly."""
    man_path, bin_path = _ckpt_paths(path)
    if not man_path.exists() or not bin_path.exists():
        raise ValidationError(f"checkpoint not found: {man_path} / {bin_path}")
    try:
        manifest = json.loads(man_path.read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"checkpoint manifest {man_path} is not valid JSON: {e}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _CKPT_FORMAT:
        raise ValidationError(f"unrecognized checkpoint format in {man_path}")
    try:
        config = ModelConfig(**manifest["model_config"])
        vocab_size, recorded, _ = manifest["vocab_size"], manifest["registry"], manifest["dataset"]
        recorded_names = [r["name"] for r in recorded]
    except KeyError as e:
        raise ValidationError(f"checkpoint manifest {man_path} lacks key {e}") from None
    except TypeError as e:
        raise ValidationError(f"checkpoint manifest {man_path} has a bad entry: {e}") from None
    params = SegParams(config, vocab_size)
    if [n for n, _ in params.registry] != recorded_names:
        raise ValidationError("checkpoint registry does not match the configured variant")
    with bin_path.open("rb") as fh:
        for (name, t), rec in zip(params.registry, recorded):
            rank = int(np.fromfile(fh, dtype=np.int64, count=1)[0])
            shape = tuple(int(d) for d in np.fromfile(fh, dtype=np.int64, count=rank))
            if shape != t.shape or list(shape) != list(rec["shape"]):
                raise ValidationError(
                    f"checkpoint tensor {name} has shape {shape}, expected {t.shape}"
                )
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            data = np.fromfile(fh, dtype=np.float64, count=count)
            if data.size != count:
                raise ValidationError(f"checkpoint binary truncated at tensor {name}")
            t.data = data.reshape(shape)
        trailing = fh.read(1)
        if trailing:
            raise ValidationError("checkpoint binary has trailing bytes")
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
    """Finite-difference check of the full training objective for a variant.

    Dropout must be off: the objective must be a deterministic function of
    the parameters for finite differences to mean anything. Every tensor,
    biases included, is re-drawn at a generic point: the training init puts
    biases at exactly zero, which parks relu preactivations inside the
    finite-difference window and invalidates the comparison there.
    """
    config = replace(TINY_CONFIG, variant=variant, seed=seed)
    if config.dropout_p != 0.0:
        raise ValidationError("gradient checking requires dropout_p == 0")
    bags = tiny_bags(config.num_relations, _TINY_VOCAB, seed=seed)
    params = SegParams(config, _TINY_VOCAB)
    for name, t in params.registry:
        rng = _rng_for(seed, "gradcheck." + name)
        t.data[...] = rng.uniform(-0.5, 0.5, size=t.shape)

    def objective():
        return loss(bags, params, config, train_mode=False)

    return nm.grad_check(objective, params.registry, eps=eps, tol=tol)


def dataset_accuracy(ds: Dataset, params: SegParams, config: ModelConfig) -> float:
    """Fraction of bags whose argmax prediction matches the gold label."""
    if not ds.bags:
        raise ValidationError("accuracy over an empty dataset is undefined")
    hits = sum(
        1 for bag in ds.bags if forward_bag(bag, params, config).predicted == bag.label
    )
    return hits / len(ds.bags)

"""Plain SGD training with step-decayed learning rate.

Every source of randomness is derived from two seeds: the data seed (bag
shuffling) and the model seed (initialization and dropout). Shuffling is a
pure function of (data seed, epoch) and dropout of (model seed, step), so
a run resumed from any step reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
# vocab_fingerprint stays importable from here: perfbench's tracer wraps
# seg.training.vocab_fingerprint.
from .data import Dataset, dataset_meta, vocab_fingerprint  # noqa: F401
from .errors import TrainingAbort, ValidationError
from .model import ModelConfig, SegParams, dataset_accuracy, loss, save_checkpoint

_SHUFFLE_STREAM = 11
_DROPOUT_STREAM = 23


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.1
    decay_every: int = 100_000
    decay_factor: float = 0.1
    max_steps: int = 3000
    batch_size: int = 32
    eval_every: int = 0           # 0 disables periodic accuracy/AUC rows
    checkpoint_dir: str | None = None
    seed: int = 0                 # data seed
    clip_norm: float | None = None


def validate_train_config(cfg: TrainConfig) -> None:
    if cfg.lr0 <= 0.0:
        raise ValidationError(f"lr0 must be positive, got {cfg.lr0}")
    if cfg.decay_every < 1:
        raise ValidationError("decay_every must be at least 1")
    if not 0.0 < cfg.decay_factor <= 1.0:
        raise ValidationError(f"decay_factor must lie in (0, 1], got {cfg.decay_factor}")
    if cfg.max_steps < 1:
        raise ValidationError("max_steps must be at least 1")
    if cfg.batch_size < 1:
        raise ValidationError("batch_size must be at least 1")
    if cfg.eval_every < 0:
        raise ValidationError("eval_every must be non-negative")
    if cfg.clip_norm is not None and cfg.clip_norm <= 0.0:
        raise ValidationError("clip_norm must be positive when set")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Piecewise-constant schedule: lr0 * decay_factor ** (step // decay_every)."""
    if step < 0:
        raise ValidationError(f"step must be non-negative, got {step}")
    return cfg.lr0 * cfg.decay_factor ** (step // cfg.decay_every)


def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, _SHUFFLE_STREAM, epoch]).permutation(n)


def _clip_gradients(params: SegParams, max_norm: float) -> None:
    total = 0.0
    for _, t in params.registry:
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for _, t in params.registry:
            if t.grad is not None:
                t.grad *= factor


def train(
    ds: Dataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    eval_ds: Dataset | None = None,
    params: SegParams | None = None,
    start_step: int = 0,
):
    """Run SGD from start_step to max_steps; returns (params, history).

    History holds one row per step: step, loss, lr, and at eval points the
    training accuracy and (when eval_ds is given) the test AUC. A non-finite
    loss aborts immediately, naming the step and the offending bag ids.
    """
    validate_train_config(train_config)
    if not ds.bags:
        raise ValidationError("cannot train on an empty dataset")
    if start_step < 0 or start_step >= train_config.max_steps:
        raise ValidationError(
            f"start_step {start_step} outside [0, {train_config.max_steps})"
        )
    if params is None:
        params = SegParams(model_config, len(ds.word_vocab))
    registry_size = len(params.registry)

    n = len(ds.bags)
    steps_per_epoch = math.ceil(n / train_config.batch_size)
    history: list[dict] = []
    perm_epoch = -1
    perm = None
    meta = None  # built on the first checkpoint: fingerprinting a large vocab is costly

    for step in range(start_step, train_config.max_steps):
        epoch, slot = divmod(step, steps_per_epoch)
        if epoch != perm_epoch:
            perm = _epoch_permutation(train_config.seed, epoch, n)
            perm_epoch = epoch
        lo = slot * train_config.batch_size
        idxs = perm[lo:lo + train_config.batch_size]
        batch = [ds.bags[i] for i in idxs]

        nm.clear_tape()
        nm.zero_grads(params.registry)
        rng = np.random.default_rng([model_config.seed, _DROPOUT_STREAM, step])
        objective = loss(batch, params, model_config, train_mode=True, rng=rng)
        value = objective.item()
        if not math.isfinite(value):
            nm.clear_tape()
            raise TrainingAbort(
                f"non-finite loss {value} at step {step} (bag ids {[int(i) for i in idxs]})"
            )
        nm.backward(objective)
        if train_config.clip_norm is not None:
            _clip_gradients(params, train_config.clip_norm)
        lr = lr_at(step, train_config)
        for _, t in params.registry:
            if t.grad is not None:
                t.data -= lr * t.grad
        nm.clear_tape()

        row = {"step": step, "loss": value, "lr": lr, "train_acc": None, "eval_auc": None}
        if train_config.eval_every and (step + 1) % train_config.eval_every == 0:
            row["train_acc"] = dataset_accuracy(ds, params, model_config)
            if eval_ds is not None:
                from .evaluation import dataset_auc

                row["eval_auc"] = dataset_auc(eval_ds, params, model_config)
            if train_config.checkpoint_dir:
                if meta is None:
                    meta = dataset_meta(ds)
                save_checkpoint(
                    Path(train_config.checkpoint_dir) / f"ckpt_step{step + 1}",
                    params, model_config, meta, step + 1,
                )
        history.append(row)

    if len(params.registry) != registry_size:
        raise TrainingAbort("parameter registry changed size during training")
    return params, history


def save_history_csv(history: list[dict], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "lr", "train_acc", "eval_auc"])
        for row in history:
            writer.writerow([
                row["step"],
                f"{row['loss']:.10g}",
                f"{row['lr']:.10g}",
                "" if row["train_acc"] is None else f"{row['train_acc']:.6f}",
                "" if row["eval_auc"] is None else f"{row['eval_auc']:.6f}",
            ])

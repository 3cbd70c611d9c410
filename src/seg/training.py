"""Plain SGD training with step-decayed learning rate and L2 as weight decay.

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
from .evaluation import accuracy, dataset_auc, predict_dataset
from .model import ModelConfig, SegParams, l2_penalty, loss, save_checkpoint

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
    for name in ("lr0", "decay_factor", "clip_norm"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
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


def _clip_factor(params: SegParams, max_norm: float, l2_coef: float) -> float:
    """The factor that scales the full gradient g + 2·l2·w, L2 term included,
    to norm max_norm; 1 when it is already within."""
    total = 0.0
    for _, t in params.registry:
        full = 2.0 * l2_coef * t.data if t.grad is None else t.grad + 2.0 * l2_coef * t.data
        total += float((full * full).sum())
    norm = math.sqrt(total)
    return max_norm / norm if norm > max_norm else 1.0


def _touched_rows(t: nm.Tensor):
    """The rows a table's step must update, or None to update it densely.

    A table whose gradient came only from lookups is zero outside the
    looked-up rows. A fancy-index update costs several times a dense one
    per row, so the rows pay only when they are few against the table's.
    Measured (one core, d=50 at 80k rows, d=12 below): 80k rows with 10k
    ids, 2.0 ms against 6.3 ms dense; 2k rows with 250 ids, 18 µs against
    12 µs; 258 rows with 32 ids, 5.7 µs against 2.4 µs. At one id in
    eight the large tables win and the small ones lose little. A batch of
    N tokens in S sentences looks up N + 2S word ids: 1.5k-2.8k per step
    at the benchmark's 80k-word, 32-bag training workload, so the row step
    holds there for batches about four times larger.
    """
    if t.rows is not None and 8 * t.rows.size <= t.shape[0]:
        return t.rows
    return None


def _sgd_step(params: SegParams, lr: float, l2_coef: float, factor: float) -> None:
    """w <- w - lr·factor·(g + 2·l2·w), as a decay pass and a gradient step.

    The decay touches every tensor once, in place; a table whose gradient
    came only from few lookups then steps only its looked-up rows. A
    repeated id writes the same value each time.
    """
    step = lr * factor
    decay = 1.0 - 2.0 * l2_coef * step
    for _, t in params.registry:
        if l2_coef > 0.0:
            t.data *= decay
        if t.grad is None:
            continue
        rows = _touched_rows(t)
        if rows is None:
            t.data -= step * t.grad
        else:
            t.data[rows] -= step * t.grad[rows]


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
    training accuracy and (when eval_ds is given) the test AUC. The loss is
    the batch NLL plus l2_coef times the L2 penalty; the penalty is not on
    the tape, and its gradient enters the update as a decay (see _sgd_step).
    With clip_norm set, the clipped norm covers the L2 gradient too. A
    non-finite loss aborts immediately, naming the step and the offending
    bag ids.
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
    l2_coef = model_config.l2_coef

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
        if l2_coef > 0.0:
            value += l2_coef * l2_penalty(params)
        if not math.isfinite(value):
            nm.clear_tape()
            raise TrainingAbort(
                f"non-finite loss {value} at step {step} (bag ids {[int(i) for i in idxs]})"
            )
        nm.backward(objective)
        factor = (1.0 if train_config.clip_norm is None
                  else _clip_factor(params, train_config.clip_norm, l2_coef))
        lr = lr_at(step, train_config)
        _sgd_step(params, lr, l2_coef, factor)

        row = {"step": step, "loss": value, "lr": lr, "train_acc": None, "eval_auc": None}
        if train_config.eval_every and (step + 1) % train_config.eval_every == 0:
            row["train_acc"] = accuracy(ds, predict_dataset(ds, params, model_config))
            if eval_ds is not None:
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

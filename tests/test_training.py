"""SGD loop: schedule values, determinism, resume equivalence, abort paths."""

import csv
from dataclasses import replace

import numpy as np
import pytest

import seg.numerics as nm
import seg.training
from seg.data import SynthSpec, generate_synthetic
from seg.errors import TrainingAbort, ValidationError
from seg.model import TINY_CONFIG, VARIANTS, ModelConfig, SegParams, loss
from seg.numerics import clear_tape
from seg.training import (
    TrainConfig,
    _epoch_permutation,
    _touched_rows,
    lr_at,
    save_history_csv,
    train,
    validate_train_config,
)

SPEC = SynthSpec(num_relations=4, num_entities=64, vocab_size=96, num_bags=24,
                 max_len=20, noise_rate=0.0, seed=5)
MODEL = replace(TINY_CONFIG, num_relations=4, dropout_p=0.0, l2_coef=1e-4)
QUICK = TrainConfig(lr0=0.05, max_steps=6, batch_size=8, seed=1)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SPEC)


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


def registry_arrays(params):
    return [t.data.copy() for _, t in params.registry]


# -- learning-rate schedule ----------------------------------------------------


def test_lr_schedule_decays_by_ten_at_hundred_thousand():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == 0.1
    assert lr_at(99_999, cfg) == 0.1
    assert abs(lr_at(100_000, cfg) - 0.01) < 1e-15
    assert abs(lr_at(200_000, cfg) - 0.001) < 1e-15


def test_lr_schedule_rejects_negative_step():
    with pytest.raises(ValidationError, match="non-negative"):
        lr_at(-1, TrainConfig())


def test_train_config_validation():
    bad = [
        dict(lr0=0.0),
        dict(decay_every=0),
        dict(decay_factor=0.0),
        dict(decay_factor=1.5),
        dict(max_steps=0),
        dict(batch_size=0),
        dict(eval_every=-1),
        dict(clip_norm=0.0),
    ]
    for kwargs in bad:
        with pytest.raises(ValidationError):
            validate_train_config(TrainConfig(**kwargs))
    validate_train_config(TrainConfig(decay_factor=1.0, clip_norm=5.0))


# -- optimization behavior ------------------------------------------------------


def test_training_reduces_loss(corpus):
    # The uniform small init spends the first few hundred steps on a plateau
    # before the embeddings differentiate; 800 steps is past the knee here.
    train_ds, _ = corpus
    model = ModelConfig(word_dim=12, pos_dim=4, conv_channels=16, embed_dim=36,
                        kernel_width=3, pos_clip=12, num_relations=4,
                        l2_coef=1e-4, dropout_p=0.0, cls_hidden=48, seed=0)
    params = SegParams(model, len(train_ds.word_vocab))
    start = loss(list(train_ds.bags), params, model, train_mode=False).item()
    clear_tape()
    params, history = train(
        train_ds, model,
        TrainConfig(lr0=0.1, max_steps=800, batch_size=8, seed=1),
        params=params,
    )
    assert len(history) == 800
    end = loss(list(train_ds.bags), params, model, train_mode=False).item()
    assert end < start - 0.3


def full_batch_oracle_step(train_ds, clip_norm):
    """A test-side dense step: w - lr·f·(g + 2·l2·w) per registry tensor,
    with f the clip factor of the full gradient's norm, or 1."""
    probe = SegParams(MODEL, len(train_ds.word_vocab))
    batch = [train_ds.bags[i] for i in _epoch_permutation(QUICK.seed, 0, len(train_ds.bags))]
    nm.backward(loss(batch, probe, MODEL, train_mode=True,
                     rng=np.random.default_rng([MODEL.seed, 23, 0])))
    full = [t.grad + 2.0 * MODEL.l2_coef * t.data for _, t in probe.registry]
    clear_tape()
    norm = np.sqrt(sum(float((g * g).sum()) for g in full))
    f = 1.0 if clip_norm is None or norm <= clip_norm else clip_norm / norm
    lr = lr_at(0, QUICK)
    return [t.data - lr * f * g for g, (_, t) in zip(full, probe.registry)], f


def assert_step_matches_oracle(train_ds, clip_norm):
    want, f = full_batch_oracle_step(train_ds, clip_norm)
    assert (f == 1.0) == (clip_norm is None)
    cfg = replace(QUICK, max_steps=1, batch_size=len(train_ds.bags), clip_norm=clip_norm)
    params, _ = train(train_ds, MODEL, cfg)
    for w, (name, t) in zip(want, params.registry):
        assert np.max(np.abs(t.data - w)) <= 1e-15 * np.max(np.abs(w)), name


def test_single_step_applies_lr_times_gradient(corpus):
    assert_step_matches_oracle(corpus[0], None)


def test_clipped_step_scales_the_full_gradient_l2_included(corpus):
    assert_step_matches_oracle(corpus[0], 1e-3)


def dense_oracle_run(ds, model, cfg):
    """The training loop with a test-side dense update w - lr·(g + 2·l2·w)
    and the L2 term added to each recorded loss."""
    params = SegParams(model, len(ds.word_vocab))
    n = len(ds.bags)
    per_epoch = -(-n // cfg.batch_size)
    losses = []
    for step in range(cfg.max_steps):
        epoch, slot = divmod(step, per_epoch)
        idxs = _epoch_permutation(cfg.seed, epoch, n)[slot * cfg.batch_size:][:cfg.batch_size]
        clear_tape()
        nm.zero_grads(params.registry)
        out = loss([ds.bags[i] for i in idxs], params, model, train_mode=True,
                   rng=np.random.default_rng([model.seed, 23, step]))
        squares = sum(float(np.dot(t.data.ravel(), t.data.ravel())) for _, t in params.registry)
        losses.append(out.item() + model.l2_coef * squares)
        nm.backward(out)
        lr = lr_at(step, cfg)
        for _, t in params.registry:
            g = 0.0 if t.grad is None else t.grad
            t.data -= lr * (g + 2.0 * model.l2_coef * t.data)
    clear_tape()
    return params, losses


ORACLE_MODEL = replace(MODEL, dropout_p=0.5, l2_coef=1e-3)


@pytest.mark.parametrize("vocab_size,row_path", [(8000, True), (96, False)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_200_steps_match_the_dense_oracle(variant, vocab_size, row_path, monkeypatch):
    # The large vocabulary steps the word table by its looked-up rows, the
    # small one densely; both must follow the dense update.
    ds, _ = generate_synthetic(replace(SPEC, vocab_size=vocab_size, num_bags=32))
    model = replace(ORACLE_MODEL, variant=variant)
    cfg = replace(QUICK, lr0=0.1, max_steps=200, batch_size=4)
    params = SegParams(model, len(ds.word_vocab))
    took_rows = []

    def spy(t):
        rows = _touched_rows(t)
        if t is params.tables.word:
            took_rows.append(rows is not None)
        return rows

    monkeypatch.setattr(seg.training, "_touched_rows", spy)
    params, history = train(ds, model, cfg, params=params)
    assert took_rows == [row_path] * cfg.max_steps
    want, want_losses = dense_oracle_run(ds, model, cfg)
    for row, w in zip(history, want_losses):
        assert abs(row["loss"] - w) <= 1e-12 * abs(w), row["step"]
    for (name, t), (_, w) in zip(params.registry, want.registry):
        assert np.max(np.abs(t.data - w.data)) <= 1e-12 * np.max(np.abs(w.data)), name


def test_history_lr_matches_schedule(corpus):
    train_ds, _ = corpus
    cfg = replace(QUICK, max_steps=7, decay_every=3, decay_factor=0.5)
    _, history = train(train_ds, MODEL, cfg)
    for row in history:
        assert row["lr"] == lr_at(row["step"], cfg)


# -- determinism and resume -----------------------------------------------------


def test_same_seeds_reproduce_bit_identical_runs(corpus):
    train_ds, _ = corpus
    a, hist_a = train(train_ds, MODEL, QUICK)
    b, hist_b = train(train_ds, MODEL, QUICK)
    for (_, ta), (_, tb) in zip(a.registry, b.registry):
        assert np.array_equal(ta.data, tb.data)
    assert [r["loss"] for r in hist_a] == [r["loss"] for r in hist_b]


def test_different_data_seed_changes_run(corpus):
    train_ds, _ = corpus
    a, _ = train(train_ds, MODEL, QUICK)
    b, _ = train(train_ds, MODEL, replace(QUICK, seed=2))
    assert any(
        not np.array_equal(ta.data, tb.data)
        for (_, ta), (_, tb) in zip(a.registry, b.registry)
    )


def test_chunked_resume_matches_straight_run(corpus):
    # Split at an epoch-interior step with dropout on, so the resumed chunk
    # must rebuild both the mid-epoch permutation slice and the per-step
    # dropout stream to agree.
    train_ds, _ = corpus
    model = replace(MODEL, dropout_p=0.5)
    cfg = replace(QUICK, max_steps=8)
    straight, hist = train(train_ds, model, cfg)

    first, hist_a = train(train_ds, model, replace(cfg, max_steps=5))
    resumed, hist_b = train(train_ds, model, cfg, params=first, start_step=5)
    for (_, ta), (_, tb) in zip(straight.registry, resumed.registry):
        assert np.array_equal(ta.data, tb.data)
    assert [r["loss"] for r in hist_a] + [r["loss"] for r in hist_b] == \
        [r["loss"] for r in hist]


def test_start_step_bounds(corpus):
    train_ds, _ = corpus
    with pytest.raises(ValidationError, match="start_step"):
        train(train_ds, MODEL, QUICK, start_step=QUICK.max_steps)
    with pytest.raises(ValidationError, match="start_step"):
        train(train_ds, MODEL, QUICK, start_step=-1)


def test_empty_dataset_rejected(corpus):
    from seg.data import Dataset

    train_ds, _ = corpus
    empty = Dataset(bags=[], relation_names=list(train_ds.relation_names),
                    word_vocab=dict(train_ds.word_vocab),
                    entity_vocab=dict(train_ds.entity_vocab))
    with pytest.raises(ValidationError, match="empty"):
        train(empty, MODEL, QUICK)


# -- abort and reporting -------------------------------------------------------


def test_non_finite_loss_aborts_with_step_and_bags(corpus):
    train_ds, _ = corpus
    params = SegParams(MODEL, len(train_ds.word_vocab))
    params.cls_w_hidden.data[...] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingAbort, match="step 0.*bag ids"):
            train(train_ds, MODEL, QUICK, params=params)


def test_periodic_eval_rows_and_checkpoints(corpus, tmp_path):
    train_ds, test_ds = corpus
    cfg = replace(QUICK, max_steps=4, eval_every=2, checkpoint_dir=str(tmp_path))
    _, history = train(train_ds, MODEL, cfg, eval_ds=test_ds)
    evaluated = [r for r in history if r["train_acc"] is not None]
    assert [r["step"] for r in evaluated] == [1, 3]
    for row in evaluated:
        assert 0.0 <= row["train_acc"] <= 1.0
        assert 0.0 <= row["eval_auc"] <= 1.0
    blank = [r for r in history if r["train_acc"] is None]
    assert all(r["eval_auc"] is None for r in blank)
    assert (tmp_path / "ckpt_step2.json").exists()
    assert (tmp_path / "ckpt_step4.bin").exists()


def test_history_csv_layout(tmp_path):
    history = [
        {"step": 0, "loss": 1.5, "lr": 0.1, "train_acc": None, "eval_auc": None},
        {"step": 1, "loss": 1.25, "lr": 0.1, "train_acc": 0.5, "eval_auc": 0.75},
    ]
    path = tmp_path / "sub" / "history.csv"
    save_history_csv(history, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss", "lr", "train_acc", "eval_auc"]
    assert rows[1] == ["0", "1.5", "0.1", "", ""]
    assert rows[2] == ["1", "1.25", "0.1", "0.500000", "0.750000"]


def test_gradient_clipping_bounds_update_norm(corpus):
    train_ds, _ = corpus
    clip = 1e-3
    base = SegParams(MODEL, len(train_ds.word_vocab))
    before = registry_arrays(base)
    cfg = replace(QUICK, max_steps=1, clip_norm=clip)
    params, history = train(train_ds, MODEL, cfg, params=base)
    lr = history[0]["lr"]
    total = sum(
        float(((t.data - prev) ** 2).sum())
        for prev, (_, t) in zip(before, params.registry)
    )
    assert np.sqrt(total) <= lr * clip + 1e-12

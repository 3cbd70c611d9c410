"""Acceptance checks, one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 and 7-8 are exact property checks. Criteria 4-6 are directional
synthetic experiments: a clean-data overfit smoke test, then paired-seed
comparisons of the full model against the attention-only baseline under
35% label noise. Runtime is dominated by criteria 4-6 (about 100 seconds in
total on a 2-core box, of a two-minute full suite); every criterion also
enforces its own wall-clock budget.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

pytestmark = pytest.mark.acceptance

import seg.numerics as nm
from seg.aggregation import (
    SelectiveAttnParams,
    SelectiveGateParams,
    gate_aggregate,
    gate_values,
    selective_attention_aggregate,
)
from seg.data import SynthSpec, generate_synthetic
from seg.encoders import SelfAttnParams, self_attn_encode
from seg.evaluation import (
    ScoredDecision,
    accuracy,
    build_eval_report,
    dataset_auc,
    p_at_n,
    pr_curve_and_auc,
    predict_dataset,
)
from seg.model import (
    TINY_CONFIG,
    VARIANTS,
    ModelConfig,
    SegParams,
    load_checkpoint,
    loss,
    run_gradcheck,
    save_checkpoint,
)
from seg.numerics import Tensor, backward, clear_tape, no_grad
from seg.training import TrainConfig, lr_at, train

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


# The experiment scale shared by criteria 4-6.
EXPERIMENT_MODEL = ModelConfig(
    word_dim=12, pos_dim=4, conv_channels=16, embed_dim=36, kernel_width=3,
    pos_clip=12, num_relations=8, gate_smoothing=1.0, l2_coef=1e-4,
    dropout_p=0.0, cls_hidden=48, variant="seg", scalar_gate=False, seed=0,
)


def experiment_spec(one_sentence_fraction: float, noise_rate: float, seed: int) -> SynthSpec:
    return SynthSpec(num_relations=8, num_entities=160, vocab_size=256,
                     num_bags=200, one_sentence_fraction=one_sentence_fraction,
                     noise_rate=noise_rate, max_len=30, seed=seed)


def paired_run(one_sentence_fraction: float, seed: int) -> dict:
    """Train seg and seg_wo_all on identical noisy data; return test metrics."""
    train_ds, test_ds = generate_synthetic(
        experiment_spec(one_sentence_fraction, 0.35, seed))
    results = {}
    for variant in ("seg", "seg_wo_all"):
        model = replace(EXPERIMENT_MODEL, variant=variant, seed=seed)
        cfg = TrainConfig(lr0=0.1, max_steps=2500, batch_size=16, seed=seed)
        params, _ = train(train_ds, model, cfg)
        results[variant] = (dataset_auc(test_ds, params, model),
                            accuracy(test_ds, predict_dataset(test_ds, params, model),
                                     non_na_only=True))
    return results


def test_criterion_1_gradient_correctness():
    # Exact tiny dimensions the check runs at, pinned here on purpose.
    assert (TINY_CONFIG.word_dim, TINY_CONFIG.pos_dim, TINY_CONFIG.conv_channels,
            TINY_CONFIG.embed_dim, TINY_CONFIG.num_relations) == (3, 2, 4, 9, 5)
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for variant in VARIANTS:
        report = run_gradcheck(variant, eps=1e-5, tol=1e-4)
        worst = max(worst, max(e.max_rel_err for e in report.entries))
        if not report.passed:
            failures.append(variant)
    elapsed = time.perf_counter() - t0
    ok = not failures and worst < 1e-4 and elapsed < 120.0
    announce(1, ok, f"8 variants, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert not failures, f"gradcheck failed for: {failures}"
    assert worst < 1e-4
    assert elapsed < 120.0


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()

    pool_bad = 0
    for _ in range(1000):
        d, n = int(rng.integers(1, 6)), int(rng.integers(1, 10))
        h = rng.standard_normal((d, n))
        if rng.random() < 0.3:
            h = np.round(h)  # integer grid forces ties
        p1, p2 = sorted(int(v) for v in rng.integers(0, n, size=2))
        with no_grad():
            got = nm.segment_max_pool(Tensor(h), (p1, p2)).data
        want = np.zeros((d, 3))
        for s, (lo, hi) in enumerate(((0, p1 + 1), (p1 + 1, p2 + 1), (p2 + 1, n))):
            for r in range(d):
                if hi > lo:
                    want[r, s] = max(h[r, lo:hi])
        pool_bad += not np.array_equal(got, want)

    attn_bad = 0
    for _ in range(1000):
        d, n = int(rng.integers(2, 7)), int(rng.integers(1, 9))
        x = rng.standard_normal((d, n))
        wh, bh = rng.standard_normal((d, d)), rng.standard_normal(d)
        ws, bs = rng.standard_normal((d, d)), rng.standard_normal(d)
        with no_grad():
            got = self_attn_encode(
                Tensor(x), SelfAttnParams(Tensor(wh), Tensor(bh),
                                          Tensor(ws), Tensor(bs))).data
        hidden = np.maximum(wh @ x + bh[:, None], 0.0)
        scores = ws @ hidden + bs[:, None]
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        attn_bad += not np.array_equal(got, (w * x).sum(axis=1))

    gate_bad = 0
    for _ in range(1000):
        d, m = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        ss = [rng.standard_normal(d) for _ in range(m)]
        gs = [rng.uniform(0, 1, d) for _ in range(m)]
        scalar = bool(rng.integers(0, 2))
        with no_grad():
            got = gate_aggregate([Tensor(s) for s in ss], [Tensor(g) for g in gs],
                                 scalar_gate=scalar).data
        terms = [(np.sum(g) * (1.0 / g.size) if scalar else g) * s
                 for s, g in zip(ss, gs)]
        acc = terms[0]
        for term in terms[1:]:
            acc = acc + term
        gate_bad += not np.array_equal(got, acc * (1.0 / m))

    sel_bad = 0
    for _ in range(1000):
        d, m = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        num_r = int(rng.integers(2, 6))
        ss = [rng.standard_normal(d) for _ in range(m)]
        queries = rng.standard_normal((num_r, d))
        bilinear = rng.standard_normal((d, d))
        r = int(rng.integers(0, num_r))
        with no_grad():
            got = selective_attention_aggregate(
                [Tensor(s) for s in ss], r,
                SelectiveAttnParams(Tensor(queries), Tensor(bilinear))).data
        target = bilinear @ queries[r]
        scores = np.array([np.sum(s * target) for s in ss])
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        acc = w[0] * ss[0]
        for j in range(1, m):
            acc = acc + w[j] * ss[j]
        sel_bad += not np.array_equal(got, acc)

    auc_worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        decisions = [
            ScoredDecision(bag_id=int(rng.integers(0, 12)),
                           relation=int(rng.integers(1, 5)),
                           score=float(rng.integers(0, 6)) / 5.0,
                           correct=bool(rng.integers(0, 2)))
            for _ in range(n)
        ]
        positives = int(rng.integers(1, 10))
        _, auc = pr_curve_and_auc(decisions, positives)
        order = sorted(decisions, key=lambda dn: (-dn.score, dn.bag_id, dn.relation))
        c = np.cumsum([dn.correct for dn in order])
        k = np.arange(1, len(order) + 1)
        recall = np.concatenate([[0.0], c / positives])
        precision = np.concatenate([[(c / k)[0]], c / k])
        auc_worst = max(auc_worst, abs(auc - float(_trapezoid(precision, recall))))

    elapsed = time.perf_counter() - t0
    exact_bad = pool_bad + attn_bad + gate_bad + sel_bad
    ok = exact_bad == 0 and auc_worst <= 1e-9 and elapsed < 60.0
    announce(2, ok, f"5 x 1000 instances, exact mismatches {exact_bad}, "
                    f"worst auc err {auc_worst:.1e}, {elapsed:.1f}s")
    assert pool_bad == 0 and attn_bad == 0 and gate_bad == 0 and sel_bad == 0
    assert auc_worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_3_one_sentence_degeneracy():
    rng = np.random.default_rng(33)
    d, d_u, num_r = 6, 6, 4
    deep_live = 0
    for _ in range(100):
        clear_tape()
        s = Tensor(rng.standard_normal(d), requires_grad=True)
        probe = Tensor(rng.standard_normal(d))

        attn = SelectiveAttnParams(
            queries=Tensor(rng.standard_normal((num_r, d)), requires_grad=True),
            bilinear=Tensor(rng.standard_normal((d, d)), requires_grad=True),
        )
        out = selective_attention_aggregate([s], int(rng.integers(0, num_r)), attn)
        backward(nm.sum_all(nm.mul(probe, out)))
        assert attn.queries.grad is not None and not attn.queries.grad.any()
        assert attn.bilinear.grad is not None and not attn.bilinear.grad.any()

        clear_tape()
        u = Tensor(rng.standard_normal(d_u), requires_grad=True)
        gate = SelectiveGateParams(
            w_hidden=Tensor(rng.uniform(-0.5, 0.5, (d_u, d_u)), requires_grad=True),
            b_hidden=Tensor(rng.uniform(-0.5, 0.5, d_u), requires_grad=True),
            w_out=Tensor(rng.uniform(-0.5, 0.5, (d, d_u)), requires_grad=True),
            b_out=Tensor(rng.uniform(-0.5, 0.5, d), requires_grad=True),
        )
        out = gate_aggregate([s], gate_values([u], gate))
        backward(nm.sum_all(nm.mul(probe, out)))
        # The sigmoid keeps the output bias live on every draw; the weight
        # matrices are live unless every relu unit happens to be off.
        assert gate.b_out.grad.any()
        deep_live += bool(gate.w_hidden.grad.any() and gate.w_out.grad.any())
    ok = deep_live >= 90
    announce(3, ok, f"100 instances: attention grads all exactly zero, "
                    f"gate output bias live 100/100, gate weights live "
                    f"{deep_live}/100")
    assert deep_live >= 90


def test_criterion_4_overfit_smoke():
    t0 = time.perf_counter()
    train_ds, _ = generate_synthetic(experiment_spec(0.8, 0.0, 0))
    assert len(train_ds.bags) == 200
    assert len(train_ds.relation_names) == 8
    model = replace(EXPERIMENT_MODEL, seed=0)
    params, _ = train(train_ds, model,
                      TrainConfig(lr0=0.1, max_steps=2500, batch_size=16, seed=0))
    acc = accuracy(train_ds, predict_dataset(train_ds, params, model))
    elapsed = time.perf_counter() - t0
    ok = acc >= 0.99 and elapsed < 600.0
    announce(4, ok, f"train accuracy {acc:.4f} after 2500 steps at lr 0.1, "
                    f"{elapsed:.0f}s")
    assert acc >= 0.99
    assert elapsed < 600.0


def test_criterion_5_noise_robustness():
    t0 = time.perf_counter()
    rows = [paired_run(1.0, seed) for seed in range(5)]
    auc_wins = sum(1 for r in rows if r["seg"][0] > r["seg_wo_all"][0])
    acc_wins = sum(1 for r in rows if r["seg"][1] > r["seg_wo_all"][1])
    mean = lambda v, i: sum(r[v][i] for r in rows) / len(rows)
    elapsed = time.perf_counter() - t0
    ok = auc_wins >= 4 and acc_wins >= 4 and elapsed < 3600.0
    announce(5, ok, f"one-sentence bags, 35% noise: auc wins {auc_wins}/5 "
                    f"(mean {mean('seg', 0):.3f} vs {mean('seg_wo_all', 0):.3f}), "
                    f"acc wins {acc_wins}/5 "
                    f"(mean {mean('seg', 1):.3f} vs {mean('seg_wo_all', 1):.3f}), "
                    f"{elapsed:.0f}s")
    assert auc_wins >= 4
    assert acc_wins >= 4
    assert mean("seg", 0) > mean("seg_wo_all", 0)
    assert mean("seg", 1) > mean("seg_wo_all", 1)
    assert elapsed < 3600.0


def test_criterion_6_ablation_ordering():
    t0 = time.perf_counter()
    rows = [paired_run(0.8, seed) for seed in range(5)]
    seg_mean = sum(r["seg"][0] for r in rows) / len(rows)
    base_mean = sum(r["seg_wo_all"][0] for r in rows) / len(rows)
    elapsed = time.perf_counter() - t0
    ok = seg_mean > base_mean and elapsed < 3600.0
    announce(6, ok, f"mixed bags, 35% noise: mean auc {seg_mean:.3f} vs "
                    f"{base_mean:.3f} over 5 paired seeds, {elapsed:.0f}s")
    assert seg_mean > base_mean
    assert elapsed < 3600.0


def test_criterion_7_determinism_and_persistence(tmp_path):
    spec = SynthSpec(num_relations=4, num_entities=64, vocab_size=96, num_bags=24,
                     one_sentence_fraction=0.5, noise_rate=0.2, max_len=20, seed=9)
    train_ds, test_ds = generate_synthetic(spec)
    model = replace(TINY_CONFIG, num_relations=4, dropout_p=0.5)
    cfg = TrainConfig(lr0=0.1, max_steps=10, batch_size=8, seed=3)

    params_a, hist_a = train(train_ds, model, cfg)
    params_b, hist_b = train(train_ds, model, cfg)
    retrain_ok = all(
        np.array_equal(ta.data, tb.data)
        for (_, ta), (_, tb) in zip(params_a.registry, params_b.registry)
    ) and [r["loss"] for r in hist_a] == [r["loss"] for r in hist_b]

    meta = {"fingerprint": "acceptance"}
    save_checkpoint(tmp_path / "a", params_a, model, meta, step=10)
    loaded, loaded_config, _ = load_checkpoint(tmp_path / "a")
    roundtrip_ok = loaded_config == model and all(
        np.array_equal(ta.data, tl.data)
        for (_, ta), (_, tl) in zip(params_a.registry, loaded.registry)
    )
    save_checkpoint(tmp_path / "b", loaded, loaded_config, meta, step=10)
    bytes_ok = (
        (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        and (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    )

    report_a = build_eval_report(test_ds, params_a, model, subsample_seed=1)
    report_b = build_eval_report(test_ds, loaded, loaded_config, subsample_seed=1)
    eval_ok = report_a.to_json_dict() == report_b.to_json_dict()

    ok = retrain_ok and roundtrip_ok and bytes_ok and eval_ok
    announce(7, ok, f"retrain bit-identical {retrain_ok}, checkpoint round-trip "
                    f"{roundtrip_ok}, resave bytes {bytes_ok}, eval identical {eval_ok}")
    assert retrain_ok
    assert roundtrip_ok
    assert bytes_ok
    assert eval_ok


def test_criterion_8_metric_unit_values():
    lr_ok = (lr_at(0, TrainConfig()) == 0.1
             and abs(lr_at(100_000, TrainConfig()) - 0.01) < 1e-15)

    config = replace(TINY_CONFIG, num_relations=53, l2_coef=0.0)
    params = SegParams(config, 12)
    params.cls_w_out.data[...] = 0.0
    params.cls_b_out.data[...] = 0.0
    from seg.model import tiny_bags
    value = loss(tiny_bags(53, 12), params, config, train_mode=False).item()
    nll_err = abs(value - math.log(53.0))

    flags = [False] * 300
    done = 0
    for start, cum in ((0, 94), (100, 178), (200, 255)):
        for i in range(start, start + cum - done):
            flags[i] = True
        done = cum
    decisions = [ScoredDecision(bag_id=i, relation=1, score=1000.0 - i,
                                correct=flags[i]) for i in range(300)]
    entry = p_at_n({"One": decisions})["One"]
    pn_ok = (entry["precision"] == {"100": 0.94, "200": 0.89, "300": 0.85}
             and abs(entry["mean"] - (0.94 + 0.89 + 0.85) / 3) < 1e-12
             and round(entry["mean"], 3) == 0.893)

    ok = lr_ok and nll_err < 1e-9 and pn_ok
    announce(8, ok, f"lr decay {lr_ok}, uniform nll err {nll_err:.1e}, "
                    f"p@n mean 0.893 {pn_ok}")
    assert lr_ok
    assert nll_err < 1e-9
    assert pn_ok

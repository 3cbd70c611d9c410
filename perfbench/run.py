#!/usr/bin/env python3
"""The seg benchmark: train and eval throughput, per-op latency, per-layer spans.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_paper_v80k --seed 1 --seconds 30 --trace 0

Each workload runs in its own process as a closed loop with one caller: the
next op starts when the previous one returned. An op is one ``train()`` call
of a single step, one bag scored by a report pass, or one ``forward_bag``
call. The two arms, ``seg`` and ``seg_wo_all``, take turns in half-second
slices. Every run first replays a fixed-seed probe and compares it with
``reference.json``; then it measures the seeded workload for ``--seconds``.
With ``--trace 1`` it runs the workload twice over the same ops, untraced
then traced, checks that both give bit-identical outputs, and reports the
per-layer metrics of the traced pass. The last line of standard output is
one JSON object; the lines before it describe the workload and the machine.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread leaves the second core of a
# two-core box to the harness and keeps timings comparable.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import corpus
from corpus import CorpusSpec
from tracing import ELEMENTWISE, PRIMS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
ARMS = ("seg", "seg_wo_all")
PROBE_SEED = 20191126
SETUP_REPEATS = 15
CHUNKS = 5
SLICE_S = 0.5

# Reference tolerance, relative to max(1, |reference|). Summing the batch
# loss in another order moves the probe losses by <= 5e-16; the subtlest
# wrong gradient tried (a sigmoid pull of s instead of s(1-s)) moves a
# small_pair_v256 loss by 1.2e-9 and the paper-dims losses by ~1e-7.
TOL = 1e-10

PAPER_DIMS = dict(word_dim=50, pos_dim=5, conv_channels=230, embed_dim=150, cls_hidden=690,
                  num_relations=53)


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict              # ModelConfig fields other than variant and seed
    batch: int
    train: CorpusSpec
    test: CorpusSpec
    timed: str               # the stage measured for --seconds: "train" or "eval"
    fixed_steps: int         # train steps per arm when eval is timed
    probe_train: CorpusSpec
    probe_test: CorpusSpec
    probe_steps: int         # train steps per arm in the probe


def _spec(bags, vocab, rel, multi, lo, hi):
    return CorpusSpec(num_bags=bags, vocab_size=vocab, num_relations=rel, multi_share=multi,
                      len_lo=lo, len_hi=hi)


# Why each workload exists is recorded in BENCHMARK.json and printed by each run.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train_paper_v80k",
            model=dict(PAPER_DIMS),
            batch=32,
            train=_spec(512, 80_000, 53, 0.2, 20, 60),
            test=_spec(16, 80_000, 53, 0.45, 20, 60),
            timed="train", fixed_steps=0,
            probe_train=_spec(96, 80_000, 53, 0.2, 20, 60),
            probe_test=_spec(8, 80_000, 53, 0.45, 20, 60),
            probe_steps=3,
        ),
        Workload(
            name="small_pair_v256",
            model=dict(word_dim=12, pos_dim=4, conv_channels=16, embed_dim=36, cls_hidden=48,
                       num_relations=8, dropout_p=0.0),
            batch=16,
            train=_spec(256, 256, 8, 0.2, 7, 12),
            test=_spec(64, 256, 8, 0.2, 7, 12),
            timed="train", fixed_steps=0,
            probe_train=_spec(64, 256, 8, 0.2, 7, 12),
            probe_test=_spec(32, 256, 8, 0.2, 7, 12),
            probe_steps=20,
        ),
        Workload(
            name="eval_paper_r53",
            model=dict(PAPER_DIMS),
            batch=32,
            train=_spec(96, 20_000, 53, 0.2, 20, 60),
            test=_spec(128, 20_000, 53, 0.45, 20, 60),
            timed="eval", fixed_steps=3,
            probe_train=_spec(96, 20_000, 53, 0.2, 20, 60),
            probe_test=_spec(16, 20_000, 53, 0.45, 20, 60),
            probe_steps=3,
        ),
    )
}

SMOKE_DIMS = dict(word_dim=4, pos_dim=2, conv_channels=4, embed_dim=12, cls_hidden=6)


def smoke(wl: Workload) -> Workload:
    """The same workload at a size that runs in seconds (for the tests)."""
    def shrink(spec: CorpusSpec, bags: int) -> CorpusSpec:
        return replace(spec, num_bags=bags, vocab_size=300, len_lo=5, len_hi=9)
    return replace(
        wl, model={**wl.model, **SMOKE_DIMS}, batch=4,
        train=shrink(wl.train, 16), test=shrink(wl.test, 6),
        fixed_steps=min(wl.fixed_steps, 2), probe_train=shrink(wl.probe_train, 8),
        probe_test=shrink(wl.probe_test, 4), probe_steps=2,
    )


def import_seg():
    """Import seg from this checkout's sources, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "seg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no seg sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import seg
    import seg.data
    import seg.evaluation
    import seg.model
    import seg.numerics
    import seg.training
    if not Path(seg.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported seg from {seg.__file__}, not from {src}")
    return seg


seg = None  # set in main()


@dataclass
class Arm:
    """What one variant did in one pass."""

    variant: str
    start: float = 0.0                             # when the timed stage started
    step_s: list = field(default_factory=list)     # (start, seconds) per train step
    losses: list = field(default_factory=list)
    rounds: int = 0
    report_s: list = field(default_factory=list)   # (start, seconds) per report pass
    report_bags: int = 0
    predict_s: list = field(default_factory=list)  # (start, seconds) per forward_bag call
    ref: dict = field(default_factory=dict)        # outputs compared with reference.json
    attempted: int = 0
    failed: int = 0
    digest: object = field(default_factory=hashlib.sha256)


@dataclass
class Pass:
    arms: dict
    seconds: float = 0.0
    sentences_loaded: int = 0
    schedules: dict = field(default_factory=dict)  # stage -> [(arm, ops)] as run


class Labels:
    """Phase and variant labels for the tracer; a no-op when untraced."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer

    def __call__(self, phase: str, variant: str = "-"):
        if self.tracer is not None:
            self.tracer.phase, self.tracer.variant = phase, variant


def model_config(wl: Workload, variant: str, seed: int):
    return seg.model.ModelConfig(**wl.model, variant=variant, seed=seed)


def dataset_meta(ds) -> dict:
    return {
        "relation_names": ds.relation_names,
        "word_vocab": ds.word_vocab,
        "entity_vocab": ds.entity_vocab,
        "fingerprint": seg.data.vocab_fingerprint(ds.relation_names, ds.word_vocab,
                                                  ds.entity_vocab),
    }


def load_corpus(path, vocab: dict, relations: list, entities: dict | None = None):
    return seg.data.load_jsonl(path, relation_names=relations, word_vocab=vocab,
                               entity_vocab=entities)


def conf_checksum(decisions, num_relations: int) -> float:
    """A position-weighted sum of every ranking score."""
    return math.fsum(d.score * (1.0 + ((d.bag_id * num_relations + d.relation) % 17) / 17.0)
                     for d in decisions)


def _finite_unit(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


class TrainArm:
    """One variant's training; an op is one ``train()`` call of one step."""

    def __init__(self, wl: Workload, arm: Arm, ds, params, cfg, seed: int):
        self.wl, self.arm, self.ds, self.cfg, self.seed = wl, arm, ds, cfg, seed
        self.params = params

    def op(self) -> bool:
        """Run one step; False once a step has raised."""
        arm, step = self.arm, len(self.arm.losses)
        tc = seg.training.TrainConfig(max_steps=step + 1, batch_size=self.wl.batch, seed=self.seed)
        arm.attempted += 1
        t0 = time.perf_counter()
        try:
            self.params, history = seg.training.train(self.ds, self.cfg, tc, params=self.params,
                                                      start_step=step)
        except Exception as exc:  # a failed op is counted and reported, and ends the arm
            print(f"perfbench: {arm.variant} step {step} raised {exc!r}")
            arm.failed += 1
            return False
        arm.step_s.append((t0, time.perf_counter() - t0))
        loss = history[-1]["loss"]
        arm.failed += not math.isfinite(loss)
        arm.losses.append(loss)
        arm.digest.update(np.float64(loss).tobytes())
        return True


class EvalArm:
    """One variant's evaluation; a round is one report pass as ``seg eval``
    runs it, then one direct forward_bag call per bag for latency."""

    def __init__(self, arm: Arm, ds, params, cfg):
        self.arm, self.ds, self.params, self.cfg = arm, ds, params, cfg

    def op(self) -> bool:
        arm, ds, params, cfg = self.arm, self.ds, self.params, self.cfg
        n_bags = len(ds.bags)
        arm.rounds += 1
        arm.attempted += 2 * n_bags
        t0 = time.perf_counter()
        try:
            report = seg.evaluation.build_eval_report(ds, params, cfg, subsample_seed=0)
            decisions = seg.evaluation.score_decisions(ds, params, cfg)
        except Exception as exc:
            print(f"perfbench: {arm.variant} report raised {exc!r}")
            arm.failed += 2 * n_bags
            return False
        arm.report_s.append((t0, time.perf_counter() - t0))
        arm.report_bags += n_bags
        if not _finite_unit(report.auc):
            arm.failed += n_bags
        else:
            arm.failed += len({d.bag_id for d in decisions if not _finite_unit(d.score)})
        arm.ref = {
            "auc": report.auc,
            "p_at_n": report.p_at_n,
            "conf_checksum": conf_checksum(decisions, cfg.num_relations),
        }
        arm.digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
        arm.digest.update(np.array([d.score for d in decisions]).tobytes())
        for bag in ds.bags:
            t0 = time.perf_counter()
            try:
                pred = seg.model.forward_bag(bag, params, cfg)
            except Exception as exc:
                print(f"perfbench: {arm.variant} forward_bag raised {exc!r}")
                arm.failed += 1
                continue
            arm.predict_s.append((t0, time.perf_counter() - t0))
            ok = (np.all(np.isfinite(pred.probs)) and abs(pred.probs.sum() - 1.0) < 1e-9
                  and all(_finite_unit(c) for c in pred.confidence))
            arm.failed += not ok
            arm.digest.update(pred.probs.tobytes())
            arm.digest.update(pred.confidence.tobytes())
        return True


def drive(runners: dict, label: Labels, phase: str, schedule=None, seconds=None,
          on_slice=None) -> list:
    """Run the arms' ops and return the schedule run, a list of (arm, ops).

    Either replay ``schedule``, or run for ``seconds`` shared evenly between
    the arms in slices of SLICE_S. Slicing exposes both arms to the same
    spells of host slowness; the arms share no state, so the order of their
    ops changes no output. ``on_slice(elapsed)`` runs after each slice, off
    the clock.
    """
    if schedule is not None:
        failed = set()
        for v, n in schedule:
            label(phase, v)
            for _ in range(n if v not in failed else 0):
                if not runners[v].op():
                    failed.add(v)
                    break
        return schedule
    done = []
    start = time.perf_counter()
    deadline = start + seconds
    used = dict.fromkeys(runners, 0.0)
    for runner in runners.values():
        runner.arm.start = start
    idle = set(runners)  # every arm gets at least one slice
    while used and ((now := time.perf_counter()) < deadline or idle & used.keys()):
        v = min(used, key=used.get)
        idle.discard(v)
        label(phase, v)
        end = min(now + SLICE_S, deadline)
        n = 1
        while runners[v].op():
            if time.perf_counter() >= end:
                used[v] += time.perf_counter() - now
                break
            n += 1
        else:
            del used[v]
        done.append((v, n))
        if on_slice is not None:
            paused = time.perf_counter()
            on_slice(paused - start)
            deadline += time.perf_counter() - paused
    return done


def run_pass(wl: Workload, files: dict, seed: int, work: Path, *, seconds=None, plan=None,
             tracer: Tracer | None = None, on_slice=None) -> Pass:
    """Train both arms, checkpoint them, load them back and evaluate them.

    The workload's timed stage runs for ``seconds``, or replays the
    schedules of ``plan`` (``Pass.schedules`` of an earlier pass); the other
    stage runs a fixed amount of work. ``on_slice`` is passed to ``drive``
    for the timed stage.
    """
    label = Labels(tracer)
    out = Pass({v: Arm(v) for v in ARMS})
    vocab = corpus.word_vocab(wl.train.vocab_size)
    relations = corpus.relation_names(wl.model["num_relations"])

    def amounts(stage: str, fixed: int):
        if plan is not None:
            return {"schedule": plan[stage]}
        if wl.timed == stage:
            return {"seconds": seconds, "on_slice": on_slice}
        return {"schedule": [(v, fixed) for v in ARMS]}

    t_start = time.perf_counter()
    label("setup")
    train_ds = load_corpus(files["train"], vocab, relations)
    out.sentences_loaded += sum(len(b.sentences) for b in train_ds.bags)
    trainers = {}
    for v, arm in out.arms.items():
        cfg = model_config(wl, v, seed)
        label("setup", v)
        params = seg.model.SegParams(cfg, len(train_ds.word_vocab))
        trainers[v] = TrainArm(wl, arm, train_ds, params, cfg, seed)
    out.schedules["train"] = drive(trainers, label, "train", **amounts("train", wl.fixed_steps))
    label("setup")
    for v, t in trainers.items():
        for _, tensor in t.params.registry:
            t.arm.digest.update(tensor.data.tobytes())
        seg.model.save_checkpoint(work / f"ckpt_{v}", t.params, t.cfg, dataset_meta(train_ds),
                                  len(t.arm.losses))
    del trainers

    test_ds, evaluators = None, {}
    for v, arm in out.arms.items():
        label("setup", v)
        params, cfg, manifest = seg.model.load_checkpoint(work / f"ckpt_{v}")
        if test_ds is None:
            meta = manifest["dataset"]
            test_ds = load_corpus(files["test"], meta["word_vocab"], meta["relation_names"],
                                  meta["entity_vocab"])
            out.sentences_loaded += sum(len(b.sentences) for b in test_ds.bags)
        evaluators[v] = EvalArm(arm, test_ds, params, cfg)
    out.schedules["eval"] = drive(evaluators, label, "eval", **amounts("eval", 1))
    label("setup")
    out.seconds = time.perf_counter() - t_start
    return out


def setup_once(wl: Workload, files: dict, work: Path, seed: int) -> float:
    """The timed stage's inputs: corpus loads plus param init or checkpoint load."""
    vocab = corpus.word_vocab(wl.train.vocab_size)
    relations = corpus.relation_names(wl.model["num_relations"])
    t0 = time.perf_counter()
    if wl.timed == "train":
        ds = load_corpus(files["train"], vocab, relations)
        load_corpus(files["test"], ds.word_vocab, ds.relation_names, ds.entity_vocab)
        for v in ARMS:
            seg.model.SegParams(model_config(wl, v, seed), len(ds.word_vocab))
    else:
        meta = None
        for v in ARMS:
            _, _, manifest = seg.model.load_checkpoint(work / f"ckpt_{v}")
            meta = manifest["dataset"]
        load_corpus(files["test"], meta["word_vocab"], meta["relation_names"],
                    meta["entity_vocab"])
    return time.perf_counter() - t0


def write_corpora(train: CorpusSpec, test: CorpusSpec, seed: int, where: Path) -> dict:
    return {"train": corpus.write(train, seed, where / "train.jsonl"),
            "test": corpus.write(test, seed + 1, where / "test.jsonl")}


# ---------------------------------------------------------------------------
# Probe: fixed inputs, compared with reference.json.
# ---------------------------------------------------------------------------


def probe(wl: Workload, work: Path) -> Pass:
    where = work / "probe"
    files = write_corpora(wl.probe_train, wl.probe_test, PROBE_SEED, where)
    plan = {"train": [(v, wl.probe_steps) for v in ARMS], "eval": [(v, 1) for v in ARMS]}
    return run_pass(wl, files, PROBE_SEED, where, plan=plan)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _p_at_n_close(got: dict, ref: dict) -> bool:
    if got.keys() != ref.keys():
        return False
    for mode, row in ref.items():
        if not _close(got[mode]["mean"], row["mean"]):
            return False
        if any(not _close(got[mode]["precision"].get(n), p)
               for n, p in row["precision"].items()):
            return False
        if got[mode]["counted"] != row["counted"]:
            return False
    return True


def check_probe(p: Pass, ref: dict) -> list[str]:
    """Count probe ops that miss their reference as failed; return the misses."""
    misses = []
    for v, arm in p.arms.items():
        want = ref[v]
        for i, (got, exp) in enumerate(zip(arm.losses, want["losses"])):
            if not _close(got, exp):
                misses.append(f"{v} step {i} loss {got!r} != {exp!r}")
                arm.failed += 1
        if len(arm.losses) != len(want["losses"]):
            misses.append(f"{v} ran {len(arm.losses)} probe steps, want {len(want['losses'])}")
        ok = (arm.ref and _close(arm.ref["auc"], want["auc"])
              and _close(arm.ref["conf_checksum"], want["conf_checksum"])
              and _p_at_n_close(arm.ref["p_at_n"], want["p_at_n"]))
        if not ok:
            misses.append(f"{v} report {arm.ref!r} misses reference")
            arm.failed += arm.report_bags * 2
    return misses


def probe_reference(p: Pass) -> dict:
    return {v: {"losses": arm.losses, **arm.ref} for v, arm in p.arms.items()}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def pct(values, q: int) -> float:
    """The q-th percentile (inclusive method) of a non-empty sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def chunks(arm: Arm, ops: list, span: float) -> list:
    """Op durations grouped by start time into CHUNKS equal slices of the
    timed stage, which lasts ``span`` seconds."""
    groups = [[] for _ in range(CHUNKS)]
    for start, dur in ops:
        groups[min(CHUNKS - 1, int(CHUNKS * (start - arm.start) / span))].append(dur)
    return [g for g in groups if g]


def end_to_end(wl: Workload, p: Pass, setup_s: list, seconds: float) -> dict:
    """Each timing is a median over the CHUNKS slices of the timed stage.
    This host's speed drifts by 20% and more for seconds at a time; a median
    over slices keeps one slow spell from moving the figure."""
    m = {"setup_s": (statistics.median(setup_s), "s")}
    for v, arm in p.arms.items():
        if wl.timed == "train":
            per_op, throughput_ops, latency_ops = wl.batch, arm.step_s, arm.step_s
        else:
            per_op = arm.report_bags / len(arm.report_s)
            throughput_ops, latency_ops = arm.report_s, arm.predict_s
        rate = [per_op * len(g) / sum(g) for g in chunks(arm, throughput_ops, seconds)]
        lat = chunks(arm, latency_ops, seconds)
        m[f"bags_per_s.{v}"] = (statistics.median(rate), "1/s")
        m[f"op_ms.p50.{v}"] = (1e3 * statistics.median(pct(g, 50) for g in lat), "ms")
        m[f"op_ms.p90.{v}"] = (1e3 * statistics.median(pct(g, 90) for g in lat), "ms")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def per_layer(tr: Tracer, traced: Pass, untraced: Pass) -> tuple[dict, list]:
    """Per-layer metrics of the traced pass. ``needs`` lists the trace
    targets a metric rests on, each a name or a tuple of alternatives; a
    metric is listed as absent when one of them has no target left."""
    m, absent = {}, []

    def put(name, needs, unit, fn):
        if all(tr.has(*((g,) if isinstance(g, str) else g)) for g in needs):
            m[name] = (fn(), unit)
        else:
            absent.append(name)

    def total(table, key, phase=None, variant=None):
        return sum(val for (k, ph, var), val in table.items()
                   if k == key and (phase is None or ph == phase)
                   and (variant is None or var == variant))

    def spans(name, phase=None, variant=None):
        return [s for s in tr.spans if s[0] == name and (phase is None or s[1] == phase)
                and (variant is None or s[2] == variant)]

    arms = traced.arms
    steps = sum(len(a.step_s) for a in arms.values())
    fb = {v: total(tr.calls, "seg.model.forward_bag", "eval", v)
          + total(tr.calls, "seg.evaluation.forward_bag", "eval", v) for v in ARMS}
    fb_all = sum(fb.values())
    rounds = sum(a.rounds for a in arms.values())
    per_step = lambda x: x / steps
    per_bag = lambda x: x / fb_all
    forward_bag = ("seg.model.forward_bag", "seg.evaluation.forward_bag")

    put("numerics.tape_records_per_step", ("seg.numerics.active_tape",), "count",
        lambda: per_step(total(tr.extra, "tape_records", "train")))
    for prim in PRIMS:
        targets = tuple(f"seg.numerics.{a}" for a in
                        (ELEMENTWISE if prim == "elementwise" else (prim,)))
        put(f"numerics.calls_per_step.{prim}", (targets,), "count",
            lambda prim=prim: per_step(total(tr.calls, prim, "train")))
        put(f"numerics.fwd_ms_per_step.{prim}", (targets,), "ms",
            lambda prim=prim: 1e3 * per_step(total(tr.incl, prim, "train")))
        put(f"numerics.calls_per_bag.{prim}", (targets, forward_bag), "count",
            lambda prim=prim: per_bag(total(tr.calls, prim, "eval")))
        put(f"numerics.fwd_ms_per_bag.{prim}", (targets, forward_bag), "ms",
            lambda prim=prim: 1e3 * per_bag(total(tr.incl, prim, "eval")))
    put("numerics.backward_ms_per_step", ("seg.numerics.backward",), "ms",
        lambda: 1e3 * per_step(total(tr.incl, "seg.numerics.backward", "train")))

    emb = tuple(f"seg.model.{a}" for a in
                ("embed_positional", "embed_entity_concat", "entity_aware_embed"))
    put("embedding.fwd_ms_per_step", (emb,), "ms",
        lambda: 1e3 * per_step(total(tr.layer_s, "embedding", "train")))
    put("embedding.dense_grad_mb_per_step_computed", ("seg.numerics.embedding_lookup",), "MB",
        lambda: per_step(total(tr.extra, "dense_grad_bytes", "train")) / 1e6)

    enc = tuple(f"seg.model.{a}" for a in ("pcnn_encode", "self_attn_encode", "stacked_encode"))
    put("encoders.fwd_ms_per_step", (enc,), "ms",
        lambda: 1e3 * per_step(total(tr.layer_s, "encoders", "train")))
    put("encoders.ms_per_bag", (enc, forward_bag), "ms",
        lambda: 1e3 * per_bag(total(tr.layer_s, "encoders", "eval")))

    agg = tuple(f"seg.model.{a}" for a in
                ("gate_values", "gate_aggregate", "concat_aggregate", "mean_vectors",
                 "selective_attention_aggregate", "gate_plus_attention_aggregate"))
    put("aggregation.fwd_ms_per_step", (agg,), "ms",
        lambda: 1e3 * per_step(total(tr.layer_s, "aggregation", "train")))
    for v in ARMS:
        put(f"aggregation.ms_per_bag.{v}", (agg, forward_bag), "ms",
            lambda v=v: 1e3 * total(tr.layer_s, "aggregation", "eval", v) / fb[v])

    put("model.loss_ms_per_step", ("seg.training.loss",), "ms",
        lambda: 1e3 * per_step(total(tr.incl, "seg.training.loss", "train")))
    put("model.forward_bag_calls_per_bag", ("seg.evaluation.forward_bag",), "count",
        lambda: total(tr.calls, "seg.evaluation.forward_bag", "eval")
        / sum(a.report_bags for a in arms.values()))
    put("model.load_checkpoint_s", ("seg.model.load_checkpoint",), "s",
        lambda: total(tr.incl, "seg.model.load_checkpoint")
        / total(tr.calls, "seg.model.load_checkpoint"))

    for v in ARMS:
        for q in (50, 90):
            put(f"training.step_ms.p{q}.{v}", ("seg.training.train",), "ms",
                lambda v=v, q=q: 1e3 * pct([s[4] - s[3] for s in
                                            spans("seg.training.train", "train", v)], q))
    put("training.update_ms_per_step", ("seg.training.train",), "ms",
        lambda: 1e3 * per_step(sum(s[5] for s in spans("seg.training.train", "train"))))

    evals = ("seg.evaluation.build_eval_report", "seg.evaluation.score_decisions")
    for v in ARMS:
        put(f"evaluation.report_s.{v}", (evals,), "s",
            lambda v=v: total(tr.layer_s, "evaluation", "eval", v) / arms[v].rounds)
    put("evaluation.rank_ms", ("seg.evaluation.ranked",), "ms",
        lambda: 1e3 * total(tr.incl, "seg.evaluation.ranked", "eval") / rounds)

    put("data.load_jsonl_s", ("seg.data.load_jsonl",), "s",
        lambda: total(tr.incl, "seg.data.load_jsonl"))
    put("data.sentences_per_s", ("seg.data.load_jsonl",), "1/s",
        lambda: traced.sentences_loaded / total(tr.incl, "seg.data.load_jsonl"))

    m["trace.overhead_ratio"] = (traced.seconds / untraced.seconds, "ratio")
    return m, absent


# ---------------------------------------------------------------------------
# Machine note and entry point.
# ---------------------------------------------------------------------------


def machine_note() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": BLAS_THREADS,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, ref: dict) -> dict:
    work = ROOT / ".perfbench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        pr = probe(wl, work)
        misses = check_probe(pr, ref)
        for miss in misses:
            print(f"perfbench: probe miss: {miss}")

        files = write_corpora(wl.train, wl.test, seed, work / "run")
        if not trace:
            # Set-ups are spread over the timed stage, so that their median
            # is not taken at one moment of the host's drifting speed.
            setup = []

            def measure_setup(elapsed):
                if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
                    setup.append(setup_once(wl, files, work / "run", seed))

            p = run_pass(wl, files, seed, work / "run", seconds=seconds, on_slice=measure_setup)
            while len(setup) < SETUP_REPEATS:
                setup.append(setup_once(wl, files, work / "run", seed))
            metrics = end_to_end(wl, p, setup, seconds)
            for v, arm in p.arms.items():
                print(f"samples {v}: {len(arm.step_s)} train steps, {len(arm.report_s)} report "
                      f"passes, {len(arm.predict_s)} forward_bag calls, {CHUNKS} chunks")
            passes = [pr, p]
        else:
            untraced = run_pass(wl, files, seed, work / "run", seconds=seconds / 2)
            with Tracer() as tr:
                traced = run_pass(wl, files, seed, work / "run", plan=untraced.schedules,
                                  tracer=tr)
            for v in ARMS:
                if untraced.arms[v].digest.digest() != traced.arms[v].digest.digest():
                    print(f"perfbench: traced and untraced outputs differ for {v}")
                    traced.arms[v].failed = traced.arms[v].attempted
            metrics, absent = per_layer(tr, traced, untraced)
            if tr.absent:
                print(f"perfbench: trace targets absent: {', '.join(tr.absent)}")
            if absent:
                print(f"perfbench: metrics absent: {', '.join(absent)}")
            spans = tr.write(ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{seed}.jsonl")
            print(f"perfbench: {len(tr.spans)} spans written to {spans.relative_to(ROOT)}")
            passes = [pr, untraced, traced]
        arms = [arm for p in passes for arm in p.arms.values()]
        failed = sum(arm.failed for arm in arms)
        return {
            "correct": not misses and failed == 0,
            "attempted": sum(arm.attempted for arm in arms),
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink every size so a run takes seconds (for the tests)")
    ap.add_argument("--write-reference", action="store_true",
                    help="run the probe and store its outputs in reference.json")
    args = ap.parse_args(argv)

    global seg
    seg = import_seg()
    if args.workload == "all":
        return run_all(args)

    wl = WORKLOADS[args.workload]
    key = wl.name
    if args.smoke:
        wl, key = smoke(wl), f"{wl.name}@smoke"
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}

    if args.write_reference:
        work = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
        try:
            refs[key] = probe_reference(probe(wl, work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"wrote the {key} reference to {REFERENCE.relative_to(ROOT)}")
        return 0

    if key not in refs:
        sys.exit(f"perfbench: {REFERENCE.name} has no reference for {key}")
    why = {w["name"]: w["why"] for w in json.loads(BENCHMARK.read_text())["workloads"]}
    print(f"workload {wl.name}: {why[wl.name]}")
    print(f"timed stage: {wl.timed}; arms: {', '.join(ARMS)}; closed loop, one caller")
    print("machine: " + json.dumps(machine_note()))
    result = run(wl, args.seed, args.seconds, bool(args.trace), refs[key])
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"ops attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['failed'] / max(1, result['attempted']):.3g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

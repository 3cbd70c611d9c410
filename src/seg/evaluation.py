"""Held-out evaluation: ranked decisions, precision/recall, AUC, P@N.

Every (test bag, non-NA relation) pair is one candidate decision carrying
the model's softmax probability for that relation. Decisions are ranked by
descending score with ties broken by bag id then relation id, so the curve
is independent of input order. Precision at rank k divides by k; recall
divides by the number of non-NA gold bags. The AUC is the trapezoidal area
under the rank curve, anchored at (recall 0, precision at rank 1).

P@N follows the multi-sentence protocol: only bags with at least two
sentences participate, and the One/Two modes subsample each bag to one or
two sentences with a seeded generator before scoring.

Every metric reads one prediction pass per dataset (``predict_dataset``):
the report forwards the full test set once, takes "All" from those
decisions, and forwards only the One and Two subsamples again.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ValidationError
from .model import BagPrediction, ModelConfig, SegParams, forward_bag

P_AT_N_MODES = ("One", "Two", "All")
DEFAULT_NS = (100, 200, 300)


@dataclass(frozen=True)
class ScoredDecision:
    bag_id: int
    relation: int
    score: float
    correct: bool


@dataclass
class EvalReport:
    pr_points: list[tuple[float, float]]   # (recall, precision) per rank
    auc: float
    p_at_n: dict
    non_na_acc: float
    metadata: dict = field(default_factory=dict)
    decisions: list[ScoredDecision] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "auc": self.auc,
            "non_na_acc": self.non_na_acc,
            "p_at_n": self.p_at_n,
            "pr_points": [[r, p] for r, p in self.pr_points],
            "metadata": self.metadata,
        }


def predict_dataset(ds: Dataset, params: SegParams, config: ModelConfig) -> list[BagPrediction]:
    """One forward pass per bag, in dataset order; every metric reads this list."""
    if len(ds.relation_names) != config.num_relations:
        raise ValidationError(
            f"dataset has {len(ds.relation_names)} relations but the model "
            f"expects {config.num_relations}"
        )
    return [forward_bag(bag, params, config) for bag in ds.bags]


def decisions_from(ds: Dataset, preds: list[BagPrediction]) -> list[ScoredDecision]:
    """One decision per (bag, non-NA relation), scored by ranking confidence."""
    return [
        ScoredDecision(bag_id=bag_id, relation=r, score=float(pred.confidence[r]),
                       correct=bag.label == r)
        for bag_id, (bag, pred) in enumerate(zip(ds.bags, preds))
        for r in range(1, len(pred.confidence))
    ]


def score_decisions(ds: Dataset, params: SegParams, config: ModelConfig) -> list[ScoredDecision]:
    """Forward every bag once and return its decisions."""
    return decisions_from(ds, predict_dataset(ds, params, config))


def ranked(decisions) -> list[ScoredDecision]:
    return sorted(decisions, key=lambda d: (-d.score, d.bag_id, d.relation))


def pr_curve_and_auc(decisions, total_gold_positives: int):
    """Rank-based precision/recall points and their trapezoidal area."""
    if total_gold_positives <= 0:
        raise ValidationError("recall is undefined without gold positives")
    if not decisions:
        raise ValidationError("cannot build a curve from zero decisions")
    points = []
    correct = 0
    for k, d in enumerate(ranked(decisions), start=1):
        correct += d.correct
        points.append((correct / total_gold_positives, correct / k))

    auc = 0.0
    prev_r, prev_p = 0.0, points[0][1]
    for r, p in points:
        auc += (r - prev_r) * (p + prev_p) / 2.0
        prev_r, prev_p = r, p
    return points, auc


def p_at_n(decisions_by_mode: dict, ns=DEFAULT_NS) -> dict:
    """P@N table over modes. Each mode reports the precision over the top
    min(n, len) decisions per cutoff (None when the mode is empty), how many
    decisions each cutoff actually covered (shorter lists are computed over
    all available and flagged by that count), and the mean."""
    if any(n < 1 for n in ns):
        raise ValidationError(f"P@N needs every n >= 1, got {list(ns)}")
    table = {}
    for mode, decisions in decisions_by_mode.items():
        order = ranked(decisions)
        values, counted = {}, {}
        for n in ns:
            top = order[:n]
            values[str(n)] = sum(d.correct for d in top) / len(top) if top else None
            counted[str(n)] = len(top)
        present = [v for v in values.values() if v is not None]
        table[mode] = {
            "precision": values,
            "counted": counted,
            "mean": sum(present) / len(present) if present else None,
        }
    return table


def subsample_bags(ds: Dataset, mode: str, seed: int) -> Dataset:
    """Restrict to multi-sentence bags; One/Two keep a seeded sample."""
    if mode not in P_AT_N_MODES:
        raise ValidationError(f"unknown subsample mode {mode!r}; expected One, Two, or All")
    rng = np.random.default_rng([seed, P_AT_N_MODES.index(mode)])
    bags = []
    for bag in ds.bags:
        m = len(bag.sentences)
        if m < 2:
            continue
        if mode == "One":
            keep = [int(rng.integers(0, m))]
        elif mode == "Two":
            keep = sorted(int(i) for i in rng.choice(m, size=2, replace=False))
        else:
            keep = list(range(m))
        bags.append(type(bag)(tuple(bag.sentences[i] for i in keep), bag.label))
    return Dataset(bags, list(ds.relation_names), dict(ds.word_vocab), dict(ds.entity_vocab))


def accuracy(ds: Dataset, preds: list[BagPrediction], non_na_only: bool = False) -> float:
    """Fraction of bags whose argmax prediction is the gold label; with
    ``non_na_only`` only bags whose gold label is not NA count."""
    pairs = [(b, p) for b, p in zip(ds.bags, preds) if not (non_na_only and b.label == 0)]
    if not pairs:
        raise ValidationError("non-NA accuracy is undefined: every bag is labeled NA"
                              if non_na_only else "accuracy over an empty dataset is undefined")
    return sum(1 for b, p in pairs if p.predicted == b.label) / len(pairs)


def dataset_auc(ds: Dataset, params: SegParams, config: ModelConfig) -> float:
    positives = sum(1 for b in ds.bags if b.label != 0)
    _, auc = pr_curve_and_auc(score_decisions(ds, params, config), positives)
    return auc


def build_eval_report(ds: Dataset, params: SegParams, config: ModelConfig,
                      subsample_seed: int = 0, extra_metadata: dict | None = None) -> EvalReport:
    preds = predict_dataset(ds, params, config)
    decisions = decisions_from(ds, preds)
    positives = sum(1 for b in ds.bags if b.label != 0)
    pr_points, auc = pr_curve_and_auc(decisions, positives)
    by_mode = {}
    for mode in ("One", "Two"):
        sub = subsample_bags(ds, mode, subsample_seed)
        by_mode[mode] = score_decisions(sub, params, config) if sub.bags else []
    # "All" keeps every sentence of the multi-sentence bags, so its decisions
    # are the full set's; the kept bag ids keep their order, so the ranking is
    # the one subsample_bags(ds, "All") would give.
    by_mode["All"] = [d for d in decisions if len(ds.bags[d.bag_id].sentences) >= 2]
    table = p_at_n(by_mode)
    metadata = {
        "auc_convention": "trapezoid over the full ranked curve, anchored at "
                          "(recall 0, precision at rank 1)",
        "p_at_n_protocol": "bags with >= 2 sentences only; One/Two subsample "
                           "per bag with the given seed",
        "subsample_seed": subsample_seed,
        "num_decisions": len(decisions),
        "total_gold_positives": positives,
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return EvalReport(
        pr_points=pr_points,
        auc=auc,
        p_at_n=table,
        non_na_acc=accuracy(ds, preds, non_na_only=True),
        metadata=metadata,
        decisions=decisions,
    )


def write_pr_csv(decisions, total_gold_positives: int, path) -> None:
    """One row per rank: score, precision, recall."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ordered = ranked(decisions)
    correct = 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["score", "precision", "recall"])
        for k, d in enumerate(ordered, start=1):
            correct += d.correct
            writer.writerow([
                f"{d.score:.10g}",
                f"{correct / k:.10g}",
                f"{correct / total_gold_positives:.10g}",
            ])


def write_report_json(report: EvalReport, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")

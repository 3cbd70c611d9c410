"""Ranked-decision metrics: PR curve, AUC, P@N, and their serializations."""

from dataclasses import replace

import numpy as np
import pytest

from seg.data import SynthSpec, generate_synthetic
from seg.errors import ValidationError
from seg.evaluation import (
    P_AT_N_MODES,
    ScoredDecision,
    accuracy,
    build_eval_report,
    dataset_auc,
    decisions_from,
    p_at_n,
    pr_curve_and_auc,
    predict_dataset,
    ranked,
    score_decisions,
    subsample_bags,
    write_pr_csv,
    write_report_json,
)
from seg.model import TINY_CONFIG, SegParams
from seg.numerics import clear_tape

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def dec(bag_id, relation, score, correct):
    return ScoredDecision(bag_id=bag_id, relation=relation, score=score, correct=correct)


def oracle_auc(decisions, positives):
    """Independent rank-curve area: cumulative sums plus numpy trapezoid."""
    order = sorted(decisions, key=lambda d: (-d.score, d.bag_id, d.relation))
    c = np.cumsum([d.correct for d in order])
    k = np.arange(1, len(order) + 1)
    precision = c / k
    recall = c / positives
    r = np.concatenate([[0.0], recall])
    p = np.concatenate([[precision[0]], precision])
    return float(_trapezoid(p, r))


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


@pytest.fixture(scope="module")
def scored_corpus():
    spec = SynthSpec(num_relations=4, num_entities=64, vocab_size=96, num_bags=24,
                     one_sentence_fraction=0.4, noise_rate=0.0, max_len=20, seed=6)
    train_ds, test_ds = generate_synthetic(spec)
    config = replace(TINY_CONFIG, num_relations=4)
    params = SegParams(config, len(test_ds.word_vocab))
    return test_ds, params, config


# -- curve arithmetic -----------------------------------------------------------


def test_decision_count_is_bags_times_non_na_relations(scored_corpus):
    test_ds, params, config = scored_corpus
    decisions = score_decisions(test_ds, params, config)
    assert len(decisions) == len(test_ds.bags) * (config.num_relations - 1)
    ids = {(d.bag_id, d.relation) for d in decisions}
    assert len(ids) == len(decisions)
    assert all(d.relation != 0 for d in decisions)


def test_relation_count_mismatch_rejected(scored_corpus):
    test_ds, params, config = scored_corpus
    with pytest.raises(ValidationError, match="relations"):
        score_decisions(test_ds, params, replace(config, num_relations=6))


def test_perfect_ranking_gives_unit_auc():
    decisions = [dec(i, 1, 10.0 - i, i < 3) for i in range(6)]
    points, auc = pr_curve_and_auc(decisions, total_gold_positives=3)
    assert abs(auc - 1.0) < 1e-12
    assert points[0] == (1 / 3, 1.0)
    assert points[-1][0] == 1.0


def test_three_decision_hand_value():
    # Ranked correct/incorrect/correct with two gold positives: area is
    # 0.5 * 1 + 0 + 0.5 * (0.5 + 2/3) / 2 = 19/24.
    decisions = [
        dec(0, 1, 0.9, True),
        dec(1, 1, 0.5, False),
        dec(2, 1, 0.3, True),
    ]
    _, auc = pr_curve_and_auc(decisions, total_gold_positives=2)
    assert abs(auc - 19.0 / 24.0) < 1e-12
    assert abs(auc - 0.7917) < 5e-5


def test_curve_requires_positives_and_decisions():
    with pytest.raises(ValidationError, match="gold positives"):
        pr_curve_and_auc([dec(0, 1, 0.5, False)], 0)
    with pytest.raises(ValidationError, match="zero decisions"):
        pr_curve_and_auc([], 3)


def test_tie_break_is_bag_then_relation():
    decisions = [
        dec(2, 1, 0.5, False),
        dec(0, 2, 0.5, True),
        dec(0, 1, 0.5, False),
        dec(1, 1, 0.7, True),
    ]
    order = [(d.bag_id, d.relation) for d in ranked(decisions)]
    assert order == [(1, 1), (0, 1), (0, 2), (2, 1)]


def test_ranking_independent_of_input_order():
    rng = np.random.default_rng(0)
    decisions = [dec(i, 1 + i % 3, float(rng.integers(0, 5)) / 4, bool(rng.integers(0, 2)))
                 for i in range(40)]
    base_points, base_auc = pr_curve_and_auc(decisions, 11)
    for trial in range(5):
        shuffled = list(decisions)
        rng.shuffle(shuffled)
        points, auc = pr_curve_and_auc(shuffled, 11)
        assert points == base_points
        assert auc == base_auc


def test_curve_matches_brute_force_oracle_on_random_instances():
    rng = np.random.default_rng(1)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        decisions = [
            dec(int(rng.integers(0, 12)), int(rng.integers(1, 5)),
                float(rng.integers(0, 6)) / 5.0, bool(rng.integers(0, 2)))
            for _ in range(n)
        ]
        positives = int(rng.integers(1, 10))
        _, auc = pr_curve_and_auc(decisions, positives)
        assert abs(auc - oracle_auc(decisions, positives)) <= 1e-9


# -- precision at N -------------------------------------------------------------


def test_precision_at_basics():
    decisions = [dec(i, 1, 1.0 - 0.01 * i, i % 2 == 0) for i in range(10)]
    # Unsorted input: the table ranks each mode itself.
    shuffled = [decisions[i] for i in np.random.default_rng(0).permutation(10)]
    table = p_at_n({"All": shuffled, "One": []}, ns=(1, 2, 4, 100))
    assert table["All"]["precision"] == {"1": 1.0, "2": 0.5, "4": 0.5, "100": 0.5}
    assert table["All"]["counted"] == {"1": 1, "2": 2, "4": 4, "100": 10}
    assert table["One"]["precision"]["1"] is None
    assert table["One"]["counted"]["1"] == 0
    with pytest.raises(ValidationError, match="n >= 1"):
        p_at_n({"All": decisions}, ns=(100, 0))


def test_p_at_n_mean_hand_value():
    # 94 correct in the top 100, 178 in the top 200, 255 in the top 300.
    correct_by_block = [(0, 94), (100, 178), (200, 255)]
    flags = [False] * 300
    done = 0
    for start, cum in correct_by_block:
        for i in range(start, start + (cum - done)):
            flags[i] = True
        done = cum
    decisions = [dec(i, 1, 1000.0 - i, flags[i]) for i in range(300)]
    table = p_at_n({"All": decisions})
    entry = table["All"]
    assert entry["precision"] == {"100": 0.94, "200": 0.89, "300": 0.85}
    assert entry["counted"] == {"100": 100, "200": 200, "300": 300}
    assert abs(entry["mean"] - 0.8933333333333333) < 1e-12


def test_p_at_n_short_lists_and_empty_mode():
    decisions = [dec(i, 1, 10.0 - i, True) for i in range(50)]
    table = p_at_n({"All": decisions, "One": []})
    assert table["All"]["counted"] == {"100": 50, "200": 50, "300": 50}
    assert table["All"]["mean"] == 1.0
    assert table["One"]["precision"]["100"] is None
    assert table["One"]["mean"] is None


# -- subsampling ------------------------------------------------------------------


def test_subsample_modes(scored_corpus):
    test_ds, _, _ = scored_corpus
    multi = [b for b in test_ds.bags if len(b.sentences) >= 2]
    assert multi, "fixture needs multi-sentence bags"
    one = subsample_bags(test_ds, "One", seed=3)
    two = subsample_bags(test_ds, "Two", seed=3)
    everything = subsample_bags(test_ds, "All", seed=3)
    assert len(one.bags) == len(two.bags) == len(everything.bags) == len(multi)
    assert all(len(b.sentences) == 1 for b in one.bags)
    assert all(len(b.sentences) == 2 for b in two.bags)
    assert [len(b.sentences) for b in everything.bags] == [len(b.sentences) for b in multi]
    for sub in (one, two):
        for kept, orig in zip(sub.bags, multi):
            assert kept.label == orig.label
            assert set(kept.sentences) <= set(orig.sentences)


def test_subsample_is_seed_deterministic(scored_corpus):
    test_ds, _, _ = scored_corpus
    a = subsample_bags(test_ds, "Two", seed=5)
    b = subsample_bags(test_ds, "Two", seed=5)
    c = subsample_bags(test_ds, "Two", seed=6)
    assert a.bags == b.bags
    assert a.bags != c.bags


def test_subsample_rejects_unknown_mode(scored_corpus):
    test_ds, _, _ = scored_corpus
    with pytest.raises(ValidationError, match="One, Two, or All"):
        subsample_bags(test_ds, "Three", seed=0)


# -- dataset-level metrics ---------------------------------------------------------


def test_non_na_accuracy_excludes_na_bags(scored_corpus):
    from seg.model import forward_bag

    test_ds, params, config = scored_corpus
    acc = accuracy(test_ds, predict_dataset(test_ds, params, config), non_na_only=True)
    gold = [b for b in test_ds.bags if b.label != 0]
    hits = sum(1 for b in gold
               if np.argmax(forward_bag(b, params, config).probs) == b.label)
    assert acc == hits / len(gold)


def test_non_na_accuracy_needs_positive_bags(scored_corpus):
    test_ds, params, config = scored_corpus
    from seg.data import Dataset
    na_only = Dataset(
        bags=[b for b in test_ds.bags if b.label == 0],
        relation_names=list(test_ds.relation_names),
        word_vocab=dict(test_ds.word_vocab),
        entity_vocab=dict(test_ds.entity_vocab),
    )
    with pytest.raises(ValidationError, match="NA"):
        accuracy(na_only, predict_dataset(na_only, params, config), non_na_only=True)


def test_dataset_auc_agrees_with_report(scored_corpus):
    test_ds, params, config = scored_corpus
    report = build_eval_report(test_ds, params, config, subsample_seed=1)
    assert dataset_auc(test_ds, params, config) == report.auc
    assert 0.0 <= report.auc <= 1.0
    assert set(report.p_at_n) == set(P_AT_N_MODES)
    assert report.metadata["num_decisions"] == len(test_ds.bags) * (config.num_relations - 1)


def count_forward_bag(monkeypatch):
    """Record the size of every bag the eval pass forwards."""
    import seg.evaluation

    calls = []
    real = seg.evaluation.forward_bags

    def counted(bags, params, config):
        calls.extend(len(bag.sentences) for bag in bags)
        return real(bags, params, config)

    monkeypatch.setattr(seg.evaluation, "forward_bags", counted)
    return calls


def test_report_forwards_full_set_once_plus_one_and_two(scored_corpus, monkeypatch):
    test_ds, params, config = scored_corpus
    calls = count_forward_bag(monkeypatch)
    report = build_eval_report(test_ds, params, config, subsample_seed=1)
    multi = sum(1 for b in test_ds.bags if len(b.sentences) >= 2)
    assert multi > 0
    assert len(calls) == len(test_ds.bags) + 2 * multi
    assert report.decisions == score_decisions(test_ds, params, config)


def test_report_all_mode_matches_a_forwarded_all_subsample(scored_corpus):
    test_ds, params, config = scored_corpus
    report = build_eval_report(test_ds, params, config, subsample_seed=4)
    forwarded = score_decisions(subsample_bags(test_ds, "All", seed=4), params, config)
    kept = [d for d in report.decisions if len(test_ds.bags[d.bag_id].sentences) >= 2]
    ns = (1, 5, 10, 100)
    assert p_at_n({"All": kept}, ns=ns) == p_at_n({"All": forwarded}, ns=ns)
    assert report.p_at_n["All"] == p_at_n({"All": forwarded})["All"]


def test_decisions_from_reads_confidence(scored_corpus):
    test_ds, params, config = scored_corpus
    preds = predict_dataset(test_ds, params, config)
    decisions = decisions_from(test_ds, preds)
    for d in decisions:
        assert d.score == float(preds[d.bag_id].confidence[d.relation])
        assert d.correct == (test_ds.bags[d.bag_id].label == d.relation)


def test_report_is_deterministic(scored_corpus):
    test_ds, params, config = scored_corpus
    a = build_eval_report(test_ds, params, config, subsample_seed=2)
    b = build_eval_report(test_ds, params, config, subsample_seed=2)
    assert a.to_json_dict() == b.to_json_dict()


# -- serialization ------------------------------------------------------------------


def test_pr_csv_layout_and_bytes(tmp_path):
    decisions = [
        dec(0, 1, 0.9, True),
        dec(1, 1, 0.5, False),
        dec(2, 1, 0.3, True),
    ]
    path = tmp_path / "pr.csv"
    write_pr_csv(decisions, 2, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "score,precision,recall"
    assert lines[1] == "0.9,1,0.5"
    assert lines[2] == "0.5,0.5,0.5"
    assert lines[3] == "0.3,0.6666666667,1"
    write_pr_csv(list(reversed(decisions)), 2, tmp_path / "pr2.csv")
    assert (tmp_path / "pr2.csv").read_bytes() == path.read_bytes()


def test_report_json_round_trip(scored_corpus, tmp_path):
    import json

    test_ds, params, config = scored_corpus
    report = build_eval_report(test_ds, params, config)
    path = tmp_path / "report.json"
    write_report_json(report, path)
    loaded = json.loads(path.read_text())
    assert loaded == report.to_json_dict()
    write_report_json(report, tmp_path / "report2.json")
    assert (tmp_path / "report2.json").read_bytes() == path.read_bytes()

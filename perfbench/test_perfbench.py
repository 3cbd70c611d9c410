"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = corpus.CorpusSpec(num_bags=40, vocab_size=5000, num_relations=53, multi_share=0.5,
                         len_lo=20, len_hi=60)


def _run(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_same_seed_gives_byte_identical_corpus_and_another_seed_does_not(tmp_path):
    a = corpus.write(SPEC, 7, tmp_path / "a.jsonl").read_bytes()
    b = corpus.write(SPEC, 7, tmp_path / "b.jsonl").read_bytes()
    c = corpus.write(SPEC, 8, tmp_path / "c.jsonl").read_bytes()
    assert a == b
    assert a != c


def test_corpus_has_the_specified_shape(tmp_path):
    lines = [json.loads(x) for x in corpus.generate(SPEC, 3)]
    bags = {(x["head"]["text"], x["tail"]["text"]) for x in lines}
    assert len(bags) == SPEC.num_bags
    assert all(SPEC.len_lo <= len(x["tokens"]) <= SPEC.len_hi for x in lines)
    sizes = {}
    for x in lines:
        key = x["head"]["text"]
        sizes[key] = sizes.get(key, 0) + 1
    assert sum(1 for n in sizes.values() if n > 1) == round(SPEC.multi_share * SPEC.num_bags)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["train_paper_v80k", "small_pair_v256", "eval_paper_r53"])
def test_smoke_run_prints_every_declared_metric_with_its_unit(workload, trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    t0 = time.perf_counter()
    out = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
               "--smoke")
    elapsed = time.perf_counter() - t0
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert elapsed < 30


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run("--workload", "small_pair_v256", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_probe_check_passes_rounding_noise_and_fails_a_real_change():
    import run

    p_at_n = {"All": {"precision": {"100": 0.5}, "counted": {"100": 40}, "mean": 0.5}}
    want = {"losses": [4.0, 3.9], "auc": 0.25, "p_at_n": p_at_n, "conf_checksum": 12.5}
    ref = dict.fromkeys(run.ARMS, want)

    def probe_pass(rel):
        arms = {}
        for v in run.ARMS:
            arm = run.Arm(v, losses=[x * (1 + rel) for x in want["losses"]], report_bags=3)
            arm.ref = {"auc": want["auc"], "p_at_n": p_at_n, "conf_checksum": 12.5}
            arms[v] = arm
        return run.Pass(arms)

    quiet = probe_pass(1e-15)
    assert run.check_probe(quiet, ref) == []
    assert all(arm.failed == 0 for arm in quiet.arms.values())
    moved = probe_pass(1e-8)
    assert len(run.check_probe(moved, ref)) == 2 * len(run.ARMS)
    assert all(arm.failed == 2 for arm in moved.arms.values())


def test_tracer_marks_a_missing_target_absent_and_restores_the_rest(monkeypatch):
    import run
    import tracing

    seg = run.import_seg()
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("aggregation", "seg.model", "no_such_aggregator", False)])
    matmul = seg.numerics.matmul
    with tracing.Tracer() as tr:
        assert seg.numerics.matmul is not matmul
    assert seg.numerics.matmul is matmul
    assert tr.absent == ["seg.model.no_such_aggregator"]
    assert tr.has("seg.numerics.matmul") and not tr.has("seg.model.no_such_aggregator")

#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --topic packed_batch --change-note "what changed"

The parent commit (``--parent``, default HEAD) is unpacked into a temporary
directory with ``git archive``; the change is the working tree. For each
workload declared in BENCHMARK.json, each of 10 pairs runs ``perfbench/run.py
--trace 0`` for the benchmark's declared run length once per side on the same
seed, back to back, the parent first on every other pair. The result is
``BENCH_<topic>.json``: per side and metric the median and quartiles over the
runs, the pairs the change wins, the seeds, the failed operations and the
machine note that perfbench prints, plus the tape records one ``loss()``
makes per variant at batch sizes 1, 16 and 32. Each workload also gets one
``--trace 1`` run per side on the first seed, whose per-layer metrics show
where the time went.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
RECORD_SIZES = [1, 16, 32]

# Counts the tape records of one train-mode loss() per variant and batch size
# on a small_pair_v256-shaped corpus, in the tree whose root is argv[1].
RECORDS_PROBE = r"""
import json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import numpy as np
import corpus, run
import seg.data, seg.model, seg.numerics as nm
wl = run.WORKLOADS["small_pair_v256"]
path = corpus.write(wl.train, 3, sys.argv[2])
ds = seg.data.load_jsonl(path, relation_names=corpus.relation_names(wl.model["num_relations"]),
                         word_vocab=corpus.word_vocab(wl.train.vocab_size))
out = {}
for variant in seg.model.VARIANTS:
    cfg = seg.model.ModelConfig(**wl.model, variant=variant, seed=1)
    params = seg.model.SegParams(cfg, len(ds.word_vocab))
    out[variant] = {}
    for size in json.loads(sys.argv[3]):
        nm.clear_tape()
        seg.model.loss(ds.bags[:size], params, cfg, train_mode=True, rng=np.random.default_rng(0))
        out[variant][str(size)] = len(nm.active_tape())
nm.clear_tape()
print(json.dumps(out))
"""


def unpack(rev: str, where: Path) -> Path:
    """Extract the files of commit ``rev`` into ``where``."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    where.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(where, filter="data")
    return where


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench_once(tree: Path, workload: str, seed: int, seconds: float,
               trace: int = 0) -> tuple[dict, dict]:
    """One perfbench run: its result object and its machine note."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                          str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {workload} seed {seed} in {tree} failed:\n{out.stderr}")
    machine = next((json.loads(x.split(": ", 1)[1]) for x in lines if x.startswith("machine: ")),
                   {})
    return json.loads(lines[-1]), machine


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": float(f"{median:.4g}"), "q1": float(f"{q1:.4g}"), "q3": float(f"{q3:.4g}")}


def summarize(runs: dict, declared: list, seeds: list) -> dict:
    """Per-metric medians, quartiles and pairs won, over one workload's runs."""
    metrics = {}
    for m in declared:
        name, better = m["name"], m["better"]
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(vals["parent"], vals["change"]))
        metrics[name] = {
            "unit": m["unit"], "better": better,
            **{side: quartiles(vals[side]) for side in SIDES},
            "change_wins_pairs": wins, "pairs": len(seeds),
            "ratio_change_over_parent": float(
                f"{statistics.median(vals['change']) / statistics.median(vals['parent']):.4g}"),
        }
    return {
        "seeds": seeds,
        "runs_per_side": len(seeds),
        "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": metrics,
    }


def tape_records(trees: dict, sizes: list, scratch: Path) -> dict:
    out = {"note": f"one train-mode loss() on the first B bags of a small_pair_v256-shaped "
                   f"corpus (perfbench corpus generator, seed 3) at small_pair_v256 dims, "
                   f"for B in {sizes}"}
    for side, tree in trees.items():
        res = subprocess.run([sys.executable, "-c", RECORDS_PROBE, str(tree),
                              str(scratch / f"records-{side}.jsonl"), json.dumps(sizes)],
                             capture_output=True, text=True, check=True)
        out[side] = json.loads(res.stdout)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--topic", required=True, help="names the output, BENCH_<topic>.json")
    ap.add_argument("--change-note", required=True, help="one line on what the change does")
    ap.add_argument("--parent", default="HEAD", help="the parent commit (default HEAD)")
    ap.add_argument("--first-seed", type=int, default=11)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": unpack(args.parent, tmp / "parent"), "change": ROOT}
        report = {
            "topic": args.topic,
            "change": args.change_note,
            "parent_commit": git("rev-parse", "--short", args.parent),
            "change_commit": git("describe", "--always", "--dirty"),
            "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                       f"--seconds {seconds:g} --trace 0",
            "method": f"{PAIRS} pairs per workload, seeds {seeds[0]}-{seeds[-1]}, each pair "
                      "run back to back on one seed with the order alternating (parent first "
                      f"on seed {seeds[0]}, then every other seed). Medians and quartiles "
                      "(inclusive method) are over each side's runs; change_wins_pairs counts "
                      "the pairs where the change reads better. Written by tools/bench_pairs.py.",
            "machine": None,
            "workloads": {},
        }
        for w in (w["name"] for w in bench["workloads"]):
            runs = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    result, machine = bench_once(trees[side], w, seed, seconds)
                    runs[side].append(result)
                    report["machine"] = report["machine"] or machine
                    print(f"{w} seed {seed} {side}: " + ", ".join(
                        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                        if k.startswith(("bags_per_s", "setup_s", "peak_rss"))), flush=True)
            report["workloads"][w] = summarize(runs, bench["end_to_end"], seeds)
            traced = {side: bench_once(trees[side], w, seeds[0], seconds, trace=1)[0]
                      for side in SIDES}
            report["workloads"][w]["traced"] = {
                "seed": seeds[0],
                "correct": all(r["correct"] for r in traced.values()),
                "metrics": {name: {side: float(f"{traced[side]['metrics'][name]['value']:.4g}")
                                   for side in SIDES}
                            for name in traced["change"]["metrics"]
                            if name in traced["parent"]["metrics"]},
            }
        report["tape_records_per_loss"] = tape_records(trees, RECORD_SIZES, tmp)
    out = ROOT / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0

if __name__ == "__main__":
    sys.exit(main())

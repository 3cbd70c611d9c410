"""End-to-end command-line behavior: exit codes, manifests, reproducibility."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seg.cli
from seg.cli import main

TINY_MODEL = [
    "--word-dim", "3", "--pos-dim", "2", "--conv-channels", "4",
    "--embed-dim", "9", "--pos-clip", "5", "--cls-hidden", "6",
    "--dropout-p", "0", "--l2-coef", "0.01", "--model-seed", "7",
]
SYNTH = [
    "--num-relations", "4", "--num-entities", "64", "--vocab-size", "96",
    "--num-bags", "16", "--max-len", "20", "--noise-rate", "0.0",
    "--data-seed", "3",
]


def synth(tmp_path, name="corpus", extra=()):
    out = tmp_path / name
    rc = main(["synth", "--out-dir", str(out)] + SYNTH + list(extra))
    assert rc == 0
    return out


def quick_train(tmp_path, corpus, name="run", steps="3", extra=()):
    out = tmp_path / name
    rc = main([
        "train", "--train-data", str(corpus / "train.jsonl"),
        "--out-dir", str(out), "--max-steps", steps, "--batch-size", "8",
        "--lr0", "0.1", "--data-seed", "1",
    ] + TINY_MODEL + list(extra))
    assert rc == 0
    return out


# -- argument handling ---------------------------------------------------------


def test_unknown_flag_exits_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out-dir", str(tmp_path), "--bogus"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "seg" in capsys.readouterr().out


# Every config flag set to a value other than its default.
EVERY_MODEL_FLAG = [
    "--word-dim", "4", "--pos-dim", "3", "--conv-channels", "5", "--embed-dim", "12",
    "--kernel-width", "5", "--pos-clip", "9", "--gate-smoothing", "0.5", "--l2-coef", "0.25",
    "--dropout-p", "0.125", "--cls-hidden", "7", "--variant", "seg_attn", "--scalar-gate",
    "--model-seed", "11",
]
EVERY_TRAIN_FLAG = [
    "--lr0", "0.5", "--decay-every", "6", "--decay-factor", "0.75", "--max-steps", "8",
    "--batch-size", "9", "--eval-every", "2", "--clip-norm", "1.5", "--data-seed", "13",
]
EVERY_SYNTH_FLAG = [
    "--num-relations", "6", "--num-entities", "70", "--vocab-size", "300", "--num-bags", "20",
    "--one-sentence-fraction", "0.5", "--noise-rate", "0.25", "--max-len", "30",
    "--data-seed", "17",
]
MODEL_OPTIONS = [
    "--cls-hidden", "--conv-channels", "--dropout-p", "--embed-dim", "--gate-smoothing",
    "--kernel-width", "--l2-coef", "--model-config", "--model-seed", "--pos-clip", "--pos-dim",
    "--scalar-gate", "--variant", "--word-dim",
]
TRAIN_OPTIONS = [
    "--batch-size", "--clip-norm", "--data-seed", "--decay-every", "--decay-factor",
    "--eval-every", "--lr0", "--max-steps", "--train-config",
]
OPTIONS = {
    "synth": ["--data-seed", "--help", "--max-len", "--noise-rate", "--num-bags",
              "--num-entities", "--num-relations", "--one-sentence-fraction", "--out-dir",
              "--spec-file", "--vocab-size", "-h"],
    "train": sorted(MODEL_OPTIONS + TRAIN_OPTIONS + [
        "--bag-cap", "--eval-data", "--help", "--max-len", "--out-dir",
        "--pretrained-embeddings", "--resume", "--train-data", "-h"]),
    "ablate": sorted(MODEL_OPTIONS + TRAIN_OPTIONS + [
        "--bag-cap", "--help", "--max-len", "--out-dir", "--test-data", "--train-data", "-h"]),
}
RESOLVED_MODEL = {
    "word_dim": 4, "pos_dim": 3, "conv_channels": 5, "embed_dim": 12, "kernel_width": 5,
    "pos_clip": 9, "num_relations": 4, "gate_smoothing": 0.5, "l2_coef": 0.25,
    "dropout_p": 0.125, "cls_hidden": 7, "variant": "seg_attn", "scalar_gate": True, "seed": 11,
}
RESOLVED_TRAIN = {
    "lr0": 0.5, "decay_every": 6, "decay_factor": 0.75, "max_steps": 8, "batch_size": 9,
    "eval_every": 2, "seed": 13, "clip_norm": 1.5,
}
RESOLVED_SYNTH = {
    "num_relations": 6, "num_entities": 70, "vocab_size": 300, "num_bags": 20,
    "one_sentence_fraction": 0.5, "noise_rate": 0.25, "max_len": 30, "seed": 17,
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_accepts_its_pinned_flags(command):
    sub = next(a for a in seg.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = sorted(s for a in sub.choices[command]._actions for s in a.option_strings)
    assert options == OPTIONS[command]


def test_every_config_flag_lands_in_the_resolved_config(tmp_path, monkeypatch):
    corpus = synth(tmp_path)

    def stop(*args, **kwargs):
        raise RuntimeError("stopped once the run manifest is written")

    monkeypatch.setattr(seg.cli, "train", stop)
    monkeypatch.setattr(seg.cli, "generate_synthetic_with_manifest", stop)
    data = ["--train-data", str(corpus / "train.jsonl")]
    runs = {
        "train": ["train", *data, "--out-dir", str(tmp_path / "train")],
        "ablate": ["ablate", *data, "--test-data", str(corpus / "test.jsonl"),
                   "--out-dir", str(tmp_path / "ablate")],
    }
    for command, argv in runs.items():
        assert main(argv + EVERY_MODEL_FLAG + EVERY_TRAIN_FLAG) == 2
        resolved = json.loads((tmp_path / command / "run_manifest.json").read_text())["resolved"]
        assert resolved["model_config"] == RESOLVED_MODEL
        checkpoints = str(tmp_path / "train" / "checkpoints") if command == "train" else None
        assert resolved["train_config"] == {**RESOLVED_TRAIN, "checkpoint_dir": checkpoints}
    assert main(["synth", "--out-dir", str(tmp_path / "synth")] + EVERY_SYNTH_FLAG) == 2
    resolved = json.loads((tmp_path / "synth" / "run_manifest.json").read_text())["resolved"]
    assert resolved["synth_spec"] == RESOLVED_SYNTH


def test_run_manifest_git_describe_ignores_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(Path(seg.cli.__file__).resolve().parents[2])
    seg.cli._write_manifest(tmp_path / "root", "probe", {})
    monkeypatch.chdir(tmp_path)
    seg.cli._write_manifest(tmp_path / "elsewhere", "probe", {})
    a = json.loads((tmp_path / "root" / "run_manifest.json").read_text())
    b = json.loads((tmp_path / "elsewhere" / "run_manifest.json").read_text())
    assert a["git_describe"] == b["git_describe"]


def test_bad_env_thread_count_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SEG_THREADS", "many")
    rc = main(["synth", "--out-dir", str(tmp_path / "x")] + SYNTH)
    assert rc == 1
    assert "SEG_THREADS" in capsys.readouterr().err


THREADS_PROBE = """
import seg.cli
import numpy as np
a = np.ones((400, 400))
a @ a
status = open("/proc/self/status").read()
print(next(line.split()[1] for line in status.splitlines() if line.startswith("Threads:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("seg_threads", ["1", "2"])
def test_seg_threads_caps_blas_threads_of_a_fresh_process(seg_threads):
    src = Path(seg.cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in seg.cli.THREAD_VARS}
    env.update(SEG_THREADS=seg_threads, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", THREADS_PROBE], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    threads = int(out.stdout.strip())
    assert 1 <= threads <= int(seg_threads)


def test_reruns_at_two_threads_are_byte_identical(tmp_path):
    corpus = synth(tmp_path)
    src = Path(seg.cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in seg.cli.THREAD_VARS}
    env.update(SEG_THREADS="2", PYTHONPATH=str(src))
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        argv = [sys.executable, "-m", "seg.cli", "train", "--train-data",
                str(corpus / "train.jsonl"), "--out-dir", str(out), "--max-steps", "3"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append([(out / f).read_bytes() for f in ("ckpt_final.bin", "history.csv")])
    assert runs[0] == runs[1]


# -- synth ----------------------------------------------------------------------


def test_synth_outputs_and_manifest(tmp_path, capsys):
    out = synth(tmp_path)
    assert (out / "train.jsonl").exists()
    assert (out / "test.jsonl").exists()
    assert (out / "synth_manifest.json").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seeds"] == {"data_seed": 3}
    assert not any("time" in key.lower() for key in manifest)
    assert "wrote" in capsys.readouterr().out


def test_synth_is_byte_deterministic(tmp_path):
    a = synth(tmp_path, "a")
    b = synth(tmp_path, "b")
    for name in ("train.jsonl", "test.jsonl", "synth_manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_synth_capacity_error_exits_one_after_manifest(tmp_path, capsys):
    out = tmp_path / "over"
    rc = main(["synth", "--out-dir", str(out), "--num-relations", "8",
               "--num-entities", "16", "--vocab-size", "96",
               "--num-bags", "4000", "--data-seed", "0"])
    assert rc == 1
    assert "pairs" in capsys.readouterr().err
    # The manifest lands before generation starts, so the failed run is
    # still attributable.
    assert (out / "run_manifest.json").exists()


# -- train ----------------------------------------------------------------------


def test_train_writes_checkpoint_history_manifest(tmp_path, capsys):
    corpus = synth(tmp_path)
    run = quick_train(tmp_path, corpus)
    assert (run / "ckpt_final.json").exists()
    assert (run / "ckpt_final.bin").exists()
    history = (run / "history.csv").read_text().splitlines()
    assert history[0] == "step,loss,lr,train_acc,eval_auc"
    assert len(history) == 4
    manifest = json.loads((run / "run_manifest.json").read_text())
    assert manifest["resolved"]["model_config"]["word_dim"] == 3
    assert manifest["seeds"] == {"data_seed": 1, "model_seed": 7}
    assert "trained seg" in capsys.readouterr().out


def test_train_missing_corpus_exits_one(tmp_path, capsys):
    rc = main(["train", "--train-data", str(tmp_path / "nope.jsonl"),
               "--out-dir", str(tmp_path / "run")] + TINY_MODEL)
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    corpus = synth(tmp_path)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps({"word_dim": 3, "wordDim": 4}))
    rc = main(["train", "--train-data", str(corpus / "train.jsonl"),
               "--out-dir", str(tmp_path / "run"), "--model-config", str(bad)])
    assert rc == 1
    assert "unknown keys: wordDim" in capsys.readouterr().err


def test_config_file_then_flags_layering(tmp_path):
    corpus = synth(tmp_path)
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "word_dim": 3, "pos_dim": 2, "conv_channels": 4, "embed_dim": 9,
        "pos_clip": 5, "cls_hidden": 6, "dropout_p": 0.0, "l2_coef": 0.5,
    }))
    run = tmp_path / "layered"
    rc = main(["train", "--train-data", str(corpus / "train.jsonl"),
               "--out-dir", str(run), "--model-config", str(cfg),
               "--l2-coef", "0.01", "--max-steps", "1", "--batch-size", "8"])
    assert rc == 0
    resolved = json.loads((run / "run_manifest.json").read_text())["resolved"]
    assert resolved["model_config"]["l2_coef"] == 0.01   # flag beats file
    assert resolved["model_config"]["cls_hidden"] == 6   # file beats default


def test_resume_matches_straight_run_bit_for_bit(tmp_path):
    corpus = synth(tmp_path)
    straight = quick_train(tmp_path, corpus, "straight", steps="4")
    first = quick_train(tmp_path, corpus, "first", steps="2")
    resumed = tmp_path / "resumed"
    rc = main([
        "train", "--train-data", str(corpus / "train.jsonl"),
        "--out-dir", str(resumed), "--resume", str(first / "ckpt_final.json"),
        "--max-steps", "4", "--batch-size", "8", "--lr0", "0.1",
        "--data-seed", "1",
    ])
    assert rc == 0
    assert (resumed / "ckpt_final.bin").read_bytes() == \
        (straight / "ckpt_final.bin").read_bytes()
    assert (resumed / "ckpt_final.json").read_bytes() == \
        (straight / "ckpt_final.json").read_bytes()


def test_resume_with_model_flags_exits_one_naming_them(tmp_path, capsys):
    corpus = synth(tmp_path)
    run = quick_train(tmp_path, corpus, steps="2")
    out = tmp_path / "again"
    rc = main(["train", "--train-data", str(corpus / "train.jsonl"), "--out-dir", str(out),
               "--resume", str(run / "ckpt_final.json"), "--max-steps", "4",
               "--variant", "seg_wo_all", "--word-dim", "7",
               "--model-config", str(tmp_path / "nonexistent.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--model-config, --word-dim, --variant" in err
    assert not out.exists()


def test_resume_with_pretrained_embeddings_exits_one_naming_it(tmp_path, capsys):
    corpus = synth(tmp_path)
    run = quick_train(tmp_path, corpus, steps="2")
    out = tmp_path / "again"
    rc = main(["train", "--train-data", str(corpus / "train.jsonl"), "--out-dir", str(out),
               "--resume", str(run / "ckpt_final.json"), "--max-steps", "4",
               "--pretrained-embeddings", str(tmp_path / "nonexistent_embeddings.txt")])
    assert rc == 1
    assert "drop --pretrained-embeddings" in capsys.readouterr().err
    assert not out.exists()


def test_resume_beyond_max_steps_exits_one(tmp_path, capsys):
    corpus = synth(tmp_path)
    run = quick_train(tmp_path, corpus, steps="3")
    rc = main(["train", "--train-data", str(corpus / "train.jsonl"),
               "--out-dir", str(tmp_path / "again"),
               "--resume", str(run / "ckpt_final.json"),
               "--max-steps", "3", "--batch-size", "8"])
    assert rc == 1
    assert "already at step 3" in capsys.readouterr().err


def test_resume_with_mismatched_corpus_exits_one(tmp_path, capsys):
    corpus = synth(tmp_path)
    other = tmp_path / "other"
    rc = main(["synth", "--out-dir", str(other), "--num-relations", "5",
               "--num-entities", "64", "--vocab-size", "96", "--num-bags", "16",
               "--max-len", "20", "--data-seed", "4"])
    assert rc == 0
    run = quick_train(tmp_path, corpus)
    rc = main(["train", "--train-data", str(other / "train.jsonl"),
               "--out-dir", str(tmp_path / "bad"),
               "--resume", str(run / "ckpt_final.json"),
               "--max-steps", "5", "--batch-size", "8"])
    assert rc == 1
    assert "does not match the checkpoint vocabulary" in capsys.readouterr().err


def test_pretrained_embeddings_flow(tmp_path, capsys):
    corpus = synth(tmp_path)
    words = []
    with (corpus / "train.jsonl").open() as fh:
        for line in fh:
            words.extend(json.loads(line)["tokens"])
            if len(words) > 4:
                break
    chosen = sorted(set(words))[:2]
    emb = tmp_path / "vectors.txt"
    emb.write_text("".join(f"{w} 0.5 -0.25 0.125\n" for w in chosen))
    run = tmp_path / "pre"
    rc = main(["train", "--train-data", str(corpus / "train.jsonl"),
               "--out-dir", str(run), "--pretrained-embeddings", str(emb),
               "--max-steps", "1", "--batch-size", "8"] + TINY_MODEL)
    assert rc == 0
    assert f"loaded pretrained vectors for {len(chosen)}" in capsys.readouterr().out


def test_pretrained_width_mismatch_exits_one(tmp_path, capsys):
    corpus = synth(tmp_path)
    emb = tmp_path / "vectors.txt"
    emb.write_text("anything 1.0 2.0\n")
    rc = main(["train", "--train-data", str(corpus / "train.jsonl"),
               "--out-dir", str(tmp_path / "run"),
               "--pretrained-embeddings", str(emb),
               "--max-steps", "1", "--batch-size", "8"] + TINY_MODEL)
    assert rc == 1
    assert "expected 3 values" in capsys.readouterr().err


# -- eval -----------------------------------------------------------------------


def run_eval(tmp_path, corpus, run, name="evalout", extra=()):
    out = tmp_path / name
    rc = main(["eval", "--checkpoint", str(run / "ckpt_final.json"),
               "--test-data", str(corpus / "test.jsonl"),
               "--out-dir", str(out)] + list(extra))
    return rc, out


def test_eval_reports_and_reruns_identically(tmp_path, capsys):
    corpus = synth(tmp_path)
    run = quick_train(tmp_path, corpus)
    rc, out_a = run_eval(tmp_path, corpus, run, "eval_a")
    assert rc == 0
    report = json.loads((out_a / "report.json").read_text())
    assert 0.0 <= report["auc"] <= 1.0
    assert set(report["p_at_n"]) == {"One", "Two", "All"}
    pr_lines = (out_a / "pr_curve.csv").read_text().splitlines()
    assert pr_lines[0] == "score,precision,recall"
    assert "auc" in capsys.readouterr().out

    rc, out_b = run_eval(tmp_path, corpus, run, "eval_b")
    assert rc == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "pr_curve.csv").read_bytes() == (out_b / "pr_curve.csv").read_bytes()


def test_eval_makes_one_prediction_pass(tmp_path, monkeypatch):
    import seg.evaluation
    from seg.data import load_jsonl

    corpus = synth(tmp_path)
    run = quick_train(tmp_path, corpus)
    calls = []
    real = seg.evaluation.forward_bags
    monkeypatch.setattr(seg.evaluation, "forward_bags",
                        lambda bags, *a: calls.extend(bags) or real(bags, *a))
    rc, _ = run_eval(tmp_path, corpus, run)
    assert rc == 0
    bags = load_jsonl(corpus / "test.jsonl").bags
    multi = sum(1 for b in bags if len(b.sentences) >= 2)
    assert multi > 0
    assert len(calls) <= len(bags) + 2 * multi


def test_eval_vocab_mismatch_exits_one(tmp_path, capsys):
    corpus = synth(tmp_path)
    run = quick_train(tmp_path, corpus)
    other = tmp_path / "other"
    assert main(["synth", "--out-dir", str(other), "--num-relations", "5",
                 "--num-entities", "64", "--vocab-size", "96", "--num-bags", "16",
                 "--max-len", "20", "--data-seed", "4"]) == 0
    rc, _ = run_eval(other.parent, other, run, "mismatch")
    assert rc == 1
    err = capsys.readouterr().err
    assert "does not match the checkpoint vocabulary" in err
    assert "fingerprint" in err


def test_eval_one_sentence_filter(tmp_path):
    corpus = synth(tmp_path, extra=["--one-sentence-fraction", "0.5"])
    run = quick_train(tmp_path, corpus)
    rc, out = run_eval(tmp_path, corpus, run, "singles", extra=["--one-sentence-only"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["one_sentence_only"] is True
    # With every bag reduced to one sentence the multi-sentence P@N pool
    # is empty in all three modes.
    assert report["p_at_n"]["All"]["mean"] is None


def test_eval_one_sentence_filter_with_no_singletons_exits_one(tmp_path, capsys):
    corpus = synth(tmp_path, "multi", extra=["--one-sentence-fraction", "0.0"])
    run = quick_train(tmp_path, corpus)
    rc, _ = run_eval(tmp_path, corpus, run, "none", extra=["--one-sentence-only"])
    assert rc == 1
    assert "no single-sentence bags" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_one(tmp_path, capsys):
    corpus = synth(tmp_path)
    rc = main(["eval", "--checkpoint", str(tmp_path / "ghost.json"),
               "--test-data", str(corpus / "test.jsonl"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def _break_manifest(manifest: dict, how: str) -> str:
    if how == "not_json":
        return json.dumps(manifest)[:-7]
    if how == "missing_key":
        del manifest["vocab_size"]
    elif how == "missing_dataset_key":
        del manifest["dataset"]["word_vocab"]
    else:
        manifest["model_config"]["no_such_field"] = 1
    return json.dumps(manifest)


@pytest.mark.parametrize("how", ["not_json", "missing_key", "unknown_config_key",
                                 "missing_dataset_key"])
def test_eval_unparseable_checkpoint_manifest_exits_one(tmp_path, capsys, how):
    corpus = synth(tmp_path)
    run = quick_train(tmp_path, corpus)
    man = run / "ckpt_final.json"
    man.write_text(_break_manifest(json.loads(man.read_text()), how))
    capsys.readouterr()
    rc, _ = run_eval(tmp_path, corpus, run)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint manifest") and err.count("\n") == 1


def _bad_input(tmp_path, case):
    """Write one bad input; return the argv that reads it and the name that
    the error must carry (the file, or the config key)."""
    corpus = synth(tmp_path)
    bad = tmp_path / "bad_input"

    def train(*extra, data=corpus / "train.jsonl"):
        return ["train", "--train-data", str(data), "--out-dir", str(tmp_path / "bad_run"),
                "--max-steps", "1"] + TINY_MODEL + list(extra)

    if case in ("empty_bin", "bin_cut_at_tensor", "bin_from_another_save", "manifest_not_utf8",
                "manifest_v1") or case.startswith("manifest_wrong_type"):
        run = quick_train(tmp_path, corpus)
        man, binary = run / "ckpt_final.json", run / "ckpt_final.bin"
        manifest = json.loads(man.read_text())
        named = binary
        if case == "manifest_not_utf8":
            man.write_bytes(b"\xff" + man.read_bytes())
            named = man
        elif case == "manifest_v1":
            man.write_text(json.dumps({**manifest, "format": "seg-checkpoint-v1"}))
            named = man
        elif case.startswith("manifest_wrong_type"):
            named = case.rsplit(".", 1)[1]
            fields = manifest["model_config"] if named == "word_dim" else manifest
            fields[named] = "x"
            man.write_text(json.dumps(manifest))
            if named == "step":
                return train("--resume", str(man), "--max-steps", "9"), named
        elif case == "bin_from_another_save":
            other = quick_train(tmp_path, corpus, "other", extra=["--model-seed", "8"])
            binary.write_bytes((other / "ckpt_final.bin").read_bytes())
        else:
            shape = manifest["registry"][0]["shape"]
            cut = 0 if case == "empty_bin" else 8 * math.prod(shape)
            binary.write_bytes(binary.read_bytes()[:cut])
        return ["eval", "--checkpoint", str(man), "--test-data", str(corpus / "test.jsonl"),
                "--out-dir", str(tmp_path / "out")], str(named)
    if case == "corpus_not_utf8":
        bad.write_bytes((corpus / "train.jsonl").read_bytes() + b"\xff\n")
        return train(data=bad), str(bad)
    if case == "pretrained_not_utf8":
        bad.write_bytes(b"w\xff 0.5 0.5 0.5\n")
        return train("--pretrained-embeddings", str(bad)), str(bad)
    if case == "model_config_not_utf8":
        bad.write_bytes(b'{"word_dim": "\xff"}')
        return train("--model-config", str(bad)), str(bad)
    what, key, value = {"model_config_wrong_type": ("--model-config", "word_dim", "x"),
                        "train_config_wrong_type": ("--train-config", "lr0", "x"),
                        "synth_spec_wrong_type": ("--spec-file", "num_bags", 2.5)}[case]
    bad.write_text(json.dumps({key: value}))
    if what == "--spec-file":
        return ["synth", "--out-dir", str(tmp_path / "bad_synth"), what, str(bad)], key
    return train(what, str(bad)), key


@pytest.mark.parametrize("case", [
    "empty_bin", "bin_cut_at_tensor", "bin_from_another_save", "manifest_not_utf8",
    "manifest_v1", "manifest_wrong_type.word_dim", "manifest_wrong_type.vocab_size",
    "manifest_wrong_type.step", "corpus_not_utf8",
    "pretrained_not_utf8", "model_config_not_utf8", "model_config_wrong_type",
    "train_config_wrong_type", "synth_spec_wrong_type"])
def test_bad_input_exits_one_naming_it(tmp_path, capsys, case):
    argv, named = _bad_input(tmp_path, case)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err


# -- gradcheck --------------------------------------------------------------------


def test_gradcheck_single_variant_passes(tmp_path, capsys):
    rc = main(["gradcheck", "--variant", "seg", "--out-dir", str(tmp_path / "gc")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seg" in out
    assert "gradcheck: PASS" in out
    manifest = json.loads((tmp_path / "gc" / "run_manifest.json").read_text())
    assert manifest["resolved"]["variants"] == ["seg"]
    assert manifest["resolved"]["eps"] == 1e-5


def test_gradcheck_rejects_dropout(tmp_path, capsys):
    rc = main(["gradcheck", "--variant", "seg", "--dropout-p", "0.5",
               "--out-dir", str(tmp_path / "gc")])
    assert rc == 1
    assert "dropout" in capsys.readouterr().err


# -- ablate ----------------------------------------------------------------------


def test_ablate_produces_full_table(tmp_path, capsys):
    corpus = synth(tmp_path)
    out = tmp_path / "ablation"
    rc = main(["ablate", "--train-data", str(corpus / "train.jsonl"),
               "--test-data", str(corpus / "test.jsonl"),
               "--out-dir", str(out), "--max-steps", "2", "--batch-size", "8",
               "--data-seed", "1"] + TINY_MODEL)
    assert rc == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,auc,non_na_acc,p_mean_one,p_mean_two,p_mean_all"
    variants = [line.split(",")[0] for line in lines[1:]]
    assert variants == ["seg", "seg_wo_ent", "seg_wo_gate", "seg_wo_gate_wo_attn",
                        "seg_wo_all", "seg_attn_wo_gate", "seg_attn", "seg_stack"]
    for variant in variants:
        vdir = out / "variants" / variant
        assert (vdir / "report.json").exists()
        assert (vdir / "ckpt_final.bin").exists()
    assert "seg_stack" in capsys.readouterr().out

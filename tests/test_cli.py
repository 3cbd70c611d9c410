"""End-to-end command-line behavior: exit codes, manifests, reproducibility."""

import json

import pytest

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


def test_bad_env_thread_count_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SEG_THREADS", "many")
    rc = main(["synth", "--out-dir", str(tmp_path / "x")] + SYNTH)
    assert rc == 1
    assert "SEG_THREADS" in capsys.readouterr().err


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
    else:
        manifest["model_config"]["no_such_field"] = 1
    return json.dumps(manifest)


@pytest.mark.parametrize("how", ["not_json", "missing_key", "unknown_config_key"])
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

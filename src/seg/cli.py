"""Command-line front end: synth, train, eval, gradcheck, ablate.

Configuration resolves in three layers: dataclass defaults, then a JSON
config file, then explicit flags; each config dataclass field is a flag.
Exactly two seeds exist: the data seed drives generation, shuffling, and
subsampling; the model seed drives initialization and dropout. Every
command writes a run manifest into its output directory before doing any
real work, and a finished run is fully reproducible from that manifest.
Exit codes: 0 success, 1 invalid input or configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from . import __version__
from .errors import DataError, SegError, ValidationError

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _seg_threads() -> int:
    raw = os.environ.get("SEG_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"SEG_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValidationError(f"SEG_THREADS must be at least 1, got {value}")
    return value


# numpy sizes its thread pools once, when it loads, so SEG_THREADS is applied
# before the imports below. An invalid value is left for the command to report.
with contextlib.suppress(ValidationError):
    os.environ.update(dict.fromkeys(THREAD_VARS, str(_seg_threads())))

from .data import (
    Dataset,
    SynthSpec,
    check_json_fields,
    dataset_meta,
    filter_one_sentence,
    generate_synthetic_with_manifest,
    load_jsonl,
    save_jsonl,
)
from .embedding import load_pretrained_words
from .evaluation import build_eval_report, write_pr_csv, write_report_json
from .model import (
    VARIANTS,
    ModelConfig,
    SegParams,
    load_checkpoint,
    run_gradcheck,
    save_checkpoint,
)
from .training import TrainConfig, save_history_csv, train

class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on bad arguments, per our contract."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_manifest(out_dir: Path, command: str, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "package_version": __version__,
        "git_describe": _git_describe(),
        "seg_threads": _seg_threads(),
    }
    manifest.update(payload)
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


# Each config class: the flag naming its JSON file, and what that file is called.
_CONFIG_FILE_FLAG = {
    ModelConfig: ("model_config", "model"),
    TrainConfig: ("train_config", "train"),
    SynthSpec: ("spec_file", "synth"),
}
# Fields that are not flags: the relation count always comes from the data,
# and the checkpoint directory from --out-dir.
_NOT_FLAGS = {(ModelConfig, "num_relations"), (TrainConfig, "checkpoint_dir")}
_FLAG_HELP = {
    "scalar_gate": "collapse each gate vector to its mean",
    "model_seed": "seed for initialization and dropout",
    "data_seed": "seed for generation, shuffling and subsampling",
}


def _flag_fields(cls) -> dict[str, dataclasses.Field]:
    """The fields of ``cls`` that are flags, keyed by the flag's dest. A seed
    flag names its seed: --model-seed for the model, --data-seed otherwise."""
    seed = "model_seed" if cls is ModelConfig else "data_seed"
    return {seed if f.name == "seed" else f.name: f for f in dataclasses.fields(cls)
            if (cls, f.name) not in _NOT_FLAGS}


def _add_config_flags(p: argparse.ArgumentParser, cls) -> None:
    """The config-file flag of ``cls`` and one flag per field, typed by the
    field's annotation. Flags default to None, meaning "not given"."""
    file_dest, what = _CONFIG_FILE_FLAG[cls]
    p.add_argument(f"--{file_dest.replace('_', '-')}", metavar="JSON",
                   help=f"{what} config file")
    for dest, f in _flag_fields(cls).items():
        flag, kind = f"--{dest.replace('_', '-')}", f.type.split(" | ")[0]
        if kind == "bool":
            p.add_argument(flag, action="store_const", const=True, default=None,
                           help=_FLAG_HELP.get(dest))
        else:
            p.add_argument(flag, type={"int": int, "float": float}.get(kind),
                           default=None, choices=VARIANTS if dest == "variant" else None,
                           help=_FLAG_HELP.get(dest))


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-len", type=int, default=120)
    p.add_argument("--bag-cap", type=int, default=20)


def _resolve_config(args, cls, **fixed):
    """Dataclass defaults, then the JSON config file, then the flags given, then ``fixed``."""
    file_dest, what = _CONFIG_FILE_FLAG[cls]
    from_file = {}
    if getattr(args, file_dest) is not None:
        p = Path(getattr(args, file_dest))
        if not p.exists():
            raise ValidationError(f"{what} config file not found: {p}")
        try:
            from_file = json.loads(p.read_text(encoding="utf-8"))
        except ValueError as e:  # malformed JSON or bytes that are not UTF-8
            raise ValidationError(f"{what} config file {p} is not valid JSON: {e}") from None
        check_json_fields(from_file, {f.name: f.type for f in dataclasses.fields(cls)},
                          f"{what} config file {p}")
    given = {f.name: getattr(args, dest) for dest, f in _flag_fields(cls).items()
             if getattr(args, dest) is not None}
    resolved = {**from_file, **given, **fixed}
    # Checked before any command writes its manifest: json.dumps would write
    # a non-finite float as a bare NaN or Infinity, which is not JSON.
    for name, value in resolved.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    return cls(**resolved)


_VOCAB_KEYS = ("relation_names", "word_vocab", "entity_vocab")
_CKPT_DATASET_KEYS = _VOCAB_KEYS + ("fingerprint",)


def _load_corpus(path, args, vocab: dict | None = None) -> Dataset:
    """Load JSONL under --max-len and --bag-cap. ``vocab``, a dataset_meta
    dict, fixes the relation table and both vocabularies."""
    fixed = {k: vocab[k] for k in _VOCAB_KEYS} if vocab else {}
    return load_jsonl(path, max_len=args.max_len, bag_cap=args.bag_cap, **fixed)


def _load_with_checkpoint_vocab(path, manifest: dict, what: str, args) -> Dataset:
    """Load JSONL against a checkpoint's vocabularies; a mismatch names both fingerprints."""
    meta = manifest["dataset"]
    missing = [k for k in _CKPT_DATASET_KEYS if not isinstance(meta, dict) or k not in meta]
    if missing:
        raise ValidationError(f"checkpoint manifest's dataset entry lacks key(s) "
                              f"{', '.join(missing)}")
    try:
        return _load_corpus(path, args, meta)
    except DataError as e:
        got = dataset_meta(_load_corpus(path, args))
        raise ValidationError(
            f"{what} data does not match the checkpoint vocabulary (checkpoint fingerprint "
            f"{meta['fingerprint']}, standalone data fingerprint {got['fingerprint']}): {e}"
        ) from None


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = _resolve_config(args, SynthSpec)

    out_dir = Path(args.out_dir)
    _write_manifest(out_dir, "synth", {
        "resolved": {"synth_spec": dataclasses.asdict(spec)},
        "seeds": {"data_seed": spec.seed},
        "outputs": {
            "train": str(out_dir / "train.jsonl"),
            "test": str(out_dir / "test.jsonl"),
            "sidecar": str(out_dir / "synth_manifest.json"),
        },
    })
    train_ds, test_ds, sidecar = generate_synthetic_with_manifest(spec)
    save_jsonl(train_ds, out_dir / "train.jsonl")
    save_jsonl(test_ds, out_dir / "test.jsonl")
    (out_dir / "synth_manifest.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(train_ds.bags)} train bags and {len(test_ds.bags)} test bags "
          f"to {out_dir}")
    return 0


def cmd_train(args) -> int:
    out_dir = Path(args.out_dir)
    start_step = 0
    resume_params = None
    if args.resume:
        resume_params, model_config, manifest = load_checkpoint(args.resume)
        model_flags = [f"--{dest.replace('_', '-')}"
                       for dest in ("model_config", "pretrained_embeddings",
                                    *_flag_fields(ModelConfig))
                       if getattr(args, dest) is not None]
        if model_flags:
            raise ValidationError("--resume continues the checkpoint's model; drop "
                                  + ", ".join(model_flags))
        start_step = manifest["step"]
        train_ds = _load_with_checkpoint_vocab(args.train_data, manifest, "training", args)
    else:
        train_ds = _load_corpus(args.train_data, args)
        model_config = _resolve_config(args, ModelConfig,
                                       num_relations=len(train_ds.relation_names))

    train_config = _resolve_config(args, TrainConfig)
    if train_config.checkpoint_dir is None:
        train_config = dataclasses.replace(train_config,
                                           checkpoint_dir=str(out_dir / "checkpoints"))
    if args.resume and start_step >= train_config.max_steps:
        raise ValidationError(
            f"checkpoint is already at step {start_step}; raise --max-steps to continue"
        )

    train_meta = dataset_meta(train_ds)
    eval_ds = _load_corpus(args.eval_data, args, train_meta) if args.eval_data else None
    _write_manifest(out_dir, "train", {
        "inputs": {"train_data": args.train_data, "eval_data": args.eval_data,
                   "resume": args.resume},
        "config_files": {"model": args.model_config, "train": args.train_config},
        "resolved": {
            "model_config": dataclasses.asdict(model_config),
            "train_config": dataclasses.asdict(train_config),
        },
        "seeds": {"data_seed": train_config.seed, "model_seed": model_config.seed},
        "dataset_fingerprint": train_meta["fingerprint"],
        "outputs": {
            "checkpoint": str(out_dir / "ckpt_final.json"),
            "history": str(out_dir / "history.csv"),
        },
    })

    if args.pretrained_embeddings:
        resume_params = SegParams(model_config, len(train_ds.word_vocab))
        vectors, found = load_pretrained_words(
            args.pretrained_embeddings, train_ds.word_vocab, model_config.word_dim
        )
        resume_params.tables.word.data[found] = vectors[found]
        print(f"loaded pretrained vectors for {int(found.sum())} of "
              f"{len(train_ds.word_vocab)} words")

    params, history = train(
        train_ds, model_config, train_config,
        eval_ds=eval_ds, params=resume_params, start_step=start_step,
    )
    save_checkpoint(out_dir / "ckpt_final", params, model_config, train_meta,
                    train_config.max_steps)
    save_history_csv(history, out_dir / "history.csv")
    final_loss = history[-1]["loss"] if history else float("nan")
    print(f"trained {model_config.variant} for "
          f"{train_config.max_steps - start_step} step(s); final loss {final_loss:.4f}; "
          f"checkpoint at {out_dir / 'ckpt_final.json'}")
    return 0


def cmd_eval(args) -> int:
    params, model_config, manifest = load_checkpoint(args.checkpoint)
    test_ds = _load_with_checkpoint_vocab(args.test_data, manifest, "evaluation", args)
    meta = manifest["dataset"]
    if args.one_sentence_only:
        test_ds = filter_one_sentence(test_ds)
        if not test_ds.bags:
            raise ValidationError("no single-sentence bags left after filtering")

    out_dir = Path(args.out_dir)
    _write_manifest(out_dir, "eval", {
        "inputs": {"checkpoint": args.checkpoint, "test_data": args.test_data,
                   "one_sentence_only": bool(args.one_sentence_only)},
        "resolved": {"model_config": dataclasses.asdict(model_config)},
        "seeds": {"data_seed": args.subsample_seed, "model_seed": model_config.seed},
        "checkpoint_fingerprint": meta["fingerprint"],
        "outputs": {
            "report": str(out_dir / "report.json"),
            "pr_curve": str(out_dir / "pr_curve.csv"),
        },
    })

    report = build_eval_report(
        test_ds, params, model_config,
        subsample_seed=args.subsample_seed,
        extra_metadata={
            "checkpoint_fingerprint": meta["fingerprint"],
            "checkpoint_step": manifest.get("step"),
            "one_sentence_only": bool(args.one_sentence_only),
            "seeds": {"data_seed": args.subsample_seed, "model_seed": model_config.seed},
        },
    )
    write_report_json(report, out_dir / "report.json")
    write_pr_csv(report.decisions, report.metadata["total_gold_positives"],
                 out_dir / "pr_curve.csv")
    print(f"auc {report.auc:.4f}  non_na_acc {report.non_na_acc:.4f}  "
          f"({len(test_ds.bags)} bags)")
    return 0


def cmd_gradcheck(args) -> int:
    if args.dropout_p:
        raise ValidationError(
            "gradient checking requires a deterministic objective; dropout stays off"
        )
    variants = list(VARIANTS) if args.variant == "all" else [args.variant]
    out_dir = Path(args.out_dir)
    _write_manifest(out_dir, "gradcheck", {
        "resolved": {"variants": variants, "eps": args.eps, "tol": args.tol},
        "seeds": {"model_seed": args.model_seed},
    })
    all_ok = True
    for variant in variants:
        report = run_gradcheck(variant, eps=args.eps, tol=args.tol, seed=args.model_seed)
        worst = max(e.max_rel_err for e in report.entries)
        status = "PASS" if report.passed else "FAIL"
        print(f"{variant:<22} worst_rel_err={worst:.3e}  {status}")
        if not report.passed:
            all_ok = False
            for entry in report.entries:
                if not entry.ok:
                    print(f"  {entry.name}: max_rel_err={entry.max_rel_err:.3e}")
    print("gradcheck:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 2


def cmd_ablate(args) -> int:
    train_ds = _load_corpus(args.train_data, args)
    meta = dataset_meta(train_ds)
    test_ds = _load_corpus(args.test_data, args, meta)
    out_dir = Path(args.out_dir)
    base_model = _resolve_config(args, ModelConfig, num_relations=len(train_ds.relation_names))
    train_config = _resolve_config(args, TrainConfig, checkpoint_dir=None)

    _write_manifest(out_dir, "ablate", {
        "inputs": {"train_data": args.train_data, "test_data": args.test_data},
        "config_files": {"model": args.model_config, "train": args.train_config},
        "resolved": {
            "model_config": dataclasses.asdict(base_model),
            "train_config": dataclasses.asdict(train_config),
            "variant_order": list(VARIANTS),
        },
        "seeds": {"data_seed": train_config.seed, "model_seed": base_model.seed},
        "outputs": {"table": str(out_dir / "ablation.csv")},
    })

    rows = []
    for variant in VARIANTS:
        model_config = dataclasses.replace(base_model, variant=variant)
        params, _ = train(train_ds, model_config, train_config)
        report = build_eval_report(test_ds, params, model_config,
                                   subsample_seed=train_config.seed)
        vdir = out_dir / "variants" / variant
        write_report_json(report, vdir / "report.json")
        save_checkpoint(vdir / "ckpt_final", params, model_config, meta,
                        train_config.max_steps)
        means = {m: report.p_at_n[m]["mean"] for m in ("One", "Two", "All")}
        rows.append((variant, report.auc, report.non_na_acc, means))
        print(f"{variant:<22} auc={report.auc:.4f}  non_na_acc={report.non_na_acc:.4f}")

    table = out_dir / "ablation.csv"
    with table.open("w", newline="") as fh:
        fh.write("variant,auc,non_na_acc,p_mean_one,p_mean_two,p_mean_all\n")
        for variant, auc, acc, means in rows:
            cells = [variant, f"{auc:.6f}", f"{acc:.6f}"]
            cells += ["" if means[m] is None else f"{means[m]:.6f}"
                      for m in ("One", "Two", "All")]
            fh.write(",".join(cells) + "\n")
    print(f"wrote {table}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="seg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"seg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic noisy-bag corpus")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p, SynthSpec)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one variant on a JSONL corpus")
    p.add_argument("--train-data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--eval-data", help="optional held-out JSONL for periodic AUC")
    p.add_argument("--resume", metavar="CKPT",
                   help="continue from a checkpoint; model config comes from it")
    p.add_argument("--pretrained-embeddings", metavar="TXT",
                   help="text file of word vectors to overwrite matching rows "
                        "of the initial word table (not with --resume)")
    _add_corpus_flags(p)
    _add_config_flags(p, ModelConfig)
    _add_config_flags(p, TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on held-out JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--one-sentence-only", action="store_true",
                   help="keep only single-sentence bags")
    p.add_argument("--subsample-seed", type=int, default=0)
    _add_corpus_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every variant")
    p.add_argument("--variant", choices=("all",) + VARIANTS, default="all")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--model-seed", type=int, default=2)
    p.add_argument("--dropout-p", type=float, default=0.0,
                   help="must stay 0; present so the refusal is explicit")
    p.add_argument("--out-dir", default="gradcheck_out")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and evaluate all variants, one CSV")
    p.add_argument("--train-data", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--out-dir", required=True)
    _add_corpus_flags(p)
    _add_config_flags(p, ModelConfig)
    _add_config_flags(p, TrainConfig)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SegError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything unexpected is a runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

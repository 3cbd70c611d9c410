"""Spans around calls into each ``seg`` layer, taken from outside the program.

Every target is wrapped where its caller looks the name up: primitives as
``seg.numerics.<name>`` (callers go through the module), while embedding,
encoder and aggregation functions are imported into ``seg.model`` and must
be wrapped there. A target that no longer exists is recorded as absent and
the metrics that need it are skipped; the run goes on.

Spans stay in memory. Fine-grained calls (primitives and per-sentence layer
functions, thousands per step) are folded into per-(name, phase, variant)
totals as they end; coarse calls (train steps, loss, backward, reports,
forward passes, loads) are also kept one by one and written out at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

ELEMENTWISE = ("add", "mul", "scale", "shift", "sigmoid", "tanh", "relu", "log")
PRIMS = ("matmul", "conv1d", "segment_max_pool", "embedding_lookup",
         "softmax_over_axis", "concat", "elementwise")

# (layer, module, attribute, keep each span)
TARGETS = (
    [("numerics", "seg.numerics", p, False) for p in PRIMS[:-1] + ELEMENTWISE]
    + [
        ("numerics", "seg.numerics", "backward", True),
        ("numerics", "seg.numerics", "clear_tape", False),
        ("numerics", "seg.numerics", "zero_grads", False),
        ("embedding", "seg.model", "embed_positional", False),
        ("embedding", "seg.model", "embed_entity_concat", False),
        ("embedding", "seg.model", "entity_aware_embed", False),
        ("encoders", "seg.model", "pcnn_encode", False),
        ("encoders", "seg.model", "self_attn_encode", False),
        ("encoders", "seg.model", "stacked_encode", False),
        ("aggregation", "seg.model", "gate_values", False),
        ("aggregation", "seg.model", "gate_aggregate", False),
        ("aggregation", "seg.model", "concat_aggregate", False),
        ("aggregation", "seg.model", "mean_vectors", False),
        ("aggregation", "seg.model", "selective_attention_aggregate", False),
        ("aggregation", "seg.model", "gate_plus_attention_aggregate", False),
        ("model", "seg.training", "loss", True),
        ("model", "seg.model", "forward_bag", True),
        ("model", "seg.evaluation", "forward_bag", True),
        ("model", "seg.model", "load_checkpoint", True),
        ("training", "seg.training", "train", True),
        ("training", "seg.training", "vocab_fingerprint", True),
        ("evaluation", "seg.evaluation", "build_eval_report", True),
        ("evaluation", "seg.evaluation", "score_decisions", True),
        ("evaluation", "seg.evaluation", "ranked", True),
        ("data", "seg.data", "load_jsonl", True),
    ]
)


class Tracer:
    """Wraps the targets while active; the harness labels phase and variant."""

    def __init__(self):
        self.phase = "setup"
        self.variant = "-"
        self.spans: list[tuple] = []          # (name, phase, variant, t0, t1, self_s, parent)
        self.calls = defaultdict(int)         # (name, phase, variant) -> calls
        self.incl = defaultdict(float)        # (name, phase, variant) -> inclusive s
        self.layer_s = defaultdict(float)     # (layer, phase, variant) -> s, outermost calls only
        self.extra = defaultdict(float)       # (counter, phase, variant) -> value
        self.present: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[list] = []          # [name, layer, t0, child_s, span_index]
        self._saved: list[tuple] = []

    def __enter__(self):
        for layer, mod_name, attr, keep in TARGETS:
            name = f"{mod_name}.{attr}"
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self.present.add(name)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, layer, keep))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def has(self, *names: str) -> bool:
        return any(n in self.present for n in names)

    def _wrap(self, fn, name: str, layer: str, keep: bool):
        short = name.rsplit(".", 1)[1]
        prim = "elementwise" if short in ELEMENTWISE else short if short in PRIMS else None
        stack, perf = self._stack, time.perf_counter
        active_tape = getattr(importlib.import_module("seg.numerics"), "active_tape", None)
        if short == "backward" and active_tape is not None:
            self.present.add("seg.numerics.active_tape")

        def wrapper(*args, **kwargs):
            key = (prim or name, self.phase, self.variant)
            if short == "backward" and active_tape is not None:
                self.extra[("tape_records", self.phase, self.variant)] += len(active_tape())
            frame = [name, layer, perf(), 0.0, len(self.spans) if keep else -1]
            if keep:
                parent = next((f[4] for f in reversed(stack) if f[4] >= 0), -1)
                self.spans.append([name, self.phase, self.variant, frame[2], 0.0, 0.0, parent])
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                t1 = perf()
                dur = t1 - frame[2]
                self.calls[key] += 1
                self.incl[key] += dur
                if stack:
                    stack[-1][3] += dur
                if all(f[1] != layer for f in stack):
                    self.layer_s[(layer, self.phase, self.variant)] += dur
                if keep:
                    span = self.spans[frame[4]]
                    span[4], span[5] = t1, dur - frame[3]
            if short == "embedding_lookup" and getattr(out, "requires_grad", False) \
                    and getattr(args[0], "requires_grad", False):
                # seg pulls a dense vocab x d gradient for every recorded lookup.
                self.extra[("dense_grad_bytes", self.phase, self.variant)] += args[0].data.nbytes
            return out

        return wrapper

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, phase, variant, t0, t1, self_s, parent in self.spans:
                fh.write(json.dumps({"name": name, "phase": phase, "variant": variant,
                                     "start": t0, "end": t1, "self_s": self_s,
                                     "parent": parent}) + "\n")
        return path

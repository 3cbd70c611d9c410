"""Entity-aware relation extraction over noisy sentence bags.

A small, self-contained research stack: a tape-based autodiff core over
numpy, gated entity-aware embeddings, a piecewise-pooled convolutional
encoder paired with token self-attention, gated bag aggregation with a
selective-attention baseline, a synthetic corpus generator, and the
training and evaluation harness that ties them together.

The public names load their submodule on first access, so importing the
package does not import numpy. That lets ``seg.cli`` cap numpy's thread
pools from ``SEG_THREADS`` before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "data": ("Bag", "Dataset", "SentenceExample", "SynthSpec", "generate_synthetic",
             "load_jsonl"),
    "errors": ("DataError", "SegError", "ShapeError", "TrainingAbort", "ValidationError"),
    "model": ("ModelConfig", "SegParams", "VARIANTS", "forward_bag", "load_checkpoint", "loss",
              "save_checkpoint"),
    "numerics": ("Tensor", "backward", "clear_tape", "grad_check", "no_grad"),
    "training": ("TrainConfig", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module 'seg' has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

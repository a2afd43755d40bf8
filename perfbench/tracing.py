"""In-memory span tracing of the axvector modules, installed from outside.

``install(tracer)`` wraps the public functions and layer classes of each
module; nothing in the package itself changes.  A span is recorded as
``[name, start, end, parent, run, work]``: ``parent`` is the index of the
enclosing span (-1 for a root), ``run`` names the stage invocation, and
``work`` is a count computed from argument shapes (FLOPs, bytes, iterations).

Hot leaf calls (feature-file I/O, utterance lookups, per-utterance
convolutions, batch-1 inference) are counted instead: one aggregate
``[count, seconds, work]`` per (run, parent span, name).  An aggregated call
is opaque: instrumented calls nested inside it pass straight through, so a
span's self time is its duration minus its child spans and aggregates.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

perf_counter = time.perf_counter

# layer class -> kind used in the span names model.<kind>.fwd / .bwd
LAYER_KINDS = {
    "ConvLayer": "conv", "AdaptiveConvLayer": "aconv", "BatchNormLayer": "bn",
    "AdaptiveNormLayer": "abn", "ReluLayer": "relu", "StatsPoolLayer": "pool",
    "DenseLayer": "dense",
}
NORM_KINDS = ("bn", "abn")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.aggregates: dict[tuple, list] = {}
        self.run = ""
        self._stack: list[int] = []
        self._opaque = 0

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.run, 0])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap_span(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if work is not None:
                self.spans[index][5] = work(args, result)
            return result
        return traced

    def wrap_count(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            self._opaque += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._opaque -= 1
            key = (self.run, self._stack[-1] if self._stack else -1, name)
            entry = self.aggregates.get(key)
            if entry is None:
                entry = self.aggregates[key] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            if work is not None:
                entry[2] += work(args, result)
            return result
        return counted

    def export(self) -> dict:
        return {"spans": self.spans,
                "aggregates": [[run, parent, name, *entry]
                               for (run, parent, name), entry in self.aggregates.items()]}


# ---------------------------------------------------------------------------
# work counts, computed from shapes
# ---------------------------------------------------------------------------


def _conv_flop(x, params) -> int:
    kernel, c_in, c_out = params.weights.shape
    t_out = x.shape[0] - (kernel - 1) * params.dilation
    return 2 * t_out * kernel * c_in * c_out


def _conv_fwd_work(args, result) -> int:
    return _conv_flop(args[0], args[1])


def _conv_bwd_work(args, result) -> int:
    # weight gradient plus input gradient: two products of the forward's size
    return 2 * _conv_flop(args[0], args[1])


def _norm_fwd_bytes(args, result) -> int:
    return int(args[1].nbytes + result[0].nbytes)       # x in, y out


def _norm_bwd_bytes(args, result) -> int:
    return int(args[2].nbytes + result.nbytes)          # upstream in, d_input out


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _em_iterations(args, result) -> int:
    return max(len(result.em_loglik) - 1, 0)


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

# (module, attribute, span name, counted?, work)
_FUNCTIONS = (
    ("data", "generate_corpus", "data.generate_corpus", False, None),
    ("data", "save_corpus", "data.save_corpus", False, None),
    ("data", "load_corpus", "data.load_corpus", False, None),
    ("data", "generate_trials", "data.generate_trials", False, None),
    ("data", "write_trials", "data.write_trials", False, None),
    ("data", "read_trials", "data.read_trials", False, None),
    ("data", "read_feature_file", "data.read_feature_file", True, None),
    ("data", "write_feature_file", "data.write_feature_file", True, None),
    ("training", "train", "training.train", False, None),
    ("training", "make_batches", "training.make_batches", False, None),
    ("training", "softmax_cross_entropy", "training.loss", False, None),
    ("training", "adam_step", "training.adam", False, None),
    ("training", "classification_accuracy", "training.accuracy_pass", False, None),
    ("model", "save_model", "model.save_model", False, None),
    ("model", "load_model", "model.load_model", False, None),
    ("numerics", "conv1d", "numerics.conv1d", True, _conv_fwd_work),
    ("numerics", "conv1d_backward", "numerics.conv1d_backward", True, _conv_bwd_work),
    ("serialize", "write_records", "serialize.write_records", False, _file_bytes),
    ("serialize", "read_records", "serialize.read_records", False, None),
    ("backend", "extract_embeddings", "backend.extract_embeddings", False, None),
    ("backend", "preprocess_fit", "backend.preprocess_fit", False, None),
    ("backend", "preprocess_apply", "backend.preprocess_apply", False, None),
    ("backend", "plda_train", "backend.plda_train", False, _em_iterations),
    ("backend", "write_scores", "backend.write_scores", False, None),
    ("backend", "read_scores", "backend.read_scores", False, None),
    ("metrics", "build_report", "metrics.build_report", False, None),
    ("metrics", "format_report", "metrics.format_report", False, None),
    ("metrics", "det_points", "metrics.det_points", True, None),
)

# (module, class, method, span name, counted?, work)
_METHODS = (
    ("data", "Corpus", "utterance", "data.utterance_lookup", True, None),
    ("model", "Model", "forward_train", "model.forward", False, None),
    ("model", "Model", "backward", "model.backward", False, None),
    ("model", "Model", "forward", "model.infer", True, None),
    ("backend", "PldaScorer", "score_pairs", "backend.score_pairs", False, None),
)

PACKAGE = "axvector"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer: Tracer):
    """Wrap the instrumented callables everywhere the package binds them;
    returns a function that restores the originals."""
    import importlib
    for module in ("cli", "config", "data", "training", "model", "layers", "numerics",
                   "serialize", "backend", "metrics"):
        importlib.import_module(f"{PACKAGE}.{module}")
    modules = _package_modules()
    restore = []

    def rebind(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))

    def patch(owner, attr, wrapper):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for module, attr, name, counted, work in _FUNCTIONS:
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
        wrap = tracer.wrap_count if counted else tracer.wrap_span
        rebind(original, wrap(name, original, work))
    for module, cls_name, attr, name, counted, work in _METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
        wrap = tracer.wrap_count if counted else tracer.wrap_span
        patch(cls, attr, wrap(name, vars(cls)[attr], work))
    model = sys.modules[f"{PACKAGE}.model"]
    for cls_name, kind in LAYER_KINDS.items():
        cls = getattr(model, cls_name)
        norm = kind in NORM_KINDS
        patch(cls, "forward", tracer.wrap_span(f"model.{kind}.fwd", vars(cls)["forward"],
                                               _norm_fwd_bytes if norm else None))
        patch(cls, "backward", tracer.wrap_span(f"model.{kind}.bwd", vars(cls)["backward"],
                                                _norm_bwd_bytes if norm else None))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return uninstall


@contextmanager
def stage_clock(record: dict):
    """Clock reads at stage boundaries, no spans: ``corpus_loaded`` when the
    first ``data.load_corpus`` returns (``time.monotonic``, comparable with
    the parent's spawn time), ``train_start`` at entry to ``training.train``
    and one ``step_ends`` entry after every optimizer update."""
    from axvector import data, training
    load_corpus, train, adam_step = data.load_corpus, training.train, training.adam_step
    record.setdefault("step_ends", [])

    def timed_load_corpus(*args, **kwargs):
        corpus = load_corpus(*args, **kwargs)
        record.setdefault("corpus_loaded", time.monotonic())
        return corpus

    def timed_train(*args, **kwargs):
        record["train_start"] = perf_counter()
        return train(*args, **kwargs)

    def timed_adam_step(*args, **kwargs):
        adam_step(*args, **kwargs)
        record["step_ends"].append(perf_counter())

    data.load_corpus = timed_load_corpus
    training.train, training.adam_step = timed_train, timed_adam_step
    try:
        yield record
    finally:
        data.load_corpus = load_corpus
        training.train, training.adam_step = train, adam_step

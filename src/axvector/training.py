"""Cross-entropy training: Adam with decoupled-from-bias L2 decay, an
exponential learning-rate ramp, and same-duration crop batching.

Precision: batches are float32, the features' own precision, and ``train``
rounds every parameter value to float32 once before the first step.  The
network computes in its parameters' dtype, so its forward and backward, its
gradients, the parameter values and the Adam moments are all float32.  The
loss and the running statistics stay float64 (the model casts the loss
gradient to float32), and a checkpoint stores the float32 values upcast
exactly to float64.

Adam state: every parameter of fewer than ADAM_CHUNK elements (biases, norm
affines and, at toy shapes, every weight) is packed by ``init_adam`` into
one flat buffer, decaying tensors first, with its value and both moments
kept as views in its own shape, so one update per step covers all of them;
a larger parameter keeps its own arrays and is updated on its own.  The
update is elementwise, so packing changes no bit.  A step's backward
computes no gradient of the network's input, which nothing uses.

One logical writer mutates the model; batch assembly is deterministic given
(seed, epoch), so a full run reproduces bit for bit on one machine.  Training
holds one batch of features at a time: each crop is read from the corpus
(from its feature file, for a loaded corpus) straight into its batch row.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .model import Model, Param, infer_utterances
from .numerics import as_f64, require


@dataclass
class TrainConfig:
    batch_size: int = 32
    crop_frames_min: int = 50
    crop_frames_max: int = 100
    lr_start: float = 1e-3
    lr_end: float = 1e-4
    total_steps: int = 400
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        require(self.lr_start >= self.lr_end > 0.0, "need lr_start >= lr_end > 0")
        require(self.crop_frames_min <= self.crop_frames_max, "crop range is inverted")
        require(self.crop_frames_min >= 1, "crop length must be positive")
        require(self.batch_size >= 1, "batch size must be >= 1")
        require(self.total_steps >= 1, "total_steps must be >= 1")


# Wrap-padding budget: an utterance is tiled to at most this many times its
# own length to fill a crop.
MAX_WRAP = 4

# Elements per slice of the Adam update: small enough that a slice of the
# value, gradient, both moments and the scratch buffer stays in cache.
# Tensors with fewer elements are packed into one buffer and updated together.
ADAM_CHUNK = 32768
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's moments and step counter, a (2, ADAM_CHUNK) scratch buffer for
    the update itself, and the packed tensors.

    Every parameter of fewer than ADAM_CHUNK elements is packed: its value
    lives in row 0 of ``packed``, a (4, n) array whose rows are the packed
    values, their gathered gradient and their first and second moments, one
    tensor after another in ``packed_names`` order, decaying tensors first,
    so the first ``decaying`` columns decay.  The parameter's ``value`` and
    its ``m``/``v`` entries are views of its run in those rows, in its own
    shape.  A larger parameter keeps its own value and moment arrays.
    """

    scratch: np.ndarray
    packed: np.ndarray
    packed_names: tuple
    decaying: int
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def _split(params: list[Param]) -> tuple[list[Param], list[Param]]:
    """(the parameters to pack, decaying ones first, the others), each in
    the order given."""
    small = [p for p in params if p.value.size < ADAM_CHUNK]
    large = [p for p in params if p.value.size >= ADAM_CHUNK]
    return [p for p in small if p.decay] + [p for p in small if not p.decay], large


def init_adam(params: list[Param]) -> AdamState:
    """Zero moments and the scratch buffer, in the parameters' dtype, and
    the small parameters' values copied into the packed buffer, each
    parameter's value becoming a view of its copy there."""
    dtype = np.result_type(*(p.value.dtype for p in params))
    small, large = _split(params)
    sizes = [p.value.size for p in small]
    packed = np.zeros((4, sum(sizes)), dtype)
    state = AdamState(np.empty((2, ADAM_CHUNK), dtype), packed, tuple(p.name for p in small),
                      sum(size for p, size in zip(small, sizes) if p.decay))
    start = 0
    for p, size in zip(small, sizes):
        value, _, m, v = (row[start:start + size].reshape(p.value.shape) for row in packed)
        value[...] = p.value
        p.value = value
        state.m[p.name], state.v[p.name] = m, v
        start += size
    for p in large:
        state.m[p.name] = np.zeros_like(p.value)
        state.v[p.name] = np.zeros_like(p.value)
    return state


def learning_rate(step: int, cfg: TrainConfig) -> float:
    """Exponential interpolation from lr_start (step 0) to lr_end (last step)."""
    if cfg.total_steps <= 1:
        return cfg.lr_start
    frac = min(max(step / (cfg.total_steps - 1), 0.0), 1.0)
    return cfg.lr_start * (cfg.lr_end / cfg.lr_start) ** frac


def adam_step(params: list[Param], state: AdamState, lr: float, weight_decay: float) -> None:
    """Bias-corrected Adam update, in place.

    ``params`` are the parameters ``init_adam`` made ``state`` for, whose
    packed values are still the views it made.  L2 decay is added to the
    gradient before the moment updates, and only for parameters flagged as
    decaying (weights, not biases or norm affines).  Every gradient is
    checked before anything changes, so a missing, mis-shaped or non-finite
    one leaves the values, moments and step count as they were.  The packed
    parameters' gradients are gathered into the packed buffer and updated as
    two flat arrays, the decaying run and the rest; every larger parameter is
    updated on its own.  The update is elementwise, so the packed tensors
    take the same bits as they would one by one.  It runs over
    ADAM_CHUNK-element slices in the scratch buffer, in the dtype
    ``init_adam`` gave it, the parameters' own: float32 state takes float32
    steps, and float64 state upcasts a float32 gradient exactly.  ``p.grad``
    stays as is.
    """
    for p in params:
        if p.grad is None or p.grad.shape != p.value.shape:
            raise ValueError(f"parameter {p.name!r} needs a gradient of shape {p.value.shape}, "
                             f"has {None if p.grad is None else p.grad.shape}")
    small, large = _split(params)
    require(tuple(p.name for p in small) == state.packed_names
            and all(p.value.base is state.packed for p in small)
            and len(params) == len(state.m) and all(p.name in state.m for p in large),
            "adam_step needs the parameters its state was made for, with the packed values")
    values, grad, m, v = state.packed
    if small:
        np.concatenate([p.grad.reshape(-1) for p in small], out=grad)
    # one test covers every packed gradient; only a failing one is searched
    suspects = large if np.all(np.isfinite(grad)) else small + large
    for p in suspects:
        if not np.all(np.isfinite(p.grad)):
            raise ValueError(f"non-finite gradient for parameter {p.name!r}")
    state.step += 1
    t = state.step
    hyper = (lr, 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t)
    d = state.decaying
    _update(values[:d], grad[:d], m[:d], v[:d], state.scratch, weight_decay, *hyper)
    _update(values[d:], grad[d:], m[d:], v[d:], state.scratch, 0.0, *hyper)
    for p in large:
        flat = [np.reshape(a, -1, copy=False)
                for a in (p.value, p.grad, state.m[p.name], state.v[p.name])]
        _update(*flat, state.scratch, weight_decay if p.decay else 0.0, *hyper)


def _update(values, grads, ms, vs, scratch, decay, lr, bc1, bc2) -> None:
    """One Adam update of flat arrays, ADAM_CHUNK elements at a time."""
    for start in range(0, values.size, ADAM_CHUNK):
        value, grad, m, v = (a[start:start + ADAM_CHUNK] for a in (values, grads, ms, vs))
        # the decayed gradient g in one scratch row, each term in the other
        g, s = scratch[:, :value.size]
        np.multiply(value, decay, out=g)
        g += grad
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m *= ADAM_BETA1
        m += s
        np.multiply(g, g, out=s)
        s *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += s
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, s, out=s)
        s *= lr / bc1
        value -= s


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def check_wrap(frames: int, crop: int, utt_id: str) -> None:
    require(crop <= frames * MAX_WRAP,
            f"utterance {utt_id!r} has {frames} frames; wrap-padding to "
            f"{crop} exceeds the {MAX_WRAP}x limit")


def crop_or_wrap(corpus, utt_id: str, offset: int, row: np.ndarray) -> None:
    """Fill ``row`` (crop, dim) with the utterance's frames from ``offset``
    on, or, when it is shorter than the crop, with the utterance tiled from
    frame 0: it is read into the row's head once, and each later copy comes
    from there."""
    frames, crop = corpus.frames(utt_id), row.shape[0]
    if frames >= crop:
        corpus.read_frames(utt_id, offset, row)
        return
    check_wrap(frames, crop, utt_id)
    corpus.read_frames(utt_id, 0, row[:frames])
    for t in range(frames, crop, frames):
        row[t:t + frames] = row[:min(frames, crop - t)]


def make_batches(corpus, cfg: TrainConfig, epoch_seed) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One epoch of (float32 batch, labels) pairs, deterministic given
    epoch_seed, yielded one batch at a time, so only the batch in use is
    held.

    Every utterance appears once per epoch.  Each batch shares a single crop
    length drawn uniformly from [crop_frames_min, crop_frames_max]; utterances
    are cropped at a random offset, or wrap-padded from frame 0 when shorter
    than the crop.  A batch is allocated once and each crop is read straight
    into its row.
    """
    utts = corpus.utterances
    require(len(utts) >= 1, "corpus is empty")
    label_of = corpus.speaker_labels()
    rng = np.random.default_rng(epoch_seed)
    order = rng.permutation(len(utts))
    for start in range(0, len(order), cfg.batch_size):
        chunk = order[start:start + cfg.batch_size]
        crop = int(rng.integers(cfg.crop_frames_min, cfg.crop_frames_max + 1))
        batch = np.empty((len(chunk), crop, corpus.feature_dim), np.float32)
        labels = np.empty(len(chunk), np.int64)
        for i, idx in enumerate(chunk):
            utt = utts[int(idx)]
            offset = int(rng.integers(0, max(corpus.frames(utt.utt_id) - crop, 0) + 1))
            crop_or_wrap(corpus, utt.utt_id, offset, batch[i])
            labels[i] = label_of[utt.speaker_id]
        yield batch, labels


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits, labels) -> tuple[float, np.ndarray, float]:
    """Mean cross entropy over the batch; returns (loss, d_logits, accuracy)."""
    logits = as_f64(logits)
    labels = np.asarray(labels)
    n = logits.shape[0]
    require(labels.shape == (n,), "one label per row of logits")
    shift = logits.max(axis=1, keepdims=True)
    expo = np.exp(logits - shift)
    z = expo.sum(axis=1, keepdims=True)
    log_probs = (logits - shift) - np.log(z)
    loss = float(-log_probs[np.arange(n), labels].mean())
    probs = expo / z
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    return loss, d_logits, accuracy


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class StepRecord:
    step: int
    lr: float
    loss: float
    accuracy: float

    def line(self) -> str:
        return f"{self.step}\t{self.lr:.8g}\t{self.loss:.10g}\t{self.accuracy:.6f}"


def train(model: Model, corpus, cfg: TrainConfig, progress=None) -> list[StepRecord]:
    """Run the full optimization in place on ``model`` and return the
    per-step log.  Writes no file; saving the trained model is the caller's
    job.  ``progress`` is an optional callable invoked with each StepRecord.
    """
    require(cfg.crop_frames_min >= model.min_frames,
            f"crop_frames_min={cfg.crop_frames_min} is below the model's minimum "
            f"input length of {model.min_frames} frames")
    n_classes = model.config.num_speakers
    require(len(corpus.speakers()) <= n_classes,
            f"corpus has {len(corpus.speakers())} speakers but the model was built "
            f"for {n_classes} classes")
    # batches are built as the loop reaches them, so every utterance is
    # checked against the longest crop here, before the first step
    for utt in corpus.utterances:
        check_wrap(corpus.frames(utt.utt_id), cfg.crop_frames_max, utt.utt_id)
    params = model.params()
    # the batches are float32, so the parameters and the optimizer state take
    # that dtype too: each float64 value is rounded once, here
    for p in params:
        p.value = p.value.astype(np.float32)
    state = init_adam(params)
    log: list[StepRecord] = []
    step = 0
    epoch = 0
    while step < cfg.total_steps:
        for batch, labels in make_batches(corpus, cfg, epoch_seed=[cfg.seed, epoch]):
            if step >= cfg.total_steps:
                break
            lr = learning_rate(step, cfg)
            logits, caches = model.forward_train(batch)
            loss, d_logits, accuracy = softmax_cross_entropy(logits, labels)
            if not math.isfinite(loss):
                raise RuntimeError(f"non-finite training loss at step {step}")
            # the backward frees each layer's cache once it has used it
            model.backward(caches, d_logits, input_grad=False)
            adam_step(params, state, lr, cfg.weight_decay)
            # and this step's gradients once they are applied
            for p in params:
                p.grad = None
            record = StepRecord(step, lr, loss, accuracy)
            log.append(record)
            if progress is not None:
                progress(record)
            step += 1
        epoch += 1
    return log


def classification_accuracy(model: Model, corpus) -> float:
    """Inference-mode speaker classification accuracy over full utterances,
    computed in the model's dtype (float32 for a model ``train`` has run on)."""
    label_of = corpus.speaker_labels()
    predicted = infer_utterances(model, corpus, "logits").argmax(axis=1)
    correct = sum(int(p) == label_of[utt.speaker_id]
                  for p, utt in zip(predicted, corpus.utterances))
    return correct / len(corpus.utterances)

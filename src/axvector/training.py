"""Cross-entropy training: Adam with decoupled-from-bias L2 decay, an
exponential learning-rate ramp, and same-duration crop batching.

One logical writer mutates the model; batch assembly is deterministic given
(seed, epoch), so a full run reproduces bit for bit on one machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Model, Param, save_model
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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    checkpoint_every: int = 0        # 0 disables periodic checkpoints
    max_wrap_factor: int = 4         # wrap-padding budget for short utterances

    def validate(self) -> None:
        require(self.lr_start >= self.lr_end > 0.0, "need lr_start >= lr_end > 0")
        require(self.crop_frames_min <= self.crop_frames_max, "crop range is inverted")
        require(self.crop_frames_min >= 1, "crop length must be positive")
        require(self.batch_size >= 1, "batch size must be >= 1")
        require(self.total_steps >= 1, "total_steps must be >= 1")
        require(self.max_wrap_factor >= 1, "max_wrap_factor must be >= 1")


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter, and one
    scratch buffer the size of the largest parameter for the update itself."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0))


def init_adam(params: list[Param]) -> AdamState:
    state = AdamState()
    for p in params:
        state.m[p.name] = np.zeros_like(p.value)
        state.v[p.name] = np.zeros_like(p.value)
    return state


def learning_rate(step: int, cfg: TrainConfig) -> float:
    """Exponential interpolation from lr_start (step 0) to lr_end (last step)."""
    if cfg.total_steps <= 1:
        return cfg.lr_start
    frac = min(max(step / (cfg.total_steps - 1), 0.0), 1.0)
    return cfg.lr_start * (cfg.lr_end / cfg.lr_start) ** frac


def adam_step(params: list[Param], state: AdamState, lr: float, weight_decay: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update, in place.

    L2 decay is added to the gradient before the moment updates, and only for
    parameters flagged as decaying (weights, not biases or norm affines).
    Every intermediate lives in the state's scratch buffer; ``p.grad`` is
    left untouched.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    size = max((p.value.size for p in params), default=0)
    if state.scratch.size < size:
        state.scratch = np.empty(size)
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise ValueError(f"non-finite gradient for parameter {p.name!r}")
        decay = weight_decay if p.decay else 0.0
        s = state.scratch[:p.value.size].reshape(p.value.shape)
        m = state.m[p.name]
        v = state.v[p.name]
        # the decayed gradient g is rebuilt in s for each moment
        np.multiply(p.value, decay, out=s)
        s += p.grad
        s *= 1.0 - beta1
        m *= beta1
        m += s
        np.multiply(p.value, decay, out=s)
        s += p.grad
        np.multiply(s, s, out=s)
        s *= 1.0 - beta2
        v *= beta2
        v += s
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += eps
        np.divide(m, s, out=s)
        s *= lr / bc1
        p.value -= s


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def crop_or_wrap(features: np.ndarray, crop: int, offset: int, max_wrap: int, utt_id: str) -> np.ndarray:
    frames = features.shape[0]
    if frames >= crop:
        return features[offset:offset + crop]
    if crop > frames * max_wrap:
        raise ValueError(f"utterance {utt_id!r} has {frames} frames; wrap-padding to "
                         f"{crop} exceeds the {max_wrap}x limit")
    reps = math.ceil(crop / frames)
    return np.tile(features, (reps, 1))[:crop]


def make_batches(corpus, cfg: TrainConfig, epoch_seed) -> list[tuple[np.ndarray, np.ndarray]]:
    """One epoch of (batch, labels) pairs, deterministic given epoch_seed.

    Every utterance appears once per epoch.  Each batch shares a single crop
    length drawn uniformly from [crop_frames_min, crop_frames_max]; utterances
    are cropped at a random offset, or wrap-padded from frame 0 when shorter
    than the crop.
    """
    cfg.validate()
    utts = corpus.utterances
    require(len(utts) >= 1, "corpus is empty")
    label_of = {spk: i for i, spk in enumerate(corpus.speakers())}
    rng = np.random.default_rng(epoch_seed)
    order = rng.permutation(len(utts))
    batches = []
    for start in range(0, len(order), cfg.batch_size):
        chunk = order[start:start + cfg.batch_size]
        crop = int(rng.integers(cfg.crop_frames_min, cfg.crop_frames_max + 1))
        feats = []
        labels = []
        for idx in chunk:
            utt = utts[int(idx)]
            x = corpus.features(utt.utt_id)
            offset = int(rng.integers(0, max(x.shape[0] - crop, 0) + 1))
            feats.append(crop_or_wrap(x, crop, offset, cfg.max_wrap_factor, utt.utt_id))
            labels.append(label_of[utt.speaker_id])
        batches.append((np.stack(feats), np.asarray(labels, dtype=np.int64)))
    return batches


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


def train(model: Model, corpus, cfg: TrainConfig,
          checkpoint_path: str | None = None,
          progress=None) -> list[StepRecord]:
    """Run the full optimization and return the per-step log.

    Emits a checkpoint at the end (and every ``checkpoint_every`` steps when
    set) if ``checkpoint_path`` is given.  ``progress`` is an optional
    callable invoked with each StepRecord.
    """
    cfg.validate()
    require(cfg.crop_frames_min >= model.min_frames,
            f"crop_frames_min={cfg.crop_frames_min} is below the model's minimum "
            f"input length of {model.min_frames} frames")
    n_classes = model.config.num_speakers
    require(len(corpus.speakers()) <= n_classes,
            f"corpus has {len(corpus.speakers())} speakers but the model was built "
            f"for {n_classes} classes")
    params = model.params()
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
            model.zero_grads()
            model.backward(caches, d_logits)
            adam_step(params, state, lr, cfg.weight_decay,
                      cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
            record = StepRecord(step, lr, loss, accuracy)
            log.append(record)
            if progress is not None:
                progress(record)
            step += 1
            if (checkpoint_path and cfg.checkpoint_every
                    and step % cfg.checkpoint_every == 0 and step < cfg.total_steps):
                save_model(model, checkpoint_path)
        epoch += 1
    if checkpoint_path:
        save_model(model, checkpoint_path)
    return log


def classification_accuracy(model: Model, corpus) -> float:
    """Inference-mode speaker classification accuracy over full utterances."""
    label_of = {spk: i for i, spk in enumerate(corpus.speakers())}
    correct = 0
    for utt in corpus.utterances:
        logits = model.forward(corpus.features(utt.utt_id)[None], mode="infer", head="logits")
        if int(logits[0].argmax()) == label_of[utt.speaker_id]:
            correct += 1
    return correct / len(corpus.utterances)

"""Assembly of the four embedding network variants from the layer classes in
``layers``, forward/backward execution over the layer sequence, parameter
counting and checkpointing.

The network is a flat sequence of layers:

    frame1..frame5:  conv (or adaptive conv) -> relu -> norm (BN or adaptive)
    pool:            statistics pooling over frames
    utt1, utt2:      affine -> relu -> BN        (embedding = utt1 affine
                                                  output, before relu/BN,
                                                  as in the x-vector recipe)
    output:          affine to speaker logits

The model's parameters are its layers' ``Param``s in layer order; a
checkpoint stores them by name, followed by the normalization layers'
running statistics.  In a training forward, a convolution whose input is a
normalization's output keeps no reference to it, and the backward has that
normalization rebuild it from its own cache, so each frame activation is
held once.  A model is immutable during inference and may be
shared across readers; training mutates parameters and normalization
statistics from a single writer.  The network computes in its parameters'
dtype, one for the whole model: float64 as built or loaded, float32 once
training has rounded them.  The model checks its input once and casts it and
the gradient of its logits to that dtype; no layer checks or casts its input.
Statistics are float64 either way, and a checkpoint stores every value as
float64.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .layers import (AdaptiveConvLayer, AdaptiveNormLayer, BatchNormLayer, ConvLayer, DenseLayer,
                     Param, ReluLayer, StatsPoolLayer)
from .numerics import require
from .serialize import FormatError, read_records, settings, write_records

VARIANTS = ("baseline", "acnn", "abn", "acnn_abn")


@dataclass
class ArchConfig:
    """Architecture description for one embedding network."""

    input_dim: int = 30
    frame_dims: tuple[int, ...] = (512, 512, 512, 512, 1536)
    kernel_sizes: tuple[int, ...] = (5, 3, 3, 1, 1)
    dilations: tuple[int, ...] = (1, 2, 3, 1, 1)
    utterance_dims: tuple[int, ...] = (512, 512)
    num_speakers: int | None = None  # set from the corpus split by train
    variant: str = "baseline"
    acnn_layer_index: int = 4        # 1-based frame layer carrying the adaptive conv
    attention_hidden: int = 256
    pool_size: int = 4

    def __post_init__(self):
        require(len(self.frame_dims) == 5, f"frame_dims must list 5 layers, got {len(self.frame_dims)}")
        require(len(self.kernel_sizes) == 5, f"kernel_sizes must list 5 layers, got {len(self.kernel_sizes)}")
        require(len(self.dilations) == 5, f"dilations must list 5 layers, got {len(self.dilations)}")
        require(len(self.utterance_dims) >= 1, "need at least one utterance-level layer")
        require(self.num_speakers is None or self.num_speakers >= 2,
                f"num_speakers must be at least 2, got {self.num_speakers}")
        require(self.variant in VARIANTS, f"variant must be one of {VARIANTS}, got {self.variant!r}")
        require(1 <= self.acnn_layer_index <= 5, "acnn_layer_index must lie in [1, 5]")
        require(min(self.frame_dims + self.utterance_dims) >= 1, "frame/utterance dims must be >= 1")
        require(all(k >= 1 for k in self.kernel_sizes), "kernel sizes must be >= 1")
        require(all(d >= 1 for d in self.dilations), "dilations must be >= 1")
        require(self.attention_hidden >= 1 and self.pool_size >= 1,
                "attention_hidden and pool_size must be >= 1")

    @property
    def min_frames(self) -> int:
        """Smallest input length the frame stack accepts."""
        return 1 + sum((k - 1) * d for k, d in zip(self.kernel_sizes, self.dilations))


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


class Model:
    # the layer whose output is the embedding: the first segment-level affine
    embedding_tap = "utt1.affine"

    def __init__(self, config: ArchConfig, layer_list: list):
        self.config = config
        self.layers = layer_list
        # positions of the layers whose train cache drops their input, a
        # normalization's output, which the backward rebuilds from that
        # normalization's cache instead
        self._rebuilt = {i for i in range(1, len(layer_list))
                         if hasattr(layer_list[i], "with_input")
                         and hasattr(layer_list[i - 1], "output")}

    def layer(self, name: str):
        for lyr in self.layers:
            if lyr.name == name:
                return lyr
        raise KeyError(f"no layer named {name!r}")

    def params(self) -> list[Param]:
        out = []
        for lyr in self.layers:
            out.extend(lyr.params())
        return out

    def state_items(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for lyr in self.layers:
            if hasattr(lyr, "state_items"):
                out.extend(lyr.state_items())
        return out

    @property
    def min_frames(self) -> int:
        return self.config.min_frames

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: that of the parameter values."""
        return self.layers[0].params()[0].value.dtype

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        require(x.ndim == 3 and x.shape[0] >= 1,
                f"model input must be (batch, frames, features) with batch >= 1, "
                f"got shape {x.shape}")
        require(x.shape[2] == self.config.input_dim,
                f"model expects {self.config.input_dim} features, got {x.shape[2]}")
        if x.shape[1] < self.min_frames:
            raise ValueError(
                f"input has {x.shape[1]} frames but the frame stack needs at least "
                f"{self.min_frames} (receptive field of the configured kernels and dilations)")
        return x

    def forward(self, x, head: str = "logits") -> np.ndarray:
        """Inference forward pass: the logits, or with ``head="embedding"``
        the output of the embedding tap, from the running statistics."""
        require(head in ("logits", "embedding"), f"head must be 'logits' or 'embedding', got {head!r}")
        h = self._check_input(x)
        for lyr in self.layers:
            h = lyr.forward(h, "infer")[0]
            if head == "embedding" and lyr.name == self.embedding_tap:
                break
        return h

    def forward_train(self, x):
        """Training forward pass with logits head; returns (logits, caches)."""
        h = self._check_input(x)
        caches = []
        for i, lyr in enumerate(self.layers):
            h, cache = lyr.forward(h, "train")
            if i in self._rebuilt:   # rebind: the input is freed before the next layer runs
                cache = lyr.with_input(cache, None)
            caches.append(cache)
        return h, caches

    def backward(self, caches: list, d_logits, input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate ``d_logits`` through every layer, last to first:
        sets each parameter's ``grad`` and returns the input gradient, or
        None when ``input_grad`` is false: the first layer then sets its
        parameter gradients only, and skips the product and scatter that
        would form the gradient of the network's input.  The parameter
        gradients are the same bits either way.

        Consumes ``caches``, the list ``forward_train`` returned: each
        layer's cache is popped before its backward runs, so it is freed as
        soon as that backward returns, and the list is empty afterwards.  A
        second backward therefore needs a fresh ``forward_train``; given
        anything but one cache per layer it raises ValueError.  A
        convolution whose input is a normalization's output gets that input
        rebuilt by the normalization from its cache, still held then.
        """
        require(len(caches) == len(self.layers),
                f"backward needs the {len(self.layers)} layer caches of a fresh forward_train, "
                f"got {len(caches)}: a backward consumes its caches, so run forward_train "
                f"again before another backward")
        d = np.asarray(d_logits, dtype=self.dtype)
        for i in reversed(range(len(self.layers))):
            lyr, cache = self.layers[i], caches.pop()
            if i in self._rebuilt:
                cache = lyr.with_input(cache, self.layers[i - 1].output(caches[-1]))
            if i or input_grad:
                d = lyr.backward(cache, d)
            else:
                d = lyr.backward(cache, d, input_grad=False)
        return d


def check_corpus(config: ArchConfig, corpus) -> None:
    """Fail before any work on a corpus that a model of ``config`` cannot
    read: one whose features per frame are not its ``input_dim``, or the
    first utterance, in corpus order, shorter than its receptive field."""
    if corpus.utterances and corpus.feature_dim != config.input_dim:
        raise ValueError(f"corpus has {corpus.feature_dim} features per frame, "
                         f"the model expects {config.input_dim}")
    for utt in corpus.utterances:
        frames = corpus.frames(utt.utt_id)
        if frames < config.min_frames:
            raise ValueError(f"utterance {utt.utt_id!r} has {frames} frames, "
                             f"below the model minimum of {config.min_frames}")


def infer_utterances(model: Model, corpus, head: str) -> np.ndarray:
    """``Model.forward`` output at ``head`` for every full, uncropped
    utterance of ``corpus``, one row each in corpus order, run one utterance
    at a time in the model's dtype."""
    check_corpus(model.config, corpus)
    rows = [model.forward(corpus.features(utt.utt_id)[None], head=head)[0]
            for utt in corpus.utterances]
    return np.stack(rows)


def build(config: ArchConfig, seed: int) -> Model:
    """Deterministically initialize a model for the configured variant."""
    return _assemble(config, np.random.default_rng(seed))


def _assemble(config: ArchConfig, rng: np.random.Generator | None) -> Model:
    """The configured layer sequence, with He-normal weights drawn from
    ``rng``, or, when ``rng`` is None, read-only zero weights that allocate
    nothing (a layout for ``load_model`` to fill)."""
    require(config.num_speakers is not None, "num_speakers must be set")
    layer_list = []
    in_dim = config.input_dim
    for i in range(5):
        name = f"frame{i + 1}"
        out_dim = config.frame_dims[i]
        kernel = config.kernel_sizes[i]
        dilation = config.dilations[i]
        adaptive_conv = (config.variant in ("acnn", "acnn_abn")
                         and (i + 1) == config.acnn_layer_index)
        if adaptive_conv:
            layer_list.append(AdaptiveConvLayer(f"{name}.conv", rng, kernel, in_dim, out_dim,
                                                dilation, config.attention_hidden, config.pool_size))
        else:
            layer_list.append(ConvLayer(f"{name}.conv", rng, kernel, in_dim, out_dim, dilation))
        layer_list.append(ReluLayer(f"{name}.act"))
        adaptive_norm = (config.variant in ("abn", "acnn_abn") and not adaptive_conv)
        if adaptive_norm:
            layer_list.append(AdaptiveNormLayer(f"{name}.norm", rng, out_dim,
                                                config.attention_hidden))
        else:
            layer_list.append(BatchNormLayer(f"{name}.norm", out_dim))
        in_dim = out_dim
    layer_list.append(StatsPoolLayer("pool"))
    in_dim = 2 * in_dim
    for j, dim in enumerate(config.utterance_dims):
        name = f"utt{j + 1}"
        layer_list.append(DenseLayer(f"{name}.affine", rng, in_dim, dim))
        layer_list.append(ReluLayer(f"{name}.act"))
        layer_list.append(BatchNormLayer(f"{name}.norm", dim))
        in_dim = dim
    # classifier head starts near zero so the initial predictive distribution
    # is close to uniform (first-step cross entropy ~ log num_speakers)
    layer_list.append(DenseLayer("output.affine", rng, in_dim, config.num_speakers,
                                 init_scale=0.1))
    return Model(config, layer_list)


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------


def count_params(model: Model) -> int:
    """Total trainable scalar count; running statistics are excluded."""
    return int(sum(int(p.value.size) for p in model.params()))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_model(model: Model, path: str) -> None:
    header = {"kind": "model", "config": asdict(model.config)}
    records = [(p.name, p.value) for p in model.params()]
    records.extend(model.state_items())
    write_records(path, header, records)


def load_model(path: str) -> Model:
    """Rebuild a model from a checkpoint.

    The stored config must name every ``ArchConfig`` field, is read by the
    config file's rules (``serialize.settings``) and must build a valid
    model; every record is checked against the layout it builds (names and
    shapes, nothing missing, nothing extra) and for nonnegative running
    variances and ``initialized`` flags of exactly 0 or 1 before any value is
    set, so a checkpoint with a bad or incomplete config, in another layout
    or with impossible values fails with one FormatError.  The layout is built without random
    draws, and each parameter takes its record's array as its value.
    """
    header, records = read_records(path)
    if header.get("kind") != "model":
        raise FormatError(f"{path}: not a model checkpoint (kind={header.get('kind')!r})")
    try:
        config = settings(ArchConfig, header.get("config"), "config")
        lacking = [f.name for f in fields(ArchConfig) if f.name not in header["config"]]
        if lacking:
            raise FormatError(f"stored config lacks key {lacking[0]!r}")
        model = _assemble(config, None)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    by_name = dict(records)
    expected = [(p.name, p.value) for p in model.params()] + model.state_items()
    odd = sorted(by_name.keys() ^ {name for name, _ in expected})
    if odd:
        raise FormatError(f"{path}: {'unexpected' if odd[0] in by_name else 'missing'} "
                          f"record {odd[0]!r}")
    for name, value in expected:
        if by_name[name].shape != value.shape:
            raise FormatError(f"{path}: record {name!r} has shape {by_name[name].shape}, "
                              f"expected {value.shape}")
        if name.endswith(".running_var") and np.any(by_name[name] < 0.0):
            raise FormatError(f"{path}: record {name!r} holds a negative variance")
        if name.endswith(".initialized") and by_name[name][0] not in (0.0, 1.0):
            raise FormatError(f"{path}: record {name!r} is neither 0 nor 1")
    for p in model.params():
        p.value = by_name[p.name]
    for lyr in model.layers:
        if hasattr(lyr, "load_state"):
            lyr.load_state(by_name)
    return model

"""Assembly of the four embedding network variants, forward/backward
execution, parameter counting and checkpointing.

The network is a flat sequence of primitive layers:

    frame1..frame5:  conv (or adaptive conv) -> relu -> norm (BN or adaptive)
    pool:            statistics pooling over frames
    utt1, utt2:      affine -> relu -> BN        (embedding = utt1 affine
                                                  output, before relu/BN)
    output:          affine to speaker logits

Every layer runs batch-first on (batch, frames, channels) arrays.  Static and
adaptive convolutions share one kernel, the same matrix product per utterance
for shared or per-utterance filters, so the two paths are bit-comparable.  A
model is immutable during inference and may be shared across readers;
training mutates parameters and normalization statistics from a single
writer.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import layers as L
from .numerics import (as_f64, conv_backward, conv_forward, relu, relu_backward, require,
                       sliding_windows)
from .serialize import FormatError, read_records, write_records

VARIANTS = ("baseline", "acnn", "abn", "acnn_abn")


@dataclass
class ArchConfig:
    """Architecture description for one embedding network."""

    input_dim: int = 30
    frame_dims: tuple = (512, 512, 512, 512, 1536)
    kernel_sizes: tuple = (5, 3, 3, 1, 1)
    dilations: tuple = (1, 2, 3, 1, 1)
    utterance_dims: tuple = (512, 512)
    num_speakers: int | None = None
    embedding_layer_index: int = 1   # 1-based index of the utterance affine tapped
    variant: str = "baseline"
    acnn_layer_index: int = 4        # 1-based frame layer carrying the adaptive conv
    attention_hidden: int = 256
    pool_size: int = 4
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        self.frame_dims = tuple(int(d) for d in self.frame_dims)
        self.kernel_sizes = tuple(int(k) for k in self.kernel_sizes)
        self.dilations = tuple(int(d) for d in self.dilations)
        self.utterance_dims = tuple(int(d) for d in self.utterance_dims)

    def validate(self) -> None:
        require(len(self.frame_dims) == 5, f"frame_dims must list 5 layers, got {len(self.frame_dims)}")
        require(len(self.kernel_sizes) == 5, f"kernel_sizes must list 5 layers, got {len(self.kernel_sizes)}")
        require(len(self.dilations) == 5, f"dilations must list 5 layers, got {len(self.dilations)}")
        require(len(self.utterance_dims) >= 1, "need at least one utterance-level layer")
        require(self.num_speakers is not None and self.num_speakers >= 2,
                "num_speakers must be set and at least 2")
        require(self.variant in VARIANTS, f"variant must be one of {VARIANTS}, got {self.variant!r}")
        require(1 <= self.acnn_layer_index <= 5, "acnn_layer_index must lie in [1, 5]")
        require(1 <= self.embedding_layer_index <= len(self.utterance_dims),
                "embedding_layer_index must point at an utterance layer")
        require(all(k >= 1 for k in self.kernel_sizes), "kernel sizes must be >= 1")
        require(all(d >= 1 for d in self.dilations), "dilations must be >= 1")
        require(self.attention_hidden >= 1 and self.pool_size >= 1,
                "attention_hidden and pool_size must be >= 1")

    @property
    def min_frames(self) -> int:
        """Smallest input length the frame stack accepts."""
        return 1 + sum((k - 1) * d for k, d in zip(self.kernel_sizes, self.dilations))

    @property
    def embedding_dim(self) -> int:
        return self.utterance_dims[self.embedding_layer_index - 1]

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("frame_dims", "kernel_sizes", "dilations", "utterance_dims"):
            out[key] = list(out[key])
        return out


class Param:
    """A named trainable tensor with its gradient accumulator."""

    __slots__ = ("name", "value", "grad", "decay")

    def __init__(self, name: str, value: np.ndarray, decay: bool):
        self.name = name
        self.value = as_f64(value)
        self.grad = np.zeros_like(self.value)
        self.decay = decay

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def _he_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


# ---------------------------------------------------------------------------
# primitive layers
# ---------------------------------------------------------------------------


class ReluLayer:
    def __init__(self, name: str):
        self.name = name

    def params(self):
        return []

    def forward(self, x, mode):
        x = as_f64(x)
        return relu(x), x

    def backward(self, cache, upstream):
        return relu_backward(cache, upstream)


class ConvLayer:
    """Shared-filter dilated convolution over a batch of utterances."""

    def __init__(self, name: str, rng: np.random.Generator,
                 kernel: int, in_dim: int, out_dim: int, dilation: int):
        self.name = name
        self.dilation = dilation
        fan_in = kernel * in_dim
        self.weight = Param(f"{name}.weight", _he_normal(rng, (kernel, in_dim, out_dim), fan_in), True)
        self.bias = Param(f"{name}.bias", np.zeros(out_dim), False)

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, mode):
        x = as_f64(x)
        require(x.ndim == 3 and x.shape[2] == self.weight.value.shape[1],
                f"conv input shape {x.shape} does not match weight {self.weight.value.shape}")
        windows = sliding_windows(x, self.weight.value.shape[0], self.dilation)
        return conv_forward(windows, self.weight.value, self.bias.value), (windows, x.shape)

    def backward(self, cache, upstream):
        windows, shape = cache
        d_input, d_w, d_b = conv_backward(windows, shape, self.weight.value, self.dilation,
                                          as_f64(upstream))
        self.weight.grad += d_w
        self.bias.grad += d_b
        return d_input


class AdaptiveConvLayer:
    """Per-utterance filter mixing from a trainable pool.

    ``mix_override`` (a fixed coefficient vector) bypasses the context and
    regression for every utterance; used to reduce the layer to a static
    convolution in tests.
    """

    def __init__(self, name: str, rng: np.random.Generator,
                 kernel: int, in_dim: int, out_dim: int, dilation: int,
                 hidden: int, pool_size: int):
        self.name = name
        fan_conv = kernel * in_dim
        self.score_weight = Param(f"{name}.score_weight", _he_normal(rng, (in_dim, hidden), in_dim), True)
        self.score_bias = Param(f"{name}.score_bias", np.zeros(hidden), False)
        self.score_proj = Param(f"{name}.score_proj", _he_normal(rng, (hidden,), hidden), True)
        # mixing regression starts small: the generated filters are modest at
        # first and the following normalization keeps the layer well scaled
        self.mix_weight = Param(f"{name}.mix_weight",
                                0.1 * _he_normal(rng, (2 * in_dim, pool_size), 2 * in_dim), True)
        self.mix_bias = Param(f"{name}.mix_bias", np.zeros(pool_size), False)
        self.pool_weight = Param(
            f"{name}.pool_weight",
            np.stack([_he_normal(rng, (kernel, in_dim, out_dim), fan_conv) for _ in range(pool_size)]),
            True)
        self.pool_bias = Param(f"{name}.pool_bias", np.zeros((pool_size, out_dim)), False)
        self.mix_override = None
        self._fields = ("score_weight", "score_bias", "score_proj", "mix_weight", "mix_bias",
                        "pool_weight", "pool_bias")
        # views of the parameter values, which are only ever updated in place
        self.acnn = L.AcnnParams(*(getattr(self, f).value for f in self._fields), dilation=dilation)

    def params(self):
        return [getattr(self, f) for f in self._fields]

    def forward(self, x, mode):
        x = as_f64(x)
        require(x.ndim == 3, f"adaptive conv expects (batch, frames, channels), got shape {x.shape}")
        return L.acnn_forward(x, self.acnn, self.mix_override)

    def backward(self, cache, upstream):
        d_input, grads = L.acnn_backward(cache, upstream)
        for key, val in grads.items():
            getattr(self, key).grad += val
        return d_input


class BatchNormLayer:
    def __init__(self, name: str, channels: int, momentum: float, eps: float):
        self.name = name
        self.state = L.BnState.create(channels, momentum, eps)
        self.gamma = Param(f"{name}.gamma", self.state.gamma, False)
        self.beta = Param(f"{name}.beta", self.state.beta, False)

    def params(self):
        return [self.gamma, self.beta]

    def forward(self, x, mode):
        return L.batch_norm(x, self.state, mode)

    def backward(self, cache, upstream):
        d_input, d_gamma, d_beta = L.batch_norm_backward(cache, upstream)
        self.gamma.grad += d_gamma
        self.beta.grad += d_beta
        return d_input

    def state_items(self):
        return [(f"{self.name}.running_mean", self.state.running_mean),
                (f"{self.name}.running_var", self.state.running_var),
                (f"{self.name}.initialized", np.array([1.0 if self.state.initialized else 0.0]))]

    def load_state_item(self, key: str, value: np.ndarray):
        if key.endswith(".running_mean"):
            self.state.running_mean = as_f64(value)
        elif key.endswith(".running_var"):
            self.state.running_var = as_f64(value)
        elif key.endswith(".initialized"):
            self.state.initialized = bool(value.ravel()[0] != 0.0)
        else:
            raise KeyError(key)


class AdaptiveNormLayer:
    """Batch normalization whose affine is generated per utterance."""

    def __init__(self, name: str, rng: np.random.Generator, channels: int,
                 hidden: int, momentum: float, eps: float):
        self.name = name
        self.ctx_weight = Param(f"{name}.ctx_weight", _he_normal(rng, (channels, hidden), channels), True)
        self.ctx_bias = Param(f"{name}.ctx_bias", np.zeros(hidden), False)
        # generators start near the identity affine: scale bias at one (like a
        # fresh conventional BN) and small generator weights
        self.scale_weight = Param(f"{name}.scale_weight",
                                  0.1 * _he_normal(rng, (hidden, channels), hidden), True)
        self.scale_bias = Param(f"{name}.scale_bias", np.ones(channels), False)
        self.shift_weight = Param(f"{name}.shift_weight",
                                  0.1 * _he_normal(rng, (hidden, channels), hidden), True)
        self.shift_bias = Param(f"{name}.shift_bias", np.zeros(channels), False)
        self.state = L.BnState.create(channels, momentum, eps, affine=False)
        self._fields = ("ctx_weight", "ctx_bias", "scale_weight", "scale_bias",
                        "shift_weight", "shift_bias")
        # views of the parameter values, which are only ever updated in place
        self.abn = L.AbnParams(*(getattr(self, f).value for f in self._fields))

    def params(self):
        return [getattr(self, f) for f in self._fields]

    def forward(self, x, mode):
        return L.abn_layer(x, self.state, self.abn, mode)

    def backward(self, cache, upstream):
        d_input, grads = L.abn_layer_backward(cache, upstream)
        for key, val in grads.items():
            getattr(self, key).grad += val
        return d_input

    state_items = BatchNormLayer.state_items
    load_state_item = BatchNormLayer.load_state_item


class StatsPoolLayer:
    def __init__(self, name: str):
        self.name = name

    def params(self):
        return []

    def forward(self, x, mode):
        x = as_f64(x)
        require(x.ndim == 3, f"pooling expects (batch, frames, channels), got shape {x.shape}")
        return L.stats_pooling(x)

    def backward(self, cache, upstream):
        return L.stats_pooling_backward(cache, upstream)


class DenseLayer:
    def __init__(self, name: str, rng: np.random.Generator, in_dim: int, out_dim: int,
                 init_scale: float = 1.0):
        self.name = name
        self.weight = Param(f"{name}.weight",
                            init_scale * _he_normal(rng, (in_dim, out_dim), in_dim), True)
        self.bias = Param(f"{name}.bias", np.zeros(out_dim), False)

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, mode):
        x = as_f64(x)
        require(x.ndim == 2 and x.shape[1] == self.weight.value.shape[0],
                f"affine input shape {x.shape} does not match weight {self.weight.value.shape}")
        return x @ self.weight.value + self.bias.value, x

    def backward(self, cache, upstream):
        x = cache
        self.weight.grad += x.T @ upstream
        self.bias.grad += upstream.sum(axis=0)
        return upstream @ self.weight.value.T


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


class Model:
    def __init__(self, config: ArchConfig, layer_list: list, embedding_tap: str):
        self.config = config
        self.layers = layer_list
        self.embedding_tap = embedding_tap

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

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    def state_items(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for lyr in self.layers:
            if hasattr(lyr, "state_items"):
                out.extend(lyr.state_items())
        return out

    @property
    def min_frames(self) -> int:
        return self.config.min_frames

    def _check_input(self, x) -> np.ndarray:
        x = as_f64(x)
        require(x.ndim == 3,
                f"model input must be (batch, frames, features), got shape {x.shape}")
        require(x.shape[2] == self.config.input_dim,
                f"model expects {self.config.input_dim} features, got {x.shape[2]}")
        if x.shape[1] < self.min_frames:
            raise ValueError(
                f"input has {x.shape[1]} frames but the frame stack needs at least "
                f"{self.min_frames} (receptive field of the configured kernels and dilations)")
        return x

    def _run(self, x, mode: str, head: str, keep_caches: bool):
        require(head in ("logits", "embedding"), f"head must be 'logits' or 'embedding', got {head!r}")
        h = self._check_input(x)
        caches = []
        for lyr in self.layers:
            h, cache = lyr.forward(h, mode)
            caches.append(cache if keep_caches else None)
            if head == "embedding" and lyr.name == self.embedding_tap:
                return h, caches
        return h, caches

    def forward(self, x, mode: str = "infer", head: str = "logits") -> np.ndarray:
        out, _ = self._run(x, mode, head, keep_caches=False)
        return out

    def forward_train(self, x):
        """Training forward pass with logits head; returns (logits, caches)."""
        return self._run(x, "train", "logits", keep_caches=True)

    def backward(self, caches, d_logits) -> np.ndarray:
        d = as_f64(d_logits)
        for lyr, cache in zip(reversed(self.layers), reversed(caches)):
            d = lyr.backward(cache, d)
        return d


def build(config: ArchConfig, seed: int = 0) -> Model:
    """Deterministically initialize a model for the configured variant."""
    config.validate()
    rng = np.random.default_rng(seed)
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
                                                config.attention_hidden,
                                                config.bn_momentum, config.bn_eps))
        else:
            layer_list.append(BatchNormLayer(f"{name}.norm", out_dim,
                                             config.bn_momentum, config.bn_eps))
        in_dim = out_dim
    layer_list.append(StatsPoolLayer("pool"))
    in_dim = 2 * in_dim
    for j, dim in enumerate(config.utterance_dims):
        name = f"utt{j + 1}"
        layer_list.append(DenseLayer(f"{name}.affine", rng, in_dim, dim))
        layer_list.append(ReluLayer(f"{name}.act"))
        layer_list.append(BatchNormLayer(f"{name}.norm", dim, config.bn_momentum, config.bn_eps))
        in_dim = dim
    # classifier head starts near zero so the initial predictive distribution
    # is close to uniform (first-step cross entropy ~ log num_speakers)
    layer_list.append(DenseLayer("output.affine", rng, in_dim, config.num_speakers,
                                 init_scale=0.1))
    tap = f"utt{config.embedding_layer_index}.affine"
    return Model(config, layer_list, tap)


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------


def count_params(model_or_params) -> int:
    """Total trainable scalar count; running statistics are excluded."""
    params = model_or_params.params() if isinstance(model_or_params, Model) else model_or_params
    return int(sum(int(p.value.size) for p in params))


def conv_param_count(kernel: int, in_dim: int, out_dim: int) -> int:
    return kernel * in_dim * out_dim + out_dim


def acnn_param_overhead(config: ArchConfig) -> int:
    """Extra parameters of the adaptive conv layer over its static twin."""
    i = config.acnn_layer_index - 1
    in_dim = config.input_dim if i == 0 else config.frame_dims[i - 1]
    out_dim = config.frame_dims[i]
    kernel = config.kernel_sizes[i]
    h = config.attention_hidden
    n = config.pool_size
    attention = (in_dim * h + h) + h + (2 * in_dim * n + n)
    return (n - 1) * conv_param_count(kernel, in_dim, out_dim) + attention


def abn_param_overhead(config: ArchConfig) -> int:
    """Extra parameters of adaptive normalization over plain BN, summed over
    the frame layers that carry it under the configured variant."""
    if config.variant == "abn":
        layers_with_abn = list(range(1, 6))
    elif config.variant == "acnn_abn":
        layers_with_abn = [i for i in range(1, 6) if i != config.acnn_layer_index]
    else:
        return 0
    h = config.attention_hidden
    total = 0
    for i in layers_with_abn:
        c = config.frame_dims[i - 1]
        # ctx map + two generator maps, minus the dropped fixed gamma/beta
        total += (c * h + h) + 2 * (h * c + c) - 2 * c
    return total


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_model(model: Model, path: str) -> None:
    header = {"kind": "model", "config": model.config.to_dict()}
    records = [(p.name, p.value) for p in model.params()]
    records.extend(model.state_items())
    write_records(path, header, records)


def load_model(path: str) -> Model:
    """Rebuild a model from a checkpoint.

    The stored config must build a valid model, and every record is checked
    against the layout it builds (names and shapes, nothing missing, nothing
    extra) before any value is copied in, so a checkpoint with a bad config
    or in another layout fails with one FormatError.
    """
    header, records = read_records(path)
    if header.get("kind") != "model":
        raise FormatError(f"{path}: not a model checkpoint (kind={header.get('kind')!r})")
    if not isinstance(header.get("config"), dict):
        raise FormatError(f"{path}: model header has no config")
    try:
        config = ArchConfig(**header["config"])
        model = build(config, seed=0)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid model config: {exc}") from exc
    by_name = dict(records)
    if len(by_name) != len(records):
        raise FormatError(f"{path}: duplicate record names")
    expected = [(p.name, p.value) for p in model.params()] + model.state_items()
    unexpected = sorted(set(by_name) - {name for name, _ in expected})
    if unexpected:
        raise FormatError(f"{path}: unexpected records {unexpected[:3]}")
    for name, value in expected:
        if name not in by_name:
            raise FormatError(f"{path}: missing record {name!r}")
        if by_name[name].shape != value.shape:
            raise FormatError(f"{path}: record {name!r} has shape {by_name[name].shape}, "
                              f"expected {value.shape}")
    for p in model.params():
        p.value[...] = by_name[p.name]
    for lyr in model.layers:
        if hasattr(lyr, "load_state_item"):
            for key, _ in lyr.state_items():
                lyr.load_state_item(key, by_name[key])
    return model

"""The layers of the embedding networks, one class per layer.

Each layer owns its trainable parameters (a ``Param`` holds a value and the
gradient of the last backward) and, for the normalizations, its running
statistics.  Every layer works batch-first on (batch, frames, channels)
arrays, or on (batch, channels) rows after pooling.  ``forward(x, mode)``
returns ``(output, cache)``, where the cache holds what the hand-written
``backward(cache, upstream)`` cannot rebuild in one pass from the layer's
input and parameters: a ReLU keeps its output, which holds the sign its
backward needs and is the very array the next normalization caches as its
input, so it costs nothing; a convolution keeps its input, not the wider
window matrix; the adaptive convolution keeps its mixing coefficients, not
the mixed filter banks; a normalization keeps its input, mean and inverse
std, and its backward works from per-channel sums instead of the
normalized input, forming its input gradient in row blocks of about
NORM_BLOCK_BYTES so that it holds no temporary of the input's size.  No
cache holds a parameter value.  A backward rebuilds what it needs with the
forward's own operations on the cached arrays and the parameter values,
and it writes only into arrays it made itself, never into its upstream or
its cache, so a cache stays valid through later forwards and backwards.
A normalization also rebuilds its train-mode output from its cache
(``output``), and a convolution's cache can be given its input back
(``with_input``): the model drops a convolution's input when a
normalization made it and rebuilds it for the backward.
``backward`` returns the input gradient and sets each parameter's ``grad``
to that parameter's gradient, once per call, replacing the previous one.
A convolution's backward, static or adaptive, given ``input_grad=False``
sets the gradients only and returns None, skipping the products that form
the input gradient: the model asks that of its first layer when its caller
needs no gradient of the network input.  Per-channel and per-utterance sums
over frame rows (bias and shift gradients, batch and pooling means) are
taken with ``np.einsum``, which adds the rows in the order numpy's reduction
over a leading axis does, so they are the bits of ``.sum``/``.mean``, with
less overhead per call.
Parameter values change only between a forward/backward pair (the optimizer
updates them in place); the running statistics change only in train mode.

A layer computes in its parameters' dtype, float64 as built or loaded and
float32 once training has rounded them, and takes its input and upstream in
that dtype; the model checks and casts its own input once, and no layer
checks its input again or casts a parameter, its input or its upstream.
Parameter gradients come out in that dtype.  The running statistics are
always float64.  An infer-mode ReLU or normalization caches nothing and has
no backward.

The two input-conditioned layers keep their sub-steps as separate methods,
each with its own backward: the adaptive convolution's attentive context and
filter mixing, and the adaptive normalization's context.
"""

from __future__ import annotations

import numpy as np

from .numerics import (
    VARIANCE_FLOOR,
    as_f64,
    conv_backward,
    conv_forward,
    per_frame,
    relu,
    relu_backward,
    require,
    softmax,
    softmax_backward,
    tanh_backward,
    weighted_moments,
    weighted_stats_backward,
)

# running-statistics momentum and variance epsilon of every normalization
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
# a normalization's backward forms its input gradient in blocks of about
# this many bytes, so no temporary it holds is larger than one block
NORM_BLOCK_BYTES = 1 << 20


def _rows(a: np.ndarray) -> np.ndarray:
    """All leading axes folded into one: (n, last)."""
    return a.reshape(-1, a.shape[-1])


def _project(frames: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``frames @ weight`` as one 2-D product over the rows of all
    utterances, which at full-size shapes is faster than a stack of
    per-utterance products."""
    return (_rows(frames) @ weight).reshape(frames.shape[:-1] + weight.shape[-1:])


class Param:
    """A named trainable tensor, float64 as built, and the gradient its
    layer's last backward set (None before the first), in the value's dtype."""

    __slots__ = ("name", "value", "grad", "decay")

    def __init__(self, name: str, value: np.ndarray, decay: bool):
        self.name = name
        self.value = as_f64(value)
        self.grad = None
        self.decay = decay


def _he_normal(rng: np.random.Generator | None, shape, fan_in: int,
               scale: float = 1.0) -> np.ndarray:
    """He-normal draws times ``scale``; without a generator, a read-only zero
    placeholder of that shape that allocates nothing (a layout that a
    checkpoint fills)."""
    if rng is None:
        return np.broadcast_to(np.float64(0.0), shape)
    values = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    if scale != 1.0:
        values *= scale
    return values


# ---------------------------------------------------------------------------
# activation and static layers
# ---------------------------------------------------------------------------


class ReluLayer:
    """The backward needs only the sign of the input, which the output
    y = max(x, 0) holds as well (y > 0 exactly where x > 0; the subgradient
    at 0 is 0), so a train-mode forward caches its own output: the same
    array the next layer takes as input and, for a normalization, caches.
    An infer-mode forward caches nothing and has no backward."""

    def __init__(self, name: str):
        self.name = name

    def params(self):
        return []

    def forward(self, x, mode):
        y = relu(x)
        return y, (y if mode == "train" else None)

    def backward(self, cache, upstream):
        require(cache is not None, f"{self.name}: backward needs a train-mode forward")
        return relu_backward(cache, upstream)


class ConvLayer:
    """Shared-filter dilated convolution over a batch of utterances."""

    def __init__(self, name: str, rng: np.random.Generator | None,
                 kernel: int, in_dim: int, out_dim: int, dilation: int):
        self.name = name
        self.dilation = dilation
        fan_in = kernel * in_dim
        self.weight = Param(f"{name}.weight", _he_normal(rng, (kernel, in_dim, out_dim), fan_in), True)
        self.bias = Param(f"{name}.bias", np.zeros(out_dim), False)

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, mode):
        return conv_forward(x, self.weight.value, self.bias.value, self.dilation), x

    @staticmethod
    def with_input(cache, x):
        """The cache with ``x`` as the input (None: without it)."""
        return x

    def backward(self, cache, upstream, input_grad=True):
        """With ``input_grad`` false, sets the gradients only and returns None."""
        d_input, d_w, d_b = conv_backward(cache, self.weight.value, self.dilation, upstream,
                                          input_grad)
        self.weight.grad = d_w
        self.bias.grad = d_b
        return d_input


class DenseLayer:
    def __init__(self, name: str, rng: np.random.Generator | None, in_dim: int, out_dim: int,
                 init_scale: float = 1.0):
        self.name = name
        self.weight = Param(f"{name}.weight",
                            _he_normal(rng, (in_dim, out_dim), in_dim, init_scale), True)
        self.bias = Param(f"{name}.bias", np.zeros(out_dim), False)

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, mode):
        return x @ self.weight.value + self.bias.value, x

    def backward(self, cache, upstream):
        self.weight.grad = cache.T @ upstream
        self.bias.grad = np.einsum("nc->c", upstream)
        return upstream @ self.weight.value.T


# ---------------------------------------------------------------------------
# statistics pooling
# ---------------------------------------------------------------------------


class StatsPoolLayer:
    """Per-channel mean and standard deviation over each utterance's frames,
    concatenated as [mean, std].  The variance is sum(x^2)/T - mean^2,
    floored at VARIANCE_FLOOR before the square root."""

    def __init__(self, name: str):
        self.name = name

    def params(self):
        return []

    def forward(self, x, mode):
        mean = np.einsum("btc->bc", x) / x.shape[1]
        raw_var = np.einsum("btc,btc->bc", x, x) / x.shape[1] - mean * mean
        std = np.sqrt(np.maximum(raw_var, VARIANCE_FLOOR))
        return np.concatenate([mean, std], axis=-1), (x, mean, raw_var)

    def backward(self, cache, upstream):
        """d_x = x * (2 d_var / T) + (d_mean - 2 mean d_var) / T, where d_var
        is zero while the floor is active."""
        x, mean, raw_var = cache
        c, frames = x.shape[-1], x.shape[1]
        std = np.sqrt(np.maximum(raw_var, VARIANCE_FLOOR))
        d_var = np.where(raw_var > VARIANCE_FLOOR, upstream[:, c:] / (2.0 * std), 0.0)
        d_x = x * (2.0 / frames * d_var)[:, None, :]
        d_x += ((upstream[:, :c] - 2.0 * mean * d_var) / frames)[:, None, :]
        return d_x


# ---------------------------------------------------------------------------
# input-conditioned convolution (filters mixed from a pool)
# ---------------------------------------------------------------------------


def _mixed_banks(coeffs: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """One (kernel, in, out) filter bank per row of ``coeffs``: the
    coefficient-weighted sum of the ``pool`` entries."""
    return (coeffs @ pool.reshape(pool.shape[0], -1)).reshape(coeffs.shape[:-1] + pool.shape[1:])


class AdaptiveConvLayer:
    """Convolution whose filters are mixed per utterance from a trainable pool.

    The context is attentive statistics pooling of the input frames
    themselves: ``score_*`` and ``score_proj`` give the per-frame attention
    logits, and the frames' mean and std under that attention (length 2*in)
    are regressed by ``mix_*`` into unconstrained coefficients over the
    filter pool ``pool_*``.  A fixed mixture is that regression with zero
    ``mix_weight`` and the coefficients as ``mix_bias``; a one-hot mixture
    reduces the layer to a static convolution with that pool entry.
    """

    def __init__(self, name: str, rng: np.random.Generator | None,
                 kernel: int, in_dim: int, out_dim: int, dilation: int,
                 hidden: int, pool_size: int):
        self.name = name
        self.dilation = dilation
        fan_conv = kernel * in_dim
        self.score_weight = Param(f"{name}.score_weight", _he_normal(rng, (in_dim, hidden), in_dim), True)
        self.score_bias = Param(f"{name}.score_bias", np.zeros(hidden), False)
        self.score_proj = Param(f"{name}.score_proj", _he_normal(rng, (hidden,), hidden), True)
        # mixing regression starts small: the generated filters are modest at
        # first and the following normalization keeps the layer well scaled
        self.mix_weight = Param(f"{name}.mix_weight",
                                _he_normal(rng, (2 * in_dim, pool_size), 2 * in_dim, 0.1), True)
        self.mix_bias = Param(f"{name}.mix_bias", np.zeros(pool_size), False)
        # one draw of the whole pool: the same values as pool_size draws of
        # one filter bank each, in order
        self.pool_weight = Param(f"{name}.pool_weight",
                                 _he_normal(rng, (pool_size, kernel, in_dim, out_dim), fan_conv),
                                 True)
        self.pool_bias = Param(f"{name}.pool_bias", np.zeros((pool_size, out_dim)), False)

    def params(self):
        return [self.score_weight, self.score_bias, self.score_proj, self.mix_weight,
                self.mix_bias, self.pool_weight, self.pool_bias]

    def context(self, frames):
        """Attentive mean+std context vector of each utterance's frames.

        logit_t = score_proj . tanh(frames_t @ score_weight + score_bias)
        attn    = softmax(logits);  context = [mean, std] of frames under attn.
        """
        scored = _project(frames, self.score_weight.value)
        scored += per_frame(self.score_bias.value, scored)
        np.tanh(scored, out=scored)
        attn = softmax(np.matmul(scored, self.score_proj.value))
        mean, raw_var = weighted_moments(frames, attn.astype(frames.dtype, copy=False))
        context = np.concatenate([mean, np.sqrt(np.maximum(raw_var, VARIANCE_FLOOR))], axis=-1)
        return context, {"frames": frames, "scored": scored, "attn": attn,
                         "moments": (mean, raw_var)}

    def context_backward(self, cache, d_context, input_grad=True):
        """Gradient of context with respect to the frames (None, with
        ``input_grad`` false: the parameter gradients only)."""
        frames, scored, attn = cache["frames"], cache["scored"], cache["attn"]
        c = frames.shape[-1]
        d_frames, d_attn = weighted_stats_backward(frames, attn, d_context[..., :c],
                                                   d_context[..., c:], moments=cache["moments"])
        d_logits = softmax_backward(attn, d_attn).astype(frames.dtype, copy=False)
        d_pre = tanh_backward(scored, np.multiply.outer(d_logits, self.score_proj.value))
        self.score_weight.grad = _rows(frames).T @ _rows(d_pre)
        self.score_bias.grad = np.einsum("nc->c", _rows(d_pre))
        self.score_proj.grad = _rows(scored).T @ d_logits.ravel()
        if not input_grad:
            return None
        d_frames += _project(d_pre, self.score_weight.value.T)
        return d_frames

    def filters(self, context):
        """Mix the filter pool into one filter bank per (batch, 2*in) context row.

        coeffs = context @ mix_weight + mix_bias (no normalization); the
        weights and bias are the coefficient-weighted sums of the pool
        entries.
        """
        coeffs = context @ self.mix_weight.value + self.mix_bias.value
        weights = _mixed_banks(coeffs, self.pool_weight.value)
        bias = coeffs @ self.pool_bias.value
        return (weights, bias), {"context": context, "coeffs": coeffs}

    def filters_backward(self, cache, d_weights, d_bias):
        """Gradient of filters with respect to the context."""
        context, coeffs = cache["context"], cache["coeffs"]
        pool = self.pool_weight.value
        d_weights = d_weights.reshape(coeffs.shape[0], -1)
        d_coeffs = d_weights @ pool.reshape(pool.shape[0], -1).T + d_bias @ self.pool_bias.value.T
        self.pool_weight.grad = (coeffs.T @ d_weights).reshape(pool.shape)
        self.pool_bias.grad = coeffs.T @ d_bias
        self.mix_weight.grad = context.T @ d_coeffs
        self.mix_bias.grad = d_coeffs.sum(axis=0)
        return d_coeffs @ self.mix_weight.value.T

    def forward(self, x, mode):
        """Context, filter mixing, then a valid convolution of each utterance
        with its own mixed filters."""
        context, ctx_cache = self.context(x)
        (weights, bias), mix_cache = self.filters(context)
        return conv_forward(x, weights, bias, self.dilation), {"ctx": ctx_cache, "mix": mix_cache}

    @staticmethod
    def with_input(cache, x):
        """The cache with ``x`` as the context's frames (None: without them)."""
        return {"ctx": dict(cache["ctx"], frames=x), "mix": cache["mix"]}

    def backward(self, cache, upstream, input_grad=True):
        """The banks are remixed from the cached coefficients and the pool,
        and freed once the convolution's backward has used them; the input is
        the context's frames.  With ``input_grad`` false, sets the gradients
        only and returns None."""
        mix = cache["mix"]
        weights = _mixed_banks(mix["coeffs"], self.pool_weight.value)
        d_input, d_weights, d_bias = conv_backward(cache["ctx"]["frames"], weights,
                                                   self.dilation, upstream, input_grad)
        del weights
        d_context = self.filters_backward(mix, d_weights, d_bias)
        d_frames = self.context_backward(cache["ctx"], d_context, input_grad)
        if input_grad:
            d_input += d_frames
        return d_input


# ---------------------------------------------------------------------------
# batch normalization: fixed affine, and affine generated per utterance
# ---------------------------------------------------------------------------


class _Normalization:
    """Running statistics, their checkpoint records and the standardization
    shared by the two normalization layers.

    Train mode uses batch statistics per channel over all leading axes and
    updates the running statistics by exponential moving average; infer mode
    uses the running statistics, and raises before any update unless they
    were explicitly initialized.  The momentum and epsilon are BN_MOMENTUM
    and BN_EPS.
    """

    def __init__(self, name: str, channels: int):
        self.name = name
        self.running_mean = np.zeros(channels)
        self.running_var = np.zeros(channels)
        self.initialized = False

    def _normalize(self, x: np.ndarray, mode: str, scale, shift):
        """scale * (x - mean) * inv_std + shift for a float ``x``, with a
        ``scale`` and ``shift`` per channel, or per utterance and channel
        (two-dimensional, for frames).  Train mode takes the batch mean,
        then the one fresh array x - mean gives the variance and becomes the
        output; infer mode is the one affine x * a + (shift - mean * a) with
        a = scale * inv_std from the running statistics.  A train-mode cache
        holds x, mean and inv_std; an infer-mode forward caches nothing."""
        if mode == "train":
            mean = np.einsum("nc->c", _rows(x)) / _rows(x).shape[0]
            y = x - per_frame(mean, x)
            var = np.einsum("nc,nc->c", _rows(y), _rows(y)) / _rows(x).shape[0]
            m = BN_MOMENTUM
            self.running_mean = (1.0 - m) * self.running_mean + m * mean
            self.running_var = (1.0 - m) * self.running_var + m * var
            self.initialized = True
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            return _affine(y, scale, inv_std, shift), {"x": x, "mean": mean, "inv_std": inv_std}
        if not self.initialized:
            raise RuntimeError("inference-mode normalization before any training update; "
                               "initialize the running statistics first")
        mean = self.running_mean.astype(x.dtype, copy=False)
        inv_std = (1.0 / np.sqrt(self.running_var + BN_EPS)).astype(x.dtype, copy=False)
        a = scale * inv_std
        y = x * per_frame(a, x)
        y += per_frame(shift - mean * a, x)
        return y, None

    @staticmethod
    def _rebuild(stats, scale, shift) -> np.ndarray:
        """A train-mode ``_normalize``'s output, rebuilt from its cache by the
        forward's own operations, so bit for bit."""
        x = stats["x"]
        return _affine(x - per_frame(stats["mean"], x), scale, stats["inv_std"], shift)

    def _gradients(self, stats, upstream, scale) -> tuple[np.ndarray, np.ndarray, tuple]:
        """(d_scale, d_shift, coeffs) of a train-mode ``_normalize``'s
        output, from the sums su of the upstream gradient and sux of its
        product with x over each scale's frames: d_shift = su and
        d_scale = (sux - mean su) inv_std.  The input gradient is
        d_x = (upstream * a + x * k) - c, which ``_input_gradient`` forms
        from coeffs = (a, k, c): a = scale * inv_std, shaped like the scale,
        and k and c per channel, the gradient through the batch statistics,
        which needs only the means of d_xhat = upstream * scale and of
        d_xhat * xhat.  The normalized input is never rebuilt."""
        x, mean, inv_std = stats["x"], stats["mean"], stats["inv_std"]
        if scale.ndim == 1:
            d_shift = np.einsum("nc->c", _rows(upstream))
            d_scale = np.einsum("nc,nc->c", _rows(upstream), _rows(x))
        else:
            d_shift = np.einsum("btc->bc", upstream)
            d_scale = np.einsum("btc,btc->bc", upstream, x)
        d_scale -= mean * d_shift
        d_scale *= inv_std
        n = _rows(x).shape[0]
        mean_d = _rows(scale * d_shift).sum(axis=0) / n
        mean_dx = _rows(scale * d_scale).sum(axis=0) / n
        k = -inv_std * inv_std * mean_dx
        return d_scale, d_shift, (scale * inv_std, k, inv_std * mean_d + mean * k)

    def state_items(self):
        return [(f"{self.name}.running_mean", self.running_mean),
                (f"{self.name}.running_var", self.running_var),
                (f"{self.name}.initialized", np.array([1.0 if self.initialized else 0.0]))]

    def load_state(self, records: dict):
        """Take the running statistics from the records ``state_items`` names."""
        self.running_mean = as_f64(records[f"{self.name}.running_mean"])
        self.running_var = as_f64(records[f"{self.name}.running_var"])
        self.initialized = bool(records[f"{self.name}.initialized"][0] == 1.0)


def _affine(centered, scale, inv_std, shift) -> np.ndarray:
    """centered * (scale * inv_std) + shift, in place in ``centered``."""
    centered *= per_frame(scale * inv_std, centered)
    centered += per_frame(shift, centered)
    return centered


def _row_blocks(shape, itemsize: int) -> list[tuple]:
    """Index tuples that cover an array of ``shape`` in blocks of about
    NORM_BLOCK_BYTES: runs of rows of a 2-D array; of a 3-D one, runs of
    whole utterances, or of one utterance's frames when a single utterance
    is larger than a block."""
    row = shape[-1] * itemsize
    rows = max(1, NORM_BLOCK_BYTES // row)
    if len(shape) == 2:
        return [(slice(i, i + rows),) for i in range(0, shape[0], rows)]
    batch, frames = shape[:2]
    utts = NORM_BLOCK_BYTES // (frames * row)
    if utts >= 1:
        return [(slice(b, b + utts),) for b in range(0, batch, utts)]
    return [(slice(b, b + 1), slice(t, t + rows))
            for b in range(batch) for t in range(0, frames, rows)]


def _input_gradient(x, upstream, coeffs, into=None) -> np.ndarray:
    """d_x = (upstream * a + x * k) - c from ``_gradients``' coeffs, one
    block of rows at a time, written into a fresh array or added into
    ``into``; it writes into nothing else, and holds at most two blocks
    (upstream * a and x * k) beside its output."""
    a, k, c = coeffs
    fresh = into is None
    out = np.empty_like(x) if fresh else into
    for idx in _row_blocks(x.shape, x.itemsize):
        block_x = x[idx]
        t = np.multiply(upstream[idx], per_frame(a[idx[0]] if a.ndim == 2 else a, block_x),
                        out=out[idx] if fresh else None)
        t += block_x * per_frame(k, block_x)
        t -= per_frame(c, block_x)
        if not fresh:
            block = out[idx]
            block += t
    return out


class BatchNormLayer(_Normalization):
    """Per-channel batch normalization with a trained fixed affine."""

    def __init__(self, name: str, channels: int):
        super().__init__(name, channels)
        self.gamma = Param(f"{name}.gamma", np.ones(channels), False)
        self.beta = Param(f"{name}.beta", np.zeros(channels), False)

    def params(self):
        return [self.gamma, self.beta]

    def forward(self, x, mode):
        return self._normalize(x, mode, self.gamma.value, self.beta.value)

    def output(self, cache):
        """The train-mode forward's output, rebuilt from its cache."""
        return self._rebuild(cache, self.gamma.value, self.beta.value)

    def backward(self, cache, upstream):
        require(cache is not None, f"{self.name}: backward needs a train-mode forward")
        self.gamma.grad, self.beta.grad, coeffs = self._gradients(cache, upstream,
                                                                  self.gamma.value)
        return _input_gradient(cache["x"], upstream, coeffs)


class AdaptiveNormLayer(_Normalization):
    """Batch normalization whose affine is generated per utterance.

    The statistics are the standard batch-norm statistics; only the affine
    is generated, one (scale, shift) pair per utterance, regressed by
    ``scale_*`` and ``shift_*`` from a context of the layer input itself:
    the tanh features ``ctx_*`` of its frames, weighted by a softmax over the
    per-frame feature means.
    """

    def __init__(self, name: str, rng: np.random.Generator | None, channels: int,
                 hidden: int):
        super().__init__(name, channels)
        self.ctx_weight = Param(f"{name}.ctx_weight", _he_normal(rng, (channels, hidden), channels), True)
        self.ctx_bias = Param(f"{name}.ctx_bias", np.zeros(hidden), False)
        # generators start near the identity affine: scale bias at one (like a
        # fresh conventional BN) and small generator weights
        self.scale_weight = Param(f"{name}.scale_weight",
                                  _he_normal(rng, (hidden, channels), hidden, 0.1), True)
        self.scale_bias = Param(f"{name}.scale_bias", np.ones(channels), False)
        self.shift_weight = Param(f"{name}.shift_weight",
                                  _he_normal(rng, (hidden, channels), hidden, 0.1), True)
        self.shift_bias = Param(f"{name}.shift_bias", np.zeros(channels), False)

    def params(self):
        return [self.ctx_weight, self.ctx_bias, self.scale_weight, self.scale_bias,
                self.shift_weight, self.shift_bias]

    def context(self, frames):
        """Frame-attention context of each utterance: tanh features weighted
        by a softmax over the per-frame feature means."""
        feats = _project(frames, self.ctx_weight.value)
        feats += per_frame(self.ctx_bias.value, feats)
        np.tanh(feats, out=feats)
        attn = softmax(feats.mean(axis=-1))
        context = np.matmul(attn.astype(frames.dtype, copy=False)[..., None, :], feats)[..., 0, :]
        return context, {"frames": frames, "feats": feats, "attn": attn}

    def context_backward(self, cache, d_context):
        """Gradient of context with respect to the frames."""
        frames, feats, attn = cache["frames"], cache["feats"], cache["attn"]
        d_attn = np.matmul(feats, d_context[..., None])[..., 0]
        d_means = softmax_backward(attn, d_attn).astype(frames.dtype, copy=False)
        d_feats = attn.astype(frames.dtype, copy=False)[..., None] * d_context[..., None, :]
        d_feats += (d_means / feats.shape[-1])[..., None]
        d_pre = tanh_backward(feats, d_feats)
        del d_feats
        self.ctx_weight.grad = _rows(frames).T @ _rows(d_pre)
        self.ctx_bias.grad = np.einsum("nc->c", _rows(d_pre))
        return _project(d_pre, self.ctx_weight.value.T)

    def forward(self, x, mode):
        """The context's frames are the normalization's input, cached once."""
        contexts, ctx_cache = self.context(x)
        scales = contexts @ self.scale_weight.value + self.scale_bias.value
        shifts = contexts @ self.shift_weight.value + self.shift_bias.value
        y, core = self._normalize(ctx_cache["frames"], mode, scales, shifts)
        if core is None:
            return y, None
        return y, {"core": core, "ctx": ctx_cache, "contexts": contexts, "scales": scales,
                   "shifts": shifts}

    def output(self, cache):
        """The train-mode forward's output, rebuilt from its cache."""
        return self._rebuild(cache["core"], cache["scales"], cache["shifts"])

    def backward(self, cache, upstream):
        """Sums, generator gradients, then the context's backward, whose
        fresh frames gradient takes the normalization's input gradient added
        in blocks."""
        require(cache is not None, f"{self.name}: backward needs a train-mode forward")
        core, contexts = cache["core"], cache["contexts"]
        d_scales, d_shifts, coeffs = self._gradients(core, upstream, cache["scales"])
        self.scale_weight.grad = contexts.T @ d_scales
        self.scale_bias.grad = d_scales.sum(axis=0)
        self.shift_weight.grad = contexts.T @ d_shifts
        self.shift_bias.grad = d_shifts.sum(axis=0)
        d_contexts = d_scales @ self.scale_weight.value.T + d_shifts @ self.shift_weight.value.T
        d_frames = self.context_backward(cache["ctx"], d_contexts)
        return _input_gradient(core["x"], upstream, coeffs, into=d_frames)

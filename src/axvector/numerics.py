"""Dense kernels and their hand-written backward passes.

Every forward here is a pure function of its arguments; the matching
``*_backward`` consumes the forward's inputs (plus cheap recomputed
intermediates) and returns exact gradients of the documented contract.
Shape arithmetic is validated before any compute so failures surface as
descriptive ``ValueError``s instead of numpy broadcasting accidents.

Precision follows the input: the kernels take float32 or float64 arrays,
which only ``conv1d``/``conv1d_backward`` cast, and every fresh buffer takes
its input's dtype.  The softmax and the weights of weighted statistics are the
exception: they are computed and checked in float64 and cast to the values'
dtype only for the products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Floor applied to second-moment variances before the square root.  Keeps the
# standard deviation (and its gradient) defined when the variance collapses;
# the gradient is zero while the floor is active.
VARIANCE_FLOOR = 1e-10

# Tolerance on sum(weights) == 1 for weighted statistics.
WEIGHT_SUM_TOL = 1e-9


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def as_float(x) -> np.ndarray:
    """``x`` as float32 if it already is float32, otherwise as float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def require_all_finite(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite values in {name}")


# per_frame tiles a channel vector over the frames of a batch only up to this
# many channels; past it a row is long enough that numpy's cost per row is
# small beside the tile's own (an in-place subtract of a tiled vector from a
# float32 batch took 0.5x the broadcast's time at (32, 90, 64), 0.75x at
# (8, 200, 512) and 1.1x at (8, 200, 1536), one thread)
TILE_MAX_CHANNELS = 512


def per_frame(a: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """``a`` shaped to broadcast over the frame axis of ``frames``, a
    (batch, frames, channels) array or a 2-D one: a per-utterance (batch,
    channels) array as (batch, 1, channels), and a per-channel vector, for a
    batch of several utterances of at most TILE_MAX_CHANNELS channels, tiled
    to (frames, channels).  numpy broadcasts a bare channel vector over a
    batch one row of channels at a time, but a (frames, channels) block in
    one pass per utterance; the values are the same, and so are the bits of
    every sum or product with them."""
    if a.ndim == 2 and frames.ndim == 3:
        return a[:, None, :]
    if frames.ndim == 3 and frames.shape[0] > 1 and frames.shape[-1] <= TILE_MAX_CHANNELS:
        tiled = np.empty(frames.shape[1:], a.dtype)
        tiled[...] = a
        return tiled
    return a


# ---------------------------------------------------------------------------
# dilated 1-D convolution over time (valid, no padding)
# ---------------------------------------------------------------------------


@dataclass
class ConvParams:
    """Filter bank for a dilated 1-D convolution along the time axis.

    weights: (kernel, in_channels, out_channels); bias: (out_channels,).
    """

    weights: np.ndarray
    bias: np.ndarray
    dilation: int = 1

    def __post_init__(self):
        self.weights = as_f64(self.weights)
        self.bias = as_f64(self.bias)
        require(self.weights.ndim == 3,
                f"conv weights must have shape (kernel, in, out), got {self.weights.shape}")
        require(self.bias.ndim == 1 and self.bias.shape[0] == self.weights.shape[2],
                f"conv bias length {self.bias.shape} must equal out channels {self.weights.shape[2]}")
        require(self.kernel_width >= 1, "kernel width must be >= 1")
        require(int(self.dilation) >= 1, "dilation must be >= 1")
        self.dilation = int(self.dilation)

    @property
    def kernel_width(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[2]


def output_frames(frames: int, kernel: int, dilation: int) -> int:
    """Frame count after a valid convolution: T - (kernel-1)*dilation."""
    return frames - (kernel - 1) * dilation


def sliding_windows(x: np.ndarray, kernel: int, dilation: int) -> np.ndarray:
    """The (..., t_out, kernel*channels) input windows of a valid conv over the
    frame axis of ``x`` (..., frames, channels); ``x`` itself when kernel == 1.

    The windows are one strided copy of ``x``: a read-only view whose tap
    axis steps ``dilation`` frames, copied into a fresh array.
    """
    t_out = output_frames(x.shape[-2], kernel, dilation)
    require(t_out >= 1,
            f"input with {x.shape[-2]} frames is too short for kernel {kernel} "
            f"with dilation {dilation} (needs more than {(kernel - 1) * dilation} frames)")
    if kernel == 1:
        return x
    c = x.shape[-1]
    taps = as_strided(x, x.shape[:-2] + (t_out, kernel, c),
                      x.strides[:-1] + (dilation * x.strides[-2], x.strides[-1]), writeable=False)
    return taps.copy().reshape(x.shape[:-2] + (t_out, kernel * c))


def conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                 dilation: int) -> np.ndarray:
    """The valid dilated convolution over the frames of ``x``, shared by
    static and per-utterance filters.

    ``weights`` is one (kernel, in, out) bank for every utterance, or a
    (batch, kernel, in, out) stack with a (batch, out) bias, one bank per
    utterance.  Either way each utterance's output is the same matrix
    product of its sliding_windows and its bank, so the two forms agree bit
    for bit when the banks do.  A shared bank is one GEMM over the frames of
    every utterance, not one per utterance.
    """
    k, c, o = weights.shape[-3:]
    windows = sliding_windows(x, k, dilation)
    if weights.ndim == 3:
        out = (windows.reshape(-1, k * c) @ weights.reshape(k * c, o)).reshape(
            windows.shape[:-1] + (o,))
    else:
        out = np.matmul(windows, weights.reshape(weights.shape[:-3] + (k * c, o)))
    out += per_frame(bias, out)
    return out


def conv_backward(x: np.ndarray, weights: np.ndarray, dilation: int, upstream: np.ndarray,
                  input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact gradients of conv_forward: (d_input, d_weights, d_bias), with
    d_input None when ``input_grad`` is false, which skips its product and
    scatter.

    The windows are rebuilt from ``x`` as the forward built them.  A shared
    bank's gradients are summed over the utterances; a stack of banks gets
    one gradient per utterance.  The window gradient is scattered back tap
    by tap: the first tap's block is copied in and the others are added.
    """
    k, c, o = weights.shape[-3:]
    windows = sliding_windows(x, k, dilation)
    flat_w = weights.reshape(weights.shape[:-3] + (k * c, o))
    if weights.ndim == 4:
        d_weights = np.matmul(windows.swapaxes(-1, -2), upstream)
        d_bias = np.einsum("...tc->...c", upstream)
        d_windows = np.matmul(upstream, flat_w.swapaxes(-1, -2)) if input_grad else None
    else:
        rows = upstream.reshape(-1, o)
        d_weights = windows.reshape(-1, k * c).T @ rows
        d_bias = np.einsum("nc->c", rows)
        d_windows = ((rows @ flat_w.T).reshape(upstream.shape[:-1] + (k * c,))
                     if input_grad else None)
    d_weights = d_weights.reshape(weights.shape)
    if k == 1 or d_windows is None:
        return d_windows, d_weights, d_bias
    t_out = upstream.shape[-2]
    d_input = np.empty(x.shape, dtype=d_windows.dtype)
    d_input[..., :t_out, :] = d_windows[..., :c]
    d_input[..., t_out:, :] = 0.0
    for j in range(1, k):
        d_input[..., j * dilation:j * dilation + t_out, :] += d_windows[..., j * c:(j + 1) * c]
    return d_input, d_weights, d_bias


def _check_conv_input(x, params: ConvParams) -> np.ndarray:
    x = as_float(x)
    require(x.ndim == 2, f"conv input must be (frames, channels), got shape {x.shape}")
    require(x.shape[1] == params.in_channels,
            f"conv input has {x.shape[1]} channels, filters expect {params.in_channels}")
    return x


def conv1d(x, params: ConvParams) -> np.ndarray:
    """Valid (unpadded) convolution along time of one utterance.

    out[t, o] = sum_k sum_i x[t + k*dilation, i] * weights[k, i, o] + bias[o]
    """
    x = _check_conv_input(x, params)
    return conv_forward(x, params.weights.astype(x.dtype, copy=False),
                        params.bias.astype(x.dtype, copy=False), params.dilation)


def conv1d_backward(x, params: ConvParams, upstream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of conv1d: (d_input, d_weights, d_bias)."""
    x = _check_conv_input(x, params)
    t_out = output_frames(x.shape[0], params.kernel_width, params.dilation)
    upstream = as_float(upstream)
    require(upstream.shape == (t_out, params.out_channels),
            f"upstream shape {upstream.shape} does not match conv output "
            f"({t_out}, {params.out_channels})")
    return conv_backward(x, params.weights.astype(x.dtype, copy=False), params.dilation,
                         upstream)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def softmax(v) -> np.ndarray:
    """Probabilities exp(v_i) / sum_j exp(v_j) along the last axis, computed
    with max subtraction, in float64 whatever the input's dtype."""
    v = as_f64(v)
    require(v.ndim >= 1 and v.shape[-1] >= 1, "softmax input must have a nonempty last axis")
    require_all_finite(v, "softmax input")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_backward(probs: np.ndarray, upstream) -> np.ndarray:
    """Gradient through softmax (last axis) given its output probabilities,
    in float64."""
    upstream = as_f64(upstream)
    inner = np.einsum("...t,...t->...", probs, upstream)[..., None]
    return probs * (upstream - inner)


# ---------------------------------------------------------------------------
# weighted first/second-order statistics over frames
# ---------------------------------------------------------------------------


def _check_weights(values: np.ndarray, weights) -> np.ndarray:
    """The weights checked in float64, returned in the values' dtype."""
    weights = as_f64(weights)
    require(weights.shape == values.shape[:-1],
            f"weights must be one per frame; got {weights.shape} for values {values.shape}")
    require(bool(np.all(weights >= 0.0)), "weights must be nonnegative")
    off = float(np.max(np.abs(weights.sum(axis=-1) - 1.0)))
    require(off <= WEIGHT_SUM_TOL, f"weights must sum to 1 (off by {off!r})")
    return weights.astype(values.dtype, copy=False)


def weighted_moments(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted per-channel mean and raw variance (second moment minus the
    squared mean, unfloored) over the frame axis of (..., frames, channels)
    values with (..., frames) weights."""
    mean = np.matmul(weights[..., None, :], values)[..., 0, :]
    second = np.einsum("...t,...tc,...tc->...c", weights, values, values)
    return mean, second - mean * mean


def weighted_stats_backward(values, weights, d_mean, d_std,
                            moments) -> tuple[np.ndarray, np.ndarray]:
    """Gradients w.r.t. values and weights of mean = sum_t w_t v_t and
    std = sqrt(max(raw variance, VARIANCE_FLOOR)), given the forward's
    weighted_moments ``moments``.  The floor gives zero gradient while active.
    """
    weights = _check_weights(values, weights)
    mean, raw_var = moments
    std = np.sqrt(np.maximum(raw_var, VARIANCE_FLOOR))
    d_var = np.where(raw_var > VARIANCE_FLOOR, d_std / (2.0 * std), 0.0)
    d_mean_eff = d_mean - 2.0 * mean * d_var
    d_values = values * (2.0 * d_var)[..., None, :]
    d_values += d_mean_eff[..., None, :]
    d_values *= weights[..., None]
    d_weights = (np.matmul(values, d_mean_eff[..., None])[..., 0]
                 + np.einsum("...tc,...tc,...c->...t", values, values, d_var))
    return d_values, d_weights


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(out: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient through relu given its output, or any array positive exactly
    where its input is, such as the bool mask ``x > 0``: upstream times the
    0/1 mask (the subgradient at 0 is 0).  The mask is written as floats
    straight into the fresh result, which then takes the product."""
    d = np.greater(out, 0.0, out=np.empty_like(upstream), casting="unsafe")
    d *= upstream
    return d


def tanh_backward(tanh_out: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient through np.tanh given its cached output: upstream * (1 - out^2),
    formed in one fresh array of the output's dtype."""
    d = tanh_out * tanh_out
    np.subtract(1.0, d, out=d)
    d *= upstream
    return d

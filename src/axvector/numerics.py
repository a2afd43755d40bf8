"""Dense float64 kernels and their hand-written backward passes.

Every forward here is a pure function of its arguments; the matching
``*_backward`` consumes the forward's inputs (plus cheap recomputed
intermediates) and returns exact gradients of the documented contract.
Shape arithmetic is validated before any compute so failures surface as
descriptive ``ValueError``s instead of numpy broadcasting accidents.
All kernels run in 64-bit floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def require_all_finite(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite values in {name}")


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
    frame axis of ``x`` (..., frames, channels); ``x`` itself when kernel == 1."""
    t_out = output_frames(x.shape[-2], kernel, dilation)
    require(t_out >= 1,
            f"input with {x.shape[-2]} frames is too short for kernel {kernel} "
            f"with dilation {dilation} (needs more than {(kernel - 1) * dilation} frames)")
    if kernel == 1:
        return x
    c = x.shape[-1]
    win = np.empty(x.shape[:-2] + (t_out, kernel * c))
    for k in range(kernel):
        win[..., k * c:(k + 1) * c] = x[..., k * dilation:k * dilation + t_out, :]
    return win


def conv_forward(windows: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The convolution kernel shared by static and per-utterance filters.

    ``windows`` come from sliding_windows; ``weights`` is one (kernel, in, out)
    bank for every utterance, or a (batch, kernel, in, out) stack with a
    (batch, out) bias, one bank per utterance.  Either way each utterance's
    output is the same matrix product ``windows[b] @ bank``, so the two forms
    agree bit for bit when the banks do.
    """
    k, c, o = weights.shape[-3:]
    out = np.matmul(windows, weights.reshape(weights.shape[:-3] + (k * c, o)))
    out += np.expand_dims(bias, -2)
    return out


def conv_backward(windows: np.ndarray, in_shape: tuple, weights: np.ndarray, dilation: int,
                  upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of conv_forward: (d_input, d_weights, d_bias).

    A shared bank's gradients are summed over the utterances; a stack of
    banks gets one gradient per utterance.
    """
    k, c, o = weights.shape[-3:]
    flat_w = weights.reshape(weights.shape[:-3] + (k * c, o))
    if weights.ndim == 4:
        d_weights = np.matmul(windows.swapaxes(-1, -2), upstream)
        d_bias = upstream.sum(axis=-2)
    else:
        d_weights = windows.reshape(-1, k * c).T @ upstream.reshape(-1, o)
        d_bias = upstream.reshape(-1, o).sum(axis=0)
    d_windows = np.matmul(upstream, flat_w.swapaxes(-1, -2))
    if k == 1:
        return d_windows, d_weights.reshape(weights.shape), d_bias
    t_out = upstream.shape[-2]
    d_input = np.zeros(in_shape)
    for j in range(k):
        d_input[..., j * dilation:j * dilation + t_out, :] += d_windows[..., j * c:(j + 1) * c]
    return d_input, d_weights.reshape(weights.shape), d_bias


def _check_conv_input(x, params: ConvParams) -> np.ndarray:
    x = as_f64(x)
    require(x.ndim == 2, f"conv input must be (frames, channels), got shape {x.shape}")
    require(x.shape[1] == params.in_channels,
            f"conv input has {x.shape[1]} channels, filters expect {params.in_channels}")
    return x


def conv1d(x, params: ConvParams) -> np.ndarray:
    """Valid (unpadded) convolution along time of one utterance.

    out[t, o] = sum_k sum_i x[t + k*dilation, i] * weights[k, i, o] + bias[o]
    """
    x = _check_conv_input(x, params)
    win = sliding_windows(x, params.kernel_width, params.dilation)
    return conv_forward(win, params.weights, params.bias)


def conv1d_backward(x, params: ConvParams, upstream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of conv1d: (d_input, d_weights, d_bias)."""
    x = _check_conv_input(x, params)
    t_out = output_frames(x.shape[0], params.kernel_width, params.dilation)
    upstream = as_f64(upstream)
    require(upstream.shape == (t_out, params.out_channels),
            f"upstream shape {upstream.shape} does not match conv output "
            f"({t_out}, {params.out_channels})")
    win = sliding_windows(x, params.kernel_width, params.dilation)
    return conv_backward(win, x.shape, params.weights, params.dilation, upstream)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def softmax(v) -> np.ndarray:
    """Probabilities exp(v_i) / sum_j exp(v_j) along the last axis, computed
    with max subtraction."""
    v = as_f64(v)
    require(v.ndim >= 1 and v.shape[-1] >= 1, "softmax input must have a nonempty last axis")
    require_all_finite(v, "softmax input")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_backward(probs: np.ndarray, upstream) -> np.ndarray:
    """Gradient through softmax (last axis) given its output probabilities."""
    upstream = as_f64(upstream)
    inner = np.einsum("...t,...t->...", probs, upstream)[..., None]
    return probs * (upstream - inner)


# ---------------------------------------------------------------------------
# weighted first/second-order statistics over frames
# ---------------------------------------------------------------------------


def _check_weights(values: np.ndarray, weights) -> np.ndarray:
    weights = as_f64(weights)
    require(weights.shape == values.shape[:-1],
            f"weights must be one per frame; got {weights.shape} for values {values.shape}")
    require(bool(np.all(weights >= 0.0)), "weights must be nonnegative")
    off = float(np.max(np.abs(weights.sum(axis=-1) - 1.0)))
    require(off <= WEIGHT_SUM_TOL, f"weights must sum to 1 (off by {off!r})")
    return weights


def weighted_moments(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted per-channel mean and raw variance (second moment minus the
    squared mean, unfloored) over the frame axis of (..., frames, channels)
    values with (..., frames) weights."""
    mean = np.matmul(weights[..., None, :], values)[..., 0, :]
    second = np.einsum("...t,...tc,...tc->...c", weights, values, values)
    return mean, second - mean * mean


def weighted_stats(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted per-channel mean and standard deviation over frames.

    mean = sum_t w_t v_t
    std  = sqrt(max(sum_t w_t v_t*v_t - mean*mean, VARIANCE_FLOOR))

    ``values`` is (frames, channels) or a (batch, frames, channels) stack with
    one weight vector per utterance.  Weights must be nonnegative and sum to
    one.
    """
    values = as_f64(values)
    require(values.ndim in (2, 3) and values.shape[-2] >= 1,
            f"values must be (frames, channels) with frames >= 1, got {values.shape}")
    mean, raw_var = weighted_moments(values, _check_weights(values, weights))
    return mean, np.sqrt(np.maximum(raw_var, VARIANCE_FLOOR))


def weighted_stats_backward(values, weights, d_mean, d_std,
                            moments=None) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of weighted_stats w.r.t. values and weights.

    ``moments`` is the forward's (mean, raw variance) from weighted_moments;
    it is recomputed when omitted.  The variance floor contributes zero
    gradient while active.
    """
    values = as_f64(values)
    weights = _check_weights(values, weights)
    mean, raw_var = weighted_moments(values, weights) if moments is None else moments
    std = np.sqrt(np.maximum(raw_var, VARIANCE_FLOOR))
    d_var = np.where(raw_var > VARIANCE_FLOOR, as_f64(d_std) / (2.0 * std), 0.0)
    d_mean_eff = as_f64(d_mean) - 2.0 * mean * d_var
    d_weights = (np.matmul(values, d_mean_eff[..., None])[..., 0]
                 + np.einsum("...tc,...tc,...c->...t", values, values, d_var))
    d_values = values * (2.0 * d_var)[..., None, :]
    d_values += d_mean_eff[..., None, :]
    d_values *= weights[..., None]
    return d_values, d_weights


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x) -> np.ndarray:
    return np.maximum(as_f64(x), 0.0)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    # subgradient 0 at x == 0
    return upstream * (x > 0.0)


def tanh_backward(tanh_out: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient through np.tanh given its cached output."""
    return upstream * (1.0 - tanh_out * tanh_out)

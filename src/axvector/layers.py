"""Network building blocks: batch normalization (fixed and input-conditioned
affine), statistics pooling, and the input-conditioned convolution whose
filters are mixed per utterance from a trainable pool.

Every block works batch-first on (batch, frames, channels) arrays; the
utterance-level blocks also take one (frames, channels) utterance and run
the same code without the batch axis.  Forward functions return
``(output, cache)`` pairs; each cache carries exactly the intermediates its
``*_backward`` companion needs.  Parameter gradients come back as dicts keyed
by the parameter field names, so callers can accumulate them into whatever
container they use.  Parameter containers are treated as immutable during a
forward/backward pair; only the normalization running statistics mutate,
and only in train mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    VARIANCE_FLOOR,
    as_f64,
    conv_backward,
    conv_forward,
    require,
    sliding_windows,
    softmax,
    softmax_backward,
    tanh_backward,
    weighted_moments,
    weighted_stats_backward,
)

MODES = ("train", "infer")


def _check_frames(frames, what: str) -> np.ndarray:
    frames = as_f64(frames)
    require(frames.ndim in (2, 3) and frames.shape[-2] >= 1,
            f"{what} input must be (frames, channels) or (batch, frames, channels) "
            f"with frames >= 1, got {frames.shape}")
    return frames


def _rows(a: np.ndarray) -> np.ndarray:
    """All leading axes folded into one: (n, last)."""
    return a.reshape(-1, a.shape[-1])


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


@dataclass
class BnState:
    """Normalization state: running statistics plus an optional fixed affine.

    ``gamma``/``beta`` are None when the affine is supplied externally (the
    input-conditioned normalization generates them per utterance instead).
    Running statistics are updated only in train mode; inference before any
    update raises unless the statistics were explicitly initialized.
    """

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    initialized: bool = False

    def __post_init__(self):
        self.running_mean = as_f64(self.running_mean)
        self.running_var = as_f64(self.running_var)
        require(0.0 < self.momentum < 1.0, "momentum must lie in (0, 1)")
        require(self.eps > 0.0, "epsilon must be positive")
        require(bool(np.all(self.running_var >= 0.0)), "running variance must be nonnegative")

    @classmethod
    def create(cls, channels: int, momentum: float = 0.1, eps: float = 1e-5,
               affine: bool = True) -> "BnState":
        state = cls(running_mean=np.zeros(channels), running_var=np.zeros(channels),
                    momentum=momentum, eps=eps)
        if affine:
            state.gamma = np.ones(channels)
            state.beta = np.zeros(channels)
        return state

    @property
    def channels(self) -> int:
        return self.running_mean.shape[0]


def _normalize_core(x, state: BnState, mode: str):
    """Shared standardization: (x - mean) / sqrt(var + eps).

    Train mode uses batch statistics per channel over all leading axes and
    updates the running statistics by exponential moving average; infer mode
    uses the running statistics.  The statistics take one centring pass.
    """
    require(mode in MODES, f"mode must be one of {MODES}, got {mode!r}")
    x = as_f64(x)
    require(x.ndim in (2, 3), f"normalization input must be 2-D or 3-D, got shape {x.shape}")
    require(x.shape[-1] == state.channels,
            f"input has {x.shape[-1]} channels, state tracks {state.channels}")
    count = x.size // x.shape[-1]
    require(count >= 1, "normalization batch must be nonempty")
    if mode == "train":
        mean = _rows(x).mean(axis=0)
        xhat = x - mean
        var = np.einsum("nc,nc->c", _rows(xhat), _rows(xhat)) / count
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mean
        state.running_var = (1.0 - m) * state.running_var + m * var
        state.initialized = True
    else:
        if not state.initialized:
            raise RuntimeError("inference-mode normalization before any training update; "
                               "initialize the running statistics first")
        xhat = x - state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat *= inv_std
    return xhat, {"xhat": xhat, "inv_std": inv_std, "mode": mode, "count": count}


def _normalize_core_backward(cache, d_xhat: np.ndarray) -> np.ndarray:
    """Gradient through _normalize_core, computed in place in ``d_xhat``
    (a fresh array the caller hands over)."""
    xhat, inv_std = cache["xhat"], cache["inv_std"]
    if cache["mode"] == "train":
        n = float(cache["count"])
        mean_d = _rows(d_xhat).sum(axis=0) / n
        mean_dx = np.einsum("nc,nc->c", _rows(d_xhat), _rows(xhat)) / n
        d_xhat -= xhat * mean_dx
        d_xhat -= mean_d
    d_xhat *= inv_std
    return d_xhat


def batch_norm(x, state: BnState, mode: str):
    """Per-channel batch normalization with the state's fixed affine."""
    require(state.gamma is not None and state.beta is not None,
            "batch_norm needs a state with gamma and beta")
    xhat, core = _normalize_core(x, state, mode)
    y = xhat * state.gamma
    y += state.beta
    return y, {"core": core, "gamma": state.gamma}


def batch_norm_backward(cache, upstream):
    """Gradients of batch_norm: (d_input, d_gamma, d_beta)."""
    core = cache["core"]
    upstream = as_f64(upstream)
    d_gamma = np.einsum("nc,nc->c", _rows(upstream), _rows(core["xhat"]))
    d_beta = _rows(upstream).sum(axis=0)
    d_input = _normalize_core_backward(core, upstream * cache["gamma"])
    return d_input, d_gamma, d_beta


# ---------------------------------------------------------------------------
# statistics pooling
# ---------------------------------------------------------------------------


def stats_pooling(frames):
    """Concatenated per-channel mean and standard deviation over frames.

    Identical to weighted_stats with uniform weights; order is [mean, std].
    """
    frames = _check_frames(frames, "pooling")
    weights = np.full(frames.shape[:-1], 1.0 / frames.shape[-2])
    mean, raw_var = weighted_moments(frames, weights)
    std = np.sqrt(np.maximum(raw_var, VARIANCE_FLOOR))
    cache = {"frames": frames, "weights": weights, "moments": (mean, raw_var)}
    return np.concatenate([mean, std], axis=-1), cache


def stats_pooling_backward(cache, upstream):
    frames = cache["frames"]
    c = frames.shape[-1]
    upstream = as_f64(upstream)
    d_values, _ = weighted_stats_backward(frames, cache["weights"], upstream[..., :c],
                                          upstream[..., c:], moments=cache["moments"])
    return d_values


# ---------------------------------------------------------------------------
# input-conditioned convolution (filters mixed from a pool)
# ---------------------------------------------------------------------------


@dataclass
class AcnnParams:
    """Parameters of the input-conditioned convolution block.

    The context is attentive statistics pooling of the input frames
    themselves: ``score_*`` plus ``score_proj`` produce the per-frame
    attention logits, and the frames are pooled under that attention.
    ``mix_*`` turns the pooled context (mean and std concatenated, length
    2*in) into unconstrained mixing coefficients over the filter pool.
    """

    score_weight: np.ndarray   # (in, hidden)
    score_bias: np.ndarray     # (hidden,)
    score_proj: np.ndarray     # (hidden,)
    mix_weight: np.ndarray     # (2*in, pool)
    mix_bias: np.ndarray       # (pool,)
    pool_weight: np.ndarray    # (pool, kernel, in, out)
    pool_bias: np.ndarray      # (pool, out)
    dilation: int = 1

    def __post_init__(self):
        for name in ("score_weight", "score_bias", "score_proj", "mix_weight", "mix_bias",
                     "pool_weight", "pool_bias"):
            setattr(self, name, as_f64(getattr(self, name)))
        require(self.score_weight.ndim == 2, "score map must be (in, hidden)")
        in_dim, hidden = self.score_weight.shape
        require(self.score_bias.shape == (hidden,), "attention bias shape mismatch")
        require(self.score_proj.shape == (hidden,), "score projector shape mismatch")
        require(self.pool_weight.ndim == 4 and self.pool_weight.shape[0] >= 1,
                "filter pool must be (pool, kernel, in, out) with pool >= 1")
        require(self.pool_weight.shape[2] == in_dim,
                f"filter pool expects {self.pool_weight.shape[2]} input channels, "
                f"attention maps expect {in_dim}")
        pool, out = self.pool_weight.shape[0], self.pool_weight.shape[3]
        require(self.pool_bias.shape == (pool, out), "pool bias shape mismatch")
        require(self.mix_weight.shape == (2 * in_dim, pool) and self.mix_bias.shape == (pool,),
                "mixing regression shape mismatch")
        require(int(self.dilation) >= 1, "dilation must be >= 1")
        self.dilation = int(self.dilation)

    @property
    def in_dim(self) -> int:
        return self.score_weight.shape[0]

    @property
    def pool_size(self) -> int:
        return self.pool_weight.shape[0]


def acnn_context(frames, params: AcnnParams):
    """Attentive mean+std context vector of each utterance's input frames.

    logit_t = score_proj . tanh(frames_t @ score_weight + score_bias)
    attn    = softmax(logits);  context = [mean, std] of frames under attn.
    """
    frames = _check_frames(frames, "context")
    scored = np.tanh(frames @ params.score_weight + params.score_bias)
    attn = softmax(np.matmul(scored, params.score_proj))
    mean, raw_var = weighted_moments(frames, attn)
    context = np.concatenate([mean, np.sqrt(np.maximum(raw_var, VARIANCE_FLOOR))], axis=-1)
    cache = {"frames": frames, "scored": scored, "attn": attn, "moments": (mean, raw_var),
             "params": params}
    return context, cache


def acnn_context_backward(cache, d_context):
    """Gradients of acnn_context: (d_frames, grads dict)."""
    p: AcnnParams = cache["params"]
    frames, scored, attn = cache["frames"], cache["scored"], cache["attn"]
    c = p.in_dim
    d_context = as_f64(d_context)
    d_frames, d_attn = weighted_stats_backward(frames, attn, d_context[..., :c],
                                               d_context[..., c:], moments=cache["moments"])
    d_logits = softmax_backward(attn, d_attn)
    d_pre = tanh_backward(scored, np.multiply.outer(d_logits, p.score_proj))
    grads = {
        "score_weight": _rows(frames).T @ _rows(d_pre),
        "score_bias": _rows(d_pre).sum(axis=0),
        "score_proj": _rows(scored).T @ d_logits.ravel(),
    }
    d_frames += np.matmul(d_pre, p.score_weight.T)
    return d_frames, grads


def acnn_filters(context, params: AcnnParams, mix_override=None):
    """Mix the filter pool into one filter bank per context vector.

    coeffs = context @ mix_weight + mix_bias (no normalization); the output
    weights and bias are the coefficient-weighted sums of the pool entries.
    ``context`` is one (2*in,) vector or a (batch, 2*in) stack.
    ``mix_override`` bypasses the regression with fixed coefficients, giving
    one bank shared by every utterance.
    """
    if mix_override is not None:
        coeffs = as_f64(mix_override)
        require(coeffs.shape == (params.pool_size,),
                f"mix override must have {params.pool_size} coefficients")
        context = None
    else:
        context = as_f64(context)
        require(context.ndim in (1, 2) and context.shape[-1] == 2 * params.in_dim,
                f"context must have length {2 * params.in_dim}, got {context.shape}")
        coeffs = context @ params.mix_weight + params.mix_bias
    pool = params.pool_weight
    weights = (coeffs @ pool.reshape(pool.shape[0], -1)).reshape(coeffs.shape[:-1] + pool.shape[1:])
    bias = coeffs @ params.pool_bias
    cache = {"context": context, "coeffs": coeffs, "params": params}
    return (weights, bias), cache


def acnn_filters_backward(cache, d_weights, d_bias):
    """Gradients of acnn_filters: (d_context, grads dict)."""
    p: AcnnParams = cache["params"]
    coeffs = _rows(cache["coeffs"])
    d_weights = as_f64(d_weights).reshape(coeffs.shape[0], -1)
    d_bias = _rows(as_f64(d_bias))
    d_coeffs = d_weights @ p.pool_weight.reshape(p.pool_size, -1).T + d_bias @ p.pool_bias.T
    grads = {
        "pool_weight": (coeffs.T @ d_weights).reshape(p.pool_weight.shape),
        "pool_bias": coeffs.T @ d_bias,
    }
    context = cache["context"]
    if context is None:
        return None, grads
    grads["mix_weight"] = _rows(context).T @ d_coeffs
    grads["mix_bias"] = d_coeffs.sum(axis=0)
    return (d_coeffs @ p.mix_weight.T).reshape(context.shape), grads


def acnn_forward(frames, params: AcnnParams, mix_override=None):
    """Utterances through the adaptive convolution: context, filter mixing,
    then a valid convolution of each utterance with its own mixed filters."""
    frames = _check_frames(frames, "adaptive conv")
    if mix_override is None:
        context, ctx_cache = acnn_context(frames, params)
    else:
        context, ctx_cache = None, None
    (weights, bias), mix_cache = acnn_filters(context, params, mix_override)
    windows = sliding_windows(frames, params.pool_weight.shape[1], params.dilation)
    out = conv_forward(windows, weights, bias)
    cache = {"windows": windows, "shape": frames.shape, "weights": weights,
             "dilation": params.dilation, "ctx_cache": ctx_cache, "mix_cache": mix_cache}
    return out, cache


def acnn_backward(cache, upstream):
    """Gradients of acnn_forward: (d_frames, grads dict over AcnnParams)."""
    d_frames, d_weights, d_bias = conv_backward(cache["windows"], cache["shape"],
                                                cache["weights"], cache["dilation"],
                                                as_f64(upstream))
    d_context, grads = acnn_filters_backward(cache["mix_cache"], d_weights, d_bias)
    if cache["ctx_cache"] is not None:
        d_frames_ctx, ctx_grads = acnn_context_backward(cache["ctx_cache"], d_context)
        d_frames += d_frames_ctx
        grads.update(ctx_grads)
    return d_frames, grads


def acnn_layer(frames, params: AcnnParams, activation=None, mix_override=None):
    """Contract-level composition: context -> filters -> conv (-> activation)."""
    out, _ = acnn_forward(frames, params, mix_override)
    return activation(out) if activation is not None else out


# ---------------------------------------------------------------------------
# input-conditioned batch normalization
# ---------------------------------------------------------------------------


@dataclass
class AbnParams:
    """Parameters of the input-conditioned normalization affine.

    ``ctx_*`` maps frames to a tanh feature space whose attention-weighted
    sum is the utterance context; ``scale_*`` and ``shift_*`` regress the
    per-utterance normalization affine from that context.
    """

    ctx_weight: np.ndarray     # (channels, hidden)
    ctx_bias: np.ndarray       # (hidden,)
    scale_weight: np.ndarray   # (hidden, channels)
    scale_bias: np.ndarray     # (channels,)
    shift_weight: np.ndarray   # (hidden, channels)
    shift_bias: np.ndarray     # (channels,)

    def __post_init__(self):
        for name in ("ctx_weight", "ctx_bias", "scale_weight", "scale_bias",
                     "shift_weight", "shift_bias"):
            setattr(self, name, as_f64(getattr(self, name)))
        channels, hidden = self.ctx_weight.shape
        require(self.ctx_bias.shape == (hidden,), "context bias shape mismatch")
        for name in ("scale_weight", "shift_weight"):
            require(getattr(self, name).shape == (hidden, channels),
                    f"{name} must map hidden -> channels")
        for name in ("scale_bias", "shift_bias"):
            require(getattr(self, name).shape == (channels,),
                    f"{name} must have one entry per channel")

    @property
    def hidden(self) -> int:
        return self.ctx_weight.shape[1]

    @property
    def channels(self) -> int:
        return self.ctx_weight.shape[0]


def abn_context(frames, params: AbnParams):
    """Frame-attention context of each utterance: tanh features weighted by a
    softmax over the per-frame feature means."""
    frames = _check_frames(frames, "context")
    feats = np.tanh(frames @ params.ctx_weight + params.ctx_bias)
    attn = softmax(feats.mean(axis=-1))
    context = np.matmul(attn[..., None, :], feats)[..., 0, :]
    cache = {"frames": frames, "feats": feats, "attn": attn, "params": params}
    return context, cache


def abn_context_backward(cache, d_context):
    """Gradients of abn_context: (d_frames, grads dict)."""
    p: AbnParams = cache["params"]
    frames, feats, attn = cache["frames"], cache["feats"], cache["attn"]
    d_context = as_f64(d_context)
    d_attn = np.matmul(feats, d_context[..., None])[..., 0]
    d_means = softmax_backward(attn, d_attn)
    d_feats = attn[..., None] * d_context[..., None, :]
    d_feats += (d_means / feats.shape[-1])[..., None]
    d_pre = tanh_backward(feats, d_feats)
    grads = {
        "ctx_weight": _rows(frames).T @ _rows(d_pre),
        "ctx_bias": _rows(d_pre).sum(axis=0),
    }
    return np.matmul(d_pre, p.ctx_weight.T), grads


def abn_apply(x, state: BnState, contexts, params: AbnParams, mode: str):
    """Batch-normalize with a per-utterance generated affine.

    Statistics are the standard batch-norm statistics (batch stats in train
    mode, running stats at inference); only the affine is generated, one
    (scale, shift) pair per utterance from its context vector.
    """
    x = as_f64(x)
    require(x.ndim == 3, f"adaptive normalization expects (batch, frames, channels), got {x.shape}")
    contexts = as_f64(contexts)
    require(contexts.ndim == 2 and contexts.shape[0] == x.shape[0],
            f"need one context per utterance: got {contexts.shape[0] if contexts.ndim == 2 else contexts.shape} "
            f"contexts for batch of {x.shape[0]}")
    require(contexts.shape[1] == params.hidden, "context width does not match the generator maps")
    xhat, core = _normalize_core(x, state, mode)
    scales = contexts @ params.scale_weight + params.scale_bias
    shifts = contexts @ params.shift_weight + params.shift_bias
    y = xhat * scales[:, None, :]
    y += shifts[:, None, :]
    cache = {"core": core, "contexts": contexts, "scales": scales, "params": params}
    return y, cache


def abn_apply_backward(cache, upstream):
    """Gradients of abn_apply: (d_input, d_contexts, grads dict)."""
    p: AbnParams = cache["params"]
    core, contexts, scales = cache["core"], cache["contexts"], cache["scales"]
    upstream = as_f64(upstream)
    d_scales = np.einsum("btc,btc->bc", upstream, core["xhat"])
    d_shifts = upstream.sum(axis=1)
    grads = {
        "scale_weight": contexts.T @ d_scales,
        "scale_bias": d_scales.sum(axis=0),
        "shift_weight": contexts.T @ d_shifts,
        "shift_bias": d_shifts.sum(axis=0),
    }
    d_contexts = d_scales @ p.scale_weight.T + d_shifts @ p.shift_weight.T
    d_input = _normalize_core_backward(core, upstream * scales[:, None, :])
    return d_input, d_contexts, grads


def abn_layer(x, state: BnState, params: AbnParams, mode: str):
    """Full adaptive normalization layer: per-utterance contexts computed from
    the layer input itself, then the generated-affine normalization."""
    contexts, ctx_cache = abn_context(x, params)
    y, apply_cache = abn_apply(x, state, contexts, params, mode)
    return y, {"apply": apply_cache, "ctx": ctx_cache}


def abn_layer_backward(cache, upstream):
    """Gradients of abn_layer: (d_input, grads dict over AbnParams)."""
    d_input, d_contexts, grads = abn_apply_backward(cache["apply"], upstream)
    d_frames, ctx_grads = abn_context_backward(cache["ctx"], d_contexts)
    d_input += d_frames
    grads.update(ctx_grads)
    return d_input, grads

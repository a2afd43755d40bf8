"""Looped implementations kept as references for the vectorized code.

The per-utterance frame stack: each utterance goes through its own
convolution, pooling and attentive contexts in a Python loop, exactly as the
network computed them before the layers became batch-first; the batch-level
normalization statistics use ``np.var``.  Nothing here calls the package's
layer code.

The enumerating trial sampler: it lists every same-speaker and every
cross-speaker pair before drawing, as ``data.generate_trials`` did before it
mapped drawn ranks to pairs without listing them.

The whole-buffer record encoder: it builds a record file in memory, as
``serialize.write_records`` did before it streamed records into the file.
"""

import json
import struct

import numpy as np

from axvector import model as M
from axvector.data import Trial
from axvector.layers import BN_EPS

FLOOR = 1e-10   # numerics.VARIANCE_FLOOR


def softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def softmax_backward(probs, upstream):
    return probs * (upstream - probs @ upstream)


def weighted_stats(values, weights):
    mean = weights @ values
    second = weights @ (values * values)
    return mean, np.sqrt(np.maximum(second - mean * mean, FLOOR))


def weighted_stats_backward(values, weights, d_mean, d_std):
    mean = weights @ values
    second = weights @ (values * values)
    raw_var = second - mean * mean
    std = np.sqrt(np.maximum(raw_var, FLOOR))
    d_var = np.where(raw_var > FLOOR, d_std / (2.0 * std), 0.0)
    d_mean_eff = d_mean - 2.0 * mean * d_var
    d_values = weights[:, None] * (d_mean_eff + 2.0 * values * d_var)
    d_weights = values @ d_mean_eff + (values * values) @ d_var
    return d_values, d_weights


def windows(x, kernel, dilation):
    t_out = x.shape[0] - (kernel - 1) * dilation
    win = np.empty((t_out, kernel, x.shape[1]))
    for k in range(kernel):
        win[:, k, :] = x[k * dilation:k * dilation + t_out]
    return win.reshape(t_out, -1)


def conv1d(x, weights, bias, dilation):
    return windows(x, weights.shape[0], dilation) @ weights.reshape(-1, weights.shape[2]) + bias


def conv1d_backward(x, weights, dilation, upstream):
    kernel = weights.shape[0]
    t_out = upstream.shape[0]
    d_weights = (windows(x, kernel, dilation).T @ upstream).reshape(weights.shape)
    d_input = np.zeros_like(x)
    for k in range(kernel):
        d_input[k * dilation:k * dilation + t_out] += upstream @ weights[k].T
    return d_input, d_weights, upstream.sum(axis=0)


# ---------------------------------------------------------------------------
# layers, one utterance at a time: each returns (output, backward) where
# backward(upstream) gives (d_input, {parameter name: gradient})
# ---------------------------------------------------------------------------


def conv_layer(lyr, x):
    w, b = lyr.weight.value, lyr.bias.value
    out = np.stack([conv1d(frames, w, b, lyr.dilation) for frames in x])

    def backward(upstream):
        d_x = np.empty_like(x)
        d_w = d_b = 0.0
        for i, frames in enumerate(x):
            d_x[i], d_wi, d_bi = conv1d_backward(frames, w, lyr.dilation, upstream[i])
            d_w = d_w + d_wi
            d_b = d_b + d_bi
        return d_x, {lyr.weight.name: d_w, lyr.bias.name: d_b}
    return out, backward


def _values(lyr):
    """The layer's parameter values by short name (``score_weight``, ...)."""
    return {prm.name[len(lyr.name) + 1:]: prm.value for prm in lyr.params()}


def adaptive_conv_layer(lyr, x):
    p = _values(lyr)
    dilation = lyr.dilation
    c = x.shape[2]
    outs, utts = [], []
    for frames in x:
        scored = np.tanh(frames @ p["score_weight"] + p["score_bias"])
        attn = softmax(scored @ p["score_proj"])
        context = np.concatenate(weighted_stats(frames, attn))
        coeffs = context @ p["mix_weight"] + p["mix_bias"]
        weights = np.tensordot(coeffs, p["pool_weight"], axes=1)
        outs.append(conv1d(frames, weights, coeffs @ p["pool_bias"], dilation))
        utts.append((scored, attn, context, coeffs, weights))

    def backward(upstream):
        grads = {name: 0.0 for name in p}
        d_x = np.empty_like(x)
        for i, (frames, (scored, attn, context, coeffs, weights)) in enumerate(zip(x, utts)):
            d_x[i], d_w, d_b = conv1d_backward(frames, weights, dilation, upstream[i])
            d_coeffs = (np.tensordot(p["pool_weight"], d_w, axes=([1, 2, 3], [0, 1, 2]))
                        + p["pool_bias"] @ d_b)
            grads["pool_weight"] += coeffs[:, None, None, None] * d_w[None]
            grads["pool_bias"] += np.outer(coeffs, d_b)
            grads["mix_weight"] += np.outer(context, d_coeffs)
            grads["mix_bias"] += d_coeffs
            d_context = p["mix_weight"] @ d_coeffs
            d_pooled, d_attn = weighted_stats_backward(frames, attn, d_context[:c], d_context[c:])
            d_logits = softmax_backward(attn, d_attn)
            d_pre = np.outer(d_logits, p["score_proj"]) * (1.0 - scored * scored)
            grads["score_weight"] += frames.T @ d_pre
            grads["score_bias"] += d_pre.sum(axis=0)
            grads["score_proj"] += scored.T @ d_logits
            d_x[i] += d_pooled + d_pre @ p["score_weight"].T
        return d_x, {getattr(lyr, name).name: g for name, g in grads.items()}
    return np.stack(outs), backward


def _normalize(x, eps):
    axes = tuple(range(x.ndim - 1))
    inv_std = 1.0 / np.sqrt(x.var(axis=axes) + eps)
    return (x - x.mean(axis=axes)) * inv_std, inv_std


def _normalize_backward(xhat, inv_std, d_xhat):
    axes = tuple(range(xhat.ndim - 1))
    n = float(xhat.size // xhat.shape[-1])
    sum_d = d_xhat.sum(axis=axes)
    sum_dx = (d_xhat * xhat).sum(axis=axes)
    return (inv_std / n) * (n * d_xhat - sum_d - xhat * sum_dx)


def batch_norm_layer(lyr, x):
    xhat, inv_std = _normalize(x, BN_EPS)
    gamma = lyr.gamma.value
    axes = tuple(range(x.ndim - 1))

    def backward(upstream):
        grads = {lyr.gamma.name: (upstream * xhat).sum(axis=axes),
                 lyr.beta.name: upstream.sum(axis=axes)}
        return _normalize_backward(xhat, inv_std, upstream * gamma), grads
    return xhat * gamma + lyr.beta.value, backward


def adaptive_norm_layer(lyr, x):
    p = _values(lyr)
    utts = []
    for frames in x:
        feats = np.tanh(frames @ p["ctx_weight"] + p["ctx_bias"])
        attn = softmax(feats.mean(axis=1))
        utts.append((feats, attn, attn @ feats))
    contexts = np.stack([u[2] for u in utts])
    xhat, inv_std = _normalize(x, BN_EPS)
    scales = contexts @ p["scale_weight"] + p["scale_bias"]
    shifts = contexts @ p["shift_weight"] + p["shift_bias"]

    def backward(upstream):
        d_scales = (upstream * xhat).sum(axis=1)
        d_shifts = upstream.sum(axis=1)
        grads = {"scale_weight": contexts.T @ d_scales, "scale_bias": d_scales.sum(axis=0),
                 "shift_weight": contexts.T @ d_shifts, "shift_bias": d_shifts.sum(axis=0),
                 "ctx_weight": 0.0, "ctx_bias": 0.0}
        d_contexts = d_scales @ p["scale_weight"].T + d_shifts @ p["shift_weight"].T
        d_x = _normalize_backward(xhat, inv_std, upstream * scales[:, None, :])
        for i, (frames, (feats, attn, _)) in enumerate(zip(x, utts)):
            d_feats = np.outer(attn, d_contexts[i])
            d_means = softmax_backward(attn, feats @ d_contexts[i])
            d_feats += d_means[:, None] / feats.shape[1]
            d_pre = d_feats * (1.0 - feats * feats)
            grads["ctx_weight"] += frames.T @ d_pre
            grads["ctx_bias"] += d_pre.sum(axis=0)
            d_x[i] += d_pre @ p["ctx_weight"].T
        return d_x, {getattr(lyr, name).name: g for name, g in grads.items()}
    return xhat * scales[:, None, :] + shifts[:, None, :], backward


def stats_pool_layer(lyr, x):
    c = x.shape[2]
    uniform = np.full(x.shape[1], 1.0 / x.shape[1])

    def backward(upstream):
        return np.stack([weighted_stats_backward(frames, uniform, upstream[i, :c],
                                                 upstream[i, c:])[0]
                         for i, frames in enumerate(x)]), {}
    return np.stack([np.concatenate(weighted_stats(frames, uniform)) for frames in x]), backward


def relu_layer(lyr, x):
    return np.maximum(x, 0.0), lambda upstream: (upstream * (x > 0.0), {})


def dense_layer(lyr, x):
    def backward(upstream):
        return upstream @ lyr.weight.value.T, {lyr.weight.name: x.T @ upstream,
                                               lyr.bias.name: upstream.sum(axis=0)}
    return x @ lyr.weight.value + lyr.bias.value, backward


LAYERS = {M.ConvLayer: conv_layer, M.AdaptiveConvLayer: adaptive_conv_layer,
          M.BatchNormLayer: batch_norm_layer, M.AdaptiveNormLayer: adaptive_norm_layer,
          M.StatsPoolLayer: stats_pool_layer, M.ReluLayer: relu_layer, M.DenseLayer: dense_layer}


def forward_backward(model, x, loss_grad):
    """Train-mode logits, the input gradient and every parameter gradient
    (by name) of ``model`` on batch ``x``, where ``loss_grad(logits)`` is
    the gradient of the loss at the logits.  The model is not modified."""
    h = np.asarray(x, dtype=float)
    backwards = []
    for lyr in model.layers:
        h, backward = LAYERS[type(lyr)](lyr, h)
        backwards.append(backward)
    d, grads = loss_grad(h), {}
    for backward in reversed(backwards):
        d, layer_grads = backward(d)
        grads.update(layer_grads)
    return h, d, grads


def generate_trials(corpus, seed, n_target, n_nontarget):
    """Trials drawn from the full lists of target and nontarget pairs."""
    by_speaker = {}
    for u in corpus.utterances:
        by_speaker.setdefault(u.speaker_id, []).append(u.utt_id)
    for utts in by_speaker.values():
        utts.sort()
    target_pairs = []
    for spk in sorted(by_speaker):
        utts = by_speaker[spk]
        for i in range(len(utts)):
            for j in range(i + 1, len(utts)):
                target_pairs.append((utts[i], utts[j]))
    all_ids = sorted(u.utt_id for u in corpus.utterances)
    speaker_of = {u.utt_id: u.speaker_id for u in corpus.utterances}
    nontarget_pairs = []
    for i in range(len(all_ids)):
        for j in range(i + 1, len(all_ids)):
            if speaker_of[all_ids[i]] != speaker_of[all_ids[j]]:
                nontarget_pairs.append((all_ids[i], all_ids[j]))
    rng = np.random.default_rng(seed)
    chosen_t = rng.choice(len(target_pairs), size=n_target, replace=False)
    chosen_n = rng.choice(len(nontarget_pairs), size=n_nontarget, replace=False)
    trials = [Trial(*target_pairs[int(i)], True) for i in sorted(chosen_t)]
    trials += [Trial(*nontarget_pairs[int(i)], False) for i in sorted(chosen_n)]
    return trials


def encode_records(header, records):
    buf = bytearray()
    buf += b"AXVR"
    buf += struct.pack("<I", 1)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    buf += struct.pack("<I", len(header_bytes))
    buf += header_bytes
    buf += struct.pack("<I", len(records))
    for name, array in records:
        arr = np.asarray(array, dtype=np.float64)
        name_bytes = name.encode("utf-8")
        buf += struct.pack("<H", len(name_bytes))
        buf += name_bytes
        buf += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            buf += struct.pack("<I", dim)
        buf += np.ascontiguousarray(arr).astype("<f8", copy=False).tobytes()
    return bytes(buf)

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from axvector import layers as L
from axvector import numerics as N

from gradcheck import cache_arrays, check_grads, in_dtype, param_grads, randomize


def make_acnn_layer(rng, in_dim=4, hidden=3, pool=3, kernel=2, out_dim=5, dilation=1):
    layer = L.AdaptiveConvLayer("acnn", np.random.default_rng(0), kernel, in_dim, out_dim,
                                dilation, hidden, pool)
    return randomize(layer, rng)


def make_abn_layer(rng, channels=4, hidden=3):
    layer = L.AdaptiveNormLayer("abn", np.random.default_rng(0), channels, hidden)
    return randomize(layer, rng, {"scale_bias": 1.0})


def make_bn_layer(channels):
    return L.BatchNormLayer("bn", channels)


def floored_stats(values, weights):
    """Weighted mean and floored standard deviation from weighted_moments."""
    mean, raw_var = N.weighted_moments(values, weights)
    return mean, np.sqrt(np.maximum(raw_var, N.VARIANCE_FLOOR))


class TestRelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_caches_its_output_only(self, rng, dtype):
        """The train-mode cache is the forward's output array itself, and
        the backward takes the sign from it: upstream * (x > 0) bit for bit,
        zeros (here a row of them) included."""
        x = rng.normal(size=(3, 7, 4)).astype(dtype)
        x[0, :2] = 0.0
        upstream = rng.normal(size=x.shape).astype(dtype)
        relu = L.ReluLayer("act")
        out, cache = relu.forward(x, "train")
        assert np.array_equal(out, np.maximum(x, 0.0)) and out.dtype == dtype
        assert cache is out
        d_x = relu.backward(cache, upstream)
        assert d_x.dtype == dtype and np.array_equal(d_x, upstream * (x > 0))
        assert not d_x[0, :2].any()

    def test_infer_mode_keeps_no_cache(self, rng):
        relu = L.ReluLayer("act")
        out, cache = relu.forward(rng.normal(size=(2, 5, 3)), "infer")
        assert cache is None
        with pytest.raises(ValueError, match="act: backward needs a train-mode forward"):
            relu.backward(cache, np.ones_like(out))


class TestBatchNorm:
    def test_infer_identity(self, rng, monkeypatch):
        monkeypatch.setattr(L, "BN_EPS", 1e-12)
        bn = make_bn_layer(3)
        bn.running_var = np.ones(3)
        bn.initialized = True
        x = rng.normal(size=(4, 6, 3))
        out, _ = bn.forward(x, "infer")
        np.testing.assert_allclose(out, x, rtol=1e-10)

    def test_train_two_values(self):
        bn = make_bn_layer(1)
        x = np.array([[-1.0], [1.0]])
        out, _ = bn.forward(x, "train")
        expected = 1.0 / np.sqrt(1.0 + L.BN_EPS)
        np.testing.assert_allclose(out.ravel(), [-expected, expected], rtol=1e-15)

    def test_running_update_from_zero(self, rng, monkeypatch):
        monkeypatch.setattr(L, "BN_MOMENTUM", 0.25)
        bn = make_bn_layer(2)
        x = rng.normal(size=(5, 7, 2)) + 3.0
        bn.forward(x, "train")
        np.testing.assert_allclose(bn.running_mean, 0.25 * x.mean(axis=(0, 1)), rtol=1e-12)
        np.testing.assert_allclose(bn.running_var, 0.25 * x.var(axis=(0, 1)), rtol=1e-12)
        assert bn.initialized

    def test_infer_before_training_errors(self, rng):
        bn = make_bn_layer(2)
        with pytest.raises(RuntimeError, match="running statistics"):
            bn.forward(rng.normal(size=(3, 2)), "infer")

    def test_train_output_standardized(self, rng):
        bn = make_bn_layer(4)
        x = rng.normal(loc=2.0, scale=3.0, size=(6, 11, 4))
        out, _ = bn.forward(x, "train")
        var = x.var(axis=(0, 1))
        np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=(0, 1)), var / (var + L.BN_EPS), atol=1e-9)

    def test_gradients_train_mode(self, rng):
        bn = make_bn_layer(3)
        bn.gamma.value[...] = rng.normal(size=3) + 1.0
        bn.beta.value[...] = rng.normal(size=3)
        x = rng.normal(size=(2, 5, 3))
        probe = rng.normal(size=(2, 5, 3))

        def loss():
            out, _ = bn.forward(x, "train")
            return float(np.sum(out * probe))

        _, cache = bn.forward(x, "train")
        dx = bn.backward(cache, probe)
        check_grads(loss, [("input", x, dx)] + param_grads(bn), tol=1e-5)

    def test_running_stats_untouched_in_infer(self, rng):
        bn = make_bn_layer(2)
        bn.forward(rng.normal(size=(4, 2)), "train")
        mean_before = bn.running_mean.copy()
        bn.forward(rng.normal(size=(4, 2)), "infer")
        assert np.array_equal(bn.running_mean, mean_before)


class TestStatsPooling:
    pool = L.StatsPoolLayer("pool")

    def test_constant_frames(self):
        out, _ = self.pool.forward(np.full((1, 5, 2), 3.0), "train")
        np.testing.assert_allclose(out[0, :2], 3.0, rtol=1e-15)
        np.testing.assert_allclose(out[0, 2:], np.sqrt(N.VARIANCE_FLOOR), rtol=1e-12)

    def test_hand_computation(self):
        out, _ = self.pool.forward(np.array([[[0.0], [2.0]]]), "train")
        np.testing.assert_allclose(out, [[1.0, 1.0]], rtol=1e-12)

    def test_matches_uniform_weighted_stats(self, rng):
        frames = rng.normal(size=(1, 7, 3))
        out, _ = self.pool.forward(frames, "train")
        mean, std = floored_stats(frames, np.full((1, 7), 1 / 7))
        np.testing.assert_allclose(out, np.concatenate([mean, std], axis=-1), rtol=1e-15)

    @given(st.integers(0, 2 ** 30))
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        frames = rng.normal(size=(6, 3))
        out, _ = self.pool.forward(frames[None], "train")
        perm_out, _ = self.pool.forward(frames[rng.permutation(6)][None], "train")
        np.testing.assert_allclose(out, perm_out, atol=1e-12)

    def test_gradient(self, rng):
        frames = rng.normal(size=(1, 5, 3))
        probe = rng.normal(size=(1, 6))

        def loss():
            out, _ = self.pool.forward(frames, "train")
            return float(np.sum(out * probe))

        _, cache = self.pool.forward(frames, "train")
        check_grads(loss, [("frames", frames, self.pool.backward(cache, probe))], tol=1e-5)


def context_reference(frames, lyr):
    """Straight-line loop reimplementation of the attentive context of one
    (frames, channels) utterance."""
    t = frames.shape[0]
    w, b, proj = lyr.score_weight.value, lyr.score_bias.value, lyr.score_proj.value
    logits = np.array([proj @ np.tanh(frames[i] @ w + b) for i in range(t)])
    exp = np.exp(logits - logits.max())
    attn = exp / exp.sum()
    mean = sum(attn[i] * frames[i] for i in range(t))
    second = sum(attn[i] * frames[i] * frames[i] for i in range(t))
    std = np.sqrt(np.maximum(second - mean * mean, N.VARIANCE_FLOOR))
    return np.concatenate([mean, std]), attn


class TestAcnnContext:
    def test_zero_score_map_gives_uniform_attention(self, rng):
        lyr = make_acnn_layer(rng)
        lyr.score_weight.value[...] = 0.0
        lyr.score_bias.value[...] = 0.0
        frames = rng.normal(size=(1, 6, 4))
        context, cache = lyr.context(frames)
        np.testing.assert_allclose(cache["attn"], 1 / 6, rtol=1e-15)
        mean, std = floored_stats(frames, np.full((1, 6), 1 / 6))
        np.testing.assert_allclose(context, np.concatenate([mean, std], axis=-1), rtol=1e-12)

    def test_single_frame(self, rng):
        lyr = make_acnn_layer(rng)
        frames = rng.normal(size=(1, 1, 4))
        context, _ = lyr.context(frames)
        np.testing.assert_allclose(context[0, :4], frames[0, 0], rtol=1e-12)
        np.testing.assert_allclose(context[0, 4:], np.sqrt(N.VARIANCE_FLOOR), rtol=1e-12)

    def test_against_independent_reference(self, rng):
        lyr = make_acnn_layer(rng, in_dim=4, hidden=3)
        frames = rng.normal(size=(1, 6, 4))
        context, cache = lyr.context(frames)
        expected, attn = context_reference(frames[0], lyr)
        np.testing.assert_allclose(context[0], expected, atol=1e-12)
        np.testing.assert_allclose(cache["attn"][0], attn, atol=1e-12)

    def test_attention_is_probability_vector(self, rng):
        lyr = make_acnn_layer(rng)
        _, cache = lyr.context(rng.normal(size=(1, 9, 4)))
        attn = cache["attn"]
        assert np.all(attn >= 0)
        assert abs(attn.sum() - 1.0) <= 1e-12

    def test_permutation_invariant(self, rng):
        lyr = make_acnn_layer(rng)
        frames = rng.normal(size=(8, 4))
        out, _ = lyr.context(frames[None])
        perm, _ = lyr.context(frames[rng.permutation(8)][None])
        np.testing.assert_allclose(out, perm, atol=1e-12)


class TestAcnnFilters:
    def test_one_hot_selection(self, rng):
        lyr = make_acnn_layer(rng)
        lyr.mix_weight.value[...] = 0.0
        lyr.mix_bias.value[...] = [0.0, 1.0, 0.0]
        (weights, bias), _ = lyr.filters(np.zeros((1, 8)))
        assert np.array_equal(weights[0], lyr.pool_weight.value[1])
        assert np.array_equal(bias[0], lyr.pool_bias.value[1])

    def test_equal_mixture(self, rng):
        lyr = make_acnn_layer(rng, pool=2)
        lyr.mix_weight.value[...] = 0.0
        lyr.mix_bias.value[...] = [0.5, 0.5]
        (weights, bias), _ = lyr.filters(rng.normal(size=(1, 8)))
        pool_w, pool_b = lyr.pool_weight.value, lyr.pool_bias.value
        np.testing.assert_allclose(weights[0], 0.5 * (pool_w[0] + pool_w[1]), rtol=1e-15)
        np.testing.assert_allclose(bias[0], 0.5 * (pool_b[0] + pool_b[1]), rtol=1e-15)

    def test_zero_regression(self, rng):
        lyr = make_acnn_layer(rng)
        lyr.mix_weight.value[...] = 0.0
        lyr.mix_bias.value[...] = 0.0
        (weights, bias), _ = lyr.filters(rng.normal(size=(1, 8)))
        assert not weights.any() and not bias.any()


class TestAcnnLayer:
    def test_one_hot_override_reduces_to_static_conv(self, rng):
        lyr = make_acnn_layer(rng)
        frames = rng.normal(size=(1, 7, 4))
        lyr.mix_weight.value[...] = 0.0
        lyr.mix_bias.value[...] = [0.0, 0.0, 1.0]
        out, _ = lyr.forward(frames, "train")
        static = N.conv1d(frames[0], N.ConvParams(lyr.pool_weight.value[2],
                                                  lyr.pool_bias.value[2], lyr.dilation))
        assert np.array_equal(out[0], static)

    def test_kernel_one_preserves_frames(self, rng):
        lyr = make_acnn_layer(rng, kernel=1)
        frames = rng.normal(size=(1, 9, 4))
        assert lyr.forward(frames, "train")[0].shape[1] == 9

    def test_end_to_end_gradients(self, rng):
        lyr = make_acnn_layer(rng)
        frames = rng.normal(size=(1, 6, 4))
        probe = rng.normal(size=(1, 5, 5))

        def loss():
            out, _ = lyr.forward(frames, "train")
            return float(np.sum(out * probe))

        _, cache = lyr.forward(frames, "train")
        d_frames = lyr.backward(cache, probe)
        assert len(lyr.params()) == 7
        check_grads(loss, [("frames", frames, d_frames)] + param_grads(lyr), tol=1e-5)


def abn_context_reference(frames, lyr):
    t = frames.shape[0]
    w, b = lyr.ctx_weight.value, lyr.ctx_bias.value
    feats = np.array([np.tanh(frames[i] @ w + b) for i in range(t)])
    means = np.array([feats[i].mean() for i in range(t)])
    exp = np.exp(means - means.max())
    attn = exp / exp.sum()
    return sum(attn[i] * feats[i] for i in range(t)), attn


class TestAbnContext:
    def test_identical_frames_uniform_attention(self, rng):
        lyr = make_abn_layer(rng)
        frame = rng.normal(size=4)
        frames = np.tile(frame, (1, 5, 1))
        context, cache = lyr.context(frames)
        np.testing.assert_allclose(cache["attn"], 0.2, rtol=1e-15)
        np.testing.assert_allclose(context[0], np.tanh(frame @ lyr.ctx_weight.value
                                                       + lyr.ctx_bias.value), atol=1e-12)

    def test_single_frame(self, rng):
        lyr = make_abn_layer(rng)
        frames = rng.normal(size=(1, 1, 4))
        context, cache = lyr.context(frames)
        np.testing.assert_allclose(cache["attn"], [[1.0]], rtol=1e-15)
        np.testing.assert_allclose(context, np.tanh(frames[0] @ lyr.ctx_weight.value
                                                    + lyr.ctx_bias.value), atol=1e-12)

    def test_against_independent_reference(self, rng):
        lyr = make_abn_layer(rng, channels=3, hidden=4)
        frames = rng.normal(size=(1, 5, 3))
        context, cache = lyr.context(frames)
        expected, attn = abn_context_reference(frames[0], lyr)
        np.testing.assert_allclose(context[0], expected, atol=1e-12)
        np.testing.assert_allclose(cache["attn"][0], attn, atol=1e-12)

    def test_permutation_invariant(self, rng):
        lyr = make_abn_layer(rng)
        frames = rng.normal(size=(7, 4))
        out, _ = lyr.context(frames[None])
        perm, _ = lyr.context(frames[rng.permutation(7)][None])
        np.testing.assert_allclose(out, perm, atol=1e-12)


class TestAbnApply:
    def test_zeroed_generators_reduce_to_batch_norm(self, rng):
        channels = 4
        abn = make_abn_layer(rng, channels=channels)
        abn.scale_weight.value[...] = 0.0
        abn.scale_bias.value[...] = 1.0
        abn.shift_weight.value[...] = 0.0
        abn.shift_bias.value[...] = 0.0
        x = rng.normal(size=(3, 6, channels))

        out, _ = abn.forward(x, "train")
        bn = make_bn_layer(channels)
        expected, _ = bn.forward(x, "train")
        assert np.array_equal(out, expected)
        assert np.array_equal(abn.running_mean, bn.running_mean)

    def test_infer_affine_arithmetic(self):
        abn = L.AdaptiveNormLayer("abn", np.random.default_rng(0), 1, 2)
        for p in abn.params():
            p.value[...] = 0.0
        abn.scale_bias.value[...] = 2.0
        abn.shift_bias.value[...] = 3.0
        abn.running_var = np.ones(1)
        abn.initialized = True
        x = np.ones((1, 1, 1))
        out, _ = abn.forward(x, "infer")
        expected = 2.0 / np.sqrt(1.0 + L.BN_EPS) + 3.0
        np.testing.assert_allclose(out.ravel(), [expected], rtol=1e-15)
        assert abs(out.ravel()[0] - 5.0) < 1e-4

    def test_layer_gradients(self, rng):
        abn = make_abn_layer(rng, channels=3, hidden=2)
        x = rng.normal(size=(2, 4, 3))
        probe = rng.normal(size=(2, 4, 3))

        def loss():
            out, _ = abn.forward(x, "train")
            return float(np.sum(out * probe))

        _, cache = abn.forward(x, "train")
        d_input = abn.backward(cache, probe)
        assert len(abn.params()) == 6
        check_grads(loss, [("input", x, d_input)] + param_grads(abn), tol=1e-5)

    def test_abn_attention_is_probability_vector(self, rng):
        lyr = make_abn_layer(rng)
        _, cache = lyr.context(rng.normal(size=(1, 10, 4)))
        attn = cache["attn"]
        assert np.all(attn >= 0)
        assert abs(attn.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# the cache contract: a cache stays valid through later forwards
# ---------------------------------------------------------------------------

# one train-mode instance of every layer class, and the input shape it takes
LAYER_CASES = {
    "ReluLayer": (lambda rng: L.ReluLayer("act"), (3, 7, 4)),
    "ConvLayer": (lambda rng: randomize(L.ConvLayer("conv", rng, 3, 4, 5, 2), rng), (3, 9, 4)),
    "DenseLayer": (lambda rng: randomize(L.DenseLayer("dense", rng, 4, 5), rng), (3, 4)),
    "StatsPoolLayer": (lambda rng: L.StatsPoolLayer("pool"), (3, 7, 4)),
    "AdaptiveConvLayer": (lambda rng: make_acnn_layer(rng, kernel=3, dilation=2), (3, 9, 4)),
    "BatchNormLayer": (lambda rng: randomize(make_bn_layer(4), rng, {"gamma": 1.0}), (3, 7, 4)),
    "AdaptiveNormLayer": (make_abn_layer, (3, 7, 4)),
}


NORM_CASES = {
    "bn-rows": (lambda rng: make_bn_layer(3), (5, 3)),
    "bn-frames": (lambda rng: make_bn_layer(3), (2, 4, 3)),
    "abn": (lambda rng: make_abn_layer(rng, channels=3, hidden=2), (2, 4, 3)),
}


@pytest.mark.parametrize("name", sorted(NORM_CASES))
def test_infer_mode_norm_keeps_no_cache(name):
    """Like a ReLU, an infer-mode normalization caches nothing, and its
    backward is refused."""
    rng = np.random.default_rng(4)
    make, shape = NORM_CASES[name]
    layer = make(rng)
    layer.running_var = np.ones(shape[-1])
    layer.initialized = True
    out, cache = layer.forward(rng.normal(size=shape), "infer")
    assert cache is None
    with pytest.raises(ValueError, match=f"{layer.name}: backward needs a train-mode forward"):
        layer.backward(cache, np.ones_like(out))


@pytest.mark.parametrize("name", sorted(NORM_CASES))
def test_norm_backward_in_blocks_gives_the_bits_of_one_block(name, monkeypatch):
    """Runs of rows, of whole utterances and of one utterance's frames give
    the input and parameter gradients of a backward in one block, bit for
    bit."""
    make, shape = NORM_CASES[name]

    def gradients(block_rows):
        monkeypatch.setattr(L, "NORM_BLOCK_BYTES", block_rows * shape[-1] * 8)
        rng = np.random.default_rng(8)
        layer = make(rng)
        _, cache = layer.forward(rng.normal(size=shape), "train")
        return [layer.backward(cache, rng.normal(size=shape))] + [p.grad for p in layer.params()]

    whole = gradients(1 << 20)
    # runs of two rows (of a 2-D input, or of one utterance's frames) and, of
    # a 3-D input, runs of one utterance
    for block_rows in (2,) if len(shape) == 2 else (2, shape[1]):
        blocked = gradients(block_rows)
        assert len(L._row_blocks(shape, 8)) > 1
        for a, b in zip(blocked, whole, strict=True):
            assert np.array_equal(a, b)


# (make, shape, blocks): float32 shapes several 1 MiB blocks wide, and the
# blocks a backward may hold beside its output: batch norm forms each block
# in its output, adaptive norm adds upstream * a + x * k, two blocks, into it.
# A frame5 utterance of the full-size network (200 x 1536 float32, 1.2 MB)
# is larger than a block, so its backward runs over runs of frames.
NORM_BUDGET_CASES = {
    "bn-rows": (lambda rng: make_bn_layer(768), (2048, 768), 1),
    "bn-frames": (lambda rng: make_bn_layer(768), (8, 256, 768), 1),
    "bn-frame-runs": (lambda rng: make_bn_layer(768), (8, 384, 768), 1),
    "abn": (lambda rng: make_abn_layer(rng, channels=768, hidden=8), (8, 256, 768), 2),
    "abn-frame-runs": (lambda rng: make_abn_layer(rng, channels=768, hidden=8),
                       (8, 384, 768), 2),
}


@pytest.mark.parametrize("name", sorted(NORM_BUDGET_CASES))
def test_norm_backward_holds_no_full_size_temporary(name):
    """From just before a normalization's backward to its traced peak, the
    heap grows by at most the input gradient it returns, the parameter
    gradients it sets and its blocks, plus a small slack (per-channel sums,
    adaptive norm's hidden-width context temporaries): no temporary the
    size of the input."""
    rng = np.random.default_rng(21)
    make, shape, blocks = NORM_BUDGET_CASES[name]
    layer = in_dtype(make(rng))
    x = rng.normal(size=shape).astype(np.float32)
    upstream = rng.normal(size=shape).astype(np.float32)
    _, cache = layer.forward(x, "train")
    tracemalloc.start()
    try:
        d_x = layer.backward(cache, upstream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in layer.params())
    budget = d_x.nbytes + grads + blocks * L.NORM_BLOCK_BYTES + 256 * 1024
    assert x.nbytes >= 6 * L.NORM_BLOCK_BYTES
    assert peak <= budget, f"{peak / 2**20:.2f} MiB > {budget / 2**20:.2f} MiB"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(NORM_CASES))
def test_norm_cache_holds_no_full_size_array_but_its_input(name, dtype):
    """A train-mode normalization caches its input once and takes its
    gradients from per-channel sums: no other array of the input's shape is
    kept."""
    rng = np.random.default_rng(6)
    make, shape = NORM_CASES[name]
    x = rng.normal(size=shape).astype(dtype)
    _, cache = in_dtype(make(rng), dtype).forward(x, "train")
    full = [a for a in cache_arrays(cache) if a.shape == x.shape]
    assert full and all(a is x for a in full)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_cache_holds_no_parameter_value_or_cast(name, dtype):
    """A train-mode cache shares no memory with a parameter value and holds
    no copy of one: each backward reads the parameters it needs again."""
    rng = np.random.default_rng(8)
    make, shape = LAYER_CASES[name]
    layer = in_dtype(make(rng), dtype)
    _, cache = layer.forward(rng.normal(size=shape).astype(dtype), "train")
    for a in cache_arrays(cache):
        for p in layer.params():
            assert not np.shares_memory(a, p.value), p.name
            assert not (a.shape == p.value.shape
                        and np.array_equal(a, p.value.astype(a.dtype))), p.name


def _textbook_affine(layer, x):
    """(x - running_mean) / sqrt(running_var + eps) * scale + shift in
    float64, with the layer's fixed affine or, for adaptive norm, the
    affine it generates from x in float64."""
    layer = in_dtype(copy.deepcopy(layer), np.float64)
    x = x.astype(np.float64)
    if isinstance(layer, L.AdaptiveNormLayer):
        contexts, _ = layer.context(x)
        scale = (contexts @ layer.scale_weight.value + layer.scale_bias.value)[:, None, :]
        shift = (contexts @ layer.shift_weight.value + layer.shift_bias.value)[:, None, :]
    else:
        scale, shift = layer.gamma.value, layer.beta.value
    inv_std = 1.0 / np.sqrt(layer.running_var + L.BN_EPS)
    return (x - layer.running_mean) * inv_std * scale + shift


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("name", sorted(NORM_CASES))
def test_infer_mode_is_the_textbook_affine(name, dtype, tol):
    """An infer-mode normalization, computed as one affine x * a + c, equals
    the textbook (x - running_mean) * inv_std * scale + shift."""
    rng = np.random.default_rng(9)
    make, shape = NORM_CASES[name]
    layer = in_dtype(make(rng), dtype)
    if isinstance(layer, L.BatchNormLayer):
        randomize(layer, rng, {"gamma": 1.0})
    layer.running_mean = rng.normal(size=shape[-1])
    layer.running_var = rng.uniform(0.5, 2.0, size=shape[-1])
    layer.initialized = True
    x = rng.normal(size=shape).astype(dtype)
    y, _ = layer.forward(x, "infer")
    expected = _textbook_affine(layer, x)
    assert y.dtype == dtype
    np.testing.assert_allclose(y, expected, rtol=tol, atol=tol * np.abs(expected).max())


def test_layer_cases_cover_every_layer_class():
    classes = {name for name, cls in vars(L).items()
               if isinstance(cls, type) and "backward" in vars(cls)}
    assert classes == set(LAYER_CASES)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_later_forward_leaves_a_cache_intact(name, dtype):
    """forward(x1), forward(x2), then backward(cache of x1), twice, gives the
    input and parameter gradients of a single forward(x1) and backward, bit
    for bit: the backward's recomputes read a cache that neither a later
    forward nor a backward overwrites."""
    rng = np.random.default_rng(17)
    make, shape = LAYER_CASES[name]
    layer = in_dtype(make(rng), dtype)
    x1, x2 = (rng.normal(size=shape).astype(dtype) for _ in range(2))
    out, cache = layer.forward(x1, "train")
    upstream = rng.normal(size=out.shape).astype(dtype)
    expected_dx = layer.backward(cache, upstream)
    expected = [p.grad.copy() for p in layer.params()]

    _, cache1 = layer.forward(x1, "train")
    layer.forward(x2, "train")
    for _ in range(2):
        assert np.array_equal(layer.backward(cache1, upstream), expected_dx)
        for p, grad in zip(layer.params(), expected):
            assert np.array_equal(p.grad, grad), p.name

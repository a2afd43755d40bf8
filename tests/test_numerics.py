import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from axvector import layers as L
from axvector import numerics as N

from gradcheck import check_grads, in_dtype


def conv_reference(x, weights, bias, dilation):
    """Direct-summation oracle, never vectorized."""
    kernel, _, out_dim = weights.shape
    t_out = x.shape[0] - (kernel - 1) * dilation
    out = np.zeros((t_out, out_dim))
    for t in range(t_out):
        for o in range(out_dim):
            acc = bias[o]
            for k in range(kernel):
                for c in range(x.shape[1]):
                    acc += x[t + k * dilation, c] * weights[k, c, o]
            out[t, o] = acc
    return out


class TestConv1d:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(6, 4))
        params = N.ConvParams(np.eye(4)[None], np.zeros(4), 1)
        assert np.array_equal(N.conv1d(x, params), x)

    def test_sum_kernel(self):
        x = np.array([[1.0], [2.0], [3.0]])
        params = N.ConvParams(np.ones((2, 1, 1)), np.zeros(1), 1)
        out = N.conv1d(x, params)
        np.testing.assert_allclose(out.ravel(), [3.0, 5.0], rtol=1e-15)
        np.testing.assert_allclose(out, conv_reference(x, params.weights, params.bias, 1),
                                   rtol=1e-15)

    def test_dilated_sum_kernel(self):
        x = np.arange(1.0, 6.0)[:, None]
        params = N.ConvParams(np.ones((2, 1, 1)), np.zeros(1), 2)
        out = N.conv1d(x, params)
        np.testing.assert_allclose(out.ravel(), [4.0, 6.0, 8.0], rtol=1e-15)
        np.testing.assert_allclose(out, conv_reference(x, params.weights, params.bias, 2),
                                   rtol=1e-15)

    def test_random_against_reference(self, rng):
        x = rng.normal(size=(9, 3))
        params = N.ConvParams(rng.normal(size=(3, 3, 5)), rng.normal(size=5), 2)
        np.testing.assert_allclose(N.conv1d(x, params),
                                   conv_reference(x, params.weights, params.bias, 2),
                                   rtol=1e-12, atol=1e-12)

    def test_kernel_one_equals_affine(self, rng):
        w = rng.normal(size=(1, 4, 6))
        b = rng.normal(size=6)
        x = rng.normal(size=(7, 4))
        out = N.conv1d(x, N.ConvParams(w, b, 1))
        np.testing.assert_allclose(out, x @ w[0] + b, rtol=1e-12)

    def test_too_short_input(self):
        params = N.ConvParams(np.ones((3, 1, 1)), np.zeros(1), 2)
        with pytest.raises(ValueError, match="too short"):
            N.conv1d(np.ones((4, 1)), params)

    def test_channel_mismatch(self):
        params = N.ConvParams(np.ones((1, 2, 1)), np.zeros(1), 1)
        with pytest.raises(ValueError, match="channels"):
            N.conv1d(np.ones((4, 3)), params)

    def test_bad_bias_length(self):
        with pytest.raises(ValueError, match="bias"):
            N.ConvParams(np.ones((1, 2, 3)), np.zeros(2), 1)


class TestConv1dBackward:
    def test_zero_upstream(self, rng):
        x = rng.normal(size=(5, 2))
        params = N.ConvParams(rng.normal(size=(2, 2, 3)), rng.normal(size=3), 1)
        dx, dw, db = N.conv1d_backward(x, params, np.zeros((4, 3)))
        assert not dx.any() and not dw.any() and not db.any()

    def test_identity_kernel_passes_upstream(self, rng):
        x = rng.normal(size=(5, 3))
        params = N.ConvParams(np.eye(3)[None], np.zeros(3), 1)
        upstream = rng.normal(size=(5, 3))
        dx, _, _ = N.conv1d_backward(x, params, upstream)
        assert np.array_equal(dx, upstream)

    def test_finite_differences(self, rng):
        x = rng.normal(size=(4, 3))
        params = N.ConvParams(rng.normal(size=(2, 3, 2)), rng.normal(size=2), 1)
        probe = rng.normal(size=(3, 2))

        def loss():
            return float(np.sum(N.conv1d(x, params) * probe))

        dx, dw, db = N.conv1d_backward(x, params, probe)
        check_grads(loss, [("input", x, dx),
                           ("weights", params.weights, dw),
                           ("bias", params.bias, db)], tol=1e-6)

    def test_upstream_shape_mismatch(self, rng):
        x = rng.normal(size=(5, 2))
        params = N.ConvParams(rng.normal(size=(2, 2, 3)), np.zeros(3), 1)
        with pytest.raises(ValueError, match="upstream"):
            N.conv1d_backward(x, params, np.zeros((5, 3)))


def windows_per_tap(x, kernel, dilation):
    """The windows built tap by tap into their column blocks."""
    t_out = x.shape[-2] - (kernel - 1) * dilation
    c = x.shape[-1]
    win = np.empty(x.shape[:-2] + (t_out, kernel * c), dtype=x.dtype)
    for k in range(kernel):
        win[..., k * c:(k + 1) * c] = x[..., k * dilation:k * dilation + t_out, :]
    return win


def scatter_per_tap(d_windows, shape, kernel, dilation):
    """The window gradient added back tap by tap into zeros."""
    t_out, c = d_windows.shape[-2], shape[-1]
    d_input = np.zeros(shape, dtype=d_windows.dtype)
    for j in range(kernel):
        d_input[..., j * dilation:j * dilation + t_out, :] += d_windows[..., j * c:(j + 1) * c]
    return d_input


WINDOW_CASES = [(1, 1), (2, 1), (5, 1), (3, 2), (3, 3), (2, 4)]


class TestSlidingWindows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(13, 5), (3, 13, 5), (2, 1, 16, 3)])
    @pytest.mark.parametrize("kernel, dilation", WINDOW_CASES)
    def test_strided_copy_matches_per_tap_loop(self, rng, kernel, dilation, shape, dtype):
        x = rng.normal(size=shape).astype(dtype)
        win = N.sliding_windows(x, kernel, dilation)
        assert win.dtype == dtype
        assert np.array_equal(win, windows_per_tap(x, kernel, dilation))
        if kernel > 1:
            # a fresh contiguous array, not a view of x
            assert win.flags.c_contiguous and win.flags.writeable
            assert not np.shares_memory(win, x)

    @pytest.mark.parametrize("kernel, dilation", WINDOW_CASES)
    def test_non_contiguous_input(self, rng, kernel, dilation):
        """Strided, reversed and transposed inputs give the per-tap windows."""
        base = rng.normal(size=(4, 30, 12)).astype(np.float32)
        for x in (base[:, ::2, 1:6], base[::-1, ::-1, ::3], base.transpose(2, 1, 0)[:, :, :3]):
            assert not x.flags.c_contiguous
            assert np.array_equal(N.sliding_windows(x, kernel, dilation),
                                  windows_per_tap(x, kernel, dilation))


class TestConvBackwardScatter:
    @pytest.mark.parametrize("shape", [(13, 5), (3, 13, 5)])
    @pytest.mark.parametrize("kernel, dilation", WINDOW_CASES)
    def test_first_tap_seed_matches_scatter_into_zeros(self, rng, kernel, dilation, shape):
        """d_input equals the window gradient scattered tap by tap into
        zeros, bit for bit, for a shared bank and a stack of banks."""
        x = rng.normal(size=shape).astype(np.float32)
        c, o = shape[-1], 4
        t_out = shape[-2] - (kernel - 1) * dilation
        upstream = rng.normal(size=shape[:-2] + (t_out, o)).astype(np.float32)
        banks = [rng.normal(size=(kernel, c, o)).astype(np.float32)]
        if len(shape) == 3:
            banks.append(rng.normal(size=(shape[0], kernel, c, o)).astype(np.float32))
        for weights in banks:
            flat_w = weights.reshape(weights.shape[:-3] + (kernel * c, o))
            if weights.ndim == 3:
                # the shared bank's product, over the rows of every utterance
                d_windows = (upstream.reshape(-1, o) @ flat_w.T).reshape(
                    upstream.shape[:-1] + (kernel * c,))
            else:
                d_windows = np.matmul(upstream, flat_w.swapaxes(-1, -2))
            d_input, _, _ = N.conv_backward(x, weights, dilation, upstream)
            assert np.array_equal(d_input, scatter_per_tap(d_windows, shape, kernel, dilation))

    @pytest.mark.parametrize("kernel, dilation", WINDOW_CASES)
    def test_without_input_gradient(self, rng, kernel, dilation):
        """input_grad=False gives no input gradient and the same parameter
        gradients, bit for bit."""
        x = rng.normal(size=(3, 14, 5)).astype(np.float32)
        t_out = 14 - (kernel - 1) * dilation
        upstream = rng.normal(size=(3, t_out, 4)).astype(np.float32)
        for weights in (rng.normal(size=(kernel, 5, 4)), rng.normal(size=(3, kernel, 5, 4))):
            weights = weights.astype(np.float32)
            _, d_w, d_b = N.conv_backward(x, weights, dilation, upstream)
            none, d_w2, d_b2 = N.conv_backward(x, weights, dilation, upstream, input_grad=False)
            assert none is None
            assert np.array_equal(d_w, d_w2) and np.array_equal(d_b, d_b2)


class TestFrameSums:
    """The layers take per-channel and per-utterance sums over frame rows
    with np.einsum, which adds the rows in the order numpy's reductions over
    a leading axis do: each equals the .sum or .mean it replaced, bit for
    bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 17, 5), (7, 93, 13), (2, 201, 67),
                                       (33, 1, 129)])
    def test_einsum_sums_equal_reductions(self, rng, shape, dtype):
        x = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)).astype(dtype)
        rows = x.reshape(-1, shape[-1])
        assert np.array_equal(np.einsum("nc->c", rows), rows.sum(axis=0))
        assert np.array_equal(np.einsum("nc->c", rows) / rows.shape[0], rows.mean(axis=0))
        assert np.array_equal(np.einsum("btc->bc", x), x.sum(axis=1))
        assert np.array_equal(np.einsum("btc->bc", x) / shape[1], x.mean(axis=1))
        assert np.array_equal(np.einsum("...tc->...c", x), x.sum(axis=-2))

    @pytest.mark.parametrize("shape", [(1, 7, 5), (3, 7, 5), (4, 5)])
    def test_per_frame_matches_broadcasting(self, rng, shape):
        """A per-channel vector tiled over the frames, and a per-utterance
        array given a frame axis, act as numpy's broadcasting of them."""
        x = rng.normal(size=shape).astype(np.float32)
        v = rng.normal(size=shape[-1]).astype(np.float32)
        tiled = N.per_frame(v, x)
        assert np.array_equal(x * tiled, x * v) and np.array_equal(x - tiled, x - v)
        if x.ndim == 3:
            u = rng.normal(size=(shape[0], shape[-1])).astype(np.float32)
            assert np.array_equal(x + N.per_frame(u, x), x + u[:, None, :])

    def test_layer_sums_equal_reductions(self, rng):
        """The sums as the layers take them: bias gradients of the conv and
        dense layers and the normalizations' shift gradients are the
        reductions of their upstream, and pooling's mean half the mean."""
        x = rng.normal(size=(3, 11, 5)).astype(np.float32)
        up = rng.normal(size=(3, 11, 5)).astype(np.float32)
        pooled, _ = L.StatsPoolLayer("pool").forward(x, "train")
        assert np.array_equal(pooled[:, :5], x.mean(axis=1))
        bn = in_dtype(L.BatchNormLayer("bn", 5))
        _, cache = bn.forward(x, "train")
        assert np.array_equal(cache["mean"], x.reshape(-1, 5).mean(axis=0))
        bn.backward(cache, up)
        assert np.array_equal(bn.beta.grad, up.reshape(-1, 5).sum(axis=0))
        abn = in_dtype(L.AdaptiveNormLayer("abn", rng, 5, 3))
        _, cache = abn.forward(x, "train")
        abn.backward(cache, up)
        assert np.array_equal(abn.shift_bias.grad, up.sum(axis=1).sum(axis=0))
        conv = in_dtype(L.ConvLayer("conv", rng, 3, 5, 4, 2))
        conv_up = rng.normal(size=(3, 7, 4)).astype(np.float32)
        conv.backward(x, conv_up)
        assert np.array_equal(conv.bias.grad, conv_up.reshape(-1, 4).sum(axis=0))
        dense = in_dtype(L.DenseLayer("dense", rng, 5, 4))
        rows, rows_up = x[:, 0], conv_up[:, 0]
        dense.backward(rows, rows_up)
        assert np.array_equal(dense.bias.grad, rows_up.sum(axis=0))


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(N.softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3), rtol=1e-15)

    def test_closed_form(self):
        out = N.softmax([0.0, np.log(3.0)])
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_overflow_safe(self):
        out = N.softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, N.softmax([0.0, -1000.0]), atol=1e-15)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            N.softmax([])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.floats(-100, 100))
    def test_shift_invariance_and_simplex(self, logits, shift):
        v = np.array(logits)
        out = N.softmax(v)
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(out, N.softmax(v + shift), atol=1e-12)

    def test_backward_finite_differences(self, rng):
        v = rng.normal(size=6)
        probe = rng.normal(size=6)

        def loss():
            return float(N.softmax(v) @ probe)

        analytic = N.softmax_backward(N.softmax(v), probe)
        check_grads(loss, [("logits", v, analytic)], tol=1e-6)


def floored_stats(values, weights):
    """The forward of the weighted statistics, as the pooling layers compute
    it: weighted_moments plus the floored square root of the variance."""
    mean, raw_var = N.weighted_moments(values, weights)
    return mean, np.sqrt(np.maximum(raw_var, N.VARIANCE_FLOOR))


class TestWeightedStats:
    def test_constant_values_floor(self):
        values = np.full((4, 3), 2.5)
        mean, std = floored_stats(values, np.full(4, 0.25))
        np.testing.assert_allclose(mean, 2.5, rtol=1e-15)
        np.testing.assert_allclose(std, np.sqrt(N.VARIANCE_FLOOR), rtol=1e-12)

    def test_hand_computation(self):
        mean, std = floored_stats(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(mean, [1.0], rtol=1e-15)
        np.testing.assert_allclose(std, [1.0], rtol=1e-12)

    def test_one_hot_weights(self, rng):
        values = rng.normal(size=(5, 4))
        weights = np.zeros(5)
        weights[2] = 1.0
        mean, std = floored_stats(values, weights)
        np.testing.assert_allclose(mean, values[2], rtol=1e-15)
        np.testing.assert_allclose(std, np.sqrt(N.VARIANCE_FLOOR), rtol=1e-12)

    @given(st.integers(2, 8), st.integers(1, 4))
    def test_variance_never_negative(self, frames, dim):
        rng = np.random.default_rng(frames * 10 + dim)
        values = rng.normal(size=(frames, dim)) * 1e-6
        weights = rng.dirichlet(np.ones(frames))
        _, std = floored_stats(values, weights)
        assert np.all(std >= 0.0)

    def test_values_gradient(self, rng):
        values = rng.normal(size=(5, 3))
        weights = rng.dirichlet(np.ones(5))
        probe_m = rng.normal(size=3)
        probe_s = rng.normal(size=3)

        def loss():
            mean, std = floored_stats(values, weights)
            return float(mean @ probe_m + std @ probe_s)

        d_values, _ = N.weighted_stats_backward(values, weights, probe_m, probe_s,
                                                N.weighted_moments(values, weights))
        check_grads(loss, [("values", values, d_values)], tol=1e-6)

    def test_weights_gradient_via_softmax(self, rng):
        # weight perturbations must stay on the simplex, so the weight
        # gradient is checked through a softmax reparameterization
        values = rng.normal(size=(5, 3))
        logits = rng.normal(size=5)
        probe_m = rng.normal(size=3)
        probe_s = rng.normal(size=3)

        def loss():
            mean, std = floored_stats(values, N.softmax(logits))
            return float(mean @ probe_m + std @ probe_s)

        weights = N.softmax(logits)
        _, d_weights = N.weighted_stats_backward(values, weights, probe_m, probe_s,
                                                 N.weighted_moments(values, weights))
        analytic = N.softmax_backward(weights, d_weights)
        check_grads(loss, [("logits", logits, analytic)], tol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_values_only_gradient_matches_full_backward(self, rng, dtype):
        """Statistics pooling is the weighted statistics with constant,
        uniform weights: its forward and its values-only backward agree with
        weighted_moments and the values gradient of weighted_stats_backward."""
        values = rng.normal(size=(3, 7, 4)).astype(dtype)
        values[1, :, 2] = 0.5   # one channel at the variance floor
        weights = np.full((3, 7), 1.0 / 7)
        probe = rng.normal(size=(3, 8)).astype(dtype)
        moments = N.weighted_moments(values, weights.astype(dtype))
        d_values, _ = N.weighted_stats_backward(values, weights, probe[:, :4], probe[:, 4:],
                                                moments)
        pool = L.StatsPoolLayer("pool")
        out, cache = pool.forward(values, "train")
        alone = pool.backward(cache, probe)
        tol = 1e-12 if dtype == np.float64 else 1e-6
        mean, raw_var = moments
        np.testing.assert_allclose(out[:, :4], mean, rtol=tol, atol=tol)
        np.testing.assert_allclose(out[:, 4:], np.sqrt(np.maximum(raw_var, N.VARIANCE_FLOOR)),
                                   rtol=tol, atol=tol)
        assert alone.dtype == d_values.dtype == dtype
        np.testing.assert_allclose(alone, d_values, rtol=tol, atol=tol * np.abs(d_values).max())

    def test_gradient_zero_at_floor(self):
        values = np.full((3, 2), 1.0)
        weights = np.full(3, 1.0 / 3.0)
        d_values, d_weights = N.weighted_stats_backward(values, weights, np.zeros(2),
                                                        np.ones(2),
                                                        N.weighted_moments(values, weights))
        assert not d_values.any()
        assert not d_weights.any()


class TestActivations:
    def test_relu_gradient(self, rng):
        x = rng.normal(size=(4, 3)) + 0.05
        probe = rng.normal(size=(4, 3))

        def loss():
            return float(np.sum(N.relu(x) * probe))

        check_grads(loss, [("input", x, N.relu_backward(x > 0.0, probe))], tol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_forms_keep_the_product_bits(self, rng, dtype):
        """relu_backward from the output or from the bool mask, and
        tanh_backward, give the bits of upstream * (x > 0) and of
        upstream * (1 - out * out), signs of zeros included."""
        x = rng.normal(size=(5, 9, 4)).astype(dtype)
        x[0, :3] = 0.0
        upstream = rng.normal(size=x.shape).astype(dtype)
        upstream[1, :2] = -0.0
        expected = upstream * (x > 0.0)
        for given in (N.relu(x), x > 0.0):
            d = N.relu_backward(given, upstream)
            assert d.dtype == dtype and np.array_equal(d, expected)
            assert np.array_equal(np.signbit(d), np.signbit(expected))
        out = np.tanh(x)
        d = N.tanh_backward(out, upstream)
        assert d.dtype == dtype
        assert np.array_equal(d, upstream * (1.0 - out * out))
        assert np.array_equal(np.signbit(d), np.signbit(upstream * (1.0 - out * out)))

    def test_tanh_gradient(self, rng):
        x = rng.normal(size=(4, 3))
        probe = rng.normal(size=(4, 3))

        def loss():
            return float(np.sum(np.tanh(x) * probe))

        check_grads(loss, [("input", x, N.tanh_backward(np.tanh(x), probe))], tol=1e-6)

    def test_affine_as_kernel_one_conv_gradient(self, rng):
        # the per-frame affine case of the conv kernel
        x = rng.normal(size=(6, 3))
        params = N.ConvParams(rng.normal(size=(1, 3, 4)), rng.normal(size=4), 1)
        probe = rng.normal(size=(6, 4))

        def loss():
            return float(np.sum(N.conv1d(x, params) * probe))

        dx, dw, db = N.conv1d_backward(x, params, probe)
        check_grads(loss, [("input", x, dx), ("weights", params.weights, dw),
                           ("bias", params.bias, db)], tol=1e-6)

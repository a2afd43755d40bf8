"""The compute dtype is the parameters': a model rounded to float32, as
training leaves it, keeps the whole frame stack, the parameter gradients and
the parameter values in float32, and its gradients agree with the float64
path's; the model casts its input and its logit gradient to that dtype, and
training feeds no layer anything else."""

import copy

import numpy as np
import pytest

from axvector import model as M
from axvector import training as T

from gradcheck import in_dtype
from test_training import micro_corpus, micro_train_config, tiny_arch

# fixed before the float32 path was measured
GRAD_REL_TOL = 1e-2

# the acceptance toy architecture
TOY_ARCH = dict(input_dim=30, frame_dims=(64, 64, 64, 64, 192), kernel_sizes=(5, 3, 3, 1, 1),
                dilations=(1, 2, 3, 1, 1), utterance_dims=(64, 64), attention_hidden=32,
                pool_size=4, num_speakers=8)


def _arrays(obj):
    """Every ndarray inside a layer cache."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value)


def _batch(rng, batch, frames, dim):
    return rng.normal(size=(batch, frames, dim)).astype(np.float32)


def _toy_model(variant, seed):
    return M.build(M.ArchConfig(**{**TOY_ARCH, "variant": variant}), seed=seed)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_float32_train_pass_stays_float32(variant):
    """Outputs, input gradients, parameter values and gradients and cached
    intermediates are float32; only the (batch, frames) attention weights
    are float64, no cache holds a bool array, and the running statistics
    are float64."""
    rng = np.random.default_rng(3)
    model = in_dtype(_toy_model(variant, seed=3))
    h = batch = _batch(rng, 4, 40, 30)
    caches = []
    for lyr in model.layers:
        x = h
        h, cache = lyr.forward(x, "train")
        assert h.dtype == np.float32, f"{lyr.name} output is {h.dtype}"
        for a in _arrays(cache):
            assert a.dtype != np.bool_, f"{lyr.name} caches a bool array of shape {a.shape}"
            if a.dtype != np.float32:
                assert a.dtype == np.float64 and x.ndim == 3 and a.shape == x.shape[:-1], \
                    f"{lyr.name} caches a {a.dtype} array of shape {a.shape}"
        caches.append(cache)
    _, d, _ = T.softmax_cross_entropy(h, np.array([0, 1, 2, 3]))
    d = d.astype(np.float32)
    for lyr, cache in zip(reversed(model.layers), reversed(caches)):
        d = lyr.backward(cache, d)
        assert d.dtype == np.float32, f"{lyr.name} input gradient is {d.dtype}"
    for p in model.params():
        assert p.value.dtype == p.grad.dtype == np.float32, p.name
    for lyr in model.layers:
        for name, value in getattr(lyr, "state_items", lambda: [])():
            assert value.dtype == np.float64, name
    # inference on the float64 running statistics stays float32 too, and
    # agrees with the same values in float64
    logits = model.forward(batch, mode="infer")
    assert logits.dtype == np.float32
    reference = in_dtype(copy.deepcopy(model), np.float64).forward(batch, mode="infer")
    assert reference.dtype == np.float64
    assert np.linalg.norm(logits - reference) <= 1e-3 * np.linalg.norm(reference)


def _whole_model_grad(model, x, labels) -> np.ndarray:
    logits, caches = model.forward_train(x)
    _, d_logits, _ = T.softmax_cross_entropy(logits, labels)
    model.backward(caches, d_logits)
    return np.concatenate([p.grad.ravel() for p in model.params()])


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_float32_gradients_match_float64(variant):
    rng = np.random.default_rng(5)
    x = _batch(rng, 8, 60, 30)
    labels = rng.integers(0, TOY_ARCH["num_speakers"], size=8)
    g64 = _whole_model_grad(_toy_model(variant, seed=5), x, labels)
    g32 = _whole_model_grad(in_dtype(_toy_model(variant, seed=5)), x, labels)
    err = np.linalg.norm(g32 - g64) / np.linalg.norm(g64)
    assert err <= GRAD_REL_TOL, f"{variant}: global relative gradient error {err:.3e}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_model_casts_its_input_to_its_parameters_dtype(variant, dtype):
    """A float32 model given float64 input and float64 logit gradients, and
    a float64 model given float32 features, compute in their parameters'
    dtype: forward_train, backward and forward give the bits that input and
    gradient give in that dtype."""
    other = np.float64 if dtype == np.float32 else np.float32
    rng = np.random.default_rng(7)
    model = in_dtype(_toy_model(variant, seed=7), dtype)
    x = _batch(rng, 4, 40, 30)
    labels = np.array([0, 1, 2, 3])
    runs = []
    # the loss gradient comes in float64, which a float64 model keeps
    for x_dtype, d_dtype in ((dtype, dtype), (other, np.float64)):
        net = copy.deepcopy(model)
        logits, caches = net.forward_train(x.astype(x_dtype))
        _, d_logits, _ = T.softmax_cross_entropy(logits, labels)
        d_x = net.backward(caches, d_logits.astype(d_dtype))
        outputs = [logits, d_x, net.forward(x.astype(x_dtype), mode="infer")]
        outputs += [p.grad for p in net.params()]
        assert all(a.dtype == dtype for a in outputs), x_dtype
        runs.append(outputs)
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def _recording(layer, phase, seen):
    """``layer``'s forward or backward, recording the dtype of its input or
    upstream and its parameters' dtypes at each call."""
    method = getattr(layer, phase)

    def record(*args, **kwargs):
        array = args[0] if phase == "forward" else args[1]
        seen.append((layer.name, phase, array.dtype, {p.value.dtype for p in layer.params()}))
        return method(*args, **kwargs)
    return record


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_train_feeds_every_layer_its_parameters_dtype(variant, monkeypatch):
    """During ``train`` every layer's forward input and backward upstream is
    float32, its parameters' dtype, so no layer would have a parameter or
    an input to cast, and each parameter's value is the same array from step to step: the
    optimizer updates it in place."""
    model = M.build(tiny_arch(variant), seed=6)
    seen, values = [], []
    for lyr in model.layers:
        for phase in ("forward", "backward"):
            monkeypatch.setattr(lyr, phase, _recording(lyr, phase, seen))
    real_forward = model.forward_train

    def forward_train(x):
        values.append([p.value for p in model.params()])
        return real_forward(x)

    monkeypatch.setattr(model, "forward_train", forward_train)
    T.train(model, micro_corpus(), micro_train_config(total_steps=4))
    assert len(values) == 4 and len(seen) == 4 * 2 * len(model.layers)
    for name, phase, array_dtype, param_dtypes in seen:
        assert array_dtype == np.float32, f"{name} {phase} took {array_dtype}"
        assert param_dtypes <= {np.dtype(np.float32)}, f"{name} {phase}: {param_dtypes}"
    values.append([p.value for p in model.params()])
    for later in values[1:]:
        assert all(a is b for a, b in zip(values[0], later))

"""The float32 training path: float32 batches keep the whole frame stack and
the parameter gradients in float32 while the parameters stay float64, and its
gradients agree with the float64 path's."""

import numpy as np
import pytest

from axvector import model as M
from axvector import training as T

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


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_float32_train_pass_stays_float32(variant):
    """Outputs, input gradients, parameter gradients and cached
    intermediates are float32; only the (batch, frames) attention weights
    are float64, a ReLU caches the bool mask of its input, and every
    parameter value is float64."""
    rng = np.random.default_rng(3)
    model = M.build(M.ArchConfig(**{**TOY_ARCH, "variant": variant}), seed=3)
    h = batch = _batch(rng, 4, 40, 30)
    caches = []
    for lyr in model.layers:
        x = h
        h, cache = lyr.forward(x, "train")
        assert h.dtype == np.float32, f"{lyr.name} output is {h.dtype}"
        for a in _arrays(cache):
            if a.dtype == np.bool_:
                assert isinstance(lyr, M.ReluLayer) and a.shape == x.shape, \
                    f"{lyr.name} caches a bool array of shape {a.shape}"
            elif a.dtype != np.float32:
                assert a.dtype == np.float64 and x.ndim == 3 and a.shape == x.shape[:-1], \
                    f"{lyr.name} caches a {a.dtype} array of shape {a.shape}"
        caches.append(cache)
    _, d, _ = T.softmax_cross_entropy(h, np.array([0, 1, 2, 3]))
    d = d.astype(np.float32)
    for lyr, cache in zip(reversed(model.layers), reversed(caches)):
        d = lyr.backward(cache, d)
        assert d.dtype == np.float32, f"{lyr.name} input gradient is {d.dtype}"
    for p in model.params():
        assert p.value.dtype == np.float64 and p.grad.dtype == np.float32, p.name
    for lyr in model.layers:
        for name, value in getattr(lyr, "state_items", lambda: [])():
            assert value.dtype == np.float64, name
    # inference on the float64 running statistics follows the input too
    logits = model.forward(batch, mode="infer")
    assert logits.dtype == np.float32
    reference = model.forward(batch.astype(np.float64), mode="infer")
    assert np.linalg.norm(logits - reference) <= 1e-3 * np.linalg.norm(reference)


def _whole_model_grad(model, x, labels) -> np.ndarray:
    logits, caches = model.forward_train(x)
    _, d_logits, _ = T.softmax_cross_entropy(logits, labels)
    model.backward(caches, d_logits.astype(logits.dtype))
    return np.concatenate([p.grad.ravel() for p in model.params()])


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_float32_gradients_match_float64(variant):
    rng = np.random.default_rng(5)
    x = _batch(rng, 8, 60, 30)
    labels = rng.integers(0, TOY_ARCH["num_speakers"], size=8)
    config = M.ArchConfig(**{**TOY_ARCH, "variant": variant})
    g64 = _whole_model_grad(M.build(config, seed=5), x.astype(np.float64), labels)
    g32 = _whole_model_grad(M.build(config, seed=5), x, labels)
    err = np.linalg.norm(g32 - g64) / np.linalg.norm(g64)
    assert err <= GRAD_REL_TOL, f"{variant}: global relative gradient error {err:.3e}"

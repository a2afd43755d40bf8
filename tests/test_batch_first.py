"""The batch-first network against the per-utterance reference in
looped_reference.py: outputs, the input gradient and every parameter
gradient, for all four variants, on batches of several utterances."""

import numpy as np
import pytest

from axvector import model as M
from axvector import training as T

import looped_reference as R

# fixed before the batch-first layers were written
RTOL = 1e-12
ATOL = 1e-12


def config(variant):
    # the adaptive conv sits on a kernel-2, dilation-2 layer so that the
    # window gather and its scatter-back are exercised per utterance
    return M.ArchConfig(input_dim=3, frame_dims=(5, 4, 6, 4, 7), kernel_sizes=(3, 2, 2, 1, 1),
                        dilations=(1, 2, 1, 1, 1), utterance_dims=(5, 4), num_speakers=3,
                        acnn_layer_index=2, attention_hidden=3, pool_size=3, variant=variant)


@pytest.mark.parametrize("frames", [9, 16])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_matches_per_utterance_reference(variant, frames):
    rng = np.random.default_rng(frames)
    model = M.build(config(variant), seed=frames)
    x = rng.normal(size=(4, frames, 3))
    labels = np.array([0, 2, 1, 2])

    def loss_grad(logits):
        return T.softmax_cross_entropy(logits, labels)[1]

    ref_logits, ref_d_x, ref_grads = R.forward_backward(model, x, loss_grad)
    logits, caches = model.forward_train(x)
    d_x = model.backward(caches, loss_grad(logits))

    np.testing.assert_allclose(logits, ref_logits, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(d_x, ref_d_x, rtol=RTOL, atol=ATOL)
    for p in model.params():
        expected = ref_grads.get(p.name, np.zeros_like(p.value))
        np.testing.assert_allclose(p.grad, expected, rtol=RTOL, atol=ATOL, err_msg=p.name)
    assert set(ref_grads) <= {p.name for p in model.params()}

import weakref
from dataclasses import replace

import numpy as np
import pytest

from axvector import data as D
from axvector import model as M
from axvector import training as T

from gradcheck import cache_arrays, check_grads, in_dtype


def tiny_arch(variant="baseline", num_speakers=3):
    return M.ArchConfig(input_dim=3, frame_dims=(4, 4, 4, 4, 6), kernel_sizes=(2, 1, 1, 1, 1),
                        dilations=(1, 1, 1, 1, 1), utterance_dims=(5, 4),
                        num_speakers=num_speakers, attention_hidden=3, pool_size=2,
                        variant=variant)


def micro_corpus(num_speakers=3, utts=6, seed=5):
    spec = D.CorpusSpec(num_speakers=num_speakers, utts_per_speaker=utts, feature_dim=3,
                        frames_min=16, frames_max=30, sigma_between=1.5, sigma_session=0.2,
                        ar_coefficient=0.3, conditions=("clean",), seed=seed)
    return D.generate_corpus(spec)


def micro_train_config(**overrides):
    base = dict(batch_size=6, crop_frames_min=10, crop_frames_max=16, total_steps=30,
                lr_start=1e-2, lr_end=1e-3, weight_decay=1e-4, seed=3)
    base.update(overrides)
    return T.TrainConfig(**base)


@pytest.mark.parametrize("changes, message", [
    ({"batch_size": 0}, "batch size must be >= 1"),
    ({"crop_frames_min": 101}, "crop range is inverted"),
    ({"lr_end": 0.0}, "need lr_start >= lr_end > 0"),
])
def test_replace_checks_the_new_values(changes, message):
    """A TrainConfig that exists is valid: ``replace`` checks again, so no
    caller has to."""
    with pytest.raises(ValueError, match=message):
        replace(T.TrainConfig(), **changes)


class TestAdam:
    def _param(self, value, decay=True):
        return M.Param("p", np.asarray(value, dtype=float), decay)

    def test_zero_gradients_no_decay(self):
        p = self._param([1.0, -2.0])
        p.grad = np.zeros(2)
        state = T.init_adam([p])
        T.adam_step([p], state, lr=1e-3, weight_decay=0.0)
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_scalar_first_step_closed_form(self):
        p = self._param([2.0])
        p.grad = np.array([0.3])
        state = T.init_adam([p])
        T.adam_step([p], state, lr=1e-3, weight_decay=0.0)
        expected = 2.0 - 1e-3 * 0.3 / (0.3 + 1e-8)
        np.testing.assert_allclose(p.value, [expected], rtol=1e-12)

    def test_nonfinite_gradient_names_parameter(self):
        p = self._param([1.0])
        p.grad = np.array([np.nan])
        state = T.init_adam([p])
        with pytest.raises(ValueError, match="'p'"):
            T.adam_step([p], state, lr=1e-3, weight_decay=0.0)

        # a NaN in the second parameter leaves the first one untouched too
        first = M.Param("first", np.array([1.0]), True)
        second = M.Param("second", np.array([2.0]), True)
        first.grad = np.array([0.5])
        second.grad = np.array([np.nan])
        state = T.init_adam([first, second])
        with pytest.raises(ValueError, match="'second'"):
            T.adam_step([first, second], state, lr=1e-3, weight_decay=0.0)
        assert first.value[0] == 1.0 and second.value[0] == 2.0
        assert state.step == 0
        for moments in (state.m, state.v):
            assert all(np.all(a == 0.0) for a in moments.values())

    @pytest.mark.parametrize("grad, found", [(None, "None"), (np.array([0.5]), r"\(1,\)")],
                             ids=["missing", "mis-shaped"])
    def test_missing_or_misshaped_gradient_names_parameter(self, grad, found):
        """A gradient that is absent, or that would broadcast into its value,
        fails before anything changes."""
        first = M.Param("first", np.array([1.0]), True)
        second = M.Param("second", np.array([2.0, 3.0]), True)
        first.grad, second.grad = np.array([0.5]), grad
        state = T.init_adam([first, second])
        with pytest.raises(ValueError,
                           match=rf"'second' needs a gradient of shape \(2,\), has {found}"):
            T.adam_step([first, second], state, lr=1e-3, weight_decay=0.0)
        assert first.value[0] == 1.0 and list(second.value) == [2.0, 3.0]
        assert state.step == 0
        for moments in (state.m, state.v):
            assert all(np.all(a == 0.0) for a in moments.values())

    def test_float32_gradient_updates_as_its_float64_upcast(self, rng):
        """Adam upcasts a float32 gradient exactly: the values and moments
        are bit-identical to those of the same gradient stored as float64."""
        shape = (2, T.ADAM_CHUNK + 5)
        start = rng.normal(size=shape)
        p32, p64 = M.Param("w", start.copy(), True), M.Param("w", start.copy(), True)
        s32, s64 = T.init_adam([p32]), T.init_adam([p64])
        for _ in range(3):
            p32.grad = rng.normal(size=shape).astype(np.float32)
            p64.grad = p32.grad.astype(np.float64)
            T.adam_step([p32], s32, lr=1e-3, weight_decay=1e-2)
            T.adam_step([p64], s64, lr=1e-3, weight_decay=1e-2)
            assert np.array_equal(p32.value, p64.value)
            assert np.array_equal(s32.m["w"], s64.m["w"])
            assert np.array_equal(s32.v["w"], s64.v["w"])

    def test_float32_state_steps_as_float64_state(self, rng):
        """Adam on float32 values and moments, the state ``train`` keeps,
        takes the steps of the same update on float64 state to within 1e-5
        of their norm, from the same float32 values and gradients; the
        float32 rounding of the values accounts for it (1.2e-6 to 1.4e-6
        at this He-normal scale and learning rate).  Each moment is within
        1e-6 of its float64 counterpart."""
        shape = (768, 512)
        start = (rng.normal(size=shape) * np.sqrt(2.0 / shape[0])).astype(np.float32)
        p32, p64 = M.Param("w", start, True), M.Param("w", start, True)
        p32.value = p32.value.astype(np.float32)
        s32, s64 = T.init_adam([p32]), T.init_adam([p64])
        assert s32.scratch.dtype == s32.m["w"].dtype == s32.v["w"].dtype == np.float32
        assert s64.scratch.dtype == s64.m["w"].dtype == s64.v["w"].dtype == np.float64
        for _ in range(3):
            p32.grad = p64.grad = rng.normal(size=shape).astype(np.float32)
            T.adam_step([p32], s32, lr=1e-3, weight_decay=1e-4)
            T.adam_step([p64], s64, lr=1e-3, weight_decay=1e-4)
            assert p32.value.dtype == np.float32
            steps = p64.value - start
            assert np.linalg.norm(p32.value - p64.value) <= 1e-5 * np.linalg.norm(steps)
            for m32, m64 in ((s32.m["w"], s64.m["w"]), (s32.v["w"], s64.v["w"])):
                assert np.linalg.norm(m32 - m64) <= 1e-6 * np.linalg.norm(m64)

    def test_chunked_update_matches_whole_array_formula(self, rng):
        shape = (3, T.ADAM_CHUNK + 123)
        p = M.Param("w", rng.normal(size=shape), True)
        state = T.init_adam([p])
        value, m, v = p.value.copy(), np.zeros(shape), np.zeros(shape)
        lr, decay, beta1, beta2, eps = 1e-3, 1e-2, 0.9, 0.999, 1e-8
        for t in range(1, 5):
            p.grad = rng.normal(size=shape)
            T.adam_step([p], state, lr, decay)
            g = p.grad + decay * value
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            value = value - (lr / (1.0 - beta1 ** t)) * (m / (np.sqrt(v / (1.0 - beta2 ** t)) + eps))
            assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)
            assert np.array_equal(p.value, value)

    @staticmethod
    def _mixed_params(rng):
        """Small tensors of both decay flags whose packed run spans several
        ADAM_CHUNK slices, with the decay boundary inside one, beside two
        tensors of ADAM_CHUNK elements or more."""
        specs = [("w_small", (3, 5), True), ("b_small", (7,), False),
                 ("w_big", (2, T.ADAM_CHUNK // 2 + 3), True), ("w_long", (T.ADAM_CHUNK - 1,), True),
                 ("b_long", (T.ADAM_CHUNK - 3,), False), ("b_big", (T.ADAM_CHUNK,), False)]
        return [M.Param(name, rng.normal(size=shape), decay) for name, shape, decay in specs]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_packed_update_matches_per_tensor_formula(self, rng, dtype):
        """Every tensor, packed or not, takes the bits the whole-array
        formula gives it on its own, over several steps, in float32 and in
        float64 state; the packed ones are those below ADAM_CHUNK."""
        params = self._mixed_params(rng)
        for p in params:
            p.value = p.value.astype(dtype)
        expected = {p.name: (p.value.copy(), np.zeros_like(p.value), np.zeros_like(p.value))
                    for p in params}
        state = T.init_adam(params)
        assert state.packed_names == ("w_small", "w_long", "b_small", "b_long")
        lr, decay, beta1, beta2, eps = 1e-3, 1e-2, 0.9, 0.999, 1e-8
        for t in range(1, 5):
            for p in params:
                p.grad = rng.normal(size=p.value.shape).astype(dtype)
            T.adam_step(params, state, lr, decay)
            for p in params:
                value, m, v = expected[p.name]
                g = p.grad + (decay if p.decay else 0.0) * value
                m = beta1 * m + (1.0 - beta1) * g
                v = beta2 * v + (1.0 - beta2) * (g * g)
                value = value - (lr / (1.0 - beta1 ** t)) * (
                    m / (np.sqrt(v / (1.0 - beta2 ** t)) + eps))
                expected[p.name] = value, m, v
                assert p.value.dtype == dtype
                assert np.array_equal(p.value, value), p.name
                assert np.array_equal(state.m[p.name], m) and np.array_equal(state.v[p.name], v)

    def test_moments_and_packed_values_keep_each_tensor_shape(self, rng):
        params = self._mixed_params(rng)
        shapes = {p.name: p.value.shape for p in params}
        before = {p.name: p.value.copy() for p in params}
        state = T.init_adam(params)
        for p in params:
            packed = p.value.size < T.ADAM_CHUNK
            assert p.value.shape == state.m[p.name].shape == state.v[p.name].shape == shapes[p.name]
            assert np.array_equal(p.value, before[p.name])
            for a in (p.value, state.m[p.name], state.v[p.name]):
                assert np.shares_memory(a, state.packed) == packed, p.name

    @pytest.mark.parametrize("fault", ["missing", "mis-shaped", "nan", "inf"])
    @pytest.mark.parametrize("target", ["w_small", "b_long"])
    def test_bad_packed_gradient_changes_nothing(self, rng, fault, target):
        """After a few steps, a bad gradient of a packed tensor is refused by
        name, and every value, both moments and the step count stay as
        they were."""
        params = self._mixed_params(rng)
        for p in params:
            p.value = p.value.astype(np.float32)
        state = T.init_adam(params)
        for _ in range(2):
            for p in params:
                p.grad = rng.normal(size=p.value.shape).astype(np.float32)
            T.adam_step(params, state, 1e-3, 1e-2)
        bad = next(p for p in params if p.name == target)
        if fault == "missing":
            bad.grad = None
        elif fault == "mis-shaped":
            bad.grad = bad.grad.reshape(-1)[:-1]
        else:
            bad.grad.reshape(-1)[-1] = np.nan if fault == "nan" else np.inf
        snapshot = [(p.value.copy(), state.m[p.name].copy(), state.v[p.name].copy())
                    for p in params]
        with pytest.raises(ValueError, match=f"'{target}'"):
            T.adam_step(params, state, 1e-3, 1e-2)
        assert state.step == 2
        for p, arrays in zip(params, snapshot):
            for now, then in zip((p.value, state.m[p.name], state.v[p.name]), arrays):
                assert np.array_equal(now, then), p.name

    def test_replaced_packed_value_is_refused(self):
        """A packed value replaced after init_adam would no longer be the
        array the update writes, so the update refuses to run."""
        p = self._param([1.0, 2.0])
        state = T.init_adam([p])
        p.value = p.value.copy()
        p.grad = np.zeros(2)
        with pytest.raises(ValueError, match="parameters its state was made for"):
            T.adam_step([p], state, lr=1e-3, weight_decay=0.0)
        assert state.step == 0

    def test_decay_shrinks_norm_with_zero_data_gradient(self):
        p = self._param(np.array([1.0, -1.5, 2.0]))
        state = T.init_adam([p])
        norms = [np.linalg.norm(p.value)]
        for _ in range(5):
            p.grad = np.zeros(3)
            T.adam_step([p], state, lr=1e-3, weight_decay=1e-2)
            norms.append(np.linalg.norm(p.value))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_no_decay_flag_respected(self):
        p = self._param([1.0], decay=False)
        p.grad = np.zeros(1)
        state = T.init_adam([p])
        T.adam_step([p], state, lr=1e-3, weight_decay=1e-2)
        np.testing.assert_array_equal(p.value, [1.0])


class TestLearningRate:
    def test_endpoints_and_monotone(self):
        cfg = micro_train_config(total_steps=100, lr_start=1e-3, lr_end=1e-4)
        rates = [T.learning_rate(s, cfg) for s in range(100)]
        assert rates[0] == pytest.approx(1e-3, rel=1e-12)
        assert rates[-1] == pytest.approx(1e-4, rel=1e-12)
        assert all(b <= a for a, b in zip(rates, rates[1:]))


class TestBatches:
    def test_shared_crop_length_per_batch(self):
        corpus = micro_corpus()
        cfg = micro_train_config(batch_size=4)
        for batch, labels in T.make_batches(corpus, cfg, epoch_seed=0):
            assert batch.ndim == 3 and batch.dtype == np.float32
            assert labels.shape == (batch.shape[0],)
            assert cfg.crop_frames_min <= batch.shape[1] <= cfg.crop_frames_max

    @staticmethod
    def _one_utterance(frames):
        return D.Corpus([D.Utterance("u", "s", "clean")],
                        {"u": np.arange(frames, dtype=np.float32)[:, None]})

    def test_wrap_padding_order(self):
        out = np.empty((200, 1), np.float32)
        T.crop_or_wrap(self._one_utterance(150), "u", 0, out)
        expected = np.concatenate([np.arange(150), np.arange(50)])[:, None]
        assert np.array_equal(out, expected)

    def test_deterministic_given_seed(self):
        corpus = micro_corpus()
        cfg = micro_train_config()
        a = list(T.make_batches(corpus, cfg, epoch_seed=[1, 2]))
        b = list(T.make_batches(corpus, cfg, epoch_seed=[1, 2]))
        assert len(a) == len(b)
        for (xa, la), (xb, lb) in zip(a, b):
            assert np.array_equal(xa, xb) and np.array_equal(la, lb)

    def test_every_utterance_once_per_epoch(self):
        corpus = micro_corpus()
        cfg = micro_train_config(batch_size=5)
        batches = T.make_batches(corpus, cfg, epoch_seed=7)
        assert sum(len(labels) for _, labels in batches) == len(corpus)

    def test_loaded_corpus_batches_equal_stacked_crops(self, tmp_path):
        """Batches read from the feature files equal a stack of crops cut
        from each whole file, wrap-padded ones included, with the same
        draws in the same order."""
        spec = D.CorpusSpec(num_speakers=3, utts_per_speaker=6, feature_dim=3, frames_min=6,
                            frames_max=30, conditions=("clean",), seed=5)
        D.save_corpus(D.generate_corpus(spec), str(tmp_path))
        corpus = D.load_corpus(str(tmp_path))
        cfg = micro_train_config(batch_size=4, crop_frames_min=12, crop_frames_max=24)
        label_of = corpus.speaker_labels()
        rng = np.random.default_rng([3, 1])
        order = rng.permutation(len(corpus))
        batches = list(T.make_batches(corpus, cfg, epoch_seed=[3, 1]))
        assert len(batches) == -(-len(corpus) // cfg.batch_size)
        wrapped = 0
        for start, (batch, labels) in zip(range(0, len(order), cfg.batch_size), batches):
            crop = int(rng.integers(cfg.crop_frames_min, cfg.crop_frames_max + 1))
            crops, expected_labels = [], []
            for idx in order[start:start + cfg.batch_size]:
                utt = corpus.utterances[int(idx)]
                x = D.read_feature_file(str(tmp_path / "features" / f"{utt.utt_id}.axvf"))
                offset = int(rng.integers(0, max(x.shape[0] - crop, 0) + 1))
                if x.shape[0] < crop:
                    wrapped += 1
                    x, offset = np.tile(x, (-(-crop // x.shape[0]), 1)), 0
                crops.append(x[offset:offset + crop])
                expected_labels.append(label_of[utt.speaker_id])
            assert np.array_equal(batch, np.stack(crops, dtype=np.float32))
            assert batch.dtype == np.float32
            assert np.array_equal(labels, expected_labels)
        assert wrapped >= 2


class TestLoss:
    def test_uniform_logits_give_log_classes(self):
        loss, _, _ = T.softmax_cross_entropy(np.zeros((4, 7)), np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(7), rel=1e-12)

    def test_gradient(self, rng):
        logits = rng.normal(size=(3, 5))
        labels = np.array([1, 4, 0])

        def loss_fn():
            return T.softmax_cross_entropy(logits, labels)[0]

        _, d_logits, _ = T.softmax_cross_entropy(logits, labels)
        check_grads(loss_fn, [("logits", logits, d_logits)], tol=1e-6)


@pytest.mark.parametrize("variant", ["baseline", "acnn_abn"])
def test_full_model_gradients_match_finite_differences(variant, rng):
    model = M.build(tiny_arch(variant, num_speakers=2), seed=5)
    x = rng.normal(size=(3, 6, 3))
    labels = np.array([0, 1, 0])

    def loss_fn():
        return T.softmax_cross_entropy(model.forward_train(x)[0], labels)[0]

    logits, caches = model.forward_train(x)
    _, d_logits, _ = T.softmax_cross_entropy(logits, labels)
    model.backward(caches, d_logits)
    checks = [(p.name, p.value, p.grad) for p in model.params()]
    check_grads(loss_fn, checks, tol=1e-4)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_backward_sets_gradients_instead_of_adding(variant, rng):
    """A second forward and backward on the same batch leaves every
    parameter gradient as the first one set it, not doubled."""
    model = M.build(tiny_arch(variant), seed=5)
    x = rng.normal(size=(3, 6, 3))
    logits, caches = model.forward_train(x)
    _, d_logits, _ = T.softmax_cross_entropy(logits, np.array([0, 1, 2]))
    model.backward(caches, d_logits)
    first = [p.grad.copy() for p in model.params()]
    _, caches = model.forward_train(x)
    model.backward(caches, d_logits)
    for p, grad in zip(model.params(), first):
        assert np.array_equal(p.grad, grad), p.name


@pytest.mark.parametrize("acnn_layer_index", [1, 4])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_backward_without_input_gradient_sets_the_same_gradients(variant, acnn_layer_index,
                                                                rng):
    """``input_grad=False`` returns None and sets every parameter gradient
    to the bits of the full backward, also with the adaptive conv first."""
    model = in_dtype(M.build(replace(tiny_arch(variant), acnn_layer_index=acnn_layer_index),
                             seed=5))
    x = rng.normal(size=(3, 7, 3)).astype(np.float32)
    d_logits = rng.normal(size=(3, 3)).astype(np.float32)
    _, caches = model.forward_train(x)
    d_x = model.backward(caches, d_logits)
    assert d_x.shape == x.shape
    full = [p.grad for p in model.params()]
    _, caches = model.forward_train(x)
    assert model.backward(caches, d_logits, input_grad=False) is None
    assert caches == []
    for p, grad in zip(model.params(), full):
        assert np.array_equal(p.grad, grad), p.name


def test_backward_on_consumed_caches_is_refused(rng):
    """A backward empties the caches list it is given; a second backward on
    that list, with no fresh forward, raises one ValueError saying so."""
    model = M.build(tiny_arch("acnn_abn"), seed=5)
    logits, caches = model.forward_train(rng.normal(size=(3, 6, 3)))
    _, d_logits, _ = T.softmax_cross_entropy(logits, np.array([0, 1, 2]))
    model.backward(caches, d_logits)
    assert caches == []
    with pytest.raises(ValueError, match="consumes its caches"):
        model.backward(caches, d_logits)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_backward_frees_each_cache_once_used(variant, rng, monkeypatch):
    """When a layer's backward starts, no array that only later layers
    cached is alive: each layer's cache is freed as soon as its backward
    has returned, and none is left once the model's backward returns."""
    model = M.build(tiny_arch(variant), seed=5)
    x = rng.normal(size=(3, 6, 3)).astype(np.float32)
    logits, caches = model.forward_train(x)
    _, d_logits, _ = T.softmax_cross_entropy(logits, np.array([0, 1, 2]))
    watched = _first_holders(caches, x)
    started = []

    def watching(i, backward):
        def wrapped(cache, upstream):
            alive = sorted({j for j, ref in watched if j > i and ref() is not None})
            assert not alive, f"{model.layers[i].name}: caches of layers {alive} still alive"
            started.append(i)
            return backward(cache, upstream)
        return wrapped

    for i, lyr in enumerate(model.layers):
        monkeypatch.setattr(lyr, "backward", watching(i, lyr.backward))
    model.backward(caches, d_logits.astype(np.float32))
    assert started == list(reversed(range(len(model.layers))))
    assert len(watched) > 10 and all(ref() is None for _, ref in watched)


def _first_holders(caches, x) -> list:
    """(index of the first layer that caches it, weakref) of every array in
    ``caches`` other than the input ``x``; it holds no array alive itself."""
    first = {}
    for i, cache in enumerate(caches):
        for a in cache_arrays(cache):
            if a is not x:
                first.setdefault(id(a), (i, weakref.ref(a)))
    return list(first.values())


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_no_cache_shares_memory_with_a_conv_input(variant, rng, monkeypatch):
    """A convolution whose input is a normalization's output caches no
    reference to it: the model's backward has the normalization rebuild it."""
    model = M.build(tiny_arch(variant), seed=0)
    outputs = {}
    for lyr, after in zip(model.layers, model.layers[1:]):
        if lyr.name.endswith(".norm") and after.name.endswith(".conv"):
            def recording(x, mode, forward=lyr.forward, name=lyr.name):
                y, cache = forward(x, mode)
                outputs[name] = y
                return y, cache
            monkeypatch.setattr(lyr, "forward", recording)
    _, caches = model.forward_train(rng.normal(size=(2, 7, 3)))
    assert sorted(outputs) == [f"frame{k}.norm" for k in range(1, 5)]
    for name, y in outputs.items():
        for i, cache in enumerate(caches):
            assert not any(np.shares_memory(a, y) for a in cache_arrays(cache)), \
                f"{model.layers[i].name} caches {name}'s output"


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_conv_input_freed_before_the_next_layer_runs(variant, rng, monkeypatch):
    """forward_train lets go of a normalization's output once the
    convolution it feeds has run: the ReLU after that convolution starts
    with the output already freed, so no frame activation is held one layer
    longer than the forward needs it."""
    model = M.build(tiny_arch(variant), seed=0)
    outputs, checked = {}, []
    for norm, conv, relu in zip(model.layers, model.layers[1:], model.layers[2:]):
        if norm.name.endswith(".norm") and conv.name.endswith(".conv"):
            def recording(x, mode, forward=norm.forward, name=norm.name):
                y, cache = forward(x, mode)
                outputs[name] = weakref.ref(y)
                return y, cache

            def checking(x, mode, forward=relu.forward, name=norm.name):
                assert outputs[name]() is None, f"{name}'s output alive after the conv it feeds"
                checked.append(name)
                return forward(x, mode)
            monkeypatch.setattr(norm, "forward", recording)
            monkeypatch.setattr(relu, "forward", checking)
    model.forward_train(rng.normal(size=(2, 7, 3)))
    assert checked == [f"frame{k}.norm" for k in range(1, 5)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_gradients_equal_a_per_layer_backward_on_cached_inputs(variant, dtype, rng):
    """The model's backward, with its rebuilt conv inputs, gives what each
    layer's own backward gives from a cache that holds its input."""
    model = in_dtype(M.build(tiny_arch(variant), seed=0), dtype)
    x = rng.normal(size=(3, 8, 3)).astype(dtype)
    d_logits = rng.normal(size=(3, 3)).astype(dtype)
    logits, caches = model.forward_train(x)
    d_x = model.backward(caches, d_logits)
    grads = [p.grad for p in model.params()]
    h, own = x, []
    for lyr in model.layers:
        h, cache = lyr.forward(h, "train")
        own.append(cache)
    assert np.array_equal(h, logits)
    d = d_logits
    for lyr, cache in zip(reversed(model.layers), reversed(own)):
        d = lyr.backward(cache, d)
    assert d.dtype == dtype and np.array_equal(d, d_x)
    for p, grad in zip(model.params(), grads):
        assert np.array_equal(p.grad, grad), p.name


class TestTrainLoop:
    def test_progress_and_determinism(self, tmp_path):
        corpus = micro_corpus()
        cfg = micro_train_config(total_steps=24)

        model_a = M.build(tiny_arch(), seed=2)
        log_a = T.train(model_a, corpus, cfg)
        M.save_model(model_a, str(tmp_path / "a.ckpt"))
        model_b = M.build(tiny_arch(), seed=2)
        T.train(model_b, corpus, cfg)
        M.save_model(model_b, str(tmp_path / "b.ckpt"))

        # first-step cross entropy sits near log(num_classes)
        assert log_a[0].loss == pytest.approx(np.log(3), rel=0.2)
        # loss decreases from the first epoch to the last
        per_epoch = (len(corpus) + cfg.batch_size - 1) // cfg.batch_size
        first = np.mean([r.loss for r in log_a[:per_epoch]])
        last = np.mean([r.loss for r in log_a[-per_epoch:]])
        assert last < first
        assert all(np.isfinite(r.loss) for r in log_a)
        # identical seeds give bit-identical checkpoints
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_float32_training_checkpoints_byte_identical(self, tmp_path, variant):
        corpus = micro_corpus()
        cfg = micro_train_config(total_steps=8)
        for name in ("a", "b"):
            model = M.build(tiny_arch(variant), seed=4)
            T.train(model, corpus, cfg)
            M.save_model(model, str(tmp_path / f"{name}.ckpt"))
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_one_step_of_caches_alive(self, monkeypatch, variant):
        """No array of a step's caches outlives its backward, and no gradient
        outlives its update: none is alive when the next step's forward
        starts or once ``train`` returns."""
        model = M.build(tiny_arch(variant), seed=4)
        watched = []
        forwards = []

        def alive():
            return sum(ref() is not None for ref in watched)

        def forward_train(x):
            assert not alive(), f"{alive()} cache arrays of the previous step alive at a forward"
            assert all(p.grad is None for p in model.params())
            logits, caches = real_forward(x)
            watched[:] = [weakref.ref(a) for a in cache_arrays(caches) if a is not x]
            forwards.append(x.shape)
            return logits, caches

        real_forward = model.forward_train
        monkeypatch.setattr(model, "forward_train", forward_train)
        T.train(model, micro_corpus(), micro_train_config(total_steps=6))
        assert not alive(), f"{alive()} cache arrays alive after train returned"
        assert all(p.grad is None for p in model.params())
        assert len(forwards) == 6
        assert len(watched) > 10

    def test_training_state_is_float32_and_checkpoint_float64(self, tmp_path, monkeypatch):
        """``train`` leaves every parameter value and both Adam moments in
        float32 and every running statistic in float64, and a checkpoint
        loads as float64 values bit-equal to the trained ones upcast."""
        states = []

        def init_adam(params):
            states.append(real_init_adam(params))
            return states[-1]

        real_init_adam = T.init_adam
        monkeypatch.setattr(T, "init_adam", init_adam)
        model = M.build(tiny_arch("acnn_abn"), seed=4)
        T.train(model, micro_corpus(), micro_train_config(total_steps=4))
        [state] = states
        assert state.step == 4 and state.scratch.dtype == np.float32
        for p in model.params():
            dtypes = {p.value.dtype, state.m[p.name].dtype, state.v[p.name].dtype}
            assert dtypes == {np.dtype(np.float32)}, p.name
        assert all(value.dtype == np.float64 for _, value in model.state_items())
        path = str(tmp_path / "m.ckpt")
        M.save_model(model, path)
        for p, q in zip(model.params(), M.load_model(path).params()):
            assert q.value.dtype == np.float64, p.name
            assert np.array_equal(q.value, p.value.astype(np.float64)), p.name

    def test_checkpoint_round_trip_logits(self, tmp_path, rng):
        corpus = micro_corpus()
        model = M.build(tiny_arch(), seed=2)
        T.train(model, corpus, micro_train_config(total_steps=6))
        M.save_model(model, str(tmp_path / "m.ckpt"))
        loaded = M.load_model(str(tmp_path / "m.ckpt"))
        x = rng.normal(size=(2, 12, 3))
        # the loaded model holds the trained float32 values upcast exactly
        assert np.array_equal(in_dtype(model, np.float64).forward(x), loaded.forward(x))

    def test_crop_below_receptive_field_rejected(self):
        corpus = micro_corpus()
        model = M.build(tiny_arch(), seed=0)
        with pytest.raises(ValueError, match="minimum"):
            T.train(model, corpus, micro_train_config(crop_frames_min=1, crop_frames_max=5))

    def test_utterance_too_short_to_wrap_rejected_before_any_step(self):
        """Every utterance is checked against the longest crop before the
        first step, not only those in the batches a run builds."""
        full = micro_corpus()
        feats = {u.utt_id: full.features(u.utt_id) for u in full.utterances}
        last = full.utterances[-1]
        feats[last.utt_id] = feats[last.utt_id][:3]
        corpus = D.Corpus(full.utterances, feats)
        model = M.build(tiny_arch(), seed=0)
        steps = []
        with pytest.raises(ValueError, match=f"{last.utt_id!r} has 3 frames"):
            T.train(model, corpus, micro_train_config(total_steps=1), progress=steps.append)
        assert steps == []

    def test_log_line_format(self):
        record = T.StepRecord(3, 1e-3, 1.25, 0.5)
        fields = record.line().split("\t")
        assert fields[0] == "3" and len(fields) == 4

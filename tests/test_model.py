import hashlib
import importlib.util
import os
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from axvector import model as M
from axvector import numerics as N
from axvector.serialize import FormatError, write_records

from param_overhead import abn_param_overhead, acnn_param_overhead, conv_param_count


def tiny_config(variant="baseline", **overrides):
    base = dict(input_dim=3, frame_dims=(4, 4, 4, 4, 6), kernel_sizes=(2, 1, 1, 1, 1),
                dilations=(1, 1, 1, 1, 1), utterance_dims=(5, 4), num_speakers=3,
                attention_hidden=3, pool_size=2, variant=variant)
    base.update(overrides)
    return M.ArchConfig(**base)


FULL_SIZE = dict(num_speakers=7185)


class TestArchConfig:
    def test_default_receptive_field(self):
        cfg = M.ArchConfig(num_speakers=10)
        assert cfg.min_frames == 15

    def test_bad_kernel_list_length(self):
        with pytest.raises(ValueError, match="kernel_sizes"):
            M.ArchConfig(num_speakers=10, kernel_sizes=(5, 3, 3, 1))

    def test_too_few_speakers(self):
        with pytest.raises(ValueError, match="num_speakers"):
            M.ArchConfig(num_speakers=1)

    def test_unset_speakers(self):
        with pytest.raises(ValueError, match="num_speakers"):
            M.build(M.ArchConfig(), seed=0)


class TestBuild:
    # SHA-256 of the parameter values, in order, of tiny models drawn by the
    # initializer that drew each pool entry apart and scaled a copy
    @pytest.mark.parametrize("variant, digest", [
        ("baseline", "0928faf452d8a8828460cc40d2b5e83e594ebed467085e0e624515813e92c5be"),
        ("acnn", "326f0c25344d0b9006f14c07026aef959195fae049606b14ec5993d53a1e7d14"),
        ("abn", "8c476ed9171177a761c63b1815d63983164910506131ed79db0bdffe155bcf6b"),
        ("acnn_abn", "f279d2da2cfdb34cf4c2aeb8d7226d8afb728e75f57b50ad45b30ba466395d4e"),
    ])
    def test_initial_values_are_pinned(self, variant, digest):
        sha = hashlib.sha256()
        for p in M.build(tiny_config(variant), seed=4).params():
            sha.update(p.value.tobytes())
        assert sha.hexdigest() == digest

    def test_full_size_baseline_dimensions(self):
        model = M.build(M.ArchConfig(**FULL_SIZE), seed=0)
        frame5 = model.layer("frame5.conv")
        assert frame5.weight.value.shape == (1, 512, 1536)
        utt1 = model.layer("utt1.affine")
        assert utt1.weight.value.shape == (3072, 512)   # pooled mean+std of 1536
        assert model.config.utterance_dims[0] == 512

    def test_acnn_variant_wiring(self):
        model = M.build(M.ArchConfig(variant="acnn", **FULL_SIZE), seed=0)
        adaptive = [lyr for lyr in model.layers if isinstance(lyr, M.AdaptiveConvLayer)]
        assert len(adaptive) == 1
        assert adaptive[0].name == "frame4.conv"
        assert not any(isinstance(lyr, M.AdaptiveNormLayer) for lyr in model.layers)

    def test_abn_variant_wiring(self):
        model = M.build(M.ArchConfig(variant="abn", **FULL_SIZE), seed=0)
        adaptive = [lyr.name for lyr in model.layers if isinstance(lyr, M.AdaptiveNormLayer)]
        assert adaptive == [f"frame{i}.norm" for i in range(1, 6)]
        # utterance-level layers keep conventional BN
        assert isinstance(model.layer("utt1.norm"), M.BatchNormLayer)

    def test_combined_variant_wiring(self):
        model = M.build(M.ArchConfig(variant="acnn_abn", **FULL_SIZE), seed=0)
        assert isinstance(model.layer("frame4.conv"), M.AdaptiveConvLayer)
        assert isinstance(model.layer("frame4.norm"), M.BatchNormLayer)
        adaptive = [lyr.name for lyr in model.layers if isinstance(lyr, M.AdaptiveNormLayer)]
        assert adaptive == ["frame1.norm", "frame2.norm", "frame3.norm", "frame5.norm"]

    def test_deterministic_init(self):
        cfg = tiny_config("acnn_abn")
        a = M.build(cfg, seed=3)
        b = M.build(cfg, seed=3)
        for pa, pb in zip(a.params(), b.params()):
            assert pa.name == pb.name
            assert np.array_equal(pa.value, pb.value)


class TestForward:
    def test_minimum_length_input(self, rng):
        cfg = M.ArchConfig(num_speakers=5, frame_dims=(8, 8, 8, 8, 12),
                           utterance_dims=(6, 6), attention_hidden=4)
        model = M.build(cfg, seed=0)
        x = rng.normal(size=(2, 15, 30))
        logits = model.forward_train(x)[0]
        assert logits.shape == (2, 5)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)

    def test_receptive_field_error_names_minimum(self, rng):
        model = M.build(tiny_config(), seed=0)   # min_frames == 2
        with pytest.raises(ValueError, match="at least 2"):
            model.forward_train(rng.normal(size=(1, 1, 3)))

    def test_embedding_head_shape(self, rng):
        model = M.build(tiny_config("acnn_abn"), seed=0)
        x = rng.normal(size=(3, 6, 3))
        model.forward_train(x)
        emb = model.forward(x, head="embedding")
        assert emb.shape == (3, 5)

    def test_infer_is_pure(self, rng):
        model = M.build(tiny_config("acnn_abn"), seed=0)
        x = rng.normal(size=(2, 7, 3))
        model.forward_train(x)
        first = model.forward(x)
        second = model.forward(x)
        assert np.array_equal(first, second)

    def test_embedding_invariant_to_frame_order_after_frame_stack(self, rng):
        # inject a permutation at the pooling boundary
        model = M.build(tiny_config(), seed=0)
        x = rng.normal(size=(2, 8, 3))
        model.forward_train(x)
        h = x
        pool_index = next(i for i, lyr in enumerate(model.layers) if lyr.name == "pool")
        for lyr in model.layers[:pool_index]:
            h, _ = lyr.forward(h, "infer")

        def head(frames):
            out = frames
            for lyr in model.layers[pool_index:]:
                out, _ = lyr.forward(out, "infer")
                if lyr.name == model.embedding_tap:
                    return out

        perm = rng.permutation(h.shape[1])
        np.testing.assert_allclose(head(h), head(h[:, perm, :]), atol=1e-12)

    def test_baseline_equals_acnn_with_one_hot_override(self, rng):
        base_cfg = tiny_config("baseline")
        acnn_cfg = tiny_config("acnn")
        baseline = M.build(base_cfg, seed=1)
        adaptive = M.build(acnn_cfg, seed=2)
        # copy every shared parameter, then plant the baseline filters in
        # pool slot 0 and fix the mixture on that slot (zero regression
        # weights, one-hot bias)
        base_params = {p.name: p.value for p in baseline.params()}
        for p in adaptive.params():
            if p.name in base_params:
                p.value[...] = base_params[p.name]
        layer = adaptive.layer("frame4.conv")
        layer.pool_weight.value[0] = baseline.layer("frame4.conv").weight.value
        layer.pool_bias.value[0] = baseline.layer("frame4.conv").bias.value
        layer.mix_weight.value[...] = 0.0
        layer.mix_bias.value[...] = [1.0, 0.0]
        x = rng.normal(size=(2, 9, 3))
        out_base = baseline.forward_train(x)[0]
        out_acnn = adaptive.forward_train(x)[0]
        assert np.array_equal(out_base, out_acnn)


class TestCountParams:
    def test_layer4_closed_form(self):
        assert conv_param_count(1, 512, 512) == 262_656

    def test_overheads_match_closed_form(self):
        base = M.count_params(M.build(M.ArchConfig(**FULL_SIZE), seed=0))
        for variant in ("acnn", "abn", "acnn_abn"):
            cfg = M.ArchConfig(variant=variant, **FULL_SIZE)
            total = M.count_params(M.build(cfg, seed=0))
            expected = base + acnn_param_overhead(cfg) * (variant != "abn") \
                + abn_param_overhead(cfg)
            assert total == expected, variant

    def test_overheads_match_closed_form_tiny(self):
        base = M.count_params(M.build(tiny_config(), seed=0))
        cfg = tiny_config("acnn_abn")
        total = M.count_params(M.build(cfg, seed=0))
        assert total == base + acnn_param_overhead(cfg) + abn_param_overhead(cfg)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = M.build(tiny_config("acnn_abn"), seed=4)
        x = rng.normal(size=(2, 6, 3))
        model.forward_train(x)   # give the running stats real values
        path = str(tmp_path / "model.ckpt")
        M.save_model(model, path)
        loaded = M.load_model(path)
        assert loaded.config == model.config
        for pa, pb in zip(model.params(), loaded.params()):
            assert pa.name == pb.name and np.array_equal(pa.value, pb.value)
        for (ka, va), (kb, vb) in zip(model.state_items(), loaded.state_items()):
            assert ka == kb and np.array_equal(va, vb)
        assert np.array_equal(model.forward(x), loaded.forward(x))

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch, rng):
        model = M.build(tiny_config("acnn_abn"), seed=4)
        model.forward_train(rng.normal(size=(2, 6, 3)))
        path = str(tmp_path / "model.ckpt")
        M.save_model(model, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_model drew a random initialization")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = M.load_model(path)
        values = [p.value for p in loaded.params()]
        for pa, value in zip(model.params(), values):
            assert np.array_equal(pa.value, value) and value.dtype == np.float64
            assert value.flags.c_contiguous and value.flags.writeable
        assert not any(np.shares_memory(a, b) for i, a in enumerate(values) for b in values[:i])

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_load_holds_the_records_and_little_else(self, tmp_path, variant):
        """The loaded layout takes each record's array as its value and
        allocates no values of its own: the traced peak of load_model stays
        within a quarter above the record bytes (a zero layout doubles it)."""
        cfg = M.ArchConfig(input_dim=30, frame_dims=(64, 64, 64, 64, 192),
                           utterance_dims=(64, 64), attention_hidden=32, num_speakers=8,
                           variant=variant)
        model = M.build(cfg, seed=4)
        model.forward_train(np.ones((2, cfg.min_frames, 30)))
        path = str(tmp_path / "model.ckpt")
        M.save_model(model, path)
        record_bytes = sum(p.value.nbytes for p in model.params())
        record_bytes += sum(v.nbytes for _, v in model.state_items())
        tracemalloc.start()
        try:
            M.load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * record_bytes, (peak, record_bytes)

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_built_and_loaded_models_hold_no_gradients(self, tmp_path, variant):
        """A gradient exists only once a backward has set it, so a model that
        only runs inference holds no gradient arrays."""
        model = M.build(tiny_config(variant), seed=4)
        path = str(tmp_path / "model.ckpt")
        M.save_model(model, path)
        for net in (model, M.load_model(path)):
            assert all(p.grad is None for p in net.params())

    def test_corrupted_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError):
            M.load_model(str(path))

    def test_old_acnn_layout_refused_whole(self, tmp_path, monkeypatch):
        """The adaptive conv once pooled a learned value map of its input: its
        checkpoints carry extra value_* records and a (2*hidden, pool) mixing
        regression.  Such a file is refused with a FormatError naming the
        offending record, before any value is copied into the model."""
        cfg = tiny_config("acnn")
        hidden, in_dim = cfg.attention_hidden, cfg.frame_dims[cfg.acnn_layer_index - 2]
        assert hidden != in_dim   # so the old mixing shape really differs
        model = M.build(cfg, seed=4)
        old = []
        for name, value in [(p.name, p.value) for p in model.params()] + model.state_items():
            if name == "frame4.conv.score_weight":
                old.append(("frame4.conv.value_weight", np.ones((in_dim, hidden))))
                old.append(("frame4.conv.value_bias", np.zeros(hidden)))
            if name == "frame4.conv.mix_weight":
                value = np.ones((2 * hidden, cfg.pool_size))
            old.append((name, value))
        header = {"kind": "model", "config": asdict(cfg)}
        built = []

        def recording_assemble(config, rng):
            built.append(real_assemble(config, rng))
            return built[-1]

        real_assemble = M._assemble
        monkeypatch.setattr(M, "_assemble", recording_assemble)
        path = str(tmp_path / "old.ckpt")
        write_records(path, header, old)
        with pytest.raises(FormatError, match=r"frame4\.conv\.value_"):
            M.load_model(path)
        # without the value records, the old mixing shape alone is refused
        write_records(path, header, [r for r in old if ".value_" not in r[0]])
        with pytest.raises(FormatError, match=r"frame4\.conv\.mix_weight.*shape"):
            M.load_model(path)
        fresh = real_assemble(cfg, None)
        assert len(built) == 2
        for partial in built:
            for pa, pb in zip(partial.params(), fresh.params()):
                assert np.array_equal(pa.value, pb.value), pa.name

    @pytest.mark.parametrize("config, message", [
        ({**asdict(tiny_config()), "bogus": 1}, "bogus"),
        pytest.param(None, "'config' must be a mapping", id="None-no config"),
        ({**asdict(tiny_config()), "variant": "dense"}, "variant"),
        ({**asdict(tiny_config()), "kernel_sizes": 3}, "kernel_sizes|iterable"),
        # a header naming a setting that became a constant, with its old value
        ({**asdict(tiny_config()), "bn_momentum": 0.1}, "bn_momentum"),
        ({**asdict(tiny_config()), "bn_eps": 1e-5}, "bn_eps"),
        ({**asdict(tiny_config()), "frame_dims": (4, -3, 4, 4, 6)}, "dims must be >= 1"),
        ({**asdict(tiny_config()), "utterance_dims": (5, 0)}, "dims must be >= 1"),
        ({**asdict(tiny_config()), "embedding_layer_index": 1}, "embedding_layer_index"),
        # the config file's rules: an int takes no float or bool, list elements included
        ({**asdict(tiny_config()), "acnn_layer_index": 4.0},
         r"config\.acnn_layer_index must be an integer, got 4\.0"),
        ({**asdict(tiny_config()), "frame_dims": [4, 8.7, 4, 4, 6]},
         r"config\.frame_dims\[1\] must be an integer, got 8\.7"),
        ({**asdict(tiny_config()), "kernel_sizes": [2, 1, 1, True, True]},
         r"config\.kernel_sizes\[3\] must be an integer, got True"),
        ({**asdict(tiny_config()), "attention_hidden": "4"},
         r"config\.attention_hidden must be an integer, got '4'"),
    ])
    def test_bad_config_is_format_error(self, tmp_path, config, message):
        header = {"kind": "model"}
        if config is not None:
            header["config"] = config
        path = str(tmp_path / "bad.ckpt")
        write_records(path, header, [])
        with pytest.raises(FormatError, match=f"^{re.escape(path)}: .*({message})"):
            M.load_model(path)

    @pytest.mark.parametrize("record, value, message", [
        ("frame2.conv.weight", np.nan, r"frame2\.conv\.weight.*NaN or infinite"),
        ("utt1.norm.running_mean", np.inf, r"utt1\.norm\.running_mean.*NaN or infinite"),
        ("frame3.norm.running_var", -1e-3, r"frame3\.norm\.running_var.*negative variance"),
        ("frame1.norm.initialized", 0.5, r"frame1\.norm\.initialized.*neither 0 nor 1"),
        ("utt2.norm.initialized", -7.0, r"utt2\.norm\.initialized.*neither 0 nor 1"),
    ])
    def test_impossible_values_refused(self, tmp_path, rng, record, value, message):
        cfg = tiny_config("abn")
        model = M.build(cfg, seed=4)
        model.forward_train(rng.normal(size=(2, 6, 3)))
        records = [(p.name, p.value.copy()) for p in model.params()]
        records += [(name, v.copy()) for name, v in model.state_items()]
        dict(records)[record].flat[0] = value
        path = str(tmp_path / "bad.ckpt")
        write_records(path, {"kind": "model", "config": asdict(cfg)}, records)
        with pytest.raises(FormatError, match=message):
            M.load_model(path)


LAYER_CLASSES = ("ConvLayer", "AdaptiveConvLayer", "BatchNormLayer", "AdaptiveNormLayer",
                 "ReluLayer", "StatsPoolLayer", "DenseLayer")


def _load_tracing():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_binding_contract(rng):
    """perfbench/tracing.py looks these classes up on ``axvector.model`` and
    wraps the forward/backward each defines in its own body, reads the norm
    layers' (output, cache) results and array gradients, and counts calls of
    ``numerics.conv1d``/``conv1d_backward`` by name.  Installing its tracer
    and its stage clock binds every name it instruments."""
    tracing = _load_tracing()
    uninstall = tracing.install(tracing.Tracer())
    try:
        with tracing.stage_clock({}):
            pass
    finally:
        uninstall()
    for name in LAYER_CLASSES:
        assert {"forward", "backward"} <= set(vars(getattr(M, name))), name
    assert callable(N.conv1d) and callable(N.conv1d_backward)
    model = M.build(tiny_config("abn"), seed=0)
    for name, shape in (("frame1.norm", (2, 6, 4)), ("utt1.norm", (2, 5))):
        lyr = model.layer(name)
        out, cache = lyr.forward(rng.normal(size=shape), "train")
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert isinstance(lyr.backward(cache, np.ones(shape)), np.ndarray)


def test_stage_clock_reads_one_step_end_per_update():
    """``perfbench/stage.py cli`` takes the train step times from the stage
    clock, which wraps ``training.train`` and the module-level
    ``training.adam_step``: a training run records its start and exactly one
    step end per step, so the packed update must still be one call of
    ``training.adam_step`` per step."""
    from axvector import data as D
    from axvector import training as T
    tracing = _load_tracing()
    corpus = D.generate_corpus(D.CorpusSpec(num_speakers=3, utts_per_speaker=2, feature_dim=3,
                                            frames_min=12, frames_max=16, seed=2))
    model = M.build(tiny_config(), seed=0)
    cfg = T.TrainConfig(batch_size=4, crop_frames_min=8, crop_frames_max=10, total_steps=5,
                        seed=1)
    with tracing.stage_clock({}) as record:
        log = T.train(model, corpus, cfg)
    assert T.train.__name__ == "train" and T.adam_step.__name__ == "adam_step"
    assert len(log) == 5 and len(record["step_ends"]) == 5
    assert record["train_start"] < record["step_ends"][0]
    assert record["step_ends"] == sorted(record["step_ends"])


@pytest.mark.parametrize("variant", ["baseline", "acnn"])
def test_tracer_passes_keyword_arguments(variant, rng):
    """The tracer's wrappers of ``Model.backward`` and of every layer's
    ``backward`` pass keyword arguments through: a traced backward without
    the input gradient returns None and records the spans of the first
    layer's backward, also when that layer is the adaptive conv."""
    tracing = _load_tracing()
    model = M.build(tiny_config(variant, acnn_layer_index=1), seed=0)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        logits, caches = model.forward_train(rng.normal(size=(2, 6, 3)))
        assert model.backward(caches, np.ones_like(logits), input_grad=False) is None
    finally:
        uninstall()
    first = "aconv" if variant == "acnn" else "conv"
    names = [span[0] for span in tracer.spans]
    assert names.count("model.backward") == 1
    assert names.count(f"model.{first}.bwd") >= 1

import numpy as np
import pytest

from axvector import model as M
from axvector.serialize import FormatError, write_records


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
        cfg = M.ArchConfig(num_speakers=10, kernel_sizes=(5, 3, 3, 1))
        with pytest.raises(ValueError, match="kernel_sizes"):
            cfg.validate()

    def test_too_few_speakers(self):
        with pytest.raises(ValueError, match="num_speakers"):
            M.ArchConfig(num_speakers=1).validate()

    def test_unset_speakers(self):
        with pytest.raises(ValueError, match="num_speakers"):
            M.ArchConfig().validate()


class TestBuild:
    def test_full_size_baseline_dimensions(self):
        model = M.build(M.ArchConfig(**FULL_SIZE), seed=0)
        frame5 = model.layer("frame5.conv")
        assert frame5.weight.value.shape == (1, 512, 1536)
        utt1 = model.layer("utt1.affine")
        assert utt1.weight.value.shape == (3072, 512)   # pooled mean+std of 1536
        assert model.config.embedding_dim == 512

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
        logits = model.forward(x, mode="train")
        assert logits.shape == (2, 5)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)

    def test_receptive_field_error_names_minimum(self, rng):
        model = M.build(tiny_config(), seed=0)   # min_frames == 2
        with pytest.raises(ValueError, match="at least 2"):
            model.forward(rng.normal(size=(1, 1, 3)), mode="train")

    def test_embedding_head_shape(self, rng):
        model = M.build(tiny_config("acnn_abn"), seed=0)
        x = rng.normal(size=(3, 6, 3))
        model.forward(x, mode="train")
        emb = model.forward(x, mode="infer", head="embedding")
        assert emb.shape == (3, 5)

    def test_infer_is_pure(self, rng):
        model = M.build(tiny_config("acnn_abn"), seed=0)
        x = rng.normal(size=(2, 7, 3))
        model.forward(x, mode="train")
        first = model.forward(x, mode="infer")
        second = model.forward(x, mode="infer")
        assert np.array_equal(first, second)

    def test_embedding_invariant_to_frame_order_after_frame_stack(self, rng):
        # inject a permutation at the pooling boundary
        model = M.build(tiny_config(), seed=0)
        x = rng.normal(size=(2, 8, 3))
        model.forward(x, mode="train")
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
        # pool slot 0 and force the mixture onto that slot
        base_params = {p.name: p.value for p in baseline.params()}
        for p in adaptive.params():
            if p.name in base_params:
                p.value[...] = base_params[p.name]
        layer = adaptive.layer("frame4.conv")
        layer.pool_weight.value[0] = baseline.layer("frame4.conv").weight.value
        layer.pool_bias.value[0] = baseline.layer("frame4.conv").bias.value
        layer.mix_override = np.array([1.0, 0.0])
        x = rng.normal(size=(2, 9, 3))
        out_base = baseline.forward(x, mode="train")
        out_acnn = adaptive.forward(x, mode="train")
        assert np.array_equal(out_base, out_acnn)


class TestCountParams:
    def test_layer4_closed_form(self):
        assert M.conv_param_count(1, 512, 512) == 262_656

    def test_empty_parameter_list(self):
        assert M.count_params([]) == 0

    def test_overheads_match_closed_form(self):
        base = M.count_params(M.build(M.ArchConfig(**FULL_SIZE), seed=0))
        for variant in ("acnn", "abn", "acnn_abn"):
            cfg = M.ArchConfig(variant=variant, **FULL_SIZE)
            total = M.count_params(M.build(cfg, seed=0))
            expected = base + M.acnn_param_overhead(cfg) * (variant != "abn") \
                + M.abn_param_overhead(cfg)
            assert total == expected, variant

    def test_overheads_match_closed_form_tiny(self):
        base = M.count_params(M.build(tiny_config(), seed=0))
        cfg = tiny_config("acnn_abn")
        total = M.count_params(M.build(cfg, seed=0))
        assert total == base + M.acnn_param_overhead(cfg) + M.abn_param_overhead(cfg)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = M.build(tiny_config("acnn_abn"), seed=4)
        x = rng.normal(size=(2, 6, 3))
        model.forward(x, mode="train")   # give the running stats real values
        path = str(tmp_path / "model.ckpt")
        M.save_model(model, path)
        loaded = M.load_model(path)
        assert loaded.config == model.config
        for pa, pb in zip(model.params(), loaded.params()):
            assert pa.name == pb.name and np.array_equal(pa.value, pb.value)
        for (ka, va), (kb, vb) in zip(model.state_items(), loaded.state_items()):
            assert ka == kb and np.array_equal(va, vb)
        assert np.array_equal(model.forward(x), loaded.forward(x))

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
        header = {"kind": "model", "config": cfg.to_dict()}
        built = []

        def recording_build(config, seed=0):
            built.append(real_build(config, seed))
            return built[-1]

        real_build = M.build
        monkeypatch.setattr(M, "build", recording_build)
        path = str(tmp_path / "old.ckpt")
        write_records(path, header, old)
        with pytest.raises(FormatError, match=r"frame4\.conv\.value_"):
            M.load_model(path)
        # without the value records, the old mixing shape alone is refused
        write_records(path, header, [r for r in old if ".value_" not in r[0]])
        with pytest.raises(FormatError, match=r"frame4\.conv\.mix_weight.*shape"):
            M.load_model(path)
        fresh = real_build(cfg, seed=0)
        assert len(built) == 2
        for partial in built:
            for pa, pb in zip(partial.params(), fresh.params()):
                assert np.array_equal(pa.value, pb.value), pa.name

    @pytest.mark.parametrize("config, message", [
        ({**tiny_config().to_dict(), "bogus": 1}, "bogus"),
        (None, "no config"),
        ({**tiny_config().to_dict(), "variant": "dense"}, "variant"),
        ({**tiny_config().to_dict(), "kernel_sizes": 3}, "kernel_sizes|iterable"),
    ])
    def test_bad_config_is_format_error(self, tmp_path, config, message):
        header = {"kind": "model"}
        if config is not None:
            header["config"] = config
        path = str(tmp_path / "bad.ckpt")
        write_records(path, header, [])
        with pytest.raises(FormatError, match=message):
            M.load_model(path)

import copy

import numpy as np
import pytest
import scipy.linalg
from scipy import integrate
from scipy.stats import multivariate_normal

from axvector import backend as B
from axvector import data as D
from axvector import model as M
from axvector import training as T
from axvector.serialize import FormatError, read_records, write_records

from gradcheck import in_dtype


def random_spd(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T / dim + 0.5 * np.eye(dim))


@pytest.fixture(scope="module")
def tiny_model():
    cfg = M.ArchConfig(input_dim=4, frame_dims=(6, 6, 6, 6, 8), kernel_sizes=(2, 1, 1, 1, 1),
                       dilations=(1, 1, 1, 1, 1), utterance_dims=(5, 4), num_speakers=3,
                       attention_hidden=3, pool_size=2, variant="baseline")
    model = M.build(cfg, seed=9)
    rng = np.random.default_rng(0)
    model.forward_train(rng.normal(size=(4, 10, 4)))   # initialize running stats
    return model


@pytest.fixture(scope="module")
def tiny_corpus():
    spec = D.CorpusSpec(num_speakers=3, utts_per_speaker=3, feature_dim=4, frames_min=16,
                        frames_max=20, conditions=("clean",), seed=4)
    return D.generate_corpus(spec)


class TestExtraction:
    def test_dimension_and_determinism(self, tiny_model, tiny_corpus):
        table = B.extract_embeddings(tiny_model, tiny_corpus)
        assert table.dim == 5
        again = B.extract_embeddings(tiny_model, tiny_corpus)
        assert np.array_equal(table.vectors, again.vectors)

    def test_corpus_order_permutes_rows_not_values(self, tiny_model, tiny_corpus):
        table = B.extract_embeddings(tiny_model, tiny_corpus)
        reversed_corpus = D.Corpus(list(reversed(tiny_corpus.utterances)),
                                   {u.utt_id: tiny_corpus.features(u.utt_id)
                                    for u in tiny_corpus.utterances})
        permuted = B.extract_embeddings(tiny_model, reversed_corpus)
        assert permuted.ids == list(reversed(table.ids))
        for utt_id in table.ids:
            assert np.array_equal(table.vector(utt_id), permuted.vector(utt_id))

    def test_float32_features_run_in_float64(self, tiny_model, tiny_corpus):
        """Extraction with a float64 model, as built or loaded, runs each
        float32 utterance in float64: its rows equal those of the same corpus
        upcast."""
        upcast = D.Corpus(tiny_corpus.utterances,
                          {u.utt_id: tiny_corpus.features(u.utt_id).astype(np.float64)
                           for u in tiny_corpus.utterances})
        for head in ("embedding", "logits"):
            rows = M.infer_utterances(tiny_model, tiny_corpus, head)
            assert rows.dtype == np.float64
            assert np.array_equal(rows, M.infer_utterances(tiny_model, upcast, head))
        assert np.array_equal(B.extract_embeddings(tiny_model, tiny_corpus).vectors,
                              M.infer_utterances(tiny_model, tiny_corpus, "embedding"))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_take_the_model_dtype(self, tiny_model, tiny_corpus, dtype):
        """infer_utterances runs in its model's dtype, whatever the
        features' (float32 here)."""
        model = in_dtype(copy.deepcopy(tiny_model), dtype)
        for head in ("embedding", "logits"):
            assert M.infer_utterances(model, tiny_corpus, head).dtype == dtype

    def test_accuracy_pass_runs_in_float32(self, tiny_model, tiny_corpus, monkeypatch):
        """The accuracy pass of a model rounded to float32, as training
        leaves it, runs each utterance in float32, and predicts what the same
        pass of the float64 model does."""
        model32 = in_dtype(copy.deepcopy(tiny_model))
        seen = []
        forward = M.Model.forward

        def recording(model, x, *args, **kwargs):
            out = forward(model, x, *args, **kwargs)
            seen.append(out.dtype)
            return out

        monkeypatch.setattr(M.Model, "forward", recording)
        accuracy = T.classification_accuracy(model32, tiny_corpus)
        assert seen == [np.float32] * len(tiny_corpus.utterances)
        monkeypatch.undo()
        logits32 = M.infer_utterances(model32, tiny_corpus, "logits")
        logits64 = M.infer_utterances(tiny_model, tiny_corpus, "logits")
        assert logits32.dtype == np.float32
        assert np.array_equal(logits32.argmax(axis=1), logits64.argmax(axis=1))
        labels = tiny_corpus.speaker_labels()
        expected = np.mean([int(p) == labels[u.speaker_id]
                            for p, u in zip(logits64.argmax(axis=1), tiny_corpus.utterances)])
        assert accuracy == expected

    def test_short_utterance_names_id(self, tiny_model):
        utts = [D.Utterance("tooshort", "spk", "clean")]
        corpus = D.Corpus(utts, {"tooshort": np.zeros((1, 4))})
        for infer in (B.extract_embeddings, T.classification_accuracy):
            with pytest.raises(ValueError, match="tooshort"):
                infer(tiny_model, corpus)

    def test_save_load_round_trip(self, tiny_model, tiny_corpus, tmp_path):
        table = B.extract_embeddings(tiny_model, tiny_corpus)
        path = str(tmp_path / "emb.axvr")
        table.save(path)
        loaded = B.EmbeddingTable.load(path)
        assert loaded.ids == table.ids
        assert np.array_equal(loaded.vectors, table.vectors)


class TestEmbeddingTable:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vector_names_utterance(self, bad):
        vectors = np.ones((3, 4))
        vectors[1, 2] = bad
        with pytest.raises(ValueError, match="utterance 'b' holds a NaN or infinite value"):
            B.EmbeddingTable(["a", "b", "c"], vectors)

    def test_load_refuses_nonfinite_vector(self, tmp_path):
        path = str(tmp_path / "emb.axvr")
        write_records(path, {"kind": "embeddings", "dim": 2},
                      [("a", np.ones(2)), ("b", np.array([1.0, np.nan]))])
        with pytest.raises(FormatError, match=r"emb\.axvr: record 'b' holds a NaN or infinite"):
            B.EmbeddingTable.load(path)


def test_each_loader_refuses_a_record_file_of_another_kind(tiny_model, tiny_corpus, tmp_path):
    """A checkpoint is no embedding table, and an embedding table no backend."""
    ckpt, emb = str(tmp_path / "model.ckpt"), str(tmp_path / "emb.axvr")
    M.save_model(tiny_model, ckpt)
    B.extract_embeddings(tiny_model, tiny_corpus).save(emb)
    with pytest.raises(FormatError, match=r"model\.ckpt: not an embedding table"):
        B.EmbeddingTable.load(ckpt)
    with pytest.raises(FormatError, match=r"emb\.axvr: not a backend model"):
        B.load_backend(emb)


class TestPreprocess:
    def test_centering_and_unit_norm(self, rng):
        x = rng.normal(size=(60, 8)) + 5.0
        labels = np.repeat(np.arange(6), 10)
        transform = B.preprocess_fit(x, labels, lda_dim=4)
        centered_projection = (x - transform.mean) @ transform.projection
        np.testing.assert_allclose(centered_projection.mean(axis=0), 0.0, atol=1e-9)
        out = B.preprocess_apply(transform, x)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_axis_aligned_two_class_problem(self, rng):
        # classes separated only along coordinate 1 of 3
        n = 2000
        a = rng.normal(scale=0.1, size=(n, 3)) + np.array([0.0, -2.0, 0.0])
        b = rng.normal(scale=0.1, size=(n, 3)) + np.array([0.0, 2.0, 0.0])
        x = np.concatenate([a, b])
        labels = np.array([0] * n + [1] * n)
        transform = B.preprocess_fit(x, labels, lda_dim=1)
        direction = transform.projection[:, 0]
        cosine = abs(direction[1]) / np.linalg.norm(direction)
        assert cosine > 0.999

    def test_scaling_after_centering_is_irrelevant(self, rng):
        x = rng.normal(size=(40, 6))
        labels = np.repeat(np.arange(4), 10)
        transform = B.preprocess_fit(x, labels, lda_dim=3)
        v = rng.normal(size=(1, 6))
        base = B.preprocess_apply(transform, transform.mean + (v - transform.mean))
        scaled = B.preprocess_apply(transform, transform.mean + 7.5 * (v - transform.mean))
        np.testing.assert_allclose(base, scaled, atol=1e-12)

    @pytest.mark.parametrize("shape", [(6,), (2, 1, 6), (2, 5)])
    def test_apply_refuses_anything_but_an_n_by_dim_matrix(self, rng, shape):
        x = rng.normal(size=(40, 6))
        transform = B.preprocess_fit(x, np.repeat(np.arange(4), 10), lda_dim=3)
        with pytest.raises(ValueError, match=r"vectors must be an \(n, 6\) matrix"):
            B.preprocess_apply(transform, rng.normal(size=shape))

    def test_lda_dim_too_large(self, rng):
        x = rng.normal(size=(30, 5))
        labels = np.repeat(np.arange(3), 10)
        with pytest.raises(ValueError, match="lda_dim"):
            B.preprocess_fit(x, labels, lda_dim=3)   # only 2 discriminant directions

    def test_generalized_eigh_matches_scipy(self, rng):
        a, b = random_spd(rng, 7), random_spd(rng, 7, scale=3.0)
        vals, vecs = B._generalized_eigh(a, b)
        ref_vals, ref_vecs = scipy.linalg.eigh(a, b)
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-10)
        np.testing.assert_allclose(vecs.T @ b @ vecs, np.eye(7), rtol=0, atol=1e-10)
        signs = np.sign(np.sum(vecs * ref_vecs, axis=0))
        np.testing.assert_allclose(vecs * signs, ref_vecs, rtol=0, atol=1e-10)

    def test_projection_matches_scipy_reference(self, rng):
        # six separated classes in 8 dims: five distinct discriminant directions
        labels = np.repeat(np.arange(6), 20)
        x = rng.normal(size=(120, 8)) + 3.0 * rng.normal(size=(6, 8))[labels]
        transform = B.preprocess_fit(x, labels, lda_dim=5)
        means = np.stack([x[labels == c].mean(axis=0) for c in range(6)])
        centered = x - means[labels]
        within = centered.T @ centered / 120
        offsets = means - x.mean(axis=0)
        between = 20 * offsets.T @ offsets / 120
        within += max(B.LDA_RIDGE * np.trace(within) / 8, B.LDA_RIDGE) * np.eye(8)
        expected = scipy.linalg.eigh(between, within)[1][:, ::-1][:, :5]
        expected *= np.sign(expected[np.argmax(np.abs(expected), axis=0), np.arange(5)])
        np.testing.assert_allclose(transform.projection, expected, rtol=0, atol=1e-10)
        np.testing.assert_allclose(transform.projection.T @ within @ transform.projection,
                                   np.eye(5), rtol=0, atol=1e-10)

    def test_singular_within_scatter_survives(self):
        # within scatter is exactly rank deficient; the ridge must absorb it
        x = np.zeros((20, 4))
        x[10:, 0] = 1.0
        labels = np.array([0] * 10 + [1] * 10)
        transform = B.preprocess_fit(x, labels, lda_dim=1)
        assert np.all(np.isfinite(transform.projection))


class TestPldaTraining:
    def test_recovery_and_monotone_loglik(self):
        # 1000 speakers x 5 sessions = 5000 vectors; the decaying speaker
        # spectrum keeps the speaker-sampling noise on the between matrix
        # well inside the 10% budget
        rng = np.random.default_rng(7)
        dim, speakers, per = 10, 1000, 5
        eigvals = np.array([4.0, 1.0, 0.6, 0.4, 0.3, 0.22, 0.16, 0.12, 0.09, 0.07])
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        between_true = (basis * eigvals) @ basis.T
        within_true = random_spd(rng, dim, 0.8)
        chol_b = np.linalg.cholesky(between_true)
        chol_w = np.linalg.cholesky(within_true)
        labels = np.repeat(np.arange(speakers), per)
        ys = rng.normal(size=(speakers, dim)) @ chol_b.T
        x = ys[labels] + rng.normal(size=(speakers * per, dim)) @ chol_w.T
        model = B.plda_train(x, labels, iterations=20)
        ll = np.array(model.em_loglik)
        assert np.all(np.diff(ll) >= -1e-6 * np.abs(ll[:-1]))
        rel_b = np.linalg.norm(model.between - between_true) / np.linalg.norm(between_true)
        rel_w = np.linalg.norm(model.within - within_true) / np.linalg.norm(within_true)
        assert rel_b < 0.10 and rel_w < 0.10

    def test_single_class_refused(self, rng):
        x = rng.normal(size=(20, 4))
        with pytest.raises(ValueError, match="at least 2 classes, got 1"):
            B.plda_train(x, np.zeros(20, dtype=int), iterations=15)


class TestPldaScoring:
    def _model(self, rng, dim=4):
        return B.PldaModel(mean=rng.normal(size=dim),
                           between=random_spd(rng, dim, 1.0),
                           within=random_spd(rng, dim, 0.7))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_negative_definite_covariances_refused(self, dim):
        """A negative-definite within covariance is refused in every
        dimension, also where an even count of negative eigenvalues makes
        the determinants positive."""
        model = B.PldaModel(mean=np.zeros(dim), between=0.1 * np.eye(dim),
                            within=-np.eye(dim))
        with pytest.raises(ValueError, match="scorer covariances must be positive definite"):
            B.PldaScorer(model)

    def test_zero_between_gives_zero_llr(self, rng):
        model = B.PldaModel(mean=np.zeros(3), between=np.zeros((3, 3)),
                            within=random_spd(rng, 3))
        assert B.PldaScorer(model).score(rng.normal(size=3), rng.normal(size=3)) == 0.0

    def test_symmetry(self, rng):
        model = self._model(rng)
        for _ in range(5):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            assert B.PldaScorer(model).score(a, b) == pytest.approx(
                B.PldaScorer(model).score(b, a), abs=1e-10)

    def test_against_joint_gaussian_evaluation(self, rng):
        model = self._model(rng, dim=3)
        scorer = B.PldaScorer(model)
        total = model.between + model.within
        joint_same = np.block([[total, model.between], [model.between, total]])
        for _ in range(4):
            e = rng.normal(size=3)
            t = rng.normal(size=3)
            stacked = np.concatenate([e - model.mean, t - model.mean])
            expected = (multivariate_normal.logpdf(stacked, np.zeros(6), joint_same)
                        - multivariate_normal.logpdf(e - model.mean, np.zeros(3), total)
                        - multivariate_normal.logpdf(t - model.mean, np.zeros(3), total))
            assert scorer.score(e, t) == pytest.approx(expected, abs=1e-10)

    def test_dim_one_quadrature_oracle(self):
        b, w, mu = 1.3, 0.6, 0.4
        model = B.PldaModel(mean=np.array([mu]), between=np.array([[b]]),
                            within=np.array([[w]]))
        e, t = 1.1, 0.2

        def gauss(x, mean, var):
            return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)

        same, _ = integrate.quad(
            lambda y: gauss(e, mu + y, w) * gauss(t, mu + y, w) * gauss(y, 0.0, b),
            -12, 12, epsabs=1e-13, epsrel=1e-13)
        diff = (integrate.quad(lambda y: gauss(e, mu + y, w) * gauss(y, 0.0, b),
                               -12, 12, epsabs=1e-13, epsrel=1e-13)[0]
                * integrate.quad(lambda y: gauss(t, mu + y, w) * gauss(y, 0.0, b),
                                 -12, 12, epsabs=1e-13, epsrel=1e-13)[0])
        expected = np.log(same) - np.log(diff)
        assert B.PldaScorer(model).score(np.array([e]), np.array([t])) == pytest.approx(
            expected, abs=1e-8)

    def test_rotation_invariance(self, rng):
        model = self._model(rng, dim=4)
        e = rng.normal(size=4)
        t = rng.normal(size=4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = B.PldaModel(mean=q @ model.mean, between=q @ model.between @ q.T,
                              within=q @ model.within @ q.T)
        assert B.PldaScorer(model).score(e, t) == pytest.approx(
            B.PldaScorer(rotated).score(q @ e, q @ t), abs=1e-9)

    def test_dim_mismatch(self, rng):
        model = self._model(rng, dim=4)
        with pytest.raises(ValueError, match="dim"):
            B.PldaScorer(model).score(np.zeros(3), np.zeros(4))

    def test_score_pairs_matches_scalar_path(self, rng):
        model = self._model(rng, dim=5)
        scorer = B.PldaScorer(model)
        enroll = rng.normal(size=(7, 5))
        test = rng.normal(size=(7, 5))
        batch = scorer.score_pairs(enroll, test)
        for i in range(7):
            assert batch[i] == pytest.approx(scorer.score(enroll[i], test[i]), abs=1e-12)


class TestFusionAndScores:
    def test_self_fusion_identity(self):
        scores = {("a", "b"): 1.5, ("a", "c"): -0.5}
        assert B.fuse_scores([scores, scores], ["s", "s"]) == scores

    def test_equal_weight_mean(self):
        one = {("a", "b"): 1.0}
        two = {("a", "b"): 3.0}
        assert B.fuse_scores([one, two], ["one", "two"]) == {("a", "b"): 2.0}

    def test_missing_trial_named(self):
        one = {("a", "b"): 1.0, ("a", "c"): 2.0}
        two = {("a", "b"): 1.0}
        with pytest.raises(ValueError, match="^two: .*a c"):
            B.fuse_scores([one, two], ["one", "two"])
        with pytest.raises(ValueError, match="^one: .*a c.*which two"):
            B.fuse_scores([two, one], ["two", "one"])

    def test_order_preserved(self):
        one = {("x", "y"): 1.0, ("a", "b"): 2.0}
        two = {("a", "b"): 4.0, ("x", "y"): 3.0}
        fused = B.fuse_scores([one, two], ["one", "two"])
        assert list(fused) == [("x", "y"), ("a", "b")]

    def test_score_file_round_trip(self, tmp_path):
        scores = {("c", "d"): -0.000001, ("a", "b"): 1.23456789}
        path = str(tmp_path / "scores.txt")
        B.write_scores(path, scores)
        text = open(path).read()
        assert text == "c d -0.000001\na b 1.234568\n"
        loaded = B.read_scores(path)
        assert list(loaded) == list(scores)
        assert loaded[("a", "b")] == pytest.approx(1.234568, abs=1e-9)

    def test_repeated_trial_refused(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a b 1.0\na c 2.0\na b 1.0\n")
        with pytest.raises(FormatError,
                           match=r"scores\.txt:3: duplicate key 'a b' \(first on line 1\)"):
            B.read_scores(str(path))


def test_backend_save_load_round_trip(tmp_path, rng):
    transform = B.PreprocessTransform(mean=rng.normal(size=6),
                                      projection=rng.normal(size=(6, 3)))
    plda = B.PldaModel(mean=rng.normal(size=3), between=random_spd(rng, 3),
                       within=random_spd(rng, 3))
    path = str(tmp_path / "backend.axvr")
    B.save_backend(path, transform, plda)
    loaded_transform, loaded_plda = B.load_backend(path)
    assert np.array_equal(loaded_transform.mean, transform.mean)
    assert np.array_equal(loaded_transform.projection, transform.projection)
    assert np.array_equal(loaded_plda.between, plda.between)
    assert np.array_equal(loaded_plda.within, plda.within)


@pytest.mark.parametrize("edit, message", [
    (lambda records: records + records[1:2], "record 'projection' is repeated"),
    (lambda records: records + [("bias", np.zeros(3))], "unknown backend record 'bias'"),
    (lambda records: records[:-1], "missing backend record 'plda_within'"),
], ids=["repeated", "unknown", "missing"])
def test_backend_holds_its_five_records_and_no_other(tmp_path, rng, edit, message):
    """A backend with a record repeated, added or left out is refused
    naming the file, not loaded with the last or the extra record."""
    path = str(tmp_path / "backend.axvr")
    B.save_backend(path, B.PreprocessTransform(mean=rng.normal(size=6),
                                               projection=rng.normal(size=(6, 3))),
                   B.PldaModel(mean=rng.normal(size=3), between=random_spd(rng, 3),
                               within=random_spd(rng, 3)))
    header, records = read_records(path)
    write_records(path, header, edit(records))
    with pytest.raises(FormatError, match=rf"backend\.axvr: {message}"):
        B.load_backend(path)

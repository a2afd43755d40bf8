"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance; the
conftest hook prints a PASS/FAIL line per criterion after the run.  The
end-to-end criteria drive the shipped command line exactly as a user would.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from axvector import backend as B
from axvector import data as D
from axvector import layers as L
from axvector import metrics as X
from axvector import model as M
from axvector import numerics as N
from axvector import training as T
from axvector.cli import dispatch

from gradcheck import check_grads, in_dtype, param_grads, randomize
from param_overhead import conv_param_count
from test_metrics import oracle_eer, oracle_min_dcf

# ---------------------------------------------------------------------------
# criterion 1: parameter overhead of the adaptive convolution
# ---------------------------------------------------------------------------


def test_criterion_1_parameter_overhead():
    """Full-size configs (input 30, frame dims 512..1536, 7185 speakers,
    attention hidden 256, pool 4): adaptive-conv over baseline parameter
    ratio must land in [1.06, 1.12]."""
    baseline = M.build(M.ArchConfig(num_speakers=7185, variant="baseline"), seed=0)
    adaptive = M.build(M.ArchConfig(num_speakers=7185, variant="acnn"), seed=0)
    n_base = M.count_params(baseline)
    n_acnn = M.count_params(adaptive)
    ratio = n_acnn / n_base
    assert 1.06 <= ratio <= 1.12, (
        f"parameter ratio {ratio:.5f} outside [1.06, 1.12] "
        f"(baseline {n_base}, adaptive {n_acnn}; filter-pool replication alone adds "
        f"{3 * conv_param_count(1, 512, 512) / n_base:.4f}, the attention and mixing "
        f"maps add the rest)")


# ---------------------------------------------------------------------------
# criterion 2: finite-difference gradient suite
# ---------------------------------------------------------------------------


class TestCriterion2Gradients:
    TOL = 1e-5

    def test_criterion_2_gradients_conv1d(self, rng):
        x = rng.normal(size=(6, 3))
        params = N.ConvParams(rng.normal(size=(2, 3, 4)), rng.normal(size=4), 2)
        probe = rng.normal(size=(4, 4))

        def loss():
            return float(np.sum(N.conv1d(x, params) * probe))

        dx, dw, db = N.conv1d_backward(x, params, probe)
        check_grads(loss, [("x", x, dx), ("w", params.weights, dw), ("b", params.bias, db)],
                    self.TOL)

    def test_criterion_2_gradients_batch_norm(self, rng):
        layer = L.BatchNormLayer("bn", 3)
        layer.gamma.value[...] = rng.normal(size=3) + 1.0
        layer.beta.value[...] = rng.normal(size=3)
        x = rng.normal(size=(2, 4, 3))
        probe = rng.normal(size=(2, 4, 3))

        def loss():
            return float(np.sum(layer.forward(x, "train")[0] * probe))

        _, cache = layer.forward(x, "train")
        dx = layer.backward(cache, probe)
        check_grads(loss, [("x", x, dx)] + param_grads(layer), self.TOL)

    def test_criterion_2_gradients_abn(self, rng):
        layer = randomize(L.AdaptiveNormLayer("abn", np.random.default_rng(0), 3, 2),
                           rng, {"scale_bias": 1.0})
        x = rng.normal(size=(2, 4, 3))
        probe = rng.normal(size=(2, 4, 3))

        def loss():
            return float(np.sum(layer.forward(x, "train")[0] * probe))

        _, cache = layer.forward(x, "train")
        dx = layer.backward(cache, probe)
        check_grads(loss, [("x", x, dx)] + param_grads(layer), self.TOL)

    def _acnn_layer(self, rng):
        # kernel 2, 3 -> 4 channels, dilation 1, attention hidden 2, pool of 2
        layer = L.AdaptiveConvLayer("acnn", np.random.default_rng(0), 2, 3, 4, 1, 2, 2)
        return randomize(layer, rng)

    def test_criterion_2_gradients_acnn_context(self, rng):
        layer = self._acnn_layer(rng)
        frames = rng.normal(size=(1, 5, 3))
        probe = rng.normal(size=(1, 6))

        def loss():
            return float(np.sum(layer.context(frames)[0] * probe))

        _, cache = layer.context(frames)
        d_frames = layer.context_backward(cache, probe)
        checks = [("frames", frames, d_frames)]
        checks += param_grads(layer, ("score_weight", "score_bias", "score_proj"))
        check_grads(loss, checks, self.TOL)

    def test_criterion_2_gradients_acnn_filters(self, rng):
        layer = self._acnn_layer(rng)
        context = rng.normal(size=(1, 6))
        probe_w = rng.normal(size=(1, 2, 3, 4))
        probe_b = rng.normal(size=(1, 4))

        def loss():
            (weights, bias), _ = layer.filters(context)
            return float(np.sum(weights * probe_w) + np.sum(bias * probe_b))

        _, cache = layer.filters(context)
        d_context = layer.filters_backward(cache, probe_w, probe_b)
        checks = [("context", context, d_context)]
        checks += param_grads(layer, ("mix_weight", "mix_bias", "pool_weight", "pool_bias"))
        check_grads(loss, checks, self.TOL)

    def test_criterion_2_gradients_acnn_layer(self, rng):
        layer = self._acnn_layer(rng)
        frames = rng.normal(size=(1, 6, 3))
        probe = rng.normal(size=(1, 5, 4))

        def loss():
            return float(np.sum(layer.forward(frames, "train")[0] * probe))

        _, cache = layer.forward(frames, "train")
        d_frames = layer.backward(cache, probe)
        check_grads(loss, [("frames", frames, d_frames)] + param_grads(layer), self.TOL)

    def test_criterion_2_gradients_stats_pooling(self, rng):
        layer = L.StatsPoolLayer("pool")
        frames = rng.normal(size=(1, 6, 3))
        probe = rng.normal(size=(1, 6))

        def loss():
            return float(np.sum(layer.forward(frames, "train")[0] * probe))

        _, cache = layer.forward(frames, "train")
        check_grads(loss, [("frames", frames, layer.backward(cache, probe))], self.TOL)

    def test_criterion_2_gradients_dense(self, rng):
        layer = M.DenseLayer("d", rng, 4, 3)
        x = rng.normal(size=(5, 4))
        probe = rng.normal(size=(5, 3))

        def loss():
            out, _ = layer.forward(x, "train")
            return float(np.sum(out * probe))

        _, cache = layer.forward(x, "train")
        dx = layer.backward(cache, probe)
        check_grads(loss, [("x", x, dx), ("w", layer.weight.value, layer.weight.grad),
                           ("b", layer.bias.value, layer.bias.grad)], self.TOL)

    def test_criterion_2_gradients_softmax_cross_entropy(self, rng):
        logits = rng.normal(size=(4, 6))
        labels = np.array([0, 2, 5, 1])

        def loss():
            return T.softmax_cross_entropy(logits, labels)[0]

        _, d_logits, _ = T.softmax_cross_entropy(logits, labels)
        check_grads(loss, [("logits", logits, d_logits)], self.TOL)

    def test_criterion_2_gradients_full_model(self, rng):
        cfg = M.ArchConfig(input_dim=3, frame_dims=(4, 4, 4, 4, 6),
                           kernel_sizes=(2, 1, 1, 1, 1), dilations=(1, 1, 1, 1, 1),
                           utterance_dims=(5, 4), num_speakers=2,
                           attention_hidden=3, pool_size=2, variant="acnn_abn")
        model = M.build(cfg, seed=5)
        x = rng.normal(size=(3, 6, 3))
        labels = np.array([0, 1, 0])

        def loss():
            return T.softmax_cross_entropy(model.forward(x, mode="train"), labels)[0]

        logits, caches = model.forward_train(x)
        _, d_logits, _ = T.softmax_cross_entropy(logits, labels)
        model.backward(caches, d_logits)
        check_grads(loss, [(p.name, p.value, p.grad) for p in model.params()], tol=1e-4)


# ---------------------------------------------------------------------------
# criterion 3: reduction equivalences
# ---------------------------------------------------------------------------


class TestCriterion3Reductions:
    def test_criterion_3_reduction_abn_to_bn(self, rng):
        channels = 5
        abn = L.AdaptiveNormLayer("abn", np.random.default_rng(0), channels, 3)
        abn.ctx_weight.value[...] = rng.normal(size=(channels, 3))
        abn.ctx_bias.value[...] = rng.normal(size=3)
        abn.scale_weight.value[...] = 0.0
        abn.scale_bias.value[...] = 1.0
        abn.shift_weight.value[...] = 0.0
        abn.shift_bias.value[...] = 0.0
        x = rng.normal(size=(4, 7, channels))
        out_abn, _ = abn.forward(x, "train")
        out_bn, _ = L.BatchNormLayer("bn", channels).forward(x, "train")
        assert np.max(np.abs(out_abn - out_bn)) <= 1e-12
        assert np.array_equal(out_abn, out_bn)

    def test_criterion_3_reduction_acnn_to_static_conv(self, rng):
        """A one-hot mixture (zero regression weights, one-hot bias) selects
        its pool entry exactly, in float64 and, with the layer rounded to
        float32 as training rounds it, in float32."""
        # kernel 2, 3 -> 5 channels, dilation 2, attention hidden 2, pool of 4
        layer = randomize(L.AdaptiveConvLayer("acnn", np.random.default_rng(0), 2, 3, 5, 2, 2, 4),
                           rng)
        layer.mix_weight.value[...] = 0.0
        frames64 = rng.normal(size=(1, 9, 3))
        for dtype in (np.float64, np.float32):
            in_dtype(layer, dtype)
            frames = frames64.astype(dtype)
            for slot in range(4):
                layer.mix_bias.value[...] = np.eye(4)[slot]
                out = layer.forward(frames, "infer")[0][0]
                static = N.conv1d(frames[0], N.ConvParams(layer.pool_weight.value[slot],
                                                          layer.pool_bias.value[slot], 2))
                assert out.dtype == static.dtype == frames.dtype
                assert np.max(np.abs(out - static)) <= 1e-12
                assert np.array_equal(out, static)


# ---------------------------------------------------------------------------
# criterion 4: metrics against the brute-force threshold oracle
# ---------------------------------------------------------------------------


def test_criterion_4_metrics_oracle():
    """eer and min_dcf agree with exhaustive midpoint-threshold enumeration
    within 1e-12 on 1000 random score sets of sizes 2..200; the sweep is
    monotone and act_dcf dominates min_dcf on all of them."""
    rng = np.random.default_rng(41)
    params = X.DcfParams(0.01)
    for case in range(1000):
        n_tar = int(rng.integers(1, 100))
        n_non = int(rng.integers(1, 100))
        sep = float(rng.uniform(0.0, 2.5))
        target = rng.normal(loc=sep, size=n_tar)
        nontarget = rng.normal(loc=0.0, size=n_non)
        if case % 5 == 0:   # exercise ties
            target = np.round(target, 1)
            nontarget = np.round(nontarget, 1)
        _, p_fa, p_miss = X.det_points(target, nontarget)
        assert np.all(np.diff(p_miss) >= 0.0) and np.all(np.diff(p_fa) <= 0.0)
        assert abs(X.eer(target, nontarget) - oracle_eer(target, nontarget)) <= 1e-12
        assert abs(X.min_dcf(target, nontarget, params)
                   - oracle_min_dcf(target, nontarget, params)) <= 1e-12
        assert X.act_dcf(target, nontarget, params) >= \
            X.min_dcf(target, nontarget, params) - 1e-12


# ---------------------------------------------------------------------------
# criterion 5: two-covariance model recovery by EM
# ---------------------------------------------------------------------------


def test_criterion_5_plda_recovery():
    """5000 dim-10 vectors from a known model: EM recovers both covariances
    within 10% relative Frobenius error with a non-decreasing likelihood."""
    rng = np.random.default_rng(7)
    dim, speakers, per = 10, 1000, 5
    eigvals = np.array([4.0, 1.0, 0.6, 0.4, 0.3, 0.22, 0.16, 0.12, 0.09, 0.07])
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    between_true = (basis * eigvals) @ basis.T
    a = rng.normal(size=(dim, dim))
    within_true = 0.8 * (a @ a.T / dim + 0.5 * np.eye(dim))
    labels = np.repeat(np.arange(speakers), per)
    ys = rng.normal(size=(speakers, dim)) @ np.linalg.cholesky(between_true).T
    x = ys[labels] + rng.normal(size=(speakers * per, dim)) @ np.linalg.cholesky(within_true).T
    model = B.plda_train(x, labels, iterations=20)
    ll = np.array(model.em_loglik)
    assert np.all(np.diff(ll) >= -1e-6 * np.abs(ll[:-1])), "log-likelihood decreased"
    rel_b = np.linalg.norm(model.between - between_true) / np.linalg.norm(between_true)
    rel_w = np.linalg.norm(model.within - within_true) / np.linalg.norm(within_true)
    assert rel_b < 0.10, f"between-covariance error {rel_b:.3f}"
    assert rel_w < 0.10, f"within-covariance error {rel_w:.3f}"


# ---------------------------------------------------------------------------
# criteria 6 and 7: end-to-end toy experiment and its determinism
# ---------------------------------------------------------------------------

TOY_CONFIG = {
    "corpus": {
        "num_speakers": 32, "utts_per_speaker": 20, "feature_dim": 30,
        "frames_min": 80, "frames_max": 300, "sigma_between": 1.3,
        "sigma_session": 0.3, "sigma_frame": 1.0, "ar_coefficient": 0.5,
        "conditions": ["clean", "noise", "codec", "reverb"],
        "noise_scale": 0.35, "codec_depth": 0.2, "seed": 2024,
    },
    "split": {"eval_speakers": 8, "n_target": 400, "n_nontarget": 1600, "trial_seed": 99},
    "arch": {
        "input_dim": 30, "frame_dims": [64, 64, 64, 64, 192],
        "kernel_sizes": [5, 3, 3, 1, 1], "dilations": [1, 2, 3, 1, 1],
        "utterance_dims": [64, 64], "attention_hidden": 32, "pool_size": 4,
    },
    "train": {
        "batch_size": 32, "crop_frames_min": 60, "crop_frames_max": 120,
        "lr_start": 1e-3, "lr_end": 1e-4, "total_steps": 400,
        "weight_decay": 1e-4, "seed": 7,
    },
    "backend": {"plda_iterations": 12},
}

VARIANTS = ("baseline", "acnn", "abn", "acnn-abn")


def run_toy_pipeline(root) -> dict:
    """Drive the command line end to end: data, all four variants, fusion."""
    os.makedirs(root, exist_ok=True)
    config = os.path.join(root, "config.json")
    with open(config, "w") as handle:
        json.dump(TOY_CONFIG, handle)
    corpus = os.path.join(root, "corpus")
    assert dispatch(["gen-data", "--config", config, "--out", corpus]) == 0
    paths = {"config": config, "corpus": corpus, "scores": {}, "reports": {},
             "summaries": {}}
    trials = os.path.join(corpus, "trials.txt")
    for variant in VARIANTS:
        tag = variant.replace("-", "_")
        ckpt = os.path.join(root, f"{tag}.ckpt")
        emb = os.path.join(root, f"{tag}.emb.axvr")
        bke = os.path.join(root, f"{tag}.backend.axvr")
        scores = os.path.join(root, f"{tag}.scores.txt")
        prefix = os.path.join(root, f"{tag}.report")
        assert dispatch(["train", "--config", config, "--corpus", corpus,
                         "--arch", variant, "--out", ckpt]) == 0
        assert dispatch(["extract", "--model", ckpt, "--corpus", corpus,
                         "--out", emb]) == 0
        assert dispatch(["backend-fit", "--config", config, "--embeddings", emb,
                         "--corpus", corpus, "--out", bke]) == 0
        assert dispatch(["score", "--backend", bke, "--embeddings", emb,
                         "--trials", trials, "--out", scores]) == 0
        assert dispatch(["evaluate", "--config", config, "--scores", scores,
                         "--trials", trials,
                         "--utt2cond", os.path.join(corpus, "utt2cond"),
                         "--out-prefix", prefix]) == 0
        paths["scores"][tag] = scores
        paths["reports"][tag] = prefix
        paths["summaries"][tag] = ckpt + ".train.json"
    fused = os.path.join(root, "fusion.scores.txt")
    fused_prefix = os.path.join(root, "fusion.report")
    assert dispatch(["fuse", "--out", fused,
                     paths["scores"]["acnn"], paths["scores"]["abn"]]) == 0
    assert dispatch(["evaluate", "--config", config, "--scores", fused,
                     "--trials", trials,
                     "--utt2cond", os.path.join(corpus, "utt2cond"),
                     "--out-prefix", fused_prefix]) == 0
    paths["scores"]["fusion"] = fused
    paths["reports"]["fusion"] = fused_prefix
    return paths


@pytest.fixture(scope="session")
def toy_run_b(tmp_path_factory):
    """Criterion 7's rerun of the toy pipeline, started in a child process
    with one BLAS thread and its output captured beside the run, so that it
    runs while ``toy_run_a`` runs in this process.  Returns a function that
    waits for the child and returns the rerun's paths."""
    root = tmp_path_factory.mktemp("toy_b")
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [tests, os.path.join(os.path.dirname(tests), "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "OPENBLAS_NUM_THREADS": "1"}
    script = ("import json, sys\n"
              "from test_acceptance import run_toy_pipeline\n"
              "paths = run_toy_pipeline(sys.argv[1])\n"
              "with open(sys.argv[2], 'w') as handle:\n"
              "    json.dump(paths, handle)\n")
    with open(root / "stdout", "w") as out, open(root / "stderr", "w") as err:
        child = subprocess.Popen([sys.executable, "-c", script, str(root / "run"),
                                  str(root / "paths.json")], env=env, stdout=out, stderr=err)

    def wait() -> dict:
        returncode = child.wait(timeout=1800)
        assert returncode == 0, \
            f"toy pipeline rerun exited with {returncode}:\n{(root / 'stderr').read_text()}"
        return json.loads((root / "paths.json").read_text())

    yield wait
    if child.poll() is None:
        child.kill()
        child.wait()


@pytest.fixture(scope="session")
def toy_run_a(tmp_path_factory, toy_run_b):
    # criterion 7's rerun has started in its child process and runs meanwhile
    return run_toy_pipeline(str(tmp_path_factory.mktemp("toy_a")))


class TestCriterion6ToyExperiment:
    def test_criterion_6_training_convergence(self, toy_run_a):
        for tag in ("baseline", "acnn", "abn", "acnn_abn"):
            summary = json.load(open(toy_run_a["summaries"][tag]))
            assert summary["last_epoch_mean_loss"] < summary["first_epoch_mean_loss"], tag
            assert summary["final_train_accuracy"] > 0.90, \
                f"{tag}: train accuracy {summary['final_train_accuracy']:.3f}"

    def test_criterion_6_heldout_eer(self, toy_run_a):
        for tag in ("baseline", "acnn", "abn", "acnn_abn"):
            report = json.load(open(toy_run_a["reports"][tag] + ".json"))
            assert report["overall"]["eer"] < 0.15, \
                f"{tag}: eer {report['overall']['eer']:.4f}"

    def test_criterion_6_report_layout(self, toy_run_a):
        report = json.load(open(toy_run_a["reports"]["baseline"] + ".json"))
        assert set(report["conditions"]) == {"clean", "codec", "noise", "reverb"}
        for block in [report["overall"], *report["conditions"].values()]:
            for key in ("eer", "min_dcf_p0.01", "min_dcf_p0.001", "act_dcf"):
                assert key in block
        text = open(toy_run_a["reports"]["baseline"] + ".txt").read()
        for column in ("overall", "clean", "codec", "noise", "reverb"):
            assert column in text
        for row in ("EER%", "DCF(0.01)", "DCF(0.001)", "actDCF"):
            assert row in text

    def test_criterion_6_fusion_complementarity(self, toy_run_a):
        eer = {}
        for tag in ("acnn", "abn", "fusion"):
            report = json.load(open(toy_run_a["reports"][tag] + ".json"))
            eer[tag] = report["overall"]["eer"]
        assert eer["fusion"] <= min(eer["acnn"], eer["abn"]) + 0.01, eer


def test_toy_scores_separate_target_from_nontarget(toy_run_a):
    """On the trained toy pipeline the generative scorer puts target trials
    stochastically above nontarget trials (median separation > 0)."""
    trials = D.read_trials(os.path.join(toy_run_a["corpus"], "trials.txt"))
    for tag in ("baseline", "acnn", "abn", "acnn_abn"):
        score_map = B.read_scores(toy_run_a["scores"][tag])
        target = [score_map[(t.enroll, t.test)] for t in trials if t.target]
        nontarget = [score_map[(t.enroll, t.test)] for t in trials if not t.target]
        assert np.median(target) > np.median(nontarget), tag


def test_criterion_7_pipeline_determinism(toy_run_a, toy_run_b):
    run_b = toy_run_b()
    for tag, path_a in toy_run_a["scores"].items():
        path_b = run_b["scores"][tag]
        assert open(path_a, "rb").read() == open(path_b, "rb").read(), \
            f"score file for {tag} differs between reruns"
    for tag, prefix_a in toy_run_a["reports"].items():
        prefix_b = run_b["reports"][tag]
        for ext in (".txt", ".json"):
            assert open(prefix_a + ext, "rb").read() == open(prefix_b + ext, "rb").read(), \
                f"report {tag}{ext} differs between reruns"


# ---------------------------------------------------------------------------
# criterion 8: pool-size sweep harness
# ---------------------------------------------------------------------------


def test_criterion_8_pool_size_sweep(tmp_path):
    config = {
        "corpus": {"num_speakers": 8, "utts_per_speaker": 8, "feature_dim": 10,
                   "frames_min": 40, "frames_max": 70, "sigma_between": 1.5,
                   "sigma_session": 0.2, "ar_coefficient": 0.3, "seed": 55},
        "split": {"eval_speakers": 2, "n_target": 40, "n_nontarget": 60, "trial_seed": 3},
        "arch": {"input_dim": 10, "frame_dims": [12, 12, 12, 12, 24],
                 "kernel_sizes": [5, 3, 3, 1, 1], "dilations": [1, 2, 3, 1, 1],
                 "utterance_dims": [12, 12], "attention_hidden": 6, "pool_size": 4},
        "train": {"batch_size": 12, "crop_frames_min": 30, "crop_frames_max": 40,
                  "total_steps": 40, "seed": 1},
        "backend": {"lda_dim": 5, "plda_iterations": 5},
    }
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    corpus = str(tmp_path / "corpus")
    assert dispatch(["gen-data", "--config", config_path, "--out", corpus]) == 0
    out_dir = str(tmp_path / "sweep")
    assert dispatch(["sweep-n", "--config", config_path, "--corpus", corpus,
                     "--out-dir", out_dir, "--values", "2,4,6,8"]) == 0
    table = open(os.path.join(out_dir, "sweep.tsv")).read().strip().splitlines()
    header = table[0].split("\t")
    assert header[0] == "pool_size" and "eer_pct" in header
    assert [row.split("\t")[0] for row in table[1:]] == ["2", "4", "6", "8"]
    for row in table[1:]:
        values = row.split("\t")[1:]
        assert all(np.isfinite(float(v)) for v in values)
    # each pool size really trained a distinct adaptive model
    for n in (2, 4, 6, 8):
        ckpt = os.path.join(out_dir, f"pool{n}", "acnn.ckpt")
        model = M.load_model(ckpt)
        assert model.layer("frame4.conv").pool_weight.value.shape[0] == n

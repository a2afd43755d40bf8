import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from axvector import metrics as X
from axvector.data import Trial


def oracle_operating_points(target, nontarget):
    """Exhaustive midpoint-threshold enumeration, independent of det_points."""
    target = np.asarray(target, dtype=float)
    nontarget = np.asarray(nontarget, dtype=float)
    values = np.unique(np.concatenate([target, nontarget]))
    thresholds = [values[0] - 1.0]
    thresholds += [(a + b) / 2.0 for a, b in zip(values[:-1], values[1:])]
    thresholds += [values[-1] + 1.0]
    points = []
    for theta in thresholds:
        p_miss = float(np.mean(target < theta))
        p_fa = float(np.mean(nontarget >= theta))
        points.append((p_fa, p_miss))
    return points


def oracle_eer(target, nontarget):
    points = oracle_operating_points(target, nontarget)
    best = None
    for (fa0, miss0), (fa1, miss1) in zip(points[:-1], points[1:]):
        d0, d1 = miss0 - fa0, miss1 - fa1
        if d0 == 0.0:
            return fa0
        if d0 < 0.0 <= d1:
            if d1 == 0.0:
                return fa1
            frac = (fa0 - miss0) / ((miss1 - miss0) - (fa1 - fa0))
            return fa0 + frac * (fa1 - fa0)
    last = points[-1]
    return last[0] if last[0] == last[1] else best


def oracle_min_dcf(target, nontarget, p):
    points = oracle_operating_points(target, nontarget)
    best = min(p * miss + (1 - p) * fa for fa, miss in points)
    return best / min(p, 1 - p)


def random_score_sets(count, max_size=200):
    rng = np.random.default_rng(20240810)
    for _ in range(count):
        n_tar = int(rng.integers(1, max_size // 2))
        n_non = int(rng.integers(1, max_size // 2))
        scale = float(rng.uniform(0.5, 3.0))
        sep = float(rng.uniform(0.0, 2.0))
        target = rng.normal(loc=sep, scale=scale, size=n_tar)
        nontarget = rng.normal(loc=0.0, scale=scale, size=n_non)
        if rng.uniform() < 0.2:   # inject ties
            target = np.round(target, 1)
            nontarget = np.round(nontarget, 1)
        yield target, nontarget


class TestDetPoints:
    def test_endpoints_present(self, rng):
        th, p_fa, p_miss = X.det_points(rng.normal(size=5), rng.normal(size=7))
        assert (p_fa[0], p_miss[0]) == (1.0, 0.0)
        assert (p_fa[-1], p_miss[-1]) == (0.0, 1.0)
        assert th[0] == -np.inf and th[-1] == np.inf

    def test_separable_pair(self):
        th, p_fa, p_miss = X.det_points([2.0], [1.0])
        # a threshold between the classes yields zero error both ways
        assert any(fa == 0.0 and miss == 0.0 for fa, miss in zip(p_fa, p_miss))

    def test_monotone_sweep(self, rng):
        for target, nontarget in random_score_sets(50):
            _, p_fa, p_miss = X.det_points(target, nontarget)
            assert np.all(np.diff(p_miss) >= 0.0)
            assert np.all(np.diff(p_fa) <= 0.0)

    def test_operating_points_match_oracle(self):
        for target, nontarget in random_score_sets(50):
            _, p_fa, p_miss = X.det_points(target, nontarget)
            ours = {(fa, miss) for fa, miss in zip(p_fa, p_miss)}
            oracle = set(oracle_operating_points(target, nontarget))
            assert oracle == ours

    def test_empty_class_errors(self):
        with pytest.raises(ValueError):
            X.det_points([], [1.0])
        with pytest.raises(ValueError):
            X.det_points([1.0], [])


class TestEer:
    def test_separable_is_zero(self):
        assert X.eer([2.0, 3.0], [0.0, 1.0]) == 0.0

    def test_interleaved_hand_case(self):
        assert X.eer([1.0, 3.0], [2.0, 4.0]) == pytest.approx(0.5, abs=1e-15)

    def test_anti_separable_is_one(self):
        assert X.eer([0.0, 0.5], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-15)

    def test_matches_oracle(self):
        for target, nontarget in random_score_sets(200):
            assert X.eer(target, nontarget) == pytest.approx(
                oracle_eer(target, nontarget), abs=1e-12)

    @given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0), st.integers(0, 1000))
    def test_invariant_under_increasing_transform(self, slope, intercept, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(1.0, 1.0, size=9)
        nontarget = rng.normal(0.0, 1.0, size=11)
        base = X.eer(target, nontarget)
        mapped = X.eer(slope * target + intercept, slope * nontarget + intercept)
        assert mapped == pytest.approx(base, abs=1e-12)


class TestMinDcf:
    def test_separable_is_zero(self):
        p_target = 0.01
        assert X.min_dcf([5.0], [1.0], p_target) == 0.0

    def test_all_equal_scores_is_one(self):
        p_target = 0.01
        assert X.min_dcf([1.0, 1.0], [1.0, 1.0, 1.0], p_target) == pytest.approx(1.0, abs=1e-15)

    def test_matches_oracle(self):
        p_target = 0.01
        for target, nontarget in random_score_sets(200):
            assert X.min_dcf(target, nontarget, p_target) == pytest.approx(
                oracle_min_dcf(target, nontarget, p_target), abs=1e-12)

    @given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0), st.integers(0, 1000))
    def test_invariant_under_increasing_transform(self, slope, intercept, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(1.0, 1.0, size=8)
        nontarget = rng.normal(0.0, 1.0, size=13)
        p_target = 0.01
        base = X.min_dcf(target, nontarget, p_target)
        mapped = X.min_dcf(slope * target + intercept, slope * nontarget + intercept, p_target)
        assert mapped == pytest.approx(base, abs=1e-12)

    def test_never_exceeds_one(self):
        p_target = 0.001
        for target, nontarget in random_score_sets(100):
            assert X.min_dcf(target, nontarget, p_target) <= 1.0 + 1e-12


class TestActDcf:
    def test_hand_evaluation(self):
        # both trials above the Bayes threshold log(99) ~ 4.595
        p_target = 0.01
        value = X.act_dcf([5.0], [4.9], p_target)
        assert value == pytest.approx(99.0, rel=1e-12)

    def test_calibrated_separable_is_zero(self):
        p_target = 0.01
        assert X.act_dcf([20.0], [-20.0], p_target) == 0.0

    def test_at_least_min_dcf(self):
        p_target = 0.01
        for target, nontarget in random_score_sets(200):
            assert X.act_dcf(target, nontarget, p_target) >= \
                X.min_dcf(target, nontarget, p_target) - 1e-12

    def test_not_shift_invariant(self):
        # the Bayes threshold is absolute, so shifting scores changes the value
        p_target = 0.01
        target = np.array([5.0, 6.0])
        nontarget = np.array([3.0, 4.0])
        base = X.act_dcf(target, nontarget, p_target)
        shifted = X.act_dcf(target + 3.0, nontarget + 3.0, p_target)
        assert base != shifted

    def test_permutation_invariance(self, rng):
        target = rng.normal(size=20)
        nontarget = rng.normal(size=30)
        p_target = 0.01
        perm_t = target[rng.permutation(20)]
        perm_n = nontarget[rng.permutation(30)]
        assert X.act_dcf(target, nontarget, p_target) == X.act_dcf(perm_t, perm_n, p_target)
        assert X.eer(target, nontarget) == X.eer(perm_t, perm_n)
        assert X.min_dcf(target, nontarget, p_target) == X.min_dcf(perm_t, perm_n, p_target)


@pytest.mark.parametrize("dcf", [X.min_dcf, X.act_dcf])
@pytest.mark.parametrize("p_target", [0.0, 1.0])
def test_p_target_outside_unit_interval_refused(dcf, p_target):
    with pytest.raises(ValueError, match="p_target must lie in"):
        dcf([1.0], [0.0], p_target)


class TestReport:
    def _trials_and_scores(self):
        trials = [Trial("e1", "t1", True), Trial("e2", "t2", True),
                  Trial("e1", "t2", False), Trial("e2", "t1", False),
                  Trial("e1", "t3", False), Trial("e2", "t3", True)]
        scores = {("e1", "t1"): 4.0, ("e2", "t2"): 3.0, ("e1", "t2"): -1.0,
                  ("e2", "t1"): 0.5, ("e1", "t3"): -2.0, ("e2", "t3"): 2.0}
        conditions = {"t1": "clean", "t2": "noise", "t3": "clean"}
        return trials, scores, conditions

    def test_fields_and_condition_join(self):
        trials, scores, conditions = self._trials_and_scores()
        cfg = X.MetricConfig()
        report = X.build_report(trials, scores, cfg, conditions)
        overall = report["overall"]
        for key in ("eer", "min_dcf_p0.01", "min_dcf_p0.001", "act_dcf",
                    "act_dcf_capped", "n_target", "n_nontarget"):
            assert key in overall
        assert set(report["conditions"]) == {"clean", "noise"}
        clean = report["conditions"]["clean"]
        assert clean["n_target"] == 2 and clean["n_nontarget"] == 2

    def test_overall_matches_direct_calls(self):
        trials, scores, conditions = self._trials_and_scores()
        cfg = X.MetricConfig()
        report = X.build_report(trials, scores, cfg, conditions)
        target = [scores[(t.enroll, t.test)] for t in trials if t.target]
        nontarget = [scores[(t.enroll, t.test)] for t in trials if not t.target]
        assert report["overall"]["eer"] == X.eer(target, nontarget)
        assert report["overall"]["min_dcf_p0.01"] == X.min_dcf(
            target, nontarget, 0.01)

    def test_missing_score_errors(self):
        trials, scores, _ = self._trials_and_scores()
        del scores[("e2", "t3")]
        with pytest.raises(ValueError, match="e2 t3"):
            X.build_report(trials, scores, X.MetricConfig())

    def test_score_for_unlisted_trial_errors(self):
        trials, scores, conditions = self._trials_and_scores()
        scores[("e3", "t1")] = 0.0
        with pytest.raises(ValueError, match="e3 t1"):
            X.build_report(trials, scores, X.MetricConfig(), conditions)

    def test_single_class_condition_reported_null(self):
        trials = [Trial("e1", "t1", True), Trial("e1", "t2", False),
                  Trial("e2", "t2", False)]
        scores = {("e1", "t1"): 1.0, ("e1", "t2"): 0.0, ("e2", "t2"): 0.2}
        conditions = {"t1": "clean", "t2": "noise"}
        report = X.build_report(trials, scores, X.MetricConfig(), conditions)
        assert report["conditions"]["noise"] is None
        text = X.format_report(report, "demo")
        assert "n/a" in text

    def test_format_report_layout(self):
        trials, scores, conditions = self._trials_and_scores()
        report = X.build_report(trials, scores, X.MetricConfig(), conditions)
        text = X.format_report(report, title="demo")
        lines = text.strip().splitlines()
        assert lines[0] == "demo"
        assert "overall" in lines[1] and "clean" in lines[1] and "noise" in lines[1]
        assert any(line.startswith("EER%") for line in lines)
        assert any(line.startswith("actDCF") for line in lines)

"""Verification metrics: DET points, equal error rate, minimum and actual
normalized detection cost, plus the evaluation report.

All functions are pure.  The sweep convention accepts a trial when its score
is >= the threshold; thresholds run over every distinct score value plus the
two endpoint operating points (accept everything / reject everything), so a
brute-force enumeration of midpoint thresholds realizes exactly the same set
of operating points.  A miss and a false alarm each cost 1, so a DCF depends
on the target prior p alone and is normalized by min(p, 1 - p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_f64, require


@dataclass
class MetricConfig:
    """Settings for the evaluation report."""

    dcf_p_targets: tuple[float, ...] = (0.01, 0.001)
    act_p_target: float = 0.01

    def __post_init__(self):
        for p in (*self.dcf_p_targets, self.act_p_target):
            require(0.0 < p < 1.0, f"p_target {p} does not lie in (0, 1)")


def _check_scores(target_scores, nontarget_scores) -> tuple[np.ndarray, np.ndarray]:
    tgt = as_f64(target_scores).ravel()
    non = as_f64(nontarget_scores).ravel()
    require(tgt.size >= 1, "need at least one target score")
    require(non.size >= 1, "need at least one nontarget score")
    require(bool(np.all(np.isfinite(tgt)) and np.all(np.isfinite(non))),
            "scores must be finite")
    return tgt, non


def det_points(target_scores, nontarget_scores):
    """Threshold sweep: returns (thresholds, p_fa, p_miss) arrays.

    Includes the endpoints (p_fa=1, p_miss=0) and (p_fa=0, p_miss=1); p_miss
    is non-decreasing and p_fa non-increasing along the sweep.
    """
    tgt, non = _check_scores(target_scores, nontarget_scores)
    tgt_sorted = np.sort(tgt)
    non_sorted = np.sort(non)
    values = np.unique(np.concatenate([tgt_sorted, non_sorted]))
    p_miss = np.searchsorted(tgt_sorted, values, side="left") / tgt.size
    p_fa = (non.size - np.searchsorted(non_sorted, values, side="left")) / non.size
    thresholds = np.concatenate([[-np.inf], values, [np.inf]])
    p_fa = np.concatenate([[1.0], p_fa, [0.0]])
    p_miss = np.concatenate([[0.0], p_miss, [1.0]])
    return thresholds, p_fa, p_miss


def eer(target_scores, nontarget_scores) -> float:
    """Rate where miss and false-alarm probabilities cross, linearly
    interpolated between the bracketing sweep points."""
    _, p_fa, p_miss = det_points(target_scores, nontarget_scores)
    diff = p_miss - p_fa   # non-decreasing along the sweep
    idx = int(np.argmax(diff >= 0.0))
    if diff[idx] == 0.0:
        return float(p_fa[idx])
    fa0, fa1 = p_fa[idx - 1], p_fa[idx]
    miss0, miss1 = p_miss[idx - 1], p_miss[idx]
    step = (miss1 - miss0) - (fa1 - fa0)
    frac = (fa0 - miss0) / step
    return float(fa0 + frac * (fa1 - fa0))


def min_dcf(target_scores, nontarget_scores, p_target: float) -> float:
    """Minimum over sweep thresholds of the normalized detection cost."""
    require(0.0 < p_target < 1.0, "p_target must lie in (0, 1)")
    _, p_fa, p_miss = det_points(target_scores, nontarget_scores)
    costs = p_target * p_miss + (1.0 - p_target) * p_fa
    return float(costs.min() / min(p_target, 1.0 - p_target))


def act_dcf(target_scores, nontarget_scores, p_target: float) -> float:
    """Normalized detection cost at the Bayes threshold log((1 - p) / p).

    Scores must be calibrated log-likelihood ratios for the threshold to be
    meaningful.  The value is reported unclipped and can exceed 1 for badly
    calibrated scores.
    """
    require(0.0 < p_target < 1.0, "p_target must lie in (0, 1)")
    tgt, non = _check_scores(target_scores, nontarget_scores)
    theta = float(np.log((1.0 - p_target) / p_target))
    p_miss = float(np.mean(tgt < theta))
    p_fa = float(np.mean(non >= theta))
    cost = p_target * p_miss + (1.0 - p_target) * p_fa
    return float(cost / min(p_target, 1.0 - p_target))


# ---------------------------------------------------------------------------
# evaluation report
# ---------------------------------------------------------------------------


def summarize(target_scores, nontarget_scores, cfg: MetricConfig) -> dict:
    """All report metrics for one pool of labeled scores."""
    tgt, non = _check_scores(target_scores, nontarget_scores)
    out = {
        "n_target": int(tgt.size),
        "n_nontarget": int(non.size),
        "eer": eer(tgt, non),
    }
    for p in cfg.dcf_p_targets:
        out[f"min_dcf_p{p:g}"] = min_dcf(tgt, non, p)
    act = act_dcf(tgt, non, cfg.act_p_target)
    out["act_dcf"] = act
    out["act_dcf_capped"] = min(act, 1.0)
    return out


def labeled_scores(trials, score_map: dict) -> tuple[list, list]:
    """(target, nontarget) scores of ``trials``, each in trial order, looked
    up in ``score_map`` by (enroll, test).  This is where a score file meets
    the full trial list, so ``score_map`` must score every trial and no
    other."""
    target_scores, nontarget_scores = [], []
    listed = set()
    for trial in trials:
        key = (trial.enroll, trial.test)
        if key not in score_map:
            raise ValueError(f"no score for trial {trial.enroll} {trial.test}")
        listed.add(key)
        (target_scores if trial.target else nontarget_scores).append(score_map[key])
    if len(listed) < len(score_map):
        enroll, test = next(key for key in score_map if key not in listed)
        raise ValueError(f"score for trial {enroll} {test}, which is not in the trial list")
    return target_scores, nontarget_scores


def build_report(trials, score_map: dict, cfg: MetricConfig,
                 condition_of: dict | None = None) -> dict:
    """Join trials with their scores and summarize overall and per condition.

    ``score_map`` must score every trial and no other.  A trial's condition
    is that of its test utterance in ``condition_of``, which must map it.
    Conditions lacking either class are reported as null.
    """
    report = {"overall": summarize(*labeled_scores(trials, score_map), cfg), "conditions": {}}
    by_condition: dict[str, tuple[list, list]] = {}
    if condition_of is not None:
        for trial in trials:
            target, nontarget = by_condition.setdefault(condition_of[trial.test], ([], []))
            (target if trial.target else nontarget).append(score_map[(trial.enroll, trial.test)])
    for cond in sorted(by_condition):
        tgt, non = by_condition[cond]
        report["conditions"][cond] = (summarize(tgt, non, cfg) if tgt and non else None)
    return report


def _report_rows(overall: dict) -> list[tuple[str, str, float]]:
    rows = [("eer", "EER%", 100.0)]
    for key in overall:
        if key.startswith("min_dcf_p"):
            rows.append((key, f"DCF({key[len('min_dcf_p'):]})", 1.0))
    rows.append(("act_dcf", "actDCF", 1.0))
    rows.append(("act_dcf_capped", "actDCF(cap)", 1.0))
    return rows


def format_report(report: dict, title: str) -> str:
    """Fixed-width text table under ``title``: metric rows, overall plus one
    column per condition."""
    conditions = sorted(report.get("conditions", {}))
    columns = ["overall"] + conditions
    lines = [title]
    width = max(12, *(len(c) + 2 for c in columns))
    lines.append(f"{'metric':<14}" + "".join(f"{c:>{width}}" for c in columns))
    summaries = {"overall": report["overall"]}
    summaries.update(report.get("conditions", {}))
    for key, label, scale in _report_rows(report["overall"]):
        cells = []
        for col in columns:
            summary = summaries.get(col)
            if summary is None:
                cells.append(f"{'n/a':>{width}}")
            else:
                cells.append(f"{summary[key] * scale:>{width}.4f}")
        lines.append(f"{label:<14}" + "".join(cells))
    counts = []
    for col in columns:
        summary = summaries.get(col)
        counts.append(f"{'n/a':>{width}}" if summary is None
                      else f"{summary['n_target']}/{summary['n_nontarget']}".rjust(width))
    lines.append(f"{'tar/non':<14}" + "".join(counts))
    return "\n".join(lines) + "\n"

"""Summarize the results files of several benchmark runs, one per seed.

    python3 perfbench/summarize.py --seeds 201-210 [--workload toy-train ...]

Reads ``.perfbench_work/results/<workload>-seed<n>-trace0.json`` for every
seed (and ``-trace1.json`` for the first seed, when it is there) and prints
one JSON object: per workload and end-to-end metric the median, the
quartiles, the spread (q3 - q1) / median that the acceptance rule compares
with the bound, and every value; the medians of the undeclared figures
(stage times, per-variant steps, EER); and the traced run's per-layer
values.  ``baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
from run import ROOT, WORK  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def load(workload: str, seed: int, trace: int):
    path = os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{trace}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def medians(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def summarize(workload: str, seeds: list[int]) -> dict:
    runs = [r for r in (load(workload, s, 0) for s in seeds) if r is not None]
    if len(runs) < 2:
        raise SystemExit(f"{workload}: fewer than two results files for seeds {seeds}")
    metrics = {}
    for name, (unit, _, bound, _) in catalog.END_TO_END.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        metrics[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "bound": bound, "values": values}
    out = {
        "seeds": [r["provenance"]["seed"] for r in runs],
        "all_correct": all(r["result"]["correct"] for r in runs),
        "metrics": metrics,
        "train_s_median": statistics.median(r["train_s"] for r in runs),
        "backend_s_median": statistics.median(r["backend_s"] for r in runs),
        "stage_s_median": medians([r["stage_s"] for r in runs]),
        "train_step_ms_by_variant_median": medians([r["train_step_ms_by_variant"] for r in runs]),
        "eer_median": statistics.median(r["eer"] for r in runs),
    }
    traced = load(workload, seeds[0], 1)
    if traced is not None:
        out["traced"] = {"seed": seeds[0], "correct": traced["result"]["correct"],
                         "metrics": {k: v["value"]
                                     for k, v in traced["result"]["metrics"].items()}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 201-210")
    parser.add_argument("--workload", action="append",
                        help="default: the workloads in BENCHMARK.json")
    args = parser.parse_args(argv)
    workloads = args.workload
    if not workloads:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            workloads = [w["name"] for w in json.load(handle)["workloads"]]
    seeds = seed_range(args.seeds)
    first = load(workloads[0], seeds[0], 0)
    report = {"machine": first["provenance"] if first else None,
              "workloads": {w: summarize(w, seeds) for w in workloads}}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

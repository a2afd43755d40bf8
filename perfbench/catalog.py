"""Every metric the benchmark reports: name, unit, direction, the bound for
end-to-end metrics, and for per-layer metrics the stage it sits in and the
end-to-end metric (and workload) a change to that layer should move.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-test checks that the two agree.
"""

from __future__ import annotations

VARIANT_TAGS = ("baseline", "acnn", "abn", "acnn_abn")

# layer kinds present in each variant's network
KINDS = {
    "baseline": ("conv", "relu", "bn", "pool", "dense"),
    "acnn": ("conv", "aconv", "relu", "bn", "pool", "dense"),
    "abn": ("conv", "relu", "abn", "bn", "pool", "dense"),
    "acnn_abn": ("conv", "aconv", "relu", "abn", "bn", "pool", "dense"),
}

# name -> (unit, better, bound, what it is).  On a 2-vCPU virtual machine the
# whole machine's speed drifts by 10-20% over a minute or so, and the same
# run repeated moved by up to 20%, so only metrics that pool most of a run
# are declared, with the widest allowed bounds.  Single stages (mostly
# interpreter start-up) and per-variant steps are printed and kept in the
# results file, and measured in-process per layer.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "median over the train stages of spawn to corpus loaded: imports, "
                "config parse and corpus load in a fresh interpreter"),
    "pipeline_s": ("s", "lower", 0.25,
                   "gen-data plus every other stage's median over the rounds"),
    "train_step_ms": ("ms", "lower", 0.25,
                      "mean training step over every variant and round, batch assembly "
                      "included"),
    "peak_rss_mb": ("MB", "lower", 0.15, "largest peak resident set of any process in the run"),
}

RUN_SECONDS = 45

ALL = "all workloads"
TOY, FULL = "toy-train", "fullsize-train"
# not in BENCHMARK.json (too long and too unsteady for the run budget); run
# it by hand: python3 perfbench/run.py --workload eval-scale ...
EVAL = "eval-scale (by hand)"


def _per_variant(base: str, unit: str, better: str, moves: str) -> dict:
    return {f"{base}.{v}": (unit, better, moves) for v in VARIANT_TAGS}


# name -> (unit, better, "the stage it sits in -> end-to-end metric @ workload")
PER_LAYER = {
    "cli.import_s": ("s", "lower", f"every stage -> setup_s, pipeline_s @ {ALL}"),
    **{f"cli.{stage}_s": ("s", "lower", f"{stage} (in-process) -> {e2e}")
       for stage, e2e in (
           ("gen_data", f"pipeline_s @ {EVAL}, {TOY}"),
           ("train", f"pipeline_s @ {ALL}"),
           ("extract", f"pipeline_s @ {EVAL}, {TOY}"),
           ("backend_fit", f"pipeline_s @ {EVAL}"),
           ("score", f"pipeline_s @ {EVAL}"),
           ("evaluate", f"pipeline_s @ {EVAL}"))},
    "data.generate_trials_s": ("s", "lower", f"gen-data -> pipeline_s @ {EVAL}; ~nothing @ {TOY}"),
    "data.generate_corpus_s": ("s", "lower", f"gen-data -> pipeline_s @ {EVAL}"),
    "data.save_corpus_s": ("s", "lower", f"gen-data -> pipeline_s @ {EVAL}"),
    "data.load_corpus_s": ("s", "lower", f"every stage -> setup_s @ {ALL}; pipeline_s @ {EVAL}"),
    "data.feature_files_read": ("count", "lower",
                                f"every stage -> setup_s @ {ALL}; pipeline_s @ {EVAL}"),
    "data.utterance_lookup_calls": ("count", "lower", f"backend-fit -> pipeline_s @ {EVAL}"),
    "data.utterance_lookup_s": ("s", "lower", f"backend-fit -> pipeline_s @ {EVAL}"),
    "data.read_trials_s": ("s", "lower", f"score, evaluate -> pipeline_s @ {EVAL}"),
    **_per_variant("training.make_batches_ms", "ms", "lower",
                   f"train -> train_step_ms @ {EVAL}, {TOY}"),
    **_per_variant("training.loss_ms", "ms", "lower", f"train -> train_step_ms @ {TOY}"),
    **_per_variant("training.adam_ms", "ms", "lower", f"train -> train_step_ms @ {FULL}"),
    "training.accuracy_pass_s": ("s", "lower", f"train -> pipeline_s @ {EVAL}"),
    **_per_variant("model.forward_ms", "ms", "lower",
                   f"train -> train_step_ms @ {TOY}, {FULL}"),
    **_per_variant("model.backward_ms", "ms", "lower",
                   f"train -> train_step_ms @ {TOY}, {FULL}"),
    **{f"model.{kind}.{d}_ms.{v}": (
        "ms", "lower",
        "train -> train_step_ms @ "
        + {"conv": f"{TOY}, {FULL}", "aconv": TOY, "pool": TOY, "abn": f"{TOY}, {FULL}",
           "bn": FULL}.get(kind, "little anywhere (small share)"))
       for v in VARIANT_TAGS for kind in KINDS[v] for d in ("fwd", "bwd")},
    "model.infer_ms_per_utt": ("ms", "lower", f"extract -> pipeline_s @ {EVAL}"),
    **_per_variant("numerics.conv1d.calls_per_step", "count", "lower",
                   f"train -> train_step_ms @ {TOY} (falls under batch-first)"),
    **_per_variant("numerics.conv1d.gflop_per_step", "GFLOP", "lower",
                   f"train -> train_step_ms @ {FULL}"),
    **_per_variant("numerics.conv1d.gflops", "GFLOP/s", "higher",
                   f"train -> train_step_ms @ {FULL}"),
    **_per_variant("layers.norm.mb_per_step", "MB", "lower",
                   f"train -> train_step_ms @ {FULL} (abn, acnn_abn most)"),
    "serialize.write_records_s": ("s", "lower",
                                  f"train -> pipeline_s @ {FULL}; extract -> pipeline_s @ {EVAL}"),
    "serialize.read_records_s": ("s", "lower",
                                 f"train -> pipeline_s @ {FULL}; backend-fit -> pipeline_s @ {EVAL}"),
    "serialize.mb_written": ("MB", "lower", f"train -> pipeline_s @ {FULL}"),
    "backend.extract_embeddings_s": ("s", "lower", f"extract -> pipeline_s @ {ALL}"),
    "backend.preprocess_fit_s": ("s", "lower", f"backend-fit -> pipeline_s @ {EVAL}"),
    "backend.plda_train_s": ("s", "lower", f"backend-fit -> pipeline_s @ {EVAL}"),
    "backend.plda_iterations": ("count", "lower", f"backend-fit -> pipeline_s @ {EVAL}"),
    "backend.score_pairs_s": ("s", "lower", f"score -> pipeline_s @ {EVAL}"),
    "backend.write_scores_s": ("s", "lower", f"score -> pipeline_s @ {EVAL}"),
    "backend.read_scores_s": ("s", "lower", f"evaluate -> pipeline_s @ {EVAL}"),
    "metrics.build_report_s": ("s", "lower", f"evaluate -> pipeline_s @ {EVAL}"),
    "metrics.det_points_calls": ("count", "lower", f"evaluate -> pipeline_s @ {EVAL}"),
    "tracing_overhead_pct": ("%", "lower", "none: traced minus untraced acnn-abn step"),
}

# per-layer counts that depend only on shapes and the seed, never on timing
EXACT_COUNTS = tuple(
    name for name in PER_LAYER
    if name.startswith(("numerics.conv1d.calls_per_step", "numerics.conv1d.gflop_per_step",
                        "layers.norm.mb_per_step"))
) + ("data.feature_files_read", "data.utterance_lookup_calls", "serialize.mb_written",
     "backend.plda_iterations", "metrics.det_points_calls")


def benchmark_json(workloads: dict) -> dict:
    """The BENCHMARK.json document for the given {name: why} workloads."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound, _) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b, _) in PER_LAYER.items()],
    }

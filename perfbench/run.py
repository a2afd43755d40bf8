"""axvector benchmark: the CLI pipeline end to end, and a traced run for
per-layer numbers.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 45 --trace 0

Run from the repository root.  ``--trace 0`` runs gen-data once, then
rounds of every other stage (train for each variant, extract, backend-fit,
score, evaluate), each as its own ``axvector`` process, one at a time, then
the back-end chain once more as a determinism check; it checks the outputs
and reports the end-to-end metrics.  Rounds repeat while the next one is
expected to end within ``--seconds`` (at least one); a stage's time is its
median over its copies.  ``--trace 1`` runs gen-data and one round
in-process under the tracer (``tracing.py``) and reports the per-layer
metrics.  A table of every metric goes to standard output, and the last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also leaves a results file with provenance under
``.perfbench_work/results``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before anything can load numpy: here, and inherited by
# every stage (the CLI's --threads flag cannot act once numpy is imported).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import catalog  # noqa: E402
import checks  # noqa: E402
from workloads import (CHAIN, SCORED, VARIANTS, WORKLOADS, Job, checkpoint,  # noqa: E402
                       gen_data_job, make_config, outputs, round_plan, tag)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STAGE = os.path.join(HERE, "stage.py")
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_LIMIT_S = 165.0         # stop everything well inside the 180 s budget

perf_counter = time.perf_counter


# ---------------------------------------------------------------------------
# running stages
# ---------------------------------------------------------------------------


@dataclass
class Result:
    code: int
    wall_s: float = 0.0
    rss_mb: float = 0.0
    spawn: float = 0.0          # time.monotonic() just before the spawn
    note: str = ""
    record: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AXVECTOR_OUT_ROOT", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class DeadlinePassed(Exception):
    pass


def _deadline_passed(signum, frame):
    raise DeadlinePassed


def run_child(cmd: list, log_path: str, record: str | None, deadline: float) -> Result:
    """Run one child to completion, alone.  Wall time runs from spawn to
    exit; peak RSS comes from ``wait4``.  The parent blocks in ``wait4``
    (no polling beside the child); a child still running at the deadline is
    killed."""
    with open(log_path, "wb") as log:
        spawn = time.monotonic()
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        status = None
        signal.signal(signal.SIGALRM, _deadline_passed)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        except BaseException as exc:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if status is None:
                # timed out, interrupted or terminated: never leave the child behind
                proc.kill()
                proc.wait()
            if isinstance(exc, DeadlinePassed):
                return Result(-9, note="killed at the run time limit")
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = Result(proc.returncode, end - start, usage.ru_maxrss / 1024.0, spawn)
    if proc.returncode == 0 and record:
        with open(record, encoding="utf-8") as handle:
            result.record = json.load(handle)
    return result


def prepare(workload, seed: int, root: str) -> str:
    os.makedirs(os.path.join(root, "logs"), exist_ok=True)
    with open(os.path.join(root, "config.json"), "w", encoding="utf-8") as handle:
        json.dump(make_config(workload, seed), handle, indent=1)
    return os.path.join(root, "logs")


def run_job(job: Job, logs: str, deadline: float, prefix: str = "") -> Result:
    """One CLI stage as its own process; ``train`` goes through
    ``stage.py cli`` for its clock reads."""
    name = prefix + job.name.replace(":", "_")
    if job.stage == "train":
        record = os.path.join(logs, f"{name}.clock.json")
        cmd = [sys.executable, STAGE, "cli", "--record", record, "--", *job.argv]
    else:
        record, cmd = None, [sys.executable, "-m", "axvector.cli", *job.argv]
    return run_child(cmd, os.path.join(logs, name + ".log"), record, deadline)


def untraced_rounds(workload, seed: int, root: str, seconds: float, start: float,
                    deadline: float) -> tuple[Result, list[dict]]:
    """gen-data once; rounds of every other stage until the next round would
    end after ``seconds`` (at least one); then the back-end chain once more
    on the first round's checkpoint.  Each stage is its own CLI process, one
    after another; a failed stage is recorded and the run goes on."""
    logs = prepare(workload, seed, root)
    gen = run_job(gen_data_job(root), logs, deadline)
    rounds = []

    def run_round(out, plan):
        os.makedirs(out)
        prefix = os.path.basename(out) + "_"
        rounds.append({"out": out, "plan": plan,
                       "done": {job.name: run_job(job, logs, deadline, prefix) for job in plan}})

    while True:
        round_start = perf_counter()
        out = os.path.join(root, f"round{len(rounds)}")
        run_round(out, round_plan(root, out))
        now, took = perf_counter(), perf_counter() - round_start
        if now + took > deadline - 30.0 or now + took - start > seconds:
            break
    out = os.path.join(root, "repeat")
    run_round(out, round_plan(root, out, models=rounds[0]["out"]))
    return gen, rounds


def traced_round(workload, seed: int, root: str, deadline: float) -> dict:
    """gen-data and one round in one traced process.  The scored variant's
    train stage first runs untraced, the base for the tracing overhead and
    for the checkpoint-identity check."""
    logs = prepare(workload, seed, root)
    plan = [gen_data_job(root)] + round_plan(root, root)
    spec = []
    for job in plan:
        if job.name == f"train:{SCORED}":
            ref = list(job.argv)
            ref[ref.index("--out") + 1] += ".ref"
            spec.append({"name": "reference", "argv": ref, "reference": True})
        spec.append({"name": job.name, "argv": list(job.argv)})
    spec_path = os.path.join(root, "trace.spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    record = os.path.join(root, "trace.json")
    cmd = [sys.executable, STAGE, "trace", "--spec", spec_path, "--record", record]
    return {"out": root, "plan": plan,
            "done": {"trace": run_child(cmd, os.path.join(logs, "trace.log"), record,
                                        deadline)}}


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------


class Gates:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, fn, *args):
        try:
            value = fn(*args)
        except (checks.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            self.results.append((name, False, f"{type(exc).__name__}: {exc}"))
            return None
        self.results.append((name, True, ""))
        return value


def corpus_gates(root: str, gates: Gates):
    """The generated trial list and utt2spk parse; returns them, or None."""
    corpus = os.path.join(root, "corpus")
    trials = gates.check("trials parse", checks.read_lines, os.path.join(corpus, "trials.txt"))
    utts = gates.check("utt2spk parses", checks.read_lines, os.path.join(corpus, "utt2spk"))
    return None if trials is None or utts is None else (trials, utts)


def round_gates(out: str, corpus, gates: Gates):
    """Checkpoints parse; embeddings, scores and report parse and are
    finite.  Returns the overall EER, or None."""
    if corpus is None:
        return None
    trials, utts = corpus
    for variant in VARIANTS:
        gates.check(f"checkpoint {variant}", checks.check_checkpoint, checkpoint(out, variant))
    o = outputs(out)
    gates.check("embeddings", checks.check_embeddings, o["extract"], len(utts))
    gates.check("scores", checks.check_scores, o["score"], trials)
    return gates.check("report", checks.check_report, o["evaluate"], len(trials))


def round_files(out: str, models: bool = True) -> list:
    o = outputs(out)
    return ([checkpoint(out, v) for v in VARIANTS] if models else []) + [
        o["extract"], o["score"], o["evaluate"] + ".json", o["evaluate"] + ".txt"]


def repeat_gates(first: str, again: str, gates: Gates, models: bool) -> None:
    """A repeated round reproduces every checkpoint it writes, the
    embeddings, the scores and the report byte for byte."""
    for a, b in zip(round_files(first, models), round_files(again, models)):
        gates.check(f"repeat identical {os.path.basename(b)}", checks.check_identical, a, b)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def step_ms(train_start: float, step_ends: list) -> float:
    """Mean step time of a training loop, batch assembly included."""
    return 1000.0 * (step_ends[-1] - train_start) / len(step_ends)


def step_durations(train_start: float, step_ends: list) -> list:
    starts = [train_start] + step_ends[:-1]
    return [1000.0 * (end - start) for start, end in zip(starts, step_ends)]


def end_to_end(gen: Result, rounds: list[dict]) -> tuple[dict, dict]:
    """({metric: (value, samples)}, {extra figures}) for an untraced run.
    A stage's time is its median over the rounds; train_step_ms pools the
    steps of every train stage of every round."""
    if gen.code != 0 or any(r.code != 0 for round_ in rounds for r in round_["done"].values()):
        return {}, {}
    jobs = [(job, round_["done"][job.name]) for round_ in rounds for job in round_["plan"]]
    walls: dict[str, list] = {}
    for job, r in jobs:
        walls.setdefault(job.name, []).append(r.wall_s)
    stage_s = {name: statistics.median(w) for name, w in walls.items()}
    trains = [r for job, r in jobs if job.stage == "train"]
    out = {"pipeline_s": (gen.wall_s + sum(stage_s.values()),
                          [gen.wall_s] + [w for ws in walls.values() for w in ws])}
    loops = sum(r.record["step_ends"][-1] - r.record["train_start"] for r in trains)
    steps = [d for r in trains
             for d in step_durations(r.record["train_start"], r.record["step_ends"])]
    out["train_step_ms"] = (1000.0 * loops / len(steps), steps)
    setup = [r.record["corpus_loaded"] - r.spawn for r in trains]
    out["setup_s"] = (statistics.median(setup), setup)
    rss = [gen.rss_mb] + [r.rss_mb for _, r in jobs]
    out["peak_rss_mb"] = (max(rss), rss)
    by_variant = {}
    for job, r in jobs:
        if job.stage == "train":
            by_variant.setdefault(tag(job.variant), []).append(
                step_ms(r.record["train_start"], r.record["step_ends"]))
    extra = {"stage_s": {"gen-data": gen.wall_s, **stage_s},
             "train_s": sum(v for name, v in stage_s.items() if name.startswith("train:")),
             "backend_s": sum(stage_s[stage] for stage in CHAIN),
             "train_step_ms_by_variant": {t: statistics.mean(v) for t, v in by_variant.items()}}
    return out, extra


def _dur(span) -> float:
    return span[2] - span[1]


def per_layer(round_: dict) -> tuple[dict, dict]:
    """({metric: (value, samples)}, trace summary) for one traced round."""
    trace = round_["done"]["trace"].record
    if not trace:
        return {}, {}
    spans, aggs = trace["spans"], trace["aggregates"]
    out = {"cli.import_s": (trace["import_s"], [])}
    for stage in ("gen-data", "train") + CHAIN:
        durations = [_dur(s) for s in spans if s[0] == f"cli.{stage}"]
        out[f"cli.{stage.replace('-', '_')}_s"] = (sum(durations), durations)

    def agg(name, field_, prefix=""):
        return sum(a[field_] for a in aggs if a[2] == name and a[0].startswith(prefix))

    coverage, traced_ms = {}, None
    for variant in VARIANTS:
        run, t = f"train:{variant}", tag(variant)
        steps = [s for s in spans if s[4] == run]
        adams = [s for s in steps if s[0] == "training.adam"]
        n = len(adams)
        train = next(s for s in steps if s[0] == "training.train")

        def per_step(*names):
            return 1000.0 * sum(_dur(s) for s in steps if s[0] in names) / n

        coverage[t] = per_step("training.make_batches", "training.loss", "training.adam",
                               "model.forward", "model.backward") * n / (
            1000.0 * (adams[-1][2] - train[1]))
        if variant == SCORED:
            traced_ms = statistics.median(step_durations(train[1], [s[2] for s in adams]))
        for metric, name in (("training.make_batches_ms", "training.make_batches"),
                             ("training.loss_ms", "training.loss"),
                             ("training.adam_ms", "training.adam"),
                             ("model.forward_ms", "model.forward"),
                             ("model.backward_ms", "model.backward")):
            out[f"{metric}.{t}"] = (per_step(name), [])
        for kind in catalog.KINDS[t]:
            for d in ("fwd", "bwd"):
                out[f"model.{kind}.{d}_ms.{t}"] = (per_step(f"model.{kind}.{d}"), [])
        conv = [a for a in aggs if a[0] == run
                and a[2] in ("numerics.conv1d", "numerics.conv1d_backward")]
        flop = sum(a[5] for a in conv)
        seconds = sum(a[4] for a in conv)
        out[f"numerics.conv1d.calls_per_step.{t}"] = (
            sum(a[3] for a in conv if a[2] == "numerics.conv1d") / n, [])
        out[f"numerics.conv1d.gflop_per_step.{t}"] = (flop / n / 1e9, [])
        out[f"numerics.conv1d.gflops.{t}"] = (flop / seconds / 1e9 if seconds else 0.0, [])
        norm = sum(s[5] for s in steps if s[0].startswith(("model.bn.", "model.abn.")))
        out[f"layers.norm.mb_per_step.{t}"] = (norm / n / 1e6, [])
    for metric, name in (("data.generate_trials_s", "data.generate_trials"),
                         ("data.generate_corpus_s", "data.generate_corpus"),
                         ("data.save_corpus_s", "data.save_corpus"),
                         ("data.load_corpus_s", "data.load_corpus"),
                         ("data.read_trials_s", "data.read_trials"),
                         ("training.accuracy_pass_s", "training.accuracy_pass"),
                         ("serialize.write_records_s", "serialize.write_records"),
                         ("serialize.read_records_s", "serialize.read_records"),
                         ("backend.extract_embeddings_s", "backend.extract_embeddings"),
                         ("backend.preprocess_fit_s", "backend.preprocess_fit"),
                         ("backend.plda_train_s", "backend.plda_train"),
                         ("backend.score_pairs_s", "backend.score_pairs"),
                         ("backend.write_scores_s", "backend.write_scores"),
                         ("backend.read_scores_s", "backend.read_scores"),
                         ("metrics.build_report_s", "metrics.build_report")):
        durations = [_dur(s) for s in spans if s[0] == name]
        out[metric] = (sum(durations), durations)
    out["data.feature_files_read"] = (agg("data.read_feature_file", 3), [])
    out["data.utterance_lookup_calls"] = (agg("data.utterance_lookup", 3), [])
    out["data.utterance_lookup_s"] = (agg("data.utterance_lookup", 4), [])
    out["metrics.det_points_calls"] = (agg("metrics.det_points", 3), [])
    out["serialize.mb_written"] = (
        sum(s[5] for s in spans if s[0] == "serialize.write_records") / 1e6, [])
    out["backend.plda_iterations"] = (
        sum(s[5] for s in spans if s[0] == "backend.plda_train"), [])
    infer_n = agg("model.infer", 3, "extract")
    out["model.infer_ms_per_utt"] = (
        1000.0 * agg("model.infer", 4, "extract") / infer_n if infer_n else 0.0, [])
    ref = next(j for j in trace["jobs"] if j["name"] == "reference")
    untraced_ms = statistics.median(step_durations(ref["train_start"], ref["step_ends"]))
    # median steps: robust to the untraced run going first in a cold process
    out["tracing_overhead_pct"] = (100.0 * (traced_ms - untraced_ms) / untraced_ms, [])
    summary = {"self_time": self_times(trace), "coverage": coverage,
               "traced_step_ms": traced_ms, "untraced_step_ms": untraced_ms}
    return out, summary


def self_times(trace: dict) -> dict:
    """Per span name: count, total and self seconds (duration minus the
    child spans and counted calls inside it)."""
    spans = trace["spans"]
    inner = [0.0] * len(spans)
    table: dict[str, list] = {}
    for s in spans:
        if s[3] >= 0:
            inner[s[3]] += _dur(s)
    for a in trace["aggregates"]:
        if a[1] >= 0:
            inner[a[1]] += a[4]
        row = table.setdefault(a[2], [0, 0.0, 0.0])
        row[0] += a[3]
        row[1] += a[4]
        row[2] += a[4]
    for s, child in zip(spans, inner):
        row = table.setdefault(s[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += _dur(s)
        row[2] += _dur(s) - child
    return {name: {"count": c, "total_s": t, "self_s": s} for name, (c, t, s) in table.items()}


def trace_gates(root: str, summary: dict, gates: Gates) -> None:
    """Tracing must not change a byte of what training writes, and child
    spans must fit inside their parents."""
    ckpt = checkpoint(root, SCORED)
    gates.check("traced checkpoint identical", checks.check_identical, ckpt + ".ref", ckpt)
    gates.check("span nesting", check_nesting, summary)


def check_nesting(summary: dict) -> None:
    for name, row in summary["self_time"].items():
        if row["self_s"] < -1e-6:
            raise checks.CheckError(f"span {name} has negative self time {row['self_s']}")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def high_percentile(values: list):
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
    beyond it, or None."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, percentile(values, q)
    return None


def combine(rounds: list[dict]) -> dict:
    """Median over rounds of each metric; samples pooled."""
    names = [n for n in rounds[0] if all(n in r for r in rounds)]
    return {n: (statistics.median(r[n][0] for r in rounds),
                [x for r in rounds for x in r[n][1]]) for n in names}


def print_table(metrics: dict, units: dict) -> None:
    print(f"{'metric':<40} {'value':>12} {'unit':<8} {'median':>12} {'high pct':>20} {'n':>6}")
    for name, unit in units.items():
        if name not in metrics:
            print(f"{name:<40} {'missing':>12} {unit:<8}")
            continue
        value, samples = metrics[name]
        median = f"{statistics.median(samples):.6g}" if samples else "-"
        high = high_percentile(samples) if samples else None
        high_text = f"p{high[0]:g}={high[1]:.6g}" if high else "-"
        print(f"{name:<40} {value:>12.6g} {unit:<8} {median:>12} {high_text:>20} "
              f"{len(samples):>6}")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, run_dir: str, deadline: float) -> dict:
    record = os.path.join(run_dir, "provenance.json")
    libs = run_child([sys.executable, STAGE, "provenance", "--record", record],
                     os.path.join(run_dir, "provenance.log"), record, deadline).record
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": 1, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas_env": BLAS_ENV,
        "platform": platform.platform(), "git_sha": git_sha(), **libs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="axvector pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting pipeline rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "axvector", "cli.py")):
        print(f"error: no axvector sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, f"{stem}-{os.getpid()}")
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    gates, eer, extra, summary = Gates(), None, {}, None
    try:
        if args.trace:
            rounds, round_metrics = [], []
            while True:
                round_start = perf_counter()
                root = os.path.join(run_dir, f"round{len(rounds)}")
                round_ = traced_round(workload, args.seed, root, deadline)
                eer = round_gates(root, corpus_gates(root, gates), gates)
                metrics, round_["summary"] = per_layer(round_)
                if round_["summary"]:
                    trace_gates(root, round_["summary"], gates)
                rounds.append(round_)
                round_metrics.append(metrics)
                now, took = perf_counter(), perf_counter() - round_start
                if now + took > deadline - 10.0 or now + took - start > args.seconds:
                    break
            metrics = combine(round_metrics)
            stages = [(f"r{i}:trace", round_["done"]["trace"]) for i, round_ in enumerate(rounds)]
            summary = rounds[-1]["summary"]
        else:
            gen, rounds = untraced_rounds(workload, args.seed, run_dir, args.seconds, start,
                                          deadline)
            corpus = corpus_gates(run_dir, gates) if gen.code == 0 else None
            eer = round_gates(rounds[0]["out"], corpus, gates)
            for round_ in rounds[1:]:
                repeat_gates(rounds[0]["out"], round_["out"], gates,
                             models=round_ is not rounds[-1])
            metrics, extra = end_to_end(gen, rounds)
            stages = [("gen-data", gen)] + [(f"r{i}:{name}", r) for i, round_ in enumerate(rounds)
                                            for name, r in round_["done"].items()]
        prov = provenance(args, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = ({n: u for n, (u, _, _) in catalog.PER_LAYER.items()} if args.trace else
             {n: u for n, (u, _, _, _) in catalog.END_TO_END.items()})
    failed_stages = [(name, r) for name, r in stages if r.code != 0]
    failed_gates = [g for g in gates.results if not g[1]]
    attempted = len(stages) + len(gates.results)
    failed = len(failed_stages) + len(failed_gates)
    missing = [n for n in units if n not in metrics]

    full_rounds = len(rounds) if args.trace else len(rounds) - 1
    print(f"# {stem} rounds={full_rounds} wall={perf_counter() - start:.1f}s")
    for name, r in failed_stages:
        print(f"FAILED stage {name}: code {r.code} {r.note}")
    for name, _, detail in failed_gates:
        print(f"FAILED check {name}: {detail}")
    print(f"checks: {len(gates.results) - len(failed_gates)}/{len(gates.results)} passed; "
          f"stages: {len(stages) - len(failed_stages)}/{len(stages)} passed; "
          f"failed_ratio={failed / attempted:.4f}")
    if eer is not None:
        print(f"eer_pct.{tag(SCORED)} = {100.0 * eer:.3f}")
    print_table(metrics, units)
    if extra:
        print(f"train_s={extra['train_s']:.4g} backend_s={extra['backend_s']:.4g} (not gated); "
              "stage seconds, median over rounds: "
              + ", ".join(f"{k}={v:.4g}" for k, v in extra["stage_s"].items()))
        print("train_step_ms by variant (not gated): "
              + ", ".join(f"{k}={v:.4g}" for k, v in extra["train_step_ms_by_variant"].items()))
    if summary:
        print("train loop covered by batches+forward+loss+backward+adam spans: "
              + ", ".join(f"{k}={v:.3f}" for k, v in summary["coverage"].items()))
        print("top self time:")
        top = sorted(summary["self_time"].items(), key=lambda kv: -kv[1]["self_s"])[:15]
        for name, row in top:
            print(f"  {name:<36} self {row['self_s']:9.4f}s  total {row['total_s']:9.4f}s  "
                  f"n={row['count']}")

    result = {
        "correct": failed == 0 and not missing, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": units[n]} for n in units if n in metrics},
    }
    record = {
        "provenance": prov, "result": result, "missing": missing, "checks": gates.results,
        "eer": eer, "rounds": full_rounds, **extra,
        "stages": [{"name": name, "code": r.code, "wall_s": r.wall_s, "rss_mb": r.rss_mb,
                    "note": r.note} for name, r in stages],
        "metrics": {n: {"value": v, "unit": units[n], "samples": s}
                    for n, (v, s) in metrics.items()},
    }
    if args.trace:
        record["trace_summary"] = [r.get("summary") for r in rounds]
        with open(os.path.join(results_dir, stem + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump([r["done"]["trace"].record for r in rounds], fh)
    with open(os.path.join(results_dir, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

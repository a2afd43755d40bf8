"""Command line pipeline driver.

Every stage of an experiment is a subcommand (gen-data, train, extract,
backend-fit, score, fuse, evaluate, det-export, sweep-n), so the whole run
is reproducible from one config file.  Every setting and seed lives in the
config, and no flag overrides one: flags name paths, the network variant
and the pool sizes ``sweep-n`` covers.  Each ``cmd_*`` handler is a
function of its subcommand's flags; ``dispatch`` loads ``--config`` once
and passes the ``RunConfig``.  ``sweep-n`` calls the train, extract,
backend-fit and score handlers itself, in one process and under one
config, varying only ``arch.pool_size``.  Numeric modules are imported
lazily inside the handlers, so a stage loads only what it uses: importing
``axvector.backend`` alone takes milliseconds after numpy, which every train
stage would pay before its first step.  All outputs are written atomically,
and only once the stage has computed them all, so a failed run leaves no
partial files behind.

A trial list and a score file each name a trial once.  ``score`` writes in
trial-list order; ``evaluate``, ``det-export``, ``fuse`` and ``sweep-n`` read
scores only through ``backend.read_scores``, which refuses a repeated trial.
``evaluate`` and ``det-export`` join a score file to the full trial list in
``metrics.labeled_scores``, which refuses a trial without a score and a
score for a trial the list does not name.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from statistics import NormalDist

def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _load_run_config(path: str | None):
    from .config import RunConfig
    config = RunConfig.from_file(path) if path else RunConfig.from_dict({})
    _log(f"resolved config:\n{json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True)}")
    return config


# ---------------------------------------------------------------------------
# corpus helpers
# ---------------------------------------------------------------------------


def _train_subset(corpus):
    """The training speakers' utterances, by the split recorded at gen time."""
    eval_ids = set(corpus.meta.get("eval_speaker_ids", []))
    return corpus.subset_by_speakers(s for s in corpus.speakers() if s not in eval_ids)


def _read_labeled_trials(path: str):
    """The trial list of ``path``, which the detection metrics need to hold
    target and nontarget trials."""
    from . import data

    trial_list = data.read_trials(path)
    if len({t.target for t in trial_list}) < 2:
        raise ValueError(f"{path}: the detection metrics need target and nontarget trials")
    return trial_list


@contextlib.contextmanager
def _naming(path: str):
    """Name ``path``, the input at fault, in a lookup or value error raised inside."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: {exc.args[0]}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_gen_data(config, out: str) -> None:
    from . import data

    corpus = data.generate_corpus(config.corpus)
    speakers = corpus.speakers()
    split = config.split
    eval_ids = speakers[len(speakers) - split.eval_speakers:] if split.eval_speakers else []
    corpus.meta["eval_speaker_ids"] = eval_ids
    # build everything in memory first so a failure writes nothing
    trials = None
    if eval_ids:
        trials = data.generate_trials(corpus.subset_by_speakers(eval_ids), [split.trial_seed],
                                      split.n_target, split.n_nontarget)
    data.save_corpus(corpus, out)
    if trials is not None:
        data.write_trials(os.path.join(out, "trials.txt"), trials)
        _log(f"wrote {len(corpus)} utterances and {len(trials)} trials to {out}")
    else:
        _log(f"wrote {len(corpus)} utterances to {out} (no eval split)")


ARCH_CHOICES = {"baseline": "baseline", "acnn": "acnn", "abn": "abn", "acnn-abn": "acnn_abn"}


def cmd_train(config, corpus: str, arch: str, out: str, log_path: str | None = None) -> None:
    from . import data, model as M, training
    from .serialize import atomic_write_text

    train_corpus = _train_subset(data.load_corpus(corpus))
    # fail before the first step, not in the accuracy pass after the last
    with _naming(corpus):
        arch_config = dataclasses.replace(config.arch, variant=ARCH_CHOICES[arch],
                                          num_speakers=len(train_corpus.speakers()))
        M.check_corpus(arch_config, train_corpus)
    net = M.build(arch_config, config.train.seed)
    _log(f"training {arch_config.variant}: {M.count_params(net)} parameters, "
         f"{len(train_corpus)} utterances, {arch_config.num_speakers} speakers")

    every = max(1, config.train.total_steps // 10)

    def progress(rec):
        if rec.step % every == 0 or rec.step == config.train.total_steps - 1:
            _log(f"  step {rec.step:5d}  lr {rec.lr:.3e}  loss {rec.loss:.4f}  "
                 f"acc {rec.accuracy:.3f}")

    log = training.train(net, train_corpus, config.train, progress=progress)
    batch = config.train.batch_size
    per_epoch = max(1, (len(train_corpus) + batch - 1) // batch)
    first = [r.loss for r in log[:per_epoch]]
    last = [r.loss for r in log[-per_epoch:]]
    accuracy = training.classification_accuracy(net, train_corpus)
    summary = {
        "variant": arch_config.variant,
        "steps": len(log),
        "first_epoch_mean_loss": sum(first) / len(first),
        "last_epoch_mean_loss": sum(last) / len(last),
        "final_train_accuracy": accuracy,
    }
    # written only once every step above has passed, so a failed run leaves
    # no checkpoint, log or summary behind
    M.save_model(net, out)
    atomic_write_text(log_path or out + ".log",
                      "".join(rec.line() + "\n" for rec in log))
    atomic_write_text(out + ".train.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _log(f"final train accuracy {accuracy:.3f}; checkpoint at {out}")


def cmd_extract(model: str, corpus: str, out: str) -> None:
    from . import backend, data, model as M

    net = M.load_model(model)
    loaded = data.load_corpus(corpus)
    with _naming(corpus):
        table = backend.extract_embeddings(net, loaded)
    table.save(out)
    _log(f"extracted {len(table)} embeddings of dimension {table.dim}")


def cmd_backend_fit(config, embeddings: str, corpus: str, out: str) -> None:
    import numpy as np

    from . import backend, data

    # the labels alone: the embeddings stand in for the features
    train_corpus = _train_subset(data.load_labels(corpus))
    table = backend.EmbeddingTable.load(embeddings)
    ids = [u.utt_id for u in train_corpus.utterances]
    with _naming(embeddings):
        vectors = table.select(ids)
    label_of = train_corpus.speaker_labels()
    labels = np.array([label_of[train_corpus.utterance(u).speaker_id] for u in ids])
    lda_dim = config.backend.lda_dim
    if lda_dim is None:
        lda_dim = min(100, len(label_of) - 1, vectors.shape[1])
    iters = config.backend.plda_iterations
    transform = backend.preprocess_fit(vectors, labels, lda_dim)
    projected = backend.preprocess_apply(transform, vectors)
    plda = backend.plda_train(projected, labels, iterations=iters)
    backend.save_backend(out, transform, plda)
    _log(f"backend fit on {len(ids)} embeddings: lda_dim={lda_dim}, "
         f"plda iterations={iters}, final loglik={plda.em_loglik[-1]:.2f}")


def cmd_score(backend_path: str, embeddings: str, trials: str, out: str) -> None:
    import numpy as np

    from . import backend, data

    transform, plda = backend.load_backend(backend_path)
    with _naming(backend_path):
        scorer = backend.PldaScorer(plda)
    table = backend.EmbeddingTable.load(embeddings)
    if table.dim != transform.mean.shape[0]:
        raise ValueError(f"{embeddings}: dimension {table.dim} does not match the "
                         f"dimension {transform.mean.shape[0]} of backend {backend_path}")
    trial_list = data.read_trials(trials)
    needed = sorted({t.enroll for t in trial_list} | {t.test for t in trial_list})
    with _naming(embeddings):
        vectors = table.select(needed)
    projected = dict(zip(needed, backend.preprocess_apply(transform, vectors)))
    enroll = np.stack([projected[t.enroll] for t in trial_list])
    test = np.stack([projected[t.test] for t in trial_list])
    values = scorer.score_pairs(enroll, test)
    scores = {(t.enroll, t.test): float(v) for t, v in zip(trial_list, values)}
    backend.write_scores(out, scores)
    _log(f"scored {len(scores)} trials")


def cmd_fuse(out: str, scores: list[str]) -> None:
    from . import backend

    fused = backend.fuse_scores([backend.read_scores(path) for path in scores], scores)
    backend.write_scores(out, fused)
    _log(f"fused {len(scores)} systems over {len(fused)} trials")


def cmd_evaluate(config, scores: str, trials: str, utt2cond: str | None,
                 out_prefix: str | None) -> None:
    from . import backend, data, metrics
    from .serialize import atomic_write_text

    condition_of = data.read_key_value_file(utt2cond) if utt2cond else None
    trial_list, score_map = _read_labeled_trials(trials), backend.read_scores(scores)
    if condition_of is not None:
        for trial in trial_list:
            if trial.test not in condition_of:
                raise ValueError(f"{utt2cond}: test utterance {trial.test!r} has no condition")
    with _naming(scores):
        report = metrics.build_report(trial_list, score_map, config.metrics, condition_of)
    text = metrics.format_report(report, f"scores: {os.path.basename(scores)}")
    print(text, end="")
    if out_prefix:
        atomic_write_text(out_prefix + ".txt", text)
        atomic_write_text(out_prefix + ".json", json.dumps(report, indent=2, sort_keys=True) + "\n")


def cmd_det_export(trials: str, out_dir: str, svg: str, scores: list[str]) -> None:
    from . import backend, metrics
    from .serialize import atomic_write_text

    # each score file's CSV is named by its stem, and no output is written twice
    stems = [os.path.splitext(os.path.basename(path))[0] for path in scores]
    writer = {os.path.normpath(svg): f"--svg {svg}"}
    for path, stem in zip(scores, stems):
        name = f"det_{stem}.csv"
        if name in writer:
            raise ValueError(f"{path} and {writer[name]} would both write "
                             f"{os.path.join(out_dir, name)}")
        writer[name] = path
    trial_list = _read_labeled_trials(trials)
    # every file is built in memory first, so a bad score file writes nothing
    files, curves = {}, []
    for path, stem in zip(scores, stems):
        score_map = backend.read_scores(path)
        with _naming(path):
            target, nontarget = metrics.labeled_scores(trial_list, score_map)
        thresholds, p_fa, p_miss = metrics.det_points(target, nontarget)
        rows = ["threshold,p_fa,p_miss"]
        rows += [f"{t},{fa},{miss}" for t, fa, miss in zip(thresholds, p_fa, p_miss)]
        files[f"det_{stem}.csv"] = "\n".join(rows) + "\n"
        curves.append((stem, p_fa, p_miss))
    files[svg] = det_curve_svg(curves)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        atomic_write_text(os.path.join(out_dir, name), text)
    _log(f"wrote {len(curves)} DET curve(s) to {out_dir}")


def cmd_sweep_n(config, corpus: str, out_dir: str, values: str) -> None:
    """Train, extract, fit and score the adaptive-conv variant at each pool
    size in ``values``, all under the one ``config``, and tabulate the
    metrics of each."""
    from . import backend, metrics
    from .serialize import atomic_write_text

    try:
        sizes = [int(v) for v in values.split(",") if v.strip()]
    except ValueError:
        sizes = []
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"--values must list positive pool sizes, got {values!r}")
    trials = os.path.join(corpus, "trials.txt")
    # a corpus without eval trials, or with one kind only, fails here, before
    # any directory or training
    trial_list = _read_labeled_trials(trials)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for n in sizes:
        run_dir = os.path.join(out_dir, f"pool{n}")
        os.makedirs(run_dir, exist_ok=True)
        ckpt = os.path.join(run_dir, "acnn.ckpt")
        emb = os.path.join(run_dir, "embeddings.axvr")
        bke = os.path.join(run_dir, "backend.axvr")
        scores = os.path.join(run_dir, "scores.txt")
        _log(f"=== pool size {n} ===")
        pooled = dataclasses.replace(config, arch=dataclasses.replace(config.arch, pool_size=n))
        cmd_train(pooled, corpus, "acnn", ckpt)
        cmd_extract(ckpt, corpus, emb)
        cmd_backend_fit(config, emb, corpus, bke)
        cmd_score(bke, emb, trials, scores)
        report = metrics.build_report(trial_list, backend.read_scores(scores), config.metrics)
        rows.append((n, report["overall"]))
    header = ["pool_size", "eer_pct"] + [k for k in rows[0][1] if k.startswith("min_dcf_p")] \
        + ["act_dcf"]
    lines = ["\t".join(header)]
    for n, overall in rows:
        cells = [str(n), f"{overall['eer'] * 100:.3f}"]
        cells += [f"{overall[k]:.4f}" for k in header[2:-1]]
        cells.append(f"{overall['act_dcf']:.4f}")
        lines.append("\t".join(cells))
    table = "\n".join(lines) + "\n"
    atomic_write_text(os.path.join(out_dir, "sweep.tsv"), table)
    print(table, end="")


# ---------------------------------------------------------------------------
# DET curve SVG (probit axes), written byte-deterministically
# ---------------------------------------------------------------------------

_DET_TICKS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4)
_DET_RANGE = (0.001, 0.5)
_PALETTE = ("#1b6ca8", "#c23b22", "#2e8540", "#8a5fbf", "#b8860b", "#444444")
_DET_SIZE = 520      # width and height of the square image
_DET_MARGIN = 60     # between the image edge and the plot frame


def det_curve_svg(curves) -> str:
    """Overlay DET curves on probit-scaled axes; legend labels are the score
    file stems, escaped as XML text."""
    from xml.sax.saxutils import escape   # imported here: it loads urllib.request
    probit = NormalDist().inv_cdf
    lo, hi = probit(_DET_RANGE[0]), probit(_DET_RANGE[1])
    span = hi - lo
    size, margin = _DET_SIZE, _DET_MARGIN
    plot = size - 2 * margin

    def coord(p_fa: float, p_miss: float) -> tuple[float, float]:
        fa = min(max(p_fa, _DET_RANGE[0]), _DET_RANGE[1])
        miss = min(max(p_miss, _DET_RANGE[0]), _DET_RANGE[1])
        x = margin + (probit(fa) - lo) / span * plot
        y = size - margin - (probit(miss) - lo) / span * plot
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        f'fill="none" stroke="#333333"/>',
    ]
    for tick in _DET_TICKS:
        x, _ = coord(tick, _DET_RANGE[0])
        _, y = coord(_DET_RANGE[0], tick)
        label = f"{tick * 100:g}"
        parts.append(f'<line x1="{x:.2f}" y1="{margin}" x2="{x:.2f}" y2="{size - margin}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<line x1="{margin}" y1="{y:.2f}" x2="{size - margin}" y2="{y:.2f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{size - margin + 16}" font-size="10" '
                     f'text-anchor="middle">{label}</text>')
        parts.append(f'<text x="{margin - 6}" y="{y + 3:.2f}" font-size="10" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<text x="{size / 2:.0f}" y="{size - 14}" font-size="12" '
                 f'text-anchor="middle">false alarm probability (%)</text>')
    parts.append(f'<text x="16" y="{size / 2:.0f}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 16 {size / 2:.0f})">miss probability (%)</text>')
    for i, (label, p_fa, p_miss) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                          (coord(fa, miss) for fa, miss in zip(p_fa, p_miss)))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = margin + 16 + 16 * i
        parts.append(f'<line x1="{size - margin - 130}" y1="{ly}" x2="{size - margin - 106}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{size - margin - 100}" y="{ly + 4}" font-size="11">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axvector",
        description="Speaker verification pipeline: synthetic data, embedding "
                    "network training, scoring backend and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic corpus and eval trials")
    p.add_argument("--config", help="experiment config (JSON)")
    p.add_argument("--out", required=True, help="corpus output directory")
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("train", help="train one embedding network variant")
    p.add_argument("--config", help="experiment config (JSON)")
    p.add_argument("--corpus", required=True, help="corpus directory from gen-data")
    p.add_argument("--arch", required=True, choices=sorted(ARCH_CHOICES),
                   help="network variant")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", dest="log_path", default=None,
                   help="training log path (default: <out>.log)")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("extract", help="extract embeddings for a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("backend-fit", help="fit centering, projection and the scorer")
    p.add_argument("--config", help="experiment config (JSON)")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_backend_fit)

    p = sub.add_parser("score", help="score a trial list")
    p.add_argument("--backend", dest="backend_path", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("fuse", help="equal-weight score fusion over systems")
    p.add_argument("--out", required=True)
    p.add_argument("scores", nargs="+", help="score files covering the same trials")
    p.set_defaults(handler=cmd_fuse)

    p = sub.add_parser("evaluate", help="compute EER/DCF metrics from scores and trials")
    p.add_argument("--config", help="experiment config (JSON)")
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--utt2cond", default=None, help="per-utterance condition map")
    p.add_argument("--out-prefix", default=None, help="write <prefix>.txt and <prefix>.json")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("det-export", help="export DET curve points (CSV) and an SVG overlay")
    p.add_argument("--trials", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--svg", default="det.svg", help="SVG filename inside --out-dir")
    p.add_argument("scores", nargs="+")
    p.set_defaults(handler=cmd_det_export)

    p = sub.add_parser("sweep-n", help="train the adaptive-conv variant over several "
                                       "pool sizes and tabulate the metrics")
    p.add_argument("--config", help="experiment config (JSON)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--values", default="2,4,6,8", help="comma-separated pool sizes")
    p.set_defaults(handler=cmd_sweep_n)

    return parser


# glibc mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_memory() -> None:
    """Keep the memory this process frees for its own reuse.

    A train step frees its activations, and the next step allocates the same
    sizes again.  By default glibc maps blocks of a few MB afresh and returns
    the freed top of its heap to the system, so every step would fault the
    same pages in again.  Serving blocks up to 32 MiB (glibc's 64-bit
    maximum) from the heap, and trimming it only past 1 GiB of free top,
    keeps those pages: RSS stays at its peak until the process exits.
    Where the C library has no ``mallopt`` this does nothing.
    """
    try:
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def dispatch(argv) -> int:
    _retain_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    flags = vars(args)
    handler = flags.pop("handler")
    del flags["command"]
    try:
        if "config" in flags:
            flags["config"] = _load_run_config(flags["config"])
        handler(**flags)
        return 0
    except Exception as exc:  # noqa: BLE001 - single diagnostic line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

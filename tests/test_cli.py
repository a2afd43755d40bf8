import argparse
import dataclasses
import inspect
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest

from axvector import backend as B
from axvector import data as D
from axvector import metrics as X
from axvector.cli import build_parser, dispatch
from axvector.config import ConfigError, RunConfig
from axvector.serialize import SETTING_VALUES, read_records, write_records
from feature_edits import ALTERATIONS, alter

MINI_CONFIG = {
    "corpus": {
        "num_speakers": 6, "utts_per_speaker": 6, "feature_dim": 8,
        "frames_min": 20, "frames_max": 32, "sigma_between": 1.5,
        "sigma_session": 0.2, "ar_coefficient": 0.3, "seed": 31,
    },
    "split": {"eval_speakers": 2, "n_target": 20, "n_nontarget": 30, "trial_seed": 5},
    "arch": {
        "input_dim": 8, "frame_dims": [8, 8, 8, 8, 12], "kernel_sizes": [3, 3, 1, 1, 1],
        "dilations": [1, 1, 1, 1, 1], "utterance_dims": [8, 8],
        "attention_hidden": 4, "pool_size": 2,
    },
    "train": {
        "batch_size": 8, "crop_frames_min": 12, "crop_frames_max": 20,
        "total_steps": 25, "seed": 9,
    },
    "backend": {"lda_dim": 3, "plda_iterations": 6},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(MINI_CONFIG))
    return root, str(config_path)


@pytest.fixture(scope="module")
def pipeline(workdir):
    """Run the whole mini pipeline once; later tests inspect its outputs."""
    root, config = workdir
    corpus = str(root / "corpus")
    ckpt = str(root / "baseline.ckpt")
    emb = str(root / "emb.axvr")
    bke = str(root / "backend.axvr")
    scores = str(root / "scores.txt")
    assert dispatch(["gen-data", "--config", config, "--out", corpus]) == 0
    assert dispatch(["train", "--config", config, "--corpus", corpus,
                     "--arch", "baseline", "--out", ckpt]) == 0
    assert dispatch(["extract", "--model", ckpt, "--corpus", corpus, "--out", emb]) == 0
    assert dispatch(["backend-fit", "--config", config, "--embeddings", emb,
                     "--corpus", corpus, "--out", bke]) == 0
    assert dispatch(["score", "--backend", bke, "--embeddings", emb,
                     "--trials", os.path.join(corpus, "trials.txt"),
                     "--out", scores]) == 0
    return {"root": root, "config": config, "corpus": corpus, "ckpt": ckpt,
            "emb": emb, "backend": bke, "scores": scores}


def test_unknown_subcommand_usage(capsys):
    code = dispatch(["frobnicate"])
    assert code != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_invalid_config_is_rejected_without_outputs(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"corpus": {"num_speakers": 4, "bogus_key": 1}}))
    out = tmp_path / "corpus"
    code = dispatch(["gen-data", "--config", str(config), "--out", str(out)])
    assert code != 0
    assert "bogus_key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (b'{"corpus": {"num_speakers": "x"}}', "corpus.num_speakers must be an integer, got 'x'"),
    (b'{"split": {"eval_speakers": null}}', "split.eval_speakers must be an integer, got None"),
    (b'{"backend": {"lda_dim": "3"}}', "backend.lda_dim must be an integer or null, got '3'"),
    (b'{"train": {"batch_size": 2.5}}', "train.batch_size must be an integer, got 2.5"),
    (b'{"train": {"total_steps": true}}', "train.total_steps must be an integer, got True"),
    (b'{"train": {"lr_start": "0.1"}}', "train.lr_start must be a number, got '0.1'"),
    (b'{"arch": {"frame_dims": 8}}', "arch.frame_dims must be a list, got 8"),
    (b'{"corpus": {"conditions": "clean"}}', "corpus.conditions must be a list, got 'clean'"),
    (b'{"arch": {"frame_dims": [8.7, 8, 8, 8, 12]}}',
     "arch.frame_dims[0] must be an integer, got 8.7"),
    (b'{"arch": {"kernel_sizes": [5, 3, 3, 1, true]}}',
     "arch.kernel_sizes[4] must be an integer, got True"),
    (b'{"metrics": {"dcf_p_targets": ["0.1"]}}',
     "metrics.dcf_p_targets[0] must be a number, got '0.1'"),
    (b'{"corpus": {"conditions": ["clean", 1]}}', "corpus.conditions[1] must be a string, got 1"),
    (b'{"corpus": {"seed": 1}}\xff', "not valid JSON ('utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000, "not valid JSON"),
    (b"[]", "expected a JSON object, got list"),
], ids=["str-for-int", "null-for-int", "str-for-optional-int", "float-for-int",
        "bool-for-int", "str-for-float", "int-for-list", "str-for-list", "float-in-int-list",
        "bool-in-int-list", "str-in-float-list", "int-in-str-list", "not-utf8",
        "nested-too-deep", "not-an-object"])
def test_config_file_of_wrong_form_names_the_file(tmp_path, content, message):
    """A config value of another JSON type than its field declares, and a
    file that is no JSON object, fail at load with one error naming the
    file and the section.key."""
    path = tmp_path / "config.json"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
        RunConfig.from_file(str(path))


def test_config_takes_an_int_for_a_float_and_null_for_an_optional_int(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"lr_start": 1, "lr_end": 0.5},
                                "backend": {"lda_dim": None}}))
    config = RunConfig.from_file(str(path))
    assert config.train.lr_start == 1 and config.backend.lda_dim is None


@pytest.mark.parametrize("config, message", [
    ({"bogus": {}}, "unknown config section(s): bogus"),
    ({"arch": [8]}, "section 'arch' must be a mapping"),
    ({"split": {"eval_speakers": -1}}, "eval_speakers must be nonnegative"),
    ({"split": {"n_target": 0}}, "trial counts must be positive"),
    ({"split": {"n_nontarget": -5}}, "trial counts must be positive"),
    ({"backend": {"plda_iterations": 0}}, "plda_iterations must be >= 1"),
    ({"backend": {"lda_dim": 0}}, "lda_dim must be >= 1 when given"),
    ({"corpus": {"num_speakers": 9}, "split": {"eval_speakers": 8}},
     "corpus must keep at least 2 training speakers after the split"),
    ({"arch": {"input_dim": 20}}, "arch.input_dim=20 does not match corpus.feature_dim=30"),
], ids=["unknown-section", "section-not-a-mapping", "negative-eval-speakers", "zero-targets",
        "negative-nontargets", "zero-plda-iterations", "zero-lda-dim", "one-training-speaker",
        "input-dim-is-not-feature-dim"])
def test_config_refuses_values_out_of_range(config, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig.from_dict(config)


@pytest.mark.parametrize("section, key, value, message", [
    ("train", "batch_size", 0, "batch size must be >= 1"),
    ("split", "eval_speakers", -1, "eval_speakers must be nonnegative"),
    ("backend", "plda_iterations", 0, "plda_iterations must be >= 1"),
    ("metrics", "act_p_target", 1.0, "p_target 1.0 does not lie in (0, 1)"),
    ("corpus", "ar_coefficient", 1.0, "ar_coefficient must lie in [0, 1)"),
    ("arch", "pool_size", 0, "attention_hidden and pool_size must be >= 1"),
])
def test_range_error_names_its_section(section, key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(f'invalid {section} section: {message}')}$"):
        RunConfig.from_dict({section: {key: value}})


def test_every_setting_declares_a_type_the_reader_knows():
    """A field of a type ``serialize.settings`` does not know would fail
    only once a config sets it; this fails as soon as the field is added."""
    for section in dataclasses.fields(RunConfig):
        for fld in dataclasses.fields(section.default_factory):
            assert fld.type in SETTING_VALUES, f"{section.name}.{fld.name}: {fld.type}"


def test_corpus_shorter_than_receptive_field_is_rejected():
    """corpus.frames_min must reach the network's receptive field,
    arch.min_frames, and the error names both values."""
    wide = {"kernel_sizes": [5, 5, 5, 1, 1], "dilations": [1, 2, 3, 1, 1]}
    for frames_min, arch, min_frames in ((10, {}, 15), (16, wide, 25)):
        config = {"corpus": {"frames_min": frames_min}, "arch": arch}
        with pytest.raises(ConfigError, match=f"frames_min={frames_min} .*"
                                              f"min_frames={min_frames}"):
            RunConfig.from_dict(config)


@pytest.mark.parametrize("key, value", [("variant", "acnn"), ("num_speakers", 4)])
def test_config_refuses_arch_fields_that_are_not_settings(key, value):
    """The variant comes from train --arch and the speaker count from the
    corpus split, so a config that sets either fails at load, even with the
    value those sources would give."""
    config = {**MINI_CONFIG, "arch": {**MINI_CONFIG["arch"], key: value}}
    with pytest.raises(ConfigError, match=rf"^arch\.{key} is not a config setting"):
        RunConfig.from_dict(config)


def test_loaded_config_holds_no_speaker_count():
    """train takes the speaker count from the corpus, so the config's is unset."""
    assert RunConfig.from_dict(MINI_CONFIG).arch.num_speakers is None


@pytest.mark.parametrize("metrics", [{"dcf_p_targets": [1.5]}, {"act_p_target": 0.0},
                                     {"act_p_target": "high"}])
def test_bad_metrics_section_fails_train_before_any_work(pipeline, tmp_path, capsys, metrics):
    """A p_target that is not a number in (0, 1) fails at config load,
    naming the metrics section, instead of after training and scoring in
    evaluate."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MINI_CONFIG, "metrics": metrics}))
    run = tmp_path / "run"
    run.mkdir()
    assert dispatch(["train", "--config", str(path), "--corpus", pipeline["corpus"],
                     "--arch", "baseline", "--out", str(run / "b.ckpt")]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "metrics" in errors[0]
    assert list(run.iterdir()) == []


def _with(config, **sections):
    return {**config, **{name: {**config[name], **values} for name, values in sections.items()}}


def test_failed_train_leaves_no_outputs(tmp_path, capsys):
    """A corpus with utterances shorter than the network's receptive field
    fails train before its first step, though crops would wrap-pad them, and
    leaves no checkpoint, log or summary behind."""
    short = _with(MINI_CONFIG, corpus={"frames_min": 16, "frames_max": 24})
    wide = _with(short, corpus={"frames_min": 25, "frames_max": 32},
                 arch={"kernel_sizes": [5, 5, 5, 1, 1], "dilations": [1, 2, 3, 1, 1]},
                 train={"crop_frames_min": 25, "crop_frames_max": 30, "total_steps": 3})
    paths = {}
    for name, config in (("short", short), ("wide", wide)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(config))
    corpus = str(tmp_path / "corpus")
    assert dispatch(["gen-data", "--config", str(paths["short"]), "--out", corpus]) == 0
    run = tmp_path / "run"
    run.mkdir()
    assert dispatch(["train", "--config", str(paths["wide"]), "--corpus", corpus,
                     "--arch", "baseline", "--out", str(run / "b.ckpt")]) == 1
    assert list(run.iterdir()) == []
    err = capsys.readouterr().err
    assert "below the model minimum of 25" in err
    assert not re.search(r"^\s*step\s+\d", err, re.M)   # no progress line


def test_each_handler_takes_exactly_its_flags_and_no_setting():
    """A subcommand is a function of its flags: every handler's parameters
    are its subparser's dests, and no dest names a config setting, which
    only the experiment config holds."""
    settings = {f.name for section in dataclasses.fields(RunConfig)
                for f in dataclasses.fields(section.default_factory)}
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert not {a.dest for a in parser._actions} & settings
    for name, sub in subcommands.choices.items():
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        assert not dests & settings, name
        assert dests == set(inspect.signature(sub.get_default("handler")).parameters), name


def test_infeasible_trial_counts_leave_no_outputs(tmp_path, capsys):
    config = dict(MINI_CONFIG)
    config["split"] = {"eval_speakers": 2, "n_target": 10_000, "n_nontarget": 10}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "corpus"
    code = dispatch(["gen-data", "--config", str(path), "--out", str(out)])
    assert code != 0
    assert "target" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_outputs(pipeline):
    corpus = pipeline["corpus"]
    for name in ("utt2spk", "utt2cond", "trials.txt", "corpus.json", "features"):
        assert os.path.exists(os.path.join(corpus, name))
    meta = json.loads(open(os.path.join(corpus, "corpus.json")).read())
    assert len(meta["eval_speaker_ids"]) == 2


def test_gen_data_idempotent(workdir, pipeline):
    root, config = workdir
    again = str(root / "corpus2")
    assert dispatch(["gen-data", "--config", config, "--out", again]) == 0
    for name in ("utt2spk", "utt2cond", "trials.txt"):
        a = open(os.path.join(pipeline["corpus"], name), "rb").read()
        b = open(os.path.join(again, name), "rb").read()
        assert a == b


def test_train_summary_written(pipeline):
    summary = json.loads(open(pipeline["ckpt"] + ".train.json").read())
    assert summary["variant"] == "baseline"
    assert summary["steps"] == 25
    log_lines = open(pipeline["ckpt"] + ".log").read().strip().splitlines()
    assert len(log_lines) == 25
    assert len(log_lines[0].split("\t")) == 4


def test_evaluate_matches_direct_metric_calls(pipeline, capsys, tmp_path):
    corpus = pipeline["corpus"]
    trials_path = os.path.join(corpus, "trials.txt")
    prefix = str(tmp_path / "report")
    assert dispatch(["evaluate", "--scores", pipeline["scores"], "--trials", trials_path,
                     "--utt2cond", os.path.join(corpus, "utt2cond"),
                     "--out-prefix", prefix]) == 0
    capsys.readouterr()
    report = json.loads(open(prefix + ".json").read())

    trials = D.read_trials(trials_path)
    scores = B.read_scores(pipeline["scores"])
    target = [scores[(t.enroll, t.test)] for t in trials if t.target]
    nontarget = [scores[(t.enroll, t.test)] for t in trials if not t.target]
    assert report["overall"]["eer"] == X.eer(target, nontarget)
    assert report["overall"]["min_dcf_p0.01"] == X.min_dcf(target, nontarget, 0.01)
    assert report["overall"]["act_dcf"] == X.act_dcf(target, nontarget, 0.01)
    assert set(report["conditions"])


def test_evaluate_handwritten_fixture(tmp_path, capsys):
    trials = tmp_path / "trials.txt"
    trials.write_text("a x target\na y nontarget\nb x nontarget\nb y target\n")
    scores = tmp_path / "scores.txt"
    scores.write_text("a x 2.000000\na y -1.000000\nb x 0.500000\nb y 1.000000\n")
    prefix = str(tmp_path / "rep")
    assert dispatch(["evaluate", "--scores", str(scores), "--trials", str(trials),
                     "--out-prefix", prefix]) == 0
    capsys.readouterr()
    report = json.loads(open(prefix + ".json").read())
    assert report["overall"]["eer"] == X.eer([2.0, 1.0], [-1.0, 0.5])
    assert report["overall"]["n_target"] == 2


def test_fuse_cli(pipeline, tmp_path):
    fused = str(tmp_path / "fused.txt")
    assert dispatch(["fuse", "--out", fused, pipeline["scores"], pipeline["scores"]]) == 0
    assert open(fused).read() == open(pipeline["scores"]).read()


class _RecordingLibc:
    def __init__(self, calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 1

        self.mallopt = mallopt


def _raise_oserror(name):
    raise OSError("no C library here")


@pytest.mark.parametrize("cdll", [_raise_oserror, lambda name: object()],
                         ids=["CDLL-raises-OSError", "no-mallopt"])
def test_dispatch_runs_without_mallopt(workdir, monkeypatch, tmp_path, cdll):
    import ctypes
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    _, config = workdir
    out = tmp_path / "corpus"
    assert dispatch(["gen-data", "--config", config, "--out", str(out)]) == 0
    assert (out / "trials.txt").exists()


def test_dispatch_keeps_freed_memory_in_process(monkeypatch, capsys):
    """Blocks up to 32 MiB come from the heap (M_MMAP_THRESHOLD) and its free
    top is kept up to 1 GiB (M_TRIM_THRESHOLD), set before any stage runs."""
    import ctypes
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _RecordingLibc(calls))
    assert dispatch(["frobnicate"]) != 0
    capsys.readouterr()
    assert sorted(calls) == [(-3, 32 << 20), (-1, 1 << 30)]


def test_nonfinite_embedding_fails_backend_fit_without_output(pipeline, tmp_path, capsys):
    header, records = read_records(pipeline["emb"])
    bad_id, vector = records[0]   # a training-speaker utterance
    vector[1] = np.nan
    emb = str(tmp_path / "nan.axvr")
    write_records(emb, header, records)
    out = tmp_path / "backend.axvr"
    assert dispatch(["backend-fit", "--config", pipeline["config"], "--embeddings", emb,
                     "--corpus", pipeline["corpus"], "--out", str(out)]) != 0
    err = capsys.readouterr().err
    assert f"record {bad_id!r} holds a NaN or infinite value" in err
    assert not out.exists()


def test_backend_fit_reads_no_feature_file(pipeline, tmp_path):
    """backend-fit uses the corpus labels only: without the features it
    writes the same backend."""
    corpus = tmp_path / "labels"
    shutil.copytree(pipeline["corpus"], corpus, ignore=shutil.ignore_patterns("features"))
    out = tmp_path / "backend.axvr"
    assert dispatch(["backend-fit", "--config", pipeline["config"], "--embeddings",
                     pipeline["emb"], "--corpus", str(corpus), "--out", str(out)]) == 0
    with open(pipeline["backend"], "rb") as handle:
        assert out.read_bytes() == handle.read()


@pytest.mark.parametrize("how", sorted(ALTERATIONS))
@pytest.mark.parametrize("stage", ["train", "extract"])
def test_feature_file_altered_after_load_fails_without_output(pipeline, tmp_path, monkeypatch,
                                                              capsys, stage, how):
    """train and extract read the features after load_corpus has checked
    them; a file broken in between fails the stage with one error naming it,
    and nothing is written."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    victim = str(corpus / "features" / "spk0000_utt001.axvf")   # a training utterance
    load_corpus = D.load_corpus

    def load_then_alter(path):
        loaded = load_corpus(path)
        alter(victim, how)
        return loaded

    monkeypatch.setattr(D, "load_corpus", load_then_alter)
    run = tmp_path / "run"
    run.mkdir()
    argv = (["train", "--config", pipeline["config"], "--corpus", str(corpus), "--arch",
             "acnn-abn", "--out", str(run / "m.ckpt")] if stage == "train" else
            ["extract", "--model", pipeline["ckpt"], "--corpus", str(corpus),
             "--out", str(run / "emb.axvr")])
    assert dispatch(argv) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and victim in errors[0], errors
    assert list(run.iterdir()) == []


def _fresh_interpreter_exit_code(code: str) -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_cli_import_leaves_numpy_unloaded():
    """Importing the command line loads no numpy: each stage's handler imports
    only the numerical modules that stage uses."""
    code = "import sys, axvector.cli; sys.exit('numpy' in sys.modules)"
    assert _fresh_interpreter_exit_code(code) == 0


def test_stage_imports_leave_scipy_unloaded():
    """Every stage runs on numpy alone; loading scipy would add about a
    second to the start-up of each stage process."""
    code = ("import sys, axvector.cli, axvector.data, axvector.training, axvector.model, "
            "axvector.config, axvector.backend, axvector.metrics; "
            "sys.exit('scipy' in sys.modules)")
    assert _fresh_interpreter_exit_code(code) == 0


class TestDetExport:
    def test_csv_rows_are_det_points_verbatim(self, pipeline, tmp_path):
        out_dir = str(tmp_path / "det")
        corpus = pipeline["corpus"]
        trials_path = os.path.join(corpus, "trials.txt")
        assert dispatch(["det-export", "--trials", trials_path, "--out-dir", out_dir,
                         pipeline["scores"]]) == 0
        csv_path = os.path.join(out_dir, "det_scores.csv")
        rows = open(csv_path).read().strip().splitlines()
        assert rows[0] == "threshold,p_fa,p_miss"

        trials = D.read_trials(trials_path)
        score_map = B.read_scores(pipeline["scores"])
        target = [score_map[(t.enroll, t.test)] for t in trials if t.target]
        nontarget = [score_map[(t.enroll, t.test)] for t in trials if not t.target]
        th, p_fa, p_miss = X.det_points(target, nontarget)
        assert len(rows) - 1 == len(th)
        for row, t, fa, miss in zip(rows[1:], th, p_fa, p_miss):
            cells = row.split(",")
            assert float(cells[0]) == t or (np.isinf(t) and np.isinf(float(cells[0])))
            assert float(cells[1]) == fa
            assert float(cells[2]) == miss

    def test_two_systems_one_svg(self, pipeline, tmp_path):
        out_dir = tmp_path / "det2"
        corpus = pipeline["corpus"]
        other = str(tmp_path / "other.txt")
        scores = B.read_scores(pipeline["scores"])
        B.write_scores(other, {key: s + 0.5 for key, s in scores.items()})
        assert dispatch(["det-export", "--trials", os.path.join(corpus, "trials.txt"),
                         "--out-dir", str(out_dir), pipeline["scores"], other]) == 0
        svg = (out_dir / "det.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "scores" in svg and "other" in svg

    def test_repeated_output_name_refused(self, pipeline, tmp_path, capsys):
        """Two score files of one stem, or an --svg named like a CSV, would
        write one file twice: refused, naming both sources, before any write."""
        trials = os.path.join(pipeline["corpus"], "trials.txt")
        other = str(tmp_path / "other" / "scores.txt")
        os.makedirs(os.path.dirname(other))
        shutil.copyfile(pipeline["scores"], other)
        out_dir = tmp_path / "det"
        for argv, sources in (([pipeline["scores"], other], [pipeline["scores"], other]),
                              (["--svg", "det_scores.csv", other], ["--svg", other])):
            assert dispatch(["det-export", "--trials", trials, "--out-dir", str(out_dir),
                             *argv]) == 1
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("error:")]
            assert len(errors) == 1 and all(src in errors[0] for src in sources), errors
            assert not out_dir.exists()

    def test_markup_in_a_stem_is_escaped(self, tmp_path):
        """A score file stem holding &, < and > is written as text: the SVG
        parses, and its legend reads the stem."""
        trials = tmp_path / "t.txt"
        trials.write_text("a x target\nb y nontarget\n")
        scores = tmp_path / "x&y<z>.txt"
        scores.write_text("a x 1.000000\nb y -1.000000\n")
        out_dir = tmp_path / "det"
        assert dispatch(["det-export", "--trials", str(trials), "--out-dir", str(out_dir),
                         str(scores)]) == 0
        svg = xml.dom.minidom.parse(str(out_dir / "det.svg"))
        texts = [node.firstChild.data for node in svg.getElementsByTagName("text")]
        assert texts[-1] == "x&y<z>"

    def test_separable_curve_hugs_axes(self, tmp_path):
        trials = tmp_path / "t.txt"
        trials.write_text("a x target\nb y nontarget\n")
        scores = tmp_path / "s.txt"
        scores.write_text("a x 5.000000\nb y -5.000000\n")
        out_dir = tmp_path / "det"
        assert dispatch(["det-export", "--trials", str(trials), "--out-dir", str(out_dir),
                         str(scores)]) == 0
        rows = open(out_dir / "det_s.csv").read().strip().splitlines()[1:]
        for row in rows:
            _, fa, miss = row.split(",")
            assert float(fa) * float(miss) == 0.0


def test_relative_out_root_resolves_each_output_once(pipeline, monkeypatch, tmp_path):
    """Relative output paths resolve against the working directory, each
    exactly once: train and sweep-n write these files and no others, also
    the training log and the stages that sweep-n runs."""
    monkeypatch.chdir(tmp_path)
    config, corpus = pipeline["config"], pipeline["corpus"]
    assert dispatch(["train", "--config", config, "--corpus", corpus,
                     "--arch", "baseline", "--out", "b.ckpt"]) == 0
    assert dispatch(["sweep-n", "--config", config, "--corpus", corpus,
                     "--out-dir", "sweep", "--values", "2"]) == 0
    run = ["acnn.ckpt", "acnn.ckpt.log", "acnn.ckpt.train.json", "embeddings.axvr",
           "backend.axvr", "scores.txt"]
    expected = ["b.ckpt", "b.ckpt.log", "b.ckpt.train.json", "sweep/sweep.tsv"]
    expected += [f"sweep/pool2/{name}" for name in run]
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(expected)


def test_sweep_n_loads_the_config_once(pipeline, tmp_path, capsys):
    """sweep-n runs every stage of every pool size under the one config that
    dispatch loaded and logged."""
    out_dir = tmp_path / "sweep"
    assert dispatch(["sweep-n", "--config", pipeline["config"], "--corpus", pipeline["corpus"],
                     "--out-dir", str(out_dir), "--values", "2,3"]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("resolved config") == 1
    rows = (out_dir / "sweep.tsv").read_text().splitlines()[1:]
    assert [row.split("\t")[0] for row in rows] == ["2", "3"]
    assert captured.out == (out_dir / "sweep.tsv").read_text()


@pytest.mark.parametrize("values", ["2,x", "0", ","])
def test_sweep_n_refuses_values_that_are_not_pool_sizes(tmp_path, capsys, values):
    """--values that is not a list of positive integers fails with one
    error naming the flag, before the corpus is read or a directory made."""
    out_dir = tmp_path / "sweep"
    assert dispatch(["sweep-n", "--corpus", str(tmp_path / "absent"), "--out-dir", str(out_dir),
                     "--values", values]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: --values must list positive pool sizes, got {values!r}"]
    assert not out_dir.exists()


def test_config_has_37_settable_values():
    """The experiment config holds 37 settable values: the fields of every
    RunConfig section but arch.variant and arch.num_speakers, which come from
    train --arch and the corpus split.  A new setting changes this number."""
    settable = [(section.name, f.name) for section in dataclasses.fields(RunConfig)
                for f in dataclasses.fields(section.default_factory)
                if (section.name, f.name) not in {("arch", "variant"), ("arch", "num_speakers")}]
    assert len(settable) == 37, settable


def test_pipeline_rerun_is_byte_identical(workdir, pipeline):
    root, config = workdir
    corpus2 = str(root / "corpus_rerun")
    ckpt2 = str(root / "baseline_rerun.ckpt")
    emb2 = str(root / "emb_rerun.axvr")
    bke2 = str(root / "backend_rerun.axvr")
    scores2 = str(root / "scores_rerun.txt")
    assert dispatch(["gen-data", "--config", config, "--out", corpus2]) == 0
    assert dispatch(["train", "--config", config, "--corpus", corpus2,
                     "--arch", "baseline", "--out", ckpt2]) == 0
    assert dispatch(["extract", "--model", ckpt2, "--corpus", corpus2, "--out", emb2]) == 0
    assert dispatch(["backend-fit", "--config", config, "--embeddings", emb2,
                     "--corpus", corpus2, "--out", bke2]) == 0
    assert dispatch(["score", "--backend", bke2, "--embeddings", emb2,
                     "--trials", os.path.join(corpus2, "trials.txt"),
                     "--out", scores2]) == 0
    assert open(scores2, "rb").read() == open(pipeline["scores"], "rb").read()
    assert open(ckpt2, "rb").read() == open(pipeline["ckpt"], "rb").read()


def test_score_accepts_a_trial_list_of_one_kind(pipeline, tmp_path):
    """Only the detection metrics need target and nontarget trials."""
    trials = tmp_path / "targets.txt"
    trials.write_text("".join(line for line in open(os.path.join(pipeline["corpus"], "trials.txt"))
                              if line.split()[2] == "target"))
    assert dispatch(["score", "--backend", pipeline["backend"], "--embeddings", pipeline["emb"],
                     "--trials", str(trials), "--out", str(tmp_path / "scores.txt")]) == 0


def _bad_inputs(pipeline, tmp_path):
    """(argv, offending path, output path) for one bad input of each kind.
    det-export is given a good score file before the bad one, so that only
    building every file before writing one leaves no CSV and no directory."""
    trials = os.path.join(pipeline["corpus"], "trials.txt")
    table = B.EmbeddingTable.load(pipeline["emb"])
    wide = str(tmp_path / "wide.axvr")
    B.EmbeddingTable(table.ids, np.hstack([table.vectors, table.vectors[:, :1]])).save(wide)
    partial = str(tmp_path / "partial.axvr")
    B.EmbeddingTable(table.ids[1:], table.vectors[1:]).save(partial)
    ghost_trials = tmp_path / "ghost_trials.txt"
    ghost_trials.write_text(open(trials).read() + f"ghost {table.ids[0]} nontarget\n")
    score_lines = open(pipeline["scores"]).readlines()
    short = tmp_path / "short_scores.txt"
    short.write_text("".join(score_lines[:-1]))
    extra = tmp_path / "extra_scores.txt"
    extra.write_text("".join(score_lines) + "ghost ghost 0.5\n")
    enroll, test, _ = score_lines[0].split()
    repeated_score = tmp_path / "repeated.scores"
    repeated_score.write_text("".join(score_lines) + f"{enroll} {test} 0.5\n")
    repeated_trial = tmp_path / "repeated_trials.txt"
    repeated_trial.write_text(open(trials).read() + open(trials).readline())
    same_stem = [str(tmp_path / side / "s.scores") for side in ("x", "y")]
    for path in same_stem:
        os.makedirs(os.path.dirname(path))
        shutil.copyfile(pipeline["scores"], path)
    bad_key_config = tmp_path / "bad_key.json"
    bad_key_config.write_text(json.dumps({"corpus": {"bogus": 1}}))
    bad_value_configs = {}
    for kind, section, key, value in (("zero-steps", "train", "total_steps", 0),
                                      ("zero-kernel", "arch", "kernel_sizes", [0, 3, 1, 1, 1]),
                                      ("zero-width", "arch", "frame_dims", [8, 0, 8, 8, 12])):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(
            {**MINI_CONFIG, section: {**MINI_CONFIG[section], key: value}}))
        bad_value_configs[kind] = str(path)
    missing = str(tmp_path / "missing.ckpt")
    no_meta = str(tmp_path / "no_meta")
    shutil.copytree(pipeline["corpus"], no_meta, ignore=shutil.ignore_patterns("corpus.json"))
    no_split_config = tmp_path / "no_split.json"
    no_split_config.write_text(json.dumps({**MINI_CONFIG, "split": {"eval_speakers": 0}}))
    no_split = str(tmp_path / "no_split")
    assert dispatch(["gen-data", "--config", str(no_split_config), "--out", no_split]) == 0
    one_speaker = str(tmp_path / "one_speaker")
    shutil.copytree(pipeline["corpus"], one_speaker)
    meta_path = os.path.join(one_speaker, "corpus.json")
    meta = json.load(open(meta_path))
    meta["eval_speaker_ids"] = sorted(set(open(os.path.join(one_speaker, "utt2spk")).read()
                                          .split()[1::2]))[1:]
    with open(meta_path, "w") as handle:
        json.dump(meta, handle)
    no_labels = str(tmp_path / "no_labels")
    shutil.copytree(no_split, no_labels)
    open(os.path.join(no_labels, "utt2spk"), "w").close()
    first_test = open(trials).readline().split()[1]
    cond_lines = open(os.path.join(pipeline["corpus"], "utt2cond")).readlines()
    partial_cond = tmp_path / "partial_utt2cond"
    partial_cond.write_text("".join(line for line in cond_lines if line.split()[0] != first_test))
    narrow = str(tmp_path / "narrow")
    shutil.copytree(pipeline["corpus"], narrow)
    narrow_file = os.path.join(narrow, "features", sorted(os.listdir(
        os.path.join(narrow, "features")))[-1])
    D.write_feature_file(narrow_file, D.read_feature_file(narrow_file)[:, 1:])
    other_dim_config = tmp_path / "other_dim.json"
    other_dim_config.write_text(json.dumps(_with(MINI_CONFIG, corpus={"feature_dim": 6},
                                                 arch={"input_dim": 6})))
    other_dim = str(tmp_path / "other_dim")
    assert dispatch(["gen-data", "--config", str(other_dim_config), "--out", other_dim]) == 0
    header, records = read_records(pipeline["backend"])
    nan_backend, short_backend = str(tmp_path / "nan.axvr"), str(tmp_path / "short.axvr")
    write_records(nan_backend, header, [(name, np.full_like(value, np.nan) if
                                         name == "center_mean" else value)
                                        for name, value in records])
    write_records(short_backend, header, [(name, value[:-1] if name == "plda_mean" else value)
                                          for name, value in records])
    indefinite_backend = str(tmp_path / "indefinite.axvr")
    write_records(indefinite_backend, header,
                  [(name, -np.eye(len(value)) if name == "plda_within" else value)
                   for name, value in records])
    one_kind = str(tmp_path / "one_kind")
    shutil.copytree(pipeline["corpus"], one_kind)
    targets_only = os.path.join(one_kind, "trials.txt")
    with open(targets_only, "w") as handle:
        handle.writelines(line for line in open(trials) if line.split()[2] == "target")
    out = str(tmp_path / "out")
    extract = ["extract", "--corpus", pipeline["corpus"], "--out", out, "--model"]
    score = ["score", "--backend", pipeline["backend"], "--out", out]
    return {
        "missing-file": (extract + [missing], missing, out),
        "backend-as-model": (extract + [pipeline["backend"]], pipeline["backend"], out),
        "dimension-mismatch": (score + ["--embeddings", wide, "--trials", trials], wide, out),
        "trial-absent-from-embeddings": (
            score + ["--embeddings", pipeline["emb"], "--trials", str(ghost_trials)],
            pipeline["emb"], out),
        "training-utterance-absent-from-embeddings": (
            ["backend-fit", "--config", pipeline["config"], "--corpus", pipeline["corpus"],
             "--embeddings", partial, "--out", out], partial, out),
        "score-file-lacks-a-trial": (
            ["evaluate", "--scores", str(short), "--trials", trials, "--out-prefix", out],
            str(short), out + ".txt"),
        "score-file-adds-a-trial": (
            ["evaluate", "--scores", str(extra), "--trials", trials, "--out-prefix", out],
            str(extra), out + ".txt"),
        "second-score-file-adds-a-trial": (
            ["det-export", "--trials", trials, "--out-dir", out, pipeline["scores"], str(extra)],
            str(extra), out),
        "second-score-file-lacks-a-trial": (
            ["det-export", "--trials", trials, "--out-dir", out, pipeline["scores"], str(short)],
            str(short), out),
        "corpus-lacks-corpus-json": (
            ["train", "--config", pipeline["config"], "--corpus", no_meta, "--arch", "baseline",
             "--out", out], os.path.join(no_meta, "corpus.json"), out),
        "sweep-corpus-lacks-trials": (
            ["sweep-n", "--config", str(no_split_config), "--corpus", no_split,
             "--out-dir", out, "--values", "2"], os.path.join(no_split, "trials.txt"), out),
        "score-file-repeats-a-trial": (
            ["evaluate", "--scores", str(repeated_score), "--trials", trials,
             "--out-prefix", out], str(repeated_score), out + ".txt"),
        "trial-list-repeats-a-pair": (
            score + ["--embeddings", pipeline["emb"], "--trials", str(repeated_trial)],
            str(repeated_trial), out),
        "fused-score-file-lacks-a-trial": (
            ["fuse", "--out", out, pipeline["scores"], str(short)], str(short), out),
        "score-files-share-a-stem": (
            ["det-export", "--trials", trials, "--out-dir", out, *same_stem], same_stem[1], out),
        "config-has-an-unknown-key": (
            ["gen-data", "--config", str(bad_key_config), "--out", out], str(bad_key_config),
            out),
        "config-has-zero-steps": (
            ["train", "--config", bad_value_configs["zero-steps"], "--corpus",
             pipeline["corpus"], "--arch", "baseline", "--out", out],
            bad_value_configs["zero-steps"], out),
        "config-has-a-zero-kernel": (
            ["gen-data", "--config", bad_value_configs["zero-kernel"], "--out", out],
            bad_value_configs["zero-kernel"], out),
        "config-has-a-zero-width": (
            ["gen-data", "--config", bad_value_configs["zero-width"], "--out", out],
            bad_value_configs["zero-width"], out),
        "feature-file-has-another-dimension-train": (
            ["train", "--config", pipeline["config"], "--corpus", narrow, "--arch", "baseline",
             "--out", out], narrow_file, out),
        "feature-file-has-another-dimension-extract": (
            ["extract", "--corpus", narrow, "--out", out, "--model", pipeline["ckpt"]],
            narrow_file, out),
        "corpus-has-another-dimension-train": (
            ["train", "--config", pipeline["config"], "--corpus", other_dim, "--arch",
             "baseline", "--out", out], other_dim + ": corpus has 6 features per frame", out),
        "corpus-has-another-dimension-extract": (
            ["extract", "--corpus", other_dim, "--out", out, "--model", pipeline["ckpt"]],
            other_dim + ": corpus has 6 features per frame", out),
        "split-leaves-one-training-speaker": (
            ["train", "--config", pipeline["config"], "--corpus", one_speaker, "--arch",
             "baseline", "--out", out], one_speaker + ": num_speakers must be at least 2, got 1",
            out),
        "utt2spk-lists-no-utterance": (
            ["extract", "--corpus", no_labels, "--out", out, "--model", pipeline["ckpt"]],
            os.path.join(no_labels, "utt2spk") + ": lists no utterance", out),
        "backend-holds-a-nan": (
            ["score", "--backend", nan_backend, "--embeddings", pipeline["emb"], "--trials",
             trials, "--out", out], nan_backend, out),
        "backend-shapes-disagree": (
            ["score", "--backend", short_backend, "--embeddings", pipeline["emb"], "--trials",
             trials, "--out", out], short_backend, out),
        "backend-covariance-is-not-positive-definite": (
            ["score", "--backend", indefinite_backend, "--embeddings", pipeline["emb"],
             "--trials", trials, "--out", out], indefinite_backend + ":", out),
        "trial-list-has-one-kind-evaluate": (
            ["evaluate", "--scores", pipeline["scores"], "--trials", targets_only,
             "--out-prefix", out], targets_only, out + ".txt"),
        "trial-list-has-one-kind-det-export": (
            ["det-export", "--trials", targets_only, "--out-dir", out, pipeline["scores"]],
            targets_only, out),
        "trial-list-has-one-kind-sweep-n": (
            ["sweep-n", "--config", pipeline["config"], "--corpus", one_kind, "--out-dir", out,
             "--values", "2"], targets_only, out),
        "utt2cond-lacks-a-test-utterance": (
            ["evaluate", "--scores", pipeline["scores"], "--trials", trials,
             "--utt2cond", str(partial_cond), "--out-prefix", out], str(partial_cond),
            out + ".txt"),
    }


@pytest.mark.parametrize("kind", ["missing-file", "backend-as-model", "dimension-mismatch",
                                  "trial-absent-from-embeddings",
                                  "training-utterance-absent-from-embeddings",
                                  "score-file-lacks-a-trial", "second-score-file-lacks-a-trial",
                                  "score-file-adds-a-trial", "second-score-file-adds-a-trial",
                                  "corpus-lacks-corpus-json", "sweep-corpus-lacks-trials",
                                  "utt2cond-lacks-a-test-utterance",
                                  "score-file-repeats-a-trial", "trial-list-repeats-a-pair",
                                  "fused-score-file-lacks-a-trial", "score-files-share-a-stem",
                                  "config-has-an-unknown-key", "config-has-zero-steps",
                                  "config-has-a-zero-kernel", "config-has-a-zero-width",
                                  "feature-file-has-another-dimension-train",
                                  "feature-file-has-another-dimension-extract",
                                  "corpus-has-another-dimension-train",
                                  "corpus-has-another-dimension-extract",
                                  "split-leaves-one-training-speaker",
                                  "utt2spk-lists-no-utterance",
                                  "backend-holds-a-nan", "backend-shapes-disagree",
                                  "backend-covariance-is-not-positive-definite",
                                  "trial-list-has-one-kind-evaluate",
                                  "trial-list-has-one-kind-det-export",
                                  "trial-list-has-one-kind-sweep-n"])
def test_bad_input_fails_with_one_error_naming_its_file(pipeline, tmp_path, capsys, kind):
    argv, offending, out = _bad_inputs(pipeline, tmp_path)[kind]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and offending in errors[0], captured.err
    if kind.endswith("adds-a-trial"):
        assert "ghost ghost" in errors[0], captured.err
    assert not os.path.exists(out)
    assert captured.out == ""


def _readme_commands() -> list[str]:
    """Every ``axvector`` line of README's bash blocks, continuations joined."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    readme = open(os.path.join(root, "README.md"), encoding="utf-8").read()
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("axvector ")]


def test_readme_commands_parse():
    """Every command line the README shows parses, so a deleted or renamed
    flag cannot linger in its quick start."""
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")

"""Workload definitions and the stage plan shared by the untraced and the
traced run.

A workload is an experiment config.  ``--seed`` drives corpus generation
and the trial draw.  The training seed stays fixed per workload (same
initial weights); crop lengths are drawn from the same stream as the crop
offsets, which depend on the utterance lengths, so the work per step still
varies a little with the seed.  A run generates the corpus once, then runs
rounds: every variant is trained and ``acnn-abn`` goes on through extract,
backend-fit, score and evaluate.  The back-end chain then runs once more on
the first round's checkpoint, as a determinism check.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass

VARIANTS = ("baseline", "acnn", "abn", "acnn-abn")
SCORED = "acnn-abn"      # the variant taken through the back end
CHAIN = ("extract", "backend-fit", "score", "evaluate")

_TOY = {
    "corpus": {
        "num_speakers": 32, "utts_per_speaker": 20, "feature_dim": 30,
        "frames_min": 80, "frames_max": 300, "sigma_between": 1.3,
        "sigma_session": 0.3, "sigma_frame": 1.0, "ar_coefficient": 0.5,
        "conditions": ["clean", "noise", "codec", "reverb"],
        "noise_scale": 0.35, "codec_depth": 0.2,
    },
    "split": {"eval_speakers": 8, "n_target": 400, "n_nontarget": 1600},
    "arch": {
        "input_dim": 30, "frame_dims": [64, 64, 64, 64, 192],
        "kernel_sizes": [5, 3, 3, 1, 1], "dilations": [1, 2, 3, 1, 1],
        "utterance_dims": [64, 64], "attention_hidden": 32, "pool_size": 4,
    },
    "train": {
        "batch_size": 32, "crop_frames_min": 60, "crop_frames_max": 120,
        "lr_start": 1e-3, "lr_end": 1e-4, "total_steps": 80,
        "weight_decay": 1e-4, "seed": 7,
    },
    "backend": {"plda_iterations": 12},
}

# ArchConfig defaults are the full-size x-vector shapes (512 x 4 + 1536).
_FULLSIZE = {
    "corpus": {"num_speakers": 6, "utts_per_speaker": 4, "feature_dim": 30,
               "frames_min": 200, "frames_max": 240},
    "split": {"eval_speakers": 2, "n_target": 8, "n_nontarget": 12},
    "arch": {"input_dim": 30},
    "train": {"batch_size": 8, "crop_frames_min": 200, "crop_frames_max": 200,
              "total_steps": 3, "seed": 7},
    "backend": {"plda_iterations": 10},
}

_TINY_ARCH = {
    "input_dim": 30, "frame_dims": [16, 16, 16, 16, 48],
    "kernel_sizes": [5, 3, 3, 1, 1], "dilations": [1, 2, 3, 1, 1],
    "utterance_dims": [16, 16], "attention_hidden": 8, "pool_size": 2,
}

_EVAL_SCALE = {
    "corpus": {"num_speakers": 750, "utts_per_speaker": 8, "feature_dim": 30,
               "frames_min": 40, "frames_max": 80},
    "split": {"eval_speakers": 250, "n_target": 5000, "n_nontarget": 95000},
    "arch": _TINY_ARCH,
    "train": {"batch_size": 32, "crop_frames_min": 30, "crop_frames_max": 40,
              "total_steps": 10, "seed": 7},
    "backend": {"plda_iterations": 10},
}

# Harness self-test only; not listed in BENCHMARK.json.
_SMOKE = {
    "corpus": {"num_speakers": 6, "utts_per_speaker": 4, "feature_dim": 30,
               "frames_min": 20, "frames_max": 30},
    "split": {"eval_speakers": 2, "n_target": 6, "n_nontarget": 12},
    "arch": _TINY_ARCH,
    "train": {"batch_size": 4, "crop_frames_min": 16, "crop_frames_max": 20,
              "total_steps": 2, "seed": 7},
    "backend": {"plda_iterations": 3},
}


# name -> experiment config
WORKLOADS = {"toy-train": _TOY, "fullsize-train": _FULLSIZE, "eval-scale": _EVAL_SCALE,
             "smoke": _SMOKE}


def make_config(workload: dict, seed: int) -> dict:
    """The experiment config for one seed: the seed picks the corpus and the
    trial draw."""
    cfg = copy.deepcopy(workload)
    cfg["corpus"]["seed"] = seed
    cfg["split"]["trial_seed"] = seed + 1
    return cfg


@dataclass(frozen=True)
class Job:
    name: str              # unique within a round, e.g. "train:acnn" or "score"
    stage: str             # CLI subcommand
    variant: str | None
    argv: tuple            # CLI arguments after the program name


def tag(variant: str) -> str:
    return variant.replace("-", "_")


def checkpoint(out: str, variant: str) -> str:
    return os.path.join(out, tag(variant) + ".ckpt")


def outputs(out: str) -> dict:
    """Paths the back-end chain of one round writes under ``out``."""
    stem = os.path.join(out, tag(SCORED))
    return {"extract": stem + ".emb", "backend-fit": stem + ".backend",
            "score": stem + ".scores", "evaluate": stem + ".report"}


def gen_data_job(root: str) -> Job:
    """The corpus every round reads: ``root/corpus`` from ``root/config.json``."""
    return Job("gen-data", "gen-data", None,
               ("gen-data", "--config", os.path.join(root, "config.json"),
                "--out", os.path.join(root, "corpus")))


def round_plan(root: str, out: str, models: str | None = None) -> list[Job]:
    """The stages of one round, in the order they run: the scored variant's
    train and back-end chain, then the other trains.  Every round reads the
    corpus and config under ``root`` and writes under ``out``.  With
    ``models``, the round is the back-end chain alone, on the checkpoint an
    earlier round wrote there."""
    config = os.path.join(root, "config.json")
    corpus = os.path.join(root, "corpus")
    trials = os.path.join(corpus, "trials.txt")
    o = outputs(out)

    def train(variant):
        return Job(f"train:{variant}", "train", variant,
                   ("train", "--config", config, "--corpus", corpus, "--arch", variant,
                    "--out", checkpoint(out, variant)))

    chain = {
        "extract": ("extract", "--model", checkpoint(models or out, SCORED), "--corpus", corpus,
                    "--out", o["extract"]),
        "backend-fit": ("backend-fit", "--config", config, "--embeddings", o["extract"],
                        "--corpus", corpus, "--out", o["backend-fit"]),
        "score": ("score", "--backend", o["backend-fit"], "--embeddings", o["extract"],
                  "--trials", trials, "--out", o["score"]),
        "evaluate": ("evaluate", "--config", config, "--scores", o["score"],
                     "--trials", trials, "--utt2cond", os.path.join(corpus, "utt2cond"),
                     "--out-prefix", o["evaluate"]),
    }
    back_end = [Job(stage, stage, SCORED, chain[stage]) for stage in CHAIN]
    if models:
        return back_end
    return [train(SCORED)] + back_end + [train(v) for v in VARIANTS if v != SCORED]

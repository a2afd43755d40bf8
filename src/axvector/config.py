"""Experiment configuration: one JSON document with one section per stage.

Unknown keys are rejected at every level, and so is a value of another JSON
type than its field declares, so a typo fails loudly instead of silently
falling back to a default, and an error in a config file names that file.
Everything defining the experiment, seeds included, lives here, and no
command-line flag overrides a setting; ``sweep-n`` runs all its pool sizes
in one process from one loaded config.
The two architecture fields that are not settings are refused: the variant
comes from ``train --arch`` and the speaker count from the corpus split.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .data import CorpusSpec
from .metrics import MetricConfig
from .model import ArchConfig
from .serialize import json_object
from .training import TrainConfig


class ConfigError(ValueError):
    pass


# the JSON values that each declared field type takes; a bool is no number
JSON_VALUES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
               "str": (str, "a string"), "tuple": (list, "a list"),
               "int | None": ((int, type(None)), "an integer or null")}


def dataclass_from_dict(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    known = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    for key, value in data.items():
        types, what = JSON_VALUES[known[key]]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{where}.{key} must be {what}, got {value!r:.40}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where} section: {exc}") from exc


@dataclass
class SplitConfig:
    """Held-out portion of the corpus and the trial list drawn from it."""

    eval_speakers: int = 8
    n_target: int = 400
    n_nontarget: int = 1600
    trial_seed: int = 777

    def validate(self) -> None:
        if self.eval_speakers < 0:
            raise ConfigError("eval_speakers must be nonnegative")
        if self.n_target < 1 or self.n_nontarget < 1:
            raise ConfigError("trial counts must be positive")


@dataclass
class BackendConfig:
    lda_dim: int | None = None       # default: min(100, classes - 1, embedding dim)
    plda_iterations: int = 15

    def validate(self) -> None:
        if self.plda_iterations < 1:
            raise ConfigError("plda_iterations must be >= 1")
        if self.lda_dim is not None and self.lda_dim < 1:
            raise ConfigError("lda_dim must be >= 1 when given")


@dataclass
class RunConfig:
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    split: SplitConfig = field(default_factory=SplitConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    metrics: MetricConfig = field(default_factory=MetricConfig)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        sections = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(sections))
        if unknown:
            raise ConfigError(f"unknown config section(s): {', '.join(unknown)}")
        arch = data.get("arch")
        for key, source in (("variant", "train --arch"), ("num_speakers", "the corpus split")):
            if isinstance(arch, dict) and key in arch:
                raise ConfigError(f"arch.{key} is not a config setting; it comes from {source}")
        kwargs = {}
        for name, fld in sections.items():
            if name in data:
                kwargs[name] = dataclass_from_dict(fld.default_factory, data[name], name)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "rb") as handle:
            data = json_object(handle.read(), path)
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def validate(self) -> None:
        self.corpus.validate()
        self.split.validate()
        self.backend.validate()
        train_speakers = self.corpus.num_speakers - self.split.eval_speakers
        if train_speakers < 2:
            raise ConfigError("corpus must keep at least 2 training speakers after the split")
        if self.arch.input_dim != self.corpus.feature_dim:
            raise ConfigError(f"arch.input_dim={self.arch.input_dim} does not match "
                              f"corpus.feature_dim={self.corpus.feature_dim}")
        # train takes the speaker count from the corpus, so the config keeps none
        dataclasses.replace(self.arch, num_speakers=train_speakers).validate()
        if self.corpus.frames_min < self.arch.min_frames:
            raise ConfigError(f"corpus.frames_min={self.corpus.frames_min} is below "
                              f"arch.min_frames={self.arch.min_frames}, the receptive field "
                              f"of the configured kernels and dilations")
        self.train.validate()
        for p in (*self.metrics.dcf_p_targets, self.metrics.act_p_target):
            if not 0.0 < p < 1.0:
                raise ConfigError(f"metrics: p_target {p} does not lie in (0, 1)")

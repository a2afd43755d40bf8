"""Experiment configuration: one JSON document with one section per stage.

Each section is read by ``serialize.settings``: unknown keys are rejected at
every level, and so is a value or list element of another JSON type than its
field declares, so a typo fails loudly instead of silently falling back to a
default, and an error in a config file names that file.  Every settings
class checks its values when an instance is made (``dataclasses.replace``
included), so an instance that exists is valid and no caller checks again.
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
from .numerics import require
from .serialize import json_object, settings
from .training import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class SplitConfig:
    """Held-out portion of the corpus and the trial list drawn from it."""

    eval_speakers: int = 8
    n_target: int = 400
    n_nontarget: int = 1600
    trial_seed: int = 777

    def __post_init__(self):
        require(self.eval_speakers >= 0, "eval_speakers must be nonnegative")
        require(self.n_target >= 1 and self.n_nontarget >= 1, "trial counts must be positive")


@dataclass
class BackendConfig:
    lda_dim: int | None = None       # default: min(100, classes - 1, embedding dim)
    plda_iterations: int = 15

    def __post_init__(self):
        require(self.plda_iterations >= 1, "plda_iterations must be >= 1")
        require(self.lda_dim is None or self.lda_dim >= 1, "lda_dim must be >= 1 when given")


@dataclass
class RunConfig:
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    split: SplitConfig = field(default_factory=SplitConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    metrics: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self):
        if self.corpus.num_speakers - self.split.eval_speakers < 2:
            raise ConfigError("corpus must keep at least 2 training speakers after the split")
        if self.arch.input_dim != self.corpus.feature_dim:
            raise ConfigError(f"arch.input_dim={self.arch.input_dim} does not match "
                              f"corpus.feature_dim={self.corpus.feature_dim}")
        if self.corpus.frames_min < self.arch.min_frames:
            raise ConfigError(f"corpus.frames_min={self.corpus.frames_min} is below "
                              f"arch.min_frames={self.arch.min_frames}, the receptive field "
                              f"of the configured kernels and dilations")

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
        return cls(**{name: settings(fld.default_factory, data[name], name)
                      for name, fld in sections.items() if name in data})

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "rb") as handle:
            data = json_object(handle.read(), path)
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

"""Deterministic synthetic speaker corpus plus the on-disk feature, label and
trial formats.

Each utterance is a (frames, dim) feature matrix drawn as

    x_t = speaker_mean + session_offset + sigma_frame * n_t

with AR(1) frame noise n_t (unit stationary variance), then optionally
corrupted by one of the named channel conditions.  Everything derives from
per-utterance seed streams, so regeneration is byte-identical and utterances
could be produced in parallel.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, asdict

import numpy as np
from scipy.signal import lfilter

from .numerics import require
from .serialize import FormatError, atomic_write_bytes, atomic_write_text

FEATURE_MAGIC = b"AXVF"
FEATURE_VERSION = 1
KNOWN_CONDITIONS = ("clean", "noise", "codec", "reverb")


@dataclass
class CorpusSpec:
    num_speakers: int = 32
    utts_per_speaker: int = 20
    feature_dim: int = 30
    frames_min: int = 80
    frames_max: int = 300
    sigma_between: float = 1.0    # speaker-mean scale
    sigma_session: float = 0.4    # per-utterance channel offset scale
    sigma_frame: float = 1.0      # AR frame-noise scale
    ar_coefficient: float = 0.5
    conditions: tuple = ("clean", "noise", "codec", "reverb")
    noise_scale: float = 0.4
    codec_depth: float = 0.25
    reverb_taps: int = 3
    reverb_decay: float = 0.6
    seed: int = 12345

    def __post_init__(self):
        self.conditions = tuple(self.conditions)

    def validate(self) -> None:
        require(self.num_speakers >= 1 and self.utts_per_speaker >= 1,
                "need at least one speaker and one utterance per speaker")
        require(self.feature_dim >= 1, "feature_dim must be >= 1")
        require(self.frames_min > 14,
                "frames_min must exceed 14 frames, the receptive field of the default network")
        require(self.frames_min <= self.frames_max, "frame range is inverted")
        require(min(self.sigma_between, self.sigma_session, self.sigma_frame) >= 0.0,
                "scale parameters must be nonnegative")
        require(0.0 <= self.ar_coefficient < 1.0, "ar_coefficient must lie in [0, 1)")
        require(len(self.conditions) >= 1, "need at least one condition")
        for cond in self.conditions:
            require(cond in KNOWN_CONDITIONS,
                    f"unknown condition {cond!r}; choose from {KNOWN_CONDITIONS}")
        require(self.reverb_taps >= 1, "reverb_taps must be >= 1")


@dataclass
class Utterance:
    utt_id: str
    speaker_id: str
    condition: str


class Corpus:
    """Utterance metadata plus in-memory features."""

    def __init__(self, utterances: list[Utterance], features: dict[str, np.ndarray],
                 meta: dict | None = None):
        self._by_id = {u.utt_id: u for u in utterances}
        require(len(self._by_id) == len(utterances), "utterance ids must be unique")
        self.utterances = utterances
        self._features = features
        self.meta = meta or {}

    def __len__(self) -> int:
        return len(self.utterances)

    def speakers(self) -> list[str]:
        return sorted({u.speaker_id for u in self.utterances})

    def features(self, utt_id: str) -> np.ndarray:
        return self._features[utt_id]

    def utterance(self, utt_id: str) -> Utterance:
        return self._by_id[utt_id]

    def subset_by_speakers(self, speaker_ids) -> "Corpus":
        keep = set(speaker_ids)
        utts = [u for u in self.utterances if u.speaker_id in keep]
        feats = {u.utt_id: self._features[u.utt_id] for u in utts}
        return Corpus(utts, feats, dict(self.meta))

    def condition_of(self) -> dict[str, str]:
        return {u.utt_id: u.condition for u in self.utterances}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _ar1_noise(rng: np.random.Generator, frames: int, dim: int, rho: float) -> np.ndarray:
    eps = rng.standard_normal((frames, dim))
    if rho == 0.0:
        return eps
    driven = eps * math.sqrt(1.0 - rho * rho)
    driven[0] = eps[0]  # stationary start: unit variance from the first frame
    return lfilter([1.0], [1.0, -rho], driven, axis=0)


def _apply_condition(x: np.ndarray, condition: str, spec: CorpusSpec,
                     rng: np.random.Generator) -> np.ndarray:
    if condition == "clean":
        return x
    if condition == "noise":
        return x + spec.noise_scale * rng.standard_normal(x.shape)
    if condition == "codec":
        dim = x.shape[1]
        gain = 1.0 + spec.codec_depth * np.cos(2.0 * np.pi * np.arange(dim) / dim)
        return x * gain
    if condition == "reverb":
        taps = spec.reverb_decay ** np.arange(spec.reverb_taps)
        out = np.zeros_like(x)
        norm = np.zeros(x.shape[0])
        for j, w in enumerate(taps):
            out[j:] += w * x[:x.shape[0] - j]
            norm[j:] += w
        return out / norm[:, None]
    raise ValueError(f"unknown condition {condition!r}")


def generate_corpus(spec: CorpusSpec, output_dir: str | None = None) -> Corpus:
    """Generate the full corpus; optionally write it to disk as well."""
    spec.validate()
    utterances = []
    features = {}
    for s in range(spec.num_speakers):
        speaker_id = f"spk{s:04d}"
        speaker_rng = np.random.default_rng([spec.seed, 1, s])
        speaker_mean = spec.sigma_between * speaker_rng.standard_normal(spec.feature_dim)
        for u in range(spec.utts_per_speaker):
            utt_id = f"{speaker_id}_utt{u:03d}"
            condition = spec.conditions[u % len(spec.conditions)]
            rng = np.random.default_rng([spec.seed, 2, s, u])
            frames = int(rng.integers(spec.frames_min, spec.frames_max + 1))
            session = spec.sigma_session * rng.standard_normal(spec.feature_dim)
            noise = spec.sigma_frame * _ar1_noise(rng, frames, spec.feature_dim,
                                                  spec.ar_coefficient)
            x = speaker_mean + session + noise
            x = _apply_condition(x, condition, spec, rng)
            # features live on disk as float32; quantize in memory too so the
            # in-memory and reloaded corpora are identical
            features[utt_id] = x.astype(np.float32).astype(np.float64)
            utterances.append(Utterance(utt_id, speaker_id, condition))
    corpus = Corpus(utterances, features, meta={"spec": asdict(spec)})
    if output_dir is not None:
        save_corpus(corpus, output_dir)
    return corpus


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------


def feature_file_bytes(matrix: np.ndarray) -> bytes:
    matrix = np.asarray(matrix)
    require(matrix.ndim == 2 and matrix.shape[0] >= 1 and matrix.shape[1] >= 1,
            f"feature matrix must be (frames >= 1, dim >= 1), got shape {matrix.shape}")
    header = struct.pack("<4sIII", FEATURE_MAGIC, FEATURE_VERSION,
                         matrix.shape[0], matrix.shape[1])
    return header + matrix.astype("<f4").tobytes()


def write_feature_file(path: str, matrix: np.ndarray) -> None:
    atomic_write_bytes(path, feature_file_bytes(matrix))


def read_feature_file(path: str) -> np.ndarray:
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < 16:
        raise FormatError(f"{path}: truncated header")
    magic, version, frames, dim = struct.unpack("<4sIII", data[:16])
    if magic != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if frames < 1 or dim < 1:
        raise FormatError(f"{path}: invalid header dimensions {frames}x{dim}")
    expected = 16 + frames * dim * 4
    if len(data) != expected:
        raise FormatError(f"{path}: payload is {len(data) - 16} bytes, expected {expected - 16}")
    values = np.frombuffer(data[16:], dtype="<f4").astype(np.float64)
    return values.reshape(frames, dim)


# ---------------------------------------------------------------------------
# corpus on disk
# ---------------------------------------------------------------------------


def save_corpus(corpus: Corpus, out_dir: str) -> None:
    feat_dir = os.path.join(out_dir, "features")
    os.makedirs(feat_dir, exist_ok=True)
    utts = sorted(corpus.utterances, key=lambda u: u.utt_id)
    for u in utts:
        write_feature_file(os.path.join(feat_dir, f"{u.utt_id}.axvf"),
                           corpus.features(u.utt_id))
    atomic_write_text(os.path.join(out_dir, "utt2spk"),
                      "".join(f"{u.utt_id} {u.speaker_id}\n" for u in utts))
    atomic_write_text(os.path.join(out_dir, "utt2cond"),
                      "".join(f"{u.utt_id} {u.condition}\n" for u in utts))
    atomic_write_text(os.path.join(out_dir, "corpus.json"),
                      json.dumps(corpus.meta, indent=2, sort_keys=True) + "\n")


def load_corpus(path: str) -> Corpus:
    utt2spk = read_key_value_file(os.path.join(path, "utt2spk"))
    utt2cond = read_key_value_file(os.path.join(path, "utt2cond"))
    meta_path = os.path.join(path, "corpus.json")
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    utterances = []
    features = {}
    for utt_id in sorted(utt2spk):
        utterances.append(Utterance(utt_id, utt2spk[utt_id], utt2cond.get(utt_id, "clean")))
        features[utt_id] = read_feature_file(os.path.join(path, "features", f"{utt_id}.axvf"))
    return Corpus(utterances, features, meta)


def read_key_value_file(path: str) -> dict[str, str]:
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"{path}:{line_no}: expected 'key value', got {line!r}")
            out[parts[0]] = parts[1]
    return out


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trial:
    enroll: str
    test: str
    target: bool


def generate_trials(corpus: Corpus, seed, n_target: int, n_nontarget: int) -> list[Trial]:
    """Sample distinct unordered utterance pairs: targets within a speaker,
    nontargets across speakers.  Deterministic given the seed."""
    by_speaker: dict[str, list[str]] = {}
    for u in corpus.utterances:
        by_speaker.setdefault(u.speaker_id, []).append(u.utt_id)
    for utts in by_speaker.values():
        utts.sort()
    target_pairs = []
    for spk in sorted(by_speaker):
        utts = by_speaker[spk]
        for i in range(len(utts)):
            for j in range(i + 1, len(utts)):
                target_pairs.append((utts[i], utts[j]))
    all_ids = sorted(u.utt_id for u in corpus.utterances)
    speaker_of = {u.utt_id: u.speaker_id for u in corpus.utterances}
    nontarget_pairs = []
    for i in range(len(all_ids)):
        for j in range(i + 1, len(all_ids)):
            if speaker_of[all_ids[i]] != speaker_of[all_ids[j]]:
                nontarget_pairs.append((all_ids[i], all_ids[j]))
    if n_target > len(target_pairs):
        raise ValueError(f"requested {n_target} target trials but only "
                         f"{len(target_pairs)} distinct same-speaker pairs exist")
    if n_nontarget > len(nontarget_pairs):
        raise ValueError(f"requested {n_nontarget} nontarget trials but only "
                         f"{len(nontarget_pairs)} distinct cross-speaker pairs exist")
    rng = np.random.default_rng(seed)
    chosen_t = rng.choice(len(target_pairs), size=n_target, replace=False)
    chosen_n = rng.choice(len(nontarget_pairs), size=n_nontarget, replace=False)
    trials = [Trial(*target_pairs[int(i)], True) for i in sorted(chosen_t)]
    trials += [Trial(*nontarget_pairs[int(i)], False) for i in sorted(chosen_n)]
    return trials


def write_trials(path: str, trials: list[Trial]) -> None:
    lines = [f"{t.enroll} {t.test} {'target' if t.target else 'nontarget'}\n" for t in trials]
    atomic_write_text(path, "".join(lines))


def read_trials(path: str) -> list[Trial]:
    trials = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3 or parts[2] not in ("target", "nontarget"):
                raise FormatError(f"{path}:{line_no}: expected 'enroll test target|nontarget', "
                                  f"got {line!r}")
            trials.append(Trial(parts[0], parts[1], parts[2] == "target"))
    return trials

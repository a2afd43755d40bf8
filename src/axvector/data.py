"""Deterministic synthetic speaker corpus plus the on-disk feature, label and
trial formats.

A corpus loaded from disk holds an index of its feature files, not their
contents: ``load_corpus`` checks every file before any work and keeps its
path and shape, and each read (one whole utterance, or a range of frames
into the caller's array) checks the file again.

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
from typing import NamedTuple

import numpy as np

from .numerics import require
from .serialize import FormatError, atomic_write_bytes, atomic_write_text, json_object, table_rows

FEATURE_MAGIC = b"AXVF"
FEATURE_VERSION = 1
KNOWN_CONDITIONS = ("clean", "noise", "codec", "reverb")

# Utterances per padded float64 noise stack in generate_corpus: the stack,
# not the corpus, bounds the generator's working memory.
GENERATION_BLOCK = 64

# The reverb condition: each frame is the normalized sum of the current and
# previous REVERB_TAPS - 1 frames, weighted by REVERB_DECAY ** lag.
REVERB_TAPS = 3
REVERB_DECAY = 0.6


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
    conditions: tuple[str, ...] = ("clean", "noise", "codec", "reverb")
    noise_scale: float = 0.4
    codec_depth: float = 0.25
    seed: int = 12345

    def __post_init__(self):
        require(self.num_speakers >= 1 and self.utts_per_speaker >= 1,
                "need at least one speaker and one utterance per speaker")
        require(self.feature_dim >= 1, "feature_dim must be >= 1")
        require(self.frames_min >= 1, "frames_min must be >= 1")
        require(self.frames_min <= self.frames_max, "frame range is inverted")
        require(min(self.sigma_between, self.sigma_session, self.sigma_frame) >= 0.0,
                "scale parameters must be nonnegative")
        require(0.0 <= self.ar_coefficient < 1.0, "ar_coefficient must lie in [0, 1)")
        require(len(self.conditions) >= 1, "need at least one condition")
        for cond in self.conditions:
            require(cond in KNOWN_CONDITIONS,
                    f"unknown condition {cond!r}; choose from {KNOWN_CONDITIONS}")


@dataclass
class Utterance:
    utt_id: str
    speaker_id: str
    condition: str


class FeatureFile(NamedTuple):
    """An utterance's feature file and the (frames, dim) shape ``load_corpus``
    found in it."""

    path: str
    shape: tuple


class Corpus:
    """Utterance metadata plus each utterance's float32 features: an array
    held in memory (``generate_corpus``, tests) or a ``FeatureFile`` whose
    file is read when the features are asked for (``load_corpus``).  Both
    answer ``frames``, ``features`` and ``read_frames`` alike;
    ``load_labels`` gives a corpus without features."""

    def __init__(self, utterances: list[Utterance],
                 features: dict[str, np.ndarray | FeatureFile], meta: dict | None = None):
        self._by_id = {u.utt_id: u for u in utterances}
        require(len(self._by_id) == len(utterances), "utterance ids must be unique")
        self.utterances = utterances
        self._features = features
        self.meta = meta or {}

    def __len__(self) -> int:
        return len(self.utterances)

    def speakers(self) -> list[str]:
        return sorted({u.speaker_id for u in self.utterances})

    def speaker_labels(self) -> dict[str, int]:
        """Class index of each speaker: its position in ``speakers()``."""
        return {spk: i for i, spk in enumerate(self.speakers())}

    def frames(self, utt_id: str) -> int:
        return self._features[utt_id].shape[0]

    @property
    def feature_dim(self) -> int:
        """Features per frame, those of the first utterance."""
        return self._features[self.utterances[0].utt_id].shape[1]

    def features(self, utt_id: str) -> np.ndarray:
        """One whole utterance; a file must still hold the shape it had at
        load."""
        source = self._features[utt_id]
        if not isinstance(source, FeatureFile):
            return source
        x = read_feature_file(source.path)
        if x.shape != source.shape:
            raise FormatError(f"{source.path}: holds {x.shape[0]}x{x.shape[1]} features, "
                              f"{source.shape[0]}x{source.shape[1]} when the corpus was loaded")
        return x

    def read_frames(self, utt_id: str, start: int, out: np.ndarray) -> None:
        """Fill ``out`` with the utterance's frames from ``start`` on."""
        source = self._features[utt_id]
        if isinstance(source, FeatureFile):
            read_feature_file(source.path, out, start)
        else:
            out[...] = source[start:start + out.shape[0]]

    def utterance(self, utt_id: str) -> Utterance:
        return self._by_id[utt_id]

    def subset_by_speakers(self, speaker_ids) -> "Corpus":
        keep = set(speaker_ids)
        utts = [u for u in self.utterances if u.speaker_id in keep]
        feats = {utt_id: f for utt_id, f in self._features.items()
                 if self._by_id[utt_id].speaker_id in keep}
        return Corpus(utts, feats, dict(self.meta))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def ar1_filter(driven: np.ndarray, rho: float) -> np.ndarray:
    """Run ``y[..., t, :] = driven[..., t, :] + rho * y[..., t - 1, :]`` in place
    along the frame axis (second to last) and return ``driven``.

    The loop runs over the frame index only, so a zero-padded
    (utterances, frames, dim) stack filters every utterance at once.  Each
    step is the float operation of ``lfilter([1], [1, -rho], ., axis=0)``,
    so the result matches it bit for bit."""
    if rho != 0.0:
        for t in range(1, driven.shape[-2]):
            step = driven[..., t, :]
            step += rho * driven[..., t - 1, :]
    return driven


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
        taps = REVERB_DECAY ** np.arange(REVERB_TAPS)
        out = np.zeros_like(x)
        norm = np.zeros(x.shape[0])
        for j, w in enumerate(taps):
            out[j:] += w * x[:x.shape[0] - j]
            norm[j:] += w
        return out / norm[:, None]
    raise ValueError(f"unknown condition {condition!r}")


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Generate the full corpus in memory, features as float32 (their on-disk
    precision); ``save_corpus`` writes it.

    Each utterance draws from its own stream, in a fixed order: frame count,
    session offset, AR(1) driving noise, then its condition's draws.  A first
    pass draws everything up to the driving noise; then, for each block of
    GENERATION_BLOCK utterances, the driving noise fills one zero-padded
    stack (the same buffer for every block), one filter pass runs the AR(1)
    recursion over the whole block, and the conditions are applied with each
    utterance's stream where it left off.  Every utterance's draws and float
    operations are those of a one-utterance pass, so the bytes do not depend
    on the block size."""
    utterances, offsets, rngs, lengths = [], [], [], []
    for s in range(spec.num_speakers):
        speaker_id = f"spk{s:04d}"
        speaker_rng = np.random.default_rng([spec.seed, 1, s])
        speaker_mean = spec.sigma_between * speaker_rng.standard_normal(spec.feature_dim)
        for u in range(spec.utts_per_speaker):
            rng = np.random.default_rng([spec.seed, 2, s, u])
            lengths.append(int(rng.integers(spec.frames_min, spec.frames_max + 1)))
            session = spec.sigma_session * rng.standard_normal(spec.feature_dim)
            offsets.append(speaker_mean + session)
            rngs.append(rng)
            utterances.append(Utterance(f"{speaker_id}_utt{u:03d}", speaker_id,
                                        spec.conditions[u % len(spec.conditions)]))
    # AR(1) frame noise with unit stationary variance: the driving noise is
    # scaled by sqrt(1 - rho^2) except on the first frame, which starts the
    # recursion at the stationary variance
    rho = spec.ar_coefficient
    stack = np.empty((min(GENERATION_BLOCK, len(utterances)), max(lengths), spec.feature_dim))
    features = {}
    for start in range(0, len(utterances), GENERATION_BLOCK):
        block = slice(start, start + GENERATION_BLOCK)
        noise = stack[:len(lengths[block])]
        noise.fill(0.0)
        for padded, rng, frames in zip(noise, rngs[block], lengths[block]):
            eps = padded[:frames]
            rng.standard_normal(out=eps)
            eps[1:] *= math.sqrt(1.0 - rho * rho)
        ar1_filter(noise, rho)
        for utt, offset, rng, frames, padded in zip(utterances[block], offsets[block],
                                                    rngs[block], lengths[block], noise):
            x = _apply_condition(offset + spec.sigma_frame * padded[:frames], utt.condition,
                                 spec, rng)
            features[utt.utt_id] = x.astype(np.float32)
    return Corpus(utterances, features, meta={"spec": asdict(spec)})


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


def read_feature_file(path: str, out: np.ndarray | None = None, start: int = 0) -> np.ndarray:
    """The (frames, dim) float32 features of a file written by
    write_feature_file, in a fresh array; or, given ``out``, a C-contiguous
    float32 (n, dim) array, frames [start, start + n) read into it, and
    ``out`` returned.

    Either way one positioned read fills the array, after the header and the
    file's length are checked, and every value read is checked to be finite.
    A file that fails any check raises one FormatError naming it, and nothing
    beyond the returned array is allocated."""
    if out is not None and not (out.ndim == 2 and out.dtype == np.float32
                                and out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float32 (frames, dim) array, got "
                         f"{out.dtype} {out.shape}")
    fd = os.open(path, os.O_RDONLY)
    try:
        header = os.pread(fd, 16, 0)
        if len(header) < 16:
            raise FormatError(f"{path}: truncated header")
        magic, version, frames, dim = struct.unpack("<4sIII", header)
        if magic != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if frames < 1 or dim < 1:
            raise FormatError(f"{path}: invalid header dimensions {frames}x{dim}")
        payload = os.fstat(fd).st_size - 16
        if payload != frames * dim * 4:
            raise FormatError(f"{path}: payload is {payload} bytes, expected {frames * dim * 4}")
        if out is None:
            out = np.empty((frames, dim), np.float32)
        elif out.shape[1] != dim or not 0 <= start <= frames - out.shape[0]:
            raise FormatError(f"{path}: holds {frames}x{dim} features, cannot read frames "
                              f"{start} to {start + out.shape[0]} of width {out.shape[1]}")
        if os.preadv(fd, [out], 16 + start * dim * 4) != out.nbytes:
            raise FormatError(f"{path}: payload ended early")
    finally:
        os.close(fd)
    # min and max propagate a NaN and reach any infinity, so they check every
    # value without a temporary of the array's size
    if out.size and not (math.isfinite(out.min()) and math.isfinite(out.max())):
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        raise FormatError(f"{path}: frame {start + bad[0]} holds a NaN or infinite value")
    return out


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


def load_labels(path: str) -> Corpus:
    """The utterances and ``corpus.json`` of a corpus written by save_corpus,
    without its features; ``utt2spk`` must list at least one utterance, and
    every utterance it lists must have a condition in ``utt2cond``."""
    spk_path, cond_path = os.path.join(path, "utt2spk"), os.path.join(path, "utt2cond")
    utt2cond, utt2spk = read_key_value_file(cond_path), {}
    for line_no, (utt_id, speaker_id) in table_rows(spk_path, "key value", 1):
        if utt_id not in utt2cond:
            raise FormatError(f"{spk_path}:{line_no}: utterance {utt_id!r} has no entry "
                              f"in {cond_path}")
        utt2spk[utt_id] = speaker_id
    if not utt2spk:
        raise FormatError(f"{spk_path}: lists no utterance")
    meta = _read_meta(os.path.join(path, "corpus.json"), set(utt2spk.values()), spk_path)
    utterances = [Utterance(utt_id, utt2spk[utt_id], utt2cond[utt_id])
                  for utt_id in sorted(utt2spk)]
    return Corpus(utterances, {}, meta)


def load_corpus(path: str) -> Corpus:
    """Check a corpus written by save_corpus and index it: ``load_labels``
    plus, for every utterance, its feature file's path and shape.  Each file
    is read once here, so one that is malformed, non-finite or not of the
    ``spec.feature_dim`` that ``corpus.json`` declares fails before any
    work; the features themselves are not kept."""
    labels = load_labels(path)
    meta_path = os.path.join(path, "corpus.json")
    spec = labels.meta.get("spec")
    dim = spec.get("feature_dim") if isinstance(spec, dict) else None
    if type(dim) is not int or dim < 1:
        raise FormatError(f"{meta_path}: spec.feature_dim must be a positive integer, "
                          f"got {dim!r}")
    index = {}
    for u in labels.utterances:
        feature_path = os.path.join(path, "features", f"{u.utt_id}.axvf")
        shape = read_feature_file(feature_path).shape
        if shape[1] != dim:
            raise FormatError(f"{feature_path}: {shape[1]} features per frame, but "
                              f"{meta_path} declares {dim}")
        index[u.utt_id] = FeatureFile(feature_path, shape)
    return Corpus(labels.utterances, index, labels.meta)


def _read_meta(path: str, speakers: set, spk_path: str) -> dict:
    """The JSON object of ``corpus.json``; its ``eval_speaker_ids``, when
    present, must list speakers of ``spk_path``."""
    with open(path, "rb") as handle:
        meta = json_object(handle.read(), path)
    eval_ids = meta.get("eval_speaker_ids", [])
    if not isinstance(eval_ids, list):
        raise FormatError(f"{path}: eval_speaker_ids must be a list of speaker ids, "
                          f"got {type(eval_ids).__name__}")
    for spk in eval_ids:
        if not (isinstance(spk, str) and spk in speakers):
            raise FormatError(f"{path}: eval speaker {spk!r} has no utterance in {spk_path}")
    return meta


def read_key_value_file(path: str) -> dict[str, str]:
    """``key value`` lines, in file order; a repeated key is an error."""
    return dict(fields for _, fields in table_rows(path, "key value", 1))


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trial:
    enroll: str
    test: str
    target: bool


def _unrank(row_sizes: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row of each rank, and its offset in that row, over rows that hold
    ``row_sizes`` items one after another."""
    starts = np.cumsum(row_sizes) - row_sizes
    rows = np.searchsorted(starts, ranks, side="right") - 1
    return rows, ranks - starts[rows]


def generate_trials(corpus: Corpus, seed, n_target: int, n_nontarget: int) -> list[Trial]:
    """Sample distinct unordered utterance pairs: targets within a speaker,
    nontargets across speakers.  Deterministic given the seed.

    Over the sorted utterance ids, target pairs are ranked by (speaker, first,
    second) and nontarget pairs by (first, second).  Ranks are drawn without
    listing the pairs and mapped back to them through per-row pair counts, so
    the cost is linear in the utterances and the draws."""
    speaker_of = {u.utt_id: u.speaker_id for u in corpus.utterances}
    ids = sorted(speaker_of)
    code_of = {spk: c for c, spk in enumerate(sorted(set(speaker_of.values())))}
    codes = np.array([code_of[speaker_of[u]] for u in ids], dtype=np.int64)
    n = codes.size
    sizes = np.bincount(codes)
    first = np.cumsum(sizes) - sizes
    order = np.argsort(codes, kind="stable")   # speaker-major positions
    rank = np.empty_like(codes)                # position among the speaker's own
    rank[order] = np.arange(n) - first[codes[order]]
    # target row p (speaker-major) pairs with the rest of its speaker after it;
    # nontarget row i pairs with every later utterance of another speaker
    target_rows = sizes[codes[order]] - 1 - rank[order]
    nontarget_rows = (n - 1 - np.arange(n)) - (sizes[codes] - 1 - rank)
    n_target_pairs, n_nontarget_pairs = int(target_rows.sum()), int(nontarget_rows.sum())
    if n_target > n_target_pairs:
        raise ValueError(f"requested {n_target} target trials but only "
                         f"{n_target_pairs} distinct same-speaker pairs exist")
    if n_nontarget > n_nontarget_pairs:
        raise ValueError(f"requested {n_nontarget} nontarget trials but only "
                         f"{n_nontarget_pairs} distinct cross-speaker pairs exist")
    rng = np.random.default_rng(seed)
    chosen_t = np.sort(rng.choice(n_target_pairs, size=n_target, replace=False))
    chosen_n = np.sort(rng.choice(n_nontarget_pairs, size=n_nontarget, replace=False))

    rows, offsets = _unrank(target_rows, chosen_t)
    enroll, test = order[rows], order[rows + 1 + offsets]
    trials = [Trial(ids[e], ids[t], True) for e, t in zip(enroll.tolist(), test.tolist())]

    # the second of a nontarget pair is the m-th (from 0) position outside the
    # first's speaker s, with m = (positions outside s before the row) + offset;
    # that position is m plus the count of s's positions p_l (its l-th, from 0)
    # with p_l - l <= m, found by one search over (speaker, p_l - l) keys
    rows, offsets = _unrank(nontarget_rows, chosen_n)
    spk = codes[rows]
    m = rows - rank[rows] + offsets
    keys = codes[order] * (n + 1) + (order - rank[order])
    test = m + np.searchsorted(keys, spk * (n + 1) + m, side="right") - first[spk]
    trials += [Trial(ids[e], ids[t], False) for e, t in zip(rows.tolist(), test.tolist())]
    return trials


def write_trials(path: str, trials: list[Trial]) -> None:
    lines = [f"{t.enroll} {t.test} {'target' if t.target else 'nontarget'}\n" for t in trials]
    atomic_write_text(path, "".join(lines))


def read_trials(path: str) -> list[Trial]:
    """``enroll test target|nontarget`` lines; a trial list names each
    (enroll, test) pair once."""
    trials = []
    for line_no, (enroll, test, kind) in table_rows(path, "enroll test target|nontarget", 2):
        if kind not in ("target", "nontarget"):
            raise FormatError(f"{path}:{line_no}: expected 'target' or 'nontarget', "
                              f"got {kind!r}")
        trials.append(Trial(enroll, test, kind == "target"))
    return trials

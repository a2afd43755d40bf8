import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

import looped_reference as ref
from axvector import data as D
from axvector.serialize import FormatError
from feature_edits import ALTERATIONS, alter


def small_spec(**overrides):
    base = dict(num_speakers=4, utts_per_speaker=4, feature_dim=5, frames_min=16,
                frames_max=24, sigma_between=1.0, sigma_session=0.3,
                ar_coefficient=0.4, seed=11)
    base.update(overrides)
    return D.CorpusSpec(**base)


class TestGeneration:
    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = small_spec()
        D.save_corpus(D.generate_corpus(spec), str(tmp_path / "a"))
        D.save_corpus(D.generate_corpus(spec), str(tmp_path / "b"))
        files_a = sorted((tmp_path / "a" / "features").iterdir())
        files_b = sorted((tmp_path / "b" / "features").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()
        assert (tmp_path / "a" / "utt2spk").read_bytes() == (tmp_path / "b" / "utt2spk").read_bytes()

    def test_degenerate_spec_gives_identical_utterances(self):
        spec = small_spec(sigma_session=0.0, sigma_frame=0.0, ar_coefficient=0.0,
                          conditions=("clean",), frames_min=20, frames_max=20)
        corpus = D.generate_corpus(spec)
        by_speaker = {}
        for utt in corpus.utterances:
            by_speaker.setdefault(utt.speaker_id, []).append(corpus.features(utt.utt_id))
        for feats in by_speaker.values():
            for other in feats[1:]:
                assert np.array_equal(feats[0], other)

    def test_covariance_traces_match_generator_parameters(self):
        # 100 speakers x 10 utterances = 1000 utterances, clean only
        spec = D.CorpusSpec(num_speakers=100, utts_per_speaker=10, feature_dim=10,
                            frames_min=30, frames_max=60, sigma_between=1.0,
                            sigma_session=0.4, sigma_frame=1.0, ar_coefficient=0.3,
                            conditions=("clean",), seed=77)
        corpus = D.generate_corpus(spec)
        speaker_means = {}
        within_sq = []
        for spk in corpus.speakers():
            frames = np.concatenate([corpus.features(u.utt_id)
                                     for u in corpus.utterances if u.speaker_id == spk])
            speaker_means[spk] = frames.mean(axis=0)
            within_sq.append(((frames - speaker_means[spk]) ** 2).sum(axis=1).mean())
        means = np.stack(list(speaker_means.values()))
        between_trace = ((means - means.mean(axis=0)) ** 2).sum(axis=1).mean()
        within_trace = float(np.mean(within_sq))
        d = spec.feature_dim
        assert between_trace == pytest.approx(spec.sigma_between ** 2 * d, rel=0.10)
        assert within_trace == pytest.approx((spec.sigma_session ** 2 + 1.0) * d, rel=0.10)

    def test_condition_assignment_covers_all(self):
        corpus = D.generate_corpus(small_spec())
        seen = {u.condition for u in corpus.utterances}
        assert seen == set(small_spec().conditions)

    # SHA-256 of the feature-file bytes, in corpus order, of corpora written
    # by the per-utterance generator that ran scipy.signal.lfilter on each
    # utterance; the stacked recursion must keep every byte.  The last row
    # (160 utterances, three generation blocks) was taken from the generator
    # that filtered the whole corpus in one stack.
    @pytest.mark.parametrize("overrides, digest", [
        ({}, "dc1dd13ae10e8ea25cb07a2e70836f63d4bc38c7f446e7c4e8841460ab99a68f"),
        ({"ar_coefficient": 0.95, "frames_min": 15, "frames_max": 40},
         "da583e5b3ba6fb18cbd9225732c5a2ef4bef35db5a43a18f28f97367ae886908"),
        ({"ar_coefficient": 0.0},
         "a28b54536046e54a93610f9405c6aa99f29ffca54e48294b5854e1940be93f5d"),
        ({"num_speakers": 20, "utts_per_speaker": 8, "ar_coefficient": 0.8,
          "frames_min": 10, "frames_max": 60},
         "3544fa01af63db9e37883e50ca17e9a8ea8b9912a8a9ad339268ffdd8c106b8a"),
    ])
    def test_feature_bytes_are_pinned(self, overrides, digest):
        corpus = D.generate_corpus(small_spec(**overrides))
        sha = hashlib.sha256()
        for utt in corpus.utterances:
            sha.update(D.feature_file_bytes(corpus.features(utt.utt_id)))
        assert sha.hexdigest() == digest

    def test_working_memory_is_one_block(self):
        """The traced peak of generating a corpus of more than four blocks
        stays below its float32 features plus twice one block's float64
        noise stack; a stack for the whole corpus would add four."""
        spec = small_spec(num_speakers=4 * D.GENERATION_BLOCK + 1, utts_per_speaker=1,
                          feature_dim=30, frames_min=100, frames_max=300)
        block_noise = D.GENERATION_BLOCK * spec.frames_max * spec.feature_dim * 8
        tracemalloc.start()
        try:
            corpus = D.generate_corpus(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        features = [corpus.features(u.utt_id) for u in corpus.utterances]
        assert all(f.dtype == np.float32 for f in features)
        feature_bytes = sum(f.nbytes for f in features)
        assert peak < feature_bytes + 2 * block_noise, (peak, feature_bytes, block_noise)


class TestArFilter:
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.95])
    @pytest.mark.parametrize("frames", [1, 2, 37])
    def test_matches_lfilter(self, rng, rho, frames):
        x = rng.standard_normal((frames, 6))
        expected = lfilter([1.0], [1.0, -rho], x, axis=0)
        assert np.array_equal(D.ar1_filter(x.copy(), rho), expected)

    @pytest.mark.parametrize("rho", [0.0, 0.95])
    def test_padded_stack_matches_each_utterance(self, rng, rho):
        lengths = [1, 17, 5, 40, 2]
        stack = np.zeros((len(lengths), max(lengths), 3))
        for i, n in enumerate(lengths):
            stack[i, :n] = rng.standard_normal((n, 3))
        expected = [lfilter([1.0], [1.0, -rho], stack[i, :n], axis=0)
                    for i, n in enumerate(lengths)]
        assert D.ar1_filter(stack, rho) is stack
        for i, n in enumerate(lengths):
            assert np.array_equal(stack[i, :n], expected[i])


class TestFeatureFiles:
    def test_round_trip(self, tmp_path, rng):
        mat = rng.normal(size=(9, 4)).astype(np.float32).astype(np.float64)
        path = str(tmp_path / "utt.axvf")
        D.write_feature_file(path, mat)
        assert np.array_equal(D.read_feature_file(path), mat)

    def test_byte_layout_matches_independent_writer(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        expected = struct.pack("<4sIII", b"AXVF", 1, 3, 2)
        for value in (1, 2, 3, 4, 5, 6):
            expected += struct.pack("<f", float(value))
        assert D.feature_file_bytes(mat) == expected

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.axvf"
        path.write_bytes(b"XXXX" + b"\x00" * 28)
        with pytest.raises(FormatError, match="magic"):
            D.read_feature_file(str(path))

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "short.axvf"
        good = D.feature_file_bytes(rng.normal(size=(4, 3)))
        path.write_bytes(good[:-4])
        with pytest.raises(FormatError, match="payload"):
            D.read_feature_file(str(path))

    def test_zero_frame_header(self, tmp_path):
        path = tmp_path / "zero.axvf"
        path.write_bytes(struct.pack("<4sIII", b"AXVF", 1, 0, 3))
        with pytest.raises(FormatError, match="invalid header"):
            D.read_feature_file(str(path))

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            D.write_feature_file(str(tmp_path / "x.axvf"), np.empty((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, tmp_path, rng, bad):
        mat = rng.normal(size=(5, 3))
        mat[3, 1] = bad
        path = str(tmp_path / "bad.axvf")
        D.write_feature_file(path, mat)
        with pytest.raises(FormatError, match=r"bad\.axvf: frame 3 holds a NaN or infinite"):
            D.read_feature_file(path)


    def test_frame_range_read_fills_the_callers_array(self, tmp_path, rng):
        mat = rng.normal(size=(9, 4)).astype(np.float32)
        path = str(tmp_path / "utt.axvf")
        D.write_feature_file(path, mat)
        out = np.full((12, 4), -1.0, np.float32)
        assert D.read_feature_file(path, out[2:7], 3).base is out
        assert np.array_equal(out[2:7], mat[3:8])
        assert np.all(out[:2] == -1.0) and np.all(out[7:] == -1.0)

    @pytest.mark.parametrize("shape, start", [((5, 4), 5), ((2, 3), 0), ((1, 4), -1)])
    def test_frame_range_outside_the_file_refused(self, tmp_path, rng, shape, start):
        path = str(tmp_path / "utt.axvf")
        D.write_feature_file(path, rng.normal(size=(9, 4)))
        with pytest.raises(FormatError, match=r"utt\.axvf: holds 9x4 features"):
            D.read_feature_file(path, np.empty(shape, np.float32), start)

    def test_frame_range_needs_a_float32_row_block(self, tmp_path, rng):
        path = str(tmp_path / "utt.axvf")
        D.write_feature_file(path, rng.normal(size=(9, 4)))
        for out in (np.empty((3, 4)), np.empty((4, 3), np.float32).T, np.empty(4, np.float32)):
            with pytest.raises(ValueError, match="C-contiguous float32"):
                D.read_feature_file(path, out)


class TestCorpusIo:
    def test_save_load_round_trip(self, tmp_path):
        corpus = D.generate_corpus(small_spec())
        D.save_corpus(corpus, str(tmp_path / "c"))
        loaded = D.load_corpus(str(tmp_path / "c"))
        assert [u.utt_id for u in loaded.utterances] == sorted(u.utt_id for u in corpus.utterances)
        for utt in loaded.utterances:
            original = corpus.utterance(utt.utt_id)
            assert utt.speaker_id == original.speaker_id
            assert utt.condition == original.condition
            assert np.array_equal(loaded.features(utt.utt_id), corpus.features(utt.utt_id))
            assert loaded.features(utt.utt_id).dtype == np.float32
            assert corpus.features(utt.utt_id).dtype == np.float32

    def test_loaded_corpus_reads_what_was_saved(self, tmp_path):
        corpus = D.generate_corpus(small_spec())
        D.save_corpus(corpus, str(tmp_path / "c"))
        loaded = D.load_corpus(str(tmp_path / "c"))
        assert loaded.feature_dim == corpus.feature_dim == 5
        for utt in corpus.utterances:
            frames = corpus.frames(utt.utt_id)
            assert loaded.frames(utt.utt_id) == frames
            a, b = np.empty((frames - 3, 5), np.float32), np.empty((frames - 3, 5), np.float32)
            loaded.read_frames(utt.utt_id, 2, a)
            corpus.read_frames(utt.utt_id, 2, b)
            assert np.array_equal(a, b)
            assert np.array_equal(a, corpus.features(utt.utt_id)[2:frames - 1])

    def test_loaded_corpus_does_not_grow_with_its_features(self, tmp_path):
        """load_corpus keeps an index, so four times the utterances add far
        less than their features' bytes."""
        kept, feature_bytes = {}, {}
        for n in (16, 64):
            corpus = D.generate_corpus(small_spec(num_speakers=n // 4, feature_dim=30,
                                                  frames_min=200, frames_max=300))
            D.save_corpus(corpus, str(tmp_path / str(n)))
            feature_bytes[n] = sum(corpus.features(u.utt_id).nbytes for u in corpus.utterances)
            del corpus
            tracemalloc.start()
            loaded = D.load_corpus(str(tmp_path / str(n)))
            kept[n] = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            assert len(loaded) == n
        assert kept[64] - kept[16] < 0.05 * (feature_bytes[64] - feature_bytes[16])

    @pytest.mark.parametrize("how", sorted(ALTERATIONS))
    @pytest.mark.parametrize("read", ["features", "read_frames"])
    def test_file_altered_after_load_is_named(self, tmp_path, how, read):
        D.save_corpus(D.generate_corpus(small_spec()), str(tmp_path / "c"))
        loaded = D.load_corpus(str(tmp_path / "c"))
        utt = loaded.utterances[3].utt_id
        path = str(tmp_path / "c" / "features" / f"{utt}.axvf")
        alter(path, how)
        with pytest.raises(FormatError, match=re.escape(path)):
            if read == "features":
                loaded.features(utt)
            else:
                loaded.read_frames(utt, 1, np.empty((loaded.frames(utt) - 2, 5), np.float32))

    def test_utterance_lookup_by_id(self):
        corpus = D.generate_corpus(small_spec())
        for utt in corpus.utterances:
            assert corpus.utterance(utt.utt_id) is utt
        with pytest.raises(KeyError, match="no-such-utt"):
            corpus.utterance("no-such-utt")
        twice = corpus.utterances[:1] * 2
        with pytest.raises(ValueError, match="unique"):
            D.Corpus(twice, {twice[0].utt_id: corpus.features(twice[0].utt_id)})

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "utt2spk"
        path.write_text("a spk1\nb spk1\n\na spk2\n")
        with pytest.raises(FormatError, match=r"utt2spk:4: duplicate key 'a' \(first on line 1\)"):
            D.read_key_value_file(str(path))

    def test_utterance_without_condition_rejected(self, tmp_path):
        corpus = D.generate_corpus(small_spec())
        root = tmp_path / "c"
        D.save_corpus(corpus, str(root))
        lines = (root / "utt2cond").read_text().splitlines(keepends=True)
        (root / "utt2cond").write_text("".join(lines[:2] + lines[3:]))
        dropped = lines[2].split()[0]
        with pytest.raises(FormatError, match=rf"utt2spk:3: utterance '{dropped}' has no "
                                              r"entry in .*utt2cond"):
            D.load_corpus(str(root))

    @pytest.mark.parametrize("text, message", [
        ("[1]", "expected a JSON object, got list"),
        ('{"eval_speaker_ids": 5}', "eval_speaker_ids must be a list of speaker ids, got int"),
        ("", "not valid JSON"),
        ("[" * 100_000, "not valid JSON"),
        ('{"eval_speaker_ids": ["no-such-speaker"]}',
         "eval speaker 'no-such-speaker' has no utterance in .*utt2spk"),
    ], ids=["not-an-object", "ids-not-a-list", "invalid-json", "nested-too-deep",
            "unknown-speaker"])
    def test_malformed_corpus_json_rejected(self, tmp_path, text, message):
        root = tmp_path / "c"
        D.save_corpus(D.generate_corpus(small_spec()), str(root))
        (root / "corpus.json").write_text(text)
        with pytest.raises(FormatError, match=rf"corpus\.json: {message}"):
            D.load_corpus(str(root))

    def test_subset_by_speakers(self):
        corpus = D.generate_corpus(small_spec())
        keep = corpus.speakers()[:2]
        sub = corpus.subset_by_speakers(keep)
        assert sub.speakers() == keep
        assert len(sub) == 2 * small_spec().utts_per_speaker


class TestTrials:
    def test_contracts(self):
        corpus = D.generate_corpus(small_spec())
        trials = D.generate_trials(corpus, seed=5, n_target=10, n_nontarget=20)
        speaker_of = {u.utt_id: u.speaker_id for u in corpus.utterances}
        targets = [t for t in trials if t.target]
        nontargets = [t for t in trials if not t.target]
        assert len(targets) == 10 and len(nontargets) == 20
        assert all(speaker_of[t.enroll] == speaker_of[t.test] for t in targets)
        assert all(speaker_of[t.enroll] != speaker_of[t.test] for t in nontargets)
        assert all(t.enroll != t.test for t in trials)
        pairs = [(t.enroll, t.test) for t in trials]
        assert len(pairs) == len(set(pairs))

    def test_deterministic(self):
        corpus = D.generate_corpus(small_spec())
        a = D.generate_trials(corpus, seed=5, n_target=8, n_nontarget=8)
        b = D.generate_trials(corpus, seed=5, n_target=8, n_nontarget=8)
        assert a == b

    def test_counts_exceeding_pairs(self):
        corpus = D.generate_corpus(small_spec())
        with pytest.raises(ValueError, match="target"):
            D.generate_trials(corpus, seed=1, n_target=10_000, n_nontarget=1)

    def test_per_condition_subsets_nonempty(self):
        corpus = D.generate_corpus(small_spec(num_speakers=6, utts_per_speaker=8))
        trials = D.generate_trials(corpus, seed=2, n_target=60, n_nontarget=200)
        condition_of = {u.utt_id: u.condition for u in corpus.utterances}
        seen = {condition_of[t.test] for t in trials}
        assert seen == set(small_spec().conditions)

    def test_file_round_trip(self, tmp_path):
        corpus = D.generate_corpus(small_spec())
        trials = D.generate_trials(corpus, seed=5, n_target=6, n_nontarget=6)
        path = str(tmp_path / "trials.txt")
        D.write_trials(path, trials)
        assert D.read_trials(path) == trials
        first_line = open(path).readline().split()
        assert len(first_line) == 3 and first_line[2] in ("target", "nontarget")

    def test_repeated_pair_refused(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("a b target\nb a nontarget\na b nontarget\n")
        with pytest.raises(FormatError,
                           match=r"trials\.txt:3: duplicate key 'a b' \(first on line 1\)"):
            D.read_trials(str(path))


def metadata_corpus(speaker_of: dict[str, str]) -> D.Corpus:
    """A corpus of utterance ids and speakers only; trials need no features."""
    return D.Corpus([D.Utterance(u, s, "clean") for u, s in speaker_of.items()], {})


class TestTrialsMatchEnumeration:
    """``generate_trials`` against the enumerating sampler it replaced."""

    # the eval subsets gen-data draws from: the toy acceptance config (8 of 32
    # speakers x 20 utterances) and the eval-scale benchmark config (250 of
    # 750 speakers x 8 utterances, about 2 M cross-speaker pairs)
    @pytest.mark.parametrize("first, speakers, utts, n_target, n_nontarget, seed", [
        (24, 8, 20, 400, 1600, 99),
        (500, 250, 8, 5000, 95000, 902),
    ])
    def test_trial_files_identical(self, tmp_path, first, speakers, utts, n_target,
                                   n_nontarget, seed):
        corpus = metadata_corpus({f"spk{s:04d}_utt{u:03d}": f"spk{s:04d}"
                                  for s in range(first, first + speakers)
                                  for u in range(utts)})
        D.write_trials(str(tmp_path / "new"),
                       D.generate_trials(corpus, [seed], n_target, n_nontarget))
        D.write_trials(str(tmp_path / "old"),
                       ref.generate_trials(corpus, [seed], n_target, n_nontarget))
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_uneven_speakers(self, seed):
        # speakers drawn per utterance: a speaker's ids are not contiguous in
        # sorted order, and speakers differ in size
        rng = np.random.default_rng(seed)
        speakers = rng.integers(0, 5, size=rng.integers(8, 30))
        corpus = metadata_corpus({f"u{i:03d}": f"s{k}" for i, k in enumerate(speakers)})
        n_target_pairs = sum(c * (c - 1) // 2 for c in np.bincount(speakers))
        n_nontarget_pairs = len(speakers) * (len(speakers) - 1) // 2 - n_target_pairs
        counts = (int(rng.integers(0, n_target_pairs + 1)),
                  int(rng.integers(0, n_nontarget_pairs + 1)))
        assert (D.generate_trials(corpus, seed, *counts)
                == ref.generate_trials(corpus, seed, *counts))

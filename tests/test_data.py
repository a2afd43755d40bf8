import struct

import numpy as np
import pytest

from axvector import data as D
from axvector.serialize import FormatError


def small_spec(**overrides):
    base = dict(num_speakers=4, utts_per_speaker=4, feature_dim=5, frames_min=16,
                frames_max=24, sigma_between=1.0, sigma_session=0.3,
                ar_coefficient=0.4, seed=11)
    base.update(overrides)
    return D.CorpusSpec(**base)


class TestGeneration:
    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = small_spec()
        D.generate_corpus(spec, str(tmp_path / "a"))
        D.generate_corpus(spec, str(tmp_path / "b"))
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

    def test_frames_min_guard(self):
        with pytest.raises(ValueError, match="14"):
            small_spec(frames_min=10).validate()


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

    def test_utterance_lookup_by_id(self):
        corpus = D.generate_corpus(small_spec())
        for utt in corpus.utterances:
            assert corpus.utterance(utt.utt_id) is utt
        with pytest.raises(KeyError, match="no-such-utt"):
            corpus.utterance("no-such-utt")
        twice = corpus.utterances[:1] * 2
        with pytest.raises(ValueError, match="unique"):
            D.Corpus(twice, {twice[0].utt_id: corpus.features(twice[0].utt_id)})

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
        condition_of = corpus.condition_of()
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

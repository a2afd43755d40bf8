"""Embedding extraction and the scoring chain: centering, discriminant
projection, length normalization, a two-covariance generative scorer, and
equal-weight score fusion.

Scoring follows the usual generative recipe: an embedding is a speaker
variable with between-class covariance plus a session variable with
within-class covariance.  The verification score is the log-likelihood ratio
between the shared-speaker and independent-speaker hypotheses, computed in
closed form.

A score file names each trial once: ``read_scores``, its one reader, maps
(enroll, test) to the score in file order and refuses a repeated trial at
its line, and ``write_scores`` keeps a map's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Model, infer_utterances
from .numerics import as_f64, require
from .serialize import FormatError, atomic_write_text, read_records, table_rows, write_records

LDA_RIDGE = 1e-6          # scaled by trace/dim of the within scatter
COVARIANCE_FLOOR = 1e-8   # minimum eigenvalue kept in the PLDA covariances


class EmbeddingTable:
    """Ordered (utt_id, vector) pairs with a uniform dimension."""

    def __init__(self, ids: list[str], vectors: np.ndarray):
        vectors = as_f64(vectors)
        require(vectors.ndim == 2 and vectors.shape[0] == len(ids),
                "need one vector per utterance id")
        require(len(ids) == len(set(ids)), "utterance ids must be unique")
        bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
        if bad.size:
            raise ValueError(f"embedding of utterance {ids[bad[0]]!r} holds a NaN or "
                             f"infinite value")
        self.ids = list(ids)
        self.vectors = vectors
        self._index = {utt_id: i for i, utt_id in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, utt_id: str) -> np.ndarray:
        if utt_id not in self._index:
            raise KeyError(f"no embedding for utterance {utt_id!r}")
        return self.vectors[self._index[utt_id]]

    def select(self, utt_ids: list[str]) -> np.ndarray:
        return np.stack([self.vector(u) for u in utt_ids])

    def save(self, path: str) -> None:
        header = {"kind": "embeddings", "dim": int(self.dim)}
        write_records(path, header, [(u, self.vectors[i]) for i, u in enumerate(self.ids)])

    @classmethod
    def load(cls, path: str) -> "EmbeddingTable":
        header, records = read_records(path)
        if header.get("kind") != "embeddings":
            raise FormatError(f"{path}: not an embedding table")
        ids = [name for name, _ in records]
        try:
            return cls(ids, np.stack([vec for _, vec in records]))
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def extract_embeddings(model: Model, corpus) -> EmbeddingTable:
    """Inference-mode embeddings over full, uncropped utterances, computed
    in the model's dtype (float64 for a loaded checkpoint, like the rest of
    the back end)."""
    return EmbeddingTable([u.utt_id for u in corpus.utterances],
                          infer_utterances(model, corpus, "embedding"))


# ---------------------------------------------------------------------------
# centering + discriminant projection + length normalization
# ---------------------------------------------------------------------------


@dataclass
class PreprocessTransform:
    mean: np.ndarray         # (dim,)
    projection: np.ndarray   # (dim, lda_dim)


def _generalized_eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetric-definite problem ``a v = lambda b v``,
    eigenvalues ascending and eigenvectors b-orthonormal, by Cholesky
    reduction to a standard problem (what LAPACK ``sygvd`` does): with
    ``b = L L^T``, ``v = L^-T u`` for the eigenvectors u of ``L^-1 a L^-T``."""
    inv_lower = np.linalg.inv(np.linalg.cholesky(b))
    reduced = inv_lower @ a @ inv_lower.T
    eigvals, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
    return eigvals, inv_lower.T @ vectors


def preprocess_fit(vectors, labels, lda_dim: int) -> PreprocessTransform:
    """Fit centering plus a Fisher discriminant projection on labeled
    training embeddings.  A small ridge keeps the within scatter invertible."""
    x = as_f64(vectors)
    labels = np.asarray(labels)
    require(x.ndim == 2 and x.shape[0] == labels.shape[0], "need one label per vector")
    n_classes = len(np.unique(labels))
    limit = min(x.shape[1], n_classes - 1)
    require(1 <= lda_dim <= limit,
            f"lda_dim={lda_dim} must lie in [1, {limit}] for {n_classes} classes "
            f"of dimension {x.shape[1]}")
    mean = x.mean(axis=0)
    centered = x - mean
    overall = centered.mean(axis=0)
    dim = x.shape[1]
    within, between = np.zeros((dim, dim)), np.zeros((dim, dim))
    for n, class_mean, scatter in _class_stats(centered, labels):
        within += scatter
        offset = class_mean - overall
        between += n * np.outer(offset, offset)
    within /= x.shape[0]
    between /= x.shape[0]
    ridge = LDA_RIDGE * np.trace(within) / within.shape[0]
    within = within + max(ridge, LDA_RIDGE) * np.eye(within.shape[0])
    eigvals, eigvecs = _generalized_eigh(between, within)
    order = np.argsort(eigvals)[::-1][:lda_dim]
    projection = eigvecs[:, order]
    # deterministic sign convention: largest-magnitude component positive
    for j in range(projection.shape[1]):
        k = int(np.argmax(np.abs(projection[:, j])))
        if projection[k, j] < 0:
            projection[:, j] = -projection[:, j]
    return PreprocessTransform(mean=mean, projection=projection)


def preprocess_apply(transform: PreprocessTransform, vectors) -> np.ndarray:
    """Center, project, then scale each row of an (n, dim) matrix to unit
    Euclidean norm."""
    x = as_f64(vectors)
    dim = transform.mean.shape[0]
    require(x.ndim == 2 and x.shape[1] == dim,
            f"vectors must be an (n, {dim}) matrix, got shape {x.shape}")
    projected = (x - transform.mean) @ transform.projection
    norms = np.linalg.norm(projected, axis=1, keepdims=True)
    norms = np.where(norms == 0.0, 1.0, norms)
    return projected / norms


# ---------------------------------------------------------------------------
# two-covariance generative model
# ---------------------------------------------------------------------------


@dataclass
class PldaModel:
    mean: np.ndarray      # (dim,)
    between: np.ndarray   # (dim, dim) speaker covariance
    within: np.ndarray    # (dim, dim) session covariance
    em_loglik: list = field(default_factory=list)   # total log-likelihood per EM pass


def _floor_covariance(cov: np.ndarray, floor: float) -> np.ndarray:
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    return (vecs * np.maximum(vals, floor)) @ vecs.T


def _class_stats(x: np.ndarray, labels: np.ndarray):
    """(count, mean, scatter about the mean) of each class, in label order,
    one class at a time."""
    for c in np.unique(labels):
        rows = x[labels == c]
        mean = rows.mean(axis=0)
        centered = rows - mean
        yield rows.shape[0], mean, centered.T @ centered


def _total_loglik(stats, mean_all, between, within) -> float:
    """Exact marginal log-likelihood of the two-covariance model.

    Per class with n observations: the scaled class mean is Gaussian with
    covariance within + n * between, and the n-1 within-class deviation
    directions are i.i.d. with the within covariance.
    """
    dim = between.shape[0]
    log2pi = np.log(2.0 * np.pi)
    sign_w, logdet_w = np.linalg.slogdet(within)
    require(sign_w > 0, "within covariance must be positive definite")
    win_inv = np.linalg.inv(within)
    total = 0.0
    for n, class_mean, scatter in stats:
        pooled = within + n * between
        sign_p, logdet_p = np.linalg.slogdet(pooled)
        require(sign_p > 0, "pooled covariance must be positive definite")
        diff = class_mean - mean_all
        quad = n * float(diff @ np.linalg.solve(pooled, diff))
        total += -0.5 * (dim * log2pi + logdet_p + quad)
        total += -0.5 * ((n - 1) * dim * log2pi + (n - 1) * logdet_w
                         + float(np.sum(win_inv * scatter)))
    return total


def plda_train(vectors, labels, iterations: int) -> PldaModel:
    """Fit the two-covariance model to two or more classes by EM.

    The recorded ``em_loglik`` sequence (one entry per pass, plus the final
    state) is non-decreasing.
    """
    x = as_f64(vectors)
    labels = np.asarray(labels)
    require(x.ndim == 2 and x.shape[0] == labels.shape[0], "need one label per vector")
    mean_all = x.mean(axis=0)
    stats = list(_class_stats(x, labels))
    dim = x.shape[1]
    require(len(stats) >= 2, f"PLDA training needs at least 2 classes, got {len(stats)}")
    # moment-based initialization
    class_means = np.stack([m for _, m, _ in stats])
    between = _floor_covariance(np.cov(class_means.T, bias=True).reshape(dim, dim),
                                COVARIANCE_FLOOR)
    within = _floor_covariance(
        sum(s for _, _, s in stats) / x.shape[0], COVARIANCE_FLOOR)
    model = PldaModel(mean=mean_all, between=between, within=within)
    model.em_loglik.append(_total_loglik(stats, mean_all, between, within))
    n_total = x.shape[0]
    for _ in range(iterations):
        win_inv = np.linalg.inv(within)
        bet_inv = np.linalg.inv(between)
        new_between = np.zeros((dim, dim))
        new_within = np.zeros((dim, dim))
        for n, class_mean, scatter in stats:
            precision = bet_inv + n * win_inv
            posterior_cov = np.linalg.inv(precision)
            posterior_mean = posterior_cov @ (win_inv @ (n * (class_mean - mean_all)))
            new_between += posterior_cov + np.outer(posterior_mean, posterior_mean)
            resid = class_mean - mean_all - posterior_mean
            new_within += scatter + n * (np.outer(resid, resid) + posterior_cov)
        between = _floor_covariance(new_between / len(stats), COVARIANCE_FLOOR)
        within = _floor_covariance(new_within / n_total, COVARIANCE_FLOOR)
        model.between, model.within = between, within
        model.em_loglik.append(_total_loglik(stats, mean_all, between, within))
    return model


def _positive_definite(matrix: np.ndarray) -> bool:
    """Whether a Cholesky factorization of ``matrix`` (its lower triangle)
    succeeds; a determinant's sign cannot tell, since an even number of
    negative eigenvalues leaves it positive."""
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


class PldaScorer:
    """Closed-form log-likelihood-ratio scorer for a two-covariance model.

    With centered vectors e and t, total covariance A = between + within and
    D = A - between A^-1 between:

        llr = 0.5 e'Qe + 0.5 t'Qt + e'Pt + 0.5 log(|A| / |D|)
        Q = A^-1 - D^-1,  P = D^-1 between A^-1

    A zero speaker covariance gives D = A, so Q, P and the offset are
    exactly zero and every pair scores +0.0.
    """

    def __init__(self, model: PldaModel):
        self.mean = model.mean
        total = model.between + model.within
        require(_positive_definite(total), "scorer covariances must be positive definite")
        tot_inv_b = np.linalg.solve(total, model.between)          # A^-1 B
        diff = total - model.between @ tot_inv_b                   # A - B A^-1 B
        require(_positive_definite(diff), "scorer covariances must be positive definite")
        diff_inv = np.linalg.inv(diff)
        quad = np.linalg.inv(total) - diff_inv
        cross = diff_inv @ tot_inv_b.T                             # D^-1 B A^-1
        self.quad = 0.5 * (quad + quad.T)
        self.cross = 0.5 * (cross + cross.T)
        _, logdet_a = np.linalg.slogdet(total)
        _, logdet_d = np.linalg.slogdet(diff)
        self.offset = 0.5 * (logdet_a - logdet_d)

    def score(self, enroll, test) -> float:
        enroll = as_f64(enroll)
        test = as_f64(test)
        require(enroll.shape == test.shape == self.mean.shape,
                f"vector dims {enroll.shape}/{test.shape} do not match model dim "
                f"{self.mean.shape}")
        e = enroll - self.mean
        t = test - self.mean
        return float(0.5 * e @ self.quad @ e + 0.5 * t @ self.quad @ t
                     + e @ self.cross @ t + self.offset)

    def score_pairs(self, enroll_rows, test_rows) -> np.ndarray:
        e = as_f64(enroll_rows) - self.mean
        t = as_f64(test_rows) - self.mean
        quad_e = 0.5 * np.einsum("ij,ij->i", e @ self.quad, e)
        quad_t = 0.5 * np.einsum("ij,ij->i", t @ self.quad, t)
        cross = np.einsum("ij,ij->i", e @ self.cross, t)
        return quad_e + quad_t + cross + self.offset


# ---------------------------------------------------------------------------
# score lists and fusion
# ---------------------------------------------------------------------------


def fuse_scores(score_maps: list[dict], names: list[str]) -> dict:
    """Per-trial arithmetic mean of the ``read_scores`` maps of the files
    ``names``, in the first map's order.  A map that lacks one of the first
    map's trials, or scores one it lacks, fails naming its file."""
    require(1 <= len(score_maps) == len(names), "need one name per score map, at least one")
    base = score_maps[0]
    for name, table in zip(names[1:], score_maps[1:]):
        missing = base.keys() - table.keys()
        if missing:
            raise ValueError(f"{name}: no score for trial {' '.join(min(missing))}")
        if len(table) != len(base):
            extra = min(table.keys() - base.keys())
            raise ValueError(f"{name}: scores trial {' '.join(extra)}, which {names[0]} "
                             f"does not")
    return {key: sum(m[key] for m in score_maps) / len(score_maps) for key in base}


def write_scores(path: str, scores: dict) -> None:
    """One ``enroll test score`` line per trial of ``scores``, in its order."""
    atomic_write_text(path, "".join(f"{e} {t} {s:.6f}\n" for (e, t), s in scores.items()))


def read_scores(path: str) -> dict:
    """``enroll test score`` lines as a map from (enroll, test) to the score,
    in file order.  Every score must be a finite number, and a trial may be
    scored only once."""
    out = {}
    for line_no, (enroll, test, text) in table_rows(path, "enroll test score", 2):
        try:
            score = float(text)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise FormatError(f"{path}:{line_no}: score {text!r} is not a finite number")
        out[enroll, test] = score
    return out


# ---------------------------------------------------------------------------
# backend persistence
# ---------------------------------------------------------------------------


BACKEND_RECORDS = ("center_mean", "projection", "plda_mean", "plda_between", "plda_within")


def save_backend(path: str, transform: PreprocessTransform, plda: PldaModel) -> None:
    header = {"kind": "backend", "lda_dim": int(transform.projection.shape[1])}
    values = (transform.mean, transform.projection, plda.mean, plda.between, plda.within)
    write_records(path, header, list(zip(BACKEND_RECORDS, values)))


def load_backend(path: str) -> tuple[PreprocessTransform, PldaModel]:
    """Read a backend that ``save_backend`` wrote.  It must hold its five
    records and no other, and with k the header's ``lda_dim``, ``center_mean``
    (d,), ``projection`` (d, k), ``plda_mean`` (k,) and both PLDA covariances
    (k, k); otherwise one FormatError names the file."""
    header, records = read_records(path)
    if header.get("kind") != "backend":
        raise FormatError(f"{path}: not a backend model")
    by_name, k = dict(records), header.get("lda_dim")
    odd = sorted(by_name.keys() ^ set(BACKEND_RECORDS))
    if odd:
        raise FormatError(f"{path}: {'unknown' if odd[0] in by_name else 'missing'} backend "
                          f"record {odd[0]!r}")
    dim = by_name["center_mean"].shape[0] if by_name["center_mean"].ndim == 1 else "d"
    for name, shape in zip(BACKEND_RECORDS, ((dim,), (dim, k), (k,), (k, k), (k, k))):
        if by_name[name].shape != shape:
            raise FormatError(f"{path}: record {name!r} has shape {by_name[name].shape}, "
                              f"expected {shape}")
    transform = PreprocessTransform(mean=by_name["center_mean"], projection=by_name["projection"])
    plda = PldaModel(mean=by_name["plda_mean"], between=by_name["plda_between"],
                     within=by_name["plda_within"])
    return transform, plda

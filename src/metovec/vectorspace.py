"""Similarity and analogy queries over a trained embedding model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingModel, NotInVocabularyError


# a norm in this range has a sum of squares well inside the normal floats
SAFE_NORM_RANGE = (2.0 ** -480, 2.0 ** 480)


def _with_norms(rows):
    """Norms of ``rows`` (2-D), the ids of the rows whose norm is outside
    SAFE_NORM_RANGE, and those rows rescaled.  There the squares underflow
    into subnormals, which lose precision, or overflow; so each is scaled
    by the power of two that puts its largest magnitude in [0.5, 1), and
    its norm taken again.  The scaling is exact, so cosines are unchanged.
    With every norm in range, as for most blocks, no row is rescaled."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    low, high = SAFE_NORM_RANGE
    ids = np.flatnonzero(~((low < norms) & (norms < high)))
    if not ids.size:
        return norms, ids, np.empty((0, rows.shape[1]), rows.dtype)
    _, exponents = np.frexp(np.abs(rows[ids]).max(axis=1, initial=0.0))
    scaled = np.ldexp(rows[ids], -exponents[:, None])
    norms[ids] = np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
    return norms, ids, scaled


def _scores(matrix, row_norms, query) -> np.ndarray:
    """Cosine of each row of ``matrix`` with ``query``, NaN for a row of
    norm 0, where ``row_norms`` is ``_with_norms(matrix)``."""
    query = np.asarray(query, dtype=float)[None]
    query_norm, ids, scaled = _with_norms(query)
    if query_norm[0] == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    query = (scaled if ids.size else query)[0]
    norms, ids, scaled = row_norms
    scores = np.einsum("ij,j->i", matrix, query)
    if ids.size:
        scores[ids] = np.einsum("ij,j->i", scaled, query)
    with np.errstate(invalid="ignore"):  # a zero row scores 0 / 0, NaN
        scores /= norms * query_norm
    return scores


def cosine_scores(matrix, query) -> np.ndarray:
    """Cosine of each row of ``matrix`` with ``query``, NaN for a row of
    norm 0.  Norms and dot products are ``einsum`` sums per row: O(V)
    extra memory, no BLAS, and a row's score does not depend on the other
    rows, so a one-row call gives the same bits as a block."""
    matrix = np.asarray(matrix, dtype=float)
    return _scores(matrix, _with_norms(matrix), query)


def _input_norms(model: EmbeddingModel):
    """``_with_norms`` of ``model.input_vectors``, computed on the first
    call and kept in ``model.input_norms`` while ``input_vectors`` is bound
    to the same array.  That array and the kept norms are made read-only,
    so an edit in place raises instead of ranking with stale norms; an
    array made writable again, as a deep copy of the model is, has its
    norms computed anew."""
    rows, norms = model.input_norms
    if rows is not model.input_vectors or rows.flags.writeable:
        rows = model.input_vectors
        rows.flags.writeable = False
        norms = _with_norms(np.asarray(rows, dtype=float))
        for array in norms:
            array.flags.writeable = False
        model.input_norms = (rows, norms)
    return norms


def _defined(scores):
    if np.isnan(scores).any():
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return scores


def cosine_similarity(a, b) -> float:
    """(a . b) / (||a|| ||b||); raises on a zero-norm argument."""
    return float(_defined(cosine_scores([a], b))[0])


def confidence_scores(matrix, query) -> np.ndarray:
    """``cosine_scores`` clamped to [0, 1]; raises on a zero-norm row."""
    return np.clip(_defined(cosine_scores(matrix, query)), 0.0, 1.0)


@dataclass(frozen=True)
class PhraseVector:
    """Mean of the in-vocab constituents of a phrase."""

    vector: np.ndarray | None
    contributing_words: tuple[str, ...]
    oov_words: tuple[str, ...]

    @property
    def in_vocabulary(self) -> bool:
        return bool(self.contributing_words)


def phrase_vector(model: EmbeddingModel, lemmas) -> PhraseVector:
    """Joint vector of a phrase: the unweighted mean over in-vocab lemmas.

    A phrase with no in-vocab lemma has no vector (``in_vocabulary`` is
    False), mirroring the 'Not in vocab.' outcome downstream.
    """
    lemmas = list(lemmas)
    if not lemmas:
        raise ValueError("phrase has no lemmas")
    contributing = [w for w in lemmas if w in model.vocab]
    oov = [w for w in lemmas if w not in model.vocab]
    if not contributing:
        return PhraseVector(None, (), tuple(oov))
    vec = np.mean([model.vector(w) for w in contributing], axis=0)
    return PhraseVector(vec, tuple(contributing), tuple(oov))


def nearest_neighbours(model: EmbeddingModel, query, k: int,
                       exclude=frozenset()) -> list[tuple[str, float]]:
    """Top-k (word, cosine) pairs by descending score, ties by vocab id;
    rows of norm 0 have no cosine and are left out.  The row norms of
    ``model.input_vectors`` are computed on the first call and reused
    after it, so from then on that array is read-only: to edit the
    vectors, rebind ``input_vectors`` to an edited copy."""
    if k <= 0:
        return []
    scores = _scores(np.asarray(model.input_vectors, dtype=float),
                     _input_norms(model), query)
    vocab = model.vocab
    scores[[vocab.index[word] for word in exclude if word in vocab]] = np.nan
    ids = np.flatnonzero(~np.isnan(scores))
    if k < len(ids):
        kth = -np.partition(-scores[ids], k - 1)[k - 1]
        ids = ids[scores[ids] >= kth]
    ids = ids[np.lexsort((ids, -scores[ids]))[:k]].tolist()
    return [(vocab.words[i], float(scores[i])) for i in ids]


def analogy(model: EmbeddingModel, a: str, b: str, c: str,
            k: int = 1) -> list[tuple[str, float]]:
    """Closest neighbours of vec(b) - vec(a) + vec(c), excluding a, b, c."""
    for word in (a, b, c):
        if word not in model.vocab:
            raise NotInVocabularyError(word)
    query = model.vector(b) - model.vector(a) + model.vector(c)
    return nearest_neighbours(model, query, k, exclude={a, b, c})

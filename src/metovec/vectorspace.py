"""Similarity and analogy queries over a trained embedding model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingModel, NotInVocabularyError


# a norm in this range has a sum of squares well inside the normal floats
SAFE_NORM_RANGE = (2.0 ** -480, 2.0 ** 480)


def _with_norm(v):
    """``v`` and its norm.  Outside SAFE_NORM_RANGE the squares underflow
    into subnormals, which lose precision, or overflow; there ``v`` is
    first scaled by the power of two that puts its largest magnitude in
    [0.5, 1).  The scaling is exact, so the cosine is unchanged."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if SAFE_NORM_RANGE[0] < norm < SAFE_NORM_RANGE[1]:
        return v, norm
    _, exponent = math.frexp(float(np.abs(v).max(initial=0.0)))
    v = np.ldexp(v, -exponent)
    return v, np.linalg.norm(v)


def cosine_similarity(a, b) -> float:
    """(a . b) / (||a|| ||b||); raises on a zero-norm argument."""
    a, norm_a = _with_norm(a)
    b, norm_b = _with_norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return float(np.dot(a, b) / (norm_a * norm_b))


def confidence(a, b) -> float:
    """Cosine similarity clamped to [0, 1]."""
    return max(0.0, cosine_similarity(a, b))


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
    rows of norm 0 have no cosine and are left out."""
    if k <= 0:
        return []
    query = np.asarray(query, dtype=float)
    qnorm = np.linalg.norm(query)
    if qnorm == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm query")
    norms = np.linalg.norm(model.input_vectors, axis=1)
    scores = model.input_vectors @ query
    np.divide(scores, norms * qnorm, out=scores, where=norms != 0.0)
    scores, words = scores.tolist(), model.vocab.words
    results = [(wid, scores[wid]) for wid in np.flatnonzero(norms).tolist()
               if words[wid] not in exclude]
    results.sort(key=lambda item: (-item[1], item[0]))
    return [(model.vocab.words[wid], score) for wid, score in results[:k]]


def analogy(model: EmbeddingModel, a: str, b: str, c: str,
            k: int = 1) -> list[tuple[str, float]]:
    """Closest neighbours of vec(b) - vec(a) + vec(c), excluding a, b, c."""
    for word in (a, b, c):
        if word not in model.vocab:
            raise NotInVocabularyError(word)
    query = model.vector(b) - model.vector(a) + model.vector(c)
    return nearest_neighbours(model, query, k, exclude={a, b, c})

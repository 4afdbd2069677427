import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from metovec.embeddings import NotInVocabularyError
from metovec.vectorspace import (analogy, confidence, cosine_similarity,
                                 nearest_neighbours, phrase_vector)

from conftest import make_model

finite_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False,
              allow_subnormal=False), min_size=2, max_size=6)


def nonzero_norm(vec):
    return float(np.linalg.norm(vec)) > 0.0


def test_cosine_identical():
    assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) \
        == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)


def test_cosine_antipodal():
    assert cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)


def test_cosine_zero_norm_errors():
    with pytest.raises(ValueError):
        cosine_similarity([0, 0], [1, 0])


@given(finite_vectors, finite_vectors)
def test_cosine_symmetric(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    if not (nonzero_norm(a) and nonzero_norm(b)):
        return
    assert cosine_similarity(a, b) == cosine_similarity(b, a)
    assert -1 - 1e-12 <= cosine_similarity(a, b) <= 1 + 1e-12


@given(finite_vectors, st.floats(min_value=0.01, max_value=50))
# a norm computed from squares this small would underflow into subnormals
@example(a=[0.0, 1.9e-158], alpha=0.5)
def test_cosine_scale_invariant(a, alpha):
    b = [x + 1 for x in a]
    scaled = [alpha * x for x in a]
    if not (nonzero_norm(a) and nonzero_norm(b) and nonzero_norm(scaled)):
        return
    assert cosine_similarity(scaled, b) \
        == pytest.approx(cosine_similarity(a, b), abs=1e-9)


# the first norm of a vector scaled far up overflows before it is rescaled
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(finite_vectors, finite_vectors,
       st.integers(min_value=-900, max_value=900))
def test_cosine_power_of_two_scale_invariant(a, b, k):
    n = min(len(a), len(b))
    a, b = np.array(a[:n]), np.array(b[:n])
    assume(np.abs(a).max() > 1e-6 and nonzero_norm(b))
    assert cosine_similarity(np.ldexp(a, k), b) \
        == pytest.approx(cosine_similarity(a, b), abs=1e-12)


def test_confidence_clamps():
    assert confidence([1, 0], [-1, 0]) == 0.0
    assert confidence([1, 0], [0, 1]) == 0.0
    assert confidence([2, 2], [1, 1]) == pytest.approx(1.0)


GRID = {
    "france": [1.0, 0.0],
    "paris": [1.0, 1.0],
    "italy": [2.0, 0.0],
    "rome": [2.0, 1.0],
    "banana": [-5.0, -7.0],
    "quark": [-8.0, 3.0],
}


def test_phrase_vector_single_word():
    model = make_model(GRID)
    pv = phrase_vector(model, ["paris"])
    assert np.allclose(pv.vector, [1.0, 1.0])
    assert pv.in_vocabulary and pv.oov_words == ()


def test_phrase_vector_mean():
    model = make_model(GRID)
    pv = phrase_vector(model, ["france", "italy"])
    assert np.allclose(pv.vector, [1.5, 0.0])
    assert pv.contributing_words == ("france", "italy")


def test_phrase_vector_all_oov():
    model = make_model(GRID)
    pv = phrase_vector(model, ["martian", "blorp"])
    assert not pv.in_vocabulary
    assert pv.vector is None
    assert pv.oov_words == ("martian", "blorp")


def test_phrase_vector_empty_errors():
    with pytest.raises(ValueError):
        phrase_vector(make_model(GRID), [])


def test_nearest_k_zero():
    model = make_model(GRID)
    assert nearest_neighbours(model, [1, 1], 0) == []


def test_nearest_self_first():
    model = make_model(GRID)
    hits = nearest_neighbours(model, GRID["rome"], 1)
    assert hits[0][0] == "rome"
    assert hits[0][1] == pytest.approx(1.0)


def test_nearest_full_vocab():
    model = make_model(GRID)
    hits = nearest_neighbours(model, [1, 0.5], len(GRID), exclude={"quark"})
    assert sorted(w for w, _ in hits) == sorted(set(GRID) - {"quark"})
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_analogy_planted():
    model = make_model(GRID)
    hits = analogy(model, "france", "paris", "italy", k=1)
    assert hits[0][0] == "rome"
    # brute-force confirmation over the remaining vocabulary
    query = np.array(GRID["paris"]) - np.array(GRID["france"]) \
        + np.array(GRID["italy"])
    best = max((w for w in GRID if w not in ("france", "paris", "italy")),
               key=lambda w: cosine_similarity(query, GRID[w]))
    assert best == "rome"


def test_analogy_degenerate_offset():
    model = make_model(GRID)
    hits = analogy(model, "france", "france", "rome", k=1)
    expected = nearest_neighbours(model, GRID["rome"], 1,
                                  exclude={"france", "rome"})
    assert hits == expected


def test_analogy_oov():
    with pytest.raises(NotInVocabularyError):
        analogy(make_model(GRID), "france", "paris", "atlantis")


def test_nearest_scale_invariant_argmax():
    model = make_model(GRID)
    base = nearest_neighbours(model, [1.0, 0.4], 3)
    scaled = nearest_neighbours(model, [3.0, 1.2], 3)
    assert [w for w, _ in base] == [w for w, _ in scaled]


def test_nearest_tie_break_by_vocab_id():
    model = make_model({"a": [1.0, 0.0], "b": [2.0, 0.0], "c": [0.0, 1.0]})
    hits = nearest_neighbours(model, [1.0, 0.0], 2)
    # a and b tie at cosine 1; the lower vocab id wins
    assert [w for w, _ in hits] == ["a", "b"]


def test_similarity_matches_math():
    a, b = [3.0, 4.0], [4.0, 3.0]
    expected = (3 * 4 + 4 * 3) / (5 * 5)
    assert cosine_similarity(a, b) == pytest.approx(expected)
    assert math.isclose(confidence(a, b), expected)
